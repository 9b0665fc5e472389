"""DMA engine and the Table II bandwidth model."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.units import GB
from repro.hw.dma import DMABandwidthModel, DMAEngine
from repro.hw.ldm import LDM
from repro.hw.memory import MainMemory
from repro.hw.spec import TABLE_II_DMA_BANDWIDTH


@pytest.fixture
def model():
    return DMABandwidthModel()


class TestBandwidthModel:
    def test_exact_table_entries(self, model):
        for size, (get, put) in TABLE_II_DMA_BANDWIDTH.items():
            assert model.get_bandwidth(size) == pytest.approx(get * GB)
            assert model.put_bandwidth(size) == pytest.approx(put * GB)

    def test_exact_entries_ignore_alignment_flag(self, model):
        # Measured points already include alignment effects.
        assert model.get_bandwidth(32, aligned=False) == pytest.approx(4.31 * GB)

    def test_interpolation_between_points(self, model):
        bw = model.get_bandwidth(768)  # between 640 and 1024
        assert 29.05 * GB < bw < 29.79 * GB

    def test_clamped_below(self, model):
        assert model.get_bandwidth(8) == pytest.approx(4.31 * GB)

    def test_clamped_above(self, model):
        assert model.get_bandwidth(1 << 20) == pytest.approx(32.05 * GB)

    def test_misaligned_interpolated_derated(self, model):
        aligned = model.get_bandwidth(768, aligned=True)
        misaligned = model.get_bandwidth(775, aligned=False)
        assert misaligned < aligned

    def test_direction_dispatch(self, model):
        assert model.bandwidth(256, "get") == pytest.approx(22.44 * GB)
        assert model.bandwidth(256, "put") == pytest.approx(25.80 * GB)
        with pytest.raises(ValueError):
            model.bandwidth(256, "sideways")

    def test_effective_bandwidth_between_get_and_put(self, model):
        eff = model.effective_bandwidth(256, get_fraction=0.5)
        assert min(22.44, 25.80) * GB < eff < max(22.44, 25.80) * GB

    def test_effective_bandwidth_pure_get(self, model):
        eff = model.effective_bandwidth(256, get_fraction=1.0)
        assert eff == pytest.approx(22.44 * GB)

    def test_effective_fraction_validated(self, model):
        with pytest.raises(ValueError):
            model.effective_bandwidth(256, get_fraction=1.5)

    def test_zero_block_rejected(self, model):
        with pytest.raises(ValueError):
            model.get_bandwidth(0)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            DMABandwidthModel(table={})

    @given(st.integers(min_value=1, max_value=1 << 16))
    @settings(max_examples=60, deadline=None)
    def test_bandwidth_positive_and_bounded(self, block):
        model = DMABandwidthModel()
        bw = model.get_bandwidth(block, aligned=model.is_aligned(block))
        assert 0 < bw <= 36.01 * GB

    @given(st.integers(min_value=7, max_value=13))
    @settings(max_examples=20, deadline=None)
    def test_monotone_on_aligned_powers(self, log_size):
        model = DMABandwidthModel()
        small = model.get_bandwidth(2**log_size)
        big = model.get_bandwidth(2 ** (log_size + 1) if log_size < 13 else 2**13)
        assert big >= small


def linear_scan_bandwidth(block_bytes, direction, aligned, alignment=128, factor=0.75):
    """The lookup before bisect and memoization: a linear interval scan."""
    sizes = sorted(TABLE_II_DMA_BANDWIDTH)
    column = [TABLE_II_DMA_BANDWIDTH[s][0 if direction == "get" else 1] for s in sizes]
    exact = block_bytes in set(sizes)
    if block_bytes <= sizes[0]:
        value = column[0]
    elif block_bytes >= sizes[-1]:
        value = column[-1]
    else:
        hi = next(i for i, s in enumerate(sizes) if s >= block_bytes)
        lo = hi - 1
        if sizes[hi] == block_bytes:
            value = column[hi]
        else:
            x = math.log2(block_bytes)
            x0, x1 = math.log2(sizes[lo]), math.log2(sizes[hi])
            t = (x - x0) / (x1 - x0)
            value = column[lo] * (1.0 - t) + column[hi] * t
    if not exact and not aligned and block_bytes % alignment != 0:
        value *= factor
    return value * GB


def _bits(x):
    return struct.pack("<d", x)


class TestLookupOracle:
    """Bisect + memo lookups are bitwise the linear-scan formula."""

    SIZES = sorted(
        set(TABLE_II_DMA_BANDWIDTH)  # every Table II size
        | {1, 8, 31, 33, 96, 100, 160, 200, 300, 448, 520, 600, 768, 1000}  # interpolated
        | {1500, 3000, 4095, 4097, 8192, 65536}  # between and past the ends
        | {136, 257, 392, 1032, 2056}  # misaligned
    )

    @pytest.mark.parametrize("direction", ["get", "put"])
    @pytest.mark.parametrize("aligned", [True, False])
    def test_every_size_matches_oracle(self, direction, aligned):
        model = DMABandwidthModel()
        for _ in range(2):  # cold, then memoized
            for size in self.SIZES:
                got = model.bandwidth(size, direction, aligned=aligned)
                assert _bits(got) == _bits(linear_scan_bandwidth(size, direction, aligned))

    @given(st.integers(min_value=1, max_value=10_000), st.booleans(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_drawn_sizes_match_oracle(self, size, is_get, aligned):
        direction = "get" if is_get else "put"
        model = DMABandwidthModel()
        assert _bits(model.bandwidth(size, direction, aligned)) == _bits(
            linear_scan_bandwidth(size, direction, aligned)
        )

    def test_memo_keys_direction_and_alignment(self):
        model = DMABandwidthModel()
        assert model.get_bandwidth(300) != model.put_bandwidth(300)
        assert model.get_bandwidth(300, aligned=False) < model.get_bandwidth(300)

    def test_non_positive_block_still_rejected(self):
        model = DMABandwidthModel()
        for _ in range(2):
            with pytest.raises(ValueError):
                model.get_bandwidth(0)


class TestDMAEngine:
    def _setup(self):
        mem = MainMemory()
        engine = DMAEngine(mem)
        ldm = LDM()
        return mem, engine, ldm

    def test_get_moves_data(self):
        mem, engine, ldm = self._setup()
        src = mem.register("src", np.arange(32, dtype=np.float64))
        buf = ldm.alloc("buf", (32,))
        engine.dma_get("src", slice(None), buf)
        assert np.array_equal(buf.data, src)

    def test_put_moves_data_back(self):
        mem, engine, ldm = self._setup()
        mem.allocate("dst", (32,))
        buf = ldm.alloc("buf", (32,))
        buf.fill(2.0)
        engine.dma_put(buf, slice(None), "dst", slice(None))
        assert np.all(mem.get("dst") == 2.0)

    def test_put_accumulate(self):
        mem, engine, ldm = self._setup()
        dst = mem.allocate("dst", (8,))
        dst += 1.0
        buf = ldm.alloc("buf", (8,))
        buf.fill(2.0)
        engine.dma_put(buf, slice(None), "dst", slice(None), accumulate=True)
        assert np.all(mem.get("dst") == 3.0)

    def test_transfer_duration_matches_model(self):
        mem, engine, ldm = self._setup()
        mem.register("src", np.zeros(512))  # 4096 bytes
        buf = ldm.alloc("buf", (512,))
        t = engine.dma_get("src", slice(None), buf, block_bytes=4096)
        assert t.duration == pytest.approx(4096 / (32.05 * GB))

    def test_channel_serialization(self):
        mem, engine, ldm = self._setup()
        mem.register("src", np.zeros((2, 512)))
        buf = ldm.alloc("buf", (512,))
        t1 = engine.dma_get("src", (0, slice(None)), buf, channel=0)
        t2 = engine.dma_get("src", (1, slice(None)), buf, channel=0)
        assert t2.start >= t1.finish

    def test_independent_channels_overlap(self):
        mem, engine, ldm = self._setup()
        mem.register("src", np.zeros((2, 512)))
        buf = ldm.alloc("buf", (512,))
        t1 = engine.dma_get("src", (0, slice(None)), buf, channel=0)
        t2 = engine.dma_get("src", (1, slice(None)), buf, channel=1)
        assert t2.start == 0.0
        assert t1.start == 0.0

    def test_stats_accumulate(self):
        mem, engine, ldm = self._setup()
        mem.register("src", np.zeros(512))
        buf = ldm.alloc("buf", (512,))
        engine.dma_get("src", slice(None), buf)
        engine.dma_put(buf, slice(None), "src", slice(None))
        assert engine.stats.bytes_read == 4096
        assert engine.stats.bytes_written == 4096
        assert engine.stats.transfers == 2

    def test_reset_clears_log(self):
        mem, engine, ldm = self._setup()
        mem.register("src", np.zeros(16))
        buf = ldm.alloc("buf", (16,))
        engine.dma_get("src", slice(None), buf)
        engine.reset()
        assert engine.total_bytes() == 0
        assert engine.channel_free_at() == 0.0
