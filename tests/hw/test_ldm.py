"""The 64 KB LDM allocator."""

import numpy as np
import pytest

from repro.common.errors import LDMOverflowError, SimulationError
from repro.hw.ldm import LDM, LDMAllocator


class TestAllocation:
    def test_alloc_zeroed(self):
        ldm = LDM()
        buf = ldm.alloc("a", (16,))
        assert np.all(buf.data == 0)
        assert buf.nbytes == 128

    def test_capacity_is_64_kib(self):
        assert LDM().capacity == 64 * 1024

    def test_overflow_rejected(self):
        ldm = LDM()
        with pytest.raises(LDMOverflowError):
            ldm.alloc("big", (64 * 1024 // 8 + 1,))

    @pytest.mark.parametrize("shape", [(1 << 28,), (1 << 14, 1 << 14)])
    def test_oversize_alloc_rejected_before_host_allocation(self, shape):
        # 2 GiB of float64: allocating it before the capacity check raises
        # a host MemoryError in a capped address space (verify.sh runs
        # tests/hw under a 2 GiB ulimit) instead of LDMOverflowError.
        ldm = LDM()
        with pytest.raises(LDMOverflowError, match="LDM overflow"):
            ldm.alloc("huge", shape)
        assert ldm.bytes_used == 0 and "huge" not in ldm

    def test_exact_fit_accepted(self):
        ldm = LDM()
        ldm.alloc("exact", (64 * 1024 // 8,))
        assert ldm.bytes_free == 0

    def test_cumulative_overflow(self):
        ldm = LDM()
        ldm.alloc("a", (4096,))  # 32 KiB
        ldm.alloc("b", (4000,))  # ~31 KiB
        with pytest.raises(LDMOverflowError):
            ldm.alloc("c", (1024,))

    def test_duplicate_name_rejected(self):
        ldm = LDM()
        ldm.alloc("a", (4,))
        with pytest.raises(SimulationError):
            ldm.alloc("a", (4,))

    def test_alignment_to_32_bytes(self):
        ldm = LDM()
        ldm.alloc("odd", (1,))  # 8 bytes -> padded to 32
        assert ldm.bytes_used == 32

    def test_double_buffer_pair(self):
        ldm = LDM()
        ping, pong = ldm.alloc_double_buffer("tile", (64,))
        assert ping.name == "tile.ping"
        assert pong.name == "tile.pong"
        assert ldm.bytes_used == 2 * 64 * 8

    def test_reset(self):
        ldm = LDM()
        ldm.alloc("a", (64,))
        ldm.reset()
        assert ldm.bytes_used == 0
        assert "a" not in ldm

    def test_would_fit(self):
        ldm = LDM()
        assert ldm.would_fit(32 * 1024, 32 * 1024)
        assert not ldm.would_fit(32 * 1024, 32 * 1024, 64)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            LDMAllocator(capacity=0)


class TestBuffer:
    def test_write_and_read(self):
        ldm = LDM()
        buf = ldm.alloc("a", (4, 4))
        buf.write((0, slice(None)), np.arange(4.0))
        assert np.array_equal(buf.read((0, slice(None))), np.arange(4.0))

    def test_shape_mismatch_rejected(self):
        ldm = LDM()
        buf = ldm.alloc("a", (4,))
        with pytest.raises(SimulationError):
            buf.write(slice(None), np.zeros(5))

    def test_fill(self):
        ldm = LDM()
        buf = ldm.alloc("a", (8,))
        buf.fill(3.0)
        assert np.all(buf.data == 3.0)

    def test_get_unknown_raises(self):
        with pytest.raises(SimulationError):
            LDM().get("ghost")
