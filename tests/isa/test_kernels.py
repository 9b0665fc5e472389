"""The GEMM inner kernels: the paper's Section VI-B cycle accounting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.register_blocking import enumerate_gemm_blockings
from repro.isa.kernels import (
    GemmKernelSpec,
    gemm_kernel_original,
    gemm_kernel_reordered,
    kernel_cycles,
    paper_execution_efficiency,
    predicted_cycles_original,
    predicted_cycles_reordered,
)
from repro.isa.pipeline import DualPipelineSimulator
from repro.isa.program import Interpreter, MachineState
from repro.perf.model import kernel_ee


#: Every register block up to 8 x 8.
ALL_BLOCKS = [(a, b) for a in range(1, 9) for b in range(1, 9)]

#: The (num_a, num_b) blocks a plan can use: every register-feasible
#: (rbB, rbNo), including the thin 1 x 9..12 and 9..12 x 1 ones.
PLAN_BLOCKS = sorted({(rb.rb_b // 4, rb.rb_no) for rb in enumerate_gemm_blockings()})

#: Every block ``kernel_cycles`` is certified on.
CERTIFIED_BLOCKS = sorted(set(ALL_BLOCKS) | set(PLAN_BLOCKS))


def _simulated_cycles(spec):
    return DualPipelineSimulator().simulate(gemm_kernel_reordered(spec)).total_cycles


def _run_functional(program, spec, seed=0):
    """Interpret a kernel and return its accumulator values."""
    rng = np.random.default_rng(seed)
    st_ = MachineState()
    for it in range(spec.iterations):
        for i in range(spec.num_a):
            st_.store("A", (it, i), rng.standard_normal(4))
        for j in range(spec.num_b):
            st_.store("B", (it, j), rng.standard_normal(1))
    for i in range(spec.num_a):
        for j in range(spec.num_b):
            st_.write_reg(f"C{i}{j}", np.zeros(4))
    st_.write_reg("cnt", np.asarray(0.0))
    Interpreter(st_).run(program)
    return {
        f"C{i}{j}": st_.read_reg(f"C{i}{j}")
        for i in range(spec.num_a)
        for j in range(spec.num_b)
    }


class TestPaperCycleCounts:
    """The exact numbers of Section VI-B."""

    def test_original_is_26_cycles_per_iteration(self):
        sim = DualPipelineSimulator()
        for k in (1, 2, 8, 16):
            spec = GemmKernelSpec(iterations=k)
            report = sim.simulate(gemm_kernel_original(spec))
            assert report.total_cycles == 26 * k

    def test_original_ee_is_61_5_percent(self):
        spec = GemmKernelSpec(iterations=16)
        report = DualPipelineSimulator().simulate(gemm_kernel_original(spec))
        assert report.fma_efficiency == pytest.approx(16 / 26, abs=1e-9)

    def test_reordered_is_5_plus_17k_minus_1_plus_16(self):
        sim = DualPipelineSimulator()
        for k in (1, 2, 3, 8, 16, 48):
            spec = GemmKernelSpec(iterations=k)
            report = sim.simulate(gemm_kernel_reordered(spec))
            assert report.total_cycles == 5 + 17 * (k - 1) + 16

    def test_predictors_match_simulation(self):
        sim = DualPipelineSimulator()
        for k in (1, 4, 32):
            spec = GemmKernelSpec(iterations=k)
            assert (
                sim.simulate(gemm_kernel_original(spec)).total_cycles
                == predicted_cycles_original(spec)
            )
            assert (
                sim.simulate(gemm_kernel_reordered(spec)).total_cycles
                == predicted_cycles_reordered(spec)
            )

    def test_measured_ee_equals_paper_formula(self):
        for ni in (32, 64, 128, 256, 384):
            assert kernel_ee(ni) == pytest.approx(
                paper_execution_efficiency(ni), abs=1e-9
            )

    def test_ee_increases_with_ni(self):
        values = [paper_execution_efficiency(ni) for ni in (32, 64, 128, 384)]
        assert values == sorted(values)

    def test_paper_ee_at_128(self):
        # (16*16)/(5+15*17+16) = 256/276
        assert paper_execution_efficiency(128) == pytest.approx(256 / 276)


class TestKernelStructure:
    def test_original_instruction_mix(self):
        spec = GemmKernelSpec(iterations=3)
        prog = gemm_kernel_original(spec)
        assert prog.count_op("vload") == 4 * 3
        assert prog.count_op("vldde") == 4 * 3
        assert prog.count_op("vfmad") == 16 * 3
        assert prog.count_op("cmp") == 3
        assert prog.count_op("bnw") == 3

    def test_reordered_same_fma_count(self):
        spec = GemmKernelSpec(iterations=5)
        assert gemm_kernel_reordered(spec).count_op("vfmad") == 80

    def test_reordered_branch_only_between_iterations(self):
        spec = GemmKernelSpec(iterations=4)
        assert gemm_kernel_reordered(spec).count_op("bnw") == 3

    def test_flop_counts_match(self):
        spec = GemmKernelSpec(iterations=6)
        assert (
            gemm_kernel_original(spec).flop_count()
            == gemm_kernel_reordered(spec).flop_count()
        )

    def test_invalid_iterations_rejected(self):
        with pytest.raises(ValueError):
            GemmKernelSpec(iterations=0)

    def test_ni_must_divide_by_8(self):
        with pytest.raises(ValueError):
            GemmKernelSpec.for_input_channels(100)
        with pytest.raises(ValueError):
            paper_execution_efficiency(100)


class TestSemanticEquivalence:
    """Reordering must not change what the kernel computes."""

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=999))
    @settings(max_examples=25, deadline=None)
    def test_original_equals_reordered(self, iterations, seed):
        spec = GemmKernelSpec(iterations=iterations)
        acc_orig = _run_functional(gemm_kernel_original(spec), spec, seed)
        acc_reord = _run_functional(gemm_kernel_reordered(spec), spec, seed)
        for name in acc_orig:
            assert np.allclose(acc_orig[name], acc_reord[name])

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=15, deadline=None)
    def test_equivalence_for_other_block_shapes(self, iterations, num_a, num_b):
        spec = GemmKernelSpec(iterations=iterations, num_a=num_a, num_b=num_b)
        acc_orig = _run_functional(gemm_kernel_original(spec), spec, 7)
        acc_reord = _run_functional(gemm_kernel_reordered(spec), spec, 7)
        for name in acc_orig:
            assert np.allclose(acc_orig[name], acc_reord[name])

    @given(st.integers(min_value=1, max_value=10))
    @settings(max_examples=20, deadline=None)
    def test_reordered_never_slower(self, iterations):
        sim = DualPipelineSimulator()
        spec = GemmKernelSpec(iterations=iterations)
        orig = sim.simulate(gemm_kernel_original(spec)).total_cycles
        reord = sim.simulate(gemm_kernel_reordered(spec)).total_cycles
        assert reord < orig


class TestKernelCycles:
    """``kernel_cycles`` is certified against the cycle-accurate simulator."""

    @given(st.sampled_from(CERTIFIED_BLOCKS), st.integers(min_value=1, max_value=300))
    @settings(max_examples=25, deadline=None)
    def test_equals_simulator(self, block, iterations):
        num_a, num_b = block
        spec = GemmKernelSpec(iterations=iterations, num_a=num_a, num_b=num_b)
        assert kernel_cycles(spec) == _simulated_cycles(spec)

    @pytest.mark.parametrize("num_a,num_b", CERTIFIED_BLOCKS)
    def test_steady_iterations_repeat_shifted_by_the_period(self, num_a, num_b):
        """Iteration k+1 issues exactly like iteration k, ``c3 - c2`` later.

        That is what makes the cycle count affine from the second iteration
        on.  The first iteration is excluded (blocks with ``num_a >= 5``
        issue it differently), and so is the last (it drops the next
        iteration's loads and the branch).
        """
        period = kernel_cycles(GemmKernelSpec(3, num_a, num_b)) - kernel_cycles(
            GemmKernelSpec(2, num_a, num_b)
        )
        iterations = 7
        report = DualPipelineSimulator().simulate(
            gemm_kernel_reordered(GemmKernelSpec(iterations, num_a, num_b))
        )
        pattern = {}
        for rec in report.records:
            ins = rec.instruction
            pattern.setdefault(ins.tag, []).append(
                (rec.cycle, rec.pipeline, ins.op, ins.dst, ins.srcs)
            )
        for k in range(1, iterations - 2):
            shifted = [
                (cycle + period, *rest) for cycle, *rest in pattern[f"iter{k}"]
            ]
            assert pattern[f"iter{k + 1}"] == shifted, (num_a, num_b, k)

    @pytest.mark.parametrize("num_a,num_b", ALL_BLOCKS)
    def test_paper_closed_form_is_exact_or_refused(self, num_a, num_b):
        """5 + 17(K-1) + 16 extended to other blocks is wrong on 57 of 64."""
        fmas = num_a * num_b
        exact = True
        for k in (1, 2, 3, 8, 36):
            spec = GemmKernelSpec(iterations=k, num_a=num_a, num_b=num_b)
            formula = 1 + num_a + (k - 1) * (fmas + 1) + fmas
            exact = exact and formula == kernel_cycles(spec)
            if num_a == 4 and num_b >= 2:
                assert predicted_cycles_reordered(spec) == kernel_cycles(spec)
            else:
                with pytest.raises(ValueError, match="kernel_cycles"):
                    predicted_cycles_reordered(spec)
        assert exact == (num_a == 4 and num_b >= 2)

    def test_ee_is_fmas_over_cycles(self):
        spec = GemmKernelSpec(iterations=150, num_a=2, num_b=8)
        report = DualPipelineSimulator().simulate(gemm_kernel_reordered(spec))
        assert kernel_ee(150 * 8, 2, 8) == report.fma_efficiency
        assert kernel_ee(150 * 8 - 7, 2, 8) == report.fma_efficiency

    @pytest.mark.kernel
    @pytest.mark.parametrize("num_a,num_b", PLAN_BLOCKS)
    def test_exhaustive_grid(self, num_a, num_b):
        """Every block a plan can use at the iteration counts plans ask for.

        ``1200`` is the deepest the sweep asks for: im2col's GEMM on
        Ni = 384 with a 5x5 filter reduces over ``k / 8`` iterations.
        """
        for k in (*range(1, 12), 17, 36, 72, 144, 288, 1200):
            spec = GemmKernelSpec(iterations=k, num_a=num_a, num_b=num_b)
            assert kernel_cycles(spec) == _simulated_cycles(spec), k
