"""The composed three-level performance model."""

import pytest

from repro.common.units import GB
from repro.core.conv import ConvolutionEngine
from repro.core.ldm_blocking import BatchBlocking, ImageBlocking
from repro.core.params import ConvParams
from repro.core.plans import BatchSizeAwarePlan, ImageSizeAwarePlan
from repro.core.register_blocking import RegisterBlocking
from repro.hw.spec import DEFAULT_SPEC
from repro.perf.equations import (
    rbw_mem_ldm_batch_plan_promoted,
    rbw_mem_ldm_image_plan_promoted,
)
from repro.perf.model import PerformanceEstimate, PerformanceModel, kernel_ee


@pytest.fixture
def model():
    return PerformanceModel()


class TestDirectMemory:
    def test_efficiency_matches_paper(self, model):
        direct = model.direct_memory()
        assert direct.efficiency == pytest.approx((8 / 139.2) ** 2, rel=1e-3)

    def test_gflops_tiny(self, model):
        assert model.direct_memory().gflops < 3.0

    def test_bound_is_mem(self, model):
        assert model.direct_memory().bound == "MEM"


class TestHierarchicalEstimates:
    def test_image_plan_estimate(self, model):
        est = model.image_plan(b_co=16, b_b=32, n_o=128, n_i=128)
        assert est.rbw_mem / GB == pytest.approx(29.0, abs=0.05)
        assert 0 < est.gflops < 742.4

    def test_batch_plan_estimate(self, model):
        est = model.batch_plan(k_c=3, n_o=256, b=128, n_i=256)
        assert est.rbw_mem / GB == pytest.approx(27.1, abs=0.05)

    def test_register_level_not_the_bound_at_paper_blocking(self, model):
        est = model.batch_plan(k_c=3, n_o=256, b=128, n_i=256)
        assert est.reg_fraction == 1.0

    def test_tiny_register_blocking_becomes_bound(self, model):
        est = model.batch_plan(k_c=3, n_o=256, b=128, n_i=256, rb_b=4, rb_no=1)
        assert est.reg_fraction < 1.0

    def test_ee_uses_kernel_simulation(self, model):
        est = model.batch_plan(k_c=3, n_o=256, b=128, n_i=128)
        assert est.execution_efficiency == pytest.approx(256 / 276, abs=1e-9)

    def test_ee_rounds_up_partial_iterations(self, model):
        assert model._ee(4) == model._ee(8)
        with pytest.raises(ValueError):
            model._ee(0)

    def test_more_output_channels_help(self, model):
        low = model.batch_plan(k_c=3, n_o=64, b=128, n_i=128)
        high = model.batch_plan(k_c=3, n_o=384, b=128, n_i=128)
        assert high.flops > low.flops


class TestKernelShape:
    """EE is priced at the plan's register block and Ni block."""

    PARAMS = ConvParams.from_output(ni=256, no=128, ro=16, co=16, kr=3, kc=3, b=128)

    @pytest.mark.parametrize(
        "rb,b_ni", [((8, 8), 64), ((12, 4), None), ((16, 4), 64), ((16, 2), 128)]
    )
    @pytest.mark.parametrize("family", ["image", "batch"])
    def test_plan_estimate_ee_is_what_the_engine_charges(self, rb, b_ni, family):
        register_blocking = RegisterBlocking(*rb)
        if family == "image":
            plan = ImageSizeAwarePlan(
                self.PARAMS,
                blocking=ImageBlocking(b_b=32, b_co=16, b_ni=b_ni),
                register_blocking=register_blocking,
            )
        else:
            plan = BatchSizeAwarePlan(
                self.PARAMS,
                blocking=BatchBlocking(b_co=16, b_ni=b_ni),
                register_blocking=register_blocking,
            )
        ee = plan.estimate().execution_efficiency
        assert ee == kernel_ee(b_ni or self.PARAMS.ni, rb[0] // 4, rb[1])
        engine = ConvolutionEngine(plan)
        flops = 2 * 10**9
        cycles = flops / (engine._effective_cpes * DEFAULT_SPEC.flops_per_cycle) / ee
        assert engine._compute_seconds(flops) == pytest.approx(
            DEFAULT_SPEC.cycles_to_seconds(cycles), rel=1e-12
        )

    def test_model_prices_register_shape_and_ni_block(self, model):
        image = model.image_plan(b_co=16, b_b=32, n_o=128, n_i=64, rb_b=8, rb_no=8)
        batch = model.batch_plan(k_c=3, n_o=128, b=128, n_i=64, rb_b=12, rb_no=4)
        assert image.execution_efficiency == kernel_ee(64, 2, 8)
        assert batch.execution_efficiency == kernel_ee(64, 3, 4)

    def test_promoted_variants(self, model):
        image = model.image_plan(b_co=16, b_b=32, n_o=128, n_i=128, promoted_kc=3)
        batch = model.batch_plan(k_c=3, n_o=128, b=128, n_i=128, promoted_b_co=16)
        assert image.rbw_mem == rbw_mem_ldm_image_plan_promoted(16, 32, 128, 3)
        assert batch.rbw_mem == rbw_mem_ldm_batch_plan_promoted(3, 128, 128, 16)


class TestEstimateProperties:
    def test_flops_composition(self):
        est = PerformanceEstimate(
            plan="x",
            peak_flops=100e9,
            execution_efficiency=0.9,
            rbw_mem=2.0,
            mbw_mem=1.0,
            rbw_reg=1.0,
            mbw_reg=2.0,
        )
        assert est.mem_fraction == pytest.approx(0.25)
        assert est.reg_fraction == 1.0
        assert est.flops == pytest.approx(100e9 * 0.9 * 0.25)
        assert est.bound == "MEM"

    def test_compute_bound_label(self):
        est = PerformanceEstimate(
            plan="x",
            peak_flops=1.0,
            execution_efficiency=1.0,
            rbw_mem=1.0,
            mbw_mem=2.0,
            rbw_reg=1.0,
            mbw_reg=2.0,
        )
        assert est.bound == "compute"

    def test_reg_bound_label(self):
        est = PerformanceEstimate(
            plan="x",
            peak_flops=1.0,
            execution_efficiency=1.0,
            rbw_mem=1.0,
            mbw_mem=2.0,
            rbw_reg=4.0,
            mbw_reg=2.0,
        )
        assert est.bound == "REG"


class TestChipEstimate:
    def test_linear_scaling(self, model):
        est = model.batch_plan(k_c=3, n_o=256, b=128, n_i=256)
        assert model.chip_estimate(est) == pytest.approx(4 * est.flops)

    def test_num_groups_validated(self, model):
        est = model.direct_memory()
        with pytest.raises(ValueError):
            model.chip_estimate(est, num_groups=5)
