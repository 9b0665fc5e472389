"""GEMM-lowered (im2col) convolution, executed by the zoo engine.

The method runs as an engine of the algorithm zoo
(:mod:`repro.core.algorithms`); these tests check its numerics and the
traffic blow-up Section III-C rejects it for.
"""

import numpy as np

from repro.core.algorithms import engine_for_plan, make_lowered_plan
from repro.core.conv import ConvolutionEngine
from repro.core.params import ConvParams
from repro.core.plans import BatchSizeAwarePlan
from repro.core.reference import conv2d_reference


def _blowup(params: ConvParams) -> float:
    """Bytes of the lowered matrix per byte of input."""
    return make_lowered_plan("im2col", params).lowered_bytes() / params.input_bytes()


class TestFunctional:
    def test_correct_result(self, rng):
        params = ConvParams(ni=3, no=4, ri=6, ci=6, kr=3, kc=3, b=2)
        x = rng.standard_normal(params.input_shape)
        w = rng.standard_normal(params.filter_shape)
        out, _ = engine_for_plan(make_lowered_plan("im2col", params)).run(x, w)
        assert np.allclose(out, conv2d_reference(x, w))


class TestTrafficModel:
    def test_blowup_scales_with_filter_area(self):
        small = _blowup(
            ConvParams.from_output(ni=64, no=64, ro=32, co=32, kr=3, kc=3, b=32)
        )
        large = _blowup(
            ConvParams.from_output(ni=64, no=64, ro=32, co=32, kr=7, kc=7, b=32)
        )
        assert large > small > 1.0

    def test_blowup_explains_rejection(self):
        """Section III-C: lowering multiplies traffic on a bandwidth-bound
        chip, so the executed im2col engine loses to the direct plan."""
        params = ConvParams.from_output(ni=128, no=128, ro=64, co=64, kr=3, kc=3, b=128)
        im2col = engine_for_plan(make_lowered_plan("im2col", params)).evaluate()
        direct = ConvolutionEngine(BatchSizeAwarePlan(params)).evaluate()
        assert im2col.gflops < direct.gflops

    def test_evaluate_flops(self):
        params = ConvParams.from_output(ni=64, no=64, ro=16, co=16, kr=3, kc=3, b=32)
        report = engine_for_plan(make_lowered_plan("im2col", params)).evaluate()
        assert report.flops == params.flops()
        assert report.seconds > 0
