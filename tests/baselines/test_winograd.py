"""Winograd F(2x2, 3x3): the transform matrices and the zoo engine.

The method executes as an engine of the algorithm zoo
(:mod:`repro.core.algorithms`); these tests check its transforms, its
numerics against the direct reference and its arithmetic saving.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import PlanError
from repro.core.algorithms import (
    WINOGRAD_A_T,
    WINOGRAD_ARITHMETIC_REDUCTION,
    WINOGRAD_B_T,
    WINOGRAD_G,
    engine_for_plan,
    make_lowered_plan,
)
from repro.core.params import ConvParams
from repro.core.reference import conv2d_reference


def _run(x, w):
    """Run the zoo Winograd engine sized for the given operands."""
    b, ni, ri, ci = x.shape
    params = ConvParams(ni=ni, no=w.shape[0], ri=ri, ci=ci, kr=3, kc=3, b=b)
    return engine_for_plan(make_lowered_plan("winograd", params)).run(x, w)


class TestTransforms:
    def test_transform_shapes(self):
        assert WINOGRAD_B_T.shape == (4, 4)
        assert WINOGRAD_G.shape == (4, 3)
        assert WINOGRAD_A_T.shape == (2, 4)

    def test_filter_transform_shape(self):
        """Each (No, Ni) filter pair transforms to one 4x4 tile."""
        params = ConvParams.from_output(ni=3, no=5, ro=6, co=6, kr=3, kc=3, b=1)
        plan = make_lowered_plan("winograd", params)
        assert plan.transformed_filter_bytes() == 5 * 3 * 4 * 4 * 8

    def test_scalar_identity(self):
        """A^T [(G g G^T) .* (B^T d B)] A == conv2d(d, g) for one tile."""
        rng = np.random.default_rng(0)
        d = rng.standard_normal((4, 4))
        g = rng.standard_normal((3, 3))
        u = WINOGRAD_G @ g @ WINOGRAD_G.T
        v = WINOGRAD_B_T @ d @ WINOGRAD_B_T.T
        out = WINOGRAD_A_T @ (u * v) @ WINOGRAD_A_T.T
        ref = conv2d_reference(d[None, None], g[None, None])[0, 0]
        assert np.allclose(out, ref)

    def test_arithmetic_reduction(self):
        assert WINOGRAD_ARITHMETIC_REDUCTION == pytest.approx(2.25)

    def test_wrong_filter_size_rejected(self):
        params = ConvParams.from_output(ni=1, no=1, ro=4, co=4, kr=5, kc=5, b=1)
        with pytest.raises(PlanError):
            make_lowered_plan("winograd", params)


class TestFunctional:
    def test_matches_reference_even_output(self, rng):
        x = rng.standard_normal((2, 3, 10, 10))  # out 8x8
        w = rng.standard_normal((4, 3, 3, 3))
        out, _ = _run(x, w)
        assert np.allclose(out, conv2d_reference(x, w))

    def test_matches_reference_odd_output(self, rng):
        x = rng.standard_normal((1, 2, 9, 11))  # out 7x9 (needs padding)
        w = rng.standard_normal((2, 2, 3, 3))
        out, _ = _run(x, w)
        assert np.allclose(out, conv2d_reference(x, w))

    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=4, max_value=9),
        st.integers(min_value=4, max_value=9),
        st.integers(min_value=0, max_value=99),
    )
    @settings(max_examples=20, deadline=None)
    def test_matches_reference_property(self, ni, no, ri, ci, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, ni, ri, ci))
        w = rng.standard_normal((no, ni, 3, 3))
        out, _ = _run(x, w)
        assert np.allclose(out, conv2d_reference(x, w))

    def test_non_3x3_rejected(self, rng):
        params = ConvParams.from_output(ni=1, no=1, ro=6, co=6, kr=3, kc=3, b=1)
        engine = engine_for_plan(make_lowered_plan("winograd", params))
        with pytest.raises(PlanError, match="filter shape"):
            engine.run(
                rng.standard_normal((1, 1, 8, 8)), rng.standard_normal((1, 1, 5, 5))
            )

    def test_channel_mismatch_rejected(self, rng):
        params = ConvParams.from_output(ni=2, no=1, ro=6, co=6, kr=3, kc=3, b=1)
        engine = engine_for_plan(make_lowered_plan("winograd", params))
        with pytest.raises(PlanError):
            engine.run(
                rng.standard_normal((1, 2, 8, 8)), rng.standard_normal((1, 3, 3, 3))
            )


class TestAnalysis:
    def test_multiplies_reduced(self):
        params = ConvParams.from_output(ni=64, no=64, ro=32, co=32, kr=3, kc=3, b=32)
        direct_multiplies = params.flops() // 2
        wino = make_lowered_plan("winograd", params).machine_flops() // 2
        assert wino < direct_multiplies
        assert direct_multiplies / wino == pytest.approx(2.25, rel=0.01)

    def test_evaluate_reports_layer_flops(self):
        params = ConvParams.from_output(ni=64, no=64, ro=16, co=16, kr=3, kc=3, b=16)
        report = engine_for_plan(make_lowered_plan("winograd", params)).evaluate()
        assert report.flops == params.flops()
        assert report.seconds > 0
