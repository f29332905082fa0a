"""Tests for the cardinal B-spline core."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercross import bspline


class TestEval:
    def test_indicator(self):
        assert bspline.bspline_eval(0, 0.5) == 1.0
        assert bspline.bspline_eval(0, -0.2) == 0.0
        assert bspline.bspline_eval(0, 1.2) == 0.0

    def test_outside_support(self):
        assert bspline.bspline_eval(2, -0.1) == 0.0
        assert bspline.bspline_eval(2, 3.0) == 0.0

    def test_hat_peak_matches_convolution_oracle(self):
        # Numeric convolution of the indicator with itself at x=1 (midpoint rule).
        n = 20000
        ys = (np.arange(n) + 0.5) / n
        oracle = np.mean(bspline.bspline_eval_many(0, 1.0 - ys))
        assert bspline.bspline_eval(1, 1.0) == pytest.approx(oracle, abs=1e-6)
        assert bspline.bspline_eval(1, 1.0) == 1.0

    def test_total_integral_is_one(self):
        n = 40000
        for m in range(6):
            xs = (np.arange(n) + 0.5) * (m + 1) / n
            integ = np.mean(bspline.bspline_eval_many(m, xs)) * (m + 1)
            assert integ == pytest.approx(1.0, abs=1e-6)

    def test_vectorized_matches_scalar(self):
        xs = np.random.default_rng(0).uniform(-1, 5, 200)
        for m in range(5):
            vec = bspline.bspline_eval_many(m, xs)
            ref = [bspline.bspline_eval(m, x) for x in xs]
            np.testing.assert_allclose(vec, ref, rtol=0, atol=0)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            bspline.bspline_eval(-1, 0.5)
        with pytest.raises(ValueError):
            bspline.bspline_eval(bspline.MAX_ORDER + 1, 0.5)


class TestDerivative:
    def test_hat_slope(self):
        assert bspline.bspline_derivative(1, 1, 0.5) == 1.0
        assert bspline.bspline_derivative(1, 1, 1.5) == -1.0

    def test_zeroth_is_identity(self):
        assert bspline.bspline_derivative(2, 0, 1.5) == bspline.bspline_eval(2, 1.5)

    def test_outside_support(self):
        assert bspline.bspline_derivative(3, 1, 4.5) == 0.0
        assert bspline.bspline_derivative(3, 1, -0.5) == 0.0

    @pytest.mark.parametrize("m", range(6))
    def test_scalar_input_matches_scalar_twin(self, m):
        # Inside the support, outside it on both sides, and at every knot.
        xs = [0.37, m + 0.61, -0.5, m + 1.25] + [float(k) for k in range(m + 2)]
        for r in range(m + 1):
            for x in xs:
                got = bspline.bspline_deriv_many(m, r, x)
                assert got.ndim == 0
                assert got.item().hex() == bspline.bspline_derivative(m, r, x).hex()
                assert bspline.bspline_deriv_many(m, r, np.float64(x)).item() == got.item()

    def test_order_beyond_smoothness_rejected(self):
        with pytest.raises(ValueError):
            bspline.bspline_derivative(2, 3, 0.5)

    def test_difference_identity(self):
        # d/dx psi_m(x) = psi_{m-1}(x) - psi_{m-1}(x - 1), also at knots
        # under the right-limit convention.
        xs = np.random.default_rng(1).uniform(-0.5, 6.5, 300)
        for m in range(1, 6):
            for x in list(xs) + [0.0, 1.0, float(m)]:
                lhs = bspline.bspline_derivative(m, 1, x)
                rhs = bspline.bspline_eval(m - 1, x) - bspline.bspline_eval(m - 1, x - 1)
                assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(2)
        h = 1e-5
        for m in range(1, 6):
            xs = rng.uniform(0.1, m + 0.9, 100)
            xs = xs[np.abs(xs - np.round(xs)) > 0.02]
            fd = (bspline.bspline_eval_many(m, xs + h) - bspline.bspline_eval_many(m, xs - h)) / (2 * h)
            ex = bspline.bspline_deriv_many(m, 1, xs)
            np.testing.assert_allclose(fd, ex, atol=1e-6)


class TestRefinement:
    @pytest.mark.parametrize(
        "m,expected",
        [
            (0, (Fraction(1), Fraction(1))),
            (1, (Fraction(1, 2), Fraction(1), Fraction(1, 2))),
            (2, (Fraction(1, 4), Fraction(3, 4), Fraction(3, 4), Fraction(1, 4))),
        ],
    )
    def test_known_masks(self, m, expected):
        assert bspline.refinement_coeffs(m) == expected

    def test_length_and_symmetry(self):
        for m in range(7):
            c = bspline.refinement_coeffs(m)
            assert len(c) == m + 2
            assert c == c[::-1]
            assert sum(c) == 2  # both halves of the two-scale identity integrate


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-1.0, max_value=8.0, allow_nan=False))
def test_refinement_identity_pointwise(x):
    for m in (0, 2, 5):
        lhs = bspline.bspline_eval(m, x)
        rhs = sum(
            float(a) * bspline.bspline_eval(m, 2 * x - mu)
            for mu, a in enumerate(bspline.refinement_coeffs(m))
        )
        assert abs(lhs - rhs) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False),
)
def test_partition_of_unity_pointwise(x1, x2):
    order, level = (2, 1), (1, 2)
    total = 1.0
    for j, (m, k, x) in enumerate(zip(order, level, (x1, x2))):
        total *= sum(
            bspline.bspline_eval(m, math.ldexp(x, k) - nu) for nu in range(-m, 2**k)
        )
    assert abs(total - 1.0) <= 1e-12


class TestTranslates:
    def test_translate_eval_reduces_to_base(self):
        t = bspline.SplineTranslate((0,), (0,), (0,))
        assert bspline.translate_deriv(t, (0,), (0.5,)) == 1.0

    def test_outside_support_is_zero(self):
        # support of this translate is [0, 1/2]^2
        t = bspline.SplineTranslate((1, 1), (2, 2), (0, 0))
        assert bspline.translate_deriv(t, (0, 0), (0.9, 0.9)) == 0.0

    def test_mixed_derivative_factorizes(self):
        t = bspline.SplineTranslate((1, 1), (1, 0), (0, 0))
        val = bspline.translate_deriv(t, (1, 0), (0.25, 1.0))
        assert val == pytest.approx(2.0, abs=1e-12)

    def test_deriv_order_rejected(self):
        t = bspline.SplineTranslate((1,), (0,), (0,))
        with pytest.raises(ValueError):
            bspline.translate_deriv(t, (2,), (0.5,))

    def test_sup_norm_scaling(self):
        # max |D^r g| over the support equals 2**(level*r) times the unscaled max.
        grid = np.linspace(1e-6, 3 - 1e-6, 2001)
        base = np.abs(bspline.bspline_deriv_many(2, 1, grid)).max()
        for k in (1, 3):
            t = bspline.SplineTranslate((2,), (k,), (0,))
            vals = [
                abs(bspline.translate_deriv(t, (1,), (math.ldexp(u, -k),)))
                for u in grid[:: 50]
            ]
            coarse_base = max(
                abs(bspline.bspline_derivative(2, 1, u)) for u in grid[::50]
            )
            assert max(vals) == pytest.approx(2.0**k * coarse_base, rel=1e-10)
