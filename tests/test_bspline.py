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
        assert bspline.bspline_derivative(0, 0, 0.5) == 1.0
        assert bspline.bspline_derivative(0, 0, -0.2) == 0.0
        assert bspline.bspline_derivative(0, 0, 1.2) == 0.0

    def test_outside_support(self):
        assert bspline.bspline_derivative(2, 0, -0.1) == 0.0
        assert bspline.bspline_derivative(2, 0, 3.0) == 0.0

    def test_hat_peak_matches_convolution_oracle(self):
        # Numeric convolution of the indicator with itself at x=1 (midpoint rule).
        n = 20000
        ys = (np.arange(n) + 0.5) / n
        oracle = np.mean(bspline.bspline_derivative(0, 0, 1.0 - ys))
        assert bspline.bspline_derivative(1, 0, 1.0) == pytest.approx(oracle, abs=1e-6)
        assert bspline.bspline_derivative(1, 0, 1.0) == 1.0

    def test_total_integral_is_one(self):
        n = 40000
        for m in range(6):
            xs = (np.arange(n) + 0.5) * (m + 1) / n
            integ = np.mean(bspline.bspline_derivative(m, 0, xs)) * (m + 1)
            assert integ == pytest.approx(1.0, abs=1e-6)

    def test_vectorized_matches_scalar(self):
        xs = np.random.default_rng(0).uniform(-1, 5, 200)
        for m in range(5):
            vec = bspline.bspline_derivative(m, 0, xs)
            ref = [bspline.bspline_derivative(m, 0, x).item() for x in xs]
            np.testing.assert_allclose(vec, ref, rtol=0, atol=0)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            bspline.bspline_derivative(-1, 0, 0.5)
        with pytest.raises(ValueError):
            bspline.bspline_derivative(bspline.MAX_ORDER + 1, 0, 0.5)
        message = "^spline order: expected an integer, got True$"
        with pytest.raises(ValueError, match=message):
            bspline.bspline_derivative(True, 0, 0.5)
        with pytest.raises(ValueError, match=message):
            bspline.refinement_coeffs(True)
        assert bspline.bspline_derivative(np.int64(1), 0, 0.5) == 0.5


class TestDerivative:
    def test_hat_slope(self):
        assert bspline.bspline_derivative(1, 1, 0.5) == 1.0
        assert bspline.bspline_derivative(1, 1, 1.5) == -1.0

    def test_outside_support(self):
        assert bspline.bspline_derivative(3, 1, 4.5) == 0.0
        assert bspline.bspline_derivative(3, 1, -0.5) == 0.0

    @pytest.mark.parametrize("m", range(6))
    def test_scalar_input_matches_scalar_twin(self, m):
        # A scalar gives a 0-d array, bitwise equal to the same point in a
        # 1-element array: inside the support, outside it on both sides, and
        # at every knot.
        xs = [0.37, m + 0.61, -0.5, m + 1.25] + [float(k) for k in range(m + 2)]
        for r in range(m + 1):
            for x in xs:
                got = bspline.bspline_derivative(m, r, x)
                assert got.ndim == 0
                one = bspline.bspline_derivative(m, r, np.array([x]))
                assert one.shape == (1,)
                assert got.item().hex() == one[0].item().hex()
                assert bspline.bspline_derivative(m, r, np.float64(x)).item() == got.item()

    def test_order_beyond_smoothness_rejected(self):
        with pytest.raises(ValueError):
            bspline.bspline_derivative(2, 3, 0.5)

    def test_difference_identity(self):
        # psi_m^(r)(x) = psi_{m-1}^(r-1)(x) - psi_{m-1}^(r-1)(x - 1) for every
        # order and derivative, also at every knot under the right-limit
        # convention.  The bound is relative to max |psi_m^(r)| (measured at
        # most 7.1e-16 of it).
        rng = np.random.default_rng(1)
        for m in range(1, bspline.MAX_ORDER + 1):
            xs = np.concatenate([rng.uniform(-0.5, m + 1.5, 300), np.arange(m + 2.0)])
            for r in range(1, m + 1):
                lhs = bspline.bspline_derivative(m, r, xs)
                rhs = bspline.bspline_derivative(m - 1, r - 1, xs) - bspline.bspline_derivative(
                    m - 1, r - 1, xs - 1
                )
                assert np.max(np.abs(lhs - rhs)) <= 2e-15 * np.max(np.abs(lhs))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_argument_rejected(self, bad):
        with pytest.raises(ValueError, match=r"^x = .* is not finite"):
            bspline.bspline_derivative(3, 1, bad)
        with pytest.raises(ValueError, match=r"^x\[2\] = .* is not finite"):
            bspline.bspline_derivative(3, 1, np.array([0.5, 2.5, bad, math.nan]))
        with pytest.raises(ValueError, match=r"^x\[1, 0\] = .* is not finite"):
            bspline.bspline_derivative(2, 0, np.array([[0.5, 1.0], [bad, 0.0]]))

    def test_matches_central_differences(self):
        rng = np.random.default_rng(2)
        h = 1e-5
        for m in range(1, 6):
            xs = rng.uniform(0.1, m + 0.9, 100)
            xs = xs[np.abs(xs - np.round(xs)) > 0.02]
            fd = (
                bspline.bspline_derivative(m, 0, xs + h) - bspline.bspline_derivative(m, 0, xs - h)
            ) / (2 * h)
            ex = bspline.bspline_derivative(m, 1, xs)
            np.testing.assert_allclose(fd, ex, atol=1e-6)

    def test_cached_table_is_read_only(self):
        # lru_cache hands every evaluation the same array.
        table = bspline._float_table(3, 1)
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1.0


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
    # Differentiated r times, the two-scale relation gains the factor 2**r.
    for m in (0, 2, 5):
        coeffs = [float(a) for a in bspline.refinement_coeffs(m)]
        for r in range(m + 1):
            lhs = bspline.bspline_derivative(m, r, x)
            rhs = 2.0**r * sum(
                a * bspline.bspline_derivative(m, r, 2 * x - mu) for mu, a in enumerate(coeffs)
            )
            assert abs(lhs - rhs) <= 1e-12 * 2.0**r


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False),
)
def test_partition_of_unity_pointwise(x1, x2, x3):
    for order, level in [
        ((2, 1), (1, 2)),
        ((4,), (3,)),
        ((2, 4), (2, 1)),
        ((1, 3, 4), (2, 1, 1)),
    ]:
        total = 1.0
        for m, k, x in zip(order, level, (x1, x2, x3)):
            total *= sum(
                bspline.bspline_derivative(m, 0, math.ldexp(x, k) - nu) for nu in range(-m, 2**k)
            )
        assert abs(total - 1.0) <= 1e-12
