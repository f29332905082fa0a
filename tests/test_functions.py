"""Tests for the test-function registry and smoothness diagnostics."""

import math
import re
import warnings
from itertools import product

import numpy as np
import pytest

from hypercross import functions
from hypercross.functions import modulus_estimate
from hypercross.interp import tensor_grid


class TestRegistry:
    def test_expected_entries(self):
        ids = {e.fid for e in functions.registry(2)}
        assert {"trig", "kink", "poly", "aniso"} <= ids
        ids1 = {e.fid for e in functions.registry(1)}
        assert "aniso" not in ids1

    def test_unknown_id(self):
        message = "unknown test function 'nope' for d=2 (known: trig, kink, poly, aniso)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            functions.get_function("nope", 2)

    def test_declared_class_follows_factors(self):
        got = {e.fid: (e.d, e.alpha, e.kink_loci) for e in functions.registry(3)}
        assert got == {
            "trig": (3, (2.0,) * 3, ((),) * 3),
            "kink": (3, (0.75,) * 3, ((0.5,),) * 3),
            "poly": (3, (2.5,) * 3, ((),) * 3),
            "aniso": (3, (2.0, 2.0, 1.5), ((), (), (1.0 / 3.0,))),
        }

    def test_vanishing_derivative_is_zero_at_the_kink(self):
        # The second derivative of |x - 1/3| is 0 away from 1/3; at 1/3 the
        # zero coefficient is not multiplied by |0|**-1.
        f = functions.get_function("aniso", 2)
        pts = np.array([[0.2, 1.0 / 3.0], [0.7, 0.1], [0.4, 1.0 / 3.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = f.deriv((0, 2), pts)
        assert np.array_equal(got, np.zeros(3))

    def test_trig_mixed_derivative_formula(self):
        f = functions.get_function("trig", 2)
        pts = np.random.default_rng(0).uniform(0, 1, (50, 2))
        want = math.pi**2 * np.cos(math.pi * pts[:, 0] + 0.3) * np.cos(
            math.pi * pts[:, 1] + 0.3
        )
        np.testing.assert_allclose(f.deriv((1, 1), pts), want, atol=1e-12)

    def test_poly_entry_derivatives(self):
        f = functions.get_function("poly", 2)
        pts = np.random.default_rng(1).uniform(0, 1, (20, 2))
        np.testing.assert_allclose(
            f.deriv((1, 1), pts), 4 * pts[:, 0] * pts[:, 1], atol=1e-13
        )
        np.testing.assert_allclose(f.deriv((2, 2), pts), 4.0, atol=1e-13)
        np.testing.assert_allclose(f.deriv((3, 0), pts), 0.0, atol=1e-13)

    def test_kink_condition_check_passes_for_p2(self):
        from hypercross.grid import derive_params

        f = functions.get_function("kink", 2)
        assert f.alpha == (0.75, 0.75)
        params = derive_params(2, f.alpha, 2.0, 2.0, math.inf, (0, 0))
        assert params.orders == (1, 1)  # low-smoothness regime

    def test_all_reference_derivatives_match_fd(self):
        rng = np.random.default_rng(2)
        h = 1e-4
        for entry in functions.registry(2):
            pts = rng.uniform(0.06, 0.94, size=(150, 2))
            for axis, loci in enumerate(entry.kink_loci):
                for c in loci:
                    pts = pts[np.abs(pts[:, axis] - c) >= 0.05]
            for lam in [(1, 0), (0, 1)]:
                axis = lam.index(1)
                e = np.zeros(2)
                e[axis] = h
                fd = (entry.value(pts + e) - entry.value(pts - e)) / (2 * h)
                np.testing.assert_allclose(fd, entry.deriv(lam, pts), atol=1e-5)

    def test_one_point_or_rows(self):
        f = functions.get_function("trig", 2)
        rows = np.array([[0.2, 0.7], [0.9, 0.1]])
        assert f.value(rows[1]).shape == (1,) and f.value(rows[1])[0] == f.value(rows)[1]
        assert f.deriv((1, 0), np.empty((0, 2))).shape == (0,)

    @pytest.mark.parametrize(
        "x, message",
        [
            ([math.nan, 0.5], "point [nan, 0.5] is not finite"),
            ([[0.5, 0.5], [0.2, math.inf]], "point [0.2, inf] (row 1) is not finite"),
            (
                np.zeros((2, 3, 2)),
                "points of shape (2, 3, 2): expected one point of 2 coordinates or an (n, 2) array",
            ),
            ([0.5], "point [0.5]: expected one point of 2 coordinates or an (n, 2) array"),
        ],
        ids=["nan", "inf-row", "three-axes", "short"],
    )
    def test_points_refused_with_the_point(self, x, message):
        # A NaN gave [nan], and a three-axis array numpy's unnamed
        # "non-broadcastable output operand".
        f = functions.get_function("trig", 2)
        for call in (f.value, lambda x: f.deriv((1, 0), x)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(x)

    def test_bad_derivative_index(self):
        f = functions.get_function("trig", 2)
        with pytest.raises(ValueError):
            f.deriv((1,), [[0.5, 0.5]])
        with pytest.raises(ValueError):
            f.deriv((-1, 0), [[0.5, 0.5]])


class TestModulusEstimate:
    def test_constant_function_zero(self):
        f = lambda pts: np.full(len(pts), 3.3)  # noqa: E731
        got = modulus_estimate(f, (2, 2), (0.25, 0.25), (0, 1), 2.0)
        assert got == pytest.approx(0.0, abs=1e-13)

    def test_one_f_call_per_step(self, monkeypatch):
        # A (1, 1) difference on a 3 x 3 step lattice: 9 calls, each on the
        # 4 stencil offsets' 256 anchors at once.
        monkeypatch.setattr(functions, "_STEP_LATTICE", 3)
        calls = []
        f = lambda pts: calls.append(pts.shape) or pts[:, 0] * pts[:, 1]  # noqa: E731
        modulus_estimate(f, (1, 1), (0.3, 0.3), (0, 1), 2.0)
        assert calls == [(4 * 256, 2)] * 9

    def test_equals_per_offset_sum(self):
        # The reference calls f once per stencil offset; the floats agree bit
        # for bit.
        f = functions.get_function("aniso", 2).value
        order, t, p = (2, 1), (0.2, 0.3), 2.0
        best = 0.0
        for h in product(*[[tj * i / 4 for i in range(1, 5)] for tj in t]):
            span = [r * hj for r, hj in zip(order, h)]
            grid = [np.linspace(0.0, 1.0 - s, functions._GRID_POINTS) for s in span]
            anchors = tensor_grid(grid)
            diffs = np.zeros(len(anchors))
            for k in product(*[range(r + 1) for r in order]):
                c = math.prod(math.comb(r, kj) for r, kj in zip(order, k))
                s = (-1) ** (sum(order) - sum(k))
                diffs += s * c * f(anchors + np.array([kj * hj for kj, hj in zip(k, h)]))
            vol = math.prod(1.0 - s for s in span)
            best = max(best, float((np.mean(np.abs(diffs) ** p) * vol) ** (1.0 / p)))
        assert modulus_estimate(f, order, t, (0, 1), p).hex() == best.hex()

    def test_monotone_in_step_bound(self):
        entry = functions.get_function("trig", 2)
        small = modulus_estimate(entry.value, (2, 2), (0.1, 0.1), (0, 1), 2.0)
        large = modulus_estimate(entry.value, (2, 2), (0.3, 0.3), (0, 1), 2.0)
        assert small <= large * (1 + 1e-12)

    def test_kink_ratio_bounded(self, monkeypatch):
        # Declared-exponent scaling for the tensor kink in sup norm.
        monkeypatch.setattr(functions, "_STEP_LATTICE", 3)
        entry = functions.get_function("kink", 2)
        ratios = []
        for s in range(1, 7):
            t = 0.5**s
            est = modulus_estimate(entry.value, (1, 1), (t, t), (0, 1), math.inf)
            ratios.append(est / t ** (entry.alpha[0] + entry.alpha[1]))
        assert max(ratios) / min(ratios) <= 8.0

    def test_needs_active_axes(self):
        entry = functions.get_function("trig", 2)
        message = "modulus axis: expected at least one entry, got ()"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            modulus_estimate(entry.value, (2, 2), (0.1, 0.1), (), 2.0)

    def test_second_difference_kills_affine(self):
        f = lambda pts: 2.0 * pts[:, 0] - 0.7  # noqa: E731
        got = modulus_estimate(f, (2,), (0.1,), (0,), math.inf)
        assert got == pytest.approx(0.0, abs=1e-14)

    def test_square_second_difference_symbolic(self, monkeypatch):
        # (x+2h)^2 - 2(x+h)^2 + x^2 = 2 h^2 at every anchor; one step, h = t.
        monkeypatch.setattr(functions, "_STEP_LATTICE", 1)
        f = lambda pts: pts[:, 0] ** 2  # noqa: E731
        for t in (0.05, 0.2):
            got = modulus_estimate(f, (2,), (t,), (0,), math.inf)
            assert got == pytest.approx(2 * t * t, abs=1e-13)

    def test_order_zero_is_identity(self):
        # The zeroth difference is f itself, so the estimate is max |f|.
        f = lambda pts: np.sin(pts[:, 0])  # noqa: E731
        got = modulus_estimate(f, (0,), (0.3,), (0,), math.inf)
        assert got == pytest.approx(math.sin(1.0))

    def test_axis_mask(self):
        # Only axis 0 active: the difference of x^2 times the frozen y <= 1.
        f = lambda pts: pts[:, 0] ** 2 * pts[:, 1]  # noqa: E731
        got = modulus_estimate(f, (2, 2), (0.1, 0.1), (0,), math.inf)
        assert got == pytest.approx(2 * 0.1**2, rel=1e-12)

    @pytest.mark.parametrize(
        "t, axes, match",
        [
            ((0.1,), (0, 1), r"^t \(0\.1,\) must have 2 entries, one per axis$"),
            ((0.1, 0.1, 0.1), (0,), r"^t \(0\.1, 0\.1, 0\.1\) must have 2 entries, one per axis$"),
            ((0.1, 0.1), (5,), r"^axis 0: modulus axis 5 exceeds supported maximum 1$"),
            ((0.1, 0.1), (-1, 0), r"^axis 0: modulus axis must be an integer >= 0, got -1$"),
        ],
        ids=["t-short", "t-long", "axis-above", "axis-negative"],
    )
    def test_t_and_axes_fit_the_dimension(self, t, axes, match):
        f = lambda pts: pts[:, 0] ** 2  # noqa: E731
        with pytest.raises(ValueError, match=match):
            modulus_estimate(f, (2, 2), t, axes, 2.0)

    @pytest.mark.parametrize(
        "order, axes, match",
        [
            ((2.5, 2), (0, 1), r"axis 0: difference order: expected an integer, got 2\.5"),
            ((2, 2), (0.9, 1), r"modulus axis: expected an integer, got 0\.9"),
        ],
        ids=["order", "axis"],
    )
    def test_fractional_order_or_axis_refused(self, order, axes, match):
        # int() would truncate both to the (2, 2) / axes (0, 1) estimate.
        entry = functions.get_function("trig", 2)
        with pytest.raises(ValueError, match=match):
            modulus_estimate(entry.value, order, (0.1, 0.1), axes, 2.0)

    def test_integral_float_order_accepted(self):
        entry = functions.get_function("trig", 2)
        want = modulus_estimate(entry.value, (2, 2), (0.1, 0.1), (0, 1), 2.0)
        assert modulus_estimate(entry.value, (2.0, 2), (0.1, 0.1), (0, 1.0), 2.0) == want

    @pytest.mark.parametrize("p", [0.5, -1.0, 0.0, math.nan, -math.inf])
    def test_p_outside_contract_refused(self, p):
        f = lambda pts: pts[:, 0] ** 2  # noqa: E731
        with pytest.raises(ValueError, match=r"^p must lie in \[1, inf\], got "):
            modulus_estimate(f, (2,), (0.1,), (0,), p)

    @pytest.mark.parametrize("t", [0.0, -0.1, math.nan, math.inf])
    def test_t_entry_must_be_finite_and_positive(self, t):
        # A negative step would put the anchors, and f's arguments, off the cube.
        calls = []
        f = lambda pts: calls.append(pts) or pts[:, 0] ** 2  # noqa: E731
        with pytest.raises(ValueError, match=rf"^axis 1: t must lie in \(0, inf\), got {t!r}$"):
            modulus_estimate(f, (2, 2), (0.1, t), (0, 1), 2.0)
        assert not calls

    @pytest.mark.parametrize(
        "f, message",
        [
            (
                lambda pts: np.where(pts[:, 0] < 0.5, np.nan, pts[:, 0]),
                "modulus_estimate(f): value nan is not finite: "
                "evaluation failed at point [0.0, 0.0]",
            ),
            (
                lambda pts: pts[:, :1],
                "modulus_estimate(f): values of shape (1024, 1) for 1024 points, expected (1024,)",
            ),
        ],
        ids=["nan-half-cube", "column"],
    )
    def test_values_must_be_finite_one_per_point(self, f, message):
        # The NaN gave nan, the column numpy's unnamed broadcast error.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            modulus_estimate(f, (1, 1), (0.1, 0.1), (0, 1), 2.0)

    def test_stencil_must_stay_inside(self):
        # Every step h in (0, 2] takes a second difference out of [0, 1].
        f = lambda pts: pts[:, 0] ** 2  # noqa: E731
        with pytest.raises(ValueError, match=r"every step h <= t=\(2\.0,\)"):
            modulus_estimate(f, (2,), (2.0,), (0,), math.inf)
