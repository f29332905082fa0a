"""Tests for the test-function registry and smoothness diagnostics."""

import math

import numpy as np
import pytest

from hypercross import functions
from hypercross.functions import modulus_estimate


class TestRegistry:
    def test_expected_entries(self):
        ids = {e.fid for e in functions.registry(2)}
        assert {"trig", "kink", "poly", "aniso"} <= ids
        ids1 = {e.fid for e in functions.registry(1)}
        assert "aniso" not in ids1

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            functions.get_function("nope", 2)

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

    def test_monotone_in_step_bound(self):
        entry = functions.get_function("trig", 2)
        small = modulus_estimate(entry.value, (2, 2), (0.1, 0.1), (0, 1), 2.0)
        large = modulus_estimate(entry.value, (2, 2), (0.3, 0.3), (0, 1), 2.0)
        assert small <= large * (1 + 1e-12)

    def test_kink_ratio_bounded(self):
        # Declared-exponent scaling for the tensor kink in sup norm.
        entry = functions.get_function("kink", 2)
        ratios = []
        for s in range(1, 7):
            t = 0.5**s
            est = modulus_estimate(
                entry.value, (1, 1), (t, t), (0, 1), math.inf, step_lattice=3
            )
            ratios.append(est / t ** (entry.alpha[0] + entry.alpha[1]))
        assert max(ratios) / min(ratios) <= 8.0

    def test_needs_active_axes(self):
        entry = functions.get_function("trig", 2)
        with pytest.raises(ValueError):
            modulus_estimate(entry.value, (2, 2), (0.1, 0.1), (), 2.0)

    def test_second_difference_kills_affine(self):
        f = lambda pts: 2.0 * pts[:, 0] - 0.7  # noqa: E731
        got = modulus_estimate(f, (2,), (0.1,), (0,), math.inf)
        assert got == pytest.approx(0.0, abs=1e-14)

    def test_square_second_difference_symbolic(self):
        # (x+2h)^2 - 2(x+h)^2 + x^2 = 2 h^2 at every anchor; one step, h = t.
        f = lambda pts: pts[:, 0] ** 2  # noqa: E731
        for t in (0.05, 0.2):
            got = modulus_estimate(f, (2,), (t,), (0,), math.inf, step_lattice=1)
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

    def test_stencil_must_stay_inside(self):
        # Every step h in (0, 2] takes a second difference out of [0, 1].
        f = lambda pts: pts[:, 0] ** 2  # noqa: E731
        with pytest.raises(ValueError, match=r"every step h <= t=\(2\.0,\)"):
            modulus_estimate(f, (2,), (2.0,), (0,), math.inf)
