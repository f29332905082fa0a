"""Tests for tensor-product Lagrange interpolation."""

import math
from itertools import product

import numpy as np
import pytest

from hypercross import interp

P = np.polynomial.polynomial


def numpy_polyval(coeffs, pts):
    """Monomial coefficient tensor at (n, d) points, d <= 3, by numpy: a
    reference independent of the package's own evaluator."""
    fn = {1: P.polyval, 2: P.polyval2d, 3: P.polyval3d}[pts.shape[1]]
    return fn(*pts.T, coeffs)


def random_poly(rng, degrees):
    """Random polynomial with the given coordinate degrees, plus its coeff scale."""
    coeffs = rng.uniform(-1, 1, size=tuple(d + 1 for d in degrees))

    def f(pt):
        out = 0.0
        for idx in product(*[range(d + 1) for d in degrees]):
            out += coeffs[idx] * math.prod(x**e for x, e in zip(pt, idx))
        return out

    return f, float(np.abs(coeffs).max())


class TestNodes:
    def test_single_node_is_midpoint(self):
        assert interp.nodes(0) == (0.5,)

    def test_two_nodes(self):
        got = interp.nodes(1)
        assert got[0] == pytest.approx((1 - math.cos(math.pi / 4)) / 2, abs=1e-12)
        assert got[1] == pytest.approx((1 - math.cos(3 * math.pi / 4)) / 2, abs=1e-12)

    @pytest.mark.parametrize("deg", range(0, 13))
    def test_open_interval_and_sorted(self, deg):
        ns = interp.nodes(deg)
        assert len(ns) == deg + 1
        assert 0.0 < ns[0] and ns[-1] < 1.0
        assert all(a < b for a, b in zip(ns, ns[1:]))

    def test_exact_nodes_are_dyadic(self):
        for deg in (0, 3, 7):
            for v in interp.nodes_exact(deg):
                assert (1 << interp.NODE_BITS) % v.denominator == 0

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            interp.nodes(interp.MAX_DEGREE + 1)


class TestLagrangeBasis:
    """The basis the evaluators use: column j of the monomial coefficients of
    the identity's node values is the polynomial that is 1 at node j."""

    @staticmethod
    def basis_at(deg, x):
        return interp.horner(interp.monomial_coeffs(np.eye(deg + 1), (deg,)), 0, x)

    def test_kronecker(self):
        for deg in (0, 2, 5):
            xs = interp.nodes(deg)
            for i, j in product(range(deg + 1), repeat=2):
                want = 1.0 if i == j else 0.0
                assert self.basis_at(deg, xs[i])[j] == pytest.approx(want, abs=1e-12)

    def test_partition(self):
        rng = np.random.default_rng(0)
        for deg in (1, 4):
            for x in rng.uniform(-0.2, 1.2, 30):
                assert sum(self.basis_at(deg, x)) == pytest.approx(1.0, abs=1e-12)


class TestTensorInterpolate:
    def test_constant(self):
        vals = {idx: 3.25 for idx, _ in interp.tensor_nodes((1, 2), (0, 0), (1, 1))}
        poly = interp.tensor_interpolate(vals, ((0, 0), (1, 1)))
        for pt in [(0.1, 0.9), (0.5, 0.5)]:
            assert poly.eval(pt) == pytest.approx(3.25, abs=1e-13)

    def test_bilinear_product(self):
        vals = {
            idx: pt[0] * pt[1]
            for idx, pt in interp.tensor_nodes((1, 1), (0, 0), (1, 1))
        }
        poly = interp.tensor_interpolate(vals, ((0, 0), (1, 1)))
        rng = np.random.default_rng(1)
        for pt in rng.uniform(0, 1, (50, 2)):
            assert poly.eval(pt) == pytest.approx(pt[0] * pt[1], abs=1e-12)

    def test_reproduction_random_polys(self):
        rng = np.random.default_rng(2)
        for degrees in [(3,), (2, 2), (1, 3), (2, 1, 2), (3, 3, 3), (2, 1, 3)]:
            d = len(degrees)
            box = ((0.0,) * d, (1.0,) * d)
            for _ in range(5):
                f, scale = random_poly(rng, degrees)
                vals = {
                    idx: f(pt) for idx, pt in interp.tensor_nodes(degrees, *box)
                }
                poly = interp.tensor_interpolate(vals, box)
                for pt in rng.uniform(0, 1, (20, d)):
                    assert abs(poly.eval(pt) - f(pt)) <= 1e-9 * max(scale, 1.0)

    def test_missing_and_extra_indices_rejected(self):
        vals = {idx: 1.0 for idx, _ in interp.tensor_nodes((1, 1), (0, 0), (1, 1))}
        vals.pop((0, 0))
        with pytest.raises(ValueError):
            interp.tensor_interpolate(vals, ((0, 0), (1, 1)))
        vals[(0, 0)] = 1.0
        vals[(5, 5)] = 1.0
        with pytest.raises(ValueError):
            interp.tensor_interpolate(vals, ((0, 0), (1, 1)))

    def test_affine_covariance(self):
        rng = np.random.default_rng(3)
        degrees = (2, 2)
        f, _ = random_poly(rng, degrees)
        x0, delta = (0.25, 0.5), (0.25, 0.125)
        vals_local = {
            idx: f(pt) for idx, pt in interp.tensor_nodes(degrees, x0, delta)
        }
        p_local = interp.tensor_interpolate(vals_local, (x0, delta))
        vals_unit = {
            idx: f((x0[0] + delta[0] * pt[0], x0[1] + delta[1] * pt[1]))
            for idx, pt in interp.tensor_nodes(degrees, (0, 0), (1, 1))
        }
        p_unit = interp.tensor_interpolate(vals_unit, ((0, 0), (1, 1)))
        for pt in rng.uniform(0, 1, (30, 2)):
            x = (x0[0] + delta[0] * pt[0], x0[1] + delta[1] * pt[1])
            assert p_local.eval(x) == pytest.approx(p_unit.eval(pt), abs=1e-12)

    def test_axiswise_equals_tensor(self):
        # Interpolating one axis at a time gives the full tensor interpolant.
        rng = np.random.default_rng(4)
        degrees = (2, 3)
        f, _ = random_poly(rng, (4, 4))  # higher degree: interpolation not exact
        box = ((0.0, 0.0), (1.0, 1.0))
        vals = {idx: f(pt) for idx, pt in interp.tensor_nodes(degrees, *box)}
        full = interp.tensor_interpolate(vals, box)
        nodes0 = interp.nodes(degrees[0])
        for pt in rng.uniform(0, 1, (25, 2)):
            stage = []
            for i0 in range(degrees[0] + 1):
                axis_vals = {(i1,): vals[(i0, i1)] for i1 in range(degrees[1] + 1)}
                p1 = interp.tensor_interpolate(axis_vals, ((0.0,), (1.0,)))
                stage.append(p1.eval((pt[1],)))
            p0 = interp.tensor_interpolate(
                {(i,): v for i, v in enumerate(stage)}, ((0.0,), (1.0,))
            )
            assert p0.eval((pt[0],)) == pytest.approx(full.eval(pt), abs=1e-10)
            assert nodes0[0] > 0.0  # axis order irrelevant; sanity anchor


class TestDerivEval:
    def test_zero_order_is_eval(self):
        vals = {
            idx: pt[0] ** 2 for idx, pt in interp.tensor_nodes((2,), (0,), (1,))
        }
        poly = interp.tensor_interpolate(vals, ((0,), (1,)))
        assert poly.deriv_eval((0,), (0.3,)) == pytest.approx(poly.eval((0.3,)))

    def test_beyond_degree_vanishes(self):
        vals = {
            idx: pt[0] ** 2 for idx, pt in interp.tensor_nodes((2,), (0,), (1,))
        }
        poly = interp.tensor_interpolate(vals, ((0,), (1,)))
        assert poly.deriv_eval((3,), (0.3,)) == 0.0

    def test_square_derivative_fd_oracle(self):
        vals = {
            idx: pt[0] ** 2 for idx, pt in interp.tensor_nodes((2,), (0,), (1,))
        }
        poly = interp.tensor_interpolate(vals, ((0,), (1,)))
        h = 1e-6
        for x in (0.15, 0.5, 0.85):
            fd = (poly.eval((x + h,)) - poly.eval((x - h,))) / (2 * h)
            got = poly.deriv_eval((1,), (x,))
            assert got == pytest.approx(2 * x, abs=1e-10)
            assert got == pytest.approx(fd, abs=1e-8)

    def test_scaled_box_chain_rule(self):
        vals = {
            idx: pt[0] ** 2 for idx, pt in interp.tensor_nodes((2,), (0.5,), (0.25,))
        }
        poly = interp.tensor_interpolate(vals, ((0.5,), (0.25,)))
        assert poly.deriv_eval((2,), (0.6,)) == pytest.approx(2.0, abs=1e-9)

    def test_constant_derivative_vanishes(self):
        vals = {idx: 1.0 for idx, _ in interp.tensor_nodes((1,), (0,), (1,))}
        poly = interp.tensor_interpolate(vals, ((0,), (1,)))
        assert poly.deriv_eval((1,), (0.4,)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("degrees", [(2, 3), (2, 1, 2)])
    def test_mixed_derivatives_match_numpy(self, degrees):
        # Random polynomials in global coordinates on a scaled, shifted box;
        # every derivative order up to one past the degree (which gives 0).
        rng = np.random.default_rng(sum(degrees))
        d = len(degrees)
        x0, delta = (0.25, 0.5, 0.125)[:d], (0.25, 0.125, 0.5)[:d]
        box = (x0, delta)
        coeffs = rng.uniform(-1, 1, size=tuple(g + 1 for g in degrees))
        node_list = list(interp.tensor_nodes(degrees, *box))
        node_vals = numpy_polyval(coeffs, np.array([pt for _, pt in node_list]))
        poly = interp.tensor_interpolate(
            {idx: v for (idx, _), v in zip(node_list, node_vals)}, box
        )
        pts = np.array(x0) + np.array(delta) * rng.uniform(0, 1, size=(10, d))
        for deriv in product(*[range(g + 2) for g in degrees]):
            dc = coeffs
            for axis, r in enumerate(deriv):
                dc = P.polyder(dc, m=r, axis=axis)
            want = numpy_polyval(dc, pts)
            got = np.array([poly.deriv_eval(deriv, p) for p in pts])
            scale = max(1.0, float(np.abs(want).max()))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * scale)
            if any(r > g for r, g in zip(deriv, degrees)):
                assert np.all(got == 0.0)


class TestPolynomialHelpers:
    """The shared monomial helpers on blocks with a trailing axis of m items."""

    def test_monomial_coeffs_recovers_coefficients(self):
        rng = np.random.default_rng(7)
        degrees, m = (2, 3), 5
        coeffs = rng.uniform(-1, 1, size=(3, 4, m))
        n0, n1 = (np.array(interp.nodes(g)) for g in degrees)
        # values[i, j, c] = sum_ab coeffs[a, b, c] n0[i]^a n1[j]^b
        values = np.stack(
            [P.polygrid2d(n0, n1, coeffs[..., c]) for c in range(m)], axis=-1
        )
        got = interp.monomial_coeffs(values, degrees)
        assert got.shape == coeffs.shape
        np.testing.assert_allclose(got, coeffs, rtol=0, atol=1e-11)

    def test_differentiate_matches_polyder(self):
        rng = np.random.default_rng(8)
        coeffs = rng.uniform(-1, 1, size=(4, 3, 6))
        for axis in (0, 1):
            for r in range(coeffs.shape[axis]):
                got = interp.differentiate(coeffs, axis, r)
                np.testing.assert_array_equal(got, P.polyder(coeffs, m=r, axis=axis))

    def test_horner_matches_polyval(self):
        rng = np.random.default_rng(9)
        coeffs = rng.uniform(-1, 1, size=(4, 3, 6))
        t = rng.uniform(0, 1, 6)
        # P.polyval(t, c) evaluates c along its first axis at every entry of t.
        inner = interp.horner(coeffs, 1, t)
        want = np.array([[P.polyval(t[i], coeffs[a, :, i]) for i in range(6)] for a in range(4)])
        np.testing.assert_allclose(inner, want, rtol=0, atol=1e-14)
        got = interp.horner(inner, 0, t)
        np.testing.assert_allclose(
            got, [P.polyval(t[i], want[:, i]) for i in range(6)], rtol=0, atol=1e-14
        )
        scalar = interp.horner(coeffs[..., 0], 1, 0.3)
        np.testing.assert_allclose(scalar, P.polyval(0.3, coeffs[:, :, 0].T), rtol=0, atol=1e-14)
        assert float(interp.horner(coeffs[:, 0, 0], 0, 0.3)) == pytest.approx(
            P.polyval(0.3, coeffs[:, 0, 0]), abs=1e-14
        )
