"""Tests for tensor-product Lagrange interpolation and the shared input checks."""

import ast
import math
import re
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from hypercross import exact, grid, interp, recovery

P = np.polynomial.polynomial
SRC = Path(__file__).resolve().parents[1] / "src" / "hypercross"


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
        # np.int64(1) == True, so an untyped cache entry would answer for True.
        assert interp.nodes(np.int64(1)) == interp.nodes(1)
        with pytest.raises(ValueError, match="^degree: expected an integer, got True$"):
            interp.nodes(True)


class TestLagrangeBasis:
    """The basis the evaluators use: column j of the monomial coefficients of
    the identity's node values is the polynomial that is 1 at node j."""

    @staticmethod
    def basis_at(deg, x):
        return interp.horner(interp.monomial_coeffs(np.eye(deg + 1), (deg,)), 0, x)

    def test_kronecker(self):
        # Every supported degree; the coefficients grow to about 3e7 at degree
        # 12, so the bound is relative to the largest one (measured at most
        # 1.8e-16 of it).
        for deg in range(interp.MAX_DEGREE + 1):
            basis = interp.monomial_coeffs(np.eye(deg + 1), (deg,))
            bound = 1e-15 * np.abs(basis).max()
            for i, x in enumerate(interp.nodes(deg)):
                got = interp.horner(basis, 0, x)
                assert np.max(np.abs(got - np.eye(deg + 1)[i])) <= bound

    def test_partition(self):
        rng = np.random.default_rng(0)
        for deg in (1, 4):
            for x in rng.uniform(-0.2, 1.2, 30):
                assert sum(self.basis_at(deg, x)) == pytest.approx(1.0, abs=1e-12)


def random_poly(rng, degrees):
    """Random polynomial with the given coordinate degrees, taking (n, d)
    points, plus its coeff scale."""
    coeffs = rng.uniform(-1, 1, size=tuple(d + 1 for d in degrees))

    def f(pts):
        out = np.zeros(len(pts))
        for idx in product(*[range(d + 1) for d in degrees]):
            out += coeffs[idx] * np.prod(pts ** np.array(idx), axis=1)
        return out

    return f, float(np.abs(coeffs).max())


def node_values(f, degrees):
    """``f`` on the tensor nodes of the unit cube, shaped ``degrees + 1``."""
    pts = interp.tensor_grid([np.array(interp.nodes(g)) for g in degrees])
    return f(pts).reshape([g + 1 for g in degrees])


def evaluate(coeffs, pts):
    """Monomial coefficients at the (n, d) points, Horner's rule from the last
    axis to the first, as `recovery.Approximant` evaluates a cell."""
    pts = np.atleast_2d(pts)
    block = np.broadcast_to(coeffs[..., None], coeffs.shape + (len(pts),))
    for j in reversed(range(coeffs.ndim)):
        block = interp.horner(block, j, pts[:, j])
    return block


class TestTensorInterpolate:
    """Tensor interpolation on the production path: node values through
    `monomial_coeffs`, evaluated by `horner`."""

    def test_constant(self):
        coeffs = interp.monomial_coeffs(np.full((2, 3), 3.25), (1, 2))
        for pt in [(0.1, 0.9), (0.5, 0.5)]:
            assert evaluate(coeffs, pt)[0] == pytest.approx(3.25, abs=1e-13)

    def test_bilinear_product(self):
        coeffs = interp.monomial_coeffs(node_values(bilinear, (1, 1)), (1, 1))
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 1, (50, 2))
        np.testing.assert_allclose(evaluate(coeffs, pts), bilinear(pts), rtol=0, atol=1e-12)

    def test_reproduction_random_polys(self):
        rng = np.random.default_rng(2)
        for degrees in [(3,), (2, 2), (1, 3), (2, 1, 2), (3, 3, 3), (2, 1, 3)]:
            for _ in range(5):
                f, scale = random_poly(rng, degrees)
                coeffs = interp.monomial_coeffs(node_values(f, degrees), degrees)
                pts = rng.uniform(0, 1, (20, len(degrees)))
                assert np.all(np.abs(evaluate(coeffs, pts) - f(pts)) <= 1e-9 * max(scale, 1.0))

    def test_caller_array_stays_writable(self):
        # The coefficients are a new array: the caller's node values stay
        # writable, and writing them changes no coefficient, although the
        # cached matrix applied to them is read-only.
        a = np.ones((2, 3))
        coeffs = interp.monomial_coeffs(a, (1, 2))
        a[0, 0] = 2.0
        assert a.flags.writeable and not np.shares_memory(a, coeffs)
        assert evaluate(coeffs, (0.3, 0.7))[0] == pytest.approx(1.0, abs=1e-13)

    def test_axiswise_equals_tensor(self):
        # Interpolating one axis at a time gives the full tensor interpolant:
        # each row of node values along axis 1 is a 1-D interpolant.
        rng = np.random.default_rng(4)
        degrees = (2, 3)
        f, _ = random_poly(rng, (4, 4))  # higher degree: interpolation not exact
        values = node_values(f, degrees)
        full = interp.monomial_coeffs(values, degrees)
        for pt in rng.uniform(0, 1, (25, 2)):
            stage = [
                evaluate(interp.monomial_coeffs(row, degrees[1:]), pt[1:])[0] for row in values
            ]
            p0 = interp.monomial_coeffs(np.array(stage), degrees[:1])
            assert evaluate(p0, pt[:1])[0] == pytest.approx(evaluate(full, pt)[0], abs=1e-10)

    @pytest.mark.parametrize(
        "f, message",
        [
            (lambda p: math.inf, "node values: values of shape () for 2 points, expected (2,)"),
            (lambda p: p, "node values: values of shape (2, 1) for 2 points, expected (2,)"),
            (
                lambda p: np.where(p[:, 0] > 0.5, math.inf, 0.0),
                "node values: value inf is not finite: evaluation failed at "
                "point [0.8535533905933335]",
            ),
        ],
        ids=["scalar", "column", "inf"],
    )
    def test_values_checked(self, f, message):
        # Node values pass `as_values` before they become coefficients: each
        # of these would give a polynomial whose every value is nan.
        pts = interp.tensor_grid([np.array(interp.nodes(1))])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            interp.as_values(f(pts), "node values", len(pts), lambda i: f"point {pts[i].tolist()}")


def bilinear(pts):
    return pts[:, 0] * pts[:, 1]


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

    def test_cached_monomial_matrix_is_read_only(self):
        # lru_cache hands every interpolant the same array.
        matrix = interp._monomial_matrix(3)
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 1.0


class TestDerivEval:
    """Evaluating cell polynomials: Horner's rule takes any finite point, one
    or many, and a derivative order goes through the one per-axis check that
    the float route and the exact oracle share."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_rejected(self, bad):
        # Points outside the cube are legal; a non-finite one is named.
        coeffs = interp.monomial_coeffs(node_values(bilinear, (1, 1)), (1, 1))
        assert evaluate(coeffs, interp.as_points((2.0, -1.0), 2))[0] == pytest.approx(
            -2.0, abs=1e-12
        )
        for pt in [(bad, 0.5), (0.5, bad)]:
            message = f"point {list(pt)} is not finite"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                interp.as_points(pt, 2)

    @pytest.mark.parametrize("deriv", [(0,), (0, 0, 0)])
    def test_order_of_wrong_length_is_named(self, deriv):
        # The one per-axis check, `interp.as_integers`, shared with the oracle.
        plan = grid.build_plan(grid.derive_params(2, (2.0, 2.0), 2.0, 2.0, 2.0, (0, 0)), 2)
        message = f"derivative order {deriv} must have 2 entries, one per axis"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            recovery.Approximant(np.ones(plan.n_actual), plan, deriv)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            exact.ExactEvaluator(plan, np.ones(plan.n_actual), deriv)

    def test_rows_in_rows_out(self):
        coeffs = interp.monomial_coeffs(node_values(bilinear, (1, 1)), (1, 1))
        pts = np.array([[0.3, 0.4], [2.0, -1.0], [0.0, 1.0]])
        np.testing.assert_allclose(evaluate(coeffs, pts), [0.12, -2.0, 0.0], atol=1e-12)
        assert evaluate(coeffs, np.empty((0, 2))).shape == (0,)
        const = interp.monomial_coeffs(np.full((1, 1), 2.5), (0, 0))
        assert evaluate(const, pts).tolist() == [2.5] * 3
        with pytest.raises(ValueError, match=r"^point \[0\.5, nan\] \(row 1\) is not finite$"):
            interp.as_points([[0.3, 0.4], [0.5, math.nan]], 2)
        with pytest.raises(ValueError, match=r"^points of shape \(2, 3\): expected one point"):
            interp.as_points(np.zeros((2, 3)), 2)


class TestStackDerivEval:
    """The gathered Horner step on a stack of tensor polynomials gives, bit
    for bit, each polynomial's own evaluation on its rows, for the
    coefficients of every derivative: the table gather of
    `recovery.Approximant`, one polynomial per cell."""

    @pytest.mark.parametrize(
        "degrees", [(3,), (0,), (2, 0), (0, 3), (0, 0), (1, 3, 2), (2, 0, 1), (0, 0, 0)]
    )
    def test_equals_each_polynomial_on_its_rows(self, degrees):
        rng = np.random.default_rng(len(degrees) * 100 + sum(degrees))
        d = len(degrees)
        stack = rng.uniform(-1, 1, tuple(g + 1 for g in degrees) + (5,))
        # Shuffled owners; the last polynomial owns no row.
        owner = rng.permutation(np.repeat(np.arange(4), [6, 1, 9, 4]))
        rows = rng.uniform(-0.5, 1.5, (len(owner), d))
        for deriv in product(*[range(g + 2) for g in degrees]):
            dc = stack
            for axis, r in enumerate(deriv):
                dc = P.polyder(dc, m=r, axis=axis)
            got = interp.horner(dc, d - 1, rows[:, -1], owner, at=-1)
            for j in reversed(range(d - 1)):
                got = interp.horner(got, j, rows[:, j])
            want = np.full(len(rows), np.nan)
            for g in range(dc.shape[-1]):
                want[owner == g] = evaluate(dc[..., g], rows[owner == g])
            assert got.shape == (len(rows),)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            if any(r > g for r, g in zip(deriv, degrees)):
                assert np.all(got == 0.0)


class TestInputChecks:
    """`as_points`, `as_values` and `tensor_grid`, the checks and the grid
    builder every module shares."""

    def test_points_keep_their_shape(self):
        assert interp.as_points((0.5, 1), 2).tolist() == [0.5, 1.0]
        rows = interp.as_points([[0.0, 1.0], [1.0, 0.0]], 2, 0.0, 1.0)
        assert rows.shape == (2, 2) and rows.dtype == float
        assert interp.as_points(np.empty((0, 3)), 3, 0.0, 1.0).shape == (0, 3)
        assert interp.as_points([[-5.0, 1e300]], 2).shape == (1, 2)

    @pytest.mark.parametrize(
        "x, bounds, message",
        [
            (0.5, (), "points of shape (): expected one point of 1 coordinates or an (n, 1) array"),
            (
                np.zeros((2, 1, 1)), (),
                "points of shape (2, 1, 1): expected one point of 1 coordinates or an (n, 1) array",
            ),
            (
                [0.5, 0.5], (),
                "point [0.5, 0.5]: expected one point of 1 coordinates or an (n, 1) array",
            ),
            ([math.nan], (), "point [nan] is not finite"),
            ([[0.5], [-math.inf]], (), "point [-inf] (row 1) is not finite"),
            (
                [[0.5], [1.5]], (0.0, 1.0),
                "point [1.5] (row 1) is not finite or lies outside [0, 1]^1",
            ),
            ([math.nan], (0.0, 1.0), "point [nan] is not finite or lies outside [0, 1]^1"),
        ],
        ids=["scalar", "three-axes", "too-long", "nan", "row", "outside", "nan-in-cube"],
    )
    def test_points_refused_with_the_point(self, x, bounds, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            interp.as_points(x, 1, *bounds)

    def test_values_are_floats_checked_in_place(self):
        got = interp.as_values(np.arange(3), "f", 3, str)
        assert got.dtype == float and got.tolist() == [0.0, 1.0, 2.0]
        assert interp.as_values(got, "f", 3, str) is got

    @pytest.mark.parametrize(
        "values, message",
        [
            (np.ones((3, 1)), "f: values of shape (3, 1) for 3 points, expected (3,)"),
            (np.ones(2), "f: values of shape (2,) for 3 points, expected (3,)"),
            (
                [0.0, math.nan, math.inf],
                "f: value nan is not finite: evaluation failed at node 1",
            ),
            (
                [0.0, 0.0, -math.inf],
                "f: value -inf is not finite: evaluation failed at node 2",
            ),
        ],
        ids=["column", "short", "nan", "inf"],
    )
    def test_values_refused_with_the_point(self, values, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            interp.as_values(values, "f", 3, lambda i: f"node {i}")

    def test_tensor_grid_is_c_order(self):
        axes = [np.array([0.0, 0.5]), np.array([1.0]), np.array([0.1, 0.2, 0.3])]
        got = interp.tensor_grid(axes)
        assert got.tolist() == [list(p) for p in product(*(a.tolist() for a in axes))]
        assert interp.tensor_grid([np.empty(0), np.ones(2)]).shape == (0, 2)


def test_one_grid_builder_and_point_check():
    # Points are checked by `as_points` and grids built by `tensor_grid`; a
    # second point reshaper or grid builder elsewhere would show up here.
    found = {
        path.stem
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in ("meshgrid", "atleast_2d")
    }
    assert found <= {"interp"}
