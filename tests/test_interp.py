"""Tests for tensor-product Lagrange interpolation and the shared input checks."""

import ast
import math
import re
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from hypercross import interp

P = np.polynomial.polynomial
SRC = Path(__file__).resolve().parents[1] / "src" / "hypercross"


def numpy_polyval(coeffs, pts):
    """Monomial coefficient tensor at (n, d) points, d <= 3, by numpy: a
    reference independent of the package's own evaluator."""
    fn = {1: P.polyval, 2: P.polyval2d, 3: P.polyval3d}[pts.shape[1]]
    return fn(*pts.T, coeffs)


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


class TestTensorInterpolate:
    def test_constant(self):
        poly = interp.interpolate(lambda pts: np.full(len(pts), 3.25), (1, 2), (0, 0), (1, 1))
        for pt in [(0.1, 0.9), (0.5, 0.5)]:
            assert poly.eval(pt) == pytest.approx(3.25, abs=1e-13)

    def test_bilinear_product(self):
        poly = interp.interpolate(bilinear, (1, 1), (0, 0), (1, 1))
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
                poly = interp.interpolate(f, degrees, *box)
                pts = rng.uniform(0, 1, (20, d))
                assert np.all(np.abs(poly.eval(pts) - f(pts)) <= 1e-9 * max(scale, 1.0))

    def test_bad_fields_rejected(self):
        # Each error names the field at fault, before any evaluation.
        good = dict(degrees=(1, 2), x0=(0.0, 0.0), delta=(1.0, 1.0))
        nan, inf = math.nan, math.inf
        bad = [
            ("values", np.ones((3, 2))),
            ("values", np.ones(6)),
            ("values", [[1.0] * 3] * 2),
            ("x0", (0.0,)),
            ("x0", (0.0, 0.0, 0.0)),
            ("x0", (nan, 0.0)),
            ("x0", (0.0, -inf)),
            ("delta", (1.0,)),
            ("delta", (1.0, 1.0, 1.0)),
            ("delta", (nan, 1.0)),
            ("delta", (1.0, inf)),
            ("delta", (0.0, 1.0)),
            ("delta", (1.0, -0.5)),
        ]
        for name, value in bad:
            fields = {**good, "values": np.ones((2, 3)), name: value}
            with pytest.raises(ValueError, match=name):
                interp.TensorPoly(**fields)
            if name != "values":
                # interpolate checks the box before it calls f on the nodes.
                with pytest.raises(ValueError, match=name):
                    interp.interpolate(lambda pts: pts[:, 1], (1, 2), fields["x0"], fields["delta"])
        poly = interp.TensorPoly(**good, values=np.ones((2, 3)))
        assert poly.eval((0.3, 0.7)) == pytest.approx(1.0, abs=1e-13)

    def test_caller_array_stays_writable(self):
        # The polynomial freezes its own float copy, not the caller's array.
        a = np.ones((2, 3))
        poly = interp.TensorPoly((1, 2), (0.0, 0.0), (1.0, 1.0), a)
        a[0, 0] = 2.0
        assert not poly.values.flags.writeable and poly.values[0, 0] == 1.0
        assert poly.eval((0.3, 0.7)) == pytest.approx(1.0, abs=1e-13)

    def test_affine_covariance(self):
        rng = np.random.default_rng(3)
        degrees = (2, 2)
        f, _ = random_poly(rng, degrees)
        x0, delta = (0.25, 0.5), (0.25, 0.125)
        p_local = interp.interpolate(f, degrees, x0, delta)
        p_unit = interp.interpolate(
            lambda pts: f(np.array(x0) + np.array(delta) * pts), degrees, (0, 0), (1, 1)
        )
        for pt in rng.uniform(0, 1, (30, 2)):
            x = (x0[0] + delta[0] * pt[0], x0[1] + delta[1] * pt[1])
            assert p_local.eval(x) == pytest.approx(p_unit.eval(pt), abs=1e-12)

    def test_f_takes_the_nodes_once_as_rows(self):
        # One call, the nodes x0 + delta * node in C order, the same floats as
        # the per-axis sums.
        calls = []

        def probe(pts):
            calls.append(pts.copy())
            return pts[:, 0] - pts[:, 1]

        x0, delta = (0.25, 0.5), (0.5, 0.125)
        poly = interp.interpolate(probe, (1, 2), x0, delta)
        (pts,) = calls
        assert pts.tolist() == [
            [x0[0] + delta[0] * a, x0[1] + delta[1] * b]
            for a in interp.nodes(1)
            for b in interp.nodes(2)
        ]
        assert np.array_equal(poly.values.ravel(), pts[:, 0] - pts[:, 1])

    @pytest.mark.parametrize(
        "f, message",
        [
            (lambda p: math.inf, "interpolate(f): values of shape () for 2 points, expected (2,)"),
            (lambda p: p, "interpolate(f): values of shape (2, 1) for 2 points, expected (2,)"),
            (
                lambda p: np.where(p[:, 0] > 0.5, math.inf, 0.0),
                "interpolate(f): value inf is not finite: evaluation failed at "
                "point [0.8535533905933335]",
            ),
        ],
        ids=["scalar", "column", "inf"],
    )
    def test_values_checked(self, f, message):
        # Each gave a polynomial whose every value was nan.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            interp.interpolate(f, (1,), (0.0,), (1.0,))

    def test_axiswise_equals_tensor(self):
        # Interpolating one axis at a time gives the full tensor interpolant:
        # each row of node values along axis 1 is a 1-D interpolant.
        rng = np.random.default_rng(4)
        degrees = (2, 3)
        f, _ = random_poly(rng, (4, 4))  # higher degree: interpolation not exact
        full = interp.interpolate(f, degrees, (0.0, 0.0), (1.0, 1.0))
        nodes0 = interp.nodes(degrees[0])
        for pt in rng.uniform(0, 1, (25, 2)):
            stage = [
                interp.TensorPoly(degrees[1:], (0.0,), (1.0,), row).eval((pt[1],))
                for row in full.values
            ]
            p0 = interp.TensorPoly(degrees[:1], (0.0,), (1.0,), np.array(stage))
            assert p0.eval((pt[0],)) == pytest.approx(full.eval(pt), abs=1e-10)
            assert nodes0[0] > 0.0  # axis order irrelevant; sanity anchor


def square(pts):
    return pts[:, 0] ** 2


def bilinear(pts):
    return pts[:, 0] * pts[:, 1]


class TestDerivEval:
    def test_zero_order_is_eval(self):
        poly = interp.interpolate(square, (2,), (0,), (1,))
        assert poly.deriv_eval((0,), (0.3,)) == pytest.approx(poly.eval((0.3,)))

    def test_beyond_degree_vanishes(self):
        poly = interp.interpolate(square, (2,), (0,), (1,))
        assert poly.deriv_eval((3,), (0.3,)) == 0.0

    def test_square_derivative_fd_oracle(self):
        poly = interp.interpolate(square, (2,), (0,), (1,))
        h = 1e-6
        for x in (0.15, 0.5, 0.85):
            fd = (poly.eval((x + h,)) - poly.eval((x - h,))) / (2 * h)
            got = poly.deriv_eval((1,), (x,))
            assert got == pytest.approx(2 * x, abs=1e-10)
            assert got == pytest.approx(fd, abs=1e-8)

    def test_scaled_box_chain_rule(self):
        poly = interp.interpolate(square, (2,), (0.5,), (0.25,))
        assert poly.deriv_eval((2,), (0.6,)) == pytest.approx(2.0, abs=1e-9)

    def test_constant_derivative_vanishes(self):
        poly = interp.interpolate(lambda pts: np.ones(len(pts)), (1,), (0,), (1,))
        assert poly.deriv_eval((1,), (0.4,)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_rejected(self, bad):
        # Points outside the box are legal; a non-finite one is named.
        poly = interp.interpolate(bilinear, (1, 1), (0.0, 0.0), (1.0, 1.0))
        assert poly.eval((2.0, -1.0)) == pytest.approx(-2.0, abs=1e-12)
        for deriv in [(0, 0), (1, 0), (2, 0)]:
            with pytest.raises(ValueError, match=rf"^point \[{bad}, 0\.5\] is not finite$"):
                poly.deriv_eval(deriv, (bad, 0.5))
        with pytest.raises(ValueError, match="not finite"):
            poly.eval((0.5, bad))

    @pytest.mark.parametrize("order", [True, np.True_, 0.5, -1])
    def test_order_goes_through_as_integer(self, order):
        # A bool is not read as the first derivative, nor a fraction passed
        # on to math.perm.
        poly = interp.interpolate(bilinear, (1, 1), (0.0, 0.0), (1.0, 1.0))
        with pytest.raises(ValueError, match="^axis 0: derivative order"):
            poly.deriv_eval((order, 0), (0.3, 0.4))
        assert poly.deriv_eval((1.0, 0), (0.3, 0.4)) == pytest.approx(0.4)

    @pytest.mark.parametrize("deriv", [(0,), (0, 0, 0)])
    def test_order_of_wrong_length_is_named(self, deriv):
        # The one per-axis check, `interp.as_integers`, shared with the oracle.
        poly = interp.interpolate(bilinear, (1, 1), (0.0, 0.0), (1.0, 1.0))
        message = f"derivative order {deriv} must have 2 entries, one per axis"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            poly.deriv_eval(deriv, (0.3, 0.4))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            poly.deriv_eval(list(deriv), np.zeros((3, 2)))

    def test_rows_in_rows_out(self):
        poly = interp.interpolate(bilinear, (1, 1), (0.0, 0.0), (1.0, 1.0))
        pts = np.array([[0.3, 0.4], [2.0, -1.0], [0.0, 1.0]])
        np.testing.assert_allclose(poly.eval(pts), [0.12, -2.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(poly.deriv_eval((0, 1), pts), [0.3, 2.0, 0.0], atol=1e-12)
        assert poly.deriv_eval((2, 0), pts).tolist() == [0.0] * 3
        assert poly.eval(np.empty((0, 2))).shape == (0,)
        const = interp.interpolate(
            lambda pts: np.full(len(pts), 2.5), (0, 0), (0.0, 0.0), (1.0, 1.0)
        )
        assert const.eval(pts).tolist() == [2.5] * 3
        with pytest.raises(ValueError, match=r"^point \[0\.5, nan\] \(row 1\) is not finite$"):
            poly.eval([[0.3, 0.4], [0.5, math.nan]])
        with pytest.raises(ValueError, match=r"^points of shape \(2, 3\): expected one point"):
            poly.eval(np.zeros((2, 3)))

    @pytest.mark.parametrize("degrees", [(2, 3), (2, 1, 2)])
    def test_mixed_derivatives_match_numpy(self, degrees):
        # Random polynomials in global coordinates on a scaled, shifted box;
        # every derivative order up to one past the degree (which gives 0).
        rng = np.random.default_rng(sum(degrees))
        d = len(degrees)
        x0, delta = (0.25, 0.5, 0.125)[:d], (0.25, 0.125, 0.5)[:d]
        coeffs = rng.uniform(-1, 1, size=tuple(g + 1 for g in degrees))
        poly = interp.interpolate(lambda pts: numpy_polyval(coeffs, pts), degrees, x0, delta)
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


class TestStackDerivEval:
    """The gathered evaluator on a stack gives, bit for bit, each polynomial's
    own `deriv_eval` on its rows."""

    @pytest.mark.parametrize(
        "degrees", [(3,), (0,), (2, 0), (0, 3), (0, 0), (1, 3, 2), (2, 0, 1), (0, 0, 0)]
    )
    def test_equals_each_polynomial_on_its_rows(self, degrees):
        rng = np.random.default_rng(len(degrees) * 100 + sum(degrees))
        d = len(degrees)
        polys = [
            interp.TensorPoly(
                degrees,
                tuple(rng.uniform(-1, 1, d).tolist()),
                tuple(rng.choice([0.125, 0.3, 1.0, 2.5], d).tolist()),
                rng.uniform(-1, 1, tuple(g + 1 for g in degrees)),
            )
            for _ in range(5)
        ]
        # Shuffled owners; the last polynomial owns no row.
        owner = rng.permutation(np.repeat(np.arange(4), [6, 1, 9, 4]))
        rows = rng.uniform(-0.5, 1.5, (len(owner), d))
        for deriv in product(*[range(g + 2) for g in degrees]):
            got = interp.stack_deriv_eval(polys, deriv, rows, owner)
            want = np.full(len(rows), np.nan)
            for g, poly in enumerate(polys):
                want[owner == g] = poly.deriv_eval(deriv, rows[owner == g])
            assert got.shape == (len(rows),)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
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

    def test_cached_monomial_matrix_is_read_only(self):
        # lru_cache hands every interpolant the same array.
        matrix = interp._monomial_matrix(3)
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 1.0


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
