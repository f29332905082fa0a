"""Tests for dyadic level operators and multilevel surpluses."""

import math
import re
from itertools import product

import numpy as np
import pytest

from hypercross import dyadic
from hypercross.dyadic import DyadicEvaluator

from test_interp import random_poly


def smooth2(p):
    x, y = p[:, 0], p[:, 1]
    return np.sin(2.3 * x + 0.4) * np.cos(1.1 * y + 0.2) + x * y


def const(value):
    return lambda p: np.full(len(p), value)


class TestLocalInterp:
    def test_reproduces_polynomials_on_cell(self):
        rng = np.random.default_rng(0)
        f, scale = random_poly(rng, (2, 2))
        poly = DyadicEvaluator((2, 2), (0, 0), f=f)._local((2, 1), (1, 0))
        cellpts = (0.25, 0.0) + (0.25, 0.5) * rng.uniform(0, 1, (30, 2))
        assert np.all(np.abs(poly.eval(cellpts) - f(cellpts)) <= 1e-10 * max(scale, 1))

    def test_zero_function(self):
        poly = DyadicEvaluator((1, 1), (0, 0), f=const(0.0))._local((1, 1), (0, 1))
        assert poly.eval((0.3, 0.8)) == 0.0

    def test_midpoint_rule_cell(self):
        # Degree 0 on cell [1/2, 1): the interpolant is f at the cell midpoint-ish node.
        poly = DyadicEvaluator((0,), (0,), f=lambda p: p[:, 0])._local((1,), (1,))
        assert poly.eval((0.6,)) == pytest.approx(0.75, abs=1e-12)

    def test_function_failure_propagates(self):
        def bad(p):
            raise RuntimeError("no value here")

        with pytest.raises(RuntimeError, match="no value here"):
            DyadicEvaluator((1,), (0,), f=bad)._local((1,), (0,))


class TestQuasiInterp:
    def test_reproduces_polynomials_globally(self):
        rng = np.random.default_rng(1)
        f, scale = random_poly(rng, (2, 2))
        ev = DyadicEvaluator((2, 2), (1, 1), f=f)
        for level in [(0, 0), (1, 2), (3, 0)]:
            pts = rng.uniform(0.01, 0.99, (25, 2))
            got = ev.quasi_interp_deriv(level, (0, 0), pts)
            assert np.all(np.abs(got - f(pts)) <= 1e-10 * max(scale, 1))

    def test_indicator_partition_single_cell(self):
        # order 0: the value inside a cell is the local interpolant alone.
        ev = DyadicEvaluator((2,), (0,), f=lambda p: smooth2(np.insert(p, 1, 0.3, axis=1)))
        x = (0.3,)
        got = ev.quasi_interp_deriv((2,), (0,), x)
        cell = (int(x[0] * 4),)
        want = ev._local((2,), cell).eval(x)
        assert got == want

    def test_constant_derivative_vanishes(self):
        ev = DyadicEvaluator((2, 2), (1, 1), f=const(4.25))
        for level in [(1, 1), (2, 0)]:
            assert ev.quasi_interp_deriv(level, (1, 0), (0.37, 0.61)) == pytest.approx(
                0.0, abs=1e-11
            )

    def test_derivative_order_validated(self):
        ev = DyadicEvaluator((2, 2), (1, 1), f=smooth2)
        with pytest.raises(ValueError):
            ev.quasi_interp_deriv((1, 1), (2, 0), (0.5, 0.5))

    def test_locality_touches_bounded_translates(self):
        calls = []

        def probe(p):
            calls.extend(map(tuple, p))
            return smooth2(p)

        ev = DyadicEvaluator((1, 1), (1, 1), f=probe)
        ev.quasi_interp_deriv((3, 3), (0, 0), (0.4, 0.7))
        # 4 covering translates, 4 nodes per local interpolant.
        assert len(set(calls)) <= 4 * 4

    def test_matches_finite_difference(self):
        ev = DyadicEvaluator((2, 2), (2, 2), f=smooth2)
        h = 1e-5
        x = (0.41, 0.63)
        fd = (
            ev.quasi_interp_deriv((2, 2), (0, 0), (x[0] + h, x[1]))
            - ev.quasi_interp_deriv((2, 2), (0, 0), (x[0] - h, x[1]))
        ) / (2 * h)
        assert ev.quasi_interp_deriv((2, 2), (1, 0), x) == pytest.approx(fd, abs=1e-5)


class TestSurplus:
    def test_decrement_masks_are_the_support_subsets(self):
        # Every 0/1 mask with e <= sign(k), each once, in lexicographic order.
        for level in product(range(3), repeat=4):
            want = [
                e for e in product((0, 1), repeat=4) if all(b <= (k > 0) for b, k in zip(e, level))
            ]
            assert dyadic.decrement_masks(level) == want

    def test_level_zero_equals_quasi_interp(self):
        ev = DyadicEvaluator((2, 2), (1, 1), f=smooth2)
        for x in [(0.2, 0.9), (0.55, 0.1)]:
            assert ev.surplus_deriv((0, 0), (0, 0), x) == ev.quasi_interp_deriv(
                (0, 0), (0, 0), x
            )

    def test_annihilates_polynomials(self):
        rng = np.random.default_rng(2)
        f, scale = random_poly(rng, (2, 2))
        ev = DyadicEvaluator((2, 2), (1, 1), f=f)
        for level in [(1, 0), (0, 1), (2, 2), (1, 3), (3, 1)]:
            got = ev.surplus_deriv(level, (0, 0), rng.uniform(0.01, 0.99, (25, 2)))
            assert np.all(np.abs(got) <= 1e-9 * max(scale, 1))

    def test_telescoping_to_level_operator(self):
        rng = np.random.default_rng(3)
        ev = DyadicEvaluator((2, 2), (1, 1), f=smooth2)
        for top in [(2, 1), (3, 3)]:
            pts = rng.uniform(0.01, 0.99, (10, 2))
            tele = sum(
                ev.surplus_deriv(lvl, (0, 0), pts)
                for lvl in product(range(top[0] + 1), range(top[1] + 1))
            )
            want = ev.quasi_interp_deriv(top, (0, 0), pts)
            np.testing.assert_allclose(tele, want, rtol=0, atol=1e-9)

    def test_level_convergence_on_diagonal(self):
        # L2 error of the level operator decreases along the diagonal.
        from hypercross.recovery import Quadrature, lq_error

        quad = Quadrature(d=2, cells_log2=3)
        errs = []
        ev = DyadicEvaluator((2, 2), (1, 1), f=smooth2)
        for s in range(1, 7):
            approx = lambda pts, s=s: ev.quasi_interp_deriv((s, s), (0, 0), pts)  # noqa: E731
            errs.append(lq_error(approx, smooth2, 2.0, quad))
        for a, b in zip(errs, errs[1:]):
            assert b <= a * 1.01


class TestTranslateRepresentation:
    def test_level_zero_reduces_to_local_interp(self):
        ev = DyadicEvaluator((2, 2), (1, 1), f=smooth2)
        upoly = ev._surplus_poly((0, 0), (-1, 0))
        base = ev._local((0, 0), (0, 0))
        for pt in [(0.2, 0.7), (0.9, 0.05)]:
            assert upoly.eval(pt) == pytest.approx(base.eval(pt), abs=1e-12)

    def test_admissible_coarse_cells_bounded(self):
        ev = DyadicEvaluator((1, 1), (2, 2), f=smooth2)
        bound = math.prod((m + 3) // 2 + 1 for m in (2, 2))
        for level in [(1, 1), (2, 3)]:
            for shift in [(-2, 0), (0, 1), (1, -1)]:
                masks = dyadic.decrement_masks(level)
                for mask in masks:
                    lower = tuple(k - e for k, e in zip(level, mask))
                    count = 1
                    for j in range(2):
                        if not mask[j]:
                            continue
                        m, s = 2, shift[j]
                        lo = max(-m, -(-(s - m - 1) // 2))
                        hi = min(2 ** lower[j] - 1, s // 2)
                        count *= max(0, hi - lo + 1)
                    assert count <= bound

    def test_agreement_with_direct_definition(self):
        rng = np.random.default_rng(4)
        ev = DyadicEvaluator((2, 2), (1, 1), f=smooth2)
        worst = 0.0
        for level in [(1, 1), (2, 0), (0, 2), (3, 2)]:
            pts = rng.uniform(0.01, 0.99, (25, 2))
            direct = ev.surplus_deriv(level, (0, 0), pts)
            via = ev.surplus_via_translates(level, (0, 0), pts)
            worst = max(worst, float(np.max(np.abs(direct - via))))
        assert worst <= 1e-9

    def test_agreement_including_derivatives(self):
        rng = np.random.default_rng(5)
        ev = DyadicEvaluator((2, 2), (1, 1), f=smooth2)
        for level in [(1, 1), (2, 2)]:
            pts = rng.uniform(0.01, 0.99, (10, 2))
            direct = ev.surplus_deriv(level, (1, 1), pts)
            via = ev.surplus_via_translates(level, (1, 1), pts)
            assert np.all(np.abs(via - direct) <= 1e-9 * np.maximum(1.0, np.abs(direct)))


class TestMemoization:
    def test_each_node_evaluated_once(self):
        seen: dict[tuple, int] = {}

        def probe(p):
            for node in map(tuple, p):
                seen[node] = seen.get(node, 0) + 1
            return smooth2(p)

        ev = DyadicEvaluator((1, 1), (1, 1), f=probe)
        rng = np.random.default_rng(6)
        pts = rng.uniform(0.01, 0.99, (40, 2))
        # A single point, then the rest as an array: later calls reuse the memo.
        for part in (pts[0], pts[1:20], pts[20:]):
            ev.surplus_deriv((2, 2), (0, 0), part)
            ev.surplus_deriv((2, 1), (0, 0), part)
        assert seen and max(seen.values()) == 1

    def test_cell_and_translate_polynomials_are_kept(self):
        ev = DyadicEvaluator((1, 1), (1, 1), f=smooth2)
        assert ev._local((2, 1), (1, 0)) is ev._local((2, 1), (1, 0))
        assert ev._surplus_poly((2, 1), (-1, 0)) is ev._surplus_poly((2, 1), (-1, 0))


def affine(p):
    return 1.0 + p[:, 0] + p[:, 1]


class TestInputContract:
    """Each public method checks its input once, naming what it refuses."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (
                lambda ev: ev.quasi_interp_deriv((1.5, 2), (0, 0), (0.3, 0.4)),
                "axis 0: level: expected an integer, got 1.5",
            ),
            (
                lambda ev: ev.quasi_interp_deriv((1, 2), (0.9, 0), (0.3, 0.4)),
                "axis 0: derivative order: expected an integer, got 0.9",
            ),
            (
                lambda ev: ev.surplus_deriv((True, 1), (0, 0), (0.3, 0.4)),
                "axis 0: level: expected an integer, got True",
            ),
            (
                lambda ev: ev.surplus_via_translates((1, 1), (0, 2), (0.3, 0.4)),
                "axis 1: derivative order 2 exceeds supported maximum 1",
            ),
            (
                lambda ev: ev.quasi_interp_deriv((1, -1), (0, 0), (0.3, 0.4)),
                "axis 1: level must be an integer >= 0, got -1",
            ),
            (
                lambda ev: ev.quasi_interp_deriv((1,), (0, 0), (0.3, 0.4)),
                "level (1,) must have 2 entries, one per axis",
            ),
            (
                lambda ev: ev.surplus_deriv((1, 1), (0, 0), (0.5,)),
                "point [0.5]: expected one point of 2 coordinates or an (n, 2) array",
            ),
            (
                lambda ev: ev.surplus_deriv((1, 1), (0, 0), np.full((3, 1), 0.5)),
                "points of shape (3, 1): expected one point of 2 coordinates or an (n, 2) array",
            ),
            (
                lambda ev: ev.quasi_interp_deriv((1, 1), (0, 0), (1.5, 0.5)),
                "point [1.5, 0.5] is not finite or lies outside [0, 1]^2",
            ),
            (
                lambda ev: ev.quasi_interp_deriv((1, 1), (0, 0), (math.nan, 0.5)),
                "point [nan, 0.5] is not finite or lies outside [0, 1]^2",
            ),
            (
                lambda ev: ev.surplus_deriv((1, 1), (0, 0), [(0.2, 0.3), (0.5, -1e-300)]),
                "point [0.5, -1e-300] (row 1) is not finite or lies outside [0, 1]^2",
            ),
            (
                # f is NaN right of x = 1/2: the first cell built there, (1, 0) at
                # level (1, 1), names its first node (a silent nan before).
                lambda ev: DyadicEvaluator(
                    (1, 1), (1, 1), f=lambda p: np.where(p[:, 0] > 0.5, np.nan, affine(p))
                ).quasi_interp_deriv((1, 1), (0, 0), (0.7, 0.4)),
                "interpolate(f): value nan is not finite: evaluation failed at "
                "point [0.5732233047033333, 0.07322330470333327]",
            ),
            (
                lambda ev: DyadicEvaluator((1, 1), (1, 1), f=lambda p: p).surplus_deriv(
                    (1, 1), (0, 0), (0.7, 0.4)
                ),
                "interpolate(f): values of shape (4, 2) for 4 points, expected (4,)",
            ),
        ],
        ids=[
            "fractional-level", "fractional-order", "bool-level", "order-above-spline",
            "negative-level", "short-level", "short-point", "narrow-array",
            "point-outside", "nan-point", "array-row", "nan-value", "values-per-row",
        ],
    )
    def test_refused_with_its_name(self, call, message):
        # Refused by name: never truncated, read off the cube (a silent 0.0
        # for an affine function) or left to fail deeper.
        ev = DyadicEvaluator((1, 1), (1, 1), f=affine)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(ev)

    def test_integral_floats_accepted(self):
        ev = DyadicEvaluator((1, 1), (1, 1), f=affine)
        got = ev.quasi_interp_deriv((1.0, np.int64(2)), (1.0, 0), (0.3, 1.0))
        assert got == ev.quasi_interp_deriv((1, 2), (1, 0), (0.3, 1.0)) == pytest.approx(1.0)

    def test_empty_array_gives_empty_result(self):
        ev = DyadicEvaluator((1, 1), (1, 1), f=affine)
        assert ev.surplus_deriv((1, 1), (1, 0), np.empty((0, 2))).shape == (0,)

    def test_one_spline_order_per_degree(self):
        # The degrees set the dimension; the orders are counted against it.
        message = "spline order (1,) must have 2 entries, one per axis"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DyadicEvaluator((1, 1), (1,), f=affine)


# (degrees, order, derivative) per case: d = 1, 2 and 3, orders up to
# (2, 1, 1) and derivatives up to (2, 1).
ARRAY_CASES = [
    ((2,), (0,), (0,)),
    ((2,), (2,), (2,)),
    ((2, 2), (1, 1), (1, 0)),
    ((2, 1), (2, 1), (2, 1)),
    ((1, 1, 2), (2, 1, 1), (1, 0, 1)),
]


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


class TestArrayEqualsPointwise:
    """An array call gives, bit for bit, the per-point calls' floats."""

    @staticmethod
    def points(d, seed):
        # Random points, dyadic knots (and the float just below some), 0 and 1.
        rng = np.random.default_rng(seed)
        knots = np.array([0.0, 1.0, 0.5, 0.25, 0.75, np.nextafter(0.5, 0.0), 0.125])
        mixed = np.where(rng.random((6, d)) < 0.5, rng.choice(knots, (6, d)), rng.random((6, d)))
        return np.concatenate([rng.random((2, d)), mixed, np.zeros((1, d)), np.ones((1, d))])

    @pytest.mark.parametrize("degrees, order, deriv", ARRAY_CASES)
    @pytest.mark.parametrize(
        "method", ["quasi_interp_deriv", "surplus_deriv", "surplus_via_translates"]
    )
    def test_bitwise_equal(self, degrees, order, deriv, method):
        d = len(degrees)
        pts = self.points(d, len(ARRAY_CASES) * d + sum(order))
        for level in [(0,) * d, (1,) * d, (2,) + (0,) * (d - 1)]:
            ev = DyadicEvaluator(degrees, order, f=lambda p: smooth2(p[:, [0, -1]]))
            call = getattr(ev, method)
            got = call(level, deriv, pts)
            each = [call(level, deriv, p) for p in pts]
            assert got.shape == (len(pts),) and all(type(v) is float for v in each)
            assert np.array_equal(bits(got), bits(each))

    def test_tensor_poly_rows(self):
        rng = np.random.default_rng(8)
        poly = DyadicEvaluator((2, 1, 2), (0, 0, 0), f=smooth2)._local((1, 0, 2), (1, 0, 3))
        pts = np.concatenate([rng.uniform(-0.5, 1.5, (20, 3)), np.zeros((1, 3)), np.ones((1, 3))])
        for deriv in product(range(4), range(3), range(2)):
            got = poly.deriv_eval(deriv, pts)
            each = [poly.deriv_eval(deriv, p) for p in pts]
            assert np.array_equal(bits(got), bits(each))
