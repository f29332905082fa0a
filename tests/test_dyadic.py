"""Tests for the dyadic level operators ``R_l``, their multilevel surpluses
and their translate representation: in exact rationals (`exact.cardinal`,
`exact.ExactEvaluator`) and, for the float route, `recovery.Approximant`
against them."""

import math
import re
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from hypercross import diagnostics, exact, grid
from hypercross.exact import ExactEvaluator
from hypercross.recovery import Approximant, sample

from test_exact import EDGES, plan_of, poly_deriv, poly_samples
from test_recovery import ORACLE_UNITS


def smooth2(p):
    x, y = p[:, 0], p[:, -1]
    return np.sin(2.3 * x + 0.4) * np.cos(1.1 * y + 0.2) + x * y


def params_of(d, alpha, deriv=None):
    return grid.derive_params(d, alpha, 2.0, 2.0, 2.0, deriv or (0,) * d)


def level_shape(params, level):
    """A level's samples as ``(cells..., nodes...)``, in the plan's C order."""
    return tuple(1 << k for k in level) + tuple(g + 1 for g in params.degrees)


def level_plan(params, weights):
    """A plan of the levels of ``weights`` alone, each at its given
    combination weight: ``{level: 1}`` makes the plan's combination
    ``R_level``."""
    levels = sorted(weights)
    sizes = [math.prod(level_shape(params, level)) for level in levels]
    return grid.RecoveryPlan(
        params, tuple(levels), np.cumsum([0] + sizes), tuple(weights[lv] for lv in levels)
    )


def surplus_weights(level):
    """``{level - e: (-1)^|e|}`` over the masks ``e <= sign(level)``."""
    masks = product(*[(0, 1) if k else (0,) for k in level])
    return {tuple(k - b for k, b in zip(level, e)): (-1) ** sum(e) for e in masks}


def lagrange_deriv(deg, i, r, x):
    """``D^r L_i(x)`` of the Lagrange basis on `interp.nodes_exact`, from its
    product form, in rationals."""
    xs = exact.nodes_exact(deg)
    coeffs = [Fraction(1)]
    for j, xj in enumerate(xs):
        if j != i:
            coeffs = [(lo - xj * hi) / (xs[i] - xj) for lo, hi in zip([0, *coeffs], [*coeffs, 0])]
    x = Fraction(x)
    return sum(math.perm(p, r) * c * x ** (p - r) for p, c in enumerate(coeffs) if p >= r)


class TestLocalInterp:
    """At derivative (and spline) order 0 the level operator on a cell is the
    tensor interpolant of that cell's samples alone."""

    def test_reproduces_polynomials_on_cell(self):
        rng = np.random.default_rng(0)
        plan = level_plan(params_of(2, (2.5, 2.5)), {(2, 1): 1})
        coeffs = rng.integers(-5, 6, (3, 3))
        # The polynomial's exact samples on cell (1, 0), nonsense elsewhere.
        cell = np.arange(plan.n_actual).reshape(level_shape(plan.params, (2, 1)))[1, 0]
        rows = set(cell.ravel().tolist())
        exact_samples = poly_samples(plan, coeffs)
        values = [v if i in rows else Fraction(10**6) for i, v in enumerate(exact_samples)]
        ev = ExactEvaluator(plan, values, (0, 0))
        for x in (0.25, 0.0) + (0.25, 0.5) * rng.uniform(0, 1, (30, 2)):
            assert ev.level((2, 1), x)[0] == poly_deriv(coeffs, (0, 0), x)

    def test_zero_function(self):
        plan = plan_of(2, (2.0, 2.0), 2)
        ev = ExactEvaluator(plan, np.zeros(plan.n_actual), (1, 1))
        for level in plan.levels:
            for x in [(0.3, 0.8), (1.0, 0.0), (0.125, 0.96875)]:
                assert ev.level(level, x) == (0, 0)

    def test_midpoint_rule_cell(self):
        # Degree 0 on cell [1/2, 1): the level operator is the sample at the
        # cell's one node, its midpoint.
        assert exact.nodes_exact(0) == (Fraction(1, 2),)
        assert exact.cardinal(1, 0, 0, 0.6) == (1, [(1, 0, 1)])
        plan = grid.build_plan(params_of(1, (0.75,)), 1)
        ev = ExactEvaluator(plan, sample(lambda p: p[:, 0], plan), (0,))
        assert ev.level((1,), (0.6,)) == (Fraction(3, 4), Fraction(3, 4))

    def test_function_failure_propagates(self):
        # The oracle reads the samples `recovery.sample` takes: a failing
        # function raises its own error there, before any value is read.
        def bad(p):
            raise RuntimeError("no value here")

        with pytest.raises(RuntimeError, match="no value here"):
            sample(bad, plan_of(1, (2.0,), 1))


class TestQuasiInterp:
    def test_reproduces_polynomials_globally(self):
        rng = np.random.default_rng(1)
        plan = plan_of(2, (2.5, 2.5), 3)
        coeffs = rng.integers(-5, 6, (3, 3))
        ev = ExactEvaluator(plan, poly_samples(plan, coeffs), (0, 0))
        for level in [(0, 0), (1, 2), (3, 0)]:
            for x in rng.uniform(0, 1, (25, 2)):
                assert ev.level(level, x)[0] == poly_deriv(coeffs, (0, 0), x)

    def test_indicator_partition_single_cell(self):
        # Order 0: the value inside a cell comes from that cell alone, through
        # the Lagrange basis at the cell coordinate.
        for k, deg in product((0, 1, 3), (0, 2, 3)):
            for x in EDGES:
                c = min(math.floor(x * 2**k), 2**k - 1)
                den, phis = exact.cardinal(k, deg, 0, x)
                assert {cell for cell, _, _ in phis} == {c}
                t = Fraction(x) * 2**k - c
                for _, i, v in phis:
                    assert Fraction(v, den) == lagrange_deriv(deg, i, 0, t)

    def test_constant_derivative_vanishes(self):
        plan = plan_of(2, (2.0, 2.0), 3)
        ev = ExactEvaluator(plan, np.full(plan.n_actual, 4.25), (1, 0))
        for level in [(1, 1), (2, 0), (0, 3)]:
            assert ev.level(level, (0.37, 0.61))[0] == 0

    def test_derivative_order_validated(self):
        plan = plan_of(2, (2.0, 2.0), 2)
        message = "axis 0: derivative order 3 exceeds supported maximum 2"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExactEvaluator(plan, np.ones(plan.n_actual), (3, 0))

    def test_locality_touches_bounded_translates(self):
        # r + 1 covering translates of deg + 1 nodes each, per axis.
        plan = level_plan(params_of(2, (1.5, 1.5)), {(3, 3): 1})
        reads = []

        class Recorder(list):
            def __getitem__(self, row):
                reads.append(row)
                return super().__getitem__(row)

        ev = ExactEvaluator(plan, np.ones(plan.n_actual), (1, 1))
        ev._values = Recorder(ev._values)
        ev.level((3, 3), (0.4, 0.7))
        assert len(reads) == len(set(reads)) <= (2 * 2) ** 2

    def test_matches_finite_difference(self):
        # D R_l f tends to the derivative of f: a centred difference of f (one
        # sided at the edge), within the level's approximation error
        # (measured 2.4e-4 inside, 3.1e-3 at x = 1).
        plan = level_plan(params_of(2, (2.5, 2.5), (1, 0)), {(5, 5): 1})
        ev = ExactEvaluator(plan, sample(smooth2, plan), (1, 0))
        h = 1e-5
        for x in [(0.41, 0.63), (0.05, 0.9), (1.0, 0.5)]:
            lo, hi = np.array([[max(x[0] - h, 0.0), x[1]], [min(x[0] + h, 1.0), x[1]]])
            fd = (smooth2(hi[None])[0] - smooth2(lo[None])[0]) / (hi[0] - lo[0])
            assert float(ev.level((5, 5), x)[0]) == pytest.approx(fd, abs=1e-2)


class TestSurplus:
    def test_decrement_masks_are_the_support_subsets(self):
        # The surplus reads every level k - e with a 0/1 mask e <= sign(k),
        # each once, in lexicographic order of the masks.
        plan = plan_of(3, (2.0, 2.0, 2.0), 3)
        ev = ExactEvaluator(plan, sample(smooth2, plan), (0, 0, 0))
        for level in plan.levels:
            seen = []
            level_of = ev.level
            ev.level = lambda lv, x: seen.append(tuple(lv)) or level_of(lv, x)
            diagnostics._surplus(ev, level, (0.3, 0.7, 0.5))
            ev.level = level_of
            want = [
                e for e in product((0, 1), repeat=3) if all(b <= (k > 0) for b, k in zip(e, level))
            ]
            assert seen == [tuple(k - b for k, b in zip(level, e)) for e in want]

    def test_level_zero_equals_quasi_interp(self):
        plan = plan_of(2, (2.0, 2.0), 2)
        ev = ExactEvaluator(plan, sample(smooth2, plan), (1, 1))
        for x in [(0.2, 0.9), (0.55, 0.1)]:
            assert diagnostics._surplus(ev, (0, 0), x) == ev.level((0, 0), x)[0]

    def test_annihilates_polynomials(self):
        rng = np.random.default_rng(2)
        plan = plan_of(2, (2.5, 2.5), 4)
        values = poly_samples(plan, rng.integers(-5, 6, (3, 3)))
        for deriv in [(0, 0), (1, 1), (2, 0)]:
            ev = ExactEvaluator(plan, values, deriv)
            for level in [(1, 0), (0, 1), (2, 2), (1, 3), (3, 1)]:
                for x in rng.uniform(0, 1, (5, 2)):
                    assert diagnostics._surplus(ev, level, x) == 0

    def test_telescoping_to_level_operator(self):
        rng = np.random.default_rng(3)
        plan = plan_of(2, (2.0, 2.0), 4)
        ev = ExactEvaluator(plan, sample(smooth2, plan), (1, 0))
        for top in [(2, 1), (3, 1), (0, 4)]:
            for x in rng.uniform(0, 1, (4, 2)):
                tele = sum(
                    diagnostics._surplus(ev, level, x)
                    for level in product(range(top[0] + 1), range(top[1] + 1))
                )
                assert tele == ev.level(top, x)[0]

    def test_level_convergence_on_diagonal(self):
        # The error of R_(s,s) f at fixed points falls as the levels refine.
        params = params_of(2, (2.0, 2.0))
        plan = level_plan(params, {(s, s): 1 for s in range(1, 6)})
        ev = ExactEvaluator(plan, sample(smooth2, plan), (0, 0))
        pts = np.random.default_rng(4).uniform(0, 1, (10, 2))
        errs = [
            max(abs(float(ev.level((s, s), x)[0]) - w) for x, w in zip(pts, smooth2(pts)))
            for s in range(1, 6)
        ]
        for a, b in zip(errs, errs[1:]):
            assert b <= a * 1.01


class TestTranslateRepresentation:
    def test_level_zero_reduces_to_local_interp(self):
        # At level 0 every translate left of the cube carries cell 0, and the
        # spline pieces sum to 1: the level operator is D^r of the one
        # cell's interpolant.
        for deg in range(4):
            for r in range(deg + 1):
                for x in EDGES:
                    den, phis = exact.cardinal(0, deg, r, x)
                    got = {i: Fraction(v, den) for cell, i, v in phis if cell == 0}
                    assert len(got) == len(phis)
                    for i in range(deg + 1):
                        assert got.get(i, 0) == lagrange_deriv(deg, i, r, x)

    def test_admissible_coarse_cells_bounded(self):
        # A surplus at level k reads, per axis, at most r + 1 cells at level k
        # (c - r..c) and r + 1 at level k - 1 (c // 2 - r..c // 2).
        for k, r in product(range(1, 5), range(4)):
            for x in EDGES:
                c = min(math.floor(x * 2**k), 2**k - 1)
                fine = {cell for cell, _, _ in exact.cardinal(k, 2, r, x)[1]}
                coarse = {cell for cell, _, _ in exact.cardinal(k - 1, 2, r, x)[1]}
                assert fine <= set(range(max(c - r, 0), c + 1))
                assert coarse <= set(range(max(c // 2 - r, 0), c // 2 + 1))
                assert max(len(fine), len(coarse)) <= r + 1

    @staticmethod
    def agree(deriv, level):
        """A level's float pp-form (`Approximant` of that level alone) within
        roundoff of the exact translate sum."""
        params = params_of(2, (2.0, 2.0), deriv)
        rng = np.random.default_rng(sum(level))
        pts = np.concatenate([rng.uniform(0, 1, (25, 2)), [[0.0, 1.0], [1.0, 0.125]]])
        one = level_plan(params, {level: 1})
        values = sample(smooth2, one)
        floats = Approximant(values, one, deriv)(pts)
        ev = ExactEvaluator(one, values, deriv)
        for x, got in zip(pts, floats):
            want, total = ev.level(level, x)
            assert abs(Fraction(got) - want) <= Fraction(ORACLE_UNITS, 2**53) * total

    def test_agreement_with_direct_definition(self):
        for level in [(1, 1), (2, 0), (0, 2), (3, 2)]:
            self.agree((0, 0), level)

    def test_agreement_including_derivatives(self):
        for level in [(1, 1), (2, 2)]:
            self.agree((1, 1), level)


class TestMemoization:
    def test_each_node_evaluated_once(self, monkeypatch):
        # Surpluses at two levels share their lower levels: each axis's
        # functions are built once per (axis, level, coordinate), whether the
        # points come one at a time or again.
        calls = []
        cardinal = exact.cardinal

        def spy(*args):
            calls.append(args)
            return cardinal(*args)

        monkeypatch.setattr(exact, "cardinal", spy)
        plan = plan_of(2, (1.5, 1.5), 4)
        ev = ExactEvaluator(plan, sample(smooth2, plan), (1, 1))
        pts = np.random.default_rng(6).uniform(0, 1, (40, 2))
        for part in (pts[:1], pts[1:20], pts[20:], pts):
            for x in part:
                diagnostics._surplus(ev, (2, 2), x)
                diagnostics._surplus(ev, (2, 1), x)
        assert calls and len(calls) == len(set(calls)) == 40 * (2 + 3)

    def test_cell_and_translate_polynomials_are_kept(self):
        assert exact._cardinal(2, 1, 1, 0) is exact._cardinal(2, 1, 1, 0)
        plan = plan_of(2, (2.0, 2.0), 2)
        ev = ExactEvaluator(plan, sample(smooth2, plan), (1, 0))
        assert ev.level((2, 0), (0.3, 0.4)) is ev.level((2, 0), (0.3, 0.4))


def affine(p):
    return 1.0 + p[:, 0] + p[:, 1]


# A d=2 plan of degrees (1, 1) and levels up to 2 per axis.
_PLAN = plan_of(2, (1.5, 1.5), 2)


def _oracle(deriv=(0, 0), values=None):
    return ExactEvaluator(_PLAN, sample(affine, _PLAN) if values is None else values, deriv)


class TestInputContract:
    """The oracle checks each input once, naming what it refuses."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (
                lambda: _oracle().level((1.5, 1), (0.3, 0.4)),
                "axis 0: level: expected an integer, got 1.5",
            ),
            (
                lambda: _oracle((0.9, 0)),
                "axis 0: derivative order: expected an integer, got 0.9",
            ),
            (
                lambda: _oracle().level((True, 1), (0.3, 0.4)),
                "axis 0: level: expected an integer, got True",
            ),
            (
                # The blending spline's order is the derivative order: at most
                # the degree.
                lambda: _oracle((0, 2)),
                "axis 1: derivative order 2 exceeds supported maximum 1",
            ),
            (
                lambda: _oracle().level((1, -1), (0.3, 0.4)),
                "axis 1: level must be an integer >= 0, got -1",
            ),
            (
                lambda: _oracle().level((1,), (0.3, 0.4)),
                "level (1,) must have 2 entries, one per axis",
            ),
            (
                lambda: _oracle().level((1, 1), (0.5,)),
                "point [0.5]: expected one point of 2 coordinates or an (n, 2) array",
            ),
            (
                lambda: _oracle().level((1, 1), np.full((3, 1), 0.5)),
                "points of shape (3, 1): expected one point of 2 coordinates or an (n, 2) array",
            ),
            (
                lambda: _oracle().level((1, 1), (1.5, 0.5)),
                "point [1.5, 0.5] is not finite or lies outside [0, 1]^2",
            ),
            (
                lambda: _oracle()((math.nan, 0.5)),
                "point [nan, 0.5] is not finite or lies outside [0, 1]^2",
            ),
            (
                lambda: _oracle().level((1, 1), [(0.2, 0.3), (0.5, -1e-300)]),
                "point [0.5, -1e-300] (row 1) is not finite or lies outside [0, 1]^2",
            ),
            (
                lambda: _oracle(values=np.where(np.arange(_PLAN.n_actual) == 5, np.nan, 1.0)),
                "ExactEvaluator(values): value nan is not finite: evaluation failed at "
                + _PLAN.describe(5),
            ),
            (
                lambda: _oracle(values=np.ones((_PLAN.n_actual, 2))),
                f"ExactEvaluator(values): values of shape ({_PLAN.n_actual}, 2) for "
                f"{_PLAN.n_actual} points, expected ({_PLAN.n_actual},)",
            ),
        ],
        ids=[
            "fractional-level", "fractional-order", "bool-level", "order-above-spline",
            "negative-level", "short-level", "short-point", "narrow-array",
            "point-outside", "nan-point", "array-row", "nan-value", "values-per-row",
        ],
    )
    def test_refused_with_its_name(self, call, message):
        # Refused by name: never truncated, read off the cube or left to fail
        # deeper.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_integral_floats_accepted(self):
        got = _oracle((1.0, 0)).level((1.0, np.int64(1)), (0.3, 1.0))
        assert got == _oracle((1, 0)).level((1, 1), (0.3, 1.0))
        assert got[0] == 1

    def test_empty_array_gives_empty_result(self):
        # The float operator maps no points to no values; the oracle takes
        # one point and names the empty array.
        values = sample(affine, _PLAN)
        assert Approximant(values, _PLAN, (1, 0))(np.empty((0, 2))).shape == (0,)
        message = "points of shape (0, 2): expected one point of 2 coordinates"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            _oracle((1, 0))(np.empty((0, 2)))

    def test_one_spline_order_per_degree(self):
        # The spline order is the derivative order, one per axis of the plan.
        message = "derivative order (1,) must have 2 entries, one per axis"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _oracle((1,))


# (degrees, order, derivative) per case: d = 1, 2 and 3, the class's orders
# (`SmoothnessParams.orders`, the degrees plus 1) and derivatives up to (2, 1).
ARRAY_CASES = [
    ((2,), (3,), (0,)),
    ((2,), (3,), (2,)),
    ((2, 2), (3, 3), (1, 0)),
    ((2, 1), (3, 2), (2, 1)),
    ((1, 1, 2), (2, 2, 3), (1, 0, 1)),
]


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def quasi_interp_deriv(params, level):
    """``D^deriv R_level``: its plan and its exact value through the oracle."""
    plan = level_plan(params, {level: 1})
    return plan, lambda ev, values, x: ev.level(level, x)


def surplus_deriv(params, level):
    """``D^deriv S_level``: the masks' levels at weights ``(-1)^|e|``, and the
    oracle's combination of them."""
    return level_plan(params, surplus_weights(level)), lambda ev, values, x: ev(x)


def surplus_via_translates(params, level):
    """``D^deriv S_level`` exactly, straight from the 1-D cardinal functions:
    each level's samples reshaped to ``(cells..., nodes...)``."""
    plan = level_plan(params, surplus_weights(level))

    def value(ev, values, x):
        got = total = Fraction(0)
        for lv, w, start, stop in zip(plan.levels, plan.combination, plan.bounds, plan.bounds[1:]):
            block = values[start:stop].reshape(level_shape(params, lv))
            axes = [
                exact.cardinal(k, g, r, xj)
                for k, g, r, xj in zip(lv, params.degrees, ev.deriv, x.tolist())
            ]
            den = math.prod(a for a, _ in axes)
            for combo in product(*(phis for _, phis in axes)):
                index = tuple(c for c, _, _ in combo) + tuple(i for _, i, _ in combo)
                term = Fraction(block[index]) * math.prod(v for _, _, v in combo) / den
                got, total = got + w * term, total + abs(w * term)
        return got, total

    return plan, value


class TestArrayEqualsPointwise:
    """`Approximant` on an array of points gives, bit for bit, its per-point
    calls' floats, each within roundoff of the exact value of the same
    operator: a level operator, or a surplus as a signed plan of levels."""

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
        params = params_of(d, [m - 0.5 for m in order], deriv)
        assert params.orders == order and params.degrees == degrees
        pts = self.points(d, len(ARRAY_CASES) * d + sum(order))
        for level in [(0,) * d, (1,) * d, (2,) + (0,) * (d - 1)]:
            plan, exact_value = globals()[method](params, level)
            values = sample(lambda p: smooth2(p[:, [0, -1]]), plan)
            approx = Approximant(values, plan, deriv)
            got = approx(pts)
            each = [approx(p) for p in pts]
            assert got.shape == (len(pts),) and all(v.shape == (1,) for v in each)
            assert np.array_equal(bits(got), bits(np.concatenate(each)))
            ev = ExactEvaluator(plan, values, deriv)
            for x, v in zip(pts, got):
                want, total = exact_value(ev, values, x)
                assert abs(Fraction(v) - want) <= Fraction(ORACLE_UNITS, 2**53) * total

    def test_tensor_poly_rows(self):
        # The oracle reads a point's coordinates exactly, whatever holds
        # them: a row of an array, a tuple or a list.
        plan = plan_of(3, (2.5, 2.5, 2.5), 2)
        values = sample(lambda p: smooth2(p[:, [0, -1]]), plan)
        ev = ExactEvaluator(plan, values, (1, 0, 2))
        rng = np.random.default_rng(8)
        pts = np.concatenate([rng.uniform(0, 1, (6, 3)), np.zeros((1, 3)), np.ones((1, 3))])
        for x in pts:
            fresh = ExactEvaluator(plan, values, (1, 0, 2))
            for level in [(1, 0, 1), (0, 1, 0)]:
                got = ev.level(level, x)
                assert got == fresh.level(level, tuple(x.tolist()))
                assert got == fresh.level(level, list(x.tolist()))
