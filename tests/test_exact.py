"""Tests for the exact oracle: its 1-D cardinal functions, the theorems it
checks in rationals, and its input contract."""

import ast
import math
import re
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from hypercross import exact, functions, grid
from hypercross.exact import ExactEvaluator
from hypercross.recovery import sample

SRC = Path(__file__).resolve().parents[1] / "src" / "hypercross"

# Coordinates at the edges of the cells: 0, 1, knots, the largest float below
# the knot 1/4, and points inside.
EDGES = (0.0, 1.0, 0.5, 0.125, float(np.nextafter(0.25, 0.0)), 0.3, 0.96875)


def plan_of(d, alpha, radius, deriv=None):
    params = grid.derive_params(d, alpha, 2.0, 2.0, 2.0, deriv or (0,) * d)
    return grid.build_plan(params, radius)


def poly_deriv(coeffs, deriv, x):
    """``D^deriv`` of the tensor polynomial of ascending ``coeffs`` at the
    point ``x``, in rationals."""
    x = [Fraction(v) for v in x]
    total = Fraction(0)
    for powers in product(*[range(n) for n in coeffs.shape]):
        if any(p < r for p, r in zip(powers, deriv)):
            continue
        term = Fraction(int(coeffs[powers]))
        for xj, p, r in zip(x, powers, deriv):
            term *= math.perm(p, r) * xj ** (p - r)
        total += term
    return total


def poly_samples(plan, coeffs):
    """The polynomial at every plan point, exactly: keys over ``2**KEY_BITS``."""
    scale = Fraction(1, 1 << grid.KEY_BITS)
    return [poly_deriv(coeffs, (0,) * coeffs.ndim, [k * scale for k in key])
            for key in plan.keys.tolist()]


def surplus(ev, level, x):
    """``sum over masks e <= sign(level) of (-1)^|e| R_{level - e}`` at ``x``."""
    total = Fraction(0)
    for mask in product(*[(0, 1) if k else (0,) for k in level]):
        v, _ = ev.level([k - e for k, e in zip(level, mask)], x)
        total += -v if sum(mask) % 2 else v
    return total


class TestCardinal:
    """The 1-D cardinal functions of one axis, summed per sample (cell, node)."""

    @pytest.mark.parametrize("deg, r", [(0, 0), (2, 0), (2, 1), (3, 2), (4, 3)])
    def test_partition_of_unity(self, deg, r):
        # The functions reproduce constants, so they sum to D^r 1 * 2**(k r).
        for k in (0, 1, 3):
            for x in EDGES:
                den, phis = exact.cardinal(k, deg, r, x)
                assert Fraction(sum(v for _, _, v in phis), den) == (1 if r == 0 else 0)

    @pytest.mark.parametrize("deg, r", [(2, 0), (2, 1), (3, 2), (4, 3)])
    def test_monomials_are_reproduced(self, deg, r):
        # sum over samples of node**p * phi is D^r x**p, also in the cells
        # next to x = 0 whose translates read the virtual cells.
        nodes = exact.nodes_exact(deg)
        for k in (0, 2):
            n = 1 << k
            for x in EDGES:
                den, phis = exact.cardinal(k, deg, r, x)
                for p in range(deg + 1):
                    got = sum(v * ((c + nodes[i]) / n) ** p for c, i, v in phis) / den
                    assert got == (math.perm(p, r) * Fraction(x) ** (p - r) if p >= r else 0)

    @pytest.mark.parametrize("r", range(4))
    def test_support_is_the_offset_box(self, r):
        # The translates that cover x carry the cells c - r..c, those left of
        # the cube carry cell 0.
        for k in (0, 3):
            for x in EDGES:
                c = min(math.floor(x * 2**k), 2**k - 1)
                _, phis = exact.cardinal(k, 4, r, x)
                assert {cell for cell, _, _ in phis} <= set(range(max(c - r, 0), c + 1))


class TestTheorems:
    """What the float route can only approximate holds exactly here."""

    @pytest.mark.parametrize(
        "d, alpha, radius",
        [(1, (3.0,), 4), (2, (2.0, 2.0), 3), (3, (1.5, 2.0, 1.0), 2)],
        ids=["d1", "d2", "d3"],
    )
    def test_polynomial_samples_reproduce_the_derivative(self, d, alpha, radius):
        # Exact samples of a polynomial of the interpolation degrees: every
        # level operator is D^deriv of it, at every level, every derivative
        # up to the degrees, and at the edge coordinates.
        plan = plan_of(d, alpha, radius)
        rng = np.random.default_rng(d)
        coeffs = rng.integers(-5, 6, [g + 1 for g in plan.params.degrees])
        values = poly_samples(plan, coeffs)
        pts = [x for x in product(EDGES, repeat=d)][:: 7 ** (d - 1)]
        for deriv in product(*[range(g + 1) for g in plan.params.degrees]):
            ev = ExactEvaluator(plan, values, deriv)
            for x in pts:
                want = poly_deriv(coeffs, deriv, x)
                for level in plan.levels:
                    assert ev.level(level, x)[0] == want, (deriv, level, x)
                assert ev(x)[0] == want

    @pytest.mark.parametrize(
        "d, alpha, deriv, radius",
        [
            (2, (2.0, 1.5), (1, 0), 6),
            (2, (3.0, 2.0), (0, 1), 5),
            (3, (2.0, 2.0, 1.5), (1, 0, 0), 4),
        ],
        ids=["d2-aniso", "d2-diagonal-cut", "d3-aniso"],
    )
    def test_surpluses_telescope(self, d, alpha, deriv, radius):
        # The surpluses over the level set sum to the plan's combination of
        # level operators: `grid.combination_weights`, in rationals.  The
        # weights are anisotropic, so the set's boundary ends partway along
        # its diagonals.
        plan = plan_of(d, alpha, radius, deriv)
        assert len(set(plan.params.weights)) > 1
        # Some diagonal |k| = s of the set's bounding box holds levels in the
        # set and levels outside it.
        held = set(plan.levels)
        top = max(map(sum, held))
        box = product(*[range(max(ks) + 1) for ks in zip(*held)])
        assert any(sum(k) <= top and k not in held for k in box)
        values = sample(functions.get_function("trig", d).value, plan)
        ev = ExactEvaluator(plan, values, deriv)
        for x in [(0.3, 0.96875, 0.5)[:d], (1.0, 0.125, 0.0)[:d]]:
            assert sum(surplus(ev, level, x) for level in plan.levels) == ev(x)[0]


class TestEvaluator:
    @pytest.fixture(scope="class")
    def plan(self):
        return plan_of(2, (2.0, 2.0), 2)

    def test_float_and_fraction_samples_agree(self, plan):
        values = sample(functions.get_function("trig", 2).value, plan)
        a = ExactEvaluator(plan, values, (1, 0))
        b = ExactEvaluator(plan, [Fraction(v) for v in values.tolist()], (1, 0))
        for x in [(0.3, 0.7), (1.0, 0.0)]:
            assert a(x) == b(x)
            assert a(x)[1] >= abs(a(x)[0])

    def test_combination_is_the_weighted_level_sum(self, plan):
        values = sample(functions.get_function("trig", 2).value, plan)
        ev = ExactEvaluator(plan, values, (1, 1))
        x = (0.3, 0.96875)
        parts = [(w, ev.level(lvl, x)) for lvl, w in zip(plan.levels, plan.combination) if w]
        assert ev(x) == (
            sum(w * v for w, (v, _) in parts),
            sum(abs(w) * a for w, (_, a) in parts),
        )

    @pytest.mark.parametrize(
        "call, message",
        [
            (
                lambda plan: ExactEvaluator(plan, [1.0, 2.0], (0, 0)),
                "ExactEvaluator(values): values of shape (2,) for 153 points, expected (153,)",
            ),
            (
                lambda plan: ExactEvaluator(plan, np.ones(plan.n_actual), (0, 0)).level(
                    (2, 1), (0.5, 0.5)
                ),
                "level (2, 1) is not a level of the plan",
            ),
            (
                lambda plan: ExactEvaluator(plan, np.ones(plan.n_actual), (0, 0))(
                    [(0.5, 0.5), (0.1, 0.1)]
                ),
                "points of shape (2, 2): expected one point of 2 coordinates",
            ),
        ],
        ids=["values-count", "level-outside-set", "array-of-points"],
    )
    def test_refused_with_its_name(self, plan, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            call(plan)


def test_independent_of_the_float_route():
    # The oracle reads only the exact nodes, the exact spline pieces and the
    # shared input checks of the package: nothing of `recovery`.
    tree = ast.parse((SRC / "exact.py").read_text(encoding="utf-8"))
    imported = {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    }
    assert {name for module, name in imported if not name.startswith("as_")} == {
        "nodes_exact", "piece_table",
    }
    assert {module for module, _ in imported} == {"bspline", "interp"}
