"""Tests for dyadic level operators and multilevel surpluses."""

import math
from itertools import product

import numpy as np
import pytest

from hypercross import dyadic
from hypercross.dyadic import DyadicEvaluator

from test_interp import random_poly


def smooth2(p):
    return math.sin(2.3 * p[0] + 0.4) * math.cos(1.1 * p[1] + 0.2) + p[0] * p[1]


class TestLocalInterp:
    def test_reproduces_polynomials_on_cell(self):
        rng = np.random.default_rng(0)
        f, scale = random_poly(rng, (2, 2))
        poly = DyadicEvaluator((2, 2), (0, 0), f=f).local_interp((2, 1), (1, 0))
        for pt in rng.uniform(0, 1, (30, 2)):
            cellpt = (0.25 + 0.25 * pt[0], 0.5 * pt[1])
            assert abs(poly.eval(cellpt) - f(cellpt)) <= 1e-10 * max(scale, 1)

    def test_zero_function(self):
        poly = DyadicEvaluator((1, 1), (0, 0), f=lambda p: 0.0).local_interp((1, 1), (0, 1))
        assert poly.eval((0.3, 0.8)) == 0.0

    def test_midpoint_rule_cell(self):
        # Degree 0 on cell [1/2, 1): the interpolant is f at the cell midpoint-ish node.
        poly = DyadicEvaluator((0,), (0,), f=lambda p: p[0]).local_interp((1,), (1,))
        assert poly.eval((0.6,)) == pytest.approx(0.75, abs=1e-12)

    def test_invalid_cell(self):
        with pytest.raises(ValueError):
            DyadicEvaluator((0,), (0,), f=lambda p: 0.0).local_interp((1,), (2,))

    def test_function_failure_propagates(self):
        def bad(p):
            raise RuntimeError("no value here")

        with pytest.raises(RuntimeError, match="no value here"):
            DyadicEvaluator((1,), (0,), f=bad).local_interp((1,), (0,))


class TestQuasiInterp:
    def test_reproduces_polynomials_globally(self):
        rng = np.random.default_rng(1)
        f, scale = random_poly(rng, (2, 2))
        ev = DyadicEvaluator((2, 2), (1, 1), f=f)
        for level in [(0, 0), (1, 2), (3, 0)]:
            for pt in rng.uniform(0.01, 0.99, (25, 2)):
                got = ev.quasi_interp_deriv(level, (0, 0), pt)
                assert abs(got - f(pt)) <= 1e-10 * max(scale, 1)

    def test_indicator_partition_single_cell(self):
        # order 0: the value inside a cell is the local interpolant alone.
        ev = DyadicEvaluator((2,), (0,), f=lambda p: smooth2((p[0], 0.3)))
        x = (0.3,)
        got = ev.quasi_interp_deriv((2,), (0,), x)
        cell = (int(x[0] * 4),)
        want = ev.local_interp((2,), cell).eval(x)
        assert got == want

    def test_constant_derivative_vanishes(self):
        ev = DyadicEvaluator((2, 2), (1, 1), f=lambda p: 4.25)
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
            calls.append(p)
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
            for pt in rng.uniform(0.01, 0.99, (25, 2)):
                got = ev.surplus_deriv(level, (0, 0), pt)
                assert abs(got) <= 1e-9 * max(scale, 1)

    def test_telescoping_to_level_operator(self):
        rng = np.random.default_rng(3)
        ev = DyadicEvaluator((2, 2), (1, 1), f=smooth2)
        for top in [(2, 1), (3, 3)]:
            for pt in rng.uniform(0.01, 0.99, (10, 2)):
                tele = sum(
                    ev.surplus_deriv(lvl, (0, 0), pt)
                    for lvl in product(range(top[0] + 1), range(top[1] + 1))
                )
                want = ev.quasi_interp_deriv(top, (0, 0), pt)
                assert tele == pytest.approx(want, abs=1e-9)

    def test_level_convergence_on_diagonal(self):
        # L2 error of the level operator decreases along the diagonal.
        from hypercross.recovery import Quadrature, lq_error

        quad = Quadrature(d=2, cells_log2=3)
        target = lambda pts: np.array([smooth2(p) for p in pts])  # noqa: E731
        errs = []
        ev = DyadicEvaluator((2, 2), (1, 1), f=smooth2)
        for s in range(1, 7):
            approx = lambda pts, s=s: np.array(  # noqa: E731
                [ev.quasi_interp_deriv((s, s), (0, 0), p) for p in pts]
            )
            errs.append(lq_error(approx, target, 2.0, quad))
        for a, b in zip(errs, errs[1:]):
            assert b <= a * 1.01


class TestTranslateRepresentation:
    def test_level_zero_reduces_to_local_interp(self):
        ev = DyadicEvaluator((2, 2), (1, 1), f=smooth2)
        upoly = ev.surplus_local_poly((0, 0), (-1, 0))
        base = ev.local_interp((0, 0), (0, 0))
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
            for pt in rng.uniform(0.01, 0.99, (25, 2)):
                direct = ev.surplus_deriv(level, (0, 0), pt)
                via = ev.surplus_via_translates(level, (0, 0), pt)
                worst = max(worst, abs(direct - via))
        assert worst <= 1e-9

    def test_agreement_including_derivatives(self):
        rng = np.random.default_rng(5)
        ev = DyadicEvaluator((2, 2), (1, 1), f=smooth2)
        for level in [(1, 1), (2, 2)]:
            for pt in rng.uniform(0.01, 0.99, (10, 2)):
                direct = ev.surplus_deriv(level, (1, 1), pt)
                via = ev.surplus_via_translates(level, (1, 1), pt)
                assert via == pytest.approx(direct, abs=1e-9 * max(1.0, abs(direct)))


class TestMemoization:
    def test_each_node_evaluated_once(self):
        seen: dict[tuple, int] = {}

        def probe(p):
            seen[p] = seen.get(p, 0) + 1
            return smooth2(p)

        ev = DyadicEvaluator((1, 1), (1, 1), f=probe)
        rng = np.random.default_rng(6)
        for pt in rng.uniform(0.01, 0.99, (40, 2)):
            ev.surplus_deriv((2, 2), (0, 0), pt)
            ev.surplus_deriv((2, 1), (0, 0), pt)
        assert seen and max(seen.values()) == 1
