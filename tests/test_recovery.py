"""Tests for sampling, reconstruction, and error measurement."""

import math
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercross import functions, grid, recovery
from hypercross.dyadic import DyadicEvaluator
from hypercross.recovery import Quadrature, SampleSet, lq_error, reconstruct, sample


def pointwise(f):
    """A registry function as the scalar evaluator takes it: point in, float out."""
    return lambda p: float(f.value([p])[0])


def params_smooth(deriv=(0, 0)):
    return grid.derive_params(2, (2.0, 2.0), 2.0, 2.0, math.inf, deriv)


class TestSample:
    def test_zero_function(self):
        plan = grid.build_plan(params_smooth(), 2)
        s = sample(lambda pts: np.zeros(len(pts)), plan)
        assert len(s) == plan.n_actual
        assert s.values.shape == (plan.n_actual,) and np.all(s.values == 0.0)

    def test_instrumented_count_is_exact(self):
        plan = grid.build_plan(params_smooth(), 3)
        rows = []

        def probe(pts):
            rows.append(len(pts))
            return np.ones(len(pts))

        sample(probe, plan)
        assert sum(rows) == plan.n_actual

    def test_failure_reports_point(self):
        plan = grid.build_plan(params_smooth(), 2)

        def bad(pts):
            out = np.ones(len(pts))
            out[3] = np.nan
            return out

        with pytest.raises(ValueError, match="failed at"):
            sample(bad, plan)


    def test_failure_names_point_and_provenance(self):
        plan = grid.build_plan(params_smooth(), 2)

        def bad(pts):
            out = np.ones(len(pts))
            out[3] = np.inf
            return out

        # Row 3 is node (1, 0) of the single cell of level (0, 0): x = 1/2.
        with pytest.raises(
            ValueError,
            match=r"point 3 at \[0\.5, 0\.0669.*\] \(level \(0, 0\), cell \(0, 0\), node \(1, 0\)\)",
        ):
            sample(bad, plan)

    def test_wrong_value_count(self):
        plan = grid.build_plan(params_smooth(), 2)
        with pytest.raises(ValueError, match=f"has 5 entries; the plan has {plan.n_actual}"):
            sample(lambda pts: np.ones(5), plan)

    def test_from_array_rejects_wrong_length(self):
        plan = grid.build_plan(params_smooth(), 2)
        with pytest.raises(ValueError, match=f"has 3 entries; the plan has {plan.n_actual}"):
            SampleSet.from_array(plan, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_from_array_names_non_finite_row(self, bad):
        plan = grid.build_plan(params_smooth(), 2)
        vals = np.zeros(plan.n_actual)
        vals[[4, 7]] = bad
        with pytest.raises(ValueError, match=r"at row 4 is not finite: evaluation failed at point 4 at"):
            SampleSet.from_array(plan, vals)

    def test_points_are_the_plan_keys(self):
        plan = grid.build_plan(params_smooth(), 3)
        seen = []
        sample(lambda pts: seen.append(pts.copy()) or np.zeros(len(pts)), plan)
        assert np.array_equal(seen[0], plan.keys * 2.0**-grid.KEY_BITS)


class TestReconstruct:
    def test_polynomial_derivative_is_exact(self):
        params = grid.derive_params(2, (2.0, 2.0), 2.0, 2.0, math.inf, (1, 1))
        plan = grid.build_plan(params, 4)
        f = functions.get_function("poly", 2)
        approx = reconstruct(sample(f.value, plan), plan, (1, 1))
        pts = np.random.default_rng(0).uniform(0.002, 0.998, (300, 2))
        np.testing.assert_allclose(approx(pts), f.deriv((1, 1), pts), atol=1e-9)

    def test_polynomial_value_is_exact(self):
        plan = grid.build_plan(params_smooth(), 3)
        f = functions.get_function("poly", 2)
        approx = reconstruct(sample(f.value, plan), plan, (0, 0))
        pts = np.random.default_rng(1).uniform(0.002, 0.998, (300, 2))
        np.testing.assert_allclose(approx(pts), f.value(pts), atol=1e-10)

    def test_zero_samples_zero_function(self):
        plan = grid.build_plan(params_smooth(), 2)
        approx = reconstruct(
            SampleSet.from_array(plan, np.zeros(plan.n_actual)), plan, (0, 0)
        )
        pts = np.random.default_rng(2).uniform(0, 1, (50, 2))
        assert np.abs(approx(pts)).max() == 0.0

    def test_linear_in_samples(self):
        params = grid.derive_params(2, (2.0, 2.0), 2.0, 2.0, math.inf, (1, 1))
        plan = grid.build_plan(params, 3)
        rng = np.random.default_rng(3)
        v1 = rng.uniform(-1, 1, plan.n_actual)
        v2 = rng.uniform(-1, 1, plan.n_actual)
        a, b = 1.7, -0.35
        r1 = reconstruct(SampleSet.from_array(plan, v1), plan, (1, 1))
        r2 = reconstruct(SampleSet.from_array(plan, v2), plan, (1, 1))
        r12 = reconstruct(SampleSet.from_array(plan, a * v1 + b * v2), plan, (1, 1))
        pts = rng.uniform(0.01, 0.99, (50, 2))
        np.testing.assert_allclose(
            r12(pts), a * r1(pts) + b * r2(pts), atol=1e-10
        )

    def test_sample_plan_mismatch(self):
        plan2 = grid.build_plan(params_smooth(), 2)
        plan3 = grid.build_plan(params_smooth(), 3)
        s = sample(lambda pts: np.ones(len(pts)), plan2)
        with pytest.raises(ValueError, match="does not match"):
            reconstruct(s, plan3, (0, 0))

    def test_deriv_beyond_degrees_rejected(self):
        plan = grid.build_plan(params_smooth(), 2)
        s = sample(lambda pts: np.ones(len(pts)), plan)
        with pytest.raises(ValueError, match="exceeds"):
            reconstruct(s, plan, (3, 0))

    def test_matches_scalar_surplus_sum(self):
        # The vectorized combination evaluation equals the direct sum of
        # surpluses computed by the scalar evaluator.
        f = functions.get_function("trig", 2)
        plan = grid.build_plan(params_smooth(), 3)
        approx = reconstruct(sample(f.value, plan), plan, (0, 0))
        ev = DyadicEvaluator(plan.params.degrees, (0, 0), f=pointwise(f))
        pts = np.random.default_rng(4).uniform(0.01, 0.99, (25, 2))
        direct = [
            sum(ev.surplus_deriv(lvl, (0, 0), p) for lvl in plan.levels) for p in pts
        ]
        np.testing.assert_allclose(approx(pts), direct, atol=1e-12)

    def test_matches_scalar_surplus_sum_at_cell_boundaries(self):
        # The half-open knot convention must act identically in the scalar
        # and the vectorized path, including at dyadic cell edges.
        f = functions.get_function("trig", 2)
        params = grid.derive_params(2, (2.0, 2.0), 2.0, 2.0, math.inf, (1, 1))
        plan = grid.build_plan(params, 3)
        approx = reconstruct(sample(f.value, plan), plan, (1, 1))
        ev = DyadicEvaluator(params.degrees, (1, 1), f=pointwise(f))
        for p in [(0.5, 0.25), (0.0, 0.5), (0.125, 0.0), (0.0, 0.0), (1.0, 0.3)]:
            direct = sum(ev.surplus_deriv(lvl, (1, 1), p) for lvl in plan.levels)
            assert approx([p])[0] == pytest.approx(direct, abs=1e-10)

    def test_matches_scalar_surplus_sum_with_derivative(self):
        f = functions.get_function("trig", 2)
        params = grid.derive_params(2, (2.0, 1.5), 2.0, 2.0, 2.0, (1, 0))
        plan = grid.build_plan(params, 3)
        approx = reconstruct(sample(f.value, plan), plan, (1, 0))
        ev = DyadicEvaluator(plan.params.degrees, (1, 0), f=pointwise(f))
        pts = np.random.default_rng(5).uniform(0.01, 0.99, (20, 2))
        direct = [
            sum(ev.surplus_deriv(lvl, (1, 0), p) for lvl in plan.levels) for p in pts
        ]
        np.testing.assert_allclose(approx(pts), direct, atol=1e-11)

    def test_error_decreases_with_radius(self):
        f = functions.get_function("trig", 2)
        params = params_smooth()
        quad = Quadrature(d=2, cells_log2=4)
        errs = []
        for r in range(2, 9):
            plan = grid.build_plan(params, r)
            approx = reconstruct(sample(f.value, plan), plan, (0, 0))
            errs.append(lq_error(approx, f.value, 2.0, quad))
        for a, b in zip(errs, errs[1:]):
            assert b <= a * 1.01

    def test_one_dimensional_derivative_recovery(self):
        params = grid.derive_params(1, (2.0,), 2.0, 2.0, math.inf, (1,))
        plan = grid.build_plan(params, grid.choose_radius(params, 500))
        f = functions.get_function("trig", 1)
        approx = reconstruct(sample(f.value, plan), plan, (1,))
        err = lq_error(approx, lambda x: f.deriv((1,), x), 2.0, Quadrature(d=1))
        assert err < 5e-3

    def test_three_dimensional_recovery(self):
        params = grid.derive_params(3, (2.0, 2.0, 2.0), 2.0, 2.0, math.inf, (0, 0, 0))
        plan = grid.build_plan(params, 3)
        f = functions.get_function("trig", 3)
        approx = reconstruct(sample(f.value, plan), plan, (0, 0, 0))
        err = lq_error(approx, f.value, 2.0, Quadrature(d=3, cells_log2=2))
        assert err < 5e-3

    def test_sup_norm_error_study(self):
        params = grid.derive_params(2, (2.0, 2.0), 2.0, math.inf, math.inf, (0, 0))
        f = functions.get_function("trig", 2)
        quad = Quadrature(d=2, cells_log2=4, sup_points=257)
        errs = []
        for r in (2, 4):
            plan = grid.build_plan(params, r)
            approx = reconstruct(sample(f.value, plan), plan, (0, 0))
            errs.append(lq_error(approx, f.value, math.inf, quad))
        assert errs[1] < errs[0]


class TestInputContract:
    @pytest.fixture(scope="class")
    def approx(self):
        plan = grid.build_plan(params_smooth(), 2)
        return reconstruct(sample(functions.get_function("trig", 2).value, plan), plan, (0, 0))

    def test_empty_input_gives_empty_output(self, approx):
        got = approx(np.empty((0, 2)))
        assert got.shape == (0,)

    @pytest.mark.parametrize(
        "bad, shown",
        [
            ((1.5, 0.2), r"\[1\.5, 0\.2\] \(row 3\)"),
            ((0.3, -0.25), r"\[0\.3, -0\.25\] \(row 3\)"),
            ((math.nan, 0.5), r"\[nan, 0\.5\] \(row 3\)"),
            ((0.5, math.inf), r"\[0\.5, inf\] \(row 3\)"),
        ],
    )
    def test_point_outside_cube_is_named(self, approx, bad, shown):
        pts = np.full((6, 2), 0.5)
        pts[3] = bad
        pts[5] = (2.0, 2.0)  # only the first offending point is reported
        with pytest.raises(ValueError, match=shown):
            approx(pts)


class TestRightEdge:
    """``x_j = 1`` is the limit from inside the cube, in both evaluation paths."""

    # Coordinates 0, 1, dyadic cell edges, 1 - 1e-12 and interior points.
    COORDS = (0.0, 1.0, 0.5, 0.25, 0.75, 0.96875, 1 - 1e-12, 0.3, 0.8125 + 1e-9)

    @pytest.mark.parametrize(
        "deriv, tol", [((0, 0), 1e-4), ((1, 0), 0.05), ((1, 1), 0.1)]
    )
    def test_both_paths_match_truth_on_the_closed_cube(self, deriv, tol):
        f = functions.get_function("trig", 2)
        params = grid.derive_params(2, (2.0, 2.0), 2.0, 2.0, math.inf, deriv)
        plan = grid.build_plan(params, 5)
        approx = reconstruct(sample(f.value, plan), plan, deriv)
        ev = DyadicEvaluator(params.degrees, deriv, f=pointwise(f))
        pts = np.array([(a, b) for a in self.COORDS for b in self.COORDS])
        got = approx(pts)
        direct = [sum(ev.surplus_deriv(lvl, deriv, p) for lvl in plan.levels) for p in pts]
        np.testing.assert_allclose(got, direct, rtol=1e-12, atol=1e-11)
        np.testing.assert_allclose(got, f.deriv(deriv, pts), atol=tol)

    @pytest.mark.parametrize("deriv", [(0, 0), (1, 1)])
    def test_edge_is_the_left_limit(self, deriv):
        f = functions.get_function("trig", 2)
        params = grid.derive_params(2, (2.0, 2.0), 2.0, 2.0, math.inf, deriv)
        plan = grid.build_plan(params, 5)
        approx = reconstruct(sample(f.value, plan), plan, deriv)
        ev = DyadicEvaluator(params.degrees, deriv, f=pointwise(f))
        for edge, inside in [((1.0, 0.5), (1 - 1e-12, 0.5)), ((1.0, 1.0), (1 - 1e-12, 1 - 1e-12))]:
            near = approx([inside])[0]
            assert approx([edge])[0] == pytest.approx(near, rel=1e-9, abs=1e-9)
            scalar = sum(ev.surplus_deriv(lvl, deriv, edge) for lvl in plan.levels)
            assert scalar == pytest.approx(near, rel=1e-9, abs=1e-9)


@pytest.fixture(
    scope="module",
    params=[((2.0, 2.0, 1.5), (1, 0, 0)), ((3.0, 2.0, 1.5), (2, 0, 1))],
    ids=["deriv100", "deriv201"],
)
def batched_case(request):
    # d=3 with anisotropic weights, several blending offsets and derivative
    # splits: (1, 0, 0) is the benchmark's derivative study, (2, 0, 1) adds
    # a binomial weight of 2 and a second derivative axis.
    alpha, deriv = request.param
    params = grid.derive_params(3, alpha, 2.0, 2.0, 2.0, deriv)
    plan = grid.build_plan(params, 3)
    f = functions.get_function("aniso", 3)
    approx = reconstruct(sample(f.value, plan), plan, deriv)
    assert len(approx._offsets) == math.prod(r + 1 for r in deriv) > 1
    ev = DyadicEvaluator(params.degrees, deriv, f=pointwise(f))
    return deriv, plan, approx, ev


class TestBatchedEvaluation:
    """The chunked table evaluation against the scalar surplus sum."""

    @staticmethod
    def points(n, seed):
        # Random points with dyadic cell edges, 0 and 1 mixed into their coordinates.
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0.0, 1.0, (n, 3))
        edges = rng.integers(0, 9, (n, 3)) / 8.0
        mask = rng.random((n, 3)) < 0.4
        return np.where(mask, edges, pts)

    def test_matches_scalar_surplus_sum(self, batched_case, monkeypatch):
        deriv, plan, approx, ev = batched_case
        monkeypatch.setattr(recovery, "_CHUNK", 16)
        pts = self.points(41, 6)  # three chunks, the last one partial
        direct = [sum(ev.surplus_deriv(lvl, deriv, p) for lvl in plan.levels) for p in pts]
        np.testing.assert_allclose(approx(pts), direct, atol=1e-10)

    def test_result_does_not_depend_on_chunking(self, batched_case, monkeypatch):
        approx = batched_case[2]
        n = recovery._CHUNK + 1000
        pts = self.points(n, 7)
        whole = approx(pts)
        cuts = [0, 5, recovery._CHUNK + 3, n]
        pieces = np.concatenate([approx(pts[a:b]) for a, b in zip(cuts, cuts[1:])])
        monkeypatch.setattr(recovery, "_CHUNK", 999)
        small = approx(pts)
        assert np.array_equal(whole, pieces)
        assert np.array_equal(whole, small)


# (d, function, alpha, q, radius, deriv): d=2 smooth at every derivative
# shape (none, one axis, both), d=3 anisotropic at the benchmark's (1, 0, 0)
# and at (2, 0, 1), a binomial weight and two derivative axes.
DIFFERENTIAL_CASES = [
    (2, "trig", (2.0, 2.0), math.inf, 4, (0, 0)),
    (2, "trig", (2.0, 2.0), math.inf, 4, (1, 0)),
    (2, "trig", (2.0, 2.0), math.inf, 4, (1, 1)),
    (3, "aniso", (2.0, 2.0, 1.5), 2.0, 3, (1, 0, 0)),
    (3, "aniso", (3.0, 2.0, 1.5), 2.0, 3, (2, 0, 1)),
]


@pytest.fixture(
    scope="module",
    params=DIFFERENTIAL_CASES,
    ids=lambda c: f"d{c[0]}-deriv{''.join(map(str, c[5]))}",
)
def differential_case(request):
    d, fid, alpha, q, radius, deriv = request.param
    params = grid.derive_params(d, alpha, 2.0, 2.0, q, deriv)
    plan = grid.build_plan(params, radius)
    f = functions.get_function(fid, d)
    approx = reconstruct(sample(f.value, plan), plan, deriv)
    ev = DyadicEvaluator(params.degrees, deriv, f=pointwise(f))
    return d, deriv, plan, approx, ev


# A coordinate is uniform in [0, 1], a dyadic cell edge c / 2**L, 0 or 1.
_coordinate = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(0, 6).flatmap(lambda L: st.integers(0, 1 << L).map(lambda c: c / (1 << L))),
    st.sampled_from([0.0, 1.0]),
)


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_approximant_equals_surplus_sum(differential_case, data):
    """``Approximant`` against the scalar oracle: the surpluses over the plan's levels."""
    d, deriv, plan, approx, ev = differential_case
    pts = np.array(
        data.draw(st.lists(st.tuples(*[_coordinate] * d), min_size=1, max_size=5))
    )
    direct = [sum(ev.surplus_deriv(lvl, deriv, p) for lvl in plan.levels) for p in pts]
    for chunk in (2, recovery._CHUNK):
        with mock.patch.object(recovery, "_CHUNK", chunk):
            np.testing.assert_allclose(approx(pts), direct, rtol=1e-12, atol=1e-10)


class TestBlendingOffsets:
    """The translates that carry a point are the offset box ``-m..0`` from its cell."""

    @pytest.mark.parametrize("m", range(5))
    def test_box_splines_sum_to_one(self, m):
        # Nonnegative translates summing to 1 over the box leave no mass for
        # a translate outside it, at interior points and at the right edge.
        k = 3
        rng = np.random.default_rng(m)
        cells = rng.integers(0, 1 << k, 200)
        x = np.concatenate([(cells + rng.random(200)) / (1 << k), [1.0]])
        chunk = recovery._ChunkAxes(x[:, None], (m,))
        assert chunk.cells(0, k)[2][-1] == 1.0  # x = 1 sits at local coordinate 1
        total = sum(chunk.spline(0, k, 0, o) for o in range(-m, 1))
        np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-13)

    def test_approximant_offsets_are_the_box(self, differential_case):
        deriv, approx = differential_case[1], differential_case[3]
        assert approx._offsets == list(product(*[range(-r, 1) for r in deriv]))


class TestCombinationWeights:
    def test_full_box_collapses_to_top_level(self):
        levels = [(k1, k2) for k1 in range(3) for k2 in range(4)]
        w = recovery.combination_weights(levels)
        assert w == {(2, 3): 1}

    def test_simplex_weights_cover_boundary_only(self):
        levels = grid.index_set((1.0, 1.0), 4)
        w = recovery.combination_weights(levels)
        assert all(sum(lvl) >= 3 for lvl in w)
        assert sum(w.values()) == 1  # weights telescope to one copy of the data


class TestLqError:
    def test_constant_l2(self):
        one = lambda pts: np.ones(len(pts))  # noqa: E731
        zero = lambda pts: np.zeros(len(pts))  # noqa: E731
        got = lq_error(one, zero, 2.0, Quadrature(d=2, cells_log2=2))
        assert got == pytest.approx(1.0, abs=1e-13)

    def test_linear_l2_closed_form(self):
        f = lambda pts: pts[:, 0]  # noqa: E731
        zero = lambda pts: np.zeros(len(pts))  # noqa: E731
        got = lq_error(f, zero, 2.0, Quadrature(d=1))
        assert got == pytest.approx(1 / math.sqrt(3), abs=1e-10)

    def test_sup_norm_of_constant_gap(self):
        f = lambda pts: np.full(len(pts), 2.5)  # noqa: E731
        g = lambda pts: np.full(len(pts), 1.25)  # noqa: E731
        got = lq_error(f, g, math.inf, Quadrature(d=2, cells_log2=2, sup_points=65))
        assert got == pytest.approx(1.25, abs=1e-13)

    def test_q_validation(self):
        f = lambda pts: np.zeros(len(pts))  # noqa: E731
        for q in (0.5, math.nan, -math.inf):
            with pytest.raises(ValueError, match=r"q must lie in \[1, inf\], got"):
                lq_error(f, f, q, Quadrature(d=1))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("d", 0),
            ("d", True),
            ("cells_log2", -1),
            ("cells_log2", 2.0),
            ("points_per_cell", 0),
            ("sup_points", 0),
        ],
    )
    def test_quadrature_fields_validated(self, field, value):
        fields = {"d": 2, field: value}
        with pytest.raises(ValueError, match=rf"Quadrature\.{field} must be an integer"):
            Quadrature(**fields)

    def test_quadrature_optional_fields(self):
        quad = Quadrature(d=np.int64(3), cells_log2=0, points_per_cell=1, sup_points=1)
        assert (quad.resolved_cells_log2(), quad.resolved_sup_points()) == (0, 1)
        assert Quadrature(d=3).resolved_cells_log2() == 4

    @staticmethod
    def never(pts):
        raise AssertionError("the refused rule must not be evaluated")

    @pytest.mark.parametrize(
        "quad, q, count, field",
        [
            (Quadrature(d=5), 2.0, 32**5, "cells_log2"),
            (Quadrature(d=4), math.inf, 65**4, "sup_points"),
            (Quadrature(d=5, cells_log2=1), math.inf, 65**5, "sup_points"),
            (Quadrature(d=6, cells_log2=1), math.inf, 65**6, "sup_points"),
        ],
    )
    def test_oversized_rule_is_refused(self, quad, q, count, field):
        # Sizes are computed, never allocated: the check comes first.
        with pytest.raises(
            ValueError, match=rf"d={quad.d} needs {count} points.*Quadrature\.{field}"
        ):
            lq_error(self.never, self.never, q, quad)

    def test_rule_size_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(recovery, "_MAX_RULE_POINTS", 64)
        one = lambda pts: np.ones(len(pts))  # noqa: E731
        assert lq_error(one, one, 2.0, Quadrature(d=1, cells_log2=4)) == 0.0
        assert lq_error(one, one, math.inf, Quadrature(d=2, cells_log2=1, sup_points=8)) == 0.0
        with pytest.raises(ValueError, match="needs 128 points"):
            lq_error(one, one, 2.0, Quadrature(d=1, cells_log2=5))
        with pytest.raises(ValueError, match="needs 81 points"):
            lq_error(one, one, math.inf, Quadrature(d=2, cells_log2=1, sup_points=9))

    def test_quadrature_refinement_stable(self):
        # Doubling the cell count moves a smooth-error integral by < 1%.
        f = functions.get_function("trig", 2)
        params = params_smooth()
        plan = grid.build_plan(params, 4)
        approx = reconstruct(sample(f.value, plan), plan, (0, 0))
        e1 = lq_error(approx, f.value, 2.0, Quadrature(d=2, cells_log2=4))
        e2 = lq_error(approx, f.value, 2.0, Quadrature(d=2, cells_log2=5))
        assert abs(e1 - e2) <= 0.01 * e2
