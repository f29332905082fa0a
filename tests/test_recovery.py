"""Tests for sampling, reconstruction, and error measurement."""

import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from hypercross import functions, grid, recovery
from hypercross.dyadic import DyadicEvaluator
from hypercross.interp import tensor_grid
from hypercross.recovery import Quadrature, lq_error, reconstruct, sample

from test_grid import built_plans, plans_carry_combination_weights  # noqa: F401 (autouse)


def params_smooth(deriv=(0, 0)):
    return grid.derive_params(2, (2.0, 2.0), 2.0, 2.0, math.inf, deriv)


def chunk_bytes(points):
    """The `recovery._SLAB_BYTES` at which an approximant is evaluated
    pointwise in chunks of ``points``."""
    return 8 * recovery._CALL_FLOATS * points


class TestSample:
    def test_zero_function(self):
        plan = grid.build_plan(params_smooth(), 2)
        s = sample(lambda pts: np.zeros(len(pts)), plan)
        assert isinstance(s, np.ndarray) and s.dtype == float
        assert s.shape == (plan.n_actual,) and np.all(s == 0.0)

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
        message = rf"^sample\(f\): values of shape \(5,\) for {plan.n_actual} points"
        with pytest.raises(ValueError, match=message):
            sample(lambda pts: np.ones(5), plan)

    @pytest.mark.parametrize(
        "f, shape",
        [
            (lambda pts: np.ones((len(pts), 1)), lambda n: (n, 1)),
            (lambda pts: 1.0, lambda n: ()),
            (lambda pts: np.ones(len(pts) + 1), lambda n: (n + 1,)),
        ],
        ids=["column", "scalar", "long"],
    )
    def test_values_must_be_one_per_point(self, f, shape):
        # The column was flattened and accepted, where lq_error refuses it.
        plan = grid.build_plan(params_smooth(), 2)
        n = plan.n_actual
        message = f"sample(f): values of shape {shape(n)} for {n} points, expected ({n},)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sample(f, plan)

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
        approx = reconstruct(np.zeros(plan.n_actual), plan, (0, 0))
        pts = np.random.default_rng(2).uniform(0, 1, (50, 2))
        assert np.abs(approx(pts)).max() == 0.0

    def test_linear_in_samples(self):
        params = grid.derive_params(2, (2.0, 2.0), 2.0, 2.0, math.inf, (1, 1))
        plan = grid.build_plan(params, 3)
        rng = np.random.default_rng(3)
        v1 = rng.uniform(-1, 1, plan.n_actual)
        v2 = rng.uniform(-1, 1, plan.n_actual)
        a, b = 1.7, -0.35
        r1 = reconstruct(v1, plan, (1, 1))
        r2 = reconstruct(v2, plan, (1, 1))
        r12 = reconstruct(a * v1 + b * v2, plan, (1, 1))
        pts = rng.uniform(0.01, 0.99, (50, 2))
        np.testing.assert_allclose(
            r12(pts), a * r1(pts) + b * r2(pts), atol=1e-10
        )

    def test_sample_plan_mismatch(self):
        plan2 = grid.build_plan(params_smooth(), 2)
        plan3 = grid.build_plan(params_smooth(), 3)
        s = sample(lambda pts: np.ones(len(pts)), plan2)
        with pytest.raises(
            ValueError,
            match=re.escape(
                f"reconstruct(values): values of shape ({plan2.n_actual},) for "
                f"{plan3.n_actual} points, expected ({plan3.n_actual},)"
            ),
        ):
            reconstruct(s, plan3, (0, 0))

    def test_value_vector_of_wrong_length_rejected(self):
        plan = grid.build_plan(params_smooth(), 2)
        with pytest.raises(ValueError, match=rf"values of shape \(3,\) for {plan.n_actual} points"):
            reconstruct([1.0, 2.0, 3.0], plan, (0, 0))

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_value_vector_names_non_finite_row(self, bad):
        plan = grid.build_plan(params_smooth(), 2)
        vals = np.zeros(plan.n_actual)
        vals[[4, 7]] = bad
        with pytest.raises(ValueError, match=r"^reconstruct\(values\): value \S+ is not finite: evaluation failed at point 4 at"):
            reconstruct(vals, plan, (0, 0))

    def test_deriv_beyond_degrees_rejected(self):
        plan = grid.build_plan(params_smooth(), 2)
        s = sample(lambda pts: np.ones(len(pts)), plan)
        with pytest.raises(ValueError, match="exceeds"):
            reconstruct(s, plan, (3, 0))

    def test_matches_scalar_surplus_sum(self):
        # The vectorized combination evaluation equals the direct sum of
        # surpluses computed by the oracle.
        f = functions.get_function("trig", 2)
        plan = grid.build_plan(params_smooth(), 3)
        approx = reconstruct(sample(f.value, plan), plan, (0, 0))
        ev = DyadicEvaluator(plan.params.degrees, (0, 0), f=f.value)
        pts = np.random.default_rng(4).uniform(0.01, 0.99, (25, 2))
        direct = sum(ev.surplus_deriv(lvl, (0, 0), pts) for lvl in plan.levels)
        np.testing.assert_allclose(approx(pts), direct, atol=1e-12)

    def test_matches_scalar_surplus_sum_at_cell_boundaries(self):
        # The half-open knot convention must act identically in the oracle
        # and the vectorized path, including at dyadic cell edges.
        f = functions.get_function("trig", 2)
        params = grid.derive_params(2, (2.0, 2.0), 2.0, 2.0, math.inf, (1, 1))
        plan = grid.build_plan(params, 3)
        approx = reconstruct(sample(f.value, plan), plan, (1, 1))
        ev = DyadicEvaluator(params.degrees, (1, 1), f=f.value)
        pts = np.array([(0.5, 0.25), (0.0, 0.5), (0.125, 0.0), (0.0, 0.0), (1.0, 0.3)])
        direct = sum(ev.surplus_deriv(lvl, (1, 1), pts) for lvl in plan.levels)
        np.testing.assert_allclose(approx(pts), direct, rtol=0, atol=1e-10)

    def test_matches_scalar_surplus_sum_with_derivative(self):
        f = functions.get_function("trig", 2)
        params = grid.derive_params(2, (2.0, 1.5), 2.0, 2.0, 2.0, (1, 0))
        plan = grid.build_plan(params, 3)
        approx = reconstruct(sample(f.value, plan), plan, (1, 0))
        ev = DyadicEvaluator(plan.params.degrees, (1, 0), f=f.value)
        pts = np.random.default_rng(5).uniform(0.01, 0.99, (20, 2))
        direct = sum(ev.surplus_deriv(lvl, (1, 0), pts) for lvl in plan.levels)
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
        ev = DyadicEvaluator(params.degrees, deriv, f=f.value)
        pts = np.array([(a, b) for a in self.COORDS for b in self.COORDS])
        got = approx(pts)
        direct = sum(ev.surplus_deriv(lvl, deriv, pts) for lvl in plan.levels)
        np.testing.assert_allclose(got, direct, rtol=1e-12, atol=1e-11)
        np.testing.assert_allclose(got, f.deriv(deriv, pts), atol=tol)

    @pytest.mark.parametrize("deriv", [(0, 0), (1, 1)])
    def test_edge_is_the_left_limit(self, deriv):
        f = functions.get_function("trig", 2)
        params = grid.derive_params(2, (2.0, 2.0), 2.0, 2.0, math.inf, deriv)
        plan = grid.build_plan(params, 5)
        approx = reconstruct(sample(f.value, plan), plan, deriv)
        ev = DyadicEvaluator(params.degrees, deriv, f=f.value)
        edges = np.array([(1.0, 0.5), (1.0, 1.0)])
        near = approx([(1 - 1e-12, 0.5), (1 - 1e-12, 1 - 1e-12)])
        oracle = sum(ev.surplus_deriv(lvl, deriv, edges) for lvl in plan.levels)
        for got in (approx(edges), oracle):
            assert np.all(np.abs(got - near) <= np.maximum(1e-9 * np.abs(near), 1e-9))

    @pytest.mark.parametrize("deriv", [(1, 0), (1, 1)])
    def test_just_below_a_knot_is_the_left_limit(self, deriv):
        # The largest float below a knot lies in the cell left of it; a
        # spline argument rounded onto the knot would read the next piece
        # (3.7% off at 0.25 for deriv (1, 0)).
        f = functions.get_function("trig", 2)
        params = grid.derive_params(2, (2.0, 2.0), 2.0, 2.0, math.inf, deriv)
        plan = grid.build_plan(params, 4)
        approx = reconstruct(sample(f.value, plan), plan, deriv)
        ev = DyadicEvaluator(params.degrees, deriv, f=f.value)
        knots = np.array([0.25, 0.5, 1.0])
        below = np.stack([np.nextafter(knots, 0.0), np.full(3, 0.3)], axis=1)
        near = approx(np.stack([knots - 1e-12, np.full(3, 0.3)], axis=1))
        oracle = sum(ev.surplus_deriv(lvl, deriv, below) for lvl in plan.levels)
        for got in (approx(below), oracle):
            assert np.all(np.abs(got - near) <= np.maximum(1e-9 * np.abs(near), 1e-9))


@pytest.fixture(
    scope="module",
    params=[((2.0, 2.0, 1.5), (1, 0, 0)), ((3.0, 2.0, 1.5), (2, 0, 1))],
    ids=["deriv100", "deriv201"],
)
def batched_case(request):
    # d=3 with anisotropic weights and blended derivative axes: (1, 0, 0) is
    # the benchmark's derivative study, (2, 0, 1) adds a second-order blend
    # and a second derivative axis.
    alpha, deriv = request.param
    params = grid.derive_params(3, alpha, 2.0, 2.0, 2.0, deriv)
    plan = grid.build_plan(params, 3)
    f = functions.get_function("aniso", 3)
    approx = reconstruct(sample(f.value, plan), plan, deriv)
    assert any(deriv)
    ev = DyadicEvaluator(params.degrees, deriv, f=f.value)
    return deriv, plan, approx, ev


class TestBatchedEvaluation:
    """The chunked table evaluation against the oracle's surplus sum."""

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
        monkeypatch.setattr(recovery, "_SLAB_BYTES", chunk_bytes(16))
        pts = self.points(41, 6)  # three chunks, the last one partial
        direct = sum(ev.surplus_deriv(lvl, deriv, pts) for lvl in plan.levels)
        np.testing.assert_allclose(approx(pts), direct, atol=1e-10)

    def test_result_does_not_depend_on_chunking(self, batched_case, monkeypatch):
        approx = batched_case[2]
        chunk = recovery._SLAB_BYTES // chunk_bytes(1)
        n = chunk + 1000
        pts = self.points(n, 7)
        whole = approx(pts)
        cuts = [0, 5, chunk + 3, n]
        pieces = np.concatenate([approx(pts[a:b]) for a, b in zip(cuts, cuts[1:])])
        assert np.array_equal(whole, pieces)
        for size in (chunk_bytes(999), chunk_bytes(2)):
            monkeypatch.setattr(recovery, "_SLAB_BYTES", size)
            assert np.array_equal(whole, approx(pts))


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
    ev = DyadicEvaluator(params.degrees, deriv, f=f.value)
    return d, deriv, plan, approx, ev


# A coordinate is uniform in [0, 1], a dyadic cell edge c / 2**L, 0 or 1.
_coordinate = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(0, 6).flatmap(lambda L: st.integers(0, 1 << L).map(lambda c: c / (1 << L))),
    st.sampled_from([0.0, 1.0]),
)


# No shrink phase: each shrink step reruns the oracle over every plan
# level, so shrinking a failure would take a minute or more.
@settings(
    max_examples=12,
    deadline=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
)
@given(data=st.data())
def test_approximant_equals_surplus_sum(differential_case, data):
    """``Approximant`` against the oracle: the surpluses over the plan's
    levels, at a few points and on the product grid of a few nodes per axis."""
    d, deriv, plan, approx, ev = differential_case
    pts = np.array(
        data.draw(st.lists(st.tuples(*[_coordinate] * d), min_size=1, max_size=5))
    )
    nodes = np.array(data.draw(st.lists(_coordinate, min_size=1, max_size=2)))
    grid_pts = tensor_grid([nodes] * d)
    both = np.concatenate([pts, grid_pts])
    direct = sum(ev.surplus_deriv(lvl, deriv, both) for lvl in plan.levels)
    for size in (chunk_bytes(2), recovery._SLAB_BYTES):
        with mock.patch.object(recovery, "_SLAB_BYTES", size):
            np.testing.assert_allclose(approx(pts), direct[: len(pts)], rtol=1e-12, atol=1e-10)
    np.testing.assert_allclose(
        approx._grid(nodes, nodes, np.empty(len(grid_pts))), direct[len(pts) :],
        rtol=1e-12, atol=1e-10,
    )


# (d, function, alpha, deriv, radius) per grid case: every dimension up to 4,
# a derivative along one axis, along two, and of second order, and degree 0
# (one coefficient per cell along each axis).
GRID_CASES = [
    (1, "trig", (2.0,), (0,), 6),
    (2, "trig", (0.9, 0.9), (0, 0), 5),
    (2, "trig", (2.0, 2.0), (0, 0), 5),
    (2, "trig", (2.0, 2.0), (1, 0), 5),
    (2, "trig", (2.0, 2.0), (1, 1), 5),
    (3, "aniso", (2.0, 2.0, 1.5), (1, 0, 0), 4),
    (3, "aniso", (3.0, 2.0, 1.5), (2, 0, 1), 3),
    (4, "trig", (2.0, 2.0, 2.0, 2.0), (0, 0, 0, 0), 3),
]


@pytest.fixture(
    scope="module",
    params=GRID_CASES,
    ids=lambda c: f"d{c[0]}-deriv{''.join(map(str, c[3]))}{'-degree0' if max(c[2]) < 1 else ''}",
)
def grid_case(request):
    d, fid, alpha, deriv, radius = request.param
    params = grid.derive_params(d, alpha, 2.0, 2.0, 2.0, deriv)
    plan = grid.build_plan(params, radius)
    f = functions.get_function(fid, d)
    return d, reconstruct(sample(f.value, plan), plan, deriv)


def gauss_nodes(d):
    # The composite Gauss rule of `lq_error`, four points on each of
    # 2**(12 // d - 2) cells: 4096 grid points at every d = 1..4.
    return recovery._axis_rule(12 // d - 2, 4)[0]


def lattice_nodes(d):
    # The sup-norm lattice of `lq_error`, 2**(12 // d) + 1 midpoints per axis.
    n = (1 << (12 // d)) + 1
    return (np.arange(n) + 0.5) / n


def edge_nodes(d):
    # 0, 1, dyadic knots, the largest float below the knot 1/4 (it lies in
    # the cell left of it), a repeated node and interior points, unsorted.
    return np.array([0.5, 0.0, np.nextafter(0.25, 0.0), 1.0, 0.25, 0.3, 0.125, 0.5, 0.96875])


# Slab cases of `Approximant._grid`: the `_SLAB_BYTES` for q0 coefficients
# along axis 0 and rows of ``span`` points, and what every slab walked (`seen`)
# must show.  "chunk2" is one row per slab.  At "one-cell" a slab holds 2
# rows, and one whose rows lie in two cells is cut into rows, so every slab
# sits in one axis-0 cell.  "default-chunk" is the default size, at which
# some slab spans cells.  The first two ids date from slabs counted in
# points, and are kept so the suite's test ids stay stable.
SLAB_CASES = {
    "default-chunk": (
        lambda q0, span: recovery._SLAB_BYTES,
        lambda seen: any(len(distinct) > 1 for _, distinct, _, _, _ in seen),
    ),
    "chunk2": (
        lambda q0, span: 0,
        lambda seen: all(len(t) == 1 for _, _, _, t, _ in seen),
    ),
    "one-cell": (
        lambda q0, span: 16 * (1 + q0) * span,
        lambda seen: all(len(distinct) == 1 for _, distinct, _, _, _ in seen),
    ),
}


class TestGrid:
    """`Approximant._grid` against the pointwise route on the same points."""

    @pytest.mark.parametrize("case", list(SLAB_CASES))
    @pytest.mark.parametrize("make_nodes", [gauss_nodes, lattice_nodes, edge_nodes])
    def test_equals_pointwise_bit_for_bit(self, grid_case, make_nodes, case, monkeypatch):
        # The kernel walks its grid in slabs of axis-0 rows: a slab in one
        # cell broadcasts the cell's coefficients, a slab across cells
        # gathers them.  It is called on the whole grid and, as `lq_error`
        # does with a q = inf lattice, on blocks of a few rows.
        d, approx = grid_case
        nodes = make_nodes(d)
        want = approx(tensor_grid([nodes] * d))
        span = len(nodes) ** (d - 1)
        size, check = SLAB_CASES[case]
        monkeypatch.setattr(recovery, "_SLAB_BYTES", size(approx.plan.params.degrees[0] + 1, span))
        seen, slabs = [], recovery._slabs

        def spy(*args):
            out = slabs(*args)
            seen.extend(out)
            return out

        monkeypatch.setattr(recovery, "_slabs", spy)
        whole = approx._grid(nodes, nodes, np.full(len(want), np.nan))
        heads = [nodes[i : i + 3] for i in range(0, len(nodes), 3)]
        blocks = np.concatenate(
            [approx._grid(head, nodes, np.full(len(head) * span, np.nan)) for head in heads]
        )
        assert seen and check(seen)
        assert np.array_equal(whole, want)
        assert np.array_equal(blocks, want)

    def test_empty_nodes(self, grid_case):
        _, approx = grid_case
        assert approx._grid(np.empty(0), np.empty(0), np.empty(0)).shape == (0,)


class TestBlendingOffsets:
    """``D^r`` of the spline blend, taken once per level table by `_blend`."""

    @pytest.mark.parametrize("r", range(5))
    def test_blend_reproduces_polynomial_derivative(self, r):
        # The blend reproduces polynomials up to the interpolation degree, so
        # a table whose cells all restrict one global polynomial P blends to
        # the restrictions of D^r P, also in the cells next to x = 0 whose
        # taps read the virtual cells left of the cube.  k = 0 and 1 have
        # fewer cells than virtual cells.
        deg = max(r, 2) + 1
        rng = np.random.default_rng(r)
        coeffs = rng.standard_normal(deg + 1)
        for k in (0, 1, 3):
            n = 1 << k
            # Cell c in its local coordinate t: P((c + t) / n).
            cells = np.stack([self.restrict(coeffs, c, n) for c in range(n)], axis=-1)
            der = np.polynomial.polynomial.polyder(coeffs, r)
            want = np.stack([self.restrict(der, c, n, deg) for c in range(n)], axis=-1)
            scale = np.abs(want).max()
            # Along axis 0 of a d=1 table, and along axis 1 of a d=2 table
            # whose axis 0 is a constant of degree 1 with two cells.
            got = recovery._blend(cells, 0, k, r)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)
            other = np.array([1.0, 0.0])[:, None, None, None] * np.ones((1, 1, 2, 1))
            got2 = recovery._blend(other * cells[None, :, None, :], 1, k, r)
            np.testing.assert_allclose(
                got2, other * want[None, :, None, :], rtol=0, atol=1e-12 * scale
            )

    @staticmethod
    def restrict(coeffs, c, n, deg=None):
        """Ascending coefficients in t of ``P((c + t) / n)``, padded to ``deg + 1``."""
        out = np.zeros(len(coeffs) if deg is None else deg + 1)
        for p, a in enumerate(coeffs):
            for i in range(p + 1):
                out[i] += a * math.comb(p, i) * c ** (p - i) / n**p
        return out

    def test_approximant_offsets_are_the_box(self, differential_case):
        # The translates that carry a point are the offset box -r..0 from its
        # cell, so along an axis of order r the polynomial of cell c reaches
        # the blended cells c..c+r and no other.
        d, deriv, _, approx = differential_case[:4]
        nodes = tuple(dg + 1 for dg in approx.plan.params.degrees)
        rng = np.random.default_rng(0)
        for level, _, _ in approx._levels:
            dims = tuple(1 << k for k in level)
            for j, (k, r) in enumerate(zip(level, deriv)):
                for c in range(dims[j]) if r else ():
                    table = np.zeros(nodes + dims)
                    table[(slice(None),) * (d + j) + (c,)] = rng.standard_normal(
                        nodes + dims[:j] + dims[j + 1 :]
                    )
                    other = tuple(a for a in range(2 * d) if a != d + j)
                    reached = np.any(recovery._blend(table, j, k, r) != 0, axis=other)
                    want = range(c, min(c + r + 1, dims[j]))
                    assert np.flatnonzero(reached).tolist() == list(want)

    def test_levels_are_the_sorted_surviving_levels(self, differential_case):
        # The level sum runs in sorted level order, so float results do not
        # depend on the order of the weight dict.
        plan, approx = differential_case[2], differential_case[3]
        weights = recovery.combination_weights(plan.levels)
        assert [(lvl, w) for lvl, w, _ in approx._levels] == sorted(weights.items())


class TestLqError:
    def test_constant_l2(self):
        one = lambda pts: np.ones(len(pts))  # noqa: E731
        zero = lambda pts: np.zeros(len(pts))  # noqa: E731
        got = lq_error(one, zero, 2.0, Quadrature(d=2, cells_log2=2))
        assert got == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_linear_l2_closed_form(self, d):
        # The L2 norm of x_1 ... x_d is 3**(-d/2); the weights are a d-fold
        # outer product.
        f = lambda pts: np.prod(pts, axis=1)  # noqa: E731
        zero = lambda pts: np.zeros(len(pts))  # noqa: E731
        got = lq_error(f, zero, 2.0, Quadrature(d=d))
        assert got == pytest.approx(3.0 ** (-d / 2), abs=1e-10)

    def test_sup_norm_of_constant_gap(self):
        f = lambda pts: np.full(len(pts), 2.5)  # noqa: E731
        g = lambda pts: np.full(len(pts), 1.25)  # noqa: E731
        got = lq_error(f, g, math.inf, Quadrature(d=2, cells_log2=2, sup_points=65))
        assert got == pytest.approx(1.25, abs=1e-13)
        # One lattice row, 65 points, outgrows this one-point rule.
        coarse = Quadrature(d=2, cells_log2=0, points_per_cell=1, sup_points=65)
        assert lq_error(f, g, math.inf, coarse) == pytest.approx(1.25, abs=1e-13)

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
            ("cells_log2", 2.5),
            ("points_per_cell", 0),
            ("sup_points", 0),
        ],
    )
    def test_quadrature_fields_validated(self, field, value):
        fields = {"d": 2, field: value}
        with pytest.raises(ValueError, match=rf"^Quadrature\.{field}(: expected| must be) an integer"):
            Quadrature(**fields)

    def test_quadrature_optional_fields(self):
        quad = Quadrature(d=np.int64(3), cells_log2=0, points_per_cell=1, sup_points=1)
        assert (quad.resolved_cells_log2(), quad.resolved_sup_points()) == (0, 1)
        assert Quadrature(d=3).resolved_cells_log2() == 4
        # Integral floats are integers, as in a config.
        quad = Quadrature(d=2.0, cells_log2=2.0, points_per_cell=3.0, sup_points=5.0)
        assert quad == Quadrature(d=2, cells_log2=2, points_per_cell=3, sup_points=5)
        assert all(type(v) is int for v in vars(quad).values())

    @staticmethod
    def never(pts):
        raise AssertionError("a refused input must not be evaluated")

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

    @pytest.mark.parametrize("q", [2.0, math.inf])
    @pytest.mark.parametrize(
        "g, h, message",
        [
            (lambda p: p[:, :1], lambda p: p[:, 0], r"\(g\): values of shape \(256, 1\)"),
            (lambda p: p[:, 0], lambda p: p[:, :1], r"\(h\): values of shape \(256, 1\)"),
            (lambda p: p[:, :1], lambda p: p[:, :1], r"\(g\): values of shape \(256, 1\)"),
            (lambda p: 0.0, lambda p: p[:, 0], r"\(g\): values of shape \(\)"),
        ],
        ids=["g-column", "h-column", "both-column", "g-scalar"],
    )
    def test_values_must_be_one_per_point(self, g, h, message, q):
        # An (n, 1) column would broadcast against an (n,) vector to (n, n).
        quad = Quadrature(d=2, cells_log2=2, sup_points=16)
        with pytest.raises(ValueError, match=message + " for 256 points, expected"):
            lq_error(g, h, q, quad)

    @pytest.mark.parametrize("q", [2.0, math.inf])
    @pytest.mark.parametrize("side", ["g", "h"])
    def test_non_finite_value_is_named(self, side, q, monkeypatch):
        # NaN at one Gauss point, which the q = inf lattice includes too.  At
        # _SLAB_BYTES = 0 each slab is one axis-0 row of 16 Gauss points, so
        # the NaN lies in the fourth slab, at row 5 of it: the message names
        # the point, which does not depend on the slab.
        monkeypatch.setattr(recovery, "_SLAB_BYTES", 0)
        quad = Quadrature(d=2, cells_log2=2, sup_points=65)
        nodes, _ = recovery._axis_rule(2, quad.points_per_cell)
        x0, x1 = nodes[3], nodes[5]
        bad = lambda p: np.where((p[:, 0] == x0) & (p[:, 1] == x1), np.nan, 0.0)  # noqa: E731
        zero = lambda p: np.zeros(len(p))  # noqa: E731
        g, h = (bad, zero) if side == "g" else (zero, bad)
        assert len(nodes) == 16
        message = (
            f"lq_error({side}): value nan is not finite: "
            f"evaluation failed at point {[float(x0), float(x1)]}"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            lq_error(g, h, q, quad)

    @pytest.mark.parametrize("q", [1.0, 2.0, 3.5, math.inf])
    @pytest.mark.parametrize(
        "d, alpha, deriv",
        [(2, (2.0, 2.0), (1, 0)), (3, (2.0, 2.0, 1.5), (1, 0, 0))],
        ids=["d2-deriv10", "d3-deriv100"],
    )
    def test_grid_route_is_exact(self, d, alpha, deriv, q, monkeypatch):
        # An Approximant is evaluated on the grid, a plain callable pointwise;
        # both routes give the same float, whichever side the Approximant is
        # on, and so do slabs of one row.  The pointwise callables chunk their
        # points at the default slab size whatever lq_error's: 2-point chunks
        # are bit-checked in TestBatchedEvaluation.
        params = grid.derive_params(d, alpha, 2.0, 2.0, 2.0, deriv)
        plan = grid.build_plan(params, 4)
        f = functions.get_function("aniso", d)
        approx = reconstruct(sample(f.value, plan), plan, deriv)
        truth = lambda pts: f.deriv(deriv, pts)  # noqa: E731
        default = recovery._SLAB_BYTES

        def at_default_slabs(fn):
            def call(pts):
                with mock.patch.object(recovery, "_SLAB_BYTES", default):
                    return fn(pts)

            return call

        pointwise = at_default_slabs(approx)
        # A second Approximant, of a coarser plan, on the other side.
        coarse = grid.build_plan(params, 3)
        other = reconstruct(sample(f.value, coarse), coarse, deriv)
        other_pointwise = at_default_slabs(other)
        quad = Quadrature(d=d, cells_log2=12 // d - 2, sup_points=(1 << (12 // d)) + 1)
        got = lq_error(approx, truth, q, quad)
        flipped = lq_error(truth, approx, q, quad)
        pair = lq_error(pointwise, other_pointwise, q, quad)
        assert got > 0
        assert pair > 0
        for size in (recovery._SLAB_BYTES, chunk_bytes(2)):
            monkeypatch.setattr(recovery, "_SLAB_BYTES", size)
            assert lq_error(approx, truth, q, quad) == got
            assert lq_error(pointwise, truth, q, quad) == got
            assert lq_error(truth, approx, q, quad) == flipped
            assert lq_error(truth, pointwise, q, quad) == flipped
            assert lq_error(approx, other, q, quad) == pair
            assert lq_error(other, approx, q, quad) == pair
            assert lq_error(pointwise, other_pointwise, q, quad) == pair

    @staticmethod
    def traced_peak(d, fid, alpha, deriv, budget, q, warm=False):
        """``lq_error`` of a study's approximant on its default rule: the
        error, the peak traced allocation, the rule size and the unit of the
        bounds below, a gather block of 8,192 points ((degrees + 1)
        coefficients each), in bytes.  ``warm`` makes one untraced call
        first, so allocations numpy makes once per process are not counted."""
        params = grid.derive_params(d, alpha, 2.0, q, 2.0, deriv)
        plan = grid.build_plan(params, grid.choose_radius(params, budget))
        f = functions.get_function(fid, d)
        approx = reconstruct(sample(f.value, plan), plan, deriv)
        truth = lambda pts: f.deriv(deriv, pts)  # noqa: E731
        quad = Quadrature(d=d)
        n = (quad.points_per_cell << quad.resolved_cells_log2()) ** d
        block = math.prod(dg + 1 for dg in params.degrees) * 8192 * 8
        if warm:
            lq_error(approx, truth, q, quad)
        tracemalloc.start()
        try:
            err = lq_error(approx, truth, q, quad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return err, peak, n, block

    @pytest.mark.parametrize(
        "d, fid, alpha, deriv, budget, q",
        [
            (4, "trig", (2.0, 2.0, 2.0, 2.0), (0, 0, 0, 0), 8192, 2.0),
            (3, "aniso", (2.0, 2.0, 1.5), (1, 0, 0), 16384, 2.0),
            (2, "trig", (2.0, 2.0), (0, 0), 16384, math.inf),
        ],
        ids=["d4-trig", "d3-aniso-deriv100", "d2-trig-qinf"],
    )
    def test_memory_is_bounded_by_slabs(self, d, fid, alpha, deriv, budget, q):
        # Studies on their default rules: 1,048,576 and 262,144 Gauss
        # points, and at q = inf 65,536 Gauss points plus a 1025^2 lattice.
        # Beyond one weighted term per Gauss point (finite q), the peak stays
        # within two gather blocks; at q = inf these hold the buffer of
        # 65,536 values that lattice blocks reuse (0.89 blocks).  Measured
        # 0.56, 0.45 and 1.77 blocks; 0.58, 0.57 and 1.89 with slabs of 8,192
        # points at every step, and 11.2, 10.7 and 74.0 with the whole rule
        # held at once.
        err, peak, n, block = self.traced_peak(d, fid, alpha, deriv, budget, q)
        assert err > 0
        assert peak <= (0 if math.isinf(q) else 8 * n) + 2 * block

    def test_no_second_rule_sized_array(self):
        # The deriv-3d study at budget 16384 on its default rule, 262,144
        # Gauss points.  Beyond the 2 MiB term vector the peak stays within
        # one gather block (1.125 MiB): a second rule-sized array would not.
        # Measured 0.96 blocks when each slab of the approximant was
        # evaluated on its own, 0.56 with the levels walked outside.
        err, peak, n, block = self.traced_peak(3, "aniso", (2.0, 2.0, 1.5), (1, 0, 0), 16384, 2.0)
        assert err > 0
        assert n == 262_144
        assert peak <= 8 * n + block

    def test_slabs_do_not_buy_time_with_memory(self):
        # The same study, warm.  Beyond the 2 MiB term vector the peak stays
        # within 0.64 MiB, the margin of slabs of 8,192 points at every step
        # (measured 0.625 MiB): slabs sized in bytes hold 4 axis-0 rows of
        # the approximant, but fewer temporaries.  Measured 0.51 MiB.
        err, peak, n, _ = self.traced_peak(
            3, "aniso", (2.0, 2.0, 1.5), (1, 0, 0), 16384, 2.0, warm=True
        )
        assert err > 0
        assert peak <= 8 * n + 0.64 * 2**20

    @pytest.mark.parametrize("side", ["g", "h"])
    def test_approximant_of_another_dimension_is_refused(self, side):
        # Refused before anything is evaluated: the other side raises if called.
        plan = grid.build_plan(params_smooth(), 2)
        approx = reconstruct(np.zeros(plan.n_actual), plan, (0, 0))
        g, h = (approx, self.never) if side == "g" else (self.never, approx)
        message = f"lq_error({side}): an approximant of dimension 2 on a quadrature of dimension 3"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            lq_error(g, h, 2.0, Quadrature(d=3, cells_log2=1))

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
