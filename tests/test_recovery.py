"""Tests for sampling, reconstruction, and error measurement."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from hypercross import functions, grid, recovery
from hypercross.dyadic import DyadicEvaluator
from hypercross.recovery import Quadrature, lq_error, reconstruct, sample


def pointwise(f):
    """A registry function as the scalar evaluator takes it: point in, float out."""
    return lambda p: float(f.value([p])[0])


def params_smooth(deriv=(0, 0)):
    return grid.derive_params(2, (2.0, 2.0), 2.0, 2.0, math.inf, deriv)


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
        with pytest.raises(ValueError, match=f"has 5 entries; the plan has {plan.n_actual}"):
            sample(lambda pts: np.ones(5), plan)

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
            ValueError, match=f"has {plan2.n_actual} entries; the plan has {plan3.n_actual}"
        ):
            reconstruct(s, plan3, (0, 0))

    def test_value_vector_of_wrong_length_rejected(self):
        plan = grid.build_plan(params_smooth(), 2)
        with pytest.raises(ValueError, match=f"has 3 entries; the plan has {plan.n_actual}"):
            reconstruct([1.0, 2.0, 3.0], plan, (0, 0))

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_value_vector_names_non_finite_row(self, bad):
        plan = grid.build_plan(params_smooth(), 2)
        vals = np.zeros(plan.n_actual)
        vals[[4, 7]] = bad
        with pytest.raises(ValueError, match=r"at row 4 is not finite: evaluation failed at point 4 at"):
            reconstruct(vals, plan, (0, 0))

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

    @pytest.mark.parametrize("deriv", [(1, 0), (1, 1)])
    def test_just_below_a_knot_is_the_left_limit(self, deriv):
        # The largest float below a knot lies in the cell left of it; a
        # spline argument rounded onto the knot would read the next piece
        # (3.7% off at 0.25 for deriv (1, 0)).
        f = functions.get_function("trig", 2)
        params = grid.derive_params(2, (2.0, 2.0), 2.0, 2.0, math.inf, deriv)
        plan = grid.build_plan(params, 4)
        approx = reconstruct(sample(f.value, plan), plan, deriv)
        ev = DyadicEvaluator(params.degrees, deriv, f=pointwise(f))
        for knot in (0.25, 0.5, 1.0):
            below, inside = (np.nextafter(knot, 0.0), 0.3), (knot - 1e-12, 0.3)
            near = approx([inside])[0]
            assert approx([below])[0] == pytest.approx(near, rel=1e-9, abs=1e-9)
            scalar = sum(ev.surplus_deriv(lvl, deriv, below) for lvl in plan.levels)
            assert scalar == pytest.approx(near, rel=1e-9, abs=1e-9)


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


# No shrink phase: each shrink step reruns the scalar oracle over every plan
# level, so shrinking a failure would take a minute or more.
@settings(
    max_examples=12,
    deadline=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
)
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

    @pytest.mark.parametrize("q", [2.0, math.inf])
    @pytest.mark.parametrize(
        "g, h, message",
        [
            (lambda p: p[:, :1], lambda p: p[:, 0], r"g returned shape \(256, 1\)"),
            (lambda p: p[:, 0], lambda p: p[:, :1], r"h returned shape \(256, 1\)"),
            (lambda p: p[:, :1], lambda p: p[:, :1], r"g returned shape \(256, 1\)"),
            (lambda p: 0.0, lambda p: p[:, 0], r"g returned shape \(\)"),
        ],
        ids=["g-column", "h-column", "both-column", "g-scalar"],
    )
    def test_values_must_be_one_per_point(self, g, h, message, q):
        # An (n, 1) column would broadcast against an (n,) vector to (n, n).
        quad = Quadrature(d=2, cells_log2=2, sup_points=16)
        with pytest.raises(ValueError, match=message + " for 256 points, expected"):
            lq_error(g, h, q, quad)

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
