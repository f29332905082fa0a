"""Tests for smoothness bookkeeping, level sets, and sample plans."""

import hashlib
import io
import json
import math
import re
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from hypercross import functions, grid, recovery
from hypercross.interp import MAX_DEGREE, nodes_exact


@pytest.fixture(scope="module", autouse=True)
def built_plans():
    """Every plan `grid.build_plan` returns while the module's tests run."""
    built, build = [], grid.build_plan

    def recording(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grid, "build_plan", recording)
        yield built


@pytest.fixture(autouse=True)
def plans_carry_combination_weights(built_plans):
    """Each plan built for a test carries one weight per level: the level's
    `combination_weights` entry, 0 where it has none, summing to 1."""
    yield
    while built_plans:
        plan = built_plans.pop()
        assert len(plan.combination) == len(plan.levels)
        assert all(type(w) is int for w in plan.combination)
        carried = {lvl: w for lvl, w in zip(plan.levels, plan.combination) if w}
        assert carried == grid.combination_weights(plan.levels)
        assert sum(plan.combination) == 1


class TestDeriveParams:
    def test_symmetric_case(self):
        p = grid.derive_params(2, (1.5, 1.5), 2.0, 2.0, math.inf, (0, 0))
        assert p.rate == 1.5
        assert p.rate_mult == 2
        assert p.min_axes == (0, 1)
        assert p.weights == (1.0, 1.0)
        assert p.orders == (2, 2)
        assert p.degrees == (1, 1)

    def test_integrability_shift(self):
        p = grid.derive_params(2, (2.0, 1.5), 2.0, math.inf, math.inf, (1, 0))
        assert p.eff == (0.5, 1.0)
        assert p.rate == 0.5
        assert p.rate_mult == 1
        assert p.min_axes == (0,)
        assert p.weights[1] == pytest.approx(math.sqrt(2.0))

    def test_rejects_low_alpha_for_p(self):
        grid.derive_params(1, (1.2,), 1.0, 2.0, math.inf, (0,))  # 1.2 - 1 > 0 passes
        with pytest.raises(ValueError, match="alpha - 1/p"):
            grid.derive_params(1, (0.9,), 1.0, 2.0, math.inf, (0,))
        for nonpositive in (0.0, -1.0):  # alpha > 1/p > 0 is also the positivity check
            with pytest.raises(ValueError, match=rf"axis 0: alpha={nonpositive} fails"):
                grid.derive_params(1, (nonpositive,), 2.0, 2.0, math.inf, (0,))

    def test_rejects_nonpositive_effective_exponent(self):
        with pytest.raises(ValueError, match="effective exponent"):
            grid.derive_params(1, (1.5,), 2.0, 2.0, math.inf, (2,))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_alpha(self, value):
        message = f"axis 1: alpha must lie in (-inf, inf), got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            grid.derive_params(2, (2.0, value), 2.0, 2.0, math.inf, (0, 0))

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError, match=r"^d must be an integer >= 1, got 0$"):
            grid.derive_params(0, (), 2.0, 2.0, math.inf, ())

    def test_weight_admissibility(self):
        p = grid.derive_params(3, (2.0, 1.5, 3.0), 2.0, 2.0, 2.0, (1, 0, 0))
        for j in range(3):
            if j in p.min_axes:
                assert p.weights[j] == 1.0
            else:
                assert 1.0 < p.weights[j] < p.eff[j] / p.rate
                assert p.eff[j] / p.weights[j] > p.rate


class TestIndexSet:
    def test_one_dimensional(self):
        assert grid.index_set((1.0,), 3) == [(0,), (1,), (2,), (3,)]

    def test_two_dimensional_card(self):
        got = grid.index_set((1.0, 1.0), 2)
        assert set(got) == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}
        assert len(got) == 6

    def test_enumeration_oracle(self):
        # brute force against the box; the list comes out sorted
        for w, r in [((1.0, 1.5), 5), ((1.0, 1.2247, 1.5), 7)]:
            brute = [
                k
                for k in product(range(r + 1), repeat=len(w))
                if sum(ki * wi for ki, wi in zip(k, w)) <= r + 1e-12
            ]
            assert grid.index_set(w, r) == sorted(brute)

    def test_weights_below_one_rejected(self):
        with pytest.raises(ValueError):
            grid.index_set((0.5, 1.0), 3)

    @pytest.mark.parametrize(
        "weights, radius, match",
        [
            ((1.0, 1.0), math.nan, r"^radius must lie in \[0, inf\), got nan$"),
            ((1.0, 1.0), math.inf, r"^radius must lie in \[0, inf\), got inf$"),
            ((1.0, 1.0), -1, r"^radius must lie in \[0, inf\), got -1$"),
            ((1.0, math.nan), 3, r"^axis 1: level weight must lie in \[1, inf\), got nan$"),
            ((math.inf, 1.0), 3, r"^axis 0: level weight must lie in \[1, inf\), got inf$"),
        ],
        ids=["radius-nan", "radius-inf", "radius-negative", "weight-nan", "weight-inf"],
    )
    def test_non_finite_input_named(self, weights, radius, match):
        # NaN fails every comparison, so each check is written to fail on it;
        # weighted_sum and tail_sum enumerate through index_set.
        for call in (
            lambda: grid.index_set(weights, radius),
            lambda: grid.weighted_sum((1.0, 1.0), weights, radius),
            lambda: grid.tail_sum((1.0, 1.0), weights, radius),
        ):
            with pytest.raises(ValueError, match=match):
                call()

    @pytest.mark.parametrize(
        "exponents, message",
        [
            ((math.nan, 1.0), "axis 0: exponent must lie in (-inf, inf), got nan"),
            ((math.inf, 1.0), "axis 0: exponent must lie in (-inf, inf), got inf"),
            ((1.0,), "exponent (1.0,) must have 2 entries, one per axis"),
        ],
        ids=["nan", "inf", "too-few"],
    )
    def test_weighted_sum_exponents_named(self, exponents, message):
        # Named, instead of a nan sum or a sum that zip cut short.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            grid.weighted_sum(exponents, (1.0, 1.0), 3)

    def test_weighted_sum_growth_law(self):
        # sum of 2**|k| over the simplex grows like 2**r * r for d=2.
        ref = grid.weighted_sum((1.0, 1.0), (1.0, 1.0), 6) / (2.0**6 * 6)
        for r in range(4, 15):
            ratio = grid.weighted_sum((1.0, 1.0), (1.0, 1.0), r) / (2.0**r * r) / ref
            assert 0.25 <= ratio <= 4.0


class TestTailSum:
    def test_geometric_tail_1d(self):
        assert grid.tail_sum((1.0,), (1.0,), 3) == pytest.approx(0.125, abs=1e-14)

    def test_matches_brute_force_2d(self):
        brute = sum(
            2.0 ** -(k1 + k2)
            for k1 in range(41)
            for k2 in range(41)
            if k1 + k2 > 5
        )
        assert grid.tail_sum((1.0, 1.0), (1.0, 1.0), 5) == pytest.approx(
            brute, abs=1e-10
        )

    def test_two_sided_decay_law(self):
        ref = grid.tail_sum((1.0, 1.0), (1.0, 1.0), 6) / (2.0**-6 * 6)
        for r in range(4, 15):
            ratio = grid.tail_sum((1.0, 1.0), (1.0, 1.0), r) / (2.0**-r * r) / ref
            assert 0.25 <= ratio <= 4.0

    def test_positive_exponents_required(self):
        with pytest.raises(ValueError):
            grid.tail_sum((0.0, 1.0), (1.0, 1.0), 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_exponents_refused(self, bad):
        message = f"axis 0: tail exponent must lie in (0, inf), got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            grid.tail_sum((bad, 1.0), (1.0, 1.0), 3)


def params_1d_midpoints():
    # alpha in (1/2, 1): order 1, degree 0, single midpoint node per cell.
    return grid.derive_params(1, (0.6,), 2.0, 2.0, math.inf, (0,))


def params_2d_aniso():
    # Degrees (2, 1), weights (1, sqrt(1.5)): the criterion-7 derivative study.
    return grid.derive_params(2, (2.0, 1.5), 2.0, 2.0, 2.0, (1, 0))


def params_3d():
    # Degrees (2, 2, 1) with three distinct weights: the d=3 derivative study.
    return grid.derive_params(3, (2.0, 2.0, 1.5), 2.0, 2.0, 2.0, (1, 0, 0))


def params_4d():
    # Degrees (1, 2, 1, 2) with four distinct weights.
    return grid.derive_params(4, (1.5, 2.2, 1.8, 2.6), 2.0, 2.0, math.inf, (0, 0, 0, 0))


def params_2d_smooth():
    return grid.derive_params(2, (2.0, 2.0), 2.0, 2.0, math.inf, (0, 0))


PARAM_SETS = {
    "d1_mid": params_1d_midpoints,
    "d2_smooth": params_2d_smooth,
    "d2_aniso": params_2d_aniso,
    "d3": params_3d,
}


def key_fractions(plan):
    """Exact coordinates of every plan point, read from the int64 keys."""
    scale = 1 << grid.KEY_BITS
    return [tuple(Fraction(int(k), scale) for k in row) for row in plan.keys]


def oracle_plan(params, radius):
    """Brute-force plan: exact Fractions from the node family, deduplicated by
    a dict in enumeration order (levels sorted, cells then node indices in C
    order).  Maps each point to the (level index, cell, node index) that
    first produced it; the point count is the raw count only because the node
    family never collides."""
    seen = {}
    levels = grid.index_set(params.weights, radius)
    for li, lvl in enumerate(levels):
        for cell in product(*[range(1 << k) for k in lvl]):
            for idx in product(*[range(dg + 1) for dg in params.degrees]):
                pt = tuple(
                    (c + nodes_exact(dg)[i]) / (1 << k)
                    for k, c, i, dg in zip(lvl, cell, idx, params.degrees)
                )
                seen.setdefault(pt, (li, cell, idx))
    return levels, seen


def raw_count(params, levels):
    return sum(
        math.prod(dg + 1 for dg in params.degrees) * 2 ** sum(lvl) for lvl in levels
    )


def plan_tags(plan):
    """(level index, cell, node index) of every row, read from ``bounds``:
    each level's rows walk its cells and node indices in C order."""
    d = plan.params.d
    tags = []
    for li, lvl in enumerate(plan.levels):
        shape = [1 << k for k in lvl] + [dg + 1 for dg in plan.params.degrees]
        assert plan.bounds[li + 1] - plan.bounds[li] == math.prod(shape)
        tags.extend((li, t[:d], t[d:]) for t in product(*map(range, shape)))
    assert plan.bounds[0] == 0 and len(tags) == plan.n_actual
    return tags


class TestNodeFamily:
    """No two (level, cell, node) triples name one point: a node family is
    checked once per degree, when its numerators are built."""

    @pytest.mark.parametrize("deg", range(MAX_DEGREE + 1))
    def test_no_node_recurs_at_a_finer_level(self, deg):
        xs = nodes_exact(deg)
        for gap in range(1, grid.MAX_RADIUS + 1):
            assert set(xs).isdisjoint(x * 2**gap % 1 for x in xs)
        grid._node_numerators.__wrapped__(deg)

    def test_check_refuses_a_colliding_family(self, monkeypatch):
        # Node 1/4 of a cell is node 1/2 of a cell one level finer.
        monkeypatch.setattr(grid, "nodes_exact", lambda deg: (Fraction(1, 4), Fraction(1, 2)))
        with pytest.raises(AssertionError, match="degree 1: interpolation nodes coincide"):
            grid._node_numerators.__wrapped__(1)


class TestPlans:
    def test_midpoint_plan_is_seven_points(self):
        plan = grid.build_plan(params_1d_midpoints(), 2)
        got = sorted(pt[0] for pt in key_fractions(plan))
        assert got == [
            Fraction(1, 8),
            Fraction(1, 4),
            Fraction(3, 8),
            Fraction(1, 2),
            Fraction(5, 8),
            Fraction(3, 4),
            Fraction(7, 8),
        ]
        assert plan.n_actual == 7

    def test_raw_count_formula(self):
        # Without duplicates the count is sum over levels of nodes * cells.
        params = grid.derive_params(2, (2.0, 2.0), 2.0, 2.0, math.inf, (0, 0))
        r = 4
        plan = grid.build_plan(params, r)
        raw = raw_count(params, grid.index_set(params.weights, r))
        # The snapped node family produces no cross-level collisions.
        assert plan.n_actual == raw

    def test_points_strictly_interior(self):
        plan = grid.build_plan(params_1d_midpoints(), 4)
        assert plan.keys.dtype == np.int64
        assert np.all(plan.keys > 0) and np.all(plan.keys < 1 << grid.KEY_BITS)
        for (f,) in key_fractions(plan):
            assert 0 < f < 1

    def test_dedup_is_exact_identity(self):
        # Two enumerations of overlapping radii agree point-for-point.
        params = params_1d_midpoints()
        small = grid.build_plan(params, 2)
        large = grid.build_plan(params, 3)
        small_keys = set(map(tuple, small.keys.tolist()))
        large_keys = set(map(tuple, large.keys.tolist()))
        assert small_keys < large_keys
        # keys distinguish points exactly: same count as exact fractions
        assert len(large_keys) == len(set(key_fractions(large))) == large.n_actual

    def test_provenance_tags_resolve_to_stored_point(self):
        # The tag `describe` reports for a row is the oracle's tag of the
        # point stored there.
        params = grid.derive_params(2, (1.5, 1.5), 2.0, 2.0, math.inf, (0, 0))
        plan = grid.build_plan(params, 3)
        levels, seen = oracle_plan(params, 3)
        assert len(seen) == raw_count(params, levels) == plan.n_actual
        for i, pt in enumerate(key_fractions(plan)):
            li, cell, idx = seen[pt]
            assert plan.describe(i).endswith(f"(level {levels[li]}, cell {cell}, node {idx})")

    def test_every_node_triple_maps_into_plan(self):
        # A level's rows, reshaped to (cells, nodes), hold every node triple
        # of that level at its exact coordinate.
        params = grid.derive_params(2, (1.5, 1.5), 2.0, 2.0, math.inf, (0, 0))
        plan = grid.build_plan(params, 3)
        fracs = key_fractions(plan)
        for li, lvl in enumerate(plan.levels):
            shape = tuple(1 << k for k in lvl) + tuple(dg + 1 for dg in params.degrees)
            rows = np.arange(plan.bounds[li], plan.bounds[li + 1]).reshape(shape)
            for cell in product(*[range(1 << k) for k in lvl]):
                for idx in product(*[range(dg + 1) for dg in params.degrees]):
                    exact = tuple(
                        (c + nodes_exact(dg)[i]) / (1 << k)
                        for k, c, i, dg in zip(lvl, cell, idx, params.degrees)
                    )
                    assert fracs[rows[cell + idx]] == exact

    def test_count_profile_matches_plans(self):
        # The second class has weights (1, 1.5000000000006): level (0, 2)
        # weighs 3.0000000000012, within the tolerance that puts it in the
        # level set of radius 3.
        for alpha, deriv in [((2.0, 1.5), (1, 0)), ((1.0, 2.2500000000018), (0, 0))]:
            params = grid.derive_params(2, alpha, 2.0, 2.0, 2.0, deriv)
            profile = grid.count_profile(params, 6)
            for r in range(1, 7):
                assert profile[r - 1] == grid.build_plan(params, r).n_actual

    @pytest.mark.parametrize("name", sorted(PARAM_SETS))
    def test_count_profile_matches_oracle(self, name):
        params = PARAM_SETS[name]()
        r_max = 6 if params.d < 3 else 3
        profile = grid.count_profile(params, r_max)
        assert profile == [len(oracle_plan(params, r)[1]) for r in range(1, r_max + 1)]

    def test_count_profile_needs_no_enumeration(self):
        # Radius 22 has far more points than a plan may enumerate.
        params = params_2d_smooth()
        profile = grid.count_profile(params, grid.MAX_RADIUS)
        assert profile[-1] == raw_count(params, grid.index_set(params.weights, grid.MAX_RADIUS))
        assert profile[-1] > grid._MAX_RAW_POINTS

    def test_radius_cap(self):
        with pytest.raises(ValueError):
            grid.build_plan(params_1d_midpoints(), grid.MAX_RADIUS + 1)


class TestPlanMemory:
    # The plan-2d benchmark config: radius 12, 196,614 points, 3.0 MiB of keys.
    @staticmethod
    def traced(build):
        tracemalloc.start()
        try:
            out = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return out, peak

    @pytest.fixture(scope="class")
    def plan_2d(self):
        params = grid.derive_params(2, (2.0, 1.5), 2.0, 2.0, 2.0, (1, 0))
        radius = grid.choose_radius(params, 262144)
        plan, peak = self.traced(lambda: grid.build_plan(params, radius))
        assert (radius, plan.n_actual) == (12, 196_614)
        return plan, peak

    def test_plan_holds_no_point_array(self, plan_2d):
        # A plan is its level set: build_plan's traced peak measured 0.012
        # times the key bytes, and 1.09 times when the plan stored its keys.
        plan, peak = plan_2d
        assert peak < 0.05 * plan.keys.nbytes

    def test_keys_are_filled_in_place(self, plan_2d):
        # `plan.keys` fills one (n, d) array level by level, so its traced
        # peak stays near the key bytes: measured 1.09 times them, and 2.01
        # times when each level's block was built on its own and the blocks
        # then concatenated.
        keys, peak = self.traced(lambda: plan_2d[0].keys)
        assert peak <= 1.15 * keys.nbytes

    def test_floats_are_filled_in_place(self, plan_2d):
        # `plan.floats()` fills its one float array like `keys` and scales it
        # in place: measured 1.09 times the float bytes, and 2.02 times when
        # it built the key array first and then its float copy.
        plan = plan_2d[0]
        floats, peak = self.traced(plan.floats)
        assert peak <= 1.15 * floats.nbytes
        assert np.array_equal(floats, plan.keys * 2.0**-grid.KEY_BITS)

    def test_d1_level_is_filled_in_runs_of_cells(self, monkeypatch):
        # At d=1 one level holds half the points; `_fill` builds its keys one
        # `_cell_runs` run at a time.  With 256-cell runs the traced peak
        # measured 1.13 times the float bytes, and 2.35 times when each
        # level's whole key table was built before it was assigned.
        params = grid.derive_params(1, (2.0,), 2.0, 2.0, math.inf, (0,))
        plan = grid.build_plan(params, grid.choose_radius(params, 30000))
        want_keys, want = plan.keys, plan.floats()
        monkeypatch.setattr(grid, "_BLOCK", 256 * 8 * 3)
        floats, peak = self.traced(plan.floats)
        assert plan.n_actual == 24_573
        assert peak <= 1.2 * floats.nbytes
        assert np.array_equal(floats, want)
        assert np.array_equal(plan.keys, want_keys)

    @pytest.mark.parametrize(
        "args, budget, bound",
        [
            # 24,573 points, one level of 4,096 cells: measured 47.6 bytes a
            # point, and 131.7 when every coordinate went through a Python
            # string and every level's table was kept to the end.
            ((1, (2.0,), 2.0, 2.0, math.inf, (0,)), 30000, 80),
            # 233,478 points over many small levels: measured 5.1 bytes a
            # point, and 9.9 with Python strings.
            ((2, (2.0, 1.5), 2.0, 2.0, math.inf, (0, 0)), 262144, 8),
        ],
        ids=["d1", "d2"],
    )
    def test_write_plan_holds_one_level_of_tables(self, args, budget, bound):
        params = grid.derive_params(*args)
        plan = grid.build_plan(params, grid.choose_radius(params, budget))

        class Discard:
            def write(self, text):
                pass

        _, peak = self.traced(lambda: grid.write_plan(plan, Discard()))
        assert peak <= bound * plan.n_actual

    @pytest.mark.parametrize("name, radius", [("d1_mid", 4), ("d2_aniso", 4), ("d3", 2)])
    def test_keys_are_built_on_each_access(self, name, radius):
        plan = grid.build_plan(PARAM_SETS[name](), radius)
        first, second = plan.keys, plan.keys
        assert first is not second and not np.shares_memory(first, second)
        assert np.array_equal(first, second)
        assert first.shape == (plan.n_actual, plan.params.d)

    @pytest.mark.parametrize("name, radius", [("d1_mid", 4), ("d2_aniso", 4), ("d3", 2)])
    def test_describe_names_each_point_at_its_floats(self, name, radius):
        plan = grid.build_plan(PARAM_SETS[name](), radius)
        floats = plan.floats()
        for i in range(plan.n_actual):
            at = re.match(rf"point {i} at (\[[^]]*\]) \(level ", plan.describe(i)).group(1)
            assert json.loads(at) == floats[i].tolist()


class TestPlanOracle:
    """`build_plan` against a brute-force Fraction enumeration."""

    @pytest.mark.parametrize(
        "name, radius", [("d1_mid", 4), ("d2_smooth", 3), ("d2_aniso", 4), ("d3", 2)]
    )
    def test_points_order_provenance_and_gather(self, name, radius):
        params = PARAM_SETS[name]()
        plan = grid.build_plan(params, radius)
        levels, seen = oracle_plan(params, radius)
        assert list(plan.levels) == levels
        assert len(seen) == raw_count(params, levels)
        assert key_fractions(plan) == list(seen)
        tags = plan_tags(plan)
        assert tags == list(seen.values())
        for i in (0, plan.n_actual // 2, plan.n_actual - 1):
            li, cell, idx = tags[i]
            assert plan.describe(i).endswith(f"(level {levels[li]}, cell {cell}, node {idx})")
        # Each level's rows reshape to its (cell, node) table.
        index = {pt: n for n, pt in enumerate(seen)}
        for li, lvl in enumerate(levels):
            shape = tuple(1 << k for k in lvl) + tuple(dg + 1 for dg in params.degrees)
            table = np.arange(plan.bounds[li], plan.bounds[li + 1]).reshape(shape)
            for cell in product(*[range(1 << k) for k in lvl]):
                for idx in product(*[range(dg + 1) for dg in params.degrees]):
                    pt = tuple(
                        (c + nodes_exact(dg)[i]) / (1 << k)
                        for k, c, i, dg in zip(lvl, cell, idx, params.degrees)
                    )
                    assert table[cell + idx] == index[pt]

    def test_floats_are_correctly_rounded(self):
        plan = grid.build_plan(params_3d(), 2)
        want = np.array([[float(c) for c in pt] for pt in key_fractions(plan)])
        assert np.array_equal(plan.floats(), want)


class TestCombinationWeights:
    def test_one_function(self):
        assert recovery.combination_weights is grid.combination_weights

    def test_full_box_collapses_to_top_level(self):
        levels = [(k1, k2) for k1 in range(3) for k2 in range(4)]
        w = grid.combination_weights(levels)
        assert w == {(2, 3): 1}

    def test_simplex_weights_cover_boundary_only(self):
        levels = grid.index_set((1.0, 1.0), 4)
        w = grid.combination_weights(levels)
        assert all(sum(lvl) >= 3 for lvl in w)
        assert sum(w.values()) == 1  # weights telescope to one copy of the data

    def test_empty_set_refused(self):
        with pytest.raises(ValueError, match="^levels: expected a nonempty level set$"):
            grid.combination_weights([])

    def test_levels_of_one_dimension(self):
        message = "level (1,) must have 2 entries, one per axis"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            grid.combination_weights([(0, 0), (1,)])


class TestChooseRadius:
    def test_example_budget_seven(self):
        assert grid.choose_radius(params_1d_midpoints(), 7) == 2

    def test_monotone_in_budget(self):
        params = grid.derive_params(2, (2.0, 2.0), 2.0, 2.0, math.inf, (0, 0))
        rs = [grid.choose_radius(params, n) for n in (64, 256, 1024, 4096)]
        assert rs == sorted(rs)

    def test_maximality_contract(self):
        params = grid.derive_params(2, (2.0, 2.0), 2.0, 2.0, math.inf, (0, 0))
        for n in (200, 1000, 5000):
            r = grid.choose_radius(params, n)
            assert grid.build_plan(params, r).n_actual <= n
            assert grid.build_plan(params, r + 1).n_actual > n

    def test_scan_stops_at_the_enumerable_limit(self, monkeypatch):
        # Radius 8 has 36,873 raw points, past the lowered limit; radius 7
        # has 16,137 and fits, so large budgets get radius 7, not a refusal.
        monkeypatch.setattr(grid, "_MAX_RAW_POINTS", 20_000)
        params = grid.derive_params(2, (2.0, 2.0), 2.0, 2.0, math.inf, (0, 0))
        assert grid.choose_radius(params, 18_000) == 7
        assert grid.choose_radius(params, 10**9) == 7

    def test_first_radius_beyond_the_enumerable_limit(self, monkeypatch):
        # Radius 1 has 3 points: no radius fits the limit, whatever the budget.
        monkeypatch.setattr(grid, "_MAX_RAW_POINTS", 2)
        with pytest.raises(ValueError, match="3 raw points, beyond the enumerable limit"):
            grid.choose_radius(params_1d_midpoints(), 100)

    def test_budget_below_minimum(self):
        with pytest.raises(ValueError, match="minimum plan size"):
            grid.choose_radius(params_1d_midpoints(), 2)

    @pytest.mark.parametrize("name", sorted(PARAM_SETS))
    def test_exact_at_budget_edges(self, name):
        params = PARAM_SETS[name]()
        counts = grid.count_profile(params, 6)
        for r in range(2, 7):
            assert grid.choose_radius(params, counts[r - 1]) == r
            assert grid.choose_radius(params, counts[r - 1] - 1) == r - 1
        with pytest.raises(ValueError, match=f"minimum plan size {counts[0]}"):
            grid.choose_radius(params, counts[0] - 1)


# (radius, n_actual, bytes, sha256) of `write_plan` output, pinned from the
# per-point implementation that the int64 key arrays replaced.
GOLDEN_PLANS = {
    "d1_mid": (4, 31, 354, "76a7700e57929fc85b7408c3899d449bbc6c84d895dccbca414bf88ff6c35eb3"),
    "d2_aniso": (6, 2118, 128510, "06c6b1aa0ebd76030110717170fe42cc4f04f9ed9764bb4d509f864b17632dc7"),
    "d3": (3, 702, 59220, "be319e65ae58c1a7064a6e301c21d31469cef6c5fb27ea6088eaa78816a43547"),
}


class TestSerialization:
    def test_line_format(self):
        plan = grid.build_plan(params_1d_midpoints(), 2)
        buf = io.StringIO()
        grid.write_plan(plan, buf)
        lines = buf.getvalue().strip().split("\n")
        assert len(lines) == plan.n_actual
        first = lines[0].split("\t")
        assert len(first) == 4
        level, cell, idx, coords = first
        assert level == "0" and cell == "0" and idx == "0"
        num, den = coords.split("/")
        assert Fraction(int(num), int(den)) == Fraction(1, 2)

    def test_deterministic_output(self):
        params = grid.derive_params(2, (1.5, 1.5), 2.0, 2.0, math.inf, (0, 0))
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            grid.write_plan(grid.build_plan(params, 3), buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]

    @pytest.mark.parametrize("name", sorted(GOLDEN_PLANS))
    def test_golden_bytes(self, name):
        radius, n, size, digest = GOLDEN_PLANS[name]
        plan = grid.build_plan(PARAM_SETS[name](), radius)
        buf = io.StringIO()
        grid.write_plan(plan, buf)
        data = buf.getvalue().encode()
        assert (plan.n_actual, len(data)) == (n, size)
        assert hashlib.sha256(data).hexdigest() == digest

    def test_lines_match_oracle(self):
        # Every line: provenance, then the exact coordinates as reduced fractions.
        # At d=4 each field is placed along axes j and d + j of an 8-axis
        # level; radius 3 brings levels refined along two axes at once.
        for params, radius in ((params_3d(), 2), (params_4d(), 3)):
            levels, seen = oracle_plan(params, radius)
            buf = io.StringIO()
            grid.write_plan(grid.build_plan(params, radius), buf)
            lines = buf.getvalue().split("\n")
            assert lines.pop() == ""
            for line, (pt, (li, cell, idx)) in zip(lines, seen.items(), strict=True):
                lvl_s, cell_s, idx_s, coords = line.split("\t")
                assert lvl_s == ",".join(map(str, levels[li]))
                assert cell_s == ",".join(map(str, cell))
                assert idx_s == ",".join(map(str, idx))
                assert coords == ",".join(f"{c.numerator}/{c.denominator}" for c in pt)

    @pytest.mark.parametrize("block", [1, 300, 4096, grid._BLOCK])
    @pytest.mark.parametrize("name", sorted(GOLDEN_PLANS))
    def test_block_split_keeps_bytes(self, monkeypatch, name, block):
        # Blocks of one line, of a few cells along an inner axis, of whole
        # axis-0 cells, and of whole levels all give the pinned bytes, and no
        # write is longer than a block (or one line, where a line is longer).
        # The coordinate tables are rendered from as few as one cell of keys
        # at a time.
        monkeypatch.setattr(grid, "_BLOCK", block)
        radius, n, size, digest = GOLDEN_PLANS[name]

        class Writes(list):
            write = list.append

        writes = Writes()
        grid.write_plan(grid.build_plan(PARAM_SETS[name](), radius), writes)
        data = "".join(writes).encode()
        assert len(data) == size
        assert hashlib.sha256(data).hexdigest() == digest
        longest = max(len(line) + 1 for line in data.decode().split("\n")[:-1])
        assert max(map(len, writes)) <= max(block, longest)
        if block == 1:
            assert len(writes) == n


class TestDigits:
    EDGES = [0, 9, 10, 99, 100, 10**18 - 1, 10**18, 2**62]

    @staticmethod
    def rows(values):
        table = grid._digits(values)
        assert table.dtype == np.uint8
        assert table.shape == (*values.shape, len(str(int(values.max()))))
        return [row[row != 0].tobytes() for row in table.reshape(-1, table.shape[-1])]

    @pytest.mark.parametrize("value", EDGES)
    def test_digit_count_edges(self, value):
        # Alone, and beside 0 so that it is the widest of its table.
        assert self.rows(np.array([value])) == [str(value).encode()]
        assert self.rows(np.array([0, value])) == [b"0", str(value).encode()]

    def test_right_aligned_with_zero_bytes(self):
        table = grid._digits(np.array([[7, 1234], [0, 56]]))
        assert table.shape == (2, 2, 4)
        assert table.tobytes().replace(b"\0", b".") == b"...71234...0..56"

    def test_random_int64(self):
        rng = np.random.default_rng(20)
        values = np.concatenate([self.EDGES, rng.integers(0, 2**62, 2000, endpoint=True)])
        assert self.rows(values) == [str(v).encode() for v in values.tolist()]


class TestKeyRendering:
    def test_normalization(self):
        # 8/16 = 1/2 at level 3, rendered reduced.
        plan = grid.build_plan(params_1d_midpoints(), 1)
        buf = io.StringIO()
        grid.write_plan(plan, buf)
        assert buf.getvalue() == "0\t0\t0\t1/2\n1\t0\t0\t1/4\n1\t1\t0\t3/4\n"
        assert plan.keys[:, 0].tolist() == [1 << 61, 1 << 60, 3 << 60]

    def test_float_roundtrip_exact(self):
        plan = grid.build_plan(params_1d_midpoints(), 3)
        assert plan.floats()[:, 0].tolist() == [
            float(f) for (f,) in key_fractions(plan)
        ]
        assert plan.floats()[3, 0] == 1 / 8


def _plan_2d(deriv=(1, 0)):
    return grid.build_plan(grid.derive_params(2, (2.0, 2.0), 2.0, 2.0, 2.0, deriv), 2)


class TestIntegralArguments:
    """A non-integral derivative order or radius is refused, never truncated;
    the message names the value, and the axis of a derivative order."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (
                lambda: recovery.reconstruct(np.zeros(_plan_2d().n_actual), _plan_2d(), (1.7, 0)),
                "axis 0: derivative order: expected an integer, got 1.7",
            ),
            (
                lambda: grid.derive_params(2, (2.0, 2.0), 2.0, 2.0, 2.0, (0, 0.5)),
                "axis 1: derivative order: expected an integer, got 0.5",
            ),
            (
                lambda: functions.get_function("trig", 2).deriv((1.5, 0), [(0.5, 0.5)]),
                "axis 0: derivative order: expected an integer, got 1.5",
            ),
            (
                lambda: grid.build_plan(params_2d_smooth(), 3.9),
                "radius: expected an integer, got 3.9",
            ),
            (
                lambda: grid.build_plan(params_2d_smooth(), math.nan),
                "radius: expected an integer, got nan",
            ),
            (
                lambda: grid.derive_params(2, (2.0, 2.0), 2.0, 2.0, 2.0, (True, 0)),
                "axis 0: derivative order: expected an integer, got True",
            ),
            (
                lambda: functions.get_function("trig", 2).deriv((0, -1), [(0.5, 0.5)]),
                "axis 1: derivative order must be an integer >= 0, got -1",
            ),
            (
                lambda: grid.choose_radius(params_2d_smooth(), 1024.5),
                "budget: expected an integer, got 1024.5",
            ),
            (
                lambda: grid.choose_radius(params_2d_smooth(), math.nan),
                "budget: expected an integer, got nan",
            ),
            (
                lambda: grid.choose_radius(params_2d_smooth(), math.inf),
                "budget: expected an integer, got inf",
            ),
            (
                lambda: grid.choose_radius(params_2d_smooth(), True),
                "budget: expected an integer, got True",
            ),
        ],
        ids=[
            "reconstruct", "derive_params", "function_deriv", "build_plan", "build_plan_nan",
            "bool_order", "negative_order", "budget_fraction", "budget_nan", "budget_inf",
            "budget_bool",
        ],
    )
    def test_refused_with_value_and_axis(self, call, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()

    def test_integral_floats_are_accepted(self):
        plan = grid.build_plan(params_2d_smooth(), 3.0)
        assert np.array_equal(plan.keys, grid.build_plan(params_2d_smooth(), 3).keys)
        assert grid.derive_params(2, (2.0, 2.0), 2.0, 2.0, 2.0, (1.0, 0)).deriv == (1, 0)
