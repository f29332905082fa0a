"""Assembling and measuring the recovery operator.

`sample` evaluates the target function once per plan point, at the plan's
exact keys converted to floats, and returns a `SampleSet`: one value per
point, aligned with the plan's key array.  `reconstruct` builds the linear
approximant

    x  ->  sum over plan levels of  D^deriv (surplus at level k) (x),

which, regrouped over the downward-closed level set, is a short weighted sum
of level operators (the classic combination trick): the weight of level k is
``sum over masks e of (-1)**|e| [k + e in set]`` and vanishes for all levels
away from the upper boundary of the set.  Each surviving level is evaluated
as a full tensor grid: its local interpolants form one monomial coefficient
table, built on first use from the level's contiguous run of sample values,
which come in (cell, node) order.  Points are evaluated in fixed-size
chunks; per level and blending offset a chunk gathers one block from the
table and reduces it one axis at a time, and per-axis cell indices and
spline factors are shared by all levels that agree on that axis.

Points must lie in the closed unit cube.  Blending splines take right limits
at interior knots; at the right edge ``x_j = 1`` they take the left limit,
so the value there is the limit from inside the cube.

`lq_error` measures distances with composite tensor Gauss-Legendre quadrature
on a dyadic cell partition (finite q) or on a dense interior lattice united
with the quadrature nodes (q = infinity).  Rules beyond a fixed point count
are refused before anything is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .bspline import bspline_deriv_many
from .grid import RecoveryPlan
from .interp import differentiate, horner, monomial_coeffs

Array = np.ndarray
PointFn = Callable[[Array], Array]


# -- sampling ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Function values, one per plan point: ``values[i]`` belongs to ``plan.keys[i]``."""

    plan: RecoveryPlan
    values: Array

    def __len__(self) -> int:
        return len(self.values)

    @staticmethod
    def from_array(plan: RecoveryPlan, values: Sequence[float]) -> "SampleSet":
        """Wrap a value vector aligned with the plan's points.

        Raises ValueError on a vector of the wrong length, or naming the
        first row, with its point, whose value is not finite.
        """
        vals = np.array(values, dtype=float).reshape(-1)
        if len(vals) != plan.n_actual:
            raise ValueError(
                f"value vector has {len(vals)} entries; the plan has {plan.n_actual} points"
            )
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            raise ValueError(
                f"value {vals[bad[0]]} at row {bad[0]} is not finite: "
                f"evaluation failed at {plan.describe(bad[0])}"
            )
        return SampleSet(plan, vals)


def sample(f: PointFn, plan: RecoveryPlan) -> SampleSet:
    """Evaluate ``f`` once per plan point.

    ``f`` receives a single (n, d) array, so an instrumented callable sees
    exactly ``plan.n_actual`` rows.  A wrong value count aborts, and so does
    a non-finite value, naming the offending point with its coordinates and
    provenance.
    """
    return SampleSet.from_array(plan, f(plan.floats()))


# -- combination weights -------------------------------------------------------------


def combination_weights(levels: Sequence[tuple[int, ...]]) -> dict[tuple[int, ...], int]:
    """Per-level weights that turn a sum of surpluses into a sum of level operators.

    Only levels near the upper boundary of the (downward-closed) set survive.
    """
    lset = set(levels)
    d = len(next(iter(lset)))
    out: dict[tuple[int, ...], int] = {}
    for lvl in lset:
        w = 0
        for mask in product((0, 1), repeat=d):
            if tuple(k + e for k, e in zip(lvl, mask)) in lset:
                w += (-1) ** sum(mask)
        if w:
            out[lvl] = w
    return out


# -- the approximant -----------------------------------------------------------------


# Points evaluated per batch.  Every temporary of an evaluation is a few
# arrays of this length (times the coefficient count of one cell), so memory
# stays bounded whatever the number of points.
_CHUNK = 8_192


class _ChunkAxes:
    """Per-axis quantities of one point chunk.

    Each depends on a single axis's level only, so every combination level
    sharing that axis level reuses it.
    """

    def __init__(self, pts: Array, order: Sequence[int]):
        self.pts = pts
        self.order = order
        self._edges = [np.flatnonzero(pts[:, j] == 1.0) for j in range(pts.shape[1])]
        self._cells: dict[tuple[int, int], tuple[Array, Array, Array]] = {}
        self._anchors: dict[tuple[int, int, int], tuple[Array, Array]] = {}
        self._splines: dict[tuple[int, int, int, int], Array] = {}

    def cells(self, j: int, k: int) -> tuple[Array, Array, Array]:
        """Scaled coordinate, cell index and local coordinate; the right edge
        ``x_j = 1`` belongs to the last cell, at local coordinate 1."""
        got = self._cells.get((j, k))
        if got is None:
            scaled = self.pts[:, j] * float(1 << k)
            cell = np.clip(np.floor(scaled).astype(np.int64), 0, (1 << k) - 1)
            got = self._cells[(j, k)] = (scaled, cell, scaled - cell)
        return got

    def anchor(self, j: int, k: int, offset: int) -> tuple[Array, Array]:
        """Cell whose polynomial the translate at ``offset`` carries, and the
        coordinate relative to that cell."""
        if offset == 0:
            return self.cells(j, k)[1:]
        got = self._anchors.get((j, k, offset))
        if got is None:
            scaled, cell, _ = self.cells(j, k)
            anchor = np.maximum(cell + offset, 0)
            got = self._anchors[(j, k, offset)] = (anchor, scaled - anchor)
        return got

    def spline(self, j: int, k: int, split: int, offset: int) -> Array:
        """``split``-th derivative of the blending spline translated by ``offset``.

        Right limits at interior knots; at the cube's right edge ``x_j = 1``
        the left limit, taken through the symmetry ``psi(u) = psi(m+1-u)``.
        """
        got = self._splines.get((j, k, split, offset))
        if got is None:
            m = self.order[j]
            local = self.cells(j, k)[2]
            got = bspline_deriv_many(m, split, local - offset)
            edge = self._edges[j]
            if edge.size:
                got[edge] = (-1) ** split * bspline_deriv_many(
                    m, split, m + 1 + offset - local[edge]
                )
            self._splines[(j, k, split, offset)] = got
        return got


class Approximant:
    """The reconstructed derivative, evaluable anywhere in the closed unit cube.

    Linear in the samples by construction.  Every surviving combination level
    is evaluated as a full tensor grid: its local interpolants are one
    monomial coefficient table, ``(degrees + 1)`` coefficients for each of
    its cells, built on first use from the sample values.  Points go through
    in chunks of ``_CHUNK``; per level and blending offset a point costs one
    table gather and ``deriv[j] + 1`` Horner steps along each axis j,
    independent of the total sample count.  Points must be finite and lie in
    the closed unit cube.

    Evaluation is deterministic and effectively read-only: a level's table
    is stored only once it is fully built, so concurrent evaluation can at
    worst duplicate a build, never see a partial table or change a result.
    """

    def __init__(self, samples: SampleSet, plan: RecoveryPlan, deriv: Sequence[int]):
        params = plan.params
        deriv = tuple(int(r) for r in deriv)
        if len(deriv) != params.d or any(r < 0 for r in deriv):
            raise ValueError(f"bad derivative index {deriv}")
        if any(r > dg for r, dg in zip(deriv, params.degrees)):
            raise ValueError(
                f"derivative {deriv} exceeds interpolation degrees {params.degrees}"
            )
        if samples.plan is not plan and not np.array_equal(samples.plan.keys, plan.keys):
            raise ValueError("sample set does not match the plan's points")
        self.plan = plan
        self.deriv = deriv
        self.degrees = params.degrees
        self._values = samples.values
        self._rows = {
            level: (plan.bounds[li], plan.bounds[li + 1]) for li, level in enumerate(plan.levels)
        }
        self._weights = combination_weights(plan.levels)
        self._tables: dict[tuple[int, ...], Array] = {}
        # Each axis blends with splines of order deriv[j], the smallest
        # admissible; those covering a point sit at offsets -deriv[j]..0.
        self._offsets = list(product(*[range(-r, 1) for r in deriv]))

    # ---- local polynomial coefficients, gathered from the samples

    def _level_table(self, level: tuple[int, ...]) -> Array:
        """Monomial coefficients of every cell of one level.

        Shape ``(*(degrees + 1), n_cells)``, cells in C order, so a gather
        of m cells yields one contiguous row of m values per coefficient.
        """
        table = self._tables.get(level)
        if table is None:
            d = len(level)
            a, b = self._rows[level]
            nodes = tuple(dg + 1 for dg in self.degrees)
            # (cell_0, ..., cell_{d-1}, node_0, ..., node_{d-1}) -> (node_0, ..., cell)
            c = self._values[a:b].reshape(tuple(1 << k for k in level) + nodes).transpose(
                list(range(d, 2 * d)) + list(range(d))
            ).reshape(nodes + (-1,))
            table = np.ascontiguousarray(monomial_coeffs(c, self.degrees))
            self._tables[level] = table
        return table

    # ---- evaluation

    def __call__(self, x) -> Array:
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        d = self.plan.params.d
        if pts.ndim != 2 or pts.shape[1] != d:
            raise ValueError("point dimension mismatch")
        bad = np.flatnonzero(~np.all((pts >= 0.0) & (pts <= 1.0), axis=1))
        if bad.size:
            raise ValueError(
                f"evaluation point {pts[bad[0]].tolist()} (row {bad[0]}) is not "
                f"finite or lies outside [0, 1]^{d}"
            )
        out = np.empty(len(pts))
        for start in range(0, len(pts), _CHUNK):
            chunk = _ChunkAxes(pts[start : start + _CHUNK], self.deriv)
            acc = np.zeros(len(chunk.pts))
            for level in sorted(self._weights):
                acc += self._weights[level] * self._level_deriv(level, chunk)
            out[start : start + _CHUNK] = acc
        return out

    def _level_deriv(self, level: tuple[int, ...], chunk: _ChunkAxes) -> Array:
        """``D^deriv`` of one level operator at the chunk's points.

        Per offset, the gathered block is reduced from the last axis to the
        first: by a Horner step where ``r = deriv[j]`` is 0 (the order-0
        spline is 1 on the closed cell), else by the product rule,
        ``sum_s comb(r, s) 2**(k r) psi^(s) * horner(D^(r-s) block)``.
        """
        table = self._level_table(level)
        d = len(level)
        dims = tuple(1 << k for k in level)
        out = np.zeros(len(chunk.pts))
        for offset in self._offsets:
            anchors, ts = zip(*(chunk.anchor(j, level[j], offset[j]) for j in range(d)))
            block = np.take(table, np.ravel_multi_index(anchors, dims), axis=-1)
            for j in reversed(range(d)):
                k, r = level[j], self.deriv[j]
                if r == 0:
                    block = horner(block, j, ts[j])
                    continue
                block = sum(
                    (math.comb(r, s) * 2.0 ** (k * r)) * chunk.spline(j, k, s, offset[j])
                    * horner(differentiate(block, j, r - s), j, ts[j])
                    for s in range(r + 1)
                )
            out += block
        return out


def reconstruct(samples: SampleSet, plan: RecoveryPlan, deriv: Sequence[int]) -> Approximant:
    """Build the linear approximant of ``D^deriv f`` from plan samples."""
    return Approximant(samples, plan, deriv)


# -- error measurement ----------------------------------------------------------------


@dataclass(frozen=True)
class Quadrature:
    """Composite tensor Gauss-Legendre rule on a dyadic cell partition.

    ``cells_log2`` dyadic splits per axis (default scales down with the
    dimension), ``points_per_cell`` Gauss points per axis per cell, and
    ``sup_points`` lattice points per axis for sup-norm estimation.
    """

    d: int
    cells_log2: int | None = None
    points_per_cell: int = 4
    sup_points: int | None = None

    def __post_init__(self) -> None:
        for name, low in (("d", 1), ("cells_log2", 0), ("points_per_cell", 1), ("sup_points", 1)):
            value = getattr(self, name)
            if value is None and name in ("cells_log2", "sup_points"):
                continue
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
                raise ValueError(f"Quadrature.{name} must be an integer >= {low}, got {value!r}")

    def resolved_cells_log2(self) -> int:
        if self.cells_log2 is not None:
            return self.cells_log2
        return math.ceil(12 / self.d)

    def resolved_sup_points(self) -> int:
        if self.sup_points is not None:
            return self.sup_points
        return 2**10 + 1 if self.d <= 2 else 2**6 + 1


@lru_cache(maxsize=8)
def _axis_rule(cells_log2: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    gx, gw = np.polynomial.legendre.leggauss(k)
    width = 0.5**cells_log2
    starts = np.arange(2**cells_log2) * width
    nodes = (starts[:, None] + (gx[None, :] + 1.0) * (width / 2.0)).ravel()
    weights = np.tile(gw * (width / 2.0), 2**cells_log2)
    return nodes, weights


def _tensor_rule(quad: Quadrature) -> tuple[Array, Array]:
    nodes, weights = _axis_rule(quad.resolved_cells_log2(), quad.points_per_cell)
    grids = np.meshgrid(*([nodes] * quad.d), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*([weights] * quad.d), indexing="ij")
    w = np.ones(len(pts))
    for g in wgrids:
        w *= g.ravel()
    return pts, w


# Most points one rule or sup-norm lattice of `lq_error` may have.  Each
# point costs d coordinates and a value of both functions at once; the rules
# in use have at most about 1.05M points (d=4 default rule, d=2 lattice).
_MAX_RULE_POINTS = 1 << 21


def _check_rule_size(d: int, count: int, field: str) -> None:
    if count > _MAX_RULE_POINTS:
        raise ValueError(
            f"quadrature at d={d} needs {count} points, above the limit of "
            f"{_MAX_RULE_POINTS}; lower Quadrature.{field}"
        )


def lq_error(g: PointFn, h: PointFn, q: float, quad: Quadrature) -> float:
    """L_q distance of two point-evaluable functions over the unit cube.

    Finite q: composite Gauss-Legendre.  q = infinity: maximum of |g - h|
    over an interior midpoint lattice united with the quadrature nodes.
    A rule or lattice beyond ``_MAX_RULE_POINTS`` points is refused with a
    ValueError before anything is allocated.
    """
    if not q >= 1:
        raise ValueError(f"q must lie in [1, inf], got {q!r}")
    per_axis = quad.points_per_cell << quad.resolved_cells_log2()
    _check_rule_size(quad.d, per_axis**quad.d, "cells_log2")
    if math.isinf(q):
        _check_rule_size(quad.d, quad.resolved_sup_points() ** quad.d, "sup_points")
    pts, w = _tensor_rule(quad)
    diff = np.abs(np.asarray(g(pts), dtype=float) - np.asarray(h(pts), dtype=float))
    if math.isinf(q):
        n = quad.resolved_sup_points()
        axis = (np.arange(n) + 0.5) / n
        grids = np.meshgrid(*([axis] * quad.d), indexing="ij")
        lattice = np.stack([gr.ravel() for gr in grids], axis=-1)
        dense = np.abs(
            np.asarray(g(lattice), dtype=float) - np.asarray(h(lattice), dtype=float)
        )
        return float(max(diff.max(initial=0.0), dense.max(initial=0.0)))
    return float(np.sum(w * diff**q) ** (1.0 / q))
