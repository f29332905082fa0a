"""Assembling and measuring the recovery operator.

`sample` evaluates the target function once per plan point, at the plan's
exact keys converted to floats, and returns the checked value vector: one
float per point, aligned with the plan's key array.  `reconstruct` builds
the linear approximant

    x  ->  sum over plan levels of  D^deriv (surplus at level k) (x),

which, regrouped over the downward-closed level set, is a short weighted sum
of level operators (the classic combination trick): the weight of level k is
``sum over masks e of (-1)**|e| [k + e in set]`` and vanishes for all levels
away from the upper boundary of the set.  Each surviving level is evaluated
as a full tensor grid: its local interpolants form one monomial coefficient
table, built at construction from the level's contiguous run of sample
values, which come in (cell, node) order.  Points are evaluated in
fixed-size chunks; per level and blending offset a chunk gathers one block
from the table and reduces it one axis at a time, and one per-axis basis
(anchor cells, local coordinates, spline factors) is shared by all levels
that agree on that axis.

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
from functools import reduce
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .bspline import bspline_derivative
from .grid import RecoveryPlan
from .interp import differentiate, horner, monomial_coeffs

Array = np.ndarray
PointFn = Callable[[Array], Array]


# -- sampling ----------------------------------------------------------------------


def _checked(plan: RecoveryPlan, values: Sequence[float]) -> Array:
    """A float copy of a value vector aligned with the plan's points.

    Raises ValueError on a vector of the wrong length, or naming the first
    row, with its point, whose value is not finite.
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
    return vals


def sample(f: PointFn, plan: RecoveryPlan) -> Array:
    """Evaluate ``f`` once per plan point; ``values[i]`` belongs to ``plan.keys[i]``.

    ``f`` receives a single (n, d) array, so an instrumented callable sees
    exactly ``plan.n_actual`` rows.  A wrong value count aborts, and so does
    a non-finite value, naming the offending point with its coordinates and
    provenance.
    """
    return _checked(plan, f(plan.floats()))


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


def _axis_basis(x: Array, k: int, r: int) -> list[tuple[Array, Array, list[Array]]]:
    """The basis of one axis at level ``k`` for the coordinates ``x``.

    Per blending offset ``o = -r..0``: the anchor cell whose polynomial the
    translate at ``o`` carries, the coordinate relative to that cell, and for
    ``s = 0..r`` the product-rule factor ``comb(r, s) 2**(k r) psi^(s)``
    (none when ``r = 0``, where the order-0 spline is 1 on the closed cell).
    It depends on a single axis's level only, so every combination level
    sharing that axis level reuses it.

    The right edge ``x = 1`` belongs to the last cell, at local coordinate 1.
    Splines take right limits at interior knots; at the right edge the left
    limit, through the symmetry ``psi(u) = psi(r+1-u)``.
    """
    scaled = x * float(1 << k)
    cell = np.clip(np.floor(scaled).astype(np.int64), 0, (1 << k) - 1)
    local = scaled - cell
    edge = np.flatnonzero(x == 1.0)
    basis = []
    for o in range(-r, 1):
        factors = []
        for s in range(r + 1) if r else ():
            psi = bspline_derivative(r, s, local - o)
            if edge.size:
                psi[edge] = (-1) ** s * bspline_derivative(r, s, r + 1 + o - local[edge])
            factors.append((math.comb(r, s) * 2.0 ** (k * r)) * psi)
        anchor = np.maximum(cell + o, 0)
        basis.append((anchor, scaled - anchor, factors))
    return basis


class Approximant:
    """The reconstructed derivative, evaluable anywhere in the closed unit cube.

    Linear in the samples by construction.  Every surviving combination level
    is evaluated as a full tensor grid: its local interpolants are one
    monomial coefficient table, ``(degrees + 1)`` coefficients for each of
    its cells, built at construction from the value vector (checked like
    `sample`'s).  Points go through in chunks of ``_CHUNK``; per level and
    blending offset a point costs one table gather and ``deriv[j] + 1``
    Horner steps along each axis j, independent of the total sample count.
    Points must be finite and lie in the closed unit cube.  Evaluation is
    deterministic and read-only.
    """

    def __init__(self, values: Sequence[float], plan: RecoveryPlan, deriv: Sequence[int]):
        params = plan.params
        deriv = tuple(int(r) for r in deriv)
        if len(deriv) != params.d or any(r < 0 for r in deriv):
            raise ValueError(f"bad derivative index {deriv}")
        if any(r > dg for r, dg in zip(deriv, params.degrees)):
            raise ValueError(
                f"derivative {deriv} exceeds interpolation degrees {params.degrees}"
            )
        values = _checked(plan, values)
        self.plan = plan
        self.deriv = deriv
        self.degrees = params.degrees
        # One (level, weight, table) per surviving level, in sorted level
        # order.  A table holds the monomial coefficients of every cell of its
        # level, shape ``(*(degrees + 1), n_cells)``, cells in C order, so a
        # gather of m cells yields one contiguous row of m values per
        # coefficient.
        weights = combination_weights(plan.levels)
        nodes = tuple(dg + 1 for dg in self.degrees)
        d = params.d
        self._levels = []
        for li, level in enumerate(plan.levels):
            if level not in weights:
                continue
            # (cell_0, ..., cell_{d-1}, node_0, ..., node_{d-1}) -> (node_0, ..., cell)
            c = values[plan.bounds[li] : plan.bounds[li + 1]].reshape(
                tuple(1 << k for k in level) + nodes
            ).transpose(list(range(d, 2 * d)) + list(range(d))).reshape(nodes + (-1,))
            table = np.ascontiguousarray(monomial_coeffs(c, self.degrees))
            self._levels.append((level, weights[level], table))
        # The (axis, level) pairs whose basis a chunk needs.
        self._axis_levels = sorted(
            {(j, k) for level, _, _ in self._levels for j, k in enumerate(level)}
        )
        # Each axis blends with splines of order deriv[j], the smallest
        # admissible; those covering a point sit at offsets -deriv[j]..0.
        self._offsets = list(product(*[range(-r, 1) for r in deriv]))

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
            out[start : start + _CHUNK] = self._chunk(pts[start : start + _CHUNK])
        return out

    def _chunk(self, pts: Array) -> Array:
        """The weighted level sum at one chunk's points; its bases die on return."""
        bases = {(j, k): _axis_basis(pts[:, j], k, self.deriv[j]) for j, k in self._axis_levels}
        acc = np.zeros(len(pts))
        for level, weight, table in self._levels:
            axes = [bases[j, k] for j, k in enumerate(level)]
            acc += weight * self._level_deriv(level, table, axes, len(pts))
        return acc

    def _level_deriv(self, level: tuple[int, ...], table: Array, axes: list, n: int) -> Array:
        """``D^deriv`` of one level operator at ``n`` points, from their per-axis bases.

        Per offset, the gathered block is reduced from the last axis to the
        first: by a Horner step where ``r = deriv[j]`` is 0 (the order-0
        spline is 1 on the closed cell), else by the product rule,
        ``sum_s comb(r, s) 2**(k r) psi^(s) * horner(D^(r-s) block)``.
        """
        d = len(level)
        dims = tuple(1 << k for k in level)
        out = np.zeros(n)
        for offset in self._offsets:
            anchors, ts, factors = zip(
                *(axes[j][o + self.deriv[j]] for j, o in enumerate(offset))
            )
            block = np.take(table, np.ravel_multi_index(anchors, dims), axis=-1)
            for j in reversed(range(d)):
                r = self.deriv[j]
                if r == 0:
                    block = horner(block, j, ts[j])
                    continue
                block = sum(
                    factors[j][s] * horner(differentiate(block, j, r - s), j, ts[j])
                    for s in range(r + 1)
                )
            out += block
        return out


def reconstruct(values: Sequence[float], plan: RecoveryPlan, deriv: Sequence[int]) -> Approximant:
    """Build the linear approximant of ``D^deriv f`` from the plan's value vector.

    ``values[i]`` belongs to ``plan.keys[i]``, as `sample` returns it; a
    vector of the wrong length or with a non-finite entry raises the same
    ValueError as in `sample`.
    """
    return Approximant(values, plan, deriv)


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


def _axis_rule(cells_log2: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    gx, gw = np.polynomial.legendre.leggauss(k)
    width = 0.5**cells_log2
    starts = np.arange(2**cells_log2) * width
    nodes = (starts[:, None] + (gx[None, :] + 1.0) * (width / 2.0)).ravel()
    weights = np.tile(gw * (width / 2.0), 2**cells_log2)
    return nodes, weights


def _grid(axis: Array, d: int) -> Array:
    """The tensor grid ``axis^d``, one point per row, in C order."""
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


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


def _gap(g: PointFn, h: PointFn, pts: Array) -> Array:
    """``|g - h|`` at the rows of ``pts``; each must give one value per row."""
    vals = []
    for name, fn in (("g", g), ("h", h)):
        v = np.asarray(fn(pts), dtype=float)
        if v.shape != (len(pts),):
            raise ValueError(
                f"lq_error: {name} returned shape {v.shape} for {len(pts)} points, "
                f"expected ({len(pts)},)"
            )
        vals.append(v)
    return np.abs(vals[0] - vals[1])


def lq_error(g: PointFn, h: PointFn, q: float, quad: Quadrature) -> float:
    """L_q distance of two point-evaluable functions over the unit cube.

    Finite q: composite Gauss-Legendre.  q = infinity: maximum of |g - h|
    over an interior midpoint lattice united with the quadrature nodes.
    A rule or lattice beyond ``_MAX_RULE_POINTS`` points is refused with a
    ValueError before anything is allocated, and so is a ``g`` or ``h`` that
    does not return one value per point.
    """
    if not q >= 1:
        raise ValueError(f"q must lie in [1, inf], got {q!r}")
    per_axis = quad.points_per_cell << quad.resolved_cells_log2()
    _check_rule_size(quad.d, per_axis**quad.d, "cells_log2")
    if math.isinf(q):
        _check_rule_size(quad.d, quad.resolved_sup_points() ** quad.d, "sup_points")
    nodes, weights = _axis_rule(quad.resolved_cells_log2(), quad.points_per_cell)
    diff = _gap(g, h, _grid(nodes, quad.d))
    if math.isinf(q):
        n = quad.resolved_sup_points()
        dense = _gap(g, h, _grid((np.arange(n) + 0.5) / n, quad.d))
        return float(max(diff.max(initial=0.0), dense.max(initial=0.0)))
    w = reduce(np.multiply.outer, [weights] * quad.d).ravel()
    return float(np.sum(w * diff**q) ** (1.0 / q))
