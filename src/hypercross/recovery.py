"""Assembling and measuring the recovery operator.

`sample` evaluates the target function once, on the ``(n, d)`` array of the
plan's exact keys converted to floats, and returns the checked value vector
(`interp.as_values`): one finite float per point, in the plan's row order.
`reconstruct`, another name of `Approximant`, builds from it the linear
approximant

    x  ->  sum over plan levels of  D^deriv (surplus at level k) (x),

which, regrouped over the downward-closed level set, is a short weighted sum
of level operators (the classic combination trick): the plan carries the
weight of each level (`grid.combination_weights`, re-exported here), which
vanishes for all levels away from the upper boundary of the set.  On every
cell of a surviving level, ``D^deriv`` of its spline blend of local
interpolants is again a polynomial of the interpolation degrees (de Boor's
B-form to pp-form conversion), so the derivative is blended into the level's
monomial coefficient table once, at construction (`_table`).  Points are
evaluated in chunks: per level Horner's rule one axis at a time, the last
axis gathering its coefficients from the table.  On a tensor grid, the
private kernel `Approximant._grid` runs the same float steps, but shares
each among all grid points that need it (sum factorization, every level
being a tensor-product operator): it walks the levels outside and slabs of
axis-0 rows inside, keeps a level's reduction along axes d-1..1 while
consecutive slabs hit the same axis-0 cells, and broadcasts the
coefficients of a slab inside one cell instead of gathering them.  Its
values equal the pointwise ones bit for bit.

Points must lie in the closed unit cube (`interp.as_points`).  Blending
splines take right limits at interior knots; at the right edge ``x_j = 1``
the last cell's polynomial, closed on the right, gives the limit from inside
the cube (`_cells`, the one cell rule of both routes).

`lq_error` measures distances with composite tensor Gauss-Legendre quadrature
on a dyadic cell partition (finite q) or on a dense interior lattice united
with the quadrature nodes (q = infinity).  Both are tensor grids, walked in
blocks of axis-0 rows that fill one buffer of the rule's size, the finite-q
term vector: g fills a block, an `Approximant` through `_grid`, and h is
subtracted from it per slab of axis-0 rows (`_fill`; any callable but an
`Approximant` on a slab's points as rows, `interp.tensor_grid`); either
must give one finite value per point.  Memory is that buffer plus one
slab's temporaries (`_SLAB_BYTES`).  Rules beyond a fixed point count, and
an `Approximant` of another dimension, are refused before anything is
allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, Sequence

import numpy as np

from .bspline import piece_table
from .grid import RecoveryPlan, combination_weights  # noqa: F401 (re-exported)
from .interp import (
    as_integer, as_integers, as_points, as_real, as_values, horner, monomial_coeffs,
    tensor_grid, transform,
)

Array = np.ndarray
PointFn = Callable[[Array], Array]


# -- sampling ----------------------------------------------------------------------


def sample(f: PointFn, plan: RecoveryPlan) -> Array:
    """Evaluate ``f`` once per plan point; ``values[i]`` belongs to point ``i``,
    row ``i`` of ``plan.keys``.

    ``f`` receives a single (n, d) array, so an instrumented callable sees
    exactly ``plan.n_actual`` rows.  Values of the wrong shape abort, and so
    does a non-finite value, naming the offending point with its coordinates
    and provenance.
    """
    values = np.array(f(plan.floats()), dtype=float)
    return as_values(values, "sample(f)", plan.n_actual, plan.describe)


# -- the approximant -----------------------------------------------------------------


# Bytes of float temporaries one evaluation step may hold: a step takes the
# most points (whole rows on a grid, at least one) that fit at the floats
# each point holds at once, so memory stays bounded whatever the number of
# points.
_SLAB_BYTES = 1 << 19
# Floats a point of a callable's slab holds: its points, its values and the
# callable's own temporaries.  An `Approximant` chunk also holds one slice of
# a level's table taken at its points, prod(degrees[:-1] + 1) floats a point.
_CALL_FLOATS = 8


def _slab_rows(floats: int, span: int = 1) -> int:
    """Rows of ``span`` points in one slab, at ``floats`` floats a point."""
    return max(1, _SLAB_BYTES // (8 * floats * max(span, 1)))


@lru_cache(maxsize=None)
def _blend_matrix(deg: int, r: int, shift: int) -> Array:
    """Matrix taking a cell polynomial ``P`` to ``D^r (psi(t) P(t + shift))``.

    Both are ascending coefficients of degree ``deg`` in the local coordinate
    t; ``psi`` is piece ``shift`` of the degree-r B-spline, or 1 at ``r = 0``,
    where the matrix is the Taylor shift by any integer ``shift``.  Exact
    rationals rounded once, like `interp._monomial_matrix`.
    """
    psi = piece_table(r, 0)[shift] if r else (1,)
    cols = []
    for p in range(deg + 1):
        prod = [0] * (p + r + 1)
        for i in range(p + 1):
            for b, c in enumerate(psi):
                prod[i + b] += math.comb(p, i) * shift ** (p - i) * c
        deriv = [float(math.perm(i, r) * c) for i, c in enumerate(prod)][r:]
        cols.append(deriv + [0.0] * (deg - p))
    matrix = np.array(cols).T
    matrix.setflags(write=False)  # cached: every caller shares it
    return matrix


def _blend(table: Array, j: int, k: int, r: int) -> Array:
    """``D^r`` along axis j of the level-k spline blend of a coefficient table.

    ``table`` has shape ``(*(degrees + 1), *cells)``.  On cell c the blend is
    ``sum over o = -r..0 of psi(t - o) P_{c+o}(t - o)`` in the local
    coordinate t, with the degree-r spline ``psi``; its ``D^r`` in x (hence
    ``2**(k r)``) is again one polynomial per cell.  Translates left of the
    cube carry cell 0's polynomial: r virtual cells, cell 0 Taylor-shifted by
    ``-r..-1``, are prepended, so every tap is a plain slice of cells.
    """
    ax = table.ndim // 2 + j
    deg, n = table.shape[j] - 1, table.shape[ax]
    first = table.take([0], axis=ax)
    virtual = [transform(first, _blend_matrix(deg, 0, s), j) for s in range(-r, 0)]
    ext = np.concatenate(virtual + [table], axis=ax)
    taps = (ext.take(range(i, i + n), axis=ax) for i in range(r + 1))
    blended = sum(transform(c, _blend_matrix(deg, r, r - i), j) for i, c in enumerate(taps))
    return 2.0 ** (k * r) * blended


def _table(
    values: Array, level: Sequence[int], degrees: Sequence[int], deriv: Sequence[int]
) -> Array:
    """The monomial coefficients of ``D^deriv`` on every cell of one level.

    ``values`` are the level's rows of a value vector, in plan order.  The
    table is contiguous, of shape ``(*(degrees + 1), n_cells)`` with cells in
    C order, so a gather of m cells yields one contiguous row of m values
    per coefficient.
    """
    d, nodes = len(level), tuple(dg + 1 for dg in degrees)
    cells = values.reshape(tuple(1 << k for k in level) + nodes)
    # (cell_0, ..., cell_{d-1}, node_0, ..., node_{d-1}) -> (node_0, ..., cell_0, ...)
    table = monomial_coeffs(cells.transpose(list(range(d, 2 * d)) + list(range(d))), degrees)
    for j, (k, r) in enumerate(zip(level, deriv)):
        if r:
            table = _blend(table, j, k, r)
    return np.ascontiguousarray(table).reshape(nodes + (-1,))


class Approximant:
    """The reconstructed derivative, evaluable anywhere in the closed unit cube.

    Linear in the samples by construction.  For every surviving combination
    level, the derivative is blended into one monomial coefficient table at
    construction: ``(degrees + 1)`` coefficients of ``D^deriv`` for each of
    its cells, from the value vector (checked like `sample`'s).  Called on
    an ``(n, d)`` array, points go through in chunks of a callable's slab in
    `lq_error`; per level a point costs one table gather and one Horner step
    per axis, whatever ``deriv`` and the sample count.  Points must be
    finite and lie in the closed unit cube.  Evaluation is deterministic and read-only.
    """

    def __init__(self, values: Sequence[float], plan: RecoveryPlan, deriv: Sequence[int]):
        params = plan.params
        deriv = as_integers(deriv, "derivative order", params.d, 0)
        if any(r > dg for r, dg in zip(deriv, params.degrees)):
            raise ValueError(
                f"derivative {deriv} exceeds interpolation degrees {params.degrees}"
            )
        values = as_values(values, "reconstruct(values)", plan.n_actual, plan.describe)
        self.plan = plan
        # One (level, weight, table) per surviving level, in sorted level order.
        self._levels = [
            (level, weight, _table(values[start:stop], level, params.degrees, deriv))
            for level, weight, start, stop in zip(
                plan.levels, plan.combination, plan.bounds, plan.bounds[1:]
            )
            if weight
        ]
        # The (axis, level) pairs whose cells a chunk needs.
        self._axis_levels = sorted(
            {(j, k) for level, _, _ in self._levels for j, k in enumerate(level)}
        )

    def __call__(self, x) -> Array:
        d = self.plan.params.d
        pts = as_points(x, d, 0.0, 1.0).reshape(-1, d)
        out = np.empty(len(pts))
        n = _slab_rows(_CALL_FLOATS)
        for start in range(0, len(pts), n):
            out[start : start + n] = self._chunk(pts[start : start + n])
        return out

    def _chunk(self, pts: Array) -> Array:
        """The weighted level sum at one chunk's points: per level, Horner's
        rule from the last axis to the first, the last gathering each
        coefficient slice at the points' cells."""
        axes = {(j, k): _cells(pts[:, j], k) for j, k in self._axis_levels}
        acc = np.zeros(len(pts))
        for level, weight, table in self._levels:
            cells, ts = zip(*(axes[j, k] for j, k in enumerate(level)))
            index = np.ravel_multi_index(cells, tuple(1 << k for k in level))
            block = horner(table, len(level) - 1, ts[-1], index, at=-1)
            for j in reversed(range(len(level) - 1)):
                block = horner(block, j, ts[j])
            _add(acc, weight, block)
        return acc

    def _grid(self, head: Array, nodes: Array, out: Array) -> Array:
        """Write the values on the tensor grid ``head x nodes^(d-1)`` into the
        flat float array ``out`` in C order, and return it.

        Bit for bit ``self(tensor_grid([head] + [nodes] * (d - 1)))``, at a
        fraction of the cost: every grid point sees the same float steps,
        last axis to first, as in `_chunk`, but each step is shared by all
        points that agree on the axes still to be reduced (sum
        factorization).  Levels are walked outside, slabs of axis-0 rows
        inside.  Per level, the table is taken at the distinct cells a slab
        hits and reduced along axes d-1..1, and that partial is kept while
        the next slab hits the same axis-0 cells; each slab then runs only
        the axis-0 step, into one reused buffer.  The coefficients of one
        cell are broadcast, of several gathered (`_distinct`).  ``out``
        starts from zeros and gains ``weight * value`` level by level in
        sorted order, as ``acc`` does in `_chunk`.  Per point, a slab in one
        axis-0 cell holds 1 + q0 floats (buffer and partial, q0 =
        degrees[0] + 1), a slab across cells 2 + 2 q0 (also a taken slice
        and the partial's build): 4 and 2 rows on the default d=3 rule.  The
        nodes must lie in ``[0, 1]``.
        """
        d = self.plan.params.d
        q0 = self.plan.params.degrees[0] + 1
        span = len(nodes) ** (d - 1)
        grid = out.reshape((len(head),) + (len(nodes),) * (d - 1))
        grid[...] = 0.0
        rows, across = _slab_rows(1 + q0, span), _slab_rows(2 + 2 * q0, span)
        buffer = np.empty((min(rows, len(head)),) + grid.shape[1:])
        # Axis 0 sees the head, in slabs, axes 1..d-1 the nodes.
        first = {k: _slabs(head, k, rows, across) for j, k in self._axis_levels if j == 0}
        located = {k: _cells(nodes, k) for k in {k for j, k in self._axis_levels if j}}
        rest = {k: (*_distinct(cell), t) for k, (cell, t) in located.items()}
        for level, weight, table in self._levels:
            table = table.reshape(table.shape[:d] + tuple(1 << k for k in level))
            for cut, distinct, inverse, t, fresh in first[level[0]]:
                if fresh:
                    cells = np.ix_(distinct, *(rest[k][0] for k in level[1:]))
                    partial = table[(Ellipsis,) + cells]
                    # Coefficient axes 0..j lead, so node axis j sits at 2j + 1,
                    # at 2j in one coefficient slice.
                    for j in reversed(range(1, d)):
                        _, inv, tj = rest[level[j]]
                        tj = tj.reshape((-1,) + (1,) * (d - 1 - j))
                        partial = horner(partial, j, tj, inv, 2 * j)
                t = t.reshape((-1,) + (1,) * (d - 1))
                block = horner(partial, 0, t, inverse, out=buffer[: len(t)])
                _add(grid[cut], weight, block)
        return out


def _add(acc: Array, weight: int, block: Array) -> None:
    """``acc += weight * block``, without the product at weight 1 or -1:
    ``x * -1`` is exact and ``a - b`` is ``a + (-b)``, signed zeros too.
    Sums start from zeros: a first block written as is would keep the -0.0
    that ``0.0 + -0.0`` drops."""
    if weight == 1:
        acc += block
    elif weight == -1:
        acc -= block
    else:
        acc += weight * block


def _cells(x: Array, k: int) -> tuple[Array, Array]:
    """The level-k cell of each coordinate and the local coordinate in it.

    Cells are half open on the right, except the last, which is closed at
    ``x = 1`` so the right edge reads the limit from inside the cube.
    """
    scaled = x * float(1 << k)
    cell = np.clip(np.floor(scaled).astype(np.int64), 0, (1 << k) - 1)
    return cell, scaled - cell


def _distinct(cell: Array) -> tuple[Array, Array | None]:
    """The distinct entries of ``cell`` and each entry's index among them,
    None when all are one cell: Horner's rule then broadcasts that cell's
    coefficients, the floats of a gather without its copy."""
    if len(cell) and (cell == cell[0]).all():
        return cell[:1], None
    return np.unique(cell, return_inverse=True)


def _slabs(
    head: Array, k: int, rows: int, across: int
) -> list[tuple[slice, Array, Array | None, Array, bool]]:
    """``head`` cut into slabs of ``rows`` entries, a slab whose entries lie
    in more than one level-k cell into slabs of ``across`` entries.  Per
    slab: its slice, `_distinct` of its entries' cells, the local
    coordinates, and whether its cells differ from the previous slab's."""
    cell, t = _cells(head, k)
    slabs, prev = [], None
    for top in range(0, len(head), rows):
        stop = min(top + rows, len(head))
        size = rows if (cell[top:stop] == cell[top]).all() else across
        for start in range(top, stop, size):
            cut = slice(start, min(start + size, stop))
            distinct, inverse = _distinct(cell[cut])
            fresh = prev is None or not np.array_equal(distinct, prev)
            slabs.append((cut, distinct, inverse, t[cut], fresh))
            prev = distinct
    return slabs


reconstruct = Approximant


# -- error measurement ----------------------------------------------------------------


@dataclass(frozen=True)
class Quadrature:
    """Composite tensor Gauss-Legendre rule on a dyadic cell partition.

    ``cells_log2`` dyadic splits per axis (default scales down with the
    dimension), ``points_per_cell`` Gauss points per axis per cell, and
    ``sup_points`` lattice points per axis for sup-norm estimation.  Every
    field given goes through `interp.as_integer` with its lower bound
    (``d >= 1``, ``cells_log2 >= 0``, the others ``>= 1``) and is stored as
    an int.
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
            object.__setattr__(self, name, as_integer(value, f"Quadrature.{name}", low))

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


# Most points one rule or sup-norm lattice of `lq_error` may have.  Beyond
# one slab, a rule point costs one float of the buffer the blocks fill; the
# rules in use have at most about 1.05M points (d=4 default rule, d=2
# lattice).
_MAX_RULE_POINTS = 1 << 21


def _check_rule_size(d: int, count: int, field: str) -> None:
    if count > _MAX_RULE_POINTS:
        raise ValueError(
            f"quadrature at d={d} needs {count} points, above the limit of "
            f"{_MAX_RULE_POINTS}; lower Quadrature.{field}"
        )


def _fill(name: str, fn: PointFn, head: Array, nodes: Array, d: int, out: Array) -> Array:
    """Write ``fn`` on the tensor grid ``head x nodes^(d-1)`` into the flat
    float array ``out`` in C order, and return it.

    An `Approximant` fills it with one `Approximant._grid` call, any other
    callable is called once per slab of axis-0 rows, on the slab's points
    as rows; either must give one finite value per point (see
    `interp.as_values`).
    """
    span = len(nodes) ** (d - 1)
    whole = isinstance(fn, Approximant)
    rows = max(len(head), 1) if whole else _slab_rows(_CALL_FLOATS, span)
    for start in range(0, len(head), rows):
        axes = [head[start : start + rows]] + [nodes] * (d - 1)
        part = out[start * span : (start + len(axes[0])) * span]
        v = fn._grid(axes[0], nodes, part) if whole else fn(tensor_grid(axes))
        # A no-op when _grid wrote the values in place.
        part[...] = as_values(
            v, f"lq_error({name})", len(part), lambda i: f"point {tensor_grid(axes)[i].tolist()}"
        )
    return out


def lq_error(g: PointFn, h: PointFn, q: float, quad: Quadrature) -> float:
    """L_q distance of two point-evaluable functions over the unit cube.

    Finite q: composite Gauss-Legendre.  q = infinity: maximum of |g - h|
    over an interior midpoint lattice united with the quadrature nodes.
    Both are tensor grids, walked in blocks of axis-0 rows that fill one
    buffer of the rule's size: at finite q the term vector, one block,
    summed once; at q = infinity blocks of lattice rows reuse it for a
    running maximum.  ``g`` fills each block and ``h`` is subtracted from it
    per slab of axis-0 rows (`_fill`); the slab's entries become gaps, then
    terms, in place.  Pass an approximant as ``g``: as ``h`` it gives the
    same float, evaluated slab by slab.  A slab holds the rows that fit
    ``_SLAB_BYTES`` at ``_CALL_FLOATS`` a point, and the float is the same
    for any slab size.  Beyond the buffer, memory holds one slab's
    temporaries.  An `Approximant` whose dimension is not ``quad.d``, and a
    rule or lattice beyond ``_MAX_RULE_POINTS`` points, and a ``q`` outside
    ``[1, inf]`` (`interp.as_real`), are refused with a ValueError before
    anything is evaluated or allocated, and a ``g`` or ``h`` that does not
    return one finite value per point raises one too, naming the function
    and, for a non-finite value, the point.
    """
    q = as_real(q, "q", 1, math.inf)
    d = quad.d
    for name, fn in (("g", g), ("h", h)):
        if isinstance(fn, Approximant) and fn.plan.params.d != d:
            raise ValueError(
                f"lq_error({name}): an approximant of dimension {fn.plan.params.d} "
                f"on a quadrature of dimension {d}"
            )
    per_axis = quad.points_per_cell << quad.resolved_cells_log2()
    _check_rule_size(d, per_axis**d, "cells_log2")
    if math.isinf(q):
        _check_rule_size(d, quad.resolved_sup_points() ** d, "sup_points")
    nodes, weights = _axis_rule(quad.resolved_cells_log2(), quad.points_per_cell)
    grids = [nodes]
    if math.isinf(q):
        n = quad.resolved_sup_points()
        grids.append((np.arange(n) + 0.5) / n)
    # One row of a lattice finer than the rule may exceed the rule.
    terms = np.empty(max(per_axis**d, len(grids[-1]) ** (d - 1)))
    err = 0.0
    for axis in grids:
        span = len(axis) ** (d - 1)
        rows, step = _slab_rows(_CALL_FLOATS, span), len(terms) // span
        for top in range(0, len(axis), step):
            head = axis[top : top + step]
            block = _fill("g", g, head, axis, d, terms[: len(head) * span])
            for start in range(0, len(head), rows):
                slab = head[start : start + rows]
                part = block[start * span : (start + len(slab)) * span]
                # The gap, then the term, in place of the values.
                part -= _fill("h", h, slab, axis, d, np.empty(len(part)))
                np.abs(part, out=part)
                if math.isinf(q):
                    err = np.maximum(err, part.max(initial=0.0))
                else:
                    cut = slice(top + start, top + start + len(slab))
                    part **= q
                    part *= reduce(np.multiply.outer, [weights[cut]] + [weights] * (d - 1)).ravel()
    return float(err if math.isinf(q) else np.sum(terms) ** (1.0 / q))
