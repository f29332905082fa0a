"""Assembling and measuring the recovery operator.

`sample` evaluates the target function once, on the ``(n, d)`` array of the
plan's exact keys converted to floats, and returns the checked value vector
(`interp.as_values`): one finite float per point, aligned with the plan's
key array.  `reconstruct`, another name of `Approximant`, builds from it the
linear approximant

    x  ->  sum over plan levels of  D^deriv (surplus at level k) (x),

which, regrouped over the downward-closed level set, is a short weighted sum
of level operators (the classic combination trick): the weight of level k is
``sum over masks e of (-1)**|e| [k + e in set]`` and vanishes for all levels
away from the upper boundary of the set.  On every cell of a surviving
level, ``D^deriv`` of its spline blend of local interpolants is again a
polynomial of the interpolation degrees (de Boor's B-form to pp-form
conversion), so the derivative is blended into the level's monomial
coefficient table once, at construction (`_blend`).  Points are evaluated in
fixed-size chunks: per level one gather from the table, then Horner's rule
one axis at a time.  On a tensor grid, the private kernel
`Approximant._slab` runs the same gathers and Horner steps, but shares each
among all grid points that need it (sum factorization, every level being a
tensor-product operator); its values equal the pointwise ones bit for bit.

Points must lie in the closed unit cube (`interp.as_points`).  Blending
splines take right limits at interior knots; at the right edge ``x_j = 1``
the last cell's polynomial, closed on the right, gives the limit from inside
the cube (`_cells`, the one cell rule of both routes).

`lq_error` measures distances with composite tensor Gauss-Legendre quadrature
on a dyadic cell partition (finite q) or on a dense interior lattice united
with the quadrature nodes (q = infinity).  Both are tensor grids, streamed
in slabs of axis-0 rows of at most one chunk of points: on each slab an
`Approximant` is evaluated through `_slab`, any other callable on the slab's
points as rows (`interp.tensor_grid`), and either must give one finite value
per point.  Rules beyond a fixed point count are refused before anything is
allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .bspline import piece_table
from .grid import RecoveryPlan, derivative_orders
from .interp import (
    as_integer, as_points, as_values, horner, monomial_coeffs, tensor_grid, transform,
)

Array = np.ndarray
PointFn = Callable[[Array], Array]


# -- sampling ----------------------------------------------------------------------


def sample(f: PointFn, plan: RecoveryPlan) -> Array:
    """Evaluate ``f`` once per plan point; ``values[i]`` belongs to ``plan.keys[i]``.

    ``f`` receives a single (n, d) array, so an instrumented callable sees
    exactly ``plan.n_actual`` rows.  Values of the wrong shape abort, and so
    does a non-finite value, naming the offending point with its coordinates
    and provenance.
    """
    values = np.array(f(plan.floats()), dtype=float)
    return as_values(values, "sample(f)", plan.n_actual, plan.describe)


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


class Approximant:
    """The reconstructed derivative, evaluable anywhere in the closed unit cube.

    Linear in the samples by construction.  For every surviving combination
    level, the derivative is blended into one monomial coefficient table at
    construction: ``(degrees + 1)`` coefficients of ``D^deriv`` for each of
    its cells, from the value vector (checked like `sample`'s).  Called on
    an ``(n, d)`` array, points go through in chunks of ``_CHUNK``; per level
    a point costs one table gather and one Horner step per axis, whatever
    ``deriv`` and the sample count.  Points must be finite and lie in the
    closed unit cube.  Evaluation is deterministic and read-only.
    """

    def __init__(self, values: Sequence[float], plan: RecoveryPlan, deriv: Sequence[int]):
        params = plan.params
        deriv = derivative_orders(deriv, params.d)
        if any(r > dg for r, dg in zip(deriv, params.degrees)):
            raise ValueError(
                f"derivative {deriv} exceeds interpolation degrees {params.degrees}"
            )
        values = as_values(values, "reconstruct(values)", plan.n_actual, plan.describe)
        self.plan = plan
        # One (level, weight, table) per surviving level, in sorted level
        # order.  A table holds the monomial coefficients of D^deriv on every
        # cell of its level, shape ``(*(degrees + 1), n_cells)``, cells in C
        # order, so a gather of m cells yields one contiguous row of m values
        # per coefficient.
        weights = combination_weights(plan.levels)
        nodes = tuple(dg + 1 for dg in params.degrees)
        d = params.d
        self._levels = []
        for li, level in enumerate(plan.levels):
            if level not in weights:
                continue
            # (cell_0, ..., cell_{d-1}, node_0, ..., node_{d-1}) -> (node_0, ..., cell_0, ...)
            c = values[plan.bounds[li] : plan.bounds[li + 1]].reshape(
                tuple(1 << k for k in level) + nodes
            ).transpose(list(range(d, 2 * d)) + list(range(d)))
            table = monomial_coeffs(c, params.degrees)
            for j, (k, r) in enumerate(zip(level, deriv)):
                if r:
                    table = _blend(table, j, k, r)
            table = np.ascontiguousarray(table).reshape(nodes + (-1,))
            self._levels.append((level, weights[level], table))
        # The (axis, level) pairs whose cells a chunk needs.
        self._axis_levels = sorted(
            {(j, k) for level, _, _ in self._levels for j, k in enumerate(level)}
        )

    def __call__(self, x) -> Array:
        d = self.plan.params.d
        pts = as_points(x, d, 0.0, 1.0).reshape(-1, d)
        out = np.empty(len(pts))
        for start in range(0, len(pts), _CHUNK):
            out[start : start + _CHUNK] = self._chunk(pts[start : start + _CHUNK])
        return out

    def _chunk(self, pts: Array) -> Array:
        """The weighted level sum at one chunk's points: per level, one gather
        of the points' cells, reduced by Horner's rule from the last axis to
        the first."""
        axes = {(j, k): _cells(pts[:, j], k) for j, k in self._axis_levels}
        acc = np.zeros(len(pts))
        for level, weight, table in self._levels:
            cells, ts = zip(*(axes[j, k] for j, k in enumerate(level)))
            index = np.ravel_multi_index(cells, tuple(1 << k for k in level))
            block = np.take(table, index, axis=-1)
            for j in reversed(range(len(level))):
                block = horner(block, j, ts[j])
            acc += weight * block
        return acc

    def _slab(self, head: Array, nodes: Array) -> Array:
        """Values on the tensor grid ``head x nodes^(d-1)``, shape
        ``(len(head),) + (len(nodes),) * (d - 1)`` in C order.

        Bit for bit ``self(tensor_grid([head] + [nodes] * (d - 1)))``
        reshaped, at a fraction of the cost: every grid point sees the same
        gathers and Horner steps, last axis to first, as in `_chunk`, but
        each step is shared by all points that agree on the axes still to be
        reduced (sum factorization).  Each axis is first restricted to the distinct cells
        its nodes hit, so no temporary exceeds one gather block: ``(degrees +
        1)`` coefficients per grid point.  The nodes must lie in ``[0, 1]``.
        """
        d = self.plan.params.d
        ks = {k for _, k in self._axis_levels}
        # Axis 0 sees the head, axes 1..d-1 the nodes.
        first = {k: _distinct_cells(head, k) for k in ks}
        rest = {k: _distinct_cells(nodes, k) for k in ks}
        out = np.zeros((len(head),) + (len(nodes),) * (d - 1))
        for level, weight, table in self._levels:
            per_axis = [first[level[0]]] + [rest[k] for k in level[1:]]
            table = table.reshape(table.shape[:d] + tuple(1 << k for k in level))
            block = table[(Ellipsis,) + np.ix_(*(u for u, _, _ in per_axis))]
            # Coefficient axes 0..j lead, so node axis j sits at 2j + 1.
            for j in reversed(range(d)):
                _, inverse, t = per_axis[j]
                block = np.take(block, inverse, axis=2 * j + 1)
                block = horner(block, j, t.reshape((-1,) + (1,) * (d - 1 - j)))
            out += weight * block
        return out


def _cells(x: Array, k: int) -> tuple[Array, Array]:
    """The level-k cell of each coordinate and the local coordinate in it.

    Cells are half open on the right, except the last, which is closed at
    ``x = 1`` so the right edge reads the limit from inside the cube.
    """
    scaled = x * float(1 << k)
    cell = np.clip(np.floor(scaled).astype(np.int64), 0, (1 << k) - 1)
    return cell, scaled - cell


def _distinct_cells(x: Array, k: int) -> tuple[Array, Array, Array]:
    """The distinct level-k cells of ``x``, the index of each coordinate's
    cell among them, and the local coordinates."""
    cell, t = _cells(x, k)
    distinct, inverse = np.unique(cell, return_inverse=True)
    return distinct, inverse, t


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


# Most points one rule or sup-norm lattice of `lq_error` may have.  The rule
# runs in slabs, so beyond one slab a point costs one float of the term
# vector (finite q); the rules in use have at most about 1.05M points (d=4
# default rule, d=2 lattice).
_MAX_RULE_POINTS = 1 << 21


def _check_rule_size(d: int, count: int, field: str) -> None:
    if count > _MAX_RULE_POINTS:
        raise ValueError(
            f"quadrature at d={d} needs {count} points, above the limit of "
            f"{_MAX_RULE_POINTS}; lower Quadrature.{field}"
        )


def _values(name: str, fn: PointFn, head: Array, nodes: Array, d: int) -> Array:
    """``fn`` on the tensor grid ``head x nodes^(d-1)``, flattened in C order.

    An `Approximant` goes through `Approximant._slab`, any other callable
    gets the grid's points as rows; either must give one finite value per
    point (see `interp.as_values`).
    """
    axes = [head] + [nodes] * (d - 1)
    if isinstance(fn, Approximant):
        v = fn._slab(head, nodes).reshape(-1)
    else:
        v = fn(tensor_grid(axes))
    return as_values(
        v, f"lq_error({name})", math.prod(map(len, axes)),
        lambda i: f"point {tensor_grid(axes)[i].tolist()}",
    )


def lq_error(g: PointFn, h: PointFn, q: float, quad: Quadrature) -> float:
    """L_q distance of two point-evaluable functions over the unit cube.

    Finite q: composite Gauss-Legendre.  q = infinity: maximum of |g - h|
    over an interior midpoint lattice united with the quadrature nodes.
    Both are tensor grids, walked in slabs of axis-0 rows (at most
    ``_CHUNK`` points, or one row if a row holds more).  On each slab an
    `Approximant` is evaluated through `Approximant._slab`, any other
    callable at the slab's points as rows, with the same result either way
    and for any slab size.  Finite q stores one weighted term per rule
    point and sums them once; q = infinity keeps a running maximum.  A rule
    or lattice beyond ``_MAX_RULE_POINTS`` points is refused with a
    ValueError before anything is allocated, and a ``g`` or ``h`` that does
    not return one finite value per point raises one too, naming the
    function and, for a non-finite value, the point.
    """
    if not q >= 1:
        raise ValueError(f"q must lie in [1, inf], got {q!r}")
    d = quad.d
    per_axis = quad.points_per_cell << quad.resolved_cells_log2()
    _check_rule_size(d, per_axis**d, "cells_log2")
    if math.isinf(q):
        _check_rule_size(d, quad.resolved_sup_points() ** d, "sup_points")
    nodes, weights = _axis_rule(quad.resolved_cells_log2(), quad.points_per_cell)
    if math.isinf(q):
        n = quad.resolved_sup_points()
        grids = [nodes, (np.arange(n) + 0.5) / n]
    else:
        grids, terms = [nodes], np.empty(per_axis**d)
    err = 0.0
    for axis in grids:
        span = len(axis) ** (d - 1)
        rows = max(1, _CHUNK // span)
        for start in range(0, len(axis), rows):
            cut = slice(start, start + rows)
            gap = np.abs(_values("g", g, axis[cut], axis, d) - _values("h", h, axis[cut], axis, d))
            if math.isinf(q):
                err = np.maximum(err, gap.max(initial=0.0))
            else:
                w = reduce(np.multiply.outer, [weights[cut]] + [weights] * (d - 1)).ravel()
                terms[start * span : start * span + gap.size] = w * gap**q
    return float(err if math.isinf(q) else np.sum(terms) ** (1.0 / q))
