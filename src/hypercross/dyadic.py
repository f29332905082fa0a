"""Dyadic-level quasi-interpolants and their multilevel surpluses.

At level ``k`` (a vector of per-axis dyadic refinements) the unit cube splits
into ``prod 2**k_j`` cells.  The level operator interpolates the target
function on every cell by a tensor polynomial and blends the local pieces
with a B-spline partition of unity:

    R_k f = sum_shift  P[level k, cell max(shift, 0)]  *  g[k, shift]

where the sum runs over the shifts whose translate meets the cube.  The
surplus operator is the mixed first difference of the level family over the
axes where the level is positive,

    S_k = sum over masks e in {0,1}^d with e <= sign(k) of (-1)^|e| R_{k-e},

so surpluses over any downward-closed level set telescope back to level
operators.  Derivatives of either operator follow from the product rule
applied to each polynomial-times-spline term.

`DyadicEvaluator` memoizes the local interpolants per (level, cell) and the
surplus polynomials per (level, shift), so repeated evaluations reuse every
function value instead of resampling it.  Like every function the package
takes, the target is called on an ``(n, d)`` array of points, here once per
cell on the cell's interpolation nodes (`interp.interpolate`), and a surplus
polynomial evaluates each coarse interpolant once on its anchor cell's nodes.
Its operators take one point (and return a float) or an ``(n, d)`` array of
points (and return ``(n,)``) through one code path, in which each point sees
the same float operations: a single point is the case ``n = 1``.  Per
offset of the covering translates, that path builds one polynomial per cell
group and reduces all the points in one gathered Horner pass per split
(`interp.stack_deriv_eval`).  The constructor checks the degrees, and a
spline order per degree, through `interp.as_integers`, and every public
method checks its input once per call: levels and derivative orders go
through `interp.as_integers` with their bounds, one per axis, and points
through `interp.as_points` (finite, in the closed unit cube); anything else
raises a ValueError naming the input.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .bspline import MAX_ORDER, bspline_derivative, refinement_coeffs
from .interp import (
    MAX_DEGREE, TensorPoly, as_integers, as_points, interpolate, stack_deriv_eval,
)

Vector = tuple[int, ...]


def decrement_masks(level: Sequence[int]) -> list[Vector]:
    """All 0/1 masks supported on the positive axes of ``level``."""
    return list(product(*[(0, 1) if k > 0 else (0,) for k in level]))


# Largest level per axis: up to it, cell indices and spline arguments are
# exact in float64.
MAX_LEVEL = 52


def _cell_box(level: Vector, cell: Vector) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Corner and widths of one dyadic cell."""
    return (
        tuple(math.ldexp(c, -k) for k, c in zip(level, cell)),
        tuple(math.ldexp(1.0, -k) for k in level),
    )


class DyadicEvaluator:
    """Evaluates level/surplus operators for one function, memoizing cell polynomials.

    ``degrees`` bounds the per-axis polynomial degree of the local
    interpolants and ``order`` is the per-axis B-spline order of the blending
    partition, one per entry of ``degrees``; each is checked by
    `interp.as_integers` against the bounds of `interp.nodes_exact` and
    `bspline.bspline_derivative`.  Function values come from ``f``, called
    on the ``(n, d)`` array of one cell's nodes, which must return ``n``
    finite values.

    The operators take one point ``x`` (and return a float) or an ``(n, d)``
    array of points (and return ``(n,)``).  Each public method checks its
    input once per call, one integer per axis: levels in ``[0, MAX_LEVEL]``
    and derivative orders in ``[0, order]``; points must be finite and lie
    in the closed unit cube.  Anything else raises a ValueError naming the
    input (and a point's row).
    """

    def __init__(
        self,
        degrees: Sequence[int],
        order: Sequence[int],
        f: Callable[[np.ndarray], np.ndarray],
    ):
        self.degrees = as_integers(degrees, "degree", None, 0, MAX_DEGREE)
        self.order = as_integers(order, "spline order", len(self.degrees), 0, MAX_ORDER)
        self.dim = len(self.degrees)
        self._f = f
        self._polys: dict[tuple[Vector, Vector], TensorPoly] = {}
        self._surplus_polys: dict[tuple[Vector, Vector], TensorPoly] = {}
        # Per axis, the largest floats below the knots m + 1 - i that bound
        # the argument of the i-th covering translate (see `_blended`).
        self._caps = [np.nextafter(np.arange(m + 1.0, 0.0, -1.0), 0.0) for m in self.order]

    # -- input contract ------------------------------------------------------

    def _evaluate(self, operator, level, deriv, x) -> float | np.ndarray:
        """``operator(level, deriv, points)`` on checked input: a float for
        one point, an ``(n,)`` array for an ``(n, d)`` array of points."""
        level = as_integers(level, "level", self.dim, 0, MAX_LEVEL)
        deriv = as_integers(deriv, "derivative order", self.dim, 0, self.order)
        pts = as_points(x, self.dim, 0.0, 1.0)
        out = operator(level, deriv, pts.reshape(-1, self.dim))
        return float(out[0]) if pts.ndim == 1 else out

    # -- local interpolation -------------------------------------------------

    def _local(self, level: Vector, cell: Vector) -> TensorPoly:
        """Tensor interpolant of the function on one dyadic cell (memoized)."""
        poly = self._polys.get((level, cell))
        if poly is None:
            box = _cell_box(level, cell)
            poly = self._polys[level, cell] = interpolate(self._f, self.degrees, *box)
        return poly

    # -- level operator -------------------------------------------------------

    def quasi_interp_deriv(
        self, level: Sequence[int], deriv: Sequence[int], x
    ) -> float | np.ndarray:
        """Mixed derivative of the level operator at a point, or at each row of an array.

        Only the translates covering a point contribute, at most
        ``prod (order_j + 1)`` of them; each contributes by the product rule
        over the splits of ``deriv`` between polynomial and spline factor.
        """
        return self._evaluate(self._quasi, level, deriv, x)

    def _quasi(self, level: Vector, deriv: Vector, pts: np.ndarray) -> np.ndarray:
        return self._blended(
            level, deriv, pts, lambda shift: self._local(level, tuple(max(s, 0) for s in shift))
        )

    def _blended(
        self,
        level: Vector,
        deriv: Vector,
        pts: np.ndarray,
        poly_at: Callable[[Vector], TensorPoly],
    ) -> np.ndarray:
        """``D^deriv sum_shift poly_at(shift) * g[level, shift]`` at each row of ``pts``.

        For each point the sum runs over the translates covering it, offset
        by offset, each by the product rule over the splits of ``deriv``
        between polynomial and spline factor; a zero spline factor is
        skipped, and a translate's polynomial is built only once one of its
        spline factors is nonzero.  The spline factors take one
        `bspline_derivative` call per axis and split order; per offset the
        points are grouped by cell (hence by shift), each group takes one
        ``poly_at`` call, and one `interp.stack_deriv_eval` call per split
        reduces all the live points over the stack of the groups' polynomials.
        """
        # The right edge of the cube folds into the last cell.
        cells = np.minimum(
            np.floor(np.ldexp(pts, level)).astype(np.int64), [2**k - 1 for k in level]
        )
        # factors[j][s][p, i]: 2**(k_j s) psi^(s) at u_j = 2**k_j x_j - shift_j for
        # the i-th covering translate of axis j at point p, shift_j = cell_j + i - m_j.
        # Inside the cube u_j is held below the knot m_j - i + 1, onto which it
        # rounds half an ulp below a cell's right end (reading the next piece).
        # At x_j = 1 the spline is read through its symmetry psi(u) = psi(m+1-u),
        # so that x = 1 is the limit from inside.
        factors = []
        for j, (k, m, r) in enumerate(zip(level, self.order, deriv)):
            xj = pts[:, j, None]
            u = np.ldexp(xj, k) - (cells[:, j, None] + np.arange(-m, 1))
            u = np.where(xj < 1.0, np.minimum(u, self._caps[j]), u)
            edge = xj == 1.0
            u = np.where(edge, m + 1 - u, u)
            axis = []
            for s in range(r + 1):
                v = bspline_derivative(m, s, u)
                axis.append(2.0 ** (k * s) * (np.where(edge, -v, v) if s % 2 else v))
            factors.append(axis)
        # (split, the polynomial's share of deriv, the binomial weight)
        splits = [
            (
                split,
                tuple(r - s for r, s in zip(deriv, split)),
                math.prod(math.comb(r, s) for r, s in zip(deriv, split)),
            )
            for split in product(*[range(r + 1) for r in deriv])
        ]
        # Points sorted by cell (stably), and the run of equal cells each falls in.
        by_cell = np.lexsort(cells.T[::-1])
        run_of = np.cumsum(np.diff(cells[by_cell], axis=0, prepend=-1).any(axis=1))
        total = np.zeros(len(pts))
        terms = np.empty((len(splits), len(pts)))
        for idx in product(*[range(m + 1) for m in self.order]):
            splines = [
                reduce(np.multiply, [f[s][:, i] for f, s, i in zip(factors, split, idx)])
                for split, _, _ in splits
            ]
            live = reduce(np.logical_or, [spline != 0.0 for spline in splines])
            # The live points grouped by cell, one polynomial per group.
            keep = live[by_cell]
            rows = by_cell[keep]
            if rows.size:
                heads, owner = np.unique(run_of[keep], return_index=True, return_inverse=True)[1:]
                shifts = (cells[rows[heads]] + np.subtract(idx, self.order)).tolist()
                polys = [poly_at(tuple(shift)) for shift in shifts]
                at = pts[rows]
                for term, (_, rest, _) in zip(terms, splits):
                    term[rows] = stack_deriv_eval(polys, rest, at, owner)
            # A point takes the terms of its nonzero spline factors, split by split.
            for term, spline, (_, _, binom) in zip(terms, splines, splits):
                add = spline != 0.0
                total[add] += binom * spline[add] * term[add]
        return total

    # -- surplus operator -----------------------------------------------------

    def surplus_deriv(
        self, level: Sequence[int], deriv: Sequence[int], x
    ) -> float | np.ndarray:
        """Mixed derivative of the surplus (signed level difference) at a point,
        or at each row of an array."""
        return self._evaluate(self._surplus, level, deriv, x)

    def _surplus(self, level: Vector, deriv: Vector, pts: np.ndarray) -> np.ndarray:
        total = 0.0
        for mask in decrement_masks(level):
            sign = -1.0 if sum(mask) % 2 else 1.0
            lower = tuple(k - e for k, e in zip(level, mask))
            total += sign * self._quasi(lower, deriv, pts)
        return total

    def _surplus_poly(self, level: Vector, shift: Vector) -> TensorPoly:
        """Polynomial factor multiplying one translate in the surplus expansion (memoized).

        The surplus equals ``sum_shift g[level, shift] * U[level, shift]``;
        ``U`` combines coarse-level interpolants through the two-scale
        refinement coefficients of the blending spline.  The admissible
        coarse cells per decremented axis are those whose doubled index
        lands within refinement range of ``shift``.
        """
        poly = self._surplus_polys.get((level, shift))
        if poly is not None:
            return poly
        coeff_tables = [
            [float(a) for a in refinement_coeffs(m)] for m in self.order
        ]
        terms: list[tuple[float, TensorPoly]] = []
        for mask in decrement_masks(level):
            sign = -1.0 if sum(mask) % 2 else 1.0
            lower = tuple(k - e for k, e in zip(level, mask))
            axis_choices: list[list[tuple[int, float]]] = []
            for j in range(self.dim):
                m, s = self.order[j], shift[j]
                if not mask[j]:
                    axis_choices.append([(s, 1.0)])
                    continue
                lo = max(-m, -(-(s - m - 1) // 2))  # ceil((s - m - 1)/2)
                hi = min(2 ** lower[j] - 1, s // 2)
                choices = [(c, coeff_tables[j][s - 2 * c]) for c in range(lo, hi + 1)]
                axis_choices.append(choices)
            for combo in product(*axis_choices):
                coarse = tuple(c for c, _ in combo)
                weight = sign * math.prod(w for _, w in combo)
                anchor = tuple(max(c, 0) for c in coarse)
                terms.append((weight, self._local(lower, anchor)))
        # The signed combination is again a polynomial of the same coordinate
        # degree; re-read it at the nodes of the anchor cell of ``shift``.
        anchor = tuple(max(s, 0) for s in shift)
        combined = lambda pts: sum(w * p.eval(pts) for w, p in terms)  # noqa: E731
        box = _cell_box(level, anchor)
        poly = self._surplus_polys[level, shift] = interpolate(combined, self.degrees, *box)
        return poly

    def surplus_via_translates(
        self, level: Sequence[int], deriv: Sequence[int], x
    ) -> float | np.ndarray:
        """Surplus derivative assembled from the per-translate polynomials.

        Independent route to `surplus_deriv`; the two must agree.
        """
        return self._evaluate(self._via_translates, level, deriv, x)

    def _via_translates(self, level: Vector, deriv: Vector, pts: np.ndarray) -> np.ndarray:
        return self._blended(level, deriv, pts, lambda shift: self._surplus_poly(level, shift))
