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

`DyadicEvaluator` memoizes the local interpolants per (level, cell), so
repeated evaluations reuse every function value instead of resampling it.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .bspline import MAX_ORDER, bspline_derivative, refinement_coeffs
from .interp import MAX_DEGREE, TensorPoly, as_integer, interpolate

Vector = tuple[int, ...]


def decrement_masks(level: Sequence[int]) -> list[Vector]:
    """All 0/1 masks supported on the positive axes of ``level``."""
    return list(product(*[(0, 1) if k > 0 else (0,) for k in level]))


def _blend(m: int, r: int, u: np.ndarray, right_edge: bool) -> np.ndarray:
    """r-th derivative of the order-m blending spline at each ``u``: the right
    limit at interior knots, the left limit (by the symmetry
    ``psi(u) = psi(m+1-u)``) at the cube's right edge, so that ``x = 1`` is the
    limit from inside."""
    if right_edge:
        return (-1) ** r * bspline_derivative(m, r, m + 1 - u)
    return bspline_derivative(m, r, u)


def _cell_box(level: Vector, cell: Vector) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Corner and widths of one dyadic cell."""
    return (
        tuple(math.ldexp(c, -k) for k, c in zip(level, cell)),
        tuple(math.ldexp(1.0, -k) for k in level),
    )


def _cell_of(level: Vector, x: Sequence[float]) -> Vector:
    # Right edge of the cube folds into the last cell.
    return tuple(
        min(math.floor(math.ldexp(xj, k)), 2**k - 1) for k, xj in zip(level, x)
    )


class DyadicEvaluator:
    """Evaluates level/surplus operators for one function, memoizing cell polynomials.

    ``degrees`` bounds the per-axis polynomial degree of the local
    interpolants and ``order`` is the per-axis B-spline order of the blending
    partition, each checked against the bounds of `interp.nodes_exact` and
    `bspline.bspline_derivative`.  Function values come from ``f``, called
    with a float point.
    """

    def __init__(
        self,
        degrees: Sequence[int],
        order: Sequence[int],
        f: Callable[[tuple[float, ...]], float],
    ):
        self.degrees = tuple(as_integer(d, "degree", 0, MAX_DEGREE) for d in degrees)
        self.order = tuple(as_integer(m, "spline order", 0, MAX_ORDER) for m in order)
        if len(self.degrees) != len(self.order):
            raise ValueError("degrees and order must share one dimension")
        self.dim = len(self.degrees)
        self._f = f
        self._polys: dict[tuple[Vector, Vector], TensorPoly] = {}

    # -- local interpolation -------------------------------------------------

    def local_interp(self, level: Sequence[int], cell: Sequence[int]) -> TensorPoly:
        """Tensor interpolant of the function on one dyadic cell (memoized)."""
        level = tuple(int(k) for k in level)
        cell = tuple(int(c) for c in cell)
        for k, c in zip(level, cell):
            if k < 0 or not 0 <= c <= 2**k - 1:
                raise ValueError(f"cell {cell} invalid at level {level}")
        key = (level, cell)
        poly = self._polys.get(key)
        if poly is None:
            box = _cell_box(level, cell)
            poly = self._polys[key] = interpolate(self._f, self.degrees, *box)
        return poly

    # -- level operator -------------------------------------------------------

    def quasi_interp_deriv(
        self, level: Sequence[int], deriv: Sequence[int], x: Sequence[float]
    ) -> float:
        """Mixed derivative of the level operator at a point.

        Only the translates covering ``x`` contribute, at most
        ``prod (order_j + 1)`` of them; each contributes by the product rule
        over the splits of ``deriv`` between polynomial and spline factor.
        """
        level = tuple(int(k) for k in level)
        deriv = tuple(int(r) for r in deriv)
        for r, m in zip(deriv, self.order):
            if not 0 <= r <= m:
                raise ValueError(f"derivative order {deriv} not within spline order {self.order}")
        return self._blended(
            level, deriv, x, lambda shift: self.local_interp(level, tuple(max(s, 0) for s in shift))
        )

    def _blended(
        self,
        level: Vector,
        deriv: Vector,
        x: Sequence[float],
        poly_at: Callable[[Vector], TensorPoly],
    ) -> float:
        """``D^deriv sum_shift poly_at(shift) * g[level, shift]`` at ``x``.

        The sum runs over the translates covering ``x``, each by the product
        rule over the splits of ``deriv`` between polynomial and spline
        factor; a translate's polynomial is built only once one of its
        spline factors is nonzero.
        """
        cell = _cell_of(level, x)
        # factors[j][s][i]: 2**(k_j s) psi^(s) at u_j = 2**k_j x_j - shift_j for
        # the i-th covering translate of axis j, shift_j = cell_j + i - m_j.
        # Inside the cube u_j is held below the knot m_j - i + 1, onto which it
        # rounds half an ulp below a cell's right end (reading the next piece).
        factors = []
        for k, m, r, c, xj in zip(level, self.order, deriv, cell, x):
            u = math.ldexp(xj, k) - np.arange(c - m, c + 1)
            if xj < 1.0:
                u = np.minimum(u, np.nextafter(np.arange(m + 1.0, 0.0, -1.0), 0.0))
            factors.append(
                [
                    [2.0 ** (k * s) * v for v in _blend(m, s, u, xj == 1.0).tolist()]
                    for s in range(r + 1)
                ]
            )
        total = 0.0
        for idx in product(*[range(m + 1) for m in self.order]):
            poly = None
            for split in product(*[range(r + 1) for r in deriv]):
                spline = 1.0
                for j in range(self.dim):
                    spline *= factors[j][split[j]][idx[j]]
                if spline == 0.0:
                    continue
                if poly is None:
                    poly = poly_at(tuple(c + i - m for c, i, m in zip(cell, idx, self.order)))
                rest = tuple(r - s for r, s in zip(deriv, split))
                binom = math.prod(math.comb(r, s) for r, s in zip(deriv, split))
                total += binom * spline * poly.deriv_eval(rest, x)
        return total

    # -- surplus operator -----------------------------------------------------

    def surplus_deriv(
        self, level: Sequence[int], deriv: Sequence[int], x: Sequence[float]
    ) -> float:
        """Mixed derivative of the surplus (signed level difference) at a point."""
        level = tuple(int(k) for k in level)
        total = 0.0
        for mask in decrement_masks(level):
            sign = -1.0 if sum(mask) % 2 else 1.0
            lower = tuple(k - e for k, e in zip(level, mask))
            total += sign * self.quasi_interp_deriv(lower, deriv, x)
        return total

    def surplus_local_poly(
        self, level: Sequence[int], shift: Sequence[int]
    ) -> TensorPoly:
        """Polynomial factor multiplying one translate in the surplus expansion.

        The surplus equals ``sum_shift g[level, shift] * U[level, shift]``;
        ``U`` combines coarse-level interpolants through the two-scale
        refinement coefficients of the blending spline.  The admissible
        coarse cells per decremented axis are those whose doubled index
        lands within refinement range of ``shift``.
        """
        level = tuple(int(k) for k in level)
        shift = tuple(int(s) for s in shift)
        for m, k, s in zip(self.order, level, shift):
            if not -m <= s <= 2**k - 1:
                raise ValueError(f"shift {shift} not active at level {level}")
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
                terms.append((weight, self.local_interp(lower, anchor)))
        # The signed combination is again a polynomial of the same coordinate
        # degree; re-read it at the nodes of the anchor cell of ``shift``.
        anchor = tuple(max(s, 0) for s in shift)
        combined = lambda pt: sum(w * p.eval(pt) for w, p in terms)  # noqa: E731
        return interpolate(combined, self.degrees, *_cell_box(level, anchor))

    def surplus_via_translates(
        self, level: Sequence[int], deriv: Sequence[int], x: Sequence[float]
    ) -> float:
        """Surplus derivative assembled from the per-translate polynomials.

        Independent route to `surplus_deriv`; the two must agree.
        """
        level = tuple(int(k) for k in level)
        deriv = tuple(int(r) for r in deriv)
        return self._blended(
            level, deriv, x, lambda shift: self.surplus_local_poly(level, shift)
        )

