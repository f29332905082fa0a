"""The level operators in exact rationals: the oracle of `recovery`.

Along an axis at level ``k``, degree ``deg`` and derivative (and blending
spline) order ``r``, take at ``x`` the cell ``c = min(floor(2**k x), 2**k - 1)``
(the last cell is closed at ``x = 1``) and ``t = 2**k x - c``.  The translate
of each offset ``o = -r..0`` gives every node ``i`` the cardinal function
``2**(k r) D_t^r [psi_r piece(-o)(t) L_i(t - o)]`` of sample cell ``c + o``,
or ``2**(k r) D_t^r [psi_r piece(-o)(t) L_i(t + c)]`` of cell 0 when
``c + o < 0`` (translates left of the cube carry cell 0's polynomial), with
the Lagrange basis ``L_i`` on `interp.nodes_exact` and the B-spline pieces
of `bspline.piece_table`.  ``R_l(x)`` sums over the tensor product of the
axes' nonzero (cell, node) pairs the product of the functions times the
sample at row ``bounds[l]`` plus the C-order index of ``(cells..., nodes...)``.
Points and samples convert to rationals exactly and the sums run in
integers; a result comes with its absolute term sum, the scale of the
roundoff of a float evaluation.  Nothing is shared with `recovery`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Sequence

import numpy as np

from .bspline import piece_table
from .interp import as_integers, as_points, as_values, nodes_exact

@lru_cache(maxsize=None)
def _cardinal(deg: int, r: int, piece: int, shift: int) -> tuple[int, tuple]:
    """``D_t^r [psi_r piece(t) L_i(t + shift)]`` for each node i: a common
    denominator and, per node, the ascending integer coefficients over it."""
    xs, polys = nodes_exact(deg), []
    for i, xi in enumerate(xs):
        basis = [Fraction(1)]
        for xj in xs[:i] + xs[i + 1 :]:
            basis = [(lo - xj * hi) / (xi - xj) for lo, hi in zip([0, *basis], [*basis, 0])]
        shifted = [
            sum(math.comb(p, j) * shift ** (p - j) * c for p, c in enumerate(basis) if p >= j)
            for j in range(deg + 1)
        ]
        prod = [Fraction(0)] * (deg + r + 1)
        for a, u in enumerate(piece_table(r, 0)[piece]):
            for b, w in enumerate(shifted):
                prod[a + b] += u * w
        polys.append([math.perm(p, r) * c for p, c in enumerate(prod) if p >= r])
    den = math.lcm(*(c.denominator for poly in polys for c in poly))
    return den, tuple(tuple(c.numerator * (den // c.denominator) for c in poly) for poly in polys)


def cardinal(k: int, deg: int, r: int, x) -> tuple[int, list[tuple[int, int, int]]]:
    """One axis at level k and the real ``x``: a common denominator and the
    nonzero ``(cell, node, numerator)`` of the cardinal functions over it."""
    n = 1 << k
    num, q = x.as_integer_ratio()  # t = 2**k x - c = big_t / q
    c = min(num * n // q, n - 1)
    big_t = num * n - c * q
    tables = [
        (c + o, *_cardinal(deg, r, -o, -o)) if c + o >= 0 else (0, *_cardinal(deg, r, -o, c))
        for o in range(-r, 1)
    ]
    den = math.lcm(*(den for _, den, _ in tables))
    acc: dict[tuple[int, int], int] = {}
    for cell, table_den, polys in tables:
        for i, poly in enumerate(polys):
            v, qp = poly[-1], 1  # Horner's rule times q**deg
            for coeff in reversed(poly[:-1]):
                qp *= q
                v = v * big_t + coeff * qp
            acc[cell, i] = acc.get((cell, i), 0) + v * (den // table_den)
    return den * q**deg, [(cell, i, v * n**r) for (cell, i), v in acc.items() if v]


class ExactEvaluator:
    """``R_l(x)`` of a plan's samples, and their combination, each with its absolute term sum.

    ``values`` holds one finite real per plan point (floats or `Fraction`s,
    checked by `interp.as_values`) and ``deriv`` one order per axis in
    ``[0, degree]``.  A level is checked per axis in ``[0, the plan's
    largest]`` and must be the plan's; a point is one point of the closed
    unit cube (`interp.as_points`).  ``R_l(x)`` is memoized per (level,
    point), each axis's functions per (axis, level, coordinate).
    """

    def __init__(self, plan, values: Sequence, deriv: Sequence[int]):
        self.deriv = as_integers(deriv, "derivative order", plan.params.d, 0, plan.params.degrees)
        checked = as_values(values, "ExactEvaluator(values)", plan.n_actual, plan.describe)
        self.plan = plan
        # A float array is read in place; a sequence keeps its exact entries.
        self._values = checked if isinstance(values, np.ndarray) else list(values)
        self._start = {level: int(start) for level, start in zip(plan.levels, plan.bounds)}
        self._top = [max(ks) for ks in zip(*plan.levels)]
        self._memo: dict[tuple, tuple[Fraction, Fraction]] = {}
        self._axes: dict[tuple, tuple[int, list[tuple[int, int, int]]]] = {}

    def _point(self, x) -> tuple[float, ...]:
        d = self.plan.params.d
        pts = as_points(x, d, 0.0, 1.0)
        if pts.ndim != 1:
            raise ValueError(f"points of shape {pts.shape}: expected one point of {d} coordinates")
        return tuple(pts.tolist())

    def level(self, level: Sequence[int], x) -> tuple[Fraction, Fraction]:
        """``R_level`` at one point."""
        level = as_integers(level, "level", self.plan.params.d, 0, self._top)
        if level not in self._start:
            raise ValueError(f"level {level} is not a level of the plan")
        return self._level(level, self._point(x))

    def __call__(self, x) -> tuple[Fraction, Fraction]:
        """``sum_l w_l R_l`` at one point, over the plan's combination weights."""
        pt, value, total = self._point(x), Fraction(0), Fraction(0)
        for level, weight in zip(self.plan.levels, self.plan.combination):
            if weight:
                v, a = self._level(level, pt)
                value, total = value + weight * v, total + abs(weight) * a
        return value, total

    def _level(self, level: tuple[int, ...], pt: tuple[float, ...]) -> tuple[Fraction, Fraction]:
        if (level, pt) in self._memo:
            return self._memo[level, pt]
        d, degrees = len(level), self.plan.params.degrees
        shape = [1 << k for k in level] + [dg + 1 for dg in degrees]
        strides = [math.prod(shape[i + 1 :]) for i in range(2 * d)]
        den, axes = 1, []
        for j, (k, xj) in enumerate(zip(level, pt)):
            if (j, k, xj) not in self._axes:
                self._axes[j, k, xj] = cardinal(k, degrees[j], self.deriv[j], xj)
            common, phis = self._axes[j, k, xj]
            den *= common
            axes.append([(c * strides[j] + i * strides[d + j], a) for c, i, a in phis])
        terms = []
        for combo in product(*axes):
            row, a = self._start[level], 1
            for offset, num in combo:
                row, a = row + offset, a * num
            terms.append((*self._values[row].as_integer_ratio(), a))
        # Every term over one denominator: the value and its absolute sum in integers.
        lcm = math.lcm(*(q for _, q, _ in terms))
        scaled = [p * (lcm // q) * a for p, q, a in terms]
        got = Fraction(sum(scaled), lcm * den), Fraction(sum(map(abs, scaled)), lcm * den)
        self._memo[level, pt] = got
        return got
