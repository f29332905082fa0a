"""Cardinal B-splines on integer knots and their dyadic translates.

The degree-``m`` cardinal B-spline is the ``m``-fold self-convolution of the
indicator of the unit interval; it is supported on ``[0, m+1]``, nonnegative,
and its integer translates form a partition of unity.  Everything here is
derived once in exact rational arithmetic (the convolution recurrence yields
piecewise polynomials with rational coefficients) and evaluated by Horner's
rule on cached float tables.

Pointwise values at knots follow the half-open convention: the defining
polynomial piece on ``[k, k+1)`` also supplies the value at ``x = k``, so a
derivative at a knot is the right-hand limit.  All identities (partition of
unity, refinement, ...) hold almost everywhere regardless of the convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

# Largest per-axis spline order kept in the precomputed tables.  The recovery
# construction only ever needs the order of the requested derivative, so this
# is generous.
MAX_ORDER = 10


def _check_order(m: int) -> None:
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise ValueError(f"spline order must be a nonnegative integer, got {m!r}")
    if m > MAX_ORDER:
        raise ValueError(f"spline order {m} exceeds supported maximum {MAX_ORDER}")


@lru_cache(maxsize=None)
def _pieces(m: int) -> tuple[tuple[Fraction, ...], ...]:
    """Exact polynomial pieces of the degree-m cardinal B-spline.

    Piece ``k`` (for ``k = 0..m``) holds ascending coefficients in the local
    variable ``u = x - k``, valid on ``[k, k+1)``.
    """
    if m == 0:
        return ((Fraction(1),),)
    prev = _pieces(m - 1)
    # Antiderivative F of the degree-(m-1) spline, piece by piece, with the
    # running constant chosen so F is continuous and F(0) = 0.
    anti: list[tuple[Fraction, ...]] = []
    const = Fraction(0)
    for piece in prev:
        integ = [const] + [c / (j + 1) for j, c in enumerate(piece)]
        anti.append(tuple(integ))
        const += sum(c / (j + 1) for j, c in enumerate(piece))
    # const is now the total integral, which equals 1 for every order.
    assert const == 1

    def anti_piece(k: int) -> tuple[Fraction, ...]:
        if k < 0:
            return (Fraction(0),)
        if k >= m:
            return (Fraction(1),)
        return anti[k]

    # psi_m(x) = F(x) - F(x-1); on [k, k+1) both arguments share the local u.
    pieces: list[tuple[Fraction, ...]] = []
    for k in range(m + 1):
        a = anti_piece(k)
        b = anti_piece(k - 1)
        width = max(len(a), len(b))
        coeffs = tuple(
            (a[j] if j < len(a) else Fraction(0)) - (b[j] if j < len(b) else Fraction(0))
            for j in range(width)
        )
        pieces.append(coeffs)
    return tuple(pieces)


@lru_cache(maxsize=None)
def _float_table(m: int, r: int) -> np.ndarray:
    """Float coefficients of the r-th derivative of each piece, shape (m+1, m+1-r)."""
    pieces = _pieces(m)
    width = m + 1 - r
    table = np.zeros((m + 1, width))
    for k, piece in enumerate(pieces):
        for j in range(r, len(piece)):
            table[k, j - r] = float(piece[j] * math.perm(j, r))
    return table


def bspline_eval(m: int, x: float) -> float:
    """Value of the degree-m cardinal B-spline at x (support [0, m+1])."""
    return bspline_derivative(m, 0, x)


def bspline_derivative(m: int, r: int, x: float) -> float:
    """r-th derivative of the degree-m cardinal B-spline at x.

    At a knot the right-hand limit is returned.  Orders ``r > m`` leave the
    bounded-derivative range and are rejected.
    """
    _check_order(m)
    if not 0 <= r <= m:
        raise ValueError(f"derivative order {r} not in [0, {m}]")
    k = math.floor(x)
    if k < 0 or k > m:
        return 0.0
    row = _float_table(m, r)[k]
    u = x - k
    acc = 0.0
    for c in row[::-1]:
        acc = acc * u + c
    return acc


def bspline_eval_many(m: int, x: np.ndarray) -> np.ndarray:
    """Vectorized `bspline_eval` over an array of points."""
    return bspline_deriv_many(m, 0, x)


def bspline_deriv_many(m: int, r: int, x: np.ndarray) -> np.ndarray:
    """Vectorized `bspline_derivative` over an array of points."""
    _check_order(m)
    if not 0 <= r <= m:
        raise ValueError(f"derivative order {r} not in [0, {m}]")
    x = np.asarray(x, dtype=float)
    k = np.floor(x).astype(np.int64)
    inside = (k >= 0) & (k <= m)
    ks = np.where(inside, k, 0)
    table = _float_table(m, r)
    rows = table[ks]
    u = x - ks
    acc = np.zeros_like(u)
    for j in range(rows.shape[-1] - 1, -1, -1):
        acc = acc * u + rows[..., j]
    return np.where(inside, acc, 0.0)


def refinement_coeffs(m: int) -> tuple[Fraction, ...]:
    """Two-scale coefficients: psi_m(x) = sum_mu a_mu psi_m(2x - mu) a.e.

    The m+2 coefficients are ``2**-m * binomial(m+1, mu)``.
    """
    _check_order(m)
    return tuple(Fraction(math.comb(m + 1, mu), 2**m) for mu in range(m + 2))


@dataclass(frozen=True)
class SplineTranslate:
    """A tensor B-spline rescaled to dyadic level ``level`` and shifted by ``shift``.

    The function is ``x -> prod_j psi_{order_j}(2**level_j * x_j - shift_j)``,
    supported on ``2**-level * (shift + (order + 1) * [0,1]^d)``.
    """

    order: tuple[int, ...]
    level: tuple[int, ...]
    shift: tuple[int, ...]

    def __post_init__(self) -> None:
        if not len(self.order) == len(self.level) == len(self.shift):
            raise ValueError("order, level and shift must share one dimension")
        for m in self.order:
            _check_order(m)
        if any(k < 0 for k in self.level):
            raise ValueError("dyadic level must be nonnegative")

    @property
    def dim(self) -> int:
        return len(self.order)


def translate_deriv(t: SplineTranslate, deriv: Sequence[int], x: Sequence[float]) -> float:
    """Mixed derivative of a scaled translate at a point.

    Each axis contributes ``2**(level*deriv)`` from the chain rule, so the
    sup-norm of the result scales like ``2**(level, deriv)``.
    """
    if len(deriv) != t.dim or len(x) != t.dim:
        raise ValueError("dimension mismatch")
    out = 1.0
    for m, k, n, r, xj in zip(t.order, t.level, t.shift, deriv, x):
        if not 0 <= r <= m:
            raise ValueError(f"derivative order {r} not in [0, {m}]")
        out *= 2.0 ** (k * r) * bspline_derivative(m, r, math.ldexp(xj, k) - n)
        if out == 0.0:
            return 0.0
    return out
