"""Cardinal B-splines on integer knots and their two-scale refinement.

The degree-``m`` cardinal B-spline is the ``m``-fold self-convolution of the
indicator of the unit interval; it is supported on ``[0, m+1]``, nonnegative,
and its integer translates form a partition of unity.  Everything here is
derived once in exact rational arithmetic (the convolution recurrence yields
piecewise polynomials with rational coefficients).  One evaluator,
`bspline_derivative`, serves scalars and arrays alike: it looks up each
point's row of a cached float table of derivative coefficients and reduces
it with `interp.horner`, the Horner step every polynomial in the package
goes through.

Pointwise values at knots follow the half-open convention: the defining
polynomial piece on ``[k, k+1)`` also supplies the value at ``x = k``, so a
derivative at a knot is the right-hand limit.  All identities (partition of
unity, refinement, ...) hold almost everywhere regardless of the convention.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .interp import horner

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


def bspline_derivative(m: int, r: int, x) -> np.ndarray:
    """r-th derivative of the degree-m cardinal B-spline at x.

    ``x`` is a scalar or an array; the result is an array of its shape (0-d
    for a scalar).  At a knot the right-hand limit is returned, and points
    outside the support, or not finite, give 0.  Orders ``r > m`` leave the
    bounded-derivative range and are rejected.
    """
    _check_order(m)
    if not 0 <= r <= m:
        raise ValueError(f"derivative order {r} not in [0, {m}]")
    x = np.asarray(x, dtype=float)
    k = np.floor(x)
    inside = (k >= 0) & (k <= m)
    ks = np.where(inside, k, 0).astype(np.int64)
    # (m+1-r, *x.shape): the coefficients of each point's piece, one row per power.
    rows = _float_table(m, r).T[:, ks]
    return np.where(inside, horner(rows, 0, x - ks), 0.0)


def refinement_coeffs(m: int) -> tuple[Fraction, ...]:
    """Two-scale coefficients: psi_m(x) = sum_mu a_mu psi_m(2x - mu) a.e.

    The m+2 coefficients are ``2**-m * binomial(m+1, mu)``.
    """
    _check_order(m)
    return tuple(Fraction(math.comb(m + 1, mu), 2**m) for mu in range(m + 2))
