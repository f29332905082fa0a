"""Cardinal B-splines on integer knots and their two-scale refinement.

The degree-``m`` cardinal B-spline is the ``m``-fold self-convolution of the
indicator of the unit interval; it is supported on ``[0, m+1]``, nonnegative,
and its integer translates form a partition of unity.  Its pieces come from
the truncated-power form (Schoenberg 1946; de Boor, *A Practical Guide to
Splines*)

    psi_m^(r)(x) = sum_i (-1)^i C(m+1, i) (x - i)_+^(m-r) / (m-r)!,

expanded exactly in rationals (`piece_table`, which `recovery` blends with)
and rounded once per coefficient.  One evaluator, `bspline_derivative`,
serves scalars and arrays alike: it looks up each point's row of a cached
float table of derivative coefficients and reduces it with `interp.horner`,
the Horner step every polynomial in the package goes through.

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

from .interp import as_integer, horner

# Largest per-axis spline order kept in the precomputed tables.  The recovery
# construction only ever needs the order of the requested derivative, so this
# is generous.
MAX_ORDER = 10


@lru_cache(maxsize=None)
def piece_table(m: int, r: int) -> tuple[tuple[Fraction, ...], ...]:
    """Exact coefficients of the r-th derivative of each piece, (m+1) rows of m+1-r.

    Row ``k`` holds ascending coefficients in the local variable ``u = x - k``,
    valid on ``[k, k+1)``.  There only the translates ``i <= k`` of the
    truncated-power form are active, and ``x - i = u + (k - i)``; each entry
    is an exact integer divided by ``(m-r)!``.
    """
    n = m - r
    return tuple(
        tuple(
            Fraction(math.comb(n, j), math.factorial(n))
            * sum((-1) ** i * math.comb(m + 1, i) * (k - i) ** (n - j) for i in range(k + 1))
            for j in range(n + 1)
        )
        for k in range(m + 1)
    )


@lru_cache(maxsize=None)
def _float_table(m: int, r: int) -> np.ndarray:
    """`piece_table` rounded once per entry, shape (m+1, m+1-r)."""
    table = np.array([[float(c) for c in row] for row in piece_table(m, r)])
    table.setflags(write=False)  # cached: every caller shares it
    return table


def bspline_derivative(m: int, r: int, x) -> np.ndarray:
    """r-th derivative of the degree-m cardinal B-spline at x.

    ``x`` is a scalar or an array; the result is an array of its shape (0-d
    for a scalar).  At a knot the right-hand limit is returned, and points
    outside the support give 0.  A NaN or infinite ``x`` raises a
    ValueError naming the first such entry.  Orders ``r > m`` leave the
    bounded-derivative range and are rejected.
    """
    m = as_integer(m, "spline order", 0, MAX_ORDER)
    r = as_integer(r, "derivative order", 0, m)
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        at = tuple(int(i) for i in np.argwhere(~np.isfinite(x))[0])
        name = f"x[{', '.join(map(str, at))}]" if at else "x"
        raise ValueError(f"{name} = {x[at]} is not finite")
    k = np.floor(x)
    inside = (k >= 0) & (k <= m)
    ks = np.where(inside, k, 0).astype(np.int64)
    return np.where(inside, horner(_float_table(m, r).T, 0, x - ks, index=ks, at=-1), 0.0)


def refinement_coeffs(m: int) -> tuple[Fraction, ...]:
    """Two-scale coefficients: psi_m(x) = sum_mu a_mu psi_m(2x - mu) a.e.

    The m+2 coefficients are ``2**-m * binomial(m+1, mu)``.
    """
    m = as_integer(m, "spline order", 0, MAX_ORDER)
    return tuple(Fraction(math.comb(m + 1, mu), 2**m) for mu in range(m + 2))
