"""Tensor-product Lagrange interpolation on dyadic cells, and the shared input checks.

Per axis the nodes are Chebyshev-Gauss points mapped to (0, 1) and then
snapped once to dyadic rationals with denominator ``2**NODE_BITS``.  The snap
is what makes sample-point identity across dyadic cells decidable in exact
arithmetic (see `hypercross.grid`); at 2**-40 it is far below every tolerance
used anywhere else.

Node values become local monomial coefficients through the Lagrange basis
products, multiplied out in exact rationals and cached per degree
(`monomial_coeffs`, applied along each axis by `transform`), and values come
from Horner's rule one axis at a time (`horner`).  The batched `Approximant`
blends its derivative into its tables with `transform` and reduces them with
`horner`, and `bspline.bspline_derivative` reduces its piece tables with
`horner` too.

Every function the package takes is called on an ``(n, d)`` float array of
points, one per row, and must return ``n`` finite values.  This module holds
the input checks every other module shares, each raising a ValueError that
names the input:
- `as_integer` decides every integer input (degrees, orders, dimensions,
  radii, budgets, `Quadrature` fields, ...) and `as_real` every real one
  (class parameters, level weights and radii, exponents, step bounds):
  any integral number becomes an int, any real number a float, and
  a bool, a non-number, a fraction (for an int), NaN or a value out of
  bounds is refused; `as_integers` and `as_reals` decide every vector input:
  a sequence, of d entries where d is known and of at least one otherwise,
  entry j checked as ``axis j:``;
- `as_points` checks one point ``(d,)`` or an ``(n, d)`` array: the shape,
  finiteness and, where given, the bounds of every coordinate;
- `as_values` checks what a function returned: one finite value per point.
`tensor_grid` is the one builder of tensor grids of points.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from typing import Callable, Sequence

import numpy as np

MAX_DEGREE = 12
NODE_BITS = 40


def as_integer(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """``value`` as an int in ``[low, high]``, never truncated: ``2.0`` and
    ``np.int64(2)`` give 2, and a bool (Python or numpy), a fraction, a
    non-number or a value out of bounds raises a ValueError naming ``name``."""
    try:
        n = int(value)
        integral = n == value and not isinstance(value, (bool, np.bool_))
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ValueError(f"{name}: expected an integer, got {value!r}")
    if low is not None and n < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    if high is not None and n > high:
        raise ValueError(f"{name} {value} exceeds supported maximum {high}")
    return n


def as_real(value, name: str, low=None, high=None, open_low: bool = False) -> float:
    """``value`` as a float in ``[low, high]``, or ``(low, high]`` with
    ``open_low``: a bool (Python or numpy), a non-number, NaN or a value out
    of bounds raises a ValueError naming ``name``.  Without ``high`` the
    value must be finite; an infinity needs ``high = math.inf``."""
    if type(value) is not float and (
        not isinstance(value, numbers.Real) or isinstance(value, (bool, np.bool_))
    ):
        raise ValueError(f"{name}: expected a real number, got {value!r}")
    x = float(value)
    lo, left = (-math.inf, "(") if low is None else (low, "(" if open_low else "[")
    hi, right = (math.inf, ")") if high is None else (high, "]")
    # NaN fails every comparison.
    if not (lo < x if left == "(" else lo <= x) or not (x < hi if right == ")" else x <= hi):
        raise ValueError(f"{name} must lie in {left}{lo:g}, {hi:g}{right}, got {value!r}")
    return x


def _per_axis(check, values, name: str, d: int | None, bounds) -> tuple:
    """``values`` as d entries (at least one for d = None), entry j checked by
    ``check(value, name, *bounds[j])``, its message prefixed by ``axis j:``;
    a ValueError names a non-sequence or a count other than d."""
    try:
        values = tuple(values)
    except TypeError:
        raise ValueError(f"{name}: expected a sequence, got {values!r}") from None
    if d is None and not values:
        raise ValueError(f"{name}: expected at least one entry, got ()")
    if d is not None and len(values) != d:
        raise ValueError(f"{name} {values} must have {d} entries, one per axis")
    out = []
    for v, b in zip(values, bounds):
        try:
            out.append(check(v, name, *b))
        except ValueError as exc:
            # Every message of a check starts with the name it was given.
            raise ValueError(f"axis {len(out)}: {exc}") from None
    return tuple(out)


def as_integers(values, name: str, d: int | None, low=None, high=None) -> tuple[int, ...]:
    """``values`` as d ints, checked by `as_integer` through `_per_axis`; a
    bound is one for every axis, or a tuple or list of one per axis."""
    low, high = (b if isinstance(b, (tuple, list)) else repeat(b) for b in (low, high))
    return _per_axis(as_integer, values, name, d, zip(low, high))


def as_reals(
    values, name: str, d: int | None, low=None, high=None, open_low=False
) -> tuple[float, ...]:
    """``values`` as d floats, checked by `as_real` through `_per_axis`."""
    return _per_axis(as_real, values, name, d, repeat((low, high, open_low)))


def as_points(x, d: int, low: float | None = None, high: float | None = None) -> np.ndarray:
    """``x`` as a float array of one point, shape ``(d,)``, or of ``n`` points
    as rows, shape ``(n, d)``; ``n = 0`` is accepted.

    Any other shape, a non-finite coordinate or one outside ``[low, high]``
    raises a ValueError naming the point (and its row, for an array).
    """
    pts = np.asarray(x, dtype=float)
    if pts.ndim not in (1, 2) or pts.shape[-1] != d:
        shown = f"point {pts.tolist()}" if pts.ndim == 1 else f"points of shape {pts.shape}"
        raise ValueError(f"{shown}: expected one point of {d} coordinates or an (n, {d}) array")
    rows = pts.reshape(-1, d)
    # Finite bounds refuse a NaN or an infinity too.
    ok = np.isfinite(rows) if low is None else (rows >= low) & (rows <= high)
    if not ok.all():
        bad = int(np.flatnonzero(~ok.all(axis=1))[0])
        row = f" (row {bad})" if pts.ndim == 2 else ""
        cube = "" if low is None else f" or lies outside [{low:g}, {high:g}]^{d}"
        raise ValueError(f"point {rows[bad].tolist()}{row} is not finite{cube}")
    return pts


def as_values(values, name: str, n: int, where: Callable[[int], str]) -> np.ndarray:
    """``values`` as a float array of ``n`` finite values, one per point; a
    float array is checked in place, not copied.

    ``where(i)`` describes the point of value ``i``.  A ValueError names
    ``name`` and the shape, or the first non-finite value and its point.
    """
    v = np.asarray(values, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"{name}: values of shape {v.shape} for {n} points, expected ({n},)")
    if not np.isfinite(v).all():
        i = int(np.flatnonzero(~np.isfinite(v))[0])
        raise ValueError(f"{name}: value {v[i]} is not finite: evaluation failed at {where(i)}")
    return v


def tensor_grid(axes: Sequence[np.ndarray]) -> np.ndarray:
    """The tensor grid of per-axis coordinate vectors, one point per row, in C order."""
    d = len(axes)
    pts = np.empty(tuple(map(len, axes)) + (d,))
    for j, axis in enumerate(axes):
        pts[..., j] = np.reshape(axis, (-1,) + (1,) * (d - 1 - j))
    return pts.reshape(-1, d)


# Typed, so True misses an entry cached for np.int64(1), which compares equal.
@lru_cache(maxsize=None, typed=True)
def nodes_exact(deg: int) -> tuple[Fraction, ...]:
    """deg+1 strictly increasing dyadic rationals in the open unit interval."""
    deg = as_integer(deg, "degree", 0, MAX_DEGREE)
    out = []
    scale = 1 << NODE_BITS
    for i in range(deg + 1):
        v = (1.0 - math.cos((2 * i + 1) * math.pi / (2 * deg + 2))) / 2.0
        out.append(Fraction(round(v * scale), scale))
    assert all(0 < v < 1 for v in out)
    assert all(a < b for a, b in zip(out, out[1:]))
    return tuple(out)


@lru_cache(maxsize=None, typed=True)  # typed, like `nodes_exact`
def nodes(deg: int) -> tuple[float, ...]:
    """Interpolation nodes for one axis as floats (exact images of `nodes_exact`)."""
    return tuple(float(v) for v in nodes_exact(deg))


@lru_cache(maxsize=None)
def _monomial_matrix(deg: int) -> np.ndarray:
    """Matrix M with M @ values = ascending monomial coefficients.

    Column ``i`` holds the Lagrange basis polynomial of node ``i``,
    ``prod_{j != i} (x - x_j) / (x_i - x_j)``, multiplied out in exact
    rationals, so polynomial reproduction is limited only by the final float
    rounding.
    """
    xs = nodes_exact(deg)
    cols = []
    for i, xi in enumerate(xs):
        c = [Fraction(1)]
        for xj in xs[:i] + xs[i + 1:]:
            # c * (x - xj) / (xi - xj), ascending powers.
            c = [(lo - xj * hi) / (xi - xj) for lo, hi in zip([0] + c, c + [0])]
        cols.append(c)
    matrix = np.array([[float(col[p]) for col in cols] for p in range(deg + 1)])
    matrix.setflags(write=False)  # cached: every caller shares it
    return matrix


def monomial_coeffs(values: np.ndarray, degrees: Sequence[int]) -> np.ndarray:
    """Ascending monomial coefficients of tensor interpolants, from node values.

    Axis ``j < len(degrees)`` of ``values`` runs over the ``degrees[j] + 1``
    nodes of that axis and becomes the coefficient axis of power ``0..deg``;
    trailing axes (cells, say) are carried along.
    """
    c = values
    for axis, deg in enumerate(degrees):
        c = transform(c, _monomial_matrix(deg), axis)
    return c


def transform(coeffs: np.ndarray, matrix: np.ndarray, axis: int) -> np.ndarray:
    """Apply ``matrix`` to every vector along axis ``axis``; the other axes are carried along."""
    return np.moveaxis(np.tensordot(matrix, coeffs, axes=([1], [axis])), 0, axis)


def horner(coeffs: np.ndarray, axis: int, t, index=None, at: int = 0, out=None) -> np.ndarray:
    """Reduce coefficient axis ``axis`` by Horner's rule at ``t``.

    ``t`` is a scalar, or holds one coordinate per entry of the last axis of
    a ``(q_0, ..., q_{n-1}, m)`` block of m points; the result lacks ``axis``.
    With ``index``, each coefficient slice is first taken at ``index`` along
    its axis ``at``: the float steps of ``horner(np.take(coeffs, index,
    axis=...), axis, t)``, holding one taken slice at a time.  With ``out``,
    the result is written there, broadcast to its shape, and returned.
    """
    lead = (slice(None),) * axis

    def coeff(i: int) -> np.ndarray:
        c = coeffs[lead + (i,)]
        return c if index is None else np.take(c, index, axis=at)

    q = coeffs.shape[axis]
    if q == 1:
        if out is None:
            return coeff(0)
        out[...] = coeff(0)
        return out
    acc = np.multiply(coeff(q - 1), t, out=out)
    acc += coeff(q - 2)
    for i in range(q - 3, -1, -1):
        acc *= t
        acc += coeff(i)
    return acc
