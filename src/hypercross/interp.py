"""Tensor-product Lagrange interpolation on axis-aligned boxes.

Per axis the nodes are Chebyshev-Gauss points mapped to (0, 1) and then
snapped once to dyadic rationals with denominator ``2**NODE_BITS``.  The snap
is what makes sample-point identity across dyadic cells decidable in exact
arithmetic (see `hypercross.grid`); at 2**-40 it is far below every tolerance
used anywhere else.

Node values become local monomial coefficients through the Lagrange basis
products, multiplied out in exact rationals and cached per degree
(`monomial_coeffs`, applied along each axis by `transform`); derivatives
keep the coefficients from power r on, scaled by falling factorials
(`differentiate`), and values come from Horner's rule one axis at a time
(`horner`).  `stack_deriv_eval` is the one evaluator of tensor polynomials:
it reduces a stack of same-degree `TensorPoly`s at once, each point at its
own polynomial, and `TensorPoly.deriv_eval` calls it on a stack of one.
The batched `Approximant` blends its derivative into its tables with
`transform` and reduces them with `horner`, and
`bspline.bspline_derivative` reduces its piece tables with `horner` too.
`interpolate` is the one way to build a `TensorPoly` from a function.

Every function the package takes is called on an ``(n, d)`` float array of
points, one per row, and must return ``n`` finite values.  This module holds
the input checks every other module shares, each raising a ValueError that
names the input:
- `as_integer` decides every integer input (degrees, orders, dimensions,
  radii, budgets, `Quadrature` fields, ...) and `as_real` every real one
  (class parameters, level weights and radii, exponents, step bounds,
  boxes): any integral number becomes an int, any real number a float, and
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
from dataclasses import dataclass, field
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
    return np.array([[float(col[p]) for col in cols] for p in range(deg + 1)])


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


def differentiate(coeffs: np.ndarray, axis: int, r: int) -> np.ndarray:
    """Coefficients of the ``r``-th derivative along coefficient axis ``axis``.

    Keeps powers ``r`` and above, each times the falling factorial
    ``perm(i, r)``; the axis shrinks by ``r``.
    """
    if r == 0:
        return coeffs
    fac = np.array([math.perm(i, r) for i in range(r, coeffs.shape[axis])], dtype=float)
    lead = (slice(None),) * axis
    return coeffs[lead + (slice(r, None),)] * fac.reshape((-1,) + (1,) * (coeffs.ndim - axis - 1))


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


def _box(dim: int, x0, delta) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """A box's corner ``x0`` (finite) and widths ``delta`` (> 0) as floats."""
    return as_reals(x0, "x0", dim), as_reals(delta, "delta", dim, 0, open_low=True)


@dataclass(frozen=True)
class TensorPoly:
    """Tensor-product polynomial stored by its values at the box nodes.

    ``values[i1, ..., id]`` is the value at the node with per-axis indices
    ``i``; the node grid lives on the box ``x0 + delta * [0,1]^d``.  The
    object is immutable: it keeps ``x0`` and ``delta`` as float tuples and a
    read-only float copy of ``values``, so the caller's array stays
    writable, and its monomial coefficient tensor, in the local coordinates
    ``u = (x - x0)/delta``, is computed once at construction.  ``degrees``
    become ints in ``[0, MAX_DEGREE]``, and a ``values``, ``x0`` or ``delta``
    that does not fit them raises a ValueError naming the field.
    """

    degrees: tuple[int, ...]
    x0: tuple[float, ...]
    delta: tuple[float, ...]
    values: np.ndarray
    _coeffs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        degrees = as_integers(self.degrees, "degree", None, 0, MAX_DEGREE)
        object.__setattr__(self, "degrees", degrees)
        shape = tuple(d + 1 for d in degrees)
        if not isinstance(self.values, np.ndarray) or self.values.shape != shape:
            raise ValueError(f"values must be an array of shape {shape}, one entry per node")
        x0, delta = _box(self.dim, self.x0, self.delta)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "delta", delta)
        values = self.values.astype(float)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_coeffs", monomial_coeffs(values, self.degrees))

    @property
    def dim(self) -> int:
        return len(self.degrees)

    def eval(self, x):
        return self.deriv_eval((0,) * self.dim, x)

    def deriv_eval(self, deriv: Sequence[int], x):
        """Mixed derivative of the polynomial at a point (a float), or at each
        row of an ``(n, d)`` array (an ``(n,)`` array); zero past the degree.

        The points may lie outside the box but must be finite (see
        `as_points`); an order must be an integer ``>= 0``, one per axis (see
        `as_integers`).  One point is the case ``n = 1``: Horner's rule runs
        along a trailing point axis, with the same float operations per point.
        """
        deriv = as_integers(deriv, "derivative order", self.dim, 0)
        pts = as_points(x, self.dim)
        rows = pts.reshape(-1, self.dim)
        out = stack_deriv_eval([self], deriv, rows, np.zeros(len(rows), dtype=np.intp))
        return float(out[0]) if pts.ndim == 1 else out


def stack_deriv_eval(
    polys: Sequence[TensorPoly], deriv: Sequence[int], rows: np.ndarray, owner: np.ndarray
) -> np.ndarray:
    """Mixed derivative of ``polys[owner[i]]`` at row ``i`` of ``rows``, as ``(n,)``.

    The polynomials share their degrees, and their coefficient tensors are
    stacked along a trailing axis: Horner's rule gathers row ``i``'s
    coefficients at ``owner[i]`` and runs along the point axis, each row
    taking the float steps of its polynomial evaluated alone.  Zero past the
    degree.  The input is not checked: ``deriv`` holds ints ``>= 0`` and
    ``rows`` finite points, one per axis (see `TensorPoly.deriv_eval`).
    """
    if any(r > d for r, d in zip(deriv, polys[0].degrees)):
        return np.zeros(len(rows))
    c = np.stack([p._coeffs for p in polys], axis=-1)
    for axis, r in enumerate(deriv):
        if r:
            c = differentiate(c, axis, r) / np.array([p.delta[axis] ** r for p in polys])
    x0, delta = np.array([p.x0 for p in polys]), np.array([p.delta for p in polys])
    t = (rows - x0[owner]) / delta[owner]
    out = horner(c, c.ndim - 2, t[:, -1], index=owner, at=-1)
    for axis in range(c.ndim - 3, -1, -1):
        out = horner(out, axis, t[:, axis])
    return out


def interpolate(
    f: Callable[[np.ndarray], np.ndarray],
    degrees: Sequence[int],
    x0: Sequence[float],
    delta: Sequence[float],
) -> TensorPoly:
    """Tensor interpolant of ``f`` at the nodes of the box ``x0 + delta * [0,1]^d``.

    After the degrees and the box have been checked, ``f`` is called once,
    on the ``(n, d)`` array of the nodes ``x0 + delta * node`` in C order,
    and must return their ``n`` finite values (see `as_values`).
    """
    degrees = as_integers(degrees, "degree", None, 0, MAX_DEGREE)
    x0, delta = _box(len(degrees), x0, delta)
    pts = tensor_grid([a + w * np.array(nodes(g)) for a, w, g in zip(x0, delta, degrees)])
    vals = as_values(f(pts), "interpolate(f)", len(pts), lambda i: f"point {pts[i].tolist()}")
    return TensorPoly(degrees, x0, delta, vals.reshape([g + 1 for g in degrees]))
