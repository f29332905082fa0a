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
(`horner`).  `TensorPoly` evaluates through these helpers, the batched
`Approximant` blends its derivative into its tables with `transform` and
reduces them with `horner`, and `bspline.bspline_derivative` reduces its
piece tables with `horner` too.
`interpolate` is the one way to build a `TensorPoly` from a function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Callable, Sequence

import numpy as np

MAX_DEGREE = 12
NODE_BITS = 40


def _check_degree(deg: int) -> None:
    if not isinstance(deg, (int, np.integer)) or deg < 0:
        raise ValueError(f"degree must be a nonnegative integer, got {deg!r}")
    if deg > MAX_DEGREE:
        raise ValueError(f"degree {deg} exceeds supported maximum {MAX_DEGREE}")


@lru_cache(maxsize=None)
def nodes_exact(deg: int) -> tuple[Fraction, ...]:
    """deg+1 strictly increasing dyadic rationals in the open unit interval."""
    _check_degree(deg)
    out = []
    scale = 1 << NODE_BITS
    for i in range(deg + 1):
        v = (1.0 - math.cos((2 * i + 1) * math.pi / (2 * deg + 2))) / 2.0
        out.append(Fraction(round(v * scale), scale))
    assert all(0 < v < 1 for v in out)
    assert all(a < b for a, b in zip(out, out[1:]))
    return tuple(out)


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


def horner(coeffs: np.ndarray, axis: int, t) -> np.ndarray:
    """Reduce coefficient axis ``axis`` by Horner's rule at ``t``.

    ``t`` is a scalar, or holds one coordinate per entry of the last axis of
    a ``(q_0, ..., q_{n-1}, m)`` block of m points; the result lacks ``axis``.
    """
    lead = (slice(None),) * axis
    q = coeffs.shape[axis]
    if q == 1:
        return coeffs[lead + (0,)]
    acc = coeffs[lead + (q - 1,)] * t
    acc += coeffs[lead + (q - 2,)]
    for i in range(q - 3, -1, -1):
        acc *= t
        acc += coeffs[lead + (i,)]
    return acc


def _check_box(dim: int, x0: Sequence[float], delta: Sequence[float]) -> None:
    if len(x0) != dim or not all(math.isfinite(v) for v in x0):
        raise ValueError(f"x0 must hold {dim} finite coordinates, got {x0}")
    if len(delta) != dim or not all(0 < v < math.inf for v in delta):
        raise ValueError(f"delta must hold {dim} finite widths > 0, got {delta}")


@dataclass(frozen=True)
class TensorPoly:
    """Tensor-product polynomial stored by its values at the box nodes.

    ``values[i1, ..., id]`` is the value at the node with per-axis indices
    ``i``; the node grid lives on the box ``x0 + delta * [0,1]^d``.  The
    object is immutable: it keeps a read-only float copy of ``values``, so
    the caller's array stays writable, and its monomial coefficient tensor,
    in the local coordinates ``u = (x - x0)/delta``, is computed once at
    construction.  A ``values``, ``x0`` or ``delta`` that does not fit
    ``degrees`` raises a ValueError naming the field.
    """

    degrees: tuple[int, ...]
    x0: tuple[float, ...]
    delta: tuple[float, ...]
    values: np.ndarray
    _coeffs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        shape = tuple(d + 1 for d in self.degrees)
        if not isinstance(self.values, np.ndarray) or self.values.shape != shape:
            raise ValueError(f"values must be an array of shape {shape}, one entry per node")
        _check_box(self.dim, self.x0, self.delta)
        values = self.values.astype(float)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_coeffs", monomial_coeffs(values, self.degrees))

    @property
    def dim(self) -> int:
        return len(self.degrees)

    def eval(self, x: Sequence[float]) -> float:
        return self.deriv_eval((0,) * self.dim, x)

    def deriv_eval(self, deriv: Sequence[int], x: Sequence[float]) -> float:
        """Mixed derivative of the polynomial at a point (zero past the degree).

        The point may lie outside the box; a non-finite coordinate raises a
        ValueError naming the point.
        """
        if len(deriv) != self.dim or len(x) != self.dim:
            raise ValueError("dimension mismatch")
        if any(r < 0 for r in deriv):
            raise ValueError("derivative orders must be nonnegative")
        if not all(map(math.isfinite, x)):
            raise ValueError(f"point {tuple(x)} is not finite")
        if any(r > d for r, d in zip(deriv, self.degrees)):
            return 0.0
        c = self._coeffs
        for axis, (r, dl) in enumerate(zip(deriv, self.delta)):
            if r:
                c = differentiate(c, axis, r) / dl**r
        for axis in range(self.dim - 1, -1, -1):
            c = horner(c, axis, (x[axis] - self.x0[axis]) / self.delta[axis])
        return float(c)


def interpolate(
    f: Callable[[tuple[float, ...]], float],
    degrees: Sequence[int],
    x0: Sequence[float],
    delta: Sequence[float],
) -> TensorPoly:
    """Tensor interpolant of ``f`` at the nodes of the box ``x0 + delta * [0,1]^d``.

    ``f`` is called once per node, with the node as a tuple of floats, after
    the box has been checked.
    """
    _check_box(len(degrees), x0, delta)
    axis_nodes = [nodes(d) for d in degrees]
    vals = np.empty(tuple(d + 1 for d in degrees))
    for idx in product(*[range(d + 1) for d in degrees]):
        vals[idx] = f(tuple(a + w * ns[i] for a, w, ns, i in zip(x0, delta, axis_nodes, idx)))
    return TensorPoly(tuple(degrees), tuple(x0), tuple(delta), vals)
