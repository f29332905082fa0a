"""Test functions with known mixed smoothness, and a modulus estimator.

A registry entry is a product of one factor per axis, as mixed smoothness
is set axis by axis.  Each `Factor` carries its analytic derivatives (valid
away from its kinks), its declared exponent and its kinks, and the entry's
dimension, class, kink loci and mixed derivatives follow from them.  A
declared exponent is what a factor is *known* to satisfy at integrability
index p = 2; smooth factors satisfy any finite declaration.

`modulus_estimate` is a diagnostic built on the mixed-difference stencil:
the modulus is a supremum over all step vectors, so a finite lattice only
ever produces a lower estimate.  It is never used as recovery ground truth.

Functions here follow the package's one calling convention: a registry
entry evaluates one point ``(d,)`` or an ``(n, d)`` array of finite points
(`interp.as_points`) and returns ``(n,)`` values, ``(1,)`` for one point.
So does a `Derivative`, which also gives its factors axis by axis, for
`recovery` to fill tensor grids from.
`modulus_estimate` calls its ``f`` once per step vector, on the ``(n, d)``
array of every stencil offset's anchors, and refuses anything but ``n``
finite values (`interp.as_values`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .interp import as_integer, as_integers, as_points, as_real, as_reals, as_values, tensor_grid

Array = np.ndarray


@dataclass(frozen=True)
class Factor:
    """One axis of a registry entry: ``at(col, r)`` is the r-th derivative on
    a column of coordinates, ``alpha`` the declared exponent and ``kinks``
    the positions where a derivative may not exist."""

    at: Callable[[Array, int], Array]
    alpha: float
    kinks: tuple[float, ...] = ()


@dataclass(frozen=True)
class TestFunction:
    """A registered function: the product of its per-axis ``factors``, whose
    mixed derivative is the product of the factors' derivatives."""

    fid: str
    factors: tuple[Factor, ...]

    @property
    def d(self) -> int:
        return len(self.factors)

    @property
    def alpha(self) -> tuple[float, ...]:
        return tuple(f.alpha for f in self.factors)

    @property
    def kink_loci(self) -> tuple[tuple[float, ...], ...]:
        return tuple(f.kinks for f in self.factors)

    def value(self, x) -> Array:
        return self.deriv((0,) * self.d, x)

    def deriv(self, deriv: Sequence[int], x) -> Array:
        """Analytic mixed derivative, valid away from the kink loci."""
        return self.derivative(deriv)(x)

    def derivative(self, deriv: Sequence[int]) -> Derivative:
        """``D^deriv`` of this function as a callable of points (`Derivative`)."""
        return Derivative(self.factors, as_integers(deriv, "derivative order", self.d, 0))


@dataclass(frozen=True)
class Derivative:
    """``D^orders`` of the product of ``factors``: called on points like
    `TestFunction.deriv`, and a `recovery.ProductFn` of ``factor(j, col)``."""

    factors: tuple[Factor, ...]
    orders: tuple[int, ...]

    @property
    def d(self) -> int:
        return len(self.orders)

    def __call__(self, x) -> Array:
        pts = as_points(x, self.d).reshape(-1, self.d)
        out = np.ones(len(pts))
        for j, col in enumerate(pts.T):
            out *= self.factor(j, col)
        return out

    def factor(self, j: int, col: Array) -> Array:
        return self.factors[j].at(col, self.orders[j])


# -- factor library ---------------------------------------------------------------

def _sin_factor(col: Array, order: int) -> Array:
    return math.pi**order * np.sin(math.pi * col + 0.3 + order * math.pi / 2.0)


def _abs_factor(col: Array, center: float, expo: float, order: int) -> Array:
    t = col - center
    if order == 0:
        return np.abs(t) ** expo
    coef = math.prod(expo - i for i in range(order))
    if coef == 0.0:
        return np.zeros_like(t)
    return coef * np.abs(t) ** (expo - order) * np.sign(t) ** order


def _sq_factor(col: Array, order: int) -> Array:
    if order == 0:
        return col**2
    if order == 1:
        return 2.0 * col
    if order == 2:
        return np.full_like(col, 2.0)
    return np.zeros_like(col)


def _abs(center: float, expo: float, alpha: float) -> Factor:
    """``|x - center|**expo``, declared at exponent ``alpha``, kinked at ``center``."""
    return Factor(lambda col, r: _abs_factor(col, center, expo, r), alpha, (center,))


def registry(d: int = 2) -> list[TestFunction]:
    """Registered test functions for dimension ``d``.

    Identifiers are stable CLI handles: "trig" (tensor trigonometric, smooth),
    "kink" (tensor |x - 1/2|**0.75, low smoothness on every axis), "poly"
    (tensor squares, for exactness checks), and for d >= 2 "aniso" (smooth in
    every axis except the last, plain absolute-value kink there, off the
    dyadic lattice at 1/3).
    """
    d = as_integer(d, "d", 1)
    trig = Factor(_sin_factor, 2.0)
    entries = [
        TestFunction("trig", (trig,) * d),
        TestFunction("kink", (_abs(0.5, 0.75, 0.75),) * d),
        TestFunction("poly", (Factor(_sq_factor, 2.5),) * d),
    ]
    if d >= 2:
        entries.append(TestFunction("aniso", (trig,) * (d - 1) + (_abs(1.0 / 3.0, 1.0, 1.5),)))
    return entries


def get_function(fid: str, d: int = 2) -> TestFunction:
    entries = registry(d)
    for entry in entries:
        if entry.fid == fid:
            return entry
    known = ", ".join(e.fid for e in entries)
    raise ValueError(f"unknown test function {fid!r} for d={d} (known: {known})")


# -- moduli of smoothness ----------------------------------------------------------


# Anchor points per axis of the uniform grid each step vector is tried on.
_GRID_POINTS = 16
# Steps t_j * i / _STEP_LATTICE, i = 1.._STEP_LATTICE, per active axis j.
_STEP_LATTICE = 4


def modulus_estimate(
    f: Callable[[Array], Array],
    order: Sequence[int],
    t: Sequence[float],
    axes: Sequence[int],
    p: float,
) -> float:
    """Lower estimate of the mixed modulus of smoothness at step bounds ``t``.

    Maximizes the discrete L_p norm of the mixed difference (order masked to
    ``axes``) over a lattice of ``_STEP_LATTICE`` positive steps
    ``h_j <= t_j`` per active axis and a uniform grid of ``_GRID_POINTS``
    anchors per axis inside the admissible domain, calling ``f`` once per
    step vector on the anchors of every stencil offset, stacked in stencil
    order.  Being a finite search it can only under-estimate the true
    supremum.  ``order``, ``t`` and ``axes`` are sequences, checked by
    `interp.as_integers` and `interp.as_reals`.  Raises ValueError if one
    is not, if ``order`` or ``axes`` is empty, if an order or an axis is not
    an integer (never truncated), if an order is negative, if an axis lies
    outside ``0..len(order) - 1``, if ``p`` lies outside ``[1, inf]``, if
    ``t`` does not hold one entry per order, finite and > 0, if every step
    of the lattice takes the stencil out of the unit cube, or if ``f`` does
    not return one finite value per point.
    """
    order = as_integers(order, "difference order", None, 0)
    d = len(order)
    axes = tuple(sorted(set(as_integers(axes, "modulus axis", None, 0, d - 1))))
    p = as_real(p, "p", 1, math.inf)
    t = as_reals(t, "t", d, 0, open_low=True)
    eff = tuple(r if j in axes else 0 for j, r in enumerate(order))
    best = None
    lattice = [
        [t[j] * i / _STEP_LATTICE for i in range(1, _STEP_LATTICE + 1)]
        if j in axes
        else [0.0]
        for j in range(d)
    ]
    for h in product(*lattice):
        span = [r * hj for r, hj in zip(eff, h)]
        if any(s >= 1.0 for s in span):
            continue
        # Anchor grid over the shrunken domain [0, 1 - order*h].
        anchors = tensor_grid([np.linspace(0.0, 1.0 - s, _GRID_POINTS) for s in span])
        # Every stencil offset's shifted anchors in one array, for one f call.
        stencil = list(product(*[range(r + 1) for r in eff]))
        shifted = np.concatenate(
            [anchors + np.array([kj * hj for kj, hj in zip(k, h)]) for k in stencil]
        )
        values = as_values(
            f(shifted), "modulus_estimate(f)", len(shifted),
            lambda i: f"point {shifted[i].tolist()}",
        ).reshape(len(stencil), len(anchors))
        diffs = np.zeros(len(anchors))
        for k, v in zip(stencil, values):
            c = math.prod(math.comb(r, kj) for r, kj in zip(eff, k))
            s = (-1) ** (sum(eff) - sum(k))
            diffs += s * c * v
        vol = math.prod(1.0 - s for s in span)
        if math.isinf(p):
            norm = float(np.max(np.abs(diffs)))
        else:
            norm = float((np.mean(np.abs(diffs) ** p) * vol) ** (1.0 / p))
        best = norm if best is None else max(best, norm)
    if best is None:
        raise ValueError(f"every step h <= t={t} takes the stencil off the cube")
    return best
