"""Test functions with known mixed smoothness, and a modulus estimator.

Registry entries carry an analytic value, analytic mixed derivatives (valid
away from declared kink loci), and the smoothness they are declared to have.
Declared exponents are what the entry is *known* to satisfy for the stated
integrability index; smooth factors satisfy any finite declaration.

`modulus_estimate` is a diagnostic built on the mixed-difference stencil:
the modulus is a supremum over all step vectors, so a finite lattice only
ever produces a lower estimate.  It is never used as recovery ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .grid import derivative_orders

Array = np.ndarray


def _as_points(x, d: int) -> Array:
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if pts.shape[-1] != d:
        raise ValueError(f"expected points with {d} coordinates, got shape {pts.shape}")
    return pts


@dataclass(frozen=True)
class TestFunction:
    """A registered function with analytic derivatives and declared smoothness."""

    fid: str
    d: int
    alpha: tuple[float, ...]
    p: float
    theta: float
    kink_loci: tuple[tuple[float, ...], ...]  # per axis, positions to avoid
    _deriv: Callable[[tuple[int, ...], Array], Array] = field(repr=False)

    def value(self, x) -> Array:
        return self._deriv((0,) * self.d, _as_points(x, self.d))

    def deriv(self, deriv: Sequence[int], x) -> Array:
        """Analytic mixed derivative, valid away from the kink loci."""
        return self._deriv(derivative_orders(deriv, self.d), _as_points(x, self.d))


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


def _tensor(factors: list[Callable[[Array, int], Array]]):
    def deriv(lam: tuple[int, ...], x: Array) -> Array:
        out = np.ones(len(x))
        for j, fac in enumerate(factors):
            out *= fac(x[:, j], lam[j])
        return out

    return deriv


def registry(d: int = 2) -> list[TestFunction]:
    """Registered test functions for dimension ``d``.

    Identifiers are stable CLI handles: "trig" (tensor trigonometric, smooth),
    "kink" (tensor |x - 1/2|**0.75, low smoothness on every axis), "poly"
    (tensor squares, for exactness checks), and for d >= 2 "aniso" (smooth in
    every axis except the last, plain absolute-value kink there, off the
    dyadic lattice at 1/3).
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    entries = []

    entries.append(
        TestFunction(
            fid="trig", d=d, alpha=(2.0,) * d, p=2.0, theta=math.inf,
            kink_loci=((),) * d, _deriv=_tensor([_sin_factor] * d),
        )
    )

    kink_expo = 0.75
    entries.append(
        TestFunction(
            fid="kink", d=d, alpha=(kink_expo,) * d, p=2.0, theta=math.inf,
            kink_loci=((0.5,),) * d,
            _deriv=_tensor([lambda c, r, e=kink_expo: _abs_factor(c, 0.5, e, r)] * d),
        )
    )

    entries.append(
        TestFunction(
            fid="poly", d=d, alpha=(2.5,) * d, p=2.0, theta=math.inf,
            kink_loci=((),) * d, _deriv=_tensor([_sq_factor] * d),
        )
    )

    if d >= 2:
        factors = [_sin_factor] * (d - 1) + [
            lambda c, r: _abs_factor(c, 1.0 / 3.0, 1.0, r)
        ]
        entries.append(
            TestFunction(
                fid="aniso", d=d, alpha=(2.0,) * (d - 1) + (1.5,), p=2.0, theta=2.0,
                kink_loci=((),) * (d - 1) + ((1.0 / 3.0,),),
                _deriv=_tensor(factors),
            )
        )
    return entries


def get_function(fid: str, d: int = 2) -> TestFunction:
    for entry in registry(d):
        if entry.fid == fid:
            return entry
    known = ", ".join(e.fid for e in registry(d))
    raise KeyError(f"unknown test function {fid!r} for d={d} (known: {known})")


# -- moduli of smoothness ----------------------------------------------------------


# Anchor points per axis of the uniform grid each step vector is tried on.
_GRID_POINTS = 16


def modulus_estimate(
    f: Callable[[Array], Array],
    order: Sequence[int],
    t: Sequence[float],
    axes: Sequence[int],
    p: float,
    step_lattice: int = 4,
) -> float:
    """Lower estimate of the mixed modulus of smoothness at step bounds ``t``.

    Maximizes the discrete L_p norm of the mixed difference (order masked to
    ``axes``) over a finite lattice of positive step vectors ``h <= t`` and a
    uniform grid of ``_GRID_POINTS`` anchors per axis inside the admissible
    domain.  Being a finite search it can only under-estimate the true
    supremum.  Raises ValueError if ``t`` or ``axes`` does not fit the
    dimension ``len(order)``, or if every step of the lattice takes the
    stencil out of the unit cube.
    """
    axes = tuple(sorted(set(int(a) for a in axes)))
    order = tuple(int(r) for r in order)
    d = len(order)
    if not axes:
        raise ValueError("need at least one active axis")
    if len(t) != d:
        raise ValueError(f"t={tuple(t)} has {len(t)} entries; order has {d}")
    if not 0 <= axes[0] <= axes[-1] < d:
        raise ValueError(f"axes={axes} must lie in 0..{d - 1}")
    eff = tuple(r if j in axes else 0 for j, r in enumerate(order))
    best = None
    lattice = [
        [float(t[j]) * i / step_lattice for i in range(1, step_lattice + 1)]
        if j in axes
        else [0.0]
        for j in range(d)
    ]
    for h in product(*lattice):
        span = [r * hj for r, hj in zip(eff, h)]
        if any(s >= 1.0 for s in span):
            continue
        # Anchor grid over the shrunken domain [0, 1 - order*h].
        axis_grids = [
            np.linspace(0.0, 1.0 - s, _GRID_POINTS) for s in span
        ]
        mesh = np.meshgrid(*axis_grids, indexing="ij")
        anchors = np.stack([m.ravel() for m in mesh], axis=-1)
        diffs = np.zeros(len(anchors))
        for k in product(*[range(r + 1) for r in eff]):
            c = math.prod(math.comb(r, kj) for r, kj in zip(eff, k))
            s = (-1) ** (sum(eff) - sum(k))
            shifted = anchors + np.array([kj * hj for kj, hj in zip(k, h)])
            diffs += s * c * f(shifted)
        vol = math.prod(1.0 - s for s in span)
        if math.isinf(p):
            norm = float(np.max(np.abs(diffs)))
        else:
            norm = float((np.mean(np.abs(diffs) ** p) * vol) ** (1.0 / p))
        best = norm if best is None else max(best, norm)
    if best is None:
        raise ValueError(f"every step h <= t={tuple(map(float, t))} takes the stencil off the cube")
    return best
