"""Anisotropic dyadic level sets, sample-point enumeration, and budgeting.

The recovery construction samples at the tensor interpolation nodes of every
cell of every level ``k`` with ``(k, weights) <= radius``.  Along an axis,
node ``i`` of cell ``c`` at level ``k`` sits at ``(c * 2**40 + n_i) / 2**(k+40)``
(nodes are snapped to ``2**-40``, see `hypercross.interp`) with
``k <= MAX_RADIUS = 22``.  At the common denominator ``2**62`` its numerator
``(c * 2**40 + n_i) << (22 - k)`` fits an int64, so one such key per axis
names a point exactly: plans are int64 key arrays.  No two (level, cell,
node) triples name the same point, which the node family checks once per
degree, so a plan is its triples in enumeration order, the rows of one level
are one contiguous run, and the point count of a radius is a sum of level
sizes.

Smoothness bookkeeping turns the class parameters into the quantities the
construction needs: the per-axis effective exponents, their minimum (the
expected convergence rate), its multiplicity, and the level weights that
shape the anisotropic cross.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, TextIO

import numpy as np

from .interp import NODE_BITS, nodes_exact

_TIE_REL = 1e-9
# Levels beyond this would overflow the int64 keys below (and make per-axis
# cell counts far outside enumerable range anyway).
MAX_RADIUS = 22
# Every coordinate is a key over 2**KEY_BITS; keys stay below 2**62 < 2**63.
KEY_BITS = NODE_BITS + MAX_RADIUS


# -- exact keys ------------------------------------------------------------------


@lru_cache(maxsize=None)
def _node_numerators(deg: int) -> tuple[int, ...]:
    # Node values have denominators dividing 2**NODE_BITS, so this is exact.
    nums = tuple((v.numerator << NODE_BITS) // v.denominator for v in nodes_exact(deg))
    # Plans hold no duplicate points.  Nodes lie strictly inside the cell, so
    # the cells of one level share none; a node of level k is also a node of
    # level k + s along an axis only if (N << s) mod 2**NODE_BITS is again a
    # node numerator.
    mask = (1 << NODE_BITS) - 1
    assert all(
        set(nums).isdisjoint((n << s) & mask for n in nums) for s in range(1, MAX_RADIUS + 1)
    ), f"degree {deg}: interpolation nodes coincide across levels"
    return nums


def _axis_keys(k: int, deg: int) -> np.ndarray:
    """Keys of node ``i`` of cell ``c`` along one axis at level ``k``, shape (2**k, deg+1)."""
    nums = np.array(_node_numerators(deg), dtype=np.int64)
    cells = np.arange(1 << k, dtype=np.int64) << NODE_BITS
    return (cells[:, None] + nums[None, :]) << (MAX_RADIUS - k)


# -- smoothness bookkeeping ------------------------------------------------------


def as_integer(value, name: str) -> int:
    """``value`` as an int, never truncated: anything but an integral number
    (booleans included) raises a ValueError naming ``name`` and the value."""
    try:
        if not isinstance(value, bool) and int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name}: expected an integer, got {value!r}")


def derivative_orders(deriv: Sequence, d: int) -> tuple[int, ...]:
    """``deriv`` as d nonnegative ints; a ValueError names a bad order and its axis."""
    if len(deriv) != d:
        raise ValueError(f"derivative index {tuple(deriv)} needs {d} orders")
    for j, r in enumerate(deriv):
        if as_integer(r, f"axis {j}: derivative order") < 0:
            raise ValueError(f"axis {j}: derivative order {r} is negative")
    return tuple(int(r) for r in deriv)


@dataclass(frozen=True)
class SmoothnessParams:
    """Class parameters plus everything derived from them.

    ``orders`` is the componentwise smallest integer strictly above ``alpha``
    (the mixed-difference order of the class); local interpolation uses
    degree ``orders - 1`` per axis.  ``eff`` are the effective per-axis
    exponents ``alpha - deriv - (1/p - 1/q)_+``; their minimum ``rate`` is
    the expected main decay exponent, attained on ``min_axes`` with
    multiplicity ``rate_mult``.  ``weights`` shape the level set: 1 on the
    binding axes, the geometric midpoint of the admissible interval
    ``(1, eff_j / rate)`` elsewhere.
    """

    d: int
    alpha: tuple[float, ...]
    p: float
    q: float
    theta: float
    deriv: tuple[int, ...]
    orders: tuple[int, ...]
    degrees: tuple[int, ...]
    eff: tuple[float, ...]
    rate: float
    rate_mult: int
    min_axes: tuple[int, ...]
    weights: tuple[float, ...]


def derive_params(
    d: int,
    alpha: Sequence[float],
    p: float,
    q: float,
    theta: float,
    deriv: Sequence[int],
) -> SmoothnessParams:
    """Validate class parameters and derive the recovery bookkeeping.

    Raises ValueError naming the failing axis when ``alpha_j`` is not
    finite, or when the integrability condition ``alpha_j > 1/p`` or the
    positivity condition ``alpha_j - deriv_j - (1/p - 1/q)_+ > 0`` is
    violated.
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    alpha = tuple(float(a) for a in alpha)
    if len(alpha) != d:
        raise ValueError("alpha must have length d")
    deriv = derivative_orders(deriv, d)
    if not 1 <= p < math.inf:
        raise ValueError("p must lie in [1, inf)")
    if not 1 <= q:
        raise ValueError("q must lie in [1, inf]")
    if not 1 <= theta:
        raise ValueError("theta must lie in [1, inf]")
    for j, a in enumerate(alpha):
        if not math.isfinite(a):
            raise ValueError(f"axis {j}: alpha={a} is not finite")
        if a - 1.0 / p <= 0:
            raise ValueError(f"axis {j}: alpha={a} fails alpha - 1/p > 0 (p={p})")
    gap = max(1.0 / p - (0.0 if math.isinf(q) else 1.0 / q), 0.0)
    eff = tuple(a - r - gap for a, r in zip(alpha, deriv))
    for j, g in enumerate(eff):
        if g <= 0:
            raise ValueError(
                f"axis {j}: effective exponent {g} <= 0 "
                f"(alpha={alpha[j]}, deriv={deriv[j]}, shift={gap})"
            )
    rate = min(eff)
    min_axes = tuple(j for j, g in enumerate(eff) if g - rate <= _TIE_REL * max(rate, 1.0))
    weights = tuple(
        1.0 if j in min_axes else math.sqrt(eff[j] / rate) for j in range(d)
    )
    orders = tuple(math.floor(a) + 1 for a in alpha)
    return SmoothnessParams(
        d=d,
        alpha=alpha,
        p=float(p),
        q=float(q),
        theta=float(theta),
        deriv=deriv,
        orders=orders,
        degrees=tuple(o - 1 for o in orders),
        eff=eff,
        rate=rate,
        rate_mult=len(min_axes),
        min_axes=min_axes,
        weights=weights,
    )


# -- level sets and weighted sums --------------------------------------------------


def index_set(weights: Sequence[float], radius: float) -> list[tuple[int, ...]]:
    """All nonnegative integer vectors with ``sum(weights * k) <= radius``, sorted.

    Enumerated axis by axis with budget pruning, each prefix extended in
    increasing order, so the list comes out sorted; weights must be >= 1 so
    the set is finite with per-axis range bounded by the radius.
    """
    weights = tuple(float(w) for w in weights)
    if any(w < 1.0 for w in weights):
        raise ValueError("level weights must be >= 1")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    # (prefix, budget left for the remaining axes)
    front: list[tuple[tuple[int, ...], float]] = [((), float(radius))]
    for w in weights:
        front = [
            (prefix + (k,), budget - k * w)
            for prefix, budget in front
            for k in range(math.floor(budget / w + 1e-12) + 1)
        ]
    return [prefix for prefix, _ in front]


def weighted_sum(exponents: Sequence[float], weights: Sequence[float], radius: float) -> float:
    """``sum over the level set of 2**(k, exponents)`` (growth-law diagnostic)."""
    return math.fsum(
        2.0 ** sum(k * a for k, a in zip(lvl, exponents))
        for lvl in index_set(weights, radius)
    )


def tail_sum(exponents: Sequence[float], weights: Sequence[float], radius: float) -> float:
    """``sum over levels outside the set of 2**-(k, exponents)``.

    Computed as the closed-form total over all levels (a product of geometric
    series) minus the finite head, so there is no truncation error.
    """
    exponents = tuple(float(a) for a in exponents)
    if any(a <= 0 for a in exponents):
        raise ValueError("tail exponents must be positive")
    total = math.prod(1.0 / (1.0 - 2.0**-a) for a in exponents)
    return total - weighted_sum([-a for a in exponents], weights, radius)


# -- plans -------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RecoveryPlan:
    """Sample layout for one level set, as arrays.

    ``levels`` is the sorted level set.  Row ``i`` of ``keys`` (shape
    ``(n_actual, d)``, int64) names point ``i`` exactly: its coordinates are
    ``keys[i] / 2**KEY_BITS``.  Points come in enumeration order: levels
    sorted, and rows ``bounds[l]:bounds[l + 1]`` hold the cells of
    ``levels[l]`` in C order, node indices in C order within a cell, so that
    they reshape to ``(*2**levels[l], *(degrees + 1))``.
    """

    params: SmoothnessParams
    levels: tuple[tuple[int, ...], ...]
    keys: np.ndarray
    bounds: np.ndarray

    @property
    def n_actual(self) -> int:
        return len(self.keys)

    def floats(self) -> np.ndarray:
        """Point coordinates as an ``(n_actual, d)`` float array, correctly rounded."""
        return self.keys * 2.0**-KEY_BITS

    def describe(self, i: int) -> str:
        """Point ``i`` with its float coordinates and provenance, for error messages."""
        li = int(np.searchsorted(self.bounds, i, side="right")) - 1
        lvl, d = self.levels[li], self.params.d
        shape = _level_shape(self.params, lvl)
        tag = [int(t) for t in np.unravel_index(i - self.bounds[li], shape)]
        return (
            f"point {i} at {(self.keys[i] * 2.0**-KEY_BITS).tolist()} "
            f"(level {lvl}, cell {tuple(tag[:d])}, node {tuple(tag[d:])})"
        )


def _check_radius(radius: int) -> int:
    radius = as_integer(radius, "radius")
    if radius < 1:
        raise ValueError("radius must be a positive integer")
    if radius > MAX_RADIUS:
        raise ValueError(f"radius {radius} exceeds supported maximum {MAX_RADIUS}")
    return radius


def _level_shape(params: SmoothnessParams, level: Sequence[int]) -> tuple[int, ...]:
    return tuple(1 << k for k in level) + tuple(dg + 1 for dg in params.degrees)


def _raw_keys(params: SmoothnessParams, levels: Sequence[tuple[int, ...]]) -> np.ndarray:
    """Keys of every (level, cell, node) triple, as one ``(n, d)`` array.

    Levels in the given order; within a level cells in C order outside,
    node indices in C order inside.
    """
    d = params.d
    blocks = []
    for lvl in levels:
        shape = _level_shape(params, lvl)
        block = np.empty(shape + (d,), dtype=np.int64)
        for j, (k, dg) in enumerate(zip(lvl, params.degrees)):
            axis_shape = [1] * (2 * d)
            axis_shape[j] = 1 << k
            axis_shape[d + j] = dg + 1
            block[..., j] = _axis_keys(k, dg).reshape(axis_shape)
        blocks.append(block.reshape(-1, d))
    return np.concatenate(blocks)


def build_plan(params: SmoothnessParams, radius: int) -> RecoveryPlan:
    """Enumerate all sample points for the given radius."""
    radius = _check_radius(radius)
    levels = index_set(params.weights, radius)
    _guard_raw_size(params, levels)
    return RecoveryPlan(
        params=params,
        levels=tuple(levels),
        keys=_raw_keys(params, levels),
        bounds=np.cumsum([0] + [math.prod(_level_shape(params, lvl)) for lvl in levels]),
    )


_MAX_RAW_POINTS = 50_000_000


def _raw_count(params: SmoothnessParams, levels: Sequence[tuple[int, ...]]) -> int:
    return sum(math.prod(_level_shape(params, lvl)) for lvl in levels)


def _guard_raw_size(params: SmoothnessParams, levels: Sequence[tuple[int, ...]]) -> None:
    raw = _raw_count(params, levels)
    if raw > _MAX_RAW_POINTS:
        raise ValueError(
            f"level set produces {raw} raw points, beyond the enumerable limit"
        )


def count_profile(params: SmoothnessParams, r_max: int) -> list[int]:
    """Point counts for radii 1..r_max.

    Every level of a plan brings all of its points, so a radius's count is
    the summed size of its level set, by the rule `choose_radius` uses.
    """
    r_max = _check_radius(r_max)
    return [_raw_count(params, index_set(params.weights, r)) for r in range(1, r_max + 1)]


def choose_radius(params: SmoothnessParams, budget: int) -> int:
    """Largest radius whose point count fits within ``budget``.

    The scan stops at ``MAX_RADIUS`` and at the last radius whose point
    count is within ``_MAX_RAW_POINTS``: a larger budget gets that radius.
    """
    budget = int(budget)
    radius = 0
    while radius < MAX_RADIUS:
        levels = index_set(params.weights, radius + 1)
        count = _raw_count(params, levels)
        if count > budget or count > _MAX_RAW_POINTS:
            break
        radius += 1
    if radius == 0:
        _guard_raw_size(params, levels)
        raise ValueError(f"budget {budget} is below the minimum plan size {count}")
    return radius


def write_plan(plan: RecoveryPlan, stream: TextIO) -> None:
    """Serialize a plan, one point per line.

    Columns (tab-separated): level vector, cell vector, node-index vector,
    exact coordinates as reduced ``numerator/denominator`` fractions (the
    denominator a power of two); vectors and coordinate lists are
    comma-joined.
    """
    d = plan.params.d
    columns = "\t".join([",".join(["%s"] * d)] * 3) + "\n"
    for li, lvl in enumerate(plan.levels):
        shape = _level_shape(plan.params, lvl)
        tags = np.unravel_index(np.arange(plan.bounds[li + 1] - plan.bounds[li]), shape)
        cells, nodes, coords = [], [], []
        for j, (k, dg) in enumerate(zip(lvl, plan.params.degrees)):
            # The distinct coordinates of this axis at this level, rendered
            # once: keys reduced by their common power of two.
            keys = _axis_keys(k, dg).ravel()
            zeros = np.frexp(keys & -keys)[1] - 1
            text = [
                f"{n}/{q}"
                for n, q in zip(
                    (keys >> zeros).tolist(), (np.int64(1) << (KEY_BITS - zeros)).tolist()
                )
            ]
            cell_j, node_j = tags[j], tags[d + j]
            names = [str(i) for i in range(max(1 << k, dg + 1))]
            cells.append(list(map(names.__getitem__, cell_j.tolist())))
            nodes.append(list(map(names.__getitem__, node_j.tolist())))
            coords.append(list(map(text.__getitem__, (cell_j * (dg + 1) + node_j).tolist())))
        row = ",".join(map(str, lvl)) + "\t" + columns
        stream.write("".join([row % t for t in zip(*cells, *nodes, *coords)]))
