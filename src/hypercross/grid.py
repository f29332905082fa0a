"""Anisotropic dyadic level sets, sample-point enumeration, and budgeting.

The recovery construction samples at the tensor interpolation nodes of every
cell of every level ``k`` with ``(k, weights) <= radius``.  Along an axis,
node ``i`` of cell ``c`` at level ``k`` sits at ``(c * 2**40 + n_i) / 2**(k+40)``
(nodes are snapped to ``2**-40``, see `hypercross.interp`) with
``k <= MAX_RADIUS = 22``.  At the common denominator ``2**62`` its numerator
``(c * 2**40 + n_i) << (22 - k)`` fits an int64, so one such key per axis
names a point exactly.  No two (level, cell, node) triples name the same
point, which the node family checks once per degree, so a plan is its
triples in enumeration order, the rows of one level are one contiguous run,
and the point count of a radius is a sum of level sizes.  A plan therefore
stores only its level set, with each level's first row and combination
weight, and builds its int64 key array on access.

Smoothness bookkeeping turns the class parameters into the quantities the
construction needs: the per-axis effective exponents, their minimum (the
expected convergence rate), its multiplicity, and the level weights that
shape the anisotropic cross.

Integer inputs (the dimension, budgets, and radii in ``[1, MAX_RADIUS]``)
go through `interp.as_integer`, real ones through `interp.as_real`: finite
``alpha``, ``p`` in ``[1, inf)``, ``q`` and ``theta`` in ``[1, inf]``, level
weights >= 1 and radii >= 0, finite, and finite exponents of the level sums
(positive for `tail_sum`).  Vectors go through `as_integers` and `as_reals`,
their count set by ``d``, the level weights or a set's first level, which
hold at least one entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterator, Sequence, TextIO

import numpy as np

from .interp import NODE_BITS, as_integer, as_integers, as_real, as_reals, nodes_exact

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


def _axis_keys(k: int, deg: int, start: int, stop: int) -> np.ndarray:
    """Keys of the nodes of cells ``start:stop`` along one axis at level ``k``, (-1, deg+1)."""
    nums = np.array(_node_numerators(deg), dtype=np.int64)
    cells = np.arange(start, stop, dtype=np.int64) << NODE_BITS
    return (cells[:, None] + nums[None, :]) << (MAX_RADIUS - k)


# Bytes of plan text assembled per write, and of keys built at once: a run of
# indices along one axis of a level, at least one line or cell, so memory stays
# bounded whatever the plan size.
_BLOCK = 1 << 18


def _cell_runs(k: int, deg: int) -> Iterator[tuple[int, int]]:
    """``(start, stop)`` runs of the cells of level ``k`` whose keys fit ``_BLOCK`` bytes."""
    step = max(1, _BLOCK // (8 * (deg + 1)))
    for start in range(0, 1 << k, step):
        yield start, min(start + step, 1 << k)


# -- smoothness bookkeeping ------------------------------------------------------


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

    Each input is checked by `interp.as_integer` or `interp.as_real` (one
    per axis for ``alpha`` and ``deriv``).  Raises ValueError naming the
    failing axis when the integrability condition ``alpha_j > 1/p`` or the
    positivity condition ``alpha_j - deriv_j - (1/p - 1/q)_+ > 0`` is
    violated.
    """
    d = as_integer(d, "d", 1)
    alpha = as_reals(alpha, "alpha", d)
    deriv = as_integers(deriv, "derivative order", d, 0)
    p = as_real(p, "p", 1)
    q = as_real(q, "q", 1, math.inf)
    theta = as_real(theta, "theta", 1, math.inf)
    for j, a in enumerate(alpha):
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
        d=d, alpha=alpha, p=p, q=q, theta=theta, deriv=deriv, orders=orders,
        degrees=tuple(o - 1 for o in orders), eff=eff, rate=rate, rate_mult=len(min_axes),
        min_axes=min_axes, weights=weights,
    )


# -- level sets and weighted sums --------------------------------------------------


def index_set(weights: Sequence[float], radius: float) -> list[tuple[int, ...]]:
    """All nonnegative integer vectors with ``sum(weights * k) <= radius``, sorted.

    Enumerated axis by axis with budget pruning, each prefix extended in
    increasing order, so the list comes out sorted; weights must be finite
    and >= 1 so the set is finite with per-axis range bounded by the
    radius, and the radius finite and >= 0 (`interp.as_real`).
    """
    weights = as_reals(weights, "level weight", None, 1)
    radius = as_real(radius, "radius", 0)
    # (prefix, budget left for the remaining axes)
    front: list[tuple[tuple[int, ...], float]] = [((), radius)]
    for w in weights:
        front = [
            (prefix + (k,), budget - k * w)
            for prefix, budget in front
            for k in range(math.floor(budget / w + 1e-12) + 1)
        ]
    return [prefix for prefix, _ in front]


def weighted_sum(exponents: Sequence[float], weights: Sequence[float], radius: float) -> float:
    """``sum over the level set of 2**(k, exponents)`` (growth-law diagnostic).

    ``exponents`` must hold one finite value per weight.
    """
    weights = as_reals(weights, "level weight", None, 1)
    exponents = as_reals(exponents, "exponent", len(weights))
    return math.fsum(
        2.0 ** sum(k * a for k, a in zip(lvl, exponents))
        for lvl in index_set(weights, radius)
    )


def tail_sum(exponents: Sequence[float], weights: Sequence[float], radius: float) -> float:
    """``sum over levels outside the set of 2**-(k, exponents)``.

    Computed as the closed-form total over all levels (a product of geometric
    series) minus the finite head, so there is no truncation error.
    ``exponents`` must hold one finite value > 0 per weight.
    """
    weights = as_reals(weights, "level weight", None, 1)
    exponents = as_reals(exponents, "tail exponent", len(weights), 0, open_low=True)
    total = math.prod(1.0 / (1.0 - 2.0**-a) for a in exponents)
    return total - weighted_sum([-a for a in exponents], weights, radius)


def combination_weights(levels: Sequence[tuple[int, ...]]) -> dict[tuple[int, ...], int]:
    """Per-level weights that turn a sum of surpluses into a sum of level operators.

    Level k weighs ``sum over masks e of (-1)**|e| [k + e in the set]``.
    Only levels near the upper boundary of the (downward-closed) set survive.
    """
    if not levels:
        raise ValueError("levels: expected a nonempty level set")
    d = len(as_integers(levels[0], "level", None, 0))
    lset = {as_integers(level, "level", d, 0) for level in levels}
    out: dict[tuple[int, ...], int] = {}
    for lvl in lset:
        w = 0
        for mask in product((0, 1), repeat=d):
            if tuple(k + e for k, e in zip(lvl, mask)) in lset:
                w += (-1) ** sum(mask)
        if w:
            out[lvl] = w
    return out


# -- plans -------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RecoveryPlan:
    """Sample layout for one level set.

    ``levels`` is the sorted level set and ``combination[l]`` the
    combination weight of ``levels[l]`` (`combination_weights`, 0 off the
    upper boundary of the set).  Points come in enumeration order: levels
    sorted, and rows ``bounds[l]:bounds[l + 1]`` hold the cells of
    ``levels[l]`` in C order, node indices in C order within a cell, so that
    they reshape to ``(*2**levels[l], *(degrees + 1))``.  No per-point
    array is stored: `keys` builds one on each access.
    """

    params: SmoothnessParams
    levels: tuple[tuple[int, ...], ...]
    bounds: np.ndarray
    combination: tuple[int, ...]

    @property
    def n_actual(self) -> int:
        return int(self.bounds[-1])

    @property
    def keys(self) -> np.ndarray:
        """A new ``(n_actual, d)`` int64 array; row ``i`` names point ``i``
        exactly, its coordinates being ``keys[i] / 2**KEY_BITS``.

        Level ``l`` fills rows ``bounds[l]:bounds[l + 1]`` of the one array,
        cells in C order outside, node indices in C order inside.
        """
        return self._fill(np.int64)

    def floats(self) -> np.ndarray:
        """Point coordinates as an ``(n_actual, d)`` float array, correctly rounded.

        Filled like `keys` in one array: each key rounds to the nearest
        float, which ``2**-KEY_BITS`` then scales exactly.
        """
        out = self._fill(float)
        out *= 2.0**-KEY_BITS
        return out

    def _fill(self, dtype) -> np.ndarray:
        """An ``(n_actual, d)`` ``dtype`` array, filled one `_cell_runs` run of keys at a time."""
        params, d = self.params, self.params.d
        out = np.empty((self.n_actual, d), dtype=dtype)
        for lvl, start, stop in zip(self.levels, self.bounds, self.bounds[1:]):
            block = out[start:stop].reshape(_level_shape(params, lvl) + (d,))
            for j, (k, dg) in enumerate(zip(lvl, params.degrees)):
                axis_shape = [1] * (2 * d)
                axis_shape[d + j] = dg + 1
                for c0, c1 in _cell_runs(k, dg):
                    axis_shape[j] = c1 - c0
                    cells = (slice(None),) * j + (slice(c0, c1),)
                    block[(*cells, ..., j)] = _axis_keys(k, dg, c0, c1).reshape(axis_shape)
        return out

    def describe(self, i: int) -> str:
        """Point ``i`` with its float coordinates and provenance, for error messages."""
        i = as_integer(i, "point", 0, self.n_actual - 1)
        li = int(np.searchsorted(self.bounds, i, side="right")) - 1
        lvl, d = self.levels[li], self.params.d
        shape = _level_shape(self.params, lvl)
        tag = [int(t) for t in np.unravel_index(i - self.bounds[li], shape)]
        cell, node = tuple(tag[:d]), tuple(tag[d:])
        at = [
            (((c << NODE_BITS) + _node_numerators(dg)[n]) << (MAX_RADIUS - k)) * 2.0**-KEY_BITS
            for k, c, n, dg in zip(lvl, cell, node, self.params.degrees)
        ]
        return f"point {i} at {at} (level {lvl}, cell {cell}, node {node})"


def _level_shape(params: SmoothnessParams, level: Sequence[int]) -> tuple[int, ...]:
    return tuple(1 << k for k in level) + tuple(dg + 1 for dg in params.degrees)


def build_plan(params: SmoothnessParams, radius: int) -> RecoveryPlan:
    """The plan of all sample points for the given radius."""
    radius = as_integer(radius, "radius", 1, MAX_RADIUS)
    levels = index_set(params.weights, radius)
    sizes = [math.prod(_level_shape(params, lvl)) for lvl in levels]
    _guard_raw_size(sum(sizes))
    weights = combination_weights(levels)
    return RecoveryPlan(
        params=params,
        levels=tuple(levels),
        bounds=np.cumsum([0] + sizes),
        combination=tuple(weights.get(lvl, 0) for lvl in levels),
    )


_MAX_RAW_POINTS = 50_000_000


def _raw_count(params: SmoothnessParams, levels: Sequence[tuple[int, ...]]) -> int:
    return sum(math.prod(_level_shape(params, lvl)) for lvl in levels)


def _guard_raw_size(raw: int) -> None:
    if raw > _MAX_RAW_POINTS:
        raise ValueError(
            f"level set produces {raw} raw points, beyond the enumerable limit"
        )


def count_profile(params: SmoothnessParams, r_max: int) -> list[int]:
    """Point counts for radii 1..r_max.

    Every level of a plan brings all of its points, so a radius's count is
    the summed size of its level set, by the rule `choose_radius` uses.
    """
    r_max = as_integer(r_max, "radius", 1, MAX_RADIUS)
    return [_raw_count(params, index_set(params.weights, r)) for r in range(1, r_max + 1)]


def choose_radius(params: SmoothnessParams, budget: int) -> int:
    """Largest radius whose point count fits within ``budget``.

    The scan stops at ``MAX_RADIUS`` and at the last radius whose point
    count is within ``_MAX_RAW_POINTS``: a larger budget gets that radius.
    A budget that is not an integer raises a ValueError naming it.
    """
    budget = as_integer(budget, "budget")
    radius = 0
    while radius < MAX_RADIUS:
        levels = index_set(params.weights, radius + 1)
        count = _raw_count(params, levels)
        if count > budget or count > _MAX_RAW_POINTS:
            break
        radius += 1
    if radius == 0:
        _guard_raw_size(count)
        raise ValueError(f"budget {budget} is below the minimum plan size {count}")
    return radius


def _digits(values: np.ndarray) -> np.ndarray:
    """Nonnegative int64 ``values`` as ASCII digits right-aligned in zero bytes, shape
    ``(*values.shape, width)``, ``width`` the digit count of the largest."""
    out = np.zeros((*values.shape, len(str(int(values.max(initial=0))))), dtype=np.uint8)
    for col in reversed(range(out.shape[-1])):
        out[..., col] = np.where(values > 0, values % 10 + ord("0"), 0)
        values = values // 10
    out[..., -1] |= ord("0")  # the one digit of 0
    return out


def _coord_table(k: int, deg: int) -> np.ndarray:
    """Axis coordinates at level ``k`` as reduced fractions, shape ``(2**k, deg+1, width)``.

    A node's trailing zeros lie below ``NODE_BITS``, so they and its reduced denominator are
    the same in every cell, and its numerator grows with the cell: the last cell sets widths.
    """
    last = _axis_keys(k, deg, (1 << k) - 1, 1 << k)
    zeros = np.frexp(last & -last)[1] - 1
    split = len(str(int((last >> zeros).max())))
    dens = _digits(np.int64(1) << (KEY_BITS - zeros[0]))
    table = np.zeros((1 << k, deg + 1, split + 1 + dens.shape[-1]), dtype=np.uint8)
    table[..., split] = ord("/")
    table[..., split + 1 :] = dens
    for c0, c1 in _cell_runs(k, deg):
        nums = _digits(_axis_keys(k, deg, c0, c1) >> zeros)
        table[c0:c1, :, split - nums.shape[-1] : split] = nums
    return table


def write_plan(plan: RecoveryPlan, stream: TextIO) -> None:
    """Serialize a plan, one point per line.

    Columns (tab-separated): level vector, cell vector, node-index vector,
    exact coordinates as reduced ``numerator/denominator`` fractions (the
    denominator a power of two); vectors and coordinate lists are
    comma-joined.

    A level's lines are assembled as bytes one block at a time, each field
    copied from a `_digits` table of its distinct values, and written without
    the zero padding.  A coordinate table is dropped after the last level
    that reads it, so memory holds one block, the cell and node names, and
    the tables of the level being written, whatever the plan size.
    """
    params, d = plan.params, plan.params.d
    top = max(max(1 << k for lvl in plan.levels for k in lvl), max(params.degrees) + 1)
    names = _digits(np.arange(top))
    last = {key: li for li, lvl in enumerate(plan.levels) for key in zip(lvl, params.degrees)}
    coords: dict[tuple[int, int], np.ndarray] = {}
    for li, lvl in enumerate(plan.levels):
        fields = [(names[: 1 << k, -len(str((1 << k) - 1)) :], (j,)) for j, k in enumerate(lvl)]
        fields += [
            (names[: dg + 1, -len(str(dg)) :], (d + j,)) for j, dg in enumerate(params.degrees)
        ]
        for j, key in enumerate(zip(lvl, params.degrees)):
            if key not in coords:
                coords[key] = _coord_table(*key)
            fields.append((coords[key], (j, d + j)))
        coords = {key: table for key, table in coords.items() if last[key] > li}
        # In a function, so that a dropped table's views die before the next table is built.
        _write_level(stream, lvl, _level_shape(params, lvl), fields)


def _write_level(stream: TextIO, level: tuple[int, ...], shape: tuple[int, ...], fields: list):
    """Write ``level``'s lines in blocks of ``_BLOCK`` bytes or one line; ``fields`` are
    (table, the axes of ``shape`` its leading dimensions run along)."""
    d = len(level)
    # Each table broadcast over the whole level, so that any block of it is
    # one index away.
    full = []
    for table, axes in fields:
        view = [1] * len(shape) + [table.shape[-1]]
        for x, n in zip(axes, table.shape):
            view[x] = n
        full.append(np.broadcast_to(table.reshape(view), (*shape, table.shape[-1])))
    prefix = np.frombuffer((",".join(map(str, level)) + "\t").encode(), np.uint8)
    # Each field's first column, and the line's width.
    cols = len(prefix) + np.cumsum([0] + [field.shape[-1] + 1 for field in full])
    # Blocks run along axis `a`, the outermost whose one index spans at most
    # `_BLOCK` bytes of lines, at one index of each axis before it.
    a, span = len(shape) - 1, cols[-1]
    while a > 0 and span * shape[a] <= _BLOCK:
        span *= shape[a]
        a -= 1
    step = max(1, _BLOCK // span)
    # The level vector and the byte after each field (commas within a vector,
    # a tab or newline after it) are the same on every line.
    seps = (("," * (d - 1) + "\t") * 2 + "," * (d - 1) + "\n").encode()
    buf = np.empty((min(step, shape[a]), *shape[a + 1 :], cols[-1]), dtype=np.uint8)
    buf[..., : len(prefix)] = prefix
    buf[..., cols[1:] - 1] = np.frombuffer(seps, np.uint8)
    for outer in np.ndindex(*shape[:a]):
        for start in range(0, shape[a], step):
            block = buf[: min(step, shape[a] - start)]
            at = (*outer, slice(start, start + len(block)))
            for field, col in zip(full, cols):
                block[..., col : col + field.shape[-1]] = field[at]
            stream.write(block[block != 0].tobytes().decode("ascii"))
