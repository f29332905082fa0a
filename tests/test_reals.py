"""One real-number policy: every real input goes through `interp.as_real`.

A real number (int, float, numpy scalar, Fraction) is accepted and used as
a float; a bool (Python or numpy), a non-number, NaN and a value outside
the input's bounds are refused with a ValueError whose message names the
input.  An infinity passes only where the upper bound is ``math.inf``.
"""

import ast
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hypercross import cli, functions, grid, interp, recovery

SRC = Path(__file__).resolve().parents[1] / "src" / "hypercross"

_QUAD = recovery.Quadrature(d=1, cells_log2=1, points_per_cell=2, sup_points=8)


def _square(pts):
    return pts[:, 0] ** 2


def _product(pts):
    return pts[:, 0] * pts[:, 1]


def _params(**overrides):
    args = dict(d=2, alpha=(2.0, 2.0), p=2.0, q=2.0, theta=2.0, deriv=(0, 0))
    args.update(overrides)
    return grid.derive_params(**args)


def _config(**overrides):
    raw = {
        "d": 2, "alpha": [2.0, 2.0], "deriv": [0, 0], "p": 2, "q": 2,
        "theta": "inf", "test_fn": "trig", "budgets": [128, 512],
    }
    raw.update(overrides)
    return cli.load_config(json.dumps(raw))


# id: (call taking the real and returning what it made of it, the name its
# messages give, lower bound, upper bound, whether the lower bound is open,
# an accepted integral value)
ENTRY_POINTS = {
    "derive_params_alpha": (
        lambda v: _params(alpha=(v, 2.0)).alpha, "axis 0: alpha", None, None, False, 2,
    ),
    "derive_params_p": (lambda v: _params(p=v).p, "p", 1, None, False, 2),
    "derive_params_q": (lambda v: _params(q=v).q, "q", 1, math.inf, False, 2),
    "derive_params_theta": (lambda v: _params(theta=v).theta, "theta", 1, math.inf, False, 2),
    "index_set_weight": (
        lambda v: grid.index_set((v, 1.0), 3), "axis 0: level weight", 1, None, False, 1,
    ),
    "index_set_radius": (lambda v: grid.index_set((1.0, 1.0), v), "radius", 0, None, False, 3),
    "weighted_sum": (
        lambda v: grid.weighted_sum((v, 1.0), (1.0, 1.0), 3), "axis 0: exponent",
        None, None, False, 1,
    ),
    "tail_sum": (
        lambda v: grid.tail_sum((v, 1.0), (1.0, 1.0), 3), "axis 0: tail exponent",
        0, None, True, 1,
    ),
    "lq_error": (
        lambda v: recovery.lq_error(_square, lambda pts: pts[:, 0], v, _QUAD),
        "q", 1, math.inf, False, 2,
    ),
    "modulus_p": (
        lambda v: functions.modulus_estimate(_square, (2,), (0.1,), (0,), v),
        "p", 1, math.inf, False, 2,
    ),
    "modulus_t": (
        lambda v: functions.modulus_estimate(_product, (1, 1), (v, 0.1), (0, 1), 2.0),
        "axis 0: t", 0, None, True, 1,
    ),
    "interpolate_x0": (
        lambda v: interp.interpolate(_square, (1,), (v,), (1.0,)).x0,
        "axis 0: x0", None, None, False, 0,
    ),
    "interpolate_delta": (
        lambda v: interp.interpolate(_square, (1,), (0.0,), (v,)).delta,
        "axis 0: delta", 0, None, True, 1,
    ),
    "tensor_poly_x0": (
        lambda v: interp.TensorPoly((1,), (v,), (1.0,), np.ones(2)).x0,
        "axis 0: x0", None, None, False, 0,
    ),
    "tensor_poly_delta": (
        lambda v: interp.TensorPoly((1,), (0.0,), (v,), np.ones(2)).delta,
        "axis 0: delta", 0, None, True, 1,
    ),
    "config_alpha": (
        lambda v: _config(alpha=[v, 2.0]).alpha, "axis 0: alpha", None, None, False, 2,
    ),
    "config_p": (lambda v: _config(p=v).p, "p", 1, None, False, 2),
    "config_q": (lambda v: _config(q=v).q, "q", 1, math.inf, False, 2),
    "config_theta": (lambda v: _config(theta=v).theta, "theta", 1, math.inf, False, 2),
}


def _interval(low, high, open_low) -> str:
    low, left = (-math.inf, "(") if low is None else (low, "(" if open_low else "[")
    high, right = (math.inf, ")") if high is None else (high, "]")
    return f"{left}{low:g}, {high:g}{right}"


def _refusals():
    for key, (_, name, low, high, open_low, _) in ENTRY_POINTS.items():
        # A config is JSON, which has no numpy bool.
        kinds = (True, "2", None) if key.startswith("config_") else (True, np.True_, "2", None)
        for value in kinds:
            message = f"{name}: expected a real number, got {value!r}"
            yield pytest.param(key, value, message, id=f"{key}-{value!r}")
        # NaN and infinities are floats; JSON reads NaN, Infinity and -Infinity.
        out = [math.nan, -math.inf]
        if low is not None:
            out.append(low if open_low else low - 1)
        if high is None:
            out.append(math.inf)
        for value in out:
            message = f"{name} must lie in {_interval(low, high, open_low)}, got {value!r}"
            yield pytest.param(key, value, message, id=f"{key}-{value!r}")


@pytest.mark.parametrize("key, value, message", _refusals())
def test_refused_with_its_name(key, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ENTRY_POINTS[key][0](value)


@pytest.mark.parametrize("key", ENTRY_POINTS)
def test_numpy_scalars_give_the_float_result(key):
    call, *_, good = ENTRY_POINTS[key]
    want = call(float(good))
    cases = (np.float64(good), np.int64(good), good)
    if key.startswith("config_"):
        cases = (good,)  # JSON numbers
    for value in cases:
        got = call(value)
        assert type(got) is type(want)
        assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "key", [key for key, entry in ENTRY_POINTS.items() if entry[3] == math.inf]
)
def test_infinity_accepted_where_the_bound_is_inf(key):
    # q = inf is the sup norm; the config spells an infinity "inf".
    got = ENTRY_POINTS[key][0]("inf" if key.startswith("config_") else math.inf)
    assert got == math.inf if key.endswith(("_q", "_theta")) else math.isfinite(got)


def test_stored_values_are_floats():
    poly = interp.TensorPoly((1,), (0,), (Fraction(1, 2),), np.ones(2))
    assert poly.x0 == (0.0,) and poly.delta == (0.5,)
    assert all(type(v) is float for v in poly.x0 + poly.delta)
    params = _params(alpha=(2, np.float32(2.5)), p=2, q=np.int64(2), theta=Fraction(3, 2))
    assert all(type(v) is float for v in params.alpha + (params.p, params.q, params.theta))
    assert params.theta == 1.5


def test_bounds_are_inclusive_unless_open():
    assert interp.as_real(np.int64(1), "p", 1, 1) == 1.0
    assert interp.as_real(math.inf, "q", 1, math.inf) == math.inf
    with pytest.raises(ValueError, match=r"^w must lie in \(0, inf\), got 0$"):
        interp.as_real(0, "w", 0, open_low=True)
    for value in (1 + 2j, b"1", [1.0]):
        with pytest.raises(ValueError, match=r"^n: expected a real number, got "):
            interp.as_real(value, "n")


def test_tail_sum_count_mismatch_named_before_negating():
    # The caller's exponents, not their negatives, and the count expected.
    message = "tail exponent (1.0,) must have 2 entries, one per axis"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        grid.tail_sum((1.0,), (1.0, 1.0), 3)


def test_a_box_that_is_no_sequence_is_named():
    message = "delta: expected a sequence, got 1.0"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        interp.interpolate(_square, (1,), (0.0,), 1.0)


def _is_math(node, attr: str) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Name)
        and node.value.id == "math"
    )


def test_one_real_policy():
    # Only `interp` decides what a finite real is: no other module calls
    # math.isfinite or compares a value with math.inf.
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and _is_math(node.func, "isfinite"):
                found.add((path.stem, "math.isfinite"))
            if isinstance(node, ast.Compare) and any(
                _is_math(side, "inf") for side in [node.left, *node.comparators]
            ):
                found.add((path.stem, "compare with math.inf"))
    assert {module for module, _ in found} <= {"interp"}
