"""One integer policy: every integer input goes through `interp.as_integer`.

An integral number is accepted and used as an int; a bool (Python or
numpy), a fraction, and a value outside the input's bounds are refused with
a ValueError whose message names the input.  A vector input that is not a
sequence is refused the same way (`interp._per_axis`).
"""

import ast
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from hypercross import bspline, cli, dyadic, functions, grid, interp, recovery

SRC = Path(__file__).resolve().parents[1] / "src" / "hypercross"

_PARAMS = grid.derive_params(2, (2.0, 2.0), 2.0, 2.0, 2.0, (0, 0))


def _square(pts):
    return pts[:, 0] ** 2


def _config(**overrides):
    raw = {
        "d": 2, "alpha": [2.0, 2.0], "deriv": [0, 0], "p": 2, "q": 2,
        "theta": "inf", "test_fn": "trig", "budgets": [128, 512],
    }
    raw.update(overrides)
    return cli.load_config(json.dumps(raw))


# id: (call taking the integer and returning what it made of it, the name
# its messages give, lower bound, upper bound, an accepted value)
ENTRY_POINTS = {
    "nodes_exact": (interp.nodes_exact, "degree", 0, interp.MAX_DEGREE, 2),
    "nodes": (interp.nodes, "degree", 0, interp.MAX_DEGREE, 2),
    "bspline_order": (
        lambda v: bspline.bspline_derivative(v, 0, 0.5),
        "spline order", 0, bspline.MAX_ORDER, 2,
    ),
    "bspline_derivative": (
        lambda v: bspline.bspline_derivative(2, v, 0.5), "derivative order", 0, 2, 1,
    ),
    "refinement_coeffs": (bspline.refinement_coeffs, "spline order", 0, bspline.MAX_ORDER, 2),
    "evaluator_degree": (
        lambda v: dyadic.DyadicEvaluator((v,), (1,), _square).degrees[0],
        "axis 0: degree", 0, interp.MAX_DEGREE, 2,
    ),
    "evaluator_order": (
        lambda v: dyadic.DyadicEvaluator((1,), (v,), _square).order[0],
        "axis 0: spline order", 0, bspline.MAX_ORDER, 2,
    ),
    "evaluator_level": (
        lambda v: dyadic.DyadicEvaluator((1,), (1,), _square).quasi_interp_deriv(
            (v,), (0,), (0.3,)
        ),
        "axis 0: level", 0, dyadic.MAX_LEVEL, 2,
    ),
    "evaluator_derivative_order": (
        lambda v: dyadic.DyadicEvaluator((2,), (2,), _square).surplus_deriv((1,), (v,), (0.3,)),
        "axis 0: derivative order", 0, 2, 1,
    ),
    "tensor_poly_degree": (
        lambda v: interp.TensorPoly((v,), (0.0,), (1.0,), np.zeros(3)).degrees[0],
        "axis 0: degree", 0, interp.MAX_DEGREE, 2,
    ),
    "interpolate_degree": (
        lambda v: interp.interpolate(_square, (v,), (0.0,), (1.0,)).degrees[0],
        "axis 0: degree", 0, interp.MAX_DEGREE, 2,
    ),
    "tensor_poly_derivative_order": (
        lambda v: interp.interpolate(_square, (2,), (0.0,), (1.0,)).deriv_eval((v,), (0.3,)),
        "axis 0: derivative order", 0, None, 1,
    ),
    "quadrature_d": (lambda v: recovery.Quadrature(d=v).d, "Quadrature.d", 1, None, 2),
    "quadrature_cells_log2": (
        lambda v: recovery.Quadrature(d=2, cells_log2=v).cells_log2,
        "Quadrature.cells_log2", 0, None, 2,
    ),
    "quadrature_points_per_cell": (
        lambda v: recovery.Quadrature(d=2, points_per_cell=v).points_per_cell,
        "Quadrature.points_per_cell", 1, None, 2,
    ),
    "quadrature_sup_points": (
        lambda v: recovery.Quadrature(d=2, sup_points=v).sup_points,
        "Quadrature.sup_points", 1, None, 2,
    ),
    "build_plan": (
        lambda v: grid.build_plan(_PARAMS, v).levels, "radius", 1, grid.MAX_RADIUS, 2,
    ),
    "count_profile": (
        lambda v: grid.count_profile(_PARAMS, v), "radius", 1, grid.MAX_RADIUS, 2,
    ),
    "choose_radius": (lambda v: grid.choose_radius(_PARAMS, v), "budget", None, None, 4096),
    # The 153-point plan at radius 2.
    "plan_describe": (grid.build_plan(_PARAMS, 2).describe, "point", 0, 152, 1),
    "derivative_orders": (
        lambda v: functions.get_function("poly", 2).deriv((v, 0), (0.5, 0.5)),
        "axis 0: derivative order", 0, None, 2,
    ),
    "derive_params": (
        lambda v: grid.derive_params(v, (2.0, 2.0), 2.0, 2.0, 2.0, (0, 0)).d, "d", 1, None, 2,
    ),
    "registry": (lambda v: functions.registry(v)[0].d, "d", 1, None, 2),
    "modulus_order": (
        lambda v: functions.modulus_estimate(_square, (v,), (0.1,), (0,), 2.0),
        "axis 0: difference order", 0, None, 2,
    ),
    "modulus_axis": (
        lambda v: functions.modulus_estimate(_square, (2, 2, 2), (0.1,) * 3, (v,), 2.0),
        "axis 0: modulus axis", 0, 2, 2,
    ),
    "config_d": (lambda v: _config(d=v).d, "d", 1, None, 2),
    "config_budgets": (lambda v: _config(budgets=[v, 4096]).budgets[0], "budgets", 1, None, 64),
}


# id: (call taking a vector, the name its messages give, an accepted vector).
# Every vector input is decided by `interp._per_axis`: a non-sequence is
# refused by name, whether or not the caller knows the count.
VECTORS = {
    "interpolate_degrees": (
        lambda v: interp.interpolate(_square, v, (0.0,), (1.0,)), "degree", (2,),
    ),
    "tensor_poly_degrees": (
        lambda v: interp.TensorPoly(v, (0.0,), (1.0,), np.zeros(3)), "degree", (2,),
    ),
    "evaluator_degrees": (lambda v: dyadic.DyadicEvaluator(v, (1,), _square), "degree", (2,)),
    "evaluator_order": (
        lambda v: dyadic.DyadicEvaluator((1,), v, _square), "spline order", (2,),
    ),
    "index_set_weights": (lambda v: grid.index_set(v, 3), "level weight", (1.0, 2.0)),
    "weighted_sum_weights": (
        lambda v: grid.weighted_sum((1.0,), v, 3), "level weight", (1.0,),
    ),
    "tail_sum_weights": (lambda v: grid.tail_sum((1.0,), v, 3), "level weight", (1.0,)),
    "combination_level": (lambda v: grid.combination_weights([v]), "level", (0, 0)),
    "modulus_order": (
        lambda v: functions.modulus_estimate(_square, v, (0.1,), (0,), 2.0),
        "difference order", (2,),
    ),
    "modulus_axes": (
        lambda v: functions.modulus_estimate(_square, (2,), (0.1,), v, 2.0),
        "modulus axis", (0,),
    ),
}


@pytest.mark.parametrize("value", [None, 1, 1.0], ids=repr)
@pytest.mark.parametrize("key", VECTORS)
def test_vector_that_is_no_sequence_is_named(key, value):
    call, name, _ = VECTORS[key]
    message = f"{name}: expected a sequence, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("key", VECTORS)
def test_empty_vector_is_named(key):
    # The spline orders are one per degree; every other count is the caller's.
    call, name, _ = VECTORS[key]
    message = f"{name}: expected at least one entry, got ()"
    if key == "evaluator_order":
        message = "spline order () must have 1 entries, one per axis"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(())


@pytest.mark.parametrize("key", VECTORS)
def test_vector_as_list_or_array_accepted(key):
    call, _, good = VECTORS[key]
    call(list(good))
    call(np.array(good))


def _refusals():
    for key, (_, name, low, high, _) in ENTRY_POINTS.items():
        # A config is JSON, which has no numpy bool.
        for value in (True, 2.5) if key.startswith("config_") else (True, np.True_, 2.5):
            message = f"{name}: expected an integer, got {value!r}"
            yield pytest.param(key, value, message, id=f"{key}-{value!r}")
        if low is not None:
            message = f"{name} must be an integer >= {low}, got {low - 1}"
            yield pytest.param(key, low - 1, message, id=f"{key}-below")
        if high is not None:
            message = f"{name} {high + 1} exceeds supported maximum {high}"
            yield pytest.param(key, high + 1, message, id=f"{key}-above")


@pytest.mark.parametrize("key, value, message", _refusals())
def test_refused_with_its_name(key, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ENTRY_POINTS[key][0](value)


@pytest.mark.parametrize("key", ENTRY_POINTS)
def test_integral_float_accepted_as_int(key):
    call, *_, good = ENTRY_POINTS[key]
    got, want = call(float(good)), call(good)
    assert type(got) is type(want)
    assert np.array_equal(got, want)


def _calling(path: Path, match) -> set[str]:
    """``module.function`` for every function of ``path`` that makes a call
    ``match`` accepts."""
    module = path.stem
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call) and match(node):
            found.add(".".join((module,) + scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return found


def _isinstance_of_bool(call: ast.Call) -> bool:
    """An `isinstance` call that names ``bool`` or ``np.bool_``."""
    return (
        isinstance(call.func, ast.Name)
        and call.func.id == "isinstance"
        and any(
            (isinstance(n, ast.Name) and n.id == "bool")
            or (isinstance(n, ast.Attribute) and n.attr == "bool_")
            for arg in call.args[1:]
            for n in ast.walk(arg)
        )
    )


def _prefixes_an_axis(call: ast.Call) -> bool:
    """A call with an argument ``f"axis {j}: {name}"``: an f-string that puts
    ``axis j:`` before another formatted value (a name or a message)."""
    return any(
        isinstance(arg, ast.JoinedStr)
        and [type(v) for v in arg.values[:4]]
        == [ast.Constant, ast.FormattedValue, ast.Constant, ast.FormattedValue]
        and arg.values[0].value == "axis "
        and arg.values[2].value == ": "
        for arg in [*call.args, *(k.value for k in call.keywords)]
    )


def _scan(match) -> set[str]:
    return set().union(*(_calling(path, match) for path in sorted(SRC.glob("*.py"))))


def test_one_integer_policy():
    # Only `as_integer` decides what an integer is, and `as_real` what a
    # real number is; both refuse a bool.
    assert _scan(_isinstance_of_bool) == {"interp.as_integer", "interp.as_real"}


def test_one_per_axis_check():
    # Only the helper of `as_integers` and `as_reals` names the axis of an
    # entry it checks, so every such message names the axis the same way.
    assert _scan(_prefixes_an_axis) == {"interp._per_axis"}


def test_cached_degree_does_not_answer_for_a_bool():
    # The node caches are typed: True == np.int64(1), so an untyped cache
    # would hand out the entry of degree np.int64(1) for True.
    for fn in (interp.nodes, interp.nodes_exact):
        assert len(fn(1)) == len(fn(np.int64(1))) == 2
        with pytest.raises(ValueError, match="^degree: expected an integer, got True$"):
            fn(True)


def test_bounds_are_inclusive_and_numpy_integers_accepted():
    assert interp.as_integer(np.int64(3), "n", 3, 3) == 3
    assert type(interp.as_integer(np.float64(3.0), "n")) is int
    for value in (math.nan, math.inf, "3", None):
        with pytest.raises(ValueError, match=r"^n: expected an integer, got "):
            interp.as_integer(value, "n")
