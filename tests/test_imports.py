"""Tests for the import graph: the lazy package namespace and what each CLI verb loads.

Each CLI invocation is a fresh process, so a module a verb never runs is pure
start-up cost.  The graph is read from `sys.modules` in fresh interpreters.
"""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import hypercross

ROOT = Path(__file__).resolve().parents[1]

# The public names and their home modules, as the namespace has always served them.
HOME = {
    "bspline_derivative": "bspline",
    "refinement_coeffs": "bspline",
    "TestFunction": "functions",
    "get_function": "functions",
    "modulus_estimate": "functions",
    "registry": "functions",
    "RecoveryPlan": "grid",
    "SmoothnessParams": "grid",
    "build_plan": "grid",
    "choose_radius": "grid",
    "count_profile": "grid",
    "derive_params": "grid",
    "index_set": "grid",
    "tail_sum": "grid",
    "weighted_sum": "grid",
    "write_plan": "grid",
    "nodes": "interp",
    "Approximant": "recovery",
    "Quadrature": "recovery",
    "lq_error": "recovery",
    "reconstruct": "recovery",
    "sample": "recovery",
}
SUBMODULES = ("bspline", "exact", "functions", "grid", "interp", "recovery")

CFG = {
    "d": 2, "alpha": [2, 2], "deriv": [1, 0], "p": 2, "q": 2, "theta": "inf",
    "test_fn": "trig", "budgets": [64, 256],
}
PLAN = ["hypercross", "hypercross.cli", "hypercross.functions", "hypercross.grid",
        "hypercross.interp"]
STUDY = sorted([*PLAN, "hypercross.bspline", "hypercross.recovery"])


def fresh(code: str) -> tuple[list[str], list[str]]:
    """Run `code` in a fresh interpreter: (its stdout lines, the hypercross modules it loaded)."""
    code += (
        "\nimport json, sys"
        "\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'hypercross')))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    *lines, loaded = run.stdout.splitlines()
    return lines, json.loads(loaded)


def verb(argv: list[str]) -> str:
    return f"from hypercross import cli\nassert cli.main({argv!r}) == 0"


def test_bare_import_loads_no_submodule():
    assert fresh("import hypercross")[1] == ["hypercross"]


@pytest.mark.parametrize(
    "name, quadrature, loaded",
    [("plan", None, PLAN), ("study", None, STUDY), ("plan", {"cells_log2": 3}, STUDY)],
    ids=["plan", "study", "plan-with-quadrature"],
)
def test_verb_loads_only_what_it_runs(tmp_path, name, quadrature, loaded):
    # A quadrature object is checked against Quadrature's fields, so it loads recovery.
    cfg = dict(CFG, **({"quadrature": quadrature} if quadrature else {}))
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    argv = [name, "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]
    assert fresh(verb(argv))[1] == loaded


def test_diagnose_loads_every_module():
    _, loaded = fresh(verb(["diagnose", "--suite", "grid"]))
    assert loaded == sorted([*STUDY, "hypercross.diagnostics", "hypercross.exact"])


def test_quadrature_config_parsed_and_refused_as_before():
    code = (
        "from hypercross import cli\n"
        f"cfg = {json.dumps(dict(CFG, quadrature={'cells_log2': 3, 'points_per_cell': 4}))!r}\n"
        "print(repr(cli.load_config(cfg).quadrature))\n"
        f"bad = {json.dumps(dict(CFG, quadrature={'d': 3}))!r}\n"
        "try:\n"
        "    cli.load_config(bad)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    lines, loaded = fresh(code)
    assert lines == [
        "Quadrature(d=2, cells_log2=3, points_per_cell=4, sup_points=None)",
        "unknown quadrature keys: ['d']",
    ]
    assert loaded == STUDY


def test_all_is_the_public_names():
    assert hypercross.__all__ == sorted(HOME)
    assert len(hypercross.__all__) == 22


@pytest.mark.parametrize("name", sorted(HOME))
def test_name_is_its_home_modules(name):
    assert getattr(hypercross, name) is getattr(import_module(f"hypercross.{HOME[name]}"), name)


def test_star_import():
    namespace = {}
    exec("from hypercross import *", namespace)
    del namespace["__builtins__"]
    assert namespace == {name: getattr(hypercross, name) for name in HOME}


def test_submodules_resolve_after_bare_import():
    code = (
        "import sys, hypercross\n"
        f"for name in {SUBMODULES!r}:\n"
        "    module = getattr(hypercross, name)\n"
        "    print(module is sys.modules['hypercross.' + name])\n"
        "print(hypercross.grid.build_plan is hypercross.build_plan)\n"
    )
    lines, loaded = fresh(code)
    assert lines == ["True"] * (len(SUBMODULES) + 1)
    assert loaded == sorted(["hypercross", *(f"hypercross.{m}" for m in SUBMODULES)])


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'hypercross' has no attribute 'nope'$"):
        hypercross.nope  # noqa: B018


def test_dir_lists_names_and_submodules():
    assert set(HOME) | set(SUBMODULES) <= set(dir(hypercross))
