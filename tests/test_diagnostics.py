"""Tests for `diagnostics`: its low-discrepancy check points (no numpy RNG) and suite names."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hypercross import diagnostics

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hypercross"


@pytest.fixture(scope="module")
def draws():
    """Every draw `run_suite("all")` makes: (low, high, size, values)."""
    seen = []
    uniform = diagnostics._Points.uniform

    def record(self, low, high, size):
        values = uniform(self, low, high, size)
        seen.append((low, high, size, values))
        return values

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diagnostics._Points, "uniform", record)
        assert all(res.passed for res in diagnostics.run_suite("all"))
    return seen


def test_same_start_same_points():
    a, b = diagnostics._Points(23), diagnostics._Points(23)
    for size in [(40, 2), 7, (3, 2, 3)]:
        x, y = a.uniform(-1, 1, size), b.uniform(-1, 1, size)
        assert np.array_equal(x, y)
    # Indices run on across draws: the second draw is not the first again.
    assert not np.array_equal(a.uniform(0, 1, 5), diagnostics._Points(23).uniform(0, 1, 5))


def test_draws_keep_range_and_shape(draws):
    # Five suites draw: 103 arrays, of 1 to 4,000 points in 1 to 4 dimensions.
    assert len(draws) == 103
    for low, high, size, values in draws:
        assert values.shape == (size if isinstance(size, tuple) else (size,))
        assert values.min() >= low and values.max() < high


def test_draws_cover_every_cell(draws):
    # A draw of n points in d dimensions puts a point in each of the 2**(k*d)
    # cells of side 2**-k, for k = floor(log2(n) / d) - 1 (each cell expects
    # 2**d points or more).  Measured: this k is the finest grid 60 of the
    # 103 draws cover, and the other 43 cover the grid at k + 1; uniform
    # random draws of the same sizes left a cell empty in 28 to 32 of the
    # 103 (20 trials).
    for low, high, size, values in draws:
        shape = size if isinstance(size, tuple) else (size, 1)
        d = shape[-1]
        n = math.prod(shape[:-1])
        k = max(0, math.floor(math.log2(n) / d) - 1)
        cells = np.floor((values.reshape(n, d) - low) / (high - low) * 2**k).astype(np.int64)
        filled = np.unique(np.ravel_multi_index(cells.T, (2**k,) * d))
        assert len(filled) == 2 ** (k * d), (size, k)


def test_no_module_uses_numpy_random():
    # The check points come from `diagnostics._Points`; a numpy generator
    # anywhere under src/ would load numpy.random into every CLI process.
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "random":
                if isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                    found.add(path.stem)
            elif isinstance(node, ast.Import):
                if any(alias.name.startswith("numpy.random") for alias in node.names):
                    found.add(path.stem)
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.module.startswith("numpy.random") or (
                    node.module == "numpy" and any(a.name == "random" for a in node.names)
                ):
                    found.add(path.stem)
    assert found == set()


def test_diagnose_never_imports_numpy_random():
    code = (
        "import sys\n"
        "from hypercross import cli\n"
        "rc = cli.main(['diagnose', '--suite', 'all'])\n"
        "print(rc, 'numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "0 False"


@pytest.mark.parametrize("selector", ["zzz", 3, None, ""])
def test_unknown_suite_is_named(selector):
    known = "bspline, interp, dyadic, grid, recovery, lab, all"
    with pytest.raises(ValueError) as info:
        diagnostics.run_suite(selector)
    assert str(info.value) == f"unknown suite {selector!r} (known: {known})"
