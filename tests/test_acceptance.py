"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines with measured residuals and wall times.
"""

import math
import time

import numpy as np

from hypercross import cli, diagnostics, functions, grid
from hypercross.recovery import reconstruct, sample


def report(num: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num} ({label}): {detail}", flush=True)
    assert ok, f"criterion {num} ({label}): {detail}"


def diagnosed(checks, names, bounds):
    """The named results of one `diagnose` suite, with their bounds pinned."""
    by_name = {c.name: c for c in checks}
    results = [by_name[n] for n in names]
    assert tuple(c.bound for c in results) == bounds
    return results


def test_criterion_1_bspline_identities():
    # The partition-of-unity and refinement checks of `diagnose`.
    t0 = time.perf_counter()
    names = ("bspline.partition_of_unity", "bspline.refinement")
    pu, rf = diagnosed(diagnostics.bspline_checks(), names, (1e-12, 1e-12))
    wall = time.perf_counter() - t0
    ok = pu.passed and rf.passed and wall < 5.0
    report(
        1,
        "b-spline identities",
        ok,
        f"partition={pu.residual:.3e} refinement={rf.residual:.3e} wall={wall:.2f}s",
    )


def test_criterion_2_polynomial_reproduction():
    # The tensor reproduction check of `diagnose`.
    t0 = time.perf_counter()
    (rep,) = diagnosed(diagnostics.interp_checks(), ("interp.reproduction",), (1e-9,))
    wall = time.perf_counter() - t0
    ok = rep.passed and wall < 10.0
    report(2, "tensor reproduction", ok, f"err={rep.residual:.3e} wall={wall:.2f}s")


def test_criterion_3_surplus_algebra():
    # The annihilation, telescoping and translate checks of `diagnose`.
    t0 = time.perf_counter()
    names = (
        "dyadic.polynomial_annihilation",
        "dyadic.telescoping",
        "dyadic.translate_representation",
    )
    ann, tel, rep = diagnosed(diagnostics.dyadic_checks(), names, (1e-9, 1e-9, 1e-9))
    wall = time.perf_counter() - t0
    ok = ann.passed and tel.passed and rep.passed and wall < 30.0
    report(
        3,
        "surplus algebra",
        ok,
        f"annihilation={ann.residual:.3e} telescoping={tel.residual:.3e} "
        f"representation={rep.residual:.3e} wall={wall:.2f}s",
    )


def test_criterion_4_counting_laws():
    # The head growth, tail decay and brute-force tail checks of `diagnose`.
    t0 = time.perf_counter()
    names = ("grid.head_growth_law", "grid.tail_decay_law", "grid.tail_brute_force")
    head, tail, oracle = diagnosed(diagnostics.grid_checks(), names, (4.0, 4.0, 1e-10))
    wall = time.perf_counter() - t0
    ok = all(c.passed for c in (head, tail, oracle)) and wall < 5.0
    report(
        4,
        "counting laws",
        ok,
        f"head={head.residual:.3f} tail={tail.residual:.3f} "
        f"oracle_gap={oracle.residual:.2e} wall={wall:.2f}s",
    )


def test_criterion_5_exact_derivative_recovery():
    t0 = time.perf_counter()
    params = grid.derive_params(2, (2.0, 2.0), 2.0, 2.0, math.inf, (1, 1))
    assert params.degrees >= (2, 2)
    plan = grid.build_plan(params, 5)
    f = functions.get_function("poly", 2)
    approx = reconstruct(sample(f.value, plan), plan, (1, 1))
    pts = np.random.default_rng(105).uniform(0.001, 0.999, size=(1000, 2))
    sup = float(np.abs(approx(pts) - 4.0 * pts[:, 0] * pts[:, 1]).max())
    wall = time.perf_counter() - t0
    ok = sup <= 1e-8 and wall < 5.0
    report(5, "exact derivative recovery", ok, f"sup_err={sup:.3e} wall={wall:.2f}s")


def test_criterion_6_rate_smooth():
    t0 = time.perf_counter()
    params = grid.derive_params(2, (2.0, 2.0), 2.0, 2.0, math.inf, (0, 0))
    assert params.rate == 2.0 and params.rate_mult == 2
    cfg = cli.StudyConfig(
        d=2,
        alpha=(2.0, 2.0),
        deriv=(0, 0),
        p=2.0,
        q=2.0,
        theta=math.inf,
        test_fn="trig",
        budgets=tuple(2**k for k in range(6, 15)),
    )
    result = cli.run_study(cfg)
    slope = result.slope
    errs = [row.error for row in result.rows]
    decreasing = all(b <= a * 1.05 for a, b in zip(errs, errs[1:]))
    wall = time.perf_counter() - t0
    ok = slope <= -(params.rate - 0.5) and decreasing and wall < 180.0
    report(
        6,
        "rate, smooth case",
        ok,
        f"slope={slope:.3f} (need <= -1.5) decreasing={decreasing} wall={wall:.1f}s",
    )


def test_criterion_7_rate_derivative_anisotropy():
    t0 = time.perf_counter()
    params = grid.derive_params(2, (2.0, 1.5), 2.0, 2.0, 2.0, (1, 0))
    assert params.eff == (1.0, 1.5)
    assert params.rate == 1.0 and params.rate_mult == 1
    cfg = cli.StudyConfig(
        d=2,
        alpha=(2.0, 1.5),
        deriv=(1, 0),
        p=2.0,
        q=2.0,
        theta=2.0,
        test_fn="aniso",
        budgets=tuple(2**k for k in range(7, 15)),
    )
    slope = cli.run_study(cfg).slope
    wall = time.perf_counter() - t0
    ok = -1.35 <= slope <= -0.65 and wall < 180.0
    report(
        7,
        "rate, derivative + anisotropy",
        ok,
        f"slope={slope:.3f} (need in [-1.35, -0.65]) wall={wall:.1f}s",
    )


def test_criterion_8_point_economy():
    t0 = time.perf_counter()
    params = grid.derive_params(2, (2.0, 2.0), 2.0, 2.0, math.inf, (0, 0))
    assert params.rate_mult == 2
    counts = grid.count_profile(params, 13)
    c_fit = counts[5] / (2.0**6 * 6)
    worst = 1.0
    for r in range(1, 14):
        ratio = counts[r - 1] / (c_fit * 2.0**r * r)
        worst = max(worst, ratio, 1.0 / ratio)
    wall = time.perf_counter() - t0
    ok = worst <= 4.0 and wall < 10.0
    report(8, "point economy", ok, f"worst_ratio={worst:.3f} wall={wall:.2f}s")


def test_criterion_9_determinism(tmp_path):
    cfg_text = """{
      "d": 2, "alpha": [2.0, 2.0], "deriv": [0, 0],
      "p": 2, "q": 2, "theta": "inf", "test_fn": "trig",
      "budgets": [128, 512, 2048], "seed": 3,
      "quadrature": {"cells_log2": 4}
    }"""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg_text)
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        rc = cli.main(["study", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1]
    report(9, "determinism", ok, f"bytes_equal={ok} ({len(outs[0])} bytes)")
