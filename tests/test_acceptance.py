"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines with measured residuals and wall times.
"""

import io
import math
import time
from itertools import product

import numpy as np
import pytest

from hypercross import cli, diagnostics, functions, grid, interp, recovery
from hypercross.bspline import bspline_deriv_many, refinement_coeffs
from hypercross.dyadic import DyadicEvaluator
from hypercross.recovery import Quadrature, lq_error, reconstruct, sample

from test_interp import numpy_polyval


def report(num: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num} ({label}): {detail}", flush=True)
    assert ok, f"criterion {num} ({label}): {detail}"


def test_criterion_1_bspline_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    n_pts = 10_000

    worst_pu = 0.0
    for d, order, level in [
        (1, (4,), (3,)),
        (2, (2, 4), (2, 1)),
        (3, (1, 3, 4), (2, 1, 1)),
    ]:
        x = rng.uniform(0, 1, size=(n_pts, d))
        total = np.ones(n_pts)
        for j in range(d):
            axis = np.zeros(n_pts)
            for shift in range(-order[j], 2 ** level[j]):
                axis += bspline_deriv_many(order[j], 0, np.ldexp(x[:, j], level[j]) - shift)
            total *= axis
        worst_pu = max(worst_pu, float(np.abs(total - 1.0).max()))

    worst_rf = 0.0
    for m in range(5):
        x = rng.uniform(-1.0, m + 2.0, size=n_pts)
        lhs = bspline_deriv_many(m, 0, x)
        rhs = np.zeros_like(x)
        for mu, a in enumerate(refinement_coeffs(m)):
            rhs += float(a) * bspline_deriv_many(m, 0, 2 * x - mu)
        worst_rf = max(worst_rf, float(np.abs(lhs - rhs).max()))

    wall = time.perf_counter() - t0
    ok = worst_pu <= 1e-12 and worst_rf <= 1e-12 and wall < 5.0
    report(
        1,
        "b-spline identities",
        ok,
        f"partition={worst_pu:.3e} refinement={worst_rf:.3e} wall={wall:.2f}s",
    )


def test_criterion_2_polynomial_reproduction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    combos = [
        (1, (1,)),
        (1, (3,)),
        (2, (1, 1)),
        (2, (2, 3)),
        (2, (3, 3)),
        (3, (1, 1, 1)),
        (3, (2, 1, 3)),
        (3, (3, 3, 3)),
    ]
    for d, degrees in combos:
        box = ((0.0,) * d, (1.0,) * d)
        node_list = list(interp.tensor_nodes(degrees, *box))
        node_pts = np.array([pt for _, pt in node_list])
        eval_pts = rng.uniform(0, 1, size=(30, d))
        for _ in range(50):
            coeffs = rng.uniform(-1, 1, size=tuple(g + 1 for g in degrees))
            node_vals = numpy_polyval(coeffs, node_pts)
            want = numpy_polyval(coeffs, eval_pts)
            poly = interp.tensor_interpolate(
                {idx: v for (idx, _), v in zip(node_list, node_vals)}, box
            )
            got = np.array([poly.eval(p) for p in eval_pts])
            scale = max(1.0, float(np.abs(coeffs).max()))
            worst = max(worst, float(np.abs(got - want).max()) / scale)
    wall = time.perf_counter() - t0
    ok = worst <= 1e-9 and wall < 10.0
    report(2, "tensor reproduction", ok, f"rel_err={worst:.3e} wall={wall:.2f}s")


def test_criterion_3_surplus_algebra():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    degrees, order = (2, 2), (1, 1)
    pts = rng.uniform(0.005, 0.995, size=(100, 2))

    coeffs = rng.uniform(-1, 1, size=(3, 3))
    poly_f = lambda p: float(numpy_polyval(coeffs, np.asarray(p)[None, :])[0])  # noqa: E731
    ev_poly = DyadicEvaluator(degrees, order, f=poly_f)
    worst_ann = 0.0
    for level in [(1, 0), (0, 1), (2, 2), (3, 1), (1, 3)]:
        for p in pts:
            worst_ann = max(worst_ann, abs(ev_poly.surplus_deriv(level, (0, 0), p)))

    smooth = lambda p: math.sin(2.3 * p[0] + 0.4) * math.cos(1.1 * p[1] + 0.2)  # noqa: E731
    ev = DyadicEvaluator(degrees, order, f=smooth)
    worst_tel = 0.0
    top = (3, 3)
    levels = list(product(range(top[0] + 1), range(top[1] + 1)))
    for p in pts:
        tele = sum(ev.surplus_deriv(lvl, (0, 0), p) for lvl in levels)
        worst_tel = max(worst_tel, abs(tele - ev.quasi_interp_deriv(top, (0, 0), p)))

    worst_rep = 0.0
    for level in [(1, 1), (2, 0), (0, 2), (3, 2)]:
        for p in pts:
            a = ev.surplus_deriv(level, (0, 0), p)
            b = ev.surplus_via_translates(level, (0, 0), p)
            worst_rep = max(worst_rep, abs(a - b))

    wall = time.perf_counter() - t0
    ok = worst_ann <= 1e-9 and worst_tel <= 1e-9 and worst_rep <= 1e-9 and wall < 30.0
    report(
        3,
        "surplus algebra",
        ok,
        f"annihilation={worst_ann:.3e} telescoping={worst_tel:.3e} "
        f"representation={worst_rep:.3e} wall={wall:.2f}s",
    )


def test_criterion_4_counting_laws():
    # The head growth, tail decay and brute-force tail checks of `diagnose`.
    t0 = time.perf_counter()
    names = ("grid.head_growth_law", "grid.tail_decay_law", "grid.tail_brute_force")
    results = {c.name: c for c in diagnostics.grid_checks() if c.name in names}
    head, tail, oracle = (results[n] for n in names)
    assert (head.bound, tail.bound, oracle.bound) == (4.0, 4.0, 1e-10)
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


def _sweep(params, fn, deriv, budgets, q):
    quad = Quadrature(d=params.d)
    reference = lambda pts: fn.deriv(deriv, pts)  # noqa: E731
    rows = []
    plans = {}
    for n in budgets:
        r = grid.choose_radius(params, n)
        plan = plans.get(r)
        if plan is None:
            plan = plans[r] = grid.build_plan(params, r)
        approx = reconstruct(sample(fn.value, plan), plan, deriv)
        err = lq_error(approx, reference, q, quad)
        rows.append((n, r, plan.n_actual, err))
    ln = np.log([row[2] for row in rows])
    le = np.log([row[3] for row in rows])
    slope = float(np.polyfit(ln, le, 1)[0])
    return rows, slope


def test_criterion_6_rate_smooth():
    t0 = time.perf_counter()
    params = grid.derive_params(2, (2.0, 2.0), 2.0, 2.0, math.inf, (0, 0))
    assert params.rate == 2.0 and params.rate_mult == 2
    fn = functions.get_function("trig", 2)
    budgets = [2**k for k in range(6, 15)]
    rows, slope = _sweep(params, fn, (0, 0), budgets, 2.0)
    errs = [row[3] for row in rows]
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
    fn = functions.get_function("aniso", 2)
    budgets = [2**k for k in range(7, 15)]
    rows, slope = _sweep(params, fn, (1, 0), budgets, 2.0)
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
