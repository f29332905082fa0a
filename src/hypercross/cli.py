"""Batch driver: convergence studies, plan export, property diagnostics.

Verbs:
  study    --config cfg.json --out table.csv   sweep point budgets, fit rates
  plan     --config cfg.json --out points.txt  emit the sample-point layout
  diagnose --suite  name                       run property checks

Exit codes: 0 success, 1 validation error, 2 property failure.

Study CSV columns: n_budget, r, n_actual, q, error, wall_ms.  The file is
byte-identical across runs of the same config, which is why wall_ms is
written as 0 there; measured per-budget times go to stderr instead.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import diagnostics
from .functions import get_function
from .grid import RecoveryPlan, as_integer, build_plan, choose_radius, derive_params, write_plan
from .recovery import Quadrature, lq_error, reconstruct, sample

_TOP_KEYS = {
    "d", "alpha", "deriv", "p", "q", "theta", "test_fn", "budgets", "seed",
    "quadrature", "out",
}
_QUAD_KEYS = {"cells_log2", "points_per_cell", "sup_points"}


@dataclass(frozen=True)
class StudyConfig:
    d: int
    alpha: tuple[float, ...]
    deriv: tuple[int, ...]
    p: float
    q: float
    theta: float
    test_fn: str
    budgets: tuple[int, ...]
    seed: int = 0
    quadrature: Quadrature | None = None
    out: str | None = None


@dataclass(frozen=True)
class StudyRow:
    n_budget: int
    radius: int
    n_actual: int
    q: float
    error: float
    wall_ms: float


@dataclass(frozen=True)
class StudyResult:
    rows: tuple[StudyRow, ...]
    slope: float
    intercept: float
    slope_logcorr: float = field(default=math.nan)
    loglog_coeff: float = field(default=math.nan)


def _parse_extended(v, what: str) -> float:
    """Number or the strings inf/infinity (JSON has no infinity literal)."""
    if isinstance(v, str):
        if v.lower() in ("inf", "infinity"):
            return math.inf
        raise ValueError(f"{what}: cannot parse {v!r}")
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return float(v)
    raise ValueError(f"{what}: expected a number, got {v!r}")


def _array(v, what: str) -> list:
    if not isinstance(v, list):
        raise ValueError(f"{what}: expected a JSON array, got {v!r}")
    return v


def _finite(v, what: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ValueError(f"{what}: expected a finite number, got {v!r}")
    return float(v)


def load_config(text: str) -> StudyConfig:
    """Parse and validate a study config; unknown keys are rejected."""
    raw = json.loads(text)
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key in ("d", "alpha", "deriv", "p", "q", "theta", "test_fn", "budgets"):
        if key not in raw:
            raise ValueError(f"config missing required key {key!r}")
    d = as_integer(raw["d"], "d")
    alpha = tuple(_finite(a, "alpha") for a in _array(raw["alpha"], "alpha"))
    deriv = tuple(as_integer(r, "deriv") for r in _array(raw["deriv"], "deriv"))
    budgets = tuple(as_integer(n, "budgets") for n in _array(raw["budgets"], "budgets"))
    if not budgets:
        raise ValueError("budgets must be nonempty")
    if any(b <= a for a, b in zip(budgets, budgets[1:])):
        raise ValueError("budgets must be strictly increasing")
    if any(n <= 0 for n in budgets):
        raise ValueError("budgets must be positive")
    quad = None
    if "quadrature" in raw:
        qraw = raw["quadrature"]
        if not isinstance(qraw, dict):
            raise ValueError("quadrature must be an object")
        unknown = set(qraw) - _QUAD_KEYS
        if unknown:
            raise ValueError(f"unknown quadrature keys: {sorted(unknown)}")
        quad = Quadrature(d=d, **{k: as_integer(v, f"quadrature.{k}") for k, v in qraw.items()})
    cfg = StudyConfig(
        d=d,
        alpha=alpha,
        deriv=deriv,
        p=_parse_extended(raw["p"], "p"),
        q=_parse_extended(raw["q"], "q"),
        theta=_parse_extended(raw["theta"], "theta"),
        test_fn=str(raw["test_fn"]),
        budgets=budgets,
        seed=as_integer(raw.get("seed", 0), "seed"),
        quadrature=quad,
        out=str(raw["out"]) if "out" in raw else None,
    )
    # Fail early on inconsistent class parameters or unknown functions.
    derive_params(cfg.d, cfg.alpha, cfg.p, cfg.q, cfg.theta, cfg.deriv)
    get_function(cfg.test_fn, cfg.d)
    return cfg


def run_study(cfg: StudyConfig, log=None) -> StudyResult:
    """Sweep the budgets: plan, sample, reconstruct, measure, then fit rates.

    The fitted headline exponent is the plain log-log slope of error against
    actual point count; a two-parameter fit with an additional log log n term
    is reported alongside.  The study itself is deterministic; the seed is
    kept in the config for schema stability.
    """
    params = derive_params(cfg.d, cfg.alpha, cfg.p, cfg.q, cfg.theta, cfg.deriv)
    fn = get_function(cfg.test_fn, cfg.d)
    quad = cfg.quadrature or Quadrature(d=cfg.d)
    reference = lambda pts: fn.deriv(cfg.deriv, pts)  # noqa: E731
    plans: dict[int, RecoveryPlan] = {}
    rows = []
    for budget in cfg.budgets:
        t0 = time.perf_counter()
        radius = choose_radius(params, budget)
        plan = plans.get(radius)
        if plan is None:
            plan = build_plan(params, radius)
            plans[radius] = plan
        approx = reconstruct(sample(fn.value, plan), plan, cfg.deriv)
        err = lq_error(approx, reference, cfg.q, quad)
        wall = (time.perf_counter() - t0) * 1000.0
        rows.append(
            StudyRow(
                n_budget=budget,
                radius=radius,
                n_actual=plan.n_actual,
                q=cfg.q,
                error=err,
                wall_ms=wall,
            )
        )
        if log is not None:
            print(
                f"budget={budget} r={radius} n={plan.n_actual} "
                f"error={err:.6e} wall_ms={wall:.1f}",
                file=log,
            )
    ln = np.log([r.n_actual for r in rows])
    le = np.log([r.error for r in rows])
    if len(set(round(v, 12) for v in ln)) >= 2:
        slope, intercept = np.polyfit(ln, le, 1)
    else:
        slope, intercept = math.nan, math.nan
    slope_lc, loglog = math.nan, math.nan
    if len(rows) >= 3 and len(set(round(v, 12) for v in ln)) >= 3:
        A = np.stack([np.ones_like(ln), ln, np.log(np.maximum(ln, 1e-9))], axis=1)
        coef, *_ = np.linalg.lstsq(A, le, rcond=None)
        slope_lc, loglog = float(coef[1]), float(coef[2])
    return StudyResult(
        rows=tuple(rows),
        slope=float(slope),
        intercept=float(intercept),
        slope_logcorr=slope_lc,
        loglog_coeff=loglog,
    )


def render_csv(result: StudyResult) -> str:
    """Deterministic CSV: wall_ms is fixed at 0 so repeat runs are byte-identical."""
    buf = io.StringIO()
    buf.write("n_budget,r,n_actual,q,error,wall_ms\n")
    for row in result.rows:
        q = "inf" if math.isinf(row.q) else f"{row.q:g}"
        buf.write(
            f"{row.n_budget},{row.radius},{row.n_actual},{q},{row.error:.14e},0\n"
        )
    return buf.getvalue()


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hypercross",
        description="Derivative recovery from hyperbolic-cross samples",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_study = sub.add_parser("study", help="run a budget sweep and emit CSV")
    p_study.add_argument("--config", required=True)
    p_study.add_argument(
        "--out", default=None, help="CSV path (default: the config's 'out' key)"
    )

    p_plan = sub.add_parser("plan", help="emit the sample-point layout")
    p_plan.add_argument("--config", required=True)
    p_plan.add_argument("--out", required=True)
    p_plan.add_argument(
        "--budget", type=int, default=None,
        help="point budget (default: the largest config budget)",
    )

    p_diag = sub.add_parser("diagnose", help="run property checks")
    p_diag.add_argument("--suite", default="all")

    args = parser.parse_args(argv)

    if args.verb == "diagnose":
        try:
            results = diagnostics.run_suite(args.suite)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 1
        for res in results:
            print(res.line())
        return 0 if all(r.passed for r in results) else 2

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = load_config(fh.read())
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if args.verb == "plan":
        params = derive_params(cfg.d, cfg.alpha, cfg.p, cfg.q, cfg.theta, cfg.deriv)
        budget = args.budget if args.budget is not None else cfg.budgets[-1]
        try:
            radius = choose_radius(params, budget)
        except ValueError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 1
        plan = build_plan(params, radius)
        with open(args.out, "w", encoding="utf-8") as fh:
            write_plan(plan, fh)
        print(f"r={radius} n_actual={plan.n_actual} -> {args.out}")
        return 0

    out_path = args.out or cfg.out
    if out_path is None:
        print("config error: no output path (--out or config 'out')", file=sys.stderr)
        return 1
    try:
        result = run_study(cfg, log=sys.stderr)
    except ValueError as exc:
        print(f"study error: {exc}", file=sys.stderr)
        return 1
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(render_csv(result))
    print(f"slope={result.slope:.4f} intercept={result.intercept:.4f}")
    if not math.isnan(result.slope_logcorr):
        print(
            f"logcorr: slope={result.slope_logcorr:.4f} "
            f"loglog_coeff={result.loglog_coeff:.4f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
