"""Batch driver: convergence studies, plan export, property diagnostics.

Verbs:
  study    --config cfg.json --out table.csv   sweep point budgets, fit rates
  plan     --config cfg.json --out points.txt  emit the sample-point layout
                                               of the largest budget
  diagnose --suite  name                       run property checks

Exit codes: 0 success, 1 validation, usage or output error, 2 property failure.

Each verb imports only the modules it runs, since every invocation is a fresh
process: `plan` loads `functions`, `grid` and `interp`; `study` adds
`recovery` (and its `bspline`), which a config's ``quadrature`` object also
loads to be checked; `diagnose` loads `diagnostics`, and with it every module.

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
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .functions import get_function
from .grid import build_plan, choose_radius, derive_params, write_plan
from .interp import as_integer

if TYPE_CHECKING:
    from .recovery import Quadrature

# diagnostics.SUITES' names, so that parsing --suite imports no suite.
_SUITE_CHOICES = ("bspline", "interp", "dyadic", "grid", "recovery", "lab", "all")


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


def _parse_extended(v):
    """The strings inf/infinity as math.inf (JSON has no infinity literal)."""
    if isinstance(v, str) and v.lower() in ("inf", "infinity"):
        return math.inf
    return v


def _array(v, what: str) -> list:
    if not isinstance(v, list):
        raise ValueError(f"{what}: expected a JSON array, got {v!r}")
    return v


def load_config(text: str) -> StudyConfig:
    """Parse and validate a study config.  Its keys are `StudyConfig`'s fields
    (required unless defaulted); the ``quadrature`` object's are `Quadrature`'s
    but ``d``, the config's own.  Unknown keys, an unknown test function and a
    first budget below the smallest plan (`choose_radius`) are rejected; the
    config holds what `derive_params` made of the class parameters."""
    raw = json.loads(text)
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    schema = fields(StudyConfig)
    unknown = set(raw) - {f.name for f in schema}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for f in schema:
        if f.default is MISSING and f.name not in raw:
            raise ValueError(f"config missing required key {f.name!r}")
    params = derive_params(
        raw["d"], _array(raw["alpha"], "alpha"),
        *(_parse_extended(raw[key]) for key in ("p", "q", "theta")),
        _array(raw["deriv"], "deriv"),
    )
    budgets = tuple(as_integer(n, "budgets", 1) for n in _array(raw["budgets"], "budgets"))
    if not budgets:
        raise ValueError("budgets must be nonempty")
    if any(b <= a for a, b in zip(budgets, budgets[1:])):
        raise ValueError("budgets must be strictly increasing")
    quad = None
    if "quadrature" in raw:
        qraw = raw["quadrature"]
        if not isinstance(qraw, dict):
            raise ValueError("quadrature must be an object")
        from .recovery import Quadrature

        unknown = set(qraw) - {f.name for f in fields(Quadrature) if f.name != "d"}
        if unknown:
            raise ValueError(f"unknown quadrature keys: {sorted(unknown)}")
        # Quadrature reads None as its default; in a config, null is no integer.
        quad = Quadrature(d=params.d, **{k: "null" if v is None else v for k, v in qraw.items()})
    cfg = StudyConfig(
        params.d, params.alpha, params.deriv, params.p, params.q, params.theta, str(raw["test_fn"]),
        budgets, as_integer(raw.get("seed", 0), "seed"), quad,
    )
    # Fail early on an unknown function or a budget below the smallest plan.
    get_function(cfg.test_fn, cfg.d)
    choose_radius(params, budgets[0])
    return cfg


def run_study(cfg: StudyConfig, log=None) -> StudyResult:
    """Sweep the budgets: plan, sample, reconstruct, measure, then fit rates.

    The fitted headline exponent is the plain log-log slope of error against
    actual point count; a two-parameter fit with an additional log log n term
    is reported alongside.  The study itself is deterministic; the seed is
    kept in the config for schema stability.
    """
    from .recovery import Quadrature, lq_error, reconstruct, sample

    params = derive_params(cfg.d, cfg.alpha, cfg.p, cfg.q, cfg.theta, cfg.deriv)
    fn = get_function(cfg.test_fn, cfg.d)
    quad = cfg.quadrature or Quadrature(d=cfg.d)
    reference = lambda pts: fn.deriv(cfg.deriv, pts)  # noqa: E731
    rows = []
    for budget in cfg.budgets:
        t0 = time.perf_counter()
        radius = choose_radius(params, budget)
        plan = build_plan(params, radius)
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
    distinct = len(set(round(v, 12) for v in ln))
    if distinct >= 2:
        slope, intercept = np.polyfit(ln, le, 1)
    else:
        slope, intercept = math.nan, math.nan
    slope_lc, loglog = math.nan, math.nan
    if distinct >= 3:
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
    p_study.add_argument("--out", required=True)

    p_plan = sub.add_parser("plan", help="emit the sample-point layout of the largest budget")
    p_plan.add_argument("--config", required=True)
    p_plan.add_argument("--out", required=True)

    p_diag = sub.add_parser("diagnose", help="run property checks")
    p_diag.add_argument("--suite", default="all", choices=_SUITE_CHOICES)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return 1 if exc.code else 0

    if args.verb == "diagnose":
        from . import diagnostics

        results = diagnostics.run_suite(args.suite)
        for res in results:
            print(res.line())
        return 0 if all(r.passed for r in results) else 2

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = load_config(fh.read())
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if args.verb == "plan":
        params = derive_params(cfg.d, cfg.alpha, cfg.p, cfg.q, cfg.theta, cfg.deriv)
        radius = choose_radius(params, cfg.budgets[-1])
        plan = build_plan(params, radius)
        write = partial(write_plan, plan)
        lines = [f"r={radius} n_actual={plan.n_actual} -> {args.out}"]
    else:
        try:
            result = run_study(cfg, log=sys.stderr)
        except ValueError as exc:
            print(f"study error: {exc}", file=sys.stderr)
            return 1
        write = lambda fh: fh.write(render_csv(result))  # noqa: E731
        lines = [f"slope={result.slope:.4f} intercept={result.intercept:.4f}"]
        if not math.isnan(result.slope_logcorr):
            lines.append(
                f"logcorr: slope={result.slope_logcorr:.4f} "
                f"loglog_coeff={result.loglog_coeff:.4f}"
            )
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write(fh)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    print(*lines, sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
