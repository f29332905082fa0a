"""Traced run of one workload, from outside the package.

Calls the public functions of each `hypercross` module in the order the CLI
verb does (for `study`, the order of `cli.run_study`) and records a span
around every call: name, start, end, parent span and run id, plus counters
derived from the call's public outputs (`plan.levels`, `combination_weights`,
the quadrature rule size, ...).  Spans stay in memory and are written as JSON
lines when the run ends.  The run writes the same output file and stdout
lines as the CLI, so the benchmark checks them against the same reference.

After each `lq_error` the approximant is called a second time on the same
points (`recovery.evaluate_warm`); the untraced CLI does not make that call.

Usage (from the repository root, with `src` on PYTHONPATH):

    python3 benchmarks/traced.py --workload sweep-2d --config cfg.json \
        --out table.csv --spans spans.jsonl --run-id sweep-2d:1
"""

from __future__ import annotations

from time import perf_counter

START = perf_counter()  # the root span starts before the script's own imports

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, start: float | None = None):
        """Record a span; the yielded dict collects the span's counters.

        Counters are filled in after the span closes where computing them
        would cost time, so that they do not count as the layer's time.
        """
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "start": perf_counter() if start is None else start,
            "end": None,
            "counts": {},
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec["counts"]
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        """`fn` taking an (n, d) point array, with a span counting its rows."""

        def traced(pts):
            with self.span(name) as counts:
                counts["points"] = len(pts)
                return fn(pts)

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def raw_points(plan) -> int:
    """Raw (level, cell, node) triples of a plan before deduplication."""
    return sum(
        math.prod((dg + 1) << k for k, dg in zip(lvl, plan.params.degrees))
        for lvl in plan.levels
    )


def quad_rule_size(quad, q: float) -> int:
    """Points at which `lq_error` evaluates both functions."""
    per_axis = (2 ** quad.resolved_cells_log2()) * quad.points_per_cell
    size = per_axis**quad.d
    if math.isinf(q):
        size += quad.resolved_sup_points() ** quad.d
    return size


def study(tr: Tracer, cfg, out: str) -> None:
    import numpy as np

    from hypercross import cli, functions, grid, recovery

    with tr.span("grid.derive_params"):
        params = grid.derive_params(cfg.d, cfg.alpha, cfg.p, cfg.q, cfg.theta, cfg.deriv)
    with tr.span("functions.get_function"):
        fn = functions.get_function(cfg.test_fn, cfg.d)
    quad = cfg.quadrature or recovery.Quadrature(d=cfg.d)
    value = tr.wrap("functions.value", fn.value)
    reference = tr.wrap("functions.deriv", lambda pts: fn.deriv(cfg.deriv, pts))
    plans = {}
    rows = []
    for budget in cfg.budgets:
        with tr.span("grid.choose_radius") as c:
            radius = grid.choose_radius(params, budget)
            # The scan visits radii 1..r+1 and stops at the first that overflows.
            c["radii_scanned"] = min(radius + 1, grid.MAX_RADIUS)
        plan = plans.get(radius)
        if plan is None:
            with tr.span("grid.build_plan") as c:
                plan = grid.build_plan(params, radius)
            c.update(levels=len(plan.levels), raw_points=raw_points(plan), n_actual=plan.n_actual)
            plans[radius] = plan
        with tr.span("recovery.sample"):
            samples = recovery.sample(value, plan)
        with tr.span("recovery.reconstruct") as c:
            approx = recovery.reconstruct(samples, plan, cfg.deriv)
        c["combination_levels"] = levels = len(recovery.combination_weights(plan.levels))

        cold = []

        def evaluate(pts):
            with tr.span("recovery.evaluate") as c:
                c.update(points=len(pts), level_point_evals=levels * len(pts))
                vals = approx(pts)
            cold.append((pts, vals))
            return vals

        with tr.span("recovery.lq_error") as c:
            err = recovery.lq_error(evaluate, reference, cfg.q, quad)
        c["quad_points"] = quad_rule_size(quad, cfg.q)
        for pts, vals in cold:
            with tr.span("recovery.evaluate_warm") as c:
                c["points"] = len(pts)
                warm = approx(pts)
            if not np.array_equal(warm, vals):
                raise SystemExit(f"budget {budget}: warm evaluation differs from cold")
        rows.append(cli.StudyRow(budget, radius, plan.n_actual, cfg.q, err, 0.0))
    with tr.span("cli.write_csv"):
        result = cli.StudyResult(rows=tuple(rows), slope=math.nan, intercept=math.nan)
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(cli.render_csv(result))


def plan(tr: Tracer, cfg, out: str) -> None:
    from hypercross import grid

    with tr.span("grid.derive_params"):
        params = grid.derive_params(cfg.d, cfg.alpha, cfg.p, cfg.q, cfg.theta, cfg.deriv)
    with tr.span("grid.choose_radius") as c:
        radius = grid.choose_radius(params, cfg.budgets[-1])
        c["radii_scanned"] = min(radius + 1, grid.MAX_RADIUS)
    with tr.span("grid.build_plan") as c:
        the_plan = grid.build_plan(params, radius)
    c.update(levels=len(the_plan.levels), raw_points=raw_points(the_plan),
             n_actual=the_plan.n_actual)
    with tr.span("grid.write_plan") as c:
        with open(out, "w", encoding="utf-8") as fh:
            grid.write_plan(the_plan, fh)
    c["plan_bytes"] = os.path.getsize(out)
    print(f"r={radius} n_actual={the_plan.n_actual} -> {out}")


def diagnose(tr: Tracer) -> None:
    from hypercross import diagnostics

    for name, suite in diagnostics.SUITES.items():
        with tr.span(f"diagnose.{name}") as c:
            results = suite()
        c.update(checks=len(results), checks_failed=sum(not r.passed for r in results))
        for res in results:
            print(res.line())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--config")
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", required=True)
    ap.add_argument("--run-id", required=True)
    args = ap.parse_args(argv)
    verb = WORKLOADS[args.workload].verb

    tr = Tracer(args.run_id)
    with tr.span("run", start=START):
        with tr.span("setup.import"):
            from hypercross import cli
        if verb == "diagnose":
            diagnose(tr)
        else:
            with tr.span("cli.load_config"):
                with open(args.config, encoding="utf-8") as fh:
                    cfg = cli.load_config(fh.read())
            (study if verb == "study" else plan)(tr, cfg, args.out)
    tr.write(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
