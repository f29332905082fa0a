"""Benchmark of the hypercross CLI: end-to-end metrics per workload, and
per-layer metrics from a separate traced run.

Run from the repository root:

    python3 benchmarks/run.py --workload sweep-2d --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --trace 0

Every measured invocation is a fresh `python3 -m hypercross.cli` process run
from `src/`, one at a time (closed loop, one client), with BLAS threads pinned
to 1.  Invocations repeat until `--seconds` have passed; a run makes at least
one, so a workload whose invocation outlasts `--seconds` gives one sample per
run.  The seed is written into the config's `seed` key and recorded.  The
inputs are deterministic grids, so today the seed does not change the work.

`--trace 0` reports the end-to-end metrics: `wall_s`, `cpu_s` (user + sys)
and `peak_rss_mb` are medians over the run's invocations; `setup_s` is the
median over SETUP_PROBES fresh interpreters that import hypercross and load
the workload config.  `--trace 1` also makes one traced run (`traced.py`) and
reports the per-layer metrics: self times of the spans around each module
call, counters derived from public outputs, and the tracing overhead.  Every
output is checked against `reference/`; an invocation that exits nonzero or
fails its check counts as failed.  Readable lines come first, and the last
line of stdout is the JSON result.  Run files go to `.bench_run/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path

from workloads import COUNTERS, ERROR_RTOL, HERE, REFERENCE, WORKLOADS, Workload

THREAD_PIN = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
}
SETUP_PROBES = 9
# A child still running this long after its workload started is killed and
# counts as failed, so that one run ends within 180 s.
RUN_LIMIT_S = 170.0
SUITES = ("bspline", "interp", "dyadic", "grid", "recovery", "lab")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Per-layer metric -> span whose self time it sums.
SELF_TIME = {
    "grid.choose_radius_s": "grid.choose_radius",
    "grid.build_plan_s": "grid.build_plan",
    "grid.write_plan_s": "grid.write_plan",
    "functions.value_s": "functions.value",
    "functions.deriv_s": "functions.deriv",
    "recovery.sample_s": "recovery.sample",
    "recovery.reconstruct_s": "recovery.reconstruct",
    "recovery.evaluate_s": "recovery.evaluate",
    "recovery.evaluate_warm_s": "recovery.evaluate_warm",
    "recovery.quadrature_s": "recovery.lq_error",
    **{f"diagnose.{s}_s": f"diagnose.{s}" for s in SUITES},
}
# Per-layer counter -> (span name or prefix ending in ".", counter key, unit).
COUNTS = {
    "grid.radii_scanned": ("grid.choose_radius", "radii_scanned", "count"),
    "grid.levels": ("grid.build_plan", "levels", "count"),
    "grid.raw_points": ("grid.build_plan", "raw_points", "count"),
    "grid.n_actual": ("grid.build_plan", "n_actual", "count"),
    "grid.plan_bytes": ("grid.write_plan", "plan_bytes", "bytes"),
    "functions.value_points": ("functions.value", "points", "count"),
    "functions.deriv_points": ("functions.deriv", "points", "count"),
    "recovery.combination_levels": ("recovery.reconstruct", "combination_levels", "count"),
    "recovery.eval_points": ("recovery.evaluate", "points", "count"),
    "recovery.level_point_evals": ("recovery.evaluate", "level_point_evals", "count"),
    "recovery.quad_points": ("recovery.lq_error", "quad_points", "count"),
    "diagnose.checks": ("diagnose.", "checks", "count"),
    "diagnose.checks_failed": ("diagnose.", "checks_failed", "count"),
}
DERIVED = {
    "grid.dedup_ratio": "ratio",
    "recovery.assemble_s": "s",
    "recovery.ns_per_level_point": "ns",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}
PER_LAYER = {
    **{name: "s" for name in SELF_TIME},
    **{name: spec[2] for name, spec in COUNTS.items()},
    **DERIVED,
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Proc:
    argv: list[str]
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    problems: list[str] = field(default_factory=list)


def spawn(argv: list[str], env: dict, stdout: Path, stderr: Path, deadline: float) -> Proc:
    """Run one child to completion, killed at `deadline`; time it and read its resource usage."""
    exited = threading.Lock()

    def kill_on_timeout():
        # The child is not reaped before `exited` is taken, so its pid is still ours.
        if exited.acquire(blocking=False):
            os.kill(child.pid, signal.SIGKILL)
            exited.release()

    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        child = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                 stderr=err, env=env)
        killer = threading.Timer(max(0.0, deadline - time.perf_counter()), kill_on_timeout)
        killer.start()
        os.waitid(os.P_PID, child.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - t0
        with exited:
            killer.cancel()
            _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        argv=argv,
        code=child.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        stdout=stdout.read_text(encoding="utf-8", errors="replace"),
    )


def child_env(root: Path) -> dict:
    env = dict(os.environ, **THREAD_PIN)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("PYTHONHOME", None)
    return env


# -- environment record ------------------------------------------------------------

_PROBE = (
    "import json, sys, numpy, hypercross; "
    "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__, "
    "'hypercross': hypercross.__file__}))"
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level, kind, size = ((idx / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        out[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    return out


def environment(run_dir: Path, env: dict, root: Path, loadavg, deadline: float) -> dict:
    probe = spawn([sys.executable, "-c", _PROBE], env,
                  run_dir / "probe.out", run_dir / "probe.err", deadline)
    if probe.code != 0:
        raise BenchError(f"cannot import hypercross from {root / 'src'}: "
                         + (run_dir / "probe.err").read_text()[-500:])
    info = json.loads(probe.stdout)
    if not Path(info["hypercross"]).resolve().is_relative_to(root / "src"):
        raise BenchError(f"hypercross imported from {info['hypercross']}, not {root / 'src'}")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": info["python"],
        "numpy": info["numpy"],
        "blas_threads": THREAD_PIN,
        "loadavg_start": list(loadavg),
    }


# -- one workload --------------------------------------------------------------------


def tail_percentile(values: list[float]):
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    i = n - 11
    return (100.0 * (i + 1) / n, sorted(values)[i])


def check_invocation(wl: Workload, proc: Proc, out: Path) -> None:
    if proc.code != 0:
        proc.problems.append(f"exit code {proc.code}")
    else:
        proc.problems.extend(wl.check(out, proc.stdout, REFERENCE / wl.reference))


def negative_check(wl: Workload, proc: Proc, out: Path, run_dir: Path) -> list[str]:
    """Every corrupted copy of the reference must make the check fail."""
    bad_dir = run_dir / "corrupted"
    bad_dir.mkdir()
    return [
        f"corrupted reference {bad.name} was not reported as a failure"
        for bad in wl.corrupt(REFERENCE / wl.reference, bad_dir)
        if not wl.check(out, proc.stdout, bad)
    ]


def span_totals(spans: list[dict]) -> tuple[dict, dict]:
    """Self time per span name, and counters summed per (span name, key)."""
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    self_s = defaultdict(float)
    counts = defaultdict(int)
    for s in spans:
        self_s[s["name"]] += s["end"] - s["start"] - covered[s["id"]]
        for key, v in s["counts"].items():
            counts[s["name"], key] += v
    return self_s, counts


def layer_metrics(self_s: dict, counts: dict, traced: Proc, untraced_wall: float) -> dict:
    m = {name: self_s.get(span, 0.0) for name, span in SELF_TIME.items()}
    for name, (span, key, _) in COUNTS.items():
        m[name] = sum(v for (s, k), v in counts.items()
                      if k == key and (s == span or span.endswith(".") and s.startswith(span)))
    m["grid.dedup_ratio"] = m["grid.n_actual"] / m["grid.raw_points"] if m["grid.raw_points"] else 0.0
    m["recovery.assemble_s"] = m["recovery.evaluate_s"] - m["recovery.evaluate_warm_s"]
    lpe = m["recovery.level_point_evals"]
    m["recovery.ns_per_level_point"] = m["recovery.evaluate_s"] * 1e9 / lpe if lpe else 0.0
    m["trace.wall_s"] = traced.wall_s
    # The warm calls are extra work of the traced run, not tracing cost.
    m["trace.overhead_s"] = traced.wall_s - m["recovery.evaluate_warm_s"] - untraced_wall
    m["trace.unaccounted_s"] = traced.wall_s - sum(self_s.values())
    return m


def traced_run(wl: Workload, seed: int, config, run_dir: Path, env: dict,
               untraced_wall: float, deadline: float) -> tuple[Proc, dict, dict]:
    out = run_dir / "traced.out"
    spans_path = run_dir / "spans.jsonl"
    argv = [sys.executable, str(HERE / "traced.py"), "--workload", wl.name,
            "--out", str(out), "--spans", str(spans_path), "--run-id", f"{wl.name}:{seed}"]
    if config is not None:
        argv += ["--config", str(config)]
    proc = spawn(argv, env, run_dir / "traced.stdout", run_dir / "traced.stderr", deadline)
    check_invocation(wl, proc, out)
    if proc.code != 0:
        return proc, {}, {}
    spans = [json.loads(line) for line in spans_path.read_text(encoding="utf-8").splitlines()]
    self_s, counts = span_totals(spans)
    metrics = layer_metrics(self_s, counts, proc, untraced_wall)
    want = json.loads(COUNTERS.read_text(encoding="utf-8")).get(wl.name)
    if want is None:
        proc.problems.append(f"no reference counters for {wl.name} in {COUNTERS.name}")
    else:
        proc.problems.extend(
            f"counter {k}={metrics[k]} != reference {v}" for k, v in want.items() if metrics[k] != v
        )
    return proc, metrics, dict(self_s)


def run_dir_of(root: Path, workload: str, seed: int, trace: bool) -> Path:
    """Where a run keeps its files, including `result.json`."""
    return root / ".bench_run" / f"{workload}-seed{seed}-trace{int(trace)}"


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    loadavg = os.getloadavg()
    run_dir = run_dir_of(root, wl.name, seed, trace)
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = child_env(root)
    env_record = environment(run_dir, env, root, loadavg, deadline)

    config = None
    if wl.config is not None:
        cfg = json.loads(wl.config.read_text(encoding="utf-8"))
        cfg["seed"] = seed
        config = run_dir / "config.json"
        config.write_text(json.dumps(cfg, indent=2), encoding="utf-8")

    problems = []
    setups = []
    if not trace:
        load = f"c.load_config(open({str(config)!r}).read())" if config else "pass"
        code = f"import hypercross, hypercross.cli as c; {load}"
        for i in range(SETUP_PROBES):
            p = spawn([sys.executable, "-c", code], env,
                      run_dir / "setup.out", run_dir / "setup.err", deadline)
            if p.code != 0:
                problems.append(f"setup probe {i} exit code {p.code}")
            setups.append(p.wall_s)

    invocations: list[Proc] = []
    t0 = time.perf_counter()
    while not invocations or time.perf_counter() - t0 < seconds:
        out = run_dir / "cli.out"
        argv = [sys.executable, "-m", "hypercross.cli", *wl.argv(config, out)]
        proc = spawn(argv, env, run_dir / "cli.stdout", run_dir / "cli.stderr", deadline)
        check_invocation(wl, proc, out)
        invocations.append(proc)
    problems += negative_check(wl, invocations[-1], out, run_dir)

    walls = [p.wall_s for p in invocations]
    layers = {}
    if trace:
        traced, metrics, layers = traced_run(wl, seed, config, run_dir, env,
                                             statistics.median(walls), deadline)
        invocations.append(traced)
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(p.cpu_s for p in invocations),
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in invocations),
            "setup_s": statistics.median(setups),
        }
    for name in ("cli.out", "traced.out"):  # a plan file is 12.9 MB
        (run_dir / name).unlink(missing_ok=True)
    failed = sum(bool(p.problems) for p in invocations)
    result = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": env_record,
        "error_rtol": ERROR_RTOL,
        "attempted": len(invocations),
        "failed": failed,
        "failed_share": failed / len(invocations),
        "correct": failed == 0 and not problems,
        "problems": problems + [q for p in invocations for q in p.problems],
        "wall_tail": tail_percentile(walls),
        "setup_samples_s": setups,
        "invocations": [asdict(p) | {"stdout": p.stdout[-2000:]} for p in invocations],
        "self_time_s": layers,
        "metrics": metrics,
    }
    (run_dir / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


# -- report ---------------------------------------------------------------------------


def report(res: dict) -> None:
    n_cli = len(res["invocations"]) - res["trace"]
    print(f"== {res['workload']}  seed={res['seed']}  trace={res['trace']}  "
          f"closed loop, 1 client, {n_cli} CLI invocation(s) in {res['seconds']} s")
    m = res["metrics"]
    if res["trace"]:
        for name, unit in PER_LAYER.items():
            print(f"  {name:32s} {m.get(name, float('nan')):.6g} {unit}")
        if m:
            print(f"  self times of all spans sum to {sum(res['self_time_s'].values()):.4f} s; "
                  f"traced wall {m['trace.wall_s']:.4f} s, unaccounted "
                  f"{m['trace.unaccounted_s']:.4f} s, tracing overhead {m['trace.overhead_s']:.4f} s")
    else:
        walls = [p["wall_s"] for p in res["invocations"]]
        tail = res["wall_tail"]
        tail_txt = (f"p{tail[0]:.0f}={tail[1]:.4f} s" if tail
                    else "no percentile has 10 samples beyond it")
        print(f"  wall_s      {m['wall_s']:.4f} s   median of n={len(walls)}, {tail_txt}")
        print(f"  cpu_s       {m['cpu_s']:.4f} s   median, user + sys")
        print(f"  peak_rss_mb {m['peak_rss_mb']:.2f} MB  median")
        print(f"  setup_s     {m['setup_s']:.4f} s   median of {len(res['setup_samples_s'])} "
              "fresh interpreters")
    print(f"  failed_share {res['failed']}/{res['attempted']} = {res['failed_share']:.3g}"
          f"  (study errors checked within rtol {res['error_rtol']:g})")
    for prob in res["problems"]:
        print(f"  FAILED: {prob}")
    print(f"  env: {json.dumps(res['environment'])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "hypercross" / "cli.py").is_file():
        print(f"no hypercross sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace), root)
                   for n in names]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for res in results:
        report(res)

    units = PER_LAYER if args.trace else END_TO_END
    if len(results) == 1:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in results[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}.{k}": {"value": v, "unit": units[k]}
                   for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
