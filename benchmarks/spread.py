"""Run the benchmark over several seeds and report the run-to-run spread.

For each workload and each end-to-end metric this prints the median of the
per-run values, their quartiles, and the spread (Q3 - Q1) / median next to the
metric's bound from BENCHMARK.json.  Counters of traced runs must repeat
exactly between seeds; a difference is reported.  Run from the repository root:

    python3 benchmarks/spread.py --workloads sweep-2d plan-2d --seeds 10 --out spread.json

`--out` keeps every run's metrics and the summary, for use as a baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import run_dir_of

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    record = run_dir_of(Path.cwd(), workload, seed, bool(trace)) / "result.json"
    res["seed"] = seed
    res["environment"] = json.loads(record.read_text(encoding="utf-8"))["environment"]
    return res


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv=None) -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    report = {"seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    ok = True
    for wl in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            res = run_once(wl, seed, bench["run_seconds"], args.trace)
            ok &= res["correct"]
            runs.append(res)
            print(f"{wl} seed={seed} correct={res['correct']} failed={res['failed']}/"
                  f"{res['attempted']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()
                      if not args.trace or v["unit"] in ("s", "MB")), flush=True)
        summary = {}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            if m["unit"] in ("count", "bytes"):
                if len(set(values)) != 1:
                    ok = False
                    print(f"  {wl} {m['name']}: counter differs between seeds: {values}")
                summary[m["name"]] = {"value": values[0], "unit": m["unit"]}
                continue
            s = summarize(values)
            s["unit"] = m["unit"]
            summary[m["name"]] = s
            if "bound" in m:
                flag = "ok" if s["spread"] < m["bound"] / 3 else (
                    "WITHIN BOUND" if s["spread"] <= m["bound"] else "OVER BOUND")
                print(f"  {wl} {m['name']}: median {s['median']:.6g} {m['unit']} "
                      f"IQR [{s['q1']:.6g}, {s['q3']:.6g}] spread {s['spread']:.4f} "
                      f"(bound {m['bound']}, bound/3 {m['bound'] / 3:.4f}) {flag}")
        report["workloads"][wl] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
