"""Workload table, reference outputs and output checks of the benchmark.

Each workload is one `hypercross` CLI invocation.  Its config (if any) lives
in `configs/`, its reference output in `reference/`.  The checks compare an
invocation's output with the reference: integers and plan bytes exactly,
study errors within `ERROR_RTOL`.  Every check returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
REFERENCE = HERE / "reference"
COUNTERS = REFERENCE / "counters.json"

# Relative tolerance on each study error.  Errors are sums of about 2.6e5
# float products, so a change of summation order moves the last few digits;
# 1e-9 leaves room for that and still catches any change of the method.
ERROR_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str  # "study", "plan" or "diagnose"
    reference: str  # file name under reference/
    why: str

    @property
    def config(self) -> Path | None:
        return None if self.verb == "diagnose" else CONFIGS / f"{self.name}.json"

    def argv(self, config: Path | None, out: Path) -> list[str]:
        """CLI arguments; `out` is the file the output check reads."""
        if self.verb == "diagnose":
            return ["diagnose", "--suite", "all"]
        return [self.verb, "--config", str(config), "--out", str(out)]

    def check(self, out: Path, stdout: str, reference: Path) -> list[str]:
        if self.verb == "study":
            return check_study(out, reference)
        if self.verb == "plan":
            return check_plan(out, stdout, reference)
        return check_diagnose(stdout, reference)

    def corrupt(self, reference: Path, dest_dir: Path) -> list[Path]:
        """Copies of the reference, each with one deliberate error."""
        if self.verb == "study":
            return corrupt_study(reference, dest_dir)
        if self.verb == "plan":
            return corrupt_plan(reference, dest_dir)
        return corrupt_diagnose(reference, dest_dir)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-2d", "study", "sweep-2d.csv",
            "criterion-6 sweep: radius choice, plan building and evaluation "
            "each take a large share, so a gain in the grid or recovery layer shows",
        ),
        Workload(
            "deriv-3d", "study", "deriv-3d.csv",
            "d=3 derivative study dominated by approximant evaluation; the only "
            "workload on the derivative-split and multi-offset path",
        ),
        Workload(
            "plan-2d", "plan", "plan-2d.json",
            "196,614-point plan: grid enumeration and plan serialization only, "
            "no sampling or evaluation",
        ),
        Workload(
            "diagnose-all", "diagnose", "diagnose-all.txt",
            "every property suite: the only workload on the scalar bspline, "
            "interp and dyadic paths and the DyadicEvaluator oracle",
        ),
    )
}


# -- study: CSV against the reference CSV --------------------------------------------

_EXACT_COLUMNS = ("n_budget", "r", "n_actual", "q", "wall_ms")


def _read_csv(path: Path) -> tuple[list[str], list[dict[str, str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames or []), list(reader)


def check_study(out: Path, reference: Path) -> list[str]:
    try:
        head, rows = _read_csv(out)
    except OSError as exc:
        return [f"no study CSV: {exc}"]
    ref_head, ref_rows = _read_csv(reference)
    if head != ref_head:
        return [f"CSV header {head} != {ref_head}"]
    if len(rows) != len(ref_rows):
        return [f"CSV has {len(rows)} rows, reference {len(ref_rows)}"]
    problems = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for col in _EXACT_COLUMNS:
            if row[col] != ref[col]:
                problems.append(f"row {i} {col}={row[col]} != {ref[col]}")
        try:
            err = float(row["error"])
        except ValueError:
            problems.append(f"row {i} error={row['error']!r} is not a number")
            continue
        want = float(ref["error"])
        if not abs(err - want) <= ERROR_RTOL * abs(want):
            problems.append(f"row {i} error={err!r} != {want!r} (rtol {ERROR_RTOL})")
    return problems


def corrupt_study(reference: Path, dest_dir: Path) -> list[Path]:
    head, rows = _read_csv(reference)
    out = []
    for tag, edit in (
        ("n_actual", lambda r: r.update(n_actual=str(int(r["n_actual"]) + 1))),
        ("error", lambda r: r.update(error=repr(float(r["error"]) * (1 + 10 * ERROR_RTOL)))),
    ):
        bad = [dict(r) for r in rows]
        edit(bad[0])
        path = dest_dir / f"corrupt-{tag}-{reference.name}"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=head, lineterminator="\n")
            writer.writeheader()
            writer.writerows(bad)
        out.append(path)
    return out


# -- plan: file digest and size, plus r and n_actual from stdout ---------------------

_PLAN_LINE = re.compile(r"^r=(\d+) n_actual=(\d+) -> ")


def plan_summary(out: Path, stdout: str) -> dict:
    """The fields of a plan run that the reference pins."""
    m = next(filter(None, map(_PLAN_LINE.match, stdout.splitlines())), None)
    digest = hashlib.sha256()
    size = 0
    with open(out, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
            size += len(block)
    return {
        "r": int(m.group(1)) if m else None,
        "n_actual": int(m.group(2)) if m else None,
        "bytes": size,
        "sha256": digest.hexdigest(),
    }


def check_plan(out: Path, stdout: str, reference: Path) -> list[str]:
    try:
        got = plan_summary(out, stdout)
    except OSError as exc:
        return [f"no plan file: {exc}"]
    want = json.loads(reference.read_text(encoding="utf-8"))
    return [f"plan {k}={got[k]} != {want[k]}" for k in want if got.get(k) != want[k]]


def corrupt_plan(reference: Path, dest_dir: Path) -> list[Path]:
    want = json.loads(reference.read_text(encoding="utf-8"))
    sha = want["sha256"]
    want["sha256"] = ("1" if sha[0] == "0" else "0") + sha[1:]
    path = dest_dir / f"corrupt-{reference.name}"
    path.write_text(json.dumps(want), encoding="utf-8")
    return [path]


# -- diagnose: the ordered list of PASS lines ----------------------------------------


def diagnose_lines(stdout: str) -> list[str]:
    """`STATUS name` of every check line, residuals dropped."""
    return [
        " ".join(line.split()[:2])
        for line in stdout.splitlines()
        if line.startswith(("PASS ", "FAIL "))
    ]


def check_diagnose(stdout: str, reference: Path) -> list[str]:
    got = diagnose_lines(stdout)
    want = reference.read_text(encoding="utf-8").splitlines()
    if got == want:
        return []
    missing = [w for w in want if w not in got]
    extra = [g for g in got if g not in want]
    return [f"diagnose lines differ: missing {missing}, unexpected {extra}"]


def corrupt_diagnose(reference: Path, dest_dir: Path) -> list[Path]:
    lines = reference.read_text(encoding="utf-8").splitlines()
    path = dest_dir / f"corrupt-{reference.name}"
    path.write_text("\n".join(lines + ["PASS diagnose.not_a_check"]) + "\n", encoding="utf-8")
    return [path]
