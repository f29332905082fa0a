"""The README's library example and CLI lines run against the current code."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from hypercross import cli

ROOT = Path(__file__).resolve().parents[1]


def test_library_example_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)
    assert len(blocks) == 1, "expected one python block in README.md"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", blocks[0]],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    # The first printed value is the plan size: 2118 points at budget 4096.
    assert run.stdout.split()[0] == "2118"


def test_cli_block_runs(tmp_path, monkeypatch, capsys):
    # The README's config, saved as the cfg.json its CLI lines read.
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    configs = re.findall(r"^```json\n(.*?)^```", text, flags=re.S | re.M)
    assert len(configs) == 1, "expected one json block in README.md"
    (tmp_path / "cfg.json").write_text(configs[0], encoding="utf-8")
    lines = [
        shlex.split(line, comments=True)
        for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.S | re.M)
        for line in block.splitlines()
        if line.startswith("hypercross ")
    ]
    assert [argv[1] for argv in lines] == ["study", "plan", "diagnose"]
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert cli.main(argv[1:]) == 0, (argv, capsys.readouterr().err)
