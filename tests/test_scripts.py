"""Smoke tests for the example scripts: each runs in a fresh interpreter on a
tiny input, exits 0 and writes its outputs."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_reproduce_cover_experiment(tmp_path):
    out = tmp_path / "cover"
    proc = run_script(
        "reproduce_cover_experiment.py",
        "--out", str(out), "--trials", "1", "--jobs", "1", "--horizons", "50", "100",
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("config.json", "results.csv", "manifest.json", "regret.svg"):
        assert (out / name).stat().st_size > 0, name
    assert (out / "results.csv").read_text().count("\n") > 1
