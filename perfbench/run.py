"""Benchmark of the submodbandit lab: one workload, serial, with checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, then runs whole rounds of it,
each in a fresh process (``workload.py``), one after another, for S
seconds: a round starts only while a typical round still fits.  Every
round's outputs are checked after its timed region against reference values
computed by this benchmark's own code.  The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``,
each the median over the rounds.

Operations, counted in ``attempted``: one experiment cell on the grid
workloads, one instance of the battery on hard-verify.  A cell or instance
that fails a check is counted in ``failed``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("desk-grid", "tabular-cells", "hard-verify")
ROUND_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import inputs  # noqa: E402


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def write_inputs(workload: str, seed: int, in_dir: Path):
    """Write what the program reads; return what the checks need."""
    in_dir.mkdir(parents=True)
    if workload == "hard-verify":
        insts = inputs.verify_inputs(seed)
        docs = [{"label": i.label, "function": i.function, "k": i.k} for i in insts]
        (in_dir / "instances.json").write_text(json.dumps(docs))
        return insts
    grid = inputs.grid_input(workload, seed)
    (in_dir / "config.json").write_text(json.dumps(grid.config))
    return grid


def grid_cells(config: dict) -> list[tuple[str, int, int]]:
    return [
        (p["label"], T, trial)
        for p in config["policies"]
        for T in config["T_grid"]
        for trial in range(config["trials"])
    ]


def run_round(workload: str, in_dir: Path, out_dir: Path, trace: int) -> tuple[float, dict]:
    out_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "workload.py"), workload, str(in_dir), str(out_dir), str(trace)]
    start = now()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: round exited with code {proc.returncode}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def rerun_mismatches(grid, results_text: str, seed: int, work: Path) -> set:
    """Re-run one sampled cell; every line it shares with the round must be
    byte-identical.  The sub-grid keeps the cell's policy index, horizon and
    trial, so the program derives the same seed for it."""
    sys.path.insert(0, str(ROOT / "src"))
    from submodbandit.experiments import config_from_json, run_experiment

    config = grid.config
    pick = seed % (len(config["policies"]) * len(config["T_grid"]) * 2)
    p_idx, rest = divmod(pick, len(config["T_grid"]) * 2)
    T, trial = config["T_grid"][rest // 2], rest % 2
    sub = dict(config, policies=config["policies"][: p_idx + 1], T_grid=[T], trials=trial + 1)
    out = work / "rerun"
    run_experiment(config_from_json(sub), jobs=1, output_dir=out)
    again = checks.cell_lines((out / "results.csv").read_text())
    first = checks.cell_lines(results_text)
    key = (config["policies"][p_idx]["label"], T, trial)
    if key not in again or again.get(key) != first.get(key):
        return {key}
    return {k for k, lines in again.items() if first.get(k) != lines}


def dp_answers(insts) -> list[tuple[float, list[int]]]:
    """Each instance's DP value and witness chain, from one untimed call."""
    sys.path.insert(0, str(ROOT / "src"))
    from submodbandit.functions import spec_from_json
    from submodbandit.greedy import greedy_benchmark

    answers = []
    for inst in insts:
        result = greedy_benchmark(spec_from_json(inst.function), inst.k)
        answers.append((float(result.value), [s.mask for s in result.chain.levels]))
    return answers


def run(args, spec: dict, work: Path) -> dict:
    in_dir = work / "input"
    inst = write_inputs(args.workload, args.seed, in_dir)
    grid = args.workload != "hard-verify"
    if grid:
        ops_per_round = inst.config["trials"] * len(inst.config["policies"]) * sum(inst.config["T_grid"])
        ref = checks.reference(inst.value, inst.config["n"], inst.config["k"])
        expected = grid_cells(inst.config)
    else:
        ops_per_round = len(inst) * inputs.feasible_sets(inputs.VERIFY_N, inputs.VERIFY_K)

    rounds: list[dict] = []
    verify_tables: list[list] = []
    durations: list[float] = []
    attempted = failed = 0
    failed_last: set = set()
    deadline = now() + args.seconds
    # whole rounds only; start one more only if a typical round still fits
    while not rounds or now() + statistics.median(durations) <= deadline:
        began = now()
        out_dir = work / f"round{len(rounds)}"
        start, rep = run_round(args.workload, in_dir, out_dir, args.trace)
        wall = rep["end"] - start
        setup = rep["setup_end"] - start
        rounds.append(
            {
                "wall_s": wall,
                "setup_s": setup,
                "ops_per_s": ops_per_round / (wall - setup),
                "peak_rss_mb": rep["rss_kb"] / 1024.0,
                "traced.wall_s": wall,
                **(rep["trace"] or {}),
            }
        )
        print(f"round {len(rounds) - 1}: wall_s={wall:.4f} setup_s={setup:.4f}", file=sys.stderr)
        if grid:
            results_text = (out_dir / "results.csv").read_text()
            failed_last = checks.failed_cells(results_text, expected, ref)
            failed += len(failed_last)
            attempted += len(expected)
        else:
            verify_tables.append(json.loads((out_dir / "verify.json").read_text()))
            attempted += len(inst)
        shutil.rmtree(out_dir)
        durations.append(now() - began)

    if grid:
        failed += len(rerun_mismatches(inst, results_text, args.seed, work) - failed_last)
    else:
        answers = dp_answers(inst)
        for tables in verify_tables:
            failed += len(inst) - len(tables)
            for i, rows, (dp_value, dp_levels) in zip(inst, tables, answers):
                failed += not checks.verify_ok(i, rows, dp_value, dp_levels)

    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {
        m["name"]: {"value": statistics.median(r[m["name"]] for r in rounds), "unit": m["unit"]}
        for m in names
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "submodbandit" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = OUT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result = run(args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT.rmdir()  # only when no other run is using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
