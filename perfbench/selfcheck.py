"""Tests of the benchmark's own output checks, on small real outputs.

    python3 perfbench/selfcheck.py

Runs the program on a small desk grid and a small structural battery, then
requires that the checks accept the true outputs and count a perturbed
regret, a truncated cell, a changed re-run line, a flipped verdict, a
wrong witness or a wrong DP value as a failure.  Exits 1 if any check
misbehaves.  Takes a few seconds.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402

FAILURES: list[str] = []


def expect(label: str, ok: bool) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {label}")
    if not ok:
        FAILURES.append(label)


def perturb(text: str, line_no: int, column: int, factor: float) -> str:
    lines = text.splitlines()
    row = lines[line_no].split(",")
    row[column] = repr(float(row[column]) * factor + 1e-6)
    lines[line_no] = ",".join(row)
    return "\n".join(lines) + "\n"


def grid_checks(work: Path) -> None:
    from submodbandit.analysis import benchmark_summary
    from submodbandit.experiments import config_from_json, run_experiment
    from submodbandit.functions import spec_from_json

    grid = inputs.grid_input("desk-grid", seed=7)
    grid.config.update(T_grid=[1000], trials=2)
    run_experiment(config_from_json(grid.config), jobs=1, output_dir=work / "grid")
    text = (work / "grid" / "results.csv").read_text()
    ref = checks.reference(grid.value, grid.config["n"], grid.config["k"])
    expected = run.grid_cells(grid.config)

    summary = benchmark_summary(spec_from_json(grid.config["function"]), grid.config["k"])
    expect(
        "reference f*, B and alpha agree with the program's exact benchmarks",
        abs(ref.f_star - summary.f_star) < 1e-12
        and abs(ref.benchmark - summary.benchmark) < 1e-12
        and abs(ref.alpha - summary.alpha) < 1e-12,
    )
    table = inputs.random_tabular(3, 8, 3)
    spec = spec_from_json(
        {"kind": "tabular", "n": 8, "k_max": 3, "table": {inputs.render(m): v for m, v in table.items()}}
    )
    tab_ref, tab_summary = checks.reference(table.__getitem__, 8, 3), benchmark_summary(spec, 3)
    expect(
        "reference B of a generated table agrees with the program's DP",
        abs(tab_ref.benchmark - tab_summary.benchmark) < 1e-12
        and abs(tab_ref.f_star - tab_summary.f_star) < 1e-12,
    )

    expect("true results pass", not checks.failed_cells(text, expected, ref))
    for column, name in ((6, "regret_opt"), (7, "regret_alpha"), (8, "regret_gr"), (5, "cum_reward")):
        bad = perturb(text, 5, column, 1.0 + 1e-7)
        expect(f"a perturbed {name} fails one cell", len(checks.failed_cells(bad, expected, ref)) == 1)
    lines = text.splitlines()
    last_of_first_cell = max(
        i for i, line in enumerate(lines) if line.startswith(f"{expected[0][0]},1000,0,")
    )
    truncated = "\n".join(lines[:last_of_first_cell] + lines[last_of_first_cell + 1:]) + "\n"
    expect("a cell that stops before T fails", checks.failed_cells(truncated, expected, ref) == {expected[0]})
    expect("a missing cell fails", len(checks.failed_cells(lines[0] + "\n", expected, ref)) == len(expected))

    expect("an unchanged re-run matches", run.rerun_mismatches(grid, text, 7, work) == set())
    shutil.rmtree(work / "rerun")
    first_cell_line = lines.index(next(line for line in lines if line.startswith(f"{expected[0][0]},")))
    changed = perturb(text, first_cell_line, 5, 1.0)
    expect(
        "a changed line is caught by the re-run",
        expected[0] in run.rerun_mismatches(grid, changed, 7, work),
    )


def verify_checks() -> None:
    from submodbandit.functions import spec_from_json
    from submodbandit.greedy import greedy_benchmark
    from submodbandit.verify import run_checks

    for inst in inputs.verify_inputs(seed=5, n=8, k=3):
        spec = spec_from_json(json.loads(json.dumps(inst.function)))
        rows = [{"name": r.name, "ok": bool(r.ok), "detail": r.detail} for r in run_checks(spec, inst.k)]
        dp = greedy_benchmark(spec, inst.k)
        levels = [s.mask for s in dp.chain.levels]
        expect(f"{inst.label}: true verdicts pass", checks.verify_ok(inst, rows, dp.value, levels))

        def flipped(name: str) -> list[dict]:
            return [dict(r, ok=not r["ok"]) if r["name"] == name else r for r in rows]

        for name in ("monotone", "submodular", "curvature_in_range"):
            expect(
                f"{inst.label}: a flipped {name} verdict fails",
                not checks.verify_ok(inst, flipped(name), dp.value, levels),
            )
        expect(
            f"{inst.label}: a wrong DP value fails",
            not checks.verify_ok(inst, rows, dp.value + 1e-6, levels),
        )
        if not inst.submodular:
            wrong = [
                dict(r, detail="marginal of 0 grows from A={} to B={1}") if r["name"] == "submodular" else r
                for r in rows
            ]
            expect(f"{inst.label}: a witness that does not violate fails", not checks.verify_ok(inst, wrong, dp.value, levels))


def main() -> int:
    work = run.OUT / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        grid_checks(work)
        verify_checks()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILURES)} check(s) misbehaved" if FAILURES else "all checks behave")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
