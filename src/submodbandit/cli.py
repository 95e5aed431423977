"""Command-line interface.

Subcommands:

* ``run CONFIG``        -- execute an experiment grid, write results.csv and
                           manifest.json (``--jobs N`` for parallel groups,
                           ``--out DIR`` to override the output directory);
                           a key outside the config's fields is rejected.
* ``verify TARGET...``  -- structural check table per instance; TARGET is a
                           built-in name, ``all`` for the whole battery, or a
                           path to a JSON file with {"function": ..., "k": ...}
                           (no other key) or a bare spec.
* ``bounds N K T``      -- closed-form evaluators (``--l`` to fix the stop
                           level, ``--json`` for machine-readable output).
* ``plot RESULTS OUT``  -- static SVG of mean final regret per policy vs T.
* ``instance TARGET``   -- dump the full value table of a spec as CSV.

Exit codes: 0 success, 1 verification failure, 2 input error (any
ValueError, of which ConfigError is one), 3 resource guard (GroundSetTooLarge:
the feasible sets times n over budget).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .analysis import compute_bounds
from .catalog import builtin_instances
from .errors import ConfigError, GroundSetTooLarge
from .experiments import load_config, read_json, run_experiment
from .functions import SetFunction, is_int, spec_from_json
from .sets import render_mask
from .structure import value_table
from .svgplot import render_results_svg
from .verify import all_ok, format_table, run_checks

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


def _load_target(target: str) -> tuple[str, SetFunction, int]:
    """A verify/instance target: built-in name or JSON file path."""
    registry = builtin_instances()
    if target in registry:
        spec, k = registry[target]
        return target, spec, k
    if not Path(target).exists():
        names = ", ".join(sorted(registry))
        raise ConfigError(f"unknown instance {target!r}; built-ins: {names}")
    doc = read_json(target)
    wrapped = isinstance(doc, dict) and "function" in doc
    unknown = [key for key in doc if key not in ("function", "k")] if wrapped else []
    if unknown:
        raise ConfigError(f"{target}: field {unknown[0]!r}: not 'function' or 'k'")
    try:
        spec = spec_from_json(doc["function"] if wrapped else doc)
    except ValueError as exc:
        where = "field 'function': " if wrapped else ""
        raise ConfigError(f"{target}: {where}{exc}") from exc
    k = doc.get("k", spec.k_max) if wrapped else spec.k_max
    if not is_int(k):
        raise ConfigError(f"{target}: field 'k': need an integer; got {k!r}")
    return str(target), spec, k


def cmd_run(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1; got {args.jobs}")
    config = load_config(args.config)
    results, manifest = run_experiment(config, jobs=args.jobs, output_dir=args.out)
    print(f"wrote {results}")
    print(f"wrote {manifest}")
    return EXIT_OK


def cmd_verify(args) -> int:
    targets = args.target
    if targets == ["all"]:
        targets = sorted(builtin_instances())
    ok = True
    for target in targets:
        label, spec, k = _load_target(target)
        rows = run_checks(spec, k)
        print(format_table(f"{label} (k={k})", rows))
        ok = ok and all_ok(rows)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_bounds(args) -> int:
    try:
        sheet = compute_bounds(args.n, args.k, args.T, args.l)
    except OverflowError as exc:
        raise ConfigError(f"n={args.n}, T={args.T}: too large for the float evaluators") from exc
    if args.json:
        print(json.dumps(sheet.to_json(), sort_keys=True))
    else:
        lower = "n/a (requires k <= n/3)" if sheet.lower_bound is None else f"{sheet.lower_bound:.6g}"
        print(f"n={sheet.n} k={sheet.k} T={sheet.T}")
        print(f"i_star       = {sheet.i_star}")
        print(f"stop level l = {sheet.l}")
        print(f"lower_bound  = {lower}")
        print(f"upper_bound  = {sheet.upper_bound:.6g}")
        print(f"default m    = {sheet.m}")
    return EXIT_OK


def cmd_plot(args) -> int:
    try:
        text = Path(args.results).read_text()
    except OSError as exc:
        raise ConfigError(f"{args.results}: {exc}") from exc
    svg = render_results_svg(text)
    try:
        Path(args.out).write_text(svg)
    except OSError as exc:
        raise ConfigError(f"{args.out}: {exc}") from exc
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_instance(args) -> int:
    label, spec, k = _load_target(args.target)
    table = value_table(spec, k)
    values = dict(zip(table.masks, table.values.tolist()))
    print("set,value")
    for mask in sorted(values, key=lambda m: (m.bit_count(), render_mask(m))):
        print(f'"{render_mask(mask)}",{values[mask]:.17g}')
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="submodbandit",
        description="Simulation lab for bandit maximization of submodular set functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel worker count")
    p_run.add_argument("--out", default=None, help="override the output directory")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="run structural checks")
    p_verify.add_argument("target", nargs="+", help="built-in name, 'all', or JSON path")
    p_verify.set_defaults(func=cmd_verify)

    p_bounds = sub.add_parser("bounds", help="closed-form bound evaluators")
    p_bounds.add_argument("n", type=int)
    p_bounds.add_argument("k", type=int)
    p_bounds.add_argument("T", type=int)
    p_bounds.add_argument("--l", type=int, default=None, help="stop level (default: auto)")
    p_bounds.add_argument("--json", action="store_true")
    p_bounds.set_defaults(func=cmd_bounds)

    p_plot = sub.add_parser("plot", help="render results.csv as an SVG chart")
    p_plot.add_argument("results", help="path to results.csv")
    p_plot.add_argument("out", help="output SVG path")
    p_plot.set_defaults(func=cmd_plot)

    p_inst = sub.add_parser("instance", help="dump a spec's value table as CSV")
    p_inst.add_argument("target", help="built-in name or JSON path")
    p_inst.set_defaults(func=cmd_instance)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GroundSetTooLarge as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
