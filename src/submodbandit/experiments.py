"""Experiment harness: config ingestion, trial orchestration, CSV output.

A run is a grid of cells (policy, horizon, trial).  Each cell derives its
seed from a stable 64-bit hash of (base_seed, policy index, T, trial), runs
its policy against a fresh environment and reports pseudo-regret at the
requested checkpoints against the exact benchmarks, which the run computes
once and hands to every cell.  The trials of one (policy, T) group run in
lockstep as one batch (``Policy.run_batch``), and each trial's trajectory is
the one it would have alone.  Groups are independent, so they may be
executed in any order or in parallel (``jobs`` worker processes, one group
at a time each); results are merged in (policy, T, trial, checkpoint) order
and written with 17 significant digits, which makes results.csv
byte-identical across runs and across worker counts.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

from . import __version__
from .analysis import benchmark_summary, regret_report
from .envs import BanditEnv
from .errors import CardinalityExceeded, ConfigError, InvalidStopLevel, OutOfRange, RecordTooLarge
from .functions import SetFunction, is_finite_number, is_int, spec_from_json
from .policies import Policy, policy_from_json
from .svgplot import RESULTS_HEADER

# trials times T of one (policy, T) group: the steps its lockstep record holds
# at once, about 12 bytes each, so 1.6 GB
MAX_RECORD_STEPS = 2**27


@dataclass(frozen=True)
class ExperimentConfig:
    function: SetFunction
    n: int
    k: int
    sigma: float
    T_grid: tuple[int, ...]
    policies: tuple[Policy, ...]
    trials: int
    base_seed: int
    checkpoints: str | tuple[int, ...]
    output_dir: str

    def to_json(self) -> dict:
        return {
            "function": self.function.to_json(),
            "n": self.n,
            "k": self.k,
            "sigma": self.sigma,
            "T_grid": list(self.T_grid),
            "policies": [p.to_json() for p in self.policies],
            "trials": self.trials,
            "base_seed": self.base_seed,
            "checkpoints": self.checkpoints
            if isinstance(self.checkpoints, str)
            else list(self.checkpoints),
            "output_dir": self.output_dir,
        }


def config_from_json(doc: dict) -> ExperimentConfig:
    """Validate and build a config; raises ConfigError naming the bad field.

    A key that is not one of the config's fields is rejected.  Every scalar
    must have its JSON type (integers are never bools, floats or strings),
    and every policy is resolved at every horizon, so a config that passes
    here cannot fail later on its own values.  Only the resource guards are
    left to ``run_experiment``.
    """
    if not isinstance(doc, dict):
        raise ConfigError("a config must be a JSON object")
    allowed = [f.name for f in fields(ExperimentConfig)]
    unknown = [key for key in doc if key not in allowed]
    if unknown:
        raise ConfigError(f"field {unknown[0]!r}: not a config field")

    def need(field: str):
        if field not in doc:
            raise ConfigError(f"missing field '{field}'")
        return doc[field]

    def integer(field: str, value, least: int | None = None) -> int:
        if not is_int(value) or (least is not None and value < least):
            bound = "" if least is None else f" >= {least}"
            raise ConfigError(f"field '{field}': need an integer{bound}; got {value!r}")
        return value

    def integers(field: str, value) -> tuple[int, ...]:
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"field '{field}': need a nonempty list of integers >= 1")
        for entry in value:
            integer(field, entry, 1)
        if len(set(value)) != len(value):
            raise ConfigError(f"field '{field}': entries must be distinct")
        return tuple(value)

    try:
        function = spec_from_json(need("function"))
    except (ValueError, OutOfRange, CardinalityExceeded) as exc:
        raise ConfigError(f"field 'function': {exc}") from exc

    n = integer("n", need("n"))
    if n != function.n:
        raise ConfigError(f"field 'n': {n} disagrees with the function's n={function.n}")
    k = integer("k", need("k"))
    if not 1 <= k <= min(n, function.k_max):
        raise ConfigError(f"field 'k': need 1 <= k <= min(n, k_max); got {k}")
    sigma = need("sigma")
    if not is_finite_number(sigma) or sigma < 0:
        raise ConfigError(f"field 'sigma': need a finite number >= 0; got {sigma!r}")
    sigma = float(sigma)

    T_grid = integers("T_grid", need("T_grid"))

    raw_policies = need("policies")
    if not isinstance(raw_policies, (list, tuple)) or not raw_policies:
        raise ConfigError("field 'policies': need a nonempty list of policy objects")
    policies = []
    for i, entry in enumerate(raw_policies):
        try:
            policy = policy_from_json(entry)
        except ValueError as exc:
            raise ConfigError(f"field 'policies[{i}]': {exc}") from exc
        for T in T_grid:
            try:
                policy.resolve(n, k, T)
            except (InvalidStopLevel, ValueError, OverflowError) as exc:
                raise ConfigError(f"field 'policies[{i}]' at T_grid entry {T}: {exc}") from exc
        policies.append(policy)
    labels = [p.label for p in policies]
    if len(set(labels)) != len(labels):
        raise ConfigError("field 'policies': labels must be unique (set 'label' to disambiguate)")

    trials = integer("trials", need("trials"), 1)
    base_seed = integer("base_seed", need("base_seed"))

    checkpoints = doc.get("checkpoints", "log")
    if checkpoints != "log":
        if isinstance(checkpoints, str):
            raise ConfigError(f"field 'checkpoints': need \"log\" or a list; got {checkpoints!r}")
        checkpoints = integers("checkpoints", checkpoints)
        if max(checkpoints) > min(T_grid):
            raise ConfigError(
                "field 'checkpoints': explicit checkpoints must not exceed the smallest horizon"
            )

    output_dir = doc.get("output_dir", "results")
    if not isinstance(output_dir, str):
        raise ConfigError(f"field 'output_dir': need a string; got {output_dir!r}")

    return ExperimentConfig(
        function=function,
        n=n,
        k=k,
        sigma=sigma,
        T_grid=T_grid,
        policies=tuple(policies),
        trials=trials,
        base_seed=base_seed,
        checkpoints=checkpoints,
        output_dir=output_dir,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return config_from_json(doc)


def derive_seed(base_seed: int, policy_index: int, T: int, trial: int) -> int:
    """Stable 64-bit seed from the cell coordinates."""
    text = f"{base_seed}|{policy_index}|{T}|{trial}"
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "little")


def checkpoint_grid(checkpoints: str | tuple[int, ...], T: int) -> tuple[int, ...]:
    """'log' means powers of two up to T, plus T itself."""
    if checkpoints == "log":
        cps = []
        t = 1
        while t <= T:
            cps.append(t)
            t *= 2
        if cps[-1] != T:
            cps.append(T)
        return tuple(cps)
    return tuple(t for t in checkpoints)


def _run_group(group: tuple) -> list[str]:
    """Worker: every trial of one (policy, T) group, in lockstep; returns
    formatted CSV lines in (trial, checkpoint) order."""
    spec, summary, policy, k, sigma, T, seeds, cps = group
    envs = [BanditEnv(spec, sigma, seed) for seed in seeds]
    policy.run_batch(envs, k, T)
    lines = []
    for trial, (seed, env) in enumerate(zip(seeds, envs)):
        for row in regret_report(env, summary, cps).checkpoints:
            lines.append(
                f"{policy.label},{T},{trial},{seed},{row.t},"
                f"{row.cum_reward:.17g},{row.regret_opt:.17g},"
                f"{row.regret_alpha:.17g},{row.regret_gr:.17g}"
            )
    return lines


def run_experiment(
    config: ExperimentConfig, jobs: int = 1, output_dir: str | Path | None = None
) -> tuple[Path, Path]:
    """Execute every cell, write results.csv and manifest.json.

    ``jobs`` is the number of worker processes, one (policy, T) group at a
    time each; 1 runs serially.  Returns (results_path, manifest_path).
    Raises ValueError on a ``jobs`` below 1, and RecordTooLarge (trials times
    the longest T over MAX_RECORD_STEPS) or GroundSetTooLarge (the feasible
    sets times n over the exact table's budget) before any cell runs or any
    file is written; the output directory is made after those guards and
    before the first cell, and ConfigError names it if it cannot be made.
    """
    if not is_int(jobs) or jobs < 1:
        raise ValueError(f"jobs must be an integer >= 1; got {jobs!r}")
    out = Path(output_dir if output_dir is not None else config.output_dir)

    # rows come out totally ordered by (policy index, T, trial, checkpoint)
    grid = [
        (p_idx, policy, T, *policy.resolve(config.n, config.k, T))
        for p_idx, policy in enumerate(config.policies)
        for T in sorted(config.T_grid)
    ]
    # the resource guards, before any value is computed: the longest group's
    # step record, and the feasible-set budget of the exact benchmarks
    steps = config.trials * max(config.T_grid)
    if steps > MAX_RECORD_STEPS:
        raise RecordTooLarge(f"trials times T is {steps:,} steps, over {MAX_RECORD_STEPS:,}")
    summary = benchmark_summary(config.function, config.k)
    groups = []
    manifest_cells = []
    for p_idx, policy, T, l, m in grid:
        cps = checkpoint_grid(config.checkpoints, T)
        seeds = [derive_seed(config.base_seed, p_idx, T, trial) for trial in range(config.trials)]
        groups.append((config.function, summary, policy, config.k, config.sigma, T, seeds, cps))
        for trial, seed in enumerate(seeds):
            manifest_cells.append(
                {
                    "policy": policy.label,
                    "policy_index": p_idx,
                    "T": T,
                    "trial": trial,
                    "seed": seed,
                    "l": l,
                    "m": m,
                }
            )

    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output_dir '{out}': {exc}") from exc
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_group, groups, chunksize=1))
    else:
        results = [_run_group(group) for group in groups]

    results_path = out / "results.csv"
    lines = [",".join(RESULTS_HEADER)]
    for group_lines in results:
        lines.extend(group_lines)
    results_path.write_text("\n".join(lines) + "\n")

    manifest_path = out / "manifest.json"
    manifest = {
        "artifact_version": __version__,
        "config": config.to_json(),
        "cells": manifest_cells,
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return results_path, manifest_path
