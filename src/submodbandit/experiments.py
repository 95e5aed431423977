"""Experiment harness: config ingestion, trial orchestration, CSV output.

A run is a grid of cells (policy, horizon, trial).  Each cell derives its
seed from a stable 64-bit hash of (base_seed, policy index, T, trial), runs
its policy against a fresh environment and reports pseudo-regret at the
requested checkpoints against the exact benchmarks, which the run computes
once and hands to every cell.  A policy's program at T is the phases it
runs, ``greedy_then_flat``'s (l, m, uniform) (``Policy.program``); there is
one lockstep batch per (horizon, program), the trials of its policies end to
end in grid order, and each trial's pulls are the ones it would make alone;
each env's record is an ``analysis.RegretMeter``, which keeps no step.
Groups are independent, so they may be executed in any order or in
parallel (``jobs`` worker processes, one group at a time each); results are
merged in (policy, T, trial, checkpoint) order and written with 17
significant digits, which makes results.csv byte-identical across runs and
across worker counts.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import itertools
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterator

from . import __version__
from .analysis import RegretMeter, benchmark_summary
from .envs import BanditEnv
from .errors import ConfigError
from .functions import SetFunction, is_finite_number, is_int, spec_from_json
from .lockstep import MAX_T, greedy_then_flat
from .policies import Policy, policy_from_json
from .svgplot import RESULTS_HEADER

# cells of one grid (policies x horizons x trials).  A cell is about 170
# bytes of indented manifest, so the manifest stays under about 180 MB; the
# cells' seeds and manifest entries (about 360 bytes a cell in memory) are
# listed before the first group runs
MAX_CELLS = 2**20
# entries per C-encoded block of the manifest writer (``indented_json``), so
# a table echo of any size is encoded a bounded block at a time
JSON_BLOCK = 1024
_CONTAINERS = (dict, list, tuple)


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
    every horizon must fit the run's step counters (``lockstep.MAX_T``) and
    every policy is resolved at every horizon, so a config that passes here
    cannot fail later on its own values.  A grid of more than ``MAX_CELLS``
    cells is refused, naming ``trials``.  Only the resource guard is left to
    ``run_experiment``.
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
    except ValueError as exc:
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
    if max(T_grid) > MAX_T:
        raise ConfigError(
            f"field 'T_grid': need horizons <= {MAX_T}, which the step counters hold; "
            f"got {max(T_grid)}"
        )

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
            except (ValueError, OverflowError) as exc:
                raise ConfigError(f"field 'policies[{i}]' at T_grid entry {T}: {exc}") from exc
        policies.append(policy)
    labels = [p.label for p in policies]
    if len(set(labels)) != len(labels):
        raise ConfigError("field 'policies': labels must be unique (set 'label' to disambiguate)")

    trials = integer("trials", need("trials"), 1)
    cells = len(policies) * len(T_grid) * trials
    if cells > MAX_CELLS:
        raise ConfigError(
            f"field 'trials': need policies x horizons x trials <= {MAX_CELLS} cells; "
            f"got {cells}"
        )
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


def read_json(path: str | Path):
    """The JSON document in a file; ConfigError naming the file if it cannot
    be read or parsed."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_config(path: str | Path) -> ExperimentConfig:
    return config_from_json(read_json(path))


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


def _run_group(group: tuple) -> dict[tuple[int, int], list[str]]:
    """Worker: one batch per (horizon, program), every trial of its members
    (policies with that program at T) in lockstep, each metered as it runs;
    returns each member's CSV lines in (trial, checkpoint) order, keyed by
    (policy index, T)."""
    spec, summary, k, sigma, T, program, members = group
    envs = [[BanditEnv(spec, sigma, seed) for seed in seeds] for _, _, seeds, _ in members]
    for (_, _, _, cps), batch in zip(members, envs):
        for env in batch:
            env.trajectory = RegretMeter(summary, cps)
    greedy_then_flat([env for batch in envs for env in batch], k, T, *program)
    cells = {}
    for (p_idx, policy, seeds, _), batch in zip(members, envs):
        cells[p_idx, T] = [
            f"{policy.label},{T},{trial},{seed},{row.t},"
            f"{row.cum_reward:.17g},{row.regret_opt:.17g},"
            f"{row.regret_alpha:.17g},{row.regret_gr:.17g}"
            for trial, (seed, env) in enumerate(zip(seeds, batch))
            for row in env.trajectory.rows
        ]
    return cells


def run_experiment(
    config: ExperimentConfig, jobs: int = 1, output_dir: str | Path | None = None
) -> tuple[Path, Path]:
    """Execute every cell, write results.csv and manifest.json.

    ``jobs`` is the number of worker processes, one (horizon, program) group
    at a time each; 1 runs serially.  Returns (results_path, manifest_path).
    Raises ValueError on a ``jobs`` below 1, and GroundSetTooLarge (the
    feasible sets times n over the exact table's budget) before any cell
    runs or any file is written; the output directory is made after that
    guard and before the first cell, and ConfigError names it if it cannot
    be made.
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
    # the resource guard, the feasible-set budget of the exact benchmarks,
    # before any value is computed
    summary = benchmark_summary(config.function, config.k)
    members = {}  # (T, program) -> its (policy index, policy, seeds, checkpoints)
    manifest_cells = []
    for p_idx, policy, T, l, m in grid:
        seeds = [derive_seed(config.base_seed, p_idx, T, trial) for trial in range(config.trials)]
        members.setdefault((T, policy.program(config.n, config.k, T)), []).append(
            (p_idx, policy, seeds, checkpoint_grid(config.checkpoints, T))
        )
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
    groups = [
        (config.function, summary, config.k, config.sigma, T, program, group)
        for (T, program), group in members.items()
    ]
    if jobs > 1:
        # concurrent.futures loads its process pool, and multiprocessing, on this
        # first use only, so a serial run pays neither (about 1.3 MB and 14 ms)
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_group, groups, chunksize=1))
    else:
        results = [_run_group(group) for group in groups]

    cells = {key: lines for group_cells in results for key, lines in group_cells.items()}
    results_path = out / "results.csv"
    lines = [",".join(RESULTS_HEADER)]
    for p_idx, _, T, _, _ in grid:
        lines.extend(cells[p_idx, T])
    results_path.write_text("\n".join(lines) + "\n")

    manifest_path = out / "manifest.json"
    manifest = {
        "artifact_version": __version__,
        "config": config.to_json(),
        "cells": manifest_cells,
    }
    with manifest_path.open("w") as f:
        f.writelines(indented_json(manifest))
        f.write("\n")
    return results_path, manifest_path


def indented_json(doc) -> Iterator[str]:
    """The text of ``json.dumps(doc, indent=2, sort_keys=True)``, in chunks.

    Only the nesting is walked in Python.  A container of at most
    ``JSON_BLOCK`` entries, none of them a container, is one C-encoder call
    (``sort_keys=True``) with the separators of its indentation; in any other
    container each run of scalar entries of an object (in sorted key order)
    or of a list goes through the C encoder, ``JSON_BLOCK`` entries at a
    time, so a flat table of any size is encoded at C speed in bounded
    blocks.  Object keys must be strings, as in a JSON document.
    """
    return _indented(doc, "\n")


def _indented(value, newline: str) -> Iterator[str]:
    if not isinstance(value, _CONTAINERS) or not value:
        yield json.dumps(value)  # a scalar, {} or []
        return
    is_object = isinstance(value, dict)
    inner = newline + "  "
    entries = value.values() if is_object else value
    if len(value) <= JSON_BLOCK and all(not isinstance(e, _CONTAINERS) for e in entries):
        # a block of scalars: one C-encoder call, brackets moved to their lines
        text = json.dumps(value, sort_keys=True, separators=("," + inner, ": "))
        yield text[0] + inner + text[1:-1] + newline + text[-1]
        return
    sep = ("{" if is_object else "[") + inner
    items = ((key, value[key]) for key in sorted(value)) if is_object else enumerate(value)
    for nested, run in itertools.groupby(items, lambda item: isinstance(item[1], _CONTAINERS)):
        if nested:
            for key, entry in run:
                yield sep + (json.dumps(key) + ": " if is_object else "")
                yield from _indented(entry, inner)
                sep = "," + inner
        else:
            while block := list(itertools.islice(run, JSON_BLOCK)):
                entries = dict(block) if is_object else [entry for _, entry in block]
                yield sep + json.dumps(entries, separators=("," + inner, ": "))[1:-1]
                sep = "," + inner
    yield newline + ("}" if is_object else "]")
