"""Seeded inputs of the three workloads, with reference oracles of their own.

Everything here is independent of the package under test: the program only
ever sees the JSON documents built below, and the value functions kept next
to them are this file's own closed forms (or the table it generated), used
afterwards to check the program's answers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

# desk grid: the weighted cover "cover15" of the ROADMAP baseline table
COVER_N, COVER_K = 15, 4
COVER_BLOCKS = ((0, 1, 2, 3, 4), (5, 6, 7, 8, 9), (10, 11, 12, 13), (14,))
COVER_WEIGHTS = (0.1, 0.1, 0.2, 0.6)
DESK_T_GRID = (1000, 2000, 10000)
DESK_TRIALS = 8

# many short cells on a generated table
TAB_N, TAB_K = 20, 4
TAB_T_GRID = (500, 2000)
TAB_TRIALS = 8

# structural battery at n=20, k=5
VERIFY_N, VERIFY_K = 20, 5

ValueFn = Callable[[int], float]


@dataclass(frozen=True)
class GridInput:
    """An experiment config and the reference value function of its instance."""

    config: dict
    value: ValueFn


@dataclass(frozen=True)
class VerifyInput:
    label: str
    function: dict
    k: int
    value: ValueFn
    submodular: bool  # the known answer, from the family's threshold


def render(mask: int) -> str:
    return ",".join(str(a) for a in range(mask.bit_length()) if (mask >> a) & 1)


def masks_upto(n: int, k: int):
    for size in range(k + 1):
        for combo in combinations(range(n), size):
            yield sum(1 << a for a in combo)


_COVER_MASKS = tuple(sum(1 << a for a in b) for b in COVER_BLOCKS)


def cover_value(mask: int) -> float:
    total = 0.0
    for bmask, w in zip(_COVER_MASKS, COVER_WEIGHTS):
        if mask & bmask:
            total += w
    return total


def random_tabular(seed: int, n: int, k: int) -> dict[int, float]:
    """Monotone submodular table: a nonnegative mix of coverage and saturating
    components plus a small modular jitter, scaled into [0, 0.97]."""
    rng = np.random.default_rng(seed)
    comps = []
    for _ in range(int(rng.integers(2, 5))):
        block = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        bmask = sum(1 << int(a) for a in block)
        weight = float(rng.uniform(0.2, 1.0))
        rho = float(rng.uniform(0.3, 0.8)) if rng.random() < 0.5 else None
        comps.append((bmask, weight, rho))
    jitter = rng.uniform(0.0, 0.05, size=n)

    def raw(mask: int) -> float:
        total = 0.0
        for bmask, weight, rho in comps:
            hits = (mask & bmask).bit_count()
            if rho is None:
                total += weight if hits else 0.0
            else:
                total += weight * (1.0 - rho**hits)
        return total + sum(float(jitter[a]) for a in range(n) if (mask >> a) & 1)

    table = {mask: raw(mask) for mask in masks_upto(n, k)}
    scale = 0.97 / max(table.values())
    return {mask: v * scale for mask, v in table.items()}


def grid_input(workload: str, seed: int) -> GridInput:
    rng = np.random.default_rng(seed)
    base_seed = int(rng.integers(0, 2**62))
    if workload == "desk-grid":
        function = {
            "kind": "weighted_cover",
            "n": COVER_N,
            "blocks": [list(b) for b in COVER_BLOCKS],
            "weights": list(COVER_WEIGHTS),
        }
        config = {
            "function": function,
            "n": COVER_N,
            "k": COVER_K,
            "sigma": 1.0,
            "T_grid": list(DESK_T_GRID),
            "policies": [
                {"kind": "sub_ucb", "l": "auto", "label": "sub_ucb_auto"},
                {"kind": "etcg", "label": "etcg"},
                {"kind": "ucb_all", "label": "ucb_all"},
            ],
            "trials": DESK_TRIALS,
            "base_seed": base_seed,
            "checkpoints": "log",
        }
        return GridInput(config, cover_value)
    if workload == "tabular-cells":
        table = random_tabular(int(rng.integers(0, 2**62)), TAB_N, TAB_K)
        function = {
            "kind": "tabular",
            "n": TAB_N,
            "k_max": TAB_K,
            "table": {render(mask): v for mask, v in table.items()},
        }
        config = {
            "function": function,
            "n": TAB_N,
            "k": TAB_K,
            "sigma": 0.5,
            "T_grid": list(TAB_T_GRID),
            "policies": [
                {"kind": "sub_ucb", "l": l, "label": f"sub_ucb_l{l}"}
                for l in (TAB_K, TAB_K - 1, TAB_K - 2)
            ]
            + [{"kind": "etcg", "label": "etcg"}],
            "trials": TAB_TRIALS,
            "base_seed": base_seed,
            "checkpoints": "log",
        }
        return GridInput(config, table.__getitem__)
    raise ValueError(f"not a grid workload: {workload}")


def _harmonic(k: int, size: int) -> float:
    return sum((1.0 / (k + i) for i in range(1, size + 1)), 0.0)


def unique_path_value(k: int, delta: float) -> ValueFn:
    """Prefix sets {0..s-1} are worth H_{s+k} - H_k, other sets delta less."""

    def value(mask: int) -> float:
        s = mask.bit_count()
        return _harmonic(k, s) - (0.0 if mask == (1 << s) - 1 else delta)

    return value


def harmonic_value(k: int, delta: float, planted: dict[int, int] | None) -> ValueFn:
    """The hard family: off-prefix sets lose delta/k (delta at size k); sets on
    the planted chain gain delta/k (delta at size k)."""

    def value(mask: int) -> float:
        s = mask.bit_count()
        base = _harmonic(k, s)
        if planted is not None and planted.get(s) == mask:
            return base + (delta if s == k else delta / k)
        if mask == (1 << s) - 1:
            return base
        return base - (delta if s == k else delta / k)

    return value


def verify_inputs(seed: int, n: int = VERIFY_N, k: int = VERIFY_K) -> list[VerifyInput]:
    """harmonic-base and -elevated at the tight gap 1/(8k^2), and the unique
    greedy path on either side of its threshold 1/(2k(2k-1)).

    Both gaps of the unique path stay below 1/((2k-2)(2k-1)), where a second
    level would start to violate, so the failing instance fails at the same
    pairs whatever the seed."""
    rng = np.random.default_rng(seed)
    tight = 1.0 / (8.0 * k * k)
    threshold = 1.0 / (2 * k * (2 * k - 1))
    prefix_len = int(rng.integers(0, k))
    tail = [int(a) for a in rng.choice(np.arange(k, n), size=k - prefix_len, replace=False)]
    planted = {}
    mask = (1 << prefix_len) - 1
    for a in tail:
        mask |= 1 << a
        planted[mask.bit_count()] = mask
    delta_lo = threshold * float(rng.uniform(0.5, 0.95))
    delta_hi = threshold * float(rng.uniform(1.05, 1.2))
    return [
        VerifyInput(
            "harmonic-base",
            {"kind": "harmonic", "n": n, "k": k, "delta": tight, "variant": "base"},
            k,
            harmonic_value(k, tight, None),
            True,
        ),
        VerifyInput(
            "harmonic-elevated",
            {
                "kind": "harmonic",
                "n": n,
                "k": k,
                "delta": tight,
                "variant": "elevated",
                "prefix_len": prefix_len,
                "tail": tail,
            },
            k,
            harmonic_value(k, tight, planted),
            True,
        ),
        VerifyInput(
            "unique-path-below",
            {"kind": "unique_greedy_path", "n": n, "k": k, "delta": delta_lo},
            k,
            unique_path_value(k, delta_lo),
            True,
        ),
        VerifyInput(
            "unique-path-above",
            {"kind": "unique_greedy_path", "n": n, "k": k, "delta": delta_hi},
            k,
            unique_path_value(k, delta_hi),
            False,
        ),
    ]


def feasible_sets(n: int, k: int) -> int:
    return sum(math.comb(n, i) for i in range(k + 1))
