"""Shared test helpers: instance generators and naive reference checkers.

``masks_upto`` is the reference order of the feasible-set table: every mask
of popcount <= k by size, then by sorted member tuple, straight from
``itertools.combinations``.  ``tabular_from_spec`` copies any spec into an
explicit ``Tabular``.

The naive checkers quantify over every (A, B, a) triple straight from the
definitions; they are deliberately independent of the package's vectorized
implementations so the two routes cross-check each other.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from submodbandit import ItemSet, Tabular, value_table


def masks_upto(n: int, k: int):
    """Every mask over n items with popcount <= k, in ``sets.sort_key`` order."""
    for size in range(k + 1):
        for combo in combinations(range(n), size):
            yield sum(1 << a for a in combo)


def tabular_from_spec(spec, k: int) -> Tabular:
    """Materialize any spec as an explicit Tabular copy up to cardinality k,
    read off ``value_table`` and so refused by its size guard."""
    table = value_table(spec, k)
    return Tabular(spec.n, k, dict(zip(table.masks, table.values.tolist())))


def random_monotone_submodular(seed: int, n: int, k: int) -> Tabular:
    """Random monotone submodular table: coverage + saturating-cardinality
    components plus a small modular jitter, normalized into [0, 1].

    Every component is monotone and submodular, so any nonnegative mixture
    is too; the jitter breaks ties so instances are generic.
    """
    rng = np.random.default_rng(seed)
    n_comps = int(rng.integers(2, 5))
    comps = []
    for _ in range(n_comps):
        size = int(rng.integers(1, n + 1))
        block = rng.choice(n, size=size, replace=False)
        bmask = int(sum(1 << int(a) for a in block))
        weight = float(rng.uniform(0.2, 1.0))
        if rng.random() < 0.5:
            comps.append(("cover", bmask, weight, 0.0))
        else:
            rho = float(rng.uniform(0.3, 0.8))
            comps.append(("saturate", bmask, weight, rho))
    jitter = rng.uniform(0.0, 0.05, size=n)

    def raw(mask: int) -> float:
        total = 0.0
        for kind, bmask, weight, rho in comps:
            hits = (mask & bmask).bit_count()
            if kind == "cover":
                total += weight * (1.0 if hits else 0.0)
            else:
                total += weight * (1.0 - rho**hits)
        for a in range(n):
            if (mask >> a) & 1:
                total += jitter[a]
        return total

    masks = list(masks_upto(n, k))
    peak = max(raw(m) for m in masks)
    scale = 0.97 / peak if peak > 0 else 1.0
    return Tabular(n, k, {m: raw(m) * scale for m in masks})


def subsets_upto(n: int, k: int):
    for size in range(k + 1):
        for combo in combinations(range(n), size):
            yield frozenset(combo)


def naive_is_monotone(spec, k: int, tol: float = 1e-12) -> bool:
    for A in subsets_upto(spec.n, k - 1):
        fa = spec.value_of_mask(sum(1 << a for a in A))
        for a in range(spec.n):
            if a in A:
                continue
            if spec.value_of_mask(sum(1 << b for b in A | {a})) < fa - tol:
                return False
    return True


def naive_is_submodular(spec, k: int, tol: float = 1e-12) -> bool:
    """Full (A, B, a) quantification, no pairwise shortcut."""
    value = {
        S: spec.value_of_mask(sum(1 << a for a in S)) for S in subsets_upto(spec.n, k)
    }
    for B in subsets_upto(spec.n, k - 1):
        for a in range(spec.n):
            if a in B:
                continue
            rhs = value[B | {a}] - value[B]
            members = sorted(B)
            for r in range(len(members) + 1):
                for Ac in combinations(members, r):
                    A = frozenset(Ac)
                    if value[A | {a}] - value[A] < rhs - tol:
                        return False
    return True


def naive_curvature(spec, k: int) -> float:
    worst = None
    for A in subsets_upto(spec.n, k - 1):
        fa = spec.value_of_mask(sum(1 << a for a in A))
        for a in range(spec.n):
            if a in A:
                continue
            single = spec.value_of_mask(1 << a)
            if single <= 0:
                continue
            ratio = (spec.value_of_mask(sum(1 << b for b in A | {a})) - fa) / single
            worst = ratio if worst is None else min(worst, ratio)
    return 0.0 if worst is None else 1.0 - worst


def enumerate_chain_costs(spec, k: int):
    """Yield (order, slacks, final_value) for every ordered chain.

    Slack bookkeeping is recomputed here from evaluate() alone, independent
    of the package's tables and DP.
    """
    from itertools import permutations

    n = spec.n
    value = {}

    def val(mask: int) -> float:
        v = value.get(mask)
        if v is None:
            v = spec.value_of_mask(mask)
            value[mask] = v
        return v

    for order in permutations(range(n), k):
        mask = 0
        slacks = []
        for a in order:
            best = max(val(mask | (1 << b)) for b in range(n) if not (mask >> b) & 1)
            mask |= 1 << a
            slacks.append(max(0.0, best - val(mask)))
        yield order, slacks, val(mask)


def pulled_sets_ok(traj, k: int) -> bool:
    return all(1 <= mask.bit_count() <= k for mask in traj.masks())


def naive_greedy_then_flat(env, k: int, T: int, l: int, m, uniform: bool) -> list:
    """The policies' two phases on one env, one ``pull`` at a time: l
    greedy levels (uniform or optimistic), then the index loop over the
    size-k supersets of the base.  Returns the levels."""
    n = env.spec.n

    def index_loop(arms, m, counts, sums):
        for j in np.flatnonzero(counts == 0).tolist():
            if env.t >= T:
                return None
            sums[j] += env.pull(ItemSet(arms[j]))
            counts[j] += 1.0
        while True:
            j = int(np.argmax(sums / counts + np.sqrt(8.0 * math.log(env.t) / counts)))
            if counts[j] >= m:
                return j
            if env.t >= T:
                return None
            sums[j] += env.pull(ItemSet(arms[j]))
            counts[j] += 1.0

    levels, base = [], 0
    for level in range(l):
        arms = [base | (1 << a) for a in range(n) if not (base >> a) & 1]
        counts, sums = np.zeros(len(arms)), np.zeros(len(arms))
        if level == 0 or uniform:
            for j, arm in enumerate(arms):
                for _ in range(m):
                    if env.t >= T:
                        return levels
                    sums[j] += env.pull(ItemSet(arm))
            counts[:] = m
        j = int(np.argmax(sums / m)) if uniform else index_loop(arms, m, counts, sums)
        if j is None:
            return levels
        base = arms[j]
        levels.append(ItemSet(base))
    free = [a for a in range(n) if not (base >> a) & 1]
    flat = [base | sum(1 << a for a in c) for c in combinations(free, k - l)]
    index_loop(flat, math.inf, np.zeros(len(flat)), np.zeros(len(flat)))
    return levels
