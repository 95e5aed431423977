"""Greedy chains, exact optimization and the robust-greedy benchmark.

A greedy chain is a nested family S(1) c S(2) c ... c S(k) with |S(i)| = i.
Its slack vector eps records, per level, how far the added element fell short
of the best available marginal:

    eps_i = max(0, max_{a not in S(i-1)} f(S(i-1) + a) - f(S(i)))

with S(0) the empty set.  The robust-greedy benchmark is the cheapest
value-plus-slack any chain can achieve,

    B = min over chains of [ f(S(k)) + sum_i eps_i ],

computed exactly by dynamic programming over the feasible sets (the chain
cost decomposes over consecutive levels, so a min over predecessors per set
is exact).  ``enumerate_benchmark`` recomputes the same minimum by costing
every ordered chain, or a seeded sample of orders when there are more than
FULL_ENUM_CAP, and exists as an independent cross-check of the DP: one
blocked numpy gather costs a block of orders, one chain level at a time.
Every routine here walks the rank-indexed table of ``structure.value_table``:
a chain step S -> S + a is ``extend[rank(S), a]`` and the best marginal of S
is ``best_extension[rank(S)]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, permutations

import numpy as np

from .errors import OutOfRange
from .functions import SetFunction
from .sets import ItemSet
from .structure import approx_ratio, curvature, value_table

# orders costed per gather: the block bounds the enumeration's memory
_BLOCK_ROWS = 5_000
# the most orders the cross-check costs exhaustively; past it, it costs
# SAMPLE_SIZE seeded orders, a whole number of blocks
FULL_ENUM_CAP = 300_000
SAMPLE_SEED = 0
SAMPLE_SIZE = 10 * _BLOCK_ROWS
# slack of the approximation-guarantee comparison
GUARANTEE_TOL = 1e-9


@dataclass(frozen=True)
class GreedyChain:
    """Nested sets with their componentwise-minimal slack vector."""

    levels: tuple[ItemSet, ...]
    eps: tuple[float, ...]

    def __post_init__(self):
        prev = 0
        for i, level in enumerate(self.levels, start=1):
            if len(level) != i or level.mask & prev != prev:
                raise ValueError("levels must be strictly nested with |S(i)| = i")
            prev = level.mask
        if len(self.eps) != len(self.levels):
            raise ValueError("one slack entry per level required")
        if any(e < 0 for e in self.eps):
            raise ValueError("slacks must be nonnegative")

    @property
    def k(self) -> int:
        return len(self.levels)

    def final_set(self) -> ItemSet:
        return self.levels[-1] if self.levels else ItemSet.empty()

    def total_slack(self) -> float:
        return float(sum(self.eps))


def chain_from_order(spec: SetFunction, k: int, order: tuple[int, ...]) -> GreedyChain:
    """Build the chain that adds ``order`` one item at a time, with its slacks."""
    if len(order) != k:
        raise ValueError(f"order must list exactly k={k} items")
    table = value_table(spec, k)
    best = table.best_extension
    levels = []
    eps = []
    r = 0
    for a in order:
        if not 0 <= a < spec.n:
            raise OutOfRange(f"item {a} outside [0, {spec.n})")
        grown = int(table.extend[r, a])
        if grown < 0:
            raise ValueError(f"item {a} repeated in order")
        eps.append(max(0.0, float(best[r] - table.values[grown])))
        r = grown
        levels.append(ItemSet(table.masks[r]))
    return GreedyChain(tuple(levels), tuple(eps))


def exact_greedy(spec: SetFunction, k: int) -> GreedyChain:
    """Greedy chain under the true function; ties go to the lowest item."""
    table = value_table(spec, k)
    levels = []
    r = 0
    for _ in range(k):
        r = int(table.extend[r, np.argmax(table.grown(r))])  # argmax keeps the first maximum
        levels.append(ItemSet(table.masks[r]))
    return GreedyChain(tuple(levels), (0.0,) * k)


def brute_force_opt(spec: SetFunction, k: int) -> tuple[ItemSet, float]:
    """Exact maximizer over all |S| <= k; ties go to the canonically first set."""
    table = value_table(spec, k)
    r = int(np.argmax(table.values))  # argmax keeps the first maximum
    return ItemSet(table.masks[r]), float(table.values[r])


@dataclass(frozen=True)
class BenchmarkResult:
    value: float
    chain: GreedyChain


def greedy_benchmark(spec: SetFunction, k: int) -> BenchmarkResult:
    """min over chains of f(final) + total slack, by DP over the feasible sets.

    G(S) is the cheapest accumulated slack of any chain ending at S;
    G(S) = min_{a in S} [ G(S - a) + max(0, best_ext(S - a) - f(S)) ] and the
    benchmark is min over |S| = k of G(S) + f(S).  Each level is relaxed
    forward from the one below; back-pointers recover a witness chain, and
    ties resolve to the predecessor of smallest rank, the canonically first.
    """
    table = value_table(spec, k)
    vals, best = table.values, table.best_extension
    G = np.full(len(vals), np.inf)
    G[0] = 0.0
    parent = np.full(len(vals), -1)
    for size in range(k):
        level = table.level(size)
        ranks = np.arange(level.start, level.stop)
        for b in range(spec.n):
            # S -> S + b is one-to-one for a fixed b, so the scatter is safe
            grown = table.extend[ranks, b]
            keep = grown >= 0
            src, dst = ranks[keep], grown[keep]
            cost = G[src] + np.maximum(0.0, best[src] - vals[dst])
            wins = (cost < G[dst]) | ((cost == G[dst]) & (src < parent[dst]))
            G[dst[wins]] = cost[wins]
            parent[dst[wins]] = src[wins]

    top = table.level(k)
    totals = G[top] + vals[top]
    i = int(np.argmin(totals))  # argmin keeps the first minimum
    order = []
    r = top.start + i
    while r:  # back to the empty set, one added item per step
        prev = int(parent[r])
        order.append((table.masks[r] ^ table.masks[prev]).bit_length() - 1)
        r = prev
    return BenchmarkResult(float(totals[i]), chain_from_order(spec, k, tuple(reversed(order))))


def enumerate_benchmark(spec: SetFunction, k: int) -> BenchmarkResult:
    """Benchmark by explicit enumeration of ordered chains (DP cross-check).

    Costs all n*(n-1)*...*(n-k+1) orders in lexicographic blocks, each block
    by one gather per chain level: slack by slack, then f(final).  The first
    cheapest order wins, so ties go to the lexicographically first.  If
    there are more than FULL_ENUM_CAP orders, SAMPLE_SIZE seeded random
    orders are costed instead; the result is then an upper bound on the
    benchmark rather than the exact minimum.
    """
    table = value_table(spec, k)
    vals, best = table.values, table.best_extension
    n = spec.n
    if math.perm(n, k) > FULL_ENUM_CAP:
        rng = np.random.default_rng(SAMPLE_SEED)
        # row by row, the first k items of successive rng.permutation(n) draws
        blocks = (
            rng.permuted(np.tile(np.arange(n), (_BLOCK_ROWS, 1)), axis=1)[:, :k]
            for _ in range(SAMPLE_SIZE // _BLOCK_ROWS)
        )
    else:
        every = permutations(range(n), k)
        blocks = (
            np.array(block, dtype=np.intp)
            for block in iter(lambda: list(islice(every, _BLOCK_ROWS)), [])
        )

    best_cost = math.inf
    best_order: tuple[int, ...] = ()
    for orders in blocks:
        r = np.zeros(len(orders), dtype=np.intp)
        cost = np.zeros(len(orders))
        for a in orders.T:
            grown = table.extend[r, a]
            cost += np.maximum(0.0, best[r] - vals[grown])
            r = grown
        cost += vals[r]
        i = int(np.argmin(cost))  # argmin keeps the first minimum
        if cost[i] < best_cost:
            best_cost = float(cost[i])
            best_order = tuple(orders[i].tolist())

    return BenchmarkResult(best_cost, chain_from_order(spec, k, best_order))


@dataclass(frozen=True)
class GuaranteeResult:
    ok: bool
    lhs: float
    rhs: float


def check_approx_guarantee(spec: SetFunction, k: int, chain: GreedyChain) -> GuaranteeResult:
    """Check f(final) + total slack >= ratio(curvature) * optimum.

    This is the curvature-corrected greedy guarantee; it must hold for every
    chain of a monotone submodular function, whatever its slacks.
    """
    final = chain.final_set()
    lhs = spec.value_of_mask(final.mask) + chain.total_slack()
    c = curvature(spec, k)
    _, f_star = brute_force_opt(spec, k)
    rhs = approx_ratio(c) * f_star
    return GuaranteeResult(lhs >= rhs - GUARANTEE_TOL, float(lhs), float(rhs))
