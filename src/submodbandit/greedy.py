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
every ordered chain, and exists as an independent cross-check of the DP.  It
walks the orders on their prefix tree, one level at a time: the children of
a prefix are its untaken items in ascending order, so a level lists its
orders lexicographically, and a child costs its parent's cost plus one slack,
the additions the chain's own sum makes, in the same order.  The last level
is walked in blocks, which bound the memory.  When there are more than
FULL_ENUM_CAP orders it costs a seeded sample instead, drawn once per (n, k)
and kept for every spec of that shape, in blocks, one gather per chain level.
Every routine here walks the rank-indexed table of ``structure.value_table``:
a chain step S -> S + a is ``extend[rank(S), a]`` and the best marginal of S
is ``best_extension[rank(S)]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .functions import SetFunction
from .sets import ItemSet
from .structure import FeasibleTable, approx_ratio, curvature, value_table

# orders costed per gather, on the prefix tree's last level and in the
# sample: the block bounds the memory of costing them
_BLOCK_ROWS = 5_000
# the most orders the cross-check walks exhaustively.  The levels below the
# last hold perm(n, k - 1) = perm(n, k) / (n - k + 1) prefixes, at most
# 60,480 (n = 9, k = 7, where the walk peaks at about 2 MB beside the table);
# near the cap at n >> k they are few, and (24, 4) and (67, 3) peak under 0.5 MB
FULL_ENUM_CAP = 300_000
SAMPLE_SEED = 0
# seeded orders costed past the cap, a whole number of blocks: drawn once per
# (n, k) and kept, read-only, in the smallest unsigned dtype that holds n - 1
# (250 KB at n = 20, k = 5)
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
            raise ValueError(f"item {a} outside [0, {spec.n})")
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

    Costs all n*(n-1)*...*(n-k+1) orders on their prefix tree, one level at
    a time: a prefix's children are the items it has not taken, ascending, so
    the orders come in lexicographic order, and a child costs its parent's
    cost plus the slack of its last item.  So each order costs
    0.0 + eps_1 + ... + eps_k, then + f(final), summed in that order.  The
    last level is expanded in blocks of at most _BLOCK_ROWS orders, and
    back-pointers (a prefix of i items has n - i children) give back the
    winning order.  The first cheapest order wins, so ties go to the
    lexicographically first.  If there are more than FULL_ENUM_CAP orders,
    the SAMPLE_SIZE seeded random orders of ``_sample`` are costed instead,
    drawn once per (n, k); the result is then an upper bound on the benchmark
    rather than the exact minimum.
    """
    table = value_table(spec, k)
    if math.perm(spec.n, k) > FULL_ENUM_CAP:
        cost, order = _sampled_min(table, _sample(spec.n, k))
    else:
        cost, order = _exhaustive_min(table, k)
    return BenchmarkResult(cost, chain_from_order(spec, k, order))


def _children(table: FeasibleTable, ranks: np.ndarray, costs: np.ndarray):
    """The ranks and costs of every child of the prefixes at ``ranks``, by
    prefix, then by ascending item; a child costs its prefix's cost plus the
    slack of its item."""
    ext = table.extend[ranks]
    grown = ext[ext >= 0]  # row-major, so the items ascend within a prefix
    fanout = len(grown) // len(ranks)  # the items outside a prefix
    slack = np.repeat(table.best_extension[ranks], fanout) - table.values[grown]
    np.maximum(0.0, slack, out=slack)
    return grown, np.repeat(costs, fanout) + slack


def _exhaustive_min(table: FeasibleTable, k: int) -> tuple[float, tuple[int, ...]]:
    """The first cheapest of all orders of k items, walked on their prefix tree."""
    if k == 0:
        return float(0.0 + table.values[0]), ()
    n = table.n
    levels = [np.zeros(1, dtype=np.intp)]  # the prefixes' ranks, by prefix size
    costs = np.zeros(1)
    for _ in range(k - 1):
        ranks, costs = _children(table, levels[-1], costs)
        levels.append(ranks)
    top, fanout = levels[-1], n - k + 1
    width = max(1, _BLOCK_ROWS // fanout)  # prefixes per block
    best_cost, best_at, best_rank = math.inf, 0, 0
    for lo in range(0, len(top), width):
        grown, cost = _children(table, top[lo : lo + width], costs[lo : lo + width])
        cost += table.values[grown]
        i = int(np.argmin(cost))  # argmin keeps the first minimum
        if cost[i] < best_cost:
            best_cost, best_at, best_rank = float(cost[i]), lo * fanout + i, int(grown[i])
    # back up the tree: a prefix of `size` items has n - size children
    path = [best_rank]
    for size in range(k - 1, -1, -1):
        best_at //= n - size
        path.append(int(levels[size][best_at]))
    order = [(table.masks[r] ^ table.masks[up]).bit_length() - 1 for r, up in zip(path, path[1:])]
    return best_cost, tuple(reversed(order))


@cache
def _sample(n: int, k: int) -> np.ndarray:
    """The SAMPLE_SIZE seeded orders of k of n items, drawn once per (n, k):
    row by row, the first k items of successive ``rng.permutation(n)`` draws,
    in the smallest unsigned dtype that holds n - 1, read-only."""
    rng = np.random.default_rng(SAMPLE_SEED)
    orders = np.empty((SAMPLE_SIZE, k), dtype=np.min_scalar_type(n - 1))
    for lo in range(0, SAMPLE_SIZE, _BLOCK_ROWS):
        block = rng.permuted(np.tile(np.arange(n), (_BLOCK_ROWS, 1)), axis=1)
        orders[lo : lo + _BLOCK_ROWS] = block[:, :k]
    orders.flags.writeable = False
    return orders


def _sampled_min(table: FeasibleTable, sample: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """The first cheapest of ``sample``'s orders, costed a block at a time by
    one gather per chain level: slack by slack, then f(final)."""
    vals, best = table.values, table.best_extension
    best_cost, best_order = math.inf, ()
    for lo in range(0, len(sample), _BLOCK_ROWS):
        orders = sample[lo : lo + _BLOCK_ROWS]
        r = np.zeros(len(orders), dtype=np.intp)
        cost = np.zeros(len(orders))
        for a in orders.T:
            grown = table.extend[r, a]
            cost += np.maximum(0.0, best[r] - vals[grown])
            r = grown
        cost += vals[r]
        i = int(np.argmin(cost))  # argmin keeps the first minimum
        if cost[i] < best_cost:
            best_cost, best_order = float(cost[i]), tuple(orders[i].tolist())
    return best_cost, best_order


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
