"""Greedy chains, exact optimization and the robust-greedy benchmark.

A greedy chain is a nested family S(1) c S(2) c ... c S(k) with |S(i)| = i.
Its slack vector eps records, per level, how far the added element fell short
of the best available marginal:

    eps_i = max(0, max_{a not in S(i-1)} f(S(i-1) + a) - f(S(i)))

with S(0) the empty set.  The robust-greedy benchmark is the cheapest
value-plus-slack any chain can achieve,

    B = min over chains of [ f(S(k)) + sum_i eps_i ],

computed exactly by dynamic programming over subsets (the chain cost
decomposes over consecutive levels, so a min over predecessors per subset is
exact).  ``enumerate_benchmark`` recomputes the same minimum by walking every
ordered chain and exists as an independent cross-check of the DP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CardinalityExceeded
from .functions import SetFunction
from .sets import ItemSet, masks_upto, sort_key
from .structure import approx_ratio, best_extension_table, curvature, value_table


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
    vals = value_table(spec, k)
    best = best_extension_table(vals, spec.n, k)
    levels = []
    eps = []
    mask = 0
    for a in order:
        new = mask | (1 << a)
        if new == mask:
            raise ValueError(f"item {a} repeated in order")
        eps.append(max(0.0, float(best[mask] - vals[new])))
        mask = new
        levels.append(ItemSet(mask))
    return GreedyChain(tuple(levels), tuple(eps))


def exact_greedy(spec: SetFunction, k: int) -> GreedyChain:
    """Greedy chain under the true function; ties go to the lowest item."""
    if k > spec.n:
        raise CardinalityExceeded(f"k={k} exceeds the ground set size n={spec.n}")
    vals = value_table(spec, k)
    n = spec.n
    levels = []
    eps = []
    mask = 0
    for _ in range(k):
        best_a = -1
        best_v = -math.inf
        for a in range(n):
            bit = 1 << a
            if mask & bit:
                continue
            v = vals[mask | bit]
            if v > best_v:
                best_v = v
                best_a = a
        mask |= 1 << best_a
        levels.append(ItemSet(mask))
        eps.append(0.0)
    return GreedyChain(tuple(levels), tuple(eps))


def brute_force_opt(spec: SetFunction, k: int) -> tuple[ItemSet, float]:
    """Exact maximizer over all |S| <= k; ties go to the canonically first set."""
    vals = value_table(spec, k)
    masks = np.fromiter(masks_upto(spec.n, k), dtype=np.int64)
    best = int(masks[np.argmax(vals[masks])])  # argmax keeps the first maximum
    return ItemSet(best), float(vals[best])


@dataclass(frozen=True)
class BenchmarkResult:
    value: float
    chain: GreedyChain


def greedy_benchmark(spec: SetFunction, k: int) -> BenchmarkResult:
    """min over chains of f(final) + total slack, by subset DP.

    G(S) is the cheapest accumulated slack of any chain ending at S;
    G(S) = min_{a in S} [ G(S - a) + max(0, best_ext(S - a) - f(S)) ] and the
    benchmark is min over |S| = k of G(S) + f(S).  Back-pointers recover a
    witness chain; ties resolve to the canonically smallest predecessor.
    """
    if k == 0:
        return BenchmarkResult(float(value_table(spec, 0)[0]), GreedyChain((), ()))
    vals = value_table(spec, k)
    n = spec.n
    best = best_extension_table(vals, n, k)
    G = np.full(1 << n, np.inf)
    G[0] = 0.0
    parent = np.zeros(1 << n, dtype=np.int64)
    best_total = math.inf
    best_final = -1

    # sort_key order: every predecessor is final before its supersets
    for mask in masks_upto(n, k):
        if not mask:
            continue
        best_cost = math.inf
        best_prev = -1
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            prev = mask ^ low
            cost = G[prev] + max(0.0, float(best[prev] - vals[mask]))
            if cost < best_cost or (
                cost == best_cost and sort_key(prev) < sort_key(best_prev)
            ):
                best_cost = cost
                best_prev = prev
        G[mask] = best_cost
        parent[mask] = best_prev
        if mask.bit_count() == k:
            total = float(best_cost + vals[mask])
            if total < best_total:
                best_total = total
                best_final = mask

    levels = []
    mask = best_final
    while mask:
        levels.append(mask)
        mask = int(parent[mask])
    levels.reverse()
    eps = []
    prev = 0
    for mask in levels:
        eps.append(max(0.0, float(best[prev] - vals[mask])))
        prev = mask
    chain = GreedyChain(tuple(ItemSet(m) for m in levels), tuple(eps))
    return BenchmarkResult(best_total, chain)


def enumerate_benchmark(
    spec: SetFunction,
    k: int,
    max_chains: int | None = None,
    sample_seed: int = 0,
    sample_size: int = 50_000,
) -> BenchmarkResult:
    """Benchmark by explicit enumeration of ordered chains (DP cross-check).

    Walks the prefix tree of all n*(n-1)*...*(n-k+1) orders accumulating
    slacks.  If ``max_chains`` is given and the full count exceeds it, a
    deterministic random sample of orders is costed instead; the result is
    then an upper bound on the benchmark rather than the exact minimum.
    """
    if k == 0:
        return BenchmarkResult(float(value_table(spec, 0)[0]), GreedyChain((), ()))
    n = spec.n
    total_orders = math.perm(n, k)
    vals = value_table(spec, k)
    best = best_extension_table(vals, n, k)

    best_cost = math.inf
    best_order: tuple[int, ...] | None = None

    if max_chains is not None and total_orders > max_chains:
        rng = np.random.default_rng(sample_seed)
        for _ in range(sample_size):
            order = tuple(int(a) for a in rng.permutation(n)[:k])
            cost, _ = _order_cost(order, vals, best)
            if cost < best_cost:
                best_cost = cost
                best_order = order
    else:
        stack = [(0, 0.0, ())]
        while stack:
            mask, acc, order = stack.pop()
            if len(order) == k:
                cost = acc + float(vals[mask])
                if cost < best_cost or (
                    cost == best_cost and order < best_order
                ):
                    best_cost = cost
                    best_order = order
                continue
            for a in range(n - 1, -1, -1):
                bit = 1 << a
                if mask & bit:
                    continue
                slack = max(0.0, float(best[mask] - vals[mask | bit]))
                stack.append((mask | bit, acc + slack, order + (a,)))

    chain = chain_from_order(spec, k, best_order)
    return BenchmarkResult(best_cost, chain)


def _order_cost(order, vals, best):
    mask = 0
    acc = 0.0
    for a in order:
        new = mask | (1 << a)
        acc += max(0.0, float(best[mask] - vals[new]))
        mask = new
    return acc + float(vals[mask]), mask


@dataclass(frozen=True)
class GuaranteeResult:
    ok: bool
    lhs: float
    rhs: float


def check_approx_guarantee(
    spec: SetFunction, k: int, chain: GreedyChain, tol: float = 1e-9
) -> GuaranteeResult:
    """Check f(final) + total slack >= ratio(curvature) * optimum.

    This is the curvature-corrected greedy guarantee; it must hold for every
    chain of a monotone submodular function, whatever its slacks.
    """
    final = chain.final_set()
    lhs = spec.value_of_mask(final.mask) + chain.total_slack()
    c = curvature(spec, k)
    _, f_star = brute_force_opt(spec, k)
    rhs = approx_ratio(c) * f_star
    return GuaranteeResult(lhs >= rhs - tol, float(lhs), float(rhs))
