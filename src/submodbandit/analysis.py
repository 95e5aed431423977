"""Regret accounting, closed-form bound evaluators and the KL diagnostic.

Regret is measured as pseudo-regret: cumulative sums use the true values of
the pulled sets, never the noisy observations.  Three benchmarks are
reported per trajectory:

* ``regret_opt``   -- against the exact optimum f(S*),
* ``regret_alpha`` -- against ratio(curvature) * f(S*),
* ``regret_gr``    -- against the robust-greedy benchmark B, for which the
  identity  regret_gr(t) = t * B - cum_reward(t)  holds exactly.

The closed-form evaluators (``i_star``, ``minimax_lower_bound``,
``subucb_regret_bound``) use natural logarithms throughout.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterable, Mapping

import numpy as np

from .envs import BanditEnv
from .functions import SetFunction
from .greedy import GreedyChain, brute_force_opt, greedy_benchmark
from .sets import ItemSet
from .structure import FeasibleTable, approx_ratio, curvature


def i_star(n: int, k: int, T: int) -> int:
    """Largest i in [1, k] with (16 / (n^2 k^6)) * C(n-k, i)^3 <= T, else 0.

    Evaluated in exact integer arithmetic (16 C^3 <= T n^2 k^6) so boundary
    horizons never depend on float rounding.  C(n-k, i) is unimodal in i, so
    when i = k fails, the i that pass below it are a prefix of [1, k), and a
    walk up from i = 1 ends at its first failure, by the mode (n-k) // 2.
    """
    if not (n > k >= 1) or T < 1:
        raise ValueError(f"need n > k >= 1 and T >= 1; got n={n}, k={k}, T={T}")
    rhs = T * n * n * k**6
    N = n - k
    if 16 * math.comb(N, k) ** 3 <= rhs:
        return k
    c = 1
    for i in range(1, k):
        c = c * (N - i + 1) // i  # C(N, i), exactly
        if 16 * c**3 > rhs:
            return i - 1
    return k - 1


def auto_stop_level(n: int, k: int, T: int) -> int:
    """Horizon-matched greedy stop level k - i_star, clamped to [0, k]."""
    return min(k, max(0, k - i_star(n, k, T)))


def default_m(T: int, n: int) -> int:
    """Per-arm sample budget ceil(T^{2/3} n^{-2/3} (ln T)^{1/3}), at least 1."""
    if T < 2 or n < 1:
        raise ValueError(f"need T >= 2 and n >= 1; got T={T}, n={n}")
    m = math.ceil(T ** (2.0 / 3.0) * n ** (-2.0 / 3.0) * math.log(T) ** (1.0 / 3.0))
    return max(1, m)


def minimax_lower_bound(n: int, k: int, T: int) -> float:
    """Worst-case robust-greedy regret floor for the hard instance family."""
    if n < 4 or not 1 <= k <= n // 3:
        raise ValueError(f"need n >= 4 and 1 <= k <= n/3; got n={n}, k={k}")
    istar = i_star(n, k, T)
    first = (
        (k - istar)
        * T ** (2.0 / 3.0)
        * n ** (1.0 / 3.0)
        * math.exp(-16.0 - 2.0 * 16.0 ** (1.0 / 3.0))
        / 16.0
    )
    second = 0.25 * math.sqrt(T) * math.sqrt(math.comb(n - k, istar)) * math.exp(-2.0)
    return first + second


def subucb_regret_bound(n: int, k: int, l: int, T: int) -> float:
    """Regret ceiling of the greedy-then-UCB policy at stop level l."""
    if not (0 <= l <= k < n) or T < 2:
        raise ValueError(f"need 0 <= l <= k < n and T >= 2; got n={n}, k={k}, l={l}, T={T}")
    log_t = math.log(T)
    arms = math.comb(n - k, k - l)
    first = (1.0 + 4.0 * math.sqrt(2.0)) * l * T ** (2.0 / 3.0) * n ** (1.0 / 3.0) * log_t ** (1.0 / 3.0)
    second = 65.0 * math.sqrt(T * arms * log_t)
    third = (32.0 / 15.0) * arms
    return first + second + third


@dataclass(frozen=True)
class BoundsSheet:
    n: int
    k: int
    T: int
    l: int
    i_star: int
    lower_bound: float | None  # None when (n, k) leaves the evaluator's domain
    upper_bound: float
    m: int

    def to_json(self) -> dict:
        return asdict(self)


def compute_bounds(n: int, k: int, T: int, l: int | None = None) -> BoundsSheet:
    istar = i_star(n, k, T)
    if l is None:
        l = auto_stop_level(n, k, T)
    lower = None
    if n >= 4 and 1 <= k <= n // 3:
        lower = minimax_lower_bound(n, k, T)
    return BoundsSheet(
        n=n,
        k=k,
        T=T,
        l=l,
        i_star=istar,
        lower_bound=lower,
        upper_bound=subucb_regret_bound(n, k, l, T),
        m=default_m(T, n),
    )


@dataclass(frozen=True)
class BenchmarkSummary:
    """Exact benchmarks of a spec at cardinality k."""

    opt_set: ItemSet
    f_star: float
    curvature: float
    alpha: float
    benchmark: float
    benchmark_chain: GreedyChain


def benchmark_summary(spec: SetFunction, k: int) -> BenchmarkSummary:
    """Exact benchmarks, computed once per spec instance and kept in its memo."""
    key = ("benchmark_summary", k)
    if key not in spec.memo:
        opt_set, f_star = brute_force_opt(spec, k)
        c = curvature(spec, k)
        bench = greedy_benchmark(spec, k)
        spec.memo[key] = BenchmarkSummary(
            opt_set=opt_set,
            f_star=f_star,
            curvature=c,
            alpha=approx_ratio(c),
            benchmark=bench.value,
            benchmark_chain=bench.chain,
        )
    return spec.memo[key]


@dataclass(frozen=True)
class CheckpointRow:
    t: int
    cum_reward: float
    regret_opt: float
    regret_alpha: float
    regret_gr: float


@dataclass(frozen=True)
class RegretReport:
    f_star: float
    alpha: float
    benchmark: float
    checkpoints: tuple[CheckpointRow, ...]


class RegretMeter:
    """The checkpoint rows of a run's pseudo-regret against ``summary``, fed
    the true values of its pulls in order, in pieces of any length.  The
    cumulative value is one running sum from -0.0, which ``np.cumsum`` adds in
    sequence, so no cut changes a bit.  -0.0, not 0.0, is the exact additive
    identity (0.0 + -0.0 is 0.0), so the sum is bit for bit ``np.cumsum`` of
    the values.  With ``extend`` and ``len`` it stands in for an env's
    trajectory, which a lockstep run feeds chunk by chunk."""

    def __init__(self, summary: BenchmarkSummary, checkpoints: Iterable[int]):
        self.summary, self.todo = summary, sorted(set(checkpoints), reverse=True)
        self.rows: list[CheckpointRow] = []
        self.t, self.cum = 0, -0.0

    def __len__(self) -> int:
        return self.t

    def extend(self, table: FeasibleTable, codes: np.ndarray, rewards: np.ndarray) -> None:
        """Meter a chunk of a run coded as ranks of ``table``; the rewards are not read."""
        cums = np.empty(len(codes) + 1)
        # the codes are ranks of the table, so "clip" moves none; unlike the
        # default "raise", it gathers straight into ``out`` with no buffer
        np.take(table.values, codes, out=cums[1:], mode="clip")
        self._count(cums)

    def add(self, values: np.ndarray) -> None:
        """Meter the next pulls, worth ``values``."""
        cums = np.empty(len(values) + 1)
        cums[1:] = values
        self._count(cums)

    def _count(self, cums: np.ndarray) -> None:
        """Meter the pulls worth ``cums[1:]``: the running sum goes in front,
        and the checkpoints passed are read off its cumsum."""
        cums[0] = self.cum
        np.cumsum(cums, out=cums)
        start, self.t, self.cum = self.t, self.t + len(cums) - 1, float(cums[-1])
        s = self.summary
        while self.todo and self.todo[-1] <= self.t:
            t = self.todo.pop()
            cum = float(cums[t - start])
            self.rows.append(
                CheckpointRow(
                    t=t,
                    cum_reward=cum,
                    regret_opt=t * s.f_star - cum,
                    regret_alpha=t * s.alpha * s.f_star - cum,
                    regret_gr=t * s.benchmark - cum,
                )
            )


def regret_report(
    env: BanditEnv, summary: BenchmarkSummary, checkpoints: Iterable[int]
) -> RegretReport:
    """Pseudo-regret of ``env``'s trajectory against the optimum, its
    ratio-scaled value and B, all taken from ``summary``, by a
    :class:`RegretMeter` fed the trajectory's values in one piece.  Pulled
    values come from the trajectory, which holds the true value of every
    set it pulled; the spec is not evaluated.
    """
    traj = env.trajectory
    cps = sorted(set(int(t) for t in checkpoints))
    if cps and (cps[0] < 1 or cps[-1] > len(traj)):
        raise ValueError(
            f"checkpoints must lie in [1, {len(traj)}]; got {cps[0]}..{cps[-1]}"
        )
    meter = RegretMeter(summary, cps)
    meter.add(traj.values())
    return RegretReport(
        f_star=summary.f_star,
        alpha=summary.alpha,
        benchmark=summary.benchmark,
        checkpoints=tuple(meter.rows),
    )


def kl_between(
    spec0: SetFunction,
    spec1: SetFunction,
    counts: Mapping[ItemSet, int],
    sigma: float,
) -> float:
    """KL divergence between the two reward processes under a pull profile.

    Per-arm Gaussian KL (f0(S) - f1(S))^2 / (2 sigma^2), summed with the
    given multiplicities.  Symmetric in (spec0, spec1) and additive over
    disjoint count maps.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive; got {sigma}")
    total = 0.0
    for items, count in counts.items():
        if count < 0:
            raise ValueError("counts must be nonnegative")
        diff = spec0.value_of_mask(items.mask) - spec1.value_of_mask(items.mask)
        total += count * diff * diff / (2.0 * sigma * sigma)
    return total
