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
from .errors import CheckpointOutOfRange, PreconditionViolated, ZeroSigma
from .functions import SetFunction
from .greedy import GreedyChain, brute_force_opt, greedy_benchmark
from .sets import ItemSet
from .structure import approx_ratio, curvature


def i_star(n: int, k: int, T: int) -> int:
    """Largest i in [1, k] with (16 / (n^2 k^6)) * C(n-k, i)^3 <= T, else 0.

    Evaluated in exact integer arithmetic (16 C^3 <= T n^2 k^6) so boundary
    horizons never depend on float rounding.
    """
    if not (n > k >= 1) or T < 1:
        raise ValueError(f"need n > k >= 1 and T >= 1; got n={n}, k={k}, T={T}")
    rhs = T * n * n * k**6
    for i in range(k, 0, -1):
        if 16 * math.comb(n - k, i) ** 3 <= rhs:
            return i
    return 0


def auto_stop_level(n: int, k: int, T: int) -> int:
    """Horizon-matched greedy stop level k - i_star, clamped to [0, k]."""
    return min(k, max(0, k - i_star(n, k, T)))


def minimax_lower_bound(n: int, k: int, T: int) -> float:
    """Worst-case robust-greedy regret floor for the hard instance family."""
    if n < 4 or not 1 <= k <= n // 3:
        raise PreconditionViolated(f"need n >= 4 and 1 <= k <= n/3; got n={n}, k={k}")
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
    from .policies import default_m

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


def regret_report(
    env: BanditEnv, summary: BenchmarkSummary, checkpoints: Iterable[int]
) -> RegretReport:
    """Pseudo-regret of ``env``'s trajectory against the optimum, its
    ratio-scaled value and B, all taken from ``summary``.

    Pulled values come from the trajectory, which holds the true value of
    every set it pulled; the spec is not evaluated.  The cumulative value is
    a running sum from 0.0, left to right.
    """
    traj = env.trajectory
    cps = sorted(set(int(t) for t in checkpoints))
    if cps and (cps[0] < 1 or cps[-1] > len(traj)):
        raise CheckpointOutOfRange(
            f"checkpoints must lie in [1, {len(traj)}]; got {cps[0]}..{cps[-1]}"
        )
    cums = np.cumsum(np.concatenate(([0.0], traj.values())))
    rows = []
    for t in cps:
        cum = float(cums[t])
        rows.append(
            CheckpointRow(
                t=t,
                cum_reward=cum,
                regret_opt=t * summary.f_star - cum,
                regret_alpha=t * summary.alpha * summary.f_star - cum,
                regret_gr=t * summary.benchmark - cum,
            )
        )
    return RegretReport(
        f_star=summary.f_star,
        alpha=summary.alpha,
        benchmark=summary.benchmark,
        checkpoints=tuple(rows),
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
        raise ZeroSigma(f"sigma must be positive; got {sigma}")
    total = 0.0
    for items, count in counts.items():
        if count < 0:
            raise ValueError("counts must be nonnegative")
        diff = spec0.value_of_mask(items.mask) - spec1.value_of_mask(items.mask)
        total += count * diff * diff / (2.0 * sigma * sigma)
    return total
