"""Simulation lab for bandit maximization of monotone submodular functions.

Exact set-function oracles and structural checkers, greedy and robust-greedy
benchmarks, seeded noisy environments, one bandit policy type with three
kinds (``sub_ucb``, ``etcg``, ``ucb_all``) and a reproducible experiment
harness.
"""

__version__ = "0.1.0"

from .analysis import (
    BenchmarkSummary,
    BoundsSheet,
    CheckpointRow,
    auto_stop_level,
    benchmark_summary,
    compute_bounds,
    default_m,
    i_star,
    kl_between,
    minimax_lower_bound,
    subucb_regret_bound,
)
from .envs import BanditEnv, Trajectory
from .functions import (
    HarmonicInstance,
    SetFunction,
    Tabular,
    UniqueGreedyPath,
    WeightedCover,
    evaluate,
    harmonic_tail,
    spec_from_json,
)
from .greedy import (
    BenchmarkResult,
    GreedyChain,
    GuaranteeResult,
    brute_force_opt,
    chain_from_order,
    check_approx_guarantee,
    enumerate_benchmark,
    exact_greedy,
    greedy_benchmark,
)
from .policies import Policy, policy_from_json
from .sets import ItemSet
from .structure import (
    MonotoneResult,
    SubmodularResult,
    approx_ratio,
    check_monotone,
    check_submodular,
    curvature,
    value_table,
)

__all__ = [
    "BanditEnv",
    "BenchmarkResult",
    "BenchmarkSummary",
    "BoundsSheet",
    "CheckpointRow",
    "GreedyChain",
    "GuaranteeResult",
    "HarmonicInstance",
    "ItemSet",
    "MonotoneResult",
    "Policy",
    "SetFunction",
    "SubmodularResult",
    "Tabular",
    "Trajectory",
    "UniqueGreedyPath",
    "WeightedCover",
    "approx_ratio",
    "auto_stop_level",
    "benchmark_summary",
    "brute_force_opt",
    "chain_from_order",
    "check_approx_guarantee",
    "check_monotone",
    "check_submodular",
    "compute_bounds",
    "curvature",
    "default_m",
    "enumerate_benchmark",
    "evaluate",
    "exact_greedy",
    "greedy_benchmark",
    "harmonic_tail",
    "i_star",
    "kl_between",
    "minimax_lower_bound",
    "policy_from_json",
    "spec_from_json",
    "subucb_regret_bound",
    "value_table",
]
