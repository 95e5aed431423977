"""Acceptance suite: one pass/fail line per criterion (run with -s to see
them live; pytest captures them otherwise).

Criteria 1 (unique-greedy-path at k = 6, 7), 3 and 6a/6b encode target
values that the implemented oracles demonstrably cannot attain (see the
exact-rational cross-checks in test_greedy.py and the policy rehearsals in
test_policies.py); they are asserted as stated rather than weakened, so
failures there are expected and documented.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import enumerate_chain_costs, random_monotone_submodular
from submodbandit import (
    BanditEnv,
    ItemSet,
    Policy,
    approx_ratio,
    auto_stop_level,
    benchmark_summary,
    brute_force_opt,
    chain_from_order,
    check_approx_guarantee,
    curvature,
    default_m,
    evaluate,
    greedy_benchmark,
    harmonic_tail,
    i_star,
    kl_between,
    minimax_lower_bound,
    regret_report,
    subucb_regret_bound,
)
from submodbandit.catalog import (
    HARMONIC_GRID,
    experiment_cover,
    harmonic_base,
    harmonic_elevated,
)
from submodbandit.cli import main as cli_main
from submodbandit.experiments import config_from_json, run_experiment


def report(criterion: str, ok: bool) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    return ok


# --------------------------------------------------------------------------
# criterion 1: structural verification battery through the CLI


def _verify_exit(name: str) -> int:
    return cli_main(["verify", name])


def test_criterion_1_structural_battery():
    """Fails as documented.  ``UniqueGreedyPath(n, k, delta)`` is submodular
    iff delta <= 1/(2k(2k-1)), checked for k = 2..8 at n = k + 2.  The
    catalog default delta = 0.01 is below the threshold up to k = 5 (1/90)
    and above it from k = 6 (1/132) on, so unique-path-6 and -7 fail.  The
    required pattern (k <= 7 passes, k = 8 fails) holds only for delta in
    (1/240, 1/182].  The assertion stays as stated: PAPER.md holds only the
    abstract, so nothing from the paper fixes delta.
    """
    start = time.time()
    must_pass = ["cover15"]
    for n, k in HARMONIC_GRID:
        must_pass += [f"harmonic-base-{n}-{k}", f"harmonic-elevated-{n}-{k}"]
    must_pass += [f"unique-path-{k}" for k in range(2, 8)]

    failures = [name for name in must_pass if _verify_exit(name) != 0]
    k8_fails_as_required = _verify_exit("unique-path-8") == 1
    elapsed = time.time() - start

    ok = not failures and k8_fails_as_required and elapsed < 60.0
    report("1 structural-verification", ok)
    assert k8_fails_as_required
    assert elapsed < 60.0
    assert not failures, f"verify failed on {failures}"


# --------------------------------------------------------------------------
# criterion 2: benchmark DP vs exhaustive chain enumeration + chain guarantee


def test_criterion_2_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(20250810)
    checked_chains = 0
    for idx in range(100):
        n = int(rng.integers(5, 9))
        k = int(rng.integers(2, min(n, 4) + 1))
        spec = random_monotone_submodular(3000 + idx, n=n, k=k)

        best_cost = math.inf
        best_order = None
        rhs = approx_ratio(curvature(spec, k)) * brute_force_opt(spec, k)[1]
        for chain_no, (order, slacks, final_value) in enumerate(
            enumerate_chain_costs(spec, k)
        ):
            cost = sum(slacks, 0.0) + final_value
            if cost < best_cost:
                best_cost = cost
                best_order = order
            lhs = final_value + sum(slacks, 0.0)
            assert lhs >= rhs - 1e-9, f"chain guarantee failed on instance {idx}"
            if chain_no < 3:  # exercise the packaged check on a sample too
                res = check_approx_guarantee(spec, k, chain_from_order(spec, k, order))
                assert res.ok and res.lhs == pytest.approx(lhs, abs=1e-12)
            checked_chains += 1

        dp = greedy_benchmark(spec, k)
        assert dp.value == best_cost, (
            f"instance {idx}: dp={dp.value!r} enum={best_cost!r} order={best_order}"
        )
        # witness feasibility: the DP chain re-costs to exactly B
        witness_cost = evaluate(spec, dp.chain.final_set()) + dp.chain.total_slack()
        assert witness_cost == pytest.approx(dp.value, abs=1e-12)
        prev = ItemSet.empty()
        for level in dp.chain.levels:
            assert prev.issubset(level) and len(level) == len(prev) + 1
            prev = level

    elapsed = time.time() - start
    ok = elapsed < 300.0
    report("2 oracle-equivalence", ok)
    assert checked_chains > 10_000  # enumeration really ran
    assert ok


# --------------------------------------------------------------------------
# criterion 3: hard-instance benchmark values as stated


def test_criterion_3_hard_instance_benchmarks():
    deviations = []
    for n, k in HARMONIC_GRID:
        delta = 1.0 / (8 * k * k)
        target_base = harmonic_tail(k, k)
        got_base = greedy_benchmark(harmonic_base(n, k), k).value
        got_elev = greedy_benchmark(harmonic_elevated(n, k), k).value
        if abs(got_base - target_base) > 1e-12:
            deviations.append((n, k, "base", got_base, target_base))
        if abs(got_elev - (target_base + delta)) > 1e-12:
            deviations.append((n, k, "elevated", got_elev, target_base + delta))
    report("3 hard-instance-benchmarks", not deviations)
    assert not deviations, f"benchmark deviations: {deviations}"


# --------------------------------------------------------------------------
# criterion 4: regret identity


def test_criterion_4_regret_identity():
    rng = np.random.default_rng(77)
    worst = 0.0
    for idx in range(20):
        n = int(rng.integers(5, 9))
        k = int(rng.integers(2, 4))
        spec = random_monotone_submodular(4000 + idx, n=n, k=k)
        env = BanditEnv(spec, 1.0, int(rng.integers(0, 2**32)))
        T = int(rng.integers(50, 300))
        for _ in range(T):
            size = int(rng.integers(1, k + 1))
            items = rng.choice(n, size=size, replace=False)
            env.pull(ItemSet.of(int(a) for a in items))
        cps = [t for t in (1, 2, 4, 8, 16, 32, T) if t <= T]
        rep = regret_report(env, benchmark_summary(spec, k), cps)
        values = [spec.value_of_mask(m) for m in env.trajectory.masks()]
        for row in rep.checkpoints:
            cum = sum(values[: row.t], 0.0)
            worst = max(worst, abs(row.regret_gr + cum - row.t * rep.benchmark))
    ok = worst <= 1e-9
    report("4 regret-identity", ok)
    assert ok, f"worst identity deviation {worst}"


# --------------------------------------------------------------------------
# criterion 5: zero-noise level-selection gaps


def test_criterion_5_zero_noise_gaps():
    start = time.time()
    T = 10_000
    worst = 0.0
    for spec, k in [(harmonic_base(9, 3), 3), (experiment_cover()[0], 4)]:
        for m in (10, 100, None):
            env = BanditEnv(spec, 0.0, 0)
            pol = Policy("sub_ucb", l=k, m=m)
            levels = pol.run(env, k, T)
            _, m_used = pol.resolve(spec.n, k, T)
            bound = 2.0 * math.sqrt(8.0 * math.log(T) / m_used)
            prev = ItemSet.empty()
            for level in levels:
                best = max(
                    evaluate(spec, prev.with_item(a))
                    for a in range(spec.n)
                    if a not in prev
                )
                gap = best - evaluate(spec, level)
                assert gap <= bound, f"gap {gap} exceeds bound {bound} (m={m_used})"
                worst = max(worst, gap)
                prev = level
    elapsed = time.time() - start
    ok = elapsed < 60.0
    report("5 zero-noise-gaps", ok)
    assert worst <= 1e-12  # selection is exactly optimal without noise
    assert ok


# --------------------------------------------------------------------------
# criteria 6 and 9 share one experiment grid (the desk-scale comparison)


@pytest.fixture(scope="module")
def cover_experiment(tmp_path_factory):
    cover, k = experiment_cover()
    doc = {
        "function": cover.to_json(),
        "n": 15,
        "k": k,
        "sigma": 1.0,
        "T_grid": [1000, 2000, 10000],
        "policies": [
            {"kind": "sub_ucb", "l": "auto"},
            {"kind": "etcg"},
            {"kind": "ucb_all"},
        ],
        "trials": 50,
        "base_seed": 20250810,
        "checkpoints": "log",
    }
    cfg = config_from_json(doc)
    root = tmp_path_factory.mktemp("cover-grid")
    results8, _ = run_experiment(cfg, jobs=8, output_dir=root / "jobs8")
    results1, _ = run_experiment(cfg, jobs=1, output_dir=root / "jobs1")
    return results1, results8


def _final_regrets(results_path):
    import csv

    final = {}
    with open(results_path) as fh:
        for row in csv.DictReader(fh):
            key = (row["policy"], int(row["T"]), int(row["trial"]))
            entry = (int(row["checkpoint_t"]), float(row["regret_gr"]))
            if key not in final or entry[0] > final[key][0]:
                final[key] = entry
    out = {}
    for (policy, T, _trial), (_cp, val) in final.items():
        out.setdefault((policy, T), []).append(val)
    return {key: np.array(vals) for key, vals in out.items()}


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    se = values.std(ddof=1) / math.sqrt(len(values)) if len(values) > 1 else 0.0
    return float(values.mean()), float(se)


def test_criterion_6a_auto_beats_flat_ucb(cover_experiment):
    _, results8 = cover_experiment
    regrets = _final_regrets(results8)
    auto_mean, auto_se = _mean_se(regrets[("sub_ucb_auto", 10000)])
    ucb_mean, ucb_se = _mean_se(regrets[("ucb_all", 10000)])
    combined = math.hypot(auto_se, ucb_se)
    gap = ucb_mean - auto_mean
    ok = gap > 2.0 * combined
    report("6a auto-below-flat-ucb", ok)
    assert ok, (
        f"mean regret: auto={auto_mean:.1f} ucb_all={ucb_mean:.1f} "
        f"gap={gap:.1f} needed>{2 * combined:.1f} "
        f"(auto resolves to stop level {auto_stop_level(15, 4, 10000)} here)"
    )


def test_criterion_6b_auto_not_worse_than_etcg(cover_experiment):
    _, results8 = cover_experiment
    regrets = _final_regrets(results8)
    auto_mean, auto_se = _mean_se(regrets[("sub_ucb_auto", 10000)])
    etcg_mean, etcg_se = _mean_se(regrets[("etcg", 10000)])
    combined = math.hypot(auto_se, etcg_se)
    ok = auto_mean <= etcg_mean + 2.0 * combined
    report("6b auto-at-most-etcg", ok)
    assert ok, (
        f"mean regret: auto={auto_mean:.1f} etcg={etcg_mean:.1f} "
        f"allowance={2 * combined:.1f} "
        f"(auto resolves to stop level {auto_stop_level(15, 4, 10000)} here)"
    )


def test_criterion_6c_flat_ucb_near_linear(cover_experiment):
    _, results8 = cover_experiment
    regrets = _final_regrets(results8)
    # 50 trials per (policy, horizon) cell, as configured
    assert all(len(vals) == 50 for vals in regrets.values())
    at_1k, _ = _mean_se(regrets[("ucb_all", 1000)])
    at_2k, _ = _mean_se(regrets[("ucb_all", 2000)])
    ok = at_2k >= 0.5 * (2.0 * at_1k)
    report("6c flat-ucb-near-linear", ok)
    assert ok, f"regret(2000)={at_2k:.1f} < half of linear extrapolation {at_1k:.1f}"


# --------------------------------------------------------------------------
# criterion 7: closed-form evaluators against an independent calculator


def _i_star_exact(n: int, k: int, T: int) -> int:
    for i in range(k, 0, -1):
        if Fraction(16 * math.comb(n - k, i) ** 3, n * n * k**6) <= T:
            return i
    return 0


def test_criterion_7_closed_forms():
    import mpmath as mp

    mp.mp.dps = 50
    ok = True
    ok &= i_star(15, 4, 10**6) == _i_star_exact(15, 4, 10**6) == 4
    ok &= i_star(15, 4, 100) == _i_star_exact(15, 4, 100) == 3
    ok &= default_m(10**6, 100) == 1114

    rng = np.random.default_rng(7)
    for _ in range(3):
        n = int(rng.integers(9, 30))
        k = int(rng.integers(1, n // 3 + 1))
        T = int(rng.integers(2, 10**7))
        l = int(rng.integers(0, k + 1))
        istar = _i_star_exact(n, k, T)

        lower_ref = mp.mpf(k - istar) / 16 * mp.power(T, mp.mpf(2) / 3) * mp.cbrt(
            n
        ) * mp.e ** (-16 - 2 * mp.cbrt(16)) + mp.mpf(1) / 4 * mp.sqrt(T) * mp.sqrt(
            mp.binomial(n - k, istar)
        ) * mp.e ** (-2)
        got_lower = minimax_lower_bound(n, k, T)
        ok &= abs(got_lower - float(lower_ref)) <= 1e-9 * max(1.0, float(lower_ref))

        arms = mp.binomial(n - k, k - l)
        upper_ref = (
            (1 + 4 * mp.sqrt(2))
            * l
            * mp.power(T, mp.mpf(2) / 3)
            * mp.cbrt(n)
            * mp.cbrt(mp.log(T))
            + 65 * mp.sqrt(T * arms * mp.log(T))
            + mp.mpf(32) / 15 * arms
        )
        got_upper = subucb_regret_bound(n, k, l, T)
        ok &= abs(got_upper - float(upper_ref)) <= 1e-9 * max(1.0, float(upper_ref))

    report("7 closed-form-evaluators", bool(ok))
    assert ok


# --------------------------------------------------------------------------
# criterion 8: KL direct summation vs closed form


def test_criterion_8_kl_closed_form():
    rng = np.random.default_rng(55)
    worst = 0.0
    for k in (2, 3):
        n = 3 * k
        delta = 1.0 / (8 * k * k)
        h0 = harmonic_base(n, k, delta)
        h1 = harmonic_elevated(n, k, delta)
        chain_sets = []
        mask = 0
        for a in range(k, 2 * k):
            mask |= 1 << a
            chain_sets.append(ItemSet(mask))
        for _ in range(10):
            counts = {S: int(rng.integers(0, 500)) for S in chain_sets}
            direct = kl_between(h0, h1, counts, 1.0)
            prefix_total = sum(counts[S] for S in chain_sets[:-1])
            full = counts[chain_sets[-1]]
            closed = 2.0 * (delta / k) ** 2 * (prefix_total + k * k * full)
            worst = max(worst, abs(direct - closed))
    ok = worst <= 1e-12
    report("8 kl-closed-form", ok)
    assert ok, f"worst deviation {worst}"


# --------------------------------------------------------------------------
# criterion 9: byte-identical results across worker counts


def test_criterion_9_parallel_determinism(cover_experiment):
    results1, results8 = cover_experiment
    ok = results1.read_bytes() == results8.read_bytes()
    report("9 parallel-determinism", ok)
    assert ok
