import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_monotone_submodular
from submodbandit import (
    BanditEnv,
    HarmonicInstance,
    ItemSet,
    SubUcbPolicy,
    auto_stop_level,
    benchmark_summary,
    compute_bounds,
    evaluate,
    greedy_benchmark,
    i_star,
    kl_between,
    minimax_lower_bound,
    regret_report,
    subucb_regret_bound,
)
from submodbandit.analysis import RegretMeter
from submodbandit.catalog import harmonic_base, harmonic_elevated


def test_i_star_frozen():
    assert i_star(15, 4, 10**6) == 4
    assert i_star(15, 4, 100) == 3
    assert i_star(15, 4, 1) == 1
    with pytest.raises(ValueError):
        i_star(4, 4, 100)


def test_i_star_zero_fallback():
    # 16/(n^2 k^6) * (n-k)^3 > T already at i = 1
    assert i_star(1004, 1, 1) == 0


def test_i_star_nondecreasing_in_T():
    values = [i_star(15, 4, T) for T in (1, 10, 100, 1000, 10**6)]
    assert values == sorted(values)
    threshold = math.ceil(16 / (15**2 * 4**6) * math.comb(11, 4) ** 3)
    assert i_star(15, 4, threshold) == 4
    assert i_star(15, 4, threshold - 1) == 3


def test_i_star_equals_the_downward_search():
    # the upward walk over the unimodal C(n - k, i) answers as the plain
    # search from i = k down, which cubes a big integer at every level
    def downward(n, k, T):
        for i in range(k, 0, -1):
            if 16 * math.comb(n - k, i) ** 3 <= T * n * n * k**6:
                return i
        return 0

    horizons = [1, 2] + [10**e for e in range(1, 16)]
    for n in range(2, 40):
        for k in range(1, n):
            for T in horizons:
                assert i_star(n, k, T) == downward(n, k, T), (n, k, T)


def test_auto_stop_level():
    assert auto_stop_level(15, 4, 100) == 1
    assert auto_stop_level(15, 4, 10**6) == 0
    assert auto_stop_level(1004, 1, 1) == 1  # i* = 0 maps to full greedy


def test_lower_bound_frozen():
    # at i* = k the first term vanishes
    expected = 0.25 * math.sqrt(10**6) * math.sqrt(math.comb(11, 4)) * math.exp(-2)
    assert minimax_lower_bound(15, 4, 10**6) == pytest.approx(expected, rel=1e-12)
    assert minimax_lower_bound(15, 4, 100) > 0
    with pytest.raises(ValueError, match=r"need n >= 4 and 1 <= k <= n/3; got n=15, k=6"):
        minimax_lower_bound(15, 6, 100)
    with pytest.raises(ValueError, match=r"need n >= 4 and 1 <= k <= n/3; got n=3, k=1"):
        minimax_lower_bound(3, 1, 100)


def test_upper_bound_structure():
    # binomial of zero: C(3, 0) = 1 leaves exactly the 32/15 tail term at l = k
    val = subucb_regret_bound(5, 2, 2, 100)
    first = (1 + 4 * math.sqrt(2)) * 2 * 100 ** (2 / 3) * 5 ** (1 / 3) * math.log(100) ** (1 / 3)
    second = 65 * math.sqrt(100 * math.log(100))
    assert val == pytest.approx(first + second + 32 / 15, rel=1e-12)
    # monotone in T
    assert subucb_regret_bound(10, 3, 2, 2000) > subucb_regret_bound(10, 3, 2, 1000)
    for n, k, l, T in [(5, 2, 3, 100), (5, 5, 0, 100), (5, 2, 1, 1)]:
        with pytest.raises(ValueError, match=r"need 0 <= l <= k < n and T >= 2"):
            subucb_regret_bound(n, k, l, T)


def test_compute_bounds_sheet():
    sheet = compute_bounds(15, 4, 100)
    assert sheet.i_star == 3
    assert sheet.l == 1
    # ceil(100^{2/3} * 15^{-2/3} * (ln 100)^{1/3}) = ceil(5.893)
    assert sheet.m == 6
    doc = sheet.to_json()
    assert doc["lower_bound"] == sheet.lower_bound


def test_regret_report_optimal_play():
    spec = harmonic_base(6, 2)
    env = BanditEnv(spec, 0.0, 0)
    summary = benchmark_summary(spec, 2)
    for _ in range(50):
        env.pull(summary.opt_set)
    rep = regret_report(env, summary, [1, 2, 50])
    for row in rep.checkpoints:
        assert row.regret_opt == pytest.approx(0.0, abs=1e-12)
        assert row.regret_alpha <= row.regret_opt + 1e-12


def test_regret_report_constant_play_identity():
    spec = harmonic_base(6, 2)
    env = BanditEnv(spec, 0.0, 0)
    S = ItemSet.of([0, 2])
    for _ in range(100):
        env.pull(S)
    rep = regret_report(env, benchmark_summary(spec, 2), [100])
    B = greedy_benchmark(spec, 2).value
    row = rep.checkpoints[0]
    assert rep.benchmark == pytest.approx(B, abs=1e-15)
    assert row.regret_gr == pytest.approx(100 * (B - evaluate(spec, S)), abs=1e-9)
    assert row.regret_gr + row.cum_reward == pytest.approx(100 * B, abs=1e-9)


def test_regret_report_alpha_below_opt():
    spec = random_monotone_submodular(5, n=6, k=3)
    env = BanditEnv(spec, 1.0, 9)
    for _ in range(64):
        env.pull(ItemSet.of([0]))
    rep = regret_report(env, benchmark_summary(spec, 3), [1, 2, 4, 8, 16, 32, 64])
    for row in rep.checkpoints:
        assert row.regret_alpha <= row.regret_opt + 1e-12


def test_regret_report_empty_checkpoints_and_errors():
    spec = harmonic_base(6, 2)
    env = BanditEnv(spec, 0.0, 0)
    env.pull(ItemSet.of([0]))
    summary = benchmark_summary(spec, 2)
    rep = regret_report(env, summary, [])
    assert rep.checkpoints == ()
    assert rep.f_star > 0
    with pytest.raises(ValueError, match=r"checkpoints must lie in \[1, 1\]; got 2\.\.2"):
        regret_report(env, summary, [2])
    with pytest.raises(ValueError, match=r"checkpoints must lie in \[1, 1\]; got 0\.\.0"):
        regret_report(env, summary, [0])


@settings(deadline=None)
@given(
    st.lists(st.floats(-1e3, 1e3, allow_nan=False) | st.floats(-1e-9, 1e-9), max_size=60),
    st.data(),
)
def test_regret_meter_cut_anywhere_equals_one_piece(values, data):
    # the running sum carries across pieces, so every checkpoint row is the
    # same bit for bit however the values are cut
    summary = benchmark_summary(harmonic_base(6, 2), 2)
    values = np.array(values, dtype=float)
    cps = range(1, len(values) + 1)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(values))), label="cuts"))
    whole, pieces = RegretMeter(summary, cps), RegretMeter(summary, cps)
    whole.add(values)
    for a, b in zip([0] + cuts, cuts + [len(values)]):
        pieces.add(values[a:b])

    def bits(meter):
        return [
            (row.t, *(x.hex() for x in (row.cum_reward, row.regret_opt, row.regret_alpha, row.regret_gr)))
            for row in meter.rows
        ]

    assert len(pieces) == len(whole) == len(values)
    assert bits(pieces) == bits(whole)
    assert [float(c).hex() for c in np.cumsum(values)] == [r[1] for r in bits(whole)]


def test_kl_basics():
    h0 = harmonic_base(6, 2)
    h1 = harmonic_elevated(6, 2)
    counts = {ItemSet.of([2]): 200}
    diff = evaluate(h0, ItemSet.of([2])) - evaluate(h1, ItemSet.of([2]))
    assert kl_between(h0, h1, counts, 1.0) == pytest.approx(
        200 * diff**2 / 2, abs=1e-15
    )
    assert kl_between(h0, h0, {ItemSet.of([0, 1]): 500}, 1.0) == 0.0
    with pytest.raises(ValueError, match="sigma must be positive; got 0.0"):
        kl_between(h0, h1, counts, 0.0)
    with pytest.raises(ValueError, match="counts must be nonnegative"):
        kl_between(h0, h1, {ItemSet.of([2]): -1}, 1.0)


def test_kl_fixed_gap_value():
    # gap 0.1 at one arm, 200 pulls, sigma 1: KL = 200 * 0.01 / 2 = 1.0
    from submodbandit import Tabular

    t0 = Tabular(2, 1, {0: 0.0, 1: 0.5, 2: 0.3})
    t1 = Tabular(2, 1, {0: 0.0, 1: 0.4, 2: 0.3})
    assert kl_between(t0, t1, {ItemSet.of([0]): 200}, 1.0) == pytest.approx(1.0, abs=1e-12)


@given(
    c1=st.integers(min_value=0, max_value=500),
    c2=st.integers(min_value=0, max_value=500),
    sigma=st.floats(min_value=0.1, max_value=3.0, allow_nan=False),
)
def test_kl_symmetry_and_additivity(c1, c2, sigma):
    h0 = harmonic_base(6, 2)
    h1 = harmonic_elevated(6, 2)
    a = {ItemSet.of([2]): c1}
    b = {ItemSet.of([2, 3]): c2}
    both = {ItemSet.of([2]): c1, ItemSet.of([2, 3]): c2}
    kl_ab = kl_between(h0, h1, both, sigma)
    assert kl_ab >= 0.0
    assert kl_ab == pytest.approx(kl_between(h1, h0, both, sigma), rel=1e-12, abs=1e-15)
    assert kl_ab == pytest.approx(
        kl_between(h0, h1, a, sigma) + kl_between(h0, h1, b, sigma),
        rel=1e-12,
        abs=1e-15,
    )


def test_kl_closed_form_small():
    # counts supported on the planted chain only; closed form
    # 2 (delta/k)^2 (sum of chain-prefix counts + k^2 * full-set count) / sigma^2
    k, n = 3, 9
    delta = 1 / (8 * k * k)
    h0 = harmonic_base(n, k, delta)
    h1 = harmonic_elevated(n, k, delta)
    counts = {
        ItemSet.of([3]): 11,
        ItemSet.of([3, 4]): 7,
        ItemSet.of([3, 4, 5]): 2,
    }
    expected = 2 * (delta / k) ** 2 * (11 + 7 + k * k * 2)
    assert kl_between(h0, h1, counts, 1.0) == pytest.approx(expected, abs=1e-15)



def test_kl_under_a_policy_pull_profile():
    # the env's pull profile is what kl_between takes: one term per pull
    h0 = harmonic_base(9, 3)
    h1 = harmonic_elevated(9, 3)
    env = BanditEnv(h0, 1.0, 4)
    SubUcbPolicy(l=1).run(env, 3, 500)
    per_pull = sum(
        (h0.value_of_mask(mask) - h1.value_of_mask(mask)) ** 2 / 2
        for mask in env.trajectory.masks()
    )
    assert per_pull > 0.0
    assert kl_between(h0, h1, env.pull_counts, 1.0) == pytest.approx(per_pull, rel=1e-12)

def test_benchmark_summary_cached():
    spec = harmonic_base(9, 3)
    a = benchmark_summary(spec, 3)
    assert benchmark_summary(spec, 3) is a  # kept in the instance's memo
    b = benchmark_summary(HarmonicInstance(9, 3, 1 / 72), 3)
    assert b == a  # an equal-content instance computes an equal summary


def test_benchmark_summary_leaves_pickled_spec_unchanged():
    spec = random_monotone_submodular(11, n=7, k=3)
    before = pickle.dumps(spec)
    benchmark_summary(spec, 3)
    assert spec.memo  # the summary and the value table are memoized ...
    assert pickle.dumps(spec) == before  # ... but never pickled
    assert pickle.loads(before).memo == {}


def test_summary_and_chain_survive_pickle_and_deepcopy():
    summary = benchmark_summary(harmonic_elevated(9, 3), 3)
    for obj in (summary.opt_set, summary.benchmark_chain, summary):
        assert pickle.loads(pickle.dumps(obj)) == obj
        assert copy.deepcopy(obj) == obj
