import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import pulled_sets_ok
from submodbandit import (
    BanditEnv,
    EtcgPolicy,
    HarmonicInstance,
    ItemSet,
    SubUcbPolicy,
    Tabular,
    UcbAllPolicy,
    default_m,
    evaluate,
    exact_greedy,
)
from submodbandit.catalog import experiment_cover, harmonic_base
from submodbandit.errors import InvalidStopLevel, TooManyArms
from submodbandit.policies import _index_loop, _superarm_masks
from submodbandit.sets import masks_upto


def test_default_m_frozen():
    assert default_m(10**6, 100) == 1114
    assert default_m(2, 1000) == 1
    assert default_m(10**5, 15) == 800
    with pytest.raises(ValueError):
        default_m(1, 10)


def _fresh(spec, sigma, seed):
    return BanditEnv(spec, sigma, seed)


def _trajectory(policy, env, k, T):
    policy.run(env, k, T)
    return env.trajectory


def _flat_over_supersets(env, T, k, base):
    _index_loop(env, _superarm_masks(env.spec.n, k, base.mask), math.inf, T)
    return env.trajectory


def test_trajectory_length_and_cardinality():
    spec = harmonic_base(6, 2)
    for T in (1, 7, 40):
        traj = _trajectory(SubUcbPolicy(l=1, m=3), _fresh(spec, 1.0, 3), 2, T)
        assert len(traj) == T
        assert pulled_sets_ok(traj, 2)
    traj = _trajectory(EtcgPolicy(m=2), _fresh(spec, 1.0, 3), 2, 25)
    assert len(traj) == 25 and pulled_sets_ok(traj, 2)
    traj = _trajectory(UcbAllPolicy(), _fresh(spec, 1.0, 3), 2, 33)
    assert len(traj) == 33 and pulled_sets_ok(traj, 2)


def test_sub_ucb_level_zero_equals_flat_ucb():
    spec = harmonic_base(6, 2)
    a = _trajectory(SubUcbPolicy(l=0), _fresh(spec, 1.0, 11), 2, 300)
    b = _trajectory(UcbAllPolicy(), _fresh(spec, 1.0, 11), 2, 300)
    assert a == b


def test_sub_ucb_zero_noise_matches_exact_greedy():
    for spec, k in [(harmonic_base(6, 2), 2), (experiment_cover()[0], 4)]:
        for m in (1, 5):
            env = _fresh(spec, 0.0, 0)
            levels = SubUcbPolicy(l=k, m=m).run(env, k, 5000)
            assert levels == list(exact_greedy(spec, k).levels)


def test_sub_ucb_budget_guard_mid_phase():
    spec = harmonic_base(6, 2)
    # T smaller than level 1's singleton samples, n*m = 60
    traj = _trajectory(SubUcbPolicy(l=2, m=10), _fresh(spec, 1.0, 9), 2, 15)
    assert len(traj) == 15
    assert all(mask.bit_count() == 1 for mask in traj.masks())


def test_sub_ucb_invalid_stop_level():
    with pytest.raises(InvalidStopLevel):
        SubUcbPolicy(l=3).resolve(6, 2, 10)
    with pytest.raises(InvalidStopLevel):
        SubUcbPolicy(l=3).run(_fresh(harmonic_base(6, 2), 1.0, 0), 2, 10)
    with pytest.raises(InvalidStopLevel):
        SubUcbPolicy(l=-1).resolve(6, 2, 10)


def test_sub_ucb_full_stop_level_commits():
    spec = harmonic_base(6, 2)
    env = _fresh(spec, 0.0, 2)
    levels = SubUcbPolicy(l=2, m=2).run(env, 2, 100)
    traj = env.trajectory
    # once both levels are fixed, the single super-arm is the chain's top set
    assert traj.masks()[-1] == levels[-1].mask
    assert len(set(traj.masks()[-20:])) == 1


def test_etcg_zero_noise_commit():
    cover, k = experiment_cover()
    env = _fresh(cover, 0.0, 1)
    levels = EtcgPolicy(m=1).run(env, k, 200)
    traj = env.trajectory
    assert [lvl.render() for lvl in levels] == ["14", "10,14", "0,10,14", "0,5,10,14"]
    assert traj.masks()[-1] == ItemSet.of([0, 5, 10, 14]).mask
    assert evaluate(cover, ItemSet(traj.masks()[-1])) == pytest.approx(1.0)


def test_etcg_truncated_exploration():
    spec = harmonic_base(6, 2)
    traj = _trajectory(EtcgPolicy(m=3), _fresh(spec, 1.0, 4), 2, 8)
    assert len(traj) == 8
    # never got past level 1: only singletons pulled
    assert all(mask.bit_count() == 1 for mask in traj.masks())


def test_etcg_repeat_runs_identical():
    spec = harmonic_base(6, 2)
    t1 = _trajectory(EtcgPolicy(m=2), _fresh(spec, 1.0, 12), 2, 60)
    t2 = _trajectory(EtcgPolicy(m=2), _fresh(spec, 1.0, 12), 2, 60)
    assert t1 == t2


def test_ucb_all_single_arm():
    spec = harmonic_base(6, 2)
    base = ItemSet.of([0, 1])
    traj = _flat_over_supersets(_fresh(spec, 1.0, 5), 20, 2, base)
    assert traj.masks() == [base.mask] * 20


@given(st.data())
def test_superarm_masks_are_the_size_k_supersets_in_masks_upto_order(data):
    n = data.draw(st.integers(min_value=0, max_value=10))
    k = data.draw(st.integers(min_value=0, max_value=n))
    order = data.draw(st.permutations(range(n)))
    base = sum(1 << a for a in order[: data.draw(st.integers(min_value=0, max_value=k))])
    expected = [m for m in masks_upto(n, k) if m.bit_count() == k and m & base == base]
    assert _superarm_masks(n, k, base) == expected


def test_ucb_all_initialization_round():
    spec = HarmonicInstance(4, 2, 1 / 32)
    traj = _trajectory(UcbAllPolicy(), _fresh(spec, 1.0, 8), 2, 6)
    assert sorted(traj.masks()) == sorted(
        (1 << a) | (1 << b) for a in range(4) for b in range(a + 1, 4)
    )


def test_ucb_all_log_growth_of_worse_arm():
    # two arms, values 0.6 / 0.1, no noise: the worse arm's count obeys
    # T_w <= 8 ln(t) / gap^2 with gap 0.5, i.e. 32 ln T, plus its first pull
    spec = Tabular(2, 1, {0: 0.0, 1: 0.6, 2: 0.1})
    T = 10_000
    env = _fresh(spec, 0.0, 0)
    traj = _trajectory(UcbAllPolicy(), env, 1, T)
    worse = env.pull_counts[ItemSet(0b10)]
    assert worse <= 32 * math.log(T) + 1
    assert env.pull_counts[ItemSet(0b01)] > worse


def test_ucb_all_best_arm_dominates_counts():
    cover, k = experiment_cover()
    env = _fresh(cover, 0.0, 3)
    _flat_over_supersets(env, 10_000, k, ItemSet.of([0, 5, 10]))
    counts = env.pull_counts
    best = ItemSet.of([0, 5, 10, 14])
    assert counts[best] == max(counts.values())
    assert all(c < counts[best] for S, c in counts.items() if S != best)


def test_ucb_all_too_many_arms():
    spec = HarmonicInstance(60, 5, 1 / 200)
    with pytest.raises(TooManyArms):
        _trajectory(UcbAllPolicy(), _fresh(spec, 1.0, 0), 5, 10)


def test_policies_deterministic_given_seed():
    spec = harmonic_base(9, 3)
    a = _trajectory(SubUcbPolicy(l=2, m=4), _fresh(spec, 1.0, 77), 3, 400)
    b = _trajectory(SubUcbPolicy(l=2, m=4), _fresh(spec, 1.0, 77), 3, 400)
    assert a == b


def test_cardinality_above_ground_set_rejected():
    spec = harmonic_base(6, 2)
    from submodbandit.errors import CardinalityExceeded

    with pytest.raises(CardinalityExceeded):
        _trajectory(UcbAllPolicy(), _fresh(spec, 1.0, 0), 7, 10)
    with pytest.raises(CardinalityExceeded):
        _trajectory(EtcgPolicy(m=1), _fresh(spec, 1.0, 0), 7, 10)


def test_greedy_levels_beat_flat_ucb_at_desk_scale():
    """With a fixed positive stop level the greedy phases pay off well before
    the flat policy has even finished exploring its C(15, 4) arms."""
    cover, k = experiment_cover()
    T = 10_000
    summary_gaps = []
    for policy_kind in ("greedy", "flat"):
        totals = []
        for trial in range(10):
            env = _fresh(cover, 1.0, 5000 + trial)
            if policy_kind == "greedy":
                SubUcbPolicy(l=2).run(env, k, T)
            else:
                UcbAllPolicy().run(env, k, T)
            totals.append(sum(evaluate(cover, ItemSet(m)) for m in env.trajectory.masks()))
        summary_gaps.append(sum(totals) / len(totals))
    greedy_reward, flat_reward = summary_gaps
    assert greedy_reward > flat_reward + 500  # ~0.05 per-step advantage


def test_zero_noise_level_gap_bound():
    # with sigma = 0 every level selection is exactly optimal, so the gap
    # bound 2 sqrt(8 ln T / m) holds with room to spare; swept over every
    # built-in instance with n <= 10 and k <= 3
    from submodbandit.catalog import builtin_instances

    T = 2000
    small = [(s, k) for s, k in builtin_instances().values() if s.n <= 10 and k <= 3]
    assert len(small) >= 6
    for spec, k in small:
        for m in (2, 10):
            env = _fresh(spec, 0.0, 0)
            levels = SubUcbPolicy(l=k, m=m).run(env, k, T)
            bound = 2 * math.sqrt(8 * math.log(T) / m)
            prev = ItemSet.empty()
            for lvl in levels:
                best = max(
                    evaluate(spec, prev.with_item(a))
                    for a in range(spec.n)
                    if a not in prev
                )
                gap = best - evaluate(spec, lvl)
                assert gap <= min(bound, 1e-12)
                prev = lvl


def test_policy_json_roundtrip_and_default_labels():
    import pickle

    from submodbandit import policy_from_json

    cases = [
        (SubUcbPolicy(), {"kind": "sub_ucb", "l": "auto", "label": "sub_ucb_auto"}),
        (SubUcbPolicy(l=2, m=5), {"kind": "sub_ucb", "l": 2, "m": 5, "label": "sub_ucb_l2"}),
        (EtcgPolicy(), {"kind": "etcg", "label": "etcg"}),
        (UcbAllPolicy(label="flat"), {"kind": "ucb_all", "label": "flat"}),
    ]
    for policy, doc in cases:
        assert policy.to_json() == doc
        assert policy_from_json(doc) == policy
        assert pickle.loads(pickle.dumps(policy)) == policy
    assert policy_from_json({"kind": "etcg", "m": 3}) == EtcgPolicy(m=3, label="etcg")
