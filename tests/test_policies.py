import math
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    masks_upto,
    naive_greedy_then_flat,
    pull,
    pulled_sets_ok,
    random_monotone_submodular,
)
from submodbandit import (
    BanditEnv,
    HarmonicInstance,
    ItemSet,
    Policy,
    Tabular,
    default_m,
    evaluate,
    exact_greedy,
)
from submodbandit import lockstep
from submodbandit.functions import SetFunction
from submodbandit.catalog import experiment_cover, harmonic_base
from submodbandit.errors import GroundSetTooLarge
from submodbandit.functions import UniqueGreedyPath
from submodbandit.lockstep import MAX_BATCH_CELLS, phase_arms
from submodbandit.sets import feasible_count
from submodbandit.structure import MAX_TABLE_BITS, value_table


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


class _Contraction(SetFunction):
    """S -> f(base | S) over the items outside base, renumbered in order, for
    sets of up to k items."""

    def __init__(self, spec, base, k):
        self.spec, self.base, self.k = spec, base, k
        self.free = [a for a in range(spec.n) if a not in base]
        self.n = len(self.free)

    @property
    def k_max(self):
        return self.k

    def expand(self, mask):
        return self.base.mask | sum(1 << a for i, a in enumerate(self.free) if (mask >> i) & 1)

    def _value(self, mask):
        return self.spec.value_of_mask(self.expand(mask))


def _flat_over_supersets(env, T, k, base):
    """The flat phase over the size-k supersets of base, pulled on env: flat
    UCB on the contraction, whose arms come in the same order with the same
    values, replayed set by set on the same noise stream."""
    contraction = _Contraction(env.spec, base, k - len(base))
    solo = BanditEnv(contraction, env.sigma, env.seed)
    Policy("ucb_all").run(solo, contraction.k, T)
    for mask in solo.trajectory.masks():
        pull(env, ItemSet(contraction.expand(mask)), k)
    assert env.trajectory.rewards() == solo.trajectory.rewards()
    return env.trajectory


def test_trajectory_length_and_cardinality():
    spec = harmonic_base(6, 2)
    for T in (1, 7, 40):
        traj = _trajectory(Policy("sub_ucb", l=1, m=3), _fresh(spec, 1.0, 3), 2, T)
        assert len(traj) == T
        assert pulled_sets_ok(traj, 2)
    traj = _trajectory(Policy("etcg", m=2), _fresh(spec, 1.0, 3), 2, 25)
    assert len(traj) == 25 and pulled_sets_ok(traj, 2)
    traj = _trajectory(Policy("ucb_all"), _fresh(spec, 1.0, 3), 2, 33)
    assert len(traj) == 33 and pulled_sets_ok(traj, 2)


def test_sub_ucb_level_zero_equals_flat_ucb():
    spec = harmonic_base(6, 2)
    a = _trajectory(Policy("sub_ucb", l=0), _fresh(spec, 1.0, 11), 2, 300)
    b = _trajectory(Policy("ucb_all"), _fresh(spec, 1.0, 11), 2, 300)
    assert a.to_csv() == b.to_csv()


def test_sub_ucb_zero_noise_matches_exact_greedy():
    for spec, k in [(harmonic_base(6, 2), 2), (experiment_cover()[0], 4)]:
        for m in (1, 5):
            env = _fresh(spec, 0.0, 0)
            levels = Policy("sub_ucb", l=k, m=m).run(env, k, 5000)
            assert levels == list(exact_greedy(spec, k).levels)


def test_sub_ucb_budget_guard_mid_phase():
    spec = harmonic_base(6, 2)
    # T smaller than level 1's singleton samples, n*m = 60
    traj = _trajectory(Policy("sub_ucb", l=2, m=10), _fresh(spec, 1.0, 9), 2, 15)
    assert len(traj) == 15
    assert all(mask.bit_count() == 1 for mask in traj.masks())


def test_sub_ucb_invalid_stop_level():
    with pytest.raises(ValueError, match=r"stop level 3 outside \[0, 2\]"):
        Policy("sub_ucb", l=3).resolve(6, 2, 10)
    with pytest.raises(ValueError, match=r"stop level 3 outside \[0, 2\]"):
        Policy("sub_ucb", l=3).run(_fresh(harmonic_base(6, 2), 1.0, 0), 2, 10)
    with pytest.raises(ValueError, match=r"stop level -1 outside \[0, 2\]"):
        Policy("sub_ucb", l=-1).resolve(6, 2, 10)


def test_program_is_the_phases_a_run_takes():
    # auto resolves to l = 0 on cover15 at T = 10^4; with no greedy level,
    # m and the sampling rule never enter the run
    flat = (0, None, False)
    assert Policy("sub_ucb").program(15, 4, 10**4) == flat
    assert Policy("sub_ucb", l=0, m=7).program(15, 4, 100) == flat
    assert Policy("ucb_all").program(15, 4, 1) == flat
    assert Policy("sub_ucb").program(15, 4, 100) == (1, default_m(100, 15), False)
    assert Policy("sub_ucb", l=4, m=2).program(15, 4, 100) == (4, 2, False)
    assert Policy("etcg", m=2).program(15, 4, 100) == (4, 2, True)
    assert Policy("etcg").program(15, 4, 100) == (4, default_m(100, 15), True)
    # the same ValueErrors as resolve: a stop level outside [0, k], and a
    # default m at T = 1, even where the run would not use it
    with pytest.raises(ValueError, match=r"stop level 3 outside \[0, 2\]"):
        Policy("sub_ucb", l=3).program(6, 2, 10)
    for policy in (Policy("etcg"), Policy("sub_ucb", l=1), Policy("sub_ucb", l=0)):
        with pytest.raises(ValueError, match="need T >= 2"):
            policy.program(6, 2, 1)
    assert Policy("sub_ucb", l=0, m=1).program(6, 2, 1) == flat


def test_sub_ucb_full_stop_level_commits():
    spec = harmonic_base(6, 2)
    env = _fresh(spec, 0.0, 2)
    levels = Policy("sub_ucb", l=2, m=2).run(env, 2, 100)
    traj = env.trajectory
    # once both levels are fixed, the single super-arm is the chain's top set
    assert traj.masks()[-1] == levels[-1].mask
    assert len(set(traj.masks()[-20:])) == 1


def test_etcg_zero_noise_commit():
    cover, k = experiment_cover()
    env = _fresh(cover, 0.0, 1)
    levels = Policy("etcg", m=1).run(env, k, 200)
    traj = env.trajectory
    assert [lvl.render() for lvl in levels] == ["14", "10,14", "0,10,14", "0,5,10,14"]
    assert traj.masks()[-1] == ItemSet.of([0, 5, 10, 14]).mask
    assert evaluate(cover, ItemSet(traj.masks()[-1])) == pytest.approx(1.0)


def test_etcg_truncated_exploration():
    spec = harmonic_base(6, 2)
    traj = _trajectory(Policy("etcg", m=3), _fresh(spec, 1.0, 4), 2, 8)
    assert len(traj) == 8
    # never got past level 1: only singletons pulled
    assert all(mask.bit_count() == 1 for mask in traj.masks())


def test_a_budget_past_the_horizon_pulls_as_t_plus_one():
    # a run stops at step T, so an m of 10**30, whose schedule no int64
    # counter holds, runs as m = T + 1 under either greedy rule
    spec = harmonic_base(6, 2)
    for T in (1, 7, 40):
        for policy in (Policy("sub_ucb", l=1), Policy("sub_ucb", l=2), Policy("etcg")):
            runs = []
            for m in (T + 1, 10**30):
                env = _fresh(spec, 0.5, 3)
                levels = replace(policy, m=m).run(env, 2, T)
                runs.append((levels, env.trajectory.to_csv()))
            assert runs[0] == runs[1]


def test_etcg_repeat_runs_identical():
    spec = harmonic_base(6, 2)
    t1 = _trajectory(Policy("etcg", m=2), _fresh(spec, 1.0, 12), 2, 60)
    t2 = _trajectory(Policy("etcg", m=2), _fresh(spec, 1.0, 12), 2, 60)
    assert t1.to_csv() == t2.to_csv()


def test_ucb_all_single_arm():
    spec = harmonic_base(6, 2)
    base = ItemSet.of([0, 1])
    traj = _flat_over_supersets(_fresh(spec, 1.0, 5), 20, 2, base)
    assert traj.masks() == [base.mask] * 20


class _Size(SetFunction):
    """|S| / n over every subset of n items."""

    def __init__(self, n):
        self.n = n

    @property
    def k_max(self):
        return self.n

    def _value(self, mask):
        return mask.bit_count() / max(self.n, 1)


@given(st.data())
def test_superarm_masks_are_the_size_k_supersets_in_masks_upto_order(data):
    # the engine's phase arms are ranks of the feasible table: the flat
    # phase's read as the size-k supersets of the base in masks_upto order,
    # a greedy level's as the base plus one item, in item order
    n = data.draw(st.integers(min_value=0, max_value=10))
    k = data.draw(st.integers(min_value=0, max_value=n))
    order = data.draw(st.permutations(range(n)))
    base = sum(1 << a for a in order[: data.draw(st.integers(min_value=0, max_value=k))])
    table = value_table(_Size(n), k)
    rank = table.masks.index(base)
    flat = phase_arms(table, rank, k)
    expected = [m for m in masks_upto(n, k) if m.bit_count() == k and m & base == base]
    assert [table.masks[r] for r in flat.tolist()] == expected
    assert table.values[flat].tolist() == [k / max(n, 1)] * len(expected)
    if base.bit_count() < k:
        greedy = phase_arms(table, rank, base.bit_count() + 1)
        grown = [base | (1 << a) for a in range(n) if not (base >> a) & 1]
        assert [table.masks[r] for r in greedy.tolist()] == grown


def test_over_budget_run_stops_before_any_pull():
    # 10^6 sets of size <= 1 with masks 999,999 bits wide: the feasible table
    # is over its budget, so a direct run refuses before drawing any noise
    spec = UniqueGreedyPath(999_999, 1, 0.1)
    env = BanditEnv(spec, 1.0, 0)
    with pytest.raises(GroundSetTooLarge):
        Policy("ucb_all").run(env, 1, 10)
    assert env.t == 0
    drawn, fresh = np.empty(1), np.empty(1)
    env.fill_noise(drawn)
    BanditEnv(spec, 1.0, 0).fill_noise(fresh)
    assert drawn.tolist() == fresh.tolist()


def test_every_flat_phase_the_table_budget_admits_fits_one_lockstep_row():
    # the flat phase pulls the C(n - l, k - l) supersets of an l-item base,
    # all of them rows of the feasible table, so the table's budget alone
    # bounds the arms: over every (n, k, l) it admits, a flat phase fits one
    # row of a lockstep batch, far below any separate arm cap.  k starts at 1,
    # as a config's does (k = 0 has the one empty arm at every n)
    admitted = []
    n = 1
    while feasible_count(n, 1) * n <= MAX_TABLE_BITS:
        k = 1
        while k <= n and feasible_count(n, k) * n <= MAX_TABLE_BITS:
            admitted += [(math.comb(n - l, k - l), n, k, l) for l in range(k + 1)]
            k += 1
        n += 1
    assert (n, len(admitted)) == (3_162, 9_165)
    assert max(admitted) == (245_157, 23, 7, 0)
    assert max(max(arms, n) for arms, n, _, _ in admitted) <= MAX_BATCH_CELLS


def test_ucb_all_initialization_round():
    spec = HarmonicInstance(4, 2, 1 / 32)
    traj = _trajectory(Policy("ucb_all"), _fresh(spec, 1.0, 8), 2, 6)
    assert sorted(traj.masks()) == sorted(
        (1 << a) | (1 << b) for a in range(4) for b in range(a + 1, 4)
    )


def test_ucb_all_log_growth_of_worse_arm():
    # two arms, values 0.6 / 0.1, no noise: the worse arm's count obeys
    # T_w <= 8 ln(t) / gap^2 with gap 0.5, i.e. 32 ln T, plus its first pull
    spec = Tabular(2, 1, {0: 0.0, 1: 0.6, 2: 0.1})
    T = 10_000
    env = _fresh(spec, 0.0, 0)
    counts = Counter(_trajectory(Policy("ucb_all"), env, 1, T).masks())
    worse = counts[0b10]
    assert worse <= 32 * math.log(T) + 1
    assert counts[0b01] > worse


def test_ucb_all_best_arm_dominates_counts():
    cover, k = experiment_cover()
    env = _fresh(cover, 0.0, 3)
    counts = Counter(_flat_over_supersets(env, 10_000, k, ItemSet.of([0, 5, 10])).masks())
    best = ItemSet.of([0, 5, 10, 14]).mask
    assert counts[best] == max(counts.values())
    assert all(c < counts[best] for S, c in counts.items() if S != best)


def test_ucb_all_too_many_arms():
    # C(60, 5) flat arms: the 5,985,198 sets of size <= 5 over 60 items put
    # the feasible table over its budget, which refuses before any pull
    spec = HarmonicInstance(60, 5, 1 / 200)
    env = _fresh(spec, 1.0, 0)
    with pytest.raises(GroundSetTooLarge):
        _trajectory(Policy("ucb_all"), env, 5, 10)
    assert env.t == 0


def test_policies_deterministic_given_seed():
    spec = harmonic_base(9, 3)
    a = _trajectory(Policy("sub_ucb", l=2, m=4), _fresh(spec, 1.0, 77), 3, 400)
    b = _trajectory(Policy("sub_ucb", l=2, m=4), _fresh(spec, 1.0, 77), 3, 400)
    assert a.to_csv() == b.to_csv()


def test_cardinality_above_ground_set_rejected():
    spec = harmonic_base(6, 2)
    for policy in (Policy("ucb_all"), Policy("etcg", m=1)):
        env = _fresh(spec, 1.0, 0)
        with pytest.raises(ValueError, match="k=7 exceeds the spec's k_max=2"):
            _trajectory(policy, env, 7, 10)
        assert env.t == 0


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
                Policy("sub_ucb", l=2).run(env, k, T)
            else:
                Policy("ucb_all").run(env, k, T)
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
            levels = Policy("sub_ucb", l=k, m=m).run(env, k, T)
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
        (Policy("sub_ucb"), {"kind": "sub_ucb", "l": "auto", "label": "sub_ucb_auto"}),
        (Policy("sub_ucb", l=2, m=5), {"kind": "sub_ucb", "l": 2, "m": 5, "label": "sub_ucb_l2"}),
        (Policy("etcg"), {"kind": "etcg", "label": "etcg"}),
        (Policy("ucb_all", label="flat"), {"kind": "ucb_all", "label": "flat"}),
        (Policy("sub_ucb", l=0), {"kind": "sub_ucb", "l": 0, "label": "sub_ucb_l0"}),
        (Policy("etcg", m=3, label="e3"), {"kind": "etcg", "m": 3, "label": "e3"}),
        (Policy("sub_ucb", l=1, label="mine"), {"kind": "sub_ucb", "l": 1, "label": "mine"}),
    ]
    for policy, doc in cases:
        assert policy.to_json() == doc
        assert policy_from_json(doc) == policy
        assert pickle.loads(pickle.dumps(policy)) == policy
    assert policy_from_json({"kind": "etcg", "m": 3}) == Policy("etcg", m=3, label="etcg")
    # the constructor refuses what the decoder refuses
    with pytest.raises(ValueError, match="unknown key 'l' for kind 'etcg'"):
        Policy("etcg", l=2)
    with pytest.raises(ValueError, match="unknown key 'm' for kind 'ucb_all'"):
        Policy("ucb_all", m=3)
    with pytest.raises(ValueError, match=r"unknown policy kind \[\]"):
        Policy([])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_batch_rows_equal_solo_runs(data):
    """Rows of one lockstep batch fall out of step (levels close at different
    t); each must still pull, observe and fix what the env does alone, and
    what the one-pull-at-a-time reference does, under every policy."""
    n = data.draw(st.integers(min_value=2, max_value=6), label="n")
    k = data.draw(st.integers(min_value=1, max_value=min(n, 3)), label="k")
    spec = random_monotone_submodular(data.draw(st.integers(0, 2**16), label="table"), n, k)
    m = data.draw(st.sampled_from([1, 2, 3]), label="m")
    sigma = data.draw(st.sampled_from([0.0, 0.5]), label="sigma")
    T = data.draw(st.integers(min_value=1, max_value=30 * n), label="T")
    seeds = data.draw(
        st.lists(st.integers(0, 2**32), min_size=1, max_size=5, unique=True), label="seeds"
    )
    runs = [(Policy("sub_ucb", l=l, m=m), l, False) for l in range(k + 1)]
    runs += [(Policy("etcg", m=m), k, True), (Policy("ucb_all"), 0, False)]
    for policy, l, uniform in runs:
        batch = [BanditEnv(spec, sigma, seed) for seed in seeds]
        levels = policy.run_batch(batch, k, T)
        for seed, env, env_levels in zip(seeds, batch, levels):
            alone = BanditEnv(spec, sigma, seed)
            assert policy.run(alone, k, T) == env_levels
            assert alone.trajectory.to_csv() == env.trajectory.to_csv()
            reference = BanditEnv(spec, sigma, seed)
            assert naive_greedy_then_flat(reference, k, T, l, m, uniform) == env_levels
            assert reference.trajectory.to_csv() == env.trajectory.to_csv()


def test_batch_rows_out_of_step_match_the_reference():
    # with noise, rows close the optimistic levels at different t, so some
    # steps see rows in a sweep next to rows on the index rule
    for table in range(3):
        spec = random_monotone_submodular(table, 6, 3)
        for l, m in [(2, 2), (3, 3)]:
            batch = [BanditEnv(spec, 0.5, seed) for seed in range(5)]
            levels = Policy("sub_ucb", l=l, m=m).run_batch(batch, 3, 150)
            third = {[mask.bit_count() for mask in env.trajectory.masks()].index(3) for env in batch}
            assert len(third) > 1  # the rows reached their third item at different t
            for seed, env, env_levels in zip(range(5), batch, levels):
                reference = BanditEnv(spec, 0.5, seed)
                assert naive_greedy_then_flat(reference, 3, 150, l, m, False) == env_levels
                assert reference.trajectory.to_csv() == env.trajectory.to_csv()


def test_batch_needs_one_spec_sigma_and_t():
    spec = harmonic_base(6, 2)
    with pytest.raises(ValueError, match="fresh envs with one spec and sigma"):
        Policy("ucb_all").run_batch([BanditEnv(spec, 1.0, 0), BanditEnv(spec, 0.5, 1)], 2, 10)
    moved = BanditEnv(spec, 1.0, 1)  # not fresh: it has pulled
    pull(moved, ItemSet.of([0]), 2)
    with pytest.raises(ValueError, match="fresh envs with one spec and sigma"):
        Policy("ucb_all").run_batch([BanditEnv(spec, 1.0, 0), moved], 2, 10)


def test_run_on_a_used_env_raises_before_any_noise():
    # a run starts at t = 0: on a used env it raises, and the env's record and
    # noise stream are those of a twin that never tried the run
    spec = harmonic_base(6, 2)
    used, twin = BanditEnv(spec, 1.0, 3), BanditEnv(spec, 1.0, 3)
    for env in (used, twin):
        pull(env, ItemSet.of([0]), 2)
    for policy in (Policy("ucb_all"), Policy("etcg", m=2), Policy("sub_ucb", l=1, m=2)):
        with pytest.raises(ValueError, match="fresh envs"):
            policy.run(used, 2, 50)
    assert used.t == 1
    assert pull(used, ItemSet.of([1, 2]), 2) == pull(twin, ItemSet.of([1, 2]), 2)
    assert used.trajectory.to_csv() == twin.trajectory.to_csv()


def _window_state(rows, width, cells=lockstep.WINDOW_CELLS):
    """A lockstep batch of the given shape, which opens windows from
    ``cells`` envs times arms left out, and whose state a test then sets."""
    spec = harmonic_base(6, 2)
    envs = [BanditEnv(spec, 0.0, seed) for seed in range(rows)]
    with mock.patch.object(lockstep, "WINDOW_CELLS", cells):
        return lockstep.Lockstep(envs, value_table(spec, 2), 2, 1, 0, None, False, width)


def _walk_window(lock, t, end, sched, pull):
    """Step a window from t to end against the dense index: each scheduled
    row's window must hold the cells its schedule pulls next, and each
    accepted choice must be the dense argmax of every free row.  Row r then
    pulls ``pull(r, choice)``: a column of the window's compact state, with
    the mean it returns, which the window writes back before the next dense
    index is read.  Returns the number of steps the window accepted before
    it fell back."""
    free = ~sched
    counts, means = lock.part[2], lock.part[3]
    with np.errstate(divide="ignore", invalid="ignore"):
        window = lock._window(t, end, sched)
        cand = window[0]
        for r in np.flatnonzero(sched):
            due = np.arange(lock.pos[r], lock.pos[r] + end - t) // lock.rep[r]
            assert np.isin(due[due < lock.ranks.shape[1]], cand[r]).all()
        for s in range(t, end):
            got = lock._window_argmax(s, window)
            want = lock._index_argmax(s)
            if got is None:  # the engine falls back to the dense index
                return s - t
            got -= lock.part_row0
            assert (cand[lock.rows, got][free] == want[free]).all()
            for r in range(len(sched)):
                c, mean = pull(r, int(got[r]))
                if means[r, c] > -np.inf:
                    counts[r, c] += 1
                    means[r, c] = mean
            lock._write_back(window)
    return end - t


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_window_choice_equals_the_dense_argmax(data):
    """At every step of a candidate window that accepts, each free row's
    choice is the dense index argmax, ties included, while the rows pull
    their choices (and the scheduled rows any cell of their window, which
    holds the cells their schedule pulls next).  Each row's arms share a
    few (pulls, mean) pairs, so that many indexes tie."""
    rows = data.draw(st.integers(1, 4), label="rows")
    width = data.draw(st.integers(lockstep.WINDOW_ARMS + 1, 3 * lockstep.WINDOW_ARMS), label="width")
    lock = _window_state(rows, width, cells=0)
    means = st.sampled_from([0.0, 0.25, 0.5, 0.5000000000000001, 0.75, 1.0])
    sched = np.array(data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows), label="sched"))
    for r in range(rows):
        low = 0 if sched[r] else 1  # a free row has pulled each of its arms
        pairs = data.draw(st.lists(st.tuples(st.integers(low, 4), means), min_size=1, max_size=3))
        arms = data.draw(st.integers(1, width), label="arms")
        groups = st.lists(st.integers(0, len(pairs) - 1), min_size=arms, max_size=arms)
        for a, i in enumerate(data.draw(groups, label="groups")):
            lock.counts[r, a], lock.means[r, a] = pairs[i]
        if sched[r]:
            lock.rep[r] = data.draw(st.integers(1, 3), label="rep")
            lock.pos[r] = data.draw(st.integers(0, width * int(lock.rep[r]) - 1), label="pos")

    def pull(r, c):
        if sched[r]:
            c = data.draw(st.integers(0, lockstep.WINDOW_ARMS - 1), label="scheduled pull")
        return c, data.draw(means, label="mean")

    t = data.draw(st.integers(2, 10**4), label="t")
    end = t + data.draw(st.integers(1, lockstep.WINDOW_STEPS), label="steps")
    _walk_window(lock, t, end, sched, pull)


def test_window_falls_back_when_its_candidates_tie_with_the_rest():
    # every arm has one index, which at a one-step window is also its bound:
    # the best candidate only equals tau, and the dense index picks arm 0
    lock = _window_state(2, 100, cells=0)
    lock.counts[:] = 3.0
    lock.means[:] = 0.5
    sched = np.zeros(2, bool)
    assert _walk_window(lock, 50, 51, sched, lambda r, j: (j, 0.5)) == 0
    assert lock._index_argmax(50).tolist() == [0, 0]


def test_window_bound_holds_at_its_last_step():
    # 64 arms pulled 4 times with mean 1 lead 36 arms pulled twice with mean
    # 0.5 at t = 2, but the latter's larger bonus overtakes them by t = 3: a
    # bound taken at the window's first step would accept a wrong arm there
    lock = _window_state(1, 100, cells=0)
    lock.counts[0, :64], lock.means[0, :64] = 4.0, 1.0
    lock.counts[0, 64:], lock.means[0, 64:] = 2.0, 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        assert lock._index_argmax(2)[0] == 0 and lock._index_argmax(3)[0] == 64
    _walk_window(lock, 2, 2 + lockstep.WINDOW_STEPS, np.zeros(1, bool), lambda r, j: (j, 1.0))


@pytest.mark.parametrize(
    "rows, width, windowed",
    [
        (8, 1365, True),  # desk-grid's flat phase
        (4, 1365, True),
        (1, 1365, False),  # a solo run
        (8, 153, False),  # tabular-cells' flat phase
        (64, 78, False),  # many envs, few arms outside the window
        (16, 364, True),
    ],
)
def test_window_opens_only_where_it_leaves_enough_arms_out(rows, width, windowed):
    assert _window_state(rows, width).windowed == windowed


@pytest.mark.parametrize("sigma", [0.0, 0.3])
@pytest.mark.parametrize("l", [0, 1])
def test_windowed_and_dense_runs_are_identical(monkeypatch, sigma, l):
    spec, k = experiment_cover()
    accepted = []
    window_argmax = lockstep.Lockstep._window_argmax

    def spy(self, t, window):
        j = window_argmax(self, t, window)
        accepted.append(j is not None)
        return j

    monkeypatch.setattr(lockstep.Lockstep, "_window_argmax", spy)
    runs = {}
    for cells in (0, math.inf):  # a window on every batch, then on none
        monkeypatch.setattr(lockstep, "WINDOW_CELLS", cells)
        envs = [BanditEnv(spec, sigma, seed) for seed in range(8)]
        levels = Policy("sub_ucb", l=l, m=20).run_batch(envs, k, 4000)
        runs[cells] = levels, [env.trajectory.to_csv() for env in envs]
        if cells == 0:
            assert any(accepted)  # the window chose arms, not only the fallback
            accepted.clear()
    assert accepted == []  # the dense run never opened a window
    assert runs[0] == runs[math.inf]


@pytest.mark.parametrize("sigma", [0.0, 0.3])
def test_mixed_phase_window_at_the_real_gate(monkeypatch, sigma):
    # harmonic_base(20, 5) at l = 2: with noise the rows close their
    # optimistic level 1 at different steps, so some run their 816-arm flat
    # schedule while others apply the index rule.  16 x (816 - 64) cells
    # open windows at the default WINDOW_CELLS, and the scheduled rows pull
    # inside them.  At sigma = 0 every row takes one path, in step.
    spec, k = harmonic_base(20, 5), 5
    steps = []
    window_argmax = lockstep.Lockstep._window_argmax

    def spy(self, t, window):
        j = window_argmax(self, t, window)
        steps.append((j is not None, bool((self.pos < self.slen).any())))
        return j

    def run():
        envs = [BanditEnv(spec, sigma, seed) for seed in range(16)]
        levels = Policy("sub_ucb", l=2, m=20).run_batch(envs, k, 4000)
        return levels, [env.trajectory.to_csv() for env in envs]

    monkeypatch.setattr(lockstep.Lockstep, "_window_argmax", spy)
    windowed = run()
    accepted = [scheduled for ok, scheduled in steps if ok]
    assert accepted  # the window chose arms, not only the fallback
    assert any(accepted) == (sigma > 0)  # ... also while a row was in its schedule
    steps.clear()
    monkeypatch.setattr(lockstep, "WINDOW_CELLS", math.inf)
    assert run() == windowed
    assert steps == []  # the dense run never opened a window


def test_chunk_ends_inside_windows_change_no_pull(monkeypatch):
    # chunks of 7 and of 13 steps end inside the windows of an 8 x 1,365
    # ucb_all batch; each _steps return writes its window back to the full
    # state, which the next window opens from
    spec, k = experiment_cover()
    accepted = []
    window_argmax = lockstep.Lockstep._window_argmax

    def spy(self, t, window):
        j = window_argmax(self, t, window)
        accepted.append(j is not None)
        return j

    def run():
        envs = [BanditEnv(spec, 0.5, seed) for seed in range(8)]
        levels = Policy("ucb_all").run_batch(envs, k, 2000)
        return levels, [env.trajectory.to_csv() for env in envs]

    expected = run()
    monkeypatch.setattr(lockstep.Lockstep, "_window_argmax", spy)
    for steps in (7, 13):
        monkeypatch.setattr(lockstep, "CHUNK_CELLS", 8 * steps)
        assert run() == expected
        assert any(accepted)
        accepted.clear()


def test_chunk_ends_change_no_pull(monkeypatch):
    # chunk ends split blocks, index runs and windows; every choice is
    # exact, so a run's levels and trajectories do not depend on them, and a
    # run draws exactly T noise values, so a pull after it reads the same one
    spec, k = experiment_cover()
    policies = [
        Policy("sub_ucb", l=0),
        Policy("sub_ucb", l=1, m=5),
        Policy("sub_ucb", l=2, m=3),
        Policy("etcg", m=4),
        Policy("ucb_all"),
    ]

    def runs():
        out = []
        for policy in policies:
            envs = [BanditEnv(spec, 0.5, seed) for seed in range(3)]
            levels = policy.run_batch(envs, k, 600)
            after = [pull(env, ItemSet.of([0]), k) for env in envs]
            out.append((levels, [env.trajectory.to_csv() for env in envs], after))
        return out

    expected = runs()
    for cells in (1, 7):
        monkeypatch.setattr(lockstep, "CHUNK_CELLS", cells)
        assert runs() == expected
