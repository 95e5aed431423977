from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pull
from submodbandit import BanditEnv, HarmonicInstance, ItemSet, Policy, Trajectory, evaluate
from submodbandit.catalog import experiment_cover
from submodbandit.structure import value_table


def test_constructor():
    env = BanditEnv(HarmonicInstance(6, 2, 1 / 32), 1.0, 7)
    assert env.t == 0
    assert len(env.trajectory) == 0
    for sigma in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="sigma must be finite and nonnegative"):
            BanditEnv(HarmonicInstance(6, 2, 1 / 32), sigma, 7)


def test_zero_noise_exactness():
    cover, _ = experiment_cover()
    env = BanditEnv(cover, 0.0, 0)
    assert pull(env, ItemSet.of([14]), 4) == 0.6
    assert pull(env, ItemSet.empty(), 4) == 0.0
    h = HarmonicInstance(6, 2, 1 / 32)
    env = BanditEnv(h, 0.0, 1)
    S = ItemSet.of([0, 2])
    assert pull(env, S, 2) == evaluate(h, S)


def test_determinism_byte_identical():
    spec = HarmonicInstance(6, 2, 1 / 32)
    pulls = [ItemSet.of([0]), ItemSet.of([1]), ItemSet.of([0, 1]), ItemSet.of([0])]
    envs = [BanditEnv(spec, 1.0, 99) for _ in range(2)]
    for env in envs:
        for S in pulls:
            pull(env, S, 2)
    assert envs[0].trajectory.to_csv() == envs[1].trajectory.to_csv()


def test_different_seeds_differ():
    spec = HarmonicInstance(6, 2, 1 / 32)
    a = BanditEnv(spec, 1.0, 1)
    b = BanditEnv(spec, 1.0, 2)
    assert pull(a, ItemSet.of([0]), 2) != pull(b, ItemSet.of([0]), 2)


def test_cardinality_guard():
    env = BanditEnv(HarmonicInstance(6, 2, 1 / 32), 0.0, 0)
    with pytest.raises(ValueError, match=r"\|S\|=3 exceeds k_max=2"):
        pull(env, ItemSet.of([0, 1, 2]), 2)
    assert env.t == 0


def test_counts_and_conservation():
    env = BanditEnv(HarmonicInstance(6, 2, 1 / 32), 1.0, 5)
    assert env.trajectory.masks() == [] and len(env.trajectory.values()) == 0
    for _ in range(3):
        pull(env, ItemSet.of([0]), 2)
    pull(env, ItemSet.of([0, 1]), 2)
    counts = Counter(env.trajectory.masks())
    assert counts == {0b1: 3, 0b11: 1}
    assert sum(counts.values()) == env.t == len(env.trajectory) == 4


def test_noise_statistics():
    spec = HarmonicInstance(6, 2, 1 / 32)
    env = BanditEnv(spec, 1.0, 321)
    S = ItemSet.of([0, 1])
    f = evaluate(spec, S)
    residuals = np.array([pull(env, S, 2) - f for _ in range(100_000)])
    assert abs(residuals.mean()) < 0.02
    assert 0.97 <= residuals.var(ddof=1) <= 1.03


def test_steps_are_one_based():
    env = BanditEnv(HarmonicInstance(6, 2, 1 / 32), 0.0, 0)
    pull(env, ItemSet.of([0]), 2)
    pull(env, ItemSet.of([1]), 2)
    lines = env.trajectory.to_csv().splitlines()
    assert [line.split(",")[:2] for line in lines] == [["t", "set"], ["1", "0"], ["2", "1"]]


def test_bulk_and_single_pulls_keep_one_record():
    # a policy run recorded in bulk, then hand pulls: the record reads as if
    # every step had been pulled by hand
    spec = HarmonicInstance(6, 2, 1 / 32)
    env = BanditEnv(spec, 1.0, 31)
    Policy("ucb_all").run(env, 2, 1500)
    for S in [ItemSet.of([3]), ItemSet.of([0, 1]), ItemSet.empty(), ItemSet.of([3])]:
        pull(env, S, 2)
    traj = env.trajectory
    assert len(traj) == env.t == 1504
    by_hand = BanditEnv(spec, 1.0, 31)
    for mask in traj.masks():
        pull(by_hand, ItemSet(mask), 2)
    assert traj.masks() == by_hand.trajectory.masks()
    assert traj.rewards() == by_hand.trajectory.rewards()
    assert traj.to_csv() == by_hand.trajectory.to_csv()
    values = [evaluate(spec, ItemSet(mask)) for mask in traj.masks()]
    assert traj.values().tolist() == values == by_hand.trajectory.values().tolist()


@settings(deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=2500)), max_size=8
    ),
)
def test_noise_stream_does_not_depend_on_chunking(seed, runs):
    # each run is a fill_noise block, as the lockstep engine draws a run, or
    # that many single pulls; f(empty) = 0 and sigma = 1, so every reward is
    # the noise value itself, in stream order
    env = BanditEnv(HarmonicInstance(6, 2, 1 / 32), 1.0, seed)
    drawn = []
    for block, size in runs:
        if block:
            noise = np.empty(size)
            env.fill_noise(noise)
            drawn += noise.tolist()
        else:
            drawn += [pull(env, ItemSet.empty(), 2) for _ in range(size)]
    assert drawn == np.random.default_rng(seed).standard_normal(len(drawn)).tolist()


def test_trajectory_extend_shares_the_run_table():
    table = value_table(HarmonicInstance(6, 2, 1 / 32), 2)
    masks, values = table.masks, table.values.tolist()
    # chunks append on the run's table, which the trajectory shares; the
    # caller's buffers are copied, so it may reuse them for its next chunk
    traj = Trajectory()
    ranks, rewards = np.array([3, 3, 0]), np.array([0.25, -1.0, 2.0])
    traj.extend(table, ranks, rewards)
    ranks[:], rewards[:] = 7, 9.0
    traj.extend(table, ranks[:2], rewards[:2])
    assert traj.masks() == [masks[3], masks[3], masks[0], masks[7], masks[7]]
    assert traj.values().tolist() == [values[3], values[3], values[0], values[7], values[7]]
    assert traj.rewards() == [0.25, -1.0, 2.0, 9.0, 9.0] and len(traj) == 5
    assert table.masks is masks and table.values.tolist() == values
    # a chunk on a different table is refused
    other = Trajectory()
    other.extend(table, np.array([1]), np.array([0.5]))
    with pytest.raises(ValueError, match="table of the trajectory's earlier steps"):
        other.extend(value_table(HarmonicInstance(6, 2, 1 / 16), 2), np.array([1]), np.array([0.5]))
    assert other.masks() == [masks[1]] and other.rewards() == [0.5]
    # a chunk of no steps leaves the trajectory empty, so any run may follow
    gap = Trajectory()
    gap.extend(table, np.zeros(0, np.intp), np.zeros(0))
    assert len(gap) == 0
    small = value_table(HarmonicInstance(6, 1, 1 / 16), 1)
    gap.extend(small, np.array([1]), np.array([1.0]))
    assert gap.masks() == [0b1] and gap.values().tolist() == [small.values[1]]
