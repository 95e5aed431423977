import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collections import Counter

from submodbandit import BanditEnv, HarmonicInstance, ItemSet, Trajectory, UcbAllPolicy, evaluate
from submodbandit.catalog import experiment_cover
from submodbandit.errors import CardinalityExceeded, NegativeSigma


def test_constructor():
    env = BanditEnv(HarmonicInstance(6, 2, 1 / 32), 1.0, 7)
    assert env.t == 0
    assert len(env.trajectory) == 0
    for sigma in (-0.1, float("nan"), float("inf")):
        with pytest.raises(NegativeSigma):
            BanditEnv(HarmonicInstance(6, 2, 1 / 32), sigma, 7)


def test_zero_noise_exactness():
    cover, _ = experiment_cover()
    env = BanditEnv(cover, 0.0, 0)
    assert env.pull(ItemSet.of([14])) == 0.6
    assert env.pull(ItemSet.empty()) == 0.0
    h = HarmonicInstance(6, 2, 1 / 32)
    env = BanditEnv(h, 0.0, 1)
    S = ItemSet.of([0, 2])
    assert env.pull(S) == evaluate(h, S)


def test_determinism_byte_identical():
    spec = HarmonicInstance(6, 2, 1 / 32)
    pulls = [ItemSet.of([0]), ItemSet.of([1]), ItemSet.of([0, 1]), ItemSet.of([0])]
    envs = [BanditEnv(spec, 1.0, 99) for _ in range(2)]
    for env in envs:
        for S in pulls:
            env.pull(S)
    assert envs[0].trajectory.to_csv() == envs[1].trajectory.to_csv()


def test_different_seeds_differ():
    spec = HarmonicInstance(6, 2, 1 / 32)
    a = BanditEnv(spec, 1.0, 1)
    b = BanditEnv(spec, 1.0, 2)
    assert a.pull(ItemSet.of([0])) != b.pull(ItemSet.of([0]))


def test_cardinality_guard():
    env = BanditEnv(HarmonicInstance(6, 2, 1 / 32), 0.0, 0)
    with pytest.raises(CardinalityExceeded):
        env.pull(ItemSet.of([0, 1, 2]))


def test_counts_and_conservation():
    env = BanditEnv(HarmonicInstance(6, 2, 1 / 32), 1.0, 5)
    assert env.counts_by_cardinality() == {}
    for _ in range(3):
        env.pull(ItemSet.of([0]))
    env.pull(ItemSet.of([0, 1]))
    assert env.counts_by_cardinality() == {1: 3, 2: 1}
    assert sum(env.pull_counts.values()) == env.t == len(env.trajectory) == 4


def test_noise_statistics():
    spec = HarmonicInstance(6, 2, 1 / 32)
    env = BanditEnv(spec, 1.0, 321)
    S = ItemSet.of([0, 1])
    f = evaluate(spec, S)
    residuals = np.array([env.pull(S) - f for _ in range(100_000)])
    assert abs(residuals.mean()) < 0.02
    assert 0.97 <= residuals.var(ddof=1) <= 1.03


def test_steps_are_one_based():
    env = BanditEnv(HarmonicInstance(6, 2, 1 / 32), 0.0, 0)
    env.pull(ItemSet.of([0]))
    env.pull(ItemSet.of([1]))
    steps = list(env.trajectory.steps())
    assert [t for t, _, _ in steps] == [1, 2]
    assert steps[1][1] == ItemSet.of([1])


def test_bulk_and_single_pulls_keep_one_record():
    # a policy run recorded in bulk, then hand pulls: the record reads as if
    # every step had been pulled by hand
    spec = HarmonicInstance(6, 2, 1 / 32)
    env = BanditEnv(spec, 1.0, 31)
    UcbAllPolicy().run(env, 2, 1500)
    for S in [ItemSet.of([3]), ItemSet.of([0, 1]), ItemSet.empty(), ItemSet.of([3])]:
        env.pull(S)
    traj = env.trajectory
    assert len(traj) == env.t == 1504
    by_hand = BanditEnv(spec, 1.0, 31)
    for mask in traj.masks():
        by_hand.pull(ItemSet(mask))
    assert traj == by_hand.trajectory
    assert traj.rewards() == by_hand.trajectory.rewards()
    assert traj.to_csv() == by_hand.trajectory.to_csv()
    assert list(traj.steps()) == list(by_hand.trajectory.steps())
    counts = Counter(map(ItemSet, traj.masks()))
    assert env.pull_counts == counts == by_hand.pull_counts
    assert list(env.pull_counts) == list(counts)  # keyed in order of first pull
    sizes = Counter(mask.bit_count() for mask in traj.masks())
    assert env.counts_by_cardinality() == dict(sizes) == by_hand.counts_by_cardinality()
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
            drawn += [env.pull(ItemSet.empty()) for _ in range(size)]
    assert drawn == np.random.default_rng(seed).standard_normal(len(drawn)).tolist()


def test_trajectory_extend_appends_a_table_of_its_own():
    # extend records a whole run on an empty trajectory over a table of its
    # own; hand pulls append after it, and a second extend is refused
    traj = Trajectory()
    traj.extend([0b01, 0b10], [0.5, 0.25], np.array([1, 1, 0]), np.array([0.25, -1.0, 2.0]))
    traj.append(0b10, 0.25, 3.0)
    traj.append(0b11, 0.75, 0.5)
    assert traj.masks() == [0b10, 0b10, 0b01, 0b10, 0b11] and len(traj) == 5
    assert traj.values().tolist() == [0.25, 0.25, 0.5, 0.25, 0.75]
    assert traj.rewards() == [0.25, -1.0, 2.0, 3.0, 0.5]
    with pytest.raises(ValueError, match="empty trajectory"):
        traj.extend([0b100], [0.125], np.zeros(2, np.int32), np.array([1.0, 2.0]))
    assert len(traj) == 5 and traj.masks()[-1] == 0b11
    # a run of no steps leaves the trajectory empty, so a run may still follow
    gap = Trajectory()
    gap.extend([0b1], [0.5], np.zeros(0, np.int32), np.zeros(0))
    assert len(gap) == 0
    gap.extend([0b10], [0.25], np.zeros(2, np.int32), np.array([1.0, 2.0]))
    assert gap.masks() == [0b10, 0b10] and gap.values().tolist() == [0.25, 0.25]
