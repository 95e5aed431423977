import math
import time
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import enumerate_chain_costs, masks_upto, random_monotone_submodular
from submodbandit import (
    GreedyChain,
    HarmonicInstance,
    ItemSet,
    Tabular,
    benchmark_summary,
    brute_force_opt,
    chain_from_order,
    check_approx_guarantee,
    enumerate_benchmark,
    evaluate,
    exact_greedy,
    greedy_benchmark,
    harmonic_tail,
)
from submodbandit.catalog import (
    experiment_cover,
    harmonic_base,
    harmonic_elevated,
    unique_path,
)
from submodbandit import greedy
from submodbandit.greedy import FULL_ENUM_CAP, SAMPLE_SEED, SAMPLE_SIZE
from submodbandit.structure import value_table


def test_exact_greedy_cover_chain():
    cover, k = experiment_cover()
    chain = exact_greedy(cover, k)
    assert [lvl.render() for lvl in chain.levels] == ["14", "10,14", "0,10,14", "0,5,10,14"]
    assert chain.eps == (0.0, 0.0, 0.0, 0.0)
    assert evaluate(cover, chain.final_set()) == pytest.approx(1.0, abs=1e-15)


def test_exact_greedy_harmonic_prefix():
    chain = exact_greedy(HarmonicInstance(4, 2, 1 / 32), 2)
    assert [lvl.render() for lvl in chain.levels] == ["0", "0,1"]


def test_exact_greedy_elevated_follows_planted_chain():
    spec = harmonic_elevated(9, 3)
    chain = exact_greedy(spec, 3)
    assert [lvl.render() for lvl in chain.levels] == ["3", "3,4", "3,4,5"]


def test_elevated_with_prefix_end_to_end():
    # planted chain follows the prefix for one item, then the tail
    spec = harmonic_elevated(9, 3, prefix_len=1)
    chain = exact_greedy(spec, 3)
    assert [lvl.render() for lvl in chain.levels] == ["0", "0,3", "0,3,4"]
    opt, val = brute_force_opt(spec, 3)
    assert opt == ItemSet.of([0, 3, 4])
    assert val == pytest.approx(harmonic_tail(3, 3) + spec.delta, abs=1e-15)
    dp = greedy_benchmark(spec, 3)
    enum = enumerate_benchmark(spec, 3)
    assert dp.value == enum.value


def test_exact_greedy_edge_cases():
    assert exact_greedy(HarmonicInstance(4, 2, 1 / 32), 0).levels == ()
    with pytest.raises(ValueError, match="k=20 exceeds the spec's k_max=15"):
        exact_greedy(experiment_cover()[0], 20)


def test_greedy_chain_validation():
    with pytest.raises(ValueError):
        GreedyChain((ItemSet.of([0]), ItemSet.of([1, 2])), (0.0, 0.0))
    with pytest.raises(ValueError):
        GreedyChain((ItemSet.of([0]),), (-0.1,))
    with pytest.raises(ValueError, match="one slack entry per level"):
        GreedyChain((ItemSet.of([0]),), (0.0, 0.0))


def test_brute_force_opt_frozen():
    assert brute_force_opt(HarmonicInstance(4, 2, 1 / 32), 2) == (
        ItemSet.of([0, 1]),
        pytest.approx(7 / 12, abs=1e-15),
    )
    opt, val = brute_force_opt(HarmonicInstance(6, 2, 1 / 32, 0, (2, 3)), 2)
    assert opt == ItemSet.of([2, 3])
    assert val == pytest.approx(7 / 12 + 1 / 32, abs=1e-15)
    assert brute_force_opt(experiment_cover()[0], 4)[1] == pytest.approx(1.0, abs=1e-15)


def test_brute_force_dominates_random_sets():
    rng = np.random.default_rng(4)
    spec = random_monotone_submodular(42, n=7, k=3)
    _, best = brute_force_opt(spec, 3)
    for _ in range(50):
        size = int(rng.integers(0, 4))
        items = rng.choice(7, size=size, replace=False)
        assert best >= evaluate(spec, ItemSet.of(int(a) for a in items)) - 1e-15


def test_chain_from_order_slacks():
    spec = HarmonicInstance(6, 2, 1 / 32)
    chain = chain_from_order(spec, 2, (2, 3))
    # first pick loses delta/k to the best singleton, second is slack-free
    assert chain.eps[0] == pytest.approx(1 / 64, abs=1e-15)
    assert chain.eps[1] == 0.0
    greedy = chain_from_order(spec, 2, (0, 1))
    assert greedy.eps == (0.0, 0.0)


@pytest.mark.parametrize("seed", range(10))
def test_benchmark_dp_equals_enumeration(seed):
    spec = random_monotone_submodular(1000 + seed, n=6, k=3)
    dp = greedy_benchmark(spec, 3)
    enum = enumerate_benchmark(spec, 3)
    assert dp.value == enum.value



def _order_cost(spec, k, order):
    # summed like the enumeration: slack by slack, then f(final)
    chain = chain_from_order(spec, k, order)
    return chain.total_slack() + spec.value_of_mask(chain.final_set().mask), chain


def _first_cheapest(spec, k, orders):
    # one order at a time; a strict < keeps the first cheapest
    best_cost, best_chain = math.inf, None
    for order in orders:
        cost, chain = _order_cost(spec, k, order)
        if cost < best_cost:
            best_cost, best_chain = cost, chain
    return best_cost, best_chain


def _tied_table(seed, n, k):
    # values on a grid of quarters, so many chains cost exactly the same
    rng = np.random.default_rng(seed)
    table = {
        mask: min(1.0, (mask.bit_count() + int(rng.integers(0, 2))) / 4)
        for mask in masks_upto(n, k)
    }
    table[0] = 0.0
    return Tabular(n, k, table)


@pytest.mark.parametrize(
    "spec, k",
    [
        (harmonic_base(6, 2), 2),
        (unique_path(4), 4),
        (_tied_table(1, 5, 3), 3),
        (_tied_table(2, 6, 2), 2),
        (_tied_table(3, 4, 4), 4),
        (harmonic_base(6, 2), 1),
        (_tied_table(4, 5, 1), 1),
        (unique_path(4), 0),
    ],
)
def test_enumeration_keeps_the_lexicographically_first_minimum(spec, k):
    enum = enumerate_benchmark(spec, k)
    assert (enum.value, enum.chain) == _first_cheapest(spec, k, permutations(range(spec.n), k))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 7).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
    st.booleans(),
    st.integers(0, 2**16),
)
@example((7, 7), False, 1)
@example((7, 7), True, 2)
@example((7, 0), False, 3)
@example((7, 1), True, 4)
def test_prefix_tree_walk_matches_one_order_at_a_time(shape, tied, seed):
    n, k = shape
    spec = _tied_table(seed, n, n) if tied else random_monotone_submodular(seed, n=n, k=n)
    enum = enumerate_benchmark(spec, k)
    assert (enum.value, enum.chain) == _first_cheapest(spec, k, permutations(range(n), k))


def test_specs_of_one_over_cap_shape_draw_the_sample_once(monkeypatch):
    n, k = 12, 6
    assert math.perm(n, k) > FULL_ENUM_CAP
    greedy._sample.cache_clear()
    draws = []
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a: draws.append(a) or real(*a))
    for spec in (harmonic_base(n, k), harmonic_elevated(n, k)):
        enumerate_benchmark(spec, k)
    assert draws == [(SAMPLE_SEED,)]
    sample = greedy._sample(n, k)
    assert sample.shape == (SAMPLE_SIZE, k) and sample.dtype == np.uint8
    with pytest.raises(ValueError, match="read-only"):
        sample[0, 0] = 0


@pytest.mark.parametrize("n, k", [(24, 4), (67, 3)])
def test_enumeration_memory_stays_within_its_blocks(n, k):
    # near the cap (255,024 and 287,430 orders) the last level is walked
    # in blocks, so the walk holds no array of every order
    spec = harmonic_base(n, k)
    assert math.perm(n, k) <= FULL_ENUM_CAP
    value_table(spec, k).best_extension  # the table belongs to the spec
    tracemalloc.start()
    try:
        enumerate_benchmark(spec, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20


def test_sampled_enumeration_matches_one_order_at_a_time():
    # the shape of the sampled verify row: 1,860,480 orders, over the cap
    spec, k = harmonic_elevated(20, 5), 5
    assert math.perm(20, k) > FULL_ENUM_CAP
    rng = np.random.default_rng(0)
    orders = (tuple(int(a) for a in rng.permutation(20)[:k]) for _ in range(50_000))
    enum = enumerate_benchmark(spec, k)
    assert (enum.value, enum.chain) == _first_cheapest(spec, k, orders)
    assert enum.value >= greedy_benchmark(spec, k).value

def test_chain_from_order_rejects_bad_items():
    # ranks index the table, so a negative item must not wrap around
    spec = harmonic_base(6, 2)
    for order in [(-1, 0), (0, 6)]:
        with pytest.raises(ValueError, match=r"item -?\d+ outside \[0, 6\)"):
            chain_from_order(spec, 2, order)
    with pytest.raises(ValueError, match="repeated"):
        chain_from_order(spec, 2, (3, 3))
    with pytest.raises(ValueError, match="exactly k=2 items"):
        chain_from_order(spec, 2, (3,))


def test_benchmark_witness_is_feasible():
    for spec, k in [
        (harmonic_base(6, 2), 2),
        (harmonic_elevated(9, 3), 3),
        (random_monotone_submodular(7, n=6, k=3), 3),
    ]:
        res = greedy_benchmark(spec, k)
        rebuilt = chain_from_order(
            spec, k, _added_items(res.chain)
        )
        assert rebuilt.eps == res.chain.eps
        cost = evaluate(spec, res.chain.final_set()) + res.chain.total_slack()
        assert cost == pytest.approx(res.value, abs=1e-12)


def _added_items(chain):
    order = []
    prev = 0
    for lvl in chain.levels:
        order.append((lvl.mask ^ prev).bit_length() - 1)
        prev = lvl.mask
    return tuple(order)


def test_benchmark_below_greedy_value():
    for spec, k in [
        (experiment_cover()[0], 4),
        (harmonic_base(9, 3), 3),
        (random_monotone_submodular(11, n=7, k=3), 3),
    ]:
        bench = greedy_benchmark(spec, k)
        greedy_val = evaluate(spec, exact_greedy(spec, k).final_set())
        assert bench.value <= greedy_val + 1e-12


def test_hard_instance_benchmark_values_exact():
    """Vector-slack benchmark of the hard family, verified against exact
    rational chain enumeration: the cheapest chain starts off the elevated
    path, pays a single delta/k slack, and ends at a penalized top set.
    """
    for n, k in [(6, 2), (9, 3), (12, 4)]:
        delta = 1 / (8 * k * k)
        base = harmonic_tail(k, k)
        dp = greedy_benchmark(harmonic_base(n, k), k)
        assert dp.value == pytest.approx(base - delta * (k - 1) / k, abs=1e-12)
        dp_elev = greedy_benchmark(harmonic_elevated(n, k), k)
        assert dp_elev.value == pytest.approx(base - delta * (k - 2) / k, abs=1e-12)


def test_benchmark_cover():
    cover, k = experiment_cover()
    res = greedy_benchmark(cover, k)
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_guarantee_on_exact_greedy_chains():
    cover, k = experiment_cover()
    res = check_approx_guarantee(cover, k, exact_greedy(cover, k))
    assert res.ok
    assert res.lhs == pytest.approx(1.0, abs=1e-12)
    spec = harmonic_base(6, 2)
    assert check_approx_guarantee(spec, 2, exact_greedy(spec, 2)).ok


@pytest.mark.parametrize("seed", range(5))
def test_guarantee_for_every_chain(seed):
    spec = random_monotone_submodular(2000 + seed, n=5, k=3)
    worst_margin = math.inf
    for order, slacks, final_value in enumerate_chain_costs(spec, 3):
        chain = chain_from_order(spec, 3, order)
        res = check_approx_guarantee(spec, 3, chain)
        assert res.ok, f"guarantee failed for order {order}"
        assert res.lhs == pytest.approx(final_value + sum(slacks), abs=1e-12)
        worst_margin = min(worst_margin, res.lhs - res.rhs)
    assert worst_margin > -1e-9


def test_benchmark_past_the_old_ground_set_cap():
    # a dense 2^60 table is out of reach; the ranked one holds 36,051 sets,
    # and every one of the 205,320 orders is walked
    spec = harmonic_base(60, 3)
    start = time.perf_counter()
    summary = benchmark_summary(spec, 3)
    enum = enumerate_benchmark(spec, 3)
    assert time.perf_counter() - start < 30.0
    assert math.perm(60, 3) <= FULL_ENUM_CAP
    assert summary.benchmark == enum.value
    assert summary.benchmark == pytest.approx(
        harmonic_tail(3, 3) - spec.delta * 2 / 3, abs=1e-12
    )
