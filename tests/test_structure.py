import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    dense_best_extension,
    dense_check_monotone,
    dense_check_submodular,
    dense_curvature,
    masks_upto,
    naive_curvature,
    naive_is_monotone,
    naive_is_submodular,
    random_monotone_submodular,
    random_table,
    tabular_from_spec,
)
from submodbandit import (
    HarmonicInstance,
    ItemSet,
    Tabular,
    UniqueGreedyPath,
    WeightedCover,
    approx_ratio,
    check_monotone,
    check_submodular,
    curvature,
    evaluate,
    value_table,
)
from submodbandit.catalog import experiment_cover, harmonic_base, harmonic_elevated
from submodbandit.errors import GroundSetTooLarge
from submodbandit.sets import feasible_count
from submodbandit import structure
from submodbandit.structure import MAX_TABLE_BITS, FeasibleTable
from submodbandit.verify import run_checks


def test_monotone_on_builtins():
    cover, k = experiment_cover()
    assert check_monotone(cover, k).ok
    assert check_monotone(HarmonicInstance(6, 2, 1 / 32), 2).ok
    assert check_monotone(UniqueGreedyPath(6, 4, 0.01), 4).ok


def test_monotone_witness():
    table = {0: 0.0, 1: 0.5, 2: 0.2, 3: 0.4}
    spec = Tabular(2, 2, table)
    res = check_monotone(spec, 2)
    assert not res.ok
    A, a = res.witness
    # the witness really is a violation
    assert evaluate(spec, A.with_item(a)) < evaluate(spec, A)
    assert A == ItemSet.of([0]) and a == 1


def test_submodular_on_builtins():
    cover, k = experiment_cover()
    assert check_submodular(cover, k).ok
    assert check_submodular(HarmonicInstance(6, 2, 1 / 32), 2).ok
    assert check_submodular(HarmonicInstance(6, 2, 1 / 32, 0, (2, 3)), 2).ok


def test_submodular_violation_with_witness():
    res = check_submodular(HarmonicInstance(6, 2, 1.0), 2)
    assert not res.ok
    A, B, a = res.witness
    spec = HarmonicInstance(6, 2, 1.0)
    assert A.issubset(B) and a not in B
    gain_small = evaluate(spec, A.with_item(a)) - evaluate(spec, A)
    gain_large = evaluate(spec, B.with_item(a)) - evaluate(spec, B)
    assert gain_small < gain_large - 1e-12


@pytest.mark.parametrize("seed", range(8))
def test_checks_agree_with_naive_route(seed):
    spec = random_monotone_submodular(seed, n=6, k=3)
    assert check_monotone(spec, 3).ok == naive_is_monotone(spec, 3)
    assert check_submodular(spec, 3).ok == naive_is_submodular(spec, 3)
    assert curvature(spec, 3) == pytest.approx(naive_curvature(spec, 3), abs=1e-12)


def test_checks_agree_with_naive_on_violations():
    # oversized gap breaks submodularity; both routes must agree
    spec = HarmonicInstance(6, 2, 0.75)
    assert check_submodular(spec, 2).ok == naive_is_submodular(spec, 2) == False


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("scale", [1.0, 0.5])
def test_harmonic_family_in_its_submodular_regime(k, scale):
    # gaps up to 1/(8 k^2) keep both variants monotone and submodular
    from submodbandit.catalog import harmonic_base, harmonic_elevated

    for n in range(3 * k, min(12, 3 * k + 2) + 1):
        delta = scale / (8 * k * k)
        for spec in (harmonic_base(n, k, delta), harmonic_elevated(n, k, delta)):
            assert check_monotone(spec, k).ok
            assert check_submodular(spec, k).ok


def test_curvature_modular_is_zero():
    weights = [0.1, 0.2, 0.3]
    table = {}
    for mask in range(8):
        table[mask] = sum(w for a, w in enumerate(weights) if (mask >> a) & 1)
    spec = Tabular(3, 3, table)
    assert curvature(spec, 3) == pytest.approx(0.0, abs=1e-15)


def test_curvature_cover_is_one():
    cover, k = experiment_cover()
    assert curvature(cover, k) == pytest.approx(1.0, abs=1e-15)


def test_curvature_harmonic_frozen():
    # worst ratio is (1/4 - 1/32) / (1/3 - 1/64) = 42/61, hand-derived
    assert curvature(HarmonicInstance(6, 2, 1 / 32), 2) == pytest.approx(
        19 / 61, abs=1e-12
    )


def test_curvature_in_unit_interval_on_random_instances():
    for seed in range(20):
        spec = random_monotone_submodular(100 + seed, n=7, k=3)
        c = curvature(spec, 3)
        assert 0.0 <= c <= 1.0 + 1e-12


def test_curvature_all_zero_singletons():
    spec = Tabular(2, 1, {0: 0.0, 1: 0.0, 2: 0.0})
    assert curvature(spec, 1) == 0.0
    assert curvature(HarmonicInstance(6, 2, 1 / 32), 0) == 0.0  # no set can grow


def test_approx_ratio():
    assert approx_ratio(1.0) == pytest.approx(1 - math.exp(-1), abs=1e-12)
    assert approx_ratio(0.0) == 1.0
    assert approx_ratio(0.5) == pytest.approx(2 * (1 - math.exp(-0.5)), abs=1e-12)
    with pytest.raises(ValueError):
        approx_ratio(1.5)


def _assert_ranked_index(n, k):
    # the naive reference: masks_upto order, a rank dict, and one lookup per (S, b)
    spec = harmonic_base(n, max(k, 1)) if k else Tabular(n, 0, {0: 0.0})
    table = value_table(spec, k)
    masks = tuple(masks_upto(n, k))
    rank = {mask: r for r, mask in enumerate(masks)}
    assert table.masks == masks and all(type(mask) is int for mask in table.masks)
    assert len(masks) == len(rank) == feasible_count(n, k)  # no mask listed twice
    assert table.values.dtype == np.float64
    assert table.values.tolist() == [spec.value_of_mask(mask) for mask in masks]
    assert table.extend.dtype == np.int32 and table.extend.flags.c_contiguous
    assert table.extend.shape == (feasible_count(n, k - 1), n)
    for r, row in enumerate(table.extend.tolist()):
        mask = masks[r]
        assert row == [-1 if mask >> b & 1 else rank[mask | 1 << b] for b in range(n)]
    for size in range(k + 1):
        assert all(m.bit_count() == size for m in table.masks[table.level(size)])
    assert value_table(spec, k) is table  # kept in the spec's memo


# (63, 2), (64, 2) and (65, 2): the top masks cross the int64 edge
@pytest.mark.parametrize(
    "n, k", [(1, 0), (1, 1), (5, 3), (6, 6), (70, 2), (20, 5), (63, 2), (64, 2), (65, 2)]
)
def test_feasible_table_is_ranked_index(n, k):
    _assert_ranked_index(n, k)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.data())
def test_feasible_table_is_ranked_index_at_every_small_shape(n, data):
    _assert_ranked_index(n, data.draw(st.integers(min_value=0, max_value=n)))


def _harmonic_family(n, k, delta, seed):
    # the unique path, the harmonic base and one elevated instance per
    # prefix_len the ground set has room for, each with a shuffled tail
    rng = np.random.default_rng(seed)
    yield UniqueGreedyPath(n, k, delta)
    yield HarmonicInstance(n, k, delta)
    for prefix_len in range(k + 1):
        if n - k >= k - prefix_len:
            tail = rng.choice(np.arange(k, n), k - prefix_len, replace=False)
            yield HarmonicInstance(n, k, delta, prefix_len, tuple(tail.tolist()))


# (70, 2): masks past int64; prefix_len == k plants the prefix chain itself
@pytest.mark.parametrize("n, k", [(1, 1), (4, 2), (6, 3), (9, 4), (12, 5), (70, 2)])
@pytest.mark.parametrize("tight", [False, True], ids=["delta=0.01", "delta=1/(8k^2)"])
def test_table_values_equal_the_per_mask_loop(n, k, tight):
    delta = 1 / (8 * k * k) if tight else 0.01
    specs = [*_harmonic_family(n, k, delta, seed=n + k), random_monotone_submodular(n, n, k)]
    if n <= 12:
        specs.append(WeightedCover(n, tuple((a,) for a in range(n)), (1 / n,) * n))
    for spec in specs:
        for size in range(spec.k_max + 1):
            table = value_table(spec, size)
            per_mask = np.fromiter(map(spec._value, table.masks), float, len(table.masks))
            assert table.values.tobytes() == per_mask.tobytes(), (spec, size)


def test_specs_of_one_shape_share_one_read_only_index():
    base, elevated = value_table(harmonic_base(9, 3), 3), value_table(harmonic_elevated(9, 3), 3)
    assert base.masks is elevated.masks and base.extend is elevated.extend
    assert base.values.tobytes() != elevated.values.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        base.extend[0, 0] = 0
    # only the last shape's index is kept: once no table holds it, the index
    # of (9, 3) is freed after (8, 3) and (7, 3) are built
    index = weakref.ref(base.extend)
    del base, elevated
    value_table(harmonic_base(8, 3), 3)
    value_table(harmonic_base(7, 3), 3)
    gc.collect()
    assert index() is None


def test_ground_set_guard(monkeypatch):
    for spec, k in [
        (harmonic_base(27, 9), 9),  # 8,192,524 sets of size <= 9 over 27 items
        (UniqueGreedyPath(999_999, 1, 0.1), 1),  # 10^6 sets, masks 999,999 bits wide
    ]:
        assert feasible_count(spec.n, k) * spec.n > MAX_TABLE_BITS
        calls = []
        monkeypatch.setattr(type(spec), "_value", lambda self, mask: calls.append(mask))
        monkeypatch.setattr(type(spec), "_values", lambda self, masks, k: calls.extend(masks))
        with pytest.raises(GroundSetTooLarge):
            check_monotone(spec, k)
        with pytest.raises(GroundSetTooLarge):
            tabular_from_spec(spec, k)
        assert calls == [] and spec.memo == {}  # refused before any value is computed


def test_budget_admits_n60_k3():
    assert feasible_count(60, 3) == 36_051
    assert 36_051 * 60 <= MAX_TABLE_BITS


def test_run_checks_past_int64_masks():
    # n = 70: masks reach 2^69, beyond int64; verdicts are the families' known ones
    for spec, submodular in [
        (harmonic_base(70, 2), True),  # gap 1/32 <= 1/(8 k^2)
        (UniqueGreedyPath(70, 2, 0.1), False),  # gap above 1/(2k(2k-1)) = 1/12
    ]:
        rows = {row.name: row for row in run_checks(spec, 2)}
        assert rows["monotone"].ok
        assert rows["submodular"].ok == submodular
        assert rows["benchmark_dp_vs_enum"].ok
        sub = check_submodular(spec, 2)
        if not submodular:
            A, B, a = sub.witness
            gain_small = evaluate(spec, A.with_item(a)) - evaluate(spec, A)
            gain_large = evaluate(spec, B.with_item(a)) - evaluate(spec, B)
            assert gain_small < gain_large - 1e-12
    top = value_table(harmonic_base(70, 2), 2).masks[-1]
    assert top == (1 << 69) | (1 << 68)


def test_failing_checks_agree_with_naive_and_name_first_violation():
    # random tables, mostly neither monotone nor submodular: verdicts match the
    # naive definitions and each witness is the first violation in
    # (rank of A, a, b) order
    n, k = 5, 3
    for seed in range(12):
        spec = random_table(seed, n, k)
        f = spec.value_of_mask

        def gain(A, a):
            return f(A | 1 << a) - f(A)

        drops = [
            (ItemSet(A), a)
            for A in masks_upto(n, k - 1)
            for a in range(n)
            if not A >> a & 1 and f(A | 1 << a) < f(A) - 1e-12
        ]
        grows = [
            (ItemSet(A), ItemSet(A | 1 << b), a)
            for A in masks_upto(n, k - 2)
            for a in range(n)
            for b in range(n)
            if a != b and not A >> a & 1 and not A >> b & 1
            and gain(A, a) < gain(A | 1 << b, a) - 1e-12
        ]
        mono, sub = check_monotone(spec, k), check_submodular(spec, k)
        assert mono.ok == naive_is_monotone(spec, k) == (not drops)
        assert sub.ok == naive_is_submodular(spec, k) == (not grows)
        assert mono.witness == (drops[0] if drops else None)
        assert sub.witness == (grows[0] if grows else None)


def _assert_blocks_equal_dense(spec, rows):
    # blocks of `rows` rows split every table of more rows; the verdicts,
    # witnesses, floats and arrays are the dense passes', at every size
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structure, "_BLOCK_CELLS", rows * spec.n)
        for k in range(spec.k_max + 1):
            dense = value_table(spec, k)
            table = FeasibleTable(dense.n, dense.masks, dense.values, dense.extend)  # nothing cached
            assert len(list(table.blocks())) == -(-len(table.extend) // rows)
            assert check_monotone(spec, k) == dense_check_monotone(spec, k), (spec, k)
            assert check_submodular(spec, k) == dense_check_submodular(spec, k), (spec, k)
            assert table.curvature.hex() == dense_curvature(dense).hex(), (spec, k)
            assert np.array_equal(table.best_extension, dense_best_extension(dense)), (spec, k)


def _zero_singletons(seed, n, k):
    spec = random_table(seed, n, k)
    return Tabular(n, k, {m: 0.0 if m.bit_count() <= 1 else v for m, v in spec.table.items()})


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize(
    "spec",
    [
        random_table(0, 6, 0),  # k = 0: no row can grow
        random_table(1, 7, 1),  # k = 1: no base rows for check_submodular
        _zero_singletons(2, 6, 4),  # every singleton worth 0
        random_table(3, 70, 2),  # masks past int64
        harmonic_base(70, 2),
        UniqueGreedyPath(70, 2, 0.1),
        random_monotone_submodular(4, n=7, k=5),  # passes every check: walks every block
    ],
    ids=["k0", "k1", "zero-singletons", "random-n70", "harmonic-n70", "unique-path-n70", "passing"],
)
def test_block_walk_equals_dense_passes_on_edge_tables(spec, rows):
    _assert_blocks_equal_dense(spec, rows)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 7).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
    st.sampled_from(["random", "perturbed", "harmonic"]),
    st.integers(1, 3),
    st.integers(0, 2**16),
)
@example((6, 3), "harmonic", 2, 0)
@example((7, 7), "perturbed", 3, 1)
def test_block_walk_equals_dense_passes(shape, family, rows, seed):
    n, k = shape
    if family == "random":  # mostly neither monotone nor submodular
        specs = [random_table(seed, n, k)]
    elif family == "perturbed":  # a violation anywhere in the table
        table = dict(random_monotone_submodular(seed, n=n, k=k).table)
        rng = np.random.default_rng(seed)
        masks = list(table)[1:]  # the empty set stays at 0
        if masks:
            table[masks[rng.integers(len(masks))]] = float(rng.uniform())
        specs = [Tabular(n, k, table)]
    else:  # submodular at delta <= 1/(8 k^2), not past 1/(2k(2k-1))
        specs = list(_harmonic_family(n, k, (0.01, 0.05, 0.3)[seed % 3], seed)) if k else []
    for spec in specs:
        _assert_blocks_equal_dense(spec, rows)


@pytest.mark.parametrize(
    "spec", [harmonic_base(16, 8), UniqueGreedyPath(16, 8, 0.2)], ids=["harmonic", "unique-path"]
)
@pytest.mark.parametrize(
    "check",
    [
        lambda spec, table: table.best_extension,
        lambda spec, table: check_monotone(spec, 8),
        lambda spec, table: check_submodular(spec, 8),
        lambda spec, table: table.curvature,
    ],
    ids=["best_extension", "check_monotone", "check_submodular", "curvature"],
)
def test_whole_table_passes_stay_within_their_blocks(spec, check):
    # 26,333 rows of 16 items: a dense float64 temporary is 3.2 MB
    built = value_table(spec, 8)
    table = FeasibleTable(built.n, built.masks, built.values, built.extend)  # nothing cached
    assert len(table.extend) * table.n * 8 > 3 * 2**20
    tracemalloc.start()
    try:
        check(spec, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20
