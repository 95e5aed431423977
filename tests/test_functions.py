import math
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import tabular_from_spec
from submodbandit import (
    HarmonicInstance,
    ItemSet,
    Tabular,
    UniqueGreedyPath,
    WeightedCover,
    evaluate,
    harmonic_tail,
    spec_from_json,
)
from submodbandit.catalog import experiment_cover


def test_harmonic_base_values():
    h = HarmonicInstance(4, 2, 1 / 32)
    assert evaluate(h, ItemSet.of([0])) == pytest.approx(1 / 3, abs=1e-15)
    assert evaluate(h, ItemSet.of([0, 2])) == pytest.approx(7 / 12 - 1 / 32, abs=1e-15)
    assert evaluate(h, ItemSet.empty()) == 0.0
    # off-prefix singleton loses delta/k, off-prefix pair loses delta
    assert evaluate(h, ItemSet.of([2])) == pytest.approx(1 / 3 - 1 / 64, abs=1e-15)
    assert evaluate(h, ItemSet.of([0, 1])) == pytest.approx(7 / 12, abs=1e-15)


def test_harmonic_elevated_values():
    h = HarmonicInstance(6, 2, 1 / 32, 0, (2, 3))
    assert evaluate(h, ItemSet.of([2])) == pytest.approx(1 / 3 + 1 / 64, abs=1e-15)
    assert evaluate(h, ItemSet.of([2, 3])) == pytest.approx(7 / 12 + 1 / 32, abs=1e-15)
    assert evaluate(h, ItemSet.of([0])) == pytest.approx(1 / 3, abs=1e-15)
    assert evaluate(h, ItemSet.of([0, 1])) == pytest.approx(7 / 12, abs=1e-15)
    assert evaluate(h, ItemSet.of([2, 4])) == pytest.approx(7 / 12 - 1 / 32, abs=1e-15)


def test_harmonic_elevated_with_prefix():
    # chain follows the prefix for one item, then jumps to the tail
    h = HarmonicInstance(9, 3, 1 / 72, 1, (3, 4))
    base2 = harmonic_tail(3, 2)
    assert evaluate(h, ItemSet.of([0])) == pytest.approx(harmonic_tail(3, 1), abs=1e-15)
    assert evaluate(h, ItemSet.of([0, 3])) == pytest.approx(base2 + 1 / 216, abs=1e-15)
    assert evaluate(h, ItemSet.of([0, 3, 4])) == pytest.approx(
        harmonic_tail(3, 3) + 1 / 72, abs=1e-15
    )
    # the bare tail singleton is not on the planted chain
    assert evaluate(h, ItemSet.of([3])) == pytest.approx(
        harmonic_tail(3, 1) - 1 / 216, abs=1e-15
    )


def test_harmonic_validation():
    with pytest.raises(ValueError):
        HarmonicInstance(6, 2, 1 / 32, 0, (2, 2))
    with pytest.raises(ValueError, match=r"tail item 1 outside \[k, n\) = \[2, 6\)"):
        HarmonicInstance(6, 2, 1 / 32, 0, (1, 3))  # tail below k
    with pytest.raises(ValueError):
        HarmonicInstance(6, 2, 1 / 32, 1, (2, 3))  # wrong tail length
    with pytest.raises(ValueError, match="prefix_len and tail must be given together"):
        HarmonicInstance(6, 2, 1 / 32, 0)
    with pytest.raises(ValueError):
        HarmonicInstance(6, 2, -0.5)


def test_weighted_cover_values():
    cover, _ = experiment_cover()
    assert evaluate(cover, ItemSet.of([14])) == pytest.approx(0.6, abs=1e-15)
    assert evaluate(cover, ItemSet.of([0, 5, 10, 14])) == pytest.approx(1.0, abs=1e-15)
    assert evaluate(cover, ItemSet.of([0, 1])) == pytest.approx(0.1, abs=1e-15)
    assert evaluate(cover, ItemSet.empty()) == 0.0


def test_weighted_cover_validation():
    with pytest.raises(ValueError):
        WeightedCover(4, ((0, 1), (1, 2, 3)), (0.5, 0.5))  # overlap
    with pytest.raises(ValueError):
        WeightedCover(4, ((0, 1),), (1.0,))  # does not cover
    with pytest.raises(ValueError):
        WeightedCover(2, ((0,), (1,)), (0.9, 0.9))  # weights exceed 1
    with pytest.raises(ValueError, match="blocks"):
        WeightedCover(3, ((0, 0, 1), (2,)), (0.5, 0.5))  # repeated item
    with pytest.raises(ValueError, match="blocks"):
        WeightedCover(3, ((0, 1), (), (2,)), (0.5, 0.0, 0.5))  # empty block
    with pytest.raises(ValueError, match=r"block item 3 outside \[0, 3\)"):
        WeightedCover(3, ((0, 1), (2, 3)), (0.5, 0.5))
    for weight in (math.inf, -0.1):
        with pytest.raises(ValueError, match="weights must be finite and nonnegative"):
            WeightedCover(2, ((0,), (1,)), (0.5, weight))


def test_unique_greedy_path_values():
    u = UniqueGreedyPath(6, 3, 0.01)
    assert evaluate(u, ItemSet.empty()) == 0.0
    assert evaluate(u, ItemSet.of([0, 1])) == pytest.approx(harmonic_tail(3, 2), abs=1e-15)
    assert evaluate(u, ItemSet.of([0, 2])) == pytest.approx(
        harmonic_tail(3, 2) - 0.01, abs=1e-15
    )


def test_domain_errors():
    h = HarmonicInstance(4, 2, 1 / 32)
    with pytest.raises(ValueError, match=r"\|S\|=3 exceeds k_max=2"):
        evaluate(h, ItemSet.of([0, 1, 2]))
    with pytest.raises(ValueError, match="set 4 has items >= n=4"):
        evaluate(h, ItemSet.of([4]))


def test_tabular_validation():
    with pytest.raises(ValueError):
        Tabular(2, 1, {0: 0.0, 1: 0.5})  # incomplete
    with pytest.raises(ValueError):
        Tabular(2, 1, {0: 0.0, 1: 1.5, 2: 0.1})  # out of range
    with pytest.raises(ValueError):
        Tabular(2, 1, {0: 0.3, 1: 0.5, 2: 0.1})  # empty set must be 0
    with pytest.raises(ValueError, match="table key 2 exceeds n=2"):
        Tabular(2, 1, {0: 0.0, 1: 0.5, 4: 0.1})  # item 2 >= n
    with pytest.raises(ValueError, match="table key 0,1 larger than k_max=1"):
        Tabular(2, 1, {0: 0.0, 1: 0.5, 3: 0.1})  # a pair above k_max
    t = Tabular(2, 1, {0: 0.0, 1: 0.5, 2: 0.1})
    assert evaluate(t, ItemSet.of([0])) == 0.5


def test_tabular_size_check_stops_past_the_table():
    # a complete table at n = k_max = 20,000 has over 2^19,999 entries: counting
    # them all takes minutes and gives a number too long for an int's str()
    doc = {"kind": "tabular", "n": 20_000, "k_max": 20_000, "table": {"": 0}}
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^table has 1 entries; .* needs more than 1$"):
        spec_from_json(doc)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ValueError, match=r"^table has 2 entries; .* n=2 needs 3$"):
        Tabular(2, 1, {0: 0.0, 1: 0.5})


def test_evaluate_deterministic_and_bounded():
    specs = [
        HarmonicInstance(6, 2, 1 / 32),
        HarmonicInstance(6, 2, 1 / 32, 0, (2, 3)),
        UniqueGreedyPath(6, 3, 0.01),
        experiment_cover()[0],
    ]
    for spec in specs:
        k = min(spec.k_max, 3)
        table = tabular_from_spec(spec, k)
        for mask, v in table.table.items():
            assert 0.0 <= v <= 1.0
            assert spec.value_of_mask(mask) == v  # second call agrees exactly


harmonic_specs = st.builds(
    lambda n_extra, k, num, elevated, prefix_len: _build_harmonic(
        n_extra, k, num, elevated, prefix_len
    ),
    n_extra=st.integers(min_value=0, max_value=4),
    k=st.integers(min_value=1, max_value=4),
    num=st.integers(min_value=1, max_value=200),
    elevated=st.booleans(),
    prefix_len=st.integers(min_value=0, max_value=4),
)


def _build_harmonic(n_extra, k, num, elevated, prefix_len):
    n = 3 * k + n_extra
    delta = num / (200.0 * 8 * k * k)
    if not elevated:
        return HarmonicInstance(n, k, delta)
    p = min(prefix_len, k)
    tail = tuple(range(k, 2 * k - p))
    return HarmonicInstance(n, k, delta, p, tail)


@given(harmonic_specs)
def test_harmonic_json_roundtrip(spec):
    again = spec_from_json(spec.to_json())
    assert again == spec


def test_cover_and_path_json_roundtrip():
    cover, _ = experiment_cover()
    assert spec_from_json(cover.to_json()) == cover
    u = UniqueGreedyPath(9, 7, 0.01)
    assert spec_from_json(u.to_json()) == u


def test_tabular_json_roundtrip_exact():
    spec = HarmonicInstance(5, 2, 1 / 32)
    table = tabular_from_spec(spec, 2)
    again = spec_from_json(table.to_json())
    assert again == table
    for mask in table.table:
        assert again.value_of_mask(mask) == spec.value_of_mask(mask)


def test_tabular_from_spec_counts():
    spec = HarmonicInstance(4, 2, 1 / 32)
    table = tabular_from_spec(spec, 2)
    assert len(table.table) == 1 + 4 + 6
    assert math.isclose(table.value_of_mask(0b11), 7 / 12, abs_tol=1e-15)
