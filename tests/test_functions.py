import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from submodbandit import (
    HarmonicInstance,
    ItemSet,
    Tabular,
    UniqueGreedyPath,
    WeightedCover,
    evaluate,
    harmonic_tail,
    spec_from_json,
    tabular_from_spec,
)
from submodbandit.catalog import experiment_cover
from submodbandit.errors import CardinalityExceeded, OutOfRange


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
    with pytest.raises(OutOfRange):
        HarmonicInstance(6, 2, 1 / 32, 0, (1, 3))  # tail below k
    with pytest.raises(ValueError):
        HarmonicInstance(6, 2, 1 / 32, 1, (2, 3))  # wrong tail length
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


def test_unique_greedy_path_values():
    u = UniqueGreedyPath(6, 3, 0.01)
    assert evaluate(u, ItemSet.empty()) == 0.0
    assert evaluate(u, ItemSet.of([0, 1])) == pytest.approx(harmonic_tail(3, 2), abs=1e-15)
    assert evaluate(u, ItemSet.of([0, 2])) == pytest.approx(
        harmonic_tail(3, 2) - 0.01, abs=1e-15
    )


def test_domain_errors():
    h = HarmonicInstance(4, 2, 1 / 32)
    with pytest.raises(CardinalityExceeded):
        evaluate(h, ItemSet.of([0, 1, 2]))
    with pytest.raises(OutOfRange):
        evaluate(h, ItemSet.of([4]))


def test_tabular_validation():
    with pytest.raises(ValueError):
        Tabular(2, 1, {0: 0.0, 1: 0.5})  # incomplete
    with pytest.raises(ValueError):
        Tabular(2, 1, {0: 0.0, 1: 1.5, 2: 0.1})  # out of range
    with pytest.raises(ValueError):
        Tabular(2, 1, {0: 0.3, 1: 0.5, 2: 0.1})  # empty set must be 0
    t = Tabular(2, 1, {0: 0.0, 1: 0.5, 2: 0.1})
    assert evaluate(t, ItemSet.of([0])) == 0.5


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
