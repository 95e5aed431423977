import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import masks_upto
from submodbandit import ItemSet
from submodbandit.sets import ranked_keys, render_mask, sort_key


def test_equality_is_order_independent():
    assert ItemSet.of([3, 0, 5]) == ItemSet.of([5, 3, 0])
    assert ItemSet.of([0]) != ItemSet.of([1])
    assert hash(ItemSet.of([2, 4])) == hash(ItemSet.of([4, 2]))


def test_members_sorted_and_distinct():
    s = ItemSet.of([7, 1, 1, 4])
    assert s.members() == (1, 4, 7)
    assert len(s) == 3
    assert 4 in s and 2 not in s


def test_with_item_and_subset():
    s = ItemSet.of([1, 2])
    t = s.with_item(5)
    assert t.members() == (1, 2, 5)
    assert s.issubset(t)
    assert not t.issubset(s)
    assert s.with_item(1) == s


def test_render_empty_and_parse():
    assert ItemSet.empty().render() == ""
    assert ItemSet.parse("") == ItemSet.empty()
    assert ItemSet.parse("0,3,5").members() == (0, 3, 5)
    with pytest.raises(ValueError):
        ItemSet.parse("1,1")
    with pytest.raises(ValueError, match="mask must be nonnegative"):
        ItemSet(-1)
    with pytest.raises(ValueError, match="negative item index -1"):
        ItemSet.of([0, -1])


def test_immutable():
    s = ItemSet.of([1])
    with pytest.raises(AttributeError):
        s.mask = 3


def test_canonical_order():
    # smaller sets first, then lexicographic members
    a, b, c = ItemSet.of([0, 3]), ItemSet.of([1, 2]), ItemSet.of([9])
    assert sorted([b, a, c]) == [c, a, b]


@given(st.sets(st.integers(min_value=0, max_value=63)))
def test_roundtrip_members(items):
    s = ItemSet.of(items)
    assert set(s.members()) == set(items)
    assert ItemSet.of(s.members()) == s
    assert ItemSet.parse(s.render()) == s
    assert len(s) == len(items)


def test_pickle_and_deepcopy_roundtrip():
    s = ItemSet.of([1, 2])
    for again in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s), copy.copy(s)):
        assert again == s and type(again) is ItemSet
    with pytest.raises(AttributeError):
        pickle.loads(pickle.dumps(s)).mask = 0


@given(st.integers(min_value=0, max_value=10), st.integers(min_value=-2, max_value=12))
def test_masks_upto_is_every_small_mask_in_sort_key_order(n, k):
    expected = sorted((m for m in range(1 << n) if m.bit_count() <= k), key=sort_key)
    assert list(masks_upto(n, k)) == expected
    if 0 <= k <= n:  # the level walk lists them too, with their rendered keys
        assert ranked_keys(n, k) == (expected, [render_mask(m) for m in expected])

