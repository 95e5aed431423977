"""Subsets of the ground set, stored as bit masks.

An :class:`ItemSet` is an immutable subset of ``{0, ..., n-1}``.  Membership,
union with a single item and iteration are all O(1)/O(popcount) on the
underlying integer mask, and two sets compare equal iff their members are
equal regardless of construction order.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator


class ItemSet:
    """Immutable set of item indices backed by an integer bit mask."""

    __slots__ = ("mask",)

    def __init__(self, mask: int = 0):
        if mask < 0:
            raise ValueError("mask must be nonnegative")
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name, value):
        raise AttributeError("ItemSet is immutable")

    def __reduce__(self):
        return (ItemSet, (self.mask,))

    @classmethod
    def of(cls, items: Iterable[int]) -> "ItemSet":
        mask = 0
        for a in items:
            if a < 0:
                raise ValueError(f"negative item index {a}")
            mask |= 1 << a
        return cls(mask)

    @classmethod
    def empty(cls) -> "ItemSet":
        return cls(0)

    def members(self) -> tuple[int, ...]:
        return _members(self.mask)

    def with_item(self, a: int) -> "ItemSet":
        return ItemSet(self.mask | (1 << a))

    def issubset(self, other: "ItemSet") -> bool:
        return self.mask & ~other.mask == 0

    def render(self) -> str:
        """Sorted comma-joined indices; the empty set renders as ''."""
        return render_mask(self.mask)

    @classmethod
    def parse(cls, text: str) -> "ItemSet":
        text = text.strip()
        if not text:
            return cls(0)
        items = [int(part) for part in text.split(",")]
        if len(set(items)) != len(items):
            raise ValueError(f"duplicate items in {text!r}")
        return cls.of(items)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, a: int) -> bool:
        return a >= 0 and (self.mask >> a) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.members())

    def __eq__(self, other) -> bool:
        return isinstance(other, ItemSet) and self.mask == other.mask

    def __hash__(self) -> int:
        return hash(self.mask)

    def __lt__(self, other: "ItemSet") -> bool:
        return sort_key(self.mask) < sort_key(other.mask)

    def __repr__(self) -> str:
        return f"ItemSet({{{self.render()}}})"


def sort_key(mask: int) -> tuple[int, tuple[int, ...]]:
    """Canonical ordering: by cardinality, then lexicographic member tuple."""
    return (mask.bit_count(), _members(mask))


def feasible_count(n: int, k: int) -> int:
    """Number of subsets of size <= k of n items (0 for k < 0)."""
    return sum(math.comb(n, i) for i in range(k + 1))


def _members(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def render_mask(mask: int) -> str:
    return ",".join(str(a) for a in _members(mask))
