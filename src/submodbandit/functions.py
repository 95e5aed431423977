"""Noiseless reward functions over subsets of a ground set.

Four families are supported:

* ``Tabular`` -- an explicit table of values for every subset up to a
  cardinality cap, the catch-all representation.
* ``WeightedCover`` -- the weight of the blocks of a fixed partition touched
  by the chosen set.
* ``UniqueGreedyPath`` -- harmonic rewards along the prefix chain
  {0}, {0,1}, ... with a flat penalty off the chain, so greedy selection has
  exactly one path to the top.
* ``HarmonicInstance`` -- the hard family used for worst-case experiments:
  harmonic rewards with one chain elevated by a tunable gap ``delta``
  (either the prefix chain itself, or a planted chain through items >= k).

All values live in [0, 1] and the empty set is worth 0 for the structured
families.  Every spec is immutable; the tables derived from it (the
rank-indexed table of the feasible sets, the exact benchmarks) live in its
own ``memo``.

A ``Tabular`` table crosses JSON by its canonical keys, ``sets.ranked_keys``
(sorted, comma-joined items, built level by level in ``sort_key`` order and
never cached).  ``to_json`` zips them with the table's own values;
``spec_from_json`` maps each key of a table with the entry count of its
(n, k_max) to its mask by one dict lookup, and parses only a key missing
from them, so every refusal and its order are those of the parser.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Mapping

import numpy as np

from .sets import ItemSet, feasible_count, ranked_keys, render_mask


def is_int(value) -> bool:
    """True for a JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """True for a JSON number (not a bool) that a float holds finitely."""
    return (is_int(value) or isinstance(value, float)) and (
        -sys.float_info.max <= value <= sys.float_info.max
    )


class SetFunction:
    """Base class; concrete specs implement ``_value`` on raw masks.

    ``_values(masks, k)`` gives the values of the feasible-set table's masks
    (every set of size <= k, in ``sets.sort_key`` order) as one float64
    array.  The default is one ``_value`` call per mask; a family may
    override it with a bulk fill, which must equal that loop bit for bit.

    ``memo`` is one dict per instance for tables derived from the spec.  It
    sits in the instance ``__dict__``, which a frozen dataclass leaves
    writable, and pickling drops it, so a spec sent to a worker process
    carries only its own fields.
    """

    n: int

    @property
    def memo(self) -> dict:
        return self.__dict__.setdefault("_memo", {})

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_memo", None)
        return state

    @property
    def k_max(self) -> int:
        raise NotImplementedError

    def _value(self, mask: int) -> float:
        raise NotImplementedError

    def _values(self, masks: tuple[int, ...], k: int) -> np.ndarray:
        return np.fromiter(map(self._value, masks), float, len(masks))

    def value_of_mask(self, mask: int) -> float:
        """Validated evaluation on a raw bit mask."""
        if mask >> self.n:
            raise ValueError(f"set {render_mask(mask)} has items >= n={self.n}")
        if mask.bit_count() > self.k_max:
            raise ValueError(f"|S|={mask.bit_count()} exceeds k_max={self.k_max}")
        return self._value(mask)

    def to_json(self) -> dict:
        raise NotImplementedError


def evaluate(spec: SetFunction, items: ItemSet) -> float:
    """Exact, noise-free value of ``items`` under ``spec``."""
    return spec.value_of_mask(items.mask)


def harmonic_tail(k: int, size: int) -> float:
    """H_{size+k} - H_k, i.e. sum of 1/(k+i) for i = 1..size."""
    return sum((1.0 / (k + i) for i in range(1, size + 1)), 0.0)


@dataclass(frozen=True)
class Tabular(SetFunction):
    """Explicit value table covering every subset of cardinality <= k_max."""

    n: int
    k_max_: int
    table: Mapping[int, float] = field(repr=False)

    def __post_init__(self):
        if not 0 <= self.k_max_ <= self.n:
            raise ValueError(f"k_max must lie in [0, n]; got {self.k_max_}")
        entries = len(self.table)
        needed = _complete_size(self.n, self.k_max_, entries)
        if needed != entries:
            need = f"more than {entries}" if needed is None else needed
            raise ValueError(
                f"table has {entries} entries; a complete table up to "
                f"cardinality {self.k_max_} over n={self.n} needs {need}"
            )
        for mask, v in self.table.items():
            if mask >> self.n:
                raise ValueError(f"table key {render_mask(mask)} exceeds n={self.n}")
            if mask.bit_count() > self.k_max_:
                raise ValueError(
                    f"table key {render_mask(mask)} larger than k_max={self.k_max_}"
                )
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"value {v} for {render_mask(mask)} outside [0, 1]")
        if self.table.get(0, 0.0) != 0.0:
            raise ValueError("the empty set must have value 0")

    @property
    def k_max(self) -> int:
        return self.k_max_

    def _value(self, mask: int) -> float:
        return self.table[mask]

    def to_json(self) -> dict:
        # the canonical keys, in rank order, with the table's own values
        masks, keys = ranked_keys(self.n, self.k_max_)
        table = dict(zip(keys, map(self.table.__getitem__, masks)))
        return {"kind": "tabular", "n": self.n, "k_max": self.k_max_, "table": table}


def _complete_size(n: int, k_max: int, entries: int) -> int | None:
    """The entries of a complete table up to cardinality k_max over n items,
    or None once the count of the sizes below k_max passes ``entries``, so
    a huge k_max costs no more than the table."""
    needed = 0
    for size in range(k_max + 1):
        if needed > entries:
            return None
        needed += math.comb(n, size)
    return needed


@dataclass(frozen=True)
class WeightedCover(SetFunction):
    """Sum of block weights over blocks intersected by the chosen set.

    ``blocks`` must partition [0, n); weights are nonnegative and sum to at
    most 1 so values stay inside [0, 1].
    """

    n: int
    blocks: tuple[tuple[int, ...], ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in self.blocks))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(self.blocks) != len(self.weights):
            raise ValueError("one weight per block required")
        seen = 0
        for block in self.blocks:
            bmask = 0
            for a in block:
                if not 0 <= a < self.n:
                    raise ValueError(f"block item {a} outside [0, {self.n})")
                bmask |= 1 << a
            if not block or bmask.bit_count() != len(block):
                raise ValueError("blocks must be nonempty and hold distinct items")
            if bmask & seen:
                raise ValueError("blocks must be disjoint")
            seen |= bmask
        if seen.bit_count() != self.n:
            raise ValueError("blocks must cover the whole ground set")
        if not all(0 <= w < math.inf for w in self.weights):
            raise ValueError("weights must be finite and nonnegative")
        if sum(self.weights) > 1.0 + 1e-12:
            raise ValueError("weights must sum to at most 1")
        object.__setattr__(
            self,
            "_block_masks",
            tuple(sum(1 << a for a in block) for block in self.blocks),
        )

    @property
    def k_max(self) -> int:
        return self.n

    def _value(self, mask: int) -> float:
        total = 0.0
        for bmask, w in zip(self._block_masks, self.weights):
            if mask & bmask:
                total += w
        return total

    def to_json(self) -> dict:
        return {
            "kind": "weighted_cover",
            "n": self.n,
            "blocks": [list(b) for b in self.blocks],
            "weights": list(self.weights),
        }


class _Harmonic(SetFunction):
    """What the two harmonic families share: the checks 1 <= k <= n and
    0 < delta < inf, k_max = k, the level table ``_base[s]`` =
    H_{s+k} - H_k for s = 0..k, and the values.  Each subclass is a dataclass
    with fields n, k and delta, and gives the gap ``_gap(s)`` of a set of
    size s off the prefix chain.  A set of the planted chain
    ``_chain_masks`` (size -> mask; none but on an elevated instance) is
    worth _base[s] + _gap(s), a prefix set {0, ..., s-1} _base[s], and any
    other set of size s _base[s] - _gap(s)."""

    k: int
    delta: float
    _chain_masks: Mapping[int, int] = {}

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n; got k={self.k}, n={self.n}")
        if not 0 < self.delta < math.inf:
            raise ValueError(f"delta must be finite and positive; got {self.delta}")

    @cached_property
    def _base(self) -> tuple[float, ...]:
        # a running sum, bit-identical to harmonic_tail(k, s) at every s; built
        # on the first evaluation, so a k that value_table refuses costs nothing
        return tuple(accumulate((1.0 / (self.k + i) for i in range(1, self.k + 1)), initial=0.0))

    @property
    def k_max(self) -> int:
        return self.k

    def _value(self, mask: int) -> float:
        s = mask.bit_count()
        base = self._base[s]
        if self._chain_masks.get(s) == mask:
            return base + self._gap(s)
        if mask == (1 << s) - 1:
            return base
        return base - self._gap(s)

    def _values(self, masks: tuple[int, ...], k: int) -> np.ndarray:
        # each level is worth _base[s] - _gap(s) but for its first set, the
        # prefix {0, ..., s-1}; the planted chain wins over the prefix
        values = np.empty(len(masks))
        lo = 0
        for s in range(k + 1):
            hi = lo + math.comb(self.n, s)
            values[lo:hi] = self._base[s] - self._gap(s)
            values[lo] = self._base[s]
            lo = hi
        for s, planted in self._chain_masks.items():
            if s <= k:
                lo = feasible_count(self.n, s - 1)
                rank = masks.index(planted, lo, lo + math.comb(self.n, s))
                values[rank] = self._base[s] + self._gap(s)
        return values


@dataclass(frozen=True)
class UniqueGreedyPath(_Harmonic):
    """Harmonic chain rewards with a flat penalty off the prefix chain.

    Prefix sets {0, ..., s-1} are worth H_{s+k} - H_k; every other set of
    size s is worth the same minus ``delta``.  Greedy selection therefore
    follows the single path {0} -> {0,1} -> ... -> {0,...,k-1}.
    """

    n: int
    k: int
    delta: float = 0.01

    def _gap(self, s: int) -> float:
        return self.delta

    def to_json(self) -> dict:
        return {
            "kind": "unique_greedy_path",
            "n": self.n,
            "k": self.k,
            "delta": self.delta,
        }


@dataclass(frozen=True)
class HarmonicInstance(_Harmonic):
    """Harmonic-reward hard instance with one delta-elevated chain.

    The base variant rewards the prefix chain {0,...,s-1} with
    H_{s+k} - H_k, penalizes every other size-k set by ``delta`` and every
    other smaller set by ``delta/k``.  The elevated variant additionally
    plants a chain that follows the prefix for ``prefix_len`` items and then
    runs through ``tail`` (distinct items drawn from [k, n)); sets along the
    planted chain gain ``delta/k`` and the full planted set gains ``delta``.
    """

    n: int
    k: int
    delta: float
    prefix_len: int | None = None
    tail: tuple[int, ...] | None = None

    def __post_init__(self):
        super().__post_init__()
        if (self.prefix_len is None) != (self.tail is None):
            raise ValueError("prefix_len and tail must be given together")
        if self.tail is not None:
            object.__setattr__(self, "tail", tuple(self.tail))
            p = self.prefix_len
            if not 0 <= p <= self.k:
                raise ValueError(f"prefix_len must lie in [0, k]; got {p}")
            if len(self.tail) != self.k - p:
                raise ValueError(
                    f"tail needs exactly k - prefix_len = {self.k - p} items"
                )
            if len(set(self.tail)) != len(self.tail):
                raise ValueError("tail items must be distinct")
            for a in self.tail:
                if not self.k <= a < self.n:
                    raise ValueError(f"tail item {a} outside [k, n) = [{self.k}, {self.n})")
            chain = {}
            mask = (1 << p) - 1
            for a in self.tail:
                mask |= 1 << a
                chain[mask.bit_count()] = mask
            if p == self.k:
                chain[self.k] = mask  # planted chain degenerates to the prefix
            object.__setattr__(self, "_chain_masks", chain)

    @property
    def is_elevated(self) -> bool:
        return self.tail is not None

    def _gap(self, s: int) -> float:
        return self.delta if s == self.k else self.delta / self.k

    def to_json(self) -> dict:
        doc = {
            "kind": "harmonic",
            "n": self.n,
            "k": self.k,
            "delta": self.delta,
            "variant": "elevated" if self.is_elevated else "base",
        }
        if self.is_elevated:
            doc["prefix_len"] = self.prefix_len
            doc["tail"] = list(self.tail)
        return doc


_FIELDS = {
    "tabular": ("n", "k_max", "table"),
    "weighted_cover": ("n", "blocks", "weights"),
    "unique_greedy_path": ("n", "k", "delta"),
    "harmonic": ("n", "k", "delta", "variant"),
    "harmonic elevated": ("n", "k", "delta", "variant", "prefix_len", "tail"),
}


def _field(doc: dict, key: str, ok, need: str):
    if key not in doc:
        raise ValueError(f"missing field '{key}'")
    value = doc[key]
    if not ok(value):
        raise ValueError(f"field '{key}': need {need}; got {value!r}")
    return value


def _int_list(value) -> bool:
    return isinstance(value, list) and all(is_int(a) for a in value)


def _table_mask(key, bound: int) -> int:
    """Mask of a table key: sorted, distinct, comma-joined items below ``bound``."""
    try:
        items = [int(part) for part in key.split(",")] if key else []
    except (AttributeError, ValueError):
        items = None
    if (
        items is None
        or ",".join(map(str, items)) != key
        or items != sorted(set(items))
        or any(not 0 <= a < bound for a in items)
    ):
        raise ValueError(
            f"field 'table': key {key!r} is not a sorted, comma-joined list of "
            "distinct items of a complete table"
        )
    return sum(1 << a for a in items)


def spec_from_json(doc) -> SetFunction:
    """Rebuild a spec from its JSON form (see each class's ``to_json``).

    The decode is strict: the document is an object holding exactly the keys
    of its kind (and harmonic variant), integer fields are JSON integers and
    float fields finite numbers (JSON integers are stored as floats).  A
    violation raises ValueError naming the field; the constructors then check
    the values themselves.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"a function must be a JSON object; got {type(doc).__name__}")
    kind = doc.get("kind")
    variant = None
    if kind == "harmonic":
        variant = _field(
            doc, "variant", lambda v: v in ("base", "elevated"), "'base' or 'elevated'"
        )
    name = "harmonic elevated" if variant == "elevated" else kind
    allowed = _FIELDS.get(name) if isinstance(name, str) else None
    if allowed is None:
        raise ValueError(f"field 'kind': unknown spec kind {kind!r}")
    unknown = [key for key in doc if key != "kind" and key not in allowed]
    if unknown:
        raise ValueError(f"field {unknown[0]!r}: not a field of a {kind} function")
    n = _field(doc, "n", is_int, "an integer")
    if kind == "tabular":
        k_max = _field(doc, "k_max", is_int, "an integer")
        table = _field(doc, "table", lambda t: isinstance(t, dict), "an object")
        # a complete table lists every singleton, so its items lie below its size
        bound = min(n, len(table))
        canonical = {}  # key -> mask of every set of a table of this size
        if 0 <= k_max <= n and _complete_size(n, k_max, len(table)) == len(table):
            masks, keys = ranked_keys(n, k_max)
            canonical = dict(zip(keys, masks))
        values = {}
        for key, v in table.items():
            if not is_finite_number(v):
                raise ValueError(
                    f"field 'table': value of {key!r}: need a finite number; got {v!r}"
                )
            mask = canonical.get(key)
            values[_table_mask(key, bound) if mask is None else mask] = float(v)
        return Tabular(n, k_max, values)
    if kind == "weighted_cover":
        blocks = _field(
            doc, "blocks", lambda b: isinstance(b, list) and all(map(_int_list, b)),
            "a list of lists of integers",
        )
        weights = _field(
            doc, "weights", lambda w: isinstance(w, list) and all(map(is_finite_number, w)),
            "a list of finite numbers",
        )
        return WeightedCover(n, tuple(tuple(b) for b in blocks), tuple(map(float, weights)))
    k = _field(doc, "k", is_int, "an integer")
    delta = float(_field(doc, "delta", is_finite_number, "a finite number"))
    if kind == "unique_greedy_path":
        return UniqueGreedyPath(n, k, delta)
    if variant == "base":
        return HarmonicInstance(n, k, delta)
    return HarmonicInstance(
        n,
        k,
        delta,
        _field(doc, "prefix_len", is_int, "an integer"),
        tuple(_field(doc, "tail", _int_list, "a list of integers")),
    )
