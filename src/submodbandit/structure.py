"""Structural property checks over the feasible sets of a spec.

The feasible sets are the subsets of size <= k.  ``value_table(spec, k)``
lists them once, in ``sets.sort_key`` order, as a :class:`FeasibleTable`
indexed by rank: the masks, their values and, for every set S with |S| < k,
the rank of S + b for each item b.  Every exhaustive computation (the checks
below, the greedy chains and the benchmark DP) is a gather over that one
index, so the work grows with the number of feasible sets rather than with
2^n, and masks stay Python ints, so n > 62 is fine.  The table is kept in the
spec's own ``memo``.  Its only resource guard is a budget on the number of
feasible sets times n, checked before any array is allocated or any value is
computed.

A table is two parts.  The index, ``masks`` and ``extend``, depends only on
(n, k): ``_ranked_sets`` builds it and keeps the last one built, so the specs
of one shape (a base instance and its elevated variants) share one read-only
copy.  The values are the spec's own, filled by ``spec._values(masks, k)``.

The table is built one level at a time in numpy from the level below, with
no rank lookup, by the level walk ``sets.ranked_levels`` (which describes
the order): P + x has rank origin[P] + x for every x > last(P), where
origin[P] is P's first child's rank less last(P) + 1.  A row of ``extend``
is then

    extend[P, b] = -1                     if b in P
                 = origin[P] + b          if b > last(P)
                 = origin[R] + last(P)    otherwise,

where R = extend[parent(P), b], read from the level before, is parent(P) + b,
so P + b is R + last(P) with last(P) > last(R).  Each level's masks are its
parents' masks OR-ed with one bit each, on object arrays of Python ints.  The
values are one ``spec._value`` call per set unless the family fills them in
bulk: the harmonic families fill each level with one value, then set its
prefix set (the level's first rank) and the planted chain's sets.

Submodularity is checked through the pairwise condition

    f(S + a) - f(S) >= f(S + b + a) - f(S + b)

which is equivalent to the usual diminishing-returns inequality on the
truncated domain (telescope from A to B one element at a time; every
intermediate set stays within the cardinality cap).  A failing check names
the first violation in (rank, a[, b]) order as its witness.

Every whole-table pass (``best_extension``, ``curvature`` and the two checks)
walks the rows of ``extend`` in blocks of about ``_BLOCK_CELLS`` entries
(``FeasibleTable.blocks``), so no pass builds an array of every row times n:
a dense gather of ``values[extend]`` is 8 bytes a cell, 80 MB at (19, 19),
several times over, where a block is 128 KB.  Blocks go in rank order, so a
check stops at the first block that holds a violation, and that block holds
the first one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator

import numpy as np

from .errors import GroundSetTooLarge
from .functions import SetFunction
from .sets import ItemSet, feasible_count, ranked_levels

# feasible sets times n: the bits of all masks, and a bound on every per-item
# loop over the table.  At n=19, k=19 (524,288 sets, the largest admitted) the
# build takes about 0.2 s and a fresh interpreter peaks at 118 MB, and
# ``verify.run_checks`` on it takes about 1.9 s and peaks at 122 MB, since
# the checks walk the table in blocks (2-CPU Xeon); at k=1 and k=2 the build
# stays under 0.05 s and 35 MB
MAX_TABLE_BITS = 10_000_000
CHECK_TOL = 1e-12
# entries of ``extend`` per block of a whole-table pass (``FeasibleTable.blocks``):
# a float64 temporary of one block is 128 KB
_BLOCK_CELLS = 2**14


@dataclass(frozen=True, eq=False)
class FeasibleTable:
    """The sets of size <= k, indexed by their rank in ``sort_key`` order.

    ``extend[r, b]`` is the rank of ``masks[r] + b`` for every r with
    |masks[r]| < k, and -1 when b is already in ``masks[r]``.  ``masks`` and
    the read-only ``extend`` are shared with the tables of other specs over
    the same (n, k); ``values`` is this spec's own.
    """

    n: int
    masks: tuple[int, ...]
    values: np.ndarray
    extend: np.ndarray

    def level(self, size: int) -> slice:
        """Ranks of the sets of exactly ``size`` items."""
        return slice(feasible_count(self.n, size - 1), feasible_count(self.n, size))

    def blocks(self, stop: int | None = None) -> Iterator[slice]:
        """The ranks below ``stop`` (every row of ``extend`` by default), in
        ascending blocks of about ``_BLOCK_CELLS`` entries of ``extend``."""
        stop = len(self.extend) if stop is None else stop
        step = max(1, _BLOCK_CELLS // max(1, self.n))
        for lo in range(0, stop, step):
            yield slice(lo, min(lo + step, stop))

    def grown(self, ranks) -> np.ndarray:
        """values[extend[ranks]], with -inf where the item is already in the set."""
        ext = self.extend[ranks]
        out = self.values[ext]
        out[ext < 0] = -np.inf
        return out

    @cached_property
    def best_extension(self) -> np.ndarray:
        """max over b not in S of f(S + b), for every S with |S| < k."""
        best = np.empty(len(self.extend))
        for rows in self.blocks():
            self.grown(rows).max(axis=1, out=best[rows])
        return best

    @cached_property
    def curvature(self) -> float:
        """Total curvature: 1 minus the worst marginal-to-singleton ratio.

        Pairs whose singleton value is 0 are skipped (monotone + submodular
        forces the marginal to 0 there); if every singleton is worth 0, or
        no set can grow (k = 0), it is 0.
        """
        if not len(self.extend):
            return 0.0  # k = 0: no set can grow
        single = self.values[self.extend[0]]  # row 0 is the empty set
        positive = single > 0.0
        if not positive.any():
            return 0.0  # every singleton is worth 0
        scale = np.where(positive, single, 1.0)
        worst = math.inf
        for rows in self.blocks():
            ext = self.extend[rows]
            ratios = self.values[ext]
            ratios -= self.values[rows, None]
            ratios /= scale
            counted = ext >= 0
            counted &= positive
            worst = min(worst, float(ratios.min(where=counted, initial=math.inf)))
        return 1.0 - worst


def value_table(spec: SetFunction, k: int) -> FeasibleTable:
    """The feasible-set table of ``spec`` up to size k, built once per spec."""
    if k > spec.k_max:
        raise ValueError(f"k={k} exceeds the spec's k_max={spec.k_max}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    count = 0
    for size in range(k + 1):  # stops at the first size over the budget
        count += math.comb(spec.n, size)
        if count * spec.n > MAX_TABLE_BITS:
            raise GroundSetTooLarge(
                f"the sets of size <= {k} over n={spec.n} items exceed the budget: "
                f"feasible sets times n must stay <= {MAX_TABLE_BITS}"
            )
    key = ("value_table", k)
    if key not in spec.memo:
        masks, extend = _ranked_sets(spec.n, k)
        spec.memo[key] = FeasibleTable(spec.n, masks, spec._values(masks, k), extend)
    return spec.memo[key]


# one index at (19, 19) is about 60 MB, so only the last shape built is kept
@lru_cache(maxsize=1)
def _ranked_sets(n: int, k: int) -> tuple[tuple[int, ...], np.ndarray]:
    """The masks of size <= k in ``sort_key`` order and their read-only
    extend table, built one level at a time from the level below
    (``sets.ranked_levels``; see the module docstring)."""
    extend = np.empty((feasible_count(n, k - 1), n), dtype=np.int32)
    origin = np.empty(len(extend), dtype=np.int32)  # the rank of P + x, less x
    items = np.arange(n, dtype=np.int32)
    masks = [0]
    level_last = np.full(1, -1, dtype=np.int32)
    lo = 0
    # the rows of each level, from the ranks of its children
    for size, (offset, parent_next, last_next, level_masks) in enumerate(ranked_levels(n, k)):
        hi = lo + len(level_last)
        origin[lo:hi] = hi + offset
        rows, last_p = extend[lo:hi], level_last[:, None]
        if size:
            up = extend[parent]  # parent(P) + b, -1 if b is in parent(P)
            np.take(origin, up, out=rows, mode="wrap")  # the -1 entries are reset below
            rows += last_p
            rows[up < 0] = -1
            rows[np.arange(hi - lo), level_last] = -1  # b = last(P)
            del up
        np.add(origin[lo:hi, None], items, out=rows, where=items > last_p)
        masks.extend(level_masks.tolist())
        parent, level_last = parent_next + lo, last_next
        lo = hi
    extend.flags.writeable = False
    return tuple(masks), extend


@dataclass(frozen=True)
class MonotoneResult:
    ok: bool
    witness: tuple[ItemSet, int] | None = None


@dataclass(frozen=True)
class SubmodularResult:
    ok: bool
    witness: tuple[ItemSet, ItemSet, int] | None = None


def check_monotone(spec: SetFunction, k: int) -> MonotoneResult:
    """ok iff f(A) <= f(A + a) + CHECK_TOL for all |A| < k, a not in A."""
    table = value_table(spec, k)
    for rows in table.blocks():
        ext = table.extend[rows]
        drops = table.values[ext] < table.values[rows, None] - CHECK_TOL
        drops &= ext >= 0
        if drops.any():
            r, a = np.unravel_index(np.argmax(drops), drops.shape)
            return MonotoneResult(False, (ItemSet(table.masks[rows.start + r]), int(a)))
    return MonotoneResult(True)


def check_submodular(spec: SetFunction, k: int) -> SubmodularResult:
    """ok iff marginal gains never grow with the base set.

    The witness, when present, is a triple (A, B, a) with A subset of B,
    a outside B and f(A + a) - f(A) < f(B + a) - f(B) - CHECK_TOL.
    """
    table = value_table(spec, k)
    vals = table.values
    for rows in table.blocks(feasible_count(spec.n, k - 2)):
        ext = table.extend[rows]
        at_b = vals[ext]  # f(A + b); the b in A are masked by grown below
        first = None  # (row of A in the block, a, b) of the block's first violation
        for a in range(spec.n):
            with_a = ext[:, a]
            keep = with_a >= 0
            base, with_a = np.flatnonzero(keep), with_a[keep]
            gain_small = vals[with_a] - vals[rows][keep]
            # b ranges over items outside A + a; extend[with_a] is -1 elsewhere
            gain_large = table.grown(with_a)
            gain_large -= at_b[keep]
            gain_large -= CHECK_TOL
            bad = gain_small[:, None] < gain_large
            if bad.any():
                i, b = np.unravel_index(np.argmax(bad), bad.shape)
                if first is None or base[i] < first[0]:
                    first = (int(base[i]), a, int(b))
        if first is not None:
            i, a, b = first
            mask = table.masks[rows.start + i]
            return SubmodularResult(False, (ItemSet(mask), ItemSet(mask | (1 << b)), a))
    return SubmodularResult(True)


def curvature(spec: SetFunction, k: int) -> float:
    """Total curvature of ``spec`` up to size k (``FeasibleTable.curvature``)."""
    return value_table(spec, k).curvature


def approx_ratio(c: float) -> float:
    """Greedy approximation ratio (1 - e^{-c}) / c, extended to 1 at c = 0."""
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"curvature must lie in [0, 1]; got {c}")
    if c == 0.0:
        return 1.0
    return (1.0 - math.exp(-c)) / c
