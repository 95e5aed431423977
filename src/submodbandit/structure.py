"""Structural property checks for set functions on small ground sets.

Everything here enumerates subsets exhaustively, so the ground set is capped
at n <= 24.  Values are materialized once into a dense table indexed by bit
mask (NaN above the cardinality cap) and the checks run vectorized over the
sets within the cap.  The table is kept in the spec's own ``memo``, so it
lives exactly as long as the spec does; ``popcounts`` and
``best_extension_table`` are rebuilt on each call, since keeping them would
hold two more 2^n arrays per spec.

Submodularity is checked through the pairwise condition

    f(S + a) + f(S + b) >= f(S + a + b) + f(S)

which is equivalent to the usual diminishing-returns inequality on the
truncated domain (telescope from A to B one element at a time; every
intermediate set stays within the cardinality cap).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CardinalityExceeded, GroundSetTooLarge
from .functions import SetFunction
from .sets import ItemSet, masks_upto

MAX_EXHAUSTIVE_N = 24
CHECK_TOL = 1e-12


def _guard(spec: SetFunction, k: int) -> None:
    if spec.n > MAX_EXHAUSTIVE_N:
        raise GroundSetTooLarge(f"n={spec.n} exceeds the exhaustive cap {MAX_EXHAUSTIVE_N}")
    if k > spec.k_max:
        raise CardinalityExceeded(f"k={k} exceeds the spec's k_max={spec.k_max}")
    if k < 0:
        raise ValueError("k must be nonnegative")


def popcounts(n: int) -> np.ndarray:
    """Vector of popcounts for all masks in [0, 2^n)."""
    idx = np.arange(1 << n, dtype=np.uint32)
    pc = np.zeros(1 << n, dtype=np.int8)
    for a in range(n):
        pc += ((idx >> a) & 1).astype(np.int8)
    return pc


def value_table(spec: SetFunction, k: int) -> np.ndarray:
    """Dense table of f over all masks with popcount <= k (NaN elsewhere)."""
    _guard(spec, k)
    key = ("value_table", k)
    if key not in spec.memo:
        vals = np.full(1 << spec.n, np.nan)
        for mask in masks_upto(spec.n, k):
            vals[mask] = spec._value(mask)
        spec.memo[key] = vals
    return spec.memo[key]


def _mask_array(n: int, size: int) -> np.ndarray:
    """``masks_upto(n, size)`` as an int64 array, for the vectorized checks."""
    return np.fromiter(masks_upto(n, size), dtype=np.int64)


def best_extension_table(vals: np.ndarray, n: int, k: int) -> np.ndarray:
    """best_ext[S] = max_{b not in S} f(S + b) for popcount(S) <= k - 1."""
    pc = popcounts(n)
    best = np.full(1 << n, -np.inf)
    for b in range(n):
        bit = 1 << b
        without = (np.arange(1 << n) & bit) == 0
        grow = np.where(without, vals[np.arange(1 << n) | bit], -np.inf)
        best = np.maximum(best, grow)
    best[pc > k - 1] = np.nan
    return best


@dataclass(frozen=True)
class MonotoneResult:
    ok: bool
    witness: tuple[ItemSet, int] | None = None


@dataclass(frozen=True)
class SubmodularResult:
    ok: bool
    witness: tuple[ItemSet, ItemSet, int] | None = None


def check_monotone(spec: SetFunction, k: int, tol: float = CHECK_TOL) -> MonotoneResult:
    """ok iff f(A) <= f(A + a) + tol for all |A| < k, a not in A."""
    vals = value_table(spec, k)
    n = spec.n
    small = _mask_array(n, k - 1)
    for a in range(n):
        bit = 1 << a
        masks = small[small & bit == 0]
        if np.any(vals[masks | bit] < vals[masks] - tol):
            return MonotoneResult(False, _monotone_witness(vals, n, k, tol))
    return MonotoneResult(True)


def _monotone_witness(vals, n, k, tol):
    for mask in masks_upto(n, k - 1):
        for a in range(n):
            bit = 1 << a
            if mask & bit:
                continue
            if vals[mask | bit] < vals[mask] - tol:
                return (ItemSet(mask), a)
    return None


def check_submodular(spec: SetFunction, k: int, tol: float = CHECK_TOL) -> SubmodularResult:
    """ok iff marginal gains never grow with the base set.

    The witness, when present, is a triple (A, B, a) with A subset of B,
    a outside B and f(A + a) - f(A) < f(B + a) - f(B) - tol.
    """
    vals = value_table(spec, k)
    n = spec.n
    small = _mask_array(n, k - 2)
    for a in range(n):
        abit = 1 << a
        for b in range(a + 1, n):
            bbit = 1 << b
            masks = small[small & (abit | bbit) == 0]
            lhs = vals[masks | abit] + vals[masks | bbit]
            rhs = vals[masks | abit | bbit] + vals[masks]
            if np.any(lhs < rhs - tol):
                return SubmodularResult(False, _submodular_witness(vals, n, k, tol))
    return SubmodularResult(True)


def _submodular_witness(vals, n, k, tol):
    for mask in masks_upto(n, k - 2):
        for a in range(n):
            abit = 1 << a
            if mask & abit:
                continue
            for b in range(n):
                if b == a:
                    continue
                bbit = 1 << b
                if mask & bbit:
                    continue
                gain_small = vals[mask | abit] - vals[mask]
                gain_large = vals[mask | abit | bbit] - vals[mask | bbit]
                if gain_small < gain_large - tol:
                    return (ItemSet(mask), ItemSet(mask | bbit), a)
    return None


def curvature(spec: SetFunction, k: int) -> float:
    """Total curvature: 1 minus the worst marginal-to-singleton ratio.

    Pairs whose singleton value is 0 are skipped (monotone + submodular
    forces the marginal to 0 there); if every singleton is worth 0 the
    function returns 0.
    """
    vals = value_table(spec, k)
    n = spec.n
    small = _mask_array(n, k - 1)
    worst = np.inf
    for a in range(n):
        bit = 1 << a
        single = vals[bit]
        if single <= 0.0:
            continue
        masks = small[small & bit == 0]
        if masks.size == 0:
            continue
        ratios = (vals[masks | bit] - vals[masks]) / single
        worst = min(worst, float(ratios.min()))
    if math.isinf(worst):
        return 0.0  # every singleton is worth 0
    return 1.0 - worst


def approx_ratio(c: float) -> float:
    """Greedy approximation ratio (1 - e^{-c}) / c, extended to 1 at c = 0."""
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"curvature must lie in [0, 1]; got {c}")
    if c == 0.0:
        return 1.0
    return (1.0 - math.exp(-c)) / c
