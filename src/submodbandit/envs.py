"""Stochastic bandit oracle around a noiseless set function.

A :class:`BanditEnv` owns one seeded Gaussian noise stream and records every
pull with the pulled set's true value.  Identical (spec, sigma, seed) and
identical pull sequences produce bit-identical reward sequences.  A single
pull (``pull``) and a policy run, which the lockstep engine draws in blocks
(``fill_noise``) and records once on a fresh env (``Trajectory.extend``),
read that stream alike, one value per pull in pull order: the generator's
normal stream does not depend on how the draws are chunked.  Rewards are
*not* clipped: the mean lies in [0, 1] but observations may leave it.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from collections import Counter

import numpy as np

from .functions import SetFunction
from .sets import ItemSet, render_mask


class Trajectory:
    """Time-ordered record of pulled sets, their true values and the rewards.

    The record is compact: ``_table`` lists masks and ``_values`` their true
    values, one float per table entry, and the first ``_len`` entries of
    ``_codes`` (integers) and ``_rewards`` (float64) hold each step's position
    in the table and its reward; the arrays may have spare capacity.
    ``append`` adds one step; ``extend`` records a whole policy run on a
    fresh (empty) trajectory, without a Python object per step.
    ``to_csv`` writes the sets and rewards; the CSV form holds no values, so
    it is write-only.
    """

    __slots__ = ("_table", "_values", "_codes", "_rewards", "_len")

    def __init__(self):
        self._table: list[int] = []
        self._values = array("d")
        self._codes = np.empty(0, np.int32)
        self._rewards = np.empty(0)
        self._len = 0

    def _reserve(self, extra: int) -> None:
        need = self._len + extra
        if need > self._codes.size:
            size = max(need, 2 * self._codes.size, 64)
            codes, rewards = np.empty(size, np.int32), np.empty(size)
            codes[: self._len] = self._codes[: self._len]
            rewards[: self._len] = self._rewards[: self._len]
            self._codes, self._rewards = codes, rewards

    def append(self, mask: int, value: float, reward: float) -> None:
        """Append one step: the set ``mask``, worth ``value``, observed ``reward``."""
        self._reserve(1)
        self._codes[self._len] = len(self._table)
        self._rewards[self._len] = reward
        self._table.append(mask)
        self._values.append(value)
        self._len += 1

    def extend(
        self, table: list[int], values: np.ndarray, codes: np.ndarray, rewards: np.ndarray
    ) -> None:
        """Record a whole run on an empty trajectory, one step per code: step i
        pulled ``table[codes[i]]``, worth ``values[codes[i]]``, and observed
        ``rewards[i]``.  The code and reward arrays are kept without copying,
        so the caller must not write to them after.  ValueError on a
        trajectory that already has steps."""
        if self._len:
            raise ValueError(f"extend needs an empty trajectory; this one has {self._len} steps")
        self._codes, self._rewards = np.asarray(codes), np.asarray(rewards, np.float64)
        self._table = list(table)
        self._values = array("d", np.asarray(values, np.float64).tobytes())
        self._len = self._codes.size

    def __len__(self) -> int:
        return self._len

    def masks(self) -> list[int]:
        table = self._table
        return [table[c] for c in self._codes[: self._len].tolist()]

    def rewards(self) -> list[float]:
        return self._rewards[: self._len].tolist()

    def values(self) -> np.ndarray:
        """The true value of every step's set, as a float64 array."""
        return np.frombuffer(self._values)[self._codes[: self._len]]

    def mask_counts(self) -> Counter[int]:
        """Pulls per mask, keyed in order of first pull."""
        used, first, counts = np.unique(
            self._codes[: self._len], return_index=True, return_counts=True
        )
        order = np.argsort(first)
        out: Counter[int] = Counter()
        for code, count in zip(used[order].tolist(), counts[order].tolist()):
            out[self._table[code]] += count
        return out

    def steps(self):
        """Yield (t, ItemSet, reward) with t starting at 1."""
        for t, (mask, r) in enumerate(zip(self.masks(), self.rewards()), start=1):
            yield t, ItemSet(mask), r

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["t", "set", "reward"])
        for t, (mask, r) in enumerate(zip(self.masks(), self.rewards()), start=1):
            writer.writerow([t, render_mask(mask), f"{r:.17g}"])
        return buf.getvalue()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Trajectory)
            and self.masks() == other.masks()
            and self.rewards() == other.rewards()
        )


class BanditEnv:
    """Single-owner mutable bandit environment; one noise draw per pull."""

    def __init__(self, spec: SetFunction, sigma: float = 1.0, seed: int = 0):
        if not (math.isfinite(sigma) and sigma >= 0):
            raise ValueError(f"sigma must be finite and nonnegative; got {sigma}")
        self.spec = spec
        self.sigma = float(sigma)
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)
        self.trajectory = Trajectory()

    @property
    def t(self) -> int:
        return len(self.trajectory)

    def fill_noise(self, out: np.ndarray) -> None:
        """Fill ``out`` with the next ``out.size`` noise values, the ones that
        as many single pulls would consume."""
        self._rng.standard_normal(out=out)

    def pull(self, items: ItemSet) -> float:
        """Pull a set: observe its value plus Gaussian noise, record the step."""
        mask = items.mask
        value = self.spec.value_of_mask(mask)
        reward = value + self.sigma * float(self._rng.standard_normal())
        self.trajectory.append(mask, value, reward)
        return reward

    @property
    def pull_counts(self) -> Counter[ItemSet]:
        """Pulls per set, counted from the trajectory; the pull profile
        ``analysis.kl_between`` takes."""
        return Counter({ItemSet(mask): c for mask, c in self.trajectory.mask_counts().items()})

    def counts_by_cardinality(self) -> dict[int, int]:
        """Total pulls per set size; values sum to t."""
        out: dict[int, int] = {}
        for mask, count in self.trajectory.mask_counts().items():
            out[mask.bit_count()] = out.get(mask.bit_count(), 0) + count
        return out
