"""Stochastic bandit oracle around a noiseless set function.

A :class:`BanditEnv` owns one seeded Gaussian noise stream and records every
pull with the pulled set's true value.  Identical (spec, sigma, seed) and
identical pull sequences produce bit-identical reward sequences.  A single
pull (``pull``) and a policy run, which the lockstep engine draws in blocks
(``fill_noise``) and hands to the env's record chunk by chunk
(``trajectory.extend``), read that stream alike, one value per pull in pull
order: the generator's normal stream does not depend on how the draws are
chunked.  Rewards are *not* clipped: the mean lies in [0, 1] but
observations may leave it.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter

import numpy as np

from .functions import SetFunction
from .sets import ItemSet, render_mask
from .structure import FeasibleTable


class Trajectory:
    """Time-ordered record of pulled sets, their true values and the rewards.

    The record is compact: ``_masks`` lists sets and ``_values`` their true
    values, and the first ``_len`` entries of ``_codes`` and ``_rewards``
    hold each step's position in that table and its reward.  ``extend``
    appends a chunk of a run coded as ranks of its feasible-set table, which
    an empty trajectory takes by reference; ``append`` adds one pull, and
    first copies such a table into a list of its own.  ``to_csv`` writes the
    sets and rewards; the CSV form holds no values, so it is write-only.
    """

    __slots__ = ("_masks", "_values", "_codes", "_rewards", "_len")

    def __init__(self):
        self._masks: list[int] | tuple[int, ...] = []
        self._values: list[float] | np.ndarray = []
        self._codes = np.empty(0, np.int32)
        self._rewards = np.empty(0)
        self._len = 0

    def _store(self, codes, rewards) -> None:
        """Append steps coded in the current table; the arrays grow by doubling."""
        end = self._len + len(codes)
        if end > self._codes.size:
            size = max(end, 2 * self._codes.size, 64)
            self._codes, self._rewards = np.resize(self._codes, size), np.resize(self._rewards, size)
        self._codes[self._len : end] = codes
        self._rewards[self._len : end] = rewards
        self._len = end

    def append(self, mask: int, value: float, reward: float) -> None:
        """Append one step: the set ``mask``, worth ``value``, observed ``reward``."""
        if isinstance(self._values, np.ndarray):  # a run's table: add to a copy of it
            self._masks, self._values = list(self._masks), self._values.tolist()
        self._masks.append(mask)
        self._values.append(value)
        self._store([len(self._masks) - 1], [reward])

    def extend(self, table: FeasibleTable, codes: np.ndarray, rewards: np.ndarray) -> None:
        """Append one chunk of a run, one step per code: step i pulled the set
        of rank ``codes[i]`` in ``table`` and observed ``rewards[i]``; both
        arrays are copied.  ValueError if the trajectory's earlier steps are
        coded in any other table."""
        if not self._len:
            self._masks, self._values = table.masks, table.values
        elif self._values is not table.values:
            raise ValueError("extend needs the table of the trajectory's earlier steps")
        self._store(codes, rewards)

    def __len__(self) -> int:
        return self._len

    def masks(self) -> list[int]:
        table = self._masks
        return [table[c] for c in self._codes[: self._len].tolist()]

    def rewards(self) -> list[float]:
        return self._rewards[: self._len].tolist()

    def values(self) -> np.ndarray:
        """The true value of every step's set, as a float64 array."""
        return np.asarray(self._values, np.float64)[self._codes[: self._len]]

    def mask_counts(self) -> Counter[int]:
        """Pulls per mask, keyed in order of first pull."""
        used, first, counts = np.unique(
            self._codes[: self._len], return_index=True, return_counts=True
        )
        order = np.argsort(first)
        out: Counter[int] = Counter()
        for code, count in zip(used[order].tolist(), counts[order].tolist()):
            out[self._masks[code]] += count
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
