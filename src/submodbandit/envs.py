"""Stochastic bandit oracle around a noiseless set function.

A :class:`BanditEnv` owns one seeded Gaussian noise stream and records every
pull.  Identical (spec, sigma, seed) and identical pull sequences produce
bit-identical reward sequences.  A single pull (``pull``) and a block of pulls
recorded by the lockstep policy engine (``fill_noise`` and
``Trajectory.extend``) read that stream alike, one value per pull in pull
order: the generator's normal stream does not depend on how the draws are
chunked.  Rewards are *not* clipped: the mean lies in [0, 1] but observations
may leave the interval.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from typing import Callable

import numpy as np

from .errors import NegativeSigma
from .functions import SetFunction
from .sets import ItemSet, render_mask


class Trajectory:
    """Time-ordered record of pulled sets and observed rewards.

    The record is compact: ``_table`` lists masks, and the first ``_len``
    entries of ``_codes`` (integers) and ``_rewards`` (float64) hold each
    step's position in the table and its reward; the arrays may have spare
    capacity.
    ``append`` adds one step; ``extend`` adds a block of steps over a table of
    its own, so a policy run is recorded without a Python object per step.
    """

    __slots__ = ("_table", "_codes", "_rewards", "_len")

    def __init__(self):
        self._table: list[int] = []
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

    def append(self, mask: int, reward: float) -> None:
        self._reserve(1)
        self._codes[self._len] = len(self._table)
        self._rewards[self._len] = reward
        self._table.append(mask)
        self._len += 1

    def extend(self, table: list[int], codes: np.ndarray, rewards: np.ndarray) -> None:
        """Append one step per code: step i pulled ``table[codes[i]]`` and
        observed ``rewards[i]``.  An empty trajectory keeps the given arrays
        without copying them, so the caller must not write to them after."""
        codes, rewards = np.asarray(codes), np.asarray(rewards, np.float64)
        if self._len == 0:
            self._table, self._codes, self._rewards = list(table), codes, rewards
        else:
            self._reserve(codes.size)
            end = self._len + codes.size
            self._codes[self._len : end] = codes
            self._codes[self._len : end] += len(self._table)
            self._rewards[self._len : end] = rewards
            self._table.extend(table)
        self._len += codes.size

    def __len__(self) -> int:
        return self._len

    def masks(self) -> list[int]:
        table = self._table
        return [table[c] for c in self._codes[: self._len].tolist()]

    def rewards(self) -> list[float]:
        return self._rewards[: self._len].tolist()

    def values(self, fn: Callable[[int], float]) -> np.ndarray:
        """``fn(mask)`` at every step as a float64 array; ``fn`` is called once
        per table entry, not once per step."""
        return np.array([fn(mask) for mask in self._table], dtype=np.float64)[
            self._codes[: self._len]
        ]

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

    @classmethod
    def from_csv(cls, text: str) -> "Trajectory":
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        if header != ["t", "set", "reward"]:
            raise ValueError(f"unexpected trajectory header {header}")
        traj = cls()
        for row in reader:
            if not row:
                continue
            t, set_text, reward = row
            if int(t) != len(traj) + 1:
                raise ValueError(f"non-contiguous step index {t}")
            traj.append(ItemSet.parse(set_text).mask, float(reward))
        return traj

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
            raise NegativeSigma(f"sigma must be finite and nonnegative; got {sigma}")
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
        reward = self.spec.value_of_mask(mask) + self.sigma * float(self._rng.standard_normal())
        self.trajectory.append(mask, reward)
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
