"""Stochastic bandit oracle around a noiseless set function.

A :class:`BanditEnv` owns a seeded Gaussian noise stream and records every
pull.  Identical (spec, sigma, seed) and identical pull sequences produce
bit-identical reward sequences; noise values are consumed one per pull from
an internally buffered generator.  Rewards are *not* clipped: the mean lies
in [0, 1] but observations may leave the interval.
"""

from __future__ import annotations

import csv
import io
from collections import Counter

import numpy as np

from .errors import NegativeSigma
from .functions import SetFunction
from .sets import ItemSet, render_mask

_NOISE_BLOCK = 1024


class Trajectory:
    """Time-ordered record of pulled sets and observed rewards."""

    __slots__ = ("_masks", "_rewards")

    def __init__(self):
        self._masks: list[int] = []
        self._rewards: list[float] = []

    def append(self, mask: int, reward: float) -> None:
        self._masks.append(mask)
        self._rewards.append(reward)

    def __len__(self) -> int:
        return len(self._masks)

    def masks(self) -> list[int]:
        return list(self._masks)

    def rewards(self) -> list[float]:
        return list(self._rewards)

    def steps(self):
        """Yield (t, ItemSet, reward) with t starting at 1."""
        for t, (mask, r) in enumerate(zip(self._masks, self._rewards), start=1):
            yield t, ItemSet(mask), r

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["t", "set", "reward"])
        for t, (mask, r) in enumerate(zip(self._masks, self._rewards), start=1):
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
            and self._masks == other._masks
            and self._rewards == other._rewards
        )


class BanditEnv:
    """Single-owner mutable bandit environment; one noise draw per pull."""

    def __init__(self, spec: SetFunction, sigma: float = 1.0, seed: int = 0):
        if sigma < 0:
            raise NegativeSigma(f"sigma must be nonnegative; got {sigma}")
        self.spec = spec
        self.sigma = float(sigma)
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)
        self._noise_buf = np.empty(0)
        self._noise_pos = 0
        self.trajectory = Trajectory()
        self._value_cache: dict[int, float] = {}

    @property
    def t(self) -> int:
        return len(self.trajectory)

    def _next_noise(self) -> float:
        if self._noise_pos >= self._noise_buf.size:
            self._noise_buf = self._rng.standard_normal(_NOISE_BLOCK)
            self._noise_pos = 0
        g = self._noise_buf[self._noise_pos]
        self._noise_pos += 1
        return float(g)

    def value_of_mask(self, mask: int) -> float:
        v = self._value_cache.get(mask)
        if v is None:
            v = self.spec.value_of_mask(mask)
            self._value_cache[mask] = v
        return v

    def pull_mask(self, mask: int) -> float:
        """Fast-path pull on a raw bit mask."""
        reward = self.value_of_mask(mask) + self.sigma * self._next_noise()
        self.trajectory.append(mask, reward)
        return reward

    def pull(self, items: ItemSet) -> float:
        """Pull a set: observe its value plus Gaussian noise, record the step."""
        return self.pull_mask(items.mask)

    @property
    def pull_counts(self) -> Counter[int]:
        """Pulls per set, counted from the trajectory."""
        return Counter(self.trajectory.masks())

    def counts_by_cardinality(self) -> dict[int, int]:
        """Total pulls per set size; values sum to t."""
        out: dict[int, int] = {}
        for mask, count in self.pull_counts.items():
            size = mask.bit_count()
            out[size] = out.get(size, 0) + count
        return out
