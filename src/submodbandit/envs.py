"""Stochastic bandit oracle around a noiseless set function.

A :class:`BanditEnv` owns one seeded Gaussian noise stream and a record of
its pulls.  A policy run, which the lockstep engine draws in blocks
(``fill_noise``), hands the env's record its steps chunk by chunk
(``trajectory.extend``), each coded as a rank of the run's feasible-set
table, which holds the true value of every pulled set.  The stream gives one
value per pull in pull order, and the generator's normal stream does not
depend on how the draws are chunked, so identical (spec, sigma, seed) and
identical pull sequences produce bit-identical reward sequences.  Rewards
are *not* clipped: the mean lies in [0, 1] but observations may leave it.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from .functions import SetFunction
from .sets import render_mask
from .structure import FeasibleTable

# the table of a trajectory with no steps: no sets and no values
_NO_TABLE = FeasibleTable(0, (), np.empty(0), np.empty((0, 0), np.int64))


class Trajectory:
    """Time-ordered record of pulled sets, their true values and the rewards.

    The record is compact: the first ``_len`` entries of ``_codes`` and
    ``_rewards`` hold each step's rank in ``_table``, the feasible-set table
    of the run, which the trajectory takes by reference from its first
    chunk, and its reward.  ``to_csv`` writes the sets and rewards; the CSV
    form holds no values, so it is write-only.
    """

    __slots__ = ("_table", "_codes", "_rewards", "_len")

    def __init__(self):
        self._table = _NO_TABLE
        self._codes = np.empty(0, np.int32)
        self._rewards = np.empty(0)
        self._len = 0

    def extend(self, table: FeasibleTable, codes: np.ndarray, rewards: np.ndarray) -> None:
        """Append one chunk of a run, one step per code: step i pulled the set
        of rank ``codes[i]`` in ``table`` and observed ``rewards[i]``; both
        arrays are copied, into arrays that grow by doubling.  ValueError if
        the trajectory's earlier steps are coded in any other table."""
        if not self._len:
            self._table = table
        elif table is not self._table:
            raise ValueError("extend needs the table of the trajectory's earlier steps")
        end = self._len + len(codes)
        if end > self._codes.size:
            size = max(end, 2 * self._codes.size, 64)
            self._codes, self._rewards = np.resize(self._codes, size), np.resize(self._rewards, size)
        self._codes[self._len : end] = codes
        self._rewards[self._len : end] = rewards
        self._len = end

    def __len__(self) -> int:
        return self._len

    def masks(self) -> list[int]:
        masks = self._table.masks
        return [masks[c] for c in self._codes[: self._len].tolist()]

    def rewards(self) -> list[float]:
        return self._rewards[: self._len].tolist()

    def values(self) -> np.ndarray:
        """The true value of every step's set, as a float64 array."""
        return self._table.values[self._codes[: self._len]]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["t", "set", "reward"])
        for t, (mask, r) in enumerate(zip(self.masks(), self.rewards()), start=1):
            writer.writerow([t, render_mask(mask), f"{r:.17g}"])
        return buf.getvalue()


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
        """Fill ``out`` with the next ``out.size`` noise values, one per pull."""
        self._rng.standard_normal(out=out)
