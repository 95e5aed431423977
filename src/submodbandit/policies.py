"""Bandit policies over cardinality-constrained subsets.

Each policy is one frozen dataclass that owns its whole protocol:

* ``from_json`` / ``to_json`` -- the config form ``{"kind": ..., ...}``.
  Keys other than the kind, the policy's own fields and ``label`` are
  rejected, as are an ``l`` that is neither ``"auto"`` nor an integer and
  an ``m`` that is not an integer >= 1.  ``policy_from_json`` dispatches
  on ``kind``.
* ``label`` -- defaults to ``sub_ucb_auto``, ``sub_ucb_l{l}``, ``etcg`` or
  ``ucb_all``.
* ``resolve(n, k, T) -> (l, m)`` -- the stop level and per-arm budget used at
  horizon T (None where the policy has none).  It raises InvalidStopLevel
  and TooManyArms before any pull.
* ``run(env, k, T)`` -- pull sets of size at most k for exactly T steps
  against a :class:`~submodbandit.envs.BanditEnv` and return the greedy
  levels it fixed; the trajectory stays on ``env.trajectory``.

The three policies:

* ``SubUcbPolicy`` -- grows a base set greedily for ``l`` levels using
  optimistic indices, then runs a flat index policy over all size-k
  super-arms of the base set.
* ``EtcgPolicy`` -- explore-then-commit greedy: every candidate extension is
  sampled exactly m times per level, the best empirical mean is kept, and the
  final set is exploited for the remaining budget.
* ``UcbAllPolicy`` -- the flat index policy over every size-k arm.

Conventions shared by all runners: the optimistic index of an arm with
T_a > 0 pulls is  mean + sqrt(8 * ln(t) / T_a)  with t the global count of
completed pulls and natural logarithm; unpulled arms have index +infinity;
ties always resolve to the first arm in order (candidates ascend by item,
flat arms by lexicographic member tuple).  Every pull is gated on t < T, so
a run stops mid-phase when the budget is exhausted and the trajectory has
exactly T steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import combinations

import numpy as np

from .analysis import auto_stop_level
from .envs import BanditEnv
from .errors import CardinalityExceeded, InvalidStopLevel, TooManyArms
from .functions import is_int
from .sets import ItemSet, sort_key

MAX_ARMS = 10**6

AUTO = "auto"


def default_m(T: int, n: int) -> int:
    """Per-arm sample budget ceil(T^{2/3} n^{-2/3} (ln T)^{1/3}), at least 1."""
    if T < 2 or n < 1:
        raise ValueError(f"need T >= 2 and n >= 1; got T={T}, n={n}")
    m = math.ceil(T ** (2.0 / 3.0) * n ** (-2.0 / 3.0) * math.log(T) ** (1.0 / 3.0))
    return max(1, m)


def _check_cardinality(n: int, k: int) -> None:
    if k > n:
        raise CardinalityExceeded(f"k={k} exceeds the ground set size n={n}")


def _check_arm_count(n: int, k: int, base_size: int) -> None:
    """Guard on the number of size-k supersets of a base of base_size items."""
    count = math.comb(n - base_size, k - base_size)
    if count > MAX_ARMS:
        raise TooManyArms(f"{count} super-arms exceeds the cap {MAX_ARMS}")


def _superarm_masks(n: int, k: int, base_mask: int) -> list[int]:
    """All size-k supersets of base, sorted lexicographically by members."""
    _check_cardinality(n, k)
    base_size = base_mask.bit_count()
    _check_arm_count(n, k, base_size)
    free = [a for a in range(n) if not (base_mask >> a) & 1]
    masks = []
    for combo in combinations(free, k - base_size):
        mask = base_mask
        for a in combo:
            mask |= 1 << a
        masks.append(mask)
    masks.sort(key=sort_key)
    return masks


def _flat_ucb(env: BanditEnv, arms: list[int], T: int) -> None:
    """Flat optimistic-index policy over a fixed arm list, until t = T."""
    counts = np.zeros(len(arms))
    sums = np.zeros(len(arms))
    next_unpulled = 0
    while env.t < T:
        if next_unpulled < len(arms):
            j = next_unpulled
            next_unpulled += 1
        else:
            bonus = np.sqrt(8.0 * math.log(env.t) / counts)
            j = int(np.argmax(sums / counts + bonus))
        r = env.pull_mask(arms[j])
        counts[j] += 1.0
        sums[j] += r


def _budget(m: int | None, T: int, n: int) -> int:
    return m if m is not None else default_m(T, n)


class _Policy:
    """JSON form, label default and field checks shared by the policies."""

    def __post_init__(self):
        m = getattr(self, "m", None)
        if m is not None and not (is_int(m) and m >= 1):
            raise ValueError(f"m must be an integer >= 1; got {m!r}")
        if self.label is None:
            object.__setattr__(self, "label", self.default_label())
        elif not isinstance(self.label, str) or not self.label:
            raise ValueError(f"label must be a nonempty string; got {self.label!r}")

    def default_label(self) -> str:
        return self.kind

    @classmethod
    def from_json(cls, doc: dict):
        """Build from the config form; ValueError on any key or value it does not take."""
        if doc.get("kind") != cls.kind:
            raise ValueError(f"kind must be {cls.kind!r}; got {doc.get('kind')!r}")
        allowed = {f.name for f in fields(cls)}
        unknown = [key for key in doc if key != "kind" and key not in allowed]
        if unknown:
            keys = ", ".join(repr(key) for key in unknown)
            raise ValueError(
                f"unknown key {keys} for kind {cls.kind!r} "
                f"(allowed: 'kind', {', '.join(repr(f) for f in sorted(allowed))})"
            )
        return cls(**{key: v for key, v in doc.items() if key != "kind"})

    def to_json(self) -> dict:
        doc = {"kind": self.kind}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None:
                doc[f.name] = value
        return doc


@dataclass(frozen=True)
class UcbAllPolicy(_Policy):
    """Flat index policy over every size-k arm."""

    label: str | None = None

    kind = "ucb_all"

    def resolve(self, n: int, k: int, T: int) -> tuple[None, None]:
        _check_cardinality(n, k)
        _check_arm_count(n, k, 0)
        return None, None

    def run(self, env: BanditEnv, k: int, T: int) -> list[ItemSet]:
        _flat_ucb(env, _superarm_masks(env.spec.n, k, 0), T)
        return []


@dataclass(frozen=True)
class EtcgPolicy(_Policy):
    """Explore-then-commit greedy with per-level budget m (None = default_m)."""

    m: int | None = None
    label: str | None = None

    kind = "etcg"

    def resolve(self, n: int, k: int, T: int) -> tuple[None, int]:
        _check_cardinality(n, k)
        return None, _budget(self.m, T, n)

    def run(self, env: BanditEnv, k: int, T: int) -> list[ItemSet]:
        n = env.spec.n
        _, m = self.resolve(n, k, T)
        levels = []
        base = 0
        for _level in range(k):
            cands = [a for a in range(n) if not (base >> a) & 1]
            means = []
            for a in cands:
                arm = base | (1 << a)
                total = 0.0
                for _ in range(m):
                    if env.t >= T:
                        return levels
                    total += env.pull_mask(arm)
                means.append(total / m)
            best = max(range(len(cands)), key=lambda j: (means[j], -cands[j]))
            base |= 1 << cands[best]
            levels.append(ItemSet(base))
        while env.t < T:
            env.pull_mask(base)
        return levels


@dataclass(frozen=True)
class SubUcbPolicy(_Policy):
    """Optimistic greedy for l levels, then flat UCB over the super-arms.

    ``l`` is a stop level in [0, k] or "auto" (derived from the horizon by
    ``auto_stop_level``); ``m`` is the per-arm budget (None = default_m).
    Phase 1 pulls every singleton m times (skipped entirely when l = 0, which
    makes the run coincide with ``UcbAllPolicy``).  Phase 2 fixes one item per
    level: while the current index-argmax arm has fewer than m pulls, pull it;
    the argmax at exit joins the base set.  Level 1 reuses the singleton
    statistics from phase 1.  Phase 3 hands the remaining budget to the flat
    index policy over all size-k supersets of the base.
    """

    l: int | str = AUTO
    m: int | None = None
    label: str | None = None

    kind = "sub_ucb"

    def __post_init__(self):
        if self.l != AUTO and not is_int(self.l):
            raise ValueError(f"l must be an integer or {AUTO!r}; got {self.l!r}")
        super().__post_init__()

    def default_label(self) -> str:
        return "sub_ucb_auto" if self.l == AUTO else f"sub_ucb_l{self.l}"

    def resolve(self, n: int, k: int, T: int) -> tuple[int, int]:
        _check_cardinality(n, k)
        l = auto_stop_level(n, k, T) if self.l == AUTO else self.l
        if not 0 <= l <= k:
            raise InvalidStopLevel(f"stop level {l} outside [0, {k}]")
        m = _budget(self.m, T, n)
        _check_arm_count(n, k, l)
        return l, m

    def run(self, env: BanditEnv, k: int, T: int) -> list[ItemSet]:
        n = env.spec.n
        l, m = self.resolve(n, k, T)
        levels = []

        singleton_sums = np.zeros(n)
        singleton_counts = np.zeros(n)
        if l > 0:
            for a in range(n):
                for _ in range(m):
                    if env.t >= T:
                        return levels
                    singleton_sums[a] += env.pull_mask(1 << a)
                    singleton_counts[a] += 1.0

        base = 0
        for level in range(1, l + 1):
            cands = [a for a in range(n) if not (base >> a) & 1]
            if level == 1:
                counts = singleton_counts[cands].copy()
                sums = singleton_sums[cands].copy()
            else:
                counts = np.zeros(len(cands))
                sums = np.zeros(len(cands))
            while True:
                with np.errstate(divide="ignore", invalid="ignore"):
                    index = np.where(
                        counts > 0,
                        sums / counts + np.sqrt(8.0 * math.log(max(env.t, 1)) / counts),
                        np.inf,
                    )
                j = int(np.argmax(index))
                if counts[j] >= m:
                    break
                if env.t >= T:
                    return levels
                r = env.pull_mask(base | (1 << cands[j]))
                counts[j] += 1.0
                sums[j] += r
            base |= 1 << cands[j]
            levels.append(ItemSet(base))

        _flat_ucb(env, _superarm_masks(n, k, base), T)
        return levels


Policy = SubUcbPolicy | EtcgPolicy | UcbAllPolicy


def policy_from_json(doc) -> Policy:
    """Decode one config entry, dispatching on its ``kind``; ValueError if malformed."""
    if not isinstance(doc, dict):
        raise ValueError(f'need an object such as {{"kind": "etcg"}}; got {doc!r}')
    for cls in (SubUcbPolicy, EtcgPolicy, UcbAllPolicy):
        if doc.get("kind") == cls.kind:
            return cls.from_json(doc)
    raise ValueError(f"unknown policy kind {doc.get('kind')!r}")
