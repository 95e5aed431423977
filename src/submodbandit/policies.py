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

Every run is the same two phases.  The greedy phase fixes ``l`` levels,
adding one item to the base set per level; the flat phase then runs the
index loop with m = infinity over every size-k superset of the base.  A
level's candidates are the base plus one item not in it, and it picks one
of them by one of two sampling rules:

* uniform -- sample every candidate m times in item order and keep the
  first maximum of the empirical means;
* optimistic -- run the index loop over the candidates until the index
  argmax already has m pulls, and keep that argmax.

Level 1 always samples uniformly, so an optimistic level 1 starts its
index loop from m samples of every singleton.  The three policies:

* ``SubUcbPolicy`` -- ``l`` optimistic levels, then the flat phase.
* ``EtcgPolicy`` -- explore-then-commit greedy: ``l = k`` uniform levels,
  after which the flat phase has the one committed set to pull.
* ``UcbAllPolicy`` -- ``l = 0``: the flat phase over every size-k arm.

The index loop pulls each unpulled arm once, in order, and then the arm of
largest index  mean + sqrt(8 * ln(t) / T_a)  with t the global count of
completed pulls, natural logarithm and T_a the arm's pulls; ties resolve
to the first arm (candidates ascend by item, flat arms by lexicographic
member tuple).  Every pull is gated on t < T, so a run stops mid-phase
when the budget is exhausted and the trajectory has exactly T steps.
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
from .sets import ItemSet

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
    """All size-k supersets of base, in lexicographic member order."""
    free = [a for a in range(n) if not (base_mask >> a) & 1]
    size = k - base_mask.bit_count()
    return [base_mask | sum(1 << a for a in combo) for combo in combinations(free, size)]


def _index_loop(
    env: BanditEnv, arms: list[int], m: float, T: int, counts=None, sums=None
) -> int | None:
    """Pull each unpulled arm once, then the index argmax, starting from the
    given per-arm pulls and reward sums (none by default).  Return the
    argmax's position once it already has m pulls, or None at t = T."""
    if counts is None:
        counts, sums = np.zeros(len(arms)), np.zeros(len(arms))
    for j in np.flatnonzero(counts == 0).tolist():
        if env.t >= T:
            return None
        sums[j] += env.pull_mask(arms[j])
        counts[j] += 1.0
    while True:
        j = int(np.argmax(sums / counts + np.sqrt(8.0 * math.log(env.t) / counts)))
        if counts[j] >= m:
            return j
        if env.t >= T:
            return None
        sums[j] += env.pull_mask(arms[j])
        counts[j] += 1.0


def _greedy_then_flat(
    env: BanditEnv, k: int, T: int, l: int, m: int | None, uniform: bool
) -> list[ItemSet]:
    """Fix l greedy levels by the uniform or optimistic rule, then run the
    flat phase over the size-k supersets of the base; return the levels."""
    n = env.spec.n
    levels = []
    base = 0
    for level in range(l):
        arms = [base | (1 << a) for a in range(n) if not (base >> a) & 1]
        counts, sums = np.zeros(len(arms)), np.zeros(len(arms))
        if level == 0 or uniform:
            for j, arm in enumerate(arms):
                total = 0.0
                for _ in range(m):
                    if env.t >= T:
                        return levels
                    total += env.pull_mask(arm)
                sums[j] = total
            counts[:] = m
        if uniform:
            j = int(np.argmax(sums / m))
        else:
            j = _index_loop(env, arms, m, T, counts, sums)
            if j is None:
                return levels
        base = arms[j]
        levels.append(ItemSet(base))
    _index_loop(env, _superarm_masks(n, k, base), math.inf, T)
    return levels


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
        self.resolve(env.spec.n, k, T)
        return _greedy_then_flat(env, k, T, 0, None, uniform=False)


@dataclass(frozen=True)
class EtcgPolicy(_Policy):
    """Explore-then-commit greedy with per-level budget m (None = default_m)."""

    m: int | None = None
    label: str | None = None

    kind = "etcg"

    def resolve(self, n: int, k: int, T: int) -> tuple[None, int]:
        _check_cardinality(n, k)
        return None, self.m or default_m(T, n)

    def run(self, env: BanditEnv, k: int, T: int) -> list[ItemSet]:
        _, m = self.resolve(env.spec.n, k, T)
        return _greedy_then_flat(env, k, T, k, m, uniform=True)


@dataclass(frozen=True)
class SubUcbPolicy(_Policy):
    """Optimistic greedy for l levels, then flat UCB over the super-arms.

    ``l`` is a stop level in [0, k] or "auto" (derived from the horizon by
    ``auto_stop_level``); ``m`` is the per-arm budget (None = default_m).
    The greedy phase fixes l optimistic levels: level 1 samples every
    singleton m times and keeps the index argmax over those samples; each
    later level pulls the index argmax of its candidates until that argmax
    already has m pulls.  The flat phase then runs the index loop over every
    size-k superset of the base; at l = 0 that is ``UcbAllPolicy``'s run.
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
        m = self.m or default_m(T, n)
        _check_arm_count(n, k, l)
        return l, m

    def run(self, env: BanditEnv, k: int, T: int) -> list[ItemSet]:
        l, m = self.resolve(env.spec.n, k, T)
        return _greedy_then_flat(env, k, T, l, m, uniform=False)


Policy = SubUcbPolicy | EtcgPolicy | UcbAllPolicy


def policy_from_json(doc) -> Policy:
    """Decode one config entry, dispatching on its ``kind``; ValueError if malformed."""
    if not isinstance(doc, dict):
        raise ValueError(f'need an object such as {{"kind": "etcg"}}; got {doc!r}')
    for cls in (SubUcbPolicy, EtcgPolicy, UcbAllPolicy):
        if doc.get("kind") == cls.kind:
            return cls.from_json(doc)
    raise ValueError(f"unknown policy kind {doc.get('kind')!r}")
