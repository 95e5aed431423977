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
  horizon T (None where the policy has none).  It raises CardinalityExceeded
  and InvalidStopLevel before any pull.
* ``run_batch(envs, k, T)`` -- pull sets of size at most k for exactly T
  steps against every fresh :class:`~submodbandit.envs.BanditEnv` (a used one
  raises ValueError before any noise is drawn) of a batch that shares one
  spec and sigma, and return each env's greedy levels; the trajectories stay
  on ``env.trajectory``.  ``run(env, k, T)`` is a batch of one.

Every run is the same two phases.  The greedy phase fixes ``l`` levels,
adding one item to the base set per level; the flat phase then runs the
index rule with m = infinity over every size-k superset of the base.  A
level's candidates are the base plus one item not in it, and it picks one
of them by one of two sampling rules:

* uniform -- sample every candidate m times in item order and keep the
  first maximum of the empirical means;
* optimistic -- pull each candidate once in order, then the index argmax,
  until the index argmax already has m pulls, and keep that argmax.

Level 1 always samples uniformly, so an optimistic level 1 applies the index
rule to m samples of every singleton.  The three policies:

* ``SubUcbPolicy`` -- ``l`` optimistic levels, then the flat phase.
* ``EtcgPolicy`` -- explore-then-commit greedy: ``l = k`` uniform levels,
  after which the flat phase has the one committed set to pull.
* ``UcbAllPolicy`` -- ``l = 0``: the flat phase over every size-k arm.

The index of an arm is  mean + sqrt(8 * ln(t) / T_a)  with t the global count
of completed pulls, natural logarithm and T_a the arm's pulls (UCB1's index);
ties resolve to the first arm (candidates ascend by item, flat arms by
lexicographic member tuple).  Every pull is gated on t < T, so a run stops
mid-phase when the budget is exhausted and the trajectory has exactly T
steps; a level whose rule is already met at t = T is still fixed.

The phases run in :mod:`~submodbandit.lockstep`, which steps every env of a
batch together; each env's trajectory, levels and rewards are those of the
same env run alone.  Its one resource guard is the feasible-set table's
budget (``structure.value_table``): every flat arm is a row of that table,
so a run over budget raises GroundSetTooLarge before any pull.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .analysis import auto_stop_level
from .envs import BanditEnv
from .errors import CardinalityExceeded, InvalidStopLevel
from .functions import is_int
from .lockstep import greedy_then_flat
from .sets import ItemSet

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

    def run(self, env: BanditEnv, k: int, T: int) -> list[ItemSet]:
        """Run one env: a batch of one."""
        return self.run_batch([env], k, T)[0]


@dataclass(frozen=True)
class UcbAllPolicy(_Policy):
    """Flat index policy over every size-k arm."""

    label: str | None = None

    kind = "ucb_all"

    def resolve(self, n: int, k: int, T: int) -> tuple[None, None]:
        _check_cardinality(n, k)
        return None, None

    def run_batch(self, envs: list[BanditEnv], k: int, T: int) -> list[list[ItemSet]]:
        self.resolve(envs[0].spec.n, k, T)
        return greedy_then_flat(envs, k, T, 0, None, uniform=False)


@dataclass(frozen=True)
class EtcgPolicy(_Policy):
    """Explore-then-commit greedy with per-level budget m (None = default_m)."""

    m: int | None = None
    label: str | None = None

    kind = "etcg"

    def resolve(self, n: int, k: int, T: int) -> tuple[None, int]:
        _check_cardinality(n, k)
        return None, self.m or default_m(T, n)

    def run_batch(self, envs: list[BanditEnv], k: int, T: int) -> list[list[ItemSet]]:
        _, m = self.resolve(envs[0].spec.n, k, T)
        return greedy_then_flat(envs, k, T, k, m, uniform=True)


@dataclass(frozen=True)
class SubUcbPolicy(_Policy):
    """Optimistic greedy for l levels, then flat UCB over the super-arms.

    ``l`` is a stop level in [0, k] or "auto" (derived from the horizon by
    ``auto_stop_level``); ``m`` is the per-arm budget (None = default_m).
    The greedy phase fixes l optimistic levels: level 1 samples every
    singleton m times and keeps the index argmax over those samples; each
    later level pulls every candidate once and then the index argmax until
    that argmax already has m pulls.  The flat phase then applies the index
    rule to every size-k superset of the base; at l = 0 that is
    ``UcbAllPolicy``'s run.
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
        return l, self.m or default_m(T, n)

    def run_batch(self, envs: list[BanditEnv], k: int, T: int) -> list[list[ItemSet]]:
        l, m = self.resolve(envs[0].spec.n, k, T)
        return greedy_then_flat(envs, k, T, l, m, uniform=False)


Policy = SubUcbPolicy | EtcgPolicy | UcbAllPolicy


def policy_from_json(doc) -> Policy:
    """Decode one config entry, dispatching on its ``kind``; ValueError if malformed."""
    if not isinstance(doc, dict):
        raise ValueError(f'need an object such as {{"kind": "etcg"}}; got {doc!r}')
    for cls in (SubUcbPolicy, EtcgPolicy, UcbAllPolicy):
        if doc.get("kind") == cls.kind:
            return cls.from_json(doc)
    raise ValueError(f"unknown policy kind {doc.get('kind')!r}")
