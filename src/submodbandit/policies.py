"""Bandit policies over cardinality-constrained subsets.

A policy is one frozen dataclass, ``Policy(kind, l, m, label)``, that owns
its whole protocol.  Its kind is one of three, and ``_KINDS`` lists the keys
each kind takes besides ``kind``:

* ``policy_from_json`` / ``to_json`` -- the config form
  ``{"kind": ..., ...}``.  An unknown kind, a key the kind does not take, an
  ``l`` that is neither ``"auto"`` nor an integer, an ``m`` that is not an
  integer >= 1 and a label that is not a nonempty string raise ValueError,
  in the constructor too.
* ``label`` -- defaults to ``sub_ucb_auto``, ``sub_ucb_l{l}``, ``etcg`` or
  ``ucb_all``.
* ``resolve(n, k, T) -> (l, m)`` -- the stop level and per-arm budget used at
  horizon T (None where the kind has none).  It raises ValueError before
  any pull.
* ``program(n, k, T) -> (l, m, uniform)`` -- the phases that run; policies
  with one program make the same run.
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
rule to m samples of every singleton.  The three kinds:

* ``sub_ucb`` -- ``l`` optimistic levels, then the flat phase.  ``l`` is a
  stop level in [0, k] or "auto" (derived from the horizon by
  ``auto_stop_level``).
* ``etcg`` -- explore-then-commit greedy: ``l = k`` uniform levels, after
  which the flat phase has the one committed set to pull.
* ``ucb_all`` -- ``l = 0``: the flat phase over every size-k arm.

``m`` is the per-arm budget of the greedy levels (None = ``default_m``).

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
so a run over budget raises GroundSetTooLarge, and a k above the spec's
``k_max`` raises ValueError, before any pull.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import auto_stop_level, default_m
from .envs import BanditEnv
from .functions import is_int
from .lockstep import greedy_then_flat
from .sets import ItemSet

AUTO = "auto"

# the keys each kind takes besides "kind", in the order to_json writes them
_KINDS = {"sub_ucb": ("l", "m", "label"), "etcg": ("m", "label"), "ucb_all": ("label",)}


def _kind_keys(kind, given) -> tuple[str, ...]:
    """The keys ``kind`` takes; ValueError if it is not a kind or if it does
    not take a key in ``given``."""
    keys = _KINDS.get(kind) if isinstance(kind, str) else None  # a kind may be unhashable
    if keys is None:
        raise ValueError(f"unknown policy kind {kind!r}")
    unknown = [key for key in given if key not in keys]
    if unknown:
        raise ValueError(
            f"unknown key {', '.join(map(repr, unknown))} for kind {kind!r} "
            f"(allowed: 'kind', {', '.join(map(repr, sorted(keys)))})"
        )
    return keys


@dataclass(frozen=True)
class Policy:
    """One bandit policy: its kind, and the fields that kind takes
    (``_KINDS``); a field the kind does not take is None."""

    kind: str
    l: int | str | None = AUTO
    m: int | None = None
    label: str | None = None

    def __post_init__(self):
        # None, and l's default "auto", leave a field unset
        keys = _kind_keys(self.kind, [f for f in ("l", "m") if getattr(self, f) not in (None, AUTO)])
        if "l" not in keys:  # a kind with no stop level
            object.__setattr__(self, "l", None)
        elif self.l != AUTO and not is_int(self.l):
            raise ValueError(f"l must be an integer or {AUTO!r}; got {self.l!r}")
        if self.m is not None and not (is_int(self.m) and self.m >= 1):
            raise ValueError(f"m must be an integer >= 1; got {self.m!r}")
        if self.label is None:
            suffix = "" if self.l is None else "_auto" if self.l == AUTO else f"_l{self.l}"
            object.__setattr__(self, "label", self.kind + suffix)
        elif not isinstance(self.label, str) or not self.label:
            raise ValueError(f"label must be a nonempty string; got {self.label!r}")

    def to_json(self) -> dict:
        doc = {"kind": self.kind}
        for key in _KINDS[self.kind]:
            if getattr(self, key) is not None:
                doc[key] = getattr(self, key)
        return doc

    def resolve(self, n: int, k: int, T: int) -> tuple[int | None, int | None]:
        if self.kind == "ucb_all":
            return None, None
        l = None  # etcg fixes all k levels
        if self.kind == "sub_ucb":
            l = auto_stop_level(n, k, T) if self.l == AUTO else self.l
            if not 0 <= l <= k:
                raise ValueError(f"stop level {l} outside [0, {k}]")
        return l, self.m or default_m(T, n)

    def program(self, n: int, k: int, T: int) -> tuple[int, int | None, bool]:
        """The phases of a run at horizon T: ``greedy_then_flat``'s (l, m,
        uniform).  With no greedy level, m and the rule never enter the run,
        so every l = 0 run is the program (0, None, False)."""
        l, m = self.resolve(n, k, T)
        uniform = self.kind == "etcg"
        l = k if uniform else l or 0
        return (l, m, uniform) if l else (0, None, False)

    def run_batch(self, envs: list[BanditEnv], k: int, T: int) -> list[list[ItemSet]]:
        return greedy_then_flat(envs, k, T, *self.program(envs[0].spec.n, k, T))

    def run(self, env: BanditEnv, k: int, T: int) -> list[ItemSet]:
        """Run one env: a batch of one."""
        return self.run_batch([env], k, T)[0]


def policy_from_json(doc) -> Policy:
    """Decode one config entry; ValueError on any key or value its kind does not take."""
    if not isinstance(doc, dict):
        raise ValueError(f'need an object such as {{"kind": "etcg"}}; got {doc!r}')
    _kind_keys(doc.get("kind"), [key for key in doc if key != "kind"])
    return Policy(**doc)
