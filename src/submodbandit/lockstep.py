"""Lockstep batches: the policies' two phases run on many envs at once.

``greedy_then_flat(envs, k, T, l, m, uniform)`` runs the phases that
:mod:`~submodbandit.policies` describes (l greedy levels by the uniform or
optimistic rule, then the flat phase) on a batch of fresh envs (none has
pulled yet) that share one spec and sigma, so every run starts at t = 0.
Arms are ranks of the spec's feasible-set table (``structure.value_table``),
taken once before any noise is drawn: a phase's arms and their true values
are gathers over it, and each env's trajectory is written once, at the end,
with those values, so a run never evaluates the spec.  Every env pulls once
per step, so t and ln t are shared, and the state is one (envs x arms)
array each of values, counts, sums and means, padded with -inf means where
a phase has fewer arms.  The envs differ only in which phase each is in.
A stretch of steps in which every env follows a fixed schedule (the uniform
samples, the first pull of each arm, or the one committed set) is pulled as
one block; the other steps evaluate the index of every env at once.  Each
env's trajectory, levels and rewards are those of the same env run alone,
one pull at a time: noise comes from each env's own stream in the same
order, the index uses the same elementwise operations, ``argmax`` keeps the
first maximum, and sums add in pull order.

On a wide batch (``WINDOW_CELLS`` or more envs times arms outside the
window) the index steps run on a certified candidate window instead of
every arm.  A window opens with one dense index at the largest ln s of its
at most ``WINDOW_STEPS`` steps.  IEEE division, sqrt and addition are monotone, so for every arm the
window does not pull this is a bound U on its index at each of the
window's steps.  Each row keeps its ``WINDOW_ARMS`` arms of largest U, in
position order, and tau, its largest U outside them.  A step evaluates the
unchanged index on the candidates alone and accepts their first maximum
only if it is strictly above tau in every row: then no other arm reaches
it, so it is the dense argmax, ties included.  Otherwise the step falls
back to the dense index, as do the steps up to the next window.
"""

from __future__ import annotations

import math

import numpy as np

from .envs import BanditEnv
from .sets import ItemSet
from .structure import FeasibleTable, value_table

# envs times arms of one lockstep batch (8 MB per state array); a group, one
# per (horizon, program), over more cells runs as several, one after another
MAX_BATCH_CELLS = 2**20
# envs times steps of one block of scheduled pulls, which bounds its temporaries
BLOCK_CELLS = 2**8
# envs times arms outside a window from which index steps run on candidate
# windows.  Below it a window's fixed numpy calls cost more than the dense
# index they save: on cover15 (T = 4000, 2-CPU Xeon) one env over 1,365 arms
# ran 1.3x slower windowed, and 64 envs over 78 arms 1.9x slower
WINDOW_CELLS = 2**12
# a window's candidate arms per row, and its most steps
WINDOW_ARMS, WINDOW_STEPS = 64, 32


def phase_arms(table: FeasibleTable, base: int, size: int) -> np.ndarray:
    """The ranks of the sets of ``size`` items that contain the set of rank
    ``base``, ascending: ``sort_key`` order, which for one item more than
    the base is item order."""
    arms = np.array([base])
    for _ in range(size - table.masks[base].bit_count()):
        grown = table.extend[arms].ravel()
        reached = np.zeros(len(table.masks), bool)
        reached[grown[grown >= 0]] = True
        arms = np.flatnonzero(reached)
    return arms


def greedy_then_flat(
    envs: list[BanditEnv], k: int, T: int, l: int, m: int | None, uniform: bool
) -> list[list[ItemSet]]:
    """Fix l greedy levels by the uniform or optimistic rule, then run the
    flat phase over the size-k supersets of the base, on every one of the
    fresh envs; return each env's levels.  The envs run in lockstep batches
    of bounded size."""
    # every value the run needs, and its resource guard, before any noise is drawn
    table = value_table(envs[0].spec, k)
    n = table.n
    width = max(n, math.comb(n - l, k - l))
    rows = max(1, MAX_BATCH_CELLS // width)
    levels = []
    for start in range(0, len(envs), rows):
        batch = envs[start : start + rows]
        levels += Lockstep(batch, table, k, T, l, m, uniform, width).run()
    return levels


class Lockstep:
    """One batch of envs stepped together, one row of state per env.

    A row's phase is a greedy level or the flat phase.  It starts with a
    schedule of ``slen`` pulls, each arm ``rep`` times in order (the uniform
    samples, or one pull per arm), and ``pos`` counts the pulls made.  Past
    its schedule a uniform level (``by_mean``) closes on the first maximum of
    the means; any other phase applies the index rule, and a greedy level
    closes when the index argmax has ``lim`` pulls.  A flat phase with one
    arm is a schedule that repeats it until the budget ends.  Each step's
    arm and reward go to ``codes`` and ``rewards`` (one row per env), and
    ``segments`` records where each phase began, with its arms.
    """

    def __init__(self, envs, table, k, T, l, m, uniform, width):
        spec, sigma = envs[0].spec, envs[0].sigma
        if any(env.spec is not spec or env.sigma != sigma or env.t for env in envs):
            raise ValueError("a lockstep batch needs fresh envs with one spec and sigma")
        self.table = table
        rows = len(envs)
        self.envs = envs
        self.k, self.T, self.l, self.m, self.uniform = k, T, l, m, uniform
        self.vals = np.zeros((rows, width))
        self.counts = np.ones((rows, width))
        self.sums = np.zeros((rows, width))
        self.means = np.full((rows, width), -np.inf)
        self.buf = np.empty((rows, width))
        # flat views, indexed by row0 + cell to reach one cell in every row
        self.rows = np.arange(rows)
        self.row0 = self.rows * width
        # a window needs more arms per row than it keeps, and pays for
        # itself only when it leaves enough of them out
        self.windowed = width > WINDOW_ARMS and rows * (width - WINDOW_ARMS) >= WINDOW_CELLS
        self.flat = [a.reshape(-1) for a in (self.vals, self.sums, self.counts, self.means)]
        self.pos = np.zeros(rows, np.int64)
        self.slen = np.zeros(rows, np.int64)
        self.rep = np.ones(rows, np.int64)
        self.lim = np.full(rows, math.inf)
        self.by_mean = np.zeros(rows, bool)
        # the step records.  A code is an arm's position in its phase, then in
        # the env's table, the arms of its at most l + 1 phases end to end; a
        # reward starts as sigma times the env's noise for that step
        self.codes = np.zeros((rows, T), np.min_scalar_type((l + 1) * width))
        self.rewards = np.empty((rows, T))
        for env, noise in zip(envs, self.rewards):
            env.fill_noise(noise)
        self.rewards *= sigma
        self.bases = [0] * rows  # rank 0 is the empty set
        self.levels: list[list[ItemSet]] = [[] for _ in envs]
        self.segments: list[list[tuple[int, np.ndarray]]] = [[] for _ in envs]
        # the arms of each base's phase, shared by every row with that base
        self.phases: dict[int, np.ndarray] = {}

    def _start(self, r: int, s: int) -> None:
        """Begin row r's next phase, whose first pull is step s."""
        level = len(self.levels[r])
        greedy = level < self.l
        base = self.bases[r]
        if base not in self.phases:
            self.phases[base] = phase_arms(self.table, base, level + 1 if greedy else self.k)
        arms = self.phases[base]
        size = arms.size
        if greedy:
            rep, lim = (self.m if self.uniform or level == 0 else 1), self.m
        elif size == 1:
            rep, lim = self.T, math.inf
        else:
            rep, lim = 1, math.inf
        self.vals[r, :size] = self.table.values[arms]
        # cells past the phase's arms keep mean -inf and one pull: their
        # index is -inf (never NaN), which the argmax never picks
        self.counts[r] = 1.0
        self.counts[r, :size] = 0.0
        self.sums[r] = 0.0
        self.means[r] = -np.inf
        self.means[r, :size] = 0.0
        self.pos[r], self.slen[r], self.rep[r] = 0, size * rep, rep
        self.lim[r], self.by_mean[r] = lim, greedy and self.uniform
        self.segments[r].append((s, arms))

    def _close(self, r: int, j: int, s: int) -> None:
        """Fix row r's level at its arm j; its next phase starts at step s."""
        self.bases[r] = int(self.phases[self.bases[r]][j])
        self.levels[r].append(ItemSet(self.table.masks[self.bases[r]]))
        if s < self.T:
            self._start(r, s)
        else:  # budget spent: the row only waits for the others' last closes
            self.lim[r], self.by_mean[r] = math.inf, False

    def _index(self, bonus: float) -> np.ndarray:
        """Every cell's mean + sqrt(bonus / pulls), in ``buf``.  A row still
        in its schedule has arms with no pulls, so its index divides by zero
        (callers then silence the floating-point warnings) and its answer is
        never read."""
        np.divide(bonus, self.counts, out=self.buf)
        np.sqrt(self.buf, out=self.buf)
        self.buf += self.means
        return self.buf

    def _index_argmax(self, t: int) -> np.ndarray:
        """Each row's index argmax at step t, over every arm: the path of
        narrow batches, and the fallback of a candidate window."""
        return self._index(8.0 * math.log(t)).argmax(axis=1)

    def _window(self, t: int, end: int, sched: np.ndarray) -> tuple:
        """A candidate window for the index steps t .. end - 1: each row's
        ``WINDOW_ARMS`` cells of largest bound U, in position order, their
        flat cells, and tau, the row's largest U outside them (-inf for a
        row in its schedule, whose answer is never read).  U is the index at
        the largest 8 ln s of the window; IEEE division, sqrt and addition
        are monotone, so U bounds the index of every arm that the window
        does not pull, at each of its steps."""
        bound = self._index(max(8.0 * math.log(s) for s in range(t, end)))
        order = bound.argpartition(-WINDOW_ARMS - 1, axis=1)
        tau = bound[self.rows, order[:, -WINDOW_ARMS - 1]]
        tau[sched] = -np.inf
        cand = np.sort(order[:, -WINDOW_ARMS:], axis=1)
        return cand, self.row0[:, None] + cand, tau

    def _window_argmax(self, t: int, window: tuple) -> np.ndarray | None:
        """Each row's index argmax at step t from the window's candidates,
        or None unless every row's best candidate is above its tau.  Then no
        other arm reaches it, and the candidates' first maximum (they are in
        position order) is the dense argmax, ties included."""
        cand, cells, tau = window
        index = np.divide(8.0 * math.log(t), self.flat[2][cells])
        np.sqrt(index, out=index)
        index += self.flat[3][cells]
        best = index.argmax(axis=1)
        if np.count_nonzero(index[self.rows, best] > tau) < tau.size:
            return None
        return cand[self.rows, best]

    def _pull(self, t: int, cells: np.ndarray) -> None:
        """Pull ``cells[r, i]`` in row r at step t + i, for every row."""
        run = cells.shape[1]
        flat = self.row0[:, None] + cells
        vals, sums, counts, means = self.flat
        rewards = self.rewards[:, t : t + run]
        rewards += vals[flat]
        self.codes[:, t : t + run] = cells
        np.add.at(sums, flat, rewards)  # in pull order, as a running sum
        np.add.at(counts, flat, 1.0)
        means[flat] = sums[flat] / counts[flat]

    def run(self) -> list[list[ItemSet]]:
        for r in range(len(self.envs)):
            self._start(r, 0)
        t = 0
        while True:
            # the closes due at t: uniform levels whose m samples per arm are all
            # in (padding is -inf), then optimistic levels whose argmax has m pulls
            for r in np.flatnonzero(self.by_mean & (self.pos >= self.slen)).tolist():
                self._close(r, int(self.means[r].argmax()), t)
            sched = self.pos < self.slen
            j = None
            if not sched.all():
                free = ~sched
                with np.errstate(divide="ignore", invalid="ignore"):
                    j = self._index_argmax(t)
                closing = np.flatnonzero(free & (self._pulls_of(j) >= self.lim))
                for r in closing.tolist():
                    self._close(r, int(j[r]), t)
                if closing.size:
                    sched = self.pos < self.slen
            if t >= self.T:
                break
            if sched.all():
                run = min(
                    self.T - t,
                    int((self.slen - self.pos).min()),
                    max(1, BLOCK_CELLS // len(self.envs)),
                )
                cells = (self.pos[:, None] + np.arange(run)) // self.rep[:, None]
                self.pos += run
                self._pull(t, cells)
                t += run
            else:
                t = self._steps(t, sched, j)
        # the per-arm state is done with: free it before the records are compacted
        del self.vals, self.counts, self.sums, self.means, self.buf, self.flat
        return self._finish()

    def _steps(self, t: int, sched: np.ndarray, j: np.ndarray) -> int:
        """Single steps from t, the first on the index argmax j, while the
        rows past their schedules apply the index rule: stop before a level
        closes, or when a schedule or the budget ends; return the t reached.
        The rows in a schedule stay in it throughout, so the only arms a
        free row pulls are its argmaxes: a window's candidates."""
        free = ~sched
        every = not sched.any()
        stop = self.T if every else min(self.T, t + int((self.slen - self.pos)[sched].min()))
        closable = bool((free & (self.lim < math.inf)).any())
        vals, sums, counts, means = self.flat
        window, end = None, t  # a candidate window serves the steps before end
        with np.errstate(divide="ignore", invalid="ignore"):
            while True:
                cells = j if every else np.where(sched, self.pos // self.rep, j)
                flat = self.row0 + cells
                rewards = self.rewards[:, t]
                rewards += vals[flat]
                self.codes[:, t] = cells
                # one cell per row, so plain indexed updates add in pull order
                total, pulls = sums[flat] + rewards, counts[flat] + 1.0
                sums[flat], counts[flat], means[flat] = total, pulls, total / pulls
                if not every:
                    self.pos += sched
                t += 1
                if t >= stop:
                    return t
                if self.windowed and t >= end:
                    end = min(stop, t + WINDOW_STEPS)
                    window = self._window(t, end, sched)
                j = None if window is None else self._window_argmax(t, window)
                if j is None:  # the dense index, up to the next window's step
                    window = None
                    j = self._index_argmax(t)
                if closable and (free & (self._pulls_of(j) >= self.lim)).any():
                    return t

    def _pulls_of(self, j: np.ndarray) -> np.ndarray:
        """Each row's pulls of its cell j."""
        return self.flat[2][self.row0 + j]

    def _finish(self) -> list[list[ItemSet]]:
        """Hand each env its trajectory: its phases' arms, with their true values."""
        for env, codes, rewards, segments in zip(
            self.envs, self.codes, self.rewards, self.segments
        ):
            # the table is the phases' arms end to end: shift each later
            # phase's codes past the arms of the phases before it.  Every
            # code fits the dtype; the add runs in int64, whose loop the
            # engine already uses (a small-int one adds 0.2 MB of peak RSS)
            for (_, arms), (later, _) in zip(segments, segments[1:]):
                shifted = codes[later:]
                np.add(shifted, arms.size, out=shifted, dtype=np.int64, casting="unsafe")
            ranks = np.concatenate([arms for _, arms in segments])
            table = [self.table.masks[r] for r in ranks.tolist()]
            env.trajectory.extend(table, self.table.values[ranks], codes, rewards)
        return self.levels
