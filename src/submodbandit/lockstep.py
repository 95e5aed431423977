"""Lockstep batches: the policies' two phases run on many envs at once.

``greedy_then_flat(envs, k, T, l, m, uniform)`` runs the phases that
:mod:`~submodbandit.policies` describes (l greedy levels by the uniform or
optimistic rule, then the flat phase) on a batch of fresh envs (none has
pulled yet) that share one spec and sigma, so every run starts at t = 0.
Arms are ranks of the spec's feasible-set table (``structure.value_table``),
taken once before any noise is drawn, and a pull's true value is a gather
over it, so a run never evaluates the spec.  Every env pulls once per step,
so t and ln t are shared, and the state is one (envs x arms) array each of
ranks, counts, sums and means, padded with -inf means where a phase has
fewer arms.  The envs differ only in which phase each is in.  A stretch of
steps in which every env follows a fixed schedule (the uniform samples, the
first pull of each arm, or the one committed set) is pulled as one block;
the other steps evaluate the index of every env at once.  Each env's
trajectory, levels and rewards are those of the same env run alone, one
pull at a time: noise comes from each env's own stream in the same order,
the index uses the same elementwise operations, ``argmax`` keeps the first
maximum, and sums add in pull order.  Steps are recorded in chunks of
``CHUNK_CELLS`` envs times steps, so memory does not grow with T: at a
chunk's end each env gets its ranks and rewards through
``env.trajectory.extend`` and the next chunk's noise is drawn.  Every
choice is exact, so a chunk end that cuts a block or an index run changes
no pull.

On a wide batch (``WINDOW_CELLS`` or more envs times arms outside the
window) the index steps run on a certified candidate window instead of
every arm.  A window opens with one dense index at the largest ln s of its
at most ``WINDOW_STEPS`` steps.  IEEE division, sqrt and addition are
monotone, so for every arm the window does not pull this is a bound U on
its index at each of the window's steps.  Each row past its schedule keeps
its ``WINDOW_ARMS`` arms of largest U, in position order, and tau, its
largest U outside them; a row in its schedule keeps the cells its schedule
pulls next.  The window copies its candidates' ranks, sums, pulls and means
into a compact (envs x ``WINDOW_ARMS``) state, and its steps read and
update only that.  A step evaluates the unchanged index on the candidates
alone and accepts their first maximum only if it is strictly above tau in
every row: then no other arm reaches it, so it is the dense argmax, ties
included.  The pull then adds to the chosen candidate's cell, in the same
order.  Otherwise the step falls back to the dense index, as do the steps
up to the next window.  The compact state is written back to the full one
when the window closes (at its end or at a fallback) and whenever the
steps stop for a close, a schedule end or a chunk end.
"""

from __future__ import annotations

import math

import numpy as np

from .envs import BanditEnv
from .sets import ItemSet
from .structure import FeasibleTable, value_table

# envs times arms of one lockstep batch (8 MB per state array); a run over
# more cells steps its envs in several batches, one after another
MAX_BATCH_CELLS = 2**20
# envs times steps of one block of scheduled pulls, which bounds its temporaries
BLOCK_CELLS = 2**8
# an arm's index is mean + sqrt(BONUS_SCALE * ln t / pulls)
BONUS_SCALE = 8.0
# envs times steps of one chunk of the step record (0.5 MB per record array)
CHUNK_CELLS = 2**16
# envs times arms outside a window from which index steps run on candidate
# windows.  On the compact window state (cover15, T = 4000, sigma = 1, process
# time on a 2-CPU Xeon) one env over 1,365 arms (1,301 cells) still ran slower
# windowed, 36.7 against 31.0 ms, and so did 64 envs over 78 arms at l = 2
# (896 cells), 136.1 against 120.1 ms; 2 envs over 1,365 arms (2,602 cells)
# already ran faster, 26.4 against 38.1 ms.  A gate between the two would
# need a check on tabular-cells, whose 8 x 153 batches lie below it
WINDOW_CELLS = 2**12
# a window's candidate arms per row, and its most steps.  A row in its
# schedule pulls at most one new cell per step, so WINDOW_STEPS <= WINDOW_ARMS
# keeps its pulls inside its window.  64 steps open half the windows of 32,
# and on cover15 and harmonic_elevated(20, 5) ran 1.1-1.6x faster than 64/32
WINDOW_ARMS, WINDOW_STEPS = 64, 64


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
    arm is a schedule that repeats it until the budget ends.  Each step from
    ``begin`` to ``end`` puts its arm's rank and its reward in ``record``
    and ``rewards`` (one row per env), which the envs get at ``end``.
    """

    def __init__(self, envs, table, k, T, l, m, uniform, width):
        spec, sigma = envs[0].spec, envs[0].sigma
        if any(env.spec is not spec or env.sigma != sigma or env.t for env in envs):
            raise ValueError("a lockstep batch needs fresh envs with one spec and sigma")
        self.table = table
        rows = len(envs)
        self.envs = envs
        self.k, self.T, self.l, self.m, self.uniform = k, T, l, m, uniform
        self.ranks = np.zeros((rows, width), np.intp)
        self.counts = np.ones((rows, width))
        self.sums = np.zeros((rows, width))
        self.means = np.full((rows, width), -np.inf)
        self.buf = np.empty((rows, width))
        self.rows = np.arange(rows)
        # offsets into the flattened state, row0 + cell reaches one cell in every row
        self.row0 = self.rows * width
        self.flat = tuple(a.reshape(-1) for a in (self.ranks, self.sums, self.counts, self.means))
        # a window needs more arms per row than it keeps, and pays for
        # itself only when it leaves enough of them out
        self.windowed = width > WINDOW_ARMS and rows * (width - WINDOW_ARMS) >= WINDOW_CELLS
        if self.windowed:  # an open window's copy of its candidates' state, and their index
            self.part = tuple(np.empty((rows, WINDOW_ARMS), a.dtype) for a in self.flat)
            self.part_flat = tuple(a.reshape(-1) for a in self.part)
            self.part_buf = np.empty((rows, WINDOW_ARMS))
            self.part_row0 = self.rows * WINDOW_ARMS
        self.pos = np.zeros(rows, np.int64)
        self.slen = np.zeros(rows, np.int64)
        self.rep = np.ones(rows, np.int64)
        self.lim = np.full(rows, math.inf)
        self.by_mean = np.zeros(rows, bool)
        # the record of the steps begin .. end - 1, one column each: the
        # rank pulled, and a reward that starts as sigma times the noise
        self.record = np.empty((rows, max(1, CHUNK_CELLS // rows)), np.intp)
        self.rewards = np.empty(self.record.shape)
        self.sigma, self.begin, self.end = sigma, 0, 0
        self.bases = [0] * rows  # rank 0 is the empty set
        self.levels: list[list[ItemSet]] = [[] for _ in envs]
        # the arms of each base's phase, shared by every row with that base
        self.phases: dict[int, np.ndarray] = {}

    def _start(self, r: int) -> None:
        """Begin row r's next phase."""
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
        self.ranks[r, :size] = arms
        # cells past the phase's arms keep mean -inf and one pull: their
        # index is -inf (never NaN), which the argmax never picks
        self.counts[r] = 1.0
        self.counts[r, :size] = 0.0
        self.sums[r] = 0.0
        self.means[r] = -np.inf
        self.means[r, :size] = 0.0
        self.pos[r], self.slen[r], self.rep[r] = 0, size * rep, rep
        self.lim[r], self.by_mean[r] = lim, greedy and self.uniform

    def _close(self, r: int, j: int, s: int) -> None:
        """Fix row r's level at its arm j; its next phase starts at step s."""
        self.bases[r] = int(self.phases[self.bases[r]][j])
        self.levels[r].append(ItemSet(self.table.masks[self.bases[r]]))
        if s < self.T:
            self._start(r)
        else:  # budget spent: the row only waits for the others' last closes
            self.lim[r], self.by_mean[r] = math.inf, False

    def _index_argmax(self, t: int) -> np.ndarray:
        """Each row's index argmax at step t, over every arm: the path of
        narrow batches, and the fallback of a candidate window."""
        return _index(BONUS_SCALE * math.log(t), self.counts, self.means, self.buf).argmax(axis=1)

    def _window(self, t: int, end: int, sched: np.ndarray) -> tuple:
        """Open a candidate window for the index steps t .. end - 1: copy
        each row's ``WINDOW_ARMS`` candidate cells, in position order, into
        the compact state ``part``, and return the candidates, their flat
        cells and tau.  A free row's candidates are its cells of largest
        bound U, and tau is its largest U outside them.  U is the index at
        the largest 8 ln s of the window; IEEE division, sqrt and addition
        are monotone, so U bounds the index of every arm that the window
        does not pull, at each of its steps.  A row in its schedule pulls at
        most one new cell per step from cell pos // rep on, so its
        candidates are the cells from there (or the last ones), and its tau
        is -inf: its answer is never read."""
        bonus = max(BONUS_SCALE * math.log(s) for s in range(t, end))
        bound = _index(bonus, self.counts, self.means, self.buf)
        order = bound.argpartition(-WINDOW_ARMS - 1, axis=1)
        tau = bound[self.rows, order[:, -WINDOW_ARMS - 1]]
        cand = np.sort(order[:, -WINDOW_ARMS:], axis=1)
        if sched.any():
            first = np.minimum(self.pos // self.rep, bound.shape[1] - WINDOW_ARMS)
            cand[sched] = first[sched, None] + np.arange(WINDOW_ARMS)
            tau[sched] = -np.inf
        cells = (self.row0[:, None] + cand).reshape(-1)
        for full, part in zip(self.flat, self.part_flat):
            np.take(full, cells, out=part)
        return cand, cells, tau

    def _window_argmax(self, t: int, window: tuple) -> np.ndarray | None:
        """Each row's index argmax at step t among the window's candidates,
        as a flat cell of the compact state, or None unless every row's best
        candidate is above its tau.  Then no other arm reaches it, and the
        candidates' first maximum (they are in position order) is the dense
        argmax, ties included."""
        index = _index(BONUS_SCALE * math.log(t), self.part[2], self.part[3], self.part_buf)
        at = self.part_row0 + index.argmax(axis=1)
        if np.count_nonzero(index.reshape(-1)[at] > window[2]) < at.size:
            return None
        return at

    def _write_back(self, window: tuple | None) -> None:
        """Copy an open window's sums, pulls and means to the full state."""
        if window is not None:
            for full, part in zip(self.flat[1:], self.part_flat[1:]):
                full[window[1]] = part

    def _pull(self, t: int, cells: np.ndarray) -> None:
        """Pull ``cells[r, i]`` in row r at step t + i, for every row."""
        steps = slice(t - self.begin, t - self.begin + cells.shape[1])
        flat = self.row0[:, None] + cells
        ranks, sums, counts, means = self.flat
        rank = ranks[flat]
        self.record[:, steps] = rank
        rewards = self.rewards[:, steps]
        rewards += self.table.values[rank]
        np.add.at(sums, flat, rewards)  # in pull order, as a running sum
        np.add.at(counts, flat, 1.0)
        means[flat] = sums[flat] / counts[flat]

    def run(self) -> list[list[ItemSet]]:
        for r in range(len(self.envs)):
            self._start(r)
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
                closing = np.flatnonzero(free & (self.flat[2][self.row0 + j] >= self.lim))
                for r in closing.tolist():
                    self._close(r, int(j[r]), t)
                if closing.size:
                    sched = self.pos < self.slen
            if t == self.end:  # the chunk is full, or the budget spent
                self._record(t)
                if t == self.T:
                    return self.levels
            if sched.all():
                run = min(
                    self.end - t,
                    int((self.slen - self.pos).min()),
                    max(1, BLOCK_CELLS // len(self.envs)),
                )
                cells = (self.pos[:, None] + np.arange(run)) // self.rep[:, None]
                self.pos += run
                self._pull(t, cells)
                t += run
            else:
                t = self._steps(t, sched, j)

    def _record(self, t: int) -> None:
        """Hand every env its steps of the chunk that ends at step t, and
        draw the noise of the next chunk, which begins there."""
        done = t - self.begin
        for env, ranks, rewards in zip(self.envs, self.record, self.rewards):
            env.trajectory.extend(self.table, ranks[:done], rewards[:done])
        self.begin, self.end = t, min(self.T, t + self.record.shape[1])
        # only the cells the chunk fills: the rest may hold anything, even inf
        noise = self.rewards[:, : self.end - t]
        for env, row in zip(self.envs, noise):
            env.fill_noise(row)
        noise *= self.sigma

    def _steps(self, t: int, sched: np.ndarray, j: np.ndarray) -> int:
        """Single steps from t, the first on the index argmax j, while the
        rows past their schedules apply the index rule: stop before a level
        closes, or when a schedule or the chunk ends; return the t reached.
        The rows in a schedule stay in it throughout, so the only arms a
        free row pulls are its argmaxes: a window's candidates.  A step pulls
        on the full state, or on an open window's compact state, which is
        written back when the window closes and before the return."""
        free = ~sched
        every = not sched.any()
        stop = self.end if every else min(self.end, t + int((self.slen - self.pos)[sched].min()))
        closable = bool((free & (self.lim < math.inf)).any())
        values = self.table.values
        # the flat state pulled, and each row's origin in it: a row in its
        # schedule pulls the cell origin + pos // rep
        (ranks, sums, counts, means), origin = self.flat, self.row0
        at = origin + j
        window, end = None, t  # an open window serves the steps before end
        with np.errstate(divide="ignore", invalid="ignore"):
            while True:
                if not every:
                    at = np.where(sched, origin + self.pos // self.rep, at)
                    self.pos += sched
                rank = ranks[at]
                self.record[:, t - self.begin] = rank
                rewards = self.rewards[:, t - self.begin]
                rewards += values[rank]
                # one cell per row, so plain indexed updates add in pull order
                total, pulls = sums[at] + rewards, counts[at] + 1.0
                sums[at], counts[at], means[at] = total, pulls, total / pulls
                t += 1
                if t >= stop:
                    break
                if self.windowed and t >= end:
                    self._write_back(window)
                    end = min(stop, t + WINDOW_STEPS)
                    window = self._window(t, end, sched)
                    ranks, sums, counts, means = self.part_flat
                    origin = self.part_row0 - window[0][:, 0]
                at = None if window is None else self._window_argmax(t, window)
                if at is None:  # the dense index, up to the next window's step
                    self._write_back(window)
                    window = None
                    (ranks, sums, counts, means), origin = self.flat, self.row0
                    at = origin + self._index_argmax(t)
                if closable and (free & (counts[at] >= self.lim)).any():
                    break
        self._write_back(window)
        return t


def _index(bonus: float, counts: np.ndarray, means: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Each cell's mean + sqrt(bonus / pulls), in ``out``.  A row still in its
    schedule has arms with no pulls, so its index divides by zero (callers
    then silence the floating-point warnings) and its answer is never read."""
    np.divide(bonus, counts, out=out)
    np.sqrt(out, out=out)
    out += means
    return out
