"""Output checks, made after the timed region against values computed here.

The reference values come from ``inputs``' own value functions: f* by brute
force, the robust-greedy benchmark B by walking every ordered chain, and the
curvature ratio alpha from its definition.  The checks never compare with a
stored copy of an earlier output.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from inputs import ValueFn, VerifyInput, masks_upto

RESULTS_HEADER = "policy,T,trial,seed,checkpoint_t,cum_reward,regret_opt,regret_alpha,regret_gr"
REL_TOL = 1e-9
ABS_TOL = 1e-12


@dataclass(frozen=True)
class Reference:
    f_star: float
    benchmark: float
    alpha: float


def reference(value: ValueFn, n: int, k: int) -> Reference:
    vals = {mask: value(mask) for mask in masks_upto(n, k)}
    f_star = max(vals.values())

    best_ext = {}
    for mask in masks_upto(n, k - 1):
        best_ext[mask] = max(vals[mask | (1 << b)] for b in range(n) if not (mask >> b) & 1)

    # every ordered chain, depth first: (set, accumulated slack, depth)
    benchmark = math.inf
    stack = [(0, 0.0, 0)]
    while stack:
        mask, acc, depth = stack.pop()
        if depth == k:
            benchmark = min(benchmark, acc + vals[mask])
            continue
        ext = best_ext[mask]
        for a in range(n):
            bit = 1 << a
            if not mask & bit:
                stack.append((mask | bit, acc + max(0.0, ext - vals[mask | bit]), depth + 1))

    worst = math.inf
    for mask in masks_upto(n, k - 1):
        for a in range(n):
            bit = 1 << a
            if mask & bit or vals[bit] <= 0.0:
                continue
            worst = min(worst, (vals[mask | bit] - vals[mask]) / vals[bit])
    c = 0.0 if math.isinf(worst) else 1.0 - worst
    alpha = 1.0 if c == 0.0 else (1.0 - math.exp(-c)) / c
    return Reference(f_star, benchmark, alpha)


def _close(got: float, want: float, scale: float) -> bool:
    return abs(got - want) <= REL_TOL * max(1.0, abs(scale))


def checkpoint_grid(T: int) -> list[int]:
    """The "log" checkpoints: powers of two up to T, then T itself."""
    cps = [1 << i for i in range(T.bit_length()) if 1 << i <= T]
    return cps if cps[-1] == T else cps + [T]


def cell_ok(lines: list[str], T: int, ref: Reference) -> bool:
    """One cell's rows: checkpoints end at T, the regret identities hold
    against the reference values, and the orderings the method guarantees."""
    rows = [line.split(",") for line in lines]
    if [int(r[4]) for r in rows] != checkpoint_grid(T):
        return False
    prev_cum = 0.0
    for r in rows:
        t = int(r[4])
        cum, r_opt, r_alpha, r_gr = (float(x) for x in r[5:9])
        scale = t * ref.f_star
        if not all(math.isfinite(x) for x in (cum, r_opt, r_alpha, r_gr)):
            return False
        if not (
            _close(r_opt, t * ref.f_star - cum, scale)
            and _close(r_gr, t * ref.benchmark - cum, scale)
            and _close(r_alpha, t * ref.alpha * ref.f_star - cum, scale)
        ):
            return False
        tol = REL_TOL * max(1.0, scale)
        if not (-tol <= r_opt and r_alpha <= r_gr + tol and r_gr <= r_opt + tol):
            return False
        if cum < prev_cum - tol:
            return False
        prev_cum = cum
    return True


def cell_lines(text: str) -> dict[tuple[str, int, int], list[str]]:
    """results.csv lines grouped by (policy, T, trial); empty if the header
    is not the expected one."""
    lines = text.splitlines()
    if not lines or lines[0] != RESULTS_HEADER:
        return {}
    cells: dict[tuple[str, int, int], list[str]] = {}
    for line in lines[1:]:
        row = line.split(",")
        if len(row) == len(RESULTS_HEADER.split(",")):
            cells.setdefault((row[0], int(row[1]), int(row[2])), []).append(line)
    return cells


def failed_cells(text: str, expected: list[tuple[str, int, int]], ref: Reference) -> set:
    """The expected cells that are missing from results.csv or fail a check."""
    cells = cell_lines(text)
    return {key for key in expected if key not in cells or not cell_ok(cells[key], key[1], ref)}


_SET = r"\{([0-9,]*)\}"
_WITNESS = re.compile(rf"marginal of (\d+) grows from A={_SET} to B={_SET}")
_NUMBER = r"([-+0-9.eE]+|inf|nan)"


def _mask(text: str) -> int:
    return sum(1 << int(a) for a in text.split(",") if a)


def _field(detail: str, name: str) -> float | None:
    m = re.search(rf"\b{name}={_NUMBER}", detail)
    return float(m.group(1)) if m else None


def chain_cost(levels: list[int], value: ValueFn, n: int) -> float:
    """f(final) + total slack of a nested chain, from the reference values."""
    cost = 0.0
    prev = 0
    for mask in levels:
        best = max(value(prev | (1 << b)) for b in range(n) if not (prev >> b) & 1)
        cost += max(0.0, best - value(mask))
        prev = mask
    return cost + value(prev)


def verify_ok(inst: VerifyInput, rows: list[dict], dp_value: float, dp_levels: list[int]) -> bool:
    """The battery's verdicts against the instance's known answers."""
    n, k = inst.function["n"], inst.k
    by_name = {r["name"]: r for r in rows}
    mono = by_name.get("monotone")
    sub = by_name.get("submodular")
    curv = by_name.get("curvature_in_range")
    dp_rows = [r for name, r in by_name.items() if name.startswith("benchmark_dp_vs_enum")]
    if mono is None or sub is None or curv is None or len(dp_rows) != 1:
        return False
    if not mono["ok"] or sub["ok"] != inst.submodular:
        return False
    if not sub["ok"]:
        m = _WITNESS.search(sub["detail"])
        if m is None:
            return False
        a, A, B = int(m.group(1)), _mask(m.group(2)), _mask(m.group(3))
        bit = 1 << a
        if A & ~B or B & bit or (B | bit).bit_count() > k:
            return False
        f = inst.value
        if not f(A | bit) - f(A) < f(B | bit) - f(B) - ABS_TOL:
            return False
    c = _field(curv["detail"], "c")
    if not curv["ok"] or c is None or not 0.0 <= c <= 1.0:
        return False
    if inst.submodular and not by_name.get("greedy_guarantee", {}).get("ok", False):
        return False

    # the DP row prints 12 significant digits; the DP itself is compared exactly
    dp_row = dp_rows[0]
    enum = _field(dp_row["detail"], "sampled_min")
    if enum is None:
        enum = _field(dp_row["detail"], "enum")
    printed = _field(dp_row["detail"], "dp")
    if not dp_row["ok"] or enum is None or printed is None:
        return False
    if not _close(printed, dp_value, 1.0) or dp_value > enum + 1e-11:
        return False
    if [m.bit_count() for m in dp_levels] != list(range(1, k + 1)):
        return False
    if any(prev & ~cur for prev, cur in zip(dp_levels, dp_levels[1:])):
        return False
    return abs(chain_cost(dp_levels, inst.value, n) - dp_value) <= ABS_TOL
