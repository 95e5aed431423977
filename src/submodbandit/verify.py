"""Structural verification suite: one pass/fail table per instance.

For a (spec, k) pair the suite checks:

* monotonicity and submodularity (witness printed on failure),
* curvature inside [0, 1],
* the curvature-corrected greedy guarantee for the exact greedy chain
  (a FAIL naming the curvature when it lies outside [0, 1], where the
  guarantee has no ratio),
* agreement of the benchmark DP with explicit chain enumeration, which
  costs every ordered chain on its prefix tree over the feasible-set table
  when there are at most ``greedy.FULL_ENUM_CAP`` of them, and a fixed
  seeded sample of orders otherwise, drawn once per (n, k) and shared by
  every instance of that shape; the sampled variant checks the DP value is
  a lower bound and that the DP witness chain is feasible and costs exactly
  the DP value.

The curvature is the table's (``FeasibleTable.curvature``), computed once
for its row and the guarantee alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .functions import SetFunction
from .greedy import (
    FULL_ENUM_CAP,
    check_approx_guarantee,
    enumerate_benchmark,
    exact_greedy,
    greedy_benchmark,
)
from .structure import CHECK_TOL, check_monotone, check_submodular, curvature


@dataclass(frozen=True)
class CheckRow:
    name: str
    ok: bool
    detail: str = ""


def run_checks(spec: SetFunction, k: int) -> list[CheckRow]:
    rows: list[CheckRow] = []

    mono = check_monotone(spec, k)
    detail = ""
    if not mono.ok:
        A, a = mono.witness
        detail = f"f drops when adding {a} to {{{A.render()}}}"
    rows.append(CheckRow("monotone", mono.ok, detail))

    sub = check_submodular(spec, k)
    detail = ""
    if not sub.ok:
        A, B, a = sub.witness
        detail = (
            f"marginal of {a} grows from A={{{A.render()}}} to B={{{B.render()}}}"
        )
    rows.append(CheckRow("submodular", sub.ok, detail))

    c = curvature(spec, k)
    in_range = 0.0 <= c <= 1.0
    rows.append(CheckRow("curvature_in_range", in_range, f"c={c:.6g}"))

    if in_range:
        guarantee = check_approx_guarantee(spec, k, exact_greedy(spec, k))
        detail = f"lhs={guarantee.lhs:.6g} rhs={guarantee.rhs:.6g}"
        rows.append(CheckRow("greedy_guarantee", guarantee.ok, detail))
    else:
        detail = f"no approximation ratio: curvature c={c:.6g} outside [0, 1]"
        rows.append(CheckRow("greedy_guarantee", False, detail))

    dp = greedy_benchmark(spec, k)
    enum = enumerate_benchmark(spec, k)
    if math.perm(spec.n, k) <= FULL_ENUM_CAP:
        ok = abs(dp.value - enum.value) <= CHECK_TOL
        rows.append(
            CheckRow(
                "benchmark_dp_vs_enum",
                ok,
                f"dp={dp.value:.12g} enum={enum.value:.12g}",
            )
        )
    else:
        witness_cost = dp.chain.total_slack() + spec.value_of_mask(
            dp.chain.final_set().mask
        )
        ok = dp.value <= enum.value + CHECK_TOL and abs(witness_cost - dp.value) <= CHECK_TOL
        rows.append(
            CheckRow(
                "benchmark_dp_vs_enum_sampled",
                ok,
                f"dp={dp.value:.12g} sampled_min={enum.value:.12g}",
            )
        )
    return rows


def format_table(label: str, rows: list[CheckRow]) -> str:
    lines = [f"instance: {label}"]
    width = max(len(r.name) for r in rows)
    for r in rows:
        status = "PASS" if r.ok else "FAIL"
        detail = f"  {r.detail}" if r.detail else ""
        lines.append(f"  {r.name:<{width}}  {status}{detail}")
    return "\n".join(lines)


def all_ok(rows: list[CheckRow]) -> bool:
    return all(r.ok for r in rows)
