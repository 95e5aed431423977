"""Hand-emitted SVG chart of mean final regret versus horizon.

No plotting dependency: the chart is assembled as SVG text.  One polyline
per policy, a shaded band of +/- 2 standard errors around each line (zero
width for single-trial data), log-scaled horizon axis, and a legend.
"""

from __future__ import annotations

import csv
import io
import math
from collections import defaultdict

from .errors import ConfigError

RESULTS_HEADER = [
    "policy",
    "T",
    "trial",
    "seed",
    "checkpoint_t",
    "cum_reward",
    "regret_opt",
    "regret_alpha",
    "regret_gr",
]

# the chart's size in SVG user units
WIDTH, HEIGHT = 640, 420
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _aggregate(text: str):
    """Per (policy, T): mean and stderr of final-checkpoint regret_gr."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ConfigError("results file is empty")
    if header != RESULTS_HEADER:
        raise ConfigError(f"unexpected results header: {header}")
    final: dict[tuple[str, int, int], tuple[int, float]] = {}
    policies: list[str] = []
    for row in reader:
        if not row:
            continue
        if len(row) != len(RESULTS_HEADER):
            raise ConfigError(f"malformed row: {row}")
        policy, T, trial, _seed, cp, _cum, _ropt, _ralpha, rgr = row
        try:
            key = (policy, int(T), int(trial))
            cp_t = int(cp)
            val = float(rgr)
        except ValueError as exc:
            raise ConfigError(f"malformed row: {row}") from exc
        if key[1] < 1 or not math.isfinite(val):
            raise ConfigError(f"malformed row: {row}")
        if policy not in policies:
            policies.append(policy)
        prev = final.get(key)
        if prev is None or cp_t > prev[0]:
            final[key] = (cp_t, val)
    if not final:
        raise ConfigError("results file has no data rows")

    series: dict[str, list[tuple[int, float, float]]] = defaultdict(list)
    by_cell: dict[tuple[str, int], list[float]] = defaultdict(list)
    for (policy, T, _trial), (_cp, val) in final.items():
        by_cell[(policy, T)].append(val)
    for (policy, T), vals in sorted(by_cell.items(), key=lambda kv: kv[0][1]):
        mean = sum(vals) / len(vals)
        if len(vals) > 1:
            var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
            stderr = math.sqrt(var / len(vals))
        else:
            stderr = 0.0
        series[policy].append((T, mean, stderr))
    return policies, series


def render_results_svg(results_csv_text: str) -> str:
    policies, series = _aggregate(results_csv_text)

    margin_left, margin_right, margin_top, margin_bottom = 70, 20, 50, 55
    plot_w = WIDTH - margin_left - margin_right
    plot_h = HEIGHT - margin_top - margin_bottom

    xs = sorted({T for pts in series.values() for (T, _m, _s) in pts})
    y_hi = max(m + 2 * s for pts in series.values() for (_T, m, s) in pts)
    y_lo = min(0.0, min(m - 2 * s for pts in series.values() for (_T, m, s) in pts))
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    lo_x, hi_x = math.log10(xs[0]), math.log10(xs[-1])
    if hi_x <= lo_x:
        hi_x = lo_x + 1.0

    def px(T: float) -> float:
        return margin_left + (math.log10(T) - lo_x) / (hi_x - lo_x) * plot_w

    def py(v: float) -> float:
        return margin_top + (y_hi - v) / (y_hi - y_lo) * plot_h

    svg = []
    svg.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
        'font-family="sans-serif" font-size="12">'
    )
    svg.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>')
    svg.append(
        f'<text x="{WIDTH / 2}" y="22" text-anchor="middle" font-size="15">'
        "Mean final regret vs horizon</text>"
    )

    # log-ticks at powers of ten inside the range, plus the endpoints
    tick_ts = sorted({xs[0], xs[-1]} | {
        10**e for e in range(math.ceil(lo_x), math.floor(hi_x) + 1)
    })
    for T in tick_ts:
        x = px(T)
        svg.append(
            f'<line x1="{x:.2f}" y1="{margin_top}" x2="{x:.2f}" '
            f'y2="{margin_top + plot_h}" stroke="#e8e8e8"/>'
        )
        svg.append(
            f'<text x="{x:.2f}" y="{margin_top + plot_h + 18}" '
            f'text-anchor="middle">{T:g}</text>'
        )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        v = y_lo + frac * (y_hi - y_lo)
        y = py(v)
        svg.append(
            f'<line x1="{margin_left}" y1="{y:.2f}" x2="{margin_left + plot_w}" '
            f'y2="{y:.2f}" stroke="#e8e8e8"/>'
        )
        svg.append(
            f'<text x="{margin_left - 8}" y="{y + 4:.2f}" text-anchor="end">{v:.3g}</text>'
        )

    for idx, policy in enumerate(policies):
        pts = series[policy]
        color = _COLORS[idx % len(_COLORS)]
        upper = [(px(T), py(m + 2 * s)) for (T, m, s) in pts]
        lower = [(px(T), py(m - 2 * s)) for (T, m, s) in reversed(pts)]
        path = "M " + " L ".join(f"{x:.2f} {y:.2f}" for x, y in upper + lower) + " Z"
        svg.append(f'<path d="{path}" fill="{color}" fill-opacity="0.15" stroke="none"/>')
        line = " ".join(f"{px(T):.2f},{py(m):.2f}" for (T, m, _s) in pts)
        svg.append(
            f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        ly = margin_top + 8 + 16 * idx
        lx = margin_left + plot_w - 150
        svg.append(f'<rect x="{lx}" y="{ly - 9}" width="12" height="12" fill="{color}"/>')
        svg.append(f'<text x="{lx + 16}" y="{ly + 2}">{policy}</text>')

    svg.append(
        f'<text x="{margin_left + plot_w / 2}" y="{HEIGHT - 14}" text-anchor="middle">'
        "horizon T (log scale)</text>"
    )
    svg.append(
        f'<text x="18" y="{margin_top + plot_h / 2}" text-anchor="middle" '
        f'transform="rotate(-90, 18, {margin_top + plot_h / 2})">mean final regret</text>'
    )
    svg.append(
        f'<line x1="{margin_left}" y1="{margin_top}" x2="{margin_left}" '
        f'y2="{margin_top + plot_h}" stroke="#333"/>'
    )
    svg.append(
        f'<line x1="{margin_left}" y1="{margin_top + plot_h}" '
        f'x2="{margin_left + plot_w}" y2="{margin_top + plot_h}" stroke="#333"/>'
    )
    svg.append("</svg>")
    return "\n".join(svg) + "\n"
