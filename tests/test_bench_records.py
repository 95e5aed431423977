"""Committed benchmark records (``BENCH_*.json`` at the repository root)
name only the workloads and metrics that ``BENCHMARK.json`` declares, so a
record cannot drift from the benchmark that produced it, and every side of a
record begins with the 40-hex-digit hash of the commit it measured (a change
measured before its own commit exists is written ``<parent hash>+change``)."""

import json
import math
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_records_name_only_declared_workloads_and_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    declared = {
        "steady": {m["name"] for m in spec["end_to_end"]},
        "trace": {m["name"] for m in spec["per_layer"]},
    }
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        doc = json.loads(path.read_text())
        assert doc["sides"], path.name
        for side, record in doc["sides"].items():
            assert re.match(r"[0-9a-f]{40}(?![0-9a-f])", record["commit"]), (path.name, side)
            for kind, names in declared.items():
                for workload, metrics in record[kind].items():
                    assert workload in workloads, (path.name, side, workload)
                    assert metrics and set(metrics) <= names, (path.name, side, workload)
                    for stats in metrics.values():
                        values = stats.values() if isinstance(stats, dict) else [stats]
                        assert all(math.isfinite(v) for v in values), (path.name, side, workload)
        for workload, metrics in doc.get("pairs", {}).items():
            assert workload in workloads and set(metrics) <= declared["steady"], (path.name, workload)
        # steady runs of variants of the change, beside it
        for group in doc.get("alternatives", {}).values():
            for label, runs in group["variants"].items():
                for workload, metrics in runs.items():
                    assert workload in workloads, (path.name, label, workload)
                    assert metrics and set(metrics) <= declared["steady"], (path.name, label)
