"""One round of one workload, in a fresh process, the way a user runs it.

    python3 perfbench/workload.py WORKLOAD INPUT_DIR OUT_DIR TRACE

A fresh process per round keeps the program's in-process caches
(``structure._TABLE_CACHE``, ``analysis._BENCH_CACHE``) from carrying over
between rounds and lets set-up include the imports.  The round prints one
JSON line with CLOCK_MONOTONIC stamps, which are comparable across
processes: the end of set-up (before the first pull or the first structural
check) and the moment the last output was written.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    workload, in_dir, out_dir, trace = sys.argv[1], Path(sys.argv[2]), Path(sys.argv[3]), sys.argv[4]
    sys.path.insert(0, str(ROOT / "src"))
    import submodbandit

    if not Path(submodbandit.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"submodbandit imported from {submodbandit.__file__}, not this checkout", file=sys.stderr)
        return 2
    tracer = None
    if trace == "1":
        sys.path.insert(0, str(HERE))
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()  # before the names below are bound, so they are the wrapped ones

    if workload == "hard-verify":
        from submodbandit.functions import spec_from_json
        from submodbandit.verify import run_checks

        docs = json.loads((in_dir / "instances.json").read_text())
        specs = [(spec_from_json(doc["function"]), doc["k"]) for doc in docs]
        setup_end = now()
        tables = [
            [{"name": r.name, "ok": bool(r.ok), "detail": r.detail} for r in run_checks(spec, k)]
            for spec, k in specs
        ]
        (out_dir / "verify.json").write_text(json.dumps(tables))
    else:
        from submodbandit.analysis import benchmark_summary
        from submodbandit.experiments import load_config, run_experiment

        config = load_config(in_dir / "config.json")
        benchmark_summary(config.function, config.k)
        setup_end = now()
        run_experiment(config, jobs=1, output_dir=out_dir)
    end = now()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    trace_stats = tracer.report() if tracer else None
    print(json.dumps({"setup_end": setup_end, "end": end, "rss_kb": rss_kb, "trace": trace_stats}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
