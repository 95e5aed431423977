"""Per-layer tracing from outside the program.

Each traced function is replaced by a wrapper under every name its callers
look it up by: the class attribute for methods, and for module functions the
attribute of every ``submodbandit`` module that imported it by name (for
example ``experiments.regret_report``).  Spans are aggregated in memory per
function, as call count, inclusive time and self time (inclusive time minus
that of traced callees), and handed over when the round ends.  Keeping one
record per span is not affordable: a desk-grid round makes about 3e5 pulls.
A target the program no longer has is left out and reads 0 calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# metric prefix -> (module, attribute path); "_value" wraps every concrete
# spec's raw evaluator, which the dense value tables call directly
TARGETS = {
    "envs.BanditEnv.pull_mask": ("envs", "BanditEnv.pull_mask"),
    "policies.SubUcbPolicy.run": ("policies", "SubUcbPolicy.run"),
    "policies.EtcgPolicy.run": ("policies", "EtcgPolicy.run"),
    "policies.UcbAllPolicy.run": ("policies", "UcbAllPolicy.run"),
    "functions.spec_from_json": ("functions", "spec_from_json"),
    "functions.value_of_mask": ("functions", "SetFunction.value_of_mask"),
    "functions._value": ("functions", "_value"),
    "analysis.benchmark_summary": ("analysis", "benchmark_summary"),
    "analysis.regret_report": ("analysis", "regret_report"),
    "experiments.run_experiment": ("experiments", "run_experiment"),
    "structure.value_table": ("structure", "value_table"),
    "structure.best_extension_table": ("structure", "best_extension_table"),
    "structure.popcounts": ("structure", "popcounts"),
    "structure.check_monotone": ("structure", "check_monotone"),
    "structure.check_submodular": ("structure", "check_submodular"),
    "structure.curvature": ("structure", "curvature"),
    "greedy.greedy_benchmark": ("greedy", "greedy_benchmark"),
    "greedy.enumerate_benchmark": ("greedy", "enumerate_benchmark"),
    "greedy.brute_force_opt": ("greedy", "brute_force_opt"),
    "greedy.exact_greedy": ("greedy", "exact_greedy"),
    "verify.run_checks": ("verify", "run_checks"),
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {name: [0, 0.0, 0.0] for name in TARGETS}
        self._stack = [0.0]  # time spent in traced callees, one slot per open span

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                inner = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - inner
                stack[-1] += elapsed

        return traced

    def install(self) -> None:
        """Wrap every target, before callers outside the package bind its names."""
        package = "submodbandit"
        for mod_name, _ in TARGETS.values():
            importlib.import_module(f"{package}.{mod_name}")
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for name, (mod_name, path) in TARGETS.items():
            module = sys.modules[f"{package}.{mod_name}"]
            if path == "_value":
                base = module.SetFunction
                for cls in vars(module).values():
                    if isinstance(cls, type) and issubclass(cls, base) and "_value" in vars(cls):
                        cls._value = self._wrap(name, vars(cls)["_value"])
            elif "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name, None)
                if cls is not None and attr in vars(cls):
                    setattr(cls, attr, self._wrap(name, vars(cls)[attr]))
            elif hasattr(module, path):
                original = getattr(module, path)
                wrapped = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

    def report(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, (calls, total, own) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = total
            out[f"{name}.self_s"] = own
        return out
