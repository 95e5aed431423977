"""The package's import graph: every import at module level, and no cycle."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "submodbandit"


def _modules() -> dict[str, ast.Module]:
    paths = sorted(PACKAGE.glob("*.py"))
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in paths}


def test_no_import_inside_a_function():
    # an import in a function body is the usual way round a cycle in the graph
    found = set()
    for name, tree in _modules().items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        found.add(f"{name}.py:{node.lineno} in {func.name}")
    assert sorted(found) == []


def test_package_import_graph_is_acyclic():
    modules = _modules()
    graph = {}
    for name, tree in modules.items():
        deps = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    deps.add(node.module)
                else:  # from . import x: a submodule, or a name of the package
                    deps |= {a.name if a.name in modules else "__init__" for a in node.names}
        graph[name] = deps
    try:
        list(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        raise AssertionError(f"import cycle: {' -> '.join(exc.args[1])}") from None
