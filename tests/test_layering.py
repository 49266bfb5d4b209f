"""The package's modules import each other without cycles.

The layers run words -> diagram -> markov -> cobordism, with sigtables,
checks and cli above them: markov steps the displacement laws that
cobordism's mean 4-genus bound reuses, so markov must not import cobordism.
``budget`` sits below them all and is the only module that raises
``BudgetError``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "twobridge"
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}


def imported_modules(path):
    """Sibling modules that one module of the package imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "twobridge":
                continue
            parts = (node.module or "").split(".")[1 if node.level == 0 else 0:]
            if parts and parts[0]:
                found.add(parts[0])
            else:  # from . import x, y
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "twobridge" and len(parts) > 1:
                    found.add(parts[1])
    return found & MODULES


def import_graph():
    return {name: imported_modules(PACKAGE / f"{name}.py") for name in MODULES}


def find_cycle(graph):
    """One import cycle as a list of modules, or None."""
    state = {}

    def visit(name, path):
        state[name] = "open"
        for child in sorted(graph[name]):
            if state.get(child) == "open":
                return path[path.index(child):] + [child]
            if child not in state:
                cycle = visit(child, path + [child])
                if cycle:
                    return cycle
        state[name] = "done"
        return None

    for name in sorted(graph):
        if name not in state:
            cycle = visit(name, [name])
            if cycle:
                return cycle
    return None


def test_parser_sees_the_package_imports():
    graph = import_graph()
    assert {"words", "diagram", "markov", "cobordism"} <= MODULES
    assert graph["cobordism"] >= {"words", "diagram", "markov"}
    assert graph["checks"] >= {"cobordism", "markov", "sigtables", "words"}


def test_no_import_cycles():
    assert find_cycle(import_graph()) is None


def test_markov_below_cobordism():
    graph = import_graph()
    assert "cobordism" not in graph["markov"]
    assert graph["words"] == set()


def test_budget_is_the_one_refusal_path():
    graph = import_graph()
    assert graph["budget"] == set()
    raisers = {name for name in MODULES
               for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text()))
               if isinstance(node, ast.Raise) and node.exc is not None
               and "BudgetError(" in ast.unparse(node.exc)}
    assert raisers == {"budget"}


def test_cycle_finder_reports_a_cycle():
    graph = {"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a"}}
    assert find_cycle(graph) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": set()}) is None
