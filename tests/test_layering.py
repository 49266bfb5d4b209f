"""The package's modules import each other without cycles, and every
public name of the package has a reader outside the tests.

The layers run words -> diagram -> markov -> cobordism, with sigtables,
checks and cli above them: markov steps the displacement laws that
cobordism's mean 4-genus bound reuses, so markov must not import cobordism.
``budget`` sits below them all and is the only module that raises
``BudgetError``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "twobridge"
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


# Public names kept without a reader outside the tests, with the reason.
KEPT_UNREAD = {
    "diagram_for_word": "the plat diagram that the arc-graph oracle checks",
    "plat_component_count": "the arc-graph oracle's one-component check",
    "bijection_f": "the paper's bijection of T(2m+1), T(2m+2) onto braid "
                   "words of length 2m-1, from which the word counts follow",
    "bijection_f_inverse": "its inverse, a uniform sampler of T(c)",
}


def names_read(tree, *, strings=False):
    """Names that a module reads: loaded names, attributes and imported
    names, plus identifier-like string constants if ``strings``.  A
    top-level def or class reading its own name does not count."""
    found = set()
    for statement in tree.body:
        own = getattr(statement, "name", None)
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.split(".")[-1]
            elif strings and isinstance(node, ast.Constant) \
                    and isinstance(node.value, str) and node.value.isidentifier():
                name = node.value
            else:
                continue
            if name != own:
                found.add(name)
    return found


def readers():
    """Every name read in src/, demos/ and perfbench/; perfbench also names
    functions in strings (``tracing.TARGETS``, the lib jobs of workloads)."""
    found = set()
    for folder in ("src", "demos", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            found |= names_read(ast.parse(path.read_text()),
                                strings=folder == "perfbench")
    return found


def is_click_command(node):
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {element.value for node in tree.body if isinstance(node, ast.Assign)
            and any(getattr(target, "id", None) == "__all__" for target in node.targets)
            for element in node.value.elts}


def public_definitions():
    """(module, name) of every public top-level def and class of the package."""
    for name in sorted(MODULES):
        for node in ast.parse((PACKAGE / f"{name}.py").read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_") and not is_click_command(node):
                yield name, node.name


def test_every_public_name_has_a_reader_outside_the_tests():
    read = readers() | exported() | set(KEPT_UNREAD)
    unread = [f"{module}.{name}" for module, name in public_definitions()
              if name not in read]
    assert unread == []


def test_reader_scan_ignores_comments_and_prose():
    tree = ast.parse('''
def runs():
    """A strand runs through the middle."""
    return runs()  # runs again
''')
    assert "runs" not in names_read(tree)
    assert "runs" in names_read(ast.parse("x = words.runs"))
    assert "runs" in names_read(ast.parse("T = {'words': ('runs',)}"), strings=True)
    assert "runs" not in names_read(ast.parse("T = 'runs'"))


def test_kept_names_are_still_unread():
    # An allow-list entry that gains a reader outside the tests is stale.
    assert set(KEPT_UNREAD) & readers() == set()
