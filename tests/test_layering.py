"""The package's import graph is layered: every intra-package import sits
at module level, where it is visible, and those imports form no cycle.
A function-level import is how a cycle hides, so both are checked on the
parsed sources of src/cherednik."""
import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cherednik"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _tree(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text(), f"{name}.py")


def _targets(node):
    """The package modules an import statement names, or [] for an import
    from outside the package."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] if "." in a.name else "__init__"
                for a in node.names if a.name.split(".")[0] == "cherednik"]
    if node.level == 0 and (node.module or "").split(".")[0] != "cherednik":
        return []
    path = (node.module or "").split(".")
    if node.level == 0:
        path = path[1:]
    if path and path[0]:
        return [path[0]]
    # from . import a, b: modules, or names the package itself defines
    return [a.name if a.name in MODULES else "__init__" for a in node.names]


def _imports(node):
    return [n for n in ast.walk(node)
            if isinstance(n, (ast.Import, ast.ImportFrom))]


def test_the_package_is_found():
    assert {"__init__", "linalg", "pbw", "dirac"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_no_function_imports_a_package_module(name):
    found = [(fn.name, node.lineno)
             for fn in ast.walk(_tree(name))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in _imports(fn) if _targets(node)]
    assert not found, f"{name}.py imports inside a function at {found}"


def test_intra_package_imports_have_no_cycle():
    graph = {name: {t for node in _imports(_tree(name)) for t in _targets(node)}
             for name in MODULES}
    assert graph["dirac"] >= {"linalg", "pbw"}
    try:
        list(TopologicalSorter(graph).static_order())
    except CycleError as err:
        pytest.fail(f"import cycle: {' -> '.join(err.args[1])}")
