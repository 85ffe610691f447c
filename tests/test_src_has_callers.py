"""Every function, class and method of the library has a caller outside
the tests.

A definition in src/cherednik/*.py (a top-level function or class, or a
method that is not a dunder) must be named somewhere the program reads:
as an identifier or an attribute in src/ (apart from `__init__.py`, whose
exports name everything), in demos/ or in bench/*.py, or in the dotted
strings of bench/tracing.py's TARGETS.  Tests do not count, so code that
only a test reaches belongs in the tests (`tests/oracles.py` keeps the
references they compare against).
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cherednik"


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _definitions():
    """{name: 'module.py:line'} for every definition the rule covers."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found.setdefault(node.name, f"{path.name}:{node.lineno}")
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    found.setdefault(
                        f"{node.name}.{item.name}",
                        f"{path.name}:{item.lineno}")
    return found


def _named():
    """Every identifier, attribute and TARGETS name part the program
    reads outside the tests."""
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "demos").glob("*.py"))
    paths += sorted((ROOT / "bench").glob("*.py"))
    names = set()
    for path in paths:
        tree = _parse(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        if path.name != "tracing.py":
            continue
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and getattr(node.targets[0], "id", None) == "TARGETS"):
                for const in ast.walk(node.value):
                    if (isinstance(const, ast.Constant)
                            and isinstance(const.value, str)):
                        names.update(const.value.split("."))
    return names


def test_every_definition_in_src_is_named_outside_the_tests():
    named = _named()
    assert "build_group" in named and "dirac_partition" in named
    orphans = [f"{name} ({where})"
               for name, where in _definitions().items()
               if name.rsplit(".", 1)[-1] not in named]
    assert not orphans, f"named only by tests, or by nothing: {orphans}"
