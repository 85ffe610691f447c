"""Every function, class and method of the library has a caller outside
the tests.

A definition in src/cherednik/*.py (a top-level function or class, or a
method that is not a dunder) must be named somewhere the program reads:
in src/ (apart from `__init__.py`, whose exports name everything), in
demos/ or in bench/*.py.  A top-level function or class is named by an
identifier, an attribute or a string constant.  A method is named only by
an attribute access or a string constant (a getattr key such as "x_gen",
or a part of a dotted name such as bench/tracing.py's TARGETS), never by a
bare identifier: a local variable that shares its name calls nothing.
Tests do not count, so code that only a test reaches belongs in the tests
(`tests/oracles.py` keeps the references they compare against).
"""
import ast
import re
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cherednik"
_DOTTED = re.compile(r"[A-Za-z_][\w.]*")


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _definitions(modules):
    """{name: 'module.py:line'} for every definition the rule covers, over
    (file name, syntax tree) pairs; a method is named 'Class.method'."""
    found = {}
    for fname, tree in modules:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found.setdefault(node.name, f"{fname}:{node.lineno}")
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    found.setdefault(f"{node.name}.{item.name}",
                                     f"{fname}:{item.lineno}")
    return found


def _named(trees):
    """(identifiers, attributes): the bare names the program reads, and
    the attributes it accesses or spells in a string constant that is a
    dotted name, split at the dots."""
    names, attrs = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and _DOTTED.fullmatch(node.value)):
                attrs.update(node.value.split("."))
    return names, attrs


def _orphans(definitions, named):
    names, attrs = named
    return [f"{name} ({where})" for name, where in definitions.items()
            if ("." in name and name.rsplit(".", 1)[1] not in attrs)
            or ("." not in name and name not in names | attrs)]


def _program():
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "demos").glob("*.py"))
    paths += sorted((ROOT / "bench").glob("*.py"))
    return [_parse(p) for p in paths]


def test_every_definition_in_src_is_named_outside_the_tests():
    named = _named(_program())
    assert {"build_group", "dirac_partition"} <= named[0]
    assert {"x_gen", "action_blocks"} <= named[1]
    defs = _definitions([(p.name, _parse(p))
                         for p in sorted(SRC.glob("*.py"))])
    orphans = _orphans(defs, named)
    assert not orphans, f"named only by tests, or by nothing: {orphans}"


def test_a_method_named_like_a_local_variable_is_flagged():
    module = ast.parse(textwrap.dedent("""
        class Box:
            def coeffs(self):
                return 1

            def size(self):
                return 2

            def label(self):
                return 3

        def use(box):
            coeffs = box.size()
            return coeffs, getattr(box, "label")()

        use(Box())
    """))
    defs = _definitions([("box.py", module)])
    assert set(defs) == {"Box", "Box.coeffs", "Box.size", "Box.label", "use"}
    assert _orphans(defs, _named([module])) == ["Box.coeffs (box.py:3)"]
