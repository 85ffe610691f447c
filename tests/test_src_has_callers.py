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
(`tests/oracles.py` keeps the references they compare against).  A method
whose bare name another definition shares passes here;
tests/test_src_is_executed.py checks by running the entry points.

The same holds for the data a group carries: every attribute that
groups.build_group sets on a ReflectionGroup (a constructor keyword or an
assignment to `group.<name>`) must be read, as an attribute or a dotted
string constant, somewhere the program reads outside build_group itself.
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


def _group_fields(tree):
    """({attribute: line} that build_group sets on the group, the
    build_group node) in the syntax tree of groups.py."""
    build = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "build_group")
    fields = {}
    for node in ast.walk(build):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "ReflectionGroup"):
            for kw in node.keywords:
                fields.setdefault(kw.arg, kw.value.lineno)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "group"):
                    fields.setdefault(target.attr, target.lineno)
    return fields, build


def _reads(trees, skip):
    """Attributes loaded, or spelled in a dotted string constant, in the
    trees outside the node `skip`."""
    attrs = set()
    stack = list(trees)
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            attrs.update(node.value.split("."))
        stack.extend(ast.iter_child_nodes(node))
    return attrs


def _unread_fields(groups_tree, trees):
    fields, build = _group_fields(groups_tree)
    read = _reads(trees, build)
    return [f"{name} (groups.py:{line})" for name, line in fields.items()
            if name not in read]


def test_every_group_field_is_read_outside_build_group():
    trees = _program()
    groups_tree = next(
        t for t in trees if any(isinstance(node, ast.FunctionDef)
                                and node.name == "build_group"
                                for node in t.body))
    fields, _ = _group_fields(groups_tree)
    assert {"elements", "reflections", "character_table"} <= set(fields)
    unread = _unread_fields(groups_tree, trees)
    assert not unread, f"set by build_group, read by nothing: {unread}"


def test_a_field_read_only_inside_build_group_is_flagged():
    module = ast.parse(textwrap.dedent("""
        def build_group(name):
            group = ReflectionGroup(order=2, label=name)
            group.kept = 1
            group.spare = [group.kept]
            if group.spare is None:
                raise AssertionError
            return group

        def use(group):
            return group.order, group.kept, getattr(group, "label")
    """))
    assert _unread_fields(module, [module]) == ["spare (groups.py:5)"]
