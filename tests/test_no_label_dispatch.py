"""Modules are chosen by their mathematics, not by their label: no
comparison in the library reads an attribute named `kind`.  The label of
a graded module only names its report; the data its family shares is keyed
by the ideal, and the ideal and t decide what is computed."""
import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "cherednik")


def test_no_comparison_on_a_kind_attribute():
    found = []
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert paths
    for path in paths:
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        where = os.path.basename(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and any(
                    isinstance(side, ast.Attribute) and side.attr == "kind"
                    for side in [node.left, *node.comparators]):
                found.append(f"{where}:{node.lineno}")
    assert not found, f"comparisons on .kind in src: {found}"
