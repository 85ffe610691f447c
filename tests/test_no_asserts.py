"""Checks in the library must survive `python -O`, which strips every
`assert` statement: identity failures raise AssertionError explicitly and
bad arguments raise ValueError."""
import ast
import glob
import os
from fractions import Fraction

import pytest

from cherednik.clifford import CliffordAlgebra, polarized_algebra, spin_action

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "cherednik")


def test_no_assert_statements_in_src():
    found = []
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert paths
    for path in paths:
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        found.extend(f"{os.path.basename(path)}:{node.lineno}"
                     for node in ast.walk(tree) if isinstance(node, ast.Assert))
    assert not found, f"assert statements in src: {found}"


def test_clifford_argument_checks_raise_value_error():
    alg = polarized_algebra(1)
    other = CliffordAlgebra([[Fraction(1), 0], [0, Fraction(1)]])
    with pytest.raises(ValueError, match="spin module"):
        spin_action(other.gen(0), other)
    with pytest.raises(ValueError, match="different Clifford algebras"):
        alg.gen(0) + other.gen(0)
