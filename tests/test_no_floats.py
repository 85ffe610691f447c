"""Exactness: no float enters any decision in the library.  Every value is
an int, a Fraction or a CyclotomicScalar, and the only math functions used
are integer-valued ones.  Rationals are ints when integral, and int / int is
a float, so true division appears only in scalars.py; everywhere else it
goes through scalars.reciprocal or Fraction(a, b)."""
import ast
import glob
import os
from fractions import Fraction

import pytest

from cherednik.scalars import real_sign, reduce, zeta

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "cherednik")
INTEGER_MATH = {"gcd", "lcm", "comb", "factorial", "isqrt", "perm", "prod"}


def test_no_float_use_in_src():
    found = []
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert paths
    for path in paths:
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        where = os.path.basename(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == "float":
                found.append(f"{where}:{node.lineno} float")
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, float)):
                found.append(f"{where}:{node.lineno} literal {node.value}")
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "math"
                  and node.attr not in INTEGER_MATH):
                found.append(f"{where}:{node.lineno} math.{node.attr}")
            elif (isinstance(node, (ast.BinOp, ast.AugAssign))
                  and isinstance(node.op, ast.Div)
                  and where != "scalars.py"):
                found.append(f"{where}:{node.lineno} true division")
    assert not found, f"float use in src: {found}"


@pytest.mark.parametrize("x, sign", [
    (0, 0), (Fraction(-3, 7), -1), (5, 1),
    (zeta(4), 0),                                   # i
    (zeta(3), -1),                                  # -1/2 + i sqrt(3)/2
    (zeta(5) + zeta(5) ** 4, 1),                    # 2 cos(2 pi / 5) > 0
    (zeta(5) ** 2 + zeta(5) ** 3, -1),
    (zeta(8) + zeta(8) ** 7 - Fraction(1414, 1000), 1),    # sqrt 2 - 1.414
    (zeta(8) + zeta(8) ** 7 - Fraction(1415, 1000), -1),   # sqrt 2 - 1.415
    (zeta(12) + zeta(12) ** 11 - Fraction(17320508, 10 ** 7), 1),
    (zeta(12) + zeta(12) ** 11 - Fraction(17320509, 10 ** 7), -1),
])
def test_real_sign_examples(x, sign):
    assert real_sign(x) == sign


def test_real_sign_settles_a_tiny_gap():
    # 2 cos(2 pi / 5) = (sqrt 5 - 1) / 2 = 0.6180339887498948482...
    golden = zeta(5) + zeta(5) ** 4
    below = Fraction(6180339887498948, 10 ** 16)
    assert real_sign(golden - below) == 1
    assert real_sign(golden - below - Fraction(1, 10 ** 16)) == -1
    assert real_sign(reduce({1: 1, 4: 1, 0: -below}, 5)) == 1
