import random
from fractions import Fraction

import pytest
import sympy

from cherednik import poly
from cherednik.clifford import (CliffordAlgebra, CliffordElement,
                               polarized_algebra)
from cherednik.dirac import GroupAlgebraClassFunction, TensorElement
from cherednik.groups import build_group
from cherednik.pbw import AlgebraElement, cherednik_family
from cherednik.scalars import zeta

F = Fraction


def rand_poly(rng, n, maxdeg, terms=4):
    p = {}
    for _ in range(terms):
        expo = tuple(rng.randrange(0, maxdeg + 1) for _ in range(n))
        p = poly.p_add(p, {expo: F(rng.randrange(-5, 6))})
    return p


def to_sympy(p, xs):
    expr = 0
    for expo, c in p.items():
        t = sympy.Rational(c.numerator, c.denominator)
        for x, e in zip(xs, expo):
            t *= x ** e
        expr += t
    return sympy.expand(expr)


def test_ring_ops_match_sympy():
    rng = random.Random(11)
    xs = sympy.symbols("x0 x1 x2")
    for _ in range(8):
        a = rand_poly(rng, 3, 3)
        b = rand_poly(rng, 3, 3)
        assert to_sympy(poly.p_mul(a, b), xs) == sympy.expand(
            to_sympy(a, xs) * to_sympy(b, xs))
        assert to_sympy(poly.p_add(a, b), xs) == to_sympy(a, xs) + to_sympy(b, xs)
        assert to_sympy(poly.partial(a, 1), xs) == sympy.diff(to_sympy(a, xs), xs[1])


def test_zero_coefficients_are_stripped():
    a = {(1, 0): F(1)}
    b = {(1, 0): F(-1)}
    assert poly.p_add(a, b) == {}
    assert poly.p_mul(a, {}) == {}


def test_substitute_linear_is_group_action():
    rng = random.Random(12)
    n = 2
    B1 = [[F(rng.randrange(-3, 4)) for _ in range(n)] for _ in range(n)]
    B2 = [[F(rng.randrange(-3, 4)) for _ in range(n)] for _ in range(n)]
    p = rand_poly(rng, n, 3)
    from cherednik.linalg import mat_mul
    lhs = poly.substitute_linear(poly.substitute_linear(p, B2), B1)
    rhs = poly.substitute_linear(p, mat_mul(B1, B2))
    assert lhs == rhs


def test_substitute_linear_example():
    # x0 -> x0 + x1 under B = [[1,0],[1,1]] (columns are images)
    p = {(1, 0): F(1)}
    B = [[F(1), F(0)], [F(1), F(1)]]
    assert poly.substitute_linear(p, B) == {(1, 0): F(1), (0, 1): F(1)}


def test_monomials_count():
    # dim S^d of n variables = C(d+n-1, n-1)
    assert len(poly.monomials(2, 4)) == 5
    assert len(poly.monomials(3, 4)) == 15
    assert poly.monomials(2, 1) == [(0, 1), (1, 0)]


def test_action_matrix_multiplicative():
    rng = random.Random(13)
    n, d = 2, 3
    A = [[F(rng.randrange(-2, 3)) for _ in range(n)] for _ in range(n)]
    B = [[F(rng.randrange(-2, 3)) for _ in range(n)] for _ in range(n)]
    from cherednik.linalg import mat_mul
    MA = poly.action_matrix_on_degree(A, n, d)
    MB = poly.action_matrix_on_degree(B, n, d)
    MAB = poly.action_matrix_on_degree(mat_mul(A, B), n, d)
    assert mat_mul(MA, MB) == MAB


def test_wedge_matrix_and_det():
    rng = random.Random(14)
    n = 3
    A = [[F(rng.randrange(-3, 4)) for _ in range(n)] for _ in range(n)]
    B = [[F(rng.randrange(-3, 4)) for _ in range(n)] for _ in range(n)]
    from cherednik.linalg import mat_mul
    for l in range(n + 1):
        WA = poly.wedge_matrix(A, l)
        WB = poly.wedge_matrix(B, l)
        WAB = poly.wedge_matrix(mat_mul(A, B), l)
        assert mat_mul(WA, WB) == WAB
    # top wedge is the determinant
    sA = sympy.Matrix([[x.numerator for x in row] for row in A])
    assert poly.wedge_matrix(A, 3) == [[F(int(sA.det()))]]
    assert poly.det(A) == F(int(sA.det()))


def test_det_cyclotomic():
    z = zeta(3)
    m = [[z, 1], [1, z]]
    assert poly.det(m) == z * z - 1


def test_poly_det_jacobian_style():
    # Jacobian of (x^2+y^2, x^2*y^2) is -4x^3*y + 4x*y^3... check via sympy
    f = {(2, 0): F(1), (0, 2): F(1)}
    g = {(2, 2): F(1)}
    jac = [[poly.partial(f, 0), poly.partial(f, 1)],
           [poly.partial(g, 0), poly.partial(g, 1)]]
    d = poly.det_poly(jac)
    xs = sympy.symbols("x0 x1")
    sf = to_sympy(f, xs)
    sg = to_sympy(g, xs)
    want = sympy.expand(sympy.Matrix([[sympy.diff(sf, v) for v in xs],
                                      [sympy.diff(sg, v) for v in xs]]).det())
    assert to_sympy(d, xs) == want
    assert d != {}


# -- the shared term core


def _pbw_case():
    g = build_group("A1")
    f1, f2 = cherednik_family(g, 1, 1), cherednik_family(g, 1, 2)
    keys = [((1,), 0, (0,)), ((0,), 1, (1,))]
    return AlgebraElement, f1, f2, keys


def _clifford_case():
    other = CliffordAlgebra([[F(1), F(0)], [F(0), F(1)]])
    return CliffordElement, polarized_algebra(1), other, \
        [(0,), (0, 1)]


def _tensor_case():
    g = build_group("A1")
    f1, f2 = cherednik_family(g, 1, 1), cherednik_family(g, 1, 2)
    alg = f1.clifford
    keys = [(((1,), 0, (0,)), (1,)), (((0,), 1, (0,)), ())]
    return (lambda f, t: TensorElement(f, alg, t)), f1, f2, keys


def _class_function_case():
    g1, g2 = build_group("A1"), build_group("A2")
    return GroupAlgebraClassFunction, g1, g2, g1.class_names[:2]


@pytest.mark.parametrize("case", [_pbw_case, _clifford_case, _tensor_case,
                                  _class_function_case],
                         ids=["pbw", "clifford", "tensor", "class_function"])
def test_terms_core_drops_zeros_and_refuses_mixed_owners(case):
    make, own1, own2, (k1, k2) = case()
    x = make(own1, {k1: F(2), k2: F(0)})
    assert x.terms == {k1: F(2)}
    d = x - x
    assert not d and d.terms == {}
    assert -x + x == make(own1, {})
    assert 3 * x == x * 3 == make(own1, {k1: F(6)})
    y = make(own2, {k1: F(2)})
    with pytest.raises(ValueError, match="different"):
        x + y
    with pytest.raises(ValueError, match="different"):
        x == y


def test_acc_drops_a_zero_sum():
    d = {"a": F(1)}
    poly.acc(d, "a", F(-1))
    assert d == {}
    poly.acc(d, "b", zeta(3))
    poly.acc(d, "b", -zeta(3))
    assert d == {}
