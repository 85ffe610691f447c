import random
from fractions import Fraction

import pytest
import sympy

from cherednik import linalg as la
from cherednik.scalars import zeta

from oracles import free_columns, leading

F = Fraction


def rand_mat(rng, r, c, lo=-6, hi=6):
    return [[F(rng.randrange(lo, hi + 1), rng.randrange(1, 4))
             for _ in range(c)] for _ in range(r)]


def to_sympy(m):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in row] for row in m])


def test_mat_mul_and_identity():
    rng = random.Random(1)
    a = rand_mat(rng, 3, 4)
    b = rand_mat(rng, 4, 2)
    got = to_sympy(la.mat_mul(a, b))
    assert got == to_sympy(a) * to_sympy(b)
    assert la.mat_mul(a, la.identity(4)) == a


def test_rank_and_nullspace_against_sympy():
    rng = random.Random(2)
    for _ in range(12):
        r = rng.randrange(1, 6)
        c = rng.randrange(1, 6)
        m = rand_mat(rng, r, c)
        sm = to_sympy(m)
        assert la.rank(m) == sm.rank()
        ns, free = la.nullspace(m, c)
        assert len(ns) == c - sm.rank()
        # the free columns are the non-pivot columns of the elimination
        assert free == [j for j in range(c) if j not in la.rref(m)[1]]
        assert free == free_columns(ns)
        for v in ns:
            assert all(not x for x in la.mat_vec(m, v))
        # basis independence
        if ns:
            stacked = [list(v) for v in ns]
            assert la.rank(stacked) == len(ns)


def test_span_coords_inside_and_outside():
    # both kinds of basis, each with the pivots it comes back with:
    # reduced rows at their pivot columns and a nullspace basis at its
    # free columns
    rng = random.Random(3)
    for _ in range(12):
        r = rng.randrange(1, 6)
        c = rng.randrange(1, 6)
        m = rand_mat(rng, r, c)
        for basis, pivots in (la.column_space_basis(m),
                              la.nullspace(m, c)):
            x = [F(rng.randrange(-4, 5)) for _ in basis]
            v = [sum((a * u[j] for a, u in zip(x, basis)), F(0))
                 for j in range(c)]
            assert la.span_coords(basis, pivots, v) == x
            if len(basis) < c:
                # a vector outside: zero at every pivot, nonzero elsewhere
                out = [F(0)] * c
                out[next(j for j in range(c) if j not in pivots)] = F(1)
                assert la.span_coords(basis, pivots, out) is None
    assert la.span_coords([], [], [F(0), 0]) == []
    assert la.span_coords([], [], [F(0), F(1)]) is None


def test_inverse():
    rng = random.Random(4)
    for _ in range(8):
        n = rng.randrange(1, 5)
        m = rand_mat(rng, n, n)
        if la.rank(m) < n:
            with pytest.raises(ValueError):
                la.inverse(m)
            continue
        assert la.mat_mul(la.inverse(m), m) == la.identity(n)


def test_kron_matches_sympy():
    rng = random.Random(5)
    a = rand_mat(rng, 2, 3)
    b = rand_mat(rng, 3, 2)
    got = la.zeros(6, 6)
    la.add_kron(got, a, b)
    got = to_sympy(got)
    want = sympy.Matrix(sympy.kronecker_product(to_sympy(a), to_sympy(b)))
    assert got == want


def test_cyclotomic_entries():
    z = zeta(5)
    m = [[z, 1], [0, z ** 2]]
    inv = la.inverse(m)
    assert la.mat_mul(inv, m) == la.identity(2)
    ns, free = la.nullspace([[z, z ** 2]], 2)
    assert len(ns) == 1 and free == [1]
    v = ns[0]
    assert not (z * v[0] + z ** 2 * v[1])


def test_column_space_and_intersection():
    a = [[F(1), F(0)], [F(0), F(1)], [F(0), F(0)]]
    b = [[F(1)], [F(1)], [F(0)]]
    acols = la.transpose(a)
    bcols = la.transpose(b)
    inter = la.subspace_intersection(acols, bcols)
    assert len(inter) == 1
    for cols in (acols, bcols):
        basis, pivots = la.column_space_basis(cols)
        assert la.span_coords(basis, pivots, inter[0]) is not None
    # intersection of x-axis and y-axis is zero
    assert la.subspace_intersection([[F(1), F(0)]], [[F(0), F(1)]]) == []


def test_in_span_and_coords():
    basis, pivots = la.column_space_basis([[F(1), F(1), F(0)],
                                           [F(0), F(1), F(1)]])
    assert basis == [[1, 0, -1], [0, 1, 1]]
    assert pivots == [0, 1] == leading(basis)
    assert la.span_coords(basis, pivots, [F(2), F(3), F(1)]) == [2, 3]
    assert la.span_coords(basis, pivots, [F(0), F(0), F(1)]) is None


def psd_value(g, v):
    gv = la.mat_vec(g, v)
    return sum(x * y for x, y in zip(v, gv))


def test_psd_report_on_gram_matrices():
    rng = random.Random(6)
    for _ in range(10):
        n = rng.randrange(1, 5)
        p = rand_mat(rng, n + 1, n)
        g = la.mat_mul(la.transpose(p), p)  # PSD by construction
        rep = la.psd_report(g)
        assert rep["psd"] is True
        assert rep["witness"] is None


def test_psd_report_indefinite_with_witness():
    cases = [
        [[F(-1)]],
        [[F(0), F(1)], [F(1), F(0)]],
        [[F(1), F(2)], [F(2), F(1)]],
        [[F(2), F(3), F(0)], [F(3), F(2), F(0)], [F(0), F(0), F(5)]],
    ]
    for g in cases:
        rep = la.psd_report(g)
        assert rep["psd"] is False
        v = rep["witness"]
        assert psd_value(g, v) < 0


def test_psd_zero_diagonal_zero_row_ok():
    g = [[F(1), F(0)], [F(0), F(0)]]
    assert la.psd_report(g)["psd"] is True


def test_psd_pivots_are_ratios_of_leading_minors():
    g = [[F(2), F(1)], [F(1), F(3)]]
    rep = la.psd_report(g)
    assert rep["psd"] is True
    assert rep["pivots"] == [F(2), F(5, 2)]
