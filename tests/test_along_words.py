"""Differential test of the per-element group data formed along the BFS
words (groups.ReflectionGroup.along_words) against the same data formed
one element at a time (tests/oracles.py): h* matrices against the
inverse-transpose, inverses against the matrix-inverse lookup, and the
multiplication table against the matrix product looked up among the
elements, on every pair; reading a product forms no matrix.  The
pin lift is checked once per generator (clifford.pin_cover_holds); here it
is checked at every element against the oracles: tau_w times its
reversed-word inverse is 1, tau_w conjugates each generator of V as w
does, and spin_action(tau_w) is block-diagonal with the wedge^l(w) blocks
that DiracOperatorMatrix.w_cell reads.  Values and entry types must agree
on the whole catalogue."""
import pytest

from cherednik import linalg
from cherednik.clifford import pin_cover_holds, pin_tau, spin_block
from cherednik.groups import CATALOGUE_IDS, build_group
from cherednik.modules import _wedge
from oracles import (h_star_by_inverse, inverse_by_lookup, mult_by_matrices,
                     pin_tau_inverse_by_reversed_word, tau_spin_by_element)


def _typed(m):
    return [[(type(x), x) for x in row] for row in m]


@pytest.mark.parametrize("gid", CATALOGUE_IDS)
def test_group_data_along_words_matches_element_by_element(gid):
    g = build_group(gid)
    for w in range(g.order):
        assert _typed(g.h_star_matrix(w)) == _typed(h_star_by_inverse(g, w)), w
        assert g.inverse_index(w) == inverse_by_lookup(g, w), w


@pytest.mark.parametrize("gid", CATALOGUE_IDS)
def test_multiplication_table_matches_matrix_products(gid):
    g = build_group(gid)
    for i in range(g.order):
        for j in range(g.order):
            assert g.mult(i, j) == mult_by_matrices(g, i, j), (i, j)


@pytest.mark.parametrize("gid", ["B2", "B3", "G4_1_2"])
def test_products_are_table_reads(gid, monkeypatch):
    # a group built past the cache multiplies no matrices for any pair,
    # and keeps no product memo, matrix index or conductor
    g = build_group.__wrapped__(gid)
    products = []
    mat_mul = linalg.mat_mul

    def counting(a, b):
        products.append((a, b))
        return mat_mul(a, b)

    monkeypatch.setattr(linalg, "mat_mul", counting)
    table = [[g.mult(i, j) for j in range(g.order)] for i in range(g.order)]
    assert not products
    assert all(sorted(row) == list(range(g.order)) for row in table)
    assert not {"_mult_cache", "_index", "_conductor"} & set(vars(g))


@pytest.mark.parametrize("gid", CATALOGUE_IDS)
def test_pin_data_along_words_matches_element_by_element(gid):
    g = build_group(gid)
    n = g.n
    assert pin_cover_holds(g)
    for w in range(g.order):
        tau = pin_tau(w, g)
        alg = tau.algebra
        tinv = pin_tau_inverse_by_reversed_word(g, w)
        assert tau * tinv == alg.one() == tinv * tau, w
        # x_i (generator 2i) lies in h*, y_i (generator 2i + 1) in h
        for off, m in ((0, g.h_star_matrix(w)), (1, g.elements[w])):
            for i in range(n):
                image = alg.vector([row[i] for row in m], offset=off, step=2)
                assert tau * alg.gen(2 * i + off) * tinv == image, (w, i)
        spin = tau_spin_by_element(g, w)
        for lrow in range(n + 1):
            for lcol in range(n + 1):
                block = spin_block(spin, n, lrow, lcol)
                want = (_wedge(g, w, lrow) if lrow == lcol
                        else linalg.zeros(len(block), len(block[0])))
                assert _typed(block) == _typed(want), (w, lrow, lcol)


@pytest.mark.parametrize("read", [pin_tau], ids=["pin_tau"])
@pytest.mark.parametrize("bad", [-1, 8, 1.0, None, True])
def test_pin_data_refuses_a_bad_index(read, bad):
    # a list index would wrap -1, and 1.0 and True equal 1 as cache keys
    with pytest.raises(ValueError, match="no reflection word"):
        read(bad, build_group("B2"))
