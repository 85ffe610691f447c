"""Differential test of the per-element group data formed along the BFS
words (groups.ReflectionGroup.along_words) against the same data formed
one element at a time (tests/oracles.py): h* matrices against the
inverse-transpose, inverses against the matrix-inverse lookup, tau_w^-1
against the reversed-word walk, and the spin matrices of tau_w against
spin_action(tau_w).  Values and entry types must agree on the whole
catalogue."""
import pytest

from cherednik.clifford import pin_tau, pin_tau_inverse, tau_spin
from cherednik.groups import CATALOGUE_IDS, build_group
from oracles import (h_star_by_inverse, inverse_by_lookup,
                     pin_tau_inverse_by_reversed_word, tau_spin_by_element)


def _typed(m):
    return [[(type(x), x) for x in row] for row in m]


def _typed_terms(a):
    return {m: (type(c), c) for m, c in a.terms.items()}


@pytest.mark.parametrize("gid", CATALOGUE_IDS)
def test_group_data_along_words_matches_element_by_element(gid):
    g = build_group(gid)
    for w in range(g.order):
        assert _typed(g.h_star_matrix(w)) == _typed(h_star_by_inverse(g, w)), w
        assert g.inverse_index(w) == inverse_by_lookup(g, w), w


@pytest.mark.parametrize("gid", CATALOGUE_IDS)
def test_pin_data_along_words_matches_element_by_element(gid):
    g = build_group(gid)
    for w in range(g.order):
        tau, tinv = pin_tau(w, g), pin_tau_inverse(w, g)
        assert (_typed_terms(tinv)
                == _typed_terms(pin_tau_inverse_by_reversed_word(g, w))), w
        assert tau * tinv == tau.algebra.one(), w
        assert _typed(tau_spin(g, w)) == _typed(tau_spin_by_element(g, w)), w


@pytest.mark.parametrize("read", [pin_tau, pin_tau_inverse,
                                  lambda w, g: tau_spin(g, w)],
                         ids=["pin_tau", "pin_tau_inverse", "tau_spin"])
@pytest.mark.parametrize("bad", [-1, 8, 1.0, None])
def test_pin_data_refuses_a_bad_index(read, bad):
    # a list index would wrap -1, and 1.0 equals 1 as a cache key
    with pytest.raises(ValueError, match="no reflection word"):
        read(bad, build_group("B2"))
