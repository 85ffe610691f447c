"""Differential tests of the Dirac-cohomology fast paths against the
references they replaced, on every baby Verma module and visible
one-dimensional quotient of the catalogue at c = 1 and one t = 1 standard
module (K = 2) per group:

- the character of a span read off the factored w-cells
  (DiracOperatorMatrix.w_cell, modules._span_character) against the same
  rows of the full Kronecker matrices (oracles.span_character_dense);
- the Dirac cohomology, which reads D on ker D^2 in the coordinates of
  its basis cell by cell, against the elimination over the whole window
  it replaced (oracles.dirac_cohomology_by_window), also at c = 1/3 where
  |W| <= 12 and on standard modules (K = 3, c = 1/3) of six groups;
- the matrices P of x_i and w, computed directly by GradedModule._columns,
  against the PBW straightening of the same generator;
- cell_multiplicity, which pairs the degree-k character with one cached
  row, against the cell character formed first and then paired.

Also: single-term cyclotomic values at conductor 997 against sympy, and
the bound on the cached H_{t,c} families."""
import random
from fractions import Fraction

import pytest

from cherednik import linalg, modules, pbw
from cherednik.calogero_moser import dirac_partition
from cherednik.groups import CATALOGUE_IDS, build_group
from cherednik.modules import (DiracOperatorMatrix, _span_character,
                               baby_verma, cell_multiplicity, dirac_cohomology,
                               one_dimensional_quotient, standard_module)
from cherednik.scalars import CyclotomicScalar, parse_scalar, reduce
from oracles import (cell_multiplicity_two_products, cyclotomic_coeffs,
                     dirac_cohomology_by_window, kron_naive,
                     reduce_cyclotomic_sympy, span_character_dense)


def _typed(x):
    """A value with its kind: a CyclotomicScalar, or any rational (an int
    and an integral Fraction are the same rational value)."""
    return (isinstance(x, CyclotomicScalar), x)


def _quotients(g, c=1):
    """The baby Verma module and, where it exists, the visible
    one-dimensional quotient of every W-type at c."""
    out = []
    for sigma in g.irrep_labels:
        out.append(baby_verma(g, sigma, c))
        try:
            out.append(one_dimensional_quotient(g, sigma, c))
        except ValueError:
            pass  # the quotient needs a one-dimensional sigma it kills
    return out


def _standard(g):
    return standard_module(g, g.irrep_labels[-1], 1, K=2)


def _check_span(basis, pivots, mats):
    got = [0] * len(mats)
    _span_character(got, basis, pivots, mats)
    want = span_character_dense(
        basis, pivots, [(0, [kron_naive(a, b) for a, b in mats])], len(mats))
    assert list(map(_typed, got)) == list(map(_typed, want))
    return got


@pytest.mark.parametrize("gid", CATALOGUE_IDS)
def test_factored_span_character_matches_the_kronecker_rows(gid,
                                                            monkeypatch):
    g = build_group(gid)
    calls = []

    def checking(chi, basis, pivots, mats):
        calls.append(len(basis))
        _check_span(basis, pivots, mats)
        _span_character(chi, basis, pivots, mats)

    # every read the cohomology makes
    monkeypatch.setattr(modules, "_span_character", checking)
    for module in _quotients(g):
        dirac_cohomology(module)
    assert sum(calls) > 0
    monkeypatch.undo()
    # the standard module: the up part of D commutes with W, so its kernel
    # on each cell is W-stable, read at its free columns and at the pivots
    # of its echelon form
    d = DiracOperatorMatrix(_standard(g))
    reps = [cl[0] for cl in g.conjugacy_classes]
    for k, l in d.cells():
        up = d.part(k, l, 1)
        if up is None:
            continue
        mats = [d.w_cell(w, k, l) for w in reps]
        zero, free = linalg.nullspace(up, d.cell_dim(k, l))
        chi = _check_span(zero, free, mats)
        assert chi == _check_span(*linalg.column_space_basis(zero), mats)


def test_factored_span_character_reads_every_row():
    # one pivot per row of each cell, against arbitrary vectors: the read
    # is checked at every position p = (p // dim B) dim B + p % dim B
    rng = random.Random(33)
    g = build_group("G3_1_2")
    d = DiracOperatorMatrix(baby_verma(g, g.irrep_labels[-1], 1))
    reps = [cl[0] for cl in g.conjugacy_classes]
    values = [0, 0, 1, -1, 2, Fraction(-1, 3), reduce({1: 1, 2: 3}, 3)]
    for k, l in d.cells():
        size = d.cell_dim(k, l)
        basis = [[rng.choice(values) for _ in range(size)]
                 for _ in range(size)]
        _check_span(basis, list(range(size)),
                    [d.w_cell(w, k, l) for w in reps])


@pytest.mark.parametrize("gid", CATALOGUE_IDS)
def test_cohomology_matches_the_window_elimination(gid):
    g = build_group(gid)
    for c in (1, Fraction(1, 3)) if g.order <= 12 else (1,):
        for module in _quotients(g, c):
            assert dirac_cohomology(module) == \
                dirac_cohomology_by_window(module), (c, module.sigma,
                                                     module.kind)


@pytest.mark.parametrize("gid", ["A1", "A2", "B2", "I2_5", "Z3", "G3_1_2"])
def test_standard_cohomology_matches_the_window_elimination(gid):
    g = build_group(gid)
    for sigma in g.irrep_labels:
        module = standard_module(g, sigma, Fraction(1, 3), K=3)
        assert dirac_cohomology(module) == \
            dirac_cohomology_by_window(module), sigma


def _check_direct(module, checked):
    """x_i and w on every degree up to one past K, once per family and
    ideal: the matrices P do not depend on sigma."""
    seen = (id(module.family), id(module._terms))
    if seen in checked:
        return
    checked.add(seen)
    g = module.group
    keys = ([("x_gen", i) for i in range(g.n)]
            + [("group_element", w) for w in range(g.order)])
    for k in range(module.K + 2):
        for key in keys:
            got = module._columns(key, k)
            want = module._straighten(
                getattr(module.family, key[0])(key[1]), k)
            assert list(got) == list(want), (key, k)
            for part, mat in got.items():
                assert [list(map(_typed, row)) for row in mat] == [
                    list(map(_typed, row)) for row in want[part]], (key, k)


@pytest.mark.parametrize("gid", CATALOGUE_IDS)
def test_direct_x_and_w_match_the_straightening(gid):
    g = build_group(gid)
    checked = set()
    for module in _quotients(g) + [_standard(g)]:
        _check_direct(module, checked)
    assert len(checked) >= 2


@pytest.mark.parametrize("gid", CATALOGUE_IDS)
def test_cell_multiplicity_matches_the_two_product_pairing(gid):
    g = build_group(gid)
    nonzero = 0
    for module in _quotients(g) + [_standard(g)]:
        for k in module.degrees():
            for l in range(g.n + 1):
                for mu in g.irrep_labels:
                    got = cell_multiplicity(module, k, l, mu)
                    assert got == cell_multiplicity_two_products(
                        module, k, l, mu), (module.sigma, k, l, mu)
                    nonzero += bool(got)
    assert nonzero


def test_single_terms_at_conductor_997():
    # the largest prime conductor under the cap: deg Phi = 996, so the
    # numerator tuple has 996 entries and zeta^996 reduces to
    # -(1 + zeta + ... + zeta^995)
    n = 997
    for e, c in ((1, 1), (2, Fraction(-3, 7)), (500, 5), (995, -1),
                 (996, Fraction(2, 3)), (997 + 4, 1), (-1, 1)):
        x = reduce({e: c}, n)
        assert isinstance(x, CyclotomicScalar)
        assert len(x.num) == 996
        want = reduce_cyclotomic_sympy({e: Fraction(c)}, n)
        assert cyclotomic_coeffs(x) == want
        assert parse_scalar(str(x)) == x
        y = reduce({3: 1}, n)
        assert cyclotomic_coeffs(x * y) == reduce_cyclotomic_sympy(
            {e + 3: Fraction(c)}, n)
        assert x * -1 == -x and (x + (-x)) == 0


def test_the_family_cache_keeps_the_most_recent(monkeypatch):
    monkeypatch.setattr(pbw, "_CHEREDNIK_FAMILIES", {})
    g = build_group("A1")
    fams = [pbw.cherednik_family(g, 1, Fraction(1, j)) for j in range(1, 51)]
    assert len(pbw._CHEREDNIK_FAMILIES) <= 8
    # the most recent families are kept, so a repeat returns the same one
    assert pbw.cherednik_family(g, 1, Fraction(1, 50)) is fams[-1]
    assert pbw.cherednik_family(g, 1, 1) is not fams[0]


def test_a_partition_builds_one_family(monkeypatch):
    monkeypatch.setattr(pbw, "_CHEREDNIK_FAMILIES", {})
    built = []

    class Counting(pbw.FormFamily):
        def __init__(self, *args, **kwargs):
            built.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(pbw, "FormFamily", Counting)
    dirac_partition(build_group("B2"), 1)
    assert len(built) == 1
