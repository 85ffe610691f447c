"""The rational form, checked where values are built: a rational is an int
when it is integral and a Fraction only when its denominator is > 1
(scalars.rational).  Irrational cyclotomic values are CyclotomicScalars,
and a rational value never is one.  No float, no Fraction with
denominator 1 and no rational CyclotomicScalar appears in the catalogue's
group data, in the wedge^l(w) blocks by which w acts on the spin module, in
the parameters of H_{t,c}, in partition evidence, in the witnesses of the
invariant factorization or in the input of rref."""
from fractions import Fraction

import pytest

from cherednik import calogero_moser, linalg
from cherednik.calogero_moser import dirac_partition, verify_cm_factorization
from cherednik.groups import CATALOGUE_IDS, build_group, inner_product
from cherednik.linalg import psd_report
from cherednik.modules import _wedge
from cherednik.pbw import cherednik_family, invariant_form
from cherednik.scalars import CyclotomicScalar, NotRational, zeta


def _scalars(obj):
    """Every leaf of nested lists, tuples and dict values."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        for x in obj:
            yield from _scalars(x)
    else:
        yield obj


def _off_form(obj):
    return [x for x in _scalars(obj)
            if not (type(x) is int
                    or (type(x) is Fraction and x.denominator > 1)
                    or (isinstance(x, CyclotomicScalar)
                        and x.conductor > 1))]


def test_catalogue_lists_sixteen_groups():
    assert len(CATALOGUE_IDS) == 16


@pytest.mark.parametrize("gid", CATALOGUE_IDS)
def test_group_data_is_in_rational_form(gid):
    g = build_group(gid)
    data = {
        "elements": g.elements,
        "h_star": [g.h_star_matrix(i) for i in range(g.order)],
        "irreps": [g.irreps[label].matrices for label in g.irrep_labels],
        "alpha": [r.alpha for r in g.reflections],
        "alpha_check": [r.alpha_check for r in g.reflections],
        "lam": [r.lam for r in g.reflections],
        "character_table": g.character_table,
        "invariants": g.invariant_generators,
        "c": [cherednik_family(g, 1, c).params["c"]
              for c in (1, Fraction(2), Fraction(1, 2))],
    }
    if g.family == "real":
        # the symmetric invariant form exists on the real groups only
        data["invariant_form"] = invariant_form(g)
    for name, value in data.items():
        assert not _off_form(value), (name, _off_form(value)[:3])


@pytest.mark.parametrize("gid", CATALOGUE_IDS)
def test_spin_matrices_are_in_rational_form(gid):
    g = build_group(gid)
    # w_cell reads these blocks as tau_w's spin matrix
    spins = [_wedge(g, w, l) for w in range(g.order) for l in range(g.n + 1)]
    assert not _off_form(spins), _off_form(spins)[:3]


def test_integral_parameters_are_ints():
    g = build_group("B2")
    assert all(type(v) is int
               for v in cherednik_family(g, 1, Fraction(2)).params["c"]
               .values())


@pytest.mark.parametrize("gid", ["A2", "B2"])
def test_partition_evidence_has_no_float(gid):
    part = dirac_partition(build_group(gid), 1)
    leaves = list(_scalars([part.evidence, part.c, part.undecided_pairs]))
    assert leaves
    assert not [x for x in leaves if isinstance(x, float)]
    assert not _off_form(part.c)


def test_factorization_witnesses_are_in_rational_form(monkeypatch):
    found = []
    decompose = calogero_moser.decompose_kernel_element

    def recording(*args, **kw):
        s, b = decompose(*args, **kw)
        found.append(b)
        return s, b

    monkeypatch.setattr(calogero_moser, "decompose_kernel_element",
                        recording)
    verify_cm_factorization(build_group("A2"), 1, 3)
    assert len(found) == 4
    for b in found:
        assert b.terms
        assert not _off_form(b.terms)


@pytest.mark.parametrize("gram,psd,pivots,witness", [
    ([[2, 1], [1, 2]], True, [2, Fraction(3, 2)], None),
    # a negative pivot: the witness is a row of the congruence transform
    ([[1, 2], [2, 1]], False, [1], [-2, 1]),
    # a vanishing diagonal against a nonzero off-diagonal entry
    ([[0, 2], [2, 0]], False, [], [Fraction(-1, 2), 1]),
])
def test_psd_report_is_in_rational_form(gram, psd, pivots, witness):
    rep = psd_report(gram)
    assert (rep["psd"], rep["pivots"], rep["witness"]) == (psd, pivots,
                                                           witness)
    assert not _off_form([rep["pivots"], rep["witness"] or []])


def test_psd_report_refuses_irrational_entries():
    with pytest.raises(NotRational):
        psd_report([[zeta(5)]])


def test_inner_product_is_in_rational_form():
    g = build_group("B2")
    triv = g.character_table[0]
    got = inner_product(g, triv, g.irrep_labels[0])
    assert got == 1 and type(got) is int


def test_rref_sees_no_rational_cyclotomic_scalar(monkeypatch):
    # a rational-valued CyclotomicScalar would send a rational matrix down
    # rref's cyclotomic path instead of its integer one
    seen = []
    rref = linalg.rref

    def recording(m):
        # a row is a dense list or a {column: value} dict
        seen.append([x for row in m
                     for x in (row.values() if type(row) is dict else row)
                     if isinstance(x, CyclotomicScalar)])
        return rref(m)

    monkeypatch.setattr(linalg, "rref", recording)
    for gid in ("I2_3", "I2_5", "G3_1_2"):
        dirac_partition(build_group(gid), 1)
    cyclotomic = [xs for xs in seen if xs]
    assert cyclotomic
    for xs in cyclotomic:
        assert all(x.conductor > 2 and any(x.num[1:]) for x in xs)
