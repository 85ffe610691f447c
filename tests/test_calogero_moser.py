from fractions import Fraction

import pytest

from cherednik import calogero_moser
from cherednik.calogero_moser import (
    dirac_partition,
    omega_central_character,
    verify_cm_factorization,
)
from cherednik.groups import build_group
from cherednik.modules import h_weight
from cherednik.scalars import CapExceeded


def test_central_character_values():
    g = build_group("B2")
    assert omega_central_character("2x0", 1, g) == -4
    assert omega_central_character("11x0", 1, g) == 0
    for sigma in g.irrep_labels:
        assert omega_central_character(sigma, 0, g) == 0
    a1 = build_group("A1")
    assert omega_central_character("triv", Fraction(1, 2), a1) == \
        Fraction(-1, 2)


def test_central_character_is_minus_weight():
    for gid in ("A1", "B2", "Z3"):
        g = build_group(gid)
        for sigma in g.irrep_labels:
            got = omega_central_character(sigma, Fraction(1, 2), g)
            assert got == -h_weight(sigma, Fraction(1, 2), g)


def test_partition_b2_unit():
    g = build_group("B2")
    p = dirac_partition(g, 1)
    assert p.blocks == [["2x0"], ["11x0", "0x2", "1x1"], ["0x11"]]
    assert p.undecided_pairs == []
    assert next(b for b in p.blocks if "0x2" in b) == ["11x0", "0x2", "1x1"]
    assert not any("nope" in b for b in p.blocks)
    tags = {e["module"] for e in p.evidence}
    assert tags == {"baby-verma", "simple-quotient"}
    merged = {e["mu"] for e in p.evidence
              if e["module"] == "simple-quotient" and e["sigma"] == "11x0"}
    assert merged == {"11x0", "1x1", "0x2"}


def test_partition_a1():
    g = build_group("A1")
    assert dirac_partition(g, 1).blocks == [["triv"], ["sgn"]]
    assert dirac_partition(g, 0).blocks == [["triv", "sgn"]]


def test_partition_a2():
    g = build_group("A2")
    p = dirac_partition(g, 1)
    assert p.blocks == [["triv"], ["sgn"], ["std"]]


def test_partition_cyclic_groups_self_merge():
    for gid in ("Z3", "Z4"):
        g = build_group(gid)
        p = dirac_partition(g, 1)
        assert p.blocks == [[lab] for lab in g.irrep_labels]
        assert p.evidence
        for e in p.evidence:
            assert e["mu"] == e["sigma"]


def test_partition_undecided_pairs():
    g = build_group("B2")
    p = dirac_partition(g, {"long": Fraction(1), "short": Fraction(0)})
    assert p.blocks == [[lab] for lab in g.irrep_labels]
    assert p.undecided_pairs == [
        {"pair": ["2x0", "0x2"], "status": "undecided-separate"},
        {"pair": ["11x0", "0x11"], "status": "undecided-separate"},
    ]


def test_partition_structural_invariants():
    from cherednik.dirac import casimir_scalar
    cases = [("B2", 1), ("B2", {"long": Fraction(1), "short": Fraction(-1)}),
             ("A2", Fraction(1, 2))]
    for gid, c in cases:
        g = build_group(gid)
        p = dirac_partition(g, c)
        flat = [lab for b in p.blocks for lab in b]
        assert sorted(flat) == sorted(g.irrep_labels)
        for block in p.blocks:
            base = casimir_scalar(block[0], c, g)
            assert all(casimir_scalar(lab, c, g) == base for lab in block)
        for e in p.evidence:
            assert any(e["sigma"] in b and e["mu"] in b for b in p.blocks)
        block_sets = [frozenset(b) for b in p.blocks]
        for b in block_sets:
            twisted = frozenset(g.tensor_with_eps(lab) for lab in b)
            assert twisted in block_sets


def test_partition_is_deterministic():
    g = build_group("B2")
    assert dirac_partition(g, 1).to_data() == dirac_partition(g, 1).to_data()


def test_partition_builds_each_group_table_once(monkeypatch):
    # however many modules read them, N_c(mu) is computed once per irrep
    # and the dual character row |C| conj chi_mu(C) is built once per irrep
    from cherednik import dirac, groups
    g = build_group("G3_1_2")
    monkeypatch.setattr(g, "_casimir_tables", {})
    monkeypatch.setattr(g, "_dual_characters", {})
    casimirs, conjugates = [], []
    casimir_scalar, conjugate = dirac.casimir_scalar, groups.conjugate

    def counted_casimir(sigma, c, group):
        casimirs.append(sigma)
        return casimir_scalar(sigma, c, group)

    def counted_conjugate(x):
        conjugates.append(x)
        return conjugate(x)

    monkeypatch.setattr(dirac, "casimir_scalar", counted_casimir)
    monkeypatch.setattr(groups, "conjugate", counted_conjugate)
    dirac_partition(g, 1)
    assert casimirs and len(casimirs) == len(set(casimirs))
    assert conjugates
    assert len(conjugates) <= len(g.irrep_labels) * len(g.conjugacy_classes)


# Lusztig's families at equal parameters, in the catalogue's labels.
# Type B (B2, B3): Lusztig, "Characters of reductive groups over a finite
# field" (1984), 4.5.  The bipartition (lam, mu) lies in the family of the
# multiset of entries of its symbol: top row lam_i + i - 1 (m + 1 parts),
# bottom row mu_i + i - 1 (m parts), both ascending and padded with zeros.
# Here lam x mu has the sign change t (the short class) acting by +1 on
# lam and -1 on mu, so 2x1 is the reflection representation and 0x111 the
# sign; Gordon-Martino show these are the Calogero-Moser families at equal
# parameters.  Dihedral I2(m) (A2 = I2(3), B2 = I2(4)): the trivial, the
# sign, and all other irreps in one family, the Calogero-Moser families
# of Bellamy, Bull. LMS 41 (2009).
LUSZTIG_FAMILIES = {
    "A1": [["triv"], ["sgn"]],
    "A2": [["triv"], ["std"], ["sgn"]],
    "I2_3": [["triv"], ["rho1"], ["sgn"]],
    "B2": [["2x0"], ["11x0", "1x1", "0x2"], ["0x11"]],
    "I2_4": [["triv"], ["sgn1", "sgn2", "rho1"], ["sgn"]],
    "I2_5": [["triv"], ["rho1", "rho2"], ["sgn"]],
    "I2_6": [["triv"], ["sgn1", "sgn2", "rho1", "rho2"], ["sgn"]],
    "B3": [["3x0"], ["21x0", "2x1", "0x3"], ["111x0", "1x11", "0x21"],
           ["11x1"], ["1x2"], ["0x111"]],
}


def _family_of(gid):
    return {lab: i for i, fam in enumerate(LUSZTIG_FAMILIES[gid])
            for lab in fam}


def _symbol_entries(label, m=3):
    """The sorted entries of the symbol of the bipartition lam x mu."""
    lam, mu = ([int(d) for d in part if d != "0"] for part in label.split("x"))
    top = sorted(lam + [0] * (m + 1 - len(lam)))
    bottom = sorted(mu + [0] * (m - len(mu)))
    return tuple(sorted([x + i for i, x in enumerate(top)]
                        + [x + i for i, x in enumerate(bottom)]))


def test_lusztig_families_partition_the_irreps():
    for gid, fams in LUSZTIG_FAMILIES.items():
        labels = [lab for fam in fams for lab in fam]
        assert sorted(labels) == sorted(build_group(gid).irrep_labels), gid
    # type B: the table is the grouping by symbol entries
    for gid in ("B2", "B3"):
        by_entries = {}
        for lab in build_group(gid).irrep_labels:
            by_entries.setdefault(_symbol_entries(lab), set()).add(lab)
        assert sorted(map(sorted, by_entries.values())) == \
            sorted(map(sorted, LUSZTIG_FAMILIES[gid])), gid


def test_partition_is_lusztig_families_where_decided():
    # no undecided pair here: the blocks are the families
    for gid in ("A1", "A2", "B2", "I2_3", "I2_4"):
        for c in (1, Fraction(1, 3)):
            p = dirac_partition(build_group(gid), c)
            assert not p.undecided_pairs, (gid, c)
            assert sorted(map(sorted, p.blocks)) == \
                sorted(map(sorted, LUSZTIG_FAMILIES[gid])), (gid, c)


@pytest.mark.parametrize("gid, c", [("B3", 1), ("I2_5", 1),
                                    ("I2_5", Fraction(1, 3)), ("I2_6", 1),
                                    ("I2_6", Fraction(1, 3))])
def test_partition_lies_inside_lusztig_families(gid, c):
    # the witnessed merges and the undecided pairs never cross a family
    family = _family_of(gid)
    p = dirac_partition(build_group(gid), c)
    for group in p.blocks + [u["pair"] for u in p.undecided_pairs]:
        assert len({family[lab] for lab in group}) == 1, (gid, c, group)


def test_cm_factorization_rank_one():
    g = build_group("A1")
    out = verify_cm_factorization(g, 1, 2)
    assert out["group"] == "A1"
    assert out["degree_cap"] == 2
    sides = sorted((e["side"], e["degree"]) for e in out["invariants"])
    assert sides == [("h", 2), ("h_star", 2)]
    for e in out["invariants"]:
        assert e["verified"]
        assert e["witness_terms"] >= 1


def test_cm_factorization_a2():
    g = build_group("A2")
    out = verify_cm_factorization(g, 1, 3)
    sides = sorted((e["side"], e["degree"]) for e in out["invariants"])
    assert sides == [("h", 2), ("h", 3), ("h_star", 2), ("h_star", 3)]
    assert all(e["verified"] for e in out["invariants"])


def test_cm_factorization_makes_one_attempt(monkeypatch):
    calls = []

    def missing(z, fam, degree_cap, candidate_filter=None):
        calls.append((degree_cap, candidate_filter is not None))
        raise CapExceeded("no decomposition at this degree cap; raise "
                          "degree_cap", "degree_cap")

    monkeypatch.setattr(calogero_moser, "decompose_kernel_element", missing)
    with pytest.raises(CapExceeded, match="raise degree_cap"):
        verify_cm_factorization(build_group("A1"), 1, 2)
    # the degree-2 invariant is searched once, at its own degree and on
    # its own polynomial side
    assert calls == [(2, True)]


def test_cm_factorization_does_not_retry_other_errors(monkeypatch):
    calls = []

    def ambiguous(*args, **kwargs):
        calls.append(args)
        raise ValueError("group-algebra block meets the derivation image; "
                         "the decomposition would not be unique")

    monkeypatch.setattr(calogero_moser, "decompose_kernel_element",
                        ambiguous)
    with pytest.raises(ValueError, match="not be unique"):
        verify_cm_factorization(build_group("A1"), 1, 2)
    assert len(calls) == 1
