import weakref
from fractions import Fraction

import pytest

from cherednik import calogero_moser
from cherednik.calogero_moser import (
    dirac_partition,
    omega_central_character,
    verify_cm_factorization,
)
from cherednik.dirac import (KernelSearch, casimir_forms,
                             decompose_kernel_element, omega_tilde)
from cherednik.groups import _BUILDERS, CATALOGUE_IDS, build_group
from cherednik.modules import h_weight
from cherednik.pbw import cherednik_family
from cherednik.scalars import CapExceeded, CyclotomicScalar, zeta


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
    # however many modules and values of c read them, the Casimir forms
    # are summed over the reflections once per group, and the dual
    # character row |C| conj chi_mu(C) is built once per irrep
    from cherednik import dirac, groups
    g = build_group("G3_1_2")
    dirac.casimir_forms.cache_clear()
    monkeypatch.setattr(g, "_dual_characters", {})
    weights, conjugates = [], []
    reflection_weight, conjugate = dirac._reflection_weight, groups.conjugate

    def counted_weight(r):
        weights.append(r.element_index)
        return reflection_weight(r)

    def counted_conjugate(x):
        conjugates.append(x)
        return conjugate(x)

    monkeypatch.setattr(dirac, "_reflection_weight", counted_weight)
    monkeypatch.setattr(groups, "conjugate", counted_conjugate)
    dirac_partition(g, 1)
    dirac_partition(g, Fraction(1, 3))
    assert sorted(weights) == sorted(r.element_index for r in g.reflections)
    assert len(dirac.casimir_forms(g)) == len(g.irrep_labels)
    assert len(weights) == len(g.reflections)
    assert conjugates
    assert len(conjugates) <= len(g.irrep_labels) * len(g.conjugacy_classes)


@pytest.mark.parametrize("gid", ["A2", "B2", "G3_1_2"])
def test_partition_asks_each_module_once(monkeypatch, gid):
    # per module, the zero-scalar cells take h_weight(sigma) once and
    # N_c(mu) once per irrep, and each degree's character is formed once
    # and then read from the module
    from cherednik import modules
    g = build_group(gid)
    casimir, cells = modules.casimir_scalar, modules._zero_scalar_cells
    character = modules.GradedModule.character
    calls, per_module, returned = [0], [], {}

    def counted_casimir(*args):
        calls[0] += 1
        return casimir(*args)

    def counted_cells(module):
        before = calls[0]
        out = cells(module)
        per_module.append(calls[0] - before)
        return out

    def kept_character(self, k):
        got = character(self, k)
        returned.setdefault((self, k), []).append(got)
        return got

    monkeypatch.setattr(modules, "casimir_scalar", counted_casimir)
    monkeypatch.setattr(modules, "_zero_scalar_cells", counted_cells)
    monkeypatch.setattr(modules.GradedModule, "character", kept_character)
    dirac_partition(g, 1)
    assert len(per_module) >= len(g.irrep_labels)
    assert max(per_module) <= len(g.irrep_labels) + 1
    assert returned
    for (module, k), got in returned.items():
        assert all(x is got[0] for x in got)
        assert character(module, k) is got[0]


def test_partitions_keep_no_data_per_c_on_the_group():
    # the group's tables and memos hold as much after five values of c as
    # after one: nothing on it is keyed by c
    g = build_group("B2")

    def sizes():
        return {name: len(v) for name, v in vars(g).items()
                if isinstance(v, (dict, list))}

    dirac_partition(g, 1)
    after_one = sizes()
    for c in (Fraction(1, 3), Fraction(-2, 7), 5,
              {"long": Fraction(1), "short": Fraction(1, 2)}):
        dirac_partition(g, c)
    assert sizes() == after_one
    assert len(casimir_forms(g)) == len(g.irrep_labels)


def test_partition_g4_undecided_pairs_by_h_weight():
    # the level sets compare h_weight(sigma) = -N_c(sigma (x) eps), the
    # scalar by which Omega acts on Delta(sigma); on the complex group
    # G4_1_2 it differs from N_c(sigma)
    g = build_group("G4_1_2")
    want = [["chi0m", "chi2p"], ["chi0m", "rho02"], ["chi1m", "chi3p"],
            ["chi1m", "rho13"], ["chi2p", "rho02"], ["chi3p", "rho13"],
            ["rho03", "rho12"]]
    for c in (1, Fraction(1, 3)):
        p = dirac_partition(g, c)
        assert [u["pair"] for u in p.undecided_pairs] == want
        for a, b in want:
            assert h_weight(a, c, g) == h_weight(b, c, g)


@pytest.mark.parametrize("gid", ["A1", "A2", "B2", "G2_1_2", "I2_3", "I2_4",
                                 "I2_5", "I2_6"])
def test_partition_sign_twist(gid):
    # on a real group, w -> eps(w) w sends s to -s, so H_{0,c} = H_{0,-c}
    # and Delta_{-c}(sigma (x) eps) pulls back to Delta_c(sigma): the
    # partition at -c is the one at c with every label tensored with eps,
    # and so are its undecided pairs
    g = build_group(gid)

    def shape(p, relabel):
        return ({frozenset(map(relabel, b)) for b in p.blocks},
                {frozenset(map(relabel, u["pair"]))
                 for u in p.undecided_pairs})

    for c in (1, Fraction(1, 2)):
        assert shape(dirac_partition(g, -c), lambda lab: lab) == \
            shape(dirac_partition(g, c), g.tensor_with_eps)


def _without_c(p):
    data = p.to_data()
    del data["c"]
    return data


@pytest.mark.parametrize("gid", [gid for gid in CATALOGUE_IDS
                                 if gid not in ("B3", "G4_1_2")])
def test_partition_scaling_at_t_zero(gid):
    # H_{0,c} = H_{0,lambda c} for lambda != 0 (rescale y by lambda), and
    # the rescaling fixes every Delta(sigma): the partitions at c and
    # lambda c agree in everything but c itself
    g = build_group(gid)
    c = Fraction(1, 3)
    want = _without_c(dirac_partition(g, c))
    for lam in (3, -2):
        assert _without_c(dirac_partition(g, lam * c)) == want, lam


def test_partition_scaling_at_t_zero_unequal_parameters():
    g = build_group("B2")
    assert (_without_c(dirac_partition(g, {"long": 1,
                                            "short": Fraction(1, 2)}))
            == _without_c(dirac_partition(g, {"long": -2, "short": -1})))


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


def _galois(x, k):
    """sigma_k(x) for sigma_k: zeta_N -> zeta_N^k, N the conductor of x;
    it fixes rationals."""
    if not isinstance(x, CyclotomicScalar):
        return x
    return sum(Fraction(v, x.den) * zeta(x.conductor, e * k)
               for e, v in enumerate(x.num) if v)


def _conjugated(builder, k):
    """The catalogue entry with sigma_k applied to every generator and
    irrep entry."""
    def build():
        data = builder()
        data["generators"] = [_galois_matrix(m, k)
                              for m in data["generators"]]
        data["irreps"] = [(label, [_galois_matrix(m, k) for m in mats])
                          for label, mats in data["irreps"]]
        return data
    return build


def _galois_matrix(m, k):
    return [[_galois(x, k) for x in row] for row in m]


@pytest.mark.parametrize("gid, k", [("I2_5", 2), ("Z3", 2), ("Z5", 2),
                                    ("G3_1_2", 2), ("G4_1_2", 3)])
def test_partition_galois_conjugation(gid, k, monkeypatch):
    # sigma_k is a field automorphism, so the conjugate generators
    # enumerate the same abstract group in the same order, acting on a
    # Galois-conjugate reflection representation (I2_5's rho2 at k = 2),
    # and each irrep keeps its label; the partition at rational c is read
    # off exact multiplicities, which sigma_k fixes, so it keeps every
    # label.  The conjugate is built past build_group's cache.
    g = build_group(gid)
    monkeypatch.setitem(_BUILDERS, gid, _conjugated(_BUILDERS[gid], k))
    conj = build_group.__wrapped__(gid)
    assert conj.elements == [_galois_matrix(m, k) for m in g.elements]
    assert conj.elements != g.elements
    for c in (1, Fraction(1, 3)):
        assert dirac_partition(conj, c).to_data() == \
            dirac_partition(g, c).to_data(), c


@pytest.mark.parametrize("gid, k", [("I2_5", 2), ("Z3", 2), ("Z5", 2),
                                    ("G3_1_2", 2), ("G4_1_2", 3)])
def test_casimir_forms_galois_conjugation(gid, k, monkeypatch):
    # N_c's form per irrep sums chi_mu(s)/(1 - lambda_s) over the
    # reflections, so on the conjugate entry each form is the
    # sigma_k-image of the original's, under the same irrep labels and
    # class names (on I2_5 every form is rational, and sigma_k fixes it)
    g = build_group(gid)
    monkeypatch.setitem(_BUILDERS, gid, _conjugated(_BUILDERS[gid], k))
    conj = build_group.__wrapped__(gid)
    assert conj.irrep_labels == g.irrep_labels
    assert conj.class_names == g.class_names
    assert conj.elements != g.elements
    forms = casimir_forms(g)
    assert casimir_forms(conj) == [{name: _galois(v, k)
                                    for name, v in form.items()}
                                   for form in forms]


@pytest.mark.parametrize("gid, k", [("I2_5", 2), ("Z3", 2), ("Z5", 2),
                                    ("G3_1_2", 2), ("G4_1_2", 3)])
def test_kernel_solve_galois_conjugation(gid, k, monkeypatch):
    # the kernel solve is field arithmetic on the entries, so on the
    # conjugate entry zeta(omega_tilde) and b are the sigma_k-images of
    # the original's, term by term, and the factorization reports agree
    g = build_group(gid)
    monkeypatch.setitem(_BUILDERS, gid, _conjugated(_BUILDERS[gid], k))
    conj = build_group.__wrapped__(gid)
    for t in (0, 1):
        for c in (1, Fraction(1, 3)):
            fam, cfam = cherednik_family(g, t, c), cherednik_family(conj, t, c)
            s, b = decompose_kernel_element(omega_tilde(fam), fam,
                                            degree_cap=2)
            cs, cb = decompose_kernel_element(omega_tilde(cfam), cfam,
                                              degree_cap=2)
            assert cs.terms == {name: _galois(v, k)
                                for name, v in s.terms.items()}, (t, c)
            assert cb.terms == {key: _galois(v, k)
                                for key, v in b.terms.items()}, (t, c)
    assert verify_cm_factorization(conj, 1, 3) == \
        verify_cm_factorization(g, 1, 3)


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


def test_cm_factorization_i2_5_at_cap_5():
    # the search keeps only the degrees 0 and +-5 of the quintic: 180 raw
    # keys a side against 1,240 over every degree
    g = build_group("I2_5")
    out = verify_cm_factorization(g, 1, 5)
    sides = sorted((e["side"], e["degree"]) for e in out["invariants"])
    assert sides == [("h", 2), ("h", 5), ("h_star", 2), ("h_star", 5)]
    assert all(e["verified"] for e in out["invariants"])


def _factors_every_invariant_to_cap(gid, cap):
    g = build_group(gid)
    out = verify_cm_factorization(g, 1, cap)
    sides = sorted((e["side"], e["degree"]) for e in out["invariants"])
    degrees = [d for d in g.invariant_degrees if d <= cap]
    assert degrees
    assert sides == sorted((side, d) for side in ("h", "h_star")
                           for d in degrees)
    assert all(e["verified"] for e in out["invariants"])


def test_cm_factorization_b3_at_cap_4(monkeypatch):
    # B3 acts on h by signed permutations, so every Delta(w) sends a unit
    # key to a single term: an orbit takes one average for all its keys
    average, column = KernelSearch.average, KernelSearch.column
    averaged, searched = [], set()

    def counting_average(search, key):
        averaged.append(key)
        return average(search, key)

    def counting_column(search, key):
        searched.add(key)
        return column(search, key)

    monkeypatch.setattr(KernelSearch, "average", counting_average)
    monkeypatch.setattr(KernelSearch, "column", counting_column)
    _factors_every_invariant_to_cap("B3", 4)
    assert len(set(averaged)) == len(averaged)
    assert 10 * len(averaged) < len(searched)


def test_cm_factorization_g4_1_2_at_cap_4():
    _factors_every_invariant_to_cap("G4_1_2", 4)


def test_cm_factorization_makes_one_attempt(monkeypatch):
    calls = []

    def missing(z, fam, degree_cap, side=None, search=None):
        calls.append((degree_cap, side))
        raise CapExceeded("no decomposition at this degree cap; raise "
                          "degree_cap", "degree_cap")

    monkeypatch.setattr(calogero_moser, "decompose_kernel_element", missing)
    with pytest.raises(CapExceeded, match="raise degree_cap"):
        verify_cm_factorization(build_group("A1"), 1, 2)
    # the degree-2 invariant is searched once, at its own degree and on
    # its own polynomial side
    assert calls == [(2, "h_star")]


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


def _solution(s, b):
    """(s, b) as term maps with the type of every coefficient."""
    return [{k: (c, type(c)) for k, c in e.terms.items()} for e in (s, b)]


@pytest.mark.parametrize("gid,cap", [("A2", 3), ("I2_3", 3), ("B2", 4),
                                     ("G2_1_2", 4)])
@pytest.mark.parametrize("c", [1, Fraction(1, 2)])
def test_shared_search_matches_fresh_solves(monkeypatch, gid, cap, c):
    # the solves of each side as verify_cm_factorization makes them, with
    # the search that side shares
    inner = calogero_moser.decompose_kernel_element
    sides = []

    def recording(z, fam, degree_cap, side=None, search=None):
        if not sides or sides[-1][0] is not search:
            sides.append((search, []))
        sides[-1][1].append((z, fam, degree_cap, side))
        return inner(z, fam, degree_cap, side, search=search)

    monkeypatch.setattr(calogero_moser, "decompose_kernel_element",
                        recording)
    group = build_group(gid)
    verify_cm_factorization(group, c, cap)
    assert len(sides) == 2
    for _, jobs in sides:
        assert [job[2] for job in jobs] == list(group.invariant_degrees)
        fresh = [_solution(*inner(*job)) for job in jobs]
        # low degree first and high degree first: no solve may leave state
        # in the memos that changes another; a caller mutating its b must
        # not reach them either
        for order in ([0, 1], [1, 0]):
            search = KernelSearch(jobs[0][1])
            for i in order + order[:1]:
                s, b = inner(*jobs[i], search=search)
                assert _solution(s, b) == fresh[i], (gid, c, order, i)
                for k in b.terms:
                    b.terms[k] = 7
                b.terms[next(iter(jobs[i][0].terms))] = 1


def test_cm_factorization_drops_its_searches(monkeypatch):
    # each side's search, memos included, dies with the call: nothing of
    # it is left on the family, which the family cache keeps for good
    group = build_group("A2")
    fam = cherednik_family(group, 0, 1)
    before = set(vars(fam))
    inner = calogero_moser.decompose_kernel_element
    ids, refs = [], []

    def recording(*args, search=None, **kwargs):
        ids.append(id(search))
        refs.append(weakref.ref(search))
        return inner(*args, search=search, **kwargs)

    monkeypatch.setattr(calogero_moser, "decompose_kernel_element",
                        recording)
    verify_cm_factorization(group, 1, 3)
    # one search per side, shared by the side's two solves
    assert ids[0] == ids[1] != ids[2] == ids[3]
    assert [ref() for ref in refs] == [None] * 4
    assert set(vars(fam)) == before
