import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cherednik import linalg
from cherednik.groups import CATALOGUE_IDS, build_group
from cherednik.pbw import (
    FormFamily,
    casimir_h,
    casimir_omega,
    cherednik_family,
    corrupted_family,
    gaha_family,
    gaha_forms,
    invariant_form,
    pbw_check,
    positive_system,
)
from cherednik.poly import monomials
from cherednik.scalars import zeta

from oracles import (WeylModel, casimir_h_in_basis, element_matrix,
                     orthogonal_product)


def hstar_vector(fam, coords):
    """Embed an h*-vector (x-side) into the interleaved V slots."""
    full = [0] * fam.nv
    for i, c in enumerate(coords):
        full[2 * i] = c
    return fam.vector_element(full)


def random_element(fam, rng, nterms=3):
    n = fam.group.n
    terms = {}
    for _ in range(nterms):
        a = tuple(rng.randint(0, 1) for _ in range(n))
        if fam.space == "polarized":
            b = tuple(rng.randint(0, 1) for _ in range(n))
        else:
            b = (0,) * n
        w = rng.randrange(fam.group.order)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        key = (a, w, b)
        terms[key] = terms.get(key, 0) + c
    return fam.element(terms)


def test_rank_one_commutation_relation():
    g = build_group("A1")
    fam = cherednik_family(g, 1, Fraction(1, 2))
    x, y, s = fam.x_gen(0), fam.y_gen(0), fam.group_element(1)
    assert y * x == x * y + fam.one() - Fraction(1, 2) * s


def test_semidirect_relation():
    g = build_group("A2")
    fam = cherednik_family(g, 1, 1)
    for w in range(g.order):
        hs = g.h_star_matrix(w)
        wel = fam.group_element(w)
        for j in range(g.n):
            image = hstar_vector(fam, [hs[i][j] for i in range(g.n)])
            assert wel * fam.x_gen(j) == image * wel


def test_weyl_algebra_identity():
    g = build_group("A1")
    fam = cherednik_family(g, 1, 0)
    x, y = fam.x_gen(0), fam.y_gen(0)
    got = (y * y) * (x * x)
    want = fam.element({
        ((2,), 0, (2,)): 1,
        ((1,), 0, (1,)): 4,
        ((0,), 0, (0,)): 2,
    })
    assert got == want


def test_products_match_differential_operator_model():
    g = build_group("A1")
    fam = cherednik_family(g, 1, 0)
    model = WeylModel(1, 9, [g.h_star_matrix(i) for i in range(g.order)])
    gens = [fam.x_gen(0), fam.y_gen(0), fam.group_element(1)]
    rng = random.Random(11)
    for _ in range(6):
        u = fam.one()
        v = fam.one()
        for _ in range(rng.randint(1, 3)):
            u = u * gens[rng.randrange(3)]
        for _ in range(rng.randint(1, 3)):
            v = v * gens[rng.randrange(3)]
        mu, mv = element_matrix(u, model), element_matrix(v, model)
        mprod = element_matrix(u * v, model)
        direct = WeylModel.mat_mul(mu, mv)
        xdeg = max((sum(a) for a, _w, _b in u.terms), default=0) \
            + max((sum(a) for a, _w, _b in v.terms), default=0)
        for col, mono in enumerate(model.basis):
            if sum(mono) + xdeg > model.maxdeg:
                continue
            for r in range(model.dim):
                assert mprod[r][col] == direct[r][col]


# the graded affine Hecke family of every real catalogue group, B2 at
# unequal parameters; I2_5 carries cyclotomic entries
GAHA_CASES = [("A1", 1), ("A2", 1),
              ("B2", {"long": 1, "short": Fraction(1, 2)}),
              ("B3", {"long": 1, "short": 2}), ("I2_3", 1),
              ("I2_4", {"s1": 1, "s2": 2}), ("I2_5", 1),
              ("I2_6", {"s1": 1, "s2": Fraction(1, 3)})]


def _associativity_cases():
    a1 = cherednik_family(build_group("A1"), 1, Fraction(1, 2))
    b2 = cherednik_family(build_group("B2"), 1,
                          {"long": 1, "short": Fraction(1, 2)})
    z3 = cherednik_family(build_group("Z3"), 1,
                          {"g1": 1, "g2": Fraction(1, 3)})
    return [a1, b2, z3] + [gaha_family(build_group(gid), k)
                           for gid, k in GAHA_CASES]


def test_multiplication_is_associative():
    rng = random.Random(17)
    for fam in _associativity_cases():
        for _ in range(3):
            u = random_element(fam, rng)
            v = random_element(fam, rng)
            w = random_element(fam, rng)
            assert (u * v) * w == u * (v * w), fam.group.catalogue_id


@pytest.mark.parametrize("gid,k", [
    *[pytest.param(gid, k, id=gid) for gid, k in GAHA_CASES],
    pytest.param("B3", "rotation", id="B3-rotation")])
def test_orthogonal_products_match_ordered_rewrite(gid, k):
    # the one straightening engine against the ordered rewrite of the
    # orthogonal space, also on a family that is not PBW
    g = build_group(gid)
    fam = corrupted_family(g, k) if k == "rotation" else gaha_family(g, k)
    rng = random.Random(29)
    for _ in range(4):
        u = random_element(fam, rng)
        v = random_element(fam, rng, nterms=2)
        v = v * random_element(fam, rng, nterms=2)
        assert (u * v).terms == orthogonal_product(fam, u, v)


def _vgens(fam):
    return [fam.v_gen(i) for i in range(fam.nv)]


def test_flatness_probe():
    # the words of degree <= 3 in V, times W, span a space of the PBW
    # dimension |W| dim S(V)_{<=3}
    cases = [
        cherednik_family(build_group("A1"), 1, Fraction(1, 2)),
        cherednik_family(build_group("Z3"), 1, {"g1": 1, "g2": 1}),
    ] + [gaha_family(build_group(gid), k) for gid, k in GAHA_CASES]
    for fam in cases:
        order = fam.group.order
        gens = _vgens(fam)
        words = [fam.one()]
        frontier = [fam.one()]
        for _ in range(3):
            frontier = [u * gv for u in frontier for gv in gens]
            words.extend(frontier)
        products = [fam.group_element(w) * u for w in range(order)
                    for u in words]
        vocab = sorted({k for el in products for k in el.terms})
        pos = {k: i for i, k in enumerate(vocab)}
        rows = []
        for el in products:
            row = [0] * len(vocab)
            for k, c in el.terms.items():
                row[pos[k]] = c
            rows.append(row)
        smono = sum(1 for d in range(4) for _ in monomials(fam.nv, d))
        assert linalg.rank(rows) == order * smono, fam.group.catalogue_id
        assert len(vocab) <= order * smono


def test_casimir_h_rank_one():
    fam = cherednik_family(build_group("A1"), 1, Fraction(2, 3))
    want = fam.element({
        ((1,), 0, (1,)): 2,
        ((0,), 0, (0,)): 1,
        ((0,), 1, (0,)): Fraction(-2, 3),
    })
    assert casimir_h(fam) == want


def test_casimir_h_basis_independent():
    rng = random.Random(23)
    fams = [
        cherednik_family(build_group("A1"), 1, Fraction(1, 2)),
        cherednik_family(build_group("B2"), 1, 1),
        gaha_family(build_group("A2"), 1),
    ]
    for fam in fams:
        base = casimir_h(fam)
        for _ in range(2):
            while True:
                p = [[Fraction(rng.randint(-2, 2)) for _ in range(fam.nv)]
                     for _ in range(fam.nv)]
                if linalg.rank(p) == fam.nv:
                    break
            basis = [[p[r][i] for r in range(fam.nv)] for i in range(fam.nv)]
            assert casimir_h_in_basis(fam, basis) == base


def test_casimir_h_is_w_invariant():
    for fam in [cherednik_family(build_group("Z3"), 1, {"g1": 1, "g2": 1}),
                cherednik_family(build_group("B2"), 1, 1),
                gaha_family(build_group("B2"), {"long": 1, "short": 2})]:
        h = casimir_h(fam)
        for w in range(fam.group.order):
            wel = fam.group_element(w)
            assert wel * h == h * wel


def test_casimir_h_commutative_limit():
    g = build_group("A2")
    fam = cherednik_family(g, 0, 0)
    want = fam.zero()
    for i in range(g.n):
        want = want + 2 * (fam.x_gen(i) * fam.y_gen(i))
    assert casimir_h(fam) == want


def test_omega_real_group_closed_form():
    g = build_group("B2")
    fam = cherednik_family(g, 1, 1)
    om = casimir_omega(fam)
    assert om == casimir_h(fam)  # e_s = 0 for lambda = -1
    want = fam.zero()
    for i in range(g.n):
        want = want + 2 * (fam.x_gen(i) * fam.y_gen(i))
    want = want + fam.scalar(2)
    for r in g.reflections:
        want = want - fam.group_element(r.element_index)
    assert om == want


def test_omega_cyclic_closed_form():
    g = build_group("Z3")
    fam = cherednik_family(g, 1, {"g1": 1, "g2": 1})
    from cherednik.dirac import compute_e_w
    z = zeta(3)
    values = {}
    for r in g.reflections:
        e = compute_e_w(fam, r.element_index)
        lam_star = r.lam.inverse()  # eigenvalue on the alpha line in h*
        assert e == (1 + lam_star) * (1 - lam_star).inverse()
        values[r.element_index] = e
    assert sorted(str(v) for v in values.values()) == sorted([
        str((1 + z) * (1 - z).inverse()),
        str((1 + z * z) * (1 - z * z).inverse()),
    ])
    om = casimir_omega(fam)
    want = 2 * (fam.x_gen(0) * fam.y_gen(0)) + fam.one()
    for r in g.reflections:
        lam_star = r.lam.inverse()
        coeff = 2 * (1 - lam_star).inverse()
        want = want - coeff * fam.group_element(r.element_index)
    assert om == want


def test_omega_gaha_matches_root_sum():
    # Omega = h + sum over ordered pairs of distinct positive roots of
    # k k <al, be>_{B*} s_al s_be, pairing the root covectors with the
    # dual of the invariant form (scale-free version of the coroot sum)
    for gid, k in (("A2", 1), ("B2", {"long": 1, "short": Fraction(1, 2)})):
        g = build_group(gid)
        k_map = k if isinstance(k, dict) else {nm: k for nm
                                               in g.reflection_class_names()}
        fam = gaha_family(g, k)
        om = casimir_omega(fam)
        bstar = linalg.inverse(invariant_form(g))
        want = casimir_h(fam)
        ps = positive_system(g)
        for a1, i1 in ps:
            for a2, i2 in ps:
                if i1 == i2:
                    continue
                pair = sum(a1[i] * sum(bstar[i][j] * a2[j]
                                       for j in range(g.n))
                           for i in range(g.n))
                kk = (k_map[g.reflection_at(i1).class_name]
                      * k_map[g.reflection_at(i2).class_name])
                w = g.mult(i1, i2)
                want = want + (kk * pair) * fam.group_element(w)
        assert om == want


def test_omega_commutators_give_grading():
    for gid, c in [("A1", Fraction(1, 2)), ("B2", 1)]:
        g = build_group(gid)
        fam = cherednik_family(g, 1, c)
        om = casimir_omega(fam)
        for i in range(g.n):
            x = fam.x_gen(i)
            y = fam.y_gen(i)
            assert om * x - x * om == 2 * x
            assert om * y - y * om == -2 * y


def test_commutator_with_omega_is_j():
    g = build_group("Z3")
    fam = cherednik_family(g, 1, {"g1": Fraction(1, 2), "g2": Fraction(1, 2)})
    om = casimir_omega(fam)
    a1 = fam.forms[0]
    ginv = fam.clifford.gram_inverse()
    nv = fam.nv
    for slot in range(nv):
        v = fam.vector_element([1 if r == slot else 0 for r in range(nv)])
        # j(v) = sum_i a_1(v, v_i) v^i
        j = fam.vector_element([sum(a1[slot][i] * ginv[r][i]
                                    for i in range(nv)) for r in range(nv)])
        assert v * om - om * v == 2 * j


def test_omega_central_iff_a1_zero():
    g = build_group("A2")
    fam0 = cherednik_family(g, 0, Fraction(1, 2))
    om0 = casimir_omega(fam0)
    gens = [fam0.x_gen(i) for i in range(g.n)] \
        + [fam0.y_gen(i) for i in range(g.n)] \
        + [fam0.group_element(w) for w in g.generator_indices]
    for u in gens:
        assert om0 * u == u * om0
    fam1 = cherednik_family(g, 1, Fraction(1, 2))
    om1 = casimir_omega(fam1)
    x = fam1.x_gen(0)
    assert om1 * x != x * om1
    ga = gaha_family(g, 1)
    omg = casimir_omega(ga)
    for u in [ga.x_gen(0), ga.x_gen(1)] \
            + [ga.group_element(w) for w in g.generator_indices]:
        assert omg * u == u * omg


def test_cherednik_forms_invariant_under_root_rescale():
    g = build_group("B2")
    fam = cherednik_family(g, 1, {"long": 1, "short": Fraction(1, 2)})
    cmap = {"long": 1, "short": Fraction(1, 2)}
    for u in [Fraction(2), Fraction(-1, 3)]:
        n = g.n
        for r in g.reflections:
            cs = cmap[r.class_name]
            alpha = [u * a for a in r.alpha]
            alphav = [a / u for a in r.alpha_check]
            p = sum(x * y for x, y in zip(alpha, alphav))
            mat = linalg.zeros(2 * n, 2 * n)
            for i in range(n):
                for j in range(n):
                    val = -cs * alpha[i] * alphav[j] / p
                    mat[2 * i + 1][2 * j] = val
                    mat[2 * j][2 * i + 1] = -val
            assert mat == fam.forms[r.element_index]


CATALOGUE = ["A1", "A2", "B2", "B3", "I2_3", "I2_4", "I2_5", "I2_6",
             "Z2", "Z3", "Z4", "Z5", "Z6", "G2_1_2", "G3_1_2", "G4_1_2"]


def test_cherednik_presets_pass_pbw_check():
    for gid in CATALOGUE:
        g = build_group(gid)
        fam = cherednik_family(g, 1, 1)
        assert pbw_check(fam)["passed"]
    # t = 0 spot checks
    for gid in ["A2", "Z4", "G3_1_2"]:
        fam = cherednik_family(build_group(gid), 0, Fraction(1, 2))
        assert pbw_check(fam)["passed"]


def test_cherednik_family_is_shared_per_parameters():
    g = build_group("A1")
    fam = cherednik_family(g, 1, 1)
    assert cherednik_family(g, 1, Fraction(1)) is fam
    assert cherednik_family(g, Fraction(1), {"s": 1}) is fam
    assert cherednik_family(g, 0, 1) is not fam
    assert cherednik_family(g, 1, Fraction(1, 2)) is not fam


def test_gaha_presets_pass_pbw_check():
    for gid, k in [("A2", 1), ("B2", {"long": 1, "short": Fraction(1, 2)}),
                   ("B3", 1), ("I2_4", {"s1": 1, "s2": 2}),
                   ("I2_5", 1), ("I2_6", {"s1": 1, "s2": Fraction(1, 3)})]:
        fam = gaha_family(build_group(gid), k)
        assert pbw_check(fam)["passed"]


def test_gaha_rejects_complex_groups():
    with pytest.raises(ValueError):
        gaha_family(build_group("Z3"), 1)


def test_gaha_support_is_double_reflection_products():
    g = build_group("B2")
    fam = gaha_family(g, 1)
    refl = {r.element_index for r in g.reflections}
    prods = set()
    for i in refl:
        for j in refl:
            if i != j:
                prods.add(g.mult(i, j))
    assert fam.support()
    assert 0 not in fam.support()
    assert set(fam.support()) <= prods
    # products of two commuting reflections cancel in the ordered sum
    for w in fam.support():
        assert g.mult(w, w) != 0


def test_gaha_positive_system_translates_give_same_family():
    # a W-translate of the positive system flips some roots but leaves
    # every form a_w unchanged, so downstream output is choice-free
    g = build_group("A2")
    base = gaha_family(g, 1)
    for u in range(g.order):
        uinv = g.inverse_index(u)
        minv = g.elements[uinv]
        roots = []
        for a, idx in positive_system(g):
            alpha = tuple(sum(a[kk] * minv[kk][j] for kk in range(g.n))
                          for j in range(g.n))
            target = g.mult(g.mult(u, idx), uinv)
            roots.append((alpha, 1, target))
        assert gaha_forms(g, roots) == base.forms


def test_corrupted_class_constant_fails_condition_one():
    fam = corrupted_family(build_group("B2"))
    verdict = pbw_check(fam)
    assert not verdict["passed"]
    assert {f["condition"] for f in verdict["failures"]} == {1}
    wit = verdict["failures"][0]
    assert wit["w"] in {r.element_index for r in fam.group.reflections}
    assert wit["h"] in fam.group.generator_indices


def test_corrupted_radical_fails_condition_two():
    fam = corrupted_family(build_group("B2"), "radical")
    verdict = pbw_check(fam)
    assert not verdict["passed"]
    assert {f["condition"] for f in verdict["failures"]} == {2}
    for f in verdict["failures"]:
        v = f["vector"]
        assert v is not None
        assert any(x != 0 for x in linalg.mat_vec(fam.forms[f["w"]], v))


def test_corrupted_rotation_fails_condition_three():
    fam = corrupted_family(build_group("B2"), "rotation")
    verdict = pbw_check(fam)
    assert not verdict["passed"]
    conds = {f["condition"] for f in verdict["failures"]}
    assert 3 in conds
    assert conds == {1, 3}  # support on an involution also breaks invariance
    dets = [f["det"] for f in verdict["failures"] if f["condition"] == 3]
    assert all(d == -1 for d in dets)


def test_condition_two_witness_lies_in_one_subspace_only():
    # on B3 the rotation's ker a_w and V^w have equal dimension but differ;
    # the entry names the subspace its vector lies in
    fam = corrupted_family(build_group("B3"), "rotation")
    entries = [f for f in pbw_check(fam)["failures"] if f["condition"] == 2]
    assert entries
    for f in entries:
        w, v = f["w"], f["vector"]
        in_kernel = not any(linalg.mat_vec(fam.forms[w], v))
        fixed = linalg.mat_vec(fam.v_matrix(w), v) == v
        assert in_kernel != fixed
        assert "both have dim 1 but differ" in f["detail"]
        where = "ker a_w, not in V^w" if in_kernel else "V^w, not in ker a_w"
        assert f["detail"].endswith("the vector lies in " + where)


def test_corrupted_nonskew_is_condition_zero():
    for gid in ["A1", "Z4"]:
        fam = corrupted_family(build_group(gid))
        verdict = pbw_check(fam)
        assert not verdict["passed"]
        assert {f["condition"] for f in verdict["failures"]} == {0}


# the failing conditions of each corruption kind, as corrupted_family
# documents them; the default kind is "class" or "nonskew"
_CORRUPTION_CONDITIONS = {"nonskew": [{0}], "class": [{1}], "radical": [{2}],
                          "rotation": [{1, 3}, {1, 2, 3}]}


@pytest.mark.parametrize("gid", CATALOGUE_IDS)
def test_every_corruption_fails_or_is_refused(gid):
    g = build_group(gid)
    refused = []
    for kind in (None, "nonskew", "class", "radical", "rotation"):
        try:
            fam = corrupted_family(g, kind)
        except ValueError:
            refused.append(kind)
            continue
        verdict = pbw_check(fam)
        conds = {f["condition"] for f in verdict["failures"]}
        allowed = (_CORRUPTION_CONDITIONS[kind] if kind else
                   [{0}, {1}])
        assert not verdict["passed"] and conds in allowed, (kind, conds)
        if kind == "rotation" and conds == {1, 2, 3}:
            assert gid == "B3"
    rank_one = g.n == 1
    assert ("radical" in refused) == rank_one
    assert ("class" in refused) == rank_one
    assert ("rotation" in refused) == (gid in {
        "A1", "A2", "G3_1_2", "G4_1_2", "I2_3", "I2_5",
        "Z2", "Z3", "Z4", "Z5", "Z6"})


def test_radical_corruption_names_why_it_is_refused():
    with pytest.raises(ValueError, match="rank 1"):
        corrupted_family(build_group("Z3"), "radical")


def test_family_construction_refuses_failing_forms():
    g = build_group("B2")
    bad = corrupted_family(g, "radical").forms
    # construction does not verify; pbw_check reports the failing forms
    verdict = pbw_check(FormFamily(g, bad))
    assert not verdict["passed"]
    assert {f["condition"] for f in verdict["failures"]} == {2}
    assert {f["w"] for f in verdict["failures"]} == set(bad)


def test_orthogonal_commutators_match_forms():
    g = build_group("A2")
    fam = gaha_family(g, 1)
    for i in range(g.n):
        for j in range(g.n):
            lhs = fam.x_gen(i) * fam.x_gen(j) - fam.x_gen(j) * fam.x_gen(i)
            rhs = fam.zero()
            for w, mat in fam.forms.items():
                if mat[i][j] != 0:
                    rhs = rhs + mat[i][j] * fam.group_element(w)
            assert lhs == rhs


def test_degree_filtration_multiplicative():
    fam = cherednik_family(build_group("A1"), 1, Fraction(1, 2))
    x, y = fam.x_gen(0), fam.y_gen(0)
    u = x + y

    def degree(elem):
        return max((sum(a) + sum(b) for a, _w, b in elem.terms), default=-1)

    cube = u * u * u
    assert degree(cube) == 3
    assert degree(y * x) == 2
    assert degree(fam.zero()) == -1


def test_serialization_is_sorted_and_canonical():
    fam = cherednik_family(build_group("A1"), 1, Fraction(1, 2))
    el = fam.x_gen(0) + fam.group_element(1) * fam.y_gen(0) + fam.scalar(2)
    data = el.to_data()
    keys = [(tuple(t["x"]), t["w"], tuple(t["y"])) for t in data]
    assert keys == sorted(keys)
    assert data[0] == {"x": [0], "w": 0, "y": [0], "coeff": "2/1"}
    assert {"x": [0], "w": 1, "y": [1], "coeff": "1/1"} in data


def test_unit_and_group_multiplication():
    g = build_group("B2")
    fam = cherednik_family(g, 1, 1)
    rng = random.Random(5)
    u = random_element(fam, rng)
    assert fam.one() * u == u
    assert u * fam.one() == u
    for a in [1, 3]:
        for b in [2, 5]:
            assert fam.group_element(a) * fam.group_element(b) \
                == fam.group_element(g.mult(a, b))
