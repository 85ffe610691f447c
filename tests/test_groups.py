import random
from fractions import Fraction

import pytest

from cherednik import linalg, poly
from cherednik.groups import (
    CATALOGUE_IDS,
    WRepresentation,
    _catalogue,
    build_group,
    check_representation,
    export_data,
    inner_product,
)
from cherednik.scalars import reciprocal, zeta

from oracles import isotypic_projector

F = Fraction


def multiplicities(rep, g):
    """{label: multiplicity} of a checked representation, by characters."""
    assert check_representation(rep, g)
    chi = rep.character(g)
    out = {lab: inner_product(g, chi, lab) for lab in g.irrep_labels}
    out = {lab: m for lab, m in out.items() if m}
    assert sum(m * g.dim_of(lab) for lab, m in out.items()) == rep.dimension
    return out


def h_rep(g):
    return WRepresentation(g.n, g.elements)


def regular_rep(g):
    mats = []
    for i in range(g.order):
        m = linalg.zeros(g.order, g.order)
        for j in range(g.order):
            m[g.mult(i, j)][j] = 1
        mats.append(m)
    return WRepresentation(g.order, mats)


def tensor_rep(a, b):
    return WRepresentation(a.dimension * b.dimension,
                           [linalg.kron(x, y)
                            for x, y in zip(a.matrices, b.matrices)])

EXPECTED_ORDERS = {
    "A1": 2, "A2": 6, "B2": 8, "B3": 48,
    "I2_3": 6, "I2_4": 8, "I2_5": 10, "I2_6": 12,
    "Z2": 2, "Z3": 3, "Z4": 4, "Z5": 5, "Z6": 6,
    "G2_1_2": 8, "G3_1_2": 18, "G4_1_2": 32,
}

EXPECTED_REFLECTIONS = {
    "A1": 1, "A2": 3, "B2": 4, "B3": 9,
    "I2_3": 3, "I2_4": 4, "I2_5": 5, "I2_6": 6,
    "Z2": 1, "Z3": 2, "Z4": 3, "Z5": 4, "Z6": 5,
    "G2_1_2": 4, "G3_1_2": 7, "G4_1_2": 10,
}


@pytest.mark.parametrize("gid", sorted(EXPECTED_ORDERS))
def test_catalogue_entry_builds_and_counts(gid):
    # build_group itself runs orthogonality / invariant verification
    g = build_group(gid)
    assert g.order == EXPECTED_ORDERS[gid]
    assert len(g.reflections) == EXPECTED_REFLECTIONS[gid]
    assert sum(d * d for d in g.irrep_dims) == g.order
    prod = 1
    for d in g.invariant_degrees:
        prod *= d
    assert prod == g.order
    assert len(g.conjugacy_classes) == len(g.irrep_labels)
    # identity first, classes partition the group
    assert g.conjugacy_classes[0] == [0]
    assert sorted(i for cl in g.conjugacy_classes for i in cl) == list(range(g.order))


def test_unknown_group():
    with pytest.raises(ValueError, match="unknown group 'E8'; known: A1"):
        build_group("E8")


def test_a1_basics():
    g = build_group("A1")
    assert g.order == 2
    assert len(g.reflections) == 1
    assert g.reflections[0].lam == -1
    assert set(g.irrep_labels) == {"triv", "sgn"}
    assert g.eps_label == "sgn"


def test_b2_basics():
    g = build_group("B2")
    assert g.order == 8
    assert sorted(g.irrep_dims) == [1, 1, 1, 1, 2]
    by_class = {}
    for r in g.reflections:
        by_class.setdefault(r.class_name, []).append(r)
    assert sorted(by_class) == ["long", "short"]
    assert len(by_class["long"]) == 2
    assert len(by_class["short"]) == 2
    # bipartition labels: 1x1 is the reflection rep,
    # 0x2 = 11x0 tensor eps
    assert multiplicities(h_rep(g), g) == {"1x1": 1}
    assert g.eps_label == "0x11"
    assert g.tensor_with_eps("11x0") == "0x2"
    assert g.tensor_with_eps("2x0") == "0x11"
    assert g.tensor_with_eps("1x1") == "1x1"


def test_z3_reflections():
    g = build_group("Z3")
    assert g.order == 3
    lams = sorted([r.lam for r in g.reflections], key=lambda x: x.key())
    want = sorted([zeta(3), zeta(3) ** 2], key=lambda x: x.key())
    assert [x.key() for x in lams] == [x.key() for x in want]
    assert {r.class_name for r in g.reflections} == {"g1", "g2"}


CLASS_NAMES = {
    "A1": ["e", "s"],
    "A2": ["e", "s", "cl2"],
    "B2": ["e", "long", "short", "cl3", "cl4"],
    "B3": ["e", "long", "short", "cl3", "cl4", "cl5", "cl6", "cl7", "cl8",
           "cl9"],
    "G2_1_2": ["e", "s", "d1", "cl3", "cl4"],
    "G3_1_2": ["e", "s", "d1", "cl3", "d2", "cl5", "cl6", "cl7", "cl8"],
    "G4_1_2": ["e", "s", "d1", "cl3", "d2", "cl5", "d3", "cl7", "cl8", "cl9",
               "cl10", "cl11", "cl12", "cl13"],
    "I2_3": ["e", "s", "cl2"],
    "I2_4": ["e", "s1", "s2", "cl3", "cl4"],
    "I2_5": ["e", "s", "cl2", "cl3"],
    "I2_6": ["e", "s1", "s2", "cl3", "cl4", "cl5"],
    "Z2": ["e", "g1"],
    "Z3": ["e", "g1", "g2"],
    "Z4": ["e", "g1", "g2", "g3"],
    "Z5": ["e", "g1", "g2", "g3", "g4"],
    "Z6": ["e", "g1", "g2", "g3", "g4", "g5"],
}


def test_class_names():
    # every class name of every group, in class order; the reflection
    # classes are the named ones other than e
    assert sorted(CLASS_NAMES) == CATALOGUE_IDS
    for gid, want in CLASS_NAMES.items():
        g = build_group(gid)
        assert g.class_names == want, gid
        assert g.reflection_class_names() == [
            n for n in want[1:] if not n.startswith("cl")], gid


def test_eps_labels():
    assert build_group("A2").eps_label == "sgn"
    assert build_group("B3").eps_label == "0x111"
    assert build_group("I2_6").eps_label == "sgn"
    assert build_group("Z4").eps_label == "chi1"
    assert build_group("G3_1_2").eps_label == "chi1m"


def test_reflection_eigen_relations():
    # s(alpha_check) = lambda alpha_check, s(alpha) = lambda^-1 alpha,
    # rank(1 - s) = 1 on h and 2 on h + h*
    for gid in ["B3", "I2_5", "G4_1_2", "Z6"]:
        g = build_group(gid)
        for r in g.reflections:
            s = g.elements[r.element_index]
            assert linalg.mat_vec(s, r.alpha_check) == [r.lam * x
                                                        for x in r.alpha_check]
            B = g.h_star_matrix(r.element_index)
            lam_inv = reciprocal(r.lam)
            assert linalg.mat_vec(B, r.alpha) == [lam_inv * x for x in r.alpha]
            n = g.n
            dh = [[s[i][j] - (1 if i == j else 0) for j in range(n)]
                  for i in range(n)]
            dhs = [[B[i][j] - (1 if i == j else 0) for j in range(n)]
                   for i in range(n)]
            assert linalg.rank(dh) == 1
            assert linalg.rank(dh) + linalg.rank(dhs) == 2


def test_pairing_normalization():
    for gid, want in [("A2", 2), ("B3", 2), ("I2_5", 2),
                      ("Z3", 1), ("G3_1_2", 1)]:
        g = build_group(gid)
        for r in g.reflections:
            pairing = sum(a * b for a, b in zip(r.alpha_check, r.alpha))
            assert pairing == want, (gid, r.element_index)


def test_words_multiply_back():
    for gid in ["B2", "G3_1_2"]:
        g = build_group(gid)
        for i, w in enumerate(g.words):
            m = linalg.identity(g.n)
            for gi in w:
                m = linalg.mat_mul(m, g.elements[g.generator_indices[gi]])
            assert m == g.elements[i]


def _identical(a, b):
    """Equal values of equal types, entry for entry."""
    return [[(type(x), x) for x in row] for row in a] == \
        [[(type(y), y) for y in row] for row in b]


@pytest.mark.parametrize("gid", CATALOGUE_IDS)
def test_irreps_match_word_products(gid):
    # build_group forms each irrep image as parent image times the last
    # generator image; the product along the whole word is the reference
    g = build_group(gid)
    shipped = dict(_catalogue()[gid]["irreps"])
    for label in g.irrep_labels:
        images = shipped[label]
        for i, w in enumerate(g.words):
            m = linalg.identity(g.dim_of(label))
            for gi in w:
                m = linalg.mat_mul(m, images[gi])
            assert _identical(g.irreps[label].matrices[i], m), (label, i)


def test_mult_and_inverse():
    for gid in ["B2", "Z4", "I2_5"]:
        g = build_group(gid)
        for i in range(g.order):
            assert g.mult(i, g.inverse_index(i)) == 0
            assert g.mult(0, i) == i


def test_decompose_regular_a1():
    g = build_group("A1")
    assert multiplicities(regular_rep(g), g) == {"triv": 1, "sgn": 1}


def test_decompose_regular_b2():
    g = build_group("B2")
    # each irrep with multiplicity equal to its dimension
    want = dict(zip(g.irrep_labels, g.irrep_dims))
    assert multiplicities(regular_rep(g), g) == want


def test_decompose_h_tensor_h_b2():
    g = build_group("B2")
    out = multiplicities(tensor_rep(h_rep(g), h_rep(g)), g)
    assert out["2x0"] == 1  # trivial appears exactly once


def test_decompose_wedge2_b2_is_det():
    g = build_group("B2")
    out = multiplicities(WRepresentation(
        1, [poly.wedge_matrix(m, 2) for m in g.elements]), g)
    assert out == {g.eps_label: 1}
    assert out == {"0x11": 1}


def test_not_a_representation():
    g = build_group("A1")
    rep = WRepresentation(1, [[[F(1)]], [[F(2)]]])
    assert not check_representation(rep, g)
    with pytest.raises(ValueError, match="homomorphism check failed"):
        isotypic_projector(rep, "triv", g)


def test_isotypic_projector_regular_a1():
    g = build_group("A1")
    reg = regular_rep(g)
    p = isotypic_projector(reg, "triv", g)
    assert linalg.mat_mul(p, p) == p
    assert linalg.rank(p) == 1
    for m in reg.matrices:
        assert linalg.mat_mul(p, m) == linalg.mat_mul(m, p)


def test_isotypic_projector_h_b2():
    g = build_group("B2")
    p = isotypic_projector(h_rep(g), "1x1", g)
    assert p == linalg.identity(2)


def test_isotypic_projector_h_plus_h_a2_triv():
    g = build_group("A2")
    mats = []
    for i in range(g.order):
        m = linalg.zeros(4, 4)
        e = g.elements[i]
        for a in range(2):
            for b in range(2):
                m[a][b] = e[a][b]
                m[2 + a][2 + b] = e[a][b]
        mats.append(m)
    rep = WRepresentation(4, mats)
    p = isotypic_projector(rep, "triv", g)
    assert p == linalg.zeros(4, 4)


def test_diagonal_action_examples():
    g = build_group("B2")
    triv = g.irrep("2x0")
    assert multiplicities(tensor_rep(triv, triv), g) == {"2x0": 1}
    out = multiplicities(tensor_rep(g.irrep("11x0"), g.irrep(g.eps_label)), g)
    assert out == {"0x2": 1}
    a2 = build_group("A2")
    h_star = WRepresentation(a2.n, [a2.h_star_matrix(i)
                                    for i in range(a2.order)])
    rep = tensor_rep(h_rep(a2), h_star)
    assert multiplicities(rep, a2) == {"triv": 1, "sgn": 1, "std": 1}


def test_pairing_invariant_under_group():
    # <g y, g x> = <y, x> with h* carrying the inverse-transpose action
    rng = random.Random(42)
    for gid in ["A2", "B2", "G3_1_2"]:
        g = build_group(gid)
        for _ in range(5):
            i = rng.randrange(g.order)
            y = [F(rng.randrange(-3, 4)) for _ in range(g.n)]
            x = [F(rng.randrange(-3, 4)) for _ in range(g.n)]
            gy = linalg.mat_vec(g.elements[i], y)
            gx = linalg.mat_vec(g.h_star_matrix(i), x)
            lhs = sum(a * b for a, b in zip(gy, gx))
            rhs = sum(a * b for a, b in zip(y, x))
            assert lhs == rhs


def test_invariant_generator_shapes():
    a1 = build_group("A1")
    assert len(a1.invariant_generators) == 1
    f = a1.invariant_generators[0]
    assert list(f.keys()) == [(2,)]
    b2 = build_group("B2")
    f2 = b2.invariant_generators[0]
    # degree-2 invariant of B2 is a multiple of x1^2 + x2^2
    assert set(f2.keys()) == {(2, 0), (0, 2)}
    assert f2[(2, 0)] == f2[(0, 2)]


def test_invariants_fixed_by_whole_group():
    for gid in ["B2", "Z3", "I2_4"]:
        g = build_group(gid)
        for f in g.invariant_generators:
            for i in range(g.order):
                B = g.h_star_matrix(i)
                assert poly.substitute_linear(f, B) == f


def test_export_data_is_json_ready():
    import json

    g = build_group("B2")
    data = export_data(g)
    text = json.dumps(data, sort_keys=True)
    assert "character_table" in data
    assert data["order"] == 8
    assert json.loads(text)["irrep_labels"] == g.irrep_labels


def test_character_table_first_column_is_dims():
    for gid in ["A2", "B3", "I2_5", "G4_1_2"]:
        g = build_group(gid)
        col0 = [row[0] for row in g.character_table]
        assert col0 == g.irrep_dims
