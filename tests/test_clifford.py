import random
from fractions import Fraction

import pytest

from cherednik import linalg, poly
from cherednik.clifford import (
    CliffordAlgebra,
    CliffordElement,
    chevalley_lift,
    pin_tau,
    polarized_algebra,
    spin_action,
    tau_reflection,
)
from cherednik.groups import CATALOGUE_IDS, build_group
from cherednik.scalars import reciprocal

from oracles import (eps_automorphism, involutions,
                     pin_tau_inverse_by_reversed_word, transpose_element)

F = Fraction


def x(alg, i):
    return alg.gen(2 * i)


def y(alg, i):
    return alg.gen(2 * i + 1)


def test_defining_relations():
    alg = polarized_algebra(2)
    x1, y1 = x(alg, 0), y(alg, 0)
    x2, y2 = x(alg, 1), y(alg, 1)
    assert x1 * y1 + y1 * x1 == alg.scalar(-2)
    assert x1 * x1 == alg.zero()
    assert y2 * y2 == alg.zero()
    assert x1 * y2 + y2 * x1 == alg.zero()
    assert x1 * x2 + x2 * x1 == alg.zero()
    assert y1 * y2 + y2 * y1 == alg.zero()


def test_x1y1_squared():
    # (x1 y1)^2 = -2 x1 y1, cross-checked through spin matrices
    alg = polarized_algebra(1)
    a = x(alg, 0) * y(alg, 0)
    sq = a * a
    assert sq == alg.scalar(-2) * a
    m = spin_action(a, alg)
    assert linalg.mat_mul(m, m) == linalg.mat_scale(F(-2), m)


def test_multiply_matches_spin_matrices_randomized():
    rng = random.Random(17)
    alg = polarized_algebra(2)
    gens = [alg.gen(i) for i in range(4)]

    def rand_elem():
        e = alg.scalar(F(rng.randrange(-2, 3)))
        for _ in range(3):
            g = gens[rng.randrange(4)]
            h = gens[rng.randrange(4)]
            e = e + alg.scalar(F(rng.randrange(-2, 3))) * g * h
        return e

    for _ in range(10):
        a = rand_elem()
        b = rand_elem()
        lhs = spin_action(a * b, alg)
        rhs = linalg.mat_mul(spin_action(a, alg), spin_action(b, alg))
        assert lhs == rhs


def test_associativity_randomized():
    rng = random.Random(18)
    alg = polarized_algebra(3)

    def rand_elem():
        terms = {}
        for _ in range(3):
            k = rng.randrange(0, 4)
            mono = tuple(sorted(rng.sample(range(6), k)))
            terms[mono] = F(rng.randrange(-3, 4))
        return CliffordElement(alg, terms)

    for _ in range(12):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert (a * b) * c == a * (b * c)


def test_spin_identity_and_contraction():
    alg = polarized_algebra(2)
    assert spin_action(alg.one(), alg) == linalg.identity(4)
    # x1 on y_{1} gives -2 empty wedge: basis order (), (0,), (1,), (0,1)
    m = spin_action(x(alg, 0), alg)
    col = [m[r][1] for r in range(4)]
    assert col == [F(-2), 0, 0, 0]


def test_kappa1_scalar_on_wedge_degrees():
    # Chevalley lift of the t=1 pairing form acts on wedge^l by (-n + 2l)
    n = 2
    alg = polarized_algebra(n)
    A = [[F(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        A[2 * i + 1][2 * i] = F(1)   # a(y_i, x_i) = 1
        A[2 * i][2 * i + 1] = F(-1)
    kappa1 = chevalley_lift(A, alg)
    half = alg.scalar(F(1, 2)) * kappa1
    m = spin_action(half, alg)
    want = [[F(0)] * 4 for _ in range(4)]
    for idx, scalar in enumerate([-2, 0, 0, 2]):  # wedge degrees 0,1,1,2
        want[idx][idx] = F(scalar)
    assert m == want
    # closed form kappa1/2 = omega + n with omega = sum x_i y_i
    omega = alg.zero()
    for i in range(n):
        omega = omega + x(alg, i) * y(alg, i)
    assert half == omega + alg.scalar(n)


def test_chevalley_lift_zero_and_basis_independence():
    n = 2
    alg = polarized_algebra(n)
    zero = [[F(0)] * (2 * n) for _ in range(2 * n)]
    assert chevalley_lift(zero, alg) == alg.zero()
    # transform the form by a congruent change of basis and lift in the
    # transformed algebra; push back via the linear map on generators
    rng = random.Random(19)
    A = [[F(0)] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            A[i][j] = F(rng.randrange(-3, 4))
            A[j][i] = -A[i][j]
    P = [[F(0)] * 4 for _ in range(4)]
    while linalg.rank(P) < 4:
        P = [[F(rng.randrange(-2, 3)) for _ in range(4)] for _ in range(4)]
    G = alg.gram
    # new basis u_p = sum_q P[q][p] g_q
    PT = linalg.transpose(P)
    G2 = linalg.mat_mul(PT, linalg.mat_mul(G, P))
    A2 = linalg.mat_mul(PT, linalg.mat_mul(A, P))
    alg2 = CliffordAlgebra(G2)
    lift2 = chevalley_lift(A2, alg2)
    # rewrite lift2 in the original generators
    out = alg.zero()
    for mono, c in lift2.terms.items():
        term = alg.scalar(c)
        for g in mono:
            vec = alg.zero()
            for q in range(4):
                if P[q][g]:
                    vec = vec + alg.scalar(P[q][g]) * alg.gen(q)
            term = term * vec
        out = out + term
    assert out == chevalley_lift(A, alg)


def test_involutions_examples():
    alg = polarized_algebra(2)
    x1, y1, y2 = x(alg, 0), y(alg, 0), y(alg, 1)
    a = x1 * y1
    ea, at = involutions(a)
    assert ea == a  # even monomial
    b = x1 * y2
    eb, bt = involutions(b)
    assert bt == y2 * x1
    assert eb == b


def test_involutions_properties():
    rng = random.Random(20)
    alg = polarized_algebra(2)

    def rand_elem():
        terms = {}
        for _ in range(4):
            k = rng.randrange(0, 5)
            mono = tuple(sorted(rng.sample(range(4), k)))
            terms[mono] = F(rng.randrange(-3, 4))
        return CliffordElement(alg, terms)

    for _ in range(10):
        a, b = rand_elem(), rand_elem()
        assert eps_automorphism(eps_automorphism(a)) == a
        assert transpose_element(transpose_element(a)) == a
        assert transpose_element(a * b) == transpose_element(b) * transpose_element(a)
        assert eps_automorphism(a * b) == eps_automorphism(a) * eps_automorphism(b)
    for i in range(4):
        g = alg.gen(i)
        assert transpose_element(g) == alg.scalar(F(-1)) * g
        assert eps_automorphism(g) == alg.scalar(F(-1)) * g


def test_tau_a1():
    g = build_group("A1")
    alg = polarized_algebra(1)
    s = g.reflections[0]
    tau = tau_reflection(s, alg)
    # conjugation implements the reflection on V
    x1, y1 = x(alg, 0), y(alg, 0)
    tau_inv = tau_reflection(s, alg)  # s is an involution here
    assert tau * tau_inv == alg.one()
    assert tau * x1 * tau_inv == alg.scalar(F(-1)) * x1
    assert tau * y1 * tau_inv == alg.scalar(F(-1)) * y1


def test_pin_tau_identity_is_one():
    g = build_group("B2")
    alg = polarized_algebra(2)
    assert pin_tau(0, g) == alg.one()


@pytest.mark.parametrize("gid", CATALOGUE_IDS)
def test_pin_tau_of_a_generator_is_its_reflection_factor(gid):
    # pin_cover_holds reads tau_s from tau_reflection, the seed of the
    # pin_tau table, without building the table
    g = build_group(gid)
    alg = polarized_algebra(g.n)
    for s in g.generator_indices:
        want = tau_reflection(g.reflection_at(s), alg)
        assert pin_tau(s, g).terms == want.terms, s


@pytest.mark.parametrize("gid", ["B3", "G4_1_2"])
def test_pin_tau_matches_word_products(gid):
    # pin_tau forms tau_w as tau_parent tau_s; the product of the
    # reflection factors along the whole word is the reference
    g = build_group(gid)
    alg = polarized_algebra(g.n)
    for w, word in enumerate(g.words):
        want = alg.one()
        for gi in word:
            want = want * tau_reflection(
                g.reflection_at(g.generator_indices[gi]), alg)
        got = pin_tau(w, g)
        assert got.terms == want.terms, w
        assert ({m: type(c) for m, c in got.terms.items()}
                == {m: type(c) for m, c in want.terms.items()}), w


def test_pin_tau_homomorphism_small_groups():
    for gid in ["A1", "A2", "B2", "Z3", "Z4", "G3_1_2"]:
        g = build_group(gid)
        taus = [pin_tau(i, g) for i in range(g.order)]
        for i in range(g.order):
            for j in range(g.order):
                assert taus[i] * taus[j] == taus[g.mult(i, j)], (gid, i, j)


def test_pin_tau_homomorphism_b3_sampled():
    g = build_group("B3")
    rng = random.Random(21)
    taus = {}

    def tau(i):
        if i not in taus:
            taus[i] = pin_tau(i, g)
        return taus[i]

    for _ in range(40):
        i = rng.randrange(g.order)
        j = rng.randrange(g.order)
        assert tau(i) * tau(j) == tau(g.mult(i, j))


def test_pin_tau_conjugation_is_group_action_on_v():
    # tau_w u tau_w^-1 = w(u) for u in the V basis
    for gid in ["B2", "Z3", "G3_1_2", "I2_5"]:
        g = build_group(gid)
        n = g.n
        alg = polarized_algebra(n)
        for w in range(g.order):
            tau = pin_tau(w, g)
            tau_inv = pin_tau(g.inverse_index(w), g)
            assert tau * tau_inv == alg.one()
            mh = g.elements[w]
            mhs = g.h_star_matrix(w)
            for i in range(n):
                got = tau * alg.gen(2 * i + 1) * tau_inv  # y_i in h
                want = alg.zero()
                for k in range(n):
                    if mh[k][i]:
                        want = want + alg.scalar(mh[k][i]) * alg.gen(2 * k + 1)
                assert got == want, (gid, w, "h")
                got = tau * alg.gen(2 * i) * tau_inv  # x_i in h*
                want = alg.zero()
                for k in range(n):
                    if mhs[k][i]:
                        want = want + alg.scalar(mhs[k][i]) * alg.gen(2 * k)
                assert got == want, (gid, w, "h*")


def test_tau_transpose_and_eps():
    for gid in ["A2", "Z3", "G3_1_2"]:
        g = build_group(gid)
        alg = polarized_algebra(g.n)
        for r in g.reflections:
            tau = tau_reflection(r, alg)
            e, t = involutions(tau)
            assert e == tau  # even element
            inv_idx = g.inverse_index(r.element_index)
            tau_inv = pin_tau(inv_idx, g)
            assert t == alg.scalar(r.lam) * tau_inv  # tau^t = lambda tau_{s^-1}
            assert tau * tau_inv == alg.one()
            assert e * tau_inv == alg.one()  # det_V(s) = 1 realization


def test_spin_tau_equals_wedge_action():
    for gid in ["A2", "B2", "Z4"]:
        g = build_group(gid)
        n = g.n
        alg = polarized_algebra(n)
        for w in range(g.order):
            m = spin_action(pin_tau(w, g), alg)
            # assemble block diagonal of wedge powers in basis order
            blocks = [poly.wedge_matrix(g.elements[w], l) for l in range(n + 1)]
            dim = 2 ** n
            want = [[F(0)] * dim for _ in range(dim)]
            off = 0
            for b in blocks:
                for i in range(len(b)):
                    for j in range(len(b)):
                        want[off + i][off + j] = b[i][j]
                off += len(b)
            assert m == want, (gid, w)


def test_spin_tau_equals_wedge_action_b3_sampled():
    g = build_group("B3")
    alg = polarized_algebra(3)
    rng = random.Random(22)
    for w in rng.sample(range(g.order), 8):
        m = spin_action(pin_tau(w, g), alg)
        blocks = [poly.wedge_matrix(g.elements[w], l) for l in range(4)]
        off = 0
        for b in blocks:
            for i in range(len(b)):
                for j in range(len(b)):
                    assert m[off + i][off + j] == b[i][j]
            off += len(b)


def test_tau_reflection_scales_the_root_plane_by_lambda():
    # tau_s acts on the plane spanned by alpha_check and alpha by lambda
    # on alpha_check and lambda^-1 on alpha
    for gid in ["Z3", "A1"]:
        g = build_group(gid)
        alg = polarized_algebra(g.n)
        for r in g.reflections:
            tau = tau_reflection(r, alg)
            av = alg.zero()
            for i, cc in enumerate(r.alpha_check):
                if cc:
                    av = av + alg.scalar(cc) * alg.gen(2 * i + 1)
            al = alg.zero()
            for i, cc in enumerate(r.alpha):
                if cc:
                    al = al + alg.scalar(cc) * alg.gen(2 * i)
            tau_inv = pin_tau(g.inverse_index(r.element_index), g)
            assert tau * av * tau_inv == alg.scalar(r.lam) * av
            assert tau * al * tau_inv == alg.scalar(reciprocal(r.lam)) * al


def test_clifford_products_with_general_gram():
    # orthogonal 2-dim gram: g_i^2 = -1, anticommute
    G = [[F(1), F(0)], [F(0), F(1)]]
    alg = CliffordAlgebra(G)
    e1, e2 = alg.gen(0), alg.gen(1)
    assert e1 * e1 == alg.scalar(F(-1))
    assert e1 * e2 + e2 * e1 == alg.zero()
    prod = (e1 * e2) * (e1 * e2)
    assert prod == alg.scalar(F(-1))  # (e1e2)^2 = -e1^2 e2^2 = -1


def test_str_forms():
    alg = polarized_algebra(2)
    a = x(alg, 0) * y(alg, 1) + alg.scalar(F(3))
    s = str(a)
    assert "x1" in s and "y2" in s


def test_pin_tau_inverse():
    for gid in ("A1", "B2", "Z3", "G3_1_2"):
        g = build_group(gid)
        alg = polarized_algebra(g.n)
        one = alg.one()
        for w in range(g.order):
            tau = pin_tau(w, g)
            tinv = pin_tau_inverse_by_reversed_word(g, w)
            assert tau * tinv == one
            assert tinv * tau == one
