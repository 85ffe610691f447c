import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cherednik import dirac, linalg, pbw
from cherednik.calogero_moser import verify_cm_factorization
from cherednik.clifford import pin_tau_inverse
from cherednik.groups import CATALOGUE_IDS, build_group
from cherednik.pbw import (
    FormFamily,
    casimir_h,
    cherednik_family,
    gaha_family,
    invariant_form,
    positive_system,
)
from cherednik.dirac import (
    GroupAlgebraClassFunction,
    TensorElement,
    casimir_scalar,
    compute_e_w,
    decompose_kernel_element,
    delta_element,
    derivation_d,
    dirac_element,
    dirac_split,
    group_algebra_casimir,
    omega_tilde,
    tensor,
    verify_dirac_square,
    zeta,
)
from cherednik.scalars import CapExceeded, reciprocal
from cherednik.scalars import zeta as zeta_root

from oracles import dirac_element_in_basis, tensor_element_data


def c_fam(gid, t, c):
    return cherednik_family(build_group(gid), t, c)


# --------------------------------------------------------------------------
# the element D


def test_dirac_element_rank_one():
    fam = c_fam("A1", 1, 1)
    alg = fam.clifford
    want = (tensor(fam.x_gen(0), alg.gen(1))
            + tensor(fam.y_gen(0), alg.gen(0)))
    assert dirac_element(fam) == want


def test_dirac_split_squares_vanish():
    for gid in ("A1", "B2", "Z3"):
        fam = c_fam(gid, 1, Fraction(1, 2))
        dx, dy = dirac_split(fam)
        assert not dx * dx
        assert not dy * dy
        assert dx + dy == dirac_element(fam)


def test_dirac_basis_independence():
    rng = random.Random(71)
    for gid in ("A2", "Z4"):
        fam = c_fam(gid, 1, 1)
        d0 = dirac_element(fam)
        nv = fam.nv
        while True:
            p = [[Fraction(rng.randint(-2, 2)) for _ in range(nv)]
                 for _ in range(nv)]
            if linalg.rank([row[:] for row in p]) == nv:
                break
        assert dirac_element_in_basis(fam, p) == d0


def test_dirac_basis_independence_orthogonal():
    fam = gaha_family(build_group("B2"), 1)
    d0 = dirac_element(fam)
    p = [[Fraction(1), Fraction(2)], [Fraction(1), Fraction(-1)]]
    assert dirac_element_in_basis(fam, p) == d0


def test_family_clifford_algebra_and_gram_inverse_are_built_once(
        monkeypatch):
    fam = gaha_family(build_group("B2"), 1)
    alg = fam.clifford
    assert dirac_element(fam).algebra is alg
    inverted = []
    inverse = linalg.inverse

    def counting(m):
        inverted.append(m)
        return inverse(m)

    monkeypatch.setattr(linalg, "inverse", counting)
    d = dirac_element(fam)
    derivation_d(tensor(fam.x_gen(0), alg.one()))
    for w in fam.support():
        if w:
            compute_e_w(fam, w)
    casimir_h(fam)
    assert fam.clifford is alg and d.algebra is alg
    assert inverted == []


def test_dirac_commutes_with_diagonal_group():
    for gid in ("A1", "B2", "Z3", "G3_1_2"):
        fam = c_fam(gid, 1, 1)
        d = dirac_element(fam)
        for gi in fam.group.generator_indices:
            dl = delta_element(fam, gi)
            assert dl * d == d * dl


def delta_inverse(fam, w):
    g = fam.group
    return tensor(fam.group_element(g.inverse_index(w)),
                  pin_tau_inverse(w, g))


def test_delta_inverse():
    fam = c_fam("B2", 1, 1)
    alg = fam.clifford
    one = tensor(fam.one(), alg.one())
    for w in range(fam.group.order):
        assert delta_element(fam, w) * delta_inverse(fam, w) == one


# --------------------------------------------------------------------------
# e_w


def test_e_w_vanishes_for_real_reflections():
    for gid in ("A1", "A2", "B2"):
        fam = c_fam(gid, 1, Fraction(3, 5))
        for r in fam.group.reflections:
            assert compute_e_w(fam, r.element_index) == 0


def test_e_w_cyclic_closed_form():
    # e_s = c (1 + lam) / (1 - lam) with lam the h* eigenvalue of s
    fam = c_fam("Z3", 1, 1)
    for r in fam.group.reflections:
        lam = r.lam.inverse()
        e = compute_e_w(fam, r.element_index)
        assert e == (1 + lam) * (1 - lam).inverse()


def test_e_w_scales_with_c():
    base = c_fam("Z4", 1, 1)
    scaled = c_fam("Z4", 1, Fraction(-2, 3))
    for r in base.group.reflections:
        i = r.element_index
        assert compute_e_w(scaled, i) == Fraction(-2, 3) * compute_e_w(base, i)


def test_e_w_unsupported_is_zero():
    fam = c_fam("A1", 1, 0)
    assert compute_e_w(fam, 1) == 0


def test_e_w_identity_is_degenerate():
    # the identity fixes every vector, so no witness exists
    fam = c_fam("A1", 1, 1)
    with pytest.raises(ValueError, match="every basis vector is fixed by w=0"):
        compute_e_w(fam, 0)


def test_e_w_gaha_matches_dual_form_pair_sums():
    # -e_w = sum over ordered pairs of distinct positive roots with
    # s_al s_be = w of k_al k_be <al, be>_{B*}
    for gid, k in (("A2", 1), ("B2", {"long": 1, "short": Fraction(1, 2)})):
        g = build_group(gid)
        k_map = k if isinstance(k, dict) else {nm: k for nm
                                               in g.reflection_class_names()}
        fam = gaha_family(g, k)
        bstar = linalg.inverse(invariant_form(g))
        pair = {}
        ps = positive_system(g)
        for a1, i1 in ps:
            for a2, i2 in ps:
                if i1 == i2:
                    continue
                kk = (k_map[g.reflection_at(i1).class_name]
                      * k_map[g.reflection_at(i2).class_name])
                val = sum(a1[i] * sum(bstar[i][j] * a2[j]
                                      for j in range(g.n))
                          for i in range(g.n))
                w = g.mult(i1, i2)
                pair[w] = pair.get(w, Fraction(0)) + kk * val
        assert fam.support()
        for w in fam.support():
            assert compute_e_w(fam, w) == -pair[w]


# --------------------------------------------------------------------------
# the square identity


def test_square_identity_across_catalogue():
    for gid in CATALOGUE_IDS:
        g = build_group(gid)
        for t in (0, 1):
            for c in (0, 1, Fraction(1, 2), Fraction(-2, 3)):
                rep = verify_dirac_square(cherednik_family(g, t, c))
                assert rep["equality"], (gid, t, c)
        if all(r.lam == -1 for r in g.reflections):
            for k in (1, Fraction(1, 2)):
                rep = verify_dirac_square(gaha_family(g, k))
                assert rep["equality"], (gid, "gaha", k)


def test_square_identity_zero_forms():
    # with a = 0 the square is -h (x) 1 and both Casimir blocks vanish
    fam = c_fam("B2", 0, 0)
    rep = verify_dirac_square(fam)
    assert rep["equality"]
    assert rep["omega_W"] == []
    assert rep["kappa1"] == []
    d = dirac_element(fam)
    alg = fam.clifford
    assert d * d == tensor((-1) * casimir_h(fam), alg.one())


def test_square_report_shape_and_stability():
    rep = verify_dirac_square(c_fam("B2", 0, 1))
    assert set(rep) == {"group", "preset", "t", "c", "equality",
                        "omega_H", "omega_W", "kappa1"}
    assert rep["t"] == "0/1"
    assert rep["kappa1"] == []
    assert rep["omega_W"]
    blob = json.dumps(rep, sort_keys=True)
    rep2 = verify_dirac_square(c_fam("B2", 0, 1))
    assert json.dumps(rep2, sort_keys=True) == blob


def test_square_report_gaha_parameters():
    rep = verify_dirac_square(gaha_family(build_group("A2"), 1))
    assert rep["t"] is None
    assert rep["c"] == {"s": "1/1"}
    assert rep["equality"]


# --------------------------------------------------------------------------
# Casimir scalars and class functions


def test_casimir_scalar_rank_one():
    g = build_group("A1")
    assert casimir_scalar("triv", Fraction(5, 7), g) == Fraction(5, 7)
    assert casimir_scalar("sgn", Fraction(5, 7), g) == Fraction(-5, 7)


def test_casimir_scalar_b2():
    g = build_group("B2")
    assert casimir_scalar("2x0", 1, g) == 4
    for label in ("11x0", "1x1", "0x2"):
        assert casimir_scalar(label, 1, g) == 0
    assert casimir_scalar("0x11", 1, g) == -4


def test_casimir_scalar_unknown_label():
    g = build_group("B2")
    with pytest.raises(ValueError, match="unknown irrep label 'nope' for B2"):
        casimir_scalar("nope", 1, g)


def test_casimir_scalar_class_parameters():
    g = build_group("B2")
    c = {"long": Fraction(1, 2), "short": Fraction(1, 3)}
    # trivial representation sees the plain sum of the coefficients
    assert casimir_scalar("2x0", c, g) == 2 * Fraction(1, 2) + 2 * Fraction(1, 3)


def test_casimir_scalar_matches_class_function_action():
    for gid, c in (("B2", 1), ("Z3", Fraction(1, 2)), ("G3_1_2", 1)):
        fam = c_fam(gid, 1, c)
        g = fam.group
        om = group_algebra_casimir(fam)
        for label in g.irrep_labels:
            # a central element sum_C f(C) C acts on sigma by
            # sum_C f(C) |C| chi_sigma(C) / dim sigma
            chi = g.character(label)
            total = sum(om.terms.get(name, 0) * len(cl) * chi[ci]
                        for ci, (name, cl) in enumerate(
                            zip(g.class_names, g.conjugacy_classes)))
            assert total * reciprocal(chi[0]) == casimir_scalar(label, c, g)


def test_class_function_convolution():
    g = build_group("A1")
    e = GroupAlgebraClassFunction(g, {"e": Fraction(1)})
    s = GroupAlgebraClassFunction(g, {"s": Fraction(1)})
    assert s * s == e
    assert e * s == s
    mixed = GroupAlgebraClassFunction(g, {"e": 2, "s": Fraction(1, 2)})
    assert mixed * s == GroupAlgebraClassFunction(
        g, {"e": Fraction(1, 2), "s": 2})


def test_class_function_constancy_validation():
    g = build_group("B2")
    refl = [r.element_index for r in g.reflections]
    bad = {refl[0]: Fraction(1)}
    with pytest.raises(ValueError):
        GroupAlgebraClassFunction.from_element_map(g, bad)


def test_group_algebra_casimir_closed_form():
    # per-class coefficient is 2/(1 - lambda) with the h-side eigenvalue
    fam = c_fam("Z3", 1, 1)
    om = group_algebra_casimir(fam)
    for r in fam.group.reflections:
        want = 2 * (1 - r.lam).inverse()
        assert om.coefficients[r.class_name] == want


def test_decompose_lifted_casimir_cyclotomic():
    # the solver output on a complex group pins the eigenvalue convention
    for t in (0, 1):
        fam = c_fam("Z3", t, 1)
        s, b = decompose_kernel_element(omega_tilde(fam), fam, degree_cap=2)
        assert s == group_algebra_casimir(fam)


def test_group_algebra_casimir_needs_cherednik():
    fam = gaha_family(build_group("A2"), 1)
    with pytest.raises(ValueError):
        group_algebra_casimir(fam)


# --------------------------------------------------------------------------
# the derivation d


def random_tensor(fam, alg, rng, nterms=3, maxdeg=2):
    n = fam.group.n
    terms = {}
    for _ in range(nterms):
        xa = tuple(rng.randint(0, 1) for _ in range(n))
        yb = tuple(rng.randint(0, 1) for _ in range(n))
        w = rng.randrange(fam.group.order)
        mono = tuple(sorted(rng.sample(range(2 * n),
                                       rng.randint(0, min(2, 2 * n)))))
        terms[((xa, w, yb), mono)] = Fraction(rng.randint(1, 4),
                                              rng.randint(1, 3))
    return TensorElement(fam, alg, terms)


def test_derivation_product_rule():
    rng = random.Random(9)
    for gid in ("A1", "B2"):
        fam = c_fam(gid, 1, Fraction(1, 2))
        alg = fam.clifford
        for _ in range(4):
            a = random_tensor(fam, alg, rng)
            b = random_tensor(fam, alg, rng)
            assert derivation_d(a * b) == (
                derivation_d(a) * b + a.eps() * derivation_d(b))


def test_derivation_kills_diagonal_group():
    for gid in ("A1", "B2", "Z3"):
        fam = c_fam(gid, 1, 1)
        for w in range(fam.group.order):
            assert not derivation_d(delta_element(fam, w))


def test_derivation_kills_lifted_casimir():
    for gid, t, c in (("A1", 1, Fraction(1, 2)), ("B2", 1, 1),
                      ("Z3", 0, 1)):
        fam = c_fam(gid, t, c)
        assert not derivation_d(omega_tilde(fam))


def test_derivation_of_unit_is_zero():
    fam = c_fam("A1", 1, 1)
    alg = fam.clifford
    assert not derivation_d(tensor(fam.one(), alg.one()))


def test_derivation_degree_bound():
    # D has filtration degree 2, so d shifts degree by at most 2
    rng = random.Random(23)
    fam = c_fam("B2", 1, Fraction(1, 2))
    alg = fam.clifford
    seen = False
    for _ in range(6):
        a = random_tensor(fam, alg, rng)
        da = derivation_d(a)
        if da:
            seen = True
            assert da.degree() <= a.degree() + 2
    assert seen


def test_d_squared_is_commutator_with_square():
    rng = random.Random(5)
    fam = c_fam("A1", 1, Fraction(1, 2))
    alg = fam.clifford
    d = dirac_element(fam)
    d2 = d * d
    for _ in range(5):
        a = random_tensor(fam, alg, rng)
        even = TensorElement(fam, alg, {k: c for k, c in a.terms.items()
                                        if len(k[1]) % 2 == 0})
        assert derivation_d(derivation_d(even)) == (
            d2 * even - even * d2)
    # on the commutant of the lifted Casimir, d squares to zero
    omt = omega_tilde(fam)
    assert not derivation_d(derivation_d(omt))


# --------------------------------------------------------------------------
# kernel decomposition and zeta


def test_decompose_diagonal_group_sum():
    fam = c_fam("A1", 0, 1)
    z = None
    for w in range(fam.group.order):
        dl = delta_element(fam, w)
        z = dl if z is None else z + dl
    s, b = decompose_kernel_element(z, fam)
    assert s == GroupAlgebraClassFunction(fam.group, {"e": 1, "s": 1})
    assert not b


def test_decompose_lifted_casimir():
    for t, c in ((0, 1), (1, Fraction(1, 2))):
        fam = c_fam("A1", t, c)
        s, b = decompose_kernel_element(omega_tilde(fam), fam)
        assert s == group_algebra_casimir(fam)
        rec = derivation_d(b)
        for w in range(fam.group.order):
            cw = s.coefficient(w)
            if cw:
                rec = rec + cw * delta_element(fam, w)
        assert rec == omega_tilde(fam)


def test_decompose_symmetrized_quartic():
    fam = c_fam("A1", 0, 1)
    alg = fam.clifford
    x, y = fam.x_gen(0), fam.y_gen(0)
    z = tensor(x * x * y * y + y * y * x * x, alg.one())
    s, b = decompose_kernel_element(z, fam)
    assert not s.coefficients
    assert derivation_d(b) == z


def test_zeta_multiplicative_on_casimir_powers():
    fam = c_fam("A1", 0, 1)
    omt = omega_tilde(fam)
    s1 = zeta(omt, fam)
    s2 = zeta(omt * omt, fam)
    assert s2 == s1 * s1
    assert s1 == group_algebra_casimir(fam)


def test_decompose_rejects_non_kernel():
    fam = c_fam("A1", 0, 1)
    alg = fam.clifford
    z = tensor(fam.x_gen(0) * fam.y_gen(0), alg.one())
    with pytest.raises(ValueError, match=r"d\(z\) != 0"):
        decompose_kernel_element(z, fam)


def test_decompose_too_small_search_raises_no_decomposition():
    # the degree check refuses caps below deg z, so keeping only the
    # candidate keys of degree <= 1 stands in for a too-small cap: the
    # witness of x^2 (x) 1 has degree 2
    fam = c_fam("A1", 0, 1)
    alg = fam.clifford
    z = tensor(fam.x_gen(0) * fam.x_gen(0), alg.one())
    decompose_kernel_element(z, fam, degree_cap=2)
    with pytest.raises(CapExceeded, match="raise degree_cap") as err:
        decompose_kernel_element(
            z, fam, degree_cap=2,
            candidate_filter=lambda key: sum(key[0][0]) + sum(key[0][2])
            + len(key[1]) <= 1)
    assert (err.value.bound, err.value.minimal) == ("degree_cap", None)


def test_decompose_rejects_odd_parity():
    fam = c_fam("A1", 0, 1)
    alg = fam.clifford
    z = tensor(fam.x_gen(0), alg.gen(0))
    with pytest.raises(ValueError):
        decompose_kernel_element(z, fam)


def test_decompose_rejects_excess_degree():
    fam = c_fam("A1", 0, 1)
    alg = fam.clifford
    x = fam.x_gen(0)
    z = tensor(x * x * x * x, alg.one())
    with pytest.raises(ValueError):
        decompose_kernel_element(z, fam, degree_cap=2)


def test_decompose_rejects_non_invariant():
    fam = c_fam("A2", 0, 1)
    alg = fam.clifford
    z = tensor(fam.x_gen(0) * fam.x_gen(0), alg.one())
    with pytest.raises(ValueError, match="invariant"):
        decompose_kernel_element(z, fam)


def test_decompose_requires_commuting_with_casimir_at_nonzero_t():
    fam = c_fam("A1", 1, 1)
    alg = fam.clifford
    z = tensor(fam.x_gen(0) * fam.x_gen(0), alg.one())
    with pytest.raises(ValueError, match="commute"):
        decompose_kernel_element(z, fam)


def test_decompose_rejects_non_direct_sum(monkeypatch):
    # a derivation image containing Delta(s) makes the split ambiguous
    fam = c_fam("A1", 0, 1)
    s = fam.group.order - 1
    by_keys = dirac._d_by_keys
    calls = []

    def leaky(a, d, cache):
        calls.append(a)
        # the first call is the first search candidate
        if len(calls) == 1:
            return delta_element(fam, s)
        return by_keys(a, d, cache)

    monkeypatch.setattr(dirac, "_d_by_keys", leaky)
    with pytest.raises(ValueError, match="not be unique"):
        decompose_kernel_element(omega_tilde(fam), fam)
    assert len(calls) > 1


@pytest.mark.parametrize("gid,t", [("A2", 0), ("I2_3", 0), ("A1", 1)])
def test_factorwise_search_matches_products(gid, t):
    # every raw candidate key at degree_cap = 2: the factor-wise average
    # is the |W|-sum of full products, and d applied key by key is
    # derivation_d
    fam = c_fam(gid, t, 1)
    g = fam.group
    alg = fam.clifford
    deltas = [(delta_element(fam, w), delta_inverse(fam, w))
              for w in range(g.order)]
    average = dirac._diagonal_averager(fam)
    d, cache = dirac_element(fam), {}
    nonzero = 0
    for key in dirac._candidate_keys(g, 3):
        e = TensorElement(fam, alg, {key: Fraction(1)})
        want = None
        for dw, dwi in deltas:
            term = dw * e * dwi
            want = term if want is None else want + term
        got = average(key)
        assert got == want, key
        assert dirac._d_by_keys(e, d, cache) == derivation_d(e), key
        if got:
            nonzero += 1
            assert dirac._d_by_keys(got, d, cache) == derivation_d(got)
    assert nonzero


def test_decompose_column_limit(monkeypatch):
    fam = c_fam("A1", 0, 1)
    monkeypatch.setattr(dirac, "COLUMN_LIMIT", 3)
    with pytest.raises(CapExceeded,
                       match="candidate terms exceed the configured limit 3"
                       ) as err:
        decompose_kernel_element(omega_tilde(fam), fam)
    assert err.value.bound == "column_limit"
    assert err.value.minimal > 3


# --------------------------------------------------------------------------
# tensor element basics


def test_tensor_element_arithmetic():
    fam = c_fam("A1", 1, 1)
    alg = fam.clifford
    a = tensor(fam.x_gen(0), alg.gen(1))
    b = tensor(fam.y_gen(0), alg.gen(0))
    assert a.family is fam and a.algebra is alg
    assert a + b - a == b
    assert -(a - a) == a - a
    assert 2 * a == a + a
    assert a * Fraction(1, 2) + a * Fraction(1, 2) == a
    assert (a + b).degree() == 2
    assert TensorElement(fam, alg, {}).degree() == -1


def test_tensor_element_serialization():
    fam = c_fam("A1", 1, 1)
    alg = fam.clifford
    d = dirac_element(fam)
    data = tensor_element_data(d)
    assert data == [
        {"x": [0], "w": 0, "y": [1], "clifford": ["x1"], "coeff": "1/1"},
        {"x": [1], "w": 0, "y": [0], "clifford": ["y1"], "coeff": "1/1"},
    ]
    assert "(x)" in str(d)


def test_tensor_product_mixed_families_rejected():
    f1 = c_fam("A1", 1, 1)
    f2 = c_fam("A1", 0, 1)
    a = tensor(f1.one(), f1.clifford.one())
    b = tensor(f2.one(), f2.clifford.one())
    with pytest.raises(ValueError):
        a + b


def test_tensor_products_reuse_the_family_unit_products(monkeypatch):
    # a fresh family cache, so the first pass starts from empty memos
    monkeypatch.setattr(pbw, "_CHEREDNIK_FAMILIES", {})
    inside, calls = [0], []
    tensor_mul, mul_terms = TensorElement.__mul__, FormFamily._mul_terms

    def traced_mul(self, other):
        inside[0] += 1
        try:
            return tensor_mul(self, other)
        finally:
            inside[0] -= 1

    def counting(self, uterms, vterms):
        if inside[0]:
            calls.append(self)
        return mul_terms(self, uterms, vterms)

    monkeypatch.setattr(TensorElement, "__mul__", traced_mul)
    monkeypatch.setattr(FormFamily, "_mul_terms", counting)
    g = build_group("A2")
    first = verify_cm_factorization(g, 1, 3)
    made = len(calls)
    assert made
    assert verify_cm_factorization(g, 1, 3) == first
    assert len(calls) == made


def test_tensor_product_terms_are_not_memo_aliases():
    fam = c_fam("A2", 0, 1)
    alg = fam.clifford
    a = tensor(fam.y_gen(0) * fam.group_element(1), alg.gen(1))
    b = tensor(fam.x_gen(0), alg.gen(0) * alg.gen(3))
    p = a * b
    want = dict(p.terms)
    assert len(want) > 1
    for k in p.terms:
        p.terms[k] = 7
    p.terms[((0, 0), 0, (0, 0)), ()] = 1
    assert (a * b).terms == want
    q = tensor(fam.x_gen(0), alg.one()) * tensor(fam.x_gen(1), alg.one())
    q.terms.clear()
    assert (tensor(fam.x_gen(0), alg.one())
            * tensor(fam.x_gen(1), alg.one())).terms
