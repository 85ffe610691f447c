"""Acceptance gate: twelve end-to-end checks, one printed line each.

Run with plain pytest; the pass/fail lines bypass output capture so they
always appear.  Each check is exact; no floats anywhere.
"""
import random
import time
from fractions import Fraction

import pytest

from cherednik import linalg, poly
from cherednik.calogero_moser import (
    dirac_partition,
    omega_central_character,
    verify_cm_factorization,
)
from cherednik.clifford import pin_tau, polarized_algebra, spin_action
from cherednik.dirac import (
    casimir_scalar,
    delta_element,
    dirac_element,
    dirac_split,
    omega_tilde,
    verify_dirac_square,
    zeta,
)
from cherednik.groups import CATALOGUE_IDS, WRepresentation, build_group
from cherednik.modules import (
    DiracOperatorMatrix,
    baby_verma,
    cell_multiplicity,
    contravariant_form,
    dirac_cohomology,
    one_dimensional_quotient,
    standard_module,
    unitarity_report,
)
from cherednik.pbw import (
    cherednik_family,
    corrupted_family,
    gaha_family,
    pbw_check,
)

from oracles import (group_algebra_casimir, involutions,
                     isotypic_projector, w_cell_matrix)


_CAPSYS = None


@pytest.fixture(autouse=True)
def _route_past_capture(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _say(line):
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


def _report(num, desc, fn):
    try:
        fn()
    except BaseException:
        _say(f"criterion {num:2d}: FAIL - {desc}")
        raise
    _say(f"criterion {num:2d}: PASS - {desc}")


_SQUARE_GROUPS = ("A1", "A2", "B2", "Z3", "Z4", "I2_4")
_SQUARE_CS = (0, 1, Fraction(1, 2), Fraction(-2, 3))


def _square_cases():
    for gid in _SQUARE_GROUPS:
        g = build_group(gid)
        for t in (0, 1):
            for c in _SQUARE_CS:
                yield cherednik_family(g, t, c)
    b2 = build_group("B2")
    for t in (0, 1):
        yield cherednik_family(b2, t,
                               {"long": Fraction(1), "short": Fraction(1, 2)})


def test_criterion_01_dirac_square():
    def body():
        start = time.perf_counter()
        for fam in _square_cases():
            assert verify_dirac_square(fam)["equality"], fam.params
        assert time.perf_counter() - start < 10
    _report(1, "D^2 identity across the catalogue sweep", body)


def test_criterion_02_split_and_invariance():
    def body():
        for fam in _square_cases():
            dx, dy = dirac_split(fam)
            assert not dx * dx
            assert not dy * dy
            d = dirac_element(fam)
            assert dx + dy == d
            for w in fam.group.generator_indices:
                dl = delta_element(fam, w)
                assert dl * d == d * dl
    _report(2, "D_x^2 = D_y^2 = 0 and diagonal invariance of D", body)


def test_criterion_03_pbw_checker():
    def body():
        for gid in CATALOGUE_IDS:
            g = build_group(gid)
            assert pbw_check(cherednik_family(g, 1, 1))["passed"]
        real = 0
        for gid in CATALOGUE_IDS:
            g = build_group(gid)
            try:
                fam = gaha_family(g, 1)
            except ValueError:
                continue
            real += 1
            assert pbw_check(fam)["passed"]
        assert real >= 5
        seeds = (("A1", "nonskew", {0}), ("B2", "class", {1}),
                 ("B2", "radical", {2}))
        for gid, kind, conditions in seeds:
            rep = pbw_check(corrupted_family(build_group(gid), kind=kind))
            assert not rep["passed"]
            assert {f["condition"] for f in rep["failures"]} == conditions
            assert all("w" in f for f in rep["failures"])
    _report(3, "PBW presets pass; corrupted seeds fail with witnesses", body)


def test_criterion_04_pin_cover():
    def body():
        for gid in CATALOGUE_IDS:
            g = build_group(gid)
            if g.order > 48:
                continue
            n = g.n
            alg = polarized_algebra(n)
            taus = [pin_tau(w, g) for w in range(g.order)]
            for u in range(g.order):
                for v in range(g.order):
                    assert taus[u] * taus[v] == taus[g.mult(u, v)]
            for r in g.reflections:
                tau = taus[r.element_index]
                tau_inv = taus[g.inverse_index(r.element_index)]
                assert tau * tau_inv == alg.one()
                e, t = involutions(tau)
                assert e == tau
                assert t == alg.scalar(r.lam) * tau_inv
                mh = g.elements[r.element_index]
                mhs = g.h_star_matrix(r.element_index)
                for i in range(n):
                    got = tau * alg.gen(2 * i + 1) * tau_inv
                    want = alg.zero()
                    for k in range(n):
                        if mh[k][i]:
                            want = want + alg.scalar(mh[k][i]) * \
                                alg.gen(2 * k + 1)
                    assert got == want
                    got = tau * alg.gen(2 * i) * tau_inv
                    want = alg.zero()
                    for k in range(n):
                        if mhs[k][i]:
                            want = want + alg.scalar(mhs[k][i]) * \
                                alg.gen(2 * k)
                    assert got == want
            for w in range(g.order):
                m = spin_action(taus[w], alg)
                off = 0
                for l in range(n + 1):
                    b = poly.wedge_matrix(g.elements[w], l)
                    for i in range(len(b)):
                        for j in range(len(b)):
                            assert m[off + i][off + j] == b[i][j]
                    off += len(b)
    _report(4, "pin lift: homomorphism, involution laws, wedge action", body)


def test_criterion_05_cell_scalar_law():
    def body():
        g = build_group("B2")
        n = g.n
        for c in (1, Fraction(1, 3)):
            for sigma in g.irrep_labels:
                module = standard_module(g, sigma, c, K=5)
                d = DiracOperatorMatrix(module)
                n_sigma = casimir_scalar(sigma, c, g)
                for k in range(5):
                    for l in range(n + 1):
                        d2 = d.d_squared_on_cell(k, l)
                        for mu in g.irrep_labels:
                            nu = g.tensor_with_eps(mu)
                            if cell_multiplicity(module, k, l, nu) == 0:
                                continue
                            proj = isotypic_projector(WRepresentation(
                                d.cell_dim(k, l),
                                [w_cell_matrix(d, w, k, l)
                                 for w in range(g.order)]),
                                nu, g)
                            sc = -2 * (k + n - l) + n_sigma \
                                - casimir_scalar(mu, c, g)
                            assert linalg.mat_mul(d2, proj) == \
                                linalg.mat_scale(sc, proj)
    _report(5, "D^2 cell scalars -2(k+n-l)+N(sigma)-N(mu) exactly", body)


def test_criterion_06_verma_multiplicity_one():
    def body():
        for gid in ("A1", "A2", "B2"):
            g = build_group(gid)
            for sigma in g.irrep_labels:
                target = g.tensor_with_eps(sigma)
                for c in (Fraction(1, 3), Fraction(2, 5), Fraction(7, 11)):
                    rep = dirac_cohomology(standard_module(g, sigma, c, K=2))
                    mult = {e["irrep"]: e["multiplicity"]
                            for e in rep["H_D"]}
                    assert mult.get(target) == 1
    _report(6, "multiplicity of sigma(x)eps in H_D(M(sigma)) is 1", body)


def test_criterion_07_b2_family():
    def body():
        start = time.perf_counter()
        g = build_group("B2")
        rep = dirac_cohomology(one_dimensional_quotient(g, "11x0", 1))
        got = {(e["irrep"], e["multiplicity"]) for e in rep["H_D"]}
        assert got == {("11x0", 1), ("1x1", 1), ("0x2", 1)}
        p = dirac_partition(g, 1)
        assert next(b for b in p.blocks if "11x0" in b) == \
            ["11x0", "0x2", "1x1"]
        assert time.perf_counter() - start < 5
    _report(7, "B2 one-dimensional quotient kernel and merged block", body)


def test_criterion_08_central_characters():
    def body():
        for gid in ("A1", "A2", "B2"):
            g = build_group(gid)
            eps_inv = {g.tensor_with_eps(lab): lab
                       for lab in g.irrep_labels}
            for c in (1, Fraction(1, 2)):
                for sigma in g.irrep_labels:
                    n_sigma = casimir_scalar(sigma, c, g)
                    rep = dirac_cohomology(baby_verma(g, sigma, c))
                    for entry in rep["H_D"]:
                        mu = eps_inv[entry["irrep"]]
                        assert casimir_scalar(mu, c, g) == n_sigma
                    assert omega_central_character(sigma, c, g) == -n_sigma
    _report(8, "t=0 kernel types and Omega match -N_c(sigma)", body)


def test_criterion_09_invariant_factorization():
    def body():
        for gid, want in (("A1", [("h", 2), ("h_star", 2)]),
                          ("A2", [("h", 2), ("h", 3),
                                  ("h_star", 2), ("h_star", 3)])):
            out = verify_cm_factorization(build_group(gid), 1, 3)
            got = sorted((e["side"], e["degree"]) for e in out["invariants"])
            assert got == want
            assert all(e["verified"] for e in out["invariants"])
    _report(9, "fundamental invariants factor through d; sum is direct",
            body)


def test_criterion_10_zeta_multiplicative():
    def body():
        fam = cherednik_family(build_group("A1"), 0, 1)
        z = omega_tilde(fam)
        s1 = zeta(z, fam)
        target = group_algebra_casimir(fam)
        assert s1 == target
        s2 = zeta(z * z, fam)
        assert s2 == target * target
    _report(10, "zeta sends the lifted Casimir and its square correctly",
            body)


def test_criterion_11_unitarity_sweep():
    def body():
        for gid in ("A1", "B2"):
            g = build_group(gid)
            for sigma in g.irrep_labels:
                for numer in range(1, 9):
                    c = Fraction(numer, 4)
                    rep = unitarity_report(g, sigma, c, K=5)
                    if rep["all_psd"]:
                        assert not any(v["module"] == "standard"
                                       for v in rep["violations"])
        a1 = build_group("A1")
        for numer in range(1, 9):
            c = Fraction(numer, 4)
            grams = contravariant_form(standard_module(a1, "triv", c, K=1))
            assert grams[1] == [[1 - c]]
    _report(11, "Gram positivity forbids positive D^2 scalars; A1 pivot",
            body)


def _weyl_model_apply(elem, f, group):
    """Act by a PBW element in the polynomial model of H_{1,0}: x
    multiplies, w substitutes, y differentiates."""
    n = group.n
    out = {}
    for (a, w, b), coeff in elem.terms.items():
        cur = dict(f)
        for i in range(n):
            for _ in range(b[i]):
                cur = poly.partial(cur, i)
        if not cur:
            continue
        cur = poly.substitute_linear(cur, group.h_star_matrix(w))
        cur = poly.p_mul(cur, {tuple(a): Fraction(1)})
        out = poly.p_add(out, poly.p_scale(coeff, cur))
    return out


def test_criterion_12_weyl_model_agreement():
    def body():
        for gid, full_len, extra in (("A1", 6, 0), ("B2", 3, 400)):
            g = build_group(gid)
            fam = cherednik_family(g, 1, 0)
            n = g.n
            gens = [fam.x_gen(i) for i in range(n)] \
                + [fam.y_gen(i) for i in range(n)] \
                + [fam.group_element(w) for w in g.generator_indices]
            inputs = [{m: Fraction(1)} for d in range(5)
                      for m in poly.monomials(n, d)]

            words = [[]]
            frontier = [[]]
            for _ in range(full_len):
                frontier = [word + [i] for word in frontier
                            for i in range(len(gens))]
                words.extend(frontier)
            rng = random.Random(5)
            for _ in range(extra):
                words.append([rng.randrange(len(gens))
                              for _ in range(rng.randint(4, 6))])

            for word in words:
                elem = fam.one()
                for i in word:
                    elem = elem * gens[i]
                for f in inputs:
                    direct = dict(f)
                    for i in reversed(word):
                        direct = _weyl_model_apply(gens[i], direct, g)
                    assert _weyl_model_apply(elem, f, g) == direct
    _report(12, "PBW straightening matches the polynomial operator model",
            body)
