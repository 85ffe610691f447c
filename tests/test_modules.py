import random
from fractions import Fraction
from functools import partial

import pytest

from cherednik import linalg, pbw, poly
from cherednik.clifford import spin_block
from cherednik.dirac import casimir_scalar
from cherednik.groups import (
    CATALOGUE_IDS,
    WRepresentation,
    build_group,
    class_character,
    inner_product,
)
from cherednik.modules import (
    DiracOperatorMatrix,
    GradedModule,
    _span_character,
    _sym_char,
    _wedge_char,
    _zero_scalar_cells,
    baby_verma,
    cell_multiplicity,
    contravariant_form,
    d_squared_scalar,
    dirac_cohomology,
    h_weight,
    one_dimensional_quotient,
    standard_module,
    unitarity_report,
)
from cherednik.pbw import (
    FormFamily,
    _c_map,
    casimir_omega,
    cherednik_family,
    cherednik_forms,
)
from cherednik.scalars import CapExceeded, NotRational, as_fraction, conjugate

from oracles import (isotypic_projector, quotient_exists_by_y_block,
                     tau_spin_by_element, w_cell_matrix)


def compose_blocks(module, outer, inner):
    out = {}
    for k2, m2 in inner.items():
        for k3, m1 in module.action_blocks(outer, k2).items():
            prod = linalg.mat_mul(m1, m2)
            if k3 in out:
                linalg.add_into(out[k3], prod)
            else:
                out[k3] = prod
    return {k: m for k, m in out.items() if any(any(row) for row in m)}


def cell_projector(d, mu, k, l):
    """Projector onto the mu-isotypic of the (k, l) cell, summed over W."""
    g = d.module.group
    rep = WRepresentation(d.cell_dim(k, l),
                          [w_cell_matrix(d, w, k, l) for w in range(g.order)])
    return isotypic_projector(rep, mu, g)


def nonzero_blocks(blocks):
    return {k: m for k, m in blocks.items() if any(any(row) for row in m)}


# --------------------------------------------------------------------------
# graded pieces


def test_standard_piece_dims():
    g = build_group("A1")
    m = standard_module(g, "triv", Fraction(1, 2), K=3)
    assert [m.piece_dim(k) for k in range(4)] == [1, 1, 1, 1]
    g2 = build_group("B2")
    m2 = standard_module(g2, "1x1", 1, K=1)
    assert m2.piece_dim(1) == 4
    # every degree-1 monomial is kept, each carrying V_sigma
    assert m2.selected(1) == [0, 1]


def test_unknown_irrep_label():
    g = build_group("A1")
    with pytest.raises(ValueError, match="unknown irrep label 'nope' for A1"):
        standard_module(g, "nope", 1, K=1)


def test_y_kills_degree_zero():
    g = build_group("B2")
    m = standard_module(g, "2x0", 1, K=2)
    assert m.y_block(0, 0) is None
    assert m.y_block(1, 0) is None


def test_action_is_homomorphism():
    g = build_group("A2")
    m = standard_module(g, "std", Fraction(1, 3), K=3)
    fam = m.family
    gens = ([fam.x_gen(i) for i in range(2)]
            + [fam.y_gen(i) for i in range(2)]
            + [fam.group_element(w) for w in (1, 3)])
    rng = random.Random(11)
    for _ in range(6):
        a, b = rng.choice(gens), rng.choice(gens)
        k = rng.randrange(2)
        direct = nonzero_blocks(m.action_blocks(a * b, k))
        chained = compose_blocks(m, a, m.action_blocks(b, k))
        assert direct == chained


def test_w_blocks_are_homomorphism():
    g = build_group("B2")
    m = standard_module(g, "1x1", 1, K=1)
    for u in range(g.order):
        for v in range(g.order):
            lhs = linalg.mat_mul(m.w_block(u, 1), m.w_block(v, 1))
            assert lhs == m.w_block(g.mult(u, v), 1)


def test_omega_eigenvalues_rank_one():
    # degree k eigenvalue 2k + 1 - c on the trivial lowest weight
    g = build_group("A1")
    c = Fraction(1, 3)
    m = standard_module(g, "triv", c, K=2)
    om = casimir_omega(m.family)
    values = []
    for k in range(3):
        blocks = m.action_blocks(om, k)
        assert list(blocks) == [k]
        values.append(blocks[k][0][0])
    assert values == [1 - c, 3 - c, 5 - c]


def test_omega_matches_weight_formula_cyclotomic():
    g = build_group("Z3")
    c = Fraction(1, 2)
    for sigma in g.irrep_labels:
        m = standard_module(g, sigma, c, K=2)
        om = casimir_omega(m.family)
        hw = h_weight(sigma, c, g)
        for k in range(3):
            mat = m.action_blocks(om, k)[k]
            expect = (2 * k + 1) - hw
            assert mat == [[expect]]


def test_h_weight_equals_casimir_on_real_groups():
    for gid in ("A1", "A2", "B2"):
        g = build_group(gid)
        for sigma in g.irrep_labels:
            assert h_weight(sigma, Fraction(2, 7), g) == \
                casimir_scalar(sigma, Fraction(2, 7), g)


@pytest.mark.parametrize("gid", CATALOGUE_IDS)
def test_coinvariant_dims(gid):
    """The ideal sections of the baby Verma module have Chevalley's
    Poincare polynomial prod_i (1 + q + ... + q^(d_i - 1)), whose degree is
    the number of reflections; nothing survives above it."""
    g = build_group(gid)
    poincare = [1]
    for d in g.invariant_degrees:
        # times 1 + q + ... + q^(d - 1)
        poincare = [sum(poincare[max(0, k - d + 1):k + 1])
                    for k in range(len(poincare) + d - 1)]
    m = baby_verma(g, g.irrep_labels[0], 1)
    assert m.K == len(g.reflections) == len(poincare) - 1
    assert [len(m.selected(k)) for k in range(m.K + 2)] == poincare + [0]
    assert m.degrees() == list(range(m.K + 1))
    assert sum(poincare) == g.order


def test_baby_invariant_generator_acts_by_zero():
    g = build_group("B2")
    m = baby_verma(g, "2x0", 1)
    fam = m.family
    zero = (0, 0)
    for f in g.invariant_generators:
        elem = fam.element({(mono, 0, zero): c for mono, c in f.items()})
        for k in m.degrees():
            assert nonzero_blocks(m.action_blocks(elem, k)) == {}


def test_simple_quotient_existence():
    g = build_group("B2")
    one_dimensional_quotient(g, "11x0", 1)
    one_dimensional_quotient(g, "0x2", 1)
    for sigma in ("2x0", "0x11", "1x1"):
        with pytest.raises(ValueError):
            one_dimensional_quotient(g, sigma, 1)


def test_simple_quotient_rule_matches_the_y_blocks():
    # the commutators read off the forms against the degree-1 y-blocks of
    # Delta(sigma) over the same t = 0 family, on every one-dimensional
    # sigma of the catalogue
    checked = 0
    for gid in CATALOGUE_IDS:
        g = build_group(gid)
        for c in (1, Fraction(1, 3), 0, -2):
            for sigma in g.irrep_labels:
                if g.dim_of(sigma) != 1:
                    continue
                try:
                    one_dimensional_quotient(g, sigma, c)
                    exists = True
                except ValueError:
                    exists = False
                assert exists == quotient_exists_by_y_block(g, sigma, c), \
                    (gid, c, sigma)
                checked += 1
    assert checked == 248


def test_simple_quotient_kills_generators():
    g = build_group("B2")
    m = one_dimensional_quotient(g, "11x0", 1)
    assert m.degrees() == [0]
    assert m.selected(0) == [0] and m.selected(1) == []
    fam = m.family
    for i in range(2):
        assert nonzero_blocks(m.action_blocks(fam.x_gen(i), 0)) == {}
        assert nonzero_blocks(m.action_blocks(fam.y_gen(i), 0)) == {}


@pytest.mark.parametrize("gid", ["A2", "B2", "I2_4", "G2_1_2"])
def test_shared_generator_blocks_match_fresh_modules(gid):
    """Blocks read from the straightening shared across sigma equal the
    uncached action of the generator elements on a module built over a
    fresh family, for the baby Verma modules and, where they exist, the
    one-dimensional quotients; sigma runs in reverse label order so the
    shared data is filled by a different irrep than the catalogue's
    first."""
    g = build_group(gid)
    c = Fraction(1, 3)
    degrees = g.invariant_degrees
    ideals = {
        "baby": (sum(d - 1 for d in degrees),
                 list(zip(g.invariant_generators, degrees))),
        "simple": (0, [({e: 1}, 1) for e in poly.monomials(g.n, 1)]),
    }
    simple = []
    for sigma in reversed(g.irrep_labels):
        modules = [baby_verma(g, sigma, c)]
        try:
            modules.append(one_dimensional_quotient(g, sigma, c))
            simple.append(sigma)
        except ValueError:
            pass
        for m in modules:
            fam = FormFamily(g, cherednik_forms(g, 0, _c_map(g, c)))
            ref = GradedModule(m.kind, fam, sigma, *ideals[m.kind])
            _check_blocks_match(g, m, ref, fam)
    # A2 has no one-dimensional quotient at c = 1/3; the others have two
    assert len(simple) == (0 if gid == "A2" else 2)


def _check_blocks_match(g, m, ref, fam):
    assert m.degrees() == ref.degrees()

    def want(elem, k, target):
        got = ref.action_blocks(elem, k).get(target)
        if got is None:
            return linalg.zeros(ref.piece_dim(target), ref.piece_dim(k))
        return got

    for k in m.degrees():
        for i in range(g.n):
            for blk, elem, target in (
                    (m.x_block(i, k), fam.x_gen(i), k + 1),
                    (m.y_block(i, k), fam.y_gen(i), k - 1)):
                if blk is None:
                    assert target not in m.degrees()
                else:
                    assert blk == want(elem, k, target)
        for w in range(g.order):
            assert m.w_block(w, k) == want(fam.group_element(w), k, k)


def test_two_ideals_under_one_kind_get_separate_data():
    g = build_group("B2")
    baby = baby_verma(g, "2x0", 1)
    free = GradedModule("baby", baby.family, "1x1", 4)
    # J = 0 keeps every monomial; the coinvariants stop after degree 4
    assert [len(free.selected(k)) for k in range(6)] == [1, 2, 3, 4, 5, 6]
    assert [len(baby.selected(k)) for k in range(6)] == [1, 2, 2, 2, 1, 0]
    assert free._sections is not baby._sections
    assert free._terms is not baby._terms
    same = GradedModule("mine", baby.family, "1x1", 4, baby.ideal)
    assert same._sections is baby._sections
    assert same._terms is baby._terms


def test_modules_share_one_family_per_t_and_c():
    g = build_group("B2")
    c = Fraction(1, 3)
    baby = baby_verma(g, "2x0", c)
    assert baby_verma(g, "1x1", c).family is baby.family
    assert one_dimensional_quotient(g, "11x0", c).family is baby.family
    assert standard_module(g, "2x0", c).family is not baby.family
    assert baby_verma(g, "2x0", 1).family is not baby.family
    mixed = {"long": Fraction(1, 3), "short": 1}
    assert baby_verma(g, "2x0", mixed).family is not baby.family
    assert baby_verma(g, "2x0", Fraction(1, 3)).family is baby.family


# --------------------------------------------------------------------------
# the Dirac operator on cells


def test_dirac_block_shapes():
    g = build_group("B2")
    m = standard_module(g, "2x0", 1, K=2)
    d = DiracOperatorMatrix(m)
    up = d.part(0, 0, 1)
    assert d.part(0, 0, -1) is None
    assert len(up) == m.piece_dim(1) * 2
    assert len(up[0]) == m.piece_dim(0) * 1
    assert d.part(1, 2, 1) is None
    assert d.cell_dim(1, 1) == m.piece_dim(1) * 2


def test_dirac_equivariance():
    g = build_group("B2")
    m = standard_module(g, "1x1", 1, K=2)
    d = DiracOperatorMatrix(m)
    for k in range(2):
        for l in range(3):
            up, down = d.part(k, l, 1), d.part(k, l, -1)
            for w in range(g.order):
                rho = w_cell_matrix(d, w, k, l)
                if up is not None:
                    rho2 = w_cell_matrix(d, w, k + 1, l + 1)
                    assert linalg.mat_mul(up, rho) == \
                        linalg.mat_mul(rho2, up)
                if down is not None and k >= 1 and l >= 1:
                    rho2 = w_cell_matrix(d, w, k - 1, l - 1)
                    assert linalg.mat_mul(down, rho) == \
                        linalg.mat_mul(rho2, down)


@pytest.mark.parametrize("gid", ["A2", "B2", "G3_1_2", "Z3"])
def test_w_cell_is_the_pin_lift_on_the_spin_side(gid):
    # w_cell reads wedge^l(w) on the spin side; the oracle reads the
    # spin matrix of tau_w itself
    g = build_group(gid)
    d = DiracOperatorMatrix(baby_verma(g, g.irrep_labels[-1], 1))
    for w in range(g.order):
        spin = tau_spin_by_element(g, w)
        for l in range(g.n + 1):
            a, b = d.module.w_block(w, 1), spin_block(spin, g.n, l, l)
            want = linalg.zeros(len(a) * len(b), len(a[0]) * len(b[0]))
            linalg.add_kron(want, a, b)
            got = w_cell_matrix(d, w, 1, l)
            assert got == want, (w, l)
            assert ([[type(x) for x in row] for row in got]
                    == [[type(x) for x in row] for row in want]), (w, l)


def test_w_cell_homomorphism():
    g = build_group("B2")
    m = standard_module(g, "2x0", 1, K=1)
    d = DiracOperatorMatrix(m)
    for u in range(g.order):
        for v in range(g.order):
            lhs = linalg.mat_mul(w_cell_matrix(d, u, 0, 1),
                                 w_cell_matrix(d, v, 0, 1))
            assert lhs == w_cell_matrix(d, g.mult(u, v), 0, 1)


def test_top_wedge_is_killed():
    g = build_group("A2")
    m = standard_module(g, "std", Fraction(1, 3), K=1)
    d = DiracOperatorMatrix(m)
    assert d.cell_dim(0, 2)
    # up would reach wedge^3(h) = 0 and down degree -1
    assert d.part(0, 2, 1) is None
    assert d.part(0, 2, -1) is None


@pytest.mark.parametrize("gid", ["A2", "B2", "Z3", "G2_1_2"])
def test_up_and_down_parts_square_to_zero(gid):
    """D_x^2 = D_y^2 = 0 on every cell, so D^2 preserves the cells, which
    the Dirac cohomology computation relies on."""
    g = build_group(gid)
    checked = 0
    for sigma in g.irrep_labels:
        for module in (baby_verma(g, sigma, Fraction(1, 3)),
                       standard_module(g, sigma, Fraction(1, 3), K=3)):
            d = DiracOperatorMatrix(module)
            for k, l in d.cells():
                for step in (1, -1):
                    first = d.part(k, l, step)
                    if first is None:
                        continue
                    second = d.part(k + step, l + step, step)
                    if second is None:
                        continue
                    prod = linalg.mat_mul(second, first)
                    assert not any(any(row) for row in prod), \
                        (sigma, module.kind, k, l, step)
                    checked += 1
    # in rank one wedge^2(h) = 0, so no two steps compose there
    assert checked or g.n == 1


def test_d_squared_cell_scalars_b2():
    g = build_group("B2")
    for sigma in ("2x0", "1x1"):
        m = standard_module(g, sigma, 1, K=3)
        d = DiracOperatorMatrix(m)
        for k in range(2):
            for l in range(3):
                d2 = d.d_squared_on_cell(k, l)
                for mu in g.irrep_labels:
                    if cell_multiplicity(m, k, l, mu) == 0:
                        continue
                    proj = cell_projector(d, mu, k, l)
                    sc = d_squared_scalar(g, sigma, mu, k, l, 1)
                    assert linalg.mat_mul(d2, proj) == \
                        linalg.mat_scale(sc, proj)


def test_d_squared_cell_scalars_cyclotomic():
    g = build_group("Z3")
    sigma = "chi1"
    m = standard_module(g, sigma, Fraction(1, 2), K=2)
    d = DiracOperatorMatrix(m)
    for k in range(2):
        for l in range(2):
            d2 = d.d_squared_on_cell(k, l)
            for mu in g.irrep_labels:
                if cell_multiplicity(m, k, l, mu) == 0:
                    continue
                proj = cell_projector(d, mu, k, l)
                sc = d_squared_scalar(g, sigma, mu, k, l, Fraction(1, 2))
                assert linalg.mat_mul(d2, proj) == linalg.mat_scale(sc, proj)


def test_d_squared_scalar_values():
    g = build_group("B2")
    assert d_squared_scalar(g, "2x0", "1x1", 0, 1, 1) == 2
    assert d_squared_scalar(g, "2x0", "0x11", 0, 2, 1) == 0


def test_cell_multiplicity_values():
    m = standard_module(build_group("A1"), "triv", 1, K=2)
    for k in range(3):
        for l in range(2):
            want = 1 if (k + l) % 2 else 0
            assert cell_multiplicity(m, k, l, "sgn") == want
    m2 = standard_module(build_group("B2"), "2x0", 1, K=0)
    assert cell_multiplicity(m2, 0, 1, "1x1") == 1
    with pytest.raises(ValueError, match="unknown irrep label 'nope' for B2"):
        cell_multiplicity(m2, 0, 0, "nope")


def test_cell_projectors_resolve_identity():
    g = build_group("B2")
    m = standard_module(g, "2x0", 1, K=1)
    d = DiracOperatorMatrix(m)
    total = None
    for mu in g.irrep_labels:
        p = cell_projector(d, mu, 0, 1)
        assert linalg.mat_mul(p, p) == p
        if total is None:
            total = p
        else:
            linalg.add_into(total, p)
    assert total == linalg.identity(d.cell_dim(0, 1))


# --------------------------------------------------------------------------
# Dirac cohomology


def test_cohomology_standard_rank_one():
    g = build_group("A1")
    rep = dirac_cohomology(standard_module(g, "triv", Fraction(1, 3), K=2))
    assert rep["H_D"] == [{"irrep": "sgn", "multiplicity": 1,
                           "cells": [(0, 1)]}]
    assert rep["kernel_dim"] == 1
    assert rep["overlap_dim"] == 0


def test_cohomology_eps_dual_multiplicity_one():
    for gid, sigma in (("A1", "sgn"), ("A2", "triv"), ("B2", "1x1")):
        g = build_group(gid)
        eps_dual = g.tensor_with_eps(sigma)
        for c in (Fraction(1, 3), Fraction(2, 5), Fraction(7, 11)):
            rep = dirac_cohomology(standard_module(g, sigma, c, K=2))
            assert rep["H_D"] == [{
                "irrep": eps_dual, "multiplicity": 1,
                "cells": [(0, g.n)]}]


def test_window_exceeds_cap():
    g = build_group("A1")
    with pytest.raises(CapExceeded, match="kernel window needs K >= 3") as err:
        dirac_cohomology(standard_module(g, "triv", 3, K=2))
    assert (err.value.bound, err.value.minimal) == ("K", 3)
    rep = dirac_cohomology(standard_module(g, "triv", 3, K=3))
    assert [0, 1] in rep["window"]
    got = {e["irrep"]: e["multiplicity"] for e in rep["H_D"]}
    assert got.get("sgn") == 1


def test_a_standard_module_builds_no_degree_past_its_window(monkeypatch):
    # S(h*) never ends, so a large K bounds nothing that is built: the
    # sections stop one degree above the zero-scalar window
    monkeypatch.setattr(pbw, "_CHEREDNIK_FAMILIES", {})
    g = build_group("B2")
    module = standard_module(g, "2x0", 1, K=10 ** 5)
    rep = dirac_cohomology(module)
    assert not module.finite
    assert len(module._sections) == max(k for k, _ in rep["window"]) + 2
    assert rep == dirac_cohomology(standard_module(g, "2x0", 1, K=4))


def test_cohomology_baby_rank_one():
    g = build_group("A1")
    rep = dirac_cohomology(baby_verma(g, "triv", 1))
    assert rep["H_D"] == [{"irrep": "sgn", "multiplicity": 2,
                           "cells": [(0, 1), (1, 0)]}]
    assert rep["kernel_dim"] == 2
    assert rep["image_dim"] == 2
    assert rep["overlap_dim"] == 0


def test_cohomology_baby_eps_content_b2():
    g = build_group("B2")
    for sigma in g.irrep_labels:
        rep = dirac_cohomology(baby_verma(g, sigma, 1))
        got = {e["irrep"]: e["multiplicity"] for e in rep["H_D"]}
        assert got == {g.tensor_with_eps(sigma): 4}


def test_baby_casimir_compatibility():
    # the type mu whose eps-twist appears in the kernel shares the
    # central character of the module
    for gid in ("A1", "A2", "B2", "Z3"):
        g = build_group(gid)
        eps_inv = {g.tensor_with_eps(lab): lab for lab in g.irrep_labels}
        for c in (1, Fraction(1, 2)):
            for sigma in g.irrep_labels:
                rep = dirac_cohomology(baby_verma(g, sigma, c))
                assert rep["H_D"]
                for entry in rep["H_D"]:
                    mu = eps_inv[entry["irrep"]]
                    assert casimir_scalar(mu, c, g) == \
                        casimir_scalar(sigma, c, g)


def test_cohomology_simple_quotient_b2():
    g = build_group("B2")
    rep = dirac_cohomology(one_dimensional_quotient(g, "11x0", 1))
    assert rep["H_D"] == [
        {"irrep": "11x0", "multiplicity": 1, "cells": [(0, 0)]},
        {"irrep": "0x2", "multiplicity": 1, "cells": [(0, 2)]},
        {"irrep": "1x1", "multiplicity": 1, "cells": [(0, 1)]},
    ]


@pytest.mark.parametrize("gid, make", [
    ("B2", lambda g: baby_verma(g, "2x0", 1)),
    ("A1", lambda g: standard_module(g, "triv", 1, K=2)),
], ids=["B2-baby", "A1-standard"])
def test_cohomology_eliminates_each_subspace_once(gid, make, monkeypatch):
    # Z once per cell, ker(D|Z) once, as a |Z| x |Z| matrix of sparse
    # rows in Z's own coordinates, and each cell's slice of the kernel
    # once; a vector lifted from Z's coordinates keeps the pivots Z's
    # basis carries, so every span read still has basis vector i at 1 on
    # pivot i and every other vector at 0 there
    module = make(build_group(gid))
    want = _zero_scalar_cells(module)
    assert want
    calls = {"nullspace": 0, "column_space_basis": 0}
    last = {}
    for name in calls:
        def counting(m, *width, original=getattr(linalg, name), name=name):
            calls[name] += 1
            last[name] = m, width
            return original(m, *width)
        monkeypatch.setattr(linalg, name, counting)

    def at_pivots(chi, basis, pivots, mats):
        for i, u in enumerate(basis):
            assert [u[p] for p in pivots] == \
                [int(i == j) for j in range(len(pivots))]
        _span_character(chi, basis, pivots, mats)

    monkeypatch.setattr("cherednik.modules._span_character", at_pivots)
    dirac_cohomology(module)
    assert calls == {"nullspace": len(want) + 1,
                     "column_space_basis": len(want)}
    dim_z = sum(want.values())
    rows, width = last["nullspace"]
    assert width == (dim_z,) and len(rows) == dim_z
    assert all(type(row) is dict and all(row.values())
               and set(row) <= set(range(dim_z)) for row in rows)


@pytest.mark.parametrize("extra, target", [((0, 0), (1, 1)),
                                           ((0, 1), (1, 2))])
def test_cohomology_refuses_an_image_outside_ker_d_squared(extra, target,
                                                           monkeypatch):
    # a cell taken into Z whole, with D^2 forced to 0 there: D sends it
    # into a window cell outside that cell's ker D^2, or onto a cell off
    # the window, and either way leaves Z
    module = baby_verma(build_group("B2"), "2x0", 1)
    want = _zero_scalar_cells(module)
    assert extra not in want and (target in want) == (target == (1, 1))
    dim = DiracOperatorMatrix(module).cell_dim(*extra)
    monkeypatch.setattr("cherednik.modules._zero_scalar_cells",
                        lambda m: {**want, extra: dim})
    d_squared = DiracOperatorMatrix.d_squared_on_cell

    def zero_on_extra(self, k, l):
        if (k, l) == extra:
            return linalg.zeros(dim, dim)
        return d_squared(self, k, l)

    monkeypatch.setattr(DiracOperatorMatrix, "d_squared_on_cell",
                        zero_on_extra)
    with pytest.raises(AssertionError, match=r"D leaves ker D\^2 at "
                       rf"\({target[0]}, {target[1]}\)$"):
        dirac_cohomology(module)


def _z_character_agrees(d, cell):
    """The D^2 kernel of a cell, and whether its character read at the free
    columns of the nullspace basis equals the one read at the pivots of its
    echelon form."""
    zero, free = linalg.nullspace(d.d_squared_on_cell(*cell),
                                  d.cell_dim(*cell))
    mats = [d.w_cell(cl[0], *cell)
            for cl in d.module.group.conjugacy_classes]
    fast, slow = [0] * len(mats), [0] * len(mats)
    _span_character(fast, zero, free, mats)
    _span_character(slow, *linalg.column_space_basis(zero), mats)
    return zero, fast == slow


def test_d_squared_kernels_follow_the_scalar_law_at_t_zero():
    # the fast paths (zero-scalar isotypics from characters, and the Z
    # character at the nullspace's free columns) against the slow ones
    # (the nullspace of the D^2 matrix, and its echelonised basis) on
    # every nonempty cell
    checked = 0
    for gid in CATALOGUE_IDS:
        g = build_group(gid)
        for c in ((1, Fraction(1, 3)) if g.order <= 12 else (1,)):
            for sigma in g.irrep_labels:
                modules = [baby_verma(g, sigma, c)]
                try:
                    modules.append(one_dimensional_quotient(g, sigma, c))
                except ValueError:
                    pass
                for m in modules:
                    want = _zero_scalar_cells(m)
                    d = DiracOperatorMatrix(m)
                    for cell in d.cells():
                        got, agrees = _z_character_agrees(d, cell)
                        assert len(got) == want.get(cell, 0), \
                            (gid, c, sigma, m.kind, cell)
                        assert agrees, (gid, c, sigma, m.kind, cell)
                        checked += 1
    assert checked == 2492


def test_z_characters_at_free_columns_on_standard_modules():
    for gid in ("A1", "B2"):
        g = build_group(gid)
        for c in (1, Fraction(1, 3)):
            for sigma in g.irrep_labels:
                d = DiracOperatorMatrix(standard_module(g, sigma, c, 4))
                for cell in d.cells():
                    assert _z_character_agrees(d, cell)[1], \
                        (gid, c, sigma, cell)


def test_sym_char_matches_the_matrix_trace():
    # the Molien recurrence against the trace of w on S^k(h*)
    for gid in CATALOGUE_IDS:
        g = build_group(gid)
        for k in range(7):
            slow = class_character(g, lambda w: poly.action_matrix_on_degree(
                g.h_star_matrix(w), g.n, k))
            assert _sym_char(g, k) == slow, (gid, k)


def test_multiplicities_match_the_per_element_sum():
    # the cached dual character rows against (1/|W|) sum_w chi(w) conj
    # chi_mu(w), element by element
    for gid in CATALOGUE_IDS:
        g = build_group(gid)
        for sigma in g.irrep_labels:
            m = standard_module(g, sigma, 1, K=3)
            for k in range(4):
                for l in range(g.n + 1):
                    chi = [a * b * x for a, b, x in zip(
                        g.character(sigma), _wedge_char(g, l), _sym_char(g, k))]
                    for mu in g.irrep_labels:
                        row = g.character(mu)
                        total = 0
                        for w in range(g.order):
                            ci = g.class_of(w)
                            total = total + chi[ci] * conjugate(row[ci])
                        slow = as_fraction(total) * Fraction(1, g.order)
                        assert inner_product(g, chi, mu) == slow
                        assert cell_multiplicity(m, k, l, mu) == slow


def _twist_shape(report, relabel):
    """A cohomology report with every H_D irrep relabelled, as {irrep:
    (multiplicity, cells)} beside the fields that do not name an irrep."""
    return ({relabel(e["irrep"]): (e["multiplicity"], e["cells"])
             for e in report["H_D"]},
            {key: report[key] for key in ("group", "kind", "kernel_dim",
                                          "image_dim", "overlap_dim",
                                          "window")})


def _report_or_cap(make):
    try:
        return dirac_cohomology(make())
    except CapExceeded as err:
        return ("CapExceeded", str(err), err.bound, err.minimal)


@pytest.mark.parametrize("gid", ["A1", "A2", "B2", "I2_5"])
def test_cohomology_sign_twist(gid):
    # on a real group, w -> eps(w) w identifies H_c with H_-c and pulls
    # Delta_-c(sigma (x) eps) back to Delta_c(sigma), keeping D and its
    # cells; W's action on the module side picks up eps, so H_D at -c is
    # the one at c tensored with eps, cell for cell, with the same
    # dimensions and window, and a refused window is refused alike
    g = build_group(gid)
    eps = g.tensor_with_eps
    for c in (1, Fraction(1, 2)):
        for sigma in g.irrep_labels:
            for make in (baby_verma, partial(standard_module, K=4)):
                here = _report_or_cap(lambda: make(g, sigma, c))
                there = _report_or_cap(lambda: make(g, eps(sigma), -c))
                if isinstance(here, tuple) or isinstance(there, tuple):
                    assert there == here, (gid, c, sigma)
                    continue
                assert there["sigma"] == eps(sigma)
                assert _twist_shape(there, lambda lab: lab) == \
                    _twist_shape(here, eps), (gid, c, sigma, here["kind"])


def _without_kind(report):
    return {key: v for key, v in report.items() if key != "kind"}


def test_cohomology_ignores_the_label_of_a_standard_module():
    g = build_group("A1")
    fam = cherednik_family(g, 1, 3)
    with pytest.raises(CapExceeded, match="kernel window needs K >= 3") as err:
        dirac_cohomology(GradedModule("mine", fam, "triv", 2))
    assert err.value.minimal == 3
    rep = dirac_cohomology(GradedModule("mine", fam, "triv", 3))
    assert rep["kind"] == "mine"
    assert _without_kind(rep) == _without_kind(
        dirac_cohomology(standard_module(g, "triv", 3, 3)))


def test_cohomology_ignores_the_label_of_a_baby_verma():
    g = build_group("B2")
    fam = cherednik_family(g, 0, 1)
    degrees = g.invariant_degrees
    for sigma in g.irrep_labels:
        # the label of another module kind, on the baby Verma ideal
        mine = GradedModule("standard", fam, sigma,
                            sum(d - 1 for d in degrees),
                            zip(g.invariant_generators, degrees))
        assert _without_kind(dirac_cohomology(mine)) == _without_kind(
            dirac_cohomology(baby_verma(g, sigma, 1)))


def test_cohomology_refuses_an_unbounded_t_zero_module():
    module = GradedModule("inf", cherednik_family(build_group("A1"), 0, 1),
                          "triv", 3)
    with pytest.raises(ValueError, match="end by degree K = 3"):
        dirac_cohomology(module)


# --------------------------------------------------------------------------
# contravariant forms


def test_contravariant_seed_is_identity_for_orthogonal_reps():
    g = build_group("A1")
    m = standard_module(g, "triv", Fraction(1, 2), K=0)
    assert contravariant_form(m)[0] == [[1]]
    g2 = build_group("B2")
    m2 = standard_module(g2, "1x1", 1, K=0)
    assert contravariant_form(m2)[0] == linalg.identity(2)


def test_contravariant_rank_one_product_formula():
    # G_k = prod over j <= k of (j - c for odd j, j for even j)
    g = build_group("A1")
    for c in (Fraction(1, 3), Fraction(5, 2)):
        m = standard_module(g, "triv", c, K=4)
        grams = contravariant_form(m)
        value = Fraction(1)
        for k in range(1, 5):
            value *= (k - c) if k % 2 else k
            assert grams[k] == [[value]]


def test_contravariant_degree_one_pivot():
    g = build_group("A1")
    for c in (Fraction(1, 4), Fraction(2)):
        m = standard_module(g, "triv", c, K=1)
        grams = contravariant_form(m)
        assert grams[1] == [[1 - c]]
        rep = linalg.psd_report(grams[1])
        assert rep["psd"] == (c <= 1)


def test_contravariant_variable_choice_is_consistent():
    g = build_group("B2")
    m = standard_module(g, "1x1", Fraction(1, 3), K=2)
    grams = contravariant_form(m)
    from cherednik import poly
    dim = m.dim_sigma
    for k in (1, 2):
        monos = poly.monomials(2, k)
        below = {mm: i for i, mm in enumerate(poly.monomials(2, k - 1))}
        for i in range(2):
            yb = m.y_block(i, k)
            prod = linalg.mat_mul(grams[k - 1], yb)
            for rp, mono in enumerate(monos):
                if not mono[i]:
                    continue
                low = tuple(e - 1 if ix == i else e
                            for ix, e in enumerate(mono))
                for u in range(dim):
                    row = prod[below[low] * dim + u]
                    assert grams[k][rp * dim + u] == row


def test_contravariant_is_w_invariant():
    g = build_group("B2")
    m = standard_module(g, "1x1", Fraction(1, 3), K=2)
    grams = contravariant_form(m)
    for k in range(3):
        for w in range(g.order):
            rho = m.w_block(w, k)
            back = linalg.mat_mul(linalg.transpose(rho),
                                  linalg.mat_mul(grams[k], rho))
            assert back == grams[k]


def test_contravariant_positive_at_c_zero():
    for gid, sigma in (("A1", "triv"), ("B2", "2x0")):
        g = build_group(gid)
        m = standard_module(g, sigma, 0, K=3)
        for k, gram in contravariant_form(m).items():
            assert linalg.psd_report(gram)["psd"]


def test_contravariant_needs_rational_entries():
    g = build_group("I2_5")
    m = standard_module(g, "rho1", 1, K=2)
    with pytest.raises(NotRational,
                       match="irrational scalar in rational context"):
        contravariant_form(m)


def test_contravariant_form_reads_the_ideal_and_t_not_the_label():
    g = build_group("A1")
    mine = GradedModule("mine", cherednik_family(g, 1, 3), "triv", 3)
    assert contravariant_form(mine) == \
        contravariant_form(standard_module(g, "triv", 3, 3))
    refused = [baby_verma(g, "triv", 1),
               one_dimensional_quotient(build_group("B2"), "11x0", 1),
               GradedModule("mine", cherednik_family(g, 0, 3), "triv", 3)]
    for module in refused:
        with pytest.raises(ValueError, match="live on standard modules"):
            contravariant_form(module)


# --------------------------------------------------------------------------
# unitarity reports


def test_unitarity_report_inside_range():
    g = build_group("A1")
    rep = unitarity_report(g, "triv", Fraction(1, 4), K=6)
    assert rep["all_psd"]
    assert rep["violations"] == []
    assert rep["consistent"]


def test_unitarity_report_outside_range():
    g = build_group("A1")
    rep = unitarity_report(g, "triv", 2, K=3)
    assert not rep["all_psd"]
    first = rep["gram_verdicts"][1]
    assert first["degree"] == 1 and not first["psd"]
    assert "witness" in first
    std = [v for v in rep["violations"] if v["module"] == "standard"]
    simple = [v for v in rep["violations"] if v["module"] == "simple"]
    assert {"module": "standard", "mu": "sgn", "k": 0, "l": 1,
            "gap": "4", "bound": 2} in std
    assert simple and simple[0]["mu"] == "sgn"
    assert rep["consistent"]


def test_unitarity_sweep_is_consistent():
    g = build_group("A1")
    for numer in range(1, 9):
        c = Fraction(numer, 4)
        rep = unitarity_report(g, "triv", c, K=5)
        assert rep["consistent"]
        if c <= 1:
            assert rep["all_psd"]
        else:
            assert not rep["all_psd"]
