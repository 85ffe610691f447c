"""Module actions as sum_w P(w) (x) rho_sigma(w) (GradedModule.action_blocks)
against the column walk of tests/oracles.py, which reduces every
straightened term modulo J on its own and multiplies its coordinates into
rho_sigma(w) entry by entry: every generator key and degree of the baby
Verma modules and the one-dimensional quotients of the catalogue at
c = 1, standard modules on four groups, and the grading Casimir on B2.

Values must agree entry for entry, and an entry is a CyclotomicScalar
exactly where the column walk's is.  The two sum the same terms in
another order, so a rational value may be an int in one and an integral
Fraction in the other; that is all the types may differ by."""
import pytest

from cherednik.groups import CATALOGUE_IDS, build_group
from cherednik.modules import (baby_verma, one_dimensional_quotient,
                               standard_module)
from cherednik.pbw import casimir_omega
from cherednik.scalars import CyclotomicScalar
from oracles import action_blocks_by_columns, straightened_columns


def _typed(blocks):
    return {k: [[(type(x) if isinstance(x, CyclotomicScalar) else "rational",
                  x) for x in row] for row in mat]
            for k, mat in blocks.items()}


def _check_generators(module, columns):
    """Every generator key at every degree of the module and the one above
    its top; columns caches the oracle's straightening across sigma."""
    g = module.group
    keys = ([("x_gen", i) for i in range(g.n)]
            + [("y_gen", i) for i in range(g.n)]
            + [("group_element", w) for w in range(g.order)])
    checked = 0
    for k in range(module.K + 2):
        for key in keys:
            cols = columns.get((key, k))
            if cols is None:
                gen = getattr(module.family, key[0])(key[1])
                cols = columns[(key, k)] = straightened_columns(module, gen,
                                                                k)
            want = action_blocks_by_columns(module, cols)
            got = module.action_blocks(key, k)
            assert _typed(got) == _typed(want), (module.sigma, key, k)
            checked += bool(got)
    return checked


@pytest.mark.parametrize("gid", CATALOGUE_IDS)
def test_quotient_actions_match_the_column_walk(gid):
    g = build_group(gid)
    columns = {"baby": {}, "simple": {}}
    checked = 0
    for sigma in g.irrep_labels:
        modules = [baby_verma(g, sigma, 1)]
        try:
            modules.append(one_dimensional_quotient(g, sigma, 1))
        except ValueError:
            pass  # the quotient needs a one-dimensional sigma it kills
        for module in modules:
            checked += _check_generators(module, columns[module.kind])
    assert checked >= len(g.irrep_labels) * g.order


@pytest.mark.parametrize("gid", ["A2", "B2", "I2_5", "G3_1_2"])
def test_standard_actions_match_the_column_walk(gid):
    g = build_group(gid)
    columns = {}
    for sigma in g.irrep_labels:
        assert _check_generators(standard_module(g, sigma, 1, K=2), columns)


def test_casimir_action_matches_the_column_walk():
    g = build_group("B2")
    for sigma in g.irrep_labels:
        for module in (baby_verma(g, sigma, 1),
                       standard_module(g, sigma, 1, K=2)):
            om = casimir_omega(module.family)
            for k in module.degrees():
                want = action_blocks_by_columns(
                    module, straightened_columns(module, om, k))
                got = module.action_blocks(om, k)
                assert list(got) == [k]
                assert _typed(got) == _typed(want), (sigma, module.kind, k)
