"""The degree-k character of a quotient module, read once per family from
the straightened action of w on the kept monomials (tr P_k(w) chi_sigma(w),
GradedModule.character), equals the trace of the full sigma-block
w_block(w, k) (tests/oracles.py) for every sigma and every degree of the
baby Verma modules and the one-dimensional quotients of the catalogue at
c = 1, and of B2 at unequal parameters."""
from fractions import Fraction

import pytest

from cherednik.groups import CATALOGUE_IDS, build_group
from cherednik.modules import baby_verma, one_dimensional_quotient
from oracles import quotient_character_by_blocks

CASES = [(gid, 1) for gid in CATALOGUE_IDS] + [
    ("B2", {"long": Fraction(1), "short": Fraction(1, 2)})]


@pytest.mark.parametrize("gid, c", CASES, ids=[
    f"{gid}-c={c}" for gid, c in CASES])
def test_quotient_character_matches_the_block_trace(gid, c):
    g = build_group(gid)
    checked = 0
    for sigma in g.irrep_labels:
        modules = [baby_verma(g, sigma, c)]
        try:
            modules.append(one_dimensional_quotient(g, sigma, c))
        except ValueError:
            pass  # the quotient needs a one-dimensional sigma it kills
        for module in modules:
            for k in range(module.K + 2):
                assert module.character(k) == quotient_character_by_blocks(
                    module, k), (sigma, module.kind, k)
                checked += 1
    assert checked > len(g.irrep_labels)
