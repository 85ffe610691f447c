"""Differential golden for Dirac cohomology reports.

tests/golden/cohomology_catalogue.json holds the reports of the
isotypic-projector implementation that the character computation
replaced: baby Verma modules and visible simple quotients of every irrep
of the small groups below (|W| <= 8), and their standard modules at
K = 6, each at c = 1 and c = 1/3.  Regenerate (only on purpose) with

    PYTHONPATH=src python3 tests/test_cohomology_catalogue.py
"""
import json
import os
from fractions import Fraction

from cherednik.groups import build_group
from cherednik.modules import (
    baby_verma,
    dirac_cohomology,
    one_dimensional_quotient,
    standard_module,
)
from cherednik.scalars import CapExceeded

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "cohomology_catalogue.json")
GROUPS = ["A1", "A2", "B2", "Z2", "Z3", "Z4", "Z5", "Z6", "I2_3", "I2_4",
          "G2_1_2"]
CS = [Fraction(1), Fraction(1, 3)]
K = 6


def catalogue_text():
    reports = {}
    for gid in GROUPS:
        g = build_group(gid)
        for c in CS:
            for sigma in g.irrep_labels:
                tag = f"{gid}/{sigma}/c={c}"
                reports[f"baby/{tag}"] = dirac_cohomology(
                    baby_verma(g, sigma, c))
                try:
                    simple = one_dimensional_quotient(g, sigma, c)
                except ValueError:
                    pass
                else:
                    reports[f"simple/{tag}"] = dirac_cohomology(simple)
                try:
                    got = dirac_cohomology(standard_module(g, sigma, c, K))
                except CapExceeded as err:
                    got = {"window_exceeds_cap": err.minimal}
                reports[f"standard/{tag}"] = got
    return json.dumps(reports, indent=2, sort_keys=True) + "\n"


def test_cohomology_reports_match_catalogue():
    with open(GOLDEN) as fh:
        want = fh.read()
    got = catalogue_text()
    if got != want:
        old, new = json.loads(want), json.loads(got)
        changed = sorted(k for k in old.keys() | new.keys()
                         if old.get(k) != new.get(k))
        assert not changed, f"reports differ: {changed}"
    assert got == want


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        fh.write(catalogue_text())
