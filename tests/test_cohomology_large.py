"""Differential golden for Dirac cohomology reports on larger groups.

tests/golden/cohomology_large.json holds the reports of the
implementation that intersected ker D with an image basis on the full
finite space: baby Verma modules and visible simple quotients of every
irrep of I2_5 (|W| = 10, over Q(zeta_5)) and G3_1_2 (|W| = 24) at c = 1.
At c = 1 neither group has a visible one-dimensional quotient, so all 13
reports are baby Verma ones.  Regenerate (only on purpose) with

    PYTHONPATH=src python3 tests/test_cohomology_large.py
"""
import json
import os
from fractions import Fraction

from cherednik.groups import build_group
from cherednik.modules import (
    baby_verma,
    dirac_cohomology,
    one_dimensional_quotient,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "cohomology_large.json")
GROUPS = ["I2_5", "G3_1_2"]
C = Fraction(1)


def large_text():
    reports = {}
    for gid in GROUPS:
        g = build_group(gid)
        for sigma in g.irrep_labels:
            tag = f"{gid}/{sigma}/c={C}"
            reports[f"baby/{tag}"] = dirac_cohomology(baby_verma(g, sigma, C))
            try:
                simple = one_dimensional_quotient(g, sigma, C)
            except ValueError:
                continue
            reports[f"simple/{tag}"] = dirac_cohomology(simple)
    return json.dumps(reports, indent=2, sort_keys=True) + "\n"


def test_cohomology_reports_match_large_golden():
    with open(GOLDEN) as fh:
        want = fh.read()
    got = large_text()
    if got != want:
        old, new = json.loads(want), json.loads(got)
        changed = sorted(k for k in old.keys() | new.keys()
                         if old.get(k) != new.get(k))
        assert not changed, f"reports differ: {changed}"
    assert got == want


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        fh.write(large_text())
