"""Golden for the t = 0 Dirac partition across the catalogue.

tests/golden/partition_catalogue.json holds `dirac_partition(g, c)`
for every group below at c = 1 and c = 1/3, plus B2 with unequal
parameters on its two reflection classes.  Each group's c values run
back to back in one process, so state kept between calls that mixes up
parameters changes the output.  Regenerate (only on purpose) with

    PYTHONPATH=src python3 tests/test_partition_catalogue.py
"""
import json
import os
from fractions import Fraction

from cherednik.calogero_moser import dirac_partition
from cherednik.groups import build_group

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "partition_catalogue.json")
GROUPS = ["A1", "A2", "B2", "I2_3", "I2_4", "I2_5", "I2_6", "G2_1_2",
          "G3_1_2", "Z2", "Z3", "Z4", "Z5", "Z6"]
CS = [("1", Fraction(1)), ("1/3", Fraction(1, 3))]
EXTRA = [("B2", "long=1,short=1/2",
          {"long": Fraction(1), "short": Fraction(1, 2)})]


def catalogue_text():
    cases = [(gid, tag, c) for gid in GROUPS for tag, c in CS] + EXTRA
    out = {}
    for gid, tag, c in cases:
        out[f"{gid}/c={tag}"] = dirac_partition(build_group(gid), c).to_data()
    return json.dumps(out, indent=2, sort_keys=True) + "\n"


def test_partition_matches_catalogue():
    with open(GOLDEN) as fh:
        want = fh.read()
    got = catalogue_text()
    if got != want:
        old, new = json.loads(want), json.loads(got)
        changed = sorted(k for k in old.keys() | new.keys()
                         if old.get(k) != new.get(k))
        assert not changed, f"partitions differ: {changed}"
    assert got == want


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        fh.write(catalogue_text())
