"""Differential golden for kernel decompositions z = Delta(s) + d(b).

tests/golden/kernel_witnesses.json holds the canonical term lists of s and
b (tests/oracles.py) of the implementation that averaged every candidate
with full H (x) C(V) products Delta(w) e Delta(w)^(-1) and applied d
through derivation_d one candidate at a time.  It covers every decomposition verify_cm_factorization
runs on A2 (cap 3), B2 and I2_3 (cap 2), all at c = 1, and the lifted
Casimir omega_tilde at t = 1, c = 1, cap 2 on the same groups.  The
reports of verify_cm_factorization keep only witness term counts; this
file pins the witnesses themselves.  On every case the sparse rows the
search eliminates must equal the dense coordinate matrix of
[d(b) | Delta(C) | z] (oracles.coords) entry for entry, in the same row
and column order, and (s, b) must equal the per-element elimination
oracles.decompose_by_elements.  Regenerate (only on purpose) with

    PYTHONPATH=src python3 tests/test_kernel_witnesses.py
"""
import json
import os

from cherednik import calogero_moser, dirac
from cherednik.dirac import decompose_kernel_element, omega_tilde
from cherednik.groups import build_group
from cherednik.pbw import cherednik_family
from oracles import (class_function_data, coords, decompose_by_elements,
                     tensor_element_data)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "kernel_witnesses.json")
FACTORIZATIONS = [("A2", 3), ("B2", 2), ("I2_3", 2)]
CASIMIRS = ["A2", "B2", "I2_3"]


def _pair(s, b):
    return {"s": class_function_data(s), "b": tensor_element_data(b)}


def witnesses_text():
    out = {}
    inner = calogero_moser.decompose_kernel_element
    for gid, cap in FACTORIZATIONS:
        found = []

        def recording(*args, **kwargs):
            s, b = inner(*args, **kwargs)
            found.append(_pair(s, b))
            return s, b

        calogero_moser.decompose_kernel_element = recording
        try:
            calogero_moser.verify_cm_factorization(build_group(gid), 1, cap)
        finally:
            calogero_moser.decompose_kernel_element = inner
        out[f"factorization/{gid}/c=1/cap={cap}"] = found
    for gid in CASIMIRS:
        fam = cherednik_family(build_group(gid), 1, 1)
        s, b = decompose_kernel_element(omega_tilde(fam), fam, degree_cap=2)
        out[f"omega_tilde/{gid}/t=1/c=1/cap=2"] = _pair(s, b)
    return json.dumps(out, indent=2, sort_keys=True) + "\n"


def test_kernel_witnesses_match_golden():
    with open(GOLDEN) as fh:
        want = fh.read()
    got = witnesses_text()
    if got != want:
        old, new = json.loads(want), json.loads(got)
        changed = sorted(k for k in old.keys() | new.keys()
                         if old.get(k) != new.get(k))
        assert not changed, f"witnesses differ: {changed}"
    assert got == want



def test_witnesses_match_the_per_element_elimination(monkeypatch):
    inner, solves = calogero_moser.decompose_kernel_element, []

    def recording(z, fam, degree_cap, side, search):
        solves.append((z, fam, degree_cap, side,
                       inner(z, fam, degree_cap, side, search)))
        return solves[-1][-1]

    monkeypatch.setattr(calogero_moser, "decompose_kernel_element",
                        recording)
    for gid, cap in FACTORIZATIONS:
        calogero_moser.verify_cm_factorization(build_group(gid), 1, cap)
    for gid in CASIMIRS:
        fam = cherednik_family(build_group(gid), 1, 1)
        z = omega_tilde(fam)
        solves.append((z, fam, 2, None,
                       decompose_kernel_element(z, fam, degree_cap=2)))
    assert len(solves) == 11
    for z, fam, cap, side, got in solves:
        assert got == decompose_by_elements(z, fam, cap, side), (
            fam.group.catalogue_id, cap, side)


def test_eliminated_rows_are_the_coordinate_matrix(monkeypatch):
    rows_of, matrices = dirac._rows, []

    def recording(elems):
        rows = rows_of(elems)
        matrices.append((rows, coords(elems), len(elems)))
        return rows

    monkeypatch.setattr(dirac, "_rows", recording)
    with open(GOLDEN) as fh:
        assert witnesses_text() == fh.read()
    # 4 solves on A2, 2 each on B2 and I2_3, one per omega_tilde
    assert len(matrices) == 11
    for rows, dense, cols in matrices:
        assert [[row.get(j, 0) for j in range(cols)] for row in rows] == dense
        assert all(list(row) == sorted(row) and all(row.values())
                   for row in rows)


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        fh.write(witnesses_text())
