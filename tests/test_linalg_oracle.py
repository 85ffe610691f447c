"""Differential test of the exact elimination in linalg against sympy.

Seeded sparse matrices up to 12 x 15 (about 30 % nonzero, some rows made
dependent on earlier ones) over Q, Q(zeta_5) and Q(zeta_12) go through
rref, nullspace and inverse, and every result is compared by value with
sympy's DomainMatrix over the same field.  rref takes its rows dense and
as {column: nonzero} dicts and returns sparse pivot rows; those, padded
out, must equal the dense elimination it replaced (oracles.rref_dense)
entry for entry, types included, on those matrices, on empty input,
all-zero rows, duplicate rows and all-Fraction matrices, and on the four
matrices the kernel search eliminates in verify_cm_factorization(A2, 1,
3), recorded as it passes them.  span_coords is compared with sympy and
with the solve it replaced (oracles.coords_in_span) on both kinds of
reduced basis those matrices give, read at the pivots that nullspace and
column_space_basis return; those pivots must equal sympy's and the
reference scanners' (oracles.leading, oracles.free_columns), here and on
every matrix the two receive while verify runs on the catalogue and
dirac_partition on the partition groups, recorded as passed.  Tall
matrices shaped like those of the kernel decomposition (60-150 rows,
20-40 columns, about 5 % nonzero, rank-deficient) go through rref the
same way.  The matrices mix ints with Fractions, integral Fractions
included; every integral entry of a Q result must come back as an int,
the rational form of scalars.py, and every zero of any dense result as
the int 0.
"""
import contextlib
import io
import random
from fractions import Fraction

import pytest

from cherednik import dirac, linalg
from cherednik.calogero_moser import dirac_partition, verify_cm_factorization
from cherednik.cli import main
from cherednik.groups import CATALOGUE_IDS, build_group
from cherednik.scalars import CyclotomicScalar, reduce

from oracles import (coords_in_span, cyclotomic_coeffs, domain_matrix_sympy,
                     free_columns, leading, rref_dense)

CONDUCTORS = (1, 5, 12)
SEEDS = range(8)


def _rational(rng):
    if rng.random() < 0.5:
        return rng.choice([-3, -2, -1, 1, 2, 3])
    # integral Fractions such as Fraction(4, 2) are part of the mix
    return Fraction(rng.choice([-6, -4, -3, -2, -1, 1, 2, 3, 4, 6]),
                    rng.choice([1, 2, 3]))


def _entry(rng, n):
    if n == 1 or rng.random() < 0.3:
        return _rational(rng)
    return reduce({rng.randrange(n): _rational(rng) for _ in range(2)}, n)


def _matrix(rng, n, rows, cols):
    m = []
    for _ in range(rows):
        if m and rng.random() < 0.3:
            # a combination of two earlier rows keeps the rank down
            a, b = rng.choice(m), rng.choice(m)
            p, q = _entry(rng, n), _entry(rng, n)
            m.append([p * x + q * y for x, y in zip(a, b)])
        else:
            m.append([_entry(rng, n) if rng.random() < 0.3 else 0
                      for _ in range(cols)])
    return m


def _oracle(rows, ncols, n):
    return domain_matrix_sympy(
        [[cyclotomic_coeffs(x) if isinstance(x, CyclotomicScalar) else x
          for x in row]
         for row in rows], ncols, n)


def _assert_rational_form(rows, n):
    for row in rows:
        for x in row:
            if not x:
                assert type(x) is int, repr(x)
            elif n == 1:
                assert type(x) is int or (type(x) is Fraction
                                          and x.denominator > 1), repr(x)


def _cases(n):
    for seed in SEEDS:
        rng = random.Random(1000 * n + seed)
        rows, cols = rng.randint(1, 12), rng.randint(1, 15)
        yield rng, _matrix(rng, n, rows, cols), rows, cols


def _check_rref(m, cols, n):
    """rref of the dense matrix m and of its rows as dicts, against the
    dense elimination (oracles.rref_dense) and sympy; returns the
    pivots."""
    rows, pivots = linalg.rref(m)
    sparse = [{j: x for j, x in enumerate(row) if x} for row in m]
    assert linalg.rref(sparse) == (rows, pivots)
    dense, dense_pivots = rref_dense(m)
    want, want_pivots = _oracle(m, cols, n).rref()
    assert pivots == dense_pivots == list(want_pivots)
    assert len(rows) == len(pivots)
    for p, row in zip(pivots, rows):
        assert type(row) is dict and row[p] == 1 and all(row.values())
    got = ([[row.get(j, 0) for j in range(cols)] for row in rows]
           + [[0] * cols for _ in range(len(m) - len(rows))])
    assert got == dense
    assert [list(map(type, r)) for r in got] == [list(map(type, r))
                                                 for r in dense]
    assert _oracle(got, cols, n) == want
    _assert_rational_form(got, n)
    return pivots


@pytest.mark.parametrize("n", CONDUCTORS)
def test_rref_and_nullspace_match_sympy(n):
    for _, m, rows, cols in _cases(n):
        pivots = _check_rref(m, cols, n)

        ns, free = linalg.nullspace(m, cols)
        kernel = _oracle(m, cols, n).nullspace()
        assert len(ns) == kernel.shape[0] == cols - len(pivots)
        # the free columns come back: sympy's non-pivots, and the columns
        # the reference scanner finds
        assert free == [j for j in range(cols) if j not in pivots]
        assert free == free_columns(ns)
        if not ns:
            continue
        # sympy scales each kernel vector freely; ours is 1 at its free
        # column, so normalise there before comparing
        field = kernel.domain
        scaled = [[field.quo(x, row[f]) for x in row]
                  for row, f in zip(kernel.to_list(), free)]
        assert _oracle(ns, cols, n).to_list() == scaled
        _assert_rational_form(ns, n)


@pytest.mark.parametrize("n", CONDUCTORS)
def test_rref_edge_cases_match_dense_and_sympy(n):
    rng = random.Random(9000 + n)
    m = _matrix(rng, n, 5, 6)
    zero = [[0, Fraction(0), 0, 0, 0, 0] for _ in range(3)]
    fractions = [[Fraction(rng.choice([-5, -1, 1, 7]), rng.choice([2, 3, 9]))
                  * (_entry(rng, n) if n > 1 else 1) if rng.random() < 0.6
                  else 0 for _ in range(6)] for _ in range(4)]
    cases = [[], zero, m + m, [m[0]] * 4, zero[:1] + m + zero[1:],
             fractions, fractions + m[:2] + fractions[1:3]]
    for case in cases:
        _check_rref(case, 6, n)
    assert linalg.rref([]) == ([], [])
    assert linalg.rref(zero) == linalg.rref([{}, {3: 0}]) == ([], [])
    # a dict row may name zero values; they are dropped
    rows, pivots = linalg.rref(m)
    padded = [{**dict.fromkeys(range(6), 0), **dict(enumerate(r))}
              for r in m]
    assert linalg.rref(padded) == (rows, pivots)


def test_rref_on_the_a2_kernel_matrices(monkeypatch):
    # the kernel search's four eliminations in verify_cm_factorization(A2,
    # 1, 3), recorded as passed: sparse rows straight off its term maps
    built, seen = [], []
    rows_of, inner = dirac._rows, linalg.rref
    monkeypatch.setattr(dirac, "_rows",
                        lambda e: built.append(rows_of(e)) or built[-1])
    monkeypatch.setattr(linalg, "rref", lambda m: seen.append(m) or inner(m))
    verify_cm_factorization(build_group("A2"), 1, 3)
    monkeypatch.undo()
    kernel = [m for m in seen if any(m is b for b in built)]
    assert len(built) == len(kernel) == 4
    for m in kernel:
        cols = 1 + max(j for row in m for j in row)
        dense = [[row.get(j, 0) for j in range(cols)] for row in m]
        assert len(dense) > 4 * cols
        assert linalg.rref(m) == linalg.rref(dense)
        # z, the last column, is reachable: no pivot
        assert cols - 1 not in _check_rref(dense, cols, 1)


def test_pivots_on_the_recorded_catalogue_matrices(monkeypatch):
    # every matrix that nullspace and column_space_basis receive while
    # verify runs on the catalogue (group builds included) and
    # dirac_partition runs at c = 1 on the partition groups and at c = 1/3
    # on A2 and B2: the pivots they return are the reference scanners'
    # and sympy's.  nullspace is told its width and may get sparse rows,
    # recorded here densely at that width
    seen = []

    def recording(kind, inner):
        def call(m, *width):
            out = inner(m, *width)
            cols = width[0] if width else len(m[0]) if m else 0
            seen.append((kind, [[row.get(j, 0) for j in range(cols)]
                                if type(row) is dict else list(row)
                                for row in m], cols, out))
            return out
        return call

    for kind in ("nullspace", "column_space_basis"):
        monkeypatch.setattr(linalg, kind,
                            recording(kind, getattr(linalg, kind)))
    for gid in CATALOGUE_IDS:
        build_group.__wrapped__(gid)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["verify", "--group", gid]) == 0, gid
    for gid in ("A2", "I2_3", "B2", "G2_1_2", "I2_4", "I2_5", "G3_1_2"):
        dirac_partition(build_group(gid), 1)
    for gid in ("A2", "B2"):
        dirac_partition(build_group(gid), Fraction(1, 3))
    monkeypatch.undo()
    cases = {(kind, repr(m), cols): (kind, m, cols, out)
             for kind, m, cols, out in seen}
    assert {kind for kind, _, _ in cases} == {"nullspace",
                                              "column_space_basis"}
    assert len(cases) > 400
    for kind, m, cols, (basis, pivots) in cases.values():
        if not m:
            assert pivots == free_columns(basis) == (
                list(range(cols)) if kind == "nullspace" else [])
            continue
        conductors = {x.conductor for row in m for x in row
                      if isinstance(x, CyclotomicScalar)}
        assert len(conductors) <= 1
        _, want = _oracle(m, cols, max(conductors, default=1)).rref()
        if kind == "nullspace":
            assert pivots == free_columns(basis) == [
                j for j in range(cols) if j not in want]
        else:
            assert pivots == leading(basis) == list(want)


def _tall(rng, n):
    """A kernel-shaped matrix: many more rows than columns, about 5 %
    nonzero, and a rank well below the column count."""
    rows, cols = rng.randint(60, 150), rng.randint(20, 40)
    rank = rng.randint(cols // 3, cols - 3)
    # a sparse rank-`rank` product: independent rows, then sparse
    # combinations of them, shuffled among each other
    basis = [[0] * cols for _ in range(rank)]
    for i, row in enumerate(basis):
        row[rng.randrange(cols)] = _entry(rng, n)
        for j in range(cols):
            if rng.random() < 0.015:
                row[j] = _entry(rng, n)
    m = [list(row) for row in basis]
    while len(m) < rows:
        row = [0] * cols
        for b in rng.sample(basis, rng.choice([1, 1, 2])):
            f = _entry(rng, n)
            row = [x + f * y if y else x for x, y in zip(row, b)]
        m.append(row)
    rng.shuffle(m)
    return m, rows, cols


@pytest.mark.parametrize("n", CONDUCTORS)
def test_tall_sparse_rref_matches_sympy(n):
    for seed in range(3):
        rng = random.Random(5000 + 1000 * n + seed)
        m, rows, cols = _tall(rng, n)
        assert len(_check_rref(m, cols, n)) < cols


def test_rref_of_integral_fractions_is_in_rational_form():
    # products of matrices may hold Fraction(k, 1), and rref accepts them
    m = [[Fraction(2, 1), Fraction(4, 1), 0], [Fraction(3, 1), 6, 1],
         [Fraction(1, 2), 1, Fraction(-5, 5)]]
    rows, pivots = linalg.rref(m)
    assert pivots == [0, 2]
    assert rows == [{0: 1, 1: 2}, {2: 1}]
    _assert_rational_form([list(row.values()) for row in rows], 1)


def _sympy_coords(basis, v, n):
    """Coordinates of v in the independent vectors `basis`, read off
    sympy's rref of the augmented, transposed system, or None."""
    size = len(basis)
    aug = [[u[i] for u in basis] + [x] for i, x in enumerate(v)]
    want, pivots = _oracle(aug, size + 1, n).rref()
    if size in pivots:
        return None
    assert list(pivots) == list(range(size))
    return [row[size] for row in want.to_list()[:size]]


@pytest.mark.parametrize("n", CONDUCTORS)
def test_span_coords_matches_sympy(n):
    # span_coords against the solve it replaced (oracles.coords_in_span)
    # and against sympy, on reduced rows at the pivot columns and on
    # nullspace bases at the free columns they come back with, and on the
    # empty basis, for vectors inside and outside the span
    inside = outside = 0
    for rng, m, rows, cols in _cases(n):
        echelon, pivots = linalg.column_space_basis(m)
        kernel, free = linalg.nullspace(m, cols)
        _, want_pivots = _oracle(m, cols, n).rref()
        assert pivots == leading(echelon) == list(want_pivots)
        assert free == free_columns(kernel) == [
            j for j in range(cols) if j not in want_pivots]
        for basis, pivots in ((echelon, pivots), (kernel, free), ([], [])):
            x = [_entry(rng, n) for _ in basis]
            combo = [sum((a * u[j] for a, u in zip(x, basis)), 0)
                     for j in range(cols)]
            assert linalg.span_coords(basis, pivots, combo) == x
            other = [_entry(rng, n) if rng.random() < 0.5 else 0
                     for _ in range(cols)]
            for v in (combo, other):
                got = linalg.span_coords(basis, pivots, v)
                assert got == coords_in_span(basis, v)
                want = _sympy_coords(basis, v, n)
                if want is None:
                    outside += 1
                    assert got is None
                    continue
                inside += 1
                assert [_oracle([[a]], 1, n).to_list()[0][0]
                        for a in got] == want
    assert inside and outside


@pytest.mark.parametrize("n", CONDUCTORS)
def test_inverse_matches_sympy(n):
    nonsingular = 0
    for seed in SEEDS:
        rng = random.Random(7000 + 1000 * n + seed)
        size = rng.randint(1, 12)
        m = _matrix(rng, n, size, size)
        if seed % 2:
            # half the cases get a nonzero diagonal, so most are invertible
            for i in range(size):
                m[i][i] = m[i][i] + _entry(rng, n) or 1
        oracle = _oracle(m, size, n)
        if oracle.rank() < size:
            with pytest.raises(ValueError):
                linalg.inverse(m)
            continue
        nonsingular += 1
        inv = linalg.inverse(m)
        assert _oracle(inv, size, n) == oracle.inv()
        _assert_rational_form(inv, n)
    assert nonsingular
