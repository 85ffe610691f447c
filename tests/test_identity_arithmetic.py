"""Arithmetic whose answer is already known is skipped, and nothing
changes: the scalar identity rule (x * 1, 1 * x, x + 0 and 0 + x are x
itself, x * -1 is -x) and the matrix kernels that store a first term into
an empty slot and multiply only by factors other than 1, each compared
with the arithmetic carried out in full (tests/oracles.py) on seeded
matrices over Q, Q(zeta_5) and Q(zeta_12) where most entries are 0 or 1
or -1 and some are integral Fractions."""
import random
from fractions import Fraction
from math import gcd

import pytest

from cherednik import linalg
from cherednik.scalars import CyclotomicScalar, reduce, zeta
from oracles import (add_naive, cyclotomic_binary_sympy, cyclotomic_coeffs,
                     kron_naive, mat_mul_naive, mat_vec_naive)

CONDUCTORS = (1, 5, 12)
SEEDS = range(6)


def _entry(rng, n):
    r = rng.random()
    if r < 0.3:
        return 0
    if r < 0.45:
        return 1
    if r < 0.6:
        return -1
    if r < 0.7:
        return Fraction(rng.choice([1, -1, 2, -3]), 1)  # integral Fraction
    if r < 0.8 or n == 1:
        return rng.choice([2, -3, Fraction(1, 2), Fraction(-5, 3)])
    return reduce({rng.randrange(n): rng.randint(-3, 3),
                   rng.randrange(n): Fraction(rng.randint(-3, 3),
                                              rng.randint(1, 3))}, n)


def _matrix(rng, n, rows, cols):
    return [[_entry(rng, n) for _ in range(cols)] for _ in range(rows)]


def _check_same(got, want):
    """Equal values, and the same type except that an integral Fraction
    may come back as its int (the rational form)."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w, (g, w)
        if type(w) is Fraction and w.denominator == 1:
            assert type(g) in (int, Fraction), (g, w)
        else:
            assert type(g) is type(w), (g, w)
        if isinstance(g, CyclotomicScalar):
            assert g.num == w.num and g.den == w.den


def _check_matrix(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        _check_same(g, w)


@pytest.mark.parametrize("n", CONDUCTORS)
@pytest.mark.parametrize("seed", SEEDS)
def test_matrix_kernels_match_the_full_arithmetic(n, seed):
    rng = random.Random(f"{n}:{seed}")
    a, b = _matrix(rng, n, 4, 5), _matrix(rng, n, 5, 3)
    entries = [x for row in a + b for x in row]
    assert sum(x == 0 or x == 1 or x == -1 for x in entries) * 2 >= len(
        entries)
    _check_matrix(linalg.mat_mul(a, b), mat_mul_naive(a, b))
    v = [_entry(rng, n) for _ in range(5)]
    _check_same(linalg.mat_vec(a, v), mat_vec_naive(a, v))
    small = _matrix(rng, n, 2, 3)
    acc = _matrix(rng, n, 10, 9)
    want = add_naive(acc, kron_naive(small, b))
    linalg.add_kron(acc, small, b)
    _check_matrix(acc, want)
    acc, other = _matrix(rng, n, 4, 5), _matrix(rng, n, 4, 5)
    want = add_naive(acc, other)
    linalg.add_into(acc, other)
    _check_matrix(acc, want)


@pytest.mark.parametrize("n", (5, 12))
@pytest.mark.parametrize("seed", SEEDS)
def test_scalar_identities_return_x(n, seed):
    rng = random.Random(f"identity:{n}:{seed}")
    x = reduce({rng.randrange(1, n): rng.randint(1, 4),
                rng.randrange(n): Fraction(rng.randint(-3, 3),
                                           rng.randint(1, 5))}, n)
    x = x if isinstance(x, CyclotomicScalar) else x + zeta(n)
    assert x * 1 is x
    assert 1 * x is x
    assert x + 0 is x
    assert 0 + x is x
    assert sum([x]) is x
    for neg in (x * -1, -1 * x):
        assert neg == -x and neg + x == 0
        assert neg.conductor == x.conductor and neg.den == x.den
        assert neg.num == tuple(-v for v in x.num)
        assert gcd(neg.den, *neg.num) == 1
        assert cyclotomic_coeffs(neg) == cyclotomic_binary_sympy(
            "*", cyclotomic_coeffs(x), n, {0: Fraction(-1)}, 1)
