"""Differential test of the integer-backed cyclotomic scalars against sympy.

Seeded random elements of Q(zeta_N) are combined at equal and mixed
conductors, and with plain ints and Fractions.  Every result is checked
against the sympy computation in QQ[x] / Phi_m and for the canonical form
(integer numerators, one positive denominator coprime to them, exponents
below deg Phi_N, conductor 1 exactly for rationals), which is what makes
comparing two scalars field by field sound.
"""
import math
import random
from fractions import Fraction

import pytest

from cherednik.scalars import (
    CyclotomicScalar,
    cyclotomic_polynomial,
    parse_scalar,
    reduce,
    scalar_str,
)

from oracles import (
    cyclotomic_binary_sympy,
    cyclotomic_conjugate_sympy,
    cyclotomic_inverse_sympy,
    reduce_cyclotomic_sympy,
)

F = Fraction
PAIRS = [(n, n) for n in (1, 3, 4, 5, 6, 8, 12)] + [
    (5, 12), (12, 5), (3, 4), (4, 3), (1, 5), (8, 1)]
DENOMINATORS = (1, 1, 2, 3, 4, 6, 9, 35, 128, 1001)


def _fields(x):
    return x.conductor, x.num, x.den


def _assert_canonical(x, minimal=True):
    assert isinstance(x, CyclotomicScalar)
    deg = max(cyclotomic_polynomial(x.conductor))
    assert type(x.den) is int and x.den > 0
    assert all(type(e) is int and 0 <= e < deg for e in x.num)
    assert all(type(v) is int and v for v in x.num.values())
    assert math.gcd(x.den, *x.num.values()) == 1
    if minimal:
        assert (x.conductor == 1) == (set(x.num) <= {0})


def _random_poly(rng, n):
    if rng.random() < 0.12:
        return {}
    return {rng.randrange(-n, 2 * n + 1):
            F(rng.randrange(-30, 31), rng.choice(DENOMINATORS))
            for _ in range(rng.randrange(1, 6))}


def _check(got, want, m):
    """got is the library result, want the oracle dict at conductor m."""
    _assert_canonical(got)
    assert m % got.conductor == 0
    assert got.at_conductor(m).coeffs == want
    expected = reduce(want, m)
    assert _fields(got.at_conductor(m)) == _fields(expected.at_conductor(m))
    if got.conductor == expected.conductor:
        assert _fields(got) == _fields(expected)
    assert got == expected
    back = parse_scalar(scalar_str(got))
    if got.conductor == 1:
        assert back == got.rational_value()
    else:
        assert _fields(back) == _fields(got)


@pytest.mark.parametrize("na, nb", PAIRS)
def test_field_operations_match_sympy(na, nb):
    rng = random.Random(7919 * na + nb)
    m = math.lcm(na, nb)
    for _ in range(8):
        pa, pb = _random_poly(rng, na), _random_poly(rng, nb)
        a, b = reduce(pa, na), reduce(pb, nb)
        oa, ob = reduce_cyclotomic_sympy(pa, na), reduce_cyclotomic_sympy(pb, nb)
        _assert_canonical(a)
        _assert_canonical(b)
        assert a.at_conductor(na).coeffs == oa
        for op, got in (("+", lambda: a + b), ("-", lambda: a - b),
                        ("*", lambda: a * b), ("/", lambda: a / b)):
            if op == "/" and not ob:
                with pytest.raises(ZeroDivisionError):
                    got()
                continue
            _check(got(), cyclotomic_binary_sympy(op, oa, na, ob, nb), m)
        lifted = a.at_conductor(m)
        _assert_canonical(lifted, minimal=False)
        assert lifted.conductor == m
        assert lifted == a
        if oa:
            assert lifted.inverse() == a.inverse()
        k = m // na
        assert lifted.coeffs == reduce_cyclotomic_sympy(
            {e * k: c for e, c in oa.items()}, m)
        _check(a.conjugate(), cyclotomic_conjugate_sympy(oa, na), na)
        if oa:
            _check(a.inverse(), cyclotomic_inverse_sympy(oa, na), na)
        else:
            with pytest.raises(ZeroDivisionError):
                a.inverse()


@pytest.mark.parametrize("n", [1, 3, 5, 12])
def test_rational_operands_match_sympy(n):
    rng = random.Random(104729 + n)
    for _ in range(10):
        pa = _random_poly(rng, n)
        a, oa = reduce(pa, n), reduce_cyclotomic_sympy(pa, n)
        q = rng.choice([0, 1, -1, rng.randrange(-9, 10),
                        F(rng.randrange(-20, 21), rng.choice(DENOMINATORS))])
        oq = {0: F(q)} if q else {}
        for op, left, right in (("+", a + q, q + a), ("-", a - q, q - a),
                                ("*", a * q, q * a)):
            _check(left, cyclotomic_binary_sympy(op, oa, n, oq, 1), n)
            _check(right, cyclotomic_binary_sympy(op, oq, 1, oa, n), n)
        if q:
            _check(a / q, cyclotomic_binary_sympy("/", oa, n, oq, 1), n)
        else:
            with pytest.raises(ZeroDivisionError):
                a / q
        if oa:
            _check(q / a, cyclotomic_binary_sympy("/", oq, 1, oa, n), n)
        assert (a == q) == (oa == oq)


def test_value_equal_forms_share_their_fields():
    # the same value reached along different paths has one representation
    z = reduce({1: 1}, 12)
    a = (z + F(1, 3)) * (z - F(1, 3))
    b = z * z - F(1, 9)
    assert _fields(a) == _fields(b)
    half = reduce({0: F(1, 2), 4: F(7, 6)}, 12) - reduce({4: F(7, 6)}, 12)
    assert _fields(half) == (1, {0: 1}, 2)
    assert _fields(reduce({}, 5)) == (1, {}, 1)
