"""Differential test of the integer-backed cyclotomic scalars against sympy.

Seeded random elements of Q(zeta_N) are combined at equal and mixed
conductors, and with plain ints and Fractions.  Every result is checked
against the sympy computation in QQ[x] / Phi_m and for the canonical form:
a rational value is in the rational form (an int when integral, else a
Fraction), and a CyclotomicScalar has integer numerators, one positive
denominator coprime to them, exponents below deg Phi_N, some exponent
other than 0 and conductor > 2.  That is what makes comparing two scalars
field by field sound.
"""
import math
import operator
import random
from fractions import Fraction

import pytest

from cherednik.scalars import (
    CyclotomicScalar,
    _phi_coeff_list,
    conjugate,
    parse_scalar,
    rational,
    reciprocal,
    reduce,
    scalar_str,
)

from oracles import (
    cyclotomic_binary_sympy,
    cyclotomic_coeffs,
    cyclotomic_conjugate_sympy,
    cyclotomic_inverse_sympy,
    reduce_cyclotomic_sympy,
)

F = Fraction
PAIRS = [(n, n) for n in (1, 3, 4, 5, 6, 8, 12)] + [
    (5, 12), (12, 5), (3, 4), (4, 3), (1, 5), (8, 1)]
DENOMINATORS = (1, 1, 2, 3, 4, 6, 9, 35, 128, 1001)


# a CyclotomicScalar has no `/`: division is a product with reciprocal
OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
       "/": lambda a, b: a * reciprocal(b)}


def _fields(x):
    if isinstance(x, CyclotomicScalar):
        return x.conductor, x.num, x.den
    return type(x), x


def _at(x, m):
    """x written at conductor m; a rational is the same at every m."""
    return x.at_conductor(m) if isinstance(x, CyclotomicScalar) else x


def _coeffs(x):
    """The value of x as a dict exponent -> Fraction."""
    if isinstance(x, CyclotomicScalar):
        return cyclotomic_coeffs(x)
    return {0: F(x)} if x else {}


def _apply(op, a, b):
    """a op b as the package computes it; between two rationals that is
    Python's arithmetic, brought to the rational form."""
    if isinstance(a, CyclotomicScalar) or isinstance(b, CyclotomicScalar):
        return OPS[op](a, b)
    return rational(OPS[op](F(a), F(b)))


def _assert_canonical(x):
    if not isinstance(x, CyclotomicScalar):
        assert type(x) is int or (type(x) is F and x.denominator > 1), x
        return
    assert x.conductor > 2
    deg = len(_phi_coeff_list(x.conductor)) - 1
    assert type(x.den) is int and x.den > 0
    assert type(x.num) is tuple and len(x.num) == deg
    assert all(type(v) is int for v in x.num)
    assert math.gcd(x.den, *x.num) == 1
    assert any(x.num[1:])


def _random_poly(rng, n):
    if rng.random() < 0.12:
        return {}
    return {rng.randrange(-n, 2 * n + 1):
            F(rng.randrange(-30, 31), rng.choice(DENOMINATORS))
            for _ in range(rng.randrange(1, 6))}


def _check(got, want, m):
    """got is the library result, want the oracle dict at conductor m."""
    _assert_canonical(got)
    # a rational value is never a CyclotomicScalar
    assert isinstance(got, CyclotomicScalar) == (not set(want) <= {0})
    if isinstance(got, CyclotomicScalar):
        assert m % got.conductor == 0
    assert _coeffs(_at(got, m)) == want
    expected = reduce(want, m)
    assert _fields(_at(got, m)) == _fields(_at(expected, m))
    if (not isinstance(got, CyclotomicScalar)
            or got.conductor == expected.conductor):
        assert _fields(got) == _fields(expected)
    assert got == expected
    assert _fields(parse_scalar(scalar_str(got))) == _fields(got)


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
        assert _coeffs(_at(a, na)) == oa
        for op in OPS:
            if op == "/" and not ob:
                with pytest.raises(ZeroDivisionError):
                    _apply(op, a, b)
                continue
            _check(_apply(op, a, b),
                   cyclotomic_binary_sympy(op, oa, na, ob, nb), m)
        lifted = _at(a, m)
        if isinstance(a, CyclotomicScalar):
            assert lifted.conductor == m
            assert lifted.den == a.den and any(lifted.num)
        assert lifted == a
        if oa:
            assert reciprocal(lifted) == reciprocal(a)
        k = m // na
        assert _coeffs(lifted) == reduce_cyclotomic_sympy(
            {e * k: c for e, c in oa.items()}, m)
        _check(conjugate(a), cyclotomic_conjugate_sympy(oa, na), na)
        if oa:
            _check(reciprocal(a), cyclotomic_inverse_sympy(oa, na), na)
        else:
            with pytest.raises(ZeroDivisionError):
                reciprocal(a)


@pytest.mark.parametrize("n", [1, 3, 5, 12])
def test_rational_operands_match_sympy(n):
    rng = random.Random(104729 + n)
    for _ in range(10):
        pa = _random_poly(rng, n)
        a, oa = reduce(pa, n), reduce_cyclotomic_sympy(pa, n)
        q = rng.choice([0, 1, -1, rng.randrange(-9, 10),
                        F(rng.randrange(-20, 21), rng.choice(DENOMINATORS))])
        oq = {0: F(q)} if q else {}
        for op in ("+", "-", "*"):
            _check(_apply(op, a, q),
                   cyclotomic_binary_sympy(op, oa, n, oq, 1), n)
            _check(_apply(op, q, a),
                   cyclotomic_binary_sympy(op, oq, 1, oa, n), n)
        if q:
            _check(_apply("/", a, q),
                   cyclotomic_binary_sympy("/", oa, n, oq, 1), n)
        else:
            with pytest.raises(ZeroDivisionError):
                _apply("/", a, q)
        if oa:
            _check(_apply("/", q, a),
                   cyclotomic_binary_sympy("/", oq, 1, oa, n), n)
        assert (a == q) == (oa == oq)


def test_value_equal_forms_share_their_fields():
    # the same value reached along different paths has one representation
    z = reduce({1: 1}, 12)
    a = (z + F(1, 3)) * (z - F(1, 3))
    b = z * z - F(1, 9)
    assert _fields(a) == _fields(b)
    half = reduce({0: F(1, 2), 4: F(7, 6)}, 12) - reduce({4: F(7, 6)}, 12)
    assert _fields(half) == (F, F(1, 2))
    assert _fields(reduce({}, 5)) == (int, 0)


@pytest.mark.parametrize("n", [1, 3, 4, 5, 8, 12])
def test_rational_values_leave_the_type(n):
    """Results that are rational by construction, from every operation,
    come back in the rational form and agree with sympy."""
    rng = random.Random(65537 + n)
    units = [k for k in range(1, n + 1) if math.gcd(k, n) == 1]
    for _ in range(8):
        pa = _random_poly(rng, n)
        a, oa = reduce(pa, n), reduce_cyclotomic_sympy(pa, n)
        q = F(rng.randrange(-20, 21), rng.choice(DENOMINATORS))
        oq = {0: q} if q else {}
        # (a + q) - a: a sum and a difference
        s = _apply("+", a, q)
        _check(_apply("-", s, a), oq, n)
        # conj(a), and a * conj(a) and a + conj(a), which are rational
        # when phi(n) <= 2
        ca = conjugate(a)
        oca = cyclotomic_conjugate_sympy(oa, n)
        _check(ca, oca, n)
        _check(_apply("*", a, ca),
               cyclotomic_binary_sympy("*", oa, n, oca, n), n)
        _check(_apply("+", a, ca),
               cyclotomic_binary_sympy("+", oa, n, oca, n), n)
        if oa:
            # a * (q / a) and the inverse of an inverse
            inv = reciprocal(a)
            _check(_apply("*", a, _apply("*", inv, q)), oq, n)
            _check(reciprocal(inv), oa, n)
        # the trace sum_k sigma_k(a), written out unreduced: reduce and
        # parse_scalar both see a rational value
        trace = {}
        for k in units:
            for e, c in pa.items():
                trace[e * k] = trace.get(e * k, 0) + c
        want = reduce_cyclotomic_sympy(trace, n)
        assert set(want) <= {0}
        _check(reduce(trace, n), want, n)
        terms = {}
        for e, c in trace.items():
            terms[e % n] = terms.get(e % n, 0) + F(c)
        body = ", ".join(f"{e}:{c.numerator}/{c.denominator}"
                         for e, c in sorted(terms.items()) if c)
        _check(parse_scalar(f"cyclo({n}; {body})"), want, n)
