import random
from fractions import Fraction

import pytest

from cherednik.scalars import (
    MAX_CONDUCTOR,
    CapExceeded,
    CyclotomicScalar,
    NotRational,
    as_fraction,
    _phi_coeff_list,
    conjugate,
    parse_scalar,
    reciprocal,
    reduce,
    scalar_str,
    zeta,
)

from oracles import (
    cyclotomic_coeffs,
    cyclotomic_inverse_sympy,
    reduce_cyclotomic_sympy,
)

F = Fraction


def as_dict(a, n=None):
    """The value of a scalar as a dict exponent -> Fraction, written at
    conductor n when given; a rational is {0: a} at every conductor."""
    if isinstance(a, CyclotomicScalar):
        return cyclotomic_coeffs(a.at_conductor(n) if n else a)
    return {0: F(a)} if a else {}


def test_cyclotomic_polynomial_small():
    # frozen from the standard table, lowest degree first
    assert _phi_coeff_list(1) == (-1, 1)
    assert _phi_coeff_list(2) == (1, 1)
    assert _phi_coeff_list(3) == (1, 1, 1)
    assert _phi_coeff_list(4) == (1, 0, 1)
    assert _phi_coeff_list(6) == (1, -1, 1)
    assert _phi_coeff_list(8) == (1, 0, 0, 0, 1)
    assert _phi_coeff_list(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomial_matches_oracle():
    import sympy

    x = sympy.Symbol("x")
    for n in range(1, 31):
        got = _phi_coeff_list(n)
        want = tuple(int(c) for c in reversed(
            sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()))
        assert got == want, n


def test_reduce_trivial_examples():
    # zeta_3^3 = 1
    assert reduce({3: F(1)}, 3) == F(1)
    # 1 + zeta + zeta^2 = 0 at N=3
    z = reduce({0: F(1), 1: F(1), 2: F(1)}, 3)
    assert not z
    assert z == 0


def test_reduce_zeta5_plus_zeta_at_8():
    got = reduce({5: F(1), 1: F(1)}, 8)
    want = reduce_cyclotomic_sympy({5: F(1), 1: F(1)}, 8)
    assert as_dict(got) == want
    assert got == 0 and type(got) is int


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 10, 12])
def test_reduce_random_against_oracle(n):
    rng = random.Random(20_000 + n)
    for _ in range(12):
        poly = {rng.randrange(0, 2 * n + 3): F(rng.randrange(-9, 10), rng.randrange(1, 7))
                for _ in range(4)}
        got = reduce(poly, n)
        want = reduce_cyclotomic_sympy(poly, n)
        assert as_dict(got, n) == want


def test_reduce_idempotent():
    a = reduce({1: F(2), 7: F(-3, 2)}, 12)
    again = reduce(as_dict(a, 12), 12)
    assert a == again


def test_negative_exponents_wrap():
    # zeta^-1 = zeta^{n-1} before reduction
    assert reduce({-1: F(1)}, 4) == reduce({3: F(1)}, 4)


def test_conjugate_examples():
    assert conjugate(F(1, 2)) == F(1, 2)
    z3 = zeta(3)
    assert conjugate(z3) == zeta(3) ** 2
    assert conjugate(z3) == -1 - z3
    real = zeta(8) + zeta(8) ** 7
    assert conjugate(real) == real


def test_conjugate_is_ring_involution():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.choice([3, 4, 5, 8, 12])
        a = _random_scalar(rng, n)
        b = _random_scalar(rng, n)
        assert conjugate(conjugate(a)) == a
        assert conjugate(a + b) == conjugate(a) + conjugate(b)
        assert conjugate(a * b) == conjugate(a) * conjugate(b)
        norm = a * conjugate(a)
        assert conjugate(norm) == norm


def _random_scalar(rng, n):
    return reduce({rng.randrange(0, n): F(rng.randrange(-5, 6), rng.randrange(1, 5))
                   for _ in range(3)}, n)


def test_field_axioms_randomized():
    rng = random.Random(101)
    for _ in range(25):
        n = rng.choice([3, 4, 5, 7, 8, 9, 12])
        a = _random_scalar(rng, n)
        b = _random_scalar(rng, n)
        c = _random_scalar(rng, n)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        assert a - a == 0
        if a:
            inv = reciprocal(a)
            assert a * inv == 1
            assert reciprocal(inv) == a


def test_inverse_against_oracle():
    rng = random.Random(55)
    for _ in range(10):
        n = rng.choice([5, 8, 12])
        a = _random_scalar(rng, n)
        if not a:
            continue
        want = cyclotomic_inverse_sympy(as_dict(a, n), n)
        assert as_dict(reciprocal(a), n) == want


def test_cyclotomic_scalars_have_no_true_division():
    # reciprocal is the one exact 1/x; `/` is refused on either side
    z = zeta(5)
    for other in (z, zeta(12), 2, F(1, 3)):
        with pytest.raises(TypeError):
            z / other
        with pytest.raises(TypeError):
            other / z


def test_mixed_conductor_promotion():
    # zeta_3 * zeta_4 = zeta_12^7, computed in Q(zeta_12)
    prod = zeta(3) * zeta(4)
    assert prod == zeta(12) ** 7
    assert prod.conductor == 12
    s = zeta(3) + zeta(6)
    # zeta_6 = 1 + zeta_3 (both primitive 6th/3rd roots live in conductor 6)
    want = reduce_cyclotomic_sympy({2: F(1), 1: F(1)}, 6)  # zeta_6^2 = zeta_3
    assert as_dict(s.at_conductor(6)) == want


def test_conductor_past_the_cap_is_refused():
    assert zeta(MAX_CONDUCTOR) ** MAX_CONDUCTOR == 1
    for n in (MAX_CONDUCTOR + 1, 4000, 1000003):
        with pytest.raises(CapExceeded) as err:
            zeta(n)
        assert (err.value.bound, err.value.minimal) == ("conductor", n)
    # an lcm promotion past the cap is refused the same way
    with pytest.raises(CapExceeded, match="conductor 1080 "):
        zeta(40) * zeta(27)
    with pytest.raises(CapExceeded, match="conductor 1080 "):
        zeta(40) + zeta(27)


def test_rational_interop_and_shrink():
    # a rational-valued result leaves CyclotomicScalar for the rational form
    a = zeta(4) * zeta(4) * zeta(4) * zeta(4)
    assert a == 1 and type(a) is int
    b = zeta(8) ** 4 + F(3, 2)  # -1 + 3/2
    assert b == F(1, 2) and type(b) is F
    assert as_fraction(b) == F(1, 2)
    c = 2 - zeta(3) - zeta(3) ** 2  # 2 + 1 = 3
    assert c == 3 and type(c) is int
    d = F(1, 3) + zeta(3) - zeta(3)
    assert d == F(1, 3) and type(d) is F


def test_as_fraction():
    assert as_fraction(reduce({}, 1)) == 0
    assert as_fraction(3) == F(3) and type(as_fraction(3)) is F
    assert as_fraction(F(-3, 4)) == F(-3, 4)
    got = as_fraction(zeta(8) ** 4 + F(3, 2))
    assert got == F(1, 2) and type(got) is F
    with pytest.raises(NotRational):
        as_fraction(zeta(3))
    with pytest.raises(NotRational):
        # real but irrational: zeta_8 + zeta_8^-1 = sqrt(2)
        as_fraction(zeta(8) + zeta(8) ** 7)


def test_power_and_negative_power():
    z = zeta(5)
    assert z ** 0 == 1
    assert z ** 5 == 1
    assert z ** -1 == z ** 4
    assert (1 + z) ** 2 == 1 + 2 * z + z * z


def test_serialization_round_trip():
    assert scalar_str(F(3)) == "3/1"
    assert scalar_str(F(-3, 4)) == "-3/4"
    assert parse_scalar("-3/4") == F(-3, 4)
    assert parse_scalar("7") == F(7)
    a = zeta(8) + zeta(8) ** 3 * F(1, 2)
    s = scalar_str(a)
    assert s == "cyclo(8; 1:1/1, 3:1/2)"
    back = parse_scalar(s)
    assert back == a
    # rational-valued cyclotomic serializes as plain rational
    assert scalar_str(zeta(3) + zeta(3) ** 2) == "-1/1"
    rng = random.Random(9)
    for _ in range(15):
        x = _random_scalar(rng, rng.choice([1, 3, 8, 12]))
        assert parse_scalar(scalar_str(x)) == x


def test_equality_across_conductors():
    a = zeta(3).at_conductor(12)
    assert a == zeta(3)
    assert zeta(2) == -1
    assert zeta(1) == 1
    assert not (zeta(3) == zeta(4))


def test_key_is_canonical_at_fixed_conductor():
    a = (zeta(5) + 1) * (zeta(5) - 1)  # zeta^2 - 1
    b = zeta(5) ** 2 - 1
    assert a.key() == b.key()
    r = zeta(3) + zeta(3) ** 2 + F(3, 2)  # = 1/2, leaves the type
    assert r == F(1, 2) and type(r) is F
