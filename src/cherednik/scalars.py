"""Exact arithmetic in cyclotomic fields Q(zeta_N).

The rational form: a rational value is an int when it is integral and a
Fraction only when its denominator is > 1 (never a float, never a
Fraction with denominator 1); rational() puts a value in that form.  It
holds for parsed scalars and reciprocal() here, for the sums of poly.acc,
for the results of linalg's rref, nullspace and inverse, and for the
catalogue's group data, and for every cyclotomic result whose value is
rational.  Matrix products (linalg.mat_mul, add_kron) skip the
check on their hot paths, so module matrices may hold integral Fractions;
rref accepts them.  Python's int does the same arithmetic as Fraction in
C, and most rationals met here (group matrices, unit coefficients, c = 1
or 2) are integers.

An element is stored in the power basis modulo the N-th cyclotomic
polynomial, as a dense tuple of deg Phi_N integer numerators (zeros
included) over one positive common denominator.  Phi_N is monic over Z,
so reduction, products, sums and field maps run on Python ints with one
gcd normalisation per result; nothing here rounds and no Fraction is
built in the arithmetic itself.  A result whose value is rational leaves
the type: it comes back in the rational form, so a CyclotomicScalar is
never rational (its conductor is > 2 and it is never zero), and a
computation whose answer happens to be rational meets the integer paths
of linalg and serializes as p/q.

The identity rule: a scalar is immutable and always canonical, so x * 1,
1 * x, x + 0 and 0 + x (with the int 1 and 0) return x itself, and x * -1
returns -x; none of them normalises.

Mixed-conductor arithmetic promotes both operands to the lcm of their
conductors via zeta_N = zeta_M^(M/N).  Division is x * reciprocal(y):
reciprocal is the one exact 1/x, and a CyclotomicScalar has no `/`, so
x / y with a CyclotomicScalar on either side raises TypeError.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


# The package's failure rule: a refused argument raises ValueError, an
# exceeded cap raises CapExceeded (a ValueError naming the bound it needs),
# and a failed identity raises AssertionError explicitly (so that it
# survives `python -O`).  These are the package's only exception classes.


class CapExceeded(ValueError):
    """A computation needs more than a cap allows: `bound` names the cap
    and `minimal` is the least value that suffices, or None when that is
    unknown."""

    def __init__(self, message, bound, minimal=None):
        super().__init__(message)
        self.bound = bound
        self.minimal = minimal


class NotRational(ValueError):
    """A rational value is required but the scalar has irrational
    content."""


# --- cyclotomic polynomials -------------------------------------------------

def _poly_divide_exact(num, den):
    # exact division of integer coefficient lists (lowest degree first)
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1] // den[-1]
        q[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    if any(num):
        raise AssertionError("non-exact cyclotomic division")
    return q


@lru_cache(maxsize=None)
def _phi_coeff_list(n: int):
    # the integer coefficients of Phi_n, lowest degree first, via
    # x^n - 1 = prod_{d | n} Phi_d
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divide_exact(poly, _phi_coeff_list(d))
    return tuple(poly)


# The reduction table costs O(n phi(n)) time and memory (at n = 1000003 it
# never finishes), so a conductor past this cap is refused at once.
MAX_CONDUCTOR = 1000


@lru_cache(maxsize=None)
def _reduction_rows(n: int):
    """(deg Phi_n, rows): rows[e] is zeta_n^e in the power basis as integer
    (k, c) pairs, for 0 <= e < 2n (products of reduced elements stay below
    2 deg Phi_n - 1).  Every cyclotomic operation reads it, lcm promotions
    included; CapExceeded (bound "conductor") past MAX_CONDUCTOR."""
    if n > MAX_CONDUCTOR:
        raise CapExceeded(f"conductor {n} exceeds the cap {MAX_CONDUCTOR}",
                          "conductor", n)
    phi = _phi_coeff_list(n)
    deg = len(phi) - 1
    vec = [0] * deg
    vec[0] = 1
    rows = []
    for _ in range(2 * n):
        rows.append(tuple((k, c) for k, c in enumerate(vec) if c))
        top = vec[-1]
        vec = [0] + vec[:-1]
        if top:
            for k in range(deg):
                vec[k] -= top * phi[k]
    return deg, tuple(rows)


def _fold(items, n):
    """sum c * zeta_n^e over (e, c) pairs, 0 <= e < 2n, as a list of deg
    Phi_n integer coefficients."""
    deg, rows = _reduction_rows(n)
    out = [0] * deg
    for e, c in items:
        if e < deg:
            out[e] += c
        else:
            for k, r in rows[e]:
                out[k] += c * r
    return out


def _lift(num, n, m):
    """Integer numerators at conductor n written at conductor m (n | m)."""
    k = m // n
    return tuple(_fold([(e * k, c) for e, c in enumerate(num) if c], m))


def _mul_vals(a, b, n):
    """Integer numerators of a * b at conductor n, as a list; a and b list
    numerators by exponent (shorter than deg Phi_n is allowed)."""
    deg, rows = _reduction_rows(n)
    prod = [0] * (2 * deg - 1)
    b = [(e2, c2) for e2, c2 in enumerate(b) if c2]
    for e1, c1 in enumerate(a):
        if c1:
            for e2, c2 in b:
                prod[e1 + e2] += c1 * c2
    out = prod[:deg]
    for e in range(deg, 2 * deg - 1):
        v = prod[e]
        if v:
            for k, r in rows[e]:
                out[k] += v * r
    return out


def _galois(num, n, k):
    """Numerators of sigma_k(x) for sigma_k: zeta_n -> zeta_n^k."""
    return _fold([(e * k % n, c) for e, c in enumerate(num) if c], n)


# --- the scalar type --------------------------------------------------------

_new = object.__new__


def _make(n, num, den):
    # trusted constructor: the fields are already canonical
    out = _new(CyclotomicScalar)
    _SET_N(out, n)
    _SET_NUM(out, num)
    _SET_DEN(out, den)
    return out


def _canon(n, vals, den):
    """The scalar sum_e vals[e] zeta_n^e / den, in canonical form: in the
    rational form when only vals[0] is nonzero."""
    g = gcd(den, *vals)
    if not any(vals[1:]):
        p, q = vals[0] // g, den // g
        return Fraction(p, q) if q != 1 else p
    # most results are already reduced: skip the division pass
    num = tuple(v // g for v in vals) if g != 1 else tuple(vals)
    return _make(n, num, den // g)


def _scale(x, p, q):
    """x * p / q for integers p and q > 0; 0 when p is."""
    if not p:
        return 0
    num = [v * p for v in x.num]
    den = x.den * q
    g = gcd(den, *num)
    return _make(x.conductor, tuple(v // g for v in num) if g != 1
                 else tuple(num), den // g)


def _parts(v):
    """(conductor, numerators, denominator) of a scalar, int or Fraction;
    None for anything else."""
    if isinstance(v, CyclotomicScalar):
        return v.conductor, v.num, v.den
    if isinstance(v, int):
        return 1, (v,), 1
    if isinstance(v, Fraction):
        return 1, (v.numerator,), v.denominator
    return None


class CyclotomicScalar:
    """An irrational element of Q(zeta_N), reduced modulo Phi_N.

    conductor: the N of the ambient field, > 2 (at_conductor writes a
        value at a larger N on request).
    num: tuple of deg Phi_N ints, zeros included, num[e] the numerator
        of zeta_N^e; some entry past index 0 is nonzero.
    den: positive int with gcd(den, *num) == 1.
    The value is sum_e num[e] * zeta_N^e / den.  Values come from reduce
    and zeta; an operation whose value is rational returns it in the
    rational form instead.  There is no `/`: reciprocal is the one exact
    1/x, so x / y is a TypeError and x * reciprocal(y) divides.
    """

    __slots__ = ("conductor", "num", "den")
    __hash__ = None  # use .key() where a hashable form is needed

    def __setattr__(self, *a):
        raise AttributeError("CyclotomicScalar is immutable")

    # -- representation changes

    def at_conductor(self, m: int) -> "CyclotomicScalar":
        """The same value written in Q(zeta_m); conductor must divide m."""
        n = self.conductor
        if m == n:
            return self
        if m % n:
            raise ValueError(f"conductor {n} does not divide {m}")
        # Z[zeta_m] meets Q(zeta_n) in Z[zeta_n], so den stays reduced
        return _make(m, _lift(self.num, n, m), self.den)

    # -- arithmetic

    def __neg__(self):
        return _make(self.conductor, tuple(-v for v in self.num), self.den)

    def __add__(self, other):
        if type(other) is int and not other:
            return self  # x + 0 is x: the scalar is immutable and canonical
        o = _parts(other)
        if o is None:
            return NotImplemented
        nb, b, db = o
        n, a, da = self.conductor, self.num, self.den
        if nb != n and nb != 1:
            m = lcm(n, nb)
            a, b = _lift(a, n, m), _lift(b, nb, m)
            n = m
        g = gcd(da, db)
        ma, mb = db // g, da // g
        vals = [v * ma for v in a] if ma != 1 else list(a)
        for e, v in enumerate(b):
            if v:
                vals[e] += v * mb
        return _canon(n, vals, da * ma)

    __radd__ = __add__

    def __sub__(self, other):
        if _parts(other) is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if _parts(other) is None:
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, CyclotomicScalar):
            n, nb = self.conductor, other.conductor
            a, b = self.num, other.num
            if n != nb:
                m = lcm(n, nb)
                a, b = _lift(a, n, m), _lift(b, nb, m)
                n = m
            return _canon(n, _mul_vals(a, b, n), self.den * other.den)
        if isinstance(other, int):
            if other == 1:
                return self
            if other == -1:
                return -self
            return _scale(self, other, 1)
        if isinstance(other, Fraction):
            return _scale(self, other.numerator, other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicScalar":
        n, num, den = self.conductor, self.num, self.den
        # x = P / den with P in Z[zeta_n]; Y = prod_{k != 1} sigma_k(P)
        # makes P * Y = N(P) an integer, positive since Q(zeta_n) is totally
        # complex for n > 2, so 1/x = den * Y / N(P)
        y = (1,)
        for k in range(2, n):
            if gcd(k, n) == 1:
                y = _mul_vals(y, _galois(num, n, k), n)
        norm = _mul_vals(num, y, n)
        if norm[0] < 0 or any(norm[1:]):
            raise AssertionError("cyclotomic norm not a positive rational")
        if not norm[0]:
            raise AssertionError("cyclotomic polynomial not coprime")
        return _canon(n, [den * v for v in y], norm[0])

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = 1
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if type(other) is int:
            return False  # a CyclotomicScalar is never rational
        o = _parts(other)
        if o is None:
            return NotImplemented
        nb, b, db = o
        n = self.conductor
        if nb == 1 or db != self.den:
            return False
        if nb == n:
            return self.num == b
        m = lcm(n, nb)
        return _lift(self.num, n, m) == _lift(b, nb, m)

    def __ne__(self, other):
        r = self.__eq__(other)
        return r if r is NotImplemented else not r

    # -- structure maps and queries

    def conjugate(self) -> "CyclotomicScalar":
        n = self.conductor
        return _canon(n, _galois(self.num, n, n - 1), self.den)

    def key(self):
        """Canonical hashable form; equal scalars at equal conductor share it."""
        den = self.den
        return (self.conductor,
                tuple((e, v // g, den // g) for e, v, g in
                      ((e, v, gcd(v, den))
                       for e, v in enumerate(self.num) if v)))

    def __repr__(self):
        return scalar_str(self)


_SET_N = CyclotomicScalar.conductor.__set__
_SET_NUM = CyclotomicScalar.num.__set__
_SET_DEN = CyclotomicScalar.den.__set__


# --- module-level operations ------------------------------------------------

def reduce(poly: dict, n: int):
    """Reduce sum_e poly[e] * zeta_n^e into canonical form: a
    CyclotomicScalar, or the rational form when the value is rational.

    Exponents may be any integers (zeta_n^n = 1 is applied first);
    coefficients are ints or Fractions.
    """
    if n < 1:
        raise ValueError("conductor must be >= 1")
    acc = {}
    for e, c in poly.items():
        e %= n
        acc[e] = acc.get(e, 0) + Fraction(c)
    den = lcm(*(c.denominator for c in acc.values()))
    return _canon(n, _fold([(e, c.numerator * (den // c.denominator))
                            for e, c in acc.items()], n), den)


def zeta(n: int, power: int = 1):
    """The root of unity zeta_n^power (an int when it is 1 or -1)."""
    return reduce({power: 1}, n)


def conjugate(a):
    """Complex conjugation zeta -> zeta^-1; fixes rationals."""
    if isinstance(a, (int, Fraction)):
        return a
    return a.conjugate()


def rational(x):
    """x in the rational form: an integral Fraction becomes its int; ints,
    other Fractions and CyclotomicScalars are returned unchanged."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def reciprocal(x):
    """Exact 1/x of an int, Fraction or CyclotomicScalar, in the rational
    form for rationals: 1/-1 is -1, 1/2 is Fraction(1, 2); never a float."""
    if isinstance(x, CyclotomicScalar):
        return x.inverse()
    if type(x) is int:
        return x if x == 1 or x == -1 else Fraction(1, x)
    x = Fraction(x)
    return rational(Fraction(x.denominator, x.numerator))


def as_fraction(x) -> Fraction:
    """The Fraction value of an int or Fraction; raises NotRational for a
    CyclotomicScalar, which is never rational."""
    if isinstance(x, CyclotomicScalar):
        raise NotRational("irrational scalar in rational context: "
                          f"{scalar_str(x)}")
    return Fraction(x)


# --- exact sign of the real part --------------------------------------------

def _atan_inv_bounds(k, eps):
    """Rationals lo <= arctan(1/k) <= hi with hi - lo < eps, for k >= 2:
    the series alternates with falling terms, so consecutive partial sums
    bracket it."""
    s, j = Fraction(0), 0
    while True:
        term = Fraction(1, (2 * j + 1) * k ** (2 * j + 1))
        nxt = s + term if j % 2 == 0 else s - term
        if term < eps and j:
            return min(s, nxt), max(s, nxt)
        s, j = nxt, j + 1


def _pi_bounds(eps):
    # Machin: pi = 16 arctan(1/5) - 4 arctan(1/239)
    lo5, hi5 = _atan_inv_bounds(5, eps / 32)
    lo239, hi239 = _atan_inv_bounds(239, eps / 32)
    return 16 * lo5 - 4 * hi239, 16 * hi5 - 4 * lo239


def _cos_bounds(r, pi_lo, pi_hi, eps):
    """Rationals enclosing cos(pi * r) for rational 0 <= r <= 1, given an
    enclosure of pi: |cos s - cos t| <= |s - t|, and the Taylor remainder
    of cos at t after the t^(2K-2) term is at most t^(2K) / (2K)!."""
    lo, hi = r * pi_lo, r * pi_hi
    t, spread = (lo + hi) / 2, (hi - lo) / 2
    total, term, k = Fraction(0), Fraction(1), 0
    while abs(term) >= eps:
        total += term
        k += 1
        term = -term * t * t / ((2 * k - 1) * (2 * k))
    err = abs(term) + spread
    return total - err, total + err


def real_sign(x) -> int:
    """-1, 0 or 1: the exact sign of the real part of an int, Fraction or
    CyclotomicScalar.

    y = x + conj x = 2 Re x is tested for zero exactly; otherwise
    y * den = sum_e num[e] cos(2 pi e / N) is enclosed with rational bounds
    that are refined until they exclude 0, which happens for every nonzero
    value.
    """
    if isinstance(x, CyclotomicScalar):
        x = x + x.conjugate()
    if not isinstance(x, CyclotomicScalar):
        return (x > 0) - (x < 0)
    n = x.conductor
    eps = Fraction(1, 2 ** 16)
    while True:
        pi_lo, pi_hi = _pi_bounds(eps)
        lo = hi = 0
        for e, c in enumerate(x.num):
            if not c:
                continue
            a, b = _cos_bounds(Fraction(2 * min(e, n - e), n), pi_lo, pi_hi,
                               eps)
            if c > 0:
                lo, hi = lo + c * a, hi + c * b
            else:
                lo, hi = lo + c * b, hi + c * a
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        eps *= eps


# --- string forms -----------------------------------------------------------

def scalar_str(a) -> str:
    """'p/q' for rationals, 'cyclo(N; e:p/q, ...)' otherwise."""
    if isinstance(a, CyclotomicScalar):
        parts = ", ".join(f"{e}:{p}/{q}" for e, p, q in a.key()[1])
        return f"cyclo({a.conductor}; {parts})"
    a = as_fraction(a)
    return f"{a.numerator}/{a.denominator}"


def scalar_map_str(m) -> dict:
    """{name: scalar_str(value)} over the sorted items of m."""
    return {name: scalar_str(v) for name, v in sorted(m.items())}


_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
_CYCLO_RE = re.compile(r"cyclo\(\s*([0-9]+)\s*;(.*)\)")
_TERM_RE = re.compile(r"\s*([0-9]+)\s*:\s*(\S+)\s*")


def _malformed(whole):
    return ValueError(f"malformed scalar {whole!r}: want p/q, an integer "
                      f"or cyclo(N; e:p/q, ...)")


def _parse_rational(text, whole):
    m = _RATIONAL_RE.fullmatch(text)
    if not m:
        raise _malformed(whole)
    den = int(m.group(2) or 1)
    if not den:
        raise ValueError(f"zero denominator in scalar {whole!r}")
    return rational(Fraction(int(m.group(1)), den))


def parse_scalar(s: str):
    """Inverse of scalar_str; also accepts bare integers like '7'.

    The grammar is exactly [+-]digits[/digits], or cyclo(N; e:p/q, ...)
    with N >= 1, distinct exponents e and rational coefficients of that
    form; anything else, a zero denominator included, raises ValueError
    naming the input.  Rationals come back in the rational form."""
    s = s.strip()
    m = _CYCLO_RE.fullmatch(s)
    if not m:
        return _parse_rational(s, s)
    n = int(m.group(1))
    if n < 1:
        raise ValueError(f"conductor must be >= 1 in scalar {s!r}")
    coeffs = {}
    body = m.group(2).strip()
    if body:
        for part in body.split(","):
            term = _TERM_RE.fullmatch(part)
            if not term:
                raise _malformed(s)
            e = int(term.group(1))
            if e in coeffs:
                raise ValueError(f"repeated exponent {e} in scalar {s!r}")
            coeffs[e] = _parse_rational(term.group(2), s)
    return reduce(coeffs, n)
