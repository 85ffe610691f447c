"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are stored in the power basis modulo the N-th cyclotomic polynomial,
with Fraction coefficients.  All operations are exact; nothing here ever
rounds.  Rational values are automatically shrunk to conductor 1 so that a
computation whose answer happens to be rational compares equal to the plain
Fraction and serializes as one.

Mixed-conductor arithmetic promotes both operands to the lcm of their
conductors via zeta_N = zeta_M^(M/N).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache


class NotRational(ArithmeticError):
    """Raised when a rational value is required but the scalar has
    irrational content."""


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
    # Phi_n via x^n - 1 = prod_{d | n} Phi_d
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divide_exact(poly, _phi_coeff_list(d))
    return tuple(poly)


def cyclotomic_polynomial(n: int) -> dict:
    """Coefficients of Phi_n as a dict exponent -> integer."""
    if n < 1:
        raise ValueError("conductor must be >= 1")
    return {e: c for e, c in enumerate(_phi_coeff_list(n)) if c}


@lru_cache(maxsize=None)
def _reduction_rows(n: int):
    """zeta_n^e in the power basis, for e in [deg Phi_n, n)."""
    phi = _phi_coeff_list(n)
    deg = len(phi) - 1
    rows = {}
    if deg < n:
        top = {e: Fraction(-c) for e, c in enumerate(phi[:deg]) if c}
        rows[deg] = top
        for e in range(deg + 1, n):
            shifted = {}
            for k, c in rows[e - 1].items():
                if k + 1 == deg:
                    for kk, cc in top.items():
                        shifted[kk] = shifted.get(kk, Fraction(0)) + c * cc
                else:
                    shifted[k + 1] = shifted.get(k + 1, Fraction(0)) + c
            rows[e] = {k: c for k, c in shifted.items() if c}
    return deg, rows


def _reduce_dict(d, n):
    """Reduce {exponent: Fraction} with exponents in [0, n) mod Phi_n."""
    deg, rows = _reduction_rows(n)
    out = {}
    for e, c in d.items():
        if not c:
            continue
        if e < deg:
            out[e] = out.get(e, Fraction(0)) + c
        else:
            for k, cc in rows[e].items():
                out[k] = out.get(k, Fraction(0)) + c * cc
    return {e: c for e, c in out.items() if c}


# --- the scalar type --------------------------------------------------------

class CyclotomicScalar:
    """An element of Q(zeta_N), reduced modulo Phi_N.

    conductor: the N of the ambient field (1 for plain rationals).
    coeffs: dict exponent -> Fraction, exponents in [0, deg Phi_N),
        zero entries omitted.  A rational element always has conductor 1.
    """

    __slots__ = ("conductor", "coeffs")
    __hash__ = None  # use .key() where a hashable form is needed

    def __init__(self, conductor, coeffs, _reduced=False):
        if not _reduced:
            coeffs = _reduce_dict({e % conductor: Fraction(c)
                                   for e, c in coeffs.items()}, conductor)
        if conductor != 1 and all(e == 0 for e in coeffs):
            conductor = 1
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("CyclotomicScalar is immutable")

    @staticmethod
    def from_rational(q) -> "CyclotomicScalar":
        q = Fraction(q)
        return CyclotomicScalar(1, {0: q} if q else {}, _reduced=True)

    # -- representation changes

    def at_conductor(self, m: int) -> "CyclotomicScalar":
        """The same value written in Q(zeta_m); conductor must divide m."""
        n = self.conductor
        if m == n:
            return self
        if m % n:
            raise ValueError(f"conductor {n} does not divide {m}")
        k = m // n
        lifted = _reduce_dict({e * k: c for e, c in self.coeffs.items()}, m)
        out = CyclotomicScalar.__new__(CyclotomicScalar)
        object.__setattr__(out, "conductor", m)
        object.__setattr__(out, "coeffs", lifted)
        return out

    def _promote_pair(self, other):
        n = math.lcm(self.conductor, other.conductor)
        return self.at_conductor(n), other.at_conductor(n), n

    # -- coercion

    @staticmethod
    def _coerce(v):
        if isinstance(v, CyclotomicScalar):
            return v
        if isinstance(v, (int, Fraction)):
            return CyclotomicScalar.from_rational(v)
        return None

    # -- arithmetic

    def __bool__(self):
        return bool(self.coeffs)

    def __neg__(self):
        return CyclotomicScalar(self.conductor,
                                {e: -c for e, c in self.coeffs.items()},
                                _reduced=True)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, n = self._promote_pair(o)
        out = dict(a.coeffs)
        for e, c in b.coeffs.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return CyclotomicScalar(n, out, _reduced=True)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.conductor == 1:
            q = o.coeffs.get(0, Fraction(0))
            if not q:
                return _ZERO
            return CyclotomicScalar(self.conductor,
                                    {e: c * q for e, c in self.coeffs.items()},
                                    _reduced=True)
        if self.conductor == 1:
            return o * self
        a, b, n = self._promote_pair(o)
        prod = {}
        for e1, c1 in a.coeffs.items():
            for e2, c2 in b.coeffs.items():
                e = e1 + e2
                if e >= n:
                    e -= n
                prod[e] = prod.get(e, Fraction(0)) + c1 * c2
        return CyclotomicScalar(n, _reduce_dict(prod, n), _reduced=True)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicScalar":
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic scalar")
        n = self.conductor
        if n == 1:
            return CyclotomicScalar.from_rational(1 / self.coeffs[0])
        # extended Euclid in Q[x] against Phi_n; Phi_n irreducible, so the
        # gcd is a nonzero constant
        deg = max(self.coeffs)
        a = [self.coeffs.get(i, Fraction(0)) for i in range(deg + 1)]
        b = [Fraction(c) for c in _phi_coeff_list(n)]
        sa, sb = [Fraction(1)], [Fraction(0)]
        while any(b):
            q, r = _poly_divmod_q(a, b)
            a, b = b, r
            sa, sb = sb, _poly_sub(sa, _poly_mul(q, sb))
        const = a[0]
        if len(_strip(a)) != 1:
            raise AssertionError("cyclotomic polynomial not coprime")
        inv = {e: c / const for e, c in enumerate(sa) if c}
        return CyclotomicScalar(n, inv)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.conductor == 1:
            q = o.coeffs.get(0, Fraction(0))
            if not q:
                raise ZeroDivisionError("scalar division by zero")
            return CyclotomicScalar(self.conductor,
                                    {e: c / q for e, c in self.coeffs.items()},
                                    _reduced=True)
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = CyclotomicScalar.from_rational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.conductor == o.conductor:
            return self.coeffs == o.coeffs
        a, b, _ = self._promote_pair(o)
        return a.coeffs == b.coeffs

    def __ne__(self, other):
        r = self.__eq__(other)
        return r if r is NotImplemented else not r

    # -- structure maps and queries

    def conjugate(self) -> "CyclotomicScalar":
        n = self.conductor
        if n == 1:
            return self
        return CyclotomicScalar(n, {(-e) % n: c for e, c in self.coeffs.items()})

    def is_rational(self) -> bool:
        return self.conductor == 1

    def rational_value(self) -> Fraction:
        if self.conductor != 1:
            raise NotRational(f"not rational: {scalar_str(self)}")
        return self.coeffs.get(0, Fraction(0))

    def key(self):
        """Canonical hashable form; equal scalars at equal conductor share it."""
        if self.conductor == 1:
            q = self.coeffs.get(0, Fraction(0))
            return (q.numerator, q.denominator)
        return (self.conductor,
                tuple((e, c.numerator, c.denominator)
                      for e, c in sorted(self.coeffs.items())))

    def __repr__(self):
        return scalar_str(self)


_ZERO = CyclotomicScalar(1, {}, _reduced=True)


# --- rational-coefficient polynomial helpers for the inverse ----------------

def _strip(p):
    while p and not p[-1]:
        p.pop()
    return p


def _poly_divmod_q(a, b):
    a = list(a)
    b = _strip(list(b))
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    for i in range(len(a) - len(b), -1, -1):
        if i + len(b) - 1 >= len(a):
            continue
        c = a[i + len(b) - 1] / b[-1]
        if c:
            q[i] = c
            for j, d in enumerate(b):
                a[i + j] -= c * d
    return _strip(q) or [Fraction(0)], _strip(a) or [Fraction(0)]


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _strip(out) or [Fraction(0)]


def _poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return _strip(out) or [Fraction(0)]


# --- module-level operations ------------------------------------------------

def reduce(poly: dict, n: int) -> CyclotomicScalar:
    """Reduce sum_e poly[e] * zeta_n^e into canonical form.

    Exponents may be any integers (zeta_n^n = 1 is applied first).
    """
    if n < 1:
        raise ValueError("conductor must be >= 1")
    acc = {}
    for e, c in poly.items():
        e %= n
        acc[e] = acc.get(e, Fraction(0)) + Fraction(c)
    return CyclotomicScalar(n, acc)


def zeta(n: int, power: int = 1) -> CyclotomicScalar:
    """The root of unity zeta_n^power."""
    return reduce({power: Fraction(1)}, n)


def conjugate(a):
    """Complex conjugation zeta -> zeta^-1; fixes rationals."""
    if isinstance(a, (int, Fraction)):
        return a
    return a.conjugate()


def reciprocal(x):
    """Exact 1/x of an int, Fraction or CyclotomicScalar; ints give
    Fractions, never floats."""
    if isinstance(x, CyclotomicScalar):
        return x.inverse()
    return 1 / Fraction(x)


def rational_part_sign(a) -> str:
    """'negative', 'zero' or 'positive'; raises NotRational off the
    rational subfield."""
    if isinstance(a, CyclotomicScalar):
        a = a.rational_value()
    a = Fraction(a)
    if a < 0:
        return "negative"
    if a > 0:
        return "positive"
    return "zero"


# --- string forms -----------------------------------------------------------

def scalar_str(a) -> str:
    """'p/q' for rationals, 'cyclo(N; e:p/q, ...)' otherwise."""
    if isinstance(a, CyclotomicScalar):
        if a.conductor == 1:
            a = a.rational_value()
        else:
            parts = ", ".join(f"{e}:{c.numerator}/{c.denominator}"
                              for e, c in sorted(a.coeffs.items()))
            return f"cyclo({a.conductor}; {parts})"
    a = Fraction(a)
    return f"{a.numerator}/{a.denominator}"


_CYCLO_RE = re.compile(r"cyclo\((\d+);\s*(.*)\)\s*$")


def parse_scalar(s: str):
    """Inverse of scalar_str; also accepts bare integers like '7'."""
    s = s.strip()
    m = _CYCLO_RE.match(s)
    if not m:
        return Fraction(s)
    n = int(m.group(1))
    coeffs = {}
    body = m.group(2).strip()
    if body:
        for part in body.split(","):
            e, _, val = part.strip().partition(":")
            coeffs[int(e)] = Fraction(val)
    return reduce(coeffs, n)
