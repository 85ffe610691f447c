"""Sparse term maps: multivariate polynomials and the shared element core.

Polynomials are {exponent tuple: scalar} dicts, used for S(h*) with its
W-action (linear substitution), fundamental invariants, and induced
matrices on symmetric and exterior powers.  Elements of H, C(V), H (x) C(V)
and the central class functions are Terms: the same kind of map, tied to
the algebra, family or group its keys belong to.  Zero coefficients are
always stripped, so dict equality is equality.
"""

from fractions import Fraction
from itertools import combinations, permutations


def acc(d, key, val):
    """Add val to d[key] in place, dropping the key when the sum is zero.
    A sum stays in the rational form: an integral Fraction is stored as
    its int (scalars.rational, inlined on this hot path)."""
    s = d.get(key)
    s = val if s is None else s + val
    if s:
        if type(s) is Fraction and s.denominator == 1:
            s = s.numerator
        d[key] = s
    else:
        d.pop(key, None)


class Terms:
    """A sparse linear combination {key: nonzero coefficient} over owners.

    The owners are what the keys are relative to (an algebra, a form
    family, a group).  A subclass names them in its __slots__ and is built
    as Cls(*owners, terms).  Linear arithmetic and equality live here and
    refuse to mix owners; a subclass supplies its product __mul__, which
    also takes right scalar multiples through _scaled.
    """

    __slots__ = ("terms",)
    __hash__ = None
    _over = "owners"   # what the owners are, for the mixing error

    def __init__(self, *owners_and_terms):
        for name, value in zip(self.__slots__, owners_and_terms):
            setattr(self, name, value)
        self.terms = {k: c for k, c in owners_and_terms[-1].items() if c}

    def _like(self, terms):
        """A new element over self's owners; terms must hold no zeros."""
        new = object.__new__(type(self))
        for name in self.__slots__:
            setattr(new, name, getattr(self, name))
        new.terms = terms
        return new

    def _check(self, other):
        for name in self.__slots__:
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine is not theirs and mine != theirs:
                raise ValueError("elements of different " + self._over)

    def _scaled(self, c):
        return self._like({k: c * v for k, v in self.terms.items()} if c
                          else {})

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            acc(out, k, c)
        return self._like(out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __rmul__(self, c):
        return self._scaled(c)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        return self.terms == other.terms


def p_add(a, b):
    out = dict(a)
    for e, c in b.items():
        acc(out, e, c)
    return out


def p_scale(c, a):
    if not c:
        return {}
    return {e: c * v for e, v in a.items()}


def p_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            acc(out, tuple(i + j for i, j in zip(e1, e2)), c1 * c2)
    return out


def partial(p, i):
    out = {}
    for e, c in p.items():
        if e[i]:
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = c * e[i]
    return out


def total_degree(p):
    return max((sum(e) for e in p), default=0)


def substitute_linear(p, B):
    """Apply x_j -> sum_i B[i][j] x_i (columns of B are variable images)."""
    n = len(B)
    images = [{} for _ in range(n)]
    for j in range(n):
        for i in range(n):
            if B[i][j]:
                images[j][tuple(1 if k == i else 0 for k in range(n))] = B[i][j]
    out = {}
    cache = {}
    for e, c in p.items():
        if e in cache:
            term = cache[e]
        else:
            term = {tuple([0] * n): 1}
            for j, k in enumerate(e):
                for _ in range(k):
                    term = p_mul(term, images[j])
            cache[e] = term
        out = p_add(out, p_scale(c, term))
    return out


def monomials(n, d):
    """Exponent tuples of total degree exactly d, sorted."""
    out = []

    def rec(prefix, left):
        if len(prefix) == n - 1:
            out.append(tuple(prefix) + (left,))
            return
        for k in range(left + 1):
            rec(prefix + [k], left - k)

    if n == 0:
        return [()] if d == 0 else []
    rec([], d)
    out.sort()
    return out


def to_vector(p, monos):
    return [p.get(m, 0) for m in monos]


def from_vector(v, monos):
    return {m: c for m, c in zip(monos, v) if c}


def action_matrix_on_degree(B, n, d):
    """Matrix of substitute_linear(-, B) on the monomial basis of S^d."""
    monos = monomials(n, d)
    cols = []
    for m in monos:
        img = substitute_linear({m: 1}, B)
        cols.append(to_vector(img, monos))
    return [list(row) for row in zip(*cols)]


def det(a):
    """Exact determinant by cofactor expansion; entries are scalars."""
    n = len(a)
    if n == 0:
        return 1
    if n == 1:
        return a[0][0]
    total = 0
    for perm in permutations(range(n)):
        sign = _perm_sign(perm)
        prod = sign
        for i, j in enumerate(perm):
            prod = prod * a[i][j]
            if not prod:
                break
        total = total + prod
    return total


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def det_poly(a):
    """Determinant of a matrix of polynomials."""
    n = len(a)
    total = {}
    for perm in permutations(range(n)):
        sign = _perm_sign(perm)
        prod = {tuple([0] * _nvars(a)): sign}
        for i, j in enumerate(perm):
            prod = p_mul(prod, a[i][j])
            if not prod:
                break
        total = p_add(total, prod)
    return total


def _nvars(a):
    for row in a:
        for p in row:
            for e in p:
                return len(e)
    return 0


def wedge_matrix(A, l):
    """Matrix of the induced map on the l-th exterior power.

    Rows and columns are indexed by sorted l-subsets of {0..n-1} in
    lexicographic order; the entry is the corresponding minor of A.
    """
    n = len(A)
    subsets = list(combinations(range(n), l))
    out = []
    for rows in subsets:
        out_row = []
        for cols in subsets:
            minor = [[A[i][j] for j in cols] for i in rows]
            out_row.append(det(minor))
        out.append(out_row)
    return out
