"""Clifford algebras C(V), the spin module on the exterior algebra of h,
Chevalley lifts of skew forms, and the pin-cover elements tau_w.

Elements are sparse maps from square-free ordered generator monomials to
scalars.  The defining relation is v v' + v' v = -2 <v, v'> for the symmetric
form given by the algebra's Gram matrix.  The standard polarized algebra on
V = h + h* uses the interleaved generator order x1 < y1 < ... < xn < yn with
<x_i, y_j> = delta_ij and both halves isotropic; a general symmetric Gram
matrix is supported for orthogonal-space presets.

The pin lift tau_w is checked once per generator (pin_cover_holds); W then
acts on C(V) through w itself and on wedge^l(h) as wedge^l(w).
"""

import math
from functools import lru_cache

from . import linalg, poly
from .poly import Terms, acc
from .scalars import rational, reciprocal, scalar_str


class CliffordAlgebra:
    def __init__(self, gram, labels=None):
        self.ngens = len(gram)
        self.gram = gram
        if labels is None:
            labels = [f"e{i}" for i in range(self.ngens)]
        self.labels = labels
        self._gram_inv = None
        # products of two monomials, read by H (x) C(V) products
        self._units = {}

    def __eq__(self, other):
        # the algebra is its form; labels only name the generators
        if not isinstance(other, CliffordAlgebra):
            return NotImplemented
        return self is other or self.gram == other.gram

    def __hash__(self):
        return hash(self.ngens)

    def gram_inverse(self):
        if self._gram_inv is None:
            self._gram_inv = linalg.inverse(self.gram)
        return self._gram_inv

    # -- constructors

    def zero(self):
        return CliffordElement(self, {})

    def one(self):
        return CliffordElement(self, {(): 1})

    def scalar(self, c):
        return CliffordElement(self, {(): c})

    def gen(self, i):
        return CliffordElement(self, {(i,): 1})

    def vector(self, coords, offset=0, step=1):
        """sum_i coords[i] * gen(offset + step*i)."""
        return CliffordElement(self, {(offset + step * i,): c
                                      for i, c in enumerate(coords)})

    # -- core rewriting

    def _insert(self, mono, g, coeff, out):
        """Accumulate mono * gen(g) into out (canonical monomials)."""
        m = list(mono)
        i = len(m)
        sign = coeff
        gram = self.gram
        while i > 0 and m[i - 1] > g:
            cross = gram[m[i - 1]][g]
            if cross:
                acc(out, tuple(m[:i - 1] + m[i:]), -2 * cross * sign)
            sign = -sign
            i -= 1
        if i > 0 and m[i - 1] == g:
            diag = gram[g][g]
            if diag:
                acc(out, tuple(m[:i - 1] + m[i:]), -diag * sign)
        else:
            acc(out, tuple(m[:i] + [g] + m[i:]), sign)

    def _times_gen_sequence(self, terms, gens_seq):
        cur = dict(terms)
        for g in gens_seq:
            nxt = {}
            for mono, coeff in cur.items():
                self._insert(mono, g, coeff, nxt)
            cur = nxt
        return cur

    def _unit_product(self, m1, m2):
        """Canonical form of the product of monomials m1 and m2 as a
        memoised tuple of (monomial, coefficient) pairs."""
        got = self._units.get((m1, m2))
        if got is None:
            got = self._units[(m1, m2)] = tuple(
                self._times_gen_sequence({m1: 1}, m2).items())
        return got

    def _mul_terms(self, aterms, bterms):
        out = {}
        for mb, cb in bterms.items():
            partial = self._times_gen_sequence(
                {ma: ca * cb for ma, ca in aterms.items()}, mb)
            for mono, coeff in partial.items():
                acc(out, mono, coeff)
        return out


class CliffordElement(Terms):
    __slots__ = ("algebra",)
    _over = "Clifford algebras"

    def __mul__(self, other):
        if not isinstance(other, CliffordElement):
            return self._scaled(other)
        self._check(other)
        return CliffordElement(
            self.algebra, self.algebra._mul_terms(self.terms, other.terms))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=lambda m: (len(m), m)):
            c = self.terms[mono]
            word = " ".join(self.algebra.labels[g] for g in mono) or "1"
            parts.append(f"({scalar_str(c)}) {word}")
        return " + ".join(parts)

    __repr__ = __str__


# --------------------------------------------------------------------------


@lru_cache(maxsize=None)
def polarized_algebra(n: int) -> CliffordAlgebra:
    """C(h + h*) on 2n generators x1,y1,...,xn,yn with <x_i,y_j> = delta."""
    gram = [[0] * (2 * n) for _ in range(2 * n)]
    labels = []
    for i in range(n):
        gram[2 * i][2 * i + 1] = 1
        gram[2 * i + 1][2 * i] = 1
        labels += [f"x{i + 1}", f"y{i + 1}"]
    return CliffordAlgebra(gram, labels)


def chevalley_lift(form, alg: CliffordAlgebra) -> CliffordElement:
    """kappa = sum_{i,j} a(v_i, v^j) v^i v_j for a skew matrix on the
    generator basis; dual bases are taken against the algebra's Gram form."""
    n = alg.ngens
    ginv = alg.gram_inverse()
    k = linalg.mat_mul(ginv, linalg.mat_mul(form, ginv))
    out = alg.zero()
    for p in range(n):
        for q in range(n):
            if k[p][q]:
                out = out + alg.scalar(k[p][q]) * alg.gen(p) * alg.gen(q)
    return out


# --------------------------------------------------------------------------
# spin module S = wedge algebra of h


@lru_cache(maxsize=None)
def spin_basis(n: int):
    """Subsets of {0..n-1} ordered by (wedge degree, lexicographic)."""
    basis = []
    for mask in range(2 ** n):
        basis.append(tuple(i for i in range(n) if mask & (1 << i)))
    basis.sort(key=lambda t: (len(t), t))
    return basis


@lru_cache(maxsize=None)
def _spin_generator_matrices(n: int):
    basis = spin_basis(n)
    index = {b: k for k, b in enumerate(basis)}
    dim = len(basis)
    mats = []
    for g in range(2 * n):
        i = g // 2
        m = [[0] * dim for _ in range(dim)]
        for col, I in enumerate(basis):
            if g % 2 == 0:
                # x_i: contraction, 1-based position sign, factor 2
                if i in I:
                    p = I.index(i) + 1
                    target = tuple(j for j in I if j != i)
                    m[index[target]][col] = 2 * (-1) ** p
            else:
                # y_i: wedge from the left
                if i not in I:
                    smaller = sum(1 for j in I if j < i)
                    target = tuple(sorted(I + (i,)))
                    m[index[target]][col] = (-1) ** smaller
        mats.append(m)
    return mats


def spin_action(a: CliffordElement, alg: CliffordAlgebra):
    """2^n x 2^n matrix of a on the spin module, in the rational form;
    alg must be polarized."""
    n = alg.ngens // 2
    if alg.gram != polarized_algebra(n).gram:
        raise ValueError("spin module needs h + h*")
    mats = _spin_generator_matrices(n)
    dim = 2 ** n
    out = [[0] * dim for _ in range(dim)]
    for mono, c in a.terms.items():
        m = None
        for g in mono:
            m = mats[g] if m is None else linalg.mat_mul(m, mats[g])
        if m is None:
            for i in range(dim):
                out[i][i] = out[i][i] + c
        else:
            for i in range(dim):
                for j in range(dim):
                    if m[i][j]:
                        out[i][j] = out[i][j] + c * m[i][j]
    return [[rational(x) for x in row] for row in out]


# --------------------------------------------------------------------------
# pin cover


def _reflection_factor(r, alg: CliffordAlgebra):
    """(mu, A) with tau_s = 1 + mu A for A = alpha^v alpha and
    mu = (1 - lambda_s)/(2 <alpha^v, alpha>)."""
    pairing = 0
    for a, b in zip(r.alpha_check, r.alpha):
        pairing = pairing + a * b
    return (rational((1 - r.lam) * reciprocal(2 * pairing)),
            alg.vector(r.alpha_check, offset=1, step=2)
            * alg.vector(r.alpha, offset=0, step=2))


def tau_reflection(r, alg: CliffordAlgebra) -> CliffordElement:
    """tau_s = 1 + mu A (see _reflection_factor)."""
    mu, a = _reflection_factor(r, alg)
    return alg.scalar(mu) * a + alg.one()


@lru_cache(maxsize=None)
def _pin_taus(group):
    alg = polarized_algebra(group.n)
    return group.along_words(
        [tau_reflection(group.reflection_at(gi), alg)
         for gi in group.generator_indices],
        lambda parent, s: parent * s, alg.one())


def pin_tau(w_index, group) -> CliffordElement:
    """tau_w in C(h + h*): the product of the reflection factors tau_s
    along the group's BFS word for w, formed once per group."""
    taus = _pin_taus(group)
    # a bool is an int, and 1.0 equals 1: only an element index is taken
    if type(w_index) is not int or not 0 <= w_index < len(taus):
        raise ValueError(f"no reflection word for {w_index!r}")
    return taus[w_index]


def spin_block(mat, n, lrow, lcol):
    """The wedge^lrow x wedge^lcol block of a spin-module matrix; the spin
    basis runs by wedge degree (spin_basis)."""
    ro = sum(math.comb(n, l) for l in range(lrow))
    co = sum(math.comb(n, l) for l in range(lcol))
    return [row[co:co + math.comb(n, lcol)]
            for row in mat[ro:ro + math.comb(n, lrow)]]


@lru_cache(maxsize=None)
def pin_cover_holds(group) -> bool:
    """Whether, for every generator s, tau_s v = s(v) tau_s for the 2n
    generators v of V and spin_action(tau_s) is block-diagonal with blocks
    wedge^l(s).  Both sides are multiplicative along the words, so then
    tau_w conjugates V as w does and acts on wedge^l(h) as wedge^l(w)."""
    n, alg = group.n, polarized_algebra(group.n)
    for s in group.generator_indices:
        tau = tau_reflection(group.reflection_at(s), alg)
        # generator 2i + off is x_i in h* (off = 0) or y_i in h (off = 1)
        if any(tau * alg.gen(2 * i + off)
               != alg.vector([row[i] for row in m], off, 2) * tau
               for off, m in ((0, group.h_star_matrix(s)),
                              (1, group.elements[s])) for i in range(n)):
            return False
        spin = spin_action(tau, alg)
        for a in range(n + 1):
            for b in range(n + 1):
                block = spin_block(spin, n, a, b)
                if (block != poly.wedge_matrix(group.elements[s], a)
                        if a == b else any(map(any, block))):
                    return False
    return True


# --------------------------------------------------------------------------
# serialization


def element_to_data(a: CliffordElement):
    items = []
    for mono in sorted(a.terms, key=lambda m: (len(m), m)):
        items.append({"monomial": [a.algebra.labels[g] for g in mono],
                      "coeff": scalar_str(a.terms[mono])})
    return items
