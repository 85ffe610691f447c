"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the library's own code paths: cyclotomic
reduction goes through sympy polynomial division, characters are checked by
brute sums over group elements, and the differential-operator model of the
t=1, c=0 rational Cherednik algebra is built directly as matrices acting on
polynomials.  The last sections keep the second constructions that the
library runs only one way: the Dirac element and the Casimir in another
basis of V, isotypic projectors summed over W, the Clifford involutions,
matrix products with every product and sum carried out, module
characters traced off the full sigma-blocks, module actions by a walk
over the straightened terms, one term at a time, and the per-element
group data (h* matrices, inverses, tau_w^-1 and the spin matrices of
tau_w) formed element by element instead of along the BFS words.  Tests
compare library output against these.  The last section holds the
canonical term lists of H (x) C(V) elements and central class functions
that tests/golden/kernel_witnesses.json stores.
"""

from fractions import Fraction

import sympy

from cherednik import linalg
from cherednik.clifford import (CliffordElement, _reflection_factor,
                                pin_tau, polarized_algebra, spin_action)
from cherednik.dirac import tensor
from cherednik.groups import check_representation, class_character
from cherednik.poly import acc, monomials, p_mul, to_vector
from cherednik.scalars import (conjugate, reciprocal, scalar_map_str,
                               scalar_str)


def reduce_cyclotomic_sympy(coeffs, n):
    """Reduce sum_e coeffs[e] * zeta_n^e modulo the n-th cyclotomic polynomial.

    Returns a dict exponent -> Fraction in the power basis of degree < phi(n).
    """
    x = sympy.Symbol("x")
    poly = sum(sympy.Rational(c.numerator, c.denominator) * x ** (e % n)
               for e, c in coeffs.items())
    phi = sympy.cyclotomic_poly(n, x)
    rem = sympy.rem(sympy.Poly(poly, x), sympy.Poly(phi, x), x)
    out = {}
    for (e,), c in sympy.Poly(rem, x).terms():
        if c != 0:
            out[e] = Fraction(int(sympy.numer(c)), int(sympy.denom(c)))
    return out


def cyclotomic_coeffs(x):
    """The value of a CyclotomicScalar as a dict exponent -> Fraction, read
    from its integer numerators and their common denominator."""
    return {e: Fraction(v, x.den) for e, v in x.num.items()}


def cyclotomic_inverse_sympy(coeffs, n):
    """Inverse of a nonzero element of Q(zeta_n), via sympy's invert."""
    x = sympy.Symbol("x")
    poly = sympy.Poly(sum(sympy.Rational(c.numerator, c.denominator) * x ** e
                          for e, c in coeffs.items()), x, domain="QQ")
    phi = sympy.Poly(sympy.cyclotomic_poly(n, x), x, domain="QQ")
    inv = sympy.invert(poly, phi)
    out = {}
    for (e,), c in sympy.Poly(inv, x, domain="QQ").terms():
        out[e] = Fraction(int(sympy.numer(c)), int(sympy.denom(c)))
    return out


def _qq_poly_at(coeffs, n, m, x):
    # sum_e coeffs[e] zeta_n^e with zeta_n = zeta_m^(m/n), as a QQ polynomial
    k = m // n
    return sympy.Poly(sum((sympy.Rational(c.numerator, c.denominator)
                           * x ** (e * k) for e, c in coeffs.items()),
                          sympy.Integer(0)), x, domain="QQ")


def _qq_dict(poly):
    out = {}
    for (e,), c in poly.terms():
        if c != 0:
            out[e] = Fraction(int(sympy.numer(c)), int(sympy.denom(c)))
    return out


def cyclotomic_binary_sympy(op, a, na, b, nb):
    """a op b for op in '+', '-', '*', '/', with a in Q(zeta_na) and b in
    Q(zeta_nb) given as dicts exponent -> Fraction.  Returns the power-basis
    dict of the result in Q(zeta_m), m = lcm(na, nb), computed in
    QQ[x] / Phi_m by sympy."""
    from math import lcm

    m = lcm(na, nb)
    x = sympy.Symbol("x")
    phi = sympy.Poly(sympy.cyclotomic_poly(m, x), x, domain="QQ")
    pa, pb = _qq_poly_at(a, na, m, x), _qq_poly_at(b, nb, m, x)
    if op == "+":
        r = pa + pb
    elif op == "-":
        r = pa - pb
    elif op == "*":
        r = pa * pb
    elif op == "/":
        r = pa * sympy.invert(pb, phi)
    else:
        raise ValueError(op)
    return _qq_dict(r.rem(phi))


def cyclotomic_conjugate_sympy(a, n):
    """Complex conjugate zeta_n -> zeta_n^-1 of a dict in Q(zeta_n)."""
    x = sympy.Symbol("x")
    phi = sympy.Poly(sympy.cyclotomic_poly(n, x), x, domain="QQ")
    flipped = {(-e) % n: c for e, c in a.items()}
    return _qq_dict(_qq_poly_at(flipped, n, n, x).rem(phi))


def cyclotomic_field_sympy(n):
    """QQ for n = 1, else sympy's number field QQ<zeta_n>, whose primitive
    element is zeta_n itself (its modulus is Phi_n)."""
    if n == 1:
        return sympy.QQ
    return sympy.QQ.algebraic_field(sympy.exp(2 * sympy.pi * sympy.I / n))


def domain_matrix_sympy(rows, ncols, n):
    """A sympy DomainMatrix over cyclotomic_field_sympy(n) from a list of
    rows of ints, Fractions or power-basis dicts exponent -> Fraction."""
    from sympy.polys.matrices import DomainMatrix

    field = cyclotomic_field_sympy(n)

    def entry(x):
        coeffs = x if isinstance(x, dict) else {0: Fraction(x)}
        coeffs = {e: Fraction(c) for e, c in coeffs.items() if c}
        if n == 1:
            c = coeffs.get(0, Fraction(0))
            return field(c.numerator, c.denominator)
        top = max(coeffs, default=0)
        return field([sympy.QQ(c.numerator, c.denominator)
                      for c in (coeffs.get(e, Fraction(0))
                                for e in range(top, -1, -1))])

    return DomainMatrix([[entry(x) for x in row] for row in rows],
                        (len(rows), ncols), field)


# ---------------------------------------------------------------------------
# polynomial / differential operator model of H_{1,0} = Weyl algebra x| W


def poly_monomials(nvars, maxdeg):
    """All exponent tuples of total degree <= maxdeg, lexicographically sorted."""
    out = []

    def rec(prefix, left):
        if len(prefix) == nvars:
            out.append(tuple(prefix))
            return
        for d in range(left + 1):
            rec(prefix + [d], left - d)

    rec([], maxdeg)
    out.sort()
    return out


class WeylModel:
    """Matrices of x_i (multiplication), y_i (d/dx_i) and W (substitution)
    acting on polynomials of bounded degree.  Exact over Fraction.

    Degrees above the bound are silently truncated, so products are only
    faithful when total operator degree + argument degree stays in bounds.
    """

    def __init__(self, nvars, maxdeg, group_matrices_on_hstar):
        self.nvars = nvars
        self.maxdeg = maxdeg
        self.basis = poly_monomials(nvars, maxdeg)
        self.index = {m: i for i, m in enumerate(self.basis)}
        self.dim = len(self.basis)
        self.group_mats = group_matrices_on_hstar

    def zero(self):
        return [[Fraction(0)] * self.dim for _ in range(self.dim)]

    def x_matrix(self, i):
        m = self.zero()
        for col, mono in enumerate(self.basis):
            up = list(mono)
            up[i] += 1
            up = tuple(up)
            if sum(up) <= self.maxdeg:
                m[self.index[up]][col] = Fraction(1)
        return m

    def y_matrix(self, i):
        m = self.zero()
        for col, mono in enumerate(self.basis):
            if mono[i] == 0:
                continue
            dn = list(mono)
            dn[i] -= 1
            m[self.index[tuple(dn)]][col] = Fraction(mono[i])
        return m

    def w_matrix(self, w):
        # x_j -> sum_i A[i][j] x_i with A the h*-matrix of w
        A = self.group_mats[w]
        m = self.zero()
        for col, mono in enumerate(self.basis):
            # expand prod_j (sum_i A[i][j] x_i)^{mono_j}
            acc = {tuple([0] * self.nvars): Fraction(1)}
            for j, e in enumerate(mono):
                for _ in range(e):
                    nxt = {}
                    for mm, c in acc.items():
                        for i in range(self.nvars):
                            a = A[i][j]
                            if not a:
                                continue
                            up = list(mm)
                            up[i] += 1
                            up = tuple(up)
                            nxt[up] = nxt.get(up, Fraction(0)) + c * a
                    acc = nxt
            for mm, c in acc.items():
                if sum(mm) <= self.maxdeg:
                    m[self.index[mm]][col] = c
        return m

    @staticmethod
    def mat_mul(a, b):
        n = len(a)
        k = len(b)
        mcols = len(b[0])
        out = [[Fraction(0)] * mcols for _ in range(n)]
        for i in range(n):
            ai = a[i]
            oi = out[i]
            for j in range(k):
                v = ai[j]
                if not v:
                    continue
                bj = b[j]
                for col in range(mcols):
                    if bj[col]:
                        oi[col] += v * bj[col]
        return out


def element_matrix(elem, model):
    """Matrix of a PBW element acting on the polynomial model: each term
    x^a.w.y^b becomes X^a o W o D^b."""
    dim = model.dim
    out = [[Fraction(0)] * dim for _ in range(dim)]
    for (a, w, b), coeff in elem.terms.items():
        m = None
        for i, e in enumerate(b):
            for _ in range(e):
                ym = model.y_matrix(i)
                m = ym if m is None else WeylModel.mat_mul(ym, m)
        wm = model.w_matrix(w)
        m = wm if m is None else WeylModel.mat_mul(wm, m)
        for i, e in enumerate(a):
            for _ in range(e):
                m = WeylModel.mat_mul(model.x_matrix(i), m)
        co = Fraction(coeff) if isinstance(coeff, int) else coeff
        for r in range(dim):
            row = m[r]
            for c in range(dim):
                if row[c]:
                    out[r][c] += co * row[c]
    return out


# ---------------------------------------------------------------------------
# second constructions of objects the library builds one way


def dirac_element_in_basis(family, basis):
    """D = sum_i b_i (x) b^i for the basis b_i of V given by the columns of
    basis (generator slot coordinates) and its dual basis b^i against the
    family's V form; D does not depend on the choice."""
    alg = family.clifford
    nv = family.nv
    ginv = linalg.inverse(linalg.mat_mul(linalg.transpose(basis),
                                         linalg.mat_mul(alg.gram, basis)))
    out = None
    for i in range(nv):
        vec = family.vector_element([basis[r][i] for r in range(nv)])
        dual = alg.vector([sum(basis[r][j] * ginv[i][j] for j in range(nv))
                           for r in range(nv)])
        term = tensor(vec, dual)
        out = term if out is None else out + term
    return out


def casimir_h_in_basis(family, basis):
    """sum_i b_i b^i in H for the basis b_i of V given as a list of nv
    coordinate vectors and its dual basis against the family's symmetric
    form; the element does not depend on the choice."""
    nv = family.nv
    p = [[basis[i][r] for i in range(nv)] for r in range(nv)]
    u = linalg.inverse(
        linalg.mat_mul(linalg.transpose(p), family.clifford.gram))
    total = family.zero()
    for i in range(nv):
        vi = family.vector_element([p[r][i] for r in range(nv)])
        di = family.vector_element([u[r][i] for r in range(nv)])
        total = total + vi * di
    return total


def isotypic_projector(rep, irrep_label, group):
    """Projector onto the irrep_label-isotypic component of rep, summed
    over W: (dim sigma / |W|) sum_w conj(chi_sigma(w)) rep(w)."""
    if not check_representation(rep, group):
        raise ValueError("homomorphism check failed")
    row = group.character(irrep_label)
    scale = Fraction(group.dim_of(irrep_label), group.order)
    out = linalg.zeros(rep.dimension, rep.dimension)
    for i in range(group.order):
        coeff = scale * conjugate(row[group.class_of(i)])
        if not coeff:
            continue
        m = rep.matrices[i]
        for r in range(rep.dimension):
            for c in range(rep.dimension):
                if m[r][c]:
                    out[r][c] = out[r][c] + coeff * m[r][c]
    return out


def eps_automorphism(a):
    """The Clifford automorphism that negates odd monomials."""
    return CliffordElement(a.algebra, {m: (c if len(m) % 2 == 0 else -c)
                                       for m, c in a.terms.items()})


def transpose_element(a):
    """The Clifford anti-involution with v^t = -v on generators."""
    alg = a.algebra
    out = {}
    for mono, c in a.terms.items():
        sign = -c if len(mono) % 2 else c
        partial = alg._times_gen_sequence({(): sign}, tuple(reversed(mono)))
        for m, coeff in partial.items():
            acc(out, m, coeff)
    return CliffordElement(alg, out)


def involutions(a):
    """(eps(a), a^t) for a Clifford element a."""
    return eps_automorphism(a), transpose_element(a)


# ---------------------------------------------------------------------------
# matrix products with no shortcut: every product and every sum is formed,
# zeros and units included, starting each sum from the int 0


def mat_mul_naive(a, b):
    return [[sum((row[k] * b[k][j] for k in range(len(b))), 0)
             for j in range(len(b[0]))] for row in a]


def mat_vec_naive(m, v):
    return [sum((x * y for x, y in zip(row, v)), 0) for row in m]


def kron_naive(a, b):
    return [[x * y for x in ra for y in b[i]]
            for ra in a for i in range(len(b))]


def add_naive(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


# ---------------------------------------------------------------------------
# module characters from the full sigma-blocks


def quotient_character_by_blocks(module, k):
    """The degree-k character of a graded module, one value per conjugacy
    class, as the trace of its sigma-block w_block(w, k) (0 on an empty
    degree)."""
    return class_character(module.group,
                           lambda w: module.w_block(w, k) or [])


# ---------------------------------------------------------------------------
# module actions by the column walk: each straightened term reduced modulo
# J on its own and multiplied entry by entry into rho_sigma(w)


def ideal_section(module, k):
    """(kept monomial positions, [(pivot, echelon row)]) of degree k: the
    echelon rows of J_k on the degree-k monomials and the non-pivot
    monomials they leave."""
    monos = monomials(module.n, k)
    rows = [to_vector(p_mul({m: 1}, f), monos)
            for f, deg in module.ideal if deg <= k
            for m in monomials(module.n, k - deg)]
    red, pivots = linalg.rref(rows) if rows else ([], [])
    taken = set(pivots)
    return ([i for i in range(len(monos)) if i not in taken],
            list(zip(pivots, red)))


def _reduce(section, vec):
    """Normal form modulo J_k of a degree-k coefficient vector, on the kept
    monomials; vec is overwritten."""
    kept, rows = section
    for p, row in rows:
        cv = vec[p]
        if cv:
            for j, rv in enumerate(row):
                if rv:
                    vec[j] = vec[j] - cv * rv
    return [vec[i] for i in kept]


def straightened_columns(module, helem, k):
    """Per kept degree-k monomial x^a, the terms (degree, w, reduced
    coords) of helem x^a with no y-tail; sigma-independent."""
    n = module.n
    zero = (0,) * n
    monos = monomials(n, k)
    columns = []
    for mpos in ideal_section(module, k)[0]:
        prod = helem * module.family.element({(monos[mpos], 0, zero): 1})
        column = []
        for (a, w, b), coeff in prod.terms.items():
            k2 = sum(a)
            section = ideal_section(module, k2)
            if any(b) or not section[0]:
                continue
            monos2 = monomials(n, k2)
            vec = [0] * len(monos2)
            vec[monos2.index(a)] = coeff
            column.append((k2, w, _reduce(section, vec)))
        columns.append(column)
    return columns


def action_blocks_by_columns(module, columns):
    """{target degree: matrix} of the straightened columns on the module,
    each coordinate times each entry of rho_sigma(w)."""
    dim = module.dim_sigma
    cols = len(columns) * dim
    out = {}
    for p, column in enumerate(columns):
        for k2, w, coords in column:
            smat = module.rep.matrices[w]
            mat = out.get(k2)
            if mat is None:
                mat = out[k2] = linalg.zeros(len(coords) * dim, cols)
            for rp, cv in enumerate(coords):
                if not cv:
                    continue
                one = cv == 1
                for i in range(dim):
                    row = mat[rp * dim + i]
                    for j, sv in enumerate(smat[i], p * dim):
                        if sv:
                            if not one:
                                sv = cv if sv == 1 else cv * sv
                            row[j] = row[j] + sv if row[j] else sv
    return out


# ---------------------------------------------------------------------------
# per-element group data, one element at a time


def h_star_by_inverse(group, w):
    """The matrix of w on h*, as the transpose of the inverse of w."""
    return linalg.transpose(linalg.inverse(group.elements[w]))


def inverse_by_lookup(group, w):
    """The index of the element whose matrix is the inverse of w's."""
    inv = linalg.inverse(group.elements[w])
    found = [j for j, m in enumerate(group.elements) if m == inv]
    assert len(found) == 1, (group.catalogue_id, w, found)
    return found[0]


def pin_tau_inverse_by_reversed_word(group, w):
    """tau_w^-1 as the product of the inverted reflection factors along
    the reversed word of w: (1 + mu A)^-1 = 1 - (mu/lambda) A, since
    A^2 = -2<alpha^v, alpha> A for A = alpha^v alpha."""
    alg = polarized_algebra(group.n)
    out = alg.one()
    for gi in reversed(group.words[w]):
        r = group.reflection_at(group.generator_indices[gi])
        mu, a = _reflection_factor(r, alg)
        out = out * (alg.one() - alg.scalar(mu * reciprocal(r.lam)) * a)
    return out


def tau_spin_by_element(group, w):
    """The spin-module matrix of tau_w, read off tau_w itself."""
    return spin_action(pin_tau(w, group), polarized_algebra(group.n))


# ---------------------------------------------------------------------------
# canonical term lists, as tests/golden/kernel_witnesses.json stores them


def tensor_element_data(e):
    """Terms of an H (x) C(V) element sorted by (w, x exponents, y
    exponents, Clifford degree, Clifford monomial)."""
    labels = e.algebra.labels
    return [{"x": list(hk[0]), "w": hk[1], "y": list(hk[2]),
             "clifford": [labels[g] for g in cm],
             "coeff": scalar_str(e.terms[(hk, cm)])}
            for hk, cm in sorted(e.terms,
                                 key=lambda k: (k[0][1], k[0][0], k[0][2],
                                                len(k[1]), k[1]))]


def class_function_data(s):
    """A central class function as {class name: coefficient string}."""
    return scalar_map_str(s.terms)
