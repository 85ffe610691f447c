"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the library's own code paths: cyclotomic
reduction goes through sympy polynomial division, characters are checked by
brute sums over group elements, and the differential-operator model of the
t=1, c=0 rational Cherednik algebra is built directly as matrices acting on
polynomials.  The last sections keep the second constructions that the
library runs only one way: the Dirac element and the Casimir in another
basis of V, isotypic projectors summed over W, the Clifford involutions,
matrix products with every product and sum carried out, products on
the orthogonal space by the ordered rewrite alone, module
characters traced off the full sigma-blocks, module actions by a walk
over the straightened terms, one term at a time, the cell matrices of w
as full Kronecker products with the character of a span read off their
rows, the Dirac cohomology with Z padded out to window-length vectors and
ker(D|Z) eliminated over every window coordinate, cell multiplicities with the cell character formed before the
pairing, the per-element group data (h* matrices, inverses) formed
element by element instead of along the BFS words, products by
multiplying two matrices and looking the product up among the elements
instead of reading a table, and the pin data the library no longer forms
because W acts through w itself once clifford.pin_cover_holds passes: tau_w^-1,
the spin matrices of tau_w and the averager by pin conjugation.  The
group build's checks are kept in their full forms: character-table
orthogonality over every ordered pair of rows and of columns, and the
reflection scan over every non-identity element, det(w) = 1 included.
The group-algebra Casimir scalar N_c(sigma) is summed reflection by
reflection at each c, as the library did before it kept one linear form
in c per irrep, and products of central class functions over all |W|^2
pairs of elements, as the library did before it read them per class.
The elimination is kept dense in and dense out (rref_dense), span
coordinates are found by one solve of the transposed system per vector
(solve, coords_in_span), and the pivots of a basis by scanning its
vectors (leading, free_columns).  The kernel search is kept in its full
forms: every raw key in every Z-degree and on both polynomial sides,
filtered afterwards; d on a unit key by two full H (x) C(V) products; a
column id per raw key by forming its W-average and comparing it up to
scale with the earlier ones, with no orbit mates; the solve with one
Delta(w) column per element, its answer checked constant on classes
(decompose_by_elements); and the dense coordinate matrix of its
elements (coords).  The closed form of the group-algebra Casimir, which
zeta(omega_tilde) must equal, and the class function of a per-element
map, checked constant on classes, are kept here, since the library
solves in the centre and needs neither.  Whether the one-dimensional
quotient exists is read off the degree-1 y-blocks of Delta(sigma), as the
library did before it read the commutators off the forms.  Tests compare
library output against these.  The last section holds the canonical term
lists of H (x) C(V) elements and central class functions that
tests/golden/kernel_witnesses.json stores.
"""

from fractions import Fraction

import sympy

from cherednik import linalg
from cherednik.clifford import (CliffordElement, _reflection_factor,
                                pin_tau, polarized_algebra, spin_action,
                                spin_basis)
from cherednik.dirac import (GroupAlgebraClassFunction, TensorElement,
                             delta_element, derivation_d,
                             dirac_element, tensor)
from cherednik.groups import (_find_reflection_data, check_representation,
                              class_character, inner_product)
from cherednik.modules import (DiracOperatorMatrix, GradedModule,
                               _zero_scalar_cells)
from cherednik.pbw import cherednik_family
from cherednik.poly import acc, monomials, p_mul, to_vector, wedge_matrix
from cherednik.scalars import (conjugate, rational, reciprocal,
                               scalar_map_str, scalar_str)


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
    from its tuple of integer numerators (one per exponent, zeros
    included) and their common denominator; zero entries are left out."""
    return {e: Fraction(v, x.den) for e, v in enumerate(x.num) if v}


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


def rref_dense(m):
    """Reduced row echelon form of a dense matrix; returns (matrix, pivot
    column list), the matrix padded with zero rows to m's shape.  The
    library's rref before it took and returned sparse rows: each row is
    read into a {column: nonzero} dict, eliminated through linalg's
    cancellation steps, and written back out dense."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    live = [{j: x for j, x in enumerate(row) if x} for row in m if any(row)]
    over_q = {type(x) for row in live
              for x in row.values()} <= {int, Fraction}
    if over_q:
        live = [linalg._primitive(row) for row in live]
    cancel = linalg._cancel_int if over_q else linalg._cancel_field
    waiting = {}
    for row in live:
        waiting.setdefault(min(row), []).append(row)
    pivots, prows = [], []
    while waiting:
        c = min(waiting)
        group = waiting.pop(c)
        first = min(group, key=len)
        piv = first
        p = piv[c]
        if not over_q and p != 1:
            inv = reciprocal(p)
            piv = {j: rational(x * inv) for j, x in piv.items()}
            piv[c] = 1
        for row in group:
            if row is not first:
                row = cancel(row, piv, c)
                if row:
                    waiting.setdefault(min(row), []).append(row)
        pivots.append(c)
        prows.append(piv)
    at = {c: k for k, c in enumerate(pivots)}
    for k in range(len(prows) - 2, -1, -1):
        row = prows[k]
        for c in [j for j in row if j in at and j != pivots[k]]:
            row = cancel(row, prows[at[c]], c)
        prows[k] = row
    out = []
    for c, row in zip(pivots, prows):
        dense = [0] * cols
        if over_q:
            p = row[c]
            for j, x in row.items():
                q, r = divmod(x, p)
                dense[j] = Fraction(x, p) if r else q
        else:
            for j, x in row.items():
                dense[j] = x
        out.append(dense)
    out.extend([0] * cols for _ in range(rows - len(pivots)))
    return out, pivots


def solve(m, b):
    """One exact solution of m x = b by one rref of the augmented matrix,
    free variables set to zero, or None if inconsistent."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a, pivots = rref_dense([list(m[i]) + [b[i]] for i in range(rows)])
    if cols in pivots:
        return None
    x = [0] * cols
    for i, pc in enumerate(pivots):
        x[pc] = a[i][cols]
    return x


def coords_in_span(basis, v):
    """Coefficients writing v in the given basis, or None if outside: one
    solve of the transposed system per vector, as the library answered
    span questions before it read them at the pivots (linalg.span_coords)."""
    if not basis:
        return None if any(x for x in v) else []
    return solve(linalg.transpose([list(u) for u in basis]), list(v))


def leading(rows):
    """Pivot columns of reduced echelon rows: each row's first nonzero."""
    return [next(i for i, x in enumerate(u) if x) for u in rows]


def free_columns(basis):
    """Free columns of a nullspace basis: vector f is 1 at free column f
    and zero past it (a pivot row's entry at f is nonzero only when its
    pivot precedes f), so f is its last nonzero."""
    return [max(i for i, x in enumerate(v) if x) for v in basis]


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


def quotient_exists_by_y_block(group, sigma, c):
    """Whether every [y_i, x_j] kills the one-dimensional sigma over
    H_{0,c}: on Delta(sigma) over that family y_i kills 1 (x) v, so y_i
    sends x_j (x) v to [y_i, x_j] v, the entries of the degree-1
    y-blocks."""
    delta = GradedModule("standard", cherednik_family(group, 0, c), sigma, 1)
    return not any(x for i in range(group.n) for x in delta.y_block(i, 1)[0])


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
    red, pivots = rref_dense(rows) if rows else ([], [])
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


def w_cell_matrix(dirac, w, k, l):
    """The matrix of w on the (k, l) cell, the Kronecker product of the
    factors DiracOperatorMatrix.w_cell returns, formed in full."""
    a, b = dirac.w_cell(w, k, l)
    out = linalg.zeros(len(a) * len(b), len(a[0]) * len(b[0]))
    linalg.add_kron(out, a, b)
    return out


def span_character_dense(basis, pivots, blocks, classes):
    """The character of span(basis) read off full cell matrices: blocks
    lists (offset, dense matrices of the class representatives), and
    tr(w) = sum_i (w u_i)[p_i], each entry a full row of the matrix
    times u_i."""
    chi = [0] * classes
    for u, p in zip(basis, pivots):
        off, mats = next(b for b in reversed(blocks) if b[0] <= p)
        for ci, m in enumerate(mats):
            for a, x in zip(m[p - off], u[off:]):
                if a and x:
                    chi[ci] += a * x
    return [rational(x) for x in chi]


def dirac_cohomology_by_window(module):
    """modules.dirac_cohomology's report with Z padded out to the window:
    every zero-scalar cell laid end to end, Z's basis as window-length
    vectors, D's images of it eliminated over every window coordinate,
    the kernel multiplied back out over the whole window, and every
    character read off the full cell matrices by searching the cells'
    offsets (span_character_dense)."""
    want = _zero_scalar_cells(module)
    dirac = DiracOperatorMatrix(module)
    g = module.group
    cellset = sorted(want)
    offsets, total = {}, 0
    for cell in cellset:
        offsets[cell] = total
        total += dirac.cell_dim(*cell)
    reps = [cl[0] for cl in g.conjugacy_classes]
    blocks = [(offsets[cell], [w_cell_matrix(dirac, w, *cell) for w in reps])
              for cell in cellset]
    zbasis, zpiv = [], []
    images = linalg.zeros(total, sum(want.values()))
    for cell in cellset:
        zero, free = linalg.nullspace(dirac.d_squared_on_cell(*cell),
                                      dirac.cell_dim(*cell))
        assert len(zero) == want[cell], cell
        col, off = len(zbasis), offsets[cell]
        zbasis.extend([0] * off + v + [0] * (total - off - len(v))
                      for v in zero)
        zpiv.extend(off + f for f in free)
        for step in (1, -1):
            mat = dirac.part(*cell, step)
            if mat is None:
                continue
            target = (cell[0] + step, cell[1] + step)
            image = linalg.mat_mul(mat, linalg.transpose(zero))
            if target not in offsets:
                assert not any(any(row) for row in image), target
                continue
            for row, got in zip(images[offsets[target]:], image):
                row[col:col + len(zero)] = got
    null, free = linalg.nullspace(images, sum(want.values()))
    ker = linalg.mat_mul(null, zbasis)
    chi_h = [2 * a - b for a, b in zip(
        span_character_dense(ker, [zpiv[f] for f in free], blocks,
                             len(reps)),
        span_character_dense(zbasis, zpiv, blocks, len(reps)))]
    chi_cells = {}
    for cell, block in zip(cellset, blocks):
        off = offsets[cell]
        end = off + dirac.cell_dim(*cell)
        chi_cells[cell] = span_character_dense(
            *linalg.column_space_basis([v[off:end] for v in ker]),
            [(0, block[1])], len(reps))

    def mult(chi, mu):
        m = inner_product(g, chi, mu)
        assert m == int(m) and m >= 0, (mu, m)
        return int(m)

    entries = [{"irrep": mu, "multiplicity": mult(chi_h, mu),
                "cells": [cell for cell in cellset
                          if mult(chi_cells[cell], mu)]}
               for mu in g.irrep_labels if mult(chi_h, mu)]
    overlap_dim = len(zbasis) - len(ker)
    window = dirac.cells() if module.finite else cellset
    return {
        "group": g.catalogue_id,
        "kind": module.kind,
        "sigma": module.sigma,
        "H_D": entries,
        "kernel_dim": len(ker),
        "image_dim": (sum(dirac.cell_dim(*cell) for cell in window)
                      - len(ker) if module.finite else overlap_dim),
        "overlap_dim": overlap_dim,
        "window": [list(cell) for cell in window],
    }


def cell_multiplicity_two_products(module, k, l, mu):
    """<chi_k chi_{wedge^l h}, chi_mu> with the cell character formed
    first, one product per class, and then paired with chi_mu by
    inner_product, a second product per class; wedge^l(h)'s character is
    traced off poly.wedge_matrix."""
    g = module.group
    wedge = class_character(g, lambda w: wedge_matrix(g.elements[w], l))
    m = inner_product(g, [a * b for a, b in zip(module.character(k), wedge)],
                      mu)
    assert m == int(m) and m >= 0, (k, l, mu, m)
    return int(m)

# ---------------------------------------------------------------------------
# products on the orthogonal space by the ordered rewrite alone


def orthogonal_product(family, u, v):
    """u * v for an orthogonal-space family, with v's generators inserted
    one at a time: v_j is carried left past w as w(v_j) by w's matrix on h,
    then x^a v_k is rewritten by x_l x_k = x_k x_l + sum_w a_w(v_l, v_k) w
    until the exponents are ordered.  Returns the term map."""
    g, n = family.group, family.nv
    nz = (0,) * n
    memo = {}

    def insert(a, k):
        # normal form of x^a v_k as ((coeff, a', w'), ...)
        if (a, k) in memo:
            return memo[(a, k)]
        live = [t for t in range(n) if a[t]]
        if not live or live[-1] <= k:
            up = list(a)
            up[k] += 1
            res = ((1, tuple(up), 0),)
        else:
            l = live[-1]
            b = list(a)
            b[l] -= 1
            b = tuple(b)
            out = {}
            for c, a1, w1 in insert(b, k):
                m = g.elements[w1]
                for t in range(n):
                    if m[t][l]:
                        for c2, a2, w2 in insert(a1, t):
                            acc(out, (a2, g.mult(w2, w1)), c * m[t][l] * c2)
            for w, mat in family.forms.items():
                if mat[l][k]:
                    acc(out, (b, w), mat[l][k])
            res = tuple((c, key[0], key[1]) for key, c in out.items())
        memo[(a, k)] = res
        return res

    res = {}
    for (a2, w2, _b2), c2 in v.terms.items():
        cur = dict(u.terms)
        for j, e in enumerate(a2):
            for _ in range(e):
                nxt = {}
                for (a, w, _b), c in cur.items():
                    m = g.elements[w]
                    for t in range(n):
                        if m[t][j]:
                            for c1, a1, w1 in insert(a, t):
                                acc(nxt, (a1, g.mult(w1, w), nz),
                                    c * m[t][j] * c1)
                cur = nxt
        for (a, w, b), c in cur.items():
            acc(res, (a, g.mult(w, w2), b), c * c2)
    return res


# ---------------------------------------------------------------------------
# per-element group data and pin data, one element at a time


def h_star_by_inverse(group, w):
    """The matrix of w on h*, as the transpose of the inverse of w."""
    return linalg.transpose(linalg.inverse(group.elements[w]))


def inverse_by_lookup(group, w):
    """The index of the element whose matrix is the inverse of w's."""
    inv = linalg.inverse(group.elements[w])
    found = [j for j, m in enumerate(group.elements) if m == inv]
    assert len(found) == 1, (group.catalogue_id, w, found)
    return found[0]


def mult_by_matrices(group, i, j):
    """The index of the element whose matrix is the product of i's and
    j's, as the group's multiplication did before it read a table."""
    prod = linalg.mat_mul(group.elements[i], group.elements[j])
    found = [k for k, m in enumerate(group.elements) if m == prod]
    assert len(found) == 1, (group.catalogue_id, i, j, found)
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


def pin_conjugation_averager(family):
    """key -> sum_w Delta(w) e_key Delta(w)^(-1), with the Clifford factor
    conjugated by tau_w and its reversed-word inverse; each factor image
    is formed once per (w, PBW key) and once per (w, Clifford monomial)."""
    g, alg = family.group, family.clifford
    pins = [(family.group_element(w), pin_tau(w, g),
             family.group_element(g.inverse_index(w)),
             pin_tau_inverse_by_reversed_word(g, w)) for w in range(g.order)]
    himg, cimg = {}, {}

    def average(key):
        hk, cm = key
        total = {}
        for w, (gw, tw, gwi, twi) in enumerate(pins):
            if (w, hk) not in himg:
                himg[(w, hk)] = (gw * family.element({hk: 1}) * gwi).terms
            if (w, cm) not in cimg:
                cimg[(w, cm)] = (tw * CliffordElement(alg, {cm: 1})
                                 * twi).terms
            for hk2, hc in himg[(w, hk)].items():
                for cm2, cc in cimg[(w, cm)].items():
                    acc(total, (hk2, cm2), hc * cc)
        return TensorElement(family, alg, total)

    return average


# ---------------------------------------------------------------------------
# the kernel search in its full forms


def candidate_keys_full(group, cap):
    """Every raw search key (PBW key, odd Clifford monomial) of filtration
    degree <= cap, in every Z-degree, in the search's column order."""
    n = group.n
    cliff_monos = [m for m in spin_basis(2 * n) if len(m) % 2 == 1]
    exponents = sorted(m for d in range(cap + 1) for m in monomials(n, d))
    hkeys = [(xa, w, yb) for xa in exponents for yb in exponents
             if sum(xa) + sum(yb) <= cap for w in range(group.order)]
    return [(hk, cm) for hk in hkeys for cm in cliff_monos
            if sum(hk[0]) + sum(hk[2]) + len(cm) <= cap]


def eps(a):
    """The automorphism of H (x) C(V) that negates odd Clifford parts and
    fixes H."""
    return TensorElement(a.family, a.algebra,
                         {k: (-c if len(k[1]) % 2 else c)
                          for k, c in a.terms.items()})


def product_by_factors(a, b):
    """a b in H (x) C(V), each pair of terms multiplied as an H product
    and a Clifford product, with no unit-product memo read."""
    fam, alg = a.family, a.algebra
    out = {}
    for (h1, m1), c1 in a.terms.items():
        for (h2, m2), c2 in b.terms.items():
            hp = fam.element({h1: 1}) * fam.element({h2: 1})
            cp = CliffordElement(alg, {m1: 1}) * CliffordElement(alg, {m2: 1})
            for hk, hc in hp.terms.items():
                for cm, cc in cp.terms.items():
                    acc(out, (hk, cm), c1 * c2 * hc * cc)
    return TensorElement(fam, alg, out)


def d_unit_by_products(family, key):
    """d(e) = D e - eps(e) D for the unit tensor e, by two products formed
    factor by factor, the eps copy and their difference."""
    d = dirac_element(family)
    e = TensorElement(family, family.clifford, {key: 1})
    return product_by_factors(d, e) - product_by_factors(eps(e), d)


def columns_by_averages(average, keys):
    """The column id of each key: its W-average is formed and compared up
    to scale with the first average of each earlier class; None for a
    zero average.  Returns (ids, one average per class)."""
    ids, reps = [], []
    for key in keys:
        p = average(key).terms
        got = None
        if p:
            k = min(p)
            got = next((i for i, q in enumerate(reps)
                        if q.keys() == p.keys()
                        and all(q[k] * c == p[k] * q[j]
                                for j, c in p.items())), None)
            if got is None:
                got = len(reps)
                reps.append(p)
        ids.append(got)
    return ids, reps


def decompose_by_elements(z, family, degree_cap, side=None):
    """(s, b) with z = Delta(s) + d(b), by one elimination over [d(b) |
    Delta(w) | z] with a column Delta(w) per group element, the solution
    checked constant on classes by from_element_map.  The raw keys are
    the full enumeration filtered to Z-degree 0 and the degrees of z's
    terms and to the side (no y exponent on "h_star", no x on "h"), each
    averaged by pin conjugation, with one column per average up to scale;
    z's validity is not checked."""
    g, alg = family.group, family.clifford

    def degree(key):
        (xa, _, yb), cm = key
        return sum(xa) - sum(yb) + sum(1 - 2 * (i % 2) for i in cm)

    degrees = {0} | {degree(k) for k in z.terms}
    keys = [k for k in candidate_keys_full(g, degree_cap + 1)
            if degree(k) in degrees
            and not (side == "h_star" and any(k[0][2]))
            and not (side == "h" and any(k[0][0]))]
    _, reps = columns_by_averages(pin_conjugation_averager(family), keys)
    cols = [(b, db) for b, db in (
        (b, derivation_d(b)) for b in (TensorElement(family, alg, p)
                                       for p in reps)) if db]
    deltas = [delta_element(family, w) for w in range(g.order)]
    nd = len(cols)
    ncols = nd + g.order
    reduced, pivots = linalg.rref(coords([db for _, db in cols] + deltas
                                         + [z]))
    if ncols in pivots:
        raise ValueError("no decomposition at this degree cap")
    if not set(range(nd, ncols)) <= set(pivots):
        raise ValueError("the decomposition would not be unique")
    sol = {p: row[ncols] for row, p in zip(reduced, pivots) if ncols in row}
    s = from_element_map(g, {p - nd: c for p, c in sol.items() if p >= nd})
    b = TensorElement(family, alg, {})
    for p, c in sol.items():
        if p < nd:
            b = b + c * cols[p][0]
    return s, b


def coords(elems):
    """Exact coordinate matrix of tensor elements, dense; columns are
    elements and rows are term keys in first-use order."""
    index = {}
    for e in elems:
        for k in e.terms:
            if k not in index:
                index[k] = len(index)
    mat = [[0] * len(elems) for _ in range(len(index))]
    for j, e in enumerate(elems):
        for k, c in e.terms.items():
            mat[index[k]][j] = c
    return mat


# ---------------------------------------------------------------------------
# group build checks in their full forms


def character_table_full_loops(group):
    """Row and column orthogonality of group.character_table, tested for
    every ordered pair (i, j); AssertionError with the library's messages
    at the first failing pair."""
    order = group.order
    table = group.character_table
    sizes = [len(cl) for cl in group.conjugacy_classes]
    k = len(table)
    if k != len(group.conjugacy_classes):
        raise AssertionError("square character table")
    if sum(d * d for d in group.irrep_dims) != order:
        raise AssertionError("squared irrep dimensions sum to |W|")
    for i in range(k):
        for j in range(k):
            s = 0
            for ci in range(k):
                s = s + sizes[ci] * table[i][ci] * conjugate(table[j][ci])
            want = order if i == j else 0
            if s != want:
                raise AssertionError(f"row orthogonality {i},{j}")
    for ci in range(k):
        for cj in range(k):
            s = 0
            for i in range(k):
                s = s + table[i][ci] * conjugate(table[i][cj])
            want = Fraction(order, sizes[ci]) if ci == cj else 0
            if s != want:
                raise AssertionError(f"column orthogonality {ci},{cj}")


def reflections_by_full_scan(group):
    """(element index, lambda, alpha, alpha_check) of every element that
    _find_reflection_data accepts, over every non-identity element."""
    out = []
    for i in range(1, group.order):
        found = _find_reflection_data(group.elements[i], group.family)
        if found is not None:
            alpha, alpha_check, lam = found
            out.append((i, lam, alpha, alpha_check))
    return out


def casimir_scalar_by_reflections(sigma, c_map, group):
    """N_c(sigma) = (1/dim) sum over reflections s of 2 c_s chi_sigma(s) /
    (1 - lambda_s), summed afresh at c_map ({class name: c_s})."""
    chi = group.character(sigma)
    total = 0
    for r in group.reflections:
        total = total + (2 * c_map[r.class_name] * reciprocal(1 - r.lam)
                         * chi[group.class_of(r.element_index)])
    return rational(total * reciprocal(chi[0]))


def from_element_map(group, emap):
    """The class function of a per-element coefficient map {element
    index: coefficient}, checked constant on every conjugacy class."""
    coeffs = {}
    for name, cl in zip(group.class_names, group.conjugacy_classes):
        c = emap.get(cl[0], 0)
        if any(emap.get(w, 0) != c for w in cl):
            raise ValueError(f"coefficients not constant on class {name!r}")
        coeffs[name] = c
    return GroupAlgebraClassFunction(group, coeffs)


def group_algebra_casimir(family):
    """Omega_{W,c} = sum over reflections s of 2 c_s/(1 - lambda_s) . s
    for Cherednik presets, as a class function, summed reflection by
    reflection; lambda_s is the nontrivial eigenvalue of s on the
    reflection line in h.  The closed form of zeta(omega_tilde)."""
    if family.preset_tag != "cherednik":
        raise ValueError("the closed-form group Casimir needs the "
                         "rational Cherednik preset")
    g, c_map = family.group, family.params["c"]
    return from_element_map(g, {
        r.element_index: c_map[r.class_name] * 2 * reciprocal(1 - r.lam)
        for r in g.reflections})


def class_function_product_by_elements(f, g):
    """The product of two central class functions summed over all |W|^2
    pairs (w, u), f(w) g(w^-1 u) into u, and checked constant on each
    class by from_element_map."""
    group = f.group
    emap = {}
    for w in range(group.order):
        cw = f.coefficient(w)
        if not cw:
            continue
        winv = group.inverse_index(w)
        for u in range(group.order):
            cu = g.coefficient(group.mult(winv, u))
            if cu:
                acc(emap, u, cw * cu)
    return from_element_map(group, emap)


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
