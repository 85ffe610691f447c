"""Graded modules over the rational Cherednik presets and their Dirac
cohomology.

Every module is Delta(sigma) = S(h*) (x) V_sigma modulo J.Delta(sigma) for
a graded ideal J of S(h*), with the polynomial grading: J = 0 gives the
standard module at t = 1, the positive-degree invariants give the baby
Verma module at t = 0, and J = h* its one-dimensional quotient.  Pieces
are built lazily, degree by degree, so K only bounds what gets reported.
A PBW element acts on degree k as sum_w P(w) (x) rho_sigma(w), where the
sigma-independent matrices P(w) hold the normal forms modulo J of its
terms (x_i and w act directly, y_i through the family's y_i . x^a, each
monomial one step from its prefix, anything else is straightened); every
sigma-block is built from them by one Kronecker kernel (linalg.add_kron).
The Dirac operator acts on cells (polynomial degree k, exterior degree l)
of module (x) wedge(h), whose W-types cell_multiplicity reads off the
module's character, and is read on ker D^2 in the coordinates of its
basis; every matrix is exact.  Once clifford.pin_cover_holds, w acts
on wedge^l(h) as wedge^l(w) (_wedge).

The module protocol: DiracOperatorMatrix, dirac_cohomology,
cell_multiplicity and contravariant_form read a module only through
`group`, `n`, `sigma`, `kind`, `K`, `family.params`, `finite` (whether
the module ends by degree K), `degrees()`, `piece_dim(k)`,
`character(k)` and the blocks `x_block(i, k)`, `y_block(i, k)` and
`w_block(w, k)`; contravariant_form also reads `ideal`, `dim_sigma` and
`rep`.  GradedModule is the one implementation.
"""

import math
from functools import lru_cache

from . import linalg, poly
from .clifford import _spin_generator_matrices, pin_cover_holds, spin_block
from .dirac import casimir_scalar
from .groups import class_character, class_pairing, inner_product
from .pbw import cherednik_family
from .scalars import (CapExceeded, NotRational, as_fraction, conjugate,
                      rational, reciprocal, scalar_str)


def _zero_exp(n):
    return (0,) * n


@lru_cache(maxsize=None)
def _mono_index(n, k):
    return {m: i for i, m in enumerate(poly.monomials(n, k))}


def h_weight(sigma, c, group):
    """The Casimir weight entering the grading operator: Omega_H acts on
    the degree-k piece of a standard module by t(2k + n) - h_weight, and
    on a baby Verma module by -h_weight.  Equal to N_c(sigma) for real
    reflection groups."""
    return -casimir_scalar(group.tensor_with_eps(sigma), c, group)


def d_squared_scalar(group, sigma, mu, k, l, c, t=1):
    """Scalar of the Dirac square on the mu-isotypic of the (k, l) cell,
    mu taken in the natural diagonal W-action on S^k (x) V_sigma (x)
    wedge^l(h): on standard modules, and at t = 0 on baby Verma modules
    and their quotients."""
    return _d_squared(h_weight(sigma, c, group), casimir_scalar(mu, c, group),
                      k, l, group.n, t)


def _d_squared(weight, n_mu, k, l, n, t):
    """The D^2 law: h_weight(sigma) + N_c(mu) - 2t(k + n - l)."""
    return weight + n_mu - 2 * t * (k + n - l)


# --------------------------------------------------------------------------
# graded modules


class GradedModule:
    """Delta(sigma) = S(h*) (x) V_sigma modulo J.Delta(sigma), for a graded
    ideal J of S(h*) given by homogeneous generators (f, deg f), over a
    Cherednik preset, with exact action tables.

    Degree k is carried on the monomials of degree k outside the pivots of
    J_k (its ideal section), and every degree-k monomial has a sparse
    normal form modulo J_k on them.  An element acts as sum_w P(w) (x)
    rho_sigma(w), P(w) the sigma-independent matrix of its terms x^a' w
    on the kept monomials.  K is the top degree reported.
    `kind` only labels the report.  The sigma-independent data (the ideal
    sections and the matrices P of the generators) is shared through the
    family, keyed by the ideal's generators, so modules over one ideal
    share it and modules over two ideals never mix it.
    """

    def __init__(self, kind, family, sigma, K, ideal=()):
        self.kind = kind
        self.family = family
        self.group = family.group
        self.n = family.group.n
        self.sigma = sigma
        self.rep = family.group.irrep(sigma)
        self.dim_sigma = self.rep.dimension
        self.K = K
        self._blocks = {}
        self._characters = {}
        self.ideal = list(ideal)
        key = tuple((tuple(sorted((e, scalar_str(c)) for e, c in f.items())),
                     d) for f, d in self.ideal)
        self._sections, self._terms = family._module_data.setdefault(
            key, ([], {}))

    # -- graded pieces

    def _section(self, k):
        """(kept monomial positions, normal forms) of degree k.  The echelon
        rows of J_k on the degree-k monomials leave the non-pivot monomials
        as a basis of S^k / J_k; the normal form of the i-th monomial is
        {kept index: value}, {j: 1} for the j-th kept monomial and the
        negated echelon row for a pivot.  Sections are built upward from
        degree 0, and once J holds all of a degree it holds all of every
        higher one."""
        sections = self._sections
        while len(sections) <= k:
            d = len(sections)
            if d and not sections[-1][0]:
                return [], []
            monos = poly.monomials(self.n, d)
            rows = [poly.to_vector(poly.p_mul({m: 1}, f), monos)
                    for f, deg in self.ideal if deg <= d
                    for m in poly.monomials(self.n, d - deg)]
            red, pivots = linalg.rref(rows) if rows else ([], [])
            taken = set(pivots)
            kept = [i for i in range(len(monos)) if i not in taken]
            normal = [None] * len(monos)
            for j, i in enumerate(kept):
                normal[i] = {j: 1}
            for p, row in zip(pivots, red):
                normal[p] = {j: -row[i] for j, i in enumerate(kept)
                             if i in row}
            sections.append((kept, normal))
        return sections[k]

    def selected(self, k):
        """Positions of the kept degree-k monomials."""
        return self._section(k)[0] if k >= 0 else []

    @property
    def finite(self):
        """Whether the module ends by degree K: degree K + 1 is empty.
        S(h*) never ends, so J = 0 answers without building a section."""
        return (any(f for f, _ in self.ideal)
                and not self.selected(self.K + 1))

    def piece_dim(self, k):
        return len(self.selected(k)) * self.dim_sigma

    def degrees(self):
        return [k for k in range(self.K + 1) if self.selected(k)]

    def character(self, k):
        """Character of the degree-k piece per conjugacy class, kept on the
        module: _sym_char(k) chi_sigma when J = 0, with no degree-k piece.
        On a quotient w acts as P_k(w) (x) rho_sigma(w), so the trace is
        tr P_k(w) chi_sigma(w), read off the matrix kept per family, ideal
        and degree; no sigma-block is built."""
        got = self._characters.get(k)
        if got is None:
            g = self.group
            if not self.ideal:
                traces = _sym_char(g, k)
            else:
                traces = [sum(row[i] for i, row in enumerate(
                    self._columns(("group_element", w), k).get((k, w), ())))
                    for w in (cl[0] for cl in g.conjugacy_classes)]
            got = self._characters[k] = [
                a * b for a, b in zip(traces, g.character(self.sigma))]
        return got

    # -- actions

    def action_blocks(self, helem, k):
        """Matrices of a PBW element on the degree-k piece, as a map
        {target degree: matrix}: sum_w P(w) (x) rho_sigma(w) over the
        matrices P of _straighten.  A generator given as a key
        ("x_gen", i), ("y_gen", i) or ("group_element", w) is computed
        once per family and ideal (_columns)."""
        if not self.selected(k):
            return {}
        if isinstance(helem, tuple):
            terms = self._columns(helem, k)
        else:
            terms = self._straighten(helem, k)
        dim = self.dim_sigma
        out = {}
        for (k2, w), mat in terms.items():
            block = out.get(k2)
            if block is None:
                block = out[k2] = linalg.zeros(len(mat) * dim,
                                               len(mat[0]) * dim)
            linalg.add_kron(block, mat, self.rep.matrices[w])
        return out

    def _columns(self, key, k):
        """The matrices P of a generator key ("x_gen", i), ("y_gen", i) or
        ("group_element", w) at degree k, kept per family and ideal.  x_i
        sends x^a to x^(a + e_i), w sends x^a to w(x^a) w by the family's
        memoized substitution, and y_i sends it to the terms of y_i . x^a
        with no y-tail, from the family's memo (FormFamily._y_on_x); each
        term is then taken to its normal form as in _straighten."""
        got = self._terms.get((key, k))
        if got is None:
            kind, i = key
            fam, got = self.family, {}
            monos, kept = poly.monomials(self.n, k), self.selected(k)
            k2 = k + {"x_gen": 1, "y_gen": -1}.get(kind, 0)
            for p, mpos in enumerate(kept if self.selected(k2) else ()):
                a = monos[mpos]
                if kind == "x_gen":
                    terms = (((a[:i] + (a[i] + 1,) + a[i + 1:], 0), 1),)
                elif kind == "y_gen":
                    terms = (((a2, w), c) for (a2, w, b), c
                             in fam._y_on_x(i, a).items() if not any(b))
                else:
                    terms = (((a2, i), c) for a2, c
                             in fam._w_on_x(i, a).items())
                for (a2, w), coeff in terms:
                    self._place(got, k2, w, a2, p, coeff, len(kept))
            self._terms[(key, k)] = got
        return got

    def _place(self, out, k2, w, a, p, coeff, cols):
        """Add coeff times the normal form of x^a to column p of out's
        matrix P(w) of degree k2, made on first use."""
        mat = out.get((k2, w))
        if mat is None:
            mat = out[(k2, w)] = linalg.zeros(len(self.selected(k2)), cols)
        for r, v in self._section(k2)[1][_mono_index(self.n, k2)[a]].items():
            x = coeff if v == 1 else coeff * v
            mat[r][p] = mat[r][p] + x if mat[r][p] else x

    def _straighten(self, helem, k):
        """{(degree k2, w): P} for helem on the kept degree-k monomials.
        helem x^a straightens to terms x^a' w y^b; a y-tail kills the
        inducing line, and x^a' w sends x^a (x) v to (the normal form of
        x^a') (x) w v, so column a of P(w) sums the normal forms of the
        x^a' terms that carry w."""
        n = self.n
        monos = poly.monomials(n, k)
        kept = self.selected(k)
        out = {}
        for p, mpos in enumerate(kept):
            key = (monos[mpos], 0, _zero_exp(n))
            prod = helem * self.family.element({key: 1})
            for (a, w, b), coeff in prod.terms.items():
                k2 = sum(a)
                if not any(b) and self.selected(k2):
                    self._place(out, k2, w, a, p, coeff, len(kept))
        return out

    def _gen_block(self, cache_key, k, expect):
        """The generator key's block from degree k to degree expect, or
        None when either piece is empty."""
        if not self.selected(k) or not self.selected(expect):
            return None
        got = self._blocks.get((cache_key, k))
        if got is None:
            blocks = self.action_blocks(cache_key, k)
            bad = [k2 for k2 in blocks if k2 != expect]
            if bad:
                raise AssertionError(f"degree drift {bad} for {cache_key}")
            got = blocks.get(expect)
            if got is None:
                got = linalg.zeros(self.piece_dim(expect), self.piece_dim(k))
            self._blocks[(cache_key, k)] = got
        return got

    def x_block(self, i, k):
        """x_i: degree k -> k + 1, or None when either piece is empty."""
        return self._gen_block(("x_gen", i), k, k + 1)

    def y_block(self, i, k):
        return self._gen_block(("y_gen", i), k, k - 1)

    def w_block(self, w, k):
        return self._gen_block(("group_element", w), k, k)


def standard_module(group, sigma, c, K=4):
    """Delta(sigma) over t = 1 (J = 0), reported up to degree K."""
    if K < 0:
        raise ValueError(f"K must be >= 0, not {K}")
    return GradedModule("standard", cherednik_family(group, 1, c), sigma, K)


def baby_verma(group, sigma, c):
    """Delta(sigma) modulo the invariants of positive degree over t = 0,
    carried on the coinvariant algebra: |W| monomials up to the top
    degree sum(d_i - 1)."""
    degrees = group.invariant_degrees
    module = GradedModule("baby", cherednik_family(group, 0, c), sigma,
                          sum(d - 1 for d in degrees),
                          zip(group.invariant_generators, degrees))
    if sum(len(module.selected(k)) for k in module.degrees()) != group.order:
        raise AssertionError("coinvariant dimension mismatch")
    return module


def one_dimensional_quotient(group, sigma, c):
    """Delta(sigma) modulo h*.Delta(sigma) over t = 0: the simple quotient
    with x = y = 0, available exactly when every commutator [y_i, x_j] =
    sum_w a_w(y_i, x_j) w acts by zero on the one-dimensional sigma, which
    is read straight off the family's forms."""
    n = group.n
    module = GradedModule("simple", cherednik_family(group, 0, c), sigma, 0,
                          [({e: 1}, 1) for e in poly.monomials(n, 1)])
    if module.dim_sigma != 1:
        raise ValueError("the visible quotient needs dim(sigma) = 1")
    forms, rho = module.family.forms, module.rep.matrices
    for i in range(n):
        for j in range(n):
            if sum(mat[2 * i + 1][2 * j] * rho[w][0][0]
                   for w, mat in forms.items()):
                raise ValueError(
                    f"[y_{i + 1}, x_{j + 1}] does not kill {sigma}")
    return module


# --------------------------------------------------------------------------
# the Dirac operator on module (x) spin cells


class DiracOperatorMatrix:
    """Cell parts of the Dirac operator.

    A cell is a pair (k, l); the operator splits into an up part, step 1,
    (k, l) -> (k + 1, l + 1) built from the x-action and wedge products,
    and a down part, step -1, (k, l) -> (k - 1, l - 1) built from the
    y-action and contractions.  part(k, l, step) builds one of them the
    first time it is read.  Cell bases are module basis (x) exterior basis,
    in module-major order.
    """

    def __init__(self, module):
        if not pin_cover_holds(module.group):
            raise AssertionError("the pin lift does not cover "
                                 + module.group.catalogue_id)
        self.module = module
        self.n = module.n
        self._spin = _spin_generator_matrices(self.n)
        self._parts = {}

    def wedge_dim(self, l):
        if l < 0 or l > self.n:
            return 0
        return math.comb(self.n, l)

    def cell_dim(self, k, l):
        return self.module.piece_dim(k) * self.wedge_dim(l)

    def cells(self):
        return [(k, l) for k in self.module.degrees()
                for l in range(self.n + 1)]

    def part(self, k, l, step):
        """The up (step 1) or down (step -1) part of D on the (k, l) cell,
        or None when its source or target cell is empty."""
        key = (k, l, step)
        if key not in self._parts:
            self._parts[key] = self._assemble(k, l, step)
        return self._parts[key]

    def _assemble(self, k, l, step):
        m = self.module
        k2, l2 = k + step, l + step
        rows = self.cell_dim(k2, l2)
        cols = self.cell_dim(k, l)
        if rows == 0 or cols == 0:
            return None
        out = linalg.zeros(rows, cols)
        for i in range(self.n):
            if step > 0:
                mb = m.x_block(i, k)
                sg = 2 * i + 1
            else:
                mb = m.y_block(i, k)
                sg = 2 * i
            if mb is None:
                continue
            linalg.add_kron(out, mb, spin_block(self._spin[sg], self.n, l2, l))
        return out

    def d_squared_on_cell(self, k, l):
        dim = self.cell_dim(k, l)
        out = linalg.zeros(dim, dim)
        for step in (1, -1):
            first = self.part(k, l, step)
            if first is not None:
                linalg.add_into(out, linalg.mat_mul(
                    self.part(k + step, l + step, -step), first))
        return out

    def w_cell(self, w, k, l):
        """Diagonal action of a group element on the (k, l) cell, factored:
        the pair (w on the module's degree k, wedge^l(w)), whose Kronecker
        product acts on the cell; wedge^l(w) is tau_w on the spin side
        (clifford.pin_cover_holds).  The product is never formed:
        _span_character reads its rows off the factors."""
        return self.module.w_block(w, k), _wedge(self.module.group, w, l)


# --------------------------------------------------------------------------
# characters and multiplicities


@lru_cache(maxsize=None)
def _molien(group):
    """The coefficients d_i = (-1)^i tr wedge^i(B_w), i = 1..n, of
    det(1 - q B_w) = 1 + d_1 q + ... + d_n q^n per conjugacy class, where
    B_w = h_star_matrix(w), whose wedge^i traces are the conjugates of
    wedge^i(h)'s; and the list of S^k(h*) characters found so far, which
    _sym_char extends."""
    dets = [[(-1) ** i * conjugate(x) for x in _wedge_char(group, i)]
            for i in range(1, group.n + 1)]
    return dets, [[1] * len(group.conjugacy_classes)]


def _sym_char(group, k):
    """Character of S^k(h*) per conjugacy class: the q^k coefficient of the
    Molien series 1/det(1 - q B_w), by the recurrence
    a_k = -(d_1 a_{k-1} + ... + d_n a_{k-n}), a_0 = 1 and a_j = 0 for j < 0."""
    dets, chars = _molien(group)
    while len(chars) <= k:
        m = len(chars)
        row = []
        for ci in range(len(chars[0])):
            s = 0
            for i, d in enumerate(dets[:m], 1):
                if d[ci]:
                    s = s - d[ci] * chars[m - i][ci]
            row.append(rational(s))
        chars.append(row)
    return chars[k]


@lru_cache(maxsize=None)
def _wedge(group, w, l):
    """wedge^l(w), the matrix of w on wedge^l(h): the spin module's
    degree-l block, on which the pin lift acts by it."""
    return poly.wedge_matrix(group.elements[w], l)


@lru_cache(maxsize=None)
def _wedge_char(group, l):
    """Character of wedge^l(h) per conjugacy class."""
    return class_character(group, lambda w: _wedge(group, w, l))


@lru_cache(maxsize=None)
def _cell_dual(group, l, mu):
    """|C| chi_{wedge^l h}(C) conj chi_mu(C) per conjugacy class: mu's
    dual_character row times the character of wedge^l(h)."""
    return [a * b for a, b in zip(_wedge_char(group, l),
                                  group.dual_character(mu))]


def _multiplicity(m, mu):
    """m = <chi, chi_mu> for the character chi of a W-stable space, checked
    to be a nonnegative integer (NotRational off the rationals)."""
    m = as_fraction(m)
    if m.denominator != 1 or m < 0:
        raise AssertionError(f"multiplicity of {mu} is not a nonnegative "
                             f"integer: {m}")
    return int(m)


def cell_multiplicity(module, k, l, mu):
    """Multiplicity of mu in the (k, l) cell, degree k (x) wedge^l(h) under
    the diagonal action: <module.character(k) chi_{wedge^l h}, chi_mu>,
    read as module.character(k) paired with the row _cell_dual(l, mu),
    one product per class; the cell character itself is never formed."""
    g = module.group
    return _multiplicity(class_pairing(module.character(k), _cell_dual(
        g, l, mu)) * reciprocal(g.order), mu)


def _span_character(chi, basis, pivots, mats):
    """Add the character of span(basis), one value per class, to chi.

    Precondition: `basis` spans a W-stable subspace of one cell, and u_i
    is 1 at position pivots[i], where every other basis vector is 0: the
    pair that linalg.column_space_basis or linalg.nullspace returns.
    `mats` holds the factored matrices of the class representatives on
    the cell, pairs (A, B) as DiracOperatorMatrix.w_cell returns, acting
    as A (x) B.  Then (w u_i)[p_i] is the coefficient of u_i in w u_i and
    tr(w) = sum_i (w u_i)[p_i]: one matrix row per basis vector and no
    solve.  Row p of A (x) B is row p // dim B of A times row p % dim B of
    B, which linalg.kron_row_dot dots with u_i without forming it.
    """
    for u, p in zip(basis, pivots):
        q, r = divmod(p, len(mats[0][1]))  # every B is wedge^l(w)
        for ci, (a, b) in enumerate(mats):
            x = linalg.kron_row_dot(a[q], b[r], u)
            if x:
                chi[ci] = chi[ci] + x if chi[ci] else x


# --------------------------------------------------------------------------
# Dirac cohomology


def _zero_scalar_cells(module):
    """{cell: dim ker D^2} over the cells whose D^2 scalar (d_squared_scalar)
    vanishes on a nonzero isotypic: at t != 0 in one degree per (mu, l),
    as the scalar falls by 2t per degree, and at t = 0 in every degree or
    in none, from h_weight(sigma) once and N_c(mu) once per irrep.  Cell
    multiplicities build no sigma-block.  CapExceeded (bound "K") names
    the largest zero-scalar degree when it passes K."""
    g, n = module.group, module.n
    c, t = module.family.params["c"], module.family.params["t"]
    weight = h_weight(module.sigma, c, g)
    found, out = [], {}
    for mu in g.irrep_labels:
        n_mu = casimir_scalar(mu, c, g)
        for l in range(n + 1):
            s0 = _d_squared(weight, n_mu, 0, l, n, t)
            if t == 0:
                found += [(k, l, mu) for k in module.degrees() if s0 == 0]
                continue
            try:
                k = as_fraction(s0 * reciprocal(2 * t))
            except NotRational:
                continue
            if k.denominator == 1 and k >= 0:
                found.append((int(k), l, mu))
    # from the top degree down, so a window past K is refused at once
    for k, l, mu in sorted(found, reverse=True):
        mult = cell_multiplicity(module, k, l, mu)
        if mult and k > module.K:
            raise CapExceeded(f"kernel window needs K >= {k}", "K", k)
        if mult:
            out[(k, l)] = out.get((k, l), 0) + g.dim_of(mu) * mult
    return out


def dirac_cohomology(module):
    """Exact Dirac cohomology report for a graded module.

    The up and down parts of D each square to zero, so D^2 = D_x D_y +
    D_y D_x preserves every cell and acts on each W-isotypic there by
    d_squared_scalar.  Hence ker D and D(Z) = ker D n im D lie in
    Z = ker D^2, which lives on the cells of _zero_scalar_cells; only there
    is D^2 built, and its nullspace is checked against them.  D(Z) lies
    in Z, and a vector of a cell's Z has its entries at the free columns
    as coordinates (linalg.span_coords also checks that it lies there),
    so D|Z is a |Z| x |Z| matrix of sparse rows read off the up and down
    parts (DiracOperatorMatrix.part); its nullspace is ker(D|Z) in Z's
    coordinates.  Each subspace is eliminated once, and every character
    is read cell by cell: chi_Z at the free columns, chi_ker from the
    kernel vectors whose free column lies in the cell, and the cell's
    own from the echelon form of the kernel's coordinates there.  Since
    D(Z) ~ Z / ker(D|Z) as W-modules, H_D has character
    2 chi_ker - chi_Z.  A module that ends by degree K reports every
    nonempty cell as its window and rank D as image_dim; any other
    reports the zero-scalar window and image_dim = dim D(Z).
    A t = 0 module that goes on past K has no such window: ValueError.
    """
    if not module.finite and module.family.params["t"] == 0:
        raise ValueError(f"a t = 0 module must end by degree K = {module.K}")
    want = _zero_scalar_cells(module)
    dirac = DiracOperatorMatrix(module)
    g = module.group
    cellset = sorted(want)

    # zs[cell]: the D^2 nullspace there, its free columns, and the index of
    # its first vector among Z's
    zs, dim_z = {}, 0
    for cell in cellset:
        zero, free = linalg.nullspace(dirac.d_squared_on_cell(*cell),
                                      dirac.cell_dim(*cell))
        if len(zero) != want[cell]:
            raise AssertionError(
                f"D^2 kernel on cell {cell} has dimension {len(zero)}, "
                f"its zero-scalar isotypics {want[cell]}")
        zs[cell] = (zero, free, dim_z)
        dim_z += len(zero)
    # column j: the image of Z's vector j, in sparse rows; a cell outside
    # the window has the empty basis, so an image that escapes it is
    # refused too
    coords = [{} for _ in range(dim_z)]
    for cell, (zero, _, col) in zs.items():
        for step in (1, -1):
            mat = dirac.part(*cell, step)
            if mat is None:
                continue
            target = (cell[0] + step, cell[1] + step)
            tz, tfree, row = zs.get(target, ([], [], 0))
            for j, v in enumerate(linalg.transpose(linalg.mat_mul(
                    mat, linalg.transpose(zero))), col):
                got = linalg.span_coords(tz, tfree, v)
                if got is None:
                    raise AssertionError(f"D leaves ker D^2 at {target}")
                for i, x in enumerate(got, row):
                    if x:
                        coords[i][j] = x
    # kernel vector i is 1 at Z's vector free[i], where the others are 0
    null, free = linalg.nullspace(coords, dim_z)

    # Z, ker(D|Z) and the kernel's slices in each cell are all W-stable (D
    # commutes with the diagonal W, which preserves cells); a combination
    # of a cell's Z vectors has its coordinate p at zfree[p]
    reps = [cl[0] for cl in g.conjugacy_classes]
    chi_z, chi_ker = [0] * len(reps), [0] * len(reps)
    chi_cells = {}
    for cell, (zero, zfree, first) in zs.items():
        mats = [dirac.w_cell(w, *cell) for w in reps]
        end = first + len(zero)
        _span_character(chi_z, zero, zfree, mats)
        mine = [i for i, f in enumerate(free) if first <= f < end]
        _span_character(chi_ker, linalg.mat_mul(
            [null[i][first:end] for i in mine], zero),
            [zfree[free[i] - first] for i in mine], mats)
        rows, pivots = linalg.column_space_basis(
            [v[first:end] for v in null])
        chi = chi_cells[cell] = [0] * len(reps)
        _span_character(chi, linalg.mat_mul(rows, zero),
                        [zfree[p] for p in pivots], mats)
    chi_h = [2 * a - b for a, b in zip(chi_ker, chi_z)]

    entries = []
    for mu in g.irrep_labels:
        mult = _multiplicity(inner_product(g, chi_h, mu), mu)
        if mult:
            entries.append({"irrep": mu, "multiplicity": mult, "cells": [
                cell for cell in cellset
                if _multiplicity(inner_product(g, chi_cells[cell], mu),
                                 mu)]})
    overlap_dim = dim_z - len(null)
    window = dirac.cells() if module.finite else cellset
    return {
        "group": g.catalogue_id,
        "kind": module.kind,
        "sigma": module.sigma,
        "H_D": entries,
        "kernel_dim": len(null),
        "image_dim": (sum(dirac.cell_dim(*cell) for cell in window)
                      - len(null) if module.finite else overlap_dim),
        "overlap_dim": overlap_dim,
        "window": [list(cell) for cell in window],
    }


# --------------------------------------------------------------------------
# contravariant forms and unitarity


def contravariant_form(module):
    """Gram matrices {degree: matrix} of the contravariant form on a
    standard module, seeded by the group-averaged inner product on
    V_sigma and propagated by the star pairing (x_i against y_i)."""
    if module.family.params["t"] != 1 or any(f for f, _ in module.ideal):
        raise ValueError("contravariant forms live on standard modules")
    n, dim = module.n, module.dim_sigma
    for value in module.family.params["c"].values():
        as_fraction(value)
    grams = {0: linalg.mean_gram([[[as_fraction(x) for x in row] for row in m]
                                  for m in module.rep.matrices])}
    for k in range(1, module.K + 1):
        monos = poly.monomials(n, k)
        prev = grams[k - 1]
        lowered = {}
        size = module.piece_dim(k)
        gk = linalg.zeros(size, size)
        below = _mono_index(n, k - 1)
        for rp, m in enumerate(monos):
            i = next(ix for ix, e in enumerate(m) if e)
            mi = lowered.get(i)
            if mi is None:
                yb = module.y_block(i, k)
                mi = linalg.mat_mul(prev, [[as_fraction(x) for x in row]
                                           for row in yb])
                lowered[i] = mi
            m_low = tuple(e - 1 if ix == i else e for ix, e in enumerate(m))
            base = below[m_low] * dim
            for u in range(dim):
                gk[rp * dim + u] = list(mi[base + u])
        if gk != linalg.transpose(gk):
            raise AssertionError("contravariant Gram is not symmetric")
        grams[k] = gk
    return grams


def unitarity_report(group, sigma, c, K=None):
    """Side-by-side unitarity evidence: exact Gram verdicts of the
    contravariant form by degree, and the Dirac inequality scan for the
    standard module and its simple-quotient variant, up to degree K
    (standard_module's default when None)."""
    module = (standard_module(group, sigma, c) if K is None
              else standard_module(group, sigma, c, K))
    K = module.K
    grams = contravariant_form(module)
    verdicts = []
    all_psd = True
    for k in sorted(grams):
        rep = linalg.psd_report(grams[k])
        entry = {"degree": k, "psd": rep["psd"],
                 "pivots": [str(p) for p in rep["pivots"]]}
        if not rep["psd"]:
            entry["witness"] = [str(x) for x in rep["witness"]]
            all_psd = False
        verdicts.append(entry)

    n = group.n
    nvals = {mu: as_fraction(casimir_scalar(mu, c, group))
             for mu in group.irrep_labels}
    gap0 = nvals[sigma]
    standard = []
    for k in range(K + 1):
        for l in range(n + 1):
            for mu in group.irrep_labels:
                gap = gap0 - nvals[mu]
                if gap <= 2 * (k + l):
                    continue
                if cell_multiplicity(module, k, l, mu) > 0:
                    standard.append({
                        "module": "standard", "mu": mu, "k": k, "l": l,
                        "gap": str(gap), "bound": 2 * (k + l)})
    # the simple quotient's scan is the standard scan's degree-0 rows
    simple = [{"module": "simple", "mu": v["mu"], "l": v["l"],
               "gap": v["gap"], "bound": v["bound"]}
              for v in standard if v["k"] == 0]
    violations = standard + simple
    consistent = (not all_psd) or not standard
    return {
        "group": group.catalogue_id,
        "sigma": sigma,
        "K": K,
        "gram_verdicts": verdicts,
        "all_psd": all_psd,
        "violations": violations,
        "consistent": consistent,
    }
