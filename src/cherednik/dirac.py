"""Dirac element machinery for graded Hecke algebras.

The Dirac element D = sum_i v_i (x) v^i lives in H (x) C(V); its square
decomposes into a Casimir part from H and a group-algebra Casimir.  This
module computes the element D itself, the symbolic square identity (with
the e_w coefficients of pbw.compute_e_w), Casimir scalars, the derivation
d and the bounded-degree zeta projection.
"""

from fractions import Fraction
from functools import lru_cache, reduce

from . import linalg, poly
from .clifford import (
    chevalley_lift,
    element_to_data,
    pin_cover_holds,
    pin_tau,
    spin_basis,
)
from .pbw import AlgebraElement, _c_map, casimir_omega, compute_e_w
from .poly import Terms, acc
from .scalars import (CapExceeded, rational, reciprocal, scalar_map_str,
                      scalar_str)


# --------------------------------------------------------------------------
# H (x) C(V)


class TensorElement(Terms):
    """An element of H (x) C(V) in bi-normal form.

    terms maps (PBW key, Clifford monomial) to a scalar; both factors are
    kept canonical, so equality is term-map equality.  Multiplication is
    componentwise (the tensor product is not super here; the parity twist
    enters only through the derivation d, whose eps automorphism negates
    the odd Clifford parts and fixes H): each
    pair of terms reads the product of its PBW keys from the family's memo
    and that of its Clifford monomials from the algebra's.
    """

    __slots__ = ("family", "algebra")
    _over = "families or Clifford algebras"

    def __mul__(self, other):
        if not isinstance(other, TensorElement):
            return self._scaled(other)
        self._check(other)
        fam, alg = self.family, self.algebra
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                _product_into(out, fam, alg, k1, k2, c1 * c2)
        return TensorElement(fam, alg, out)

    def degree(self):
        """Filtration degree: V-degree on the H side plus Clifford degree."""
        if not self.terms:
            return -1
        return max(sum(hk[0]) + sum(hk[2]) + len(cm)
                   for (hk, cm) in self.terms)

    def clifford_parities(self):
        return {len(cm) % 2 for (_, cm) in self.terms}

    def __str__(self):
        if not self.terms:
            return "0"
        labels = self.algebra.labels
        bits = []
        for hk, cm in sorted(self.terms,
                             key=lambda k: (k[0][1], k[0][0], k[0][2],
                                            len(k[1]), k[1])):
            h = AlgebraElement(self.family, {hk: 1})
            cpart = "*".join(labels[g] for g in cm) or "1"
            bits.append(f"({scalar_str(self.terms[(hk, cm)])})*[{h}](x)"
                        f"{cpart}")
        return " + ".join(bits)


def _product_into(out, family, alg, k1, k2, c):
    """Add c (h1 (x) m1)(h2 (x) m2) to the term map out, for the keys
    k1 = (h1, m1) and k2 = (h2, m2), read from the PBW and Clifford
    unit-product memos."""
    (hk1, cm1), (hk2, cm2) = k1, k2
    cprod = alg._unit_product(cm1, cm2)
    for hk, hc in family._unit_product(hk1, hk2):
        # most factors are 1, and a Fraction product is slow
        if c != 1:
            hc = c * hc
        for cm, cf in cprod:
            acc(out, (hk, cm), hc if cf == 1 else hc * cf)


def tensor(helem, celem):
    """Outer product of an H element and a Clifford element."""
    return TensorElement(helem.family, celem.algebra, {
        (hk, cm): hc * cc for hk, hc in helem.terms.items()
        for cm, cc in celem.terms.items()})


def dirac_element(family):
    """D = sum_i v_i (x) v^i, v^i the dual basis of the generators against
    the family's V form; built once per family."""
    if family._dirac is None:
        alg = family.clifford
        ginv = alg.gram_inverse()
        family._dirac = reduce(TensorElement.__add__, (
            tensor(family.v_gen(i), alg.vector(ginv[i]))
            for i in range(family.nv)))
    return family._dirac


def dirac_split(family):
    """(D_x, D_y) with D = D_x + D_y for polarized families."""
    if family.space != "polarized":
        raise ValueError("the x/y split needs a polarized family")
    alg = family.clifford
    n = family.group.n
    dx = dy = None
    for i in range(n):
        tx = tensor(family.x_gen(i), alg.gen(2 * i + 1))
        ty = tensor(family.y_gen(i), alg.gen(2 * i))
        dx = tx if dx is None else dx + tx
        dy = ty if dy is None else dy + ty
    return dx, dy


def delta_element(family, w):
    """Delta(w) = w (x) tau_w (polarized families)."""
    if family.space != "polarized":
        raise ValueError("pin elements are built on the polarized space")
    return tensor(family.group_element(w), pin_tau(w, family.group))


def omega_tilde(family):
    """Omega_H (x) 1 - 1 (x) kappa_1/2; commutes with D."""
    alg = family.clifford
    out = tensor(casimir_omega(family), alg.one())
    a1 = family.forms.get(0)
    if a1 is not None:
        out = out - tensor(family.one(),
                           Fraction(1, 2) * chevalley_lift(a1, alg))
    return out


def derivation_d(a):
    """d(a) = D a - eps(a) D, both products summed into one term map."""
    fam, alg = a.family, a.algebra
    out = {}
    for dk, dc in dirac_element(fam).terms.items():
        for k, c in a.terms.items():
            _product_into(out, fam, alg, dk, k, dc * c)
            # eps negates the odd Clifford parts
            _product_into(out, fam, alg, k, dk,
                          (c if len(k[1]) % 2 else -c) * dc)
    return TensorElement(fam, alg, out)


def verify_dirac_square(family):
    """Check D^2 = -Omega_H (x) 1 + 1 (x) kappa_1/2 + sum_w w (x)
    (kappa_w/2 - e_w) by full symbolic expansion of both sides.

    Returns a JSON-ready report echoing the summands.
    """
    alg = family.clifford
    d = dirac_element(family)
    d2 = d * d
    omega = casimir_omega(family)
    rhs = tensor((-1) * omega, alg.one())
    a1 = family.forms.get(0)
    kappa1 = chevalley_lift(a1, alg) if a1 is not None else alg.zero()
    if a1 is not None:
        rhs = rhs + tensor(family.one(), Fraction(1, 2) * kappa1)
    omega_w = []
    for w in family.support():
        if w == 0:
            continue
        kw = chevalley_lift(family.forms[w], alg)
        ew = compute_e_w(family, w)
        cw = Fraction(1, 2) * kw - alg.scalar(ew)
        rhs = rhs + tensor(family.group_element(w), cw)
        omega_w.append({"w": w,
                        "class": family.group.class_name_of_element(w),
                        "clifford": element_to_data(cw)})
    params = family.params or {}
    cmap = params.get("c", params.get("k"))
    report = {
        "group": family.group.catalogue_id,
        "preset": family.preset_tag,
        "t": scalar_str(params["t"]) if "t" in params else None,
        "c": scalar_map_str(cmap) if cmap is not None else None,
        "equality": d2 == rhs,
        "omega_H": omega.to_data(),
        "omega_W": omega_w,
        "kappa1": element_to_data(kappa1),
    }
    return report


# --------------------------------------------------------------------------
# class functions and Casimir scalars


class GroupAlgebraClassFunction(Terms):
    """A central group-algebra element sum_w f(class of w) . w; terms maps
    a conjugacy class name to f."""

    __slots__ = ("group",)
    _over = "groups"
    coefficients = property(lambda self: self.terms)

    def __init__(self, group, coefficients):
        super().__init__(group, coefficients)
        known = set(group.class_names)
        for name in self.terms:
            if name not in known:
                raise ValueError(f"unknown conjugacy class {name!r}")

    def coefficient(self, w):
        return self.terms.get(self.group.class_name_of_element(w), 0)

    def __mul__(self, other):
        """Central, so read once per conjugacy class: (fg)(z) = sum_w f(w)
        g(w^-1 z) at the class's first element z."""
        if not isinstance(other, GroupAlgebraClassFunction):
            return self._scaled(other)
        self._check(other)
        g = self.group
        support = [(g.inverse_index(w), self.coefficient(w))
                   for w in range(g.order) if self.coefficient(w)]
        out = {}
        for name, cl in zip(g.class_names, g.conjugacy_classes):
            for winv, cw in support:
                cu = other.coefficient(g.mult(winv, cl[0]))
                if cu:
                    acc(out, name, cw * cu)
        return GroupAlgebraClassFunction(g, out)

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({scalar_str(c)})*[{n}]"
                          for n, c in sorted(self.terms.items()))


def _reflection_weight(r):
    """2/(1 - lambda_s) for the reflection r; c_s times it is r's
    coefficient in the group-algebra Casimir."""
    return 2 * reciprocal(1 - r.lam)


@lru_cache(maxsize=None)
def casimir_forms(group):
    """N_c as linear forms in the class parameters, one per irrep in
    catalogue order: form[mu] maps each reflection class name to
    (1/dim mu) sum over its reflections s of 2 chi_mu(s)/(1 - lambda_s).
    Built once per group; build_group's cache keeps the groups alive
    anyway."""
    weights = [(r.class_name, group.class_of(r.element_index),
                _reflection_weight(r)) for r in group.reflections]
    forms = []
    for chi in group.character_table:
        form, inv = {}, reciprocal(chi[0])
        for name, ci, weight in weights:
            acc(form, name, weight * chi[ci])
        forms.append({name: rational(v * inv) for name, v in form.items()})
    return forms


def casimir_scalar(sigma, c, group):
    """N_c(sigma): the scalar of the group-algebra Casimir on irrep sigma,
    (1/dim) sum over reflections of 2 c_s/(1 - lambda_s) chi_sigma(s),
    read off sigma's form in casimir_forms at c."""
    form = casimir_forms(group)[group.irrep_index(sigma)]
    c_map = _c_map(group, c)
    return rational(sum(v * c_map[name] for name, v in form.items()))


# --------------------------------------------------------------------------
# bounded-degree kernel decomposition


def _rows(elems):
    """The coordinate matrix of tensor elements as sparse rows, one per
    term key in first-use order; column j holds elems[j]."""
    rows = {}
    for j, e in enumerate(elems):
        for k, c in e.terms.items():
            rows.setdefault(k, {})[j] = c
    return list(rows.values())


def _candidate_keys(group, cap, degrees, side):
    """Raw search keys (PBW key, odd Clifford monomial) of degree <= cap
    whose Z-degree (_key_degree) is in degrees, generated in those degrees
    only: the degree, which w does not change, is read once per (x
    exponent, y exponent, Clifford monomial).  side "h_star" keeps the
    keys with no y exponent, "h" those with no x exponent, None all."""
    n = group.n
    cliff_monos = [m for m in spin_basis(2 * n) if len(m) % 2 == 1]
    # exponents of degree <= cap, lexicographic: fixes the column order
    exponents = sorted(m for d in range(cap + 1) for m in poly.monomials(n, d))
    only_zero = [(0,) * n]
    out = []
    for xa in only_zero if side == "h" else exponents:
        for yb in only_zero if side == "h_star" else exponents:
            left = cap - sum(xa) - sum(yb)
            monos = [cm for cm in cliff_monos if len(cm) <= left
                     and _key_degree(((xa, 0, yb), cm)) in degrees]
            out += [((xa, w, yb), cm) for w in range(group.order)
                    for cm in monos]
    return out


def _key_degree(key):
    """Z-degree: +1 per x or even (h*) Clifford index, -1 per y or odd."""
    (xa, _, yb), cm = key
    return sum(xa) - sum(yb) + sum(1 - 2 * (i % 2) for i in cm)


class KernelSearch:
    """The per-key work of decompose_kernel_element on one family.

    Delta(w) conjugates a raw key x^a u y^b (x) m to w(x)^a (w u w^(-1))
    w(y)^b (x) w(m), a normal form since the x's commute, and so do the
    y's, on the polarized space: it is read by substitution off the
    family's memoized images of x^a and y^b (_w_on_x, _image), with no
    PBW product, and tau_w conjugates m = v_i1 ... v_ir to w(v_i1) ...
    w(v_ir) (clifford.pin_cover_holds), once per (w, m).  d is linear:
    derivation_d runs once per unit key e, so each d(b) is a linear
    combination of cached images.  columns[i] is (b, d(b)) for the i-th
    average b met that is no multiple of an earlier one, and column maps
    a raw key to the id of the column its average is a multiple of.  An
    orbit mate e' of an averaged key e, Delta(w) e Delta(w)^(-1) = c e' a
    single term, has average avg(e)/c, so it takes e's id and forms no
    average; on B3 every image is one term.  Up to that scale every memo
    is a function of (family, key), so solves sharing a search
    (verify_cm_factorization shares one per polynomial side) read each
    other's work.  Averaging and d keep a key's Z-degree.  class_deltas
    holds the class sums Delta(C), one per conjugacy class; forming them
    refuses an orthogonal family (delta_element), whose x's do not
    commute.
    """

    def __init__(self, family):
        g, alg = family.group, family.clifford
        if not pin_cover_holds(g):
            raise AssertionError(f"the pin lift does not cover "
                                 f"{g.catalogue_id}")
        self.family = family
        self.class_deltas = [reduce(TensorElement.__add__, (
            delta_element(family, w) for w in cl))
            for cl in g.conjugacy_classes]
        # per w: images[i] = w(v_i) (column i of w on V), conj[u] = w u w^-1
        self._pins = [([alg.vector(col).terms
                        for col in linalg.transpose(family.v_matrix(w))],
                       [g.mult(g.mult(w, u), g.inverse_index(w))
                        for u in range(g.order)])
                      for w in range(g.order)]
        self._cimg, self._d_units = {}, {}
        # raw key -> column id; least key -> ids of the columns it leads
        self._ids, self._leads = {}, {}
        self.columns = []

    def average(self, key):
        """sum_w Delta(w) e_key Delta(w)^(-1) for the unit tensor e_key,
        and the raw keys e' of the conjugates that are one term c e' (its
        orbit mates), in the order of w.  The factors of x^a u y^b (x) m
        conjugated by Delta(w) are w(x)^a, w u w^(-1), w(y)^b and w(m),
        each a term map."""
        fam = self.family
        (a, u, b), cm = key
        out, mates = {}, []
        for w, (images, conj) in enumerate(self._pins):
            cw = self._cimg.get((w, cm))
            if cw is None:
                cw = self._cimg[(w, cm)] = reduce(
                    fam.clifford._mul_terms, map(images.__getitem__, cm),
                    {(): 1})
            xw, uw, yw = fam._w_on_x(w, a), conj[u], fam._image(w, b, False)
            if len(xw) == len(yw) == len(cw) == 1:
                mates.append(((next(iter(xw)), uw, next(iter(yw))),
                              next(iter(cw))))
            for a2, ca in xw.items():
                for b2, cb in yw.items():
                    for cm2, cc in cw.items():
                        acc(out, ((a2, uw, b2), cm2), ca * cb * cc)
        return TensorElement(fam, fam.clifford, out), mates

    def column(self, key):
        """The id in columns of the multiples of the raw key's average, or
        None when the average is 0; memoized per raw key and its orbit
        mates, so each average and each column's d-image are formed once.
        Averages with the same least key are compared by
        cross-multiplication, with no division."""
        if key in self._ids:
            return self._ids[key]
        b, mates = self.average(key)
        p, got = b.terms, None
        if p:
            lead = min(p)
            ids = self._leads.setdefault(lead, [])
            for i in ids:
                q = self.columns[i][0].terms
                if q.keys() == p.keys() and all(
                        q[lead] * c == p[lead] * q[k] for k, c in p.items()):
                    got = i
                    break
            else:
                got = len(self.columns)
                self.columns.append((b, self.d_of(b)))
                ids.append(got)
        self._ids[key] = got
        # an orbit mate c e' = Delta(w) e Delta(w)^(-1) has average avg(e)/c
        for mate in mates:
            self._ids.setdefault(mate, got)
        return got

    def d_of(self, a):
        """d(a), summed from the cached images d(e) of a's unit keys e."""
        out = {}
        for key, c in a.terms.items():
            dk = self._d_units.get(key)
            if dk is None:
                dk = self._d_units[key] = derivation_d(
                    TensorElement(a.family, a.algebra, {key: 1})).terms
            for k2, c2 in dk.items():
                acc(out, k2, c * c2)
        return TensorElement(a.family, a.algebra, out)


# raw keys in the Z-degrees searched past which decompose_kernel_element
# refuses to search
COLUMN_LIMIT = 8000


def decompose_kernel_element(z, family, degree_cap=4, side=None,
                             search=None):
    """Split z in ker d as Delta(s) + d(b) at bounded filtration degree.

    z must be diagonally W-invariant, of even Clifford parity and degree
    at most degree_cap; for t != 0 Cherednik presets it must also commute
    with the lifted Casimir (membership in the subalgebra the kernel
    theorem is stated on).  b is searched over the diagonally invariant
    odd subspace of degree <= degree_cap + 1; side "h_star" (or "h")
    keeps only the raw search keys (hkey, clifford mono) with no y (or
    no x) exponent, generated on that side alone, which can only shrink
    the solution space.  Returns (s, b) with s a class function; raises
    ValueError when d(z) != 0 or side is none of these, and CapExceeded
    (bound "degree_cap") when z's degree exceeds degree_cap or no split
    exists at this degree_cap, or (bound "column_limit") when the search
    has more raw keys than COLUMN_LIMIT.

    s is solved for in the centre, one column Delta(C) = sum over w in C
    of Delta(w) per conjugacy class C.  That is exact: tau is
    multiplicative (it acts on the spin module as w on wedge(h)), so
    Delta(w) Delta(x) Delta(w)^(-1) = Delta(w x w^(-1)) and Delta(x) is
    W-invariant only for central x.  z and every d(b) are W-invariant, so
    span d(b) meets Delta(C[W]) where it meets Delta(Z(C[W])): the
    existence and uniqueness tests keep their meaning, and, the d(b)
    columns coming first, their pivots, b and s do not move.

    Only keys of Z-degree (_key_degree) 0 or that of a term of z are
    generated: D and Delta(w) have degree 0, so [d(b) | Delta(C) | z] is
    block-diagonal by degree and the degrees z misses change no pivot, s
    or b; Delta lives in degree 0, so uniqueness is checked in full.

    The columns come from search, a KernelSearch on family
    (verify_cm_factorization shares one between the solves of a
    polynomial side), or from a fresh one dropped with the call.  They
    enter in the order this call's raw keys first reach them, one b per
    average up to scale, so s and b depend neither on what the search
    already holds nor on a column's scale (rescaling b rescales its
    coefficient inversely).  The rows are sparse, one per term key
    (_rows); s and b are read off the z entries of the pivot rows.  A raw
    key whose average is a multiple of an earlier one would add a column
    that is never a pivot, so it adds none; an orbit mate is known to be
    one without averaging.
    """
    g = family.group
    if side not in (None, "h_star", "h"):
        raise ValueError(f"side must be 'h_star' or 'h', not {side!r}")
    if z.degree() > degree_cap:
        raise CapExceeded("element degree exceeds degree_cap", "degree_cap",
                          z.degree())
    if z.clifford_parities() - {0}:
        raise ValueError("kernel decomposition needs even Clifford parity")
    for gi in g.generator_indices:
        dg = delta_element(family, gi)
        if dg * z != z * dg:
            raise ValueError("element is not diagonally W-invariant")
    t = (family.params or {}).get("t")
    if family.preset_tag == "cherednik" and t:
        omt = omega_tilde(family)
        if omt * z != z * omt:
            raise ValueError("element does not commute with the lifted "
                             "Casimir")
    if derivation_d(z):
        raise ValueError("d(z) != 0")

    degrees = {0} | {_key_degree(k) for k in z.terms}
    raw = _candidate_keys(g, degree_cap + 1, degrees, side)
    if len(raw) > COLUMN_LIMIT:
        raise CapExceeded(f"{len(raw)} candidate terms exceed the "
                          f"configured limit {COLUMN_LIMIT}",
                          "column_limit", len(raw))
    if search is None:
        search = KernelSearch(family)
    elif search.family is not family:
        raise ValueError("the search belongs to another family")

    # (b, d(b)) per average up to scale, in first-use order, d(b) != 0
    cols = [search.columns[i] for i in dict.fromkeys(map(search.column, raw))
            if i is not None and search.columns[i][1]]

    # one elimination over [d(b) | Delta(C) | z]: z is reachable exactly
    # when its column is no pivot, and, the Delta(C) being independent
    # (disjoint group parts), the split is unique exactly when every
    # Delta column is a pivot, i.e. span Delta meets span d(b) in zero
    nd = len(cols)
    ncols = nd + len(search.class_deltas)
    reduced, pivots = linalg.rref(_rows([db for _, db in cols]
                                        + search.class_deltas + [z]))
    if ncols in pivots:
        raise CapExceeded("no decomposition at this degree cap; raise "
                          "degree_cap", "degree_cap")
    if not set(range(nd, ncols)) <= set(pivots):
        raise ValueError("group-algebra block meets the derivation image; "
                         "the decomposition would not be unique")
    # free coordinates stay zero, so each pivot reads off its z entry
    sol = {p: row[ncols] for row, p in zip(reduced, pivots) if ncols in row}
    s = GroupAlgebraClassFunction(g, {g.class_names[p - nd]: c
                                      for p, c in sol.items() if p >= nd})
    b = None
    for p, c in sol.items():
        if p < nd:
            term = c * cols[p][0]
            b = term if b is None else b + term
    if b is None:
        b = TensorElement(family, family.clifford, {})
    return s, b


def zeta(z, family):
    """The class-function component of the kernel decomposition."""
    s, _ = decompose_kernel_element(z, family)
    return s
