"""Dirac element machinery for graded Hecke algebras.

The Dirac element D = sum_i v_i (x) v^i lives in H (x) C(V); its square
decomposes into a Casimir part from H and a group-algebra Casimir.  This
module computes the e_w coefficients, the element D itself, the symbolic
square identity, Casimir scalars, the derivation d and the bounded-degree
zeta projection.
"""

from fractions import Fraction

from . import linalg, poly
from .clifford import (
    chevalley_lift,
    element_to_data,
    pin_tau,
    pin_tau_inverse,
    spin_basis,
)
from .pbw import AlgebraElement, _c_map, casimir_omega
from .poly import Terms, acc
from .scalars import (CapExceeded, rational, reciprocal, scalar_map_str,
                      scalar_str)


def compute_e_w(family, w):
    """The scalar e_w attached to w in W(a) \\ {1}.

    Determined by the identity, for every x in V,

        sum_i (a_w(x, v_i) w(v^i) + a_w(x, v^i) v_i) = e_w (x - w(x)).

    The solve avoids the square-root normalization of the Clifford lift;
    every basis witness is checked and must give the same scalar.
    """
    aw = family.forms.get(w)
    if aw is None:
        return 0
    nv = family.nv
    ginv = family.clifford.gram_inverse()
    vm = family.v_matrix(w)
    vg = linalg.mat_mul(vm, ginv)
    ag = linalg.mat_mul(aw, ginv)
    found = None
    for j in range(nv):
        dvec = [(1 if r == j else 0) - vm[r][j] for r in range(nv)]
        if all(x == 0 for x in dvec):
            continue
        lhs = linalg.mat_vec(vg, aw[j])
        lhs = [lhs[i] + ag[j][i] for i in range(nv)]
        piv = next(r for r in range(nv) if dvec[r] != 0)
        e = lhs[piv] * reciprocal(dvec[piv])
        for r in range(nv):
            if lhs[r] != e * dvec[r]:
                raise ValueError("no scalar solves the e_w identity for "
                                 "w=%d; the family is not PBW" % w)
        if found is not None and found != e:
            raise ValueError("witness-dependent e_w for w=%d" % w)
        found = e
    if found is None:
        raise ValueError("every basis vector is fixed by w=%d" % w)
    return found


# --------------------------------------------------------------------------
# H (x) C(V)


class TensorElement(Terms):
    """An element of H (x) C(V) in bi-normal form.

    terms maps (PBW key, Clifford monomial) to a scalar; both factors are
    kept canonical, so equality is term-map equality.  Multiplication is
    componentwise (the tensor product is not super here; the parity twist
    enters only through the eps automorphism and the derivation d): each
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
        for (hk1, cm1), c1 in self.terms.items():
            for (hk2, cm2), c2 in other.terms.items():
                cprod = alg._unit_product(cm1, cm2)
                cc = c1 * c2
                for hk, hc in fam._unit_product(hk1, hk2):
                    # most factors are 1, and a Fraction product is slow
                    if cc != 1:
                        hc = cc * hc
                    for cm, cf in cprod:
                        acc(out, (hk, cm), hc if cf == 1 else hc * cf)
        return TensorElement(fam, alg, out)

    def degree(self):
        """Filtration degree: V-degree on the H side plus Clifford degree."""
        if not self.terms:
            return -1
        return max(sum(hk[0]) + sum(hk[2]) + len(cm)
                   for (hk, cm) in self.terms)

    def clifford_parities(self):
        return {len(cm) % 2 for (_, cm) in self.terms}

    def eps(self):
        """The automorphism that negates odd Clifford parts and fixes H."""
        return TensorElement(self.family, self.algebra,
                             {k: (-c if len(k[1]) % 2 else c)
                              for k, c in self.terms.items()})

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


def tensor(helem, celem):
    """Outer product of an H element and a Clifford element."""
    return TensorElement(helem.family, celem.algebra, {
        (hk, cm): hc * cc for hk, hc in helem.terms.items()
        for cm, cc in celem.terms.items()})


def dirac_element(family):
    """D = sum_i v_i (x) v^i, v^i the dual basis of the generators against
    the family's V form."""
    alg = family.clifford
    ginv = alg.gram_inverse()
    out = None
    for i in range(family.nv):
        term = tensor(family.v_gen(i), alg.vector(ginv[i]))
        out = term if out is None else out + term
    return out


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
    """d(a) = D a - eps(a) D."""
    d = dirac_element(a.family)
    return d * a - a.eps() * d


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

    @classmethod
    def from_element_map(cls, group, emap):
        """Validate class-constancy of a per-element coefficient map."""
        coeffs = {}
        for w, c in emap.items():
            name = group.class_name_of_element(w)
            if name in coeffs:
                if coeffs[name] != c:
                    raise ValueError(
                        f"coefficients not constant on class {name!r}")
            else:
                coeffs[name] = c
        for name, c in coeffs.items():
            if not c:
                continue
            ci = group.class_names.index(name)
            for w in group.conjugacy_classes[ci]:
                if emap.get(w, 0) != c:
                    raise ValueError(
                        f"coefficients not constant on class {name!r}")
        return cls(group, coeffs)

    def coefficient(self, w):
        return self.terms.get(self.group.class_name_of_element(w), 0)

    def __mul__(self, other):
        if not isinstance(other, GroupAlgebraClassFunction):
            return self._scaled(other)
        self._check(other)
        g = self.group
        emap = {}
        for w in range(g.order):
            cw = self.coefficient(w)
            if not cw:
                continue
            winv = g.inverse_index(w)
            for u in range(g.order):
                cu = other.coefficient(g.mult(winv, u))
                if cu:
                    acc(emap, u, cw * cu)
        return GroupAlgebraClassFunction.from_element_map(g, emap)

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({scalar_str(c)})*[{n}]"
                          for n, c in sorted(self.terms.items()))


def _reflection_weight(r, c_map):
    """2 c_s / (1 - lambda_s) for the reflection r."""
    return 2 * c_map[r.class_name] * reciprocal(1 - r.lam)


def group_algebra_casimir(family):
    """Omega_{W,c} = sum over reflections of 2 c_s/(1 - lambda_s) . s for
    Cherednik presets, as a class function; lambda_s is the nontrivial
    eigenvalue of s on the reflection line in h.  This is the image of the
    lifted Casimir under the kernel decomposition."""
    if family.preset_tag != "cherednik":
        raise ValueError("the closed-form group Casimir needs the "
                         "rational Cherednik preset")
    g = family.group
    emap = {r.element_index: _reflection_weight(r, family.params["c"])
            for r in g.reflections}
    return GroupAlgebraClassFunction.from_element_map(g, emap)


def casimir_scalar(sigma, c, group):
    """N_c(sigma): the scalar of the group-algebra Casimir on irrep sigma,
    (1/dim) sum over reflections of 2 c_s/(1 - lambda_s) chi_sigma(s)."""
    chi = group.character(sigma)
    c_map = _c_map(group, c)
    dim = chi[0]
    total = 0
    for r in group.reflections:
        total = total + (_reflection_weight(r, c_map)
                         * chi[group.class_of(r.element_index)])
    return rational(total * reciprocal(dim))


def casimir_table(group, c):
    """[N_c(mu) for mu in group.irrep_labels], built once per (group, c)
    and kept on the group; index it by group.irrep_index."""
    c_map = _c_map(group, c)
    key = tuple(sorted((name, scalar_str(v)) for name, v in c_map.items()))
    table = group._casimir_tables.get(key)
    if table is None:
        table = group._casimir_tables[key] = [
            casimir_scalar(mu, c_map, group) for mu in group.irrep_labels]
    return table


# --------------------------------------------------------------------------
# bounded-degree kernel decomposition


def _coords(elems, index=None):
    """Exact coordinate matrix of tensor elements; columns are elements."""
    if index is None:
        index = {}
        for e in elems:
            for k in e.terms:
                if k not in index:
                    index[k] = len(index)
    rows = len(index)
    mat = [[0] * len(elems) for _ in range(rows)]
    for j, e in enumerate(elems):
        for k, c in e.terms.items():
            mat[index[k]][j] = c
    return mat, index


def _candidate_keys(group, cap):
    """Raw search keys (PBW key, odd Clifford monomial) of degree <= cap."""
    n = group.n
    cliff_monos = [m for m in spin_basis(2 * n) if len(m) % 2 == 1]
    # exponents of degree <= cap, lexicographic: fixes the column order
    exponents = sorted(m for d in range(cap + 1) for m in poly.monomials(n, d))
    hkeys = [(xa, w, yb) for xa in exponents for yb in exponents
             if sum(xa) + sum(yb) <= cap for w in range(group.order)]
    return [(hk, cm) for hk in hkeys for cm in cliff_monos
            if sum(hk[0]) + sum(hk[2]) + len(cm) <= cap]


def _diagonal_averager(family):
    """key -> sum_w Delta(w) e_key Delta(w)^(-1) for the unit tensor e_key.

    The product is componentwise, so h (x) m goes to (w h w^(-1)) (x)
    (tau_w m tau_w^(-1)); each factor image is formed once per
    (w, PBW key) and once per (w, Clifford monomial).
    """
    g, alg = family.group, family.clifford
    pins = [(family.group_element(w).terms, pin_tau(w, g).terms,
             family.group_element(g.inverse_index(w)).terms,
             pin_tau_inverse(w, g).terms) for w in range(g.order)]
    himg, cimg = {}, {}

    def average(key):
        hk, cm = key
        out = {}
        for w, (gw, tw, gwi, twi) in enumerate(pins):
            hw = himg.get((w, hk))
            if hw is None:
                hw = himg[(w, hk)] = family._mul_terms(
                    family._mul_terms(gw, {hk: 1}), gwi)
            cw = cimg.get((w, cm))
            if cw is None:
                cw = cimg[(w, cm)] = alg._mul_terms(
                    alg._mul_terms(tw, {cm: 1}), twi)
            for hk2, hc in hw.items():
                for cm2, cc in cw.items():
                    acc(out, (hk2, cm2), hc * cc)
        return TensorElement(family, alg, out)

    return average


def _d_by_keys(a, d, cache):
    """d(a) from d(e) = D e - eps(e) D on the unit keys e of a (d is
    linear); cache holds those images for the one Dirac element d."""
    out = {}
    for key, c in a.terms.items():
        dk = cache.get(key)
        if dk is None:
            e = TensorElement(a.family, a.algebra, {key: 1})
            dk = cache[key] = (d * e - e.eps() * d).terms
        for k2, c2 in dk.items():
            acc(out, k2, c * c2)
    return TensorElement(a.family, a.algebra, out)


# raw search keys past which decompose_kernel_element refuses to search
COLUMN_LIMIT = 8000


def decompose_kernel_element(z, family, degree_cap=4, candidate_filter=None):
    """Split z in ker d as Delta(s) + d(b) at bounded filtration degree.

    z must be diagonally W-invariant, of even Clifford parity and degree
    at most degree_cap; for t != 0 Cherednik presets it must also commute
    with the lifted Casimir (membership in the subalgebra the kernel
    theorem is stated on).  b is searched over the diagonally invariant
    odd subspace of degree <= degree_cap + 1; candidate_filter, when
    given, restricts the raw search keys (hkey, clifford mono) before
    averaging, which can only shrink the solution space.  Returns (s, b)
    with s a class function; raises ValueError when d(z) != 0 and
    CapExceeded (bound "degree_cap") when no split exists at this
    degree_cap, or (bound "column_limit") when the search has more raw
    keys than COLUMN_LIMIT.

    Each raw key h (x) m is averaged factor by factor: Delta(w) conjugates
    it to (w h w^(-1)) (x) (tau_w m tau_w^(-1)), with both factor images
    cached per w, so no full H (x) C(V) product is formed.  d is linear:
    D is built once and d(e) = D e - eps(e) D is formed once per unit
    key e, so each d(b) is a linear combination of cached images.  One
    elimination over [d(b) | Delta(w) | z] then settles existence and
    uniqueness.
    """
    g = family.group
    if z.degree() > degree_cap:
        raise ValueError("element degree exceeds degree_cap")
    if z.clifford_parities() - {0}:
        raise ValueError("kernel decomposition needs even Clifford parity")
    deltas = [delta_element(family, w) for w in range(g.order)]
    for gi in g.generator_indices:
        if deltas[gi] * z != z * deltas[gi]:
            raise ValueError("element is not diagonally W-invariant")
    t = (family.params or {}).get("t")
    if family.preset_tag == "cherednik" and t:
        omt = omega_tilde(family)
        if omt * z != z * omt:
            raise ValueError("element does not commute with the lifted "
                             "Casimir")
    if derivation_d(z):
        raise ValueError("d(z) != 0")

    raw = _candidate_keys(g, degree_cap + 1)
    if candidate_filter is not None:
        raw = [key for key in raw if candidate_filter(key)]
    if len(raw) > COLUMN_LIMIT:
        raise CapExceeded(f"{len(raw)} candidate terms exceed the "
                          f"configured limit {COLUMN_LIMIT}",
                          "column_limit", len(raw))

    average = _diagonal_averager(family)
    seen = {}
    invariant_b = []
    for key in raw:
        p = average(key)
        if not p:
            continue
        # cheap prefilter: drop a projection that is a multiple of one
        # already kept (compared scaled to 1 at the minimal term); full
        # independence is settled below
        mark = min(p.terms)
        inv = reciprocal(p.terms[mark])
        unit = {k: c * inv for k, c in p.terms.items()}
        kept = seen.setdefault(mark, [])
        if unit in kept:
            continue
        kept.append(unit)
        invariant_b.append(p)
    d, d_images = dirac_element(family), {}
    d_cols = [_d_by_keys(b, d, d_images) for b in invariant_b]
    keep = [i for i, col in enumerate(d_cols) if col]
    invariant_b = [invariant_b[i] for i in keep]
    d_cols = [d_cols[i] for i in keep]

    # one elimination over [d(b) | Delta(w) | z]: z is reachable exactly
    # when its column is no pivot, and, the Delta(w) being independent
    # (distinct group parts), the split is unique exactly when every
    # Delta column is a pivot, i.e. span Delta meets span d(b) in zero
    nd = len(d_cols)
    ncols = nd + g.order
    reduced, pivots = linalg.rref(_coords(d_cols + deltas + [z])[0])
    if ncols in pivots:
        raise CapExceeded("no decomposition at this degree cap; raise "
                          "degree_cap", "degree_cap")
    if not set(range(nd, ncols)) <= set(pivots):
        raise ValueError("group-algebra block meets the derivation image; "
                         "the decomposition would not be unique")
    # free coordinates stay zero, so each pivot reads off directly
    sol = [0] * ncols
    for row, p in zip(reduced, pivots):
        sol[p] = row[ncols]
    emap = {w: sol[nd + w] for w in range(g.order) if sol[nd + w]}
    s = GroupAlgebraClassFunction.from_element_map(g, emap)
    b = None
    for bc, c in zip(invariant_b, sol):
        if c:
            term = c * bc
            b = term if b is None else b + term
    if b is None:
        b = TensorElement(family, family.clifford, {})
    return s, b


def zeta(z, family):
    """The class-function component of the kernel decomposition."""
    s, _ = decompose_kernel_element(z, family)
    return s
