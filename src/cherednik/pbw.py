"""Drinfeld graded Hecke algebras: form families, PBW normal form, straightening.

An algebra here is determined by a reflection group W acting on V and a
family of skew-symmetric forms a_w on V, one per group element, through the
relations

    w.v.w^(-1) = w(v),        [u, v] = sum_w a_w(u, v) w.

Elements are kept in the normal form x^a . w . y^b.  For the polarized
presets V = h + h* with the x block spanning h* and the y block spanning h.
The orthogonal preset (graded affine Hecke) runs on V0 = h with a
W-invariant symmetric form; there the whole V-part lives in the x block and
the y block stays identically zero.  One engine straightens both: a product
inserts x_j past y^b, then past w, then into x^a.  The images w(x^a) and
the normal forms y_i . x^a are memoized per family, each monomial formed
from its prefix (x^a less its last letter) by one product.
"""

from fractions import Fraction

from . import linalg, poly
from .clifford import CliffordAlgebra, polarized_algebra
from .poly import Terms, acc
from .scalars import rational, real_sign, reciprocal, scalar_str


def _unit(n, j):
    e = [0] * n
    e[j] = 1
    return tuple(e)


def _zero_matrix(m):
    return all(x == 0 for row in m for x in row)


class FormFamily:
    """A reflection group together with its family of commutator forms.

    forms maps element index -> nv x nv matrix of a_w on the V generator
    basis (absent means zero).  clifford is C(V) for the family's form on
    V, which also caches its Gram inverse.  Construction does not verify
    the PBW conditions: every downstream identity assumes them, and
    pbw_check is the one place that decides them.
    """

    def __init__(self, group, forms, preset_tag="custom", space="polarized",
                 params=None):
        self.group = group
        self.space = space
        if space == "polarized":
            self.nv = 2 * group.n
            # <x_i, y_i> = 1
            self.clifford = polarized_algebra(group.n)
        elif space == "orthogonal":
            self.nv = group.n
            self.clifford = CliffordAlgebra(
                invariant_form(group), [f"v{i + 1}" for i in range(self.nv)])
        else:
            raise ValueError("space must be 'polarized' or 'orthogonal'")
        self.forms = {w: m for w, m in forms.items() if not _zero_matrix(m)}
        self.preset_tag = preset_tag
        self.params = dict(params or {})
        # straightening caches
        self._past = {}
        self._images = {}
        self._ins = {}
        # y_i . x^a in normal form, read by the modules' y columns
        self._yx = {}
        # products of two PBW monomials, read by H (x) C(V) products
        self._units = {}
        # the Dirac element D in H (x) C(V), built by dirac.dirac_element
        self._dirac = None
        # per ideal: the sigma-independent GradedModule data
        self._module_data = {}

    # -- basic data

    def support(self):
        return sorted(self.forms)

    def v_matrix(self, w):
        """Matrix of w on the V generator basis."""
        if self.space == "orthogonal":
            return self.group.elements[w]
        n = self.group.n
        h = self.group.elements[w]
        hs = self.group.h_star_matrix(w)
        m = linalg.zeros(2 * n, 2 * n)
        for i in range(n):
            for j in range(n):
                m[2 * i][2 * j] = hs[i][j]
                m[2 * i + 1][2 * j + 1] = h[i][j]
        return m

    # -- element constructors

    def element(self, terms):
        return AlgebraElement(self, terms)

    def zero(self):
        return AlgebraElement(self, {})

    def scalar(self, c):
        nz = (0,) * self.group.n
        return AlgebraElement(self, {(nz, 0, nz): c})

    def one(self):
        return self.scalar(1)

    def group_element(self, w):
        nz = (0,) * self.group.n
        return AlgebraElement(self, {(nz, w, nz): 1})

    def x_gen(self, i):
        nz = (0,) * self.group.n
        return AlgebraElement(self, {(_unit(self.group.n, i), 0, nz): 1})

    def y_gen(self, i):
        if self.space == "orthogonal":
            raise ValueError("orthogonal family has no y block")
        nz = (0,) * self.group.n
        return AlgebraElement(self, {(nz, 0, _unit(self.group.n, i)): 1})

    def v_gen(self, i):
        """Generator number i of V in the engine's slot order."""
        if self.space == "orthogonal":
            return self.x_gen(i)
        return self.x_gen(i // 2) if i % 2 == 0 else self.y_gen(i // 2)

    def vector_element(self, coords):
        out = {}
        for i, c in enumerate(coords):
            if c:
                for k, v in self.v_gen(i).terms.items():
                    acc(out, k, c * v)
        return AlgebraElement(self, out)

    # -- straightening

    def _image(self, u, e, dual):
        """Expansion of the monomial with exponents e under the matrix of u
        on h* (dual) or on h, as {exponent: coeff}, from one table of
        images per (u, dual) (poly.monomial_image)."""
        table = self._images.get((u, dual))
        if table is None:
            table = self._images[(u, dual)] = {}
        got = table.get(e)
        if got is None:
            got = poly.monomial_image(table, e, self.group.h_star_matrix(u)
                                      if dual else self.group.elements[u])
        return got

    def _w_on_x(self, w, a):
        """Expansion of w(x^a): the x block spans h* on the polarized space
        and h on the orthogonal one."""
        return self._image(w, a, self.space == "polarized")

    def _w_on_y(self, w, b):
        """Expansion of (w^(-1)(y))^b, so that y^b . w = w . (that)."""
        return self._image(self.group.inverse_index(w), b, False)

    def _y_past_x(self, b, j):
        """Normal form of y^b . x_j as a tuple of (coeff, a, w, b')."""
        key = (b, j)
        got = self._past.get(key)
        if got is not None:
            return got
        n = self.group.n
        nz = (0,) * n
        if not any(b):
            res = ((1, _unit(n, j), 0, nz),)
        else:
            b1, i = poly.last_letter(b)
            out = {}
            # y^b x_j = (y^b1 x_j) y_i + sum_w a_w(y_i, x_j) y^b1 w
            for c, a2, w2, b2 in self._y_past_x(b1, j):
                up = list(b2)
                up[i] += 1
                acc(out, (a2, w2, tuple(up)), c)
            for w, mat in self.forms.items():
                val = mat[2 * i + 1][2 * j]
                if val == 0:
                    continue
                for b2, d in self._w_on_y(w, b1).items():
                    acc(out, (nz, w, b2), val * d)
            res = tuple((c, k[0], k[1], k[2]) for k, c in out.items())
        self._past[key] = res
        return res

    def _insert_x(self, a, e):
        """Normal form of x^a . x^e, e of degree at most 1, as ((coeff, a',
        w'), ...).  On the polarized space the x's commute; on the
        orthogonal one x_l x_k = x_k x_l + sum_w a_w(v_l, v_k) w moves x_k
        left past every x_l with l > k."""
        key = (a, e)
        got = self._ins.get(key)
        if got is not None:
            return got
        n = self.group.n
        k = e.index(1) if any(e) else n
        l = max((t for t in range(n) if a[t]), default=-1)
        if self.space == "polarized" or l <= k:
            res = ((1, tuple(p + q for p, q in zip(a, e)), 0),)
        else:
            b, _ = poly.last_letter(a)
            out = {}
            # x^a x_k = (x^b x_k) x_l + sum_w a_w(v_l, v_k) x^b w, and
            # w1 x_l = w1(x_l) w1
            for c, a1, w1 in self._insert_x(b, e):
                for e2, d in self._w_on_x(w1, _unit(n, l)).items():
                    for c2, a2, w2 in self._insert_x(a1, e2):
                        acc(out, (a2, self.group.mult(w2, w1)), c * d * c2)
            for w, mat in self.forms.items():
                val = mat[l][k]
                if val != 0:
                    acc(out, (b, w), val)
            res = tuple((c, k2[0], k2[1]) for k2, c in out.items())
        self._ins[key] = res
        return res

    # -- term-by-generator products

    def _times_x(self, terms, j):
        """terms . x_j: x_j moves left past y^b (_y_past_x), past w as
        w(x_j) (_w_on_x) and into x^a (_insert_x)."""
        mult = self.group.mult
        out = {}
        for (a, w, b), c in terms.items():
            for c1, a1, w1, b1 in self._y_past_x(b, j):
                # most factors are 1, and a Fraction product is slow
                cc = c1 if c == 1 else (c if c1 == 1 else c * c1)
                # the identity moves past everything unchanged
                ww1 = mult(w, w1) if w else w1
                for a2, d in (self._w_on_x(w, a1).items() if w
                              else ((a1, 1),)):
                    cd = cc if d == 1 else cc * d
                    for c3, a3, w3 in self._insert_x(a, a2):
                        acc(out, (a3, mult(w3, ww1) if w3 else ww1, b1),
                            cd if c3 == 1 else cd * c3)
        return out

    def _y_on_x(self, i, a):
        """Normal form of y_i . x^a as terms: one _times_x step from
        y_i . x^(a - e_j), x_j the last letter of x^a."""
        got = self._yx.get((i, a))
        if got is None:
            if any(a):
                prefix, j = poly.last_letter(a)
                got = self._times_x(self._y_on_x(i, prefix), j)
            else:
                got = self.y_gen(i).terms
            self._yx[(i, a)] = got
        return got

    def _times_w(self, terms, w2):
        out = {}
        for (a, w, b), c in terms.items():
            if not any(b):
                acc(out, (a, self.group.mult(w, w2), b), c)
            else:
                for b2, d in self._w_on_y(w2, b).items():
                    acc(out, (a, self.group.mult(w, w2), b2), c * d)
        return out

    def _unit_product(self, k1, k2):
        """Normal form of the product of PBW monomials k1 and k2 as a
        memoised tuple of (key, coefficient) pairs."""
        got = self._units.get((k1, k2))
        if got is None:
            got = self._units[(k1, k2)] = tuple(
                self._mul_terms({k1: 1}, {k2: 1}).items())
        return got

    def _mul_terms(self, uterms, vterms):
        res = {}
        for (a2, w2, b2), c2 in vterms.items():
            cur = uterms
            for j, e in enumerate(a2):
                for _ in range(e):
                    cur = self._times_x(cur, j)
            if w2 != 0:
                cur = self._times_w(cur, w2)
            if any(b2):
                nxt = {}
                for (a, w, b), c in cur.items():
                    nxt[(a, w, tuple(p + q for p, q in zip(b, b2)))] = c
                cur = nxt
            for k, v in cur.items():
                acc(res, k, v if c2 == 1 else v * c2)
        return res


class AlgebraElement(Terms):
    """A finite sum of PBW monomials x^a.w.y^b with exact coefficients."""

    __slots__ = ("family",)
    _over = "form families"

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            return self._scaled(other)
        self._check(other)
        return AlgebraElement(self.family,
                              self.family._mul_terms(self.terms, other.terms))

    def to_data(self):
        """Canonical term list sorted by (x exponents, w, y exponents)."""
        out = []
        for a, w, b in sorted(self.terms):
            out.append({"x": list(a), "w": w, "y": list(b),
                        "coeff": scalar_str(self.terms[(a, w, b)])})
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for a, w, b in sorted(self.terms):
            factors = []
            for i, e in enumerate(a):
                if e:
                    factors.append("x%d" % (i + 1) + ("^%d" % e if e > 1 else ""))
            if w != 0:
                factors.append("g%d" % w)
            for i, e in enumerate(b):
                if e:
                    factors.append("y%d" % (i + 1) + ("^%d" % e if e > 1 else ""))
            c = self.terms[(a, w, b)]
            cs = scalar_str(c)
            if not factors:
                bits.append(cs)
            elif cs == "1/1":
                bits.append("*".join(factors))
            else:
                bits.append("(%s)*%s" % (cs, "*".join(factors)))
        return " + ".join(bits)

    __repr__ = __str__


# -- presets


def _c_map(group, c):
    names = group.reflection_class_names()
    if isinstance(c, dict):
        missing = [nm for nm in names if nm not in c]
        if missing:
            raise ValueError("no parameter for class(es) %s" % ", ".join(missing))
        extra = [nm for nm in c if nm not in names]
        if extra:
            raise ValueError("unknown reflection class(es) %s" % ", ".join(extra))
        return {nm: rational(v) for nm, v in c.items()}
    c = rational(c)
    return {nm: c for nm in names}


def _pair(alpha, alpha_check):
    return sum(a * b for a, b in zip(alpha, alpha_check))


def cherednik_forms(group, t, c_map):
    """The rational Cherednik commutator forms on V = h + h*.

    a_1(y, x) = t<y, x> and for each reflection s
    a_s(y, x) = -c_s <y, alpha_s><alpha_s^vee, x> / <alpha_s^vee, alpha_s>.
    """
    n = group.n
    forms = {}
    if t != 0:
        a1 = linalg.zeros(2 * n, 2 * n)
        for i in range(n):
            a1[2 * i + 1][2 * i] = rational(t)
            a1[2 * i][2 * i + 1] = -a1[2 * i + 1][2 * i]
        forms[0] = a1
    for r in group.reflections:
        cs = c_map[r.class_name]
        if cs == 0:
            continue
        pinv = reciprocal(_pair(r.alpha, r.alpha_check))
        mat = linalg.zeros(2 * n, 2 * n)
        for i in range(n):
            for j in range(n):
                val = rational(-cs * r.alpha[i] * r.alpha_check[j] * pinv)
                if val != 0:
                    mat[2 * i + 1][2 * j] = val
                    mat[2 * j][2 * i + 1] = -val
        forms[r.element_index] = mat
    return forms


# the most recently used families, oldest first
_CHEREDNIK_FAMILIES = {}
_FAMILIES_KEPT = 8


def cherednik_family(group, t, c):
    """The rational Cherednik algebra H_{t,c} as a form family, built once
    per (group, t, c) and shared with its straightening and module caches
    while it is among the _FAMILIES_KEPT most recently used.

    H_{t,c} is PBW for every (t, c) (Etingof-Ginzburg 2002, Thm 1.3);
    pbw_check verifies it.
    """
    c_map = _c_map(group, c)
    key = (group, scalar_str(t)) + tuple(
        (name, scalar_str(v)) for name, v in sorted(c_map.items()))
    got = _CHEREDNIK_FAMILIES.pop(key, None)
    if got is None:
        got = FormFamily(group, cherednik_forms(group, t, c_map),
                         preset_tag="cherednik", params={"t": t, "c": c_map})
    _CHEREDNIK_FAMILIES[key] = got
    if len(_CHEREDNIK_FAMILIES) > _FAMILIES_KEPT:
        del _CHEREDNIK_FAMILIES[next(iter(_CHEREDNIK_FAMILIES))]
    return got


def invariant_form(group):
    """A W-invariant symmetric form on h, pinned so the first listed
    reflection's root vector has squared length 2."""
    n = group.n
    b0 = linalg.mean_gram(group.elements)
    alpha = group.reflections[0].alpha
    binv = linalg.inverse(b0)
    norm = sum(alpha[i] * sum(binv[i][j] * alpha[j] for j in range(n))
               for i in range(n))
    return linalg.mat_scale(norm * Fraction(1, 2), b0)


def positive_system(group):
    """One root covector per reflection, with consistent lengths.

    The stored per-reflection covectors carry arbitrary scales, so the
    roots are regenerated as W-orbits of one representative per class;
    orbit members then share their representative's length exactly.  The
    positive half is cut out by a generic evaluation vector.  Returns
    (covector, reflection element index) pairs sorted by reflection.
    """
    n = group.n
    orbit = []
    for name in group.reflection_class_names():
        rep = next(r for r in group.reflections if r.class_name == name)
        for h in range(group.order):
            minv = group.elements[group.inverse_index(h)]
            img = tuple(sum(rep.alpha[i] * minv[i][j] for i in range(n))
                        for j in range(n))
            if not any(img == seen for seen in orbit):
                orbit.append(img)
    for q in (Fraction(3, 7), Fraction(5, 11), Fraction(17, 89)):
        v0 = [q ** i for i in range(n)]
        vals = [sum(a[i] * v0[i] for i in range(n)) for a in orbit]
        if all(v != 0 * v for v in vals):
            break
    else:
        raise ValueError("no generic vector found for the root orbit")
    out = []
    for a, v in zip(orbit, vals):
        if real_sign(v) < 0:
            continue
        match = None
        for r in group.reflections:
            piv = next(i for i in range(n) if r.alpha[i] != 0 * r.alpha[i])
            u = a[piv] * reciprocal(r.alpha[piv])
            if all(a[i] == u * r.alpha[i] for i in range(n)):
                match = r.element_index
                break
        if match is None:
            raise ValueError("orbit covector off every reflection line")
        out.append((a, match))
    if 2 * len(out) != len(orbit) or len(out) != len(group.reflections):
        raise ValueError("positive system has the wrong size")
    return sorted(out, key=lambda p: p[1])


def gaha_forms(group, roots):
    """Graded-affine-Hecke forms on V0 = h for a positive system given as
    (covector, k, reflection index) triples.

    a_w(u, v) = -sum over ordered pairs of distinct positive roots with
    s_al s_be = w of k_al k_be (al(u)be(v) - al(v)be(u)).
    """
    n = group.n
    forms = {}
    for al1, k1, i1 in roots:
        for al2, k2, i2 in roots:
            if i1 == i2 or k1 == 0 or k2 == 0:
                continue
            w = group.mult(i1, i2)
            mat = forms.setdefault(w, linalg.zeros(n, n))
            coef = -k1 * k2
            for i in range(n):
                for j in range(n):
                    mat[i][j] += coef * (al1[i] * al2[j] - al1[j] * al2[i])
    return {w: m for w, m in forms.items() if not _zero_matrix(m)}


def gaha_family(group, k):
    """Lusztig's graded affine Hecke algebra as an orthogonal-space family,
    on the positive system of positive_system."""
    if any(r.lam != -1 for r in group.reflections):
        raise ValueError("graded affine Hecke preset needs a real "
                         "reflection group")
    k_map = _c_map(group, k)
    forms = gaha_forms(group, [(a, k_map[group.reflection_at(i).class_name], i)
                               for a, i in positive_system(group)])
    return FormFamily(group, forms, preset_tag="graded-affine-hecke",
                      space="orthogonal", params={"k": k_map})


def corrupted_family(group, kind=None):
    """Seeded families that fail the PBW checker in a controlled way.

    kind: "nonskew" (malformed matrix, reported as condition 0), "class"
    (breaks conjugation-invariance, condition 1), "radical" (kernel of a_s
    differs from V^s, condition 2), "rotation" (orthogonal family supported
    on an involution, conditions 1 and 3, and 2 as well on B3).  The
    default picks "class" when some reflection class has at least two
    members, else "nonskew".  A kind that cannot corrupt is a ValueError.
    """
    if kind is None:
        multi = [nm for nm in group.reflection_class_names()
                 if sum(1 for r in group.reflections if r.class_name == nm) > 1]
        kind = "class" if multi else "nonskew"
    n = group.n
    if kind == "nonskew":
        forms = cherednik_forms(group, 1, _c_map(group, 1))
        bad = forms[group.reflections[0].element_index]
        bad[0][0] = 1
        return FormFamily(group, forms, preset_tag="corrupted")
    if kind == "class":
        cm = _c_map(group, 1)
        first = None
        for r in group.reflections:
            others = [q for q in group.reflections
                      if q.class_name == r.class_name
                      and q.element_index != r.element_index]
            if others:
                first = r.element_index
                break
        if first is None:
            raise ValueError("every reflection class is a singleton")
        # doubling one reflection's form breaks class-invariance
        forms = cherednik_forms(group, 1, cm)
        forms[first] = linalg.mat_scale(2, forms[first])
        return FormFamily(group, forms, preset_tag="corrupted")
    if kind == "radical":
        # the natural symplectic pairing is W-invariant but nondegenerate,
        # so its kernel is 0 instead of V^s
        if n == 1:
            raise ValueError("on rank 1 V^s = 0 is the kernel of the "
                             "symplectic pairing, so it is no corruption")
        cls = group.reflections[0].class_name
        j = linalg.zeros(2 * n, 2 * n)
        for i in range(n):
            j[2 * i][2 * i + 1] = 1
            j[2 * i + 1][2 * i] = -1
        forms = {r.element_index: [row[:] for row in j]
                 for r in group.reflections if r.class_name == cls}
        return FormFamily(group, forms, preset_tag="corrupted")
    if kind == "rotation":
        # orthogonal-space family supported on a central involution; every
        # reflection then violates the determinant condition
        target = None
        for i in range(1, group.order):
            if group.mult(i, i) == 0 and group.reflection_at(i) is None:
                target = i
                break
        if target is None:
            raise ValueError("no non-reflection involution in this group")
        j = linalg.zeros(n, n)
        j[0][1] = 1
        j[1][0] = -1
        return FormFamily(group, {target: j}, preset_tag="corrupted",
                          space="orthogonal")
    raise ValueError("unknown corruption kind %r" % kind)


# -- the PBW checker


def _first_mismatch(a, b):
    """The first basis pair (i, j), row by row, at which the square
    matrices a and b differ, or None."""
    return next(((i, j) for i, (ra, rb) in enumerate(zip(a, b))
                 for j, (x, y) in enumerate(zip(ra, rb)) if x != y), None)


def pbw_check(family):
    """Check the three PBW conditions; failure is a verdict, not an error.

    Returns {"passed": bool, "failures": [entry, ...]} where each entry has
    a condition number, the witness element w, and the data that broke.
    Condition 0 flags malformed (non-skew) input that the real conditions
    assume.
    """
    group = family.group
    nv = family.nv
    failures = []

    for w, mat in sorted(family.forms.items()):
        if len(mat) != nv or any(len(row) != nv for row in mat):
            failures.append({"condition": 0, "w": w, "h": None,
                             "detail": "a_w has the wrong shape"})
            continue
        bad = _first_mismatch(mat, linalg.mat_scale(-1, linalg.transpose(mat)))
        if bad:
            failures.append({"condition": 0, "w": w, "h": None, "pair": bad,
                             "detail": "a_w is not skew-symmetric at basis "
                                       "pair %s" % (bad,)})
    if failures:
        return {"passed": False, "failures": failures}

    zero = linalg.zeros(nv, nv)

    # (1) a_{h^-1 w h}(u, v) = a_w(h(u), h(v)) on basis pairs; checking the
    # generators is enough since conjugation by a product factors through them
    for w in family.support():
        aw = family.forms[w]
        for h in group.generator_indices:
            hm = family.v_matrix(h)
            rhs = linalg.mat_mul(linalg.transpose(hm), linalg.mat_mul(aw, hm))
            wc = group.mult(group.mult(group.inverse_index(h), w), h)
            lhs = family.forms.get(wc, zero)
            pair = _first_mismatch(lhs, rhs)
            if pair:
                failures.append({"condition": 1, "w": w, "h": h, "pair": pair,
                                 "detail": "a_{h^-1wh} != a_w(h., h.) for "
                                           "w=%d, h=%d at basis pair %s"
                                           % (w, h, pair)})
                break  # one witness per w is enough

    # (2) ker a_w = V^w and dim V^w = dim V - 2, for w in W(a) \ {1}
    for w in family.support():
        if w == 0:
            continue
        vm = family.v_matrix(w)
        fixed, fixed_free = linalg.nullspace(
            linalg.mat_sub(vm, linalg.identity(nv)), nv)
        if len(fixed) != nv - 2:
            failures.append({"condition": 2, "w": w, "h": None,
                             "detail": "dim V^w = %d, want %d for w=%d"
                                       % (len(fixed), nv - 2, w)})
            continue
        kern, kern_free = linalg.nullspace(family.forms[w], nv)
        # a vector of one subspace outside the other, which exists exactly
        # when the two differ
        sides = [(kern, kern_free, "ker a_w"), (fixed, fixed_free, "V^w")]
        witness = next(((v, mine, other)
                        for (basis, _, mine), (span, pivots, other)
                        in (sides, sides[::-1]) for v in basis
                        if linalg.span_coords(span, pivots, v) is None), None)
        if witness is None:
            continue
        if len(kern) != len(fixed):
            detail = ("ker a_w has dim %d but V^w has dim %d for w=%d"
                      % (len(kern), len(fixed), w))
        else:
            detail = ("ker a_w and V^w both have dim %d but differ for "
                      "w=%d: the vector lies in %s, not in %s"
                      % ((len(kern), w) + witness[1:]))
        failures.append({"condition": 2, "w": w, "h": None,
                         "vector": witness[0], "detail": detail})

    # (3) det(h | (V^w)-perp) = 1 for h centralizing w
    for w in family.support():
        if w == 0:
            continue
        vm = family.v_matrix(w)
        moved, pivots = linalg.column_space_basis(
            linalg.transpose(linalg.mat_sub(vm, linalg.identity(nv))))
        if len(moved) != 2:
            continue  # already reported under condition 2
        for h in range(group.order):
            if group.mult(h, w) != group.mult(w, h):
                continue
            hm = family.v_matrix(h)
            cols = [linalg.span_coords(moved, pivots, linalg.mat_vec(hm, u))
                    for u in moved]
            if None in cols:
                failures.append({"condition": 3, "w": w, "h": h,
                                 "detail": "h=%d does not preserve the moved "
                                           "plane of w=%d" % (h, w)})
                continue
            det = poly.det(cols)
            if det != 1:
                failures.append({"condition": 3, "w": w, "h": h, "det": det,
                                 "detail": "det of h=%d on the moved plane of "
                                           "w=%d is %s, not 1"
                                           % (h, w, scalar_str(det))})
    return {"passed": not failures, "failures": failures}


# -- Casimir elements


def casimir_h(family):
    """The element sum_i v_i v^i, v^i the dual basis of the generators
    against the family's symmetric form."""
    ginv = family.clifford.gram_inverse()
    total = family.zero()
    for i in range(family.nv):
        total = total + family.v_gen(i) * family.vector_element(ginv[i])
    return total


def compute_e_w(family, w):
    """The scalar e_w attached to w in W(a) \\ {1}.

    Determined by the identity, for every x in V,

        sum_i (a_w(x, v_i) w(v^i) + a_w(x, v^i) v_i) = e_w (x - w(x)).

    The solve avoids the square-root normalization of the Clifford lift.
    Every basis vector x = v_j is checked, w-fixed ones included, where
    the left side must vanish: e is read at the first nonzero entry of
    x - w(x) over all j, and every entry must agree with it.  e is in the
    rational form when it is rational.
    """
    aw = family.forms.get(w)
    if aw is None:
        return 0
    nv = family.nv
    ginv = family.clifford.gram_inverse()
    vm = family.v_matrix(w)
    vg = linalg.mat_mul(vm, ginv)
    ag = linalg.mat_mul(aw, ginv)
    # (left side, entry of x - w(x)) at every basis vector and position
    pairs = [(lhs + ag[j][r], (1 if r == j else 0) - vm[r][j])
             for j in range(nv)
             for r, lhs in enumerate(linalg.mat_vec(vg, aw[j]))]
    first = next((p for p in pairs if p[1]), None)
    if first is None:
        raise ValueError("every basis vector is fixed by w=%d" % w)
    e = rational(first[0] * reciprocal(first[1]))
    if any(lhs != e * d for lhs, d in pairs):
        raise ValueError("no scalar solves the e_w identity for w=%d; the "
                         "family is not PBW" % w)
    return e


def casimir_omega(family):
    """Omega_H = h - sum_{w in W(a), w != 1} e_w w in PBW normal form."""
    om = casimir_h(family)
    for w in family.support():
        if w == 0:
            continue
        e = compute_e_w(family, w)
        if e != 0:
            om = om - e * family.group_element(w)
    return om
