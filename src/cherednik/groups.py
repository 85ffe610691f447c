"""Catalogue of small complex reflection groups.

Entries: A1, A2, B2, B3, I2_m (m = 3..6), Zm (m = 2..6) and G(m,1,2)
(m = 2..4), each made on demand by its own builder (CATALOGUE_IDS builds
none).  Groups are enumerated by breadth-first closure from generator
matrices acting on h, which also records each element times each
generator; every product and inverse is read off the multiplication
table formed from those along the words, with no matrix product.
Reflection data (alpha, coroot, lambda), conjugacy classes, characters
and fundamental invariants are computed at build time.  Character tables
come from irreducible matrices shipped with each entry,
not from a general algorithm.  build_group checks that the generators are
reflections; that each shipped irrep is a representation; that the table
is square, its squared dimensions sum to |W| and its rows are orthonormal
(so det_h is a row); that each sigma (x) det_h is in it; each reflection's
eigen relations and pairing; that the degrees multiply to |W|; and that the
invariants have their degrees, are fixed and are independent.
Each entry gives one name template per generator; a reflection class takes
the template of the first generator g with a power g^k in it, formatted
with k ("long", "s1", "g{}", "d{}").

The BFS words are prefix-closed, so a value that is multiplicative along
words is formed at every element from the generators' values by one
product with the parent's (ReflectionGroup.along_words): the irreps, the
matrices on h*, the rows of the multiplication table (i w = (i parent)
g for w = parent g), and in clifford.py tau_w.

Conventions: group elements are matrices on h; the action on h* is the
inverse transpose; pairing of h and h* coordinates is the dot product.
<alpha_check, alpha> is normalized to 2 for the real families and 1 for the
cyclic and G(m,1,2) entries.
"""

import math
from fractions import Fraction
from functools import lru_cache, partial

from . import linalg, poly
from .scalars import (CyclotomicScalar, conjugate, rational, reciprocal,
                      scalar_str, zeta)


def _entry_key(x, n):
    if isinstance(x, CyclotomicScalar):
        return x.at_conductor(n).key()
    return (x.numerator, x.denominator)


def _mat_key(m, n):
    return tuple(tuple(_entry_key(x, n) for x in row) for row in m)


def trace(m):
    t = 0
    for i in range(len(m)):
        t = t + m[i][i]
    return t


def class_character(group, matrix):
    """Trace of matrix(w) at one representative w of each conjugacy class."""
    return [trace(matrix(cl[0])) for cl in group.conjugacy_classes]


class Reflection:
    """A pseudo-reflection with its root data.

    alpha lives in h* and alpha_check in h (coordinate lists); lam is the
    nontrivial eigenvalue on the alpha_check line.
    """

    __slots__ = ("element_index", "alpha", "alpha_check", "lam", "class_name")

    def __init__(self, element_index, alpha, alpha_check, lam):
        self.element_index = element_index
        self.alpha = alpha
        self.alpha_check = alpha_check
        self.lam = lam
        self.class_name = None


class WRepresentation:
    """A matrix representation: matrices[i] is the image of element i."""

    def __init__(self, dimension, matrices):
        self.dimension = dimension
        self.matrices = matrices

    def character(self, group):
        return class_character(group, self.matrices.__getitem__)


class ReflectionGroup:
    def __init__(self, **kw):
        self.__dict__.update(kw)

    # -- products and inverses (read off the multiplication table)

    def mult(self, i, j):
        return self._table[i][j]

    def inverse_index(self, i):
        return self._inverses[i]

    def h_star_matrix(self, i):
        return self._h_star[i]

    def along_words(self, images, mul, one):
        """Per-element values of a map that is multiplicative along the
        words, from the images of the generators: one at the identity and
        mul(value at the parent, image of the last letter) elsewhere."""
        values = [one]
        for i in range(1, self.order):
            values.append(mul(values[self.parents[i]],
                              images[self.words[i][-1]]))
        return values

    @property
    def order(self):
        return len(self.elements)

    def class_of(self, i):
        return self._class_of[i]

    def class_name_of_element(self, i):
        return self.class_names[self._class_of[i]]

    def reflection_class_names(self):
        seen = []
        for r in self.reflections:
            if r.class_name not in seen:
                seen.append(r.class_name)
        return seen

    def reflection_at(self, element_index):
        return self._refl_by_element.get(element_index)

    # -- irreps, by label: every lookup goes through irrep_index

    def irrep_index(self, label):
        """Catalogue position of an irrep label; ValueError for a label
        the group does not have."""
        index = self._irrep_index.get(label)
        if index is None:
            raise ValueError(f"unknown irrep label {label!r} "
                             f"for {self.catalogue_id}")
        return index

    def irrep(self, label):
        return self.irreps[self.irrep_labels[self.irrep_index(label)]]

    def dim_of(self, label):
        return self.irrep_dims[self.irrep_index(label)]

    def character(self, label):
        """Character of an irrep, one value per conjugacy class."""
        return self.character_table[self.irrep_index(label)]

    def dual_character(self, label):
        """|C| chi_label(C^-1) = |C| conj chi_label(C) per conjugacy class
        C, built once per irrep: the row inner_product pairs with."""
        index = self.irrep_index(label)
        row = self._dual_characters.get(index)
        if row is None:
            row = self._dual_characters[index] = [
                len(cl) * conjugate(y) for cl, y in
                zip(self.conjugacy_classes, self.character_table[index])]
        return row

    def tensor_with_eps(self, label):
        return self._eps_tensor[self.irrep_index(label)]


# --------------------------------------------------------------------------
# catalogue data


def _a2_std():
    return [[[-1, 1], [0, 1]], [[1, 0], [1, -1]]]


def _a1():
    return dict(
        rank=1, family="real",
        generators=[[[-1]]],
        irreps=[("triv", [[[1]]]),
                ("sgn", [[[-1]]])],
        invariant_degrees=[2],
        names=["s"],
    )


def _a2():
    return dict(
        rank=2, family="real",
        generators=_a2_std(),
        irreps=[("triv", [[[1]], [[1]]]),
                ("sgn", [[[-1]], [[-1]]]),
                ("std", _a2_std())],
        invariant_degrees=[2, 3],
        names=["s", "s"],
    )


def _b2():
    b2_long = [[0, 1], [1, 0]]
    b2_short = [[1, 0], [0, -1]]
    return dict(
        rank=2, family="real",
        generators=[b2_long, b2_short],
        irreps=[("2x0", [[[1]], [[1]]]),
                ("11x0", [[[-1]], [[1]]]),
                ("0x2", [[[1]], [[-1]]]),
                ("0x11", [[[-1]], [[-1]]]),
                ("1x1", [b2_long, b2_short])],
        invariant_degrees=[2, 4],
        names=["long", "short"],
    )


def _b3():
    m1 = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    m2 = [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    mt = [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]
    a2s1, a2s2 = _a2_std()
    i2 = linalg.identity(2)
    neg = linalg.mat_scale(-1, i2)
    nm1, nm2, nmt = (linalg.mat_scale(-1, m) for m in (m1, m2, mt))
    return dict(
        rank=3, family="real",
        generators=[m1, m2, mt],
        irreps=[("3x0", [[[1]], [[1]], [[1]]]),
                ("111x0", [[[-1]], [[-1]], [[1]]]),
                ("0x3", [[[1]], [[1]], [[-1]]]),
                ("0x111", [[[-1]], [[-1]], [[-1]]]),
                ("21x0", [a2s1, a2s2, i2]),
                ("0x21", [a2s1, a2s2, neg]),
                ("2x1", [m1, m2, mt]),
                ("11x1", [nm1, nm2, mt]),
                ("1x2", [m1, m2, nmt]),
                ("1x11", [nm1, nm2, nmt])],
        invariant_degrees=[2, 4, 6],
        names=["long", "long", "short"],
    )


def _dihedral(m):
    # I2(m): generators with c1*c2 = 4cos^2(pi/m)
    phi = 1 + zeta(5) + zeta(5) ** 4 if m == 5 else None
    c1, c2 = {3: (1, 1), 4: (1, 2), 5: (phi, phi), 6: (1, 3)}[m]
    s1 = [[-1, c1], [0, 1]]
    s2 = [[1, 0], [c2, -1]]
    swap = [[0, 1], [1, 0]]
    irreps = [("triv", [[[1]], [[1]]]),
              ("sgn", [[[-1]], [[-1]]])]
    if m % 2 == 0:
        irreps += [("sgn1", [[[-1]], [[1]]]),
                   ("sgn2", [[[1]], [[-1]]])]
    for j in range(1, (m - 1) // 2 + 1):
        zj = zeta(m, j)
        rho_s2 = [[0, zeta(m, -j)], [zj, 0]]
        irreps.append((f"rho{j}", [swap, rho_s2]))
    return dict(
        rank=2, family="real",
        generators=[s1, s2],
        irreps=irreps,
        invariant_degrees=[2, m],
        names=["s1", "s2"] if m % 2 == 0 else ["s", "s"],
    )


def _cyclic(m):
    return dict(
        rank=1, family="cyclic",
        generators=[[[zeta(m)]]],
        irreps=[(f"chi{j}", [[[zeta(m, j)]]]) for j in range(m)],
        invariant_degrees=[m],
        names=["g{}"],
    )


def _gm12(m):
    swap = [[0, 1], [1, 0]]
    delta = [[zeta(m), 0], [0, 1]]
    irreps = []
    for j in range(m):
        irreps.append((f"chi{j}p", [[[1]], [[zeta(m, j)]]]))
        irreps.append((f"chi{j}m", [[[-1]], [[zeta(m, j)]]]))
    for j in range(m):
        for k in range(j + 1, m):
            dj = [[zeta(m, j), 0], [0, zeta(m, k)]]
            irreps.append((f"rho{j}{k}", [swap, dj]))
    return dict(
        rank=2, family="gm12",
        generators=[swap, delta],
        irreps=irreps,
        invariant_degrees=[m, 2 * m],
        names=["s", "d{}"],
    )


_BUILDERS = {"A1": _a1, "A2": _a2, "B2": _b2, "B3": _b3,
             **{f"I2_{m}": partial(_dihedral, m) for m in range(3, 7)},
             **{f"Z{m}": partial(_cyclic, m) for m in range(2, 7)},
             **{f"G{m}_1_2": partial(_gm12, m) for m in range(2, 5)}}
CATALOGUE_IDS = sorted(_BUILDERS)


# --------------------------------------------------------------------------
# build


def _enumerate(generators):
    """BFS closure; returns (elements, words, parents, right), identity
    first.  The words are prefix-closed: words[i] is words[parents[i]]
    followed by one generator, and right[i][g] is the index of element i
    times generator g.  Matrices are told apart by their entries' keys
    at the generators' common conductor."""
    conductor = math.lcm(1, *(x.conductor for g in generators for row in g
                              for x in row if isinstance(x, CyclotomicScalar)))
    ident = linalg.identity(len(generators[0]))
    elements = [ident]
    words = [()]
    parents = [None]
    right = []
    index = {_mat_key(ident, conductor): 0}
    # the elements in index order are in BFS order
    while len(right) < len(elements):
        i, row = len(right), []
        for gi, g in enumerate(generators):
            prod = linalg.mat_mul(elements[i], g)
            key = _mat_key(prod, conductor)
            if key not in index:
                index[key] = len(elements)
                elements.append(prod)
                words.append(words[i] + (gi,))
                parents.append(i)
            row.append(index[key])
        right.append(row)
        if len(elements) > 2000:
            raise ValueError("group too large for the catalogue")
    return elements, words, parents, right


def _conjugacy_classes(group_mult, inverse_index, order, gens):
    seen = [False] * order
    classes = []
    for i in range(order):
        if seen[i]:
            continue
        orbit = {i}
        frontier = [i]
        while frontier:
            j = frontier.pop()
            for g in gens:
                k = group_mult(g, group_mult(j, inverse_index(g)))
                if k not in orbit:
                    orbit.add(k)
                    frontier.append(k)
        orbit = sorted(orbit)
        for j in orbit:
            seen[j] = True
        classes.append(orbit)
    classes.sort(key=lambda cl: cl[0])
    return classes


def _find_reflection_data(mat, family):
    """(alpha, alpha_check, lambda) for a pseudo-reflection matrix, or None."""
    n = len(mat)
    diff = [[mat[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    if linalg.rank(diff) != 1:
        return None
    # alpha_check spans the image of (s - 1); alpha spans the image of (s^T - 1)
    cols = linalg.transpose(diff)
    alpha_check = next(c for c in cols if any(x for x in c))
    rows = [list(r) for r in diff]
    alpha = next(r for r in rows if any(x for x in r))
    # (s - 1) alpha_check = (lambda - 1) alpha_check
    img = linalg.mat_vec(diff, alpha_check)
    pivot = next(i for i, x in enumerate(alpha_check) if x)
    lam = rational(img[pivot] * reciprocal(alpha_check[pivot]) + 1)
    if lam == 1:
        return None
    pairing = sum(a * b for a, b in zip(alpha_check, alpha))
    scale = (2 if family == "real" else 1) * reciprocal(pairing)
    alpha = [rational(x * scale) for x in alpha]
    return alpha, alpha_check, lam


def _name_reflection_classes(templates, group):
    """{class index: name} for the reflection classes: a class takes the
    template of the first generator g with a power g^k in it, formatted
    with k."""
    names = {}
    for template, gi in zip(templates, group.generator_indices):
        power, k = gi, 1
        while power != 0:
            names.setdefault(group.class_of(power), template.format(k))
            power, k = group.mult(power, gi), k + 1
    for r in group.reflections:
        if group.class_of(r.element_index) not in names:
            raise AssertionError("a reflection class holds no power of a "
                                 "generator")
    return names


def _invariant_generators(group, matrices):
    """One invariant per fundamental degree, none a polynomial in the
    earlier ones, for the action given by the degree-1 matrices
    (indexed by element; only the generators are read)."""
    n = group.n
    chosen = []
    for d in group.invariant_degrees:
        monos = poly.monomials(n, d)
        dim = len(monos)
        stacked = []
        for B in (matrices[i] for i in group.generator_indices):
            act = poly.action_matrix_on_degree(B, n, d)
            for i in range(dim):
                row = list(act[i])
                row[i] = row[i] - 1
                stacked.append(row)
        inv_vecs, _ = linalg.nullspace(stacked, dim)
        # span of products of previously chosen generators in this degree
        prods = []

        def extend(idx, left, acc):
            if idx == len(chosen):
                if left == 0:
                    prods.append(poly.to_vector(acc, monos))
                return
            f, df = chosen[idx]
            k = 0
            cur = acc
            while k * df <= left:
                extend(idx + 1, left - k * df, cur)
                cur = poly.p_mul(cur, f)
                k += 1

        extend(0, d, {tuple([0] * n): 1})
        basis, pivots = linalg.column_space_basis(
            [v for v in prods if any(x for x in v)])
        pick = next((v for v in inv_vecs
                     if linalg.span_coords(basis, pivots, v) is None), None)
        if pick is None:
            raise AssertionError(f"no new invariant of degree {d}")
        chosen.append((poly.from_vector(pick, monos), d))
    # algebraic independence via the Jacobian criterion
    jac = [[poly.partial(f, j) for j in range(n)] for f, _ in chosen]
    if poly.det_poly(jac) == {}:
        raise AssertionError("invariant generators are dependent")
    return [f for f, _ in chosen]


def _verify_character_table(group):
    """A square table, squared dimensions summing to |W|, and orthonormal
    rows (each against the dual_character rows), one test per unordered
    pair i <= j: the (j, i) sum is the conjugate of the (i, j) sum and the
    wanted values are real, so the first failing pair is the first in
    k x k order too.  Columns follow: M[i][c] = chi_i(c) sqrt(|C_c|/|W|) is
    square and M M* = I, so M* M = I.  Orthonormal characters of
    representations, the rows are then all k irreducible characters, and
    det_h is one of them."""
    order = group.order
    table = group.character_table
    k = len(table)
    if k != len(group.conjugacy_classes):
        raise AssertionError("square character table")
    if sum(d * d for d in group.irrep_dims) != order:
        raise AssertionError("squared irrep dimensions sum to |W|")
    dual = [group.dual_character(label) for label in group.irrep_labels]
    for i in range(k):
        for j in range(i, k):
            if class_pairing(table[i], dual[j]) != (order if i == j else 0):
                raise AssertionError(f"row orthogonality {i},{j}")


def _verify_reflection(group, r):
    mat = group.elements[r.element_index]
    lhs = linalg.mat_vec(mat, r.alpha_check)
    if lhs != [r.lam * x for x in r.alpha_check]:
        raise AssertionError("s(coroot) = lambda coroot")
    B = group.h_star_matrix(r.element_index)
    lam_inv = reciprocal(r.lam)
    if linalg.mat_vec(B, r.alpha) != [lam_inv * x for x in r.alpha]:
        raise AssertionError("s(alpha) = lambda^-1 alpha")
    pairing = sum(a * b for a, b in zip(r.alpha_check, r.alpha))
    if pairing != (2 if group.family == "real" else 1):
        raise AssertionError("<alpha^v, alpha> is 2 (real) or 1 (complex)")


@lru_cache(maxsize=None)
def build_group(catalogue_id: str) -> ReflectionGroup:
    builder = _BUILDERS.get(catalogue_id)
    if builder is None:
        raise ValueError(f"unknown group {catalogue_id!r}; "
                         f"known: {', '.join(CATALOGUE_IDS)}")
    data = builder()
    gens = data["generators"]
    elements, words, parents, right = _enumerate(gens)

    group = ReflectionGroup(
        catalogue_id=catalogue_id,
        n=data["rank"],
        family=data["family"],
        elements=elements,
        words=words,
        parents=parents,
        invariant_degrees=list(data["invariant_degrees"]),
        generator_indices=right[0],
        _dual_characters={},
    )
    # row i along the words: i w = (i parent) g for w = parent g
    group._table = [group.along_words(range(len(gens)),
                                      lambda v, g: right[v][g], i)
                    for i in range(group.order)]
    group._inverses = [row.index(0) for row in group._table]
    # w acts on h* by its inverse transpose, and w^-1 is the transpose of
    # that matrix
    group._h_star = group.along_words(
        [linalg.transpose(linalg.inverse(g)) for g in gens],
        linalg.mat_mul, linalg.identity(group.n))

    classes = _conjugacy_classes(group.mult, group.inverse_index,
                                 group.order, group.generator_indices)
    group.conjugacy_classes = classes
    class_of = {}
    for ci, cl in enumerate(classes):
        for i in cl:
            class_of[i] = ci
    group._class_of = class_of

    # reflections: det = lambda != 1, so det-1 elements skip the rank test
    det = [poly.det(m) for m in elements]
    reflections = []
    for i, mat in enumerate(elements):
        if det[i] == 1:
            continue
        found = _find_reflection_data(mat, data["family"])
        if found is None:
            continue
        alpha, alpha_check, lam = found
        reflections.append(Reflection(i, alpha, alpha_check, lam))
    group.reflections = reflections
    group._refl_by_element = {r.element_index: r for r in reflections}
    for gi in group.generator_indices:
        if gi not in group._refl_by_element:
            raise AssertionError("generators must be reflections")

    # class names
    names = _name_reflection_classes(data["names"], group)
    group.class_names = [names.get(ci, f"cl{ci}") for ci in range(len(classes))]
    group.class_names[class_of[0]] = "e"
    for r in reflections:
        r.class_name = group.class_names[class_of[r.element_index]]

    # irreps from shipped generator images, expanded along the words
    irrep_labels = []
    irrep_dims = []
    irreps = {}
    for label, gen_images in data["irreps"]:
        dim = len(gen_images[0])
        rep = WRepresentation(dim, group.along_words(
            gen_images, linalg.mat_mul, linalg.identity(dim)))
        irrep_labels.append(label)
        irrep_dims.append(dim)
        irreps[label] = rep
    group.irrep_labels = irrep_labels
    group.irrep_dims = irrep_dims
    group.irreps = irreps
    group._irrep_index = {label: i for i, label in enumerate(irrep_labels)}

    for label in irrep_labels:
        if not check_representation(irreps[label], group):
            raise AssertionError(f"shipped irrep {label} is not a representation")

    group.character_table = [irreps[label].character(group)
                             for label in irrep_labels]
    _verify_character_table(group)

    # sigma tensor eps lookup, by catalogue position, for eps = det_h
    eps_char = [det[cl[0]] for cl in classes]
    eps_tensor = []
    for label, row in zip(irrep_labels, group.character_table):
        prod = [a * b for a, b in zip(row, eps_char)]
        for label2, row2 in zip(irrep_labels, group.character_table):
            if row2 == prod:
                eps_tensor.append(label2)
                break
        else:
            raise AssertionError(f"{label} tensor eps not in table")
    group._eps_tensor = eps_tensor

    for r in reflections:
        _verify_reflection(group, r)

    degrees_product = 1
    for d in group.invariant_degrees:
        degrees_product *= d
    if degrees_product != group.order:
        raise AssertionError("product of degrees equals |W|")
    group.invariant_generators = _invariant_generators(group, group._h_star)
    for f, d in zip(group.invariant_generators, group.invariant_degrees):
        if poly.total_degree(f) != d:
            raise AssertionError("invariant generator has its degree")
        for gi in group.generator_indices:
            B = group.h_star_matrix(gi)
            if poly.substitute_linear(f, B) != f:
                raise AssertionError("invariant generator fixed")

    return group


# --------------------------------------------------------------------------
# representation operations


def check_representation(rep, group) -> bool:
    """Homomorphism check: identity plus closure against all generators.

    rho(g) rho(s) = rho(g s) for every g and generator s implies the full
    homomorphism property by induction on word length.
    """
    mats = rep.matrices
    if mats[0] != linalg.identity(rep.dimension):
        return False
    for i in range(group.order):
        for gi in group.generator_indices:
            if linalg.mat_mul(mats[i], mats[gi]) != mats[group.mult(i, gi)]:
                return False
    return True


def inner_product(group, chi, label):
    """<chi, chi_label> = (1/|W|) sum_C |C| chi(C) chi_label(C^-1) for a
    class function chi listed per conjugacy class, in the rational form
    when rational; callers decide whether it must be a nonnegative
    integer."""
    return rational(class_pairing(chi, group.dual_character(label))
                    * Fraction(1, group.order))


def class_pairing(chi, row):
    """sum_C chi(C) row(C) over two rows listed per conjugacy class,
    skipping the zero products: with a dual_character row, |W| times the
    inner product."""
    s = 0
    for x, y in zip(chi, row):
        if x and y:
            s = s + x * y
    return s


# --------------------------------------------------------------------------
# export


def export_data(group):
    """Plain-data snapshot of the group for JSON emission."""

    def strs(row):
        return [scalar_str(x) for x in row]

    return {
        "catalogue_id": group.catalogue_id,
        "order": group.order,
        "n": group.n,
        "generator_indices": list(group.generator_indices),
        "invariant_degrees": list(group.invariant_degrees),
        "class_names": list(group.class_names),
        "conjugacy_classes": [list(cl) for cl in group.conjugacy_classes],
        "irrep_labels": list(group.irrep_labels),
        "irrep_dims": list(group.irrep_dims),
        "character_table": [strs(row) for row in group.character_table],
        "elements": [[strs(row) for row in m] for m in group.elements],
        "reflections": [{
            "element_index": r.element_index,
            "class_name": r.class_name,
            "alpha": strs(r.alpha),
            "alpha_check": strs(r.alpha_check),
            "lambda": scalar_str(r.lam),
        } for r in group.reflections],
    }
