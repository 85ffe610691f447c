"""Exact linear algebra over rational and cyclotomic entries.

rref, the one elimination, takes and returns sparse rows, {column:
nonzero} dicts; it also reads a dense row, a list, and so does nullspace,
which is told the column count.  The other helpers take and return dense
matrices, lists of rows, and vectors, lists, since their inputs (group
matrices, forms, module blocks) are small.  Entries
only need +, -, *, equality and truthiness-as-nonzero, so ints, Fractions
and CyclotomicScalars mix freely; division goes through
scalars.reciprocal, never through `/`, which would turn two ints into a
float.  rref eliminates on integers when the input is rational; a
CyclotomicScalar is never rational-valued, so a matrix of rational values
always takes that path.  Its results, and those of nullspace and inverse
built on it, are in the rational form of scalars.py (an int when
integral), and a dense result holds every zero as the int 0.  Everything
is exact; there is no pivoting for numerical stability because there is
no rounding.

The subspace idiom: a subspace is eliminated once, into reduced echelon
rows (column_space_basis) or a nullspace basis (nullspace), and either
comes back with its pivots, the columns rref found: each basis vector is
1 at its pivot, where every other basis vector is 0 (an echelon row at
its pivot column, a nullspace vector at its free column).  So the
coordinates of a vector in the span are its entries at the pivots, and
span_coords answers membership and coordinates in one pass over the
basis, with no elimination per vector.  The helpers: rref, rank,
nullspace, inverse; column_space_basis, span_coords and
subspace_intersection on subspaces; psd_report for positivity.

The identity rule: the products (mat_mul, mat_vec, kron_row_dot, and
add_kron, the one Kronecker kernel) and add_into skip zero entries,
multiply only by factors other than 1, and store the first term into an
empty (zero) slot instead of adding it to 0, since most entries met here
are 0 or +-1 and a Fraction or cyclotomic operation normalises its
result.  The values are those of the full arithmetic; where that would
leave an integral Fraction, a result may hold its int instead.
"""

from fractions import Fraction
from math import gcd, lcm

from .scalars import as_fraction, rational, reciprocal


def zeros(r, c):
    return [[0] * c for _ in range(r)]


def identity(n):
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = 1
    return m


def transpose(m):
    return [list(col) for col in zip(*m)] if m else []


def mat_mul(a, b):
    rb = len(b)
    cb = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * cb
        for k in range(rb):
            v = row[k]
            if v:
                one = v == 1
                for j, y in enumerate(b[k]):
                    if y:
                        if not one:
                            y = v if y == 1 else v * y
                        acc[j] = acc[j] + y if acc[j] else y
        out.append(acc)
    return out


def mat_vec(m, v):
    out = []
    for row in m:
        s = 0
        for x, y in zip(row, v):
            if x and y:
                if x != 1:
                    y = x if y == 1 else x * y
                s = s + y if s else y
        out.append(s)
    return out


def kron_row_dot(ra, rb, v):
    """(ra (x) rb) . v without forming the Kronecker row: the sum over r
    of ra[r] times rb dotted with v's r-th segment of len(rb) entries."""
    db = len(rb)
    s = 0
    for r, x in enumerate(ra):
        if not x:
            continue
        t, base = 0, r * db
        for j, y in enumerate(rb):
            z = v[base + j] if y else 0
            if z:
                if y != 1:
                    z = y if z == 1 else y * z
                t = t + z if t else z
        if t:
            if x != 1:
                t = x if t == 1 else x * t
            s = s + t if s else t
    return s


def add_into(acc, m):
    """acc += m in place, skipping the zero entries of m."""
    for row, mrow in zip(acc, m):
        for j, y in enumerate(mrow):
            if y:
                row[j] = row[j] + y if row[j] else y


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, m):
    return [[rational(c * x) for x in row] for row in m]


def mean_gram(mats):
    """(1/N) sum_m m^T m over N square matrices; for the matrices of a
    finite group it is the Gram matrix of an invariant form."""
    total = zeros(len(mats[0]), len(mats[0]))
    for m in mats:
        add_into(total, mat_mul(transpose(m), m))
    return mat_scale(Fraction(1, len(mats)), total)


def add_kron(acc, a, b):
    """acc += a (x) b in place, skipping zero entries of a and b: the one
    Kronecker kernel, which forms the product itself into zeros()."""
    rb, cb = len(b), len(b[0]) if b else 0
    for r, ra in enumerate(a):
        for j, v in enumerate(ra):
            if not v:
                continue
            one = v == 1
            for i, bi in enumerate(b):
                row = acc[r * rb + i]
                for jj, y in enumerate(bi, j * cb):
                    if y:
                        if not one:
                            y = v if y == 1 else v * y
                        row[jj] = row[jj] + y if row[jj] else y


def _primitive(row):
    """The primitive integer row proportional to a row of ints and
    Fractions (int has numerator and denominator too)."""
    if Fraction in map(type, row.values()):
        den = lcm(*[x.denominator for x in row.values()])
        row = {j: x.numerator * (den // x.denominator)
               for j, x in row.items()}
    g = gcd(*row.values())
    return {j: x // g for j, x in row.items()} if g != 1 else row


def _cancel_int(row, piv, c):
    """Primitive integer row proportional to row - (row[c]/piv[c]) piv,
    formed fraction-free as (piv[c]/g) row - (row[c]/g) piv."""
    g = gcd(piv[c], row[c])
    a, b = piv[c] // g, row[c] // g
    out = {j: a * x for j, x in row.items()} if a != 1 else dict(row)
    for j, y in piv.items():
        x = out.get(j, 0) - b * y
        if x:
            out[j] = x
        else:
            del out[j]
    g = gcd(*out.values())
    return {j: x // g for j, x in out.items()} if g > 1 else out


def _cancel_field(row, piv, c):
    """row - row[c] piv for a pivot row with piv[c] == 1."""
    f = row[c]
    out = dict(row)
    for j, y in piv.items():
        x = out[j] - f * y if j in out else -f * y
        if x:
            # scalars.rational, inlined on this hot path
            if type(x) is Fraction and x.denominator == 1:
                x = x.numerator
            out[j] = x
        else:
            del out[j]
    return out


def rref(m):
    """Reduced row echelon form of the rows m: (pivot rows, pivot columns).

    A row is a sparse {column: value} dict, or a dense list, which is read
    into one; zero values are dropped either way.  Rational input (ints
    and Fractions: every rational value) becomes primitive integer rows
    and is eliminated fraction-free, every step staying in Z (Bareiss,
    Math. Comp. 1968), each new row divided by its content; a Fraction is
    formed only when a pivot row is divided by its pivot on the way out.
    Other input divides each pivot row by its pivot once, one reciprocal
    per row.  At each column the sparsest candidate row becomes the pivot
    row, which limits fill-in; the reduced form is unique, so that choice
    does not show in the result.  Only the pivot rows come back, in pivot
    order, as {column: nonzero} dicts (1 at their pivot) whose rational
    entries are in the rational form.
    """
    live = [{j: x for j, x in (row.items() if type(row) is dict
                               else enumerate(row)) if x} for row in m]
    live = [row for row in live if row]
    over_q = {type(x) for row in live
              for x in row.values()} <= {int, Fraction}
    if over_q:
        live = [_primitive(row) for row in live]
    cancel = _cancel_int if over_q else _cancel_field
    # forward pass: a live row waits at its leading column
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
            # invert once: a cyclotomic inverse is a whole extended Euclid
            inv = reciprocal(p)
            piv = {j: rational(x * inv) for j, x in piv.items()}
            piv[c] = 1
        for row in group:
            if row is not first:
                if len(piv) == 1:
                    # a unit pivot row only clears column c
                    del row[c]
                else:
                    row = cancel(row, piv, c)
                if row:
                    waiting.setdefault(min(row), []).append(row)
        pivots.append(c)
        prows.append(piv)
    # backward pass: clear each later pivot column from the rows above it
    at = {c: k for k, c in enumerate(pivots)}
    for k in range(len(prows) - 2, -1, -1):
        row = prows[k]
        for c in [j for j in row if j in at and j != pivots[k]]:
            row = cancel(row, prows[at[c]], c)
        prows[k] = row
    if over_q:
        for k, (c, row) in enumerate(zip(pivots, prows)):
            p = row[c]
            prows[k] = {j: Fraction(x, p) if x % p else x // p
                        for j, x in row.items()}
    return prows, pivots


def rank(m):
    return len(rref(m)[1])


def nullspace(m, cols):
    """Basis of the right kernel of the rows m, sparse or dense as rref
    reads them, over cols columns: one dense vector per free column, and
    those free columns, where vector i is 1 at free[i] and the others are
    0.  With no rows every column is free."""
    rows, pivots = rref(m)
    taken = set(pivots)
    basis = {f: [0] * cols for f in range(cols) if f not in taken}
    for f, v in basis.items():
        v[f] = 1
    # a pivot row's entries off its pivot lie in free columns
    for pc, row in zip(pivots, rows):
        for f, x in row.items():
            if f != pc:
                basis[f][pc] = -x
    return list(basis.values()), list(basis)


def inverse(m):
    n = len(m)
    rows, pivots = rref([{**dict(enumerate(row)), n + i: 1}
                         for i, row in enumerate(m)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [[row.get(j, 0) for j in range(n, 2 * n)] for row in rows]


# --- subspace utilities -----------------------------------------------------

def column_space_basis(vectors):
    """Reduced echelon basis of the span of the given vectors, and its
    pivot columns: row i is 1 at pivots[i], where the others are 0."""
    if not vectors:
        return [], []
    cols = len(vectors[0])
    rows, pivots = rref(vectors)
    return [[row.get(j, 0) for j in range(cols)] for row in rows], pivots


def span_coords(basis, pivots, v):
    """Coefficients writing v in `basis`, or None if v lies outside its
    span.  Basis vector i is 1 at pivots[i], where every other one is 0,
    so the coefficients are v's entries at the pivots; v is in the span
    exactly when v minus their combination is 0.  An empty basis gives
    [] for v = 0 and None otherwise."""
    coords = [v[p] for p in pivots]
    rest = list(v)
    for a, u in zip(coords, basis):
        if a:
            for j, x in enumerate(u):
                if x:
                    rest[j] = rest[j] - (x if a == 1 else a * x)
    return None if any(rest) else coords


def subspace_intersection(abasis, bbasis):
    """Basis of span(abasis) intersect span(bbasis): the kernel of
    [A | -B] gives the combinations of abasis that land in it."""
    if not abasis or not bbasis:
        return []
    ker, _ = nullspace(transpose(abasis + [[-x for x in v] for v in bbasis]),
                       len(abasis) + len(bbasis))
    return column_space_basis(
        mat_mul([v[:len(abasis)] for v in ker], abasis))[0]


# --- positivity -------------------------------------------------------------

def psd_report(g):
    """Decide positive semidefiniteness of a symmetric rational matrix.

    Symmetric congruence elimination without square roots.  Returns a dict:
      psd: bool
      pivots: the nonzero pivots encountered, in elimination order
      witness: a vector v with v^T g v < 0, or None
      step: index (into pivot order) where the failure surfaced, or None
    Pivots and witness are in the rational form.  Raises NotRational on
    irrational entries; positivity is only decided over Q.
    """
    n = len(g)
    a = [[as_fraction(x) for x in row] for row in g]
    # cumulative transform: current a equals E g E^T
    E = identity(n)
    remaining = list(range(n))
    pivots = []
    while remaining:
        piv = None
        for i in remaining:
            if a[i][i]:
                piv = i
                break
        if piv is None:
            # all remaining diagonals vanish; any off-diagonal entry between
            # remaining indices makes the form indefinite
            for i in remaining:
                for j in remaining:
                    if i < j and a[i][j]:
                        inv = reciprocal(a[i][j])
                        v = [rational(E[j][k] - E[i][k] * inv)
                             for k in range(n)]
                        return {"psd": False, "pivots": pivots,
                                "witness": v, "step": len(pivots)}
            break
        d = a[piv][piv]
        if d < 0:
            return {"psd": False, "pivots": pivots,
                    "witness": [rational(x) for x in E[piv]],
                    "step": len(pivots)}
        pivots.append(rational(d))
        remaining.remove(piv)
        for j in remaining:
            if a[j][piv]:
                f = a[j][piv] * reciprocal(d)
                for k in range(n):
                    a[j][k] -= f * a[piv][k]
                    E[j][k] -= f * E[piv][k]
                for k in range(n):
                    a[k][j] -= f * a[k][piv]
    return {"psd": True, "pivots": pivots, "witness": None, "step": None}
