"""Multivariate polynomials as {exponent tuple: scalar} dicts.

Used for S(h*) with its W-action (linear substitution), fundamental
invariants, and induced matrices on symmetric and exterior powers.  Zero
coefficients are always stripped, so dict equality is polynomial equality.
"""

from itertools import combinations, permutations


def p_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def p_scale(c, a):
    if not c:
        return {}
    return {e: c * v for e, v in a.items()}


def p_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
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


def wedge_basis_labels(n, l):
    return list(combinations(range(n), l))
