"""t = 0 applications: central characters of baby Verma modules, the
Dirac partition of the irreducible W-types, and bounded-degree
factorization of invariants through the derivation image.

The partition is a certificate object: merges are proven by computed
Dirac-cohomology witnesses, separations only by Casimir disagreement,
and equal-Casimir pairs without a witness chain stay marked undecided.
"""

from . import linalg
from .dirac import (casimir_table, decompose_kernel_element, derivation_d,
                    tensor)
from .groups import _invariant_generators
from .modules import (baby_verma, dirac_cohomology, h_weight,
                      one_dimensional_quotient)
from .pbw import _c_map, casimir_omega, cherednik_family
from .scalars import scalar_map_str


def omega_central_character(sigma, c, group):
    """Scalar of the grading Casimir on the whole baby Verma module,
    verified degree by degree as an exact matrix identity."""
    module = baby_verma(group, sigma, c)
    om = casimir_omega(module.family)
    expected = -h_weight(sigma, c, group)
    for k in module.degrees():
        blocks = module.action_blocks(om, k)
        stray = [k2 for k2 in blocks if k2 != k]
        if stray:
            raise AssertionError("grading Casimir moved a degree piece")
        dim = module.piece_dim(k)
        if (blocks.get(k) or linalg.zeros(dim, dim)) != linalg.mat_scale(
                expected, linalg.identity(dim)):
            raise AssertionError(f"central character fails at degree {k}")
    return expected


class DiracPartition:
    """Blocks of irreducible W-types with their merge certificates."""

    def __init__(self, group, c_map, blocks, evidence, undecided_pairs):
        self.group = group
        self.c = c_map
        self.blocks = blocks
        self.evidence = evidence
        self.undecided_pairs = undecided_pairs

    def to_data(self):
        return {
            "group": self.group,
            "c": scalar_map_str(self.c),
            "blocks": [list(b) for b in self.blocks],
            "evidence": list(self.evidence),
            "undecided_pairs": list(self.undecided_pairs),
        }


def dirac_partition(group, c):
    """Partition of the irreducible W-types generated by the witnessed
    merges sigma ~ mu when mu (x) eps occurs in the Dirac cohomology of
    the baby Verma module of sigma, or of its visible one-dimensional
    quotient when that quotient exists."""
    c_map = _c_map(group, c)
    labels = group.irrep_labels
    # tensoring with eps permutes the labels; merging needs the inverse
    # twist, which only differs from the forward one for complex groups
    eps_inverse = {group.tensor_with_eps(lab): lab for lab in labels}
    parent = {lab: lab for lab in labels}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            # keep the smaller catalogue index as the root
            if labels.index(rb) < labels.index(ra):
                ra, rb = rb, ra
            parent[rb] = ra

    evidence = []

    def harvest(sigma, module, tag):
        rep = dirac_cohomology(module)
        for entry in rep["H_D"]:
            mu = eps_inverse[entry["irrep"]]
            evidence.append({
                "sigma": sigma, "mu": mu, "module": tag,
                "multiplicity": entry["multiplicity"]})
            union(sigma, mu)

    for sigma in labels:
        harvest(sigma, baby_verma(group, sigma, c), "baby-verma")
    for sigma in labels:
        if group.dim_of(sigma) != 1:
            continue
        try:
            quotient = one_dimensional_quotient(group, sigma, c)
        except ValueError:
            continue
        harvest(sigma, quotient, "simple-quotient")

    by_root = {}
    for lab in labels:
        by_root.setdefault(find(lab), []).append(lab)
    blocks = sorted(by_root.values(), key=lambda b: labels.index(b[0]))
    for block in blocks:
        block.sort(key=labels.index)

    nvals = dict(zip(labels, casimir_table(group, c)))
    for block in blocks:
        base = nvals[block[0]]
        for lab in block[1:]:
            if nvals[lab] != base:
                raise AssertionError("a witness merged across Casimir "
                                     "level sets")

    undecided = []
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            if nvals[a] == nvals[b] and find(a) != find(b):
                undecided.append({"pair": [a, b],
                                  "status": "undecided-separate"})
    return DiracPartition(group.catalogue_id, c_map, blocks, evidence,
                          undecided)


# --------------------------------------------------------------------------
# factorization of invariants through the derivation image


def verify_cm_factorization(group, c, degree_cap):
    """For each fundamental invariant f of degree <= degree_cap, on both
    the polynomial and the dual side, solve f (x) 1 = d(b) exactly at
    t = 0 and report the witness.  The witness b is searched at degree
    <= deg f + 1 on f's own polynomial side; CapExceeded (bound
    "degree_cap") propagates when none exists there."""
    fam = cherednik_family(group, 0, c)
    n = group.n
    zero = (0,) * n

    jobs = []
    # polynomial side: invariants of S(h*) in the x generators
    degrees = group.invariant_degrees
    for f, d in zip(group.invariant_generators, degrees):
        if d <= degree_cap:
            jobs.append(("h_star", f, d))
    for f, d in zip(_invariant_generators(group, group.elements), degrees):
        if d <= degree_cap:
            jobs.append(("h", f, d))

    results = []
    for side, f, d in jobs:
        terms = {}
        for mono, coeff in f.items():
            if side == "h_star":
                terms[(mono, 0, zero)] = coeff
            else:
                terms[(zero, 0, mono)] = coeff
        z = tensor(fam.element(terms), fam.clifford.one())
        if side == "h_star":
            same_side = lambda key: not any(key[0][2])
        else:
            same_side = lambda key: not any(key[0][0])
        s, b = decompose_kernel_element(z, fam, degree_cap=d,
                                        candidate_filter=same_side)
        if s.coefficients:
            raise AssertionError("invariant left a group-algebra residue")
        if derivation_d(b) != z:
            raise AssertionError("witness does not reproduce the invariant")
        results.append({
            "side": side,
            "degree": d,
            "monomials": len(f),
            "witness_terms": len(b.terms),
            "verified": True,
        })
    return {
        "group": group.catalogue_id,
        "c": scalar_map_str(fam.params["c"]),
        "degree_cap": degree_cap,
        "invariants": results,
    }
