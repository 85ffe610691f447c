"""
The t = 0 story: baby Vermas, central characters, and the partition
===================================================================

At t = 0 the center is huge.  Every baby Verma has an exact Casimir
scalar -N_c(sigma), kernel types certify merges between W-types, and
the resulting partition reproduces the B2 family structure.
"""
from fractions import Fraction

from cherednik import (
    baby_verma,
    build_group,
    dirac_cohomology,
    dirac_partition,
    omega_central_character,
    one_dimensional_quotient,
)

g = build_group("B2")

for sigma in g.irrep_labels:
    val = omega_central_character(sigma, 1, g)
    print(f"Omega acts on baby Verma of {sigma} by {val}")

# baby Verma kernels only self-merge; the one-dimensional quotient of
# 11x0 carries three types and glues the middle block
rep = dirac_cohomology(baby_verma(g, "11x0", 1))
print("baby Verma kernel types:",
      [(e["irrep"], e["multiplicity"]) for e in rep["H_D"]])
rep = dirac_cohomology(one_dimensional_quotient(g, "11x0", 1))
print("simple quotient kernel types:",
      [(e["irrep"], e["multiplicity"]) for e in rep["H_D"]])

p = dirac_partition(g, 1)
print("blocks at c = 1:", p.blocks)

# degenerate parameters can leave equal central characters unmerged;
# those pairs are reported, never silently glued
p0 = dirac_partition(g, {"long": Fraction(1), "short": Fraction(0)})
print("blocks with short class switched off:", p0.blocks)
for entry in p0.undecided_pairs:
    print("  undecided:", entry["pair"])
