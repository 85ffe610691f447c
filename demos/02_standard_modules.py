"""
Standard modules and their Dirac cohomology
===========================================

The standard module M(sigma) is polynomials tensored with an irreducible
W-type.  The Dirac operator acts on M(sigma) (x) S cell by cell, its
square is an exact scalar on each isotypic piece, and the kernel modulo
the image is concentrated where that scalar vanishes.
"""
from fractions import Fraction

from cherednik import build_group, dirac_cohomology, standard_module
from cherednik.modules import d_squared_scalar, h_weight
from cherednik.pbw import casimir_omega
from cherednik.scalars import CapExceeded

g = build_group("A1")
c = Fraction(1, 3)
m = standard_module(g, "triv", c, K=3)

# the Casimir acts on degree k by 2k + 1 - c
om = casimir_omega(m.family)
for k in range(4):
    val = m.action_blocks(om, k)[k][0][0]
    print(f"Omega on degree {k}: {val}")

print("weight of triv:", h_weight("triv", c, g))

# D^2 scalars on the cells of B2; the zero cells carry the cohomology
b2 = build_group("B2")
for (k, l) in [(0, 0), (0, 1), (0, 2), (1, 1)]:
    sc = d_squared_scalar(b2, "2x0", b2.tensor_with_eps("2x0"), k, l, 1)
    print(f"B2 cell ({k},{l}) scalar on the eps-dual type: {sc}")

rep = dirac_cohomology(standard_module(b2, "2x0", 1, K=4))
for entry in rep["H_D"]:
    print("H_D contains", entry["irrep"], "x", entry["multiplicity"],
          "at cells", entry["cells"])

# large c pushes the kernel window past the cap; the error says how far
try:
    dirac_cohomology(standard_module(g, "triv", 3, K=2))
except CapExceeded as err:
    print("cap too small:", err, "(minimal K =", err.minimal, ")")
