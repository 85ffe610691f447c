"""
The kernel of the derivation d and the zeta map
===============================================

Diagonally invariant elements killed by d split uniquely into a group
algebra part and an exact part d(b).  The group-algebra component of the
lifted Casimir is the Calogero-Moser homomorphism in miniature, and at
t = 0 the W-invariant polynomials all factor through d.
"""
from cherednik import build_group, verify_cm_factorization, zeta
from cherednik.dirac import (
    decompose_kernel_element,
    delta_element,
    derivation_d,
    omega_tilde,
)
from cherednik.pbw import cherednik_family

g = build_group("A1")
fam = cherednik_family(g, 0, 1)

z = omega_tilde(fam)
s, b = decompose_kernel_element(z, fam)
print("class-function part of the lifted Casimir:", s.coefficients)

# rebuild z from the two components: z = Delta(s) + d(b)
recomposed = derivation_d(b)
for w in range(g.order):
    coeff = s.coefficients.get(g.class_names[g.class_of(w)])
    if coeff:
        recomposed = recomposed + coeff * delta_element(fam, w)
print("z = Delta(s) + d(b):", recomposed == z)

# zeta is multiplicative on the Casimir
s2 = zeta(z * z, fam)
print("zeta(Omega~^2) = zeta(Omega~)^2:", s2 == s * s)

# every fundamental invariant on either polynomial side has a d-preimage
out = verify_cm_factorization(g, 1, 2)
for entry in out["invariants"]:
    print(f"invariant on {entry['side']} side, degree {entry['degree']}: "
          f"witness with {entry['witness_terms']} terms, "
          f"verified {entry['verified']}")
