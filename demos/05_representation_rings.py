"""Spectra of representation rings via equivariant K-theory.

Spec(R(C_2)) = Spec(Z[X]/(X^2-1)) is two copies of Spec(Z) glued at the
prime 2: above every odd prime sit two maximal ideals, but above 2 only
(2, X+1) = (2, X-1).  For non-abelian groups the Weyl action on a stratum can
permute the primes above a split rational prime.
"""

from quillen_strata.groups import build_group, subgroups_up_to_conjugacy
from quillen_strata.rings import cyclic_spectrum_ring
from quillen_strata.spectrum import assemble_strong, serialize
from quillen_strata.strata import parse_theory, stratum

sr = cyclic_spectrum_ring(2, 13)
print("Spec(Z[X]/(X^2-1)) up to 13:")
for i, m in enumerate(sr.minimal):
    over = [sr.maximal[j].data[1:] for (ii, j) in sr.contains if ii == i]
    print("  minimal (Phi_%d), label %s, below: %s" % (m.data[1], m.label, over))

th = parse_theory("ku")
C2 = build_group("cyclic:2")
print()
print(serialize(assemble_strong(th, C2, "cyclic:2"), "table"))

# Weyl action on the C3 stratum inside S3: inversion swaps the two primes
# above each q = 1 mod 3, and fixes the inert ones.
S3 = build_group("sym:3")
c3 = [c for c in subgroups_up_to_conjugacy(S3) if c.order == 3][0]
model = stratum(parse_theory("ku", prime_bound=13), c3)
print("C3 stratum points:", [pt.local_id for pt in model.points])
print("Weyl orbits:", model.orbits())
# primes above 7 and 13 (both 1 mod 3) pair up; 2, 5, 11 stay inert
