"""Cyclotomic polynomials and how rational primes split in Z[zeta_d].

The splitting law (phi(d)/ord_d(q) primes above q, each of residue degree
ord_d(q)) is checked against the honest factorization of Phi_d mod q, and the
factorizations are always squarefree away from d: the arithmetic shadow of
Z[zeta_d, 1/d] being regular.
"""

from quillen_strata.rings import (GF, cyclotomic_poly, factor,
                                  is_separable, prime_splitting)

for d in (1, 2, 4, 8, 12):
    print("Phi_%d = %s" % (d, cyclotomic_poly(d).pretty()))

print("\nHow small primes split in Z[zeta_8]:")
for q in (3, 5, 7, 11, 13, 17):
    s = prime_splitting(8, q)
    dom = GF(q)
    phi = cyclotomic_poly(8).map_domain(dom, dom.of_int)
    factors = [g.pretty() for g, _ in factor(phi)]
    print("  q=%2d: %d prime(s) of degree %d;  Phi_8 = %s  (mod %d)"
          % (q, s.count, s.residue_degree, " * ".join(factors), q))
    assert len(factors) == s.count
    assert is_separable(phi)

# q = 17 splits completely since 17 = 1 mod 8; q = 3, 5 give two quadratics;
# q = 7 also splits into quadratics since ord_8(7) = 2.

print("\nTotally inert example: Phi_5 mod 2 is irreducible of degree 4:")
dom = GF(2)
phi5 = cyclotomic_poly(5).map_domain(dom, dom.of_int)
print("  Phi_5 =", " * ".join(g.pretty() for g, _ in factor(phi5)), "(mod 2)")
assert prime_splitting(5, 2).count == 1
