"""Mod-p cohomology strata over a non-prime field and a non-injective quotient.

Take the order-8 group (Z/2 x Z/2) : Z/2 (the swap action) and its Klein
four-subgroup E.  Over F_4 with degree bound 1, the open stratum of E holds
the generic point plus the two non-rational lines (x + a*y) and (x + (a+1)*y);
the Quillen-Weyl group Z/2 swaps them, so they hit the same point downstairs:
the quotient map is 2-to-1 there.
"""

from quillen_strata.groups import (Perm, build_group, class_containing,
                                   mulclose, subgroups_up_to_conjugacy)
from quillen_strata.spectrum import assemble_strong, serialize
from quillen_strata.strata import parse_theory, stratum

G = build_group("perm:(0 1);(2 3);(0 2)(1 3)")
classes = subgroups_up_to_conjugacy(G)
klein = class_containing(classes, mulclose(
    [Perm.from_cycles([(0, 1)], 4), Perm.from_cycles([(2, 3)], 4)], cap=8))

th = parse_theory("modp:q=4,deg=1")
model = stratum(th, klein)
print("V^{h,+} of the Klein four subgroup over F_4 (degree <= 1):")
for pt in model.points:
    print("  ", pt.label)
print("Weyl group order:", model.weyl.order)
print("orbits:", model.orbits(), " -> the two lines are identified")

# Raising the degree bound brings in the conjugate pairs of higher degree.
model2 = stratum(parse_theory("modp:q=4,deg=2"), klein)
print("\nwith degree bound 2 the stratum has %d points" % len(model2.points))

# Full strong assembly over all elementary abelian strata of G:
print()
print(serialize(assemble_strong(th, G, "perm:(0 1);(2 3);(0 2)(1 3)"), "table"))
