"""Subgroup lattices, Weyl group flavors, and the Mackey double-coset identity.

Walks through the group engine on the symmetric group S4: conjugacy classes
of subgroups, the three flavors of Weyl group attached to each class, and the
double-coset decomposition that later generates the gluing relation between
strata.
"""

from quillen_strata.groups import (build_group, double_cosets,
                                   subgroups_up_to_conjugacy, weyl)

G = build_group("sym:4")
print("S4 has order", G.order)

classes = subgroups_up_to_conjugacy(G)
print("\n%d conjugacy classes of subgroups:" % len(classes))
print("%6s %6s %8s %8s %8s" % ("order", "count", "|N|", "|C|", "cyclic"))
for cls in classes:
    print("%6d %6d %8d %8d %8s"
          % (cls.order, cls.conjugates, len(cls.normalizer_numbers),
             len(cls.centralizer_numbers), cls.is_cyclic()))

# The three Weyl flavors: N/H (ordinary), N/(H*C) (global), N/C (Quillen).
# The global order always divides the other two.
print("\nWeyl groups per class (ordinary / global / quillen):")
for cls in classes:
    orders = [weyl(cls, kind).order
              for kind in ("ordinary", "global", "quillen")]
    print("  order-%d class #%d: %s" % (cls.order, cls.index, orders))

# Double cosets: for H = K = the subgroup generated by a 4-cycle,
# sum over H\G/K of [G : H^g cap K] equals [G:H] * [G:K].
c4 = [c for c in classes if c.order == 4 and c.is_cyclic()][0]
dec = double_cosets(G, c4, c4)
print("\nC4\\S4/C4 has %d double cosets with sizes %s"
      % (len(dec.pairs), [dc.size for dc in dec.pairs]))
lhs = sum(dec.group_order // len(dc.intersection) for dc in dec.pairs)
print("Mackey identity: sum [G : H^g cap K] = %d = [G:H][G:K] = %d"
      % (lhs, (G.order // 4) ** 2))
assert dec.mackey_ok()
