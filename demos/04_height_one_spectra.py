"""Height-one spectra: the fan over cyclic p-groups and its gluing.

Spec of the height-one theory on B(C_{p^n}) is a fan: generic points with
residue fields Q_p, Q_p(zeta_p), ..., Q_p(zeta_{p^n}) all specializing to a
single closed F_p point.  The same space is assembled twice: the strong form
(disjoint strata, Weyl quotients) and the weak form (colimit over the Quillen
orbit category), and the two agree.
"""

from quillen_strata.groups import build_group, subgroups_up_to_conjugacy
from quillen_strata.spectrum import (assemble_strong, assemble_weak,
                                     check_agreement, serialize)
from quillen_strata.strata import parse_theory, stratum

th = parse_theory("height1:p=2")
G = build_group("cyclic:8")
space = assemble_strong(th, G, "cyclic:8")
print(serialize(space, "table"))

# The fan shape: one closed point, every generic point specializes to it.
closed = space.closed_points()
assert len(closed) == 1
assert all(e.dst == closed[0].id for e in space.solid_edges())

# Non-cyclic example: the Klein four group has three order-2 strata.
V4 = build_group("elem-abelian:2^2")
print(serialize(assemble_strong(th, V4, "elem-abelian:2^2"), "table"))

# Weak assembly: glue the full per-subgroup spectra along the orbit category.
weak = assemble_weak(th, V4, "elem-abelian:2^2")
report = check_agreement(assemble_strong(th, V4, "elem-abelian:2^2"), weak)
print("weak/strong agreement for (Z/2)^2:", report.isomorphic)

# S3 at p=3: the Quillen-Weyl group of the Sylow 3-subgroup has order 2 but
# fixes every point of the C3 stratum, so the quotient collapses nothing.
S3 = build_group("sym:3")
th3 = parse_theory("height1:p=3")
c3 = [c for c in subgroups_up_to_conjugacy(S3) if c.order == 3][0]
model = stratum(th3, c3)
print("W^Q(C3) order:", model.weyl.order,
      " action on stratum:", model.action,
      " (identity: the action is trivial, hence not free)")
