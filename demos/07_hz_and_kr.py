"""Two further coefficient theories: integral constant coefficients and
K-theory with reality.

Over a cyclic p-group with integral constant coefficients, each nontrivial
subgroup contributes a two-point graded stratum {(0), (t)} of Z/p[t] next to
a truncated Spec(Z); the cross-strata gluing (dashed in the literature) is
recorded as external metadata, not computed.  Real K-theory over C_2 has
vanishing geometric fixed points at C_2, so only the trivial stratum
survives and the spectrum is plain Spec(Z).
"""

from quillen_strata.groups import build_group
from quillen_strata.spectrum import assemble_strong, serialize
from quillen_strata.strata import parse_theory

G = build_group("cyclic:9")
space = assemble_strong(parse_theory("hz:p=3"), G, "cyclic:9")
print(serialize(space, "table"))
external = [e for e in space.edges if e.kind == "external"]
print("external (dashed) edges, flagged with their provenance:")
for e in external:
    print("  %s -> %s   [%s]" % (e.src, e.dst, e.provenance))

print()
C2 = build_group("cyclic:2")
kr = assemble_strong(parse_theory("kr"), C2, "cyclic:2")
print(serialize(kr, "table"))
assert sorted({pt.stratum for pt in kr.points}) == ["o1.0"]  # only the trivial stratum contributes
