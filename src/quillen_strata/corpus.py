"""The built-in test corpus: the DSL-expressible groups of order <= 16 plus
the named extras (S3, S4, D4, D6, Q8, the wreath-type group (Z/2)^2 : Z/2)."""

from functools import lru_cache

from .groups import build_group

Q8_DSL = "perm:(0 1 4 5)(2 3 6 7);(0 2 4 6)(1 7 5 3)"
WREATH_DSL = "perm:(0 1);(2 3);(0 2)(1 3)"  # (Z/2 x Z/2) : Z/2, swap action

CORPUS = (
    [("cyclic:%d" % n) for n in range(1, 17)]
    + ["elem-abelian:2^2", "elem-abelian:2^3", "elem-abelian:2^4",
       "elem-abelian:3^2"]
    + ["product:cyclic:2xcyclic:4", "product:cyclic:2xcyclic:6",
       "product:cyclic:2xcyclic:8", "product:cyclic:4xcyclic:4"]
    + ["dihedral:%d" % n for n in range(3, 9)]
    + ["sym:3", "sym:4", "alt:4", Q8_DSL, WREATH_DSL]
)

@lru_cache(maxsize=None)
def corpus_group(dsl):
    return build_group(dsl)


def corpus_groups():
    return [(dsl, corpus_group(dsl)) for dsl in CORPUS]
