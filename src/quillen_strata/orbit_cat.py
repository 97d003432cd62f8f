"""Quillen categories of a finite group and colimits of diagrams over them.

Objects are conjugacy-class representatives of family subgroups.  A morphism
H -> K is witnessed by g with g H g^-1 <= K (the conjugation homomorphism
h |-> g h g^-1); in the orbit flavor, witnesses are deduplicated modulo the
double coset K g C_G(H).  Colimits of point-set diagrams are computed with
union-find.
"""

from collections import namedtuple

from .groups import GroupError, bitmask, row_orbit


class DiagramError(Exception):
    """A diagram failed validation; the message names the violation and
    its operands."""


class Morphism(namedtuple("Morphism", "src dst witness coset")):
    """c_g : H_src -> H_dst, h |-> g h g^-1, with gHg^-1 <= K.

    coset is K g C_G(H) as a bitmask; within one category it is determined
    by (src, dst, witness).
    """

    __slots__ = ()


class QuillenOrbitCategory(namedtuple("QuillenOrbitCategory", "G objects homs")):
    """O^Q_F(G) on class representatives: objects lists the family members'
    SubgroupClass in canonical order, homs[(i, j)] the morphisms i -> j."""

    __slots__ = ()

    def identity(self, i):
        for m in self.homs[(i, i)]:
            if m.coset & 1:  # the identity is number 0
                return m
        raise GroupError("identity morphism missing")

    def compose(self, f2, f1):
        """f2 o f1 for f1: i -> j, f2: j -> k."""
        if f1.dst != f2.src:
            raise GroupError("morphisms not composable")
        index = self.G.element_index
        g = index.mul(index.number[f2.witness], index.number[f1.witness])
        for m in self.homs[(f1.src, f2.dst)]:
            if m.coset >> g & 1:
                return m
        raise DiagramError("the composite of %r and then %r is no morphism"
                           % (f1[:3], f2[:3]))

    def all_morphisms(self):
        for ij in sorted(self.homs):
            yield from self.homs[ij]


def build_orbit_category(G, classes):
    """The Quillen orbit category on the given family classes.

    Every g with g H g^-1 <= K contributes exactly one morphism class;
    the canonical witness is the minimal element of its double coset.  The g
    with g H g^-1 = T are t N_G(H) for the transversal element t of each
    conjugate T in H's orbit, and each coset K g C_G(H) is the orbit of g
    under the left rows of K's generators and the right rows of C_G(H)'s.
    """
    index = G.element_index
    k_rows = [[index.left(k) for k in Kc.generator_numbers] for Kc in classes]
    homs = {}
    for i, Hc in enumerate(classes):
        c_rows = [index.right(c) for c in Hc.centralizer_generators]
        transporters = [(T, [index.mul(t, n) for n in Hc.normalizer_numbers])
                        for T, t in Hc.orbit.items()]
        for j, Kc in enumerate(classes):
            outside = ~Kc.mask
            rows = k_rows[j] + c_rows
            seen = bytearray(len(index.perms))
            morphs = []
            for g in sorted(g for T, gs in transporters if not T & outside for g in gs):
                if not seen[g]:  # sorted, so each witness is its coset's least
                    coset = bitmask(row_orbit((g,), rows, seen))
                    morphs.append(Morphism(src=i, dst=j, witness=index.perms[g],
                                           coset=coset))
            homs[(i, j)] = tuple(morphs)
    return QuillenOrbitCategory(G=G, objects=list(classes), homs=homs)


class OrbitDiagram(namedtuple("OrbitDiagram", "category point_sets maps")):
    """A functor to point-sets: point_sets maps each object index to a tuple
    of point keys, maps each Morphism to a dict point -> point."""

    __slots__ = ()

    def validate(self):
        """Check functoriality on all composable pairs; raise a named violation."""
        cat = self.category
        for i in range(len(cat.objects)):
            ident = cat.identity(i)
            tid = self.maps[ident]
            for pt in self.point_sets[i]:
                if tid[pt] != pt:
                    raise DiagramError("the identity of object %d moves point %r"
                                       % (i, pt))
        for f1 in cat.all_morphisms():
            for k in range(len(cat.objects)):
                for f2 in cat.homs[(f1.dst, k)]:
                    comp = cat.compose(f2, f1)
                    t1, t2, tc = self.maps[f1], self.maps[f2], self.maps[comp]
                    for pt in self.point_sets[f1.src]:
                        if t2[t1[pt]] != tc[pt]:
                            raise DiagramError(
                                "functoriality fails at point %r: %r and then "
                                "%r differ from their composite"
                                % (pt, f1[:3], f2[:3]))
        return True


def quotient(nodes, relations):
    """Union-find quotient: ((class id, sorted members), ...), sorted.  Each
    root is the least member of its class, which is the class id."""
    parent = {x: x for x in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]  # path halving
        return x

    for a, b in relations:
        a, b = find(a), find(b)
        parent[max(a, b)] = min(a, b)
    groups = {}
    for x in nodes:
        groups.setdefault(find(x), []).append(x)
    return tuple(sorted((root, tuple(sorted(ms))) for root, ms in groups.items()))


def colimit(diagram):
    """Colimit of an orbit diagram: points modulo x ~ (transition f)(x)."""
    diagram.validate()
    return coequalize_raw(diagram.point_sets, [
        (m.src, m.dst, diagram.maps[m]) for m in diagram.category.all_morphisms()])


def coequalize_raw(objects, maps):
    """Colimit of an explicit diagram: objects {id: [points]}, maps
    [(src, dst, {point: point})].  Used by the CLI coequalize command."""
    nodes = [(oid, pt) for oid in sorted(objects) for pt in objects[oid]]
    node_set = set(nodes)
    relations = []
    for src, dst, table in maps:
        for a, b in table.items():
            if (src, a) not in node_set:
                raise DiagramError("map %r -> %r sends %r, which is not a "
                                   "point of %r" % (src, dst, a, src))
            if (dst, b) not in node_set:
                raise DiagramError("map %r -> %r sends %r to %r, which is not "
                                   "a point of %r" % (src, dst, a, b, dst))
            relations.append(((src, a), (dst, b)))
    return quotient(nodes, relations)
