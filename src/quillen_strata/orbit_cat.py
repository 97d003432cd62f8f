"""Quillen categories of a finite group and colimits of diagrams over them.

Objects are conjugacy-class representatives of family subgroups.  A morphism
H -> K is witnessed by g with g H g^-1 <= K (the conjugation homomorphism
h |-> g h g^-1); in the orbit flavor, witnesses are deduplicated modulo the
double coset K g C_G(H).  Colimits of point-set diagrams are computed with
union-find.
"""

import itertools
from collections import namedtuple

from .groups import (GroupError, bitmask, double_cosets, row_orbit,
                     subgroups_up_to_conjugacy)


class DiagramError(Exception):
    """A diagram failed validation; the message names the violation and
    its operands."""


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}
        self.rank = {x: 0 for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        x, y = self.find(x), self.find(y)
        if x == y:
            return
        if self.rank[x] < self.rank[y]:
            x, y = y, x
        elif self.rank[x] == self.rank[y]:
            self.rank[x] += 1
        self.parent[y] = x


class Morphism(namedtuple("Morphism", "src dst witness coset")):
    """c_g : H_src -> H_dst, h |-> g h g^-1, with gHg^-1 <= K.

    coset is K g C_G(H) as a bitmask; it does not count in == or hash.
    """

    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, Morphism) and self[:3] == other[:3]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:3])

    def key(self):
        return (self.src, self.dst, self.witness)


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
        index = self.G.element_index()
        g = index.mul(index.number[f2.witness], index.number[f1.witness])
        for m in self.homs[(f1.src, f2.dst)]:
            if m.coset >> g & 1:
                return m
        raise DiagramError("the composite of %r and then %r is no morphism"
                           % (f1.key(), f2.key()))

    def all_morphisms(self):
        for (i, j) in sorted(self.homs):
            for m in self.homs[(i, j)]:
                yield m


def build_orbit_category(G, classes):
    """The Quillen orbit category on the given family classes.

    Every g with g H g^-1 <= K contributes exactly one morphism class;
    the canonical witness is the minimal element of its double coset.  The g
    with g H g^-1 = T are t N_G(H) for the transversal element t of each
    conjugate T in H's orbit, and each coset K g C_G(H) is the orbit of g
    under the left rows of K's generators and the right rows of C_G(H)'s.
    """
    index = G.element_index()
    k_rows = [[index.left(k) for k in Kc.generator_numbers] for Kc in classes]
    homs = {}
    for i, Hc in enumerate(classes):
        c_rows = [index.right(c) for c in Hc.centralizer_generators]
        transporters = [(T, [index.mul(t, n) for n in Hc.normalizer_numbers])
                        for T, (t, _) in Hc.orbit.items()]
        for j, Kc in enumerate(classes):
            outside = ~Kc.mask()
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
    of point keys, maps each Morphism.key() to a dict point -> point."""

    __slots__ = ()

    def transition(self, m):
        return self.maps[m.key()]

    def validate(self):
        """Check functoriality on all composable pairs; raise a named violation."""
        cat = self.category
        for i in range(len(cat.objects)):
            ident = cat.identity(i)
            tid = self.transition(ident)
            for pt in self.point_sets[i]:
                if tid[pt] != pt:
                    raise DiagramError("the identity of object %d moves point %r"
                                       % (i, pt))
        for f1 in cat.all_morphisms():
            for k in range(len(cat.objects)):
                for f2 in cat.homs[(f1.dst, k)]:
                    comp = cat.compose(f2, f1)
                    t1, t2, tc = (self.transition(f1), self.transition(f2),
                                  self.transition(comp))
                    for pt in self.point_sets[f1.src]:
                        if t2[t1[pt]] != tc[pt]:
                            raise DiagramError(
                                "functoriality fails at point %r: %r and then "
                                "%r differ from their composite"
                                % (pt, f1.key(), f2.key()))
        return True


class CoequalizerResult(namedtuple("CoequalizerResult", "classes projection")):
    """Partition of the disjoint union of point sets, with deterministic ids:
    classes is ((class_id, ((obj, point), ...)), ...) sorted, projection maps
    (obj, point) -> class_id."""

    __slots__ = ()

    def class_count(self):
        return len(self.classes)


def quotient(nodes, relations):
    """Union-find quotient; class ids are the minimal contained node keys."""
    uf = UnionFind(nodes)
    for a, b in relations:
        uf.union(a, b)
    groups = {}
    for x in nodes:
        groups.setdefault(uf.find(x), []).append(x)
    classes = []
    projection = {}
    for members in groups.values():
        members.sort()
        cid = members[0]
        classes.append((cid, tuple(members)))
        for x in members:
            projection[x] = cid
    classes.sort()
    return CoequalizerResult(classes=tuple(classes), projection=projection)


def colimit(diagram):
    """Colimit of an orbit diagram: points modulo x ~ (transition f)(x)."""
    diagram.validate()
    return coequalize_raw(diagram.point_sets, [
        (m.src, m.dst, diagram.transition(m)) for m in diagram.category.all_morphisms()])


def coequalize_raw(objects, maps):
    """Colimit of an explicit diagram: objects {id: [points]}, maps
    [(src, dst, {point: point})].  Used by the CLI coequalize command."""
    nodes = []
    for oid in sorted(objects):
        for pt in objects[oid]:
            nodes.append((oid, pt))
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


def verify_mackey(G):
    """Check the double-coset cardinality identity for all class pairs.

    sum over [g] in H\\G/K of [G : H^g cap K] must equal [G:H] * [G:K].
    """
    classes = subgroups_up_to_conjugacy(G)
    violations = []
    pairs = 0
    for Hc, Kc in itertools.product(classes, repeat=2):
        pairs += 1
        dec = double_cosets(G, Hc, Kc)
        if not dec.mackey_ok():
            violations.append({
                "h": (Hc.order, Hc.index), "k": (Kc.order, Kc.index),
                "cosets": len(dec.pairs)})
    return {"group_order": G.order, "pairs_checked": pairs,
            "violations": violations, "ok": not violations}
