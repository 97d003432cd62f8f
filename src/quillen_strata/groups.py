"""Finite permutation-group engine.

Elements are permutations of {0..n-1}.  A root group numbers its elements
0..|G|-1 in sorted order, the identity being 0, and its subgroups share that
numbering.  The rows of its Cayley table are built on first use, one per
element used as a generator or conjugator, never the whole table.  All group
arithmetic runs on these numbers, with a subgroup held as an int bitmask.
Sets are closed by one loop per element representation: row_orbit closes
numbers under Cayley rows (joins, Weyl cosets, double cosets), and mulclose,
called by PermGroup alone, closes Perms under products (root groups, and the
Weyl quotients, from the normalizer's action on the cosets).  Transporters are a class's orbit
transversal times its normalizer, and cyclic generators are read off the
root's cyclic subgroups.  Perm objects appear only at the edges: the DSL,
selectors, cycle strings, the element sets of groups, the Weyl quotients and
witnesses returned, and the conjugations c_x between classes that a
SubgroupClass answers for the strata.  Subgroups are found by cyclic
extension: one subgroup of each conjugacy class is joined with each cyclic
subgroup by closing its generators and one more element over the rows.  All
outputs are canonically ordered so repeated runs produce identical results.
"""

import functools
import itertools
import math

from .rings import is_prime, least_prime_factor, p_part

MAX_ORDER = 10_000
MAX_DSL_DEGREE = 64
MAX_DIGITS = 640  # the least int/str digit limit CPython accepts


class GroupError(Exception):
    """Base class for group-engine failures."""


class GroupParseError(GroupError):
    """Malformed group DSL string or selector."""


class BoundExceeded(GroupError):
    """Order or degree construction bound exceeded."""


class Perm(tuple):
    """A permutation of {0..n-1}: the tuple of its images, so it compares,
    orders and hashes as that tuple does."""

    __slots__ = ()

    def __new__(cls, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise GroupError("not a bijection on 0..%d: %r" % (len(images) - 1, images))
        return tuple.__new__(cls, images)

    @staticmethod
    def _trusted(images):
        """The Perm of an iterable of images already known to be a bijection."""
        return tuple.__new__(Perm, images)

    @property
    def images(self):
        """The images tuple, which is the Perm itself."""
        return self

    @property
    def degree(self):
        return len(self)

    @staticmethod
    def identity(degree):
        return Perm._trusted(range(degree))

    @staticmethod
    def from_cycles(cycles, degree):
        images = list(range(degree))
        seen = set()
        for cyc in cycles:
            if len(set(cyc)) != len(cyc):
                raise GroupParseError("repeated point in cycle %r" % (cyc,))
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                if not (0 <= a < degree):
                    raise GroupParseError("point %d out of range" % a)
                if a in seen:
                    raise GroupParseError("point %d in two cycles of one generator" % a)
                seen.add(a)
                images[a] = b
        return Perm(images)

    def __mul__(self, other):
        # (a*b)(x) = a(b(x))
        return Perm._trusted(map(self.__getitem__, other))

    def __invert__(self):
        inv = [0] * len(self)
        for i, j in enumerate(self):
            inv[j] = i
        return Perm._trusted(inv)

    def cycles(self):
        """Non-trivial cycles, each rotated to start at its minimum, sorted."""
        seen = set()
        out = []
        for start in range(len(self)):
            if start in seen or self[start] == start:
                continue
            cyc = [start]
            seen.add(start)
            nxt = self[start]
            while nxt != start:
                cyc.append(nxt)
                seen.add(nxt)
                nxt = self[nxt]
            out.append(tuple(cyc))
        return tuple(sorted(out))

    def cycle_string(self):
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycs)

    def __repr__(self):
        return "Perm%s" % (self.cycle_string(),)


def mulclose(gens, cap=MAX_ORDER):
    """Closure of a generating set under multiplication (BFS)."""
    gens = list(gens)
    if not gens:
        raise GroupError("mulclose needs at least one element to fix the degree")
    els = set(gens)
    els.add(Perm.identity(gens[0].degree))
    bdy = list(els)
    while bdy:
        new = []
        for a in gens:
            for b in bdy:
                c = a * b
                if c not in els:
                    els.add(c)
                    if len(els) > cap:
                        raise BoundExceeded("group order exceeds bound %d" % cap)
                    new.append(c)
        bdy = new
    return frozenset(els)


# -- the element index -------------------------------------------------------

class ElementIndex:
    """The elements of a root group numbered 0..|G|-1 in sorted order.

    left(a)[x] is the number of a*x, right(a)[x] that of x*a and conj(a)[x]
    that of a*x*a^-1.  Each row is built on first use and kept by a cache on
    the instance, which goes when the group does.  number also answers
    lookups by plain image tuples.
    """

    def __init__(self, perms):
        self.perms = perms
        self.number = {p: i for i, p in enumerate(perms)}
        self.left = functools.cache(self._left)
        self.right = functools.cache(self._right)
        self.conj = functools.cache(self._conj)

    def _left(self, a):
        num, ai = self.number, self.perms[a].__getitem__
        return [num[tuple(map(ai, p))] for p in self.perms]

    def _right(self, a):
        num, ai = self.number, self.perms[a]
        return [num[tuple(map(p.__getitem__, ai))] for p in self.perms]

    def _conj(self, a):
        return self.conjugates(a, range(len(self.perms)))

    def conjugates(self, a, xs):
        """The numbers of a*x*a^-1 for the numbers x in xs."""
        num, ai = self.number, self.perms[a].__getitem__
        ainv = ~self.perms[a]
        perms = self.perms
        return [num[tuple(map(ai, map(perms[x].__getitem__, ainv)))] for x in xs]

    def mul(self, a, b):
        return self.number[tuple(map(self.perms[a].__getitem__, self.perms[b]))]

    def inverse(self, a):
        return self.number[~self.perms[a]]

    def powers(self, a):
        """The numbers of a, a^2, ..., e."""
        num, ai = self.number, self.perms[a]
        ident = self.perms[0]
        out, x = [a], ai
        while x != ident:
            x = tuple(map(x.__getitem__, ai))
            out.append(num[x])
        return out

    @functools.cached_property
    def cyclic_subgroups(self):
        """{bitmask: (least generator, elements)} of the cyclic subgroups, in
        the order of their least generators."""
        done = bytearray(len(self.perms))
        out = {}
        for g in range(len(self.perms)):
            if done[g]:
                continue
            powers = self.powers(g)
            for k, x in enumerate(powers, 1):
                if math.gcd(k, len(powers)) == 1:
                    done[x] = 1
            out[bitmask(powers)] = (g, powers)
        return out


def bitmask(numbers):
    """The int with bit x set for each element number x."""
    mask = 0
    for x in numbers:
        mask |= 1 << x
    return mask


def _join(index, elems, gens, c, whole=None):
    """The subgroup generated by a subgroup and one more element c.

    elems are the elements of the subgroup generated by gens; the result
    (elements, mask) is their closure under the left Cayley rows of
    gens + (c,).  whole = (elements, mask) of an ambient group ends the
    closure early: once it holds more elements than a proper subgroup can,
    it is the ambient group.
    """
    rows = [index.left(a) for a in (*gens, c)]
    bound = len(whole[0]) // least_prime_factor(len(whole[0])) if whole else None
    out = row_orbit(elems, rows, bytearray(len(index.perms)), bound)
    return whole if out is None else (out, bitmask(out))


def _generate(index, candidates, whole=None):
    """Greedy generators: each candidate number, in order, that is not in the
    span of the ones before it.  Returns (generators, span elements, span
    mask).  whole = (elements, mask) of a group holding every candidate ends
    the search, and each closure, once the span is that group."""
    gens, span, mask = [], [0], 1
    for g in candidates:
        if whole and len(span) == len(whole[0]):
            break
        if not mask >> g & 1:
            span, mask = _join(index, span, gens, g, whole)
            gens.append(g)
    return gens, span, mask


def row_orbit(starts, rows, seen, bound=None):
    """The numbers reached from starts under the given Cayley rows, marked in
    seen (a bytearray over the root's numbers) as they are found; None once
    more than bound of them are held."""
    orbit = []
    for g in starts:
        if not seen[g]:
            seen[g] = 1
            orbit.append(g)
    for x in orbit:
        if bound is not None and len(orbit) > bound:
            return None
        for row in rows:
            y = row[x]
            if not seen[y]:
                seen[y] = 1
                orbit.append(y)
    return orbit


class PermGroup:
    """A finite permutation group: the closure of its generators, computed
    eagerly.

    A group with a parent (a SubgroupClass) reads its subgroups off the
    parent's; only a root group (parent None) enumerates its own, and only a
    root builds an element index, which its subgroups share.  The sorted
    elements, the index, the element numbers and mask, the subgroup sets and
    the generator numbers are cached properties; the conjugacy classes are
    cached by subgroups_up_to_conjugacy.
    """

    parent = None
    _classes = None

    def __init__(self, degree, generators):
        self.degree = degree
        gens = tuple(generators)
        for g in gens:
            if g.degree != degree:
                raise GroupError("generator degree mismatch")
        self.generators = gens or (Perm.identity(degree),)
        self.elements = mulclose(self.generators)
        self.order = len(self.elements)

    @functools.cached_property
    def sorted_elements(self):
        return tuple(sorted(self.elements))

    @functools.cached_property
    def element_index(self):
        """The element index of the root group, built on first use."""
        return ElementIndex(self.sorted_elements)

    @functools.cached_property
    def numbers(self):
        """The numbers of the elements in the root's index, ascending."""
        num = self.element_index.number
        return tuple(sorted(num[p] for p in self.elements))

    @functools.cached_property
    def mask(self):
        """The elements as a bitmask over the root's index."""
        return bitmask(self.numbers)

    def identity(self):
        return Perm.identity(self.degree)

    @functools.cached_property
    def subgroup_sets(self):
        """Every subgroup as {bitmask: ascending element numbers}, computed once."""
        if self.parent is None:
            return all_subgroup_sets(self)
        outside = ~self.mask
        return {S: els for S, els in self.parent.subgroup_sets.items()
                if not S & outside}

    @functools.cached_property
    def generator_numbers(self):
        """A small (greedy, deterministic) generating set as numbers; empty
        for the trivial group."""
        whole = (self.numbers, self.mask)
        return tuple(_generate(self.element_index, whole[0], whole)[0])

    def is_abelian(self):
        index = self.element_index
        return all(index.mul(a, b) == index.mul(b, a)
                   for a, b in itertools.combinations(self.generator_numbers, 2))

    def cyclic_generator(self):
        """The least element of full order, or None if the group is not cyclic."""
        index = self.element_index
        found = index.cyclic_subgroups.get(self.mask)
        return index.perms[found[0]] if found else None

    def is_cyclic(self):
        return self.cyclic_generator() is not None

    def is_p_group(self, p):
        return p_part(self.order, p)[1] == 1

    def is_elementary_abelian(self, p):
        return self.is_p_group(p) and self.is_abelian() and p ** self.p_rank(p) == self.order

    def p_rank(self, p):
        """Minimal generator count of an abelian p-group: rank of A/pA."""
        if not (self.is_p_group(p) and self.is_abelian()):
            raise GroupError("p_rank needs an abelian p-group")
        # g^p, read off g's powers cyclically since g^|g| = e
        ppowers = frozenset(pw[(p - 1) % len(pw)]
                            for pw in map(self.element_index.powers, self.numbers))
        return p_part(self.order // len(ppowers), p)[0]  # |A/pA| = p^rank

    def __repr__(self):
        return "PermGroup(degree=%d, order=%d)" % (self.degree, self.order)


# -- subgroup enumeration ----------------------------------------------------

def all_subgroup_sets(G):
    """Every subgroup of the root group G, as {bitmask: ascending numbers}.

    Cyclic extension (Neubüser; Holt, Eick & O'Brien, Handbook of
    Computational Group Theory, 2005, sec. 3): start from the trivial and the
    cyclic subgroups and join one subgroup S of each conjugacy class with
    each cyclic <c> not in S, closing gens(S) + (c,) over the Cayley rows,
    until no new class appears.  Each new subgroup brings its whole
    conjugacy class, found by `_conjugates` under G's generators.
    Every subgroup arises, because it is generated by its cyclic subgroups
    and the join of a conjugate is the conjugate of a join.
    """
    index = G.element_index
    whole = (G.numbers, G.mask)
    conjugators = () if G.is_abelian() else G.generator_numbers
    found = {}  # bitmask -> elements
    reps = []  # (elements, bitmask, generators) of one subgroup per class

    def add(elems, mask, gens):
        if mask not in found:
            reps.append((elems, mask, gens))
            found.update(_conjugates(index, mask, elems, conjugators)[1])

    cyclic = index.cyclic_subgroups
    add([0], 1, ())
    for C, (c, powers) in cyclic.items():
        add(powers, C, (c,))
    for elems, S, gens in reps:
        for C, (c, _) in cyclic.items():
            if C & ~S:
                add(*_join(index, elems, gens, c, whole), gens + (c,))
    return {S: tuple(sorted(elems)) for S, elems in found.items()}


def _conjugates(index, S, elems, gens):
    """The conjugates of the subgroup S, with elements elems, under the group
    generated by gens: the transversal {T: t} with t S t^-1 = T, the pairs
    (T, T's elements), and the Schreier generators t_U^-1 a t_T
    (U = a T a^-1) of the normalizer of S, each multiplied out when read."""
    orbit = {S: 0}
    queue = [(S, elems)]
    back = []  # (U, a t_T) of each step to a conjugate found before
    rows = [(index.conj(a), index.left(a)) for a in gens]
    for T, els in queue:
        t = orbit[T]
        for conj, left in rows:
            img = [conj[x] for x in els]
            U = bitmask(img)
            if U not in orbit:
                orbit[U] = left[t]
                queue.append((U, img))
            else:
                back.append((U, left[t]))
    return orbit, queue, (index.mul(index.inverse(orbit[U]), at) for U, at in back)


class SubgroupClass(PermGroup):
    """A conjugacy class of subgroups of parent, as its canonical representative.

    index is the position in the parent's canonical class list.  orbit maps
    the bitmask of each conjugate T of the representative S to the number t
    with t S t^-1 = T, so the g with g S g^-1 = T are t times the normalizer;
    T's elements are the parent's subgroup_sets[T].  conjugates is the number
    of subgroups in the class.  The normalizer and the centralizer are held
    as ascending numbers; the centralizer, built on first use, is taken
    inside the normalizer against the generators of S (in an abelian parent,
    subgroups_up_to_conjugacy sets it to all of G).
    A class closes nothing: it takes its numbers, mask and the parent's
    index as given, and builds its Perm elements only when they are read.
    """

    def __init__(self, parent, mask, numbers, orbit, normalizer, index):
        self.degree = parent.degree
        self.parent = parent
        self.element_index = parent.element_index
        self.numbers = numbers
        self.mask = mask
        self.order = len(numbers)
        self.orbit = orbit
        self.conjugates = len(orbit)
        self.normalizer_numbers = normalizer
        self.index = index

    @functools.cached_property
    def elements(self):
        perms = self.element_index.perms
        return frozenset(perms[x] for x in self.numbers)

    @functools.cached_property
    def centralizer_numbers(self):
        rows = [self.element_index.conj(s) for s in self.generator_numbers]
        return tuple(  # s g s^-1 = g for every generator s
            g for g in self.normalizer_numbers if all(row[g] == g for row in rows))

    @functools.cached_property
    def centralizer_generators(self):
        """Greedy generators of C_G(S), as numbers."""
        C = self.centralizer_numbers
        return tuple(_generate(self.element_index, C, (C, bitmask(C)))[0])

    # The conjugations c_x: S -> L, with x S x^-1 = L for S this class's
    # representative and L another's, between strata; elements are Perms.

    def conjugate_class(self, g, classes):
        """(L, x): the class L among classes (of one group) of g S g^-1, and an
        x with x S x^-1 = L, x = t^-1 g for the t of L's orbit at g S g^-1."""
        index = self.element_index
        g = index.number[g]
        T = bitmask(index.conjugates(g, self.numbers))
        L = _class_of_mask(classes, T)
        return L, index.perms[index.mul(index.inverse(L.orbit[T]), g)]

    def conjugation_exponent(self, x, L):
        """The a in 1..|S| with x h x^-1 = h2^a, for h and h2 the cyclic
        generators of S and of L = x S x^-1."""
        index = self.element_index
        h = index.cyclic_subgroups[self.mask][0]
        powers = index.cyclic_subgroups[L.mask][1]
        image = index.conjugates(index.number[x], (h,))[0]
        if image not in powers:
            raise GroupError("x h x^-1 is not a power of the generator of L")
        return powers.index(image) + 1

    def conjugation_matrix(self, x, L):
        """The matrix over F_p of c_x: S -> L = x S x^-1, for S elementary
        abelian of rank 2 at p: column i holds the coordinates (j, k) of
        x e_i x^-1 = f1^j f2^k, where (e1, e2) and (f1, f2) are the generator
        numbers of S and of L."""
        index = self.element_index
        # f^0..f^(p-1) from the powers f, ..., f^p = e; the identity is number 0
        f1, f2 = ([0] + index.powers(f)[:-1] for f in L.generator_numbers)
        coords = {index.mul(a, b): (j, k)
                  for j, a in enumerate(f1) for k, b in enumerate(f2)}
        cols = [coords[e] for e in index.conjugates(index.number[x],
                                                    self.generator_numbers)]
        return ((cols[0][0], cols[1][0]), (cols[0][1], cols[1][1]))

    def cyclic_subgroup_class(self, e, classes):
        """The class among classes of the subgroup of order e of S, cyclic,
        found by its elements: a group can have several classes of order e."""
        powers = self.element_index.cyclic_subgroups[self.mask][1]
        step = self.order // e  # generated by h^step
        return _class_of_mask(classes, bitmask(powers[step - 1::step]))

    def __repr__(self):
        return "SubgroupClass(order=%d, index=%d, size=%d)" % (
            self.order, self.index, self.conjugates)


def minimal_generators(G):
    """The generator numbers of G as Perms; the identity for the trivial group."""
    perms = G.element_index.perms
    return tuple(perms[g] for g in G.generator_numbers) or (G.identity(),)


def subgroups_up_to_conjugacy(G):
    """One SubgroupClass per conjugacy class, sorted by (order, canonical key).

    The canonical key of a subgroup is its sorted element list.  The classes
    are computed once per group and cached on it.  In an abelian group every
    class is one subgroup and N = C = G, so nothing is conjugated.
    """
    if G._classes is not None:
        return list(G._classes)
    index = G.element_index
    subs = G.subgroup_sets
    abelian = G.is_abelian()
    gens = G.generator_numbers
    classes = []
    seen = set()
    # visited in (order, key) order, so the first unvisited subgroup is the
    # least of its orbit and the classes come out sorted
    for S in sorted(subs, key=lambda s: (len(subs[s]), subs[s])):
        if S in seen:
            continue
        if abelian:
            orbit, normalizer = {S: 0}, G.numbers
        else:
            orbit, _, schreier = _conjugates(index, S, subs[S], gens)
            normalizer = tuple(sorted(_generate(index, schreier)[1]))
        cls = SubgroupClass(parent=G, mask=S, numbers=subs[S], orbit=orbit,
                            normalizer=normalizer, index=len(classes))
        if abelian:
            cls.centralizer_numbers = G.numbers
        if cls.conjugates != G.order // len(normalizer):
            raise GroupError("conjugate count mismatch for class %r" % (cls,))
        if S & ~bitmask(normalizer):
            raise GroupError("normalizer inclusion violated")
        classes.append(cls)
        seen.update(orbit)
    G._classes = tuple(classes)
    return classes


def class_containing(classes, elements):
    """The class, among classes, whose orbit contains the given subgroup set."""
    number = classes[0].parent.element_index.number
    try:
        mask = bitmask(number[p] for p in elements)
    except KeyError:
        mask = None
    return _class_of_mask(classes, mask)


def _class_of_mask(classes, mask):
    """The class among classes whose orbit holds the subgroup mask."""
    for cls in classes:
        if mask in cls.orbit:
            return cls
    raise GroupError("subgroup does not match any class")


# -- Weyl groups -------------------------------------------------------------

class WeylGroup:
    """N_G(H)/X realized via its left action on the cosets of X in N_G(H).

    kind "ordinary" takes X = H, "global" X = H*C_G(H), "quillen" X = C_G(H).
    quotient is a PermGroup; witnesses pairs each quotient element with its
    minimal representative in N, ((quotient Perm, representative Perm), ...),
    in the order of quotient.sorted_elements.
    """

    __slots__ = ("kind", "order", "quotient", "witnesses")

    def __init__(self, kind, order, quotient, witnesses):
        self.kind, self.order = kind, order
        self.quotient, self.witnesses = quotient, witnesses


def weyl(cls, kind):
    """Weyl group of a subgroup class: ordinary N/H, global N/(H*C), quillen N/C.

    The left cosets nX are the orbits of N's numbers under the right rows of
    X's generators.  The left rows of N's generators act on the cosets, and
    mulclose closes these actions to N/X, which acts regularly as X is normal
    in N: coset 0 is X, so q's witness is the least number of coset q(0).
    When X = N (H or C is N, for global) the identity witnesses all of N/X.
    The quillen quotient N/C is well-defined (as the image of N in Aut(H))
    for any H; the name is only standard for abelian H.
    """
    if kind not in ("ordinary", "global", "quillen"):
        raise GroupError("unknown Weyl kind %r" % (kind,))
    index = cls.element_index
    N = cls.normalizer_numbers
    if (kind != "quillen" and cls.order == len(N)
            or kind != "ordinary" and len(cls.centralizer_numbers) == len(N)):
        return WeylGroup(kind=kind, order=1, quotient=PermGroup(1, ()),
                         witnesses=((Perm.identity(1), index.perms[0]),))
    gens = ((cls.generator_numbers if kind != "quillen" else ())
            + (cls.centralizer_generators if kind != "ordinary" else ()))
    rows = [index.right(x) for x in gens]
    seen = bytearray(len(index.perms))
    cosets = [row_orbit((n,), rows, seen) for n in N if not seen[n]]
    coset_of = {x: i for i, coset in enumerate(cosets) for x in coset}
    reps = [coset[0] for coset in cosets]
    n_gens = _generate(index, N, (N, bitmask(N)))[0]
    actions = [Perm._trusted(coset_of[row[r]] for r in reps)
               for row in map(index.left, n_gens)]
    quotient = PermGroup(len(reps), actions)
    w = WeylGroup(kind=kind, order=len(N) // len(cosets[0]), quotient=quotient,
                  witnesses=tuple((q, index.perms[reps[q[0]]])
                                  for q in quotient.sorted_elements))
    if w.order != quotient.order:
        raise GroupError("Weyl quotient order mismatch")
    return w


# -- families ----------------------------------------------------------------

class FamilySpec:
    """A conjugation- and subgroup-closed family of subgroups: its name and its
    membership test on a SubgroupClass."""

    __slots__ = ("name", "contains")

    def __init__(self, name, contains):
        self.name, self.contains = name, contains

    @staticmethod
    def all():
        return FamilySpec("all", lambda cls: True)

    @staticmethod
    def cyclic():
        return FamilySpec("cyclic", lambda cls: cls.is_cyclic())

    @staticmethod
    def cyclic_p(p):
        return FamilySpec("cyclic-%d" % p, lambda cls: cls.is_p_group(p) and cls.is_cyclic())

    @staticmethod
    def elem_abelian_p(p):
        return FamilySpec("elem-abelian-%d" % p, lambda cls: cls.is_elementary_abelian(p))

    @staticmethod
    def abelian_p_rank(p, n):
        return FamilySpec("abelian-%d-rank<=%d" % (p, n),
                          lambda cls: (cls.is_p_group(p) and cls.is_abelian()
                                       and cls.p_rank(p) <= n))


def family_members(G, fam):
    """The conjugacy classes whose representative satisfies the family predicate."""
    return [cls for cls in subgroups_up_to_conjugacy(G) if fam.contains(cls)]


# -- double cosets -----------------------------------------------------------

class DoubleCoset:
    """A double coset HgK: its least element g, H^g cap K as a frozenset, its size."""

    __slots__ = ("representative", "intersection", "size")

    def __init__(self, representative, intersection, size):
        self.representative, self.intersection, self.size = representative, intersection, size


class DoubleCosetDecomposition:
    """pairs: the DoubleCoset of each double coset."""

    __slots__ = ("group_order", "h_order", "k_order", "pairs")

    def __init__(self, group_order, h_order, k_order, pairs):
        self.group_order, self.h_order, self.k_order = group_order, h_order, k_order
        self.pairs = pairs

    def mackey_sides(self):
        """(sum over H\\G/K of [G : H^g cap K], [G:H] * [G:K])."""
        lhs = sum(self.group_order // len(dc.intersection) for dc in self.pairs)
        rhs = (self.group_order // self.h_order) * (self.group_order // self.k_order)
        return lhs, rhs

    def mackey_ok(self):
        lhs, rhs = self.mackey_sides()
        return lhs == rhs


def double_cosets(G, H, K):
    """The decomposition of G into double cosets H\\G/K, for subgroups H, K
    of G (all three sharing one root).

    Double cosets are the orbits of g |-> h*g and g |-> g*k, found by BFS from
    the generators of H and K.  Representatives are minimal in element
    order; intersections are H^g cap K = {k in K : g k g^-1 in H}.
    """
    index = G.element_index
    if H.element_index is not index or K.element_index is not index:
        raise GroupError("double_cosets needs subgroups of one root group")
    perms = index.perms
    rows = ([index.left(h) for h in H.generator_numbers]
            + [index.right(k) for k in K.generator_numbers])
    h_mask = H.mask
    k_numbers = K.numbers
    seen = bytearray(len(perms))
    pairs = []
    for g in G.numbers:
        if seen[g]:
            continue
        size = len(row_orbit((g,), rows, seen))
        inter = frozenset(perms[k] for k, x in
                          zip(k_numbers, index.conjugates(g, k_numbers))
                          if h_mask >> x & 1)
        pairs.append(DoubleCoset(representative=perms[g], intersection=inter,
                                 size=size))
    dec = DoubleCosetDecomposition(
        group_order=G.order, h_order=H.order, k_order=K.order, pairs=tuple(pairs))
    if sum(dc.size for dc in pairs) != G.order:
        raise GroupError("double cosets do not cover G")
    return dec


# -- group DSL ---------------------------------------------------------------

def read_int(digits, error=GroupParseError):
    """int(digits), raising error past MAX_DIGITS characters; int() itself
    accepts them all, whatever PYTHONINTMAXSTRDIGITS is."""
    if len(digits) > MAX_DIGITS:
        raise error("number of %d digits is too long" % len(digits))
    return int(digits)


def _parse_cycles(text):
    """The cycles of one generator: (...) cycles, whitespace around them, of
    ASCII-digit points separated by whitespace or commas; () is the identity."""
    head, *rest = text.replace(",", " ").split("(")
    bodies = [body.partition(")") for body in rest]
    if head.strip() or not all(
            close and not tail.strip()
            and all(t.isascii() and t.isdecimal() for t in body.split())
            for body, close, tail in bodies):
        raise GroupParseError("bad cycle syntax %r" % (text,))
    return [tuple(map(read_int, points))
            for points in (body.split() for body, _, _ in bodies) if points]


def _product_prefixes(text):
    """(n, rest) for text of n product:s, each after optional whitespace, then rest."""
    n = 0
    while text.lstrip().startswith("product:"):
        text, n = text.lstrip()[len("product:"):], n + 1
    return n, text


def _check_degree(degree):
    if degree > MAX_DSL_DEGREE:
        raise BoundExceeded("degree %d exceeds DSL bound %d" % (degree, MAX_DSL_DEGREE))


def build_group(spec):
    """Build a PermGroup from a DSL string.

    Accepted forms: cyclic:n, dihedral:n (order 2n), sym:n, alt:n,
    elem-abelian:p^k, product:<spec>x<spec>, perm:<cycles>[;<cycles>...].
    """
    spec = spec.strip()
    if spec.startswith("product:"):
        # No name contains "x" and each product: takes one, so the x-separated
        # parts are the factors in prefix order, each after its own product:s.
        cannot = GroupParseError("cannot split product spec %r" % (spec,))
        parts = [_product_prefixes(text) for text in spec.split("x")]
        # the factors still to read before each part and after the last one
        unread = list(itertools.accumulate((n - 1 for n, _ in parts), initial=1))
        if unread[-1] or 0 in unread[:-1]:
            raise cannot
        pending = []  # per open product: its left factor once built, else None
        for n, text in parts:
            pending += [None] * n
            try:
                group = build_group(text)
            except GroupParseError:
                raise cannot from None
            while pending and pending[-1] is not None:
                group = _direct_product(pending.pop(), group)
            if pending:
                pending[-1] = group
        return group

    if spec.startswith("perm:"):
        body = spec[len("perm:"):]
        gen_texts = [t for t in body.split(";") if t.strip()]
        if not gen_texts:
            raise GroupParseError("perm: needs at least one generator")
        all_cycles = [_parse_cycles(t) for t in gen_texts]
        degree = max([1] + [max(cyc) + 1 for cycles in all_cycles for cyc in cycles])
        _check_degree(degree)
        gens = [Perm.from_cycles(cycles, degree) for cycles in all_cycles]
        return PermGroup(degree, gens)

    name, _, digits = spec.partition(":")
    if name in ("cyclic", "dihedral", "sym", "alt") and digits.isdecimal():
        n = read_int(digits)
        if n < 1:
            raise GroupParseError("%s:%d needs n >= 1" % (name, n))
        return _named_group(name, n)

    p, caret, k = digits.partition("^")
    if name == "elem-abelian" and caret and p.isdecimal() and k.isdecimal():
        return _elem_abelian(read_int(p), read_int(k))

    raise GroupParseError("cannot parse group spec %r" % (spec,))


def _named_group(name, n):
    if name == "cyclic":
        _check_degree(n)
        return PermGroup(n, (Perm(tuple((i + 1) % n for i in range(n))),))
    if name == "dihedral":
        if 2 * n > MAX_ORDER:
            raise BoundExceeded("dihedral:%d exceeds order bound" % n)
        if n == 1:
            return PermGroup(2, (Perm((1, 0)),))
        if n == 2:
            return PermGroup(4, (Perm((1, 0, 2, 3)), Perm((0, 1, 3, 2))))
        _check_degree(n)
        rot = Perm(tuple((i + 1) % n for i in range(n)))
        ref = Perm(tuple((n - i) % n for i in range(n)))
        return PermGroup(n, (rot, ref))
    if name == "sym":
        _check_degree(n)
        if math.factorial(n) > MAX_ORDER:
            raise BoundExceeded("sym:%d exceeds order bound" % n)
        if n == 1:
            return PermGroup(1, ())
        gens = [Perm.from_cycles([(0, 1)], n)]
        if n > 2:
            gens.append(Perm(tuple((i + 1) % n for i in range(n))))
        return PermGroup(n, gens)
    if name == "alt":
        _check_degree(n)
        if math.factorial(n) // 2 > MAX_ORDER:
            raise BoundExceeded("alt:%d exceeds order bound" % n)
        if n <= 2:
            return PermGroup(max(n, 1), ())
        three = Perm.from_cycles([(0, 1, 2)], n)
        if n % 2 == 1:
            big = Perm(tuple((i + 1) % n for i in range(n)))
        else:
            big = Perm.from_cycles([tuple(range(1, n))], n)
        return PermGroup(n, (three, big))
    raise GroupParseError("unknown named group %r" % (name,))


def _elem_abelian(p, k):
    if p >= 2 and k >= 1 and max(p, k) > MAX_DSL_DEGREE:
        # then p^k exceeds the bound; say so before is_prime(p) or p ** k runs long
        raise BoundExceeded("degree %d^%d exceeds DSL bound %d" % (p, k, MAX_DSL_DEGREE))
    if not is_prime(p):
        raise GroupParseError("elem-abelian base %d is not prime" % p)
    if k < 1:
        raise GroupParseError("elem-abelian exponent must be >= 1")
    degree = p ** k
    _check_degree(degree)
    # regular representation of (Z/p)^k via mixed-radix translation
    gens = []
    for axis in range(k):
        step = p ** axis
        images = []
        for idx in range(degree):
            digit = (idx // step) % p
            images.append(idx + step if digit < p - 1 else idx - step * (p - 1))
        gens.append(Perm(images))
    return PermGroup(degree, gens)


def _direct_product(A, B):
    degree = A.degree + B.degree
    _check_degree(degree)
    if A.order * B.order > MAX_ORDER:
        raise BoundExceeded("product order exceeds bound")
    gens = []
    for g in A.generators:
        gens.append(Perm(g + tuple(range(A.degree, degree))))
    for g in B.generators:
        gens.append(Perm(tuple(range(A.degree)) + tuple(A.degree + i for i in g)))
    return PermGroup(degree, gens)


# -- subgroup selectors (CLI) ------------------------------------------------

def select_class(G, classes, selector):
    """Resolve a subgroup selector: 'order:index', 'gens:<cycles>' or 'A<n>'."""
    selector = selector.strip()
    order, colon, idx = selector.partition(":")
    if colon and order.isdecimal() and idx.isdecimal():
        order, idx = read_int(order), read_int(idx)
        matching = [c for c in classes if c.order == order]
        if idx >= len(matching):
            raise GroupParseError(
                "no class of order %d with index %d (have %d)" % (order, idx, len(matching)))
        return matching[idx]
    if selector.startswith("gens:"):
        texts = [t for t in selector[len("gens:"):].split(";") if t.strip()]
        gens = [Perm.from_cycles(_parse_cycles(t), G.degree) for t in texts]
        for g in gens:
            if g not in G.elements:
                raise GroupParseError("generator %s not in group" % g.cycle_string())
        index = G.element_index
        mask = _generate(index, [index.number[g] for g in gens])[2]
        return _class_of_mask(classes, mask)
    if selector[:1] in ("A", "a") and selector[1:].isdecimal():
        if read_int(selector[1:]) != G.degree:
            raise GroupParseError("selector %s does not match degree %d"
                                  % (selector, G.degree))
        even = frozenset(g for g in G.elements if _is_even(g))
        return class_containing(classes, even)
    raise GroupParseError("cannot parse subgroup selector %r" % (selector,))


def _is_even(p):
    return sum(len(c) - 1 for c in p.cycles()) % 2 == 0
