"""Per-subgroup strata of the supported coefficient theories.

For each theory and each subgroup class in its nilpotence family this module
produces the stratum: a finite labeled poset of prime descriptors (the
spectrum of the geometric fixed points) together with the action of the
appropriate Weyl group, plus the transition maps between full per-subgroup
spectra that the weak (colimit) assembly consumes.

Theories: height1 (p-complete K-theory for a prime p), ku (representation
rings), hz (integral constant coefficients over cyclic p-groups), modp
(group cohomology over F_q at elementary abelian subgroups of rank <= 2),
kr (real K-theory over C_2).  Each is one record in THEORIES, which holds
all the theory's own facts; the functions here read it and name no theory.
"""

import itertools
import math
from collections import namedtuple
from operator import itemgetter

from .groups import FamilySpec, family_members, read_int, weyl
from .rings import (GF, MAX_CYCLOTOMIC, MAX_FIELD_ORDER, MAX_PRIME_BOUND, Poly,
                    PrimeDescriptor, RingError, euler_phi, frobenius_labels, is_prime,
                    least_prime_factor, multiplicative_order, p_part, prime_divisors,
                    primes_upto, residue_field_label)

DEFAULT_PRIME_BOUND = 19
DEFAULT_DEGREE_BOUND = 1
MAX_FORM_ENUM = 1 << 20


class TheoryError(Exception):
    """Malformed theory spec string."""


class UnsupportedTheory(Exception):
    """The (theory, group) pair is outside the computable range."""


class TheorySpec(namedtuple("TheorySpec", "kind p f prime_bound degree_bound",
                            defaults=(0, 1, DEFAULT_PRIME_BOUND, DEFAULT_DEGREE_BOUND))):
    """kind is the key of the theory's record in THEORIES; p the prime (height1,
    hz, modp); q = p^f for modp.  All built-in theories arise globally."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.prime_bound < 1 or self.degree_bound < 1:
            raise TheoryError("bounds must be >= 1, got prime bound %d and "
                              "degree bound %d" % (self.prime_bound, self.degree_bound))
        if self.prime_bound > MAX_PRIME_BOUND:
            raise UnsupportedTheory("prime bound %d out of range" % self.prime_bound)
        return self

    @property
    def q(self):
        return self.p ** self.f

    @property
    def record(self):
        return THEORIES[self.kind]

    @property
    def name(self):
        return self.record.name.format(self)

    def family(self):
        return self.record.family(self.p)


def parse_theory(text, prime_bound=None, degree_bound=None):
    """Parse a theory spec string such as modp:q=4,deg=1: a key of THEORIES, then
    `:p=<digits>,...` for its record's params in order, all but the first optional."""
    text = text.strip()
    kind, colon, rest = text.partition(":")
    params = THEORIES[kind].params if kind in THEORIES else None
    parts = [part.partition("=") for part in rest.split(",")] if colon else []
    if (params is None or bool(colon) != bool(params) or len(parts) > len(params)
            or not all(name == param and digits.isdecimal()
                       for param, (name, _, digits) in zip(params, parts))):
        raise TheoryError("cannot parse theory spec %r" % (text,))
    found = {name: digits for name, _, digits in parts}
    fields = {"prime_bound": DEFAULT_PRIME_BOUND if prime_bound is None else prime_bound,
              "degree_bound": DEFAULT_DEGREE_BOUND if degree_bound is None else degree_bound}
    if found.get("p"):
        p = fields["p"] = read_int(found["p"], TheoryError)
        if p > MAX_FIELD_ORDER:  # before the trial division of is_prime
            raise UnsupportedTheory("p = %d exceeds 2^16" % p)
        if not is_prime(p):
            raise TheoryError("p = %d is not prime" % p)
    if found.get("q"):
        q = read_int(found["q"], TheoryError)
        if q > MAX_FIELD_ORDER:  # before _prime_power's divisor search
            raise UnsupportedTheory("field size %d exceeds 2^16" % q)
        fields["p"], fields["f"] = _prime_power(q)
    if found.get("deg"):
        fields["degree_bound"] = read_int(found["deg"], TheoryError)
    return TheorySpec(kind, **fields)


def _prime_power(q):
    if q >= 2:
        p = least_prime_factor(q)
        f, rest = p_part(q, p)
        if rest == 1:
            return p, f
    raise TheoryError("q = %d is not a prime power" % q)


def weyl_action_kind(subgroup):
    """Which Weyl flavor acts on a stratum.

    Every built-in theory is global: abelian family members get the
    Quillen-Weyl group N/C, and a non-abelian subgroup gets N/(H*C).
    """
    if subgroup.is_abelian():
        return "quillen"
    return "global"


# -- stratum models ------------------------------------------------------------

class StratumPoint(tuple):
    """A point of a stratum: its local id and its PrimeDescriptor, which
    holds its label; it is closed when the descriptor's kind is "closed"."""

    __slots__ = ()
    local_id, descriptor = (property(itemgetter(i)) for i in range(2))

    def __new__(cls, local_id, descriptor):
        return tuple.__new__(cls, (local_id, descriptor))

    @property
    def label(self):
        return self.descriptor.label

    @property
    def closed(self):
        return self.descriptor.kind == "closed"


class StratumModel:
    """The stratum at a SubgroupClass: its StratumPoints in canonical order,
    internal_edges as (i, j) index pairs generic -> special, the WeylGroup
    (None for an empty stratum) and per sorted quotient element the images
    of the point indices; reason is non-empty iff the stratum is empty."""

    __slots__ = ("subgroup", "points", "internal_edges", "weyl", "action", "reason",
                 "truncated")

    def __init__(self, subgroup, points, internal_edges, weyl, action, reason="",
                 truncated=False):
        self.subgroup, self.points, self.internal_edges = subgroup, points, internal_edges
        self.weyl, self.action, self.reason, self.truncated = weyl, action, reason, truncated

    def orbits(self):
        """Weyl orbits of point indices, each sorted, in canonical order: the
        orbit of i is its images under every Weyl element."""
        if len(self.action) <= 1:  # a trivial Weyl group fixes every point
            return [(i,) for i in range(len(self.points))]
        return sorted({tuple(sorted({perm[i] for perm in self.action}))
                       for i in range(len(self.points))})


def stratum(theory, cls):
    """The stratum of one subgroup class: points, internal order, Weyl action.

    Classes outside the theory's family give an empty stratum with a reason
    (the geometric fixed points vanish there); the record's checks ran in
    `theory_family_classes`, once per job.  The record's builder gets a family
    member and returns its points, internal edges and truncation flag; each
    Weyl witness n acts on the points by `point_map` along c_n: cls -> cls,
    but the first: only the identity of the regular quotient fixes coset 0,
    so its witness is the identity element, which fixes every point.
    """
    if not theory.family().contains(cls):
        return StratumModel(subgroup=cls, points=(), internal_edges=(), weyl=None, action=(),
                            reason="outside family: geometric fixed points vanish")
    w = weyl(cls, weyl_action_kind(cls))
    points, edges, truncated = theory.record.build(theory, cls)
    action = (tuple(range(len(points))),)
    if w.order > 1:
        at = {cls: {pt.descriptor.data: k for k, pt in enumerate(points)}}
        action += tuple(tuple(point_map(theory, n, at, at).values()) for _, n in w.witnesses[1:])
    return StratumModel(subgroup=cls, points=points, internal_edges=edges, weyl=w,
                        action=action, truncated=truncated)


def point_map(theory, g, src, dst):
    """The map of points along c_g, for Weyl actions and transition maps.

    src and dst map each class, among those of one group each, to
    {descriptor data: point key}.  A point of L's stratum goes to L2's, L2
    the class of g L g^-1 among dst's, with its data moved by the record's
    conjugation along the x with x L x^-1 = L2 of
    `SubgroupClass.conjugate_class`; g in N(L) gives L2 = L and x = g.
    Returns {src key: dst key}, in src's order."""
    targets = list(dst)
    out = {}
    for L, keys in src.items():
        L2, x = L.conjugate_class(g, targets)
        move, at = theory.record.conjugation(theory, x, L, L2), dst[L2]
        for data, key in keys.items():
            out[key] = at[move(data)]
    return out


def _same(data):
    return data


def _fixed(theory, x, L, L2):  # no c_x moves the theory's descriptor data
    return _same


def _ku_conjugation(theory, x, L, L2):
    """The Galois twist zeta -> zeta^a along c_x: L -> L2, with x h x^-1 = h2^a
    for the canonical generators h of L and h2 of L2."""
    a = L.conjugation_exponent(x, L2)
    d = L.order
    if (a - 1) % d == 0:
        return _same  # a = 1 fixes every point
    return lambda data: _galois_image(data, d, a)


def _stratum_height1(theory, cls):
    p = theory.p
    if cls.order == 1:
        points = (
            StratumPoint("Q_%d" % p,
                         PrimeDescriptor("Z_p", "generic", ("zero",), "Q_%d" % p)),
            StratumPoint("F_%d" % p,
                         PrimeDescriptor("Z_p", "closed", ("rat", p), "F_%d" % p)),
        )
        edges = ((0, 1),)
    else:
        lbl = "Q_%d(zeta_%d)" % (p, cls.order)
        points = (StratumPoint(
            lbl, PrimeDescriptor("Z_p", "generic", ("cyclo", cls.order), lbl)),)
        edges = ()
    return points, edges, False


def _ku_points(d, prime_bound):
    """Points of truncated Spec(Z[zeta_d, 1/d]) and its generic-to-closed edges.

    Above each prime q <= bound not dividing d lie phi(d)/ord_d(q) primes,
    each of residue degree ord_d(q) (Washington, Introduction to Cyclotomic
    Fields, Thm 2.13).  The point "q.i" is the prime cut out by the i-th
    factor of cyclotomic_factors_mod(d, q); the factors are computed only
    where a Galois twist needs them (`rings.frobenius_labels`).
    `_ku_index_bound` keeps d within MAX_CYCLOTOMIC.
    """
    ring = "Z[zeta_%d,1/%d]" % (d, d)
    label0 = "Q" if d <= 2 else "Q(zeta_%d)" % d
    points = [StratumPoint("0", PrimeDescriptor(ring, "generic", ("cyclo", d), label0))]
    phi = euler_phi(d)
    for q in primes_upto(prime_bound):
        if d % q == 0:
            continue
        f = multiplicative_order(q, d)
        lbl = residue_field_label(q, f)
        for i in range(phi // f):
            points.append(StratumPoint(
                "%d.%d" % (q, i), PrimeDescriptor(ring, "closed", ("modular", q, i), lbl)))
    edges = tuple((0, j) for j in range(1, len(points)))
    return tuple(points), edges, True


def _galois_image(data, d, a):
    """The descriptor data of the point of Spec Z[zeta_d, 1/d] that the point
    with descriptor data `data` goes to under zeta -> zeta^a, for a unit a
    mod d."""
    if data[0] != "modular":
        return data  # the generic point is Galois-stable
    _, q, i = data
    labels, reps = frobenius_labels(d, q)
    return ("modular", q, labels[reps[i] * a % d])


def _spec_z_points(prime_bound):
    """The truncated Spec Z: the stratum of kr, and of hz at the trivial class."""
    points = [StratumPoint("0", PrimeDescriptor("Z", "generic", ("zero",), "Q"))]
    for q in primes_upto(prime_bound):
        points.append(StratumPoint(
            "q%d" % q, PrimeDescriptor("Z", "closed", ("rat", q), "F_%d" % q)))
    edges = tuple((0, j) for j in range(1, len(points)))
    return tuple(points), edges, True


def _stratum_hz(theory, cls):
    if cls.order == 1:
        return _spec_z_points(theory.prime_bound)
    p = theory.p
    ring = "Z/%d[t]^h" % p
    points = (
        StratumPoint("gen", PrimeDescriptor(ring, "generic", ("zero",), "F_%d(t)" % p)),
        StratumPoint("t", PrimeDescriptor(ring, "closed", ("t",), "F_%d" % p)),
    )
    return points, ((0, 1),), False


# -- mod-p strata over F_q ------------------------------------------------------

def form_label(coeffs, dom):
    """Pretty form sum c_i x^i y^(k-i) with canonical normalization applied."""
    k = len(coeffs) - 1
    if k == 1:
        cs = dom.repr_elem(coeffs[0])
        return "x+%s*y" % (cs if "+" not in cs and "^" not in cs else "(%s)" % cs)
    terms = []
    for i in range(k, -1, -1):
        c = coeffs[i]
        if c == dom.zero:
            continue
        parts = []
        cs = dom.repr_elem(c)
        if cs != "1":
            parts.append(cs if "+" not in cs else "(%s)" % cs)
        if i:
            parts.append("x" if i == 1 else "x^%d" % i)
        if k - i:
            parts.append("y" if k - i == 1 else "y^%d" % (k - i))
        terms.append("*".join(parts) if parts else "1")
    return "+".join(terms)


def irreducible_forms(dom, max_degree):
    """Monic-normalized irreducible homogeneous forms in x, y of degree <= bound.

    Degree 1: y plus x + c*y for c in F_q.  Degree k >= 2: homogenizations of
    monic irreducible one-variable polynomials of degree k, found by a sieve
    on the codes sum_{j<k} c_j q^j: the reducible ones are the products a*b
    with a monic irreducible of degree i <= k/2 and b monic of degree k - i.
    As a*(x*b' + t) = x*(a*b') + t*a, the codes for the b of one degree are
    those one degree lower shifted up a digit, plus t*a in the low i + 1.
    Coefficient tuples list the coefficient of x^i y^(k-i) at index i; each
    degree comes in the order of its code.
    """
    q = dom.q
    # q >= 2, so q^max_degree exceeds the bound once max_degree reaches its bit length
    if q ** min(max_degree, MAX_FORM_ENUM.bit_length()) > MAX_FORM_ENUM:
        raise UnsupportedTheory(
            "degree bound %d over F_%d enumerates too many forms" % (max_degree, q))
    if dom.f == 1:
        def plus(c, col):  # c + each entry of col
            return [(c + x) % q for x in col]
    elif max_degree >= 2:  # then q <= 1024 by the bound: a q x q table of sums
        table = [[dom.add(c, x) for x in range(q)] for c in range(q)]

        def plus(c, col):
            return list(map(table[c].__getitem__, col))
    weights = [q ** j for j in range(max_degree + 1)]
    sieves = [bytearray(b"\x01") * w for w in weights]  # 1 at the codes not yet products
    forms = [(dom.one, dom.zero)]
    for i in range(1, max_degree + 1):
        found = [tail[::-1] + (dom.one,) for tail in
                 itertools.compress(itertools.product(dom.elements(), repeat=i), sieves[i])]
        forms += found
        for a in found if 2 * i <= max_degree else ():
            times = [[dom.mul(t, c) for t in dom.elements()] for c in a]  # t * a_j
            level = [sum(map(int.__mul__, a, weights[:i]))]  # the code of a*1
            for m in range(1, max_degree - i + 1):
                shorter, level = level, []
                for code in shorter:  # the code of a*b'; x*(a*b') moves its digits up one
                    low = code % weights[i]
                    sums = times[0]  # per t, the low digits of x*(a*b') + t*a up to j
                    for j in range(1, i + 1):
                        sums = [s + d * weights[j] for s, d in
                                zip(sums, plus(low // weights[j - 1] % q, times[j]))]
                    level += [(code - low) * q + s for s in sums]
                if m >= i:
                    for code in level:
                        sieves[i + m][code] = 0
    return forms


def _is_rational_linear(coeffs, dom):
    return len(coeffs) == 2 and all(dom.in_prime_field(c) for c in coeffs)


def _linear_powers(M, dom, n):
    """The powers 0..n of a*t + c and of b*t + d, for M = ((a, b), (c, d)) over F_p."""
    (a, b), (c, d) = M
    out = []
    for u in (Poly.from_ints((c, a), dom), Poly.from_ints((d, b), dom)):
        powers = [Poly.one(dom)]
        for _ in range(n):
            powers.append(powers[-1] * u)
        out.append(powers)
    return out


def _form_substitute(coeffs, left, right):
    """Substitute x -> M[0][0]x + M[1][0]y, y -> M[0][1]x + M[1][1]y into a form.

    With M = ((a, b), (c, d)) and t = x/y, the form sum c_i x^i y^(k-i) is
    sum c_i t^i and its image is sum c_i (a t + c)^i (b t + d)^(k-i); left
    and right are the powers of a t + c and b t + d from _linear_powers(M).
    The image is scaled by the inverse of its last nonzero coefficient.
    """
    k = len(coeffs) - 1
    dom = left[0].dom
    image = Poly.zero(dom)
    for i, ci in enumerate(coeffs):
        if ci != dom.zero:
            image = image + (left[i] * right[k - i]).scale(ci)
    image = image.monic().coeffs
    return image + (dom.zero,) * (k + 1 - len(image))


def _modp_conjugation(theory, x, L, L2):
    """On a rank-2 stratum the substitution (x, y) -> (x, y) M of
    `_form_substitute`, M the matrix of c_x: L -> L2; as M_ab = M_a M_b, a
    Weyl witness acts on the left.  At rank <= 1 the identity."""
    if L.p_rank(theory.p) != 2:
        return _same
    M = L.conjugation_matrix(x, L2)
    left, right = _linear_powers(M, GF(theory.p, theory.f), theory.degree_bound)
    return lambda data: (data if data[0] != "form" else
                         ("form", data[1], _form_substitute(data[2], left, right)))


def _stratum_modp(theory, cls):
    p, q = theory.p, theory.q
    r = cls.p_rank(p)  # at most 2, by the record's member check
    ring = "F_%d[x,y]^h" % q
    if r == 0:
        return (StratumPoint(
            "irr", PrimeDescriptor(ring, "closed", ("irrelevant",), "F_%d" % q)),), (), False
    if r == 1:
        return (StratumPoint(
            "0", PrimeDescriptor(ring, "generic", ("zero",), "F_%d(x)" % q)),), (), False
    dom = GF(p, theory.f)  # its tables serve only the rank-2 forms
    forms = [cf for cf in irreducible_forms(dom, theory.degree_bound)
             if not _is_rational_linear(cf, dom)]
    forms.sort(key=lambda cf: (len(cf), cf))
    points = [StratumPoint(
        "0", PrimeDescriptor(ring, "generic", ("zero",), "F_%d(x,y)" % q))]
    for cf in forms:
        lbl = form_label(cf, dom)
        points.append(StratumPoint(lbl, PrimeDescriptor(
            ring, "height-one", ("form", len(cf) - 1, cf), "(%s)" % lbl)))
    edges = tuple((0, j) for j in range(1, len(points)))
    # the full homogeneous spectrum is infinite; the degree bound truncates it
    return tuple(points), edges, True


# -- transition maps (weak assembly) -------------------------------------------

def transition_map(theory, g, src_points, dst_points):
    """Point map induced by c_g: H -> K, g a morphism's witness, between the
    strong spaces of H and K: `point_map` on the points' classes and data,
    with every datum of a target point's Weyl orbit (its .orbit) keyed to it,
    so an image need not be its orbit's representative.  {src id: dst id}."""
    src, dst = {}, {}
    for pt in src_points:
        src.setdefault(pt.cls, {})[pt.descriptor.data] = pt.id
    for pt in dst_points:
        for data in pt.orbit:
            dst.setdefault(pt.cls, {})[data] = pt.id
    return point_map(theory, g, src, dst)


def theory_family_classes(theory, G):
    """Family members of the theory in G, in canonical class order, after the
    record's checks: on G before the lattice, then on each member."""
    record = theory.record
    if record.check_group:
        record.check_group(theory, G)
    members = family_members(G, theory.family())
    if record.check_member:
        for cls in members:
            record.check_member(theory, cls)
    return members


# -- the theory table: gluing rules, checks and records ----------------------------

def _segal_edges(theory, members, points):
    """The cross-stratum edges of strong height1 and ku.

    For each family class C of order d and each prime q dividing d, the
    non-closed point of C's stratum specializes to every closed point over q
    in the stratum of C_e, the subgroup of C of order e, the q-free part of
    d: the prime of R(G) at (C, P), P over q, is the prime at
    (C_e, P meet Z[zeta_e]) (Segal, "The representation ring of a compact Lie
    group", Publ. IHES 34, 1968).  For ku on a cyclic G these are the
    containments of `rings.cyclic_spectrum_ring` between strata; for
    height1, q = p and C_e is trivial, so every point of a nontrivial class
    goes to F_p.
    """
    generic = {pt.cls: pt.id for pt in points if not pt.closed}
    over = {}  # (class, q) -> ids of the closed points over q
    for pt in points:
        if pt.closed:
            over.setdefault((pt.cls, pt.descriptor.data[1]), []).append(pt.id)
    for cls in members:
        src = generic[cls]
        for q in prime_divisors(cls.order):
            target = cls.cyclic_subgroup_class(p_part(cls.order, q)[1], members)
            for dst in over.get((target, q), ()):
                yield src, dst, "cross-stratum", ""


def _balmer_gallauer_edges(theory, members, points):
    """The external edges of strong hz on a cyclic p-group: the generic point
    of each nontrivial class goes to the closed point of its subgroup of
    index p, (t) in Z/p[t], or (p) in the truncated Spec Z at the trivial
    class, where the prime bound may have left it out."""
    at = {(pt.cls, pt.descriptor.data): pt.id for pt in points}
    for cls, prev in zip(members[1:], members):
        dst = at.get((prev, ("rat", theory.p) if prev.order == 1 else ("t",)))
        if dst is not None:
            yield at[(cls, ("zero",))], dst, "external", "Balmer-Gallauer"


def _ku_index_bound(theory, G):
    """The cyclotomic index bound of `_ku_points`, checked before the lattice:
    the least element order above MAX_CYCLOTOMIC is the order of the first
    stratum that would refuse, and only |G| > MAX_CYCLOTOMIC allows one."""
    if G.order > MAX_CYCLOTOMIC:
        above = [d for d in (math.lcm(*map(len, g.cycles())) for g in G.elements)
                 if d > MAX_CYCLOTOMIC]
        if above:
            raise RingError("cyclotomic index %d out of range" % min(above))


def _cyclic_p_groups_only(theory, G):
    if not (G.is_p_group(theory.p) and G.is_cyclic()):
        raise UnsupportedTheory(
            "hz:p=%d supports only cyclic %d-groups, got order %d"
            % (theory.p, theory.p, G.order))


def _order_two_only(theory, G):
    if G.order != 2:
        raise UnsupportedTheory(
            "kr supports only the group of order 2, got order %d" % G.order)


def _rank_at_most_two(theory, cls):
    if cls.p_rank(theory.p) > 2:
        raise UnsupportedTheory(
            "modp strata are implemented for elementary abelian "
            "rank <= 2; group has a rank-%d subgroup"
            % cls.p_rank(theory.p))


# A theory's record.  params: the numbers its spec names, as parse_theory reads
# them.  name: the format of TheorySpec.name.  family(p).  build(theory, cls): a
# member stratum's points, internal edges and truncation flag.  conjugation(theory,
# x, L, L2): the map of descriptor data along c_x: L -> L2 = x L x^-1, for Weyl
# actions and transition maps.  glue(theory, members, points): the strong form's
# edges between the members' strata, or None, and then no weak form either.
# check_group(theory, G) runs before the lattice, check_member(theory, cls) on
# each member.
TheoryRecord = namedtuple("TheoryRecord", "params name family build conjugation glue "
                          "check_group check_member", defaults=(None, None))

THEORIES = {
    "height1": TheoryRecord(("p",), "height1:p={0.p}", FamilySpec.cyclic_p,
                            _stratum_height1, _fixed, _segal_edges),
    "ku": TheoryRecord((), "ku", lambda p: FamilySpec.cyclic(),
                       lambda theory, cls: _ku_points(cls.order, theory.prime_bound),
                       _ku_conjugation, _segal_edges, check_group=_ku_index_bound),
    "hz": TheoryRecord(("p",), "hz:p={0.p}", lambda p: FamilySpec.all(),
                       _stratum_hz, _fixed, _balmer_gallauer_edges,
                       check_group=_cyclic_p_groups_only),
    # no edges between strata yet, so no weak form
    "modp": TheoryRecord(("q", "deg"), "modp:q={0.q},deg={0.degree_bound}",
                         FamilySpec.elem_abelian_p, _stratum_modp, _modp_conjugation, None,
                         check_member=_rank_at_most_two),
    # the trivial subgroup is the one family member, so there is one stratum
    "kr": TheoryRecord((), "kr", lambda p: FamilySpec.abelian_p_rank(2, 0),
                       lambda theory, cls: _spec_z_points(theory.prime_bound), _fixed,
                       None, check_group=_order_two_only),
}
