"""Shared independent oracles for the test suite.

These deliberately re-derive results with naive algorithms (subset
enumeration, trial division, Fraction arithmetic) that share no code with the
package, so the tests anchor the fast implementations to something dumb and
trustworthy.
"""

import functools
import itertools
import re
from fractions import Fraction

import pytest


def compose(a, b):
    """Composition of image tuples: (a o b)(i) = a[b[i]]."""
    return tuple(a[b[i]] for i in range(len(a)))


def naive_closure(gens):
    """Closure of image tuples under composition, by saturation."""
    gens = [tuple(g) for g in gens]
    ident = tuple(range(len(gens[0])))
    els = {ident} | set(gens)
    changed = True
    while changed:
        changed = False
        for a in list(els):
            for b in list(els):
                c = compose(a, b)
                if c not in els:
                    els.add(c)
                    changed = True
    return els


def perm_powers(g):
    """The tuple (g, g^2, ..., e) of the powers of a Perm, by multiplying."""
    out = [g]
    ident = tuple(range(g.degree))
    while out[-1].images != ident:
        out.append(out[-1] * g)
    return tuple(out)


def naive_subgroup_sets(G):
    """Every subgroup of G as a frozenset of Perms, by the brute force the
    package used before its element index: start from the cyclic subgroups
    and saturate under joins with cyclic subgroups, closing each join with
    mulclose on the union of the two element sets."""
    from quillen_strata.groups import mulclose

    def key(elements):
        return tuple(sorted(p.images for p in elements))

    cyc = sorted({frozenset(perm_powers(g)) for g in G.elements}, key=key)
    subs = set(cyc)
    subs.add(frozenset({G.identity()}))
    frontier = list(subs)
    while frontier:
        new = []
        for S in frontier:
            for C in cyc:
                if C <= S:
                    continue
                J = mulclose(sorted(S | C), cap=G.order)
                if J not in subs:
                    subs.add(J)
                    new.append(J)
        frontier = new
    return subs


def normalizer_perms(cls):
    """N_G(S) of a subgroup class S as a frozenset of Perms."""
    perms = cls.element_index.perms
    return frozenset(perms[x] for x in cls.normalizer_numbers)


def centralizer_perms(cls):
    """C_G(S) of a subgroup class S as a frozenset of Perms."""
    perms = cls.element_index.perms
    return frozenset(perms[x] for x in cls.centralizer_numbers)


def lattice_perm_sets(G):
    """G's subgroup sets, read off its bitmasks as frozensets of Perms."""
    perms = G.element_index.perms
    return {frozenset(perms[x] for x in els) for els in G.subgroup_sets.values()}


def naive_subgroup_count(elements):
    """Count closed nonempty subsets by brute force (tiny groups only)."""
    els = sorted(elements)
    n = len(els)
    count = 0
    for r in range(1, n + 1):
        if n % r:
            continue
        for sub in itertools.combinations(els, r):
            s = set(sub)
            if all(compose(a, b) in s for a in sub for b in sub):
                count += 1
    return count


def frac_poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def frac_poly_divmod(a, b):
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    while b and b[-1] == 0:
        b.pop()
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) < len(b):
            break
        c = a[-1] / b[-1]
        d = len(a) - len(b)
        q[d] = c
        for i, x in enumerate(b):
            a[d + i] -= c * x
    while a and a[-1] == 0:
        a.pop()
    return q, a


def naive_monic_polys(p, degree):
    for tail in itertools.product(range(p), repeat=degree):
        yield list(tail) + [1]


def _np_divmod(a, b, p):
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    if len(a) - 1 < db:
        return [], a
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] * inv % p
        for j in range(db + 1):
            a[i - db + j] = (a[i - db + j] - c * b[j]) % p
    while a and a[-1] == 0:
        a.pop()
    return None, a


_SIEVES = {}


def naive_irreducibles(p, max_degree):
    """All monic irreducibles of degree <= max_degree over F_p, by sieve."""
    key = (p, max_degree)
    if key in _SIEVES:
        return _SIEVES[key]
    out = []
    for k in range(1, max_degree + 1):
        for cand in naive_monic_polys(p, k):
            if all(_np_divmod(cand, g, p)[1] for g in out if len(g) - 1 <= k // 2):
                out.append(cand)
    _SIEVES[key] = out
    return out


def _np_exact_div(f, g, p):
    q = []
    a = list(f)
    db = len(g) - 1
    inv = pow(g[-1], -1, p)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] * inv % p
        q.append(c)
        for j in range(db + 1):
            a[i - db + j] = (a[i - db + j] - c * g[j]) % p
    f = list(reversed(q))
    while f and f[-1] == 0:
        f.pop()
    return f


def naive_factor_count(coeffs, p):
    """Number of irreducible factors (with multiplicity) by trial division.

    Divides by every irreducible of degree <= deg/2; whatever is left of
    positive degree is itself irreducible.
    """
    f = [c % p for c in coeffs]
    while f and f[-1] == 0:
        f.pop()
    count = 0
    sieve = naive_irreducibles(p, max(1, (len(f) - 1) // 2))
    for g in sieve:
        while len(f) > len(g) - 1:
            _, rem = _np_divmod(f, g, p)
            if rem:
                break
            count += 1
            f = _np_exact_div(f, g, p)
    if len(f) > 1:
        count += 1
    return count


def brute_force_spectrum_ring(n, prime_bound):
    """Spec(Z[X]/(X^n-1)) up to a prime bound, the direct way: factor X^n - 1
    mod every prime q and test each Phi_d mod q against every factor.

    Unlike the oracles above this one uses the package's factor(); it pins
    the factor-once construction of cyclic_spectrum_ring to the direct one.
    """
    from quillen_strata.rings import (GF, ZZ, Poly, PrimeDescriptor,
                                      SpectrumRing, cyclotomic_poly, factor,
                                      primes_upto, residue_field_label)
    ring = "Z[X]/(X^%d-1)" % n
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    minimal = []
    for d in divisors:
        label = "Q" if d <= 2 else "Q(zeta_%d)" % d
        minimal.append(PrimeDescriptor(ring=ring, kind="generic",
                                       data=("cyclo", d), label=label))
    maximal = []
    contains = []
    for q in primes_upto(prime_bound):
        dom = GF(q)
        xn1 = Poly.from_ints([-1] + [0] * (n - 1) + [1], ZZ).map_domain(dom, dom.of_int)
        factors = [g for g, _ in factor(xn1)]
        phi_mod = {
            d: cyclotomic_poly(d).map_domain(dom, dom.of_int) for d in divisors}
        for g in factors:
            j = len(maximal)
            maximal.append(PrimeDescriptor(
                ring=ring, kind="closed",
                data=("modular", q, tuple(g.coeffs)),
                label=residue_field_label(q, g.degree)))
            for i, d in enumerate(divisors):
                if (phi_mod[d] % g).is_zero():
                    contains.append((i, j))
    return SpectrumRing(n=n, prime_bound=prime_bound,
                        minimal=tuple(minimal), maximal=tuple(maximal),
                        contains=tuple(contains))


def compose_mod(f, t, mod):
    """f(t) modulo mod, by Horner in the quotient ring."""
    from quillen_strata.rings import Poly
    dom = f.dom
    acc = Poly.zero(dom)
    for c in reversed(f.coeffs):
        acc = (acc * t + Poly((c,), dom)) % mod
    return acc


def modular_preimage(q, g_coeffs, exponent, candidates):
    """The key of the candidate (key, coeffs of g') with g'(X^exponent) = 0
    mod (q, g): the prime that (q, g) contracts to under X -> X^exponent,
    found by composing every candidate with X^exponent mod g."""
    from quillen_strata.rings import GF, Poly, powmod
    dom = GF(q)
    g = Poly(tuple(g_coeffs), dom)
    t = powmod(Poly.x(dom), exponent, g)
    for key, coeffs in candidates:
        if compose_mod(Poly(tuple(coeffs), dom), t, g).is_zero():
            return key
    raise AssertionError("modular prime (%d, ...) has no preimage" % q)


@functools.lru_cache(maxsize=None)
def _reference_factors(d, q):
    """The coefficients of the factors of Phi_d mod q, as the coset-sum
    splitter orders them: the i-th is the factor behind the ku point
    ("modular", q, i) of the stratum of order d."""
    return tuple(g.coeffs for g in reference_cyclotomic_factors_mod(d, q))


def reference_ku_action(model):
    """The Weyl action on a ku stratum found by search: a witness n with
    c_n(h) = h^a sends each modular point (q, g) to the point (q, g') of the
    stratum with g'(X^a) = 0 mod (q, g), and fixes the generic point."""
    d = model.subgroup.order
    modular_at = {}
    for idx, pt in enumerate(model.points[1:], start=1):
        _, q, i = pt.descriptor.data
        modular_at.setdefault(q, []).append((idx, _reference_factors(d, q)[i]))
    h = model.subgroup.cyclic_generator()
    action = []
    for _, n in model.weyl.witnesses:
        a = perm_powers(h).index(n * h * ~n) + 1
        images = [0]
        for pt in model.points[1:]:
            _, q, i = pt.descriptor.data
            images.append(modular_preimage(q, _reference_factors(d, q)[i], a,
                                           modular_at[q]))
        action.append(tuple(images))
    return tuple(action)


def reference_ku_transition(morphism, src_cls, dst_cls, src_points, dst_points):
    """A ku transition map found by search.  A point of the stratum of L goes
    to the stratum of the target class L2 with k L2 k^-1 = g L g^-1, found by
    conjugating every target class by every k of K; with x = k^-1 g and
    x h x^-1 = h2^a for the canonical generators h of L and h2 of L2 (the
    least elements of full order, found by scanning), the generic point goes
    to L2's and each modular point (q, g) to L2's (q, g') with g'(X^a) = 0
    mod (q, g).  K is cyclic, so a does not depend on the choice of k."""
    w = morphism.witness
    targets = list(dict.fromkeys(pt.cls for pt in dst_points))
    found = {}

    def target(L):
        if L not in found:
            wL = conjugate_set(L.elements, w)
            L2, k = next((L2, k) for L2 in targets for k in dst_cls.sorted_elements
                         if conjugate_set(L2.elements, k) == wL)
            x = ~k * w
            h2 = reference_cyclic_generator(L2)
            h = reference_cyclic_generator(L)
            found[L] = L2, perm_powers(h2).index(x * h * ~x) + 1
        return found[L]

    generic = {}
    modular = {}
    for pt in dst_points:
        data = pt.descriptor.data
        if data[0] == "cyclo":
            generic[pt.cls] = pt.id
        else:
            _, q, i = data
            modular.setdefault((pt.cls, q), []).append(
                (pt.id, _reference_factors(pt.cls.order, q)[i]))
    out = {}
    for pt in src_points:
        L2, a = target(pt.cls)
        data = pt.descriptor.data
        if data[0] == "cyclo":
            out[pt.id] = generic[L2]
        else:
            _, q, i = data
            out[pt.id] = modular_preimage(q, _reference_factors(pt.cls.order, q)[i], a,
                                          modular[(L2, q)])
    return out


def invert(a):
    """Inverse of an image tuple."""
    inv = [0] * len(a)
    for i, j in enumerate(a):
        inv[j] = i
    return tuple(inv)


def naive_conjugators(group, subgroup):
    """{g S g^-1: [g, ...]} on image tuples, conjugating the subgroup S by
    every element g of the group, g taken in sorted order."""
    out = {}
    for g in sorted(group):
        ginv = invert(g)
        T = frozenset(compose(compose(g, s), ginv) for s in subgroup)
        out.setdefault(T, []).append(g)
    return out


def class_transporters(cls):
    """{T: [g, ...]} on image tuples for the g with g S g^-1 = T, read off the
    class's orbit data: t * n for the transversal element t of T and the n
    of the normalizer, sorted."""
    index = cls.element_index
    images = [p.images for p in index.perms]
    return {frozenset(images[x] for x in cls.parent.subgroup_sets[T]):
            sorted(images[index.mul(t, n)] for n in cls.normalizer_numbers)
            for T, t in cls.orbit.items()}


def check_class_conjugators(G, label=""):
    """Pin every subgroup class of G to naive_conjugators: its transporters,
    its normalizer, its centralizer (against all of G and all of S),
    class_containing on each conjugate, and the classes' orbits covering the
    subgroup lattice."""
    from quillen_strata.groups import (Perm, class_containing,
                                       subgroups_up_to_conjugacy)
    classes = subgroups_up_to_conjugacy(G)
    group = [p.images for p in G.elements]
    covered = set()
    for cls in classes:
        S = frozenset(p.images for p in cls.elements)
        expected = naive_conjugators(group, S)
        assert class_transporters(cls) == expected, (label, cls.index)
        assert {p.images for p in normalizer_perms(cls)} == set(expected[S])
        assert {p.images for p in centralizer_perms(cls)} == {
            g for g in group if all(compose(g, s) == compose(s, g) for s in S)}
        for T in expected:
            assert class_containing(classes, [Perm(t) for t in T]) is cls
        covered |= expected.keys()
    assert covered == {frozenset(p.images for p in S) for S in lattice_perm_sets(G)}


def conjugate_set(elements, g):
    """{g s g^-1 : s in elements}, multiplying Perms."""
    ginv = ~g
    return frozenset(g * s * ginv for s in elements)


def set_product(A, B):
    """{a * b : a in A, b in B}, multiplying Perms."""
    return frozenset(a * b for a in A for b in B)


def coset_perms(G, m):
    """The coset of an orbit-category morphism as a frozenset of Perms, read
    off its bitmask over G's numbers."""
    perms = G.element_index.perms
    return frozenset(p for x, p in enumerate(perms) if m.coset >> x & 1)


def reference_orbit_category(G, classes):
    """The orbit category's homs {(i, j): [(witness, coset), ...]} built the
    direct way: conjugate each H by every g of G, and build each coset
    K g C_G(H) as two set products.

    Like brute_force_spectrum_ring this uses the package's group code; it
    pins the transporter- and row-based build_orbit_category to it.
    """
    homs = {}
    for i, Hc in enumerate(classes):
        CH = centralizer_perms(Hc)
        conjugates = [(g, conjugate_set(Hc.elements, g)) for g in G.sorted_elements]
        for j, Kc in enumerate(classes):
            K = Kc.elements
            morphs = []
            seen = set()
            for g, gH in conjugates:
                if gH <= K and g not in seen:
                    coset = set_product(set_product(K, frozenset({g})), CH)
                    seen |= coset
                    morphs.append((g, coset))
            homs[(i, j)] = morphs
    return homs


def reference_weyl(cls, kind):
    """(order, quotient elements, witnesses) of N/X the direct way, X = H,
    H*C or C by kind: each left coset nX is built by multiplying Perms and
    named by its least n, and each n of N acts on the cosets by left
    multiplication, its witness being the least n with that action."""
    N = normalizer_perms(cls)
    C = centralizer_perms(cls)
    X = {"ordinary": cls.elements, "global": set_product(cls.elements, C),
         "quillen": C}[kind]
    n_sorted = sorted(N)
    coset_of = {}
    reps = []
    for n in n_sorted:
        if n in coset_of:
            continue
        idx = len(reps)
        reps.append(n)
        for x in X:
            coset_of[n * x] = idx
    k = len(reps)
    images = {}
    for n in n_sorted:
        pi = tuple(coset_of[n * reps[i]] for i in range(k))
        if pi not in images:
            images[pi] = n
    return (len(N) // len(X), sorted(images),
            [(q, images[q]) for q in sorted(images)])


def check_weyl(G, label=""):
    """Pin weyl of every kind on every class of G to reference_weyl: order,
    quotient elements, witnesses and action degree."""
    from quillen_strata.groups import subgroups_up_to_conjugacy, weyl
    for cls in subgroups_up_to_conjugacy(G):
        for kind in ("ordinary", "global", "quillen"):
            order, quotient, witnesses = reference_weyl(cls, kind)
            w = weyl(cls, kind)
            where = (label, cls.index, kind)
            assert w.order == order, where
            assert [q.images for q in w.quotient.sorted_elements] == quotient, where
            assert [(q.images, n) for q, n in w.witnesses] == witnesses, where
            assert w.quotient.degree == len(quotient[0]), where


def reference_cyclic_generator(group):
    """The least element of full order, or None, by scanning every element's
    order."""
    for g in group.sorted_elements:
        if len(perm_powers(g)) == group.order:
            return g
    return None


def reference_irreducible_forms(dom, max_degree):
    """The forms of strata.irreducible_forms by Rabin's test on every monic
    candidate: y, then x + c*y for c in F_q, then each degree k >= 2 in the
    order of the code sum_{i<k} c_i q^i."""
    from quillen_strata.rings import Poly, is_irreducible
    q = dom.q
    out = [(dom.one, dom.zero)] + [(c, dom.one) for c in dom.elements()]
    for k in range(2, max_degree + 1):
        for enc in range(q ** k):
            tail = []
            for _ in range(k):
                tail.append(enc % q)
                enc //= q
            cand = Poly(tuple(tail) + (dom.one,), dom)
            if is_irreducible(cand):
                out.append(tuple(cand.coeffs))
    return out


def reference_gf_modulus(p, f):
    """The modulus of GF(p, f) by Rabin's test on every monic degree-f
    candidate, constant coefficient varying slowest, from the all-zero tail."""
    from quillen_strata.rings import GF, Poly, is_irreducible
    for enc in range(p ** f):
        vec = []
        for _ in range(f):
            vec.append(enc % p)
            enc //= p
        tail = tuple(reversed(vec))
        if is_irreducible(Poly(tail + (1,), GF(p))):
            return tail + (1,)
    return None


class ReferenceGF:
    """GF(p^f), f >= 2, by the digit-vector arithmetic the package used before
    its log tables: an element is the base-p code of its coefficient vector
    over `_gf_modulus(p, f)`, a product is a schoolbook product reduced
    modulo it, sums and negatives go digit by digit, and an inverse is the
    (q-2)-th power by square-and-multiply."""

    def __init__(self, p, f):
        from quillen_strata.rings import _gf_modulus
        self.p, self.f, self.q = p, f, p ** f
        self.modulus = _gf_modulus(p, f)

    def _decode(self, a):
        out = []
        for _ in range(self.f):
            out.append(a % self.p)
            a //= self.p
        return out

    def _encode(self, vec):
        out = 0
        for c in reversed(vec):
            out = out * self.p + (c % self.p)
        return out

    def add(self, a, b):
        va, vb = self._decode(a), self._decode(b)
        return self._encode([(x + y) % self.p for x, y in zip(va, vb)])

    def neg(self, a):
        return self._encode([(-x) % self.p for x in self._decode(a)])

    def mul(self, a, b):
        va, vb = self._decode(a), self._decode(b)
        prod = [0] * (2 * self.f - 1)
        for i, x in enumerate(va):
            for j, y in enumerate(vb):
                prod[i + j] = (prod[i + j] + x * y) % self.p
        for i in range(len(prod) - 1, self.f - 1, -1):
            c, prod[i] = prod[i], 0
            for j, mc in enumerate(self.modulus[:-1]):
                prod[i - self.f + j] = (prod[i - self.f + j] - c * mc) % self.p
        return self._encode(prod[:self.f])

    def inv(self, a):
        out, x, e = 1, a, self.q - 2
        while e:
            if e & 1:
                out = self.mul(out, x)
            x, e = self.mul(x, x), e >> 1
        return out

    def repr_elem(self, a):
        vec = self._decode(a)
        terms = []
        for i in range(self.f - 1, -1, -1):
            c = vec[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                var = "a" if i == 1 else "a^%d" % i
                terms.append(var if c == 1 else "%d*%s" % (c, var))
        return "+".join(terms) if terms else "0"


def reference_zp_powmod(base, e, mod, p):
    """base^e mod `mod` over F_p on int coefficient lists, by square-and-
    multiply with a schoolbook product and `_zp_divmod` after each step."""
    from quillen_strata.rings import _zp_divmod

    def mulmod(a, b):
        out = [0] * max(0, len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return _zp_divmod([c % p for c in out], mod, p)[1]

    x = _zp_divmod(base, mod, p)[1]
    out = [1]
    while e:
        if e & 1:
            out = mulmod(out, x)
        x = mulmod(x, x)
        e >>= 1
    return out


def reference_cyclotomic_factors_mod(d, q):
    """The factors of Phi_d mod q, sorted, by the earlier coset-sum splitter:
    each piece g of Phi_e (e the q-free part of d) draws its own random
    Frobenius-fixed coset sum r, reduced mod g, and is split by
    gcd(g, r^((q-1)/2) - 1), or gcd(g, r) for q = 2, until every piece has
    degree ord_e(q).  No Phi_2m reduction and no roots of unity."""
    import random
    from quillen_strata.rings import (GF, Poly, _power, _zp_divmod, _zp_gcd, _zp_mulmod,
                                      _zp_pack, _zp_unpack, cyclotomic_poly,
                                      multiplicative_order, p_part)
    e = p_part(d, q)[1]
    f = multiplicative_order(q, e)
    coset = [None] * e
    ncosets = 0
    for i in range(e):
        if coset[i] is None:
            j = i
            while coset[j] is None:
                coset[j] = ncosets
                j = j * q % e
            ncosets += 1
    rng = random.Random(e << 32 | q)
    done = []
    pieces = [[c % q for c in cyclotomic_poly(e).coeffs]]
    while pieces:
        g = pieces.pop()
        if len(g) - 1 == f:
            done.append(g)
            continue
        lam = [rng.randrange(q) for _ in range(ncosets)]
        r = _zp_divmod([lam[c] for c in coset], g, q)[1]
        if q > 2:
            r = _power(_zp_pack(r), (q - 1) // 2, _zp_mulmod(g, q), 1) + q - 1
            r = list(_zp_unpack(r))     # r^((q-1)/2) - 1, reduced mod q by the gcd
        h = _zp_gcd(g, r, q)
        if 1 < len(h) < len(g):
            pieces += [h, _zp_divmod(g, h, q)[0]]
        else:
            pieces.append(g)
    return tuple(Poly(tuple(g), GF(q)) for g in sorted(done))


def reference_form_substitute(coeffs, M, dom):
    """Substitute x -> a x + c y, y -> b x + d y, M = ((a, b), (c, d)) over
    dom, into the form sum c_i x^i y^(k-i) by binomial expansion of each
    (a x + c y)^i (b x + d y)^(k-i), then scale by the inverse of the last
    nonzero coefficient."""
    import math
    k = len(coeffs) - 1
    (a, b), (c, d) = M
    out = [dom.zero] * (k + 1)

    def binom_pow(u, v, n):  # coefficient of x^j y^(n-j) in (u x + v y)^n
        return [dom.mul(dom.of_int(math.comb(n, j)),
                        dom.mul(dom.power(u, j), dom.power(v, n - j)))
                for j in range(n + 1)]

    for i, ci in enumerate(coeffs):
        for j1, t1 in enumerate(binom_pow(a, c, i)):
            for j2, t2 in enumerate(binom_pow(b, d, k - i)):
                out[j1 + j2] = dom.add(out[j1 + j2], dom.mul(ci, dom.mul(t1, t2)))
    inv = dom.inv([x for x in out if x != dom.zero][-1])
    return tuple(dom.mul(inv, x) for x in out)


def reference_weyl_matrix(cls, witness, p, target=None):
    """The matrix of conjugation by witness from a rank-2 elementary abelian
    class to target (default cls), one column per element of
    minimal_generators(cls), in the coordinates of minimal_generators(target),
    by Perm products."""
    from quillen_strata.groups import minimal_generators
    f1, f2 = minimal_generators(target or cls)
    coords = {}
    x = cls.identity()
    for i in range(p):
        y = x
        for j in range(p):
            coords[y] = (i, j)
            y = y * f2
        x = x * f1
    cols = [coords[witness * e * ~witness] for e in minimal_generators(cls)]
    return ((cols[0][0], cols[1][0]), (cols[0][1], cols[1][1]))


def reference_build_group(spec):
    """build_group as it read product specs before its one-pass reader: each
    x of the body in turn is tried as the split, the left side built first,
    and a split whose sides fail to parse is skipped.  Exponential in the
    nesting, so only for short specs."""
    from quillen_strata import groups

    spec = spec.strip()
    if not spec.startswith("product:"):
        return groups.build_group(spec)
    body = spec[len("product:"):]
    for pos in [m.start() for m in re.finditer("x", body)]:
        try:
            A = reference_build_group(body[:pos])
            B = reference_build_group(body[pos + 1:])
        except groups.GroupParseError:
            continue
        return groups._direct_product(A, B)
    raise groups.GroupParseError("cannot split product spec %r" % (spec,))


# -- the regex parsers the group DSL, theory specs and selectors were read
# with, kept as the reference for the str-method parsers that replaced them

THEORY_PATTERNS = {
    "height1": r"height1:p=(?P<p>\d+)",
    "ku": "ku",
    "hz": r"hz:p=(?P<p>\d+)",
    "modp": r"modp:q=(?P<q>\d+)(?:,deg=(?P<deg>\d+))?",
    "kr": "kr",
}
_CYCLE_RE = re.compile(r"\(([^()]*)\)")
_CYCLES_RE = re.compile(r"\s*(?:\([\s0-9]*\)\s*)*")
_PRODUCTS_RE = re.compile(r"((?:\s*product:)*)(.*)", re.S)
_NAMED_RE = re.compile(r"(cyclic|dihedral|sym|alt):(\d+)")
_ELEM_ABELIAN_RE = re.compile(r"elem-abelian:(\d+)\^(\d+)")
_CLASS_RE = re.compile(r"(\d+):(\d+)")
_ALT_RE = re.compile(r"[Aa](\d+)")


def regex_parse_cycles(text):
    from quillen_strata.groups import GroupParseError, read_int
    cycles = []
    rest = text.replace(",", " ")
    if not _CYCLES_RE.fullmatch(rest):
        raise GroupParseError("bad cycle syntax %r" % (text,))
    for body in _CYCLE_RE.findall(rest):
        pts = [read_int(t) for t in body.split()]
        if pts:
            cycles.append(tuple(pts))
    return cycles


def regex_build_group(spec):
    """build_group as it read specs with the regexes above; it builds with
    the package's constructors."""
    from quillen_strata import groups
    from quillen_strata.groups import GroupParseError, Perm, PermGroup, read_int

    spec = spec.strip()
    if spec.startswith("product:"):
        cannot = GroupParseError("cannot split product spec %r" % (spec,))
        parts = [_PRODUCTS_RE.fullmatch(text).groups() for text in spec.split("x")]
        unread = list(itertools.accumulate(
            (prefixes.count("product:") - 1 for prefixes, _ in parts), initial=1))
        if unread[-1] or 0 in unread[:-1]:
            raise cannot
        pending = []
        for prefixes, text in parts:
            pending += [None] * prefixes.count("product:")
            try:
                group = regex_build_group(text)
            except GroupParseError:
                raise cannot from None
            while pending and pending[-1] is not None:
                group = groups._direct_product(pending.pop(), group)
            if pending:
                pending[-1] = group
        return group
    if spec.startswith("perm:"):
        gen_texts = [t for t in spec[len("perm:"):].split(";") if t.strip()]
        if not gen_texts:
            raise GroupParseError("perm: needs at least one generator")
        all_cycles = [regex_parse_cycles(t) for t in gen_texts]
        degree = max([1] + [max(cyc) + 1 for cycles in all_cycles for cyc in cycles])
        groups._check_degree(degree)
        return PermGroup(degree, [Perm.from_cycles(cycles, degree) for cycles in all_cycles])
    m = _NAMED_RE.fullmatch(spec)
    if m:
        name, n = m.group(1), read_int(m.group(2))
        if n < 1:
            raise GroupParseError("%s:%d needs n >= 1" % (name, n))
        return groups._named_group(name, n)
    m = _ELEM_ABELIAN_RE.fullmatch(spec)
    if m:
        return groups._elem_abelian(read_int(m.group(1)), read_int(m.group(2)))
    raise GroupParseError("cannot parse group spec %r" % (spec,))


def regex_parse_theory(text):
    """parse_theory at its default bounds as it read specs with
    THEORY_PATTERNS."""
    from quillen_strata import strata
    from quillen_strata.groups import read_int
    from quillen_strata.rings import MAX_FIELD_ORDER, is_prime
    from quillen_strata.strata import TheoryError, TheorySpec, UnsupportedTheory

    text = text.strip()
    for kind, pattern in THEORY_PATTERNS.items():
        m = re.fullmatch(pattern, text)
        if m:
            break
    else:
        raise TheoryError("cannot parse theory spec %r" % (text,))
    found = m.groupdict()
    fields = {}
    if found.get("p"):
        p = fields["p"] = read_int(found["p"], TheoryError)
        if p > MAX_FIELD_ORDER:
            raise UnsupportedTheory("p = %d exceeds 2^16" % p)
        if not is_prime(p):
            raise TheoryError("p = %d is not prime" % p)
    if found.get("q"):
        q = read_int(found["q"], TheoryError)
        if q > MAX_FIELD_ORDER:
            raise UnsupportedTheory("field size %d exceeds 2^16" % q)
        fields["p"], fields["f"] = strata._prime_power(q)
    if found.get("deg"):
        fields["degree_bound"] = read_int(found["deg"], TheoryError)
    return TheorySpec(kind, **fields)


def regex_select_class(G, classes, selector):
    """select_class as it read selectors with the regexes above."""
    from quillen_strata import groups
    from quillen_strata.groups import GroupParseError, Perm, class_containing, read_int

    selector = selector.strip()
    m = _CLASS_RE.fullmatch(selector)
    if m:
        order, idx = read_int(m.group(1)), read_int(m.group(2))
        matching = [c for c in classes if c.order == order]
        if idx >= len(matching):
            raise GroupParseError(
                "no class of order %d with index %d (have %d)" % (order, idx, len(matching)))
        return matching[idx]
    if selector.startswith("gens:"):
        texts = [t for t in selector[len("gens:"):].split(";") if t.strip()]
        gens = [Perm.from_cycles(regex_parse_cycles(t), G.degree) for t in texts]
        for g in gens:
            if g not in G.elements:
                raise GroupParseError("generator %s not in group" % g.cycle_string())
        index = G.element_index
        mask = groups._generate(index, [index.number[g] for g in gens])[2]
        return groups._class_of_mask(classes, mask)
    m = _ALT_RE.fullmatch(selector)
    if m:
        if read_int(m.group(1)) != G.degree:
            raise GroupParseError("selector %s does not match degree %d"
                                  % (selector, G.degree))
        even = frozenset(g for g in G.elements if groups._is_even(g))
        return class_containing(classes, even)
    raise GroupParseError("cannot parse subgroup selector %r" % (selector,))


def class_facts(classes):
    """Per subgroup class: order, conjugates, elements, normalizer,
    centralizer and index, for comparing two class lists."""
    return [(c.order, c.conjugates, c.elements, normalizer_perms(c),
             centralizer_perms(c), c.index) for c in classes]


def orbit_count(points, moves):
    """The number of orbits of points under the maps in moves, each a
    permutation of points, by a walk from each point not yet seen."""
    seen = set()
    count = 0
    for x in points:
        if x in seen:
            continue
        count += 1
        seen.add(x)
        stack = [x]
        while stack:
            y = stack.pop()
            for move in moves:
                z = move(y)
                if z not in seen:
                    seen.add(z)
                    stack.append(z)
    return count


def _conjugations(G):
    """Conjugation by each generator of G.  G is generated by them, so their
    orbits are G's."""
    return [lambda x, s=s: s * x * ~s for s in G.generators]


def brauer_count(G, q):
    """The number of simple F_q[G]-modules by Brauer's count: the orbits of
    the q-regular elements of G under conjugation and g -> g^q (Reiner, Proc.
    AMS 1964; Serre, Linear Representations of Finite Groups, ch. 18)."""
    def frobenius(x):
        powers = perm_powers(x)
        return powers[(q - 1) % len(powers)]

    regular = [g for g in G.sorted_elements if len(perm_powers(g)) % q]
    return orbit_count(regular, _conjugations(G) + [frobenius])


def hkr_count(G, p, n):
    """The G-orbits of commuting n-tuples of p-power elements of G, by a walk
    over every such tuple under conjugation (the left side of Hopkins, Kuhn
    & Ravenel, JAMS 2000)."""
    def p_power(g):
        k = len(perm_powers(g))
        while k % p == 0:
            k //= p
        return k == 1

    power = [g for g in G.sorted_elements if p_power(g)]
    tuples = [t for t in itertools.product(power, repeat=n)
              if all(a * b == b * a for a, b in itertools.combinations(t, 2))]
    moves = [lambda t, c=c: tuple(map(c, t)) for c in _conjugations(G)]
    return orbit_count(tuples, moves)


def epi_count(elements, n):
    """|Epi(Z^n, A)| for an abelian group A, given as its set of Perms: the
    n-tuples of A that generate it, each spanned power by power."""
    count = 0
    for t in itertools.product(sorted(elements), repeat=n):
        span = set(perm_powers(t[0]))
        for a in t[1:]:
            span = {x * y for x in perm_powers(a) for y in span}
        count += span == set(elements)
    return count


@pytest.fixture(scope="session")
def corpus_groups():
    from quillen_strata.checks import corpus_groups as cg
    return cg()
