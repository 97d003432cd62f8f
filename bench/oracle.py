"""Independent oracles for the benchmark's output checks.

Nothing here imports quillen_strata.  Groups are rebuilt from the DSL as
image tuples and closed into a Cayley table; subgroups come from joining
cyclic subgroups until nothing new appears; the number theory is trial
division and direct counting.  Every check compares a program document with
these computations or with a law the method must satisfy, never with a
stored copy of an earlier output.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache

Q8_DSL = "perm:(0 1 4 5)(2 3 6 7);(0 2 4 6)(1 7 5 3)"
WREATH_DSL = "perm:(0 1);(2 3);(0 2)(1 3)"


class CheckFailed(Exception):
    pass


def expect(cond, message, *args):
    if not cond:
        raise CheckFailed(message % args if args else message)


# -- number theory ----------------------------------------------------------

def primes_upto(bound):
    return [n for n in range(2, bound + 1)
            if all(n % d for d in range(2, math.isqrt(n) + 1))]


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def euler_phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def mult_order(q, d):
    """Order of q in (Z/d)^*; 1 for d = 1."""
    if d == 1:
        return 1
    f, x = 1, q % d
    while x != 1:
        x = x * q % d
        f += 1
    return f


def mobius(n):
    out, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    return -out if m > 1 else out


def gauss_count(q, k):
    """Number of monic irreducible polynomials of degree k over F_q."""
    return sum(mobius(d) * q ** (k // d) for d in divisors(k)) // k


# -- permutation groups from the DSL ---------------------------------------

def _parse_cycles(text, degree=None):
    cycles = [tuple(int(t) for t in body.split())
              for body in re.findall(r"\(([^()]*)\)", text)]
    cycles = [c for c in cycles if c]
    if degree is None:
        degree = max([max(c) + 1 for c in cycles], default=1)
    img = list(range(degree))
    for c in cycles:
        for i, a in enumerate(c):
            img[a] = c[(i + 1) % len(c)]
    return tuple(img)


def _cycle(n, shift=1):
    return tuple((i + shift) % n for i in range(n))


def generators(spec):
    """(degree, generator image tuples) for a group DSL string."""
    if spec.startswith("product:"):
        body = spec[len("product:"):]
        for m in re.finditer("x", body):
            try:
                da, ga = generators(body[:m.start()])
                db, gb = generators(body[m.start() + 1:])
            except ValueError:
                continue
            lift_a = [g + tuple(range(da, da + db)) for g in ga]
            lift_b = [tuple(range(da)) + tuple(da + i for i in g) for g in gb]
            return da + db, lift_a + lift_b
        raise ValueError(spec)
    if spec.startswith("perm:"):
        texts = [t for t in spec[len("perm:"):].split(";") if t.strip()]
        degree = max(max(_parse_cycles(t)) + 1 for t in texts)
        return degree, [_parse_cycles(t, degree) for t in texts]
    m = re.fullmatch(r"(cyclic|dihedral|sym|alt):(\d+)", spec)
    if m:
        name, n = m.group(1), int(m.group(2))
        if name == "cyclic":
            return n, [_cycle(n)]
        if name == "dihedral" and n >= 3:
            return n, [_cycle(n), tuple((n - i) % n for i in range(n))]
        if name == "alt":
            return n, [_parse_cycles("(0 1 %d)" % i, n) for i in range(2, n)]
        if n >= 2:
            return n, [_parse_cycles("(0 1)", n), _cycle(n)]
    m = re.fullmatch(r"elem-abelian:(\d+)\^(\d+)", spec)
    if m:
        p, k = int(m.group(1)), int(m.group(2))
        gens = []
        for axis in range(k):
            step = p ** axis
            gens.append(tuple(i - step * (p - 1) if (i // step) % p == p - 1
                              else i + step for i in range(p ** k)))
        return p ** k, gens
    raise ValueError(spec)


def compose(a, b):
    """(a o b)(i) = a[b[i]]."""
    return tuple(a[i] for i in b)


def closure(gens, degree):
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = compose(g, x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


class Group:
    """A finite group as a Cayley table over the indices 0..n-1."""

    def __init__(self, spec):
        degree, gens = generators(spec)
        self.elements = sorted(closure(gens, degree))
        index = {g: i for i, g in enumerate(self.elements)}
        self.order = len(self.elements)
        self.mul = [[index[compose(a, b)] for b in self.elements]
                    for a in self.elements]
        self.identity = index[tuple(range(degree))]
        self.inv = [row.index(self.identity) for row in self.mul]
        self.classes = self._subgroup_classes()

    def generated(self, gens):
        seen = {self.identity}
        frontier = [self.identity]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = self.mul[g][x]
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return frozenset(seen)

    def conjugate(self, sub, g):
        gi = self.inv[g]
        return frozenset(self.mul[self.mul[g][h]][gi] for h in sub)

    def _subgroup_classes(self):
        """[(subgroup, number of conjugates)], one entry per conjugacy class."""
        gens_of = {}
        for g in range(self.order):
            gens_of.setdefault(self.generated([g]), [g])
        cyclic = list(gens_of)
        subs = set(cyclic)
        frontier = list(cyclic)
        while frontier:
            nxt = []
            for s in frontier:
                for c in cyclic:
                    if c <= s:
                        continue
                    gens = gens_of[s] + gens_of[c]
                    j = self.generated(gens)
                    if j not in subs:
                        subs.add(j)
                        gens_of[j] = gens
                        nxt.append(j)
            frontier = nxt
        classes = []
        left = set(subs)
        for s in sorted(subs, key=lambda s: (len(s), sorted(s))):
            if s not in left:
                continue
            conj = {self.conjugate(s, g) for g in range(self.order)}
            left -= conj
            classes.append((s, len(conj)))
        return classes

    def is_cyclic(self, sub):
        return any(self.generated([h]) == sub for h in sub)

    def is_elementary_abelian(self, sub, p):
        return (all(self.mul[a][b] == self.mul[b][a] for a in sub for b in sub)
                and all(len(self.generated([h])) in (1, p) for h in sub))

    def class_counts(self, keep=lambda sub: True):
        """{order: number of conjugacy classes} over the classes kept."""
        out = {}
        for sub, _ in self.classes:
            if keep(sub):
                out[len(sub)] = out.get(len(sub), 0) + 1
        return out


@lru_cache(maxsize=None)
def group(spec):
    return Group(spec)


def known_subgroup_total(spec):
    """Subgroup totals known without any enumeration, where they exist."""
    m = re.fullmatch(r"dihedral:(\d+)", spec)
    if m:
        n = int(m.group(1))
        return len(divisors(n)) + sum(divisors(n))
    return {"sym:4": 30, "alt:4": 10, "alt:5": 59, "elem-abelian:2^4": 67,
            Q8_DSL: 6}.get(spec)


def _is_p_power(n, p):
    while n % p == 0:
        n //= p
    return n == 1


# -- document checks --------------------------------------------------------

def _class_laws(G, cls):
    expect(cls["conjugates"] * cls["normalizer_order"] == G.order,
           "conjugates x normalizer != |G| for class %s", cls)
    expect(G.order % cls["order"] == 0, "order %d does not divide |G|",
           cls["order"])


def check_subgroups(spec, doc):
    G = group(spec)
    expect(doc["order"] == G.order, "order %s, expected %d", doc["order"], G.order)
    total = sum(c["conjugates"] for c in doc["classes"])
    known = known_subgroup_total(spec)
    expected = known if known is not None else sum(n for _, n in G.classes)
    expect(total == expected, "%d subgroups, expected %d", total, expected)
    for cls in doc["classes"]:
        _class_laws(G, cls)
    got = sorted((c["order"], c["conjugates"]) for c in doc["classes"])
    want = sorted((len(s), n) for s, n in G.classes)
    expect(got == want, "class (order, conjugates) multiset differs")


def check_weyl(spec, doc, order, kind):
    G = group(spec)
    sub = doc["subgroup"]
    _class_laws(G, sub)
    expect(sub["order"] == order and doc["kind"] == kind, "wrong subgroup/kind")
    gens = [_parse_cycles(t, doc["action_degree"])
            for t in doc["quotient_generators"]]
    size = len(closure(gens, doc["action_degree"]))
    expect(size == doc["order"], "quotient generators close to %d, stated %d",
           size, doc["order"])
    n_order = sub["normalizer_order"]
    expected = {"ordinary": n_order // sub["order"],
                "quillen": n_order // sub["centralizer_order"]}.get(kind)
    if expected is not None:
        expect(doc["order"] == expected, "%s Weyl order %d, expected %d",
               kind, doc["order"], expected)
    else:
        expect((n_order // sub["order"]) % doc["order"] == 0,
               "global Weyl order %d does not divide |N/H|", doc["order"])


def check_double_cosets(spec, doc, h_order, k_order):
    G = group(spec)
    expect(doc["h"]["order"] == h_order and doc["k"]["order"] == k_order,
           "wrong subgroups selected")
    sizes = [dc["size"] for dc in doc["double_cosets"]]
    expect(sum(sizes) == G.order, "double coset sizes sum to %d, |G| = %d",
           sum(sizes), G.order)
    for dc in doc["double_cosets"]:
        expect(dc["size"] * dc["intersection_order"] == h_order * k_order,
               "|HgK| != |H||K|/|H^g n K| at %s", dc["representative"])


def _degrees(doc):
    indeg = {p["id"]: 0 for p in doc["points"]}
    outdeg = dict(indeg)
    for e in doc["edges"]:
        if e["kind"] != "external":
            outdeg[e["from"]] += 1
            indeg[e["to"]] += 1
    return indeg, outdeg


def _strata(doc):
    out = {}
    for p in doc["points"]:
        out.setdefault(p["stratum"], []).append(p)
    return out


def _strata_orders(doc):
    """{order: number of strata} read from the o<order>.<i> stratum keys."""
    out = {}
    for key in _strata(doc):
        order = int(key[1:].split(".")[0])
        out[order] = out.get(order, 0) + 1
    return out


def check_height1(spec, doc, p):
    G = group(spec)
    closed = [pt["id"] for pt in doc["points"] if pt["closed"]]
    expect(len(closed) == 1, "%d closed points, expected one", len(closed))
    fan = {(pt["id"], closed[0]) for pt in doc["points"] if pt["id"] != closed[0]}
    edges = {(e["from"], e["to"]) for e in doc["edges"]}
    expect(edges == fan, "not a fan into the closed point")
    cyclic_p = G.class_counts(
        lambda s: len(s) > 1 and _is_p_power(len(s), p) and G.is_cyclic(s))
    expected = 2 + sum(cyclic_p.values())
    expect(len(doc["points"]) == expected, "%d points, expected %d",
           len(doc["points"]), expected)


def check_ku_strata(spec, doc):
    """One stratum per conjugacy class of cyclic subgroups."""
    G = group(spec)
    expect(_strata_orders(doc) == G.class_counts(G.is_cyclic),
           "ku strata differ from the cyclic subgroup classes")


def check_modp_strata(spec, doc, p):
    """One stratum per conjugacy class of elementary abelian p-subgroups."""
    G = group(spec)
    want = G.class_counts(
        lambda s: _is_p_power(len(s), p) and G.is_elementary_abelian(s, p))
    expect(_strata_orders(doc) == want,
           "modp strata differ from the elementary abelian %d-subgroup classes", p)


def check_ku_cyclic(n, bound, doc):
    strata = _strata(doc)
    expected_total = 0
    for d in divisors(n):
        want = {}
        for q in primes_upto(bound):
            if d % q:
                f = mult_order(q, d)
                label = "F_%d" % q if f == 1 else "F_%d^%d" % (q, f)
                want[label] = want.get(label, 0) + euler_phi(d) // f
        expected_total += 1 + sum(want.values())
        got = {}
        for pt in strata.get("o%d.0" % d, []):
            if pt["closed"]:
                got[pt["label"]] = got.get(pt["label"], 0) + 1
        expect(got == want, "closed points of stratum o%d.0 differ", d)
    expect(len(doc["points"]) == expected_total, "%d points, expected %d",
           len(doc["points"]), expected_total)


def check_hz_cyclic(p, k, bound, doc):
    expected = 1 + len(primes_upto(bound)) + 2 * k
    expect(len(doc["points"]) == expected, "%d points, expected %d",
           len(doc["points"]), expected)


def check_modp_rank2(p, q, degree, doc):
    pts = _strata(doc).get("o%d.0" % (p * p), [])
    expected = 1 + (q - p) + sum(gauss_count(q, k) for k in range(2, degree + 1))
    expect(len(pts) == expected, "rank-2 stratum has %d points, expected %d",
           len(pts), expected)


def check_agreement(strong, weak):
    """Strong and weak forms carry equal multisets of point invariants."""
    def invariants(doc):
        indeg, outdeg = _degrees(doc)
        return sorted((pt["stratum"], pt["label"], pt["closed"],
                       indeg[pt["id"]], outdeg[pt["id"]]) for pt in doc["points"])
    expect(invariants(strong) == invariants(weak),
           "strong and weak forms disagree")


def check_drinfeld(p, doc):
    expect(doc["p"] == p, "wrong p")
    for key in ("P_divides_Q", "Q_divides_P", "quotient_is_one", "separable_char0"):
        expect(doc[key] is True, "%s is not true", key)
    expect(doc["separable_mod_p"] is False, "separable_mod_p is not false")
    expect(doc["mod_p_image"] == "X^%d" % p, "mod_p_image is %r",
           doc["mod_p_image"])
