"""Invariant suites behind the CLI verify command, and the corpus they sweep.

Each suite sweeps the built-in corpus (or the stated numeric ranges) and
returns a CheckResult; a violation anywhere fails the suite.  The same
functions back the pytest invariant tests.
"""

import functools
import itertools
import json
import time
from collections import namedtuple

from .groups import (FamilySpec, all_subgroup_sets, build_group, double_cosets,
                     family_members, subgroups_up_to_conjugacy, weyl)
from .orbit_cat import coequalize_raw
from .rings import (GF, Poly, ZZ, cyclotomic_factors_mod, cyclotomic_poly,
                    factor, is_separable, prime_splitting, primes_upto)
from .spectrum import (assemble_strong, assemble_weak, check_agreement,
                       deserialize, serialize, to_document)
from .strata import UnsupportedTheory, parse_theory, stratum, theory_family_classes


# the DSL-expressible groups of order <= 16 plus the named extras (S3, S4,
# D4, D6, Q8 and the wreath-type group (Z/2)^2 : Z/2)
CORPUS = (
    [("cyclic:%d" % n) for n in range(1, 17)]
    + ["elem-abelian:2^2", "elem-abelian:2^3", "elem-abelian:2^4",
       "elem-abelian:3^2"]
    + ["product:cyclic:2xcyclic:4", "product:cyclic:2xcyclic:6",
       "product:cyclic:2xcyclic:8", "product:cyclic:4xcyclic:4"]
    + ["dihedral:%d" % n for n in range(3, 9)]
    + ["sym:3", "sym:4", "alt:4",
       "perm:(0 1 4 5)(2 3 6 7);(0 2 4 6)(1 7 5 3)",  # Q8
       "perm:(0 1);(2 3);(0 2)(1 3)"]  # (Z/2 x Z/2) : Z/2, swap action
)


@functools.cache
def corpus_group(dsl):
    return build_group(dsl)


def corpus_groups():
    return [(dsl, corpus_group(dsl)) for dsl in CORPUS]


CheckResult = namedtuple("CheckResult", "name ok detail seconds")
SUITES = []  # every suite, in definition order, which is verify's order


def _suite(name):
    """Time a suite body returning (ok, detail) into a CheckResult, and
    register the suite in SUITES."""
    def timed(body):
        @functools.wraps(body)
        def check(*args, **kwargs):
            t0 = time.perf_counter()
            ok, detail = body(*args, **kwargs)
            return CheckResult(name, ok, detail, time.perf_counter() - t0)
        SUITES.append(check)
        return check
    return timed


@_suite("mackey-double-cosets")
def check_mackey():
    """sum over [g] in H\\G/K of [G : H^g cap K] is [G:H] * [G:K] for all H, K."""
    bad = []
    pairs = 0
    for dsl, G in corpus_groups():
        classes = subgroups_up_to_conjugacy(G)
        pairs += len(classes) ** 2
        violations = [{"h": (H.order, H.index), "k": (K.order, K.index),
                       "cosets": len(dec.pairs)}
                      for H, K in itertools.product(classes, repeat=2)
                      for dec in [double_cosets(G, H, K)] if not dec.mackey_ok()]
        if violations:
            bad.append((dsl, violations))
    return not bad, "%d class pairs%s" % (pairs, "" if not bad else
                                          "; violations in %r" % bad)


@_suite("weyl-divisibility")
def check_weyl_divisibility():
    checked = 0
    for dsl, G in corpus_groups():
        for cls in subgroups_up_to_conjugacy(G):
            wo = weyl(cls, "ordinary")
            wg = weyl(cls, "global")
            wq = weyl(cls, "quillen")
            checked += 1
            if wo.order % wg.order or wq.order % wg.order:
                return False, "divisibility fails for %s class %d" % (dsl, cls.index)
    return True, "%d classes" % checked


_FAMILIES = (FamilySpec.all(), FamilySpec.cyclic(), FamilySpec.cyclic_p(2),
             FamilySpec.cyclic_p(3), FamilySpec.elem_abelian_p(2),
             FamilySpec.elem_abelian_p(3), FamilySpec.abelian_p_rank(2, 1),
             FamilySpec.abelian_p_rank(2, 2))


@_suite("family-closure")
def check_family_closure():
    checked = 0
    for dsl, G in corpus_groups():
        for fam in _FAMILIES:
            members = family_members(G, fam)
            if not any(c.order == 1 for c in members):
                return False, "%s misses trivial class in %s" % (fam.name, dsl)
            for cls in members:
                sub_classes = subgroups_up_to_conjugacy(cls)
                checked += len(sub_classes)
                if not all(fam.contains(sc) for sc in sub_classes):
                    return False, "%s not subgroup-closed at %s class %d" % (
                        fam.name, dsl, cls.index)
    return True, "%d member subgroups" % checked


@_suite("subgroup-counts")
def check_subgroup_counts(groups=None):
    checked = list(groups or corpus_groups())
    for dsl, G in checked:
        classes = subgroups_up_to_conjugacy(G)
        total = sum(c.conjugates for c in classes)
        brute = len(all_subgroup_sets(G))
        if total != brute:
            return False, "conjugate count sum %d != %d in %s" % (total, brute, dsl)
    return True, "checked %d groups" % len(checked)


@_suite("cyclotomic-product")
def check_cyclotomic_product():
    limit = 200
    for d in range(1, limit + 1):
        prod = Poly.one(ZZ)
        for e in range(1, d + 1):
            if d % e == 0:
                prod = prod * cyclotomic_poly(e)
        target = Poly.from_ints([-1] + [0] * (d - 1) + [1], ZZ)
        if prod != target:
            return False, "product of Phi_e != X^%d - 1" % d
    return True, "d <= %d" % limit


@_suite("cyclotomic-splitting-oracle")
def check_splitting_oracle():
    checked = 0
    for d in range(1, 41):
        for q in primes_upto(100):
            if d % q == 0:
                continue
            checked += 1
            split = prime_splitting(d, q)
            dom = GF(q)
            phi = cyclotomic_poly(d).map_domain(dom, dom.of_int)
            if phi.degree == 0:
                if split.count != 1:
                    return False, "d=%d q=%d trivial case" % (d, q)
                continue
            if not is_separable(phi):
                return False, "Phi_%d mod %d not squarefree" % (d, q)
            factors = factor(phi)
            if len(factors) != split.count:
                return False, "d=%d q=%d: %d factors, formula %d" % (
                    d, q, len(factors), split.count)
            if any(g.degree != split.residue_degree for g, _ in factors):
                return False, "d=%d q=%d: residue degree mismatch" % (d, q)
            if any(e != 1 for _, e in factors):
                return False, "d=%d q=%d: repeated factor" % (d, q)
    return True, "%d (d, q) pairs" % checked


@_suite("weyl-actions-are-actions")
def check_strata_actions():
    checked = 0
    for dsl, G in corpus_groups():
        for tname in ("height1:p=2", "height1:p=3", "ku", "hz:p=2", "hz:p=3",
                      "kr", "modp:q=4,deg=1", "modp:q=9,deg=1",
                      "modp:q=4,deg=2", "modp:q=8,deg=2"):
            th = parse_theory(tname, prime_bound=11)
            try:
                members = theory_family_classes(th, G)
            except UnsupportedTheory:
                continue
            for cls in members:
                checked += 1
                if not _is_group_action(stratum(th, cls)):
                    return False, "action law fails: %s %s class %d" % (
                        dsl, tname, cls.index)
    return True, "%d strata" % checked


def _is_group_action(model):
    w = model.weyl
    els = w.quotient.sorted_elements
    table = dict(zip(els, model.action))
    ident = w.quotient.identity()
    n = len(model.points)
    if table[ident] != tuple(range(n)):
        return False
    for a in els:
        for b in els:
            ab = a * b
            composed = tuple(table[a][table[b][i]] for i in range(n))
            if composed != table[ab]:
                return False
    return True


@_suite("weak-strong-agreement")
def check_agreement_suite(groups=None):
    corpus = groups or corpus_groups()
    cases = [(parse_theory(tname), dsl, G) for dsl, G in corpus
             for tname in ("height1:p=2", "height1:p=3", "ku")]
    # hz on the cyclic 2- and 3-groups, also at a prime bound below p = 3
    cases += [(parse_theory("hz:p=%d" % p, prime_bound=bound), dsl, G)
              for dsl, G in corpus for p in (2, 3)
              if G.is_cyclic() and G.is_p_group(p) for bound in (None, 2)]
    for th, dsl, G in cases:
        strong = assemble_strong(th, G, dsl)
        weak = assemble_weak(th, G, dsl)
        rep = check_agreement(strong, weak)
        if not rep.isomorphic:
            return False, "%s at prime bound %d disagrees on %s (%s)" % (
                th.name, th.prime_bound, dsl, rep.obstruction)
    return True, "%d comparisons" % len(cases)


@_suite("height1-fan-shape")
def check_fan_shape(groups=None, primes=(2, 3)):
    for dsl, G in groups or corpus_groups():
        for p in primes:
            th = parse_theory("height1:p=%d" % p)
            space = assemble_strong(th, G, dsl)
            closed = space.closed_points()
            if len(closed) != 1:
                return False, "%s p=%d: %d closed points" % (dsl, p, len(closed))
            target = closed[0].id
            outgoing = {}
            for e in space.solid_edges():
                outgoing.setdefault(e.src, []).append(e.dst)
            for pt in space.points:
                if pt.id == target:
                    if pt.id in outgoing:
                        return False, "%s p=%d: closed point has an edge out" % (dsl, p)
                elif outgoing.get(pt.id) != [target]:
                    return False, "%s p=%d: %s does not fan into the closed point" % (
                        dsl, p, pt.id)
    return True, "fan shape holds"


@_suite("colimit-quotient-laws")
def check_colimit_quotient_laws():
    """Idempotence and relabeling invariance of the union-find colimit."""
    objects = {"a": ["x", "y", "z"], "b": ["u", "v"]}
    maps = [("a", "b", {"x": "u", "y": "u", "z": "v"}),
            ("a", "b", {"x": "u", "y": "v", "z": "v"})]
    first = coequalize_raw(objects, maps)
    pts = ["%s|%s" % cid for cid, _ in first]
    second = coequalize_raw({"q": pts}, [("q", "q", {p: p for p in pts})])
    if len(second) != len(first):
        return False, "colimit not idempotent"
    rename = {"x": "r0", "y": "r1", "z": "r2", "u": "r3", "v": "r4"}
    objects2 = {o: [rename[p] for p in ps] for o, ps in objects.items()}
    maps2 = [(s, d, {rename[a]: rename[b] for a, b in t.items()})
             for s, d, t in maps]
    other = coequalize_raw(objects2, maps2)
    blocks = lambda res, conv: sorted(
        sorted(conv(m) for m in mem) for _, mem in res)
    if blocks(first, lambda m: (m[0], rename[m[1]])) != \
            blocks(other, lambda m: m):
        return False, "colimit not relabeling-invariant"
    return True, "idempotence and relabeling hold"


@_suite("ku-stratum-splitting-counts")
def check_ku_stratum_counts():
    """Points above q in a KU stratum, counted from the splitting formula,
    match the factors of Phi_d mod q."""
    th = parse_theory("ku", prime_bound=13)
    checked = 0
    for n in (2, 3, 4, 6, 8, 12):
        G = build_group("cyclic:%d" % n)
        for cls in theory_family_classes(th, G):
            model = stratum(th, cls)
            d = cls.order
            for q in primes_upto(13):
                if d % q == 0:
                    continue
                pts = [p for p in model.points
                       if p.descriptor.data[0] == "modular"
                       and p.descriptor.data[1] == q]
                checked += 1
                if len(pts) != len(cyclotomic_factors_mod(d, q)):
                    return False, "stratum C_%d at q=%d" % (d, q)
    return True, "%d (stratum, q) pairs" % checked


@_suite("serialization-round-trip")
def check_serialization_round_trip():
    """Each document re-serializes to itself and equals the text json.dumps
    writes for to_document, the oracle of the one-pass writer."""
    cases = [("cyclic:4", "height1:p=2"), ("cyclic:2", "ku"),
             ("cyclic:9", "hz:p=3"), ("cyclic:2", "kr"),
             ("sym:3", "height1:p=3")]
    for dsl, tname in cases:
        th = parse_theory(tname)
        space = assemble_strong(th, build_group(dsl), dsl)
        txt = serialize(space, "json")
        if txt != json.dumps(to_document(space), sort_keys=True, indent=2) + "\n":
            return False, "writer differs from json.dumps for %s / %s" % (dsl, tname)
        if serialize(deserialize(txt), "json") != txt:
            return False, "round trip broke for %s / %s" % (dsl, tname)
    return True, "%d documents" % len(cases)


def run_all():
    return [fn() for fn in SUITES]
