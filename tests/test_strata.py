import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quillen_strata import rings, strata
from quillen_strata.cli import run
from quillen_strata.groups import (GroupError, build_group, class_containing,
                                   mulclose, Perm, subgroups_up_to_conjugacy)
from quillen_strata.rings import (GF, MAX_PRIME_BOUND, RingError, cyclotomic_poly,
                                  factor, primes_upto, residue_field_label)
from quillen_strata.strata import (THEORIES, TheoryError, TheorySpec, UnsupportedTheory,
                                   _form_substitute, _ku_points, _linear_powers,
                                   irreducible_forms, parse_theory, stratum,
                                   theory_family_classes, weyl_action_kind)

from conftest import (THEORY_PATTERNS, normalizer_perms, reference_form_substitute,
                      reference_irreducible_forms, reference_weyl_matrix)

WREATH = "perm:(0 1);(2 3);(0 2)(1 3)"


def classes_of(dsl):
    G = build_group(dsl)
    return G, subgroups_up_to_conjugacy(G)


def test_parse_theory_round_trip():
    for text in ("height1:p=2", "ku", "hz:p=3", "modp:q=4,deg=1", "kr"):
        assert parse_theory(text).name == text
    th = parse_theory("modp:q=9")
    assert (th.p, th.f, th.degree_bound) == (3, 2, 1)
    with pytest.raises(TheoryError):
        parse_theory("height1:p=4")
    with pytest.raises(TheoryError):
        parse_theory("modp:q=12")
    with pytest.raises(TheoryError):
        parse_theory("nonsense")


@st.composite
def theory_specs(draw):
    """A TheorySpec of any record, with the fields its pattern names drawn:
    a prime p, or a prime power q <= 256, and the bounds."""
    kind = draw(st.sampled_from(sorted(THEORIES)))
    groups = re.compile(THEORY_PATTERNS[kind]).groupindex
    fields = {"prime_bound": draw(st.integers(1, MAX_PRIME_BOUND)),
              "degree_bound": draw(st.integers(1, 64))}
    if "p" in groups:
        fields["p"] = draw(st.sampled_from(primes_upto(65521)))
    if "q" in groups:
        p = fields["p"] = draw(st.sampled_from(primes_upto(256)))
        fields["f"] = draw(st.integers(1, max(f for f in range(1, 9) if p ** f <= 256)))
    return TheorySpec(kind, **fields)


@given(theory_specs(), st.integers(1, 64))
@settings(max_examples=200, deadline=None)
def test_parse_theory_inverts_name_for_every_record(spec, other_degree):
    # a spec that names its degree bound keeps it over the one passed in
    named = "deg" in re.compile(THEORY_PATTERNS[spec.kind]).groupindex
    degree_bound = other_degree if named else spec.degree_bound
    assert parse_theory(spec.name, prime_bound=spec.prime_bound,
                        degree_bound=degree_bound) == spec


@pytest.mark.parametrize("text, error, message", [
    ("hz:p=1", TheoryError, "p = 1 is not prime"),
    ("modp:q=1", TheoryError, "q = 1 is not a prime power"),
    ("modp:q=70000", UnsupportedTheory, "field size 70000 exceeds 2^16"),
    ("height1:p=65537", UnsupportedTheory, "p = 65537 exceeds 2^16"),
    ("nonsense", TheoryError, "cannot parse theory spec 'nonsense'"),
])
def test_parse_theory_error_messages(text, error, message):
    with pytest.raises(error) as info:
        parse_theory(text)
    assert type(info.value) is error and str(info.value) == message


def test_theory_spec_checks_bounds_and_is_frozen():
    with pytest.raises(TheoryError):
        TheorySpec("ku", prime_bound=0)
    with pytest.raises(TheoryError):
        TheorySpec("modp", p=2, degree_bound=0)
    with pytest.raises(UnsupportedTheory):
        TheorySpec("ku", prime_bound=1001)
    spec = TheorySpec("ku")
    assert spec == parse_theory("ku")
    with pytest.raises(AttributeError):
        spec.prime_bound = 5


def test_theory_families():
    G, classes = classes_of("sym:3")
    h1 = theory_family_classes(parse_theory("height1:p=3"), G)
    assert [c.order for c in h1] == [1, 3]
    ku = theory_family_classes(parse_theory("ku"), G)
    assert [c.order for c in ku] == [1, 2, 3]
    kr_g = build_group("cyclic:2")
    kr = theory_family_classes(parse_theory("kr"), kr_g)
    assert [c.order for c in kr] == [1]


def test_weyl_action_kind():
    G, classes = classes_of("sym:3")
    assert weyl_action_kind(classes[1]) == "quillen"  # abelian subgroup
    assert weyl_action_kind(classes[-1]) == "global"  # non-abelian subgroup


# -- height1 --------------------------------------------------------------------

def test_height1_trivial_stratum_is_spec_zp():
    G, classes = classes_of("cyclic:4")
    th = parse_theory("height1:p=2")
    m = stratum(th, classes[0])
    assert [(p.label, p.closed) for p in m.points] == [("Q_2", False), ("F_2", True)]
    assert m.internal_edges == ((0, 1),)


def test_height1_c4_top_stratum():
    G, classes = classes_of("cyclic:4")
    th = parse_theory("height1:p=2")
    m = stratum(th, classes[-1])
    assert [p.label for p in m.points] == ["Q_2(zeta_4)"]
    assert m.internal_edges == ()


def test_height1_outside_family_is_empty():
    G, classes = classes_of("sym:3")
    th = parse_theory("height1:p=2")
    c3 = [c for c in classes if c.order == 3][0]
    m = stratum(th, c3)
    assert not m.points and "vanish" in m.reason
    top = classes[-1]
    assert not stratum(th, top).points


def test_height1_sigma3_weyl_acts_trivially_but_is_nontrivial():
    G, classes = classes_of("sym:3")
    th = parse_theory("height1:p=3")
    c3 = [c for c in classes if c.order == 3][0]
    m = stratum(th, c3)
    assert m.weyl.order == 2
    assert all(perm == tuple(range(len(m.points))) for perm in m.action)


def test_height1_point_counts():
    # 1 point for nontrivial cyclic p-subgroups, 2 for the trivial one
    for dsl, p in (("cyclic:8", 2), ("dihedral:4", 2), ("cyclic:9", 3)):
        G, classes = classes_of(dsl)
        th = parse_theory("height1:p=%d" % p)
        for cls in theory_family_classes(th, G):
            m = stratum(th, cls)
            assert len(m.points) == (2 if cls.order == 1 else 1)


# -- ku ---------------------------------------------------------------------------

def test_ku_stratum_c2_bound7():
    G, classes = classes_of("cyclic:2")
    th = parse_theory("ku", prime_bound=7)
    m = stratum(th, classes[-1])
    assert [p.local_id for p in m.points] == ["0", "3.0", "5.0", "7.0"]
    assert all(p.closed for p in m.points[1:])


def test_ku_stratum_counts_match_splitting():
    # the points come from the splitting formula; count them against the
    # factors of Phi_d mod q found by the general factorization
    G, classes = classes_of("cyclic:12")
    th = parse_theory("ku", prime_bound=13)
    for cls in theory_family_classes(th, G):
        m = stratum(th, cls)
        d = cls.order
        for q in (5, 7, 11, 13):
            pts = [p for p in m.points if p.descriptor.data[0] == "modular"
                   and p.descriptor.data[1] == q]
            dom = GF(q)
            factors = factor(cyclotomic_poly(d).map_domain(dom, dom.of_int))
            assert len(pts) == len(factors)
            assert {p.label for p in pts} == {
                residue_field_label(q, g.degree) for g, _ in factors}
            assert [p.descriptor.data[2] for p in pts] == list(range(len(pts)))


def test_ku_points_keep_the_cyclotomic_index_bound():
    # _ku_index_bound alone refuses an element order past MAX_CYCLOTOMIC, at
    # every prime bound, whether or not some prime q <= B is prime to the order
    G = build_group("perm:(0 1 2 3 4 5 6)(7 8 9 10 11 12 13 14 15)"
                    "(16 17 18 19 20 21 22 23 24 25 26)"
                    "(27 28 29 30 31 32 33 34 35 36 37 38 39)")
    assert G.order == 9009 and G.degree == 40
    for bound in (2, 3, 7, 11):
        with pytest.raises(RingError, match="cyclotomic index 9009 out of range"):
            theory_family_classes(parse_theory("ku", prime_bound=bound), G)
    # at the bound itself: 3 has order 1024 mod 4096, so two primes lie over 3
    assert [pt.local_id for pt in _ku_points(4096, 3)[0]] == ["0", "3.0", "3.1"]


def test_ku_weyl_action_swaps_split_primes():
    # in S3, W^Q(C3) = Z/2 inverts C3; over q = 7 (7 = 1 mod 3) the two primes
    # above 7 in Z[zeta_3] are swapped, those above inert primes are fixed
    G, classes = classes_of("sym:3")
    th = parse_theory("ku", prime_bound=7)
    c3 = [c for c in classes if c.order == 3][0]
    m = stratum(th, c3)
    nontriv = [perm for perm in m.action if perm != tuple(range(len(m.points)))]
    assert len(nontriv) == 1
    perm = nontriv[0]
    ids = [p.local_id for p in m.points]
    at7 = [i for i, p in enumerate(m.points) if p.local_id.startswith("7.")]
    assert len(at7) == 2
    assert perm[at7[0]] == at7[1] and perm[at7[1]] == at7[0]
    at2 = [i for i, p in enumerate(m.points) if p.local_id.startswith("2.")]
    assert len(at2) == 1 and perm[at2[0]] == at2[0]


def test_ku_action_is_group_action():
    from quillen_strata.checks import _is_group_action
    G, classes = classes_of("dihedral:5")
    th = parse_theory("ku", prime_bound=11)
    for cls in theory_family_classes(th, G):
        m = stratum(th, cls)
        assert _is_group_action(m)


# -- hz ---------------------------------------------------------------------------

def test_hz_requires_cyclic_p_group():
    th = parse_theory("hz:p=2")
    with pytest.raises(UnsupportedTheory):
        theory_family_classes(th, build_group("sym:3"))
    with pytest.raises(UnsupportedTheory):
        theory_family_classes(th, build_group("cyclic:6"))


def test_hz_strata_shapes():
    G, classes = classes_of("cyclic:4")
    th = parse_theory("hz:p=2")
    members = theory_family_classes(th, G)
    m0 = stratum(th, members[0])
    assert m0.points[0].label == "Q"
    assert all(p.label.startswith("F_") for p in m0.points[1:])
    m1 = stratum(th, members[1])
    assert [(p.local_id, p.label) for p in m1.points] == [
        ("gen", "F_2(t)"), ("t", "F_2")]
    assert m1.internal_edges == ((0, 1),)


# -- kr ---------------------------------------------------------------------------

def test_kr_only_c2():
    th = parse_theory("kr")
    with pytest.raises(UnsupportedTheory):
        theory_family_classes(th, build_group("cyclic:4"))
    G, classes = classes_of("cyclic:2")
    assert not stratum(th, classes[1]).points
    m = stratum(th, classes[0])
    assert m.points[0].label == "Q" and len(m.points) == 9  # bound 19


# -- modp -------------------------------------------------------------------------

def test_modp_rank_bounds():
    th = parse_theory("modp:q=4,deg=1")
    with pytest.raises(UnsupportedTheory):
        theory_family_classes(th, build_group("elem-abelian:2^3"))


def test_modp_rank01_strata():
    G, classes = classes_of(WREATH)
    th = parse_theory("modp:q=4,deg=1")
    members = theory_family_classes(th, G)
    m0 = stratum(th, members[0])
    assert len(m0.points) == 1 and m0.points[0].closed
    rank1 = [c for c in members if c.order == 2][0]
    m1 = stratum(th, rank1)
    assert len(m1.points) == 1 and not m1.points[0].closed


@pytest.mark.parametrize("group,theory,built", [
    ("cyclic:4", "modp:q=65536", 0), ("sym:3", "modp:q=59049", 0),
    ("elem-abelian:2^2", "modp:q=16", 1)])
def test_modp_builds_field_tables_only_for_a_rank_2_stratum(group, theory, built, capsys):
    # below rank 2 no product is taken over F_q, so no tables are built
    rings._gf_tables.cache_clear()
    assert run(["spectrum", "--group", group, "--theory", theory]) == 0
    capsys.readouterr()
    assert rings._gf_tables.cache_info().misses == built


def test_modp_klein_four_stratum_remark_values():
    G, classes = classes_of(WREATH)
    th = parse_theory("modp:q=4,deg=1")
    kf = class_containing(classes, mulclose(
        [Perm.from_cycles([(0, 1)], 4), Perm.from_cycles([(2, 3)], 4)], cap=8))
    m = stratum(th, kf)
    labels = [p.label for p in m.points]
    assert labels == ["F_4(x,y)", "(x+a*y)", "(x+(a+1)*y)"]
    assert m.weyl.order == 2
    assert m.orbits() == [(0,), (1, 2)]


def test_modp_linear_point_count_formula():
    # (q + 1) - (p + 1) non-rational linear points at rank 2, degree bound 1
    for (p, f) in ((2, 2), (3, 2), (2, 3)):
        q = p ** f
        dom = GF(p, f)
        forms = irreducible_forms(dom, 1)
        rational = [cf for cf in forms
                    if all(dom.in_prime_field(c) for c in cf)]
        assert len(forms) == q + 1
        assert len(rational) == p + 1
        assert len(forms) - len(rational) == (q + 1) - (p + 1)


def test_modp_degree_two_forms_are_irreducible_quadratics():
    dom = GF(2)
    forms = irreducible_forms(dom, 2)
    deg2 = [cf for cf in forms if len(cf) == 3]
    # only irreducible monic quadratic over F_2 is t^2 + t + 1
    assert deg2 == [(1, 1, 1)]


def test_modp_degree_bound_checked_before_enumerating(monkeypatch):
    # 8^7 exceeds the enumeration bound: no lower degree may be sieved first,
    # and the sieve's first field operation builds its table of sums
    dom = GF(2, 3)

    def fail(self, a, b):
        raise AssertionError("the sieve computed before the degree bound check")

    monkeypatch.setattr(GF, "add", fail)
    monkeypatch.setattr(GF, "mul", fail)
    with pytest.raises(UnsupportedTheory, match="degree bound 7 over F_8"):
        irreducible_forms(dom, 7)


# (p, f, D): q = p^f in {2, 3, 4, 5, 7, 8, 9, 16, 25, 31}, with every modp case
# of the bench's splitting workload: q in {2, 3, 4, 5, 8, 9}, 2 <= D, q^D <= 3125
@pytest.mark.parametrize("p,f,max_degree", [(2, 1, 6), (3, 1, 4), (2, 2, 4), (5, 1, 3),
                                            (7, 1, 3), (2, 3, 3), (3, 2, 3), (2, 4, 2),
                                            (5, 2, 2)]
                         + [(2, 1, D) for D in (2, 3, 4, 5)]
                         + [(3, 1, D) for D in (2, 3, 5)] + [(2, 2, D) for D in (2, 3, 5)]
                         + [(5, 1, D) for D in (2, 4, 5)] + [(2, 3, 2), (3, 2, 2), (31, 1, 3)])
def test_irreducible_forms_match_rabin_reference(p, f, max_degree):
    dom = GF(p, f)
    assert irreducible_forms(dom, max_degree) == reference_irreducible_forms(
        dom, max_degree)


def _gauss_count(q, k):
    """N_q(k) = (1/k) sum_{d | k} mu(d) q^(k/d), the monic irreducibles of degree k."""
    def mobius(n):
        primes = [p for p in range(2, n + 1) if n % p == 0
                  and all(p % r for r in range(2, p))]
        return 0 if any(n % (p * p) == 0 for p in primes) else (-1) ** len(primes)
    return sum(mobius(d) * q ** (k // d) for d in range(1, k + 1) if k % d == 0) // k


def test_irreducible_form_counts_match_gauss():
    for p, f in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1),
                 (13, 1), (2, 4)):
        q = p ** f
        forms = irreducible_forms(GF(p, f), 4)
        for k in range(2, 5):
            assert sum(len(cf) == k + 1 for cf in forms) == _gauss_count(q, k), (q, k)


def _gl2(p):
    return [((a, b), (c, d)) for a, b, c, d in itertools.product(range(p), repeat=4)
            if (a * d - b * c) % p]


def _check_substitution(cf, M, dom):
    Mdom = tuple(tuple(dom.of_int(x) for x in row) for row in M)
    left, right = _linear_powers(M, dom, len(cf) - 1)
    assert _form_substitute(cf, left, right) == reference_form_substitute(
        cf, Mdom, dom), (cf, M)


def test_form_substitute_matches_binomial_reference():
    dom = GF(2, 2)
    forms = [cf for k in range(1, 4)
             for cf in itertools.product(dom.elements(), repeat=k + 1) if any(cf)]
    for M in _gl2(2):
        for cf in forms:
            _check_substitution(cf, M, dom)
    dom = GF(3, 2)
    rng = random.Random(9)
    for _ in range(400):
        cf = tuple(rng.randrange(9) for _ in range(rng.randint(2, 4)))
        if any(cf):
            _check_substitution(cf, rng.choice(_gl2(3)), dom)


def test_weyl_matrices_match_perm_products():
    for dsl, p in ((WREATH, 2), ("sym:4", 2), ("elem-abelian:3^2", 3),
                   ("product:sym:3xsym:3", 3)):
        G, classes = classes_of(dsl)
        ranked = [c for c in classes if c.is_elementary_abelian(p) and c.p_rank(p) == 2]
        assert ranked, dsl
        for cls in ranked:
            for n in normalizer_perms(cls):
                assert cls.conjugation_matrix(n, cls) \
                    == reference_weyl_matrix(cls, n, p), (dsl, cls.index, n)


def _reference_modp_action(model, p, dom):
    """The Weyl action on a modp stratum from Perm products: a witness n sends
    the form f to f((x, y) M), M the matrix of conjugation by n, by binomial
    expansion; every other point is fixed."""
    position = {pt.descriptor.data: k for k, pt in enumerate(model.points)}
    action = []
    for _, n in model.weyl.witnesses:
        images = []
        for pt in model.points:
            data = pt.descriptor.data
            if data[0] == "form":
                M = reference_weyl_matrix(model.subgroup, n, p)
                Mdom = tuple(tuple(dom.of_int(c) for c in row) for row in M)
                data = ("form", data[1], reference_form_substitute(data[2], Mdom, dom))
            images.append(position[data])
        action.append(tuple(images))
    return tuple(action)


@pytest.mark.parametrize("name", ["modp:q=4,deg=2", "modp:q=9,deg=2", "modp:q=2,deg=3"])
def test_modp_action_matches_perm_products(name):
    th = parse_theory(name)
    dom = GF(th.p, th.f)
    moved = 0
    for dsl in ("elem-abelian:2^2", "elem-abelian:3^2", "sym:4", "dihedral:4", WREATH,
                "product:sym:3xsym:3"):
        G = build_group(dsl)
        for cls in theory_family_classes(th, G):
            m = stratum(th, cls)
            assert m.action == _reference_modp_action(m, th.p, dom), (name, dsl, cls.index)
            moved += sum(perm != tuple(range(len(perm))) for perm in m.action)
    assert moved  # some witness moves a form


def test_the_identity_conjugation_fixes_every_point(corpus_groups):
    # stratum() gives the identity witness the identity map without point_map,
    # which rests on each record's rule fixing every point at x = 1, L2 = L
    specs = {"height1": ("height1:p=2", "height1:p=3"), "ku": ("ku",),
             "hz": ("hz:p=2", "hz:p=3"), "kr": ("kr",),
             "modp": ("modp:q=4,deg=2", "modp:q=9,deg=2", "modp:q=2,deg=3",
                      "modp:q=5,deg=2", "modp:q=8,deg=2")}
    assert specs.keys() == THEORIES.keys()
    checked = set()
    for dsl, G in corpus_groups + [("alt:5", build_group("alt:5"))]:
        for kind, names in specs.items():
            for th in map(parse_theory, names):
                try:
                    members = theory_family_classes(th, G)
                except UnsupportedTheory:
                    continue
                for L in members:
                    move = th.record.conjugation(th, G.identity(), L, L)
                    for pt in th.record.build(th, L)[0]:
                        data = pt.descriptor.data
                        assert move(data) == data, (dsl, th.name, L.index, data)
                        checked.add(kind)
    assert checked == THEORIES.keys()


def _count_point_maps(monkeypatch):
    calls = []
    point_map = strata.point_map
    monkeypatch.setattr(strata, "point_map",
                        lambda *args: calls.append(args) or point_map(*args))
    return calls


@pytest.mark.parametrize("dsl,name,bound", [("cyclic:42", "ku", 199),
                                            ("elem-abelian:5^2", "modp:q=5,deg=3", None)])
def test_stratum_maps_no_point_on_an_abelian_group(monkeypatch, dsl, name, bound):
    calls = _count_point_maps(monkeypatch)
    th = parse_theory(name, prime_bound=bound)
    models = [stratum(th, cls) for cls in theory_family_classes(th, build_group(dsl))]
    assert calls == []
    for m in models:
        n = len(m.points)
        assert m.weyl.order == 1 and m.action == (tuple(range(n)),)
        assert m.orbits() == [(i,) for i in range(n)]
    assert sum(len(m.points) for m in models) > 50


def test_a_nontrivial_weyl_group_still_maps_its_points(monkeypatch):
    # on sym:4 the witnesses other than the identity go through point_map, and
    # the action is the one Perm products give
    calls = _count_point_maps(monkeypatch)
    th = parse_theory("modp:q=4,deg=2")
    models = [stratum(th, cls) for cls in theory_family_classes(th, build_group("sym:4"))]
    assert len(calls) == sum(m.weyl.order - 1 for m in models) > 0
    for m in models:
        assert m.action == _reference_modp_action(m, th.p, GF(th.p, th.f))
        assert m.orbits() == sorted({tuple(sorted({perm[i] for perm in m.action}))
                                     for i in range(len(m.points))})


def test_modp_actions_are_group_actions():
    # on the normal V_4 of sym:4 the Weyl group is all of GL_2(F_2), which is
    # not abelian, so a right action would fail here
    from quillen_strata.checks import _is_group_action
    th = parse_theory("modp:q=4,deg=2")
    for dsl in (WREATH, "sym:4"):
        G, classes = classes_of(dsl)
        for cls in theory_family_classes(th, G):
            m = stratum(th, cls)
            assert _is_group_action(m), (dsl, cls.index)


def test_modp_empty_outside_family():
    G, classes = classes_of("dihedral:4")
    th = parse_theory("modp:q=4,deg=1")
    c4 = [c for c in classes if c.order == 4 and c.is_cyclic()][0]
    assert not stratum(th, c4).points


def test_modp_degree_two_stratum_over_f2():
    # over F_2 all three lines are rational, so with degree bound 2 the open
    # rank-2 stratum is the generic point plus the single conjugate-pair point
    G, classes = classes_of("elem-abelian:2^2")
    th = parse_theory("modp:q=2,deg=2")
    m = stratum(th, classes[-1])
    assert [pt.label for pt in m.points] == ["F_2(x,y)", "(x^2+x*y+y^2)"]
    assert m.weyl.order == 1  # abelian parent: N = C = G


@pytest.mark.parametrize("name", ["height1:p=2", "height1:p=3", "ku", "hz:p=2",
                                  "hz:p=3", "modp:q=4", "modp:q=9", "kr"])
def test_empty_stratum_law(corpus_groups, name):
    # empty exactly outside the family, for every theory
    th = parse_theory(name)
    for dsl, G in corpus_groups:
        if G.order > 12:
            continue
        try:
            members = {c.index for c in theory_family_classes(th, G)}
        except UnsupportedTheory:
            continue
        for cls in subgroups_up_to_conjugacy(G):
            m = stratum(th, cls)
            assert (not m.points) == (cls.index not in members) == bool(m.reason)


def test_generator_power():
    # conjugation by a transposition inverts the generator of C_3 in sym:3
    G = build_group("sym:3")
    c3 = [c for c in subgroups_up_to_conjugacy(G) if c.order == 3][0]
    h = c3.cyclic_generator()
    assert c3.conjugation_exponent(G.identity(), c3) == 1
    assert c3.conjugation_exponent(Perm((1, 0, 2)), c3) == 2
    assert h * h * h == G.identity()
    c2 = [c for c in subgroups_up_to_conjugacy(G) if c.order == 2][0]
    with pytest.raises(GroupError):  # no x takes C_3 to C_2
        c3.conjugation_exponent(G.identity(), c2)
