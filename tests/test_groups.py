import itertools
import random
import time

import pytest

from quillen_strata.groups import (BoundExceeded, ElementIndex, FamilySpec,
                                   GroupError, GroupParseError, Perm, PermGroup,
                                   all_subgroup_sets, build_group,
                                   class_containing, double_cosets,
                                   family_members, minimal_generators,
                                   mulclose, select_class,
                                   subgroups_up_to_conjugacy, weyl)

from conftest import (centralizer_perms, check_class_conjugators, check_weyl,
                      class_facts, compose, lattice_perm_sets, naive_closure,
                      naive_subgroup_count, naive_subgroup_sets,
                      normalizer_perms, reference_build_group,
                      reference_cyclic_generator, reference_weyl_matrix)

# groups outside the corpus, of orders 20 to 60
EXTRA_GROUPS = (["alt:5"] + ["dihedral:%d" % n for n in range(10, 16)]
                + ["product:sym:3xsym:3", "product:cyclic:3xsym:3"])
# abelian groups, whose Weyl quotients are built without rows: N = C = G
ABELIAN_GROUPS = ["cyclic:42", "elem-abelian:5^2", "product:cyclic:4xcyclic:4"]


def test_perm_basics():
    a = Perm((1, 2, 0))
    b = Perm((1, 0, 2))
    assert (a * b).images == (2, 1, 0)
    e = Perm.identity(3)
    assert ~a * a == e
    assert a * a != e and a * a * a == e
    assert a.cycle_string() == "(0 1 2)"
    assert Perm.from_cycles([(0, 1, 2, 3)], 4).images == (1, 2, 3, 0)
    with pytest.raises(Exception):
        Perm((0, 0, 1))


def test_perm_is_an_immutable_value():
    a = Perm((1, 2, 0))
    with pytest.raises(AttributeError):
        a.images = (0, 1, 2)
    with pytest.raises(TypeError):
        a[0] = 0
    perms = [Perm(t) for t in itertools.permutations(range(3))][::-1]
    assert [p.images for p in sorted(perms)] == sorted(itertools.permutations(range(3)))
    assert a == a.images == (1, 2, 0) and hash(a) == hash(a.images) == hash((1, 2, 0))
    for bad in ((0, 0, 1), (1, 2), (0, 2)):
        with pytest.raises(GroupError):
            Perm(bad)
    b = Perm.from_cycles([(0, 1)], 3)
    assert all(type(p) is Perm for p in (a * b, ~a, Perm.identity(3), b))
    index = build_group("sym:3").element_index
    assert all(type(p) is Perm for p in index.perms)
    assert index.number[(1, 0, 2)] == index.number[b]
    assert index.left(3) is index.left(3) and index.right(3) is index.right(3)
    assert index.conj(3) is index.conj(3)


def test_perm_powers():
    a = Perm.from_cycles([(0, 1, 2, 3)], 4)
    index = ElementIndex(sorted(mulclose([a]), key=lambda p: p.images))
    powers = index.powers(index.number[a.images])
    assert [index.perms[x].images for x in powers] == [
        (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2), (0, 1, 2, 3)]
    trivial = ElementIndex([Perm.identity(3)])
    assert [trivial.perms[x] for x in trivial.powers(0)] == [Perm.identity(3)]


def test_build_group_trivial_and_sym3():
    assert build_group("cyclic:1").order == 1
    assert build_group("sym:3").order == 6


def test_build_group_dihedral4_matches_naive_closure():
    # oracle: closure of {(0 1 2 3), (0 3)(1 2)} computed independently
    gens = [(1, 2, 3, 0), (3, 2, 1, 0)]
    expected = naive_closure(gens)
    G = build_group("dihedral:4")
    assert G.order == len(expected) == 8
    assert {p.images for p in G.elements} == expected


def test_build_group_products_and_elem_abelian():
    assert build_group("product:cyclic:2xcyclic:4").order == 8
    assert build_group("elem-abelian:2^3").order == 8
    assert build_group("elem-abelian:3^2").order == 9
    G = build_group("perm:(0 1 2);(3 4)")
    assert G.order == 6 and G.degree == 5


def test_build_group_errors():
    with pytest.raises(GroupParseError):
        build_group("frobnicate:7")
    with pytest.raises(GroupParseError):
        build_group("elem-abelian:4^2")
    with pytest.raises(BoundExceeded):
        build_group("sym:8")
    with pytest.raises(BoundExceeded):
        build_group("cyclic:65")


def _build_outcome(build, spec):
    try:
        G = build(spec)
    except GroupError as exc:
        return type(exc).__name__, str(exc)
    return G.degree, tuple(G.generators)


def test_product_specs_match_the_split_search():
    # seeded specs of up to five x-separated parts, each a run of product:
    # prefixes before a name that builds, fails to parse or exceeds a bound
    rng = random.Random(27)
    names = ["cyclic:1", "cyclic:2", " sym:3 ", "perm:(0 1)", "dihedral:3",
             "bad", "cyclic:0", "", "sym:9", "cyclic:40"]
    accepted = 0
    for _ in range(2000):
        spec = "x".join(
            "".join(rng.choice(["product:", " product: "])
                    for _ in range(rng.choice([0, 0, 1, 1, 2]))) + rng.choice(names)
            for _ in range(rng.randint(1, 5)))
        if rng.random() < 0.7:
            spec = "product:" + spec
        old, new = (_build_outcome(reference_build_group, spec),
                    _build_outcome(build_group, spec))
        accepted += isinstance(old[0], int)
        # only a spec whose x and product: do not pair up may now fail to
        # parse where the split search built a factor past a bound
        assert new == old or (old[0] == "BoundExceeded" and new == (
            "GroupParseError", "cannot split product spec %r" % spec.strip())), spec
    assert accepted > 50


def test_product_specs_read_in_linear_time():
    # the split search took seconds at 20 nested products, 4x more per 2
    for spec in ["product:" * 24 + "x".join(["cyclic:1"] * 24) + "xbad",
                 "product:" * 1000 + "cyclic:1x" * 1000 + "sym:3x"]:
        start = time.perf_counter()
        with pytest.raises(GroupParseError, match="cannot split product spec"):
            build_group(spec)
        assert time.perf_counter() - start < 1
    G = build_group("product:" * 63 + "x".join(["cyclic:1"] * 64))
    assert G.degree == 64 and G.order == 1
    with pytest.raises(BoundExceeded):
        build_group("product:" * 64 + "x".join(["cyclic:1"] * 65))


def test_small_dihedral_special_cases():
    assert build_group("dihedral:1").order == 2
    D2 = build_group("dihedral:2")
    assert D2.order == 4 and D2.is_abelian()


@pytest.mark.parametrize("dsl,nclasses,orders", [
    ("cyclic:1", 1, [1]),
    ("cyclic:4", 3, [1, 2, 4]),
    ("sym:3", 4, [1, 2, 3, 6]),
])
def test_subgroup_classes_examples(dsl, nclasses, orders):
    G = build_group(dsl)
    classes = subgroups_up_to_conjugacy(G)
    assert len(classes) == nclasses
    assert [c.order for c in classes] == orders


@pytest.mark.parametrize("dsl", ["cyclic:4", "sym:3", "dihedral:4"])
def test_subgroup_totals_match_naive_enumeration(dsl):
    G = build_group(dsl)
    classes = subgroups_up_to_conjugacy(G)
    total = sum(c.conjugates for c in classes)
    assert total == naive_subgroup_count([p.images for p in G.elements])


# subgroup totals frozen from the standard subgroup counts
@pytest.mark.parametrize("dsl,count", [
    ("sym:4", 30),
    ("alt:4", 10),
    ("dihedral:4", 10),
    ("dihedral:6", 16),
    ("elem-abelian:2^3", 16),
    ("elem-abelian:2^4", 67),
    ("cyclic:12", 6),
    ("perm:(0 1 4 5)(2 3 6 7);(0 2 4 6)(1 7 5 3)", 6),  # quaternion
])
def test_subgroup_totals_known_values(dsl, count):
    G = build_group(dsl)
    assert len(all_subgroup_sets(G)) == count


def test_quaternion_signature():
    Q8 = build_group("perm:(0 1 4 5)(2 3 6 7);(0 2 4 6)(1 7 5 3)")
    assert Q8.order == 8
    classes = subgroups_up_to_conjugacy(Q8)
    # unique involution, three cyclic subgroups of order 4
    assert [c.order for c in classes] == [1, 2, 4, 4, 4, 8]
    assert all(c.conjugates == 1 for c in classes)
    assert not Q8.is_abelian()


def test_class_invariants(corpus_groups):
    for dsl, G in corpus_groups:
        for cls in subgroups_up_to_conjugacy(G):
            assert cls.elements <= G.elements
            assert cls.elements <= normalizer_perms(cls)
            assert centralizer_perms(cls) <= normalizer_perms(cls)
            assert cls.conjugates == G.order // len(normalizer_perms(cls))


def test_weyl_examples():
    G = build_group("sym:3")
    classes = subgroups_up_to_conjugacy(G)
    top = classes[-1]
    assert weyl(top, "ordinary").order == 1
    c3 = [c for c in classes if c.order == 3][0]
    assert weyl(c3, "ordinary").order == 2
    wq = weyl(c3, "quillen")
    assert wq.order == 2
    last = wq.quotient.sorted_elements[-1]
    assert last != Perm.identity(last.degree)


def test_weyl_divisibility_chain(corpus_groups):
    for dsl, G in corpus_groups:
        if G.order > 16:
            continue
        for cls in subgroups_up_to_conjugacy(G):
            wo = weyl(cls, "ordinary")
            wg = weyl(cls, "global")
            wq = weyl(cls, "quillen")
            assert wo.order % wg.order == 0
            assert wq.order % wg.order == 0
            if cls.is_abelian():
                assert wq.order == wg.order


def test_weyl_witnesses_act_as_recorded():
    G = build_group("dihedral:4")
    classes = subgroups_up_to_conjugacy(G)
    for cls in classes:
        w = weyl(cls, "quillen")
        for q, n in w.witnesses:
            assert n in normalizer_perms(cls)


def test_double_coset_trivial_cases():
    G = build_group("sym:3")
    trivial = subgroups_up_to_conjugacy(G)[0]
    assert trivial.order == 1
    dec = double_cosets(G, trivial, trivial)
    assert len(dec.pairs) == G.order
    assert all(len(dc.intersection) == 1 for dc in dec.pairs)
    dec2 = double_cosets(G, G, G)
    assert len(dec2.pairs) == 1
    assert dec2.pairs[0].intersection == G.elements


def test_double_cosets_rejects_groups_of_another_root():
    G = build_group("sym:3")
    other = build_group("sym:3")
    with pytest.raises(GroupError):
        double_cosets(G, G, other)


def test_double_coset_a3():
    G = build_group("sym:3")
    classes = subgroups_up_to_conjugacy(G)
    a3 = [c for c in classes if c.order == 3][0]
    dec = double_cosets(G, a3, a3)
    assert len(dec.pairs) == 2
    assert all(len(dc.intersection) == 3 for dc in dec.pairs)
    assert dec.mackey_ok()


def test_double_cosets_cover_and_mackey(corpus_groups):
    for dsl, G in corpus_groups:
        if G.order > 12:
            continue
        classes = subgroups_up_to_conjugacy(G)
        for hc, kc in itertools.product(classes, repeat=2):
            dec = double_cosets(G, hc, kc)
            assert sum(dc.size for dc in dec.pairs) == G.order
            assert dec.mackey_ok()


def test_family_members_examples():
    G = build_group("sym:3")
    fam = family_members(G, FamilySpec.cyclic_p(3))
    assert [c.order for c in fam] == [1, 3]
    all_fam = family_members(G, FamilySpec.all())
    assert len(all_fam) == len(subgroups_up_to_conjugacy(G))
    V4 = build_group("elem-abelian:2^2")
    rank1 = family_members(V4, FamilySpec.abelian_p_rank(2, 1))
    assert [c.order for c in rank1] == [1, 2, 2, 2]


def test_family_closed_under_subgroups():
    G = build_group("dihedral:6")
    for fam in (FamilySpec.cyclic(), FamilySpec.cyclic_p(2),
                FamilySpec.elem_abelian_p(2), FamilySpec.abelian_p_rank(2, 2)):
        for cls in family_members(G, fam):
            for sub in subgroups_up_to_conjugacy(cls):
                assert fam.contains(sub)


def test_p_rank():
    V4 = build_group("elem-abelian:2^2")
    classes = subgroups_up_to_conjugacy(V4)
    assert classes[-1].p_rank(2) == 2
    assert classes[0].p_rank(2) == 0
    C4 = build_group("cyclic:4")
    assert subgroups_up_to_conjugacy(C4)[-1].p_rank(2) == 1


def test_p_rank_of_the_trivial_group():
    trivial = build_group("cyclic:1")
    assert trivial.p_rank(2) == 0
    assert trivial.p_rank(3) == 0


def test_select_class_and_aliases():
    G = build_group("sym:3")
    classes = subgroups_up_to_conjugacy(G)
    assert select_class(G, classes, "3:0").order == 3
    assert select_class(G, classes, "A3").order == 3
    assert select_class(G, classes, "gens:(0 1 2)").order == 3
    with pytest.raises(GroupParseError):
        select_class(G, classes, "5:0")


def test_minimal_generators():
    G = build_group("elem-abelian:2^3")
    gens = minimal_generators(G)
    assert len(gens) == 3
    assert mulclose(gens) == G.elements


def test_class_containing():
    G = build_group("dihedral:4")
    classes = subgroups_up_to_conjugacy(G)
    e = G.identity()
    refl = [p for p in G.sorted_elements if p != e and p * p == e][0]
    cls = class_containing(classes, mulclose([refl], cap=8))
    assert cls.order == 2


def test_classes_read_off_parent_match_fresh_root(corpus_groups):
    for dsl, G in corpus_groups:
        for H in subgroups_up_to_conjugacy(G):
            assert H.parent is G
            fresh = PermGroup(H.degree, H.sorted_elements)
            assert fresh.parent is None
            assert class_facts(subgroups_up_to_conjugacy(H)) == \
                class_facts(subgroups_up_to_conjugacy(fresh)), (dsl, H.index)


def test_repeat_enumeration_returns_same_objects():
    G = build_group("sym:4")
    first = subgroups_up_to_conjugacy(G)
    second = subgroups_up_to_conjugacy(G)
    assert len(first) == len(second)
    assert all(a is b for a, b in zip(first, second))
    H = first[-2]
    assert all(a is b for a, b in zip(subgroups_up_to_conjugacy(H),
                                      subgroups_up_to_conjugacy(H)))


def test_class_conjugators_match_direct_conjugation(corpus_groups):
    for dsl, G in corpus_groups:
        check_class_conjugators(G, dsl)


def test_is_abelian_matches_all_pairs(corpus_groups):
    for dsl, G in corpus_groups:
        for cls in subgroups_up_to_conjugacy(G):
            els = [p.images for p in cls.elements]
            expected = all(compose(a, b) == compose(b, a) for a in els for b in els)
            assert cls.is_abelian() == expected, (dsl, cls.index)


def test_class_containing_rejects_non_subgroup():
    G = build_group("sym:3")
    classes = subgroups_up_to_conjugacy(G)
    t = Perm.from_cycles([(0, 1)], 3)
    with pytest.raises(GroupError):
        class_containing(classes, {G.identity(), t, Perm.from_cycles([(1, 2)], 3)})


def test_class_containing_rejects_class_outside_family():
    G = build_group("sym:3")
    members = family_members(G, FamilySpec.cyclic_p(2))
    a3 = mulclose([Perm.from_cycles([(0, 1, 2)], 3)])
    assert class_containing(subgroups_up_to_conjugacy(G), a3).order == 3
    with pytest.raises(GroupError):
        class_containing(members, a3)


def test_from_cycles_rejects_a_point_in_two_cycles():
    with pytest.raises(GroupParseError):
        Perm.from_cycles([(0, 1), (0, 2)], 3)
    with pytest.raises(GroupParseError):
        Perm.from_cycles([(0, 1), (1, 0)], 2)
    with pytest.raises(GroupParseError):
        build_group("perm:(0 1)(0 2)")
    assert Perm.from_cycles([(0, 1), (2, 3)], 4).images == (1, 0, 3, 2)


def test_enumeration_matches_naive_on_corpus(corpus_groups):
    for dsl, G in corpus_groups:
        assert lattice_perm_sets(G) == naive_subgroup_sets(G), dsl


@pytest.mark.parametrize("dsl", EXTRA_GROUPS)
def test_enumeration_matches_naive_beyond_corpus(dsl):
    G = build_group(dsl)
    assert lattice_perm_sets(G) == naive_subgroup_sets(G)
    check_class_conjugators(G, dsl)


def test_weyl_matches_reference_on_corpus(corpus_groups):
    for dsl, G in corpus_groups:
        check_weyl(G, dsl)


@pytest.mark.parametrize("dsl", EXTRA_GROUPS + ABELIAN_GROUPS)
def test_weyl_matches_reference_beyond_corpus(dsl):
    check_weyl(build_group(dsl), dsl)


@pytest.mark.parametrize("dsl", ABELIAN_GROUPS)
def test_an_abelian_groups_classes_have_all_of_it_as_centralizer(dsl):
    G = build_group(dsl)
    check_class_conjugators(G, dsl)  # the brute-force normalizer and centralizer
    group = {p.images for p in G.elements}
    for cls in subgroups_up_to_conjugacy(G):
        S = [p.images for p in cls.elements]
        assert {g for g in group if all(compose(g, s) == compose(s, g) for s in S)} \
            == {p.images for p in centralizer_perms(cls)} == group, (dsl, cls.index)
        for kind in ("global", "quillen"):
            w = weyl(cls, kind)
            assert (w.order, w.quotient.degree) == (1, 1), (dsl, cls.index, kind)
            assert [n for _, n in w.witnesses] == [G.identity()]


def check_cyclic_generators(G, label):
    """cyclic_generator and is_cyclic against the order scan on G, on each of
    its classes and on each class of each class."""
    assert G.cyclic_generator() == reference_cyclic_generator(G), label
    for cls in subgroups_up_to_conjugacy(G):
        assert cls.is_cyclic() == (reference_cyclic_generator(cls) is not None)
        for sub in [cls] + subgroups_up_to_conjugacy(cls):
            assert sub.cyclic_generator() == reference_cyclic_generator(sub), \
                (label, cls.index, sub.index)


def test_cyclic_generator_matches_order_scan_on_corpus(corpus_groups):
    for dsl, G in corpus_groups:
        check_cyclic_generators(G, dsl)


@pytest.mark.parametrize("dsl", EXTRA_GROUPS + ["sym:5", "cyclic:60",
                                                "product:cyclic:8xcyclic:9"])
def test_cyclic_generator_matches_order_scan_beyond_corpus(dsl):
    check_cyclic_generators(build_group(dsl), dsl)


def test_parse_cycles_accepts_only_a_sequence_of_cycles():
    G = build_group("perm:(0 1 2)(3 4);(5 6)")
    assert G.order == 12 and G.degree == 7
    assert build_group("perm:(0,1,2)").elements == build_group("perm:(0 1 2)").elements
    assert build_group("perm:(0 1), (2 3)").order == 2
    for spec in ("perm:(0 1) 2", "perm:)(0 1)(", "perm:(0 1)(2 3"):
        with pytest.raises(GroupParseError):
            build_group(spec)


def test_element_index_numbers_sorted_elements():
    G = build_group("sym:4")
    index = G.element_index
    assert index.perms == tuple(sorted(G.elements))
    assert index.perms[0] == G.identity()
    a, b = 5, 17
    pa, pb = index.perms[a], index.perms[b]
    assert index.perms[index.left(a)[b]] == pa * pb
    assert index.perms[index.right(a)[b]] == pb * pa
    assert index.perms[index.conj(a)[b]] == pa * pb * ~pa
    assert index.perms[index.mul(a, b)] == pa * pb
    assert index.perms[index.inverse(a)] == ~pa
    H = subgroups_up_to_conjugacy(G)[-2]
    assert H.element_index is index
    assert [index.perms[x] for x in H.numbers] == list(H.sorted_elements)


@pytest.mark.parametrize("dsl,p", [("sym:4", 2), ("perm:(0 1);(2 3);(0 2)(1 3)", 2),
                                   ("dihedral:6", 2), ("elem-abelian:3^2", 3)])
def test_conjugations_between_classes_match_perm_products(dsl, p):
    # c_g: S -> K for every class S of G, every class K and every g with
    # g S g^-1 <= K, landing among K's own classes, as the weak form asks
    G = build_group(dsl)
    classes = subgroups_up_to_conjugacy(G)
    seen = set()
    for K in classes:
        targets = subgroups_up_to_conjugacy(K)
        for S in classes:
            for g in G.sorted_elements:
                image = frozenset(g * s * ~g for s in S.elements)
                if not image <= K.elements:
                    continue
                L, x = S.conjugate_class(g, targets)
                assert L is class_containing(targets, image)
                assert frozenset(x * s * ~x for s in S.elements) == L.elements
                assert x * ~g in K.elements
                seen.add(L.elements == S.elements)
                if S.is_cyclic():
                    a = S.conjugation_exponent(x, L)
                    power = L.identity()
                    for _ in range(a):
                        power = power * L.cyclic_generator()
                    assert power == x * S.cyclic_generator() * ~x
                if S.is_elementary_abelian(p) and S.p_rank(p) == 2:
                    assert S.conjugation_matrix(x, L) \
                        == reference_weyl_matrix(S, x, p, L), (dsl, S.index, g)
    assert G.is_abelian() or seen == {True, False}  # some L is not S itself
    for S in (c for c in classes if c.is_cyclic()):
        for e in (d for d in range(1, S.order + 1) if S.order % d == 0):
            # the subgroup of order e of a cyclic S is {s : s^e = 1}
            sub = frozenset(s for s in S.elements if e % len(mulclose([s])) == 0)
            assert S.cyclic_subgroup_class(e, classes) is class_containing(classes, sub)

