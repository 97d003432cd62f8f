import pytest

from quillen_strata.groups import (FamilySpec, build_group, double_cosets,
                                   family_members, subgroups_up_to_conjugacy)
from quillen_strata.orbit_cat import (DiagramError, Morphism, OrbitDiagram,
                                      build_orbit_category, coequalize_raw,
                                      colimit)

from conftest import conjugate_set, coset_perms, reference_orbit_category


def cat_for(dsl, fam):
    G = build_group(dsl)
    members = family_members(G, fam)
    return G, members, build_orbit_category(G, members)


def test_hom_from_trivial_is_single():
    G, members, cat = cat_for("sym:4", FamilySpec.cyclic_p(2))
    for j in range(len(members)):
        assert len(cat.homs[(0, j)]) == 1


def test_aut_c3_in_sym3():
    G, members, cat = cat_for("sym:3", FamilySpec.cyclic_p(3))
    i = [k for k, c in enumerate(members) if c.order == 3][0]
    assert len(cat.homs[(i, i)]) == 2


def test_hom_c2_c4_in_cyclic4():
    G, members, cat = cat_for("cyclic:4", FamilySpec.cyclic_p(2))
    idx = {c.order: k for k, c in enumerate(members)}
    assert len(cat.homs[(idx[2], idx[4])]) == 1
    # no morphism down
    assert len(cat.homs[(idx[4], idx[2])]) == 0


def test_aut_counts_match_global_weyl():
    from quillen_strata.groups import weyl
    for dsl in ("sym:3", "dihedral:4", "sym:4"):
        G, members, cat = cat_for(dsl, FamilySpec.cyclic_p(2))
        for i, cls in enumerate(members):
            assert len(cat.homs[(i, i)]) == weyl(cls, "global").order


def test_hom_sets_complete():
    # every g with gHg^-1 <= K appears in exactly one morphism coset
    G, members, cat = cat_for("dihedral:6", FamilySpec.cyclic_p(2))
    for i, Hc in enumerate(members):
        for j, Kc in enumerate(members):
            morphs = cat.homs[(i, j)]
            union = set()
            total = 0
            for m in morphs:
                coset = coset_perms(G, m)
                valid = {g for g in coset
                         if conjugate_set(Hc.elements, g) <= Kc.elements}
                assert valid == set(coset)
                total += len(coset)
                union |= coset
            assert len(union) == total  # pairwise disjoint
            direct = {g for g in G.elements
                      if conjugate_set(Hc.elements, g) <= Kc.elements}
            assert union == direct


@pytest.mark.parametrize("fam", [FamilySpec.all(), FamilySpec.cyclic(),
                                 FamilySpec.cyclic_p(2), FamilySpec.cyclic_p(3)],
                         ids=lambda fam: fam.name)
def test_homs_match_reference(corpus_groups, fam):
    for dsl, G in corpus_groups:
        members = family_members(G, fam)
        cat = build_orbit_category(G, members)
        got = {ij: [(m.witness, coset_perms(G, m)) for m in morphs]
               for ij, morphs in cat.homs.items()}
        assert got == reference_orbit_category(G, members), dsl


def test_composition_closed():
    G, members, cat = cat_for("sym:4", FamilySpec.cyclic_p(2))
    for f1 in cat.all_morphisms():
        for k in range(len(members)):
            for f2 in cat.homs[(f1.dst, k)]:
                comp = cat.compose(f2, f1)
                assert comp.src == f1.src and comp.dst == k


def test_verify_mackey_examples():
    # 1, 8 and 11 subgroup classes, squared
    for dsl, pairs in (("cyclic:1", 1), ("dihedral:4", 64), ("sym:4", 121)):
        G = build_group(dsl)
        classes = subgroups_up_to_conjugacy(G)
        decs = [double_cosets(G, H, K) for H in classes for K in classes]
        assert len(decs) == pairs and all(dec.mackey_ok() for dec in decs), dsl


def test_coequalize_single_object_identity():
    r = coequalize_raw({"a": ["x", "y", "z"]}, [("a", "a", {"x": "x", "y": "y", "z": "z"})])
    assert len(r) == 3


def test_coequalize_fold():
    r = coequalize_raw({"a": ["x", "y"], "b": ["z"]},
                       [("a", "b", {"x": "z", "y": "z"}),
                        ("a", "b", {"x": "z", "y": "z"})])
    assert len(r) == 1


def test_coequalize_missing_point_rejected():
    with pytest.raises(DiagramError):
        coequalize_raw({"a": ["x"]}, [("a", "a", {"x": "nope"})])


def test_coequalize_idempotent():
    objects = {"a": ["x", "y"], "b": ["u", "v", "w"]}
    maps = [("a", "b", {"x": "u", "y": "u"})]
    first = coequalize_raw(objects, maps)
    quotient_points = ["%s|%s" % cid for cid, _ in first]
    second = coequalize_raw({"q": quotient_points},
                            [("q", "q", {p: p for p in quotient_points})])
    assert len(second) == len(first)


def test_coequalize_respects_relabeling():
    objects = {"a": ["x", "y"], "b": ["u", "v"]}
    maps = [("a", "b", {"x": "u", "y": "v"}), ("a", "b", {"x": "v", "y": "v"})]
    base = coequalize_raw(objects, maps)
    rename = {"x": "p1", "y": "p2", "u": "p3", "v": "p4"}
    objects2 = {"a": ["p1", "p2"], "b": ["p3", "p4"]}
    maps2 = [("a", "b", {"p1": "p3", "p2": "p4"}), ("a", "b", {"p1": "p4", "p2": "p4"})]
    other = coequalize_raw(objects2, maps2)
    # partitions correspond under the relabeling
    blocks1 = sorted(sorted((o, rename[p]) for o, p in members) for _, members in base)
    blocks2 = sorted(sorted(members) for _, members in other)
    assert blocks1 == blocks2


def test_diagram_validation_rejects_non_functorial():
    G, members, cat = cat_for("cyclic:4", FamilySpec.cyclic_p(2))
    idx = {c.order: k for k, c in enumerate(members)}
    pts = {i: ("p0", "p1") for i in range(len(members))}
    maps = {}
    for m in cat.all_morphisms():
        maps[m] = {"p0": "p0", "p1": "p1"}
    # break one composite: e -> C4 swaps while e -> C2 -> C4 does not
    broken = dict(maps)
    broken[cat.homs[(idx[1], idx[4])][0]] = {"p0": "p1", "p1": "p0"}
    diagram = OrbitDiagram(category=cat, point_sets=pts, maps=broken)
    with pytest.raises(DiagramError):
        diagram.validate()


def test_colimit_over_identity_diagram():
    G, members, cat = cat_for("cyclic:2", FamilySpec.cyclic_p(2))
    pts = {i: ("a", "b") for i in range(len(members))}
    maps = {m: {"a": "a", "b": "b"} for m in cat.all_morphisms()}
    res = colimit(OrbitDiagram(category=cat, point_sets=pts, maps=maps))
    # e -> C2 inclusion identifies the two copies pointwise
    assert len(res) == 2


def test_morphism_is_a_value():
    G = build_group("sym:3")
    m = build_orbit_category(G, subgroups_up_to_conjugacy(G)).homs[(0, 1)][0]
    other = Morphism(m.src, m.dst, m.witness, m.coset)
    assert other == m and not other != m and hash(other) == hash(m)
    assert Morphism(m.src, m.dst, m.witness, 0) != m
    assert Morphism(m.src, m.src, m.witness, m.coset) != m
    with pytest.raises(AttributeError):
        m.coset = 0
