"""Transition maps between full per-subgroup spectra, and boundary cases the
other test modules do not touch."""

import math

import pytest

from quillen_strata.checks import CORPUS
from quillen_strata.groups import build_group
from quillen_strata.orbit_cat import OrbitDiagram, build_orbit_category, colimit
from quillen_strata.rings import (CycloField, Poly, RingError,
                                  cyclic_spectrum_ring, cyclotomic_factors_mod,
                                  cyclotomic_poly, divides, level_polynomial_P,
                                  primes_upto)
from quillen_strata.spectrum import _class_keys, assemble_strong, assemble_weak
from quillen_strata.strata import (UnsupportedTheory, _galois_image, parse_theory,
                                   stratum, theory_family_classes, transition_map)

from conftest import (modular_preimage, reference_ku_action,
                      reference_ku_transition)

# the weak ku jobs of the benchmark's glue workload, and groups with
# nontrivial Weyl actions on ku strata
KU_SEARCH_GROUPS = ([("cyclic:%d" % n, 19) for n in range(12, 37)]
                    + [(g, 43) for g in ("sym:3", "sym:4", "dihedral:5", "alt:4",
                                         "perm:(0 1 2 3 4 5 6);(1 2 4)(3 6 5)",
                                         "sym:5", "product:cyclic:4xsym:3")])


def _setup(dsl, theory_text, **kw):
    th = parse_theory(theory_text, **kw)
    G = build_group(dsl)
    members = theory_family_classes(th, G)
    cat = build_orbit_category(G, members)
    spaces = [assemble_strong(th, cls, "") for cls in members]
    return th, G, members, cat, spaces


def test_height1_inclusion_c2_in_c4_is_label_preserving():
    th, G, members, cat, spaces = _setup("cyclic:4", "height1:p=2")
    idx = {c.order: i for i, c in enumerate(members)}
    m = cat.homs[(idx[2], idx[4])][0]
    t = transition_map(th, m.witness, spaces[idx[2]].points, spaces[idx[4]].points)
    src_labels = {p.id: p.label for p in spaces[idx[2]].points}
    dst_labels = {p.id: p.label for p in spaces[idx[4]].points}
    assert sorted(src_labels.values()) == ["F_2", "Q_2", "Q_2(zeta_2)"]
    for src, dst in t.items():
        assert src_labels[src] == dst_labels[dst]
    assert len(set(t.values())) == 3  # injective


def test_height1_automorphism_acts_as_identity():
    th, G, members, cat, spaces = _setup("sym:3", "height1:p=3")
    i = [k for k, c in enumerate(members) if c.order == 3][0]
    auts = cat.homs[(i, i)]
    assert len(auts) == 2
    for m in auts:
        t = transition_map(th, m.witness, spaces[i].points, spaces[i].points)
        assert all(src == dst for src, dst in t.items())


def test_ku_inclusion_preserves_minimal_and_modular_descriptors():
    th, G, members, cat, spaces = _setup("cyclic:6", "ku", prime_bound=7)
    idx = {c.order: i for i, c in enumerate(members)}
    m = cat.homs[(idx[3], idx[6])][0]
    t = transition_map(th, m.witness, spaces[idx[3]].points, spaces[idx[6]].points)
    src = {p.id: p for p in spaces[idx[3]].points}
    dst = {p.id: p for p in spaces[idx[6]].points}
    for a, b in t.items():
        da, db = src[a].descriptor.data, dst[b].descriptor.data
        if da[0] == "cyclo":
            assert db == da  # minimal primes map by the same divisor
        else:
            assert db[0] == "modular" and db[1] == da[1]
            # inclusions keep the defining irreducible factor
            assert db[2] == da[2]


def test_ku_conjugation_transition_is_galois():
    # the nontrivial automorphism of C3 inside S3 moves the primes above 7
    th, G, members, cat, spaces = _setup("sym:3", "ku", prime_bound=7)
    i = [k for k, c in enumerate(members) if c.order == 3][0]
    auts = cat.homs[(i, i)]
    nontrivial = [m for m in auts if m.witness != G.identity()]
    assert len(nontrivial) == 1
    t = transition_map(th, nontrivial[0].witness, spaces[i].points, spaces[i].points)
    moved = {a for a, b in t.items() if a != b}
    # exactly the two C3-stratum primes above 7 = 1 mod 3 swap; the copy of
    # Spec(Z) inside Spec(R(C_3)) is fixed pointwise
    at7_top = {p.id for p in spaces[i].points
               if p.cls.mask == members[i].mask
               and p.descriptor.data[0] == "modular"
               and p.descriptor.data[1] == 7}
    assert moved == at7_top and len(at7_top) == 2


def _stratum_masks(th, H):
    """{stratum key: bitmask of its subgroup} for the strata of H's spectrum."""
    members = theory_family_classes(th, H)
    keys = _class_keys(members)
    return {keys[c.index]: c.mask for c in members}


@pytest.mark.parametrize("dsl", ["product:cyclic:4xsym:3", "sym:5"])
def test_ku_identity_witness_keeps_stratum_and_descriptor(dsl):
    # an inclusion H <= K moves no point: each goes to the point of the
    # stratum of the same subgroup, with the same descriptor data, whatever
    # the canonical generators of H and K
    th, G, members, cat, spaces = _setup(dsl, "ku", prime_bound=43)
    identity = G.identity()
    checked = 0
    for m in cat.all_morphisms():
        if m.witness != identity:
            continue
        H, K = members[m.src], members[m.dst]
        t = transition_map(th, m.witness, spaces[m.src].points, spaces[m.dst].points)
        masks_h, masks_k = _stratum_masks(th, H), _stratum_masks(th, K)
        src = {pt.id: pt for pt in spaces[m.src].points}
        dst = {pt.id: pt for pt in spaces[m.dst].points}
        for a, b in t.items():
            assert masks_k[dst[b].stratum] == masks_h[src[a].stratum], (dsl, m[:3], a)
            assert dst[b].descriptor.data == src[a].descriptor.data, (dsl, m[:3], a, b)
            checked += 1
    assert checked


def test_galois_image_matches_search_on_every_unit():
    # every d <= 30 at q <= 31, and larger d at q up to 1000 where Phi_d mod q
    # has 4 to 24 factors
    pairs = [(d, q) for d in range(1, 31) for q in primes_upto(31) if d % q]
    pairs += [(45, 31), (45, 991), (52, 5), (60, 7), (63, 997), (64, 97)]
    for d, q in pairs:
        units = [a for a in range(1, d + 1) if math.gcd(a, d) == 1]
        cands = [(i, g.coeffs) for i, g in enumerate(cyclotomic_factors_mod(d, q))]
        for a in units:
            for i, coeffs in cands:
                expected = modular_preimage(q, coeffs, a, cands)
                assert _galois_image(("modular", q, i), d, a) == \
                    ("modular", q, expected), (d, q, a, i)


@pytest.mark.parametrize("dsl,bound", KU_SEARCH_GROUPS)
def test_ku_frobenius_labels_match_search(dsl, bound):
    # the Weyl actions and transition maps read off the Frobenius labels
    # equal those found by composing every candidate factor
    th, G, members, cat, spaces = _setup(dsl, "ku", prime_bound=bound)
    for cls in members:
        model = stratum(th, cls)
        assert model.action == reference_ku_action(model), (dsl, cls.index)
    for m in cat.all_morphisms():
        src, dst = spaces[m.src].points, spaces[m.dst].points
        assert transition_map(th, m.witness, src, dst) == reference_ku_transition(
            m, members[m.src], members[m.dst], src, dst), (dsl, m[:3])


def _rank_two_modp_cases():
    """(group, theory) for the corpus groups and alt:5 whose modp:q=Q,deg=2
    family has a rank-2 member, at q = 4, 8 and 9."""
    cases = []
    for dsl in CORPUS + ["alt:5"]:
        for q in (4, 8, 9):
            th = parse_theory("modp:q=%d,deg=2" % q)
            try:
                members = theory_family_classes(th, build_group(dsl))
            except UnsupportedTheory:  # a rank-3 subgroup
                continue
            if any(cls.p_rank(th.p) == 2 for cls in members):
                cases.append((dsl, th.name))
    return cases


@pytest.mark.parametrize("dsl,theory_text", _rank_two_modp_cases())
def test_modp_transition_maps_are_functorial(dsl, theory_text):
    # the first transition maps that cross classes on modp's rank-2 strata:
    # their diagram validates, and its colimit has one class per point of
    # the strong form
    th, G, members, cat, spaces = _setup(dsl, theory_text)
    diagram = OrbitDiagram(
        category=cat,
        point_sets={i: tuple(pt.id for pt in space.points)
                    for i, space in enumerate(spaces)},
        maps={m: transition_map(th, m.witness, spaces[m.src].points,
                                spaces[m.dst].points)
              for m in cat.all_morphisms()})
    assert len(colimit(diagram)) == len(assemble_strong(th, G).points)


INCLUSION_THEORIES = ("ku", "height1:p=2", "height1:p=3", "hz:p=2", "hz:p=3",
                      "modp:q=4,deg=2", "modp:q=9,deg=2", "modp:q=2,deg=3")


@pytest.mark.parametrize("theory_text", INCLUSION_THEORIES)
def test_inclusions_into_strong_spaces_are_total_and_functorial(theory_text):
    # each family member H maps into G's strong space along the identity, so
    # the Weyl orbits of G's strata meet images that are not their
    # representatives (ku on sym:3 sends both primes above 7 of C3's stratum
    # to one point of G's), and K -> H -> G is K -> G for each member K of H
    th = parse_theory(theory_text, prime_bound=23)
    maps = 0
    for dsl in CORPUS + ["alt:5"]:
        G = build_group(dsl)
        try:
            members = theory_family_classes(th, G)
        except UnsupportedTheory:  # hz off cyclic p-groups, modp at rank 3
            continue
        e = G.identity()
        points_g = assemble_strong(th, G).points
        for H in members:
            points_h = assemble_strong(th, H).points
            into_g = transition_map(th, e, points_h, points_g)
            assert set(into_g) == {pt.id for pt in points_h}, (dsl, H.index)
            maps += 1
            for K in theory_family_classes(th, H):
                points_k = assemble_strong(th, K).points
                into_h = transition_map(th, e, points_k, points_h)
                assert {a: into_g[b] for a, b in into_h.items()} == transition_map(
                    th, e, points_k, points_g), (dsl, H.index, K.index)
    assert maps


def test_weak_assembly_over_sym4_p2():
    th = parse_theory("height1:p=2")
    G = build_group("sym:4")
    weak = assemble_weak(th, G, "sym:4")
    strong = assemble_strong(th, G, "sym:4")
    # e, two C2 classes, one C4 class: 4 generics + 1 closed
    assert len(strong.points) == len(weak.points) == 5


def test_dihedral6_spectrum_from_first_principles():
    # D6 (order 12) at p=2: the central C2 and the two reflection classes all
    # contribute, so the spectrum has 4 generic points, not the 2 of the
    # maximal-cyclic-subgroup shortcut
    th = parse_theory("height1:p=2")
    G = build_group("dihedral:6")
    space = assemble_strong(th, G, "dihedral:6")
    generic = [p for p in space.points if not p.closed]
    assert len(generic) == 4
    assert sorted(p.label for p in generic) == [
        "Q_2", "Q_2(zeta_2)", "Q_2(zeta_2)", "Q_2(zeta_2)"]


def test_zeta_is_root_of_cyclotomic():
    for m in (1, 2, 3, 4, 5, 8, 12):
        K = CycloField(m)
        phi = cyclotomic_poly(m).map_domain(K, K.of_int)
        assert divides(Poly((K.neg(K.zeta()), K.one), K), phi)[0]  # X - zeta | Phi_m


def test_level_polynomial_bounds():
    with pytest.raises(RingError):
        level_polynomial_P(17)
    with pytest.raises(RingError):
        level_polynomial_P(4)


def test_cyclic_spectrum_bounds():
    with pytest.raises(RingError):
        cyclic_spectrum_ring(4097, 10)
    with pytest.raises(RingError):
        cyclic_spectrum_ring(4, 2000)
