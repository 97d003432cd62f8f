import json
import pathlib
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quillen_strata import checks, groups, strata
from quillen_strata.cli import run
from quillen_strata.groups import build_group
from quillen_strata.orbit_cat import build_orbit_category, quotient
from quillen_strata.rings import (RingError, cyclic_spectrum_ring,
                                  cyclotomic_factors_mod, p_part)
from quillen_strata.spectrum import (SpaceEdge, SpacePoint, StratifiedSpace,
                                     assemble_strong, assemble_weak,
                                     check_agreement,
                                     deserialize, json_text, serialize, to_document)
from quillen_strata.strata import (UnsupportedTheory, parse_theory, stratum,
                                   theory_family_classes, transition_map)

from conftest import conjugate_set, coset_perms

H1_2 = parse_theory("height1:p=2")
H1_3 = parse_theory("height1:p=3")


def test_fig1_c4():
    G = build_group("cyclic:4")
    s = assemble_strong(H1_2, G, "cyclic:4")
    labels = sorted(p.label for p in s.points)
    assert labels == ["F_2", "Q_2", "Q_2(zeta_2)", "Q_2(zeta_4)"]
    assert len(s.edges) == 3
    closed = s.closed_points()
    assert len(closed) == 1 and closed[0].label == "F_2"
    assert all(e.dst == closed[0].id for e in s.edges)


def test_fig4_klein_four():
    G = build_group("elem-abelian:2^2")
    s = assemble_strong(H1_2, G, "elem-abelian:2^2")
    generic = [p for p in s.points if not p.closed]
    assert len(generic) == 4
    assert sorted(p.label for p in generic) == [
        "Q_2", "Q_2(zeta_2)", "Q_2(zeta_2)", "Q_2(zeta_2)"]
    assert len(s.closed_points()) == 1


def test_trivial_group_is_spec_zp():
    G = build_group("cyclic:1")
    s = assemble_strong(H1_2, G, "cyclic:1")
    assert [(p.label, p.closed) for p in s.points] == [("F_2", True), ("Q_2", False)]
    w = assemble_weak(H1_2, G, "cyclic:1")
    assert len(w.points) == 2


def test_sigma3_weak_three_points():
    G = build_group("sym:3")
    w = assemble_weak(H1_3, G, "sym:3")
    assert sorted(p.label for p in w.points) == ["F_3", "Q_3", "Q_3(zeta_3)"]
    s = assemble_strong(H1_3, G, "sym:3")
    assert check_agreement(s, w).isomorphic


def test_strata_partition_points():
    G = build_group("sym:4")
    s = assemble_strong(H1_2, G, "sym:4")
    assert len({p.id for p in s.points}) == len(s.points)
    for p in s.points:
        assert p.stratum.startswith("o")


def test_quotient_orbit_sizes_sum():
    # for each stratum, orbit sizes sum to the raw stratum size
    G = build_group("perm:(0 1);(2 3);(0 2)(1 3)")
    th = parse_theory("modp:q=4,deg=1")
    members = theory_family_classes(th, G)
    for cls in members:
        model = stratum(th, cls)
        if not model.points:
            continue
        orbits = model.orbits()
        assert sum(len(o) for o in orbits) == len(model.points)
        for perm in model.action:
            for orbit in orbits:
                assert {perm[i] for i in orbit} == set(orbit)


def test_ku_c2_fig3():
    G = build_group("cyclic:2")
    th = parse_theory("ku")
    s = assemble_strong(th, G, "cyclic:2")
    minimal = [p for p in s.points if not p.closed]
    assert len(minimal) == 2
    at2 = [p for p in s.points if p.closed and p.descriptor.data[1] == 2]
    assert len(at2) == 1
    into2 = [e for e in s.edges if e.dst == at2[0].id]
    assert sorted(e.src for e in into2) == sorted(p.id for p in minimal)
    for q in (3, 5, 7, 11, 13, 17, 19):
        atq = [p for p in s.points if p.closed and p.descriptor.data[1] == q]
        assert len(atq) == 2
        for p in atq:
            incoming = [e for e in s.edges if e.dst == p.id]
            assert len(incoming) == 1
    w = assemble_weak(th, G, "cyclic:2")
    rep = check_agreement(s, w)
    assert rep.isomorphic


def _space(labels, edges):
    points = [SpacePoint("p%d" % i, "S", label, False)
              for i, label in enumerate(labels)]
    return StratifiedSpace(meta={}, points=points,
                           edges=[SpaceEdge(a, b, "internal") for a, b in edges])


def test_agreement_reports_label_multiset_mismatch():
    # same label set {X, Y}, different counts: a label obstruction, not a degree one
    rep = check_agreement(_space("XY", []), _space("XXY", []))
    assert not rep.isomorphic
    assert rep.obstruction == "label multiset mismatch"


def test_agreement_reports_degree_sequence_mismatch():
    rep = check_agreement(_space("XY", [("p0", "p1")]), _space("XY", []))
    assert not rep.isomorphic
    assert rep.obstruction == "degree sequence mismatch"


def _cycles(*lengths):
    """Directed cycles on p0, p1, ... of the given lengths, in order."""
    edges, start = [], 0
    for n in lengths:
        edges += [("p%d" % (start + i), "p%d" % (start + (i + 1) % n)) for i in range(n)]
        start += n
    return _space("X" * start, edges)


def test_agreement_exhausts_the_search_on_equal_invariants():
    # every point has in- and out-degree 1 on both sides
    rep = check_agreement(_cycles(6), _cycles(3, 3))
    assert not rep.isomorphic
    assert rep.obstruction == "exhausted search"


def test_agreement_backtracks_out_of_a_wrong_component():
    # p0 first goes to the weak 6-cycle, where the strong 3-cycle cannot close
    strong, weak = _cycles(3, 6), _cycles(6, 3)
    rep = check_agreement(strong, weak)
    assert rep.isomorphic
    assert rep.witness["p0"] in ("p6", "p7", "p8")
    assert sorted(rep.witness.values()) == sorted(pt.id for pt in weak.points)
    assert ({(rep.witness[e.src], rep.witness[e.dst]) for e in strong.edges}
            == {(e.src, e.dst) for e in weak.edges})


@pytest.mark.parametrize("bound,points", [(200, 1273), (1000, 4850)])
def test_agreement_scales_past_the_recursion_limit(bound, points):
    # one search step per point: a recursive search overflowed at about 990
    th = parse_theory("ku", prime_bound=bound)
    G = build_group("cyclic:60")
    s, w = assemble_strong(th, G, "cyclic:60"), assemble_weak(th, G, "cyclic:60")
    assert len(s.points) == len(w.points) == points
    rep = check_agreement(s, w)
    assert rep.isomorphic
    assert len(rep.witness) == points


def test_ku_cyclic_agreement_small():
    th = parse_theory("ku", prime_bound=13)
    for n in (1, 2, 3, 4, 6, 12):
        G = build_group("cyclic:%d" % n)
        s = assemble_strong(th, G, "cyclic:%d" % n)
        w = assemble_weak(th, G, "cyclic:%d" % n)
        assert check_agreement(s, w).isomorphic, n


def test_weak_ku_enumerates_one_lattice(monkeypatch):
    calls = []
    enumerate_all = groups.all_subgroup_sets

    def counting(G):
        calls.append(G.order)
        return enumerate_all(G)

    monkeypatch.setattr(groups, "all_subgroup_sets", counting)
    th = parse_theory("ku")
    G = build_group("cyclic:36")
    assemble_weak(th, G, "cyclic:36")
    assert calls == [36]


def _ring_edges(n, bound):
    """cyclic_spectrum_ring's containments on strong ku's point ids: (Phi_d)
    is the generic point of C_d's stratum, and (q, g) with g | Phi_e mod q
    the point over q of C_e's stratum indexed by g's place among the factors."""
    ring = cyclic_spectrum_ring(n, bound)
    out = set()
    for i, j in ring.contains:
        d = ring.minimal[i].data[1]
        _, q, coeffs = ring.maximal[j].data
        e = p_part(d, q)[1]
        k = [g.coeffs for g in cyclotomic_factors_mod(e, q)].index(coeffs)
        out.add(("o%d.0:0" % d, "o%d.0:%d.%d" % (e, q, k),
                 "internal" if d == e else "cross-stratum"))
    return out


@pytest.mark.parametrize("n, bound", [(n, 19) for n in range(1, 65)]
                         + [(n, 200) for n in (12, 30, 42, 60)])
def test_ku_cyclic_edges_match_spectrum_ring(n, bound):
    th = parse_theory("ku", prime_bound=bound)
    space = assemble_strong(th, build_group("cyclic:%d" % n))
    edges = [(e.src, e.dst, e.kind) for e in space.edges]
    assert len(edges) == len(set(edges))
    assert set(edges) == _ring_edges(n, bound)


def test_strong_ku_on_a_cyclic_group_factors_nothing():
    # every Weyl twist of a cyclic group is trivial, so neither form of a
    # glue workload's ku pair reaches the splitter
    for n in (12, 30, 36, 42):
        for assemble in (assemble_strong, assemble_weak):
            cyclotomic_factors_mod.cache_clear()
            assemble(parse_theory("ku", prime_bound=200), build_group("cyclic:%d" % n))
            assert cyclotomic_factors_mod.cache_info().misses == 0, (n, assemble.__name__)


def test_ku_keeps_the_cyclotomic_index_bound_at_every_prime_bound(monkeypatch):
    # with the index bound lowered to 8, a cyclic subgroup of order 12 is out
    # of range whether or not some prime <= B is prime to 12, on a cyclic G
    # and on a non-cyclic one
    monkeypatch.setattr(strata, "MAX_CYCLOTOMIC", 8)
    for dsl in ("cyclic:12", "dihedral:12"):
        G = build_group(dsl)
        for bound in (2, 3, 5):
            with pytest.raises(RingError, match="cyclotomic index 12 out of range"):
                assemble_strong(parse_theory("ku", prime_bound=bound), G)


def test_ku_noncyclic_agreement_compares_edges():
    G = build_group("sym:3")
    th = parse_theory("ku", prime_bound=7)
    s = assemble_strong(th, G, "sym:3")
    w = assemble_weak(th, G, "sym:3")
    assert len(s.solid_edges()) == len(w.solid_edges())
    assert any(e.kind == "cross-stratum" for e in s.edges)
    rep = check_agreement(s, w)
    assert rep.isomorphic
    # the witness carries the solid edges of one form onto the other's
    image = {(rep.witness[e.src], rep.witness[e.dst]) for e in s.solid_edges()}
    assert image == {(e.src, e.dst) for e in w.solid_edges()}


def test_agreement_suite_catches_c_e_found_by_order(monkeypatch):
    # the first family class of order e is not always the class of C_e when
    # G has several classes of that order; weak glues cyclic members, where
    # the order names the subgroup, so only the strong form goes wrong
    def first_of_order(cls, e, classes):
        return next(c for c in classes if c.order == e)

    monkeypatch.setattr(groups.SubgroupClass, "cyclic_subgroup_class", first_of_order)
    assert not checks.check_agreement_suite().ok
    failing = [dsl for dsl, G in checks.corpus_groups()
               if not checks.check_agreement_suite([(dsl, G)]).ok]
    assert failing == ["product:cyclic:2xcyclic:6", "dihedral:6"]


def test_ku_noncyclic_point_counts_agree():
    th = parse_theory("ku", prime_bound=13)
    for dsl in ("dihedral:4", "alt:4", "sym:4"):
        G = build_group(dsl)
        s = assemble_strong(th, G, dsl)
        w = assemble_weak(th, G, dsl)
        assert len(s.points) == len(w.points)
        assert check_agreement(s, w).isomorphic, dsl


def test_hz_fig5():
    for p in (2, 3):
        G = build_group("cyclic:%d" % p ** 2)
        th = parse_theory("hz:p=%d" % p)
        s = assemble_strong(th, G, "cyclic:%d" % p ** 2)
        two_point = [k for k in sorted({pt.stratum for pt in s.points})
                     if len([q for q in s.points if q.stratum == k]) == 2]
        assert len(two_point) == 2
        ext = [e for e in s.edges if e.kind == "external"]
        assert len(ext) == 2
        assert all(e.provenance == "Balmer-Gallauer" for e in ext)
        solid = s.solid_edges()
        assert all(e.kind != "external" for e in solid)
        w = assemble_weak(th, G, "")
        assert check_agreement(s, w).isomorphic


@pytest.mark.parametrize("dsl, p", [("cyclic:2", 2), ("cyclic:4", 2), ("cyclic:9", 3),
                                    ("cyclic:23", 23), ("cyclic:25", 5)])
def test_hz_below_p_glues_without_the_missing_point(dsl, p, capsys):
    # below p the truncated Spec Z at the trivial class has no point over p,
    # so the edge into it goes; the other external edges stay
    G = build_group(dsl)
    nontrivial = len(groups.subgroups_up_to_conjugacy(G)) - 1
    for bound in sorted({1, p - 1, p}):
        external = nontrivial - (bound < p)
        th = parse_theory("hz:p=%d" % p, prime_bound=bound)
        s, w = assemble_strong(th, G, dsl), assemble_weak(th, G, dsl)
        assert check_agreement(s, w).isomorphic
        for space in (s, w):
            ids = {pt.id for pt in space.points}
            assert all(e.src in ids and e.dst in ids for e in space.edges)
            assert len([e for e in space.edges if e.kind == "external"]) == external
        for mode in ("strong", "weak"):
            assert run(["spectrum", "--group", dsl, "--theory", th.name,
                        "--prime-bound", str(bound), "--mode", mode]) == 0
            assert capsys.readouterr().err == ""


def test_kr_c2_is_spec_z():
    G = build_group("cyclic:2")
    s = assemble_strong(parse_theory("kr"), G, "cyclic:2")
    assert sorted({pt.stratum for pt in s.points}) == ["o1.0"]
    labels = sorted(p.label for p in s.points)
    assert labels == sorted(["Q"] + ["F_%d" % q for q in (2, 3, 5, 7, 11, 13, 17, 19)])


def test_weak_unavailable_without_transitions():
    G = build_group("cyclic:2")
    with pytest.raises(UnsupportedTheory):
        assemble_weak(parse_theory("kr"), G, "cyclic:2")
    with pytest.raises(UnsupportedTheory):
        assemble_weak(parse_theory("modp:q=4"), G, "cyclic:2")


def test_both_forms_pick_one_representative_per_orbit(corpus_groups, monkeypatch):
    # with an empty gluing rule modp has a weak form; a rank-2 stratum's Weyl
    # orbits hold forms of several labels, so the two forms agree only if
    # they take the same point of each orbit
    record = strata.THEORIES["modp"]
    monkeypatch.setitem(strata.THEORIES, "modp", record._replace(
        glue=lambda theory, members, points: ()))
    compared = []
    for dsl, G in corpus_groups + [("alt:5", build_group("alt:5"))]:
        for q in (4, 8, 9):
            th = parse_theory("modp:q=%d,deg=2" % q)
            try:
                strong = assemble_strong(th, G, dsl)
            except UnsupportedTheory:  # a rank-3 subgroup
                continue
            weak = assemble_weak(th, G, dsl)
            compared.append((dsl, q, check_agreement(strong, weak).isomorphic))
    assert len(compared) == 104
    assert [(dsl, q) for dsl, q, ok in compared if not ok] == []


def test_point_counts_strong_equals_weak(corpus_groups):
    for dsl, G in corpus_groups:
        if G.order > 12:
            continue
        s = assemble_strong(H1_2, G, dsl)
        w = assemble_weak(H1_2, G, dsl)
        assert len(s.points) == len(w.points), dsl


def test_each_pair_of_points_has_one_edge(corpus_groups):
    # what lets both assemblies keep their edges in a set: a strong space
    # has one edge per (src, dst), a weak one one per (src, dst, kind)
    checked = []
    for dsl, G in corpus_groups:
        for spec in ("height1:p=2", "height1:p=3", "ku", "hz:p=2", "hz:p=3", "kr",
                     "modp:q=4,deg=2", "modp:q=9,deg=2"):
            theory = parse_theory(spec)
            forms = [(assemble_strong, 2)]
            if theory.record.glue:  # else no weak form
                forms.append((assemble_weak, 3))
            for assemble, fields in forms:
                try:
                    space = assemble(theory, G, dsl)
                except UnsupportedTheory:  # outside the theory's groups
                    continue
                keys = [e[:fields] for e in space.edges]
                assert len(keys) == len(set(keys)), (dsl, spec, assemble.__name__)
                checked.append(space.meta["mode"])
    assert (checked.count("strong"), checked.count("weak")) == (182, 113)


def test_of_colimit_matches_oq_colimit():
    # the orbit-category colimit (computed through coset witnesses) gives the
    # same partition as the Quillen orbit category colimit
    for dsl, p in (("sym:3", 3), ("elem-abelian:2^2", 2), ("sym:4", 2)):
        th = parse_theory("height1:p=%d" % p)
        G = build_group(dsl)
        members = theory_family_classes(th, G)
        cat = build_orbit_category(G, members)
        spaces = {i: assemble_strong(th, cls, "")
                  for i, cls in enumerate(members)}
        nodes = [(i, pt.id) for i in spaces for pt in spaces[i].points]

        def quotient_classes(relations):
            return sorted(frozenset(ms) for _, ms in quotient(nodes, relations))

        rel_oq = []
        for m in cat.all_morphisms():
            t = transition_map(th, m.witness, spaces[m.src].points, spaces[m.dst].points)
            rel_oq.extend((((m.src, a), (m.dst, b)) for a, b in t.items()))

        rel_of = []
        for i, Hc in enumerate(members):
            for j, Kc in enumerate(members):
                # O_F morphisms G/H -> G/K: cosets gK with g^-1 H g <= K,
                # inducing the witness g^-1 morphism in the orbit category
                seen = set()
                for g in G.sorted_elements:
                    if g in seen:
                        continue
                    if not (conjugate_set(Hc.elements, ~g) <= Kc.elements):
                        continue
                    seen |= {g * k for k in Kc.elements}
                    target = None
                    for m in cat.homs[(i, j)]:
                        if ~g in coset_perms(G, m):
                            target = m
                            break
                    assert target is not None, "J is not surjective"
                    t = transition_map(th, target.witness, spaces[i].points,
                                       spaces[j].points)
                    rel_of.extend((((i, a), (j, b)) for a, b in t.items()))
        assert quotient_classes(rel_oq) == quotient_classes(rel_of), dsl


def test_serialize_json_deterministic_and_round_trip():
    G = build_group("cyclic:4")
    s = assemble_strong(H1_2, G, "cyclic:4")
    txt1 = serialize(s, "json")
    txt2 = serialize(assemble_strong(H1_2, build_group("cyclic:4"), "cyclic:4"), "json")
    assert txt1 == txt2
    doc = json.loads(txt1)
    assert doc["schema"] == "quillen-strata/1"
    assert set(doc["meta"]) == {"group", "theory", "family", "bounds", "mode",
                                "truncated"}
    s2 = deserialize(txt1)
    assert serialize(s2, "json") == txt1
    # a document keeps the first four fields of each point
    assert (s2.meta, [pt[:4] for pt in s2.points], s2.edges) \
        == (s.meta, [pt[:4] for pt in s.points], list(s.edges))


def test_serialize_empty_space():
    empty = StratifiedSpace(meta={"group": "", "theory": "kr",
                                  "family": "x", "bounds": {},
                                  "mode": "strong", "truncated": False},
                            points=[], edges=[])
    doc = json.loads(serialize(empty, "json"))
    assert doc["points"] == [] and doc["edges"] == []
    assert serialize(deserialize(serialize(empty, "json")), "json") == serialize(empty, "json")


def test_deserialize_orders_a_document_and_refuses_a_repeated_point_id():
    text = serialize(assemble_strong(H1_2, build_group("cyclic:4"), "cyclic:4"), "json")
    doc = json.loads(text)
    doc["points"].reverse()
    doc["edges"].reverse()
    assert serialize(deserialize(json.dumps(doc)), "json") == text
    doc["points"].append(doc["points"][0])
    with pytest.raises(UnsupportedTheory, match="duplicate point id"):
        deserialize(json.dumps(doc))


def _refused(text):
    with pytest.raises(ValueError) as info:
        deserialize(text)
    assert type(info.value) is ValueError
    return str(info.value)


def test_deserialize_refuses_a_document_without_points():
    assert _refused('{"schema": "quillen-strata/1"}') == (
        "bad spectrum document: KeyError('points')")


def test_deserialize_refuses_a_point_without_a_stratum():
    doc = json.loads(serialize(assemble_strong(H1_2, build_group("cyclic:2"), "cyclic:2"), "json"))
    del doc["points"][0]["stratum"]
    assert _refused(json.dumps(doc)) == "bad spectrum document: KeyError('stratum')"


def test_deserialize_refuses_a_top_level_list():
    assert _refused('[{"schema": "quillen-strata/1"}]').startswith(
        "bad spectrum document: AttributeError(")


def test_dot_output_fig1():
    G = build_group("cyclic:4")
    s = assemble_strong(H1_2, G, "cyclic:4")
    dot = serialize(s, "dot")
    assert dot.startswith("digraph spectrum {")
    assert dot.count(" -> ") == 3
    assert "style=dashed" not in dot
    hz = assemble_strong(parse_theory("hz:p=2"), build_group("cyclic:4"), "cyclic:4")
    assert serialize(hz, "dot").count("style=dashed") == 2


def test_agreement_detects_mismatch():
    G = build_group("cyclic:4")
    s = assemble_strong(H1_2, G, "cyclic:4")
    w = assemble_weak(H1_2, G, "cyclic:4")
    broken = StratifiedSpace(meta=w.meta, points=list(w.points[:-1]),
                             edges=[e for e in w.edges
                                    if e.src != w.points[-1].id
                                    and e.dst != w.points[-1].id])
    rep = check_agreement(s, broken)
    assert not rep.isomorphic
    assert rep.obstruction


def test_height1_owner_stratum_matches_minimal_subgroup():
    # the F_p class in the weak assembly belongs to the trivial stratum
    G = build_group("cyclic:8")
    w = assemble_weak(H1_2, G, "cyclic:8")
    fp = [p for p in w.points if p.label == "F_2"]
    assert len(fp) == 1 and fp[0].stratum == "o1.0"
    z8 = [p for p in w.points if p.label == "Q_2(zeta_8)"]
    assert len(z8) == 1 and z8[0].stratum == "o8.0"


def test_space_point_is_immutable():
    a = SpacePoint("p0", "o1.0", "Q", False)
    with pytest.raises(AttributeError):
        a.label = "F_2"


# -- the one-pass JSON writer against its oracle ---------------------------------

GOLDEN = pathlib.Path(__file__).parent / "golden"


def oracle_json(space):
    return json.dumps(to_document(space), sort_keys=True, indent=2) + "\n"


# escapes, control characters, non-ASCII (astral too) and the JS line separators
_TEXT = st.text(st.one_of(st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7f\u2028\u2029'
                                          "\u00e9\u03b6\u2603\U0001d11e"),
                          st.characters()), max_size=8)
_POINT = st.builds(SpacePoint, _TEXT, _TEXT, _TEXT, st.booleans())
_EDGE = st.builds(SpaceEdge, _TEXT, _TEXT, _TEXT, _TEXT)
_META = st.dictionaries(_TEXT, st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), _TEXT),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(_TEXT, inner, max_size=3)),
    max_leaves=6), max_size=4)


@given(_META, st.lists(_POINT, max_size=6), st.lists(_EDGE, max_size=6))
@settings(max_examples=200, deadline=None)
def test_serialize_matches_json_dumps_of_the_document(meta, points, edges):
    space = StratifiedSpace(meta=meta, points=points, edges=edges)
    assert serialize(space, "json") == oracle_json(space)


@pytest.mark.parametrize("name", sorted(
    p.name for p in GOLDEN.glob("*.json")
    if json.loads(p.read_text()).get("schema") == "quillen-strata/1"))
def test_every_spectrum_golden_is_reserialized_byte_for_byte(name):
    text = (GOLDEN / name).read_text()
    space = deserialize(text)
    assert serialize(space, "json") == text == oracle_json(space)


def test_serialize_of_a_large_ku_space_matches_json_dumps():
    space = assemble_strong(parse_theory("ku", prime_bound=220),
                            build_group("cyclic:42"), "cyclic:42")
    assert serialize(space, "json") == oracle_json(space)


# any JSON value the writer takes: strings with surrogates and the JS line
# separators, ints past 64 bits, empty and nested lists, tuples and dicts
_JSON_STR = st.text(st.one_of(st.sampled_from('"\\\n\x00\x1f\x7f\u2028\u2029\ud800\udfff'
                                              "\u00e9\U0001d11e"),
                              st.characters()), max_size=6)
_JSON_VALUE = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), _JSON_STR,
              st.sampled_from((2 ** 64, -2 ** 64, 10 ** 300, -10 ** 300))),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(_JSON_STR, inner, max_size=3)),
    max_leaves=12)


@given(_JSON_VALUE)
@settings(max_examples=300, deadline=None)
def test_the_json_writer_matches_json_dumps(value):
    assert json_text(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [
    1.5, float("nan"), {1, 2}, b"x", [0, [2.0]], {"a": (None, 1.0)}, {1: "a"}, {None: 1},
    {"a": 1, 2: "b"}, object()])
def test_the_json_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        json_text(value)


_META0 = {"group": "", "mode": "strong"}


@pytest.mark.parametrize("space", [
    StratifiedSpace(_META0, [SpacePoint(5, "o1.0", "Q", False)], []),
    StratifiedSpace(_META0, [SpacePoint("p", None, "Q", False)], []),
    StratifiedSpace(_META0, [SpacePoint("p", "o1.0", b"Q", False)], []),
    StratifiedSpace(_META0, [], [SpaceEdge("a", 1, "internal")]),
    StratifiedSpace(_META0, [], [SpaceEdge("a", "b", "internal", None)]),
    StratifiedSpace(_META0, [], [SpaceEdge(("a",), "b", "internal")]),
    StratifiedSpace(_META0, [SpacePoint("p", "o1.0", "Q", 1)], []),
    StratifiedSpace(_META0, [SpacePoint("p", "o1.0", "Q", None)], []),
    StratifiedSpace(_META0, [SpacePoint("p", "o1.0", "Q", "true")], []),
])
def test_serialize_refuses_a_non_str_field_or_a_non_bool_closed(space):
    with pytest.raises(TypeError):
        serialize(space, "json")


# -- the ku cyclotomic index bound comes before the lattice ------------------------

BIG_CYCLIC = ("perm:(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15)(16 17 18 19 20 21 22 23 24)"
              "(25 26 27 28 29)(30 31 32 33 34 35 36)")


@pytest.mark.parametrize("mode", ["strong", "weak"])
def test_ku_index_bound_exits_before_the_lattice(mode, monkeypatch, capsys):
    def no_lattice(*args):
        raise AssertionError("the lattice was enumerated")

    monkeypatch.setattr(strata, "family_members", no_lattice)
    start = time.perf_counter()
    code = run(["spectrum", "--group", BIG_CYCLIC, "--theory", "ku",
                "--prime-bound", "7", "--mode", mode])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ('{"error": {"message": "cyclotomic index 5040 out of range", '
                            '"type": "domain"}}\n')
