"""Property tests over randomly generated permutation groups.

The fixed corpus only contains well-known groups; these tests draw arbitrary
generator sets on up to 6 points (order capped at 48) and require the core
invariants to hold: Mackey cardinality, Weyl divisibility, fan shape, and
weak/strong agreement at height one and for ku.
"""

import itertools

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quillen_strata.groups import (Perm, PermGroup, double_cosets,
                                   subgroups_up_to_conjugacy, weyl)
from quillen_strata.spectrum import (assemble_strong, assemble_weak,
                                     check_agreement)
from quillen_strata.strata import parse_theory

from conftest import (check_class_conjugators, check_weyl, class_facts,
                      lattice_perm_sets, naive_subgroup_sets,
                      reference_cyclic_generator)


def group_strategy(max_degree=6, max_order=48):
    perm = st.permutations(range(max_degree))

    @st.composite
    def build(draw):
        gens = [Perm(draw(perm)) for _ in range(draw(st.integers(1, 2)))]
        G = PermGroup(max_degree, gens)
        assume(G.order <= max_order)
        return G
    return build()


@given(group_strategy())
@settings(max_examples=25, deadline=None)
def test_random_group_mackey(G):
    classes = subgroups_up_to_conjugacy(G)
    assert sum(c.conjugates for c in classes) >= len(classes)
    for hc, kc in itertools.product(classes[:6], classes[-3:]):
        dec = double_cosets(G, hc, kc)
        assert dec.mackey_ok()
        assert sum(dc.size for dc in dec.pairs) == G.order


@given(group_strategy())
@settings(max_examples=25, deadline=None)
def test_random_group_weyl_divisibility(G):
    for cls in subgroups_up_to_conjugacy(G):
        wo = weyl(cls, "ordinary")
        wg = weyl(cls, "global")
        wq = weyl(cls, "quillen")
        assert wo.order % wg.order == 0
        assert wq.order % wg.order == 0


@given(group_strategy(), st.sampled_from([2, 3]))
@settings(max_examples=20, deadline=None)
def test_random_group_height1_agreement(G, p):
    th = parse_theory("height1:p=%d" % p)
    strong = assemble_strong(th, G, "random")
    weak = assemble_weak(th, G, "random")
    rep = check_agreement(strong, weak)
    assert rep.isomorphic, rep.obstruction
    closed = strong.closed_points()
    assert len(closed) == 1
    assert all(e.dst == closed[0].id for e in strong.solid_edges())


@given(group_strategy())
@settings(max_examples=25, deadline=None)
def test_random_group_classes_read_off_parent(G):
    for H in subgroups_up_to_conjugacy(G):
        fresh = PermGroup(H.degree, H.sorted_elements)
        assert class_facts(subgroups_up_to_conjugacy(H)) == \
            class_facts(subgroups_up_to_conjugacy(fresh))


@given(group_strategy())
@settings(max_examples=25, deadline=None)
def test_random_group_conjugators_match_direct_conjugation(G):
    check_class_conjugators(G)


@given(group_strategy())
@settings(max_examples=25, deadline=None)
def test_random_group_enumeration_matches_naive(G):
    assert lattice_perm_sets(G) == naive_subgroup_sets(G)


@given(group_strategy())
@settings(max_examples=25, deadline=None)
def test_random_group_weyl_matches_reference(G):
    check_weyl(G)


@given(group_strategy())
@settings(max_examples=25, deadline=None)
def test_random_group_cyclic_generator_matches_order_scan(G):
    for cls in [G] + subgroups_up_to_conjugacy(G):
        assert cls.cyclic_generator() == reference_cyclic_generator(cls)


@given(group_strategy())
@settings(max_examples=15, deadline=None)
def test_random_group_ku_agreement(G):
    # strong ku glues by Segal's rule on every group, weak from its cyclic
    # members; the two must agree with edges compared
    th = parse_theory("ku", prime_bound=7)
    strong = assemble_strong(th, G, "random")
    weak = assemble_weak(th, G, "random")
    rep = check_agreement(strong, weak)
    assert rep.isomorphic, rep.obstruction
    assert len(strong.solid_edges()) == len(weak.solid_edges())
