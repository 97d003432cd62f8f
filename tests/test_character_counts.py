"""Two classical counts that need only a group's elements, as oracles for
the engine's strata and Weyl groups.

Brauer: for each prime q, the closed points over q in strong `ku` number the
simple F_q[G]-modules, that is the orbits of the q-regular elements under
conjugation and g -> g^q.  This pins `ku`'s points, its conjugation rule and
the strong orbit quotient at once.

Hopkins-Kuhn-Ravenel: the G-orbits of commuting n-tuples of p-power elements
number the sum, over the classes A of abelian p-subgroups of rank at most n,
of |Epi(Z^n, A)| / |N_G(A)/C_G(A)|, the last being `weyl(A, "quillen")`.
"""

from collections import Counter
from fractions import Fraction

import pytest

from quillen_strata.checks import CORPUS, corpus_group
from quillen_strata.groups import FamilySpec, family_members, weyl
from quillen_strata.rings import primes_upto
from quillen_strata.spectrum import assemble_strong
from quillen_strata.strata import parse_theory

from conftest import brauer_count, epi_count, hkr_count

BRAUER_GROUPS = list(CORPUS) + ["alt:5", "sym:5", "dihedral:12", "product:sym:3xsym:3"]
HKR_GROUPS = list(CORPUS) + ["alt:5", "sym:5"]


@pytest.mark.parametrize("dsl", BRAUER_GROUPS)
def test_closed_ku_points_over_q_count_the_simple_modules(dsl):
    G = corpus_group(dsl)
    space = assemble_strong(parse_theory("ku", prime_bound=13), G, dsl)
    closed = Counter(pt.descriptor.data[1] for pt in space.closed_points())
    assert {q: closed[q] for q in primes_upto(13)} == {
        q: brauer_count(G, q) for q in primes_upto(13)}


def _hkr_cases():
    for dsl in HKR_GROUPS:
        order = corpus_group(dsl).order
        for p in (2, 3, 5):
            if order % p == 0:
                for n in (1, 2) if order <= 60 else (1,):
                    yield dsl, p, n


@pytest.mark.parametrize("dsl,p,n", list(_hkr_cases()))
def test_quillen_weyl_orders_give_the_hkr_count(dsl, p, n):
    G = corpus_group(dsl)
    total = sum(Fraction(epi_count(A.elements, n), weyl(A, "quillen").order)
                for A in family_members(G, FamilySpec.abelian_p_rank(p, n)))
    assert total == hkr_count(G, p, n)
