import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quillen_strata.rings import (GF, CycloField, Poly, QQ,
                                  RingError, ZZ,
                                  cyclic_spectrum_ring, cyclotomic_factors_mod,
                                  cyclotomic_poly,
                                  divides, euler_phi, factor, is_irreducible,
                                  is_prime, is_separable, least_prime_factor,
                                  level_polynomial_P, p_part,
                                  p_series_mult, poly_gcd, powmod,
                                  prime_splitting, reduce_cyclo_mod_p,
                                  primes_upto, residue_field_label, _gf_modulus,
                                  _power, _zp_divmod, _zp_powmod)
from quillen_strata.strata import TheoryError, parse_theory

from conftest import (ReferenceGF, brute_force_spectrum_ring, compose_mod,
                      frac_poly_divmod, frac_poly_mul, naive_factor_count,
                      reference_cyclotomic_factors_mod, reference_gf_modulus,
                      reference_zp_powmod)


# -- integer helpers -------------------------------------------------------------

def test_integer_helpers_against_divisor_lists():
    for n in range(1, 2001):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        assert least_prime_factor(n) == (divisors[1] if n > 1 else 1), n
        assert is_prime(n) == (divisors == [1, n]), n
        for p in range(2, 12):
            k = max(j for j in range(n.bit_length() + 1) if p ** j in divisors)
            assert p_part(n, p) == (k, n // p ** k), (n, p)
    assert not any(is_prime(n) for n in (-7, -1, 0))


def test_euler_phi_against_gcd_count():
    for n in range(1, 501):
        assert euler_phi(n) == sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1), n


def test_power_against_builtin_pow():
    for p in (2, 3, 7, 101, 65537):
        mul = lambda a, b: a * b % p
        for x in (0, 1, 2, p - 1, 12345 % p):
            for e in list(range(20)) + [p - 2, p - 1, 10 ** 6 + 3]:
                assert _power(x, e, mul, 1) == pow(x, e, p), (x, e, p)
        if p < 1 << 16:
            assert all(GF(p).power(x, e) == pow(x, e, p)
                       for x in range(min(p, 30)) for e in range(12))


@pytest.mark.parametrize("q, expected", [
    (0, "q = 0 is not a prime power"), (1, "q = 1 is not a prime power"),
    (4, (2, 2)), (6, "q = 6 is not a prime power"),
    (12, "q = 12 is not a prime power"), (49, (7, 2)), (64, (2, 6)),
    (65536, (2, 16))])
def test_parse_modp_field_size(q, expected):
    if isinstance(expected, str):
        with pytest.raises(TheoryError) as err:
            parse_theory("modp:q=%d" % q)
        assert type(err.value) is TheoryError and str(err.value) == expected
    else:
        th = parse_theory("modp:q=%d" % q)
        assert (th.p, th.f) == expected


# -- cyclotomic polynomials ----------------------------------------------------

def test_cyclotomic_small():
    assert cyclotomic_poly(1).coeffs == (-1, 1)
    assert cyclotomic_poly(2).coeffs == (1, 1)


def test_cyclotomic_phi4_against_fraction_oracle():
    # oracle: divide X^4 - 1 by Phi_1 * Phi_2 using Fraction arithmetic
    num = [Fraction(-1), 0, 0, 0, Fraction(1)]
    den = frac_poly_mul([Fraction(-1), Fraction(1)], [Fraction(1), Fraction(1)])
    quot, rem = frac_poly_divmod(num, den)
    assert not rem
    assert [Fraction(c) for c in cyclotomic_poly(4).coeffs] == quot
    assert cyclotomic_poly(4).coeffs == (1, 0, 1)


@pytest.mark.parametrize("d", list(range(1, 61)) + [105, 128, 200])
def test_cyclotomic_product_identity(d):
    prod = Poly.one(ZZ)
    for e in range(1, d + 1):
        if d % e == 0:
            prod = prod * cyclotomic_poly(e)
    assert prod == Poly.from_ints([-1] + [0] * (d - 1) + [1], ZZ)


def test_cyclotomic_degree_is_phi():
    from quillen_strata.rings import euler_phi
    for d in (1, 2, 3, 8, 12, 30, 64):
        assert cyclotomic_poly(d).degree == euler_phi(d)


def test_cyclotomic_bound():
    with pytest.raises(RingError):
        cyclotomic_poly(5000)


# -- prime splitting -----------------------------------------------------------

def test_prime_splitting_examples():
    assert prime_splitting(1, 3).count == 1
    s = prime_splitting(5, 2)
    assert (s.count, s.residue_degree) == (1, 4)
    s = prime_splitting(8, 7)
    assert (s.count, s.residue_degree) == (2, 2)
    with pytest.raises(RingError):
        prime_splitting(6, 3)


@pytest.mark.parametrize("d", list(range(1, 11)) + [12])
@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_splitting_against_naive_trial_division(d, q):
    if d % q == 0:
        return
    phi = cyclotomic_poly(d)
    if phi.degree == 0:
        return
    expected = naive_factor_count(list(phi.coeffs), q)
    assert prime_splitting(d, q).count == expected
    dom = GF(q)
    assert len(factor(phi.map_domain(dom, dom.of_int))) == expected


def test_splitting_matches_package_factorization():
    # d = 2m above 40 with m odd splits Phi_2m itself, as one splitter serves
    # every e; where q | d, as at q = 2 or q = 3 with 9 | d, it starts from
    # the q-free part of d, and factor() has repeated factors
    for d in list(range(1, 41)) + [42, 46, 58, 62, 66, 90, 126]:
        for q in (2, 3, 5, 7, 11, 13, 17, 97):
            dom = GF(q)
            phi = cyclotomic_poly(d).map_domain(dom, dom.of_int)
            if phi.degree == 0:
                continue
            factors = factor(phi)
            if d % q == 0:
                assert cyclotomic_factors_mod(d, q) == tuple(g for g, _ in factors), (d, q)
                continue
            split = prime_splitting(d, q)
            assert len(factors) == split.count
            assert all(g.degree == split.residue_degree for g, _ in factors)
            assert all(e == 1 for _, e in factors)
            assert is_separable(phi)
            assert cyclotomic_factors_mod(d, q) == tuple(g for g, _ in factors), (d, q)


@pytest.mark.parametrize("d,q", [(12, 2), (18, 3), (50, 5), (98, 7), (8, 2),
                                 (45, 3), (40, 5), (27, 3), (2, 2), (13, 13)])
def test_cyclotomic_factors_when_q_divides_d(d, q):
    # Phi_d = Phi_e^phi(q^k) mod q: the distinct factors of factor()'s answer
    dom = GF(q)
    factors = factor(cyclotomic_poly(d).map_domain(dom, dom.of_int))
    assert cyclotomic_factors_mod(d, q) == tuple(g for g, _ in factors)


# (21, 43), (63, 127) and (60, 61) take the f = 1 path at a composite e
@pytest.mark.parametrize("q,d", [(q, d) for q in (199, 211, 223) for d in (23, 42)]
                         + [(43, 21), (127, 63), (61, 60)])
def test_cyclotomic_factors_bench_sized(d, q):
    dom = GF(q)
    phi = cyclotomic_poly(d).map_domain(dom, dom.of_int)
    factors = cyclotomic_factors_mod(d, q)
    assert factors == tuple(g for g, _ in factor(phi))
    prod = Poly.one(dom)
    for g in factors:
        assert g.is_monic() and is_irreducible(g)
        prod = prod * g
    assert prod == phi


# f = 1 at a composite e: (21, 43), (15, 31), (35, 71), (48, 97), (60, 61),
# (63, 127), (56, 113) and (64, 193); q | d for the small q; bench-sized q
@pytest.mark.parametrize("q", [2, 3, 5, 7, 31, 43, 61, 71, 97, 113, 127, 193,
                               199, 211, 223, 997])
def test_cyclotomic_factors_against_coset_sum_splitter(q):
    for d in range(1, 65):
        assert cyclotomic_factors_mod(d, q) == reference_cyclotomic_factors_mod(d, q), (d, q)


# -- the exact-number domain and the general polynomial paths -------------------

def test_integer_and_rational_domains():
    assert not ZZ.is_field and QQ.is_field
    assert type(ZZ.of_int(3)) is int and ZZ.zero == 0 and ZZ.one == 1
    assert QQ.of_int(3) == Fraction(3) and type(QQ.of_int(3)) is Fraction
    assert type(QQ.zero) is Fraction and type(QQ.one) is Fraction
    assert (ZZ.name, QQ.name) == ("Z", "Q")
    assert ZZ.repr_elem(-3) == "-3"
    assert QQ.repr_elem(Fraction(-1, 2)) == "-1/2" and QQ.repr_elem(Fraction(4, 2)) == "2"
    assert QQ.inv(3) == Fraction(1, 3)
    with pytest.raises(RingError):
        ZZ.inv(3)
    assert Poly.from_ints([1, 2], QQ).pretty() == "2*X+1"
    with pytest.raises(RingError):
        Poly.from_ints([1, 0, 1], ZZ).divmod(Poly.from_ints([1, 2], ZZ))
    q, r = Poly.from_ints([1, 0, 1], QQ).divmod(Poly.from_ints([1, 2], QQ))
    assert q.coeffs == (Fraction(-1, 4), Fraction(1, 2)) and r.coeffs == (Fraction(5, 4),)


@pytest.mark.parametrize("dom", [ZZ, QQ, GF(2, 2)], ids=["Z", "Q", "F_4"])
def test_poly_product_with_a_zero_factor(dom):
    zero = Poly.zero(dom)
    f = Poly((dom.one, dom.zero, dom.one), dom)
    for prod in (zero * f, f * zero, zero * zero):
        assert prod.is_zero() and prod == zero


def test_divmod_of_a_shorter_dividend():
    for dom in (ZZ, QQ, GF(5), GF(2, 2)):
        divisor = Poly((dom.one, dom.one, dom.zero, dom.one), dom)
        shorter = (Poly.zero(dom), Poly((dom.one,), dom),
                   Poly((dom.zero, dom.one, dom.one), dom))
        for a in shorter:
            assert a.divmod(divisor) == (Poly.zero(dom), a)
    assert _zp_divmod([], [1, 0, 1], 5) == ([], [])
    assert _zp_divmod([2, 3], [1, 0, 1], 5) == ([], [2, 3])
    assert _zp_divmod([4], [3, 2], 5) == ([], [4])


def test_every_monic_linear_polynomial_is_irreducible():
    for dom in (GF(5), GF(2, 2)):
        for c in dom.elements():
            assert is_irreducible(Poly((c, dom.one), dom)), (dom, c)


# -- finite fields -------------------------------------------------------------

def test_gf4_structure():
    F4 = GF(2, 2)
    a = F4.p  # the class of the variable of F_2[t]/(modulus)
    assert F4.mul(a, a) == F4.add(a, F4.one)      # a^2 = a + 1
    assert F4.mul(a, F4.mul(a, a)) == F4.one      # a^3 = 1
    assert F4.repr_elem(F4.mul(a, a)) == "a+1"
    assert F4.inv(a) == F4.mul(a, a)


def test_gf_modulus_matches_full_walk():
    checked = 0
    for p in primes_upto(64):
        f = 2
        while p ** f <= 1 << 12:
            assert _gf_modulus(p, f) == reference_gf_modulus(p, f), (p, f)
            checked += 1
            f += 1
    assert checked == 40


def _check_against_reference(p, f, pairs):
    dom, ref = GF(p, f), ReferenceGF(p, f)
    for a, b in pairs:
        assert dom.add(a, b) == ref.add(a, b), (p, f, a, b)
        assert dom.mul(a, b) == ref.mul(a, b), (p, f, a, b)
    for a in {a for a, _ in pairs}:
        assert dom.neg(a) == ref.neg(a), (p, f, a)
        assert dom.repr_elem(a) == ref.repr_elem(a), (p, f, a)
        if a:
            assert dom.inv(a) == ref.inv(a), (p, f, a)


def test_gf_tables_match_the_digit_vector_reference():
    # every pair of every field with f >= 2 and q <= 81: this pins the
    # encoding, which the field axioms alone do not
    fields = [(p, f) for p in (2, 3, 5, 7) for f in range(2, 7) if p ** f <= 81]
    assert len(fields) == 10
    for p, f in fields:
        _check_against_reference(p, f, list(itertools.product(range(p ** f), repeat=2)))


@pytest.mark.parametrize("p,f", [(2, 8), (5, 3), (3, 10), (2, 16)])
def test_gf_tables_match_the_reference_on_sampled_pairs(p, f):
    rng = random.Random("gf:%d:%d" % (p, f))
    pairs = [(rng.randrange(p ** f), rng.randrange(p ** f)) for _ in range(300)]
    _check_against_reference(p, f, pairs + [(0, 0), (1, p ** f - 1), (p - 1, 1)])


def test_poly_record_semantics():
    F5 = GF(5)
    assert Poly((1, 0, 0), F5).coeffs == (1,)
    assert Poly((0, 0), F5).is_zero()
    assert Poly((2, 3, 0), F5) == Poly((2, 3), F5)
    assert hash(Poly((2, 3, 0), F5)) == hash(Poly((2, 3), F5))
    with pytest.raises(AttributeError):
        Poly((1,), F5).coeffs = (2,)


@given(st.sampled_from([2, 3, 5, 7]), st.data())
@settings(max_examples=60, deadline=None)
def test_gf_field_axioms(p, data):
    f = data.draw(st.sampled_from([1, 2]))
    dom = GF(p, f)
    xs = st.integers(min_value=0, max_value=dom.q - 1)
    a, b, c = data.draw(xs), data.draw(xs), data.draw(xs)
    assert dom.mul(a, dom.add(b, c)) == dom.add(dom.mul(a, b), dom.mul(a, c))
    assert dom.mul(dom.mul(a, b), c) == dom.mul(a, dom.mul(b, c))
    if a:
        assert dom.mul(a, dom.inv(a)) == dom.one


@given(st.sampled_from([2, 3, 5]),
       st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=9),
       st.lists(st.integers(min_value=0, max_value=6), min_size=2, max_size=7))
@settings(max_examples=80, deadline=None)
def test_poly_divmod_roundtrip(p, a_coeffs, b_coeffs):
    dom = GF(p)
    a = Poly(tuple(c % p for c in a_coeffs), dom)
    b = Poly(tuple(c % p for c in b_coeffs), dom)
    if b.is_zero():
        return
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree


@given(st.sampled_from([2, 3, 5, 7]),
       st.lists(st.integers(min_value=0, max_value=9), min_size=3, max_size=9))
@settings(max_examples=80, deadline=None)
def test_factor_reassembles(p, coeffs):
    dom = GF(p)
    f = Poly(tuple(c % p for c in coeffs), dom)
    if f.degree < 1:
        return
    lead = f.leading()
    prod = Poly((lead,), dom)
    for g, e in factor(f):
        assert g.is_monic()
        assert is_irreducible(g)
        for _ in range(e):
            prod = prod * g
    assert prod == f



@given(st.sampled_from([2, 3, 211, 997, 65521]),
       st.lists(st.integers(min_value=0, max_value=65520), max_size=14),
       st.lists(st.integers(min_value=0, max_value=65520), min_size=1, max_size=10),
       st.integers(min_value=0, max_value=2000))
@settings(max_examples=150, deadline=None)
def test_packed_powmod_against_schoolbook(p, base, mod, e):
    mod = [c % p for c in mod]
    if not mod[-1]:
        mod[-1] = 1 + mod[0] % (p - 1)   # any nonzero lead: mostly non-monic
    base = [c % p for c in base]
    assert _zp_powmod(base, e, mod, p) == reference_zp_powmod(base, e, mod, p)


@pytest.mark.parametrize("p", [2, 3, 211, 997, 65521])
def test_packed_powmod_edge_cases(p):
    top = p - 1
    for mod in ([top], [1, top], [top, 2 % p or 1], [0, 0, top]):
        for base in ([], [1], [top, top, top], [0, 1]):
            for e in (0, 1, 2, 7, p):
                assert _zp_powmod(base, e, mod, p) == reference_zp_powmod(base, e, mod, p)


def test_packed_powmod_at_the_slot_bound():
    # at p = 65521 and degree 70, coefficients near p - 1 fill a slot of the
    # packed product up to about n(p-1)^2, near 2^38: past a 32-bit slot
    p = 65521
    rng = random.Random(7)
    mod = [p - 1 - rng.randrange(64) for _ in range(71)]
    base = [p - 1 - rng.randrange(64) for _ in range(70)]
    for e in (0, 1, 2, 3, 65535):
        assert _zp_powmod(base, e, mod, p) == reference_zp_powmod(base, e, mod, p)


def test_factor_is_deterministic():
    dom = GF(13)
    f = cyclotomic_poly(36).map_domain(dom, dom.of_int)
    assert factor(f) == factor(f)


def test_is_irreducible_over_gf4():
    F4 = GF(2, 2)
    a = F4.p  # the class of the variable of F_2[t]/(modulus)
    # x^2 + x + a is irreducible over F_4; x^2 + 1 = (x+1)^2 is not
    assert is_irreducible(Poly((a, F4.one, F4.one), F4))
    assert not is_irreducible(Poly((F4.one, F4.zero, F4.one), F4))


def test_powmod_and_compose_mod():
    dom = GF(5)
    f = Poly.from_ints([1, 0, 1], dom)     # X^2 + 1
    x = Poly.x(dom)
    assert powmod(x, 4, f) == Poly.from_ints([1], dom) * Poly.from_ints([1], dom) * Poly.from_ints([1], dom)
    # X^4 = (X^2)^2 = (-1)^2 = 1 mod X^2+1
    assert powmod(x, 4, f) == Poly.one(dom)
    g = Poly.from_ints([0, 0, 1], dom)     # t^2
    assert compose_mod(g, x, f) == (x * x) % f


# -- level polynomials and the p-series ------------------------------------------

def test_p_series_examples():
    assert p_series_mult(2).coeffs == (0, 2, 1)
    assert p_series_mult(3).coeffs == (0, 3, 3, 1)
    assert p_series_mult(5).coeffs == (0, 5, 10, 10, 5, 1)


def test_level_polynomial_p2_from_roots():
    # zeta_2 = -1: P = (X - 0)(X - (-2)) = X^2 + 2X
    data = level_polynomial_P(2)
    K = data.P.dom
    assert data.P == data.q_over_cyclo()
    assert [c for c in data.P.coeffs] == [K.zero, K.of_int(2), K.one]


def test_level_polynomial_p3_oracle():
    # expand prod_j (X - (zeta^j - 1)) by hand in Z[zeta], zeta^2 = -1 - zeta
    # roots: 0, zeta - 1, zeta^2 - 1 = -2 - zeta
    # (X - (zeta-1))(X - (-2-zeta)) = X^2 + 3X + (zeta-1)(-2-zeta) hand-checked:
    # (zeta-1)(-2-zeta) = -2zeta - zeta^2 + 2 + zeta = -zeta - (-1-zeta) + 2 = 3
    data = level_polynomial_P(3)
    K = data.P.dom
    expected = Poly((K.zero, K.of_int(3), K.of_int(3), K.one), K)
    assert data.P == expected


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_level_divides_both_ways(p):
    data = level_polynomial_P(p)
    q = data.q_over_cyclo()
    ok1, quot1 = divides(data.P, q)
    ok2, quot2 = divides(q, data.P)
    assert ok1 and ok2
    assert quot1.is_one() and quot2.is_one()
    assert data.P == q


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_level_separability(p):
    data = level_polynomial_P(p)
    assert is_separable(data.q_over_cyclo())
    reduced = reduce_cyclo_mod_p(data.P, p)
    assert reduced.coeffs == tuple([0] * p + [1])  # X^p
    assert not is_separable(reduced)


def test_divides_examples():
    ok, quot = divides(Poly.from_ints([0, 1], ZZ), p_series_mult(2))
    assert ok and quot.coeffs == (2, 1)
    dom = GF(2)
    ok, rem = divides(Poly.from_ints([0, 0, 1], dom),
                      Poly.from_ints([0, 1, 0, 1], dom))
    assert not ok and not rem.is_zero()
    with pytest.raises(RingError):
        divides(Poly.from_ints([0, 2], ZZ), p_series_mult(2))


def test_is_separable_basics():
    assert is_separable(Poly.x(QQ))
    dom = GF(3)
    assert not is_separable(Poly.from_ints([0, 0, 0, 1], dom))  # X^3, f' = 0


# -- cyclotomic field arithmetic -------------------------------------------------

def test_cyclo_field_inverse_and_zeta():
    K = CycloField(5)
    z = K.zeta()
    assert K.power(z, 5) == K.one
    el = K.add(z, K.one)
    inv = K.inv(el)
    assert K.mul(el, inv) == K.one
    K2 = CycloField(2)
    assert K2.zeta() == K2.neg(K2.one)


@given(st.integers(min_value=3, max_value=13), st.data())
@settings(max_examples=60, deadline=None)
def test_cyclo_field_inverse_of_int_elements(m, data):
    K = CycloField(m)
    a = tuple(data.draw(st.lists(st.integers(-20, 20), min_size=K.phi,
                                 max_size=K.phi).filter(any)))
    assert K.mul(a, K.inv(a)) == K.one
    assert K.mul(K.inv(a), a) == K.one


def test_gcd_over_cyclotomic_field():
    K = CycloField(3)
    f = level_polynomial_P(3).P
    g = f.derivative()
    assert poly_gcd(f, g).degree == 0


# -- Spec(Z[X]/(X^n - 1)) ---------------------------------------------------------

def test_cyclic_spectrum_n1_is_spec_z():
    sr = cyclic_spectrum_ring(1, 10)
    assert [m.data for m in sr.minimal] == [("cyclo", 1)]
    assert [m.data[1] for m in sr.maximal] == [2, 3, 5, 7]
    assert sr.truncated


def test_cyclic_spectrum_n2_glued_at_two():
    sr = cyclic_spectrum_ring(2, 7)
    assert [m.data for m in sr.minimal] == [("cyclo", 1), ("cyclo", 2)]
    at2 = [j for j, m in enumerate(sr.maximal) if m.data[1] == 2]
    assert len(at2) == 1
    over_2 = [i for (i, j) in sr.contains if j == at2[0]]
    assert sorted(over_2) == [0, 1]  # both minimal primes glue at 2
    for q in (3, 5, 7):
        atq = [j for j, m in enumerate(sr.maximal) if m.data[1] == q]
        assert len(atq) == 2
        for j in atq:
            assert len([i for (i, jj) in sr.contains if jj == j]) == 1


def test_cyclic_spectrum_n3_at_3():
    sr = cyclic_spectrum_ring(3, 7)
    assert [m.data for m in sr.minimal] == [("cyclo", 1), ("cyclo", 3)]
    at3 = [j for j, m in enumerate(sr.maximal) if m.data[1] == 3]
    # X^3 - 1 = (X - 1)^3 mod 3: a single maximal prime over 3
    assert len(at3) == 1
    over_3 = sorted(i for (i, j) in sr.contains if j == at3[0])
    assert over_3 == [0, 1]  # (3, x-1) = (3, Phi_3(x)) contains both


def test_cyclic_spectrum_every_maximal_covers_a_minimal():
    for n in (1, 2, 4, 6, 12):
        sr = cyclic_spectrum_ring(n, 13)
        covered = {j for (_, j) in sr.contains}
        assert covered == set(range(len(sr.maximal)))


def test_cyclic_spectrum_counts_match_splitting():
    for n in (4, 6, 10):
        sr = cyclic_spectrum_ring(n, 13)
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        for i, d in enumerate(divisors):
            for q in (3, 5, 7, 11, 13):
                if n % q == 0:
                    continue
                over = [j for (ii, j) in sr.contains
                        if ii == i and sr.maximal[j].data[1] == q]
                assert len(over) == prime_splitting(d, q).count


@pytest.mark.parametrize("n, bound", [(n, 13) for n in range(1, 41)]
                         + [(30, 97), (42, 97), (60, 50), (64, 50)])
def test_cyclic_spectrum_matches_brute_force(n, bound):
    assert cyclic_spectrum_ring(n, bound) == brute_force_spectrum_ring(n, bound)


def test_residue_field_label():
    assert residue_field_label(3, 1) == "F_3"
    assert residue_field_label(3, 2) == "F_3^2"
