"""Exact arithmetic over Z, Q, F_q and cyclotomic fields.

Polynomials are coefficient tuples in ascending degree over a small domain
object.  Generic factorization over prime fields is squarefree, then
distinct-degree, then one Cantor-Zassenhaus splitter, `_split_equal_degree`,
drawing from a deterministic seeded RNG.  The factors of Phi_d mod q, all of
one known degree, come instead from the roots of unity in F_q when that
degree is 1, and otherwise from the same splitter fed Frobenius-fixed coset
sums, with no distinct-degree pass.  Residues are raised to powers through
`_zp_mulmod`, with one bigint product per step, each residue packed into one
int with a 64-bit slot per coefficient.  Factor lists are always
returned in canonical order, so every result here is reproducible bit for
bit; `frobenius_labels` numbers the primes above q by that order.
"""

import math
import operator
import random
import struct
import zlib
from functools import lru_cache

MAX_CYCLOTOMIC = 4096
MAX_CONDUCTOR = 64
MAX_PRIME_BOUND = 1000
MAX_FIELD_ORDER = 1 << 16


class RingError(Exception):
    """Arithmetic precondition failure (bounds, non-monic divisor, ...)."""


def least_prime_factor(n):
    """The least prime factor of n >= 1 by trial division: n itself when n
    is 1 or prime."""
    p = 2
    while p * p <= n:
        if n % p == 0:
            return p
        p += 1
    return n


def p_part(n, p):
    """(k, m) with n = p^k * m and p not dividing m, for n >= 1 and p >= 2."""
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k, n


def is_prime(n):
    return n >= 2 and least_prime_factor(n) == n


@lru_cache(maxsize=None)
def primes_upto(bound):
    """The primes q <= bound, in increasing order."""
    return tuple(q for q in range(2, bound + 1) if is_prime(q))


def prime_divisors(n):
    """The primes dividing n >= 1, in increasing order."""
    while n > 1:
        p = least_prime_factor(n)
        yield p
        n = p_part(n, p)[1]


def euler_phi(n):
    out = n
    for p in prime_divisors(n):
        out -= out // p
    return out


def _power(x, e, mul, one):
    """x^e for e >= 0 by square-and-multiply under the product mul."""
    out = one
    while e:
        if e & 1:
            out = mul(out, x)
        x = mul(x, x)
        e >>= 1
    return out


def multiplicative_order(q, d):
    """Order of q modulo d (d >= 1, gcd(q, d) = 1)."""
    if d == 1:
        return 1
    if math.gcd(q, d) != 1:
        raise RingError("gcd(%d, %d) != 1" % (q, d))
    k = 1
    cur = q % d
    while cur != 1:
        cur = (cur * q) % d
        k += 1
    return k


# -- coefficient domains -----------------------------------------------------

class _Numbers:
    """Z or Q: the Python numbers of one type under the built-in arithmetic.

    `load` returns the type on the first use of `of_int`, `zero`, `one` or
    `is_field`, so a run that never touches Q does not import `fractions`
    (nor the `decimal` and `numbers` it pulls in).
    """

    add = operator.add
    neg = operator.neg
    mul = operator.mul
    repr_elem = str

    def __init__(self, name, load):
        self.name = name
        self._load = load

    def __getattr__(self, attr):
        if attr not in ("of_int", "zero", "one", "is_field"):
            raise AttributeError(attr)
        number = self._load()
        self.of_int, self.zero, self.one = number, number(0), number(1)
        self.is_field = number is not int
        return getattr(self, attr)

    def inv(self, a):
        if not self.is_field:
            raise RingError("no inverses in %s" % self.name)
        return 1 / self.of_int(a)


def _fraction():
    from fractions import Fraction
    return Fraction


ZZ = _Numbers("Z", lambda: int)
QQ = _Numbers("Q", _fraction)


class GF:
    """The field with q = p^f elements (q <= 2^16).

    Elements are integers in [0, q); for f >= 2 the integer encodes the
    coefficient vector in base p with respect to the canonical modulus (the
    lexicographically least monic irreducible of degree f over F_p), and a
    product or sum is a lookup in the antilog, log and Zech tables of the
    least primitive element (`_gf_tables`).  Prime fields reduce mod p.
    """

    is_field = True

    def __init__(self, p, f=1):
        if not is_prime(p):
            raise RingError("%d is not prime" % p)
        if p ** f > MAX_FIELD_ORDER:
            raise RingError("field size %d exceeds 2^16" % p ** f)
        self.p = p
        self.f = f
        self.q = p ** f
        self.zero = 0
        self.one = 1
        self.name = "F_%d" % self.q
        self._exp, self._log, self._zech = _gf_tables(p, f) if f > 1 else (None,) * 3

    def add(self, a, b):
        if self.f == 1:
            return (a + b) % self.p
        if not (a and b):
            return a + b
        la = self._log[a]  # a + b = a (1 + b/a); a negative index wraps mod q - 1
        return self._exp[la + self._zech[self._log[b] - la]]

    def neg(self, a):
        return self.mul(a, self.p - 1)

    def mul(self, a, b):
        if self.f == 1:
            return (a * b) % self.p
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in %s" % self.name)
        return self.power(a, self.q - 2)

    def of_int(self, n):
        return n % self.p

    def power(self, a, e):
        return _power(a, e, self.mul, 1)

    def elements(self):
        return range(self.q)

    def in_prime_field(self, a):
        return a < self.p

    def repr_elem(self, a):
        if self.f == 1:
            return str(a)
        terms = []
        for i in range(self.f - 1, -1, -1):
            c = a // self.p ** i % self.p
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                var = "a" if i == 1 else "a^%d" % i
                terms.append(var if c == 1 else "%d*%s" % (c, var))
        return "+".join(terms) if terms else "0"

    def __eq__(self, other):
        return isinstance(other, GF) and (self.p, self.f) == (other.p, other.f)

    def __hash__(self):
        return hash(("GF", self.p, self.f))

    def __repr__(self):
        return self.name


@lru_cache(maxsize=None)
def _gf_tables(p, f):
    """(exp, log, zech) of GF(p^f), f >= 2, for its least primitive element
    g, by products modulo `_gf_modulus(p, f)` on the F_p core.  With n = q - 1,
    exp[i] = g^(i mod n) below 2n and 0 up to 4n, and log[0] = 2n, so that
    ab = exp[log a + log b]; zech[i] = log(1 + g^i), so that a + b =
    exp[log a + zech[log b - log a]] for nonzero a and b."""
    n = p ** f - 1
    mul = _zp_mulmod(_gf_modulus(p, f), p)
    weights = [p ** i for i in range(f)]
    # the codes below p are F_p^*, whose orders divide p - 1 < n
    for code in range(p, n + 1):
        g = _zp_pack([code // w % p for w in weights])
        if all(_power(g, n // r, mul, 1) != 1 for r in prime_divisors(n)):
            break
    powers, x = [], 1
    for _ in range(n):
        powers.append(sum(map(operator.mul, _zp_unpack(x), weights)))
        x = mul(x, g)
    log = [2 * n] * (n + 1)
    for i, a in enumerate(powers):
        log[a] = i
    # 1 + a adds 1 to the constant digit of a, mod p
    zech = [log[a + 1 if a % p < p - 1 else a + 1 - p] for a in powers]
    return powers * 2 + [0] * (2 * n + 1), log, zech


@lru_cache(maxsize=None)
def _gf_modulus(p, f):
    """Lexicographically least monic irreducible of degree f >= 2 over F_p.

    The constant coefficient varies slowest, so the walk starts past the
    p^(f-1) candidates with constant term 0, which X divides.
    """
    base = GF(p)
    for enc in range(p ** (f - 1), p ** f):
        tail = tuple(enc // p ** (f - 1 - i) % p for i in range(f))
        if is_irreducible(Poly(tail + (1,), base)):
            return tail + (1,)
    raise RingError("no irreducible modulus found (impossible)")


def _power_sum(terms, var):
    """The sum of the c*var^i, from (i, text of c) pairs of nonzero c in the
    order given.  A coefficient whose text holds a "+" is bracketed, so the
    sum reads as the polynomial it is."""
    out = []
    for i, cs in terms:
        if i:
            v = var if i == 1 else "%s^%d" % (var, i)
            cs = v if cs == "1" else ("(%s)*%s" if "+" in cs else "%s*%s") % (cs, v)
        out.append(cs)
    return "+".join(out) or "0"


class CycloField:
    """Q(zeta_m): rationals adjoined a primitive m-th root of unity.

    Elements are coefficient tuples of length phi(m) in the power basis of
    Q[Y]/(Phi_m(Y)).  The coefficients are ints until an inverse brings in
    Fractions; the two mix exactly.
    """

    is_field = True

    def __init__(self, m):
        if m < 1 or m > MAX_CONDUCTOR:
            raise RingError("conductor %d out of range" % m)
        self.m = m
        self.phi = euler_phi(m)
        self.modulus = cyclotomic_poly(m)
        self.zero = (0,) * self.phi
        self.one = self.of_int(1)
        self.name = "Q(zeta_%d)" % m

    def of_int(self, n):
        return (n,) + (0,) * (self.phi - 1)

    def zeta(self):
        if self.phi == 1:
            # zeta_1 = 1, zeta_2 = -1
            return self.of_int(1 if self.m == 1 else -1)
        return (0, 1) + (0,) * (self.phi - 2)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        prod = (Poly(a, ZZ) * Poly(b, ZZ) % self.modulus).coeffs
        return prod + (0,) * (self.phi - len(prod))

    def inv(self, a):
        if all(x == 0 for x in a):
            raise ZeroDivisionError("inverse of zero in %s" % self.name)
        # extended Euclid in Q[Y] against Phi_m
        r0, r1 = Poly(self.modulus.coeffs, QQ), Poly(a, QQ)
        s0, s1 = Poly.zero(QQ), Poly.one(QQ)
        while not r1.is_zero():
            q, r = r0.divmod(r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
        # r0 is the gcd, a nonzero constant (Phi_m is irreducible over Q)
        inv = s0.scale(QQ.inv(r0.leading())).coeffs
        return inv + (QQ.zero,) * (self.phi - len(inv))

    def power(self, a, e):
        return _power(a, e, self.mul, self.one)

    def repr_elem(self, a):
        return _power_sum(((i, str(c)) for i, c in enumerate(a) if c), "zeta")

    def __eq__(self, other):
        return isinstance(other, CycloField) and self.m == other.m

    def __hash__(self):
        return hash(("CycloField", self.m))

    def __repr__(self):
        return self.name


# -- polynomials -------------------------------------------------------------

class Poly(tuple):
    """A dense univariate polynomial; coeffs ascending, no trailing zeros."""

    __slots__ = ()
    coeffs, dom = (property(operator.itemgetter(i)) for i in range(2))

    def __new__(cls, coeffs, dom):
        c = list(coeffs)
        while c and c[-1] == dom.zero:
            c.pop()
        return tuple.__new__(cls, (tuple(c), dom))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        return self.coeffs == (self.dom.one,)

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == self.dom.one

    def leading(self):
        return self.coeffs[-1]

    @staticmethod
    def zero(dom):
        return Poly((), dom)

    @staticmethod
    def one(dom):
        return Poly((dom.one,), dom)

    @staticmethod
    def x(dom):
        return Poly((dom.zero, dom.one), dom)

    @staticmethod
    def from_ints(ints, dom):
        return Poly(tuple(dom.of_int(n) for n in ints), dom)

    def map_domain(self, dom, conv):
        return Poly(tuple(conv(c) for c in self.coeffs), dom)

    def __add__(self, other):
        dom = self.dom
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else dom.zero
            b = other.coeffs[i] if i < len(other.coeffs) else dom.zero
            out.append(dom.add(a, b))
        return Poly(tuple(out), dom)

    def __neg__(self):
        return Poly(tuple(self.dom.neg(c) for c in self.coeffs), self.dom)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        dom = self.dom
        out = [dom.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x != dom.zero:
                for j, y in enumerate(other.coeffs):
                    out[i + j] = dom.add(out[i + j], dom.mul(x, y))
        return Poly(tuple(out), dom)

    def scale(self, c):
        dom = self.dom
        return Poly(tuple(dom.mul(c, x) for x in self.coeffs), dom)

    def divmod(self, divisor):
        """Polynomial division; requires a monic divisor or a field domain."""
        dom = self.dom
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if not divisor.is_monic():
            if not dom.is_field:
                raise RingError("non-monic divisor over non-field %s" % dom.name)
            inv_lead = dom.inv(divisor.leading())
        else:
            inv_lead = dom.one
        rem = list(self.coeffs)
        dq = divisor.degree
        quot = [dom.zero] * (self.degree - dq + 1)
        for i in range(len(rem) - 1, dq - 1, -1):
            c = rem[i]
            if c == dom.zero:
                continue
            c = dom.mul(c, inv_lead)
            quot[i - dq] = c
            for j, dcoef in enumerate(divisor.coeffs):
                rem[i - dq + j] = dom.add(rem[i - dq + j], dom.neg(dom.mul(c, dcoef)))
        return Poly(tuple(quot), dom), Poly(tuple(rem), dom)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        q, r = self.divmod(other)
        if not r.is_zero():
            raise RingError("inexact polynomial division")
        return q

    def derivative(self):
        dom = self.dom
        return Poly(tuple(dom.mul(dom.of_int(i), c)
                          for i, c in enumerate(self.coeffs) if i), dom)

    def monic(self):
        if self.is_zero() or self.is_monic():
            return self
        return self.scale(self.dom.inv(self.leading()))

    def pretty(self):
        dom, coeffs = self.dom, self.coeffs
        return _power_sum(((i, dom.repr_elem(coeffs[i])) for i in range(self.degree, -1, -1)
                           if coeffs[i] != dom.zero), "X")

    def __repr__(self):
        return "Poly(%s over %s)" % (self.pretty(), self.dom.name)


def poly_gcd(a, b):
    """Monic gcd over a field domain."""
    if not a.dom.is_field:
        raise RingError("gcd needs a field domain")
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def powmod(base, e, mod):
    return _power(base % mod, e, lambda a, b: (a * b) % mod, Poly.one(base.dom))


# -- irreducibility and factorization over finite fields ----------------------

def is_irreducible(f):
    """Rabin's test: f of degree k over F_q is irreducible iff X^{q^k} = X
    (mod f) and gcd(f, X^{q^{k/l}} - X) = 1 for every prime l | k."""
    dom = f.dom
    k = f.degree
    if k <= 0:
        return False
    q = dom.q
    x = Poly.x(dom)
    if any(poly_gcd(f, powmod(x, q ** (k // l), f) - x).degree for l in prime_divisors(k)):
        return False
    return powmod(x, q ** k, f) == x % f


# low-level F_p arithmetic on int coefficient lists (hot path of factor)

def _zp_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _zp_monic(a, p):
    if not a or a[-1] == 1:
        return list(a)
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _zp_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    a = list(a)
    inv = pow(b[-1], -1, p)
    db = len(b) - 1
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] % p
        if not c:
            continue
        c = c * inv % p
        q[i - db] = c
        for j in range(db + 1):
            a[i - db + j] = (a[i - db + j] - c * b[j]) % p
    return _zp_trim(q), _zp_trim([c % p for c in a])


def _zp_gcd(a, b, p):
    a = [c % p for c in a]
    b = [c % p for c in b]
    _zp_trim(a)
    _zp_trim(b)
    while b:
        a, b = b, _zp_divmod(a, b, p)[1]
    return _zp_monic(a, p)


def _zp_pack(c):
    """The int sum_i c_i 2^(64 i) of residues 0 <= c_i < 2^64, lowest first.

    The "<" format and "little" fix the byte order on every machine."""
    return int.from_bytes(struct.pack("<%dQ" % len(c), *c), "little")


def _zp_unpack(x):
    """The 64-bit slots of x >= 0, lowest first, up to its top nonzero slot."""
    k = (x.bit_length() + 63) >> 6
    return struct.unpack("<%dQ" % k, x.to_bytes(8 * k, "little"))


def _zp_reducer(mod, p, k):
    """Reduction modulo `mod`, of degree n, over F_p, of packed ints of at
    most k slots.

    Each slot i >= n, reduced mod p, folds into the low n slots as that
    multiple of the packed row X^i mod `mod`; then one pass reduces the slots
    mod p.  A low slot below 2^64 - (k-n)(p-1)^2 stays below 2^64.
    """
    n = len(mod) - 1
    inv = pow(mod[-1], -1, p)
    rows = []
    r = [0] * (n - 1) + [1]
    for _ in range(k - n):
        # X r = t mod + (X r - t mod), t = lead(r) / lead(mod)
        t = r[-1] * inv % p
        r = [(x - t * y) % p for x, y in zip([0] + r[:-1], mod)]
        rows.append(_zp_pack(r))
    low = (1 << 64 * n) - 1

    def reduce(x):
        s = x & low
        for c, row in zip(_zp_unpack(x)[n:], rows):
            s += c % p * row
        return _zp_pack([c % p for c in _zp_unpack(s)])
    return reduce


def _zp_mulmod(mod, p):
    """The product of packed residues modulo `mod`, of degree n, over F_p.

    A residue of degree < n is one int with a 64-bit slot per coefficient
    (Kronecker substitution), so a product is one bigint product of 2n-1
    slots, each at most n(p-1)^2.  The reduction keeps every slot below
    (2n-1)(p-1)^2 < 2^64, as p < 2^16 (MAX_FIELD_ORDER).
    """
    reduce = _zp_reducer(mod, p, 2 * len(mod) - 3)
    return lambda a, b: reduce(a * b)


def _zp_deriv(a, p):
    return _zp_trim([c * i % p for i, c in enumerate(a)][1:])


def _zp_squarefree(f, p):
    """[(g, e)] with f = prod g^e, g monic squarefree pairwise coprime."""
    f = _zp_monic(f, p)
    out = []
    c = _zp_gcd(f, _zp_deriv(f, p), p)
    w = _zp_divmod(f, c, p)[0]
    i = 1
    while w != [1]:
        y = _zp_gcd(w, c, p)
        z = _zp_divmod(w, y, p)[0]
        if z != [1]:
            out.append((z, i))
        i += 1
        w = y
        c = _zp_divmod(c, y, p)[0]
    if c != [1]:
        # c = h(X^p) = h(X)^p over F_p
        root = [c[j] for j in range(0, len(c), p)]
        for g, e in _zp_squarefree(root, p):
            out.append((g, e * p))
    return out


def _zp_distinct_degree(f, p):
    """[(product of same-degree irreducibles, degree)] for monic squarefree f.

    h = X^(p^k) mod g is raised to the p-th power on packed residues, with
    one `_zp_mulmod` per modulus g, rebuilt after g sheds a factor."""
    out = []
    g, h, k, mul = list(f), 1 << 64, 0, None
    while len(g) - 1 >= 2 * (k + 1):
        k += 1
        mul = mul or _zp_mulmod(g, p)
        h = _power(h, p, mul, 1)
        d = _zp_gcd(g, list(_zp_unpack(h + ((p - 1) << 64))), p)   # h - X
        if len(d) > 1:
            out.append((d, k))
            g = _zp_divmod(g, d, p)[0]
            h, mul = _zp_pack(_zp_divmod(list(_zp_unpack(h)), g, p)[1]), None
    if len(g) > 1:
        out.append((g, len(g) - 1))
    return out


def _split_equal_degree(g, f, p, draw):
    """The factors of g, monic squarefree over F_p with every irreducible
    factor of degree f, by Cantor-Zassenhaus (Math. Comp. 36, 1981).

    Each round, draw(mul), with mul the packed product mod g of `_zp_mulmod`,
    gives a packed residue t mod g that lies in F_p modulo every factor.
    Then s = t^((p-1)/2) - 1, or s = t for p = 2, computed once for all
    pieces, splits each piece h whose factors s does not treat alike by
    gcd(h, s mod h).
    """
    if len(g) - 1 == f:
        return [g]
    mul = _zp_mulmod(g, p)
    done, pieces = [], [g]
    while pieces:
        s = draw(mul)
        if p > 2:
            s = _power(s, (p - 1) // 2, mul, 1) + p - 1
        s = list(_zp_unpack(s))
        left = []
        for h in pieces:
            d = _zp_gcd(h, _zp_divmod(s, h, p)[1], p)
            if 1 < len(d) < len(h):
                for k in (d, _zp_divmod(h, d, p)[0]):
                    (done if len(k) - 1 == f else left).append(k)
            else:
                left.append(h)
        pieces = left
    return done


def factor(f):
    """Full factorization over F_p: [(monic irreducible, multiplicity)] sorted.

    Squarefree, then distinct-degree, then `_split_equal_degree`, which draws
    the trace r + r^p + ... + r^(p^(k-1)) of a random residue r: it lies in
    F_p modulo every factor of degree k, for odd and even p alike."""
    dom = f.dom
    if not dom.is_field or dom.f != 1:
        raise RingError("factor is implemented over prime fields only")
    if f.degree < 1:
        raise RingError("cannot factor a constant")
    p = dom.p
    seed = zlib.adler32(repr((dom.q, f.coeffs)).encode()) ^ 0x5EED
    rng = random.Random(seed)

    def trace(mul, n, k):
        s = r = _zp_pack([rng.randrange(p) for _ in range(n)])
        for _ in range(k - 1):
            r = _power(r, p, mul, 1)
            s += r
        return _zp_pack([c % p for c in _zp_unpack(s)])

    out = []
    for g, e in _zp_squarefree([c % p for c in f.coeffs], p):
        for part, k in _zp_distinct_degree(g, p):
            draw = lambda mul: trace(mul, len(part) - 1, k)
            out.extend((Poly(tuple(irr), dom), e) for irr in _split_equal_degree(part, k, p, draw))
    return sorted(out, key=lambda t: (t[0].degree, t[0].coeffs))


# -- cyclotomic polynomials and prime splitting -------------------------------

@lru_cache(maxsize=None)
def cyclotomic_poly(d):
    """The d-th cyclotomic polynomial over Z, via X^d - 1 = prod_{e|d} Phi_e."""
    if d < 1 or d > MAX_CYCLOTOMIC:
        raise RingError("cyclotomic index %d out of range" % d)
    f = Poly.from_ints([-1] + [0] * (d - 1) + [1], ZZ)
    for e in range(1, d):
        if d % e == 0:
            f = f // cyclotomic_poly(e)
    return f


class SplittingData:
    """q splits into count primes of Z[zeta_d], each of this residue degree."""

    __slots__ = ("count", "residue_degree")

    def __init__(self, count, residue_degree):
        self.count, self.residue_degree = count, residue_degree


def prime_splitting(d, q):
    """How the rational prime q splits in Z[zeta_d] (q coprime to d).

    There are phi(d)/ord_d(q) primes above q, each with residue degree
    ord_d(q).  The brute-force check is the factorization of Phi_d mod q.
    """
    if d < 1:
        raise RingError("d must be positive")
    if math.gcd(q, d) != 1:
        raise RingError("prime %d divides conductor %d" % (q, d))
    f = multiplicative_order(q, d)
    return SplittingData(count=euler_phi(d) // f, residue_degree=f)


@lru_cache(maxsize=None)
def cyclotomic_factors_mod(d, q):
    """The distinct monic irreducible factors of Phi_d mod q, sorted.

    For d = q^k * e with q coprime to e, Phi_d = Phi_e^phi(q^k) mod q, so the
    factors are those of Phi_e, each of degree f = ord_e(q).  For f = 1 and
    e > 2, e divides q - 1 and the factors are the X - zeta^a over the units
    a mod e, for one zeta of exact order e in F_q.  Otherwise they come from
    `_split_cyclotomic`.
    """
    dom = GF(q)
    e = p_part(d, q)[1]
    f = multiplicative_order(q, e)
    phi = [c % q for c in cyclotomic_poly(e).coeffs]
    if f == 1 and e > 2:
        # zeta = x^((q-1)/e) for the least x >= 2 with zeta^(e/l) != 1 for
        # every prime l | e
        cofactors = [e // ell for ell in prime_divisors(e)]
        x = 2
        while any(pow(x, (q - 1) // e * c, q) == 1 for c in cofactors):
            x += 1
        zeta = pow(x, (q - 1) // e, q)
        roots = [pow(zeta, a, q) for a in range(1, e) if math.gcd(a, e) == 1]
        return tuple(Poly((-z % q, 1), dom) for z in sorted(roots, reverse=True))
    return tuple(Poly(tuple(g), dom) for g in sorted(_split_cyclotomic(phi, e, f, q)))


def _split_cyclotomic(phi, e, f, q):
    """The factors of phi = Phi_e mod q, all of degree f = ord_e(q): phi
    itself when it has degree f, as for e <= 2.

    Frobenius maps X^i to X^(iq), so a sum r = sum_i c_i X^i with c constant
    on every coset i<q> of Z/e is fixed by it: r is a scalar of F_q modulo
    each factor, and these coset sums span Berlekamp's fixed subalgebra.
    Random coset sums, reduced mod phi, are the draws of `_split_equal_degree`,
    so no distinct-degree pass runs.
    """
    if len(phi) - 1 == f:  # before the cosets and the reducer
        return [phi]
    coset = [None] * e
    ncosets = 0
    for i in range(e):
        if coset[i] is None:
            j = i
            while coset[j] is None:
                coset[j] = ncosets
                j = j * q % e
            ncosets += 1
    reduce, pick = _zp_reducer(phi, q, e), operator.itemgetter(*coset)
    rng = random.Random(e << 32 | q)
    return _split_equal_degree(
        phi, f, q, lambda mul: reduce(_zp_pack(pick(rng.choices(range(q), k=ncosets)))))


@lru_cache(maxsize=None)
def frobenius_labels(d, q):
    """Label the primes above q in Z[zeta_d] by the units a mod d.

    With zeta = X mod g_0, g_0 the first factor in cyclotomic_factors_mod(d,
    q), labels[a] is the index of the factor g_i with g_i(zeta^a) = 0, and
    reps[i] is one such a.  As zeta^d = 1, g(zeta^a) is the packed sum of
    the c_k X^(k*a mod d) reduced mod g_0.  Each label is a Frobenius coset
    a<q>, so each coset is tested once (Washington, Introduction to
    Cyclotomic Fields, Thm 2.13).  For d = 1 the only unit is 0, and both
    coefficients of X - 1 add into slot 0.
    """
    factors = cyclotomic_factors_mod(d, q)
    reduce = _zp_reducer(factors[0].coeffs, q, d)
    labels = [None] * d
    reps = [None] * len(factors)
    for a in range(d):
        if labels[a] is not None or math.gcd(a, d) != 1:
            continue
        i = next(i for i, g in enumerate(factors) if reps[i] is None and not reduce(
            sum(c << 64 * (k * a % d) for k, c in enumerate(g.coeffs))))
        reps[i] = b = a
        while labels[b] is None:
            labels[b] = i
            b = b * q % d
    return tuple(labels), tuple(reps)


# -- level-structure polynomials ----------------------------------------------

def p_series_mult(p):
    """(1+X)^p - 1 over Z: the p-series of the multiplicative formal group."""
    if not is_prime(p):
        raise RingError("%d is not prime" % p)
    coeffs = [0] * (p + 1)
    for i in range(1, p + 1):
        coeffs[i] = math.comb(p, i)
    return Poly.from_ints(coeffs, ZZ)


class LevelData:
    """P is a Poly over Q(zeta_p), Q_poly one over Z."""

    __slots__ = ("p", "P", "Q_poly")

    def __init__(self, p, P, Q_poly):
        self.p, self.P, self.Q_poly = p, P, Q_poly

    def q_over_cyclo(self):
        K = self.P.dom
        return self.Q_poly.map_domain(K, K.of_int)


def level_polynomial_P(p):
    """prod_{j<p} (X - (zeta_p^j - 1)) over Q(zeta_p).

    The roots are the p-torsion values of the coordinate on the multiplicative
    group at the level-p locus.
    """
    if p > 13 or not is_prime(p):
        raise RingError("p = %d out of range for level polynomials" % p)
    K = CycloField(p)
    P = Poly.one(K)
    zeta = K.zeta()
    for j in range(p):
        root = K.add(K.power(zeta, j), K.neg(K.one))
        P = P * Poly((K.neg(root), K.one), K)
    data = LevelData(p=p, P=P, Q_poly=p_series_mult(p))
    if not data.P.is_monic() or data.P.degree != p:
        raise RingError("level polynomial degree check failed")
    return data


def divides(P, Q):
    """Exact division test Q / P for monic P; (True, quotient) or (False, remainder)."""
    if not P.is_monic():
        raise RingError("divisor must be monic")
    quot, rem = Q.divmod(P)
    if rem.is_zero():
        return True, quot
    return False, rem


def is_separable(f):
    """gcd(f, f') = 1 over a field domain."""
    if not f.dom.is_field:
        raise RingError("separability needs a field domain")
    if f.degree < 1:
        return True
    return poly_gcd(f, f.derivative()).degree == 0


def reduce_cyclo_mod_p(f, p):
    """Reduce a Q(zeta_p)-polynomial at the unique prime above p.

    The residue field is F_p with zeta_p mapping to 1, so a coefficient
    sum c_i zeta^i goes to sum c_i mod p (denominators must be prime to p).
    """
    dom = GF(p)

    def conv(elem):
        acc = sum(elem)
        if acc.denominator % p == 0:
            raise RingError("coefficient not integral at %d" % p)
        return (acc.numerator * pow(acc.denominator, -1, p)) % p

    return f.map_domain(dom, conv)


# -- prime descriptors and Spec(Z[X]/(X^n-1)) ---------------------------------

class PrimeDescriptor(tuple):
    """A canonical representative of a prime ideal in one of the supported rings.

    ring: "Z" | "Z_p" | "Z[zeta_d,1/d]" | "Z[X]/(X^n-1)" | "F_q[x,y]^h" | "Z/p[t]^h";
    kind: "generic" | "closed" | "height-one"; data: canonical payload, a
    JSON-serializable tuple.  A closed point of Z[zeta_d,1/d] over q has
    ("modular", q, i), i the position of its factor of Phi_d mod q in
    cyclotomic_factors_mod(d, q); one of Z[X]/(X^n-1) has ("modular", q,
    the coefficients of its factor).
    """

    __slots__ = ()
    ring, kind, data, label = (property(operator.itemgetter(i)) for i in range(4))

    def __new__(cls, ring, kind, data, label):
        return tuple.__new__(cls, (ring, kind, data, label))


def residue_field_label(q, degree):
    """Label for the residue field with q^degree elements."""
    return "F_%d" % q if degree == 1 else "F_%d^%d" % (q, degree)


class SpectrumRing(tuple):
    """Truncated Spec(Z[X]/(X^n-1)): minimal and maximal primes plus containments.

    minimal holds a PrimeDescriptor per divisor d | n, with data ("cyclo", d);
    maximal one per (q, irreducible factor g of X^n-1 mod q); contains the
    pairs (minimal index, maximal index).
    """

    __slots__ = ()
    n, prime_bound, minimal, maximal, contains = (
        property(operator.itemgetter(i)) for i in range(5))
    truncated = True   # by the prime bound, always

    def __new__(cls, n, prime_bound, minimal, maximal, contains):
        return tuple.__new__(cls, (n, prime_bound, minimal, maximal, contains))


def cyclic_spectrum_ring(n, prime_bound):
    """Primes of Z[X]/(X^n-1) up to a prime bound.

    Minimal primes are (Phi_d) for d | n; maximal primes are (q, g) for
    rational primes q <= bound and irreducible factors g of X^n - 1 mod q.
    Writing d = q^k * e with q coprime to e, Phi_d = Phi_e^phi(q^k) mod q, so
    the g are the factors of Phi_e mod q over the q-free parts e of the
    divisors, and (Phi_d) lies in (q, g) iff g divides Phi_e mod q.  Strong
    ku glues its strata by Segal's rule without factoring
    (`strata._segal_edges`); on a cyclic group that rule gives these
    containments, and this ring is its test oracle.
    """
    if n < 1 or n > MAX_CYCLOTOMIC:
        raise RingError("n = %d out of range" % n)
    if prime_bound > MAX_PRIME_BOUND:
        raise RingError("prime bound %d out of range" % prime_bound)
    ring = "Z[X]/(X^%d-1)" % n
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    minimal = []
    for d in divisors:
        label = "Q" if d <= 2 else "Q(zeta_%d)" % d
        minimal.append(PrimeDescriptor(ring=ring, kind="generic",
                                       data=("cyclo", d), label=label))
    maximal = []
    contains = []
    for q in primes_upto(prime_bound):
        free = [p_part(d, q)[1] for d in divisors]
        # each factor g of X^n - 1 mod q divides Phi_e for exactly one e
        factor_of = {g: e for e in free for g in cyclotomic_factors_mod(e, q)}
        for g in sorted(factor_of, key=lambda g: (g.degree, g.coeffs)):
            j = len(maximal)
            maximal.append(PrimeDescriptor(
                ring=ring, kind="closed",
                data=("modular", q, tuple(g.coeffs)),
                label=residue_field_label(q, g.degree)))
            for i, e in enumerate(free):
                if e == factor_of[g]:
                    contains.append((i, j))
    return SpectrumRing(n=n, prime_bound=prime_bound,
                        minimal=tuple(minimal), maximal=tuple(maximal),
                        contains=tuple(contains))
