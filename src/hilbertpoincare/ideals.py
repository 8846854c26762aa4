"""Integral and fractional ideal arithmetic in HNF.

An integral ideal is the Z-lattice spanned by (a, 0) and (b, c) in the
integral basis (1, omega), normalized to Hermite form: a, c > 0, 0 <= b < a,
c | a, c | b, closed under multiplication by omega.  Equality is structural,
so ideals can be used as dict keys.

Sums, products and conjugates are the HNFs of integer Z-basis vectors: the
sum and the product of two O-modules are again O-modules, spanned over Z by
the union and by the four products of their Z-bases.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from . import arith
from .errors import NotDivisible, NotIntegral, PreconditionViolated, ZeroIdeal
from .field import Elt, cf_walk


class IdealHNF:
    __slots__ = ("field", "a", "b", "c")

    def __init__(self, field, a, b, c):
        if a <= 0 or c <= 0:
            raise ZeroIdeal("HNF entries must be positive")
        b %= a
        if a % c or b % c:
            raise PreconditionViolated("not an O-module: c must divide a and b")
        # omega-closure of the (b, c) basis vector
        w_img = (c * field.c0, b + c * field.c1)
        if w_img[1] % c or (w_img[0] - (w_img[1] // c) * b) % a:
            raise PreconditionViolated("lattice not closed under omega")
        self.field = field
        self.a = a
        self.b = b
        self.c = c

    # -- structure ----------------------------------------------------------
    def norm(self) -> int:
        return self.a * self.c

    def key(self):
        return (self.field.d, self.a, self.b, self.c)

    def __eq__(self, other):
        return isinstance(other, IdealHNF) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"<{self.a},{self.b}+{self.c}w>"

    def is_unit_ideal(self):
        return self.a == 1 and self.c == 1

    def contains(self, x: Elt) -> bool:
        return x.is_integral() and self._has(x.a, x.b)

    def _has(self, u: int, v: int) -> bool:
        """Does u + v*omega lie in the lattice?"""
        return v % self.c == 0 and (u - (v // self.c) * self.b) % self.a == 0

    def reduce_coords(self, u: int, v: int):
        """Canonical coset representative of u + v*omega modulo the lattice."""
        q, v = divmod(v, self.c)
        u = (u - q * self.b) % self.a
        return u, v

    def to_json(self):
        return {"a": str(self.a), "b": str(self.b), "c": str(self.c)}

    def sort_key(self):
        return (self.norm(), self.a, self.b, self.c)


def _hnf_from_vectors(vecs) -> tuple[int, int, int]:
    """(a, b, c) of the Z-lattice spanned by the integer vectors (u, v)."""
    a = pu = pv = 0     # the pivot (pu, pv) carries the gcd of the v seen so far
    for u, v in vecs:
        while v:        # Euclid on the omega-coordinates, a unimodular change
            q = pv // v
            pu, pv, u, v = u, v, pu - q * u, pv - q * v
        a = math.gcd(a, u)
    if a == 0 and pv == 0:
        raise ZeroIdeal("all generators are zero")
    if a == 0 or pv == 0:
        raise ZeroIdeal("generators span a rank-1 module, not an O-ideal")
    if pv < 0:
        pu, pv = -pu, -pv
    return a, pu % a, pv


def ideal_from_generators(gens) -> IdealHNF:
    """HNF of the O-module generated by the given integral elements."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ZeroIdeal("no nonzero generators")
    F = gens[0].field
    vecs = []
    for g in gens:
        if not g.is_integral():
            raise NotIntegral(f"generator {g} is not integral")
        vecs += ((g.a, g.b), (g.b * F.c0, g.a + g.b * F.c1))   # g and g*omega
    return IdealHNF(F, *_hnf_from_vectors(vecs))


def principal_ideal(g: Elt) -> IdealHNF:
    return ideal_from_generators([g])


def unit_ideal(field) -> IdealHNF:
    return IdealHNF(field, 1, 0, 1)


def different_ideal(field) -> IdealHNF:
    """The different, generated by f'(omega) = 2*omega - c1."""
    return principal_ideal(field.elt(-field.c1, 2))


def ideal_sum(x: IdealHNF, y: IdealHNF) -> IdealHNF:
    a, b, c = _hnf_from_vectors(((x.a, 0), (x.b, x.c), (y.a, 0), (y.b, y.c)))
    return IdealHNF(x.field, a, b, c)


def ideal_product(x: IdealHNF, y: IdealHNF) -> IdealHNF:
    F = x.field
    return IdealHNF(F, *_hnf_from_vectors((
        (x.a * y.a, 0), (x.a * y.b, x.a * y.c), (x.b * y.a, x.c * y.a),
        F.mul_coords(x.b, x.c, y.b, y.c))))


def ideal_conj(x: IdealHNF) -> IdealHNF:
    """conj(b + c*omega) = (b + c*c1) - c*omega, so the conjugate's HNF is
    (a, -(b + c*c1) mod a, c)."""
    return IdealHNF(x.field, x.a, -(x.b + x.c * x.field.c1), x.c)


def ideal_divides(y: IdealHNF, x: IdealHNF) -> bool:
    """Does y divide x (equivalently x subset of y)?"""
    return y._has(x.a, 0) and y._has(x.b, x.c)


def ideal_exact_divide(x: IdealHNF, y: IdealHNF) -> IdealHNF:
    """x / y for y | x, via x * conj(y) = N(y) * (x/y)."""
    if not ideal_divides(y, x):
        raise NotDivisible(f"{y} does not divide {x}")
    n = y.norm()
    p = ideal_product(x, ideal_conj(y))
    if p.a % n or p.b % n or p.c % n:
        raise NotDivisible(f"{y} does not divide {x}")
    out = IdealHNF(x.field, p.a // n, p.b // n, p.c // n)
    return out


def ideal_pow(x: IdealHNF, e: int) -> IdealHNF:
    out = unit_ideal(x.field)
    for _ in range(e):
        out = ideal_product(out, x)
    return out


def splitting_type(field, p: int) -> str:
    """How the rational prime p decomposes in F, read off the Kronecker
    symbol (D/p): "ramified" when p | D; for p = 2 (then d = 1 mod 4),
    "split" when d = 1 mod 8, else "inert"; for odd p, Euler's criterion
    (Cohen, GTM 138, on the decomposition of primes in quadratic fields)."""
    if field.D % p == 0:
        return "ramified"
    if p == 2:
        return "split" if field.d % 8 == 1 else "inert"
    return "split" if pow(field.D % p, (p - 1) // 2, p) == 1 else "inert"


def kronecker_prefix(field) -> list[int]:
    """prefix[a] = sum_{b <= a} chi_D(b), 0 <= a < D, for the completely
    multiplicative chi_D(p) = 1, -1, 0 as p splits, is inert or ramifies.  A
    period of chi_D sums to 0, so sum_{b <= y} chi_D(b) = prefix[y mod D]."""
    D = field.D
    spf = arith.smallest_prime_factors(D - 1)
    value = {"split": 1, "inert": -1, "ramified": 0}
    chi = [0, 1] + [0] * (D - 2)
    for a in range(2, D):
        p = spf[a]
        chi[a] = chi[a // p] * value[splitting_type(field, p)]
    return list(itertools.accumulate(chi))


def ideal_count_upto(prefix, x: int) -> int:
    """Number of integral ideals of norm <= x: as a_F = 1 * chi_D (Cohen, GTM
    138), sum_{d <= x} chi_D(d) floor(x/d), over the O(sqrt x) runs of equal
    quotient floor(x/d), each by two lookups in `kronecker_prefix`."""
    D = len(prefix)
    total, d = 0, 1
    while d <= x:
        q = x // d
        top = x // q
        total += q * (prefix[top % D] - prefix[(d - 1) % D])
        d = top + 1
    return total


def prime_splitting(field, p: int) -> tuple:
    """The one or two prime ideals above the rational prime p."""
    if not arith.is_prime(p):
        raise ValueError(f"{p} is not prime")
    F = field
    kind = splitting_type(F, p)
    if kind == "inert":
        return (principal_ideal(F.from_int(p)),)
    if kind == "ramified":   # the double root of the minimal polynomial mod p
        roots = [F.d % 2] if p == 2 else [F.c1 * pow(2, p - 2, p) % p]
    elif p == 2:             # x^2 - x - c0 = x(x - 1) mod 2
        roots = [0, 1]
    else:
        s, inv2 = arith.sqrt_mod_p(F.D % p, p), pow(2, p - 2, p)
        roots = sorted({(F.c1 + s) * inv2 % p, (F.c1 - s) * inv2 % p})
    return tuple(ideal_from_generators([F.from_int(p), F.omega() - F.from_int(r)])
                 for r in roots)


@lru_cache(maxsize=4096)
def _factor_ideal_cached(x: IdealHNF):
    out = []
    n = x.norm()
    if n == 1:
        return ()
    for p in arith.factorint(n):
        for pr in prime_splitting(x.field, p):
            e = valuation_ideal(x, pr)
            if e:
                out.append((pr, e))
    out.sort(key=lambda t: t[0].sort_key())
    # the product of the prime powers must reconstruct the input
    acc = unit_ideal(x.field)
    for pr, e in out:
        acc = ideal_product(acc, ideal_pow(pr, e))
    if acc != x:
        raise AssertionError(f"factorization of {x} reconstructs {acc}")
    return tuple(out)


def factor_ideal(x: IdealHNF):
    """Multiset of (prime ideal, exponent), sorted; cached."""
    return list(_factor_ideal_cached(x))


def is_prime_element(p: Elt) -> bool:
    """Does p generate a prime ideal?"""
    if p.is_zero() or not p.is_integral() or p.field.is_unit(p):
        return False
    fac = factor_ideal(principal_ideal(p))
    return len(fac) == 1 and fac[0][1] == 1


def valuation_ideal(x: IdealHNF, pr: IdealHNF) -> int:
    v = 0
    while ideal_divides(pr, x):
        x = ideal_exact_divide(x, pr)
        v += 1
    return v


def divisors(x: IdealHNF):
    """All integral divisors, sorted by norm then canonical form; each is one
    ideal product of a smaller divisor and a prime."""
    out = [unit_ideal(x.field)]
    for pr, e in factor_ideal(x):
        layer = out
        for _ in range(e):
            layer = [ideal_product(d, pr) for d in layer]
            out = out + layer
    out.sort(key=lambda i: i.sort_key())
    return out


def chi0(r: IdealHNF, level: IdealHNF) -> int:
    """1 iff r is coprime to the level."""
    return 1 if ideal_sum(r, level).is_unit_ideal() else 0


def pr_count(m: IdealHNF) -> int:
    return len(factor_ideal(m))


def N_nu_mu(m: IdealHNF, nu, mu) -> Fraction:
    """prod over p | m of N(p)^min(v_p(nu), v_p(mu), v_p(m) - v_p(different)).

    nu, mu are field elements; a zero or None argument contributes +infinity
    to the min.  The result is an exact rational (negative exponents can
    occur for fractional arguments).  The different has norm D and is
    divisible exactly by the ramified primes, those above the p | D, each of
    norm p; so at a prime above p it has valuation v_p(D), read off D.

    Only the valuations capped at the running minimum `cap` (starting at
    v_p(m) - v_p(D), possibly <= 0) are needed, and they come from
    membership tests.  Write t = num/den with num = a + b*omega integral and
    den a positive integer.  Then v_p(den) = e_p * v_p(den as an integer),
    with e_p = 2 at a ramified p and 1 otherwise, and
    min(v_p(t), cap) = min(v_p(num), cap + v_p(den)) - v_p(den).  Since
    v_p(num) >= k exactly when num lies in p^k, v_p(num) capped at
    cap + v_p(den) is the number of powers p, p^2, ... that contain num,
    counted up to the first miss or to the cap.  Each power is one
    `ideal_product` of the previous one.
    """
    out = Fraction(1)
    for pr, e in factor_ideal(m):
        p, D = pr.a, m.field.D   # pr.a is the rational prime below pr
        e_p = 1
        while D % p == 0:
            D, e, e_p = D // p, e - 1, 2
        cap, powers = e, [pr]
        for t in (nu, mu):
            if t is None or t.is_zero():
                continue
            v_den, den = 0, t.den
            while den % p == 0:
                den, v_den = den // p, v_den + e_p
            k = 0
            while k < cap + v_den:
                if k == len(powers):
                    powers.append(ideal_product(powers[-1], pr))
                if not powers[k]._has(t.a, t.b):
                    break
                k += 1
            cap = min(cap, k - v_den)
        out *= Fraction(pr.norm()) ** cap
    return out


# -- principality ---------------------------------------------------------

def is_principal(x: IdealHNF):
    """A generator of x if principal: a totally positive one when there is one.

    Write x = c*(Z a' + Z(b' + omega)) = c a' (Z + theta Z), theta =
    (b' + omega)/a', and walk the continued fraction of theta (`cf_walk`).
    Each step keeps Z + theta Z = (theta - a)(Z + theta' Z), so when a state
    of the walk is a state of O's walk (the field's `principal_cycle`), the
    two lattices there coincide and g = c a' (x's product)/(O's product)
    generates x.  When the walk repeats a state first, x is not principal,
    and that is a proof: two irrationals are GL2(Z)-equivalent exactly when
    their continued fractions share a tail (Serret's theorem), and the
    reduced irrationals of one class form one cycle (Cohen, GTM 138,
    sections 5.6-5.8).  x is principal exactly when theta is equivalent to
    omega, so its walk would have entered O's cycle.
    """
    F = x.field
    a, b = x.a // x.c, x.b // x.c
    P, Q = F.omega_pq
    seen = set()
    for state, (u, v) in cf_walk(F.d, Q * b + P, Q * a):
        if state in F.principal_cycle:
            break
        if state in seen:
            return None
        seen.add(state)
    g = F.elt(x.c * (u * a + v * b), x.c * v) / F.principal_cycle[state]
    if not g.is_integral() or principal_ideal(g) != x:
        raise AssertionError(f"the walk's generator {g} does not generate {x}")
    return F.totally_positive_associate(g) or g


def wide_class_number_is_one(field) -> bool:
    """Check principality of all primes below the Minkowski bound sqrt(D)/2."""
    p = 2
    while 4 * p * p <= field.D:  # p <= sqrt(D)/2, exact
        if arith.is_prime(p):
            for pr in prime_splitting(field, p):
                if is_principal(pr) is None:
                    return False
        p += 1
    return True


# -- fractional ideals -----------------------------------------------------

class FractionalIdeal:
    """num / den with num integral in HNF and den a positive integer."""

    __slots__ = ("num", "den")

    def __init__(self, num: IdealHNF, den: int = 1):
        if den == 0:
            raise ZeroDivisionError("fractional ideal denominator 0")
        den = abs(den)
        g = math.gcd(den, math.gcd(num.a, math.gcd(num.b, num.c)))
        if g > 1:
            num = IdealHNF(num.field, num.a // g, num.b // g, num.c // g)
            den //= g
        self.num = num
        self.den = den

    @property
    def field(self):
        return self.num.field

    def norm(self) -> Fraction:
        return Fraction(self.num.norm(), self.den ** 2)

    def is_integral(self) -> bool:
        return self.den == 1

    def as_integral(self) -> IdealHNF:
        if not self.is_integral():
            raise NotIntegral(f"{self} is not integral")
        return self.num

    def __eq__(self, other):
        return (isinstance(other, FractionalIdeal)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"{self.num!r}/{self.den}" if self.den != 1 else repr(self.num)

    def __mul__(self, other):
        if isinstance(other, IdealHNF):
            other = FractionalIdeal(other)
        return FractionalIdeal(ideal_product(self.num, other.num),
                               self.den * other.den)

    def inverse(self) -> "FractionalIdeal":
        n = self.num.norm()
        scaled = IdealHNF(self.field, self.num.a * self.den, self.num.b * self.den,
                          self.num.c * self.den)
        conj_scaled = ideal_conj(scaled)
        return FractionalIdeal(conj_scaled, n)

    def __truediv__(self, other):
        if isinstance(other, IdealHNF):
            other = FractionalIdeal(other)
        return self * other.inverse()

    def contains(self, x: Elt) -> bool:
        y = x * x.field.from_int(self.den)
        return y.is_integral() and self.num.contains(y)

    def to_json(self):
        return {"num": self.num.to_json(), "den": str(self.den)}


def element_ideal(x: Elt) -> FractionalIdeal:
    """The principal fractional ideal (x), x nonzero."""
    if x.is_zero():
        raise ZeroIdeal("(0) is not a fractional ideal")
    F = x.field
    num = principal_ideal(F.elt(x.a, x.b))
    return FractionalIdeal(num, x.den)


def ideals_of_norm(field, n: int):
    """All integral ideals of norm n, sorted canonically.

    Locally at p^e they are the products of P_i^e_i over the primes P_i above
    p with sum f_i*e_i = e, where N(P_i) = p^f_i.  local[k] holds the ideals
    built so far times those of norm p^k, each made by one more prime factor.
    """
    if n <= 0:
        return []
    parts = [unit_ideal(field)]
    for p, e in arith.factorint(n).items():
        local = [parts] + [[] for _ in range(e)]
        for pr in prime_splitting(field, p):
            f = 1 if pr.norm() == p else 2
            for k in range(f, e + 1):
                local[k] += [ideal_product(x, pr) for x in local[k - f]]
        parts = local[e]
        if not parts:
            return []
    parts.sort(key=lambda i: i.sort_key())
    return parts

