"""Generalized Kloosterman sums S_m(nu, mu; c) over a real quadratic field.

S_m(nu, mu; c) = sum over units x of O/m of e((nu*x + mu*x^{-1})/c), with
e(t) = exp(2*pi*i*Tr(t)).  Every term is a root of unity whose order divides
the lcm M of the trace denominators, so the sum lives in Z[zeta_M] and is
evaluated exactly there.  x -> -x permutes the units and negates the trace,
so the coefficient vector is symmetric and the sum is real: the float path
is that value's complex enclosure, with an exact 0 as its imaginary part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import CyclotomicInteger
from .errors import BudgetExceeded, MembershipViolated, PreconditionViolated
from .field import Elt
from .ideals import (IdealHNF, divisors, ideal_exact_divide, is_prime_element,
                     is_principal, N_nu_mu, pr_count, principal_ideal)
from .intervals import iv_from_fraction, iv_sqrt_fraction, prec_guard
from .residues import DEFAULT_ENUM_BUDGET, residue_ring


class KloostermanQuery:
    """A sum S_m(nu, mu; c), held as its four trace slopes mod 1.

    For x = u + v*omega with inverse ui + vi*omega, Tr((nu*x + mu*x^{-1})/c)
    is u*r1 + v*r2 + ui*s1 + vi*s2 with r1 = Tr(nu/c), r2 = Tr(nu*omega/c)
    and s1, s2 likewise for mu, so the sum depends only on these four
    fractions mod 1.  Membership nu, mu in c*(m d)^{-1} means Tr(y*m) in Z
    for y = nu/c, mu/c; on the HNF basis {a, b + c*omega} of m that is
    a*r1 in Z and b*r1 + c*r2 in Z.  Since a*omega lies in m too, every
    slope denominator divides a, so the cyclotomic order is at most N(m).
    The traces are computed as integers over one denominator, from
    Tr(t/c) = Tr(t*conj(c))/N(c); only the four reduced slopes are Fractions.
    """

    __slots__ = ("field", "nu", "mu", "modulus", "c", "slopes")

    def __init__(self, field, nu: Elt, mu: Elt, modulus: IdealHNF, c: Elt):
        if c.is_zero():
            raise MembershipViolated("c must be nonzero")
        c0, c1 = field.c0, field.c1
        # 1/c = den(c) * conj(c_num) / N(c_num) for c = c_num / den(c)
        ca, cb = c.a + c.b * c1, -c.b
        nc = c.a * ca + c.b * cb * c0
        slopes = []
        for name, t in (("nu", nu), ("mu", mu)):
            # t/c = P * den(c) / (den(t) * N(c_num)), P = t_num * conj(c_num);
            # Tr(P) = 2*pa + pb*c1, Tr(P*omega) = pa*c1 + pb*(c1^2 + 2*c0)
            pa, pb = field.mul_coords(t.a, t.b, ca, cb)
            R1 = (2 * pa + pb * c1) * c.den
            R2 = (pa * c1 + pb * (c1 * c1 + 2 * c0)) * c.den
            D = t.den * nc    # for D < 0, R % D lies in (D, 0], so (R % D)/D in [0, 1)
            if (modulus.a * R1) % D or (modulus.b * R1 + modulus.c * R2) % D:
                raise MembershipViolated(f"{name}={t} outside c*(m d)^(-1)")
            slopes += (Fraction(R1 % D, D), Fraction(R2 % D, D))
        self.field = field
        self.nu = nu
        self.mu = mu
        self.modulus = modulus
        self.c = c
        self.slopes = tuple(slopes)

    def trace_data(self):
        """The four slopes (r1, r2, s1, s2), each in [0, 1)."""
        return self.slopes

    def cache_key(self):
        return (self.field.d, self.modulus.key(),
                *((t.numerator, t.denominator) for t in self.slopes))

    def to_json(self):
        return {"field": self.field.spec_string(), "nu": self.nu.to_json(),
                "mu": self.mu.to_json(), "modulus": self.modulus.to_json(),
                "c": self.c.to_json()}


_EXACT_CACHE: dict = {}
_EXACT_CACHE_MAX = 200_000


def kloosterman_exact(q: KloostermanQuery,
                      enum_budget: int = DEFAULT_ENUM_BUDGET,
                      rings=None) -> CyclotomicInteger:
    """Exact value in Z[zeta_M].  For the unit modulus the value is 1.

    The residue budget is checked before any lookup, so whether a sum is
    refused does not depend on what was computed earlier.

    `rings` maps `modulus.key()` to its `ResidueRing`.  It belongs to the
    caller's loop over one modulus (the 2M + 1 unit exponents of one class,
    the divisor terms of one q), so its unit enumeration is shared there and
    dropped when the loop ends.  With None, a ring lives for this call only.
    Only a miss in the value cache looks a ring up or builds one.
    """
    n = q.modulus.norm()
    if n == 1:
        return CyclotomicInteger.one()
    if n > enum_budget:
        raise BudgetExceeded(f"residue ring of norm {n}", enum_budget)
    key = q.cache_key()
    hit = _EXACT_CACHE.get(key)
    if hit is not None:
        return hit
    M = math.lcm(*(t.denominator for t in q.slopes))
    if rings is None:
        rings = {}
    mkey = q.modulus.key()
    ring = rings.get(mkey)
    if ring is None:
        ring = rings[mkey] = residue_ring(q.modulus, enum_budget)
    R1, R2, S1, S2 = (t.numerator * (M // t.denominator) for t in q.slopes)
    coeffs = [0] * M
    for (u, v, ui, vi) in ring.unit_data():
        coeffs[(R1 * u + R2 * v + S1 * ui + S2 * vi) % M] += 1
    val = CyclotomicInteger(M, coeffs)
    if len(_EXACT_CACHE) >= _EXACT_CACHE_MAX:
        _EXACT_CACHE.clear()
    _EXACT_CACHE[key] = val
    return val


def kloosterman_float(q: KloostermanQuery, precision: int,
                      enum_budget: int = DEFAULT_ENUM_BUDGET, rings=None):
    """(re, im) interval enclosure of the exact value; `rings` is
    `kloosterman_exact`'s."""
    return kloosterman_exact(q, enum_budget, rings).complex_interval(precision)


@dataclass
class RadicalValue:
    """coeff * sqrt(radicand), both exact nonnegative rationals."""
    coeff: Fraction
    radicand: Fraction

    def interval(self, precision: int):
        with prec_guard(precision):
            return iv_from_fraction(self.coeff) * iv_sqrt_fraction(self.radicand)

    def __repr__(self):
        return f"{self.coeff}*sqrt({self.radicand})"


def weil_bound(q: KloostermanQuery) -> RadicalValue:
    """2^(n+f/2) sqrt|D| sqrt(N_{nu,mu}(m)) 2^pr(m) sqrt(N(m)), n = 2."""
    F = q.field
    f = F.f2
    pr = pr_count(q.modulus)
    nn = N_nu_mu(q.modulus, q.nu, q.mu)
    radicand = Fraction(F.D) * nn * q.modulus.norm()
    coeff = Fraction(2 ** (2 + pr + f // 2))
    if f % 2:
        radicand *= 2
    return RadicalValue(coeff, radicand)


# -- closed forms and identities -------------------------------------------

def _require_delta(field) -> Elt:
    if field.delta is None:
        raise PreconditionViolated("field has no totally positive different generator")
    return field.delta


def principal_kloosterman(field, nu: Elt, mu: Elt, c: Elt, **kw) -> CyclotomicInteger:
    """S(nu, mu; c) = S_{(c)}(nu, mu; c) for integral nonzero c."""
    return kloosterman_exact(KloostermanQuery(field, nu, mu, principal_ideal(c), c), **kw)


def lemma41_value(field, p: Elt, eps1: Elt, eps2: Elt, r: Elt, e: int,
                  **kw) -> int:
    """S(delta^-1 eps1, delta^-1 r; eps2 p^e) for a prime element p | r.

    Evaluates the sum exactly and asserts the closed form: -1 when e = 1 and
    0 when e > 1.
    """
    delta = _require_delta(field)
    if not is_prime_element(p):
        raise PreconditionViolated(f"{p} is not a prime element")
    if not (field.is_unit(eps1) and field.is_unit(eps2)):
        raise PreconditionViolated("eps1, eps2 must be units")
    if e < 1:
        raise PreconditionViolated("e must be >= 1")
    if not r.is_zero() and not principal_ideal(p).contains(r):
        raise PreconditionViolated(f"{p} does not divide {r}")
    c = eps2 * p ** e
    val = principal_kloosterman(field, eps1 / delta, r / delta, c, **kw)
    n = val.as_int()
    expected = -1 if e == 1 else 0
    if n != expected:
        raise AssertionError(f"closed form violated: got {val}, expected {expected}")
    return n


@dataclass
class IdentityReport:
    holds: bool | None           # None: skipped, the identity is not defined
    lhs: CyclotomicInteger | None
    rhs: CyclotomicInteger | None
    outside_hypotheses: bool = False


class SelbergTable:
    """What Selberg's identity needs of q alone, shared by every (nu, mu) at q.

    `divisors` are those of (q), sorted as `ideals.divisors` sorts them; the
    divisors of (nu, mu, q) are the ones containing nu and mu, in the same
    order.  A divisor's generator g, q/g and quotient modulus (q)/d (the HNF
    of (q/g)) are resolved the first time a triple needs them.  `rings` is
    `kloosterman_exact`'s ring dict for (q) and its quotients, and the terms
    S(1/delta, nu*mu/(g^2 delta); q/g) are memoized by (nu*mu, divisor).
    """

    __slots__ = ("field", "q", "modulus", "divisors", "one_over_delta", "rings",
                 "_resolved", "_terms")

    def __init__(self, field, q: Elt):
        delta = _require_delta(field)
        if q.is_zero() or not q.is_integral():
            raise PreconditionViolated("q must be a nonzero integral element")
        self.field = field
        self.q = q
        self.modulus = principal_ideal(q)
        self.divisors = divisors(self.modulus)
        self.one_over_delta = field.one() / delta
        self.rings = {}
        self._resolved = {}
        self._terms = {}

    def common_divisors(self, nu: Elt, mu: Elt) -> list[int]:
        """Indices of the divisors of (nu, mu, q), for integral nu and mu."""
        return [i for i, dd in enumerate(self.divisors)
                if dd.contains(nu) and dd.contains(mu)]

    def divisor(self, i: int):
        """(N(d), g, q/g, (q)/d) for the i-th divisor d and a generator g of
        it, or None when d is not principal."""
        if i not in self._resolved:
            dd = self.divisors[i]
            g = is_principal(dd)
            self._resolved[i] = None if g is None else (
                dd.norm(), g, self.q / g, ideal_exact_divide(self.modulus, dd))
        return self._resolved[i]

    def term(self, nu_mu: Elt, i: int, enum_budget: int):
        """(N(d), S(1/delta, nu*mu/(g^2 delta); q/g)) for the resolved i-th
        divisor d."""
        n, g, c, modulus = self._resolved[i]
        key = (nu_mu, i)
        val = self._terms.get(key)
        if val is None:
            arg = nu_mu / (g * g) * self.one_over_delta
            val = self._terms[key] = kloosterman_exact(
                KloostermanQuery(self.field, self.one_over_delta, arg, modulus, c),
                enum_budget, self.rings)
        return n, val


def selberg_check(field, nu: Elt, mu: Elt, q: Elt, table: SelbergTable | None = None,
                  enum_budget: int = DEFAULT_ENUM_BUDGET) -> IdentityReport:
    """Exact check of the divisor-sum expansion of S(d^-1 nu, d^-1 mu; q).

    The right-hand side runs over principal ideals (d) dividing (nu, mu, q);
    generator choice does not affect the summands.  Fields without narrow
    class number one are reported as outside the identity's hypotheses.
    There (nu, mu, q) can have a non-principal divisor, and then the report
    is skipped before any sum is computed: `holds`, `lhs` and `rhs` are None.

    `table` is q's `SelbergTable`; a call without one builds its own.  The
    left-hand side is summed first: its modulus (q) has the largest norm, so
    it decides whether `enum_budget` refuses the triple before any memoized
    term is read.
    """
    if table is None:
        table = SelbergTable(field, q)
    elif table.q != q:
        raise PreconditionViolated(f"the table was built for q = {table.q}, not {q}")
    for t in (nu, mu):
        if not t.is_integral():
            raise PreconditionViolated("nu, mu must be integral")
    outside = not field.narrow_h1
    common = table.common_divisors(nu, mu)
    for i in common:
        if table.divisor(i) is None:
            return IdentityReport(None, None, None, outside)
    inv = table.one_over_delta
    lhs = kloosterman_exact(KloostermanQuery(field, nu * inv, mu * inv, table.modulus, q),
                            enum_budget, table.rings)
    nu_mu = nu * mu
    rhs = CyclotomicInteger.combination([table.term(nu_mu, i, enum_budget) for i in common])
    return IdentityReport((lhs - rhs).is_zero(), lhs, rhs, outside)


def cor43_check(field, nu: Elt, mu: Elt, q: Elt, p: Elt, m: int, n: int,
                **kw) -> IdentityReport:
    """Exact check of S(nu p^m, mu p^n; q) = S(nu, mu p^(m+n); q)
    + N((p)) S(nu p^(m-1), mu p^(n-1); q/p), for p | q coprime to
    delta*nu and delta*mu; nu, mu range over the inverse different."""
    delta = _require_delta(field)
    if not field.narrow_h1:
        raise PreconditionViolated("narrow class number 1 required")
    if m < 1 or n < 1:
        raise PreconditionViolated("m, n must be >= 1")
    if not is_prime_element(p):
        raise PreconditionViolated(f"{p} is not a prime element")
    pid = principal_ideal(p)
    dnu, dmu = delta * nu, delta * mu
    for name, t in (("delta*nu", dnu), ("delta*mu", dmu)):
        if not t.is_integral():
            raise PreconditionViolated(f"{name} not integral: nu, mu must be in d^-1")
        if t.is_zero() or pid.contains(t):
            raise PreconditionViolated(f"p divides {name}")
    if not pid.contains(q):
        raise PreconditionViolated("p must divide q")
    lhs = principal_kloosterman(field, nu * p ** m, mu * p ** n, q, **kw)
    t1 = principal_kloosterman(field, nu, mu * p ** (m + n), q, **kw)
    t2 = principal_kloosterman(field, nu * p ** (m - 1), mu * p ** (n - 1), q / p, **kw)
    rhs = t1 + pid.norm() * t2
    return IdentityReport((lhs - rhs).is_zero(), lhs, rhs)


def kloosterman_symmetry_check(q: KloostermanQuery, **kw) -> bool:
    """S_m(nu, mu; c) = S_m(mu, nu; c), via x -> x^{-1}."""
    a = kloosterman_exact(q, **kw)
    b = kloosterman_exact(KloostermanQuery(q.field, q.mu, q.nu, q.modulus, q.c), **kw)
    return (a - b).is_zero()


def unit_twist_check(q: KloostermanQuery, eps: Elt, **kw) -> bool:
    """S_m(nu, mu*eps^2; c) = S_m(nu, mu; c/eps) for a unit eps."""
    if not q.field.is_unit(eps):
        raise PreconditionViolated(f"{eps} is not a unit")
    a = kloosterman_exact(KloostermanQuery(q.field, q.nu, q.mu * eps * eps,
                                           q.modulus, q.c), **kw)
    b = kloosterman_exact(KloostermanQuery(q.field, q.nu, q.mu,
                                           q.modulus, q.c / eps), **kw)
    return (a - b).is_zero()
