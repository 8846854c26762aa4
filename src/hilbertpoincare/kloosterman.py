"""Generalized Kloosterman sums S_m(nu, mu; c) over a real quadratic field.

S_m(nu, mu; c) = sum over units x of O/m of e((nu*x + mu*x^{-1})/c), with
e(t) = exp(2*pi*i*Tr(t)).  Every term is a root of unity whose order divides
the lcm M of the trace denominators, so the sum lives in Z[zeta_M] and is
evaluated exactly there; the float path is that value's complex enclosure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import CyclotomicInteger
from .errors import (BudgetExceeded, MembershipViolated, NonPrincipalDivisor,
                     PreconditionViolated)
from .field import Elt
from .ideals import (IdealHNF, divisors, factor_ideal, ideal_from_generators,
                     is_principal, N_nu_mu, pr_count, principal_ideal,
                     unit_ideal)
from .intervals import iv_sqrt_fraction, prec_guard
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
    """

    __slots__ = ("field", "nu", "mu", "modulus", "c", "slopes")

    def __init__(self, field, nu: Elt, mu: Elt, modulus: IdealHNF, c: Elt):
        if c.is_zero():
            raise MembershipViolated("c must be nonzero")
        w = field.omega()
        slopes = []
        for name, t in (("nu", nu), ("mu", mu)):
            y = t / c
            r1, r2 = y.trace(), (y * w).trace()
            if ((modulus.a * r1).denominator != 1
                    or (modulus.b * r1 + modulus.c * r2).denominator != 1):
                raise MembershipViolated(f"{name}={t} outside c*(m d)^(-1)")
            slopes += (r1 - math.floor(r1), r2 - math.floor(r2))
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
                      store=None) -> CyclotomicInteger:
    """Exact value in Z[zeta_M].  For the unit modulus the value is 1.

    The residue budget is checked before any lookup, so whether a sum is
    refused does not depend on what was computed or stored earlier.
    """
    n = q.modulus.norm()
    if n == 1:
        return CyclotomicInteger.one()
    if n > enum_budget:
        raise BudgetExceeded(f"residue ring of norm {n}", enum_budget)
    key = q.cache_key()
    hit = _EXACT_CACHE.get(key)
    if hit is not None:
        if store is not None:
            store.put(key, hit)  # no-op if already persisted
        return hit
    if store is not None:
        stored = store.get(key)
        if stored is not None:
            _put_cache(key, stored)
            return stored
    M = math.lcm(*(t.denominator for t in q.slopes))
    ring = residue_ring(q.modulus, enum_budget)
    R1, R2, S1, S2 = (int(t * M) for t in q.slopes)
    coeffs = [0] * M
    for (u, v, ui, vi) in ring.unit_data():
        coeffs[(R1 * u + R2 * v + S1 * ui + S2 * vi) % M] += 1
    val = CyclotomicInteger(M, coeffs)
    _put_cache(key, val)
    if store is not None:
        store.put(key, val)
    return val


def _put_cache(key, val):
    if len(_EXACT_CACHE) >= _EXACT_CACHE_MAX:
        _EXACT_CACHE.clear()
    _EXACT_CACHE[key] = val


def kloosterman_float(q: KloostermanQuery, precision: int = 64,
                      enum_budget: int = DEFAULT_ENUM_BUDGET):
    """(re, im) interval enclosure of the exact value."""
    return kloosterman_exact(q, enum_budget).complex_interval(precision)


@dataclass
class RadicalValue:
    """coeff * sqrt(radicand), both exact nonnegative rationals."""
    coeff: Fraction
    radicand: Fraction

    def interval(self, precision: int = 64):
        with prec_guard(precision):
            from .intervals import iv_from_fraction
            return iv_from_fraction(self.coeff) * iv_sqrt_fraction(self.radicand)

    def squared(self) -> Fraction:
        return self.coeff * self.coeff * self.radicand

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


def _is_prime_element(p: Elt) -> bool:
    if p.is_zero() or not p.is_integral() or abs(p.norm()) == 1:
        return False
    fac = factor_ideal(principal_ideal(p))
    return len(fac) == 1 and fac[0][1] == 1


def principal_kloosterman(field, nu: Elt, mu: Elt, c: Elt, **kw) -> CyclotomicInteger:
    """S(nu, mu; c) = S_{(c)}(nu, mu; c) for integral nonzero c."""
    m = principal_ideal(c) if abs(c.norm()) != 1 else unit_ideal(field)
    return kloosterman_exact(KloostermanQuery(field, nu, mu, m, c), **kw)


def lemma41_value(field, p: Elt, eps1: Elt, eps2: Elt, r: Elt, e: int,
                  **kw) -> int:
    """S(delta^-1 eps1, delta^-1 r; eps2 p^e) for a prime element p | r.

    Evaluates the sum exactly and asserts the closed form: -1 when e = 1 and
    0 when e > 1.
    """
    delta = _require_delta(field)
    if not _is_prime_element(p):
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
    assert n == expected, f"closed form violated: got {val}, expected {expected}"
    return n


@dataclass
class IdentityReport:
    holds: bool
    lhs: CyclotomicInteger
    rhs: CyclotomicInteger
    outside_hypotheses: bool = False
    detail: str = ""


def selberg_check(field, nu: Elt, mu: Elt, q: Elt, **kw) -> IdentityReport:
    """Exact check of the divisor-sum expansion of S(d^-1 nu, d^-1 mu; q).

    The right-hand side runs over principal ideals (d) dividing (nu, mu, q);
    generator choice does not affect the summands.  Fields without narrow
    class number one are reported as outside the identity's hypotheses.
    """
    delta = _require_delta(field)
    if q.is_zero() or not q.is_integral():
        raise PreconditionViolated("q must be a nonzero integral element")
    for t in (nu, mu):
        if not t.is_integral():
            raise PreconditionViolated("nu, mu must be integral")
    outside = not field.narrow_h1
    lhs = principal_kloosterman(field, nu / delta, mu / delta, q, **kw)
    gens = [g for g in (nu, mu, q) if not g.is_zero()]
    gcd_ideal = ideal_from_generators(gens)
    rhs = CyclotomicInteger.zero()
    for dd in divisors(gcd_ideal):
        g = is_principal(dd)
        if g is None:
            raise NonPrincipalDivisor(dd)
        term = principal_kloosterman(field, field.one() / delta,
                                     (nu * mu) / (g * g) / delta, q / g, **kw)
        rhs = rhs + dd.norm() * term
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
    if not _is_prime_element(p):
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
