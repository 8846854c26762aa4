"""Independent oracles used to pin expected values.

These deliberately avoid the package's interval/cyclotomic code paths:
rational-arithmetic Bessel series, mpmath high-precision reference values,
a direct floating summation of the truncated Poincare coefficient sum, an
exhaustive search for the fundamental unit, and Kloosterman membership by
fractional-ideal arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
from mpmath import iv, mp

from hilbertpoincare.ideals import (FractionalIdeal, different_ideal,
                                    element_ideal)
from hilbertpoincare.kloosterman import KloostermanQuery
from hilbertpoincare.poincare import CoefficientEvaluator, chi_mu
from hilbertpoincare.residues import residue_ring


# -- Bessel: exact-rational series with alternating/geometric remainder -----

def besselj_rational(order: int, x: Fraction, tol=Fraction(1, 10**30)):
    """(lo, hi) rational bounds for J_order(x) at rational x >= 0."""
    x = Fraction(x)
    t = (x / 2) ** order / math.factorial(order)
    s = t
    m = 0
    while True:
        m += 1
        t = -t * (x / 2) ** 2 / (m * (order + m))
        s += t
        ratio = (x / 2) ** 2 / ((m + 1) * (order + m + 1))
        if ratio < 1:
            rem = abs(t) * ratio / (1 - ratio)
            if rem < tol:
                return s - rem, s + rem


def besselj_upward_recurrence(n: int, x: Fraction, tol=Fraction(1, 10**30)):
    """(lo, hi) for J_n(x) via J_{m+1} = (2m/x) J_m - J_{m-1} from J_0, J_1.

    Rational interval arithmetic throughout; fine for small n and moderate x
    (the recurrence loses accuracy when n >> x).
    """
    lo0, hi0 = besselj_rational(0, x, tol)
    lo1, hi1 = besselj_rational(1, x, tol)
    if n == 0:
        return lo0, hi0
    prev, cur = (lo0, hi0), (lo1, hi1)
    for m in range(1, n):
        c = Fraction(2 * m) / x
        cand = [c * cur[0] - prev[1], c * cur[0] - prev[0],
                c * cur[1] - prev[1], c * cur[1] - prev[0]]
        prev, cur = cur, (min(cand), max(cand))
    return cur


def besselj_rational_order0(x: Fraction, tol=Fraction(1, 10**30)):
    """J_0 series needs its own start (no such term in the package path)."""
    x = Fraction(x)
    t = Fraction(1)
    s = t
    m = 0
    while True:
        m += 1
        t = -t * (x / 2) ** 2 / (m * m)
        s += t
        ratio = (x / 2) ** 2 / ((m + 1) * (m + 1))
        if ratio < 1:
            rem = abs(t) * ratio / (1 - ratio)
            if rem < tol:
                return s - rem, s + rem


# patch order-0 into the series helper
def _besselj_rational_any(order, x, tol=Fraction(1, 10**30)):
    if order == 0:
        return besselj_rational_order0(x, tol)
    return besselj_rational(order, x, tol)


besselj_rational_any = _besselj_rational_any


# -- direct-summation Poincare coefficient oracle ---------------------------

def poincare_truncated_oracle(params, nu, mu, X, M, prec_bits: int = 200):
    """chi + prefactor * truncated double sum, summed directly at high
    precision with mpmath (complex-exponential Kloosterman terms and
    mpmath.besselj); shares only the representative enumeration with the
    package."""
    old = mp.prec
    mp.prec = prec_bits
    try:
        F = params.field
        k = params.k
        ev = CoefficientEvaluator(params, nu, mu)
        classes = ev.classes_upto(X)
        sqd = mp.sqrt(F.d)
        w1 = (F.c1 + sqd) / 2 if F.basis_kind == "half" else sqd
        w2 = (F.c1 - sqd) / 2 if F.basis_kind == "half" else -sqd

        def emb(e, which):
            w = w1 if which == 1 else w2
            return (mp.mpf(e.a) + mp.mpf(e.b) * w) / mp.mpf(e.den)

        total = mp.mpf(0)
        for (t, m, c_elt, modulus) in classes:
            ring = residue_ring(modulus)
            c1a, c2a = abs(emb(c_elt, 1)), abs(emb(c_elt, 2))
            for j in range(-M, M + 1):
                eps = F.eps_plus_pow(j)
                if modulus.norm() == 1:
                    s_val = mp.mpf(1)
                else:
                    q = KloostermanQuery(F, nu, eps * mu, modulus, c_elt)
                    r1, r2, s1, s2 = q.trace_data()
                    s_val = mp.mpf(0)
                    for (u, v, ui, vi) in ring.unit_data():
                        tr = r1 * u + r2 * v + s1 * ui + s2 * vi
                        s_val += mp.cos(2 * mp.pi * mp.mpf(tr.numerator)
                                        / mp.mpf(tr.denominator))
                z = nu * eps * mu
                x1 = 4 * mp.pi * mp.sqrt(emb(z, 1)) / c1a
                x2 = 4 * mp.pi * mp.sqrt(emb(z, 2)) / c2a
                mfrac = Fraction(m)
                total += (s_val * mp.mpf(mfrac.denominator) / mp.mpf(mfrac.numerator)
                          * mpmath.besselj(k - 1, x1) * mpmath.besselj(k - 1, x2))
        nn, nm = Fraction(nu.norm()), Fraction(mu.norm())
        pref = (mp.sqrt(mp.mpf(nn.numerator) / nn.denominator
                        / (mp.mpf(nm.numerator) / nm.denominator)) ** (k - 1)
                * (2 * mp.pi) ** 2
                * mp.mpf(params.norm_cd().numerator) / mp.mpf(params.norm_cd().denominator)
                / mp.sqrt(F.D))
        return chi_mu(nu, mu) + pref * total
    finally:
        mp.prec = old


# -- fundamental unit: exhaustive search on the omega-coefficient -------------

def pell_search_fundamental_unit(d: int):
    """(a, b, norm) of the smallest unit a + b*omega > 1 of Q(sqrt d).

    For each b >= 1 the two unit norms force a^2 (resp. s^2 = (2a + b)^2)
    to one of two integers; the first b admitting a solution gives the
    fundamental unit, taking the smaller root when both norms admit one.
    """
    for b in range(1, 10**6):
        n = d * b * b
        if d % 4 != 1:
            for s2, nrm in ((n - 1, -1), (n + 1, 1)):
                if math.isqrt(s2) ** 2 == s2:
                    return math.isqrt(s2), b, nrm
        else:
            for s2, nrm in ((n - 4, -1), (n + 4, 1)):
                s = math.isqrt(s2)
                if s * s == s2 and (s - b) % 2 == 0:
                    return (s - b) // 2, b, nrm
    raise AssertionError(f"no unit with b < 10^6 for d = {d}")


# -- Kloosterman membership by fractional ideals ------------------------------

def in_kloosterman_domain(field, t, modulus, c) -> bool:
    """Is t in c*(m d)^{-1}?  Decided with fractional-ideal products and an
    inverse rather than traces."""
    if t.is_zero():
        return True
    dom = element_ideal(c) / (FractionalIdeal(modulus)
                              * FractionalIdeal(different_ideal(field)))
    return dom.contains(t)


# -- fixed-point trig tables: one iv.cos per entry ------------------------------

def _raw_fraction(raw) -> Fraction:
    sign, man, exp, _bc = raw
    v = man * Fraction(2) ** exp
    return -v if sign else v


def cos_table_direct(M: int, precision: int):
    """(floors, ceilings) of 2^precision * cos(2 pi j / M) for every j < M,
    each entry from its own iv.cos at precision + 32 bits."""
    old = iv.prec
    iv.prec = max(old, precision + 32)
    try:
        two_pi = 2 * iv.pi
        scale = iv.mpf(2) ** precision
        los, his = [], []
        for j in range(M):
            a, b = (iv.cos(two_pi * iv.mpf(j) / iv.mpf(M)) * scale)._mpi_
            los.append(math.floor(_raw_fraction(a)))
            his.append(math.ceil(_raw_fraction(b)))
    finally:
        iv.prec = old
    return tuple(los), tuple(his)
