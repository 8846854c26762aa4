"""The integer term kernel of `CoefficientEvaluator.term` against a 300-bit
reference, and each of its steps on exact points.

A term is S(nu, eps_plus^j mu; c) J_{k-1}(x1) J_{k-1}(x2).  The reference
takes S as the cosines of the exact Z[zeta_M] value, the arguments embedded
directly from nu eps_plus^j mu, and mpmath's besselj, all at 300 bits.  Each
argument, each Bessel factor, each term and each class sum the kernel
encloses must contain its reference, and each term may be at most a few ulps
wider than the same term taken through precision-bit interval arithmetic
(S, arguments and products each rounded to the precision), or narrower.
"""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import iv
from mpmath.libmp import to_rational

from hilbertpoincare import poincare
from hilbertpoincare.bessel import ARG_CAP, besselj_eval
from hilbertpoincare.errors import BudgetExceeded
from hilbertpoincare.field import make_field
from hilbertpoincare.intervals import (exact_add, exact_mul, from_fixed, hi, lo,
                                       prec_guard, quotient_iv, scaled_div,
                                       scaled_iv, scaled_mul)
from hilbertpoincare.kloosterman import KloostermanQuery, kloosterman_exact
from hilbertpoincare.poincare import CoefficientEvaluator, PoincareParams

from oracles import besselj_interval, fixed_fractions

REF = 300


def _q(x) -> Fraction:
    """An mpf, or an interval end, as an exact Fraction."""
    return Fraction(*to_rational(getattr(x, "_mpf_", x)))


def _inside(t, value) -> bool:
    a, b = fixed_fractions(t)
    return a <= _q(value) <= b


def _reference(F, nu, mu, cls, j, k):
    """(x1, x2, J1, J2, S * J1 * J2) at REF bits, as mpfs."""
    _, _, c, modulus = cls
    z = nu * F.eps_plus ** j * mu
    # the small embedding of eps_plus^j cancels about twice the bit length of
    # its coordinates
    bits = REF + 2 * max(abs(z.a), abs(z.b)).bit_length()
    with prec_guard(bits):
        xs = [4 * iv.pi * iv.sqrt(zi) / abs(ci)
              for zi, ci in zip(z.embeddings(bits), c.embeddings(bits))]
    q = KloostermanQuery(F, nu, F.eps_plus ** j * mu, modulus, c)
    value = kloosterman_exact(q, 10 ** 6)
    with mpmath.workprec(REF):
        xs = [(lo(x) + hi(x)) / 2 for x in xs]
        M = value.order   # cos 2 pi i/M = cos 2 pi (M - i)/M, summed from one value
        s = mpmath.fsum(v * mpmath.cospi(mpmath.mpf(2 * min(i, M - i)) / M)
                        for i, v in enumerate(value.coeffs) if v)
        js = [mpmath.besselj(k - 1, x) for x in xs]
        return xs[0], xs[1], js[0], js[1], s * js[0] * js[1]


def _interval_term(ev, cls, j):
    """The term through precision-bit intervals: S from the same integer
    cosine sum, each argument g_i A^(+-j)/|s_i(c)| and each product rounded
    to the precision, the Bessel factors from the kernel on those arguments."""
    p, F = ev.precision, ev.F
    _, _, c, modulus = cls
    with prec_guard(p):
        g = [4 * iv.pi * iv.sqrt(e) for e in (ev.nu * ev.mu).embeddings(p)]
        b = [gi / abs(ci) for gi, ci in zip(g, c.embeddings(p))]
        a = iv.mpf(1)
        for _ in range(abs(j)):
            a *= F.A_interval(p)
        x1, x2 = (b[0] * a, b[1] / a) if j >= 0 else (b[0] / a, b[1] * a)
        q = KloostermanQuery(F, ev.nu, F.eps_plus ** j * ev.mu, modulus, c)
        try:
            s = from_fixed(*kloosterman_exact(q, ev.enum_budget).real_interval(p), p, p + 16)
        except BudgetExceeded:
            n = modulus.norm()
            s = iv.mpf([-n, n])
        return (s * besselj_interval(ev.k - 1, x1, p)[0]
                * besselj_interval(ev.k - 1, x2, p)[0])


def _check_terms(ev, X, M, monkeypatch):
    """Every argument, Bessel factor, term and class sum of `ev` over the
    classes up to X and the exponents |j| <= M against the reference."""
    bessel, terms = [], []
    real_bessel, real_term = poincare.besselj_eval, ev.term

    def recorded_bessel(order, x, precision):
        res = real_bessel(order, x, precision)
        bessel.append((x, res.value))
        return res

    def recorded_term(cls, j, rings=None):
        del bessel[:]
        t = real_term(cls, j, rings)
        terms.append((j, t, bessel[:]))
        return t

    monkeypatch.setattr(poincare, "besselj_eval", recorded_bessel)
    monkeypatch.setattr(ev, "term", recorded_term)
    F, p = ev.F, ev.precision
    for cls in ev.classes_upto(X):
        del terms[:]
        with prec_guard(p):
            got = ev._class_sum(cls, M, {}, -math.inf, [0, 0])   # no term bounded
        assert sorted(j for j, _, _ in terms) == list(range(-M, M + 1))
        total = Fraction(0)
        for j, t, ((ax1, v1), (ax2, v2)) in terms:
            x1, x2, j1, j2, ref = _reference(F, ev.nu, ev.mu, cls, j, ev.k)
            where = (F.d, ev.k, p, cls[3], j)
            assert _inside(ax1, x1) and _inside(ax2, x2), where
            assert _inside(v1, j1) and _inside(v2, j2), where
            assert _inside(t, ref), where
            # at most a few ulps wider than the interval term, or narrower
            old = _interval_term(ev, cls, j)
            t_lo, t_hi = fixed_fractions(t)
            top = max(abs(lo(old)), abs(hi(old)))
            ulp = Fraction(2) ** (mpmath.mag(top) - p) if top else 0
            assert t_hi - t_lo <= _q(hi(old)) - _q(lo(old)) + 4 * ulp, where
            total += _q(ref)
        assert _q(lo(got)) <= total / Fraction(cls[1]) <= _q(hi(got)), cls[3]
    return len(ev.classes_upto(X))


@pytest.mark.parametrize("precision", (16, 64, 96, 200))
@pytest.mark.parametrize("k", (6, 8, 12, 24))
@pytest.mark.parametrize("d", (2, 5, 13))
def test_terms_contain_the_300_bit_reference(d, k, precision, monkeypatch):
    F = make_field(d)
    nu, mu = F.one(), F.elt(3, 1) if d == 2 else F.one()
    ev = CoefficientEvaluator(PoincareParams(F, k), nu, mu, precision=precision)
    assert _check_terms(ev, 60, 6, monkeypatch) > 2


def test_over_budget_ring_contains_the_reference(F5, monkeypatch):
    # a ring over the residue budget gives |S| <= N(m); the term still holds
    # the exact one
    ev = CoefficientEvaluator(PoincareParams(F5, 8), F5.one(), F5.one(), enum_budget=10)
    assert any(cls[3].norm() > 10 for cls in ev.classes_upto(60))
    assert _check_terms(ev, 60, 2, monkeypatch) > 0


def test_kernel_above_the_argument_cap():
    # past ARG_CAP the factor is [-1, 1]; a huge argument is not converted to
    # a float, whatever its scale
    order = 7
    for x in (ARG_CAP + 1, 4095.5, 2 ** 40, 2 ** 1100):
        for w in (-30, 0, 60, 1200):
            v = Fraction(x) * Fraction(2) ** w
            res = besselj_eval(order, (math.floor(v), math.ceil(v), w), 64)
            assert res.value == (-1, 1, 0) and not res.exact_enough, (x, w)
    with mpmath.workprec(REF):
        truth = mpmath.besselj(order, ARG_CAP + 1)
    assert _inside(besselj_eval(order, (int(ARG_CAP) + 1, int(ARG_CAP) + 1, 0), 64).value, truth)


def _dyadic(rng, bits=40):
    a = rng.randint(-2 ** bits, 2 ** bits)
    b = a + rng.randint(0, 2 ** (bits // 2))
    return a, b, rng.randint(-20, 60)


def test_kernel_steps_on_exact_points():
    # each step on exact inputs: its enclosure holds the exact result, and the
    # exact steps return it
    rng = random.Random(29)
    for _ in range(2000):
        x, y = _dyadic(rng), _dyadic(rng)
        (xl, xh), (yl, yh) = fixed_fractions(x), fixed_fractions(y)
        prods = [s * t for s in (xl, xh) for t in (yl, yh)]
        assert fixed_fractions(exact_mul(x, y)) == (min(prods), max(prods))
        assert fixed_fractions(exact_add(x, y)) == (xl + yl, xh + yh)
        # the rounding steps on positive points hold the exact value
        px, py = (abs(x[0]) + 1,) * 2 + x[2:], (abs(y[1]) + 1,) * 2 + y[2:]
        (qx, _), (qy, _) = fixed_fractions(px), fixed_fractions(py)
        with prec_guard(53):
            pt = iv.mpf(qx.numerator) / qx.denominator
        for bits in (8, 24, 80):
            for got, exact in ((scaled_mul(px, py, bits), qx * qy),
                               (scaled_div(px, py, bits), qx / qy),
                               (scaled_iv(pt, bits), _q(lo(pt)))):
                a, b = fixed_fractions(got)
                assert a <= exact <= b, (px, py, bits)
        # the class division, on a point and on an interval
        m = Fraction(rng.randint(1, 10 ** 4), rng.randint(1, 50))
        for t in ((x[0], x[0], x[2]), x):
            v = quotient_iv(t, m, 53)
            a, b = fixed_fractions(t)
            assert _q(lo(v)) <= a / m and b / m <= _q(hi(v)), (t, m)


@pytest.mark.parametrize("k", (6, 8, 24))
@pytest.mark.parametrize("d", (2, 5, 13))
def test_term_bound_encloses_the_term(d, k):
    # [-B, B] from |S| <= N(m) and the factorial envelope holds the triple
    # `term` returns.  At k = 24 a tiny factor J is enclosed by the Bessel
    # kernel to an absolute 2^-(precision+8), so there the triple may be the
    # wider one, and B must hold the 300-bit reference instead.
    F = make_field(d)
    nu, mu = F.one(), F.elt(3, 1) if d == 2 else F.one()
    ev = CoefficientEvaluator(PoincareParams(F, k), nu, mu)
    wider = 0
    for cls in ev.classes_upto(60):
        for j in range(-6, 7):
            t_lo, t_hi = fixed_fractions(ev.term(cls, j))
            b_lo, b_hi = fixed_fractions(ev.term_bound(cls, j, ev._terms[cls[3].key()][:2]))
            assert b_lo == -b_hi and b_lo <= t_hi and t_lo <= b_hi, (cls[3], j)
            if b_lo <= t_lo and t_hi <= b_hi:
                continue
            assert k == 24, (cls[3], j)
            wider += 1
            ref = _q(_reference(F, nu, mu, cls, j, k)[4])
            assert b_lo <= ref <= b_hi, (cls[3], j)
    assert k == 24 or wider == 0
