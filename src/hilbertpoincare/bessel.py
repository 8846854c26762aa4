"""Rigorous enclosures of J-Bessel values via the ascending power series.

J_n(x) = sum_{m>=0} (-1)^m (x/2)^(n+2m) / (m! (n+m)!).  Once the term ratio
(x/2)^2/((m+1)(n+m+1)) drops below 1 the remaining tail is dominated by a
geometric series, giving an explicit remainder bound.  The series is summed
in integer fixed point at scale 2^wp, with a lower and an upper bound for
every term, each rounded in its own direction (F. Johansson, "Computing
hypergeometric functions rigorously", ACM TOMS 45(3), 2019).  wp grows with
the argument to absorb the cancellation of the alternating sum (largest term
is about e^x while the value is at most 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import iv
from mpmath.libmp import from_man_exp, round_ceiling, round_floor

from .intervals import hi, iv_pow_frac, lo, prec_guard

ARG_CAP = 20000.0  # beyond this the series is not attempted; [-1,1] is returned


@dataclass
class BesselEval:
    order: int
    argument: object   # input interval
    value: object      # enclosure interval
    exact_enough: bool  # False when the precision ladder gave up


def _floor_ceil(num: int, shift: int, den: int):
    """Floor and ceiling of num * 2^shift / den for num >= 0, den > 0."""
    if shift >= 0:
        num <<= shift
    else:
        den <<= -shift
    return num // den, -(-num // den)


def besselj_eval(order: int, x, precision: int = 64) -> BesselEval:
    """Enclosure of J_order over the nonnegative interval x.

    The alternating series is summed at the left endpoint a of the argument
    interval (its largest term, about e^x, would otherwise amplify the
    argument's width); the rest of the interval is covered by the derivative
    bound |J_n'| <= 1, adding +- width(x).  Terms are integers at scale 2^wp
    with lo_t <= 2^wp |t_m| <= hi_t, each step rounded in its own direction,
    so the partial sum lies in [s_lo, s_hi] exactly.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if lo(x) < 0:
        x = iv.mpf([0, max(hi(x), 0)])
    if hi(x) == 0:
        return BesselEval(order, x, iv.mpf(0), True)
    xhi = float(hi(x))
    if xhi > ARG_CAP:
        return BesselEval(order, x, iv.mpf([-1, 1]), False)
    wp = precision + int(1.5 * xhi) + 48
    (_, man, e, _), (_, man_hi, e_hi, _) = x._mpi_   # a = man * 2^e >= 0
    # h = 2^wp (a/2)^2 (exact when wp >= 2 - 2e); t_0 = (a/2)^order / order!
    h_lo, h_hi = _floor_ceil(man * man, 2 * e - 2 + wp, 1)
    lo_t, hi_t = _floor_ceil(man ** order, order * (e - 1) + wp,
                             math.factorial(order))
    s_lo, s_hi = lo_t, hi_t
    m = 0
    tol = 1 << (wp - precision - 8)   # 2^-(precision+8) at scale 2^wp
    max_iter = int(2 * xhi) + 4 * order + 240
    while True:
        m += 1
        d = m * (order + m)
        lo_t = ((lo_t * h_lo) >> wp) // d
        hi_t = -(((-hi_t * h_hi) >> wp) // d)
        if m & 1:
            s_lo, s_hi = s_lo - hi_t, s_hi - lo_t
        else:
            s_lo, s_hi = s_lo + lo_t, s_hi + hi_t
        ratio_hi = 1.0000001 * (xhi / 2) ** 2 / ((m + 1) * (order + m + 1))
        if ratio_hi < 1:
            # tail <= |t_m| r / (1 - r), rounded up exactly for r = p/q
            p, q = ratio_hi.as_integer_ratio()
            rem = -(-hi_t * p // (q - p))
            if rem < tol or m > max_iter:
                # series tail + width * |J'| <= 1, then clipped to [-1, 1]
                pad = (rem + _floor_ceil(man_hi, e_hi + wp, 1)[1]
                       - _floor_ceil(man, e + wp, 1)[0])
                one = 1 << wp
                ends = (from_man_exp(max(s_lo - pad, -one), -wp, wp, round_floor),
                        from_man_exp(min(s_hi + pad, one), -wp, wp, round_ceiling))
                return BesselEval(order, x, iv.make_mpf(ends), rem < tol)


def besselJ(order: int, x, precision: int = 64):
    """Enclosure interval of J_order(x); always within [-1, 1]."""
    return besselj_eval(order, x, precision).value


def envelope(k: int, x, eta=Fraction(0)) -> object:
    """Upper bound (e*x/(2k-2))^(k-1-eta) for |J_{k-1}|, outward rounded.

    x may be a number or interval; the bound is evaluated at its upper end,
    where it is monotone increasing.
    """
    eta = Fraction(eta)
    if not (0 <= eta < 1):
        raise ValueError("eta must be in [0, 1)")
    with prec_guard(64):
        xh = hi(x) if hasattr(x, "_mpi_") else iv.mpf(x)
        if hasattr(xh, "_mpi_"):
            xh = hi(xh)
        if xh <= 0:
            return iv.mpf(0)
        base = iv.e * iv.mpf(xh) / iv.mpf(2 * k - 2)
        return iv_pow_frac(base, Fraction(k - 1) - eta)


def envelope_hi(k: int, x, eta=Fraction(0)):
    e = envelope(k, x, eta)
    return hi(e) if hasattr(e, "_mpi_") else e


def nj_product(k: int, arg1, arg2, precision: int = 64):
    """Enclosure of J_{k-1}(arg1) * J_{k-1}(arg2) (the two-embedding factor)."""
    with prec_guard(precision):
        return besselJ(k - 1, arg1, precision) * besselJ(k - 1, arg2, precision)
