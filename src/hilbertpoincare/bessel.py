"""Rigorous enclosures of J-Bessel values via the ascending power series.

J_n(x) = sum_{m>=0} (-1)^m (x/2)^(n+2m) / (m! (n+m)!).  Once the term ratio
(x/2)^2/((m+1)(n+m+1)) drops below 1 the remaining tail is dominated by a
geometric series, giving an explicit remainder bound.  The series is summed
in integer fixed point at scale 2^wp, with a lower and an upper bound for
every term, each rounded in its own direction (F. Johansson, "Computing
hypergeometric functions rigorously", ACM TOMS 45(3), 2019).  wp grows with
the argument to absorb the cancellation of the alternating sum (largest term
is about e^x while the value is at most 1).  The argument comes in, and the
value goes out, as integer bounds with their scale, so a coefficient term
multiplies the value on in integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .intervals import floor_ceil

# Beyond this the series is not attempted and [-1, 1] is returned: a huge
# argument pairs with a negligible partner factor in a coefficient term.
ARG_CAP = 2500.0


@dataclass
class BesselEval:
    value: tuple        # (lo, hi, wp): integer bounds on 2^wp J, within +-2^wp
    exact_enough: bool  # False when the precision ladder gave up


def besselj_eval(order: int, x, precision: int) -> BesselEval:
    """Enclosure of J_order over the argument x = (lo, hi, w), integer bounds
    on 2^w times it (a negative lower end is read as 0).

    The alternating series is summed at the left endpoint a of the argument
    interval (its largest term, about e^x, would otherwise amplify the
    argument's width); the rest of the interval is covered by the derivative
    bound |J_n'| <= 1, adding +- width(x).  Terms are integers at scale 2^wp
    with lo_t <= 2^wp |t_m| <= hi_t, each step rounded in its own direction,
    so the partial sum lies in [s_lo, s_hi] exactly, and the value comes back
    as integer bounds at that scale.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    man, man_hi, w = x
    man, man_hi = max(man, 0), max(man_hi, 0)   # a = man / 2^w >= 0
    if man_hi == 0:
        return BesselEval((0, 0, 0), True)
    # hi(x) as a float; at 2^12 or more it is over the cap, unconverted
    xhi = (math.inf if man_hi.bit_length() - w > 12
           else man_hi / (1 << w) if w >= 0 else float(man_hi << -w))
    if xhi > ARG_CAP:
        return BesselEval((-1, 1, 0), False)
    wp = precision + int(1.5 * xhi) + 48
    # h = 2^wp (a/2)^2 (exact when wp >= 2w + 2); t_0 = (a/2)^order / order!
    h_lo, h_hi = floor_ceil(man * man, wp - 2 * w - 2, 1)
    lo_t, hi_t = floor_ceil(man ** order, wp - order * (w + 1),
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
                pad = (rem + floor_ceil(man_hi, wp - w, 1)[1]
                       - floor_ceil(man, wp - w, 1)[0])
                one = 1 << wp
                return BesselEval((max(s_lo - pad, -one), min(s_hi + pad, one), wp),
                                  rem < tol)

