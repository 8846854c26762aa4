"""Thin helpers over mpmath's interval arithmetic.

A rigorous real enclosure in this package is an mpmath ``iv.mpf`` value or,
inside the integer kernels (the Bessel series, the cosine tables, the terms
of a coefficient, the tail's sums of powers and zeta_F), integer bounds in
fixed point (below).  mpmath rounds interval endpoints outward, so any
sequence of interval operations started from exact inputs yields a true
enclosure; the fixed-point helpers round each end in its own direction.
Rational powers x^-s of rationals in fixed point come from one kernel,
``inv_pow_fixed``: an integer root (``iroot``) of a scaled exact power, with
no exp or log.  These helpers centralize exact-rational conversion, endpoint
extraction, the fixed-point formats and rendering.

mpmath keeps the working precision as process state, in two contexts: ``iv``
for intervals and ``mp`` for the plain mpfs that endpoint arithmetic (``abs``,
``-``) rounds at.  So the precision is an argument: a function that computes
an enclosure takes it and runs under ``prec_guard(bits)``, which sets both
contexts to exactly that many bits, so a result never depends on the
precision of its caller.  Printed numbers are outward too: ``dec_str`` rounds
a lower bound down and an upper bound up.
"""

from __future__ import annotations

import decimal
import math
from contextlib import contextmanager
from fractions import Fraction

import mpmath
from mpmath import iv
from mpmath.libmp import from_man_exp, mpf_shift, round_ceiling, round_floor, to_int

DEFAULT_PREC = 96
# for estimates that an exact test decides afterwards, or bounds whose
# tightness nothing relies on
ESTIMATE_PREC = 64


@contextmanager
def prec_guard(bits):
    """Run a block with both mpmath contexts at exactly `bits` (at least 16),
    and restore both on exit."""
    old = iv.prec, mpmath.mp.prec
    iv.prec = mpmath.mp.prec = max(int(bits), 16)
    try:
        yield
    finally:
        iv.prec, mpmath.mp.prec = old


def iv_from_fraction(q) -> "iv.mpf":
    """Enclosure of an exact rational (int or Fraction)."""
    if isinstance(q, int):
        return iv.mpf(q)
    q = Fraction(q)
    if q.denominator == 1:
        return iv.mpf(q.numerator)
    return iv.mpf(q.numerator) / iv.mpf(q.denominator)


def iv_sqrt_fraction(q):
    """Enclosure of sqrt of a nonnegative rational."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("sqrt of negative rational")
    return iv.sqrt(iv_from_fraction(q))


def lo(x) -> mpmath.mpf:
    """Lower endpoint as a plain mpf, exactly (never rounded to mp.prec)."""
    return mpmath.mp.make_mpf(x._mpi_[0])


def hi(x) -> mpmath.mpf:
    """Upper endpoint as a plain mpf, exactly (never rounded to mp.prec)."""
    return mpmath.mp.make_mpf(x._mpi_[1])


def width(x) -> mpmath.mpf:
    """Upper bound for the width of the interval."""
    return mpmath.fsub(hi(x), lo(x), rounding="u")


def sup_abs(x) -> mpmath.mpf:
    """Upper bound for |t| over t in the interval."""
    return max(abs(lo(x)), abs(hi(x)))


def contains(x, value) -> bool:
    """Does the interval contain the given mpf/int/Fraction value?

    For Fraction values the test is done against an enclosure of the value,
    so True is only reported when containment is certain.
    """
    if isinstance(value, Fraction):
        v = iv_from_fraction(value)
        return lo(x) <= lo(v) and hi(v) <= hi(x)
    v = mpmath.mpf(value)
    return lo(x) <= v <= hi(x)


def overlaps(x, y) -> bool:
    return lo(x) <= hi(y) and lo(y) <= hi(x)


def iv_pow_frac(x, p: Fraction):
    """x**p for a positive interval x and exact rational exponent p."""
    p = Fraction(p)
    if p.denominator == 1:
        return x ** int(p)
    if lo(x) < 0:
        raise ValueError("fractional power of non-positive interval")
    if p.denominator == 2:
        return iv.sqrt(x ** p.numerator) if p.numerator >= 0 else 1 / iv.sqrt(x ** (-p.numerator))
    return iv.exp(iv.log(x) * iv_from_fraction(p))


# Fixed point: a real interval held as integer bounds (lo, hi) on 2^wp times
# it, each end rounded in its own direction.

def floor_ceil(num: int, shift: int, den: int = 1):
    """Floor and ceiling of num * 2^shift / den for den > 0: the bounds of a
    fixed-point value at scale 2^shift."""
    if shift >= 0:
        num <<= shift
    else:
        den <<= -shift
    return num // den, -(-num // den)


def fixed_iv(x, wp: int):
    """Integer bounds on 2^wp times the interval x, rounded outward."""
    a, b = x._mpi_
    return to_int(mpf_shift(a, wp), round_floor), to_int(mpf_shift(b, wp), round_ceiling)


def fixed_mul(x, y, wp: int):
    """x * y for fixed-point intervals at scale 2^wp with y >= 0, rounded
    outward."""
    (a, b), (c, d) = x, y
    return a * (c if a >= 0 else d) >> wp, -(-b * (d if b >= 0 else c) >> wp)


def from_fixed(a: int, b: int, wp: int, precision: int):
    """The interval [a, b] / 2^wp, each end rounded outward to `precision`
    bits."""
    return iv.make_mpf((from_man_exp(a, -wp, precision, round_floor),
                        from_man_exp(b, -wp, precision, round_ceiling)))


def iroot(n: int, b: int) -> int:
    """floor(n^(1/b)) for integers n >= 0 and b >= 1, by Newton's method on
    int from a float estimate.

    One step y = floor(((b-1) x + floor(n / x^(b-1))) / b) from any x > 0
    gives y >= floor(n^(1/b)): the two floors merge into one, and the mean
    of b-1 copies of x and n / x^(b-1) is at least n^(1/b).  From such an x
    the steps decrease strictly while x^b > n, so the first step that does
    not decrease leaves x = floor(n^(1/b)).  The estimate only sets how few
    steps that takes."""
    if b == 1 or n < 2:
        return n
    if b == 2:
        return math.isqrt(n)
    drop = max(n.bit_length() - 64, 0)
    e = (math.log2(n >> drop) + drop) / b          # log2 of the root, about
    keep = max(int(e) - 52, 0)
    x = max(int(2.0 ** (e - keep)), 1) << keep
    x = ((b - 1) * x + n // x ** (b - 1)) // b
    while True:
        y = ((b - 1) * x + n // x ** (b - 1)) // b
        if y >= x:
            return x
        x = y


def inv_pow_fixed(x, s, wp: int):
    """Integer bounds lo <= 2^wp x^-s <= hi with hi - lo <= 1, for a positive
    rational x = P/Q and a rational s = a/b, b > 0.

    With v = 2^wp x^-s, v^b = n = Q^a 2^(b wp) / P^a exactly (for a < 0,
    P^-a 2^(b wp) / Q^-a), and t -> t^b is increasing on t >= 0.
    lo = iroot(floor(n), b): lo^b <= floor(n) <= n, so lo <= v.
    hi = lo when n = lo^b exactly (then lo = v), else lo + 1: the integer
    (lo + 1)^b exceeds floor(n), so it is at least ceil(n) >= n, and
    lo + 1 >= v.  This is the root of ceil(n) raised by one unless its b-th
    power is ceil(n), from one root instead of two."""
    P, Q = x.as_integer_ratio()
    a, b = s.as_integer_ratio()
    if a < 0:
        P, Q, a = Q, P, -a
    n_lo, n_hi = floor_ceil(Q ** a, b * wp, P ** a)
    r = iroot(n_lo, b)
    return r, (r if n_lo == n_hi and r ** b == n_lo else r + 1)


# A scaled fixed-point value carries its scale: (lo, hi, w) bounds 2^w times
# it.  The exact_ helpers lose nothing; the scaled_ ones keep about `bits`
# bits, rounding each end outward.

def scaled_iv(x, bits: int):
    """(lo, hi, w) for the positive interval x, rounded outward, with w chosen
    so that hi has about `bits` bits whatever the magnitude of x."""
    _, man, exp, bc = x._mpi_[1]
    w = bits - exp - bc
    return (*fixed_iv(x, w), w)


def scaled_mul(x, y, bits: int):
    """x * y for nonnegative triples, shifted down to about `bits` bits with
    the lower end floored and the upper end ceiled: the result gains at most
    one unit at its scale on each side."""
    (a, b, u), (c, d, v) = x, y
    lo, hi = a * c, b * d
    s = max(hi.bit_length() - bits, 0)
    return lo >> s, -(-hi >> s), u + v - s


def scaled_div(x, y, bits: int):
    """x / y for positive triples, to about `bits` bits with the lower end
    floored and the upper end ceiled: at most one unit lost on each side."""
    (a, b, u), (c, d, v) = x, y
    s = bits + c.bit_length() - b.bit_length() + 1
    return floor_ceil(a, s, d)[0], floor_ceil(b, s, c)[1], u - v + s


def exact_mul(x, y):
    """x * y for triples of any signs, exactly: the hull of the four end
    products, at the sum of the scales."""
    (a, b, u), (c, d, v) = x, y
    p = (a * c, a * d, b * c, b * d)
    return min(p), max(p), u + v


def exact_add(x, y):
    """x + y for triples, exactly: the coarser one is shifted up to the finer
    scale."""
    (a, b, u), (c, d, v) = x, y
    if u < v:
        a, b, u = a << (v - u), b << (v - u), v
    elif v < u:
        c, d = c << (u - v), d << (u - v)
    return a + c, b + d, u


def quotient_iv(x, q: Fraction, precision: int):
    """The triple x divided by the rational q > 0, as an interval: floor
    below and ceiling above at x's scale (under one unit lost), then each end
    rounded outward to `precision` bits."""
    a, b, w = x
    num, den = q.as_integer_ratio()
    return from_fixed(a * den // num, -(-b * den // num), w, precision)


def iv_max(x, y):
    """Interval enclosure of max(s, t) over s in x, t in y."""
    return iv.mpf([max(lo(x), lo(y)), max(hi(x), hi(y))])


def iv_min(x, y):
    """Interval enclosure of min(s, t) over s in x, t in y."""
    return iv.mpf([min(lo(x), lo(y)), min(hi(x), hi(y))])


DIGITS = 20


def dec_str(x, up: bool) -> str:
    """The mpf x in DIGITS significant digits, rounded up (toward +inf) if
    `up`, else down: its exact value man * 2^exp divided out by the decimal
    module, laid out as mpmath.nstr lays it out."""
    sign, man, exp, _ = x._mpf_
    if not man:                   # 0, +-inf and nan print exactly
        return mpmath.nstr(x, DIGITS)
    ctx = decimal.Context(DIGITS, rounding=decimal.ROUND_CEILING if up else decimal.ROUND_FLOOR)
    d = ctx.divide((-1) ** sign * man << max(exp, 0), 1 << max(-exp, 0))
    e = d.adjusted()
    fixed = -6 < e < DIGITS
    head, _, tail = format(d if fixed else d.scaleb(-e), "f").partition(".")
    return head + "." + (tail.rstrip("0") or "0") + ("" if fixed else "e%+d" % e)


def iv_ends(x) -> list:
    """The endpoints of the interval x as decimal strings, rounded outward."""
    return [dec_str(lo(x), False), dec_str(hi(x), True)]


def iv_str(x) -> str:
    return "[%s, %s]" % tuple(iv_ends(x))
