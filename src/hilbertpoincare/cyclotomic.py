"""Exact arithmetic in Z[zeta_M], represented in Z[x]/(x^M - 1).

Addition and multiplication act coefficientwise / by cyclic convolution with
no basis choice.  Values of different orders are compared after lifting to
the lcm order.

The zero test is one projection.  For a prime p | M let T_p(w)[j] =
sum_{i<p} w[(j + i M/p) mod M], multiplication by sum_i x^(i M/p).  Then
v(zeta_M) = 0 exactly when prod_{p | M} (p - T_p) v = 0 in Z[x]/(x^M - 1).
Proof: x -> zeta_d splits Q[x]/(x^M - 1) into prod_{d | M} Q(zeta_d).  There
zeta_d^(M/p) is a p-th root of unity, so T_p acts as p when d | M/p and as
0 otherwise.  Every proper divisor d of M divides some M/p, so the product acts as rad(M) on
the zeta_M factor and as 0 on every other factor.  The projection costs one
running sum per residue mod M/p for each p.

A value is enclosed in one way: its coefficients are summed in integers
against a fixed-point table of outward-rounded 2^precision * cos(2 pi j / M)
for j <= M/2, one per order and precision, with w[j] + w[M - j] folded onto
entry j.  `real_interval` hands back those integer bounds, for a coefficient
term to multiply on in integers; `complex_interval` converts them to
intervals.  The table is the real parts of the powers of one rotation
exp(2 pi i / M), enclosed once by iv.cos/iv.sin and multiplied out in
integers as a midpoint with a radius that grows by a proven bound a step
(_cos_table_fixed).  The imaginary part is Re(-i v), and v * zeta_4^3 = -i v
lifts v to order lcm(M, 4) and rotates its coefficients by a quarter turn.  It
is an exact 0 when w[j] = w[M - j] for all j, as for every Kloosterman sum.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from mpmath import iv

from . import arith
from .intervals import fixed_iv, from_fixed, prec_guard


class CyclotomicInteger:
    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        if order < 1 or len(coeffs) != order:
            raise ValueError(f"{len(coeffs)} coefficients for order {order}")
        self.order = order
        self.coeffs = list(coeffs)

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls, order: int = 1):
        return cls(order, [0] * order)

    @classmethod
    def one(cls):
        return cls(1, [1])

    @classmethod
    def from_int(cls, n: int):
        return cls(1, [n])

    @classmethod
    def root_of_unity(cls, order: int, power: int):
        c = [0] * order
        c[power % order] = 1
        return cls(order, c)

    @classmethod
    def combination(cls, terms):
        """sum of n * v over the pairs (n, v), in one coefficient list at the
        lcm of the orders."""
        M = math.lcm(*(v.order for _, v in terms))
        c = [0] * M
        for n, v in terms:
            k = M // v.order
            c[::k] = [a + n * x for a, x in zip(c[::k], v.coeffs)]
        return cls(M, c)

    # -- arithmetic ---------------------------------------------------------
    def lift(self, M: int) -> "CyclotomicInteger":
        """Rewrite in Z[x]/(x^M - 1) for a multiple M of the order."""
        if M == self.order:
            return self
        if M % self.order:
            raise ValueError(f"order {self.order} does not divide {M}")
        k = M // self.order
        c = [0] * M
        for j, v in enumerate(self.coeffs):
            c[j * k] = v
        return CyclotomicInteger(M, c)

    def _pair(self, other):
        if isinstance(other, int):
            other = CyclotomicInteger.from_int(other)
        M = math.lcm(self.order, other.order)
        return self.lift(M), other.lift(M)

    def __add__(self, other):
        x, y = self._pair(other)
        return CyclotomicInteger(x.order, [a + b for a, b in zip(x.coeffs, y.coeffs)])

    def __sub__(self, other):
        x, y = self._pair(other)
        return CyclotomicInteger(x.order, [a - b for a, b in zip(x.coeffs, y.coeffs)])

    def __neg__(self):
        return CyclotomicInteger(self.order, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return CyclotomicInteger(self.order, [other * a for a in self.coeffs])
        x, y = self._pair(other)
        M = x.order
        out = [0] * M
        for i, a in enumerate(x.coeffs):
            if a:
                for j, b in enumerate(y.coeffs):
                    if b:
                        out[(i + j) % M] += a * b
        return CyclotomicInteger(M, out)

    __rmul__ = __mul__
    __radd__ = __add__

    def conjugate(self) -> "CyclotomicInteger":
        c = [0] * self.order
        for j, v in enumerate(self.coeffs):
            c[(-j) % self.order] += v
        return CyclotomicInteger(self.order, c)

    # -- predicates ----------------------------------------------------------
    def _projection(self):
        """prod_{p | M} (p - T_p) applied to the coefficients; zero exactly
        when the value is (module docstring)."""
        M, w = self.order, self.coeffs
        for p in arith.factorint(M):
            step = M // p
            sums = [sum(w[r::step]) for r in range(step)]   # T_p(w)[j] = sums[j % step]
            w = [p * v - t for v, t in zip(w, sums * p)]
        return w

    def is_zero(self) -> bool:
        return not any(self._projection())

    def __eq__(self, other):
        if isinstance(other, int):
            other = CyclotomicInteger.from_int(other)
        if not isinstance(other, CyclotomicInteger):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("CyclotomicInteger is not hashable")

    def is_real(self) -> bool:
        return (self - self.conjugate()).is_zero()

    def as_int(self):
        """The value as an integer when it lies in Z, else None.  The
        projection of an integer n has constant term n * prod_{p | M} (p - 1)."""
        n, r = divmod(self._projection()[0],
                      math.prod(p - 1 for p in arith.factorint(self.order)))
        return n if r == 0 and (self - n).is_zero() else None

    def __repr__(self):
        return f"CycInt(order={self.order}, coeffs={self.coeffs})"

    # -- numerics ---------------------------------------------------------------
    def complex_interval(self, precision: int):
        """(re, im) interval enclosure of the complex value (module docstring)."""
        w, re = self.coeffs, from_fixed(*self._cos_sum(precision), precision, precision + 16)
        if w[1:] == w[:0:-1]:   # w[j] = w[M - j]: the value is real
            return re, iv.mpf(0)
        im = (self * CyclotomicInteger.root_of_unity(4, 3))._cos_sum(precision)
        return re, from_fixed(*im, precision, precision + 16)

    def real_interval(self, precision: int):
        """Integer bounds (lo, hi) on 2^precision times the real part, from
        the fixed-point cosine table."""
        return self._cos_sum(precision)

    def _cos_sum(self, precision: int):
        """Integer bounds on 2^precision * sum_j v_j cos(2 pi j / M), with
        v_j + v_{M-j} folded onto entry 0 < j < M/2 of the half table."""
        M, w = self.order, self.coeffs
        acc_lo = acc_hi = 0
        for j, (lo, hi) in enumerate(zip(*_cos_table_fixed(M, precision))):
            v = w[j] + w[-j] if 0 < 2 * j < M else w[j]
            if v > 0:
                acc_lo += v * lo
                acc_hi += v * hi
            elif v < 0:
                acc_lo += v * hi
                acc_hi += v * lo
        return acc_lo, acc_hi


@lru_cache(maxsize=512)
def _cos_table_fixed(M: int, precision: int):
    """Integer bounds on 2^precision * cos(2 pi j / M) for 0 <= j <= M/2,
    rounded outward and at most 2 apart: the real parts of the powers of one
    rotation, each a fixed-point midpoint with a tracked radius.

    Let W = precision + g (wp below) with g = 40 + bitlen(M), let
    z = exp(2 pi i / M) and u_j = 2^W z^j.  The midpoint z~_1 of one iv.cos/iv.sin enclosure of z at
    scale 2^W has |z~_1 - u_1| <= e_1, the two half-widths added.  The next
    power z~_(j+1) = floor(Re z~_j z~_1 / 2^W) + i floor(Im z~_j z~_1 / 2^W)
    has |z~_(j+1) - u_(j+1)| <= e_(j+1) = e_j + e_1 + 3 + floor(e_j e_1 / 2^W),
    because z~_j z~_1 - u_j u_1 = (z~_j - u_j) z~_1 + u_j (z~_1 - u_1) with
    |z~_1| <= 2^W + e_1 and |u_j| = 2^W is at most e_j (2^W + e_1) + 2^W e_1,
    and the two floors add less than 2 in modulus.  So Re z~_j - e_j and
    Re z~_j + e_j bound 2^W cos(2 pi j / M); shifted down by g bits, floor
    below and ceiling above, they give entry j, clipped to +-2^precision.
    The radius grows by e_1 + 3 a step (e_1 <= 2 when the enclosures are
    narrower than one unit), so e_j <= 5 M / 2 for j <= M/2, under 2^-38
    units of 2^-precision after the shift: entry j is the floor and the
    ceiling of two points less than 1 apart, hence at most 2 apart.  Entry 0
    is 2^precision exactly."""
    g = 40 + M.bit_length()
    wp, one = precision + g, 1 << precision
    with prec_guard(wp + 8):                  # enclosures under one unit wide
        theta = 2 * iv.pi / M
        (a, b), (c, d) = fixed_iv(iv.cos(theta), wp), fixed_iv(iv.sin(theta), wp)
    x1, y1 = (a + b) >> 1, (c + d) >> 1
    e1 = (b - x1) + (d - y1)                  # b - x1 >= x1 - a, and likewise d
    los, his = [one], [one]
    x, y, e = x1, y1, e1
    for _ in range(M // 2):
        los.append(max((x - e) >> g, -one))
        his.append(min(-(-(x + e) >> g), one))
        x, y = (x * x1 - y * y1) >> wp, (x * y1 + y * x1) >> wp
        e += e1 + 3 + (e * e1 >> wp)
    return tuple(los), tuple(his)


def additive_character(alpha) -> CyclotomicInteger:
    """e(alpha) = exp(2 pi i Tr(alpha)) as an exact root of unity."""
    t = Fraction(alpha.trace())
    return CyclotomicInteger.root_of_unity(t.denominator, t.numerator % t.denominator)
