"""Integer arithmetic helpers: factorization, sieves, primality, modular square roots.

Factorization is trial division up to sqrt(n), deterministic and desk-scale:
callers reject inputs past 10^12, where one call takes about 0.06 s.
"""

from __future__ import annotations

import math

from .errors import BudgetExceeded

FACTOR_LIMIT = 10**12


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {p: e}; n must be nonzero, |n| <= 10^12."""
    n = abs(int(n))
    if n == 0:
        raise ValueError("factorint(0)")
    if n > FACTOR_LIMIT:
        raise BudgetExceeded(f"{n} exceeds factorization limit", FACTOR_LIMIT)
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:   # no factor up to its square root: a prime
        out[n] = out.get(n, 0) + 1
    return out


def smallest_prime_factors(limit: int) -> list[int]:
    """spf[n] = the least prime factor of n, for 2 <= n <= limit (a sieve)."""
    spf = list(range(limit + 1))
    for i in range(2, math.isqrt(limit) + 1):
        if spf[i] == i:
            for j in range(i * i, limit + 1, i):
                if spf[j] == j:
                    spf[j] = i
    return spf


def is_prime(n: int) -> bool:
    return n > 1 and factorint(n) == {n: 1}


def is_squarefree(n: int) -> bool:
    if n <= 0:
        return False
    return all(e == 1 for e in factorint(n).values())


def sqrt_mod_p(a: int, p: int) -> int | None:
    """A square root of a mod prime p, or None. Tonelli-Shanks for odd p."""
    a %= p
    if p == 2:
        return a
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r
