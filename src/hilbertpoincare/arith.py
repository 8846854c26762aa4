"""Integer arithmetic helpers: primality, factorization, modular square roots.

Factorization is deliberately desk-scale (trial division + Pollard rho with a
Miller-Rabin primality gate); callers reject inputs past ~10^12.
"""

from __future__ import annotations

import math

from .errors import BudgetExceeded

FACTOR_LIMIT = 10**12

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (fixed witness set)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    for c in range(1, 50):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise BudgetExceeded(f"pollard rho failed on {n}")


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {p: e}; n must be nonzero, |n| <= 10^12."""
    n = abs(int(n))
    if n == 0:
        raise ValueError("factorint(0)")
    if n > FACTOR_LIMIT:
        raise BudgetExceeded(f"{n} exceeds factorization limit", FACTOR_LIMIT)
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # mid-range trial division is cheap at this scale
    p = 41
    while p * p <= n and p < 10**4:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if m < p * p or is_probable_prime(m):   # m | n has no factor below p
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.extend([d, m // d])
    return dict(sorted(out.items()))


def is_squarefree(n: int) -> bool:
    if n <= 0:
        return False
    return all(e == 1 for e in factorint(n).values())


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


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
