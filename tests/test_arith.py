import random
import time

import pytest

from hilbertpoincare.arith import FACTOR_LIMIT, factorint, is_prime
from hilbertpoincare.errors import BudgetExceeded


def _trial_division(n):
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_factorint_matches_trial_division():
    for n in range(1, 10**5 + 1):
        assert factorint(n) == _trial_division(n), n
    assert factorint(-360) == {2: 3, 3: 2, 5: 1}
    with pytest.raises(ValueError):
        factorint(0)


@pytest.mark.parametrize("factors", ([10007, 10009], [10007, 10007], [2, 3, 10007, 10009],
                                     [999983, 1000003], [10009, 10009, 9973],
                                     [7, 99991, 100003]))
def test_factorint_products_of_large_primes(factors):
    n = 1
    for p in factors:
        n *= p
    expected = {p: factors.count(p) for p in sorted(set(factors))}
    assert factorint(n) == expected == _trial_division(n)


def test_factorint_matches_trial_division_below_1e8():
    rng = random.Random(8)
    for n in [199, 1681, 1683, 10**8 - 1, 99999989, 10007 * 9973, 2 * 49999991]:
        assert factorint(n) == _trial_division(n), n
    for _ in range(2000):
        n = rng.randrange(1, 10**8)
        assert factorint(n) == _trial_division(n), n


def test_is_prime_matches_trial_division():
    for n in range(-5, 10**5 + 1):
        assert is_prime(n) == (n > 1 and _trial_division(n) == {n: 1}), n
    for carmichael in (561, 41041, 825265):
        assert not is_prime(carmichael)


def test_factorint_at_the_limit():
    start = time.perf_counter()
    assert factorint(999999999989) == {999999999989: 1}
    assert time.perf_counter() - start < 0.3
    with pytest.raises(BudgetExceeded):
        factorint(FACTOR_LIMIT + 1)
