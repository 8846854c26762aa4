"""The finite quotient ring O/m for an integral ideal m.

Coset representatives are the canonical box {u + v*omega : 0 <= u < a,
0 <= v < c} determined by the HNF basis; there are exactly N(m) = a*c of
them.  An inverse is conj(x) * N(x)^-1 when N(x) is invertible modulo N(m),
and x^(phi(m) - 1) by Euler's theorem otherwise.
"""

from __future__ import annotations

import math

from .errors import BudgetExceeded, NotInvertible
from .ideals import IdealHNF, factor_ideal

DEFAULT_ENUM_BUDGET = 10**7


class ResidueRing:
    def __init__(self, modulus: IdealHNF, budget: int = DEFAULT_ENUM_BUDGET):
        if modulus.norm() > budget:
            raise BudgetExceeded(f"residue ring of norm {modulus.norm()}", budget)
        self.modulus = modulus
        self.field = modulus.field
        self.size = modulus.norm()
        self._prime_data = None
        self._unit_data = None

    # -- representatives ------------------------------------------------------
    def _primes(self):
        if self._prime_data is None:
            self._prime_data = [pr for pr, _ in factor_ideal(self.modulus)]
        return self._prime_data

    def is_invertible_coords(self, u: int, v: int) -> bool:
        for pr in self._primes():
            if v % pr.c == 0 and (u - (v // pr.c) * pr.b) % pr.a == 0:
                return False
        return True

    def unit_data(self):
        """List of (u, v, ui, vi): unit coset reps with inverse coordinates."""
        if self._unit_data is None:
            if self.size == 1:
                self._unit_data = [(0, 0, 0, 0)]
            else:
                out = []
                m = self.modulus
                for v in range(m.c):
                    for u in range(m.a):
                        if self.is_invertible_coords(u, v):
                            ui, vi = self._inverse_coords(u, v)
                            out.append((u, v, ui, vi))
                self._unit_data = out
        return self._unit_data

    # -- inversion --------------------------------------------------------------
    def _inverse_coords(self, u: int, v: int):
        """x^-1 = conj(x) * N(x)^-1 when N(x) is invertible modulo N(m), else
        x^(phi(m) - 1) by Euler's theorem, checked against x * x^-1 = 1."""
        F, m, nm = self.field, self.modulus, self.size
        nx = u * u + u * v * F.c1 - v * v * F.c0  # N(u + v*omega)
        if math.gcd(nx % nm, nm) == 1:
            t = pow(nx % nm, -1, nm)
            return m.reduce_coords((u + v * F.c1) * t, -v * t)
        phi = nm
        for pr in self._primes():
            phi = phi // pr.norm() * (pr.norm() - 1)
        one = m.reduce_coords(1, 0)
        y, base, e = one, m.reduce_coords(u, v), phi - 1
        while e:
            if e & 1:
                y = m.reduce_coords(*F.mul_coords(*y, *base))
            base = m.reduce_coords(*F.mul_coords(*base, *base))
            e >>= 1
        if m.reduce_coords(*F.mul_coords(u, v, *y)) != one:
            raise NotInvertible("element not invertible modulo the ideal")
        return y


def residue_ring(modulus: IdealHNF, budget: int = DEFAULT_ENUM_BUDGET) -> ResidueRing:
    return ResidueRing(modulus, budget)
