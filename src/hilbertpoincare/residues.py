"""The finite quotient ring O/m for an integral ideal m.

Coset representatives are the canonical box {u + v*omega : 0 <= u < a,
0 <= v < c} determined by the HNF basis; there are exactly N(m) = a*c of
them.  Inverses are found by integer linear algebra on the 2x4 system
[mult-by-x | lattice-basis] * y = e1 (a conjugate shortcut covers the common
case where N(x) is already invertible modulo N(m)).
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
        F = self.field
        nm = self.size
        nx = u * u + u * v * F.c1 - v * v * F.c0  # N(u + v*omega)
        if math.gcd(nx % nm, nm) == 1:
            # x^{-1} = conj(x) * N(x)^{-1} mod m
            t = pow(nx % nm, -1, nm)
            cu, cv = (u + v * F.c1) * t, -v * t
            return self.modulus.reduce_coords(cu, cv)
        return self._solve_inverse(u, v)

    def _solve_inverse(self, u: int, v: int):
        """Column-HNF solve of [M_x | L] w = (1, 0) over Z."""
        F, m = self.field, self.modulus
        cols = [(u, v), (v * F.c0, u + v * F.c1), (m.a, 0), (m.b, m.c)]
        tr = [[1 if i == j else 0 for i in range(4)] for j in range(4)]

        def reduce_row(row, active):
            while True:
                nz = [j for j in active if cols[j][row] != 0]
                if len(nz) <= 1:
                    return nz[0] if nz else None
                nz.sort(key=lambda j: abs(cols[j][row]))
                p = nz[0]
                for j in nz[1:]:
                    q = cols[j][row] // cols[p][row]
                    cols[j] = (cols[j][0] - q * cols[p][0], cols[j][1] - q * cols[p][1])
                    tr[j] = [tr[j][i] - q * tr[p][i] for i in range(4)]

        p0 = reduce_row(0, [0, 1, 2, 3])
        p1 = reduce_row(1, [j for j in range(4) if j != p0])
        h00, h10, h11 = cols[p0][0], cols[p0][1], cols[p1][1]
        if h00 == 0 or 1 % abs(h00):
            raise NotInvertible("element not invertible (lattice solve)")
        w0 = 1 // h00
        r = -w0 * h10
        if r % h11:
            raise NotInvertible("element not invertible (lattice solve)")
        w1 = r // h11
        yu = w0 * tr[p0][0] + w1 * tr[p1][0]
        yv = w0 * tr[p0][1] + w1 * tr[p1][1]
        return m.reduce_coords(yu, yv)


def residue_ring(modulus: IdealHNF, budget: int = DEFAULT_ENUM_BUDGET) -> ResidueRing:
    return ResidueRing(modulus, budget)
