"""Coefficient-level Hecke machinery.

A coefficient function is a finitely supported map from integral ideals to
exact rationals.  The action of the operator attached to an integral ideal m
on such a function is

    (T_m f)(a) = sum over r containing a + m of chi0(r) N(r)^(k-1) f(a m r^-2),

with chi0(r) = 1 iff r is coprime to the level.  Everything here is exact
rational arithmetic; these are the formula-level objects the operator
identities manipulate, not modular forms themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotDivisible, PreconditionViolated
from .ideals import (IdealHNF, chi0, divisors, ideal_exact_divide,
                     ideal_product, ideal_sum, unit_ideal)
from .poincare import require_weight


class CoeffFunction:
    """Finitely supported ideal-indexed rationals; zero values are dropped."""

    __slots__ = ("support",)

    def __init__(self, entries=None):
        self.support: dict[IdealHNF, Fraction] = {}
        if entries:
            for ideal, val in (entries.items() if isinstance(entries, dict) else entries):
                self[ideal] = self[ideal] + Fraction(val)

    def __getitem__(self, ideal: IdealHNF) -> Fraction:
        return self.support.get(ideal, Fraction(0))

    def __setitem__(self, ideal: IdealHNF, val):
        val = Fraction(val)
        if val:
            self.support[ideal] = val
        else:
            self.support.pop(ideal, None)

    def __eq__(self, other):
        return isinstance(other, CoeffFunction) and self.support == other.support

    def __add__(self, other):
        out = CoeffFunction(self.support)
        for ideal, val in other.support.items():
            out[ideal] = out[ideal] + val
        return out

    def __mul__(self, scalar):
        scalar = Fraction(scalar)
        out = CoeffFunction()
        if scalar:
            for ideal, val in self.support.items():
                out.support[ideal] = val * scalar
        return out

    __rmul__ = __mul__

    def __repr__(self):
        items = sorted(self.support.items(), key=lambda t: t[0].sort_key())
        return "CoeffFunction({%s})" % ", ".join(f"{i!r}: {v}" for i, v in items)


@dataclass
class HeckeContext:
    k: int
    level: IdealHNF

    def __post_init__(self):
        require_weight(self.k)


def hecke_action(ctx: HeckeContext, m: IdealHNF, f: CoeffFunction) -> CoeffFunction:
    """T_m acting on f; output support is finite and computed exactly."""
    if m.norm() < 1:
        raise PreconditionViolated("m must be a nonzero integral ideal")
    candidates = set()
    mdivs = divisors(m)
    for s in f.support:
        for r in mdivs:
            # a = s * r^2 / m when integral
            num = ideal_product(s, ideal_product(r, r))
            try:
                a = ideal_exact_divide(num, m)
            except NotDivisible:
                continue
            candidates.add(a)
    out = CoeffFunction()
    for a in sorted(candidates, key=lambda i: i.sort_key()):
        out[a] = pairing(ctx, a, m, f)
    return out


def pairing(ctx: HeckeContext, m: IdealHNF, q: IdealHNF,
            f: CoeffFunction) -> Fraction:
    """sum over r containing m + q of chi0(r) N(r)^(k-1) f(m q r^-2).

    This is the scalar both adjoint pairings against the ideal-indexed
    Poincare element reduce to; it is visibly symmetric in m and q.
    """
    total = Fraction(0)
    mq = ideal_product(m, q)
    for r in divisors(ideal_sum(m, q)):
        if chi0(r, ctx.level):
            arg = ideal_exact_divide(mq, ideal_product(r, r))
            val = f[arg]
            if val:
                total += Fraction(r.norm()) ** (ctx.k - 1) * val
    return total


def check_multiplicativity(ctx: HeckeContext, m: IdealHNF, q: IdealHNF,
                           f: CoeffFunction) -> bool:
    """T_m T_q = T_mq for coprime m, q (exact, on the given function)."""
    if not ideal_sum(m, q).is_unit_ideal():
        raise PreconditionViolated("m and q must be coprime")
    lhs = hecke_action(ctx, m, hecke_action(ctx, q, f))
    rhs = hecke_action(ctx, ideal_product(m, q), f)
    return lhs == rhs


@dataclass
class LinearRelationReport:
    vanishes_on_grid: bool
    witnesses: list      # (q ideal, function index, value) for nonzero points
    grid_size: int


def check_linear_relation(ctx: HeckeContext, pairs, test_functions,
                          grid_ideals=None) -> LinearRelationReport:
    """Evaluate sum_i conj(lambda_i) <f, T_{m_i}* P_q>-shaped scalars on a grid.

    pairs is a list of (ideal, rational coefficient); rational scalars are
    their own conjugates.  This is a grid check of the coefficient-level
    shadow of the operator relation, not a proof of operator vanishing.
    """
    if grid_ideals is None:
        field = ctx.level.field
        seen = {}
        for m, _ in pairs:
            for d in divisors(ideal_product(m, m)):
                seen[d.key()] = d
        seen[unit_ideal(field).key()] = unit_ideal(field)
        grid_ideals = sorted(seen.values(), key=lambda i: i.sort_key())
    witnesses = []
    count = 0
    for qi in grid_ideals:
        for idx, f in enumerate(test_functions):
            count += 1
            val = sum((Fraction(lam) * pairing(ctx, m, qi, f)
                       for m, lam in pairs), Fraction(0))
            if val:
                witnesses.append((qi, idx, val))
    return LinearRelationReport(not witnesses, witnesses, count)
