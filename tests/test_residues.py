import random

import pytest

from hilbertpoincare.errors import BudgetExceeded, NotInvertible
from hilbertpoincare.ideals import (factor_ideal, ideal_from_generators,
                                    ideals_of_norm, prime_splitting,
                                    principal_ideal, unit_ideal)
from hilbertpoincare.residues import residue_ring


def _reduce(ring, x):
    """Canonical coordinates of x modulo the ring's modulus."""
    return ring.modulus.reduce_coords(x.a, x.b)


def scan_inverse(ring, u, v):
    """Brute-force inverse oracle: scan all N(m) representatives."""
    x, m = ring.field.elt(u, v), ring.modulus
    for yv in range(m.c):
        for yu in range(m.a):
            if _reduce(ring, x * ring.field.elt(yu, yv)) == _reduce(ring, ring.field.one()):
                return yu, yv
    return None


def test_ring_examples(F5):
    r2 = residue_ring(principal_ideal(F5.from_int(2)))
    assert r2.size == 4
    assert {(u, v) for (u, v, _, _) in r2.unit_data()} == {(1, 0), (0, 1), (1, 1)}
    p5 = prime_splitting(F5, 5)[0]
    rp5 = residue_ring(p5)
    assert rp5.size == 5 and len(rp5.unit_data()) == 4
    r1 = residue_ring(unit_ideal(F5))
    assert r1.size == 1


def test_budget():
    from hilbertpoincare.field import make_field
    F = make_field(2)
    with pytest.raises(BudgetExceeded):
        residue_ring(principal_ideal(F.from_int(10**5)), budget=10**6)


def test_inverse_examples(F5):
    r2 = residue_ring(principal_ideal(F5.from_int(2)))
    assert (0, 1, 1, 1) in r2.unit_data()          # omega^-1 = 1 + omega mod 2
    rp5 = residue_ring(prime_splitting(F5, 5)[0])
    assert (2, 0, 3, 0) in rp5.unit_data()         # 2^-1 = 3 mod a prime of norm 5
    with pytest.raises(NotInvertible):
        r2._inverse_coords(0, 0)


def test_reduce_examples(F5):
    r2 = residue_ring(principal_ideal(F5.from_int(2)))
    assert _reduce(r2, F5.elt(3, 2)) == (1, 0)
    assert _reduce(r2, F5.zero()) == (0, 0)
    rp5 = residue_ring(prime_splitting(F5, 5)[0])
    assert _reduce(rp5, F5.elt(2, 1)) == (0, 0)
    # idempotence
    x = F5.elt(-7, 11)
    assert _reduce(r2, F5.elt(*_reduce(r2, x))) == _reduce(r2, x)


def _euler_phi(modulus):
    out = 1
    for pr, e in factor_ideal(modulus):
        out *= pr.norm() ** (e - 1) * (pr.norm() - 1)
    return out


def test_unit_count_matches_phi(F5, F2):
    rng = random.Random(9)
    for F in (F5, F2):
        done = 0
        while done < 50:
            n = rng.randint(2, 400)
            opts = ideals_of_norm(F, n)
            if not opts:
                continue
            ring = residue_ring(rng.choice(opts))
            units = ring.unit_data()
            assert len(units) == _euler_phi(ring.modulus)
            # the units are the classes outside every prime over the modulus,
            # and every other class has no inverse
            m = ring.modulus
            classes = [(u, v) for v in range(m.c) for u in range(m.a)]
            coprime = [x for x in classes
                       if not any(pr.contains(F.elt(*x)) for pr, _ in factor_ideal(m))]
            assert [(u, v) for (u, v, _, _) in units] == coprime
            for x in set(classes) - set(coprime):
                with pytest.raises(NotInvertible):
                    ring._inverse_coords(*x)
            done += 1


def test_inverse_involution_and_oracle(F5):
    rng = random.Random(21)
    mods = [principal_ideal(F5.from_int(2)),
            prime_splitting(F5, 5)[0],
            principal_ideal(F5.elt(1, 3)),
            ideal_from_generators([F5.elt(4, 2), F5.elt(6, 0)])]
    for mod in mods:
        ring = residue_ring(mod)
        one = _reduce(ring, F5.one())
        units = ring.unit_data()
        inverse = {(u, v): (ui, vi) for (u, v, ui, vi) in units}
        for (u, v), (ui, vi) in inverse.items():
            assert _reduce(ring, F5.elt(u, v) * F5.elt(ui, vi)) == one
            assert inverse[ui, vi] == (u, v)
        # scan oracle on a sample
        sample = list(units)
        rng.shuffle(sample)
        for (u, v, ui, vi) in sample[:6]:
            assert (ui, vi) == scan_inverse(ring, u, v)
