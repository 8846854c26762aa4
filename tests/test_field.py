from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from hilbertpoincare.arith import is_squarefree
from hilbertpoincare.errors import NotSquarefree, ZeroElement
from hilbertpoincare.field import make_field
from hilbertpoincare.intervals import contains, hi, lo

from oracles import pell_search_fundamental_unit


def test_make_field_d5(F5):
    assert F5.basis_kind == "half" and F5.D == 5
    assert F5.fundamental_unit.coords() == (0, 1, 1) and F5.fu_norm == -1
    assert F5.eps_plus.coords() == (1, 1, 1)
    assert F5.delta.coords() == (2, 1, 1) and F5.delta.norm() == 5
    assert F5.f2 == 2


def test_make_field_d2(F2):
    assert F2.basis_kind == "sqrt" and F2.D == 8
    assert F2.fundamental_unit.coords() == (1, 1, 1) and F2.fu_norm == -1
    assert F2.eps_plus.coords() == (3, 2, 1)
    assert F2.delta.coords() == (4, 2, 1) and F2.delta.norm() == 8
    assert F2.f2 == 1


def test_make_field_not_squarefree():
    with pytest.raises(NotSquarefree):
        make_field(12)
    with pytest.raises(NotSquarefree):
        make_field(1)


def test_trace_norm_examples(F5, F2):
    assert F5.elt(2, 1).trace() == 5 and F5.elt(2, 1).norm() == 5
    assert F5.elt(3, 2).trace() == 8 and F5.elt(3, 2).norm() == 11
    assert F2.elt(0, 1).trace() == 0 and F2.elt(0, 1).norm() == -2


def test_embeddings(F5, F2):
    a1, a2 = F5.elt(0, 1).embeddings(64)
    b1, b2 = F5.elt(2, 1).embeddings(64)
    c1, c2 = F2.elt(1, 1).embeddings(64)
    with mpmath.workprec(200):   # references well beyond the 64-bit enclosures
        golden = (1 + mpmath.sqrt(5)) / 2
        assert contains(a1, golden) and contains(a2, 1 - golden)
        assert contains(b1, golden + 2) and contains(b2, 3 - golden)
        assert contains(c1, 1 + mpmath.sqrt(2)) and contains(c2, 1 - mpmath.sqrt(2))


def test_embedding_width_shrinks(F5):
    x = F5.elt(7, -3, 2)
    w64 = hi(x.embeddings(64)[0]) - lo(x.embeddings(64)[0])
    w256 = hi(x.embeddings(256)[0]) - lo(x.embeddings(256)[0])
    assert w256 <= w64


def test_totally_positive(F5, F2):
    assert F5.elt(2, 1).is_totally_positive()
    assert not F5.elt(0, 1).is_totally_positive()
    assert F2.elt(3, 2).is_totally_positive()
    with pytest.raises(ZeroElement):
        F5.zero().is_totally_positive()


def test_balanced_representative_examples(F5, F2):
    y, m = F5.balanced_representative(F5.elt(2, 1))
    assert m == 0 and y == F5.elt(2, 1)
    # derived: multiply out exactly, confirm returned m by scanning m in [-5,5]
    # with the exact comparison criterion
    x = F5.elt(2, 1) * F5.eps_plus_pow(2)
    y2, m2 = F5.balanced_representative(x)
    assert m2 == -2 and y2 == F5.elt(2, 1)
    top = -5
    for mm in range(-4, 6):
        if F5._balance_cmp(x, mm, top) < 0:
            top = mm
    assert top == -2
    y3, m3 = F2.balanced_representative(F2.one())
    assert m3 == 0 and y3 == F2.one()


def test_balanced_invariants(F5):
    import random
    rng = random.Random(3)
    A = F5.A_interval(96)
    n_sqrt_hi = None
    for _ in range(40):
        x = F5.elt(rng.randint(-20, 20), rng.randint(-20, 20))
        if x.is_zero():
            continue
        y, m = F5.balanced_representative(x)
        assert abs(y.norm()) == abs(x.norm())
        # idempotence
        _, m2 = F5.balanced_representative(y)
        assert m2 == 0
        # |sigma_i(y)| within [sqrt|N|/A, sqrt|N| A] (checked with outward slack)
        for emb in (1, 2):
            val = y.abs_embedding(emb, 96)
            with mpmath.workprec(200):
                nsq = mpmath.sqrt(abs(mpmath.mpf(x.norm().numerator)))
                assert lo(val) <= nsq * hi(A) * (1 + mpmath.mpf("1e-20"))
                assert hi(val) >= nsq / hi(A) * (1 - mpmath.mpf("1e-20"))


def test_unit_reps(F5, F2, F3):
    assert F5.totally_positive_unit_reps() == [F5.one()]
    assert F2.totally_positive_unit_reps() == [F2.one()]
    reps = F3.totally_positive_unit_reps()
    assert len(reps) == 2 and reps[1].coords() == (2, 1, 1)
    # exhaustive Pell search oracle: no unit of Q(sqrt 3) below 2+sqrt(3) > 1
    for b in range(1, 2):
        for a in range(0, 2):
            if (a, b) != (2, 1):
                assert abs(F3.elt(a, b).norm()) != 1 or a + b * 2 > 4


def test_eps_plus_powers_totally_positive(F5, F2, F3):
    for F in (F5, F2, F3):
        for m in range(-10, 11):
            assert F.eps_plus_pow(m).is_totally_positive()
        assert F.eps_plus != F.one()


def test_delta_presence(F5, F2, F3):
    for F in (F5, F2):
        assert F.delta is not None
        assert F.delta.is_totally_positive() and F.delta.norm() == F.D
    assert F3.delta is None  # norm +1 fundamental unit: no mixed-sign units


def test_cf_oracle_matches_pell():
    # every squarefree d <= 100, both residue classes mod 4
    for d in range(2, 101):
        if not is_squarefree(d):
            continue
        a, b, n = pell_search_fundamental_unit(d)
        F = make_field(d)
        assert F.fundamental_unit.coords() == (a, b, 1), d
        assert F.fu_norm == n, d


def test_make_field_all_squarefree_upto_10k():
    for d in range(2, 10**4 + 1):
        if not is_squarefree(d):
            continue
        F = make_field(d)
        eps = F.fundamental_unit
        assert eps.is_integral() and eps.norm() == F.fu_norm in (1, -1), d
        assert eps.sign_at(1) > 0 and (eps - F.one()).sign_at(1) > 0, d


@settings(max_examples=60, deadline=None)
@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40),
       st.integers(-40, 40))
def test_trace_norm_homomorphism(a, b, c, d):
    F = make_field(5)
    x, y = F.elt(a, b), F.elt(c, d)
    assert (x + y).trace() == x.trace() + y.trace()
    assert (x * y).norm() == x.norm() * y.norm()
    assert x * x.conj() == F.from_fraction(x.norm())


@settings(max_examples=40, deadline=None)
@given(st.integers(-25, 25), st.integers(-25, 25))
def test_embedding_identities(a, b):
    F = make_field(5)
    x = F.elt(a, b)
    e1, e2 = x.embeddings(96)
    prod, tot = e1 * e2, e1 + e2
    assert contains(prod, Fraction(x.norm()))
    assert contains(tot, Fraction(x.trace()))
