import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from hilbertpoincare.arith import is_squarefree
from hilbertpoincare.errors import NotSquarefree, ZeroElement
from hilbertpoincare.field import make_field
from hilbertpoincare.intervals import contains, hi, lo

from oracles import balanced_exponent_oracle, pell_search_fundamental_unit


def test_make_field_d5(F5):
    assert F5.basis_kind == "half" and F5.D == 5
    assert F5.fundamental_unit == F5.elt(0, 1) and F5.fu_norm == -1
    assert F5.eps_plus == F5.elt(1, 1)
    assert F5.delta == F5.elt(2, 1) and F5.delta.norm() == 5
    assert F5.f2 == 2


def test_make_field_d2(F2):
    assert F2.basis_kind == "sqrt" and F2.D == 8
    assert F2.fundamental_unit == F2.elt(1, 1) and F2.fu_norm == -1
    assert F2.eps_plus == F2.elt(3, 2)
    assert F2.delta == F2.elt(4, 2) and F2.delta.norm() == 8
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
    # with the float oracle
    x = F5.elt(2, 1) * F5.eps_plus ** 2
    y2, m2 = F5.balanced_representative(x)
    assert m2 == -2 and y2 == F5.elt(2, 1)
    assert balanced_exponent_oracle(F5, x, range(-5, 6)) == -2
    y3, m3 = F2.balanced_representative(F2.one())
    assert m3 == 0 and y3 == F2.one()


def test_balanced_invariants(F5):
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
            val = abs(y.embeddings(96)[emb - 1])
            with mpmath.workprec(200):
                nsq = mpmath.sqrt(abs(mpmath.mpf(x.norm().numerator)))
                assert lo(val) <= nsq * hi(A) * (1 + mpmath.mpf("1e-20"))
                assert hi(val) >= nsq / hi(A) * (1 - mpmath.mpf("1e-20"))


@pytest.mark.parametrize("d", [2, 3, 5, 13, 17])
def test_balanced_exponent_matches_oracle(d):
    F = make_field(d)
    rng = random.Random(d)
    xs = [F.elt(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6), rng.randint(1, 9))
          for _ in range(40)]
    xs = [x for x in xs if not x.is_zero()]
    # far outside any 64-bit estimate: eps_plus^1200 has over 500 digits
    xs += [x * F.eps_plus ** j for x in xs[:3] for j in (40, -40, 1200, -1200)]
    for x in xs:
        y, m = F.balanced_representative(x)
        assert m == balanced_exponent_oracle(F, x) and y == x * F.eps_plus ** m


def test_balanced_ties_over_q_sqrt3(F3):
    # (1 + sqrt 3)^2 = 2 eps_plus, so x_j = (1 + sqrt 3) eps_plus^j is exactly
    # as balanced at -j - 1 as at -j; the tie goes to -j, where |s1| > |s2|
    x = F3.elt(1, 1)
    assert F3.balanced_representative(x) == (x, 0)
    assert F3.balanced_representative(x * F3.eps_plus ** 5) == (x, -5)
    for j in range(-6, 7):
        xj = x * F3.eps_plus ** j
        assert F3.balanced_representative(xj)[1] == -j
        assert balanced_exponent_oracle(F3, xj) == -j


@pytest.mark.parametrize("d, a, b", [(3, 1, 1), (5, 2, 1), (2, 8, 4)])
def test_a_tied_orbit_has_one_representative(d, a, b):
    # x and x / eps_plus are equally balanced; every member of the orbit
    # x eps_plus^Z balances to the one with |s1| > |s2|, whichever is passed
    F = make_field(d)
    x = F.elt(a, b)
    reps = {F.balanced_representative(x * F.eps_plus ** j)[0] for j in range(-6, 7)}
    assert reps == {x}
    s1, s2 = x.embeddings(64)
    assert lo(abs(s1)) > hi(abs(s2))
    assert balanced_exponent_oracle(F, x / F.eps_plus, range(-3, 4)) == 1


def test_embeddings_of_an_unbalanced_element_keep_the_small_one(F5):
    # sigma_2(2 eps_plus^40) ~ 3.8e-17 cancels out of A + B sqrt 5 at 64 bits
    x = F5.elt(28944668049352442, 46833456696935370)
    assert x == 2 * F5.eps_plus ** 40
    for y in (x, -x, x.conj(), x / 7, -x.conj() / 3):
        s1, s2 = y.embeddings(64)
        for s, emb in ((s1, 1), (s2, 2)):
            assert mpmath.sign(lo(s)) == mpmath.sign(hi(s)) == y.sign_at(emb)
            assert hi(s) - lo(s) <= abs(lo(s)) * 2 ** -58
        assert contains(s1 * s2, y.norm())


def test_balanced_representative_of_a_far_unit(F5):
    assert F5.balanced_representative(F5.eps_plus ** 1200) == (F5.one(), -1200)


def test_unit_reps(F5, F2, F3):
    # O^{x+} / (O^x)^2 is {1} when the fundamental unit has norm -1 and
    # {1, fu} when it has norm +1, so eps_plus is fu^2 or fu
    assert F5.eps_plus == F5.fundamental_unit ** 2 and F5.fu_norm == -1
    assert F2.eps_plus == F2.fundamental_unit ** 2 and F2.fu_norm == -1
    assert F3.fu_norm == 1 and F3.eps_plus == F3.fundamental_unit == F3.elt(2, 1)
    assert F3.eps_plus.is_totally_positive()
    # exhaustive Pell search oracle: no unit of Q(sqrt 3) below 2+sqrt(3) > 1
    for b in range(1, 2):
        for a in range(0, 2):
            if (a, b) != (2, 1):
                assert abs(F3.elt(a, b).norm()) != 1 or a + b * 2 > 4


def test_eps_plus_powers_totally_positive(F5, F2, F3):
    for F in (F5, F2, F3):
        for m in range(-10, 11):
            assert (F.eps_plus ** m).is_totally_positive()
        assert F.eps_plus != F.one()


def test_delta_presence(F5, F2, F3):
    for F in (F5, F2):
        assert F.delta is not None
        assert F.delta.is_totally_positive() and F.delta.norm() == F.D
    assert F3.delta is None  # norm +1 fundamental unit: no mixed-sign units


@pytest.mark.parametrize("d", (2, 3, 5, 6, 10, 13))
def test_totally_positive_associate(d):
    # None exactly when N(g) < 0 and no unit has norm -1; else a totally
    # positive t with t/g a unit
    F = make_field(d)
    for a in range(-6, 7):
        for b in range(-6, 7):
            g = F.elt(a, b)
            if g.is_zero():
                continue
            t = F.totally_positive_associate(g)
            if t is None:
                assert g.norm() < 0 and F.fu_norm == 1, (d, g)
            else:
                assert t.is_totally_positive() and F.is_unit(t / g), (d, g, t)
    assert F.delta == F.totally_positive_associate(F.elt(-F.c1, 2))


def test_cf_oracle_matches_pell():
    # every squarefree d <= 100, both residue classes mod 4, and two units
    # whose old principality box was too large
    for d in [*range(2, 101), 193, 241]:
        if not is_squarefree(d):
            continue
        a, b, n = pell_search_fundamental_unit(d)
        F = make_field(d)
        assert F.fundamental_unit == F.elt(a, b), d
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
    assert x * x.conj() == F.one() * x.norm()


@settings(max_examples=40, deadline=None)
@given(st.integers(-25, 25), st.integers(-25, 25))
def test_embedding_identities(a, b):
    F = make_field(5)
    x = F.elt(a, b)
    e1, e2 = x.embeddings(96)
    prod, tot = e1 * e2, e1 + e2
    assert contains(prod, Fraction(x.norm()))
    assert contains(tot, Fraction(x.trace()))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 3, 5, 13)), st.integers(-30, 30), st.integers(-30, 30),
       st.integers(1, 9), st.integers(-30, 30), st.integers(-30, 30), st.integers(1, 9))
def test_division_matches_fraction_inverse(d, a, b, p, c, e, q):
    # x / y is x * conj(y) * (1 / N(y)), with the norm as a Fraction
    F = make_field(d)
    x, y = F.elt(a, b, p), F.elt(c, e, q)
    if y.is_zero():
        return
    assert x / y == x * y.conj() * (1 / y.norm())
    assert (x / y) * y == x
