from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_count,
    brute_force_monomials,
    mono_from_exponents,
    mono_from_str,
    mono_pdeg,
    mono_qdeg,
)
from tautjac.errors import InvalidParameter
from tautjac.operators import Operator
from tautjac.poly import (
    MONO_ONE,
    Poly,
    enumerate_monomials,
    mono_sdeg,
    mono_str,
    mono_mul,
    mono_weight,
    p,
    q,
    variable,
)


def test_ring_identities():
    assert (p(1) + q(1)) * (p(1) - q(1)) == p(1) ** 2 - q(1) ** 2
    assert Fraction(1, 2) * p(2) + p(2) / 2 == p(2)
    f = q(2) - q(1) ** 2 / 4
    assert f - f == Poly.zero()
    assert not (f - f)


def test_scalar_coercion_and_division():
    assert 3 * p(1) == p(1) * 3
    assert (2 * p(1)) / 2 == p(1)
    assert p(1) / 4 == Fraction(1, 4) * p(1)
    assert Poly.constant(Fraction(6, 2)) == 3


def test_grading():
    comps = (p(1) * q(1)).graded()
    assert list(comps) == [(2, 1)]
    comps = (p(2) + q(2)).graded()
    assert comps == {(2, 1): p(2), (2, 2): q(2)}
    comps = (p(1) ** 2 + p(1) * q(1) + q(1) ** 2).graded()
    assert set(comps) == {(2, 0), (2, 1), (2, 2)}
    total = Poly.zero()
    for piece in comps.values():
        total = total + piece
    assert total == p(1) ** 2 + p(1) * q(1) + q(1) ** 2


def test_grading_bookkeeping():
    m = mono_from_exponents(
        [((2, "p"), 1), ((1, "q"), 3), ((3, "q"), 1)]
    )
    assert mono_weight(m) == 2 + 3 + 3
    assert mono_sdeg(m) == 1 + 3 + 3
    assert mono_pdeg(m) == 1 and mono_qdeg(m) == 4
    # pdeg + qdeg is the total degree
    assert mono_pdeg(m) + mono_qdeg(m) == sum(e for _i, _k, e in m)


def test_enumerate_weight_0_and_2_and_3():
    assert enumerate_monomials(0) == (MONO_ONE,)
    got = [mono_str(m) for m in enumerate_monomials(2)]
    assert got == ["q2", "p2", "q1^2", "p1*q1", "p1^2"]
    assert len(enumerate_monomials(3)) == 10
    expected = {
        "p3", "q3", "p1*p2", "p1*q2", "p2*q1", "q1*q2",
        "p1^3", "p1^2*q1", "p1*q1^2", "q1^3",
    }
    assert {mono_str(m) for m in enumerate_monomials(3)} == expected


def test_enumerate_against_brute_force_oracle():
    for w in range(9):
        assert set(enumerate_monomials(w)) == brute_force_monomials(w)


def test_enumerate_counts_up_to_12():
    for w in range(13):
        assert len(enumerate_monomials(w)) == brute_force_count(w)


def test_enumerate_is_sorted_descending():
    for w in range(8):
        monos = enumerate_monomials(w)
        assert list(monos) == sorted(monos, reverse=True)


def test_monomial_order_interleaves_variables():
    # p1 < q1 < p2 < q2 on the generators themselves
    order = [q(2), p(2), q(1), p(1)]
    monos = [next(iter(f.terms)) for f in order]
    assert monos == sorted(monos, reverse=True)


def test_canonical_text_form():
    assert str(Poly.zero()) == "0"
    assert str(Poly.one()) == "1"
    assert str(p(2) * q(1) - 3 * p(1) * q(1) ** 2 / 4) == "p2*q1 - 3/4*p1*q1^2"
    assert str(-q(1)) == "-q1"
    assert str(p(1) ** 2 * q(3)) == "p1^2*q3"
    assert str(q(2) - q(1) ** 2 / 4 + 1) == "q2 - 1/4*q1^2 + 1"
    assert mono_from_str("p1^2*q3") == next(iter((p(1) ** 2 * q(3)).terms))
    assert mono_from_str("1") == MONO_ONE


def test_variable_validation():
    # typed errors, still ValueErrors for callers that catch those
    with pytest.raises(InvalidParameter, match="index must be >= 1"):
        q(0)
    with pytest.raises(InvalidParameter, match="index must be >= 1"):
        p(0)
    with pytest.raises(InvalidParameter, match="kind must be"):
        variable("x", 1)
    with pytest.raises(InvalidParameter, match="index must be >= 1"):
        variable("p", 0)
    with pytest.raises(InvalidParameter, match="index must be >= 1"):
        Operator.derivative("p0")
    with pytest.raises(InvalidParameter, match="kind must be"):
        Operator.derivative("x1")
    with pytest.raises(InvalidParameter, match="name must be"):
        Operator.derivative("p")
    # an index or a weight is an int, never a float or a bool
    for bad in (1.5, True, Fraction(1), "1"):
        for make in (p, q):
            with pytest.raises(InvalidParameter, match="index must be >= 1"):
                make(bad)
    for bad in (-1, 2.5, True, Fraction(2)):
        with pytest.raises(InvalidParameter, match="weight must be >= 0"):
            enumerate_monomials(bad)
    assert issubclass(InvalidParameter, ValueError)


coeffs = st.one_of(
    st.integers(-8, 8),
    st.fractions(max_denominator=6).filter(lambda f: abs(f) <= 8),
)
monomials = st.lists(
    st.tuples(
        st.tuples(st.integers(1, 3), st.sampled_from("pq")),
        st.integers(1, 2),
    ),
    max_size=3,
).map(mono_from_exponents)
polys = st.dictionaries(monomials, coeffs, max_size=4).map(Poly)


@settings(max_examples=120, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + Poly.zero() == a
    assert a * Poly.one() == a


@settings(max_examples=80, deadline=None)
@given(monomials, monomials)
def test_gradings_additive_under_multiplication(m1, m2):
    m = mono_mul(m1, m2)
    assert mono_weight(m) == mono_weight(m1) + mono_weight(m2)
    assert mono_sdeg(m) == mono_sdeg(m1) + mono_sdeg(m2)
    assert mono_pdeg(m) == mono_pdeg(m1) + mono_pdeg(m2)
