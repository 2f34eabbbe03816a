import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellcover.laurent import ArityMismatch, LaurentPoly, coeff_str


def P(arity, terms):
    return LaurentPoly(arity, terms)


def test_inverse_monomials_multiply_to_one():
    x2 = P(1, {(2,): 1})
    xm2 = P(1, {(-2,): 1})
    assert x2 * xm2 == LaurentPoly.one(1)


def test_additive_identity():
    p = P(2, {(1, -3): 5, (0, 2): Fraction(1, 3)})
    assert p + LaurentPoly.zero(2) == p


def test_coefficient_product_collapses_exponents():
    a = P(2, {(2, -2): 2})
    b = P(2, {(-2, 2): 3})
    assert a * b == LaurentPoly.constant(2, 6)


def test_constant_term_pick():
    p = P(2, {(2, -2): 1, (0, 0): 5})
    assert p.coeff_in(0, 0) == LaurentPoly.constant(2, 5)


def test_coeff_in_absent_exponent_is_zero():
    p = P(1, {(3,): 1})
    assert p.coeff_in(0, 0).is_zero()


def test_coeff_in_zeroes_variable_and_keeps_arity():
    p = P(3, {(2, 1, -1): 7, (2, 0, 5): 3, (1, 1, 1): 4})
    q = p.coeff_in(0, 2)
    assert q.arity == 3
    assert q == P(3, {(0, 1, -1): 7, (0, 0, 5): 3})


def test_arity_mismatch():
    with pytest.raises(ArityMismatch):
        P(1, {(1,): 1}) + P(2, {(1, 0): 1})
    with pytest.raises(ArityMismatch):
        P(1, {(1,): 1}) * P(2, {(1, 0): 1})
    # an exponent vector of the wrong length, built or read
    for call in (lambda: P(2, {(1,): 1}), lambda: P(2, {(1, 0, 0): 1}), lambda: P(2, {(1, -1): 3}).coeff((1,))):
        with pytest.raises(ArityMismatch, match=r"^exponent vector must be of length 2, got \("):
            call()
    assert P(2, {(1, -1): 3}).coeff((1, -1)) == 3 and P(2, {(1, -1): 3}).coeff((0, 0)) == 0


def test_floats_rejected():
    with pytest.raises(TypeError):
        P(1, {(0,): 0.5})
    with pytest.raises(TypeError):
        P(1, {(1,): 1}) * 0.5


def test_no_zero_coefficients_stored():
    p = P(1, {(1,): 1}) + P(1, {(1,): -1})
    assert p.terms == {}
    assert p.is_zero()


def test_scalar_and_fraction_arithmetic():
    p = P(1, {(2,): 1})
    assert 3 * p == P(1, {(2,): 3})
    assert Fraction(1, 2) * p == P(1, {(2,): Fraction(1, 2)})
    assert (p * 0).is_zero()


def test_monomial_list_serialization():
    p = P(2, {(1, -1): Fraction(3, 4), (0, 0): -2})
    assert p.monomial_list() == [((0, 0), "-2"), ((1, -1), "3/4")]
    assert coeff_str(Fraction(6, 4)) == "3/2"
    assert coeff_str(7) == "7"


def test_power():
    u = P(1, {(1,): 1}) + P(1, {(0,): 1})
    assert u**3 == P(1, {(0,): 1, (1,): 3, (2,): 3, (3,): 1})
    assert u**0 == LaurentPoly.one(1)


def test_pickle_and_deepcopy_round_trip():
    for p in (LaurentPoly.one(2), P(2, {(1, -3): 5, (0, 2): Fraction(1, 3)}), LaurentPoly.zero(3)):
        for twin in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
            assert twin == p and twin is not p
            assert twin.terms is not p.terms
            assert hash(twin) == hash(p)
    with pytest.raises(AttributeError, match="immutable"):
        LaurentPoly.one(1).terms = {}


exponents = st.integers(min_value=-3, max_value=3)
coeffs = st.integers(min_value=-5, max_value=5)


def polys(arity):
    return st.dictionaries(
        st.tuples(*([exponents] * arity)), coeffs, max_size=5
    ).map(lambda d: LaurentPoly(arity, d))


@settings(max_examples=60, deadline=None)
@given(polys(2), polys(2), polys(2))
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=40, deadline=None)
@given(polys(2), polys(2))
def test_constant_term_convolution(p, q):
    # the x^0 coefficient of a product is the convolution of the factors'
    # coefficients over the (finite) exponent support
    for var in range(2):
        direct = (p * q).coeff_in(var, 0)
        conv = LaurentPoly.zero(2)
        for e in p.support_in(var):
            conv = conv + p.coeff_in(var, e) * q.coeff_in(var, -e)
        assert direct == conv
