"""Poly.exact_div against the reference long division, by property tests.

The quotient must match the reference in value, content and term order (the
order reaches float evaluation, which sums terms in dictionary order), and
both must refuse the same inexact divisions.
"""
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from carnotcurv.symfields import Poly
from reference_division import reference_exact_div

NVARS = st.integers(min_value=1, max_value=4)
COEFF = st.builds(Fraction, st.integers(-9, 9).filter(bool),
                  st.integers(1, 6))


def exponents(nvars, maxdeg=3):
    return st.tuples(*[st.integers(0, maxdeg)] * nvars)


@st.composite
def polys(draw, nvars, min_terms=0, max_terms=6):
    terms = draw(st.dictionaries(exponents(nvars), COEFF,
                                 min_size=min_terms, max_size=max_terms))
    return Poly.from_terms(nvars, terms)


@st.composite
def monomials(draw, nvars):
    """c * x^e; normalized, its single integer coefficient is 1."""
    e = draw(exponents(nvars, maxdeg=2))
    return Poly.from_terms(nvars, {e: draw(COEFF)})


@st.composite
def divisors(draw, nvars):
    return draw(st.one_of(monomials(nvars), polys(nvars, min_terms=2)))


def same(q, r):
    if q is None or r is None:
        return q is None and r is None
    return (q.content == r.content
            and list(q.terms.items()) == list(r.terms.items()))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_product_divides_back(data):
    n = data.draw(NVARS)
    a = data.draw(polys(n))
    b = data.draw(divisors(n))
    q = (a * b).exact_div(b)
    assert q == a
    assert same(q, reference_exact_div(a * b, b))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_inexact_remainder_is_refused(data):
    # a*b + r is divisible by b exactly when r is
    n = data.draw(NVARS)
    a = data.draw(polys(n))
    b = data.draw(divisors(n))
    r = data.draw(polys(n, min_terms=1))
    assume(reference_exact_div(r, b) is None)
    assert (a * b + r).exact_div(b) is None
    assert reference_exact_div(a * b + r, b) is None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_agrees_with_reference(data):
    n = data.draw(NVARS)
    b = data.draw(divisors(n))
    p = data.draw(st.one_of(polys(n), polys(n).map(lambda a: a * b),
                            st.tuples(polys(n), polys(n)).map(
                                lambda ar: ar[0] * b + ar[1])))
    assert same(p.exact_div(b), reference_exact_div(p, b))


def test_zero_divisor_raises():
    x = Poly.variable(2, 0)
    with pytest.raises(ZeroDivisionError):
        x.exact_div(Poly.zero(2))
    with pytest.raises(ZeroDivisionError):
        reference_exact_div(x, Poly.zero(2))
