"""Packed-key Poly against the tuple-key reference kernel, by property tests.

Each operation must give the reference's content and the same sequence of
(exponents, coefficient) pairs in dictionary order: float evaluation sums
terms in that order, so the values must agree bit for bit, and the printed
forms must be the same strings.  The draws include exponents near the
255 total-degree limit of a packed monomial.
"""
import struct
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from carnotcurv.symfields import Poly
from reference_poly import RefPoly

NVARS = st.integers(min_value=1, max_value=6)
COEFF = st.builds(Fraction, st.integers(-9, 9).filter(bool),
                  st.integers(1, 6))


def same(p, r):
    return p.content == r.content and p.monomials() == list(r.terms.items())


@st.composite
def exponents(draw, nvars, bump):
    """Small exponents, with up to `bump` more on one variable."""
    e = list(draw(st.tuples(*[st.integers(0, 3)] * nvars)))
    e[draw(st.integers(0, nvars - 1))] += draw(st.integers(0, bump))
    return tuple(e)


@st.composite
def polys(draw, nvars, bump=100):
    """The same polynomial as a Poly and as a RefPoly."""
    terms = draw(st.dictionaries(exponents(nvars, bump), COEFF, max_size=6))
    a, ra = Poly.from_terms(nvars, terms), RefPoly.from_terms(nvars, terms)
    assert same(a, ra)
    return a, ra


def bits(x):
    return struct.pack("<d", x)


def power(i, k):
    return f"v{i}" if k == 1 else f"v{i}**{k}"


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sum_and_product(data):
    # degree <= 118 per factor keeps the product within the limit
    n = data.draw(NVARS)
    (a, ra), (b, rb) = data.draw(polys(n)), data.draw(polys(n))
    assert same(a + b, ra + rb)
    assert same(a * b, ra * rb)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_diff_and_pad(data):
    n = data.draw(NVARS)
    a, ra = data.draw(polys(n, bump=230))
    i = data.draw(st.integers(0, n - 1))
    assert same(a.diff(i), ra.diff(i))
    m = n + data.draw(st.integers(0, 3))
    assert a.pad(m).nvars == m
    assert same(a.pad(m), ra.pad(m))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_eval_bit_identical(data):
    n = data.draw(NVARS)
    a, ra = data.draw(polys(n, bump=230))
    x = data.draw(st.lists(st.floats(-1.5, 1.5), min_size=n, max_size=n))
    assert bits(float(a.eval(x))) == bits(float(ra.eval(x)))
    q = data.draw(st.lists(COEFF, min_size=n, max_size=n))
    assert a.eval(q) == ra.eval(q)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_printed_forms(data):
    n = data.draw(NVARS)
    a, ra = data.draw(polys(n, bump=230))
    names = [f"h{i + 1}" for i in range(n)]
    assert a.to_str(names) == ra.to_str(names)
    assert a.to_pyexpr(power) == ra.to_pyexpr(power)
