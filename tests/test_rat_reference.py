"""Rat against the reference factored-denominator Rat, by property tests.

On one pole the two must build the same numerator and denominator, term order
included (float evaluation sums terms in dictionary order), print the same
text, agree on equality, and evaluate to the same float bits.
"""
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from carnotcurv.symfields import Poly, Rat
from reference_rat import Rat as ReferenceRat

NVARS = st.integers(min_value=1, max_value=3)
COEFF = st.builds(Fraction, st.integers(-9, 9).filter(bool),
                  st.integers(1, 6))
EXP = st.integers(0, 3)


@st.composite
def polys(draw, nvars, min_terms=0, max_terms=5):
    e = st.tuples(*[st.integers(0, 2)] * nvars)
    terms = draw(st.dictionaries(e, COEFF, min_size=min_terms,
                                 max_size=max_terms))
    return Poly.from_terms(nvars, terms)


@st.composite
def cases(draw):
    """(nvars, pole, [(num, e), (num, e)]) with a nonconstant primitive pole."""
    n = draw(NVARS)
    pole = draw(polys(n, min_terms=1, max_terms=3).filter(
        lambda p: p.degree() > 0))
    pole = Poly(n, pole.terms, 1, normalized=True)
    pairs = []
    for _ in range(2):
        num = draw(polys(n))
        # sometimes a numerator that the pole divides, to exercise reduction
        num = num * pole ** draw(st.integers(0, 2))
        pairs.append((num, draw(EXP)))
    return n, pole, pairs


def key(r):
    """Numerator and denominator factors of a Rat or a reference Rat, term
    order included."""
    den = r.den if isinstance(r, ReferenceRat) else (
        ((r.pole, r.e),) if r.e else ())
    return (r.num.content, list(r.num.terms.items()),
            [(f.content, list(f.terms.items()), e) for f, e in den])


def both(num, pole, e):
    return Rat(num, pole, e), ReferenceRat(num, ((pole, e),))


def same_float(a, b):
    return float(a).hex() == float(b).hex()


@settings(max_examples=300, deadline=None)
@given(cases(), COEFF, st.data())
def test_operations_match_reference(case, c, data):
    n, pole, ((a, ea), (b, eb)) = case
    r1, q1 = both(a, pole, ea)
    r2, q2 = both(b, pole, eb)
    assert key(r1) == key(q1) and key(r2) == key(q2)
    i = data.draw(st.integers(0, n - 1))
    for got, want in ((r1 + r2, q1 + q2), (r1 - r2, q1 - q2),
                      (r1 * r2, q1 * q2), (r1 * c, q1 * c),
                      (r1 + a, q1 + a), (r1 * a, q1 * a), (r1 - 3, q1 - 3),
                      (r1.diff(i), q1.diff(i)),
                      ((r1 * r2 + r1).diff(i), (q1 * q2 + q1).diff(i))):
        assert key(got) == key(want)
    names = [f"v{k}" for k in range(n)]
    assert r1.to_str(names) == q1.to_str(names)
    assert (r1 == r2) == (q1 == q2)
    # the same value assembled another way
    r3, q3 = both(a * pole, pole, ea + 1)
    assert (r1 == r3) and (q1 == q3)
    assert (r1 == a) == (q1 == a)
    vals = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    for r, q in ((r1, q1), (r1 * r2 - r2, q1 * q2 - q2), (r1.diff(i), q1.diff(i))):
        try:
            want = q.eval(vals)
        except ZeroDivisionError:
            try:
                r.eval(vals)
            except ZeroDivisionError:
                continue
            raise AssertionError("reference divided by zero, Rat did not")
        assert same_float(r.eval(vals), want)
