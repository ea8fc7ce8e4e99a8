"""The exact kernel's shortcuts against the loops they replace, term order
included.

Float evaluation sums a polynomial's terms in dictionary order, so every
shortcut must build the same content and the same (key, coefficient) pairs
in the same order as the loop it skips: a one-term factor shifts keys, a
sum with multiplier 1 copies the terms, a monomial pole comes out in one
shift, and brackets skip derivatives by variables a component does not
read.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnotcurv.frames import HField, frame_fields, h_frame
from carnotcurv.groups import build_group
from carnotcurv.symfields import Poly, Rat
from reference_poly import packed_add, packed_mul, packed_pow
from reference_rat import apply_no_skip, bracket_no_skip, reduce_by_pole

NVARS = st.integers(min_value=1, max_value=5)
COEFF = st.builds(Fraction, st.integers(-9, 9).filter(bool),
                  st.integers(1, 6))


def key(p):
    return p.content, list(p.terms.items())


def rat_key(r):
    return key(r.num), key(r.pole) if r.e else None, r.e


def field_key(comps):
    return [rat_key(c) for c in comps]


@st.composite
def polys(draw, nvars, min_terms=1, max_terms=6):
    e = st.tuples(*[st.integers(0, 4)] * nvars)
    return Poly.from_terms(nvars, draw(st.dictionaries(
        e, COEFF, min_size=min_terms, max_size=max_terms)))


@st.composite
def monomials(draw, nvars, max_exp=3):
    e = draw(st.tuples(*[st.integers(0, max_exp)] * nvars))
    return Poly.from_terms(nvars, {e: draw(COEFF)})


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_one_term_product_shifts_keys(data):
    n = data.draw(NVARS)
    a, m = data.draw(polys(n)), data.draw(monomials(n))
    assert key(m * a) == key(packed_mul(m, a))
    assert key(a * m) == key(packed_mul(a, m))
    assert key(m * m) == key(packed_mul(m, m))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_monomial_power(data):
    n = data.draw(NVARS)
    m = data.draw(monomials(n))
    for k in range(7):
        assert key(m ** k) == key(packed_pow(m, k))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sum_with_unit_multiplier(data):
    # b's content an integer multiple of a's makes a's multiplier 1
    n = data.draw(NVARS)
    a, b = data.draw(polys(n)), data.draw(polys(n))
    k = data.draw(st.integers(-6, 6).filter(bool))
    b = b * (a.content * k / b.content)
    for x, y in ((a, b), (b, a), (a, -a * k), (a, a)):
        assert key(x + y) == key(packed_add(x, y))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_monomial_pole_in_one_shift(data):
    # the pole a variable or a monomial of content 1, num * pole^j for
    # j = 0..e+1; num may hold more factors of the pole's variables
    n = data.draw(NVARS)
    if data.draw(st.booleans()):
        pole = Poly.variable(n, data.draw(st.integers(0, n - 1)))
    else:
        pole = data.draw(monomials(n, max_exp=2).filter(
            lambda p: p.degree() > 0))
        pole = Poly(n, pole.terms, Fraction(1), normalized=True)
    num = data.draw(polys(n))
    for e in range(7):
        for j in range(e + 2):
            top = num * pole ** j
            r = Rat(top, pole, e)
            q, qe = reduce_by_pole(top, pole, e)
            assert (key(r.num), r.e) == (key(q), qe)
            assert r.pole is (pole if qe else None)


def _canonical_fields(ff):
    return ([ff.hvec, ff.w_top, ff.euler, ff.dtheta, ff.x_theta]
            + ff.lift + ff.dh)


@pytest.mark.parametrize("spec", ["goursat:4", "goursat:5", "cartan"])
def test_canonical_brackets_match_no_skip(spec):
    ff = frame_fields(build_group(spec))
    fields = _canonical_fields(ff)
    for v in fields[:2]:
        for w in fields:
            got = v.bracket(w)
            assert field_key(got.comps) == field_key(bracket_no_skip(v, w).comps)
    scalars = ff.h + [ff.H] + [c for c in ff.w_top.comps if not c.is_zero]
    for v in fields:
        for f in scalars:
            assert rat_key(v.apply(f)) == rat_key(apply_no_skip(v.comps, f))
    # the canonical chain of W, as route 1 pairs it with the h-frame chain
    field = ff.w_top
    for _ in range(3):
        nxt = ff.hvec.bracket(field)
        assert field_key(nxt.comps) == field_key(
            bracket_no_skip(ff.hvec, field).comps)
        field = nxt


@pytest.mark.parametrize("spec", ["goursat:4", "goursat:5", "cartan"])
def test_h_frame_apply_matches_no_skip(spec, monkeypatch):
    model = build_group(spec)
    hf = h_frame(model)
    chain = hf.ad_h_chain(hf.w_top, model.young[0] + 1)
    fields = chain + [hf.hvec, hf.euler] + [hf.dh(i + 1) for i in range(hf.n)]
    scalars = [c for v in fields for c in v.a + v.b if not c.is_zero]
    for v in (hf.hvec, hf.euler, chain[-1]):
        for f in scalars:
            assert rat_key(v.apply(f)) == rat_key(apply_no_skip(v.b, f))
    # the whole chain again with every derivative taken
    monkeypatch.setattr(HField, "apply", lambda v, f: apply_no_skip(v.b, f))
    again = hf.ad_h_chain(hf.w_top, model.young[0] + 1)
    for got, want in zip(chain, again):
        assert field_key(got.a + got.b) == field_key(want.a + want.b)


def test_canonical_chain_takes_no_zero_derivative(monkeypatch):
    """The goursat:5 canonical chain, as route 1 pairs it with the h-frame
    chain: every derivative the brackets take is nonzero."""
    model = build_group("goursat:5")
    hf, ff = h_frame(model), frame_fields(model)
    calls, zeros = [0], []
    diff = Rat.diff

    def counted(self, i):
        out = diff(self, i)
        calls[0] += 1
        if out.is_zero:
            zeros.append((self, i))
        return out

    monkeypatch.setattr(Rat, "diff", counted)
    na = model.young[0]
    chain = hf.ad_h_chain(hf.w_top, na + 1)
    field = ff.w_top
    for k in range(na + 2):
        assert hf.to_canonical_field(chain[k]) == field
        if k <= na:
            field = ff.hvec.bracket(field)
    assert calls[0] > 0
    assert zeros == []
