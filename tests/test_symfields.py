"""Exact algebra kernel: polynomials, rational functions, fields, brackets."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnotcurv.errors import CarnotError, DegreeOverflow, DimensionMismatch
from carnotcurv.frames import (HField, frame_fields, h_frame,
                               verify_bracket_identities)
from carnotcurv.groups import Covector
from carnotcurv.symfields import Poly, Rat, sigma_pair
from reference_covector import covector_at


def _rand_poly(rng, nvars=3, nterms=4, maxdeg=3):
    terms = {}
    for _ in range(nterms):
        e = tuple(int(rng.integers(0, maxdeg + 1)) for _ in range(nvars))
        terms[e] = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
    return Poly.from_terms(nvars, terms)


class TestPoly:
    def test_ring_axioms_random(self, rng):
        for _ in range(50):
            a, b, c = (_rand_poly(rng) for _ in range(3))
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert (a - a).is_zero

    def test_canonical_form_unique(self):
        # same polynomial assembled two ways compares equal structurally
        x = Poly.variable(2, 0)
        y = Poly.variable(2, 1)
        p = (x + y) * (x - y)
        q = x * x - y * y
        assert p == q
        with pytest.raises(TypeError):
            hash(p)

    def test_power_and_diff(self, rng):
        x = Poly.variable(2, 0)
        y = Poly.variable(2, 1)
        p = (x * 2 + y * Fraction(1, 3)) ** 3
        assert p.diff(0) == (x * 2 + y * Fraction(1, 3)) ** 2 * 6
        for _ in range(20):
            a, b = _rand_poly(rng), _rand_poly(rng)
            assert (a * b).diff(1) == a.diff(1) * b + a * b.diff(1)

    def test_eval_exact_and_float(self):
        x = Poly.variable(2, 0)
        y = Poly.variable(2, 1)
        p = x * x * 3 + y * Fraction(1, 2)
        assert p.eval([Fraction(1, 3), Fraction(4)]) == Fraction(7, 3)
        assert abs(p.eval([0.5, 2.0]) - 1.75) < 1e-15

    def test_exact_division(self):
        x = Poly.variable(2, 0)
        y = Poly.variable(2, 1)
        assert (x * x - y * y).exact_div(x - y) == x + y
        assert (x * x + y).exact_div(x - y) is None
        # non-monic and rational content
        p = (x * 2 + y) * (x * Fraction(1, 3) - y)
        assert p.exact_div(x * 2 + y) == x * Fraction(1, 3) - y

    def test_nvars_guard(self):
        with pytest.raises(DimensionMismatch):
            Poly.variable(2, 0) * Poly.variable(3, 0)


class TestDegreeLimit:
    """A packed monomial holds a total degree up to 255; past that every
    result raises DegreeOverflow, never a polynomial with carried fields."""

    def test_degree_255_round_trips(self):
        p = Poly.variable(3, 1) ** 255
        assert p.monomials() == [((0, 255, 0), 1)]
        assert p.degree() == 255
        assert p.diff(1) == Poly.from_terms(3, {(0, 254, 0): 255})

    def test_power_256_raises(self):
        with pytest.raises(DegreeOverflow):
            Poly.variable(3, 1) ** 256

    def test_product_past_limit_raises(self):
        x, y = Poly.variable(2, 0), Poly.variable(2, 1)
        a = x ** 200 + y ** 3
        b = x ** 150 * y ** 50 - 1
        assert a.degree() == b.degree() == 200
        with pytest.raises(DegreeOverflow):
            a * b

    def test_from_terms_past_limit_raises(self):
        with pytest.raises(DegreeOverflow):
            Poly.from_terms(2, {(256, 0): 1})
        with pytest.raises(DegreeOverflow):
            Poly.from_terms(3, {(100, 100, 56): 1, (0, 0, 0): 2})

    def test_error_is_a_carnot_error(self):
        assert issubclass(DegreeOverflow, CarnotError)


class TestRat:
    def test_cancellation_roundtrip(self, rng):
        # (a / p) * p and (a p^2) / p^3 reduce to the canonical a and a / p
        for _ in range(30):
            a, p = _rand_poly(rng), _rand_poly(rng)
            if a.is_zero or p.degree() < 1:
                continue
            p = Poly(p.nvars, p.terms, 1, normalized=True)
            assert Rat(a, p, 1) * Rat(p) == Rat(a)
            assert Rat(a * p * p, p, 3) == Rat(a, p, 1)

    def test_gcd_reduction_idempotent(self):
        x = Poly.variable(2, 0)
        y = Poly.variable(2, 1)
        r = Rat((x * x - y * y) * (x + y), x + y, 2)
        assert r == Rat(x - y)
        assert r.pole is None and r.e == 0
        r = Rat((x * x - y * y) * 3, x + y, 2)
        assert r.pole == x + y and r.e == 1 and r.num == (x - y) * 3
        assert Rat(r.num, r.pole, r.e) == r

    def test_add_mul_div(self):
        x = Poly.variable(2, 0)
        y = Poly.variable(2, 1)
        half_x = Rat(x) * Fraction(1, 2)
        assert half_x + half_x == Rat(x)
        r = Rat(x, y, 2) + Rat(Poly.const(2, 1), y, 1)
        # common denominator y^2
        assert r == Rat(x + y, y, 2)
        assert r * Rat(y * y) == Rat(x + y)
        assert (r - r).is_zero and (r - r).pole is None and (r - r).e == 0
        with pytest.raises(TypeError):
            hash(r)

    def test_one_pole_positive_power_enforced(self):
        x = Poly.variable(2, 0)
        y = Poly.variable(2, 1)
        with pytest.raises(ValueError):
            Rat(x, y, -1)
        # a constant pole, a pole of content 2, two factors, no pole
        for pole, e in ((Poly.const(2, 3), 2), (y * 2, 1),
                        (((y, 1), (x + y, 1)), 0), (None, 1)):
            with pytest.raises(ValueError):
                Rat(x, pole, e)
        a, b = Rat(x, y, 1), Rat(y, x + y, 1)
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            a * b

    def test_diff_quotient_rule(self):
        x = Poly.variable(2, 0)
        y = Poly.variable(2, 1)
        r = Rat(x * x, y, 1)
        # d/dy (x^2 / y) = -x^2 / y^2
        assert r.diff(1) == Rat(-x * x, y, 2)

    def test_eval_pole(self):
        x = Poly.variable(1, 0)
        r = Rat(Poly.const(1, 1), x, 2)
        assert r.eval([Fraction(1, 2)]) == 4
        with pytest.raises(ZeroDivisionError):
            r.eval([Fraction(0)])


class TestFields:
    def test_bracket_antisymmetric_bilinear(self, models, rng):
        ff = frame_fields(models["goursat:4"])
        fields = [ff.hvec, ff.dtheta, ff.x_theta, ff.dh[2], ff.lift[1]]
        for _ in range(10):
            i, j = rng.integers(0, len(fields), 2)
            v, w = fields[i], fields[j]
            assert v.bracket(w) == -(w.bracket(v))

    def test_jacobi_identity(self, models):
        ff = frame_fields(models["goursat:4"])
        triples = [(ff.hvec, ff.dtheta, ff.dh[2]),
                   (ff.lift[0], ff.lift[1], ff.dh[3]),
                   (ff.hvec, ff.x_theta, ff.euler)]
        for u, v, w in triples:
            total = (u.bracket(v.bracket(w)) + v.bracket(w.bracket(u))
                     + w.bracket(u.bracket(v)))
            assert total.is_zero

    def test_leibniz_rule(self, models):
        ff = frame_fields(models["goursat:3"])
        f = ff.h[2] * ff.h[1]
        v, w = ff.hvec, ff.dh[2]
        lhs = v.bracket(w.smul(f))
        rhs = w.smul(v.apply(f)) + v.bracket(w).smul(f)
        assert lhs == rhs

    def test_sigma_darboux_and_skew(self, models):
        m = models["goursat:4"]
        n = m.dim
        dp1 = [0] * (2 * n)
        dx1 = [0] * (2 * n)
        dp1[n] = 1
        dx1[0] = 1
        assert sigma_pair(dp1, dx1) == 1
        v = list(range(1, 2 * n + 1))
        assert sigma_pair(v, v) == 0
        with pytest.raises(DimensionMismatch):
            sigma_pair([1, 2], [1, 2, 3, 4])

    def test_sigma_euler_hamiltonian_is_2H(self, models):
        for m in models.values():
            ff = frame_fields(m)
            assert sigma_pair(ff.euler.comps, ff.hvec.comps) == ff.H * 2


# entries of size up to 1e150: every product, and every sum of up to 2n = 8
# of them, stays finite
SIGMA_ENTRY = st.one_of(st.sampled_from([0.0, -0.0, 1e150, -1e150]),
                        st.floats(-1e150, 1e150))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_sigma_pair_on_stacks_matches_scalar(data):
    # sigma_pair(B, W.T[:, :, None]) pairs every column of B with every row
    # of W, one term at a time in the scalar order
    n = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(1, 4))
    rows = data.draw(st.integers(1, 4))

    def stack(shape):
        size = shape[0] * shape[1]
        entries = data.draw(st.lists(SIGMA_ENTRY, min_size=size,
                                     max_size=size))
        return np.array(entries, dtype=float).reshape(shape)

    B = stack((2 * n, cols))
    W = stack((rows, 2 * n))
    got = sigma_pair(B, W.T[:, :, None])
    assert got.shape == (rows, cols)
    for r in range(rows):
        for c in range(cols):
            want = sigma_pair(list(B[:, c]), list(W[r]))
            assert float(got[r, c]).hex() == float(want).hex()


class TestBracketIdentities:
    @pytest.mark.parametrize("spec", ["goursat:3", "goursat:4", "goursat:5",
                                      "goursat:6", "cartan"])
    def test_all_identities_hold(self, models, spec):
        checks = verify_bracket_identities(models[spec])
        assert checks and all(c.holds for c in checks)

    def test_euler_identity_direct(self, models):
        # [H, e] = -H for every model (fiber dilation weight one)
        for m in models.values():
            ff = frame_fields(m)
            assert ff.hvec.bracket(ff.euler) == -ff.hvec

    def test_cartan_dh4_identity_direct(self, models):
        ff = frame_fields(models["cartan"])
        assert ff.hvec.bracket(ff.dh[3]) == ff.dh[2].smul(-ff.h[0])

    def test_vertical_equations_exact(self, models):
        for m in models.values():
            ff = frame_fields(m)
            n = m.dim
            if m.kind == "goursat":
                assert ff.hvec.apply(ff.h[0]) == -ff.h[1] * ff.h[2]
                for i in range(2, n):
                    assert ff.hvec.apply(ff.h[i - 1]) == ff.h[0] * ff.h[i]
                assert ff.hvec.apply(ff.h[n - 1]).is_zero
            else:
                assert ff.hvec.apply(ff.h[0]) == -ff.h[1] * ff.h[2]
                assert ff.hvec.apply(ff.h[1]) == ff.h[0] * ff.h[2]
                assert ff.hvec.apply(ff.h[2]) == \
                    ff.h[0] * ff.h[3] + ff.h[1] * ff.h[4]
                assert ff.hvec.apply(ff.h[3]).is_zero
                assert ff.hvec.apply(ff.h[4]).is_zero


def theta_fields(hf):
    """d/dtheta = h1 d/dh2 - h2 d/dh1 and X_theta = h2 X1 - h1 X2 of the
    h-frame."""
    n, h, zero = hf.n, hf.h, hf.zero
    pad = [zero] * (n - 2)
    return (HField([zero] * n, [-h[1], h[0]] + pad),
            HField([h[1], -h[0]] + pad, [zero] * n))


class TestHFrame:
    """The frame-basis algebra must agree with the canonical representation."""

    @pytest.mark.parametrize("spec", ["goursat:3", "goursat:4", "cartan"])
    def test_bracket_chain_matches_canonical(self, models, spec):
        m = models[spec]
        hf = h_frame(m)
        ff = frame_fields(m)
        na = m.young[0]
        chain_h = hf.ad_h_chain(hf.w_top, na + 1)
        field = ff.w_top
        for k in range(na + 2):
            assert hf.to_canonical_field(chain_h[k]) == field
            if k <= na:
                field = ff.hvec.bracket(field)

    def test_named_fields_match_canonical(self, models):
        for spec in ("goursat:4", "cartan"):
            m = models[spec]
            hf = h_frame(m)
            ff = frame_fields(m)
            assert hf.to_canonical_field(hf.hvec) == ff.hvec
            assert hf.to_canonical_field(hf.euler) == ff.euler
            dtheta, x_theta = theta_fields(hf)
            assert hf.to_canonical_field(dtheta) == ff.dtheta
            assert hf.to_canonical_field(x_theta) == ff.x_theta

    def test_sigma_matches_canonical(self, models, rng):
        for spec in ("goursat:4", "cartan"):
            m = models[spec]
            hf = h_frame(m)
            pairs = [theta_fields(hf), (hf.euler, hf.hvec),
                     (hf.w_top, hf.bracket(hf.hvec, hf.w_top))]
            for _ in range(5):
                h = [Fraction(int(rng.integers(-4, 5)), 3)
                     for _ in range(m.dim)]
                if h[m.pole_index - 1] == 0:
                    h[m.pole_index - 1] = Fraction(1, 2)
                cov = Covector.from_h(m, h)
                pt = list(cov.xp())
                for va, vb in pairs:
                    want = sigma_pair(
                        hf.to_canonical_field(va).eval(pt),
                        hf.to_canonical_field(vb).eval(pt))
                    got = hf.sigma(va, vb).eval(list(cov.h))
                    assert got == want

    def test_to_canonical_at_matches_field_eval(self, models, rng):
        m = models["goursat:4"]
        hf = h_frame(m)
        cov = covector_at(
            m, [Fraction(3, 5), Fraction(4, 5), Fraction(1, 2), Fraction(2)],
            [Fraction(1, 3), 0, Fraction(1, 7), 2])
        pt = list(cov.xp())
        dtheta, _ = theta_fields(hf)
        for v in (hf.hvec, dtheta, hf.w_top, hf.bracket(hf.hvec, dtheta)):
            assert hf.to_canonical_at(v, cov) == hf.to_canonical_field(v).eval(pt)


class TestDumps:
    def test_heisenberg_hamiltonian_golden(self, models):
        ff = frame_fields(models["goursat:3"])
        names = models["goursat:3"].var_names
        want = ("d/dx: p_x\n"
                "d/dy0: x*p_y1 + p_y0\n"
                "d/dy1: x^2*p_y1 + x*p_y0\n"
                "d/dp_x: -x*p_y1^2 - p_y0*p_y1")
        assert ff.hvec.dumps(names) == want

    def test_cartan_dh3_golden(self, models):
        ff = frame_fields(models["cartan"])
        names = models["cartan"].var_names
        want = ("d/dp_x: 1/2*y\n"
                "d/dp_y: -1/2*x\n"
                "d/dp_z: 1")
        assert ff.dh[2].dumps(names) == want
        # determinism: identical text on repeated dumps
        assert ff.dh[2].dumps(names) == ff.dh[2].dumps(names)
