"""Group models: realizations, structure validation, covectors."""
import argparse
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnotcurv import cli
from carnotcurv import groups as groups_mod
from carnotcurv.elliptic import classify_pendulum
from carnotcurv.errors import (DegreeOverflow, SingularFrame, StepTooLarge,
                               UnsupportedGroup)
from carnotcurv.frames import frame_fields, h_frame
from carnotcurv.groups import (Covector, build_group, cartan_h_from_chart,
                               engel_h_from_chart, fiber_transform,
                               parse_group_spec, validate_realization,
                               _cartan_a_base, _CARTAN_STRUCTURE)
from carnotcurv.hamiltonian import integrate_flow
from carnotcurv.oracle import random_rational_unit_covector, random_unit_covector
from carnotcurv.regularity import growth_vector_closed_form
from carnotcurv.symfields import Poly
from reference_covector import covector_at

SPECS = tuple(f"goursat:{n}" for n in range(3, 9)) + ("cartan",)


class TestBuild:
    def test_spec_grammar(self):
        assert parse_group_spec("goursat:3") == ("goursat", 3)
        assert parse_group_spec("cartan") == ("cartan", 5)
        assert parse_group_spec(" GOURSAT:7 ") == ("goursat", 7)
        for bad in ("goursat:2", "goursat:x", "goursat", "heisenberg", ""):
            with pytest.raises(UnsupportedGroup):
                parse_group_spec(bad)

    def test_spec_past_degree_limit(self):
        # goursat:n's frame has an x^(n-2) term; the kernel's cap is 255
        assert parse_group_spec("goursat:257") == ("goursat", 257)
        for spec in ("goursat:258", "goursat:999999"):
            with pytest.raises(DegreeOverflow):
                parse_group_spec(spec)

    def test_degree_overflow_before_the_frame_table(self, monkeypatch):
        # goursat:300 once allocated its 300 x 300 table of zero polys
        # (90,000 Poly.zero calls) before x^298 overflowed
        calls = []
        zero = Poly.zero
        monkeypatch.setattr(Poly, "zero", classmethod(
            lambda cls, n: calls.append(n) or zero(n)))
        with pytest.raises(DegreeOverflow):
            build_group("goursat:300")
        assert len(calls) < 100

    def test_heisenberg_engel_cartan_shapes(self, models):
        g3, g4, cc = models["goursat:3"], models["goursat:4"], models["cartan"]
        assert (g3.dim, g3.rank, g3.strata) == (3, 2, (2, 1))
        assert (g4.dim, g4.strata) == (4, (2, 1, 1))
        assert (cc.dim, cc.strata, cc.step) == (5, (2, 1, 2), 3)
        assert g3.young == (2, 1) and g4.young == (3, 1) and cc.young == (4, 1)

    def test_build_caches_singleton(self):
        assert build_group("goursat:4") is build_group("goursat:4")

    def test_cartan_bracket_x2x3_exact(self, models):
        cc = models["cartan"]
        x2, x3, x5 = cc.frame_field(2), cc.frame_field(3), cc.frame_field(5)
        assert x2.bracket(x3) == x5

    def test_structure_table_vs_brackets_all_pairs(self, models):
        for m in models.values():
            a = [list(r) for r in m.a_base]
            assert validate_realization(a, m.structure) == []

    def test_printed_cartan_realization_needs_repair(self):
        # the commonly printed z-signs (s1=s2=1) do not bracket to X3
        bad = validate_realization(_cartan_a_base(1, 1), _CARTAN_STRUCTURE)
        assert (1, 2) in bad
        assert validate_realization(_cartan_a_base(1, -1), _CARTAN_STRUCTURE) == []

    def test_realization_mismatch_when_no_repair_exists(self, monkeypatch):
        from carnotcurv.errors import RealizationMismatch
        monkeypatch.setattr(groups_mod, "_CARTAN_SIGN_CANDIDATES", ((1, 1),))
        monkeypatch.delitem(groups_mod._MODEL_CACHE, "cartan", raising=False)
        try:
            with pytest.raises(RealizationMismatch):
                groups_mod.build_group("cartan")
        finally:
            monkeypatch.undo()
            groups_mod._MODEL_CACHE.pop("cartan", None)
            groups_mod.build_group("cartan")   # restore the cached model

    def test_corrupt_inverse_fails_at_build(self, monkeypatch):
        # A A^-1 = I is proved once per model, so fiber_transform can skip
        # the per-call check; a wrong inverse must stop build_group instead
        real = groups_mod._unitriangular_inverse

        def corrupted(a):
            out = real(a)
            out[0][-1] = out[0][-1] + 1
            return out
        monkeypatch.setattr(groups_mod, "_unitriangular_inverse", corrupted)
        monkeypatch.delitem(groups_mod._MODEL_CACHE, "goursat:4", raising=False)
        try:
            with pytest.raises(SingularFrame):
                groups_mod.build_group("goursat:4")
        finally:
            monkeypatch.undo()
            groups_mod._MODEL_CACHE.pop("goursat:4", None)
            groups_mod.build_group("goursat:4")   # restore the cached model

    def test_frame_off_identity_at_origin_fails_at_build(self, monkeypatch):
        # X1 = d/dx + d/dy0 brackets like d/dx and has a unitriangular
        # frame matrix, but A(0) != I; from_h's p = h rests on A(0) = I
        real = groups_mod._goursat_a_base

        def shifted(n):
            a = real(n)
            a[0][1] = a[0][1] + 1
            return a
        monkeypatch.setattr(groups_mod, "_goursat_a_base", shifted)
        monkeypatch.delitem(groups_mod._MODEL_CACHE, "goursat:4", raising=False)
        try:
            with pytest.raises(SingularFrame, match="identity at the origin"):
                groups_mod.build_group("goursat:4")
        finally:
            monkeypatch.undo()
            groups_mod._MODEL_CACHE.pop("goursat:4", None)
            groups_mod.build_group("goursat:4")   # restore the cached model

    def test_nilpotency(self, models):
        # brackets of total stratum weight above the step vanish
        for m in models.values():
            fields = [m.frame_field(i) for i in range(1, m.dim + 1)]
            x1 = fields[0]
            b = x1.bracket(fields[1])
            weight = 2
            while weight < m.step:
                b = x1.bracket(b)
                weight += 1
            # b now has top weight: bracketing with any generator vanishes
            for f in fields:
                assert f.bracket(b).is_zero

    def test_frame_unitriangular_det_one(self, models, rng):
        for m in models.values():
            for _ in range(3):
                base = [float(v) for v in rng.uniform(-2, 2, m.dim)]
                a, _ = fiber_transform(m, base)
                assert abs(np.linalg.det(np.array(a, dtype=float)) - 1) < 1e-12


class TestFiberTransform:
    def test_identity_at_origin(self, models):
        for m in models.values():
            a, ainv = fiber_transform(m, (0,) * m.dim)
            eye = np.eye(m.dim)
            assert np.allclose(np.array(a, dtype=float), eye)
            assert np.allclose(np.array(ainv, dtype=float), eye)

    def test_goursat4_entries_at_x1(self, models):
        # A[i][j] = x^(j-i)/(j-i)! on the y-block
        a, _ = fiber_transform(models["goursat:4"], (1, 0, 0, 0))
        for i in range(1, 4):
            for j in range(1, 4):
                want = Fraction(1, math.factorial(j - i)) if j >= i else 0
                assert a[i][j] == want

    def test_bad_base_point(self, models):
        with pytest.raises(SingularFrame):
            fiber_transform(models["goursat:3"], (0, 0))


RATIONALS = st.fractions(-3, 3, max_denominator=12)


class TestCovector:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_round_trip_exact(self, data):
        # h -> p at a rational base point and back through the lazy h
        m = build_group(data.draw(st.sampled_from(SPECS)))
        h = tuple(data.draw(st.lists(RATIONALS, min_size=m.dim, max_size=m.dim)))
        base = data.draw(st.lists(RATIONALS, min_size=m.dim, max_size=m.dim))
        cov = covector_at(m, h, base)
        assert cov.exact
        assert cov.h == h
        assert covector_at(m, cov.h, base).p == cov.p

    def test_round_trip_float(self, models, rng):
        m = models["cartan"]
        for _ in range(20):
            h = rng.uniform(-2, 2, 5)
            base = rng.uniform(-1, 1, 5)
            cov = covector_at(m, [float(v) for v in h], [float(v) for v in base])
            assert not cov.exact
            assert np.allclose(cov.h, h, rtol=1e-12, atol=1e-12)

    def test_unit_speed_and_H(self, models):
        m = models["goursat:3"]
        cov = Covector.from_h(m, (Fraction(3, 5), Fraction(4, 5), 7))
        assert cov.H == Fraction(1, 2)
        assert cov.is_unit_speed()
        assert not Covector.from_h(m, (1, 1, 0)).is_unit_speed()

    def test_immutable(self, models):
        cov = Covector.from_h(models["goursat:3"], (1, 0, 0))
        with pytest.raises(AttributeError):
            cov.p = (0, 0, 0)
        with pytest.raises(AttributeError):
            cov.exact = False

    def test_from_p_matches_from_h_at_origin(self, models):
        m = models["goursat:4"]
        a = Covector(m, (0, 0, 0, 0), (1, 0, 1, 2))
        b = Covector.from_h(m, (1, 0, 1, 2))
        assert a.h == b.h and a.p == b.p

    def test_origin_covectors_make_no_frame_matrices(self, monkeypatch):
        # A(0) = I is proved at build time, so a covector built at the
        # origin has p = h, exact or float, and as_float keeps it there
        calls = []
        real = groups_mod.fiber_transform
        monkeypatch.setattr(groups_mod, "fiber_transform",
                            lambda *args: calls.append(args) or real(*args))
        rng = np.random.default_rng(3)
        for spec in SPECS:
            m = build_group(spec)
            for cov in (random_rational_unit_covector(m, rng),
                        random_unit_covector(m, rng)):
                assert cov.h == cov.p
                f = cov.as_float()
                assert not f.exact and f.h == f.p == tuple(map(float, cov.p))
        args = argparse.Namespace(group="goursat:8",
                                  covector="3/5,4/5,1,-2,1/3,0,1,1")
        model, cov = cli._model_and_covector(args)
        f = cov.as_float()
        assert cov.exact and cov.h == cov.p and f.h == f.p
        assert calls == []
        # off the origin h still goes through the frame matrix
        assert Covector(model, (1,) * 8, cov.p).h != cov.h
        assert len(calls) == 1

    def test_signed_zero_normalised_at_the_origin(self):
        # -0.0 is stored as 0.0, as the identity product once gave: the
        # chart angle of h1 = 0.0 is atan2(-0.0, 1.0) = -0.0, and the flow
        # starts from +0.0
        m = build_group("goursat:4")
        h = engel_h_from_chart(0, 1, 0.5)
        assert math.copysign(1.0, h[0]) == -1.0
        cov = Covector.from_h(m, h)
        assert math.copysign(1.0, cov.h[0]) == 1.0
        assert math.copysign(1.0, cov.p[0]) == 1.0
        chart = classify_pendulum(m, cov)
        assert chart.theta0 == 0.0 and math.copysign(1.0, chart.theta0) == -1.0
        ys = integrate_flow(m, cov, 0.01, 1e-3).ys
        assert all(math.copysign(1.0, v) == 1.0 for v in ys[0])

    def test_infinite_h_entry_stays_in_its_slot(self):
        # no identity product at the origin, so 0 * inf spreads no NaN; the
        # flow still refuses the covector
        m = build_group("goursat:4")
        for h in ((math.inf, 1.0, 0.0, 0.0), (1.0, 0.0, -math.inf, 0.0)):
            cov = Covector.from_h(m, h)
            assert cov.p == cov.h == h
            with pytest.raises(StepTooLarge):
                integrate_flow(m, cov, 1.0, 1e-3)

    def test_chart_views(self, models):
        # Goursat convention: h1 = -sin(theta), h2 = cos(theta)
        m = models["goursat:4"]
        th = 0.7
        theta, c, alpha = m.chart_from_h(engel_h_from_chart(th, 0.5, -1.2))
        assert abs(theta - th) < 1e-12
        assert abs(c - 0.5) < 1e-15
        assert abs(alpha + 1.2) < 1e-15
        # Cartan convention: h1 = cos(theta), alpha >= 0 with beta
        cc = models["cartan"]
        theta, c, alpha, beta = cc.chart_from_h(
            cartan_h_from_chart(0.4, 0.9, 1.5, -0.8))
        assert abs(theta - 0.4) < 1e-12
        assert abs(c - 0.9) < 1e-15
        assert abs(alpha - 1.5) < 1e-12
        assert abs(beta + 0.8) < 1e-12
        # only the pendulum groups have a chart
        assert models["goursat:5"].chart_from_h is None


# the README's seed field of the canonical frame: W = h1^(2 - n_a) d/dh_n
# for Goursat (n_a = n - 1) and (h2/h3) d/dh4 - (h1/h3) d/dh5 for Cartan,
# as coefficients on d/dh_1..d/dh_n at the fiber point h
def _readme_w(model, h):
    n = model.dim
    coef = [Fraction(0)] * n
    if model.kind == "goursat":
        coef[n - 1] = h[0] ** (2 - (n - 1))
    else:
        coef[3], coef[4] = h[1] / h[2], -h[0] / h[2]
    return coef


@pytest.mark.parametrize("spec", [f"goursat:{n}" for n in range(3, 9)]
                         + ["cartan"])
def test_w_matches_the_readme_formula(spec):
    # both algebras' W against the literal formula at rational points:
    # d/dh_k has p-components column k of A^-1 and no x-components
    m = build_group(spec)
    n = m.dim
    hf, ff = h_frame(m), frame_fields(m)
    rng = np.random.default_rng(13)
    for _ in range(3):
        base = [Fraction(int(k), 3) for k in rng.integers(-4, 5, n)]
        p = [Fraction(int(k), 4) for k in rng.integers(1, 9, n)]
        cov = Covector(m, base, p)
        h = cov.h
        if h[m.pole_index - 1] == 0:
            continue
        coef = _readme_w(m, h)
        assert hf.eval_at(hf.w_top, list(h)) == ([0] * n, coef)
        _, ainv = fiber_transform(m, base)
        want = (0,) * n + tuple(sum(ainv[j][k] * coef[k] for k in range(n))
                                for j in range(n))
        assert ff.w_top.eval(list(cov.xp())) == want


@pytest.mark.parametrize("n, at_pole", [
    (5, (2, 3, 3, 4, 4, 5)),
    (6, (2, 3, 3, 4, 4, 5, 5, 6)),
    (7, (2, 3, 3, 4, 4, 5, 5, 6, 6, 7)),
    (8, (2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8))])
def test_goursat_growth_tuples(n, at_pole):
    # regular where h1 != 0, at_pole where only h1 vanishes, abnormal
    # where h1 = h3 = 0
    m = build_group(f"goursat:{n}")
    regular = tuple(range(2, n + 1))
    assert (m.growth_regular, m.growth_at_pole,
            m.growth_abnormal) == (regular, at_pole, (2, 3))
    for h, want in (((1, 0, 1), regular), ((0, 1, 1), at_pole),
                    ((0, 1, 0), (2, 3))):
        cov = Covector.from_h(m, h + (1,) * (n - 3))
        assert growth_vector_closed_form(m, cov).growth == want
