"""Independent verification routes: exact frame brackets, Laurent fit, probes."""
from fractions import Fraction

import numpy as np
import pytest

from carnotcurv.errors import (IllConditioned, IndexOutOfRange,
                               LemmaConditionFailed, SingularCovector)
from carnotcurv.frames import h_frame
from carnotcurv.groups import Covector, build_group
from carnotcurv import curvature as cv
from carnotcurv import oracle as oc
from carnotcurv.tolerances import FIT_B_ZERO_TOL


class TestCanonicalETop:
    def test_heisenberg_field(self, models):
        g3 = models["goursat:3"]
        f = oc.canonical_E_top(g3, Covector.from_h(g3, (1, 0, 1)))
        # E_top = d/dh_3: vertical, p-components = column 3 of A^{-1}
        names = g3.var_names
        assert f.dumps(names) == "d/dp_y0: -x\nd/dp_y1: 1"

    def test_goursat5_pole_power_and_vanishing(self, models):
        g5 = models["goursat:5"]
        cov = Covector.from_h(g5, (Fraction(3, 5), Fraction(4, 5), 1, 1, 1))
        f = oc.canonical_E_top(g5, cov)
        # coefficient is 1/h1^2 with h1 = p_x
        comp = f.comps[-1]
        assert len(comp.den) == 1 and comp.den[0][1] == 2
        # flow derivatives up to n_a - 1 are vertical (checked exactly inside)
        of = oc.oracle_fields(g5)
        for k in range(4):
            assert of.G[k].is_vertical

    def test_cartan_normalization_exact(self, models):
        cc = models["cartan"]
        cov = Covector.from_h(cc, (Fraction(3, 5), Fraction(4, 5), 2,
                                   Fraction(1, 3), Fraction(-2, 7)))
        oc.canonical_E_top(cc, cov)      # raises on any condition failure
        of = oc.oracle_fields(cc)
        assert of.norm_fun.eval(list(cov.h)) == 1

    @pytest.mark.parametrize("spec", ["goursat:3", "goursat:4", "goursat:5",
                                      "goursat:6", "goursat:7", "goursat:8",
                                      "cartan"])
    def test_is_the_converted_seed_field(self, rng, spec):
        # the canonical W of frame_fields is the h-frame W, converted
        m = build_group(spec)
        hf = h_frame(m)
        cov = oc.random_rational_unit_covector(m, rng)
        assert oc.canonical_E_top(m, cov) == hf.to_canonical_field(hf.w_top)

    def test_rejects_non_unit_and_pole(self, models):
        g5 = models["goursat:5"]
        with pytest.raises(LemmaConditionFailed):
            oc.canonical_E_top(g5, Covector.from_h(g5, (2, 0, 1, 1, 1)))
        with pytest.raises(SingularCovector):
            oc.canonical_E_top(g5, Covector.from_h(g5, (0, 1, 1, 1, 1)))


class TestAij:
    def test_base_cases(self, models):
        g6 = models["goursat:6"]
        cov = Covector.from_h(g6, (Fraction(3, 5), Fraction(4, 5),
                                   Fraction(1, 2), 1, 2, Fraction(1, 3)))
        a0 = oc.aij_coefficients(g6, cov, 0)
        h1 = Fraction(3, 5)
        assert a0 == [h1 ** (2 - 5)]
        a1 = oc.aij_coefficients(g6, cov, 1)
        assert a1[0] == -h1 ** (3 - 5)

    def test_top_order_matches_brackets(self, models, rng):
        for spec in ("goursat:5", "goursat:6"):
            m = models[spec]
            cov = oc.random_rational_unit_covector(m, rng)
            # the call itself verifies the closed forms against the chain
            vals = oc.aij_coefficients(m, cov, m.dim - 3)
            assert len(vals) == 3
            assert all(isinstance(v, Fraction) for v in vals)

    def test_matches_canonical_coordinate_route(self, models, rng):
        # the same components read off the canonical-coordinate bracket
        # chain through the frame matrix (independent of the h-frame basis)
        from carnotcurv.frames import frame_fields, h_frame
        m = models["goursat:5"]
        ff = frame_fields(m)
        hf = h_frame(m)
        cov = oc.random_rational_unit_covector(m, rng)
        i = m.dim - 3
        field = ff.w_top
        for _ in range(i):
            field = ff.hvec.bracket(field)
        beta = ff.vertical_h_components(field)
        pt = list(cov.xp())
        vals = oc.aij_coefficients(m, cov, i)
        n = m.dim
        for mm, want in enumerate(vals):
            assert beta[n - 1 - i + mm].eval(pt) == want

    def test_index_guard(self, models):
        g5 = models["goursat:5"]
        cov = Covector.from_h(g5, (1, 0, 1, 1, 1))
        with pytest.raises(IndexOutOfRange):
            oc.aij_coefficients(g5, cov, 3)
        with pytest.raises(IndexOutOfRange):
            oc.aij_coefficients(models["cartan"],
                                Covector.from_h(models["cartan"], (1, 0, 1, 0, 0)), 1)


class TestR11Exact:
    def test_spec_examples(self, models):
        g3, g4, cc = models["goursat:3"], models["goursat:4"], models["cartan"]
        assert oc.r11_exact(g3, Covector.from_h(g3, (1, 0, 1))) == 1
        assert oc.r11_exact(g4, Covector.from_h(g4, (1, 0, 1, 0))) == -4
        assert oc.r11_exact(cc, Covector.from_h(cc, (1, 0, 1, 0, 0))) == 3

    @pytest.mark.parametrize("spec", ["goursat:3", "goursat:4", "goursat:5",
                                      "goursat:6", "cartan"])
    def test_equals_closed_form_random(self, models, rng, spec):
        m = models[spec]
        for _ in range(10):
            cov = oc.random_rational_unit_covector(m, rng)
            assert oc.r11_exact(m, cov) == cv.r11(m, cov)

    def test_pole_guard(self, models):
        cc = models["cartan"]
        with pytest.raises(SingularCovector):
            oc.r11_exact(cc, Covector.from_h(cc, (1, 0, 0, 1, 0)))

    @pytest.mark.parametrize("spec, h, exact_zero", [
        ("goursat:4", lambda pole: (pole, (1 - pole * pole) ** 0.5, 0.5, 0.3),
         (0, 1, Fraction(1, 2), Fraction(3, 10))),
        ("cartan", lambda pole: (0.6, 0.8, pole, 0.3, -0.2),
         (Fraction(3, 5), Fraction(4, 5), 0, Fraction(3, 10), Fraction(-1, 5)))],
        ids=["goursat:4", "cartan"])
    def test_pole_threshold_agrees_with_closed_form(self, models, spec, h,
                                                    exact_zero):
        # the closed form and the bracket route share one pole decision: a
        # float pole below 1e-8 in size raises, and so does an exact zero
        m = models[spec]
        for hv in (h(5e-9), h(-5e-9), exact_zero):
            cov = Covector.from_h(m, hv)
            with pytest.raises(SingularCovector) as closed:
                cv.r11(m, cov)
            with pytest.raises(SingularCovector) as bracket:
                oc.r11_exact(m, cov)
            assert str(closed.value) == str(bracket.value)
        for pole in (2e-8, -2e-8):
            cov = Covector.from_h(m, h(pole))
            cv.r11(m, cov)
            oc.r11_exact(m, cov)


class TestDarboux:
    def test_all_pairings_exact(self, models, rng):
        for spec in ("goursat:3", "goursat:5", "cartan"):
            m = models[spec]
            cov = oc.random_rational_unit_covector(m, rng)
            rows = oc.frame_darboux_check(m, cov)
            assert rows and all(r.passed for r in rows)
            byname = {r.name: r for r in rows}
            assert byname[f"sigma(E_b1,F_b1)"].actual == 1
            assert byname[f"sigma(E_a1,F_a1)"].actual == 1
            assert byname[f"sigma(E_a1,E_b1)"].actual == 0


class TestHigherDiagonal:
    def test_first_entry_is_r11(self, models, rng):
        for spec in ("goursat:3", "goursat:4", "cartan"):
            m = models[spec]
            cov = oc.random_rational_unit_covector(m, rng)
            vals, resid = oc.higher_diagonal_invariants(m, cov)
            assert vals[0] == oc.r11_exact(m, cov)
            assert resid[0]

    def test_heisenberg_closure(self, models, rng):
        g3 = models["goursat:3"]
        cov = oc.random_rational_unit_covector(g3, rng)
        vals, resid = oc.higher_diagonal_invariants(g3, cov)  # n_a = 2 steps
        assert len(vals) == 2 and len(resid) == 2
        assert resid[-1]     # frame closes exactly at the covector

    @pytest.mark.parametrize("spec", ["goursat:4", "goursat:5", "cartan"])
    def test_full_recursion_closes(self, models, rng, spec):
        # the last structural equation has no F_{a,i+1} term: the recursion
        # must close exactly on the unit cylinder
        m = models[spec]
        cov = oc.random_rational_unit_covector(m, rng)
        vals, resid = oc.higher_diagonal_invariants(m, cov)
        assert len(vals) == m.young[0]
        assert all(resid)
        assert vals[0] == oc.r11_exact(m, cov)

    @pytest.mark.parametrize("exact", [True, False])
    def test_wrong_next_F_fails_the_darboux_check(self, models, rng,
                                                  monkeypatch, exact):
        # doubling the flow derivative doubles F_{a,2} = R E_{a1} - dF_{a1},
        # so sigma(E_{a2}, F_{a2}) = 2 and the first entry is False
        m = models["goursat:4"]
        cov = oc.random_rational_unit_covector(m, rng)
        if not exact:
            cov = cov.as_float()
        hf = oc.oracle_fields(m).hf
        assert all(oc.higher_diagonal_invariants(m, cov)[1])
        bracket = hf.bracket
        monkeypatch.setattr(hf, "bracket",
                            lambda v, w: bracket(v, w) + bracket(v, w))
        _, resid = oc.higher_diagonal_invariants(m, cov)
        assert resid[0] is False

    @pytest.mark.parametrize("spec, seed", [("goursat:6", 1), ("goursat:5", 3)])
    def test_float_covector_closes(self, models, spec, seed):
        # the closure residual is a rational function that vanishes on
        # 2H = 1 only; evaluated at a float point 4.8e-17 off the cylinder it
        # once read 31.7 against an absolute 1e-9
        m = models[spec]
        cov = oc.random_unit_covector(m, np.random.default_rng(seed))
        assert all(oc.higher_diagonal_invariants(m, cov)[1])

    def test_wrong_closure_fails_only_the_closure(self, models, rng,
                                                 monkeypatch):
        # doubling the last R_{aa,n_a n_a} (the last sigma of the recursion)
        # leaves a residual R E_{a n_a} that does not vanish on 2H = 1
        m = models["goursat:4"]
        cov = oc.random_rational_unit_covector(m, rng)
        hf = oc.oracle_fields(m).hf
        sigma = hf.sigma
        calls = []

        def doubled_last(v, w):
            calls.append(None)
            s = sigma(v, w)
            return s + s if len(calls) == 2 * m.young[0] - 1 else s

        monkeypatch.setattr(hf, "sigma", doubled_last)
        _, resid = oc.higher_diagonal_invariants(m, cov)
        assert resid == [True, True, False]


class TestSflatFit:
    def test_engel_lead_and_lin(self, models):
        g4 = models["goursat:4"]
        cov = Covector.from_h(g4, (0.8, 0.6, 0.5, 0.3))
        fit = oc.sflat_fit(g4, cov)
        assert abs(fit.lead_a + 9) <= 1e-6 * 9
        assert abs(fit.lead_b + 1) <= 1e-6
        want = float(cv.omega(3, 3)) * float(cv.r11(g4, cov))
        assert abs(fit.lin_a - want) <= 1e-3 * abs(want)
        assert fit.offdiag_max < 1e-9
        assert fit.dropped == 0

    def test_cartan_lead(self, models):
        cc = models["cartan"]
        fit = oc.sflat_fit(cc, Covector.from_h(cc, (0.6, 0.8, 1.3, -0.8, 0.5)))
        assert abs(fit.lead_a + 16) <= 1e-6 * 16
        assert abs(fit.lead_b + 1) <= 1e-6

    def test_ill_conditioned_policy(self, models, monkeypatch):
        g4 = models["goursat:4"]
        cov = Covector.from_h(g4, (0.8, 0.6, 0.5, 0.3))
        monkeypatch.setattr(oc, "FIT_COND_MAX", 1.0)
        with pytest.raises(IllConditioned):
            oc.sflat_fit(g4, cov)

    def test_fit_suite_checks_b_entries(self, models, monkeypatch):
        # lin_b and offdiag_max were once computed and never checked
        g3 = models["goursat:3"]
        rows = oc.run_fit_suite(g3, count=1)
        assert [r.name.split(" fit ")[1] for r in rows] == [
            "lead_a #0", "lead_b #0", "lin_a #0", "lin_b #0", "offdiag #0"]
        assert all(r.passed for r in rows)

        fit_of = oc.sflat_fit

        def off_zero(model, cov):
            fit = fit_of(model, cov)
            fit.lin_b = fit.offdiag_max = 2 * FIT_B_ZERO_TOL
            return fit

        monkeypatch.setattr(oc, "sflat_fit", off_zero)
        rows = oc.run_fit_suite(g3, count=1)
        assert [r.passed for r in rows] == [True, True, True, False, False]


class TestDerivativePullback:
    @pytest.mark.parametrize("spec", ["goursat:4", "cartan"])
    def test_bracket_vs_ode(self, models, spec):
        m = models[spec]
        h = (0.8, 0.6, 0.5, 0.3) if spec == "goursat:4" \
            else (0.8, 0.6, 0.9, 0.4, 0.2)
        err = oc.derivative_pullback_check(m, Covector.from_h(m, h))
        assert err <= 1e-6


class TestCostProbe:
    def test_heisenberg_leading_term(self, models):
        g3 = models["goursat:3"]
        q = oc.cost_hessian_probe(g3, Covector.from_h(g3, (1.0, 0.0, 1.0)), t=0.1)
        assert abs(q[0, 0] - 400) <= 0.05 * 400
        assert abs(q[1, 1] - 100) <= 0.05 * 100

    def test_shoot_integrates_the_matrix_once_per_newton_step(
            self, models, monkeypatch):
        # the residual of an accepted iterate is read from the line search's
        # trajectory, so a converged shoot ends on a run without the matrix
        g3 = models["goursat:3"]
        cov = Covector.from_h(g3, (1.0, 0.0, 1.0)).as_float()
        target = oc.integrate_flow(g3, cov, 0.1, step=1e-3).ys[-1][:3]
        calls = []
        flow = oc.integrate_flow

        def counting(*args, **kw):
            calls.append(kw.get("with_variational", False))
            return flow(*args, **kw)

        monkeypatch.setattr(oc, "integrate_flow", counting)
        p0 = [float(v) + 0.01 for v in cov.p]
        H = oc._shoot(g3, [float(v) for v in cov.base], p0, target, 0.1)
        assert abs(H - 0.5) < 1e-12
        assert calls == [True, False] * 3

    def test_flat_direction_still_defined(self, models):
        g3 = models["goursat:3"]
        q = oc.cost_hessian_probe(g3, Covector.from_h(g3, (1.0, 0.0, 0.0)), t=0.1)
        assert abs(q[0, 0] - 400) <= 0.05 * 400


class TestGenerators:
    def test_rational_unit_covectors(self, models, rng):
        for m in models.values():
            for _ in range(10):
                cov = oc.random_rational_unit_covector(m, rng)
                assert cov.exact
                assert cov.h[0] ** 2 + cov.h[1] ** 2 == 1
                assert abs(cov.h[m.pole_index - 1]) >= Fraction(1, 5)
