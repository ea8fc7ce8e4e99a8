"""Independent verification routes: exact frame brackets, Laurent fit, probes."""
from fractions import Fraction

import numpy as np
import pytest

from carnotcurv.errors import (IllConditioned, IndexOutOfRange,
                               LemmaConditionFailed, ShootingDiverged,
                               SingularCovector)
from carnotcurv.frames import HField, HFrame, h_frame
from carnotcurv.groups import Covector, build_group
from carnotcurv import curvature as cv
from carnotcurv import oracle as oc
from carnotcurv.tolerances import FIT_B_ZERO_TOL, FIT_LIN_TOL
import reference_fit
from reference_fit import reference_probe_directions, reference_sflat_fit
from reference_probe import reference_cost_hessian_probe


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
        assert comp.e == 2
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
        pt = list(cov.xp())
        vals = oc.aij_coefficients(m, cov, i)
        n = m.dim
        for mm, want in enumerate(vals):
            # a vertical field's h-components are its derivatives of the h_k
            beta = field.apply(ff.h[n - 1 - i + mm])
            assert beta.eval(pt) == want

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


def rebuild_recursion(mp, model):
    """Make the next call rebuild the model's higher-diagonal recursion.

    Models are session-wide, so the entry is set rather than deleted: when
    the context closes the unpatched recursion is put back, and one built
    under a patch does not outlive its test.
    """
    mp.setitem(model._memo, (oc._higher_diagonal,), None)


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
        with monkeypatch.context() as mp:
            rebuild_recursion(mp, m)
            mp.setattr(hf, "bracket",
                       lambda v, w: bracket(v, w) + bracket(v, w))
            _, resid = oc.higher_diagonal_invariants(m, cov)
        assert resid[0] is False
        assert all(oc.higher_diagonal_invariants(m, cov)[1])

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

        assert all(oc.higher_diagonal_invariants(m, cov)[1])
        with monkeypatch.context() as mp:
            rebuild_recursion(mp, m)
            mp.setattr(hf, "sigma", doubled_last)
            _, resid = oc.higher_diagonal_invariants(m, cov)
        assert resid == [True, True, False]
        assert all(oc.higher_diagonal_invariants(m, cov)[1])


class TestPerModelDerivation:
    """Route 1 derives its functions of h once per model; a later call at a
    new covector only evaluates them."""

    @pytest.mark.parametrize("spec, check", [
        ("goursat:8", oc.frame_darboux_check),
        ("cartan", oc.frame_darboux_check),
        ("goursat:5", oc.higher_diagonal_invariants),
        ("goursat:8", lambda m, cov: oc.aij_coefficients(m, cov, 5))],
        ids=["darboux-goursat:8", "darboux-cartan", "diagonal-goursat:5",
             "aij-goursat:8"])
    def test_second_call_derives_nothing(self, rng, monkeypatch, spec, check):
        m = build_group(spec)
        check(m, oc.random_rational_unit_covector(m, rng))
        calls = []
        for cls, name in ((HFrame, "sigma"), (HFrame, "bracket"),
                          (HField, "apply")):
            def counted(*args, _f=getattr(cls, name), _name=name):
                calls.append(_name)
                return _f(*args)
            monkeypatch.setattr(cls, name, counted)
        check(m, oc.random_rational_unit_covector(m, rng))
        assert calls == []
        hf = h_frame(m)
        hf.sigma(hf.hvec, hf.euler)       # the wrapper does count
        assert calls[0] == "sigma"


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

    # a known defect, pinned at the tolerance as it is: on these covectors
    # lin_a misses FIT_LIN_TOL, using 1.164, 1.594 and 1.072 of it (2 of 400
    # sampled cartan fit-suite covectors miss; none of 150 on goursat:6)
    @pytest.mark.xfail(strict=True, reason="route-2 lin_a misses FIT_LIN_TOL "
                       "on about 1 in 200 cartan covectors")
    @pytest.mark.parametrize("h", [
        (-0.6950637468272917, 0.7189481120681844, 0.5238772813240771,
         -0.08383667399613204, -0.8061485156187844),
        (-0.5240400239159453, 0.851693638190503, 0.6556486235230401,
         -1.1195089806688734, 0.06721765135275737),
        (0.4220031453765673, 0.9065943664573941, -0.6322149212566157,
         -1.4600232335030903, -0.020843906371585508)])
    def test_cartan_lin_within_tolerance(self, models, h):
        cc = models["cartan"]
        cov = Covector.from_h(cc, h)
        want = float(cv.omega(4, 4)) * float(cv.r11(cc, cov))
        fit = oc.sflat_fit(cc, cov)
        assert abs(fit.lin_a - want) <= FIT_LIN_TOL * abs(want)

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


def assert_same_fit(got, want):
    for k in ("lead_a", "lead_b", "lin_a", "lin_b", "offdiag_max"):
        assert getattr(got, k).hex() == getattr(want, k).hex(), k
    assert got.dropped == want.dropped
    assert got.used_ts.tobytes() == want.used_ts.tobytes()


class TestFitReference:
    """The fit and the probe directions against the earlier code, bit for bit."""

    @pytest.mark.parametrize("spec", ["goursat:3", "goursat:4", "goursat:5",
                                      "goursat:6", "cartan"])
    def test_fit_and_probe_directions(self, models, spec):
        m = models[spec]
        rng = np.random.default_rng(16)
        for _ in range(3):
            cov = oc.random_unit_covector(m, rng, pole_min=0.45)
            assert_same_fit(oc.sflat_fit(m, cov), reference_sflat_fit(m, cov))
            got = oc._frame_at(m, cov.as_float())[1][:, :m.dim]
            for g, w in zip(got, reference_probe_directions(m, cov)):
                assert g.tobytes() == w.tobytes()

    def test_dropped_points(self, models, monkeypatch):
        # a lower condition bound drops some grid points on this covector
        m = models["cartan"]
        cov = oc.random_unit_covector(m, np.random.default_rng(1),
                                      pole_min=0.45)
        monkeypatch.setattr(oc, "FIT_COND_MAX", 5e5)
        monkeypatch.setattr(reference_fit, "FIT_COND_MAX", 5e5)
        fit = oc.sflat_fit(m, cov)
        assert 0 < fit.dropped
        assert_same_fit(fit, reference_sflat_fit(m, cov))


class TestExactSuite:
    def test_condition_rows(self, models, monkeypatch):
        g5 = models["goursat:5"]
        names = ("goursat:5 top-frame conditions",
                 "goursat:5 a_ij(i=2) vs brackets")

        def picked(rows):
            return [r.to_dict() for r in rows if r.name in names]

        assert picked(oc.run_exact_suite(g5, count=0)) == [
            {"name": names[0], "mode": "exact", "expected": "verified",
             "actual": "verified", "pass": True},
            {"name": names[1], "mode": "exact", "expected": "equal",
             "actual": "equal", "pass": True}]

        def fails(message):
            def check(*args):
                raise LemmaConditionFailed(message)
            return check

        monkeypatch.setattr(oc, "canonical_E_top", fails("not vertical"))
        monkeypatch.setattr(oc, "aij_coefficients", fails("disagrees"))
        assert picked(oc.run_exact_suite(g5, count=0)) == [
            {"name": names[0], "mode": "exact", "expected": "verified",
             "actual": "not vertical", "pass": False},
            {"name": names[1], "mode": "exact", "expected": "equal",
             "actual": "disagrees", "pass": False}]


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
        # trajectory, so a converged shoot ends on a run without the matrix;
        # two copies of one problem step in lockstep, each flow a batch of
        # two runs that store only their endpoint
        g3 = models["goursat:3"]
        cov = Covector.from_h(g3, (1.0, 0.0, 1.0)).as_float()
        target = oc.integrate_flow(g3, cov, 0.1, step=1e-3).ys[-1][:3]
        calls = []
        flows = oc.integrate_flows

        def counting(model, runs, **kw):
            trajs = flows(model, runs, **kw)
            calls.append((kw["with_variational"], len(runs)))
            assert all(len(traj) == 2 for traj in trajs)
            return trajs

        monkeypatch.setattr(oc, "integrate_flows", counting)
        p0 = [float(v) + 0.01 for v in cov.p]
        problem = ([float(v) for v in cov.base], p0, target, 0.1)
        for copies in (1, 2):
            calls.clear()
            Hs = oc._shoot_all(g3, [problem] * copies)
            assert len(Hs) == copies
            assert all(abs(H - 0.5) < 1e-12 for H in Hs)
            assert calls == [(True, copies), (False, copies)] * 3

    @pytest.mark.parametrize("spec", ["goursat:3", "goursat:4"])
    def test_lockstep_probe_matches_sequential(self, models, spec):
        # the 26 shootings in lockstep give the bytes of q that solving them
        # one after the other gives
        m = models[spec]
        rng = np.random.default_rng(3)
        for _ in range(3):
            cov = oc.random_unit_covector(m, rng, pole_min=0.45)
            q = oc.cost_hessian_probe(m, cov)
            assert q.tobytes() == reference_cost_hessian_probe(m, cov).tobytes()

    def test_lockstep_probe_raises_the_first_divergence(self, models):
        # on this Cartan covector, in lockstep, shootings 21, 12, 16 and 8
        # diverge before shooting 2, the one the sequential probe meets first
        m = models["cartan"]
        cov = oc.random_unit_covector(m, np.random.default_rng(0),
                                      pole_min=0.45)
        message = "Newton damping underflow at residual 5.876e-05"
        for probe in (reference_cost_hessian_probe, oc.cost_hessian_probe):
            with pytest.raises(ShootingDiverged) as info:
                probe(m, cov)
            assert str(info.value) == message

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
