"""Jacobi elliptic functions, strata, charts, closed-form pendulum solutions."""
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ellipj, ellipk

from carnotcurv.errors import (ModulusOutOfRange, NotUnitSpeed,
                               UnsupportedGroup, WrongStratum)
from carnotcurv.groups import (Covector, cartan_h_from_chart,
                               engel_h_from_chart)
from carnotcurv.elliptic import (classify_pendulum, complete_K,
                                 elliptic_coords, inverse_sn, jacobi_sn_cn_dn,
                                 pendulum_closed_form, pole_zero_times)
from carnotcurv.hamiltonian import integrate_flow
from carnotcurv.regularity import growth_vector_closed_form


class TestJacobiFunctions:
    def test_pythagorean_identities(self, rng):
        worst = 0.0
        for _ in range(10000):
            u = float(rng.uniform(-12, 12))
            k = float(rng.uniform(0, 1))
            sn, cn, dn = jacobi_sn_cn_dn(u, k)
            worst = max(worst, abs(sn * sn + cn * cn - 1),
                        abs(dn * dn + k * k * sn * sn - 1))
        assert worst <= 1e-12

    def test_periodicity(self, rng):
        for _ in range(500):
            u = float(rng.uniform(-6, 6))
            k = float(rng.uniform(0, 0.99))
            K = complete_K(k)
            s1, c1, d1 = jacobi_sn_cn_dn(u, k)
            s2, c2, d2 = jacobi_sn_cn_dn(u + 4 * K, k)
            assert abs(s1 - s2) <= 1e-10
            assert abs(c1 - c2) <= 1e-10
            assert abs(d1 - d2) <= 1e-10

    def test_degenerate_moduli(self):
        for k in (0.0, 0.37, 0.99, 1.0):
            assert jacobi_sn_cn_dn(0.0, k) == (0.0, 1.0, 1.0)
        u = 0.8
        sn, cn, dn = jacobi_sn_cn_dn(u, 0.0)
        assert abs(sn - math.sin(u)) < 1e-15 and abs(dn - 1) < 1e-15
        sn, cn, dn = jacobi_sn_cn_dn(u, 1.0)
        assert abs(sn - math.tanh(u)) < 1e-15
        assert abs(cn - 1 / math.cosh(u)) < 1e-15
        assert abs(dn - 1 / math.cosh(u)) < 1e-15

    def test_against_scipy(self, rng):
        worst = 0.0
        for _ in range(2000):
            u = float(rng.uniform(-8, 8))
            k = float(rng.uniform(0, 0.999))
            sn, cn, dn = jacobi_sn_cn_dn(u, k)
            s, c, d, _ = ellipj(u, k * k)
            worst = max(worst, abs(sn - s), abs(cn - c), abs(dn - d))
        assert worst < 1e-11

    def test_modulus_range(self):
        with pytest.raises(ModulusOutOfRange):
            jacobi_sn_cn_dn(1.0, 1.5)
        with pytest.raises(ModulusOutOfRange):
            jacobi_sn_cn_dn(1.0, -0.1)

    def test_inverse_sn(self, rng):
        for _ in range(500):
            k = float(rng.uniform(0, 0.999))
            s = float(rng.uniform(-1, 1))
            u = inverse_sn(s, k, math.sqrt(1 - s * s))
            sn, cn, _ = jacobi_sn_cn_dn(u, k)
            assert abs(sn - s) < 1e-12 and cn >= -1e-12

    def test_inverse_sn_near_quarter_period(self):
        # |sn| near 1, where 1 - sn^2 cancels: u comes back to near-full
        # precision only because cn is passed
        for k in (0.0, 0.5, 0.9):
            K = complete_K(k)
            for d in (1e-3, 1e-6, 1e-9):
                for u0 in (K - d, d - K):
                    sn, cn, _ = jacobi_sn_cn_dn(u0, k)
                    assert abs(inverse_sn(sn, k, cn) - u0) < 1e-14 * K


class TestCompleteK:
    def test_circular_limit(self):
        assert abs(complete_K(0.0) - math.pi / 2) < 1e-15

    def test_out_of_range(self):
        with pytest.raises(ModulusOutOfRange):
            complete_K(1.0)
        with pytest.raises(ModulusOutOfRange):
            complete_K(-0.2)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_against_quadrature_oracle(self):
        # brute-force numeric quadrature of the defining integral
        for k in (0.1, 1 / math.sqrt(2), 0.9, 0.999):
            val, _ = quad(lambda t: 1.0 / math.sqrt(1 - (k * math.sin(t)) ** 2),
                          0.0, math.pi / 2, epsabs=1e-14, epsrel=1e-14)
            assert abs(complete_K(k) - val) <= 1e-12 * val

    def test_against_scipy(self, rng):
        for _ in range(200):
            k = float(rng.uniform(0, 0.9999))
            assert abs(complete_K(k) - ellipk(k * k)) < 1e-12 * complete_K(k)

    def test_divergence_toward_one(self):
        assert complete_K(1 - 1e-10) > complete_K(0.999) > complete_K(0.9)


class TestClassification:
    def test_engel_spec_examples(self, models):
        m = models["goursat:4"]
        c6 = classify_pendulum(m, Covector.from_h(m, engel_h_from_chart(0, 1, 0)))
        assert c6.stratum == "C6" and not c6.abnormal
        c7 = classify_pendulum(m, Covector.from_h(m, engel_h_from_chart(0, 0, 0)))
        assert c7.stratum == "C7" and c7.abnormal

    def test_cartan_c1_example(self, models):
        cc = models["cartan"]
        ch = classify_pendulum(cc, Covector.from_h(cc, cartan_h_from_chart(0, 1, 1, 0)))
        assert abs(ch.E + 0.5) < 1e-15
        assert ch.stratum == "C1"

    def test_sign_subsets(self, models):
        m = models["goursat:4"]
        plus = classify_pendulum(m, Covector.from_h(m, engel_h_from_chart(0.3, 0.8, 1.0)))
        minus = classify_pendulum(m, Covector.from_h(m, engel_h_from_chart(2.9, 0.5, -1.0)))
        assert plus.stratum_label == "C1+"
        assert minus.stratum_label == "C1-"

    def test_boundary_strata(self, models):
        m = models["goursat:4"]
        th = 0.4
        c_sep = math.sqrt(2 + 2 * math.cos(th))
        c3 = classify_pendulum(m, Covector.from_h(m, engel_h_from_chart(th, c_sep, 1.0)))
        assert c3.stratum == "C3"
        # unstable equilibrium: E = |alpha|, c = 0 (theta = pi for alpha > 0)
        c5 = classify_pendulum(m, Covector.from_h(m, engel_h_from_chart(math.pi, 0.0, 1.0)))
        assert c5.stratum == "C5" and c5.abnormal
        c4 = classify_pendulum(m, Covector.from_h(m, engel_h_from_chart(0.0, 0.0, 1.0)))
        assert c4.stratum == "C4" and c4.abnormal

    @pytest.mark.parametrize("spec, chart, abnormal", [
        ("goursat:4", (0.0, 0.0, 1.0), True),         # C4
        ("goursat:4", (math.pi, 0.0, 1.0), True),     # C5
        ("goursat:4", (0, 0, 0), True),               # C7
        ("goursat:4", (0, 1, 0), False),              # C6
        ("goursat:4", (0.3, 0.8, 1.0), False),        # C1
        ("cartan", (0.0, 0.0, 1.0, 0.0), True),       # C4
        ("cartan", (0.3, 0.8, 1.0, 0.7), False)])     # C1
    def test_abnormal_agrees_with_growth_vector(self, models, spec, chart,
                                                abnormal):
        m = models[spec]
        h = (engel_h_from_chart if spec == "goursat:4"
             else cartan_h_from_chart)(*chart)
        cov = Covector.from_h(m, h)
        assert classify_pendulum(m, cov).abnormal is abnormal
        assert growth_vector_closed_form(m, cov).abnormal is abnormal

    def test_boundary_uncertain_flag(self, models):
        m = models["goursat:4"]
        th = 0.4
        c_sep = math.sqrt(2 + 2 * math.cos(th))
        near = classify_pendulum(
            m, Covector.from_h(m, engel_h_from_chart(th, c_sep * (1 + 1e-13), 1.0)))
        assert near.boundary_uncertain
        far = classify_pendulum(
            m, Covector.from_h(m, engel_h_from_chart(th, c_sep * 1.01, 1.0)))
        assert not far.boundary_uncertain

    def test_preconditions(self, models):
        with pytest.raises(NotUnitSpeed):
            classify_pendulum(models["goursat:4"],
                              Covector.from_h(models["goursat:4"], (1, 1, 0, 0)))
        with pytest.raises(UnsupportedGroup):
            classify_pendulum(models["goursat:5"],
                              Covector.from_h(models["goursat:5"], (1, 0, 0, 0, 0)))

    def test_flow_invariance(self, models, rng):
        # stratum and energy are constants of the motion
        for spec in ("goursat:4", "cartan"):
            m = models[spec]
            for _ in range(5):
                th = float(rng.uniform(-3, 3))
                c = float(rng.uniform(-2, 2))
                a = float(rng.uniform(-1.5, 1.5)) if spec == "goursat:4" \
                    else float(rng.uniform(0, 1.5))
                h = engel_h_from_chart(th, c, a) if spec == "goursat:4" \
                    else cartan_h_from_chart(th, c, a, float(rng.uniform(-3, 3)))
                cov = Covector.from_h(m, h)
                ch0 = classify_pendulum(m, cov)
                traj = integrate_flow(m, cov, 3.0, 1e-3)
                for idx in (500, 1500, 3000):
                    cht = classify_pendulum(m, traj.covector(idx), tol=1e-7)
                    assert cht.stratum == ch0.stratum
                    assert abs(cht.E - ch0.E) < 1e-9


class TestEllipticCoords:
    def test_engel_c1_spec_example(self, models):
        m = models["goursat:4"]
        k0, alpha = 0.6, 1.3
        c = 2 * k0 * math.sqrt(alpha)
        chart = elliptic_coords(m, Covector.from_h(m, engel_h_from_chart(0.0, c, alpha)))
        assert chart.stratum == "C1"
        assert abs(chart.k - k0) < 1e-12
        assert abs(chart.phi) < 1e-12

    def test_engel_c3_spec_example(self, models):
        m = models["goursat:4"]
        alpha = 1.7
        c = 2 * math.sqrt(alpha)
        chart = elliptic_coords(m, Covector.from_h(m, engel_h_from_chart(0.0, c, alpha)))
        assert chart.stratum == "C3" and chart.k == 1.0
        assert abs(chart.phi) < 1e-12

    def test_cartan_c2_k_formula(self, models):
        cc = models["cartan"]
        th, c, a, b = 0.5, 2.2, 0.9, -0.3
        chart = elliptic_coords(cc, Covector.from_h(cc, cartan_h_from_chart(th, c, a, b)))
        want = 1.0 / math.sqrt(math.sin((th - b) / 2) ** 2 + c * c / (4 * a))
        assert chart.stratum == "C2"
        assert abs(chart.k - want) < 1e-12

    def test_wrong_stratum(self, models):
        m = models["goursat:4"]
        with pytest.raises(WrongStratum):
            elliptic_coords(m, Covector.from_h(m, engel_h_from_chart(0.3, 1.0, 0.0)))

    @pytest.mark.parametrize("spec,chart_pt", [
        ("goursat:4", (0.3, 0.8, 1.0)),       # C1+
        ("goursat:4", (2.9, 0.5, -1.0)),      # C1-
        ("goursat:4", (0.3, 2.5, 1.0)),       # C2+
        ("goursat:4", (-0.4, -2.5, -0.8)),    # C2-
        ("cartan", (0.3, 0.8, 1.0, 0.7)),     # C1
        ("cartan", (0.3, -2.5, 1.0, 0.7)),    # C2
    ])
    def test_round_trip(self, models, spec, chart_pt):
        m = models[spec]
        h = engel_h_from_chart(*chart_pt) if spec == "goursat:4" \
            else cartan_h_from_chart(*chart_pt)
        cov = Covector.from_h(m, h)
        chart = elliptic_coords(m, cov)
        back = pendulum_closed_form(chart, 0.0)
        assert max(abs(x - y) for x, y in zip(back, h)) < 1e-10


class TestClosedFormDynamics:
    CASES = [
        ("goursat:4", (0.3, 0.8, 1.0), "C1"),
        ("goursat:4", (0.3, 2.5, 1.0), "C2"),
        ("goursat:4", "SEP", "C3"),
        ("goursat:4", (0.3, 1.2, 0.0), "C6"),
        ("goursat:4", (2.9, 0.5, -1.0), "C1"),
        ("cartan", (0.3, 0.8, 1.0, 0.7), "C1"),
        ("cartan", (0.3, 2.5, 1.0, 0.7), "C2"),
        ("cartan", "SEP", "C3"),
        ("cartan", (0.3, 1.2, 0.0, 0.0), "C6"),
    ]

    @pytest.mark.parametrize("spec,chart_pt,stratum", CASES)
    def test_matches_rk4(self, models, spec, chart_pt, stratum):
        m = models[spec]
        if chart_pt == "SEP":
            th = 0.4
            c = math.sqrt(2 + 2 * math.cos(th))
            chart_pt = (th, c, 1.0) if spec == "goursat:4" else (th + 0.7, c, 1.0, 0.7)
        h = engel_h_from_chart(*chart_pt) if spec == "goursat:4" \
            else cartan_h_from_chart(*chart_pt)
        cov = Covector.from_h(m, h)
        ch = classify_pendulum(m, cov)
        assert ch.stratum == stratum
        chart = elliptic_coords(m, cov) if stratum in ("C1", "C2", "C3") else ch
        traj = integrate_flow(m, cov, 5.0, 1e-3)
        hs = traj.h_series()
        sup = 0.0
        for i in range(0, len(traj.ts), 10):
            hc = pendulum_closed_form(chart, float(traj.ts[i]))
            sup = max(sup, max(abs(a - b) for a, b in zip(hc, hs[i])))
        assert sup <= 1e-6

    def test_engel_c6_exact_line(self, models):
        m = models["goursat:4"]
        chart = classify_pendulum(m, Covector.from_h(m, engel_h_from_chart(0.2, 1.3, 0.0)))
        for t in (0.0, 0.7, 2.1):
            h = pendulum_closed_form(chart, t)
            assert abs(h[0] + math.sin(0.2 + 1.3 * t)) < 1e-15
            assert h[2] == pytest.approx(1.3, abs=0)

    def test_engel_c3_single_h1_zero(self, models):
        # h1(t) = -2 sgn(c) tanh(phi+t) sech(phi+t): one zero at t = -phi
        m = models["goursat:4"]
        u = -1.0
        psi = 2 * math.atan2(math.tanh(u), 1 / math.cosh(u))
        c = 2 / math.cosh(u)
        cov = Covector.from_h(m, engel_h_from_chart(psi, c, 1.0))
        chart = elliptic_coords(m, cov)
        assert abs(chart.phi - u) < 1e-12
        zeros = pole_zero_times(chart, 5.0)
        assert len(zeros) == 1 and abs(zeros[0] - 1.0) < 1e-12

    def test_engel_c1_h1_zero_lattice(self, models):
        # zeros of h1 at sqrt(alpha)(phi + t) in 2K Z
        m = models["goursat:4"]
        cov = Covector.from_h(m, engel_h_from_chart(0.3, 0.8, 1.0))
        chart = elliptic_coords(m, cov)
        zeros = pole_zero_times(chart, 12.0)
        assert len(zeros) >= 2
        gaps = np.diff(zeros)
        K = complete_K(chart.k)
        assert np.allclose(gaps, 2 * K / math.sqrt(chart.alpha), atol=1e-9)
