"""Closed-form curvature invariants and their structural identities."""
import json
import math
from fractions import Fraction

import pytest

from carnotcurv.errors import NotAmpleEquiregular, SingularCovector
from carnotcurv.groups import (Covector, cartan_h_from_chart,
                               engel_h_from_chart)
from carnotcurv.hamiltonian import integrate_flow
from carnotcurv import curvature as cv


def engel_r11_chart(theta, c, alpha):
    """Engel R11 in chart form: 4E - 6 c^2 csc^2(theta)."""
    E = 0.5 * c * c - alpha * math.cos(theta)
    s = math.sin(theta)
    return 4.0 * E - 6.0 * c * c / (s * s)


def cartan_r11_chart(theta, c, alpha, beta):
    """Cartan R11 in chart form: 6E - 8 (alpha^2/c^2) sin^2(theta - beta)."""
    E = 0.5 * c * c - alpha * math.cos(theta - beta)
    return 6.0 * E - 8.0 * (alpha * alpha / (c * c)) * math.sin(theta - beta) ** 2


class TestCoefficients:
    def test_closed_forms_equal_double_sums(self):
        for n in range(3, 13):
            assert cv.coeff_A(n) == cv.coeff_A_sums(n)

    def test_values(self):
        assert cv.coeff_A(4) == (0, 0)
        assert cv.coeff_A(3) == (0, 0)
        assert cv.coeff_A(5) == (6, 2)
        assert cv.coeff_A(6) == (27, 8)

    def test_omega_values(self):
        assert cv.omega(4, 4) == Fraction(4, 63)
        assert cv.omega(2, 1) == Fraction(1, 12)
        assert cv.omega(5, 1) == 0
        assert cv.omega(3, 3) == Fraction(3, 35)

    def test_r_coefficient_consistency(self):
        # 3 Omega(n-1, n-1) = 3(n-1)/(4(n-1)^2 - 1), = 2/5 at n = 3
        for n in range(3, 13):
            assert 3 * cv.omega(n - 1, n - 1) == Fraction(
                3 * (n - 1), 4 * (n - 1) ** 2 - 1)
        assert 3 * cv.omega(2, 2) == Fraction(2, 5)
        assert 3 * cv.omega(4, 4) == Fraction(4, 21)


class TestR11:
    def test_heisenberg_reduction_exact(self, rng):
        for _ in range(100):
            h = tuple(Fraction(int(rng.integers(-12, 13)), int(rng.integers(1, 9)))
                      for _ in range(3))
            assert cv.r11_goursat(3, h) == h[2] * h[2]

    def test_engel_value(self):
        assert cv.r11_goursat(4, tuple(map(Fraction, (1, 0, 1, 0)))) == -4

    def test_cartan_value(self):
        assert cv.r11_cartan(tuple(map(Fraction, (1, 0, 1, 0, 0)))) == 3

    def test_engel_chart_identity(self, rng):
        for _ in range(300):
            th = float(rng.uniform(0.15, math.pi - 0.15)) * (1 if rng.random() < .5 else -1)
            c = float(rng.uniform(-2, 2))
            a = float(rng.uniform(-2, 2))
            h = engel_h_from_chart(th, c, a)
            v1 = cv.r11_goursat(4, h)
            v2 = engel_r11_chart(th, c, a)
            assert abs(v1 - v2) <= 1e-12 * max(1.0, abs(v1))

    def test_cartan_chart_identity(self, rng):
        for _ in range(300):
            th, b = float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))
            c = float(rng.uniform(0.2, 2)) * (1 if rng.random() < .5 else -1)
            a = float(rng.uniform(0, 2))
            h = cartan_h_from_chart(th, c, a, b)
            v1 = cv.r11_cartan(h)
            v2 = cartan_r11_chart(th, c, a, b)
            assert abs(v1 - v2) <= 1e-12 * max(1.0, abs(v1))

    def test_pole_policy(self):
        with pytest.raises(SingularCovector):
            cv.r11_goursat(4, (1e-9, 1.0, 1.0, 0.0))
        with pytest.raises(SingularCovector):
            cv.r11_cartan((1.0, 0.0, 0.0, 1.0, 0.0))
        # n = 3 has no pole: the singular term carries a zero coefficient
        assert cv.r11_goursat(3, (0, 1, 2)) == 4

    def test_slack_is_bound_minus_r11_exactly(self, models, rng):
        # the closed form is an identity: off the unit cylinder too
        for spec in ("goursat:4", "cartan"):
            m = models[spec]
            for _ in range(50):
                h = [Fraction(int(rng.integers(-30, 31)),
                              int(rng.integers(1, 12))) for _ in range(m.dim)]
                if h[m.pole_index - 1] == 0:
                    continue
                cov = Covector.from_h(m, h)
                want = cv.energy_bound(m, cov) - cv.r11(m, cov)
                assert cv.bound_slack(m, cov) == want
            pole = [Fraction(1, 2)] * m.dim
            pole[m.pole_index - 1] = 0
            with pytest.raises(SingularCovector):
                cv.bound_slack(m, Covector.from_h(m, pole))
        g5 = models["goursat:5"]
        assert cv.bound_slack(g5, Covector.from_h(g5, (1, 0, 1, 0, 0))) is None

    def test_bounds_with_slack_form(self, models, rng):
        g4, cc = models["goursat:4"], models["cartan"]
        for _ in range(1000):
            th = float(rng.uniform(0.15, math.pi - 0.15)) * (1 if rng.random() < .5 else -1)
            c, a = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
            h = engel_h_from_chart(th, c, a)
            cov = Covector.from_h(g4, h)
            slack = cv.bound_slack(g4, cov)
            assert slack >= -1e-12
            assert abs(slack - 6 * h[2] ** 2 / h[0] ** 2) <= 1e-10
        for _ in range(1000):
            th, b = float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))
            c = float(rng.uniform(0.2, 2)) * (1 if rng.random() < .5 else -1)
            a = float(rng.uniform(0, 2))
            h = cartan_h_from_chart(th, c, a, b)
            cov = Covector.from_h(cc, h)
            slack = cv.bound_slack(cc, cov)
            assert slack >= -1e-12
            want = 8 * (h[0] * h[3] + h[1] * h[4]) ** 2 / h[2] ** 2
            assert abs(slack - want) <= 1e-10


class TestCurvatureOperator:
    def test_heisenberg_report(self, models):
        rep = cv.curvature_operator(models["goursat:3"],
                                    Covector.from_h(models["goursat:3"], (1, 0, 2)))
        assert rep.I == ((4, 0), (0, 1))
        assert rep.R == ((Fraction(8, 5), 0), (0, 0))
        assert rep.trace_I == 5

    def test_goursat5_trace(self, models):
        rep = cv.curvature_operator(
            models["goursat:5"],
            Covector.from_h(models["goursat:5"],
                            (Fraction(3, 5), Fraction(4, 5), 1, 1, 1)))
        assert rep.trace_I == 17
        assert rep.I == ((16, 0), (0, 1))

    def test_cartan_report(self, models):
        rep = cv.curvature_operator(models["cartan"],
                                    Covector.from_h(models["cartan"], (1, 0, 1, 0, 0)))
        assert rep.R == ((Fraction(4, 7), 0), (0, 0))
        assert rep.bound == 3

    def test_json_schema(self, models):
        rep = cv.curvature_operator(models["goursat:4"],
                                    Covector.from_h(models["goursat:4"], (1, 0, 1, 0)))
        d = json.loads(rep.to_json())
        assert d["r11"] == "-4" and d["r11_float"] == -4.0
        assert d["diagram"] == [3, 1]
        assert d["I"] == [["9", "0"], ["0", "1"]]
        assert d["basis"] == "canonical-frame projection"
        assert d["bound"] == "2"          # 4E = 4(h3^2/2 - h2 h4) = 2

    def test_preconditions(self, models):
        g4 = models["goursat:4"]
        with pytest.raises(NotAmpleEquiregular):
            cv.curvature_operator(g4, Covector.from_h(g4, (1, 1, 1, 0)))
        with pytest.raises(SingularCovector):
            cv.curvature_operator(g4, Covector.from_h(g4, (0, 1, 1, 0)))
        with pytest.raises(SingularCovector):
            cv.curvature_operator(models["cartan"],
                                  Covector.from_h(models["cartan"], (1, 0, 0, 1, 0)))


class TestFlowCovariance:
    def test_divergence_at_loss_time(self, models):
        # R11 along the flow blows up like -C/h1^2 as a loss time approaches
        m = models["goursat:4"]
        cov = Covector.from_h(m, engel_h_from_chart(0.3, 0.8, 1.0))
        traj = integrate_flow(m, cov, 3.0, 1e-3)
        h = traj.h_series()
        vals = []
        for i in range(len(traj.ts)):
            hi = tuple(h[i])
            if abs(hi[0]) < 5e-2:
                # near the pole: r11 * h1^2 approaches the singular-part limit
                v = cv.r11_goursat(4, hi)
                limit = -(4 - 1) * (4 - 2) * (4 - 3) * hi[2] ** 2 * hi[1] ** 2
                vals.append((v * hi[0] ** 2, limit))
        assert vals, "flow never came near the pole"
        for got, limit in vals:
            assert got < 0
            assert abs(got - limit) <= 5e-2 * abs(limit) + 0.3
