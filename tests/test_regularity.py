"""Growth vectors: closed-form criteria vs the rank oracle; loss times."""
import json
import math

import numpy as np
import pytest

from carnotcurv.errors import NotAmple, RankUnstable
from carnotcurv.groups import (Covector, cartan_h_from_chart,
                               engel_h_from_chart)
from carnotcurv.elliptic import complete_K, elliptic_coords
from carnotcurv.hamiltonian import integrate_flow
from carnotcurv.regularity import (equiregularity_loss_times,
                                   growth_report, growth_vector_closed_form,
                                   growth_vector_rank_oracle,
                                   rank_oracle_matches)
from carnotcurv.tolerances import SCAN_DRIFT_TOL


class TestClosedForm:
    def test_spec_examples(self, models):
        g5, g4, cc = models["goursat:5"], models["goursat:4"], models["cartan"]
        assert growth_vector_closed_form(
            g5, Covector.from_h(g5, (1, 0, 0, 0, 1))).growth == (2, 3, 4, 5)
        e = growth_vector_closed_form(g4, Covector.from_h(g4, (0, 1, 1, 0)))
        assert e.growth == (2, 3, 3, 4) and e.ample and not e.equiregular
        c = growth_vector_closed_form(cc, Covector.from_h(cc, (1, 0, 0, 1, 0)))
        assert c.growth == (2, 3, 4, 4, 5) and c.ample and not c.equiregular

    def test_heisenberg_always_regular(self, models):
        g3 = models["goursat:3"]
        for h in ((1, 0, 0), (0, 1, 5), (1, 0, 3)):
            e = growth_vector_closed_form(g3, Covector.from_h(g3, h))
            assert e.growth == (2, 3) and e.ample and e.equiregular

    def test_abnormal_detection_algebraic(self, models):
        g4, cc = models["goursat:4"], models["cartan"]
        assert growth_vector_closed_form(
            g4, Covector.from_h(g4, (0, 1, 0, 3))).abnormal
        # Cartan: h3 = 0 and h1 h4 + h2 h5 = 0 decides h3 == 0 identically
        assert growth_vector_closed_form(
            cc, Covector.from_h(cc, (1, 0, 0, 0, 1))).abnormal
        assert not growth_vector_closed_form(
            cc, Covector.from_h(cc, (1, 0, 0, 1, 0))).abnormal

    def test_increments_nonincreasing(self, models, rng):
        for m in models.values():
            for _ in range(10):
                h = [float(v) for v in rng.uniform(-2, 2, m.dim)]
                e = growth_vector_closed_form(m, Covector.from_h(m, h))
                if not e.equiregular:
                    continue
                growth = (0,) + e.growth
                d = [b - a for a, b in zip(growth, growth[1:])]
                assert all(x >= y for x, y in zip(d, d[1:]))
                assert e.growth[0] == 2 and e.growth[-1] == m.dim


class TestRankOracle:
    def test_spec_examples(self, models):
        g4, cc = models["goursat:4"], models["cartan"]
        assert growth_vector_rank_oracle(
            g4, Covector.from_h(g4, (1.0, 0, 1, 1))) == (2, 3, 4)
        assert growth_vector_rank_oracle(
            cc, Covector.from_h(cc, (1.0, 0, 1, 0, 0))) == (2, 3, 4, 5)
        seq = growth_vector_rank_oracle(g4, Covector.from_h(g4, (0.0, 1, 0, 1)))
        assert seq[-1] == 3 and seq[-1] == seq[-2]   # stabilizes below n

    def test_growth_nondecreasing(self, models, rng):
        for spec in ("goursat:4", "cartan"):
            m = models[spec]
            for _ in range(5):
                h = [float(v) for v in rng.uniform(-2, 2, m.dim)]
                seq = growth_vector_rank_oracle(m, Covector.from_h(m, h))
                assert all(a <= b for a, b in zip(seq, seq[1:]))

    @pytest.mark.parametrize("spec", ["goursat:3", "goursat:4", "goursat:5",
                                      "goursat:6", "cartan"])
    def test_agreement_random(self, models, rng, spec):
        from carnotcurv.oracle import random_unit_covector
        m = models[spec]
        for _ in range(30):
            cov = random_unit_covector(m, rng, pole_min=0.12)
            assert rank_oracle_matches(m, cov)
        # a few along the flow (compared at the flowed covector)
        for t in (0.4, 1.1):
            traj = integrate_flow(m, cov, t, drift_bound=SCAN_DRIFT_TOL)
            assert rank_oracle_matches(m, traj.covector(len(traj) - 1))

    def test_agreement_on_strata_boundaries(self, models):
        g4, cc = models["goursat:4"], models["cartan"]
        cases = [
            (g4, engel_h_from_chart(0.0, 1.0, 0.0)),    # C6, h1 = 0 at t=0
            (g4, engel_h_from_chart(0.5, 0.0, 1.0)),    # c = 0, oscillation turning point
            (g4, engel_h_from_chart(math.pi, 0.0, 1.0)),  # C5 abnormal
            (cc, cartan_h_from_chart(0.3, 0.0, 1.0, 0.3 + math.pi)),  # C5 abnormal
            (cc, cartan_h_from_chart(0.3, 0.0, 1.0, 0.3)),  # C4 abnormal
        ]
        for m, h in cases:
            assert rank_oracle_matches(m, Covector.from_h(m, h))

    def test_abnormality_flow_invariant(self, models):
        g4 = models["goursat:4"]
        cov = Covector.from_h(g4, (0.0, 1.0, 0.0, 1.0))
        covs = [cov]
        for t in (0.5, 2.0):
            traj = integrate_flow(g4, cov, t, drift_bound=SCAN_DRIFT_TOL)
            covs.append(traj.covector(len(traj) - 1))
        for c in covs:
            seq = growth_vector_rank_oracle(g4, c)
            assert seq[-1] < 4 and seq[-1] == seq[-2]

    def test_exact_zero_pole_agrees(self, models):
        g4 = models["goursat:4"]
        # far below the threshold: decided as the h1 = 0 branch on both routes
        cov = Covector.from_h(g4, (1e-12, 1.0, 1.0, 0.5))
        assert rank_oracle_matches(g4, cov)
        # comfortably above it: the full-rank branch on both routes
        cov2 = Covector.from_h(g4, (1e-6, 1.0, 1.0, 0.5))
        assert rank_oracle_matches(g4, cov2)

    def test_exact_rank_route_agrees(self, models):
        # Gaussian elimination over Q on the same bracket vectors: an
        # arithmetic-error-free rank route that must reproduce the closed
        # form at exact covectors, including the degenerate branches the
        # float SVD cannot resolve
        from fractions import Fraction
        from carnotcurv.frames import h_frame
        from carnotcurv.regularity import _rank_fields

        def exact_rank(rows):
            rows = [list(r) for r in rows if any(v != 0 for v in r)]
            rank = 0
            col = 0
            width = len(rows[0]) if rows else 0
            while rows and col < width:
                piv = next((i for i, r in enumerate(rows) if r[col] != 0), None)
                if piv is None:
                    col += 1
                    continue
                rows[0], rows[piv] = rows[piv], rows[0]
                lead = rows[0]
                rows = [[r[j] - r[col] / lead[col] * lead[j]
                         for j in range(width)] for r in rows[1:]]
                rows = [r for r in rows if any(v != 0 for v in r)]
                rank += 1
                col += 1
            return rank

        cases = {
            "goursat:4": [(1, 0, 1, 1), (0, 1, 1, 0),
                          (Fraction(1, 100), 1, 1, 1), (0, 1, 0, 1)],
            "goursat:5": [(1, 0, 1, 1, 1), (0, 1, 1, 0, 2), (0, 1, 0, 2, 0)],
            "cartan": [(1, 0, 1, 0, 0), (1, 0, 0, 1, 0), (1, 0, 0, 0, 1)],
        }
        for spec, hs in cases.items():
            m = models[spec]
            hf = h_frame(m)
            fields = _rank_fields(m)
            n = m.dim
            for h in hs:
                cov = Covector.from_h(m, h)
                entry = growth_vector_closed_form(m, cov)
                basis = hf.basis_at(cov)
                stacked = []
                growth = []
                for k in range(len(fields[0])):
                    for j in range(n):
                        stacked.append(hf.to_canonical_at(fields[j][k], cov,
                                                          basis=basis))
                    if k == 0:
                        continue
                    growth.append(exact_rank(stacked) - n)
                    if growth[-1] == n:
                        break
                if entry.ample:
                    assert tuple(growth) == entry.growth, (spec, h)
                else:
                    assert growth[-1] < n and growth[-1] == growth[-2], (spec, h)

    def test_near_threshold_is_explicit(self, models):
        # near the shared zero threshold either branch is legitimate, but the
        # oracle must report one of the two valid classifications or refuse
        # loudly, never a third answer
        g4 = models["goursat:4"]
        branch_nonzero = (2, 3, 4)
        branch_zero = (2, 3, 3, 4)
        for h1 in (3e-9, 1e-8, 3e-8):
            cov = Covector.from_h(g4, (h1, 1.0, 1.0, 0.5))
            try:
                seq = growth_vector_rank_oracle(g4, cov)
            except RankUnstable:
                continue
            assert seq in (branch_nonzero, branch_zero)


class TestLossTimes:
    def test_engel_c3_single_loss_at_one(self, models):
        m = models["goursat:4"]
        u = -1.0
        psi = 2 * math.atan2(math.tanh(u), 1 / math.cosh(u))
        c = 2 / math.cosh(u)
        cov = Covector.from_h(m, engel_h_from_chart(psi, c, 1.0))
        times = equiregularity_loss_times(m, cov, 5.0)
        assert len(times) == 1
        assert abs(times[0] - 1.0) < 1e-9

    def test_engel_c6_count_and_spacing(self, models):
        m = models["goursat:4"]
        c = 1.0
        cov = Covector.from_h(m, engel_h_from_chart(0.4, c, 0.0))
        T = 10.0
        times = equiregularity_loss_times(m, cov, T)
        assert abs(len(times) - T * c / math.pi) <= 1
        gaps = np.diff(times)
        assert np.allclose(gaps, math.pi / c, atol=1e-8)

    def test_engel_c1_periodic_in_elliptic_time(self, models):
        m = models["goursat:4"]
        cov = Covector.from_h(m, engel_h_from_chart(0.3, 0.8, 1.0))
        chart = elliptic_coords(m, cov)
        times = equiregularity_loss_times(m, cov, 12.0)
        assert len(times) >= 2
        gaps = np.diff(times)
        period = 2 * complete_K(chart.k) / math.sqrt(chart.alpha)
        assert np.allclose(gaps, period, atol=1e-8)

    def test_cartan_infinite_vs_none(self, models):
        cc = models["cartan"]
        t1 = equiregularity_loss_times(
            cc, Covector.from_h(cc, cartan_h_from_chart(0.3, 0.8, 1.0, 0.7)), 10.0)
        assert len(t1) >= 2          # C1: infinite discrete set
        for chart_pt in ((0.3, 2.5, 1.0, 0.7), (0.3, 1.2, 0.0, 0.0)):
            t0 = equiregularity_loss_times(
                cc, Covector.from_h(cc, cartan_h_from_chart(*chart_pt)), 10.0)
            assert t0 == []          # C2, C6: equiregular forever

    def test_heisenberg_no_loss(self, models):
        g3 = models["goursat:3"]
        assert equiregularity_loss_times(
            g3, Covector.from_h(g3, (0.6, 0.8, 2.0)), 5.0) == []

    def test_not_ample_raises(self, models):
        g4 = models["goursat:4"]
        with pytest.raises(NotAmple):
            equiregularity_loss_times(
                g4, Covector.from_h(g4, (0.0, 1.0, 0.0, 1.0)), 5.0)


class TestGrowthReport:
    def test_json_round_trip(self, models):
        m = models["goursat:4"]
        cov = Covector.from_h(m, engel_h_from_chart(0.4, 1.0, 0.0))
        rep = growth_report(m, cov, T=5.0)
        d = json.loads(rep.to_json())
        assert d["group"] == "goursat:4"
        assert d["growth_vector"] == [2, 3, 4]
        assert d["young_diagram"] == [3, 1]
        assert d["stratum"] == "C6"
        assert d["ample"] and d["equiregular_at_0"]
        assert len(d["loss_times"]) >= 1

    @pytest.mark.parametrize("h2", [0.8000001, 0.801])
    def test_off_unit_speed_names_no_stratum(self, models, h2):
        # 1e-9 < |2H - 1| <= 1e-6 once raised NotUnitSpeed from the pendulum
        # classification, while a larger |2H - 1| left the stratum out
        m = models["goursat:4"]
        rep = growth_report(m, Covector.from_h(m, (0.6, h2, 1.0, 0.0)))
        assert rep.stratum is None

    def test_abnormal_report(self, models):
        cc = models["cartan"]
        rep = growth_report(cc, Covector.from_h(cc, (1, 0, 0, 0, 1)))
        assert rep.abnormal and not rep.ample
        assert rep.young_diagram is None
