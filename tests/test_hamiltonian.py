"""Normal flow integration: conservation, symplecticity, exports."""
import io
import itertools
import math

import numpy as np
import pytest

from carnotcurv.errors import StepTooLarge
from carnotcurv.groups import Covector, build_group, engel_h_from_chart
from carnotcurv.hamiltonian import (MAX_STEPS, Trajectory,
                                    conserved_quantities, integrate_flow,
                                    step_count)
from reference_covector import covector_at
from reference_export import export_csv as reference_export
from reference_flow import ReferenceFlow


def fiber_rhs(model, cov):
    """Closed-form vertical equations hdot at a covector (floats).

    The reference side of the dual check: fiber_rhs_via_canonical recomputes
    the same derivative through the (x, p) flow and the frame matrix, and
    the two must agree to machine precision (the symbolic version of this
    identity is exact; see the frames tests).
    """
    h = [float(v) for v in cov.h]
    n = model.dim
    out = [0.0] * n
    if model.kind == "goursat":
        out[0] = -h[1] * h[2]
        for i in range(1, n - 1):
            out[i] = h[0] * h[i + 1]
    else:
        out[0] = -h[1] * h[2]
        out[1] = h[0] * h[2]
        out[2] = h[0] * h[3] + h[1] * h[4]
    return np.array(out)


def fiber_rhs_via_canonical(model, cov):
    """hdot obtained numerically from the (x, p) right-hand side."""
    y = np.array([float(v) for v in cov.xp()])
    dy = model.memo(ReferenceFlow).rhs(y)
    n = model.dim
    x, p = y[:n], y[n:]
    dx, dp = dy[:n], dy[n:]
    hdot = np.zeros(n)
    for i in range(n):
        for j in range(n):
            poly = model.a_base[i][j]
            if poly.is_zero:
                continue
            aij = float(poly.eval(list(x)))
            hdot[i] += aij * dp[j]
            for m in range(n):
                d = poly.diff(m)
                if not d.is_zero:
                    hdot[i] += float(d.eval(list(x))) * dx[m] * p[j]
    return hdot


class TestFlowRhs:
    def test_stationary_fiber_engel(self, models):
        # h = (0, 1, 0, alpha): the whole fiber is stationary
        cov = Covector.from_h(models["goursat:4"], (0.0, 1.0, 0.0, 0.7))
        assert np.allclose(fiber_rhs(models["goursat:4"], cov), 0.0)

    def test_heisenberg_fiber(self, models):
        cov = Covector.from_h(models["goursat:3"], (1.0, 0.0, 1.0))
        assert np.allclose(fiber_rhs(models["goursat:3"], cov), [0, 1, 0])

    def test_cartan_fiber(self, models):
        cov = Covector.from_h(models["cartan"], (1.0, 0.0, 1.0, 0.0, 0.0))
        assert np.allclose(fiber_rhs(models["cartan"], cov), [0, 1, 0, 0, 0])

    def test_base_part_is_horizontal(self, models, rng):
        for m in models.values():
            cov = Covector.from_h(m, [float(v) for v in rng.uniform(-1, 1, m.dim)])
            y = np.array([float(v) for v in cov.xp()])
            dy = m.memo(ReferenceFlow).rhs(y)
            h = [float(v) for v in cov.h]
            # xdot = h1 X1 + h2 X2 at the base point (origin: coordinate frame)
            want = np.zeros(m.dim)
            want[0] = h[0]
            want[1] = h[1]
            assert np.allclose(dy[:m.dim], want, atol=1e-14)

    def test_h_rhs_through_canonical_flow(self, models, rng):
        # vertical equations reproduced to machine precision at random points
        for m in models.values():
            worst = 0.0
            for _ in range(200):
                h = [float(v) for v in rng.uniform(-2, 2, m.dim)]
                base = [float(v) for v in rng.uniform(-1, 1, m.dim)]
                cov = covector_at(m, h, base)
                a = fiber_rhs(m, cov)
                b = fiber_rhs_via_canonical(m, cov)
                worst = max(worst, float(np.max(np.abs(a - b))))
            assert worst < 1e-12


class TestIntegrate:
    def test_straight_line(self, models):
        m = models["goursat:3"]
        traj = integrate_flow(m, Covector.from_h(m, (1.0, 0, 0)), 1.0, 1e-3)
        assert np.allclose(traj.ys[-1][:3], [1, 0, 0], atol=1e-12)
        assert np.allclose(traj.h_series()[-1], [1, 0, 0], atol=1e-12)

    def test_conservation_engel_and_cartan(self, models):
        m = models["goursat:4"]
        cov = Covector.from_h(m, engel_h_from_chart(0.3, 0.9, 1.1))
        traj = integrate_flow(m, cov, 10.0, 1e-3)
        assert traj.conservation_drift() < 1e-9
        assert traj.invariant_fiber_drift() <= 1e-10
        E = traj.E_series()
        assert float(np.max(np.abs(E - E[0]))) < 1e-9

        cc = models["cartan"]
        covc = Covector.from_h(cc, (1.0, 0.0, 1.0, 0.0, 0.0))
        trajc = integrate_flow(cc, covc, 10.0, 1e-3)
        assert trajc.conservation_drift() < 1e-9
        assert trajc.invariant_fiber_drift() <= 1e-10
        Ec = trajc.E_series()
        assert float(np.max(np.abs(Ec - Ec[0]))) < 1e-9

    def test_symplectic_variational(self, models):
        m = models["goursat:4"]
        cov = Covector.from_h(m, (0.8, 0.6, 0.5, 0.3))
        traj = integrate_flow(m, cov, 5.0, 1e-3, with_variational=True,
                              store_every=50)
        assert traj.symplectic_defect() <= 1e-6
        assert np.allclose(traj.Ms[0], np.eye(8))

    def test_symplectic_defect_propagates_nan(self, models):
        # an overflowing covector fills M with NaN; the defect once read
        # max(0.0, nan) = 0.0 and reported a perfect flow
        m = models["goursat:4"]
        cov = Covector.from_h(m, (1e200, 1, 0, 0))
        with np.errstate(over="ignore", invalid="ignore"):
            traj = integrate_flow(m, cov, 0.01, 1e-3, with_variational=True,
                                  drift_bound=None)
            assert math.isnan(traj.symplectic_defect())

    def test_engel_c6_linear_theta(self, models):
        m = models["goursat:4"]
        th0, c = 0.2, 1.0
        cov = Covector.from_h(m, engel_h_from_chart(th0, c, 0.0))
        traj = integrate_flow(m, cov, 5.0, 1e-3)
        h = traj.h_series()
        worst = 0.0
        for i, t in enumerate(traj.ts):
            worst = max(worst, abs(h[i, 0] + math.sin(th0 + c * t)))
        assert worst < 1e-9

    def test_step_too_large(self, models):
        m = models["goursat:4"]
        cov = Covector.from_h(m, engel_h_from_chart(0.3, 0.9, 1.1))
        with pytest.raises(StepTooLarge):
            integrate_flow(m, cov, 5.0, 0.25, drift_bound=1e-10)

    def test_backward_flow_inverts_forward(self, models):
        m = models["cartan"]
        cov = Covector.from_h(m, (0.8, 0.6, 0.9, 0.4, 0.2))
        fwd = integrate_flow(m, cov, 1.0, 1e-3)
        end = fwd.covector(len(fwd) - 1)
        back = integrate_flow(m, end, -1.0, 1e-3)
        assert np.allclose(back.ys[-1], fwd.ys[0], atol=1e-10)

    def test_richardson_consistent(self, models):
        m = models["goursat:4"]
        cov = Covector.from_h(m, engel_h_from_chart(0.3, 0.9, 1.1))
        plain = integrate_flow(m, cov, 1.0, 1e-3, with_variational=True,
                               store_every=100)
        rich = integrate_flow(m, cov, 1.0, 1e-3, with_variational=True,
                              store_every=100, richardson=True)
        assert np.allclose(plain.ys, rich.ys, atol=1e-10)
        assert np.allclose(plain.Ms, rich.Ms, atol=1e-8)

    def test_bad_args(self, models):
        m = models["goursat:3"]
        cov = Covector.from_h(m, (1.0, 0, 0))
        with pytest.raises(ValueError):
            integrate_flow(m, cov, 0.0)
        with pytest.raises(ValueError):
            integrate_flow(m, cov, 1.0, step=-1e-3)
        # a non-finite horizon once raised OverflowError or ran one step
        for T, step in ((math.inf, 1e-3), (-math.inf, 1e-3), (1.0, math.inf),
                        (1e300, 1e-300)):
            with pytest.raises(ValueError):
                integrate_flow(m, cov, T, step)

    def test_step_count_cap(self):
        # without a cap, a tiny step looped with growing memory
        assert step_count(1.0, 1e-6) == MAX_STEPS
        assert step_count(-2.0, 1e-3) == 2000
        for T, step in ((1.0, 1.0 / (MAX_STEPS + 1)), (1.0, 1e-300),
                        (math.nan, 1e-3), (1.0, math.nan)):
            with pytest.raises(ValueError):
                step_count(T, step)


class TestConservedQuantities:
    def test_cartan_examples(self, models):
        cc = models["cartan"]
        q = conserved_quantities(cc, Covector.from_h(cc, (1.0, 0, 1.0, 0, 0)))
        assert abs(q["E"] - 0.5) < 1e-15 and abs(q["H"] - 0.5) < 1e-15
        # chart form: E = c^2/2 - alpha cos(theta - beta)
        th, c, a, b = 0.7, 1.3, 0.8, -0.4
        from carnotcurv.groups import cartan_h_from_chart
        q2 = conserved_quantities(cc, Covector.from_h(cc, cartan_h_from_chart(th, c, a, b)))
        assert abs(q2["E"] - (c * c / 2 - a * math.cos(th - b))) < 1e-12

    def test_engel_chart_energy(self, models):
        m = models["goursat:4"]
        cov = Covector.from_h(m, engel_h_from_chart(0.0, 1.0, 0.0))
        q = conserved_quantities(m, cov)
        assert abs(q["E"] - 0.5) < 1e-15
        assert "h4" in q

    def test_goursat_top_component(self, models):
        m = models["goursat:5"]
        q = conserved_quantities(m, Covector.from_h(m, (1, 0, 0, 0, 2)))
        assert q["h5"] == 2 and "E" not in q


class TestCsvExport:
    def test_format_and_determinism(self, models):
        m = models["goursat:4"]
        cov = Covector.from_h(m, engel_h_from_chart(0.3, 0.9, 1.1))
        traj = integrate_flow(m, cov, 0.05, 1e-3)
        buf1, buf2 = io.StringIO(), io.StringIO()
        traj.export_csv(buf1)
        traj.export_csv(buf2)
        text = buf1.getvalue()
        assert text == buf2.getvalue()
        lines = text.splitlines()
        assert lines[0] == "t,x,y0,y1,y2,h1,h2,h3,h4,H,E"
        assert len(lines) == 52
        # 17 significant digits round-trip
        val = float(lines[1].split(",")[5])
        assert f"{val:.17g}" == lines[1].split(",")[5]

    def test_no_energy_column_for_goursat5(self, models):
        m = models["goursat:5"]
        traj = integrate_flow(m, Covector.from_h(m, (1.0, 0, 0, 0, 1)), 0.01, 1e-3)
        buf = io.StringIO()
        traj.export_csv(buf)
        assert buf.getvalue().splitlines()[0].endswith("h5,H")


def csv_text(write, traj):
    buf = io.StringIO()
    write(traj, buf)
    return buf.getvalue()


def first_difference(a, b):
    """(line number, line of a, line of b) where two texts first differ."""
    pairs = itertools.zip_longest(a.splitlines(True), b.splitlines(True))
    return next((i, x, y) for i, (x, y) in enumerate(pairs) if x != y)


class TestOnePassExport:
    """The chunked %-template writer against the per-value reference."""

    SPECS = ("goursat:3", "goursat:4", "goursat:5", "goursat:6", "goursat:7",
             "goursat:8", "cartan")
    H0 = (0.7, -0.5, 0.9, 0.4, -0.6, 0.8, 0.3, -0.2)

    def same_text(self, traj):
        text = csv_text(Trajectory.export_csv, traj)
        ref = csv_text(reference_export, traj)
        # a bool, so that a failure names the first differing line instead
        # of diffing two long texts
        same = text == ref
        assert same, first_difference(text, ref)
        return text

    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("T", [0.3, -0.25])
    def test_groups_forward_and_backward(self, monkeypatch, spec, T):
        # a chunk of 64 rows leaves a partial last chunk (301 and 251 rows)
        monkeypatch.setattr(Trajectory, "CSV_CHUNK", 64)
        m = build_group(spec)
        cov = Covector.from_h(m, self.H0[:m.dim])
        traj = integrate_flow(m, cov, T, 1e-3, drift_bound=None)
        text = self.same_text(traj)
        assert len(text.splitlines()) == len(traj) + 1

    @pytest.mark.parametrize("chunk", [1, 7, 50, 51, 52, 128])
    def test_chunk_boundaries(self, monkeypatch, models, chunk):
        # 51 rows: chunks that divide it, leave one row over, or exceed it
        monkeypatch.setattr(Trajectory, "CSV_CHUNK", chunk)
        m = models["cartan"]
        cov = Covector.from_h(m, (0.8, 0.6, 0.9, 0.4, 0.2))
        self.same_text(integrate_flow(m, cov, 0.05, 1e-3))

    def test_default_chunk_partial_last(self, models):
        m = models["goursat:4"]
        cov = Covector.from_h(m, engel_h_from_chart(0.3, 0.9, 1.1))
        traj = integrate_flow(m, cov, Trajectory.CSV_CHUNK * 1e-3, 1e-3)
        assert len(traj) == Trajectory.CSV_CHUNK + 1
        self.same_text(traj)

    def test_store_every_and_richardson(self, models):
        m = models["cartan"]
        cov = Covector.from_h(m, (0.8, 0.6, 0.9, 0.4, 0.2))
        self.same_text(integrate_flow(m, cov, -0.5, 1e-3, store_every=7))
        self.same_text(integrate_flow(m, cov, 0.5, 1e-3, store_every=3,
                                      richardson=True))

    @pytest.mark.parametrize("spec", ["goursat:4", "goursat:5", "cartan"])
    def test_non_finite_rows(self, monkeypatch, spec):
        monkeypatch.setattr(Trajectory, "CSV_CHUNK", 2)
        m = build_group(spec)
        N = 2 * m.dim
        special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308,
                   -1.7976931348623157e308, 0.1]
        ys = np.array([[special[(i + j) % len(special)] for j in range(N)]
                       for i in range(len(special) + 1)])
        ts = np.array(special + [2.0])
        # inf - inf in the energy column warns; the text is what is compared
        with np.errstate(invalid="ignore", over="ignore"):
            text = self.same_text(Trajectory(m, ts, ys))
        tokens = set(text.replace("\n", ",").split(","))
        assert {"nan", "inf", "-inf", "-0", "4.9406564584124654e-324"} <= tokens


class TestSeriesCache:
    def test_series_evaluated_once_and_read_only(self, models):
        m = models["goursat:4"]
        cov = Covector.from_h(m, engel_h_from_chart(0.3, 0.9, 1.1))
        traj = integrate_flow(m, cov, 0.05, 1e-3)
        for series in (traj.h_series, traj.H_series):
            first = series()
            assert series() is first
            with pytest.raises(ValueError):
                first[0] = 0.0
        # E is built from the cached h and is an ordinary array
        E = traj.E_series()
        assert E.flags.writeable
        assert np.array_equal(E, m.energy(traj.h_series().T))
