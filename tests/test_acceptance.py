"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines and timings.  Tolerances are pinned here, not configurable.
"""
import math
import time
from fractions import Fraction

import numpy as np

from carnotcurv.groups import (Covector, build_group, cartan_h_from_chart,
                               engel_h_from_chart)
from carnotcurv.frames import verify_bracket_identities
from carnotcurv.hamiltonian import integrate_flow
from carnotcurv.elliptic import (classify_pendulum, elliptic_coords,
                                 pendulum_closed_form)
from carnotcurv.regularity import (equiregularity_loss_times,
                                   rank_oracle_matches)
from carnotcurv.tolerances import SCAN_DRIFT_TOL
from carnotcurv import curvature as cv
from carnotcurv import oracle as oc

EXACT_GROUPS = ("goursat:3", "goursat:4", "goursat:5", "goursat:6",
                "goursat:7", "goursat:8", "cartan")
FIT_GROUPS = ("goursat:3", "goursat:4", "goursat:5", "goursat:6", "cartan")


def _report(num, name, ok, t0, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:>2} {name}: {status} ({time.time() - t0:.1f}s){extra}")
    assert ok, f"criterion {num} ({name}) failed{extra}"


def test_c01_exact_invariant_equality():
    """R11 by the bracket oracle equals the closed form as exact rationals."""
    t0 = time.time()
    rng = np.random.default_rng(101)
    mismatches = 0
    total = 0
    for spec in EXACT_GROUPS:
        m = build_group(spec)
        for _ in range(50):
            cov = oc.random_rational_unit_covector(m, rng)
            total += 1
            if oc.r11_exact(m, cov) != cv.r11(m, cov):
                mismatches += 1
    elapsed = time.time() - t0
    _report(1, "exact invariant equality (7 groups x 50, zero tolerance)",
            mismatches == 0 and elapsed < 60.0, t0,
            f"{total - mismatches}/{total} exact, {elapsed:.1f}s < 60s")


def test_c02_heisenberg_reproduction():
    """General machinery at n = 3 gives R = (2/5) diag(h3^2, 0) exactly."""
    t0 = time.time()
    g3 = build_group("goursat:3")
    rng = np.random.default_rng(102)
    ok = True
    for _ in range(50):
        cov = oc.random_rational_unit_covector(g3, rng)
        h3 = cov.h[2]
        rep = cv.curvature_operator(g3, cov)
        ok &= rep.R == ((Fraction(2, 5) * h3 * h3, 0), (0, 0))
        ok &= rep.I == ((4, 0), (0, 1))
        ok &= oc.r11_exact(g3, cov) == h3 * h3
    _report(2, "Heisenberg curvature (2/5) diag(h3^2, 0), exact", ok, t0)


def test_c03_laurent_fit_reproduction():
    """Fitted Laurent data of S_flat(t)^{-1}: leads to 1e-6, linear to 1e-3."""
    t0 = time.time()
    ok = True
    worst_lead = worst_lin = 0.0
    for spec in FIT_GROUPS:
        m = build_group(spec)
        rows = oc.run_fit_suite(m, count=5, seed=103)
        ok &= all(r.passed for r in rows)
        for r in rows:
            if "lin_b" in r.name or "offdiag" in r.name:
                continue    # expected 0: an absolute bound, no relative error
            rel = abs((float(r.actual) - float(r.expected))
                      / float(r.expected))
            if "lead" in r.name:
                worst_lead = max(worst_lead, rel)
            else:
                worst_lin = max(worst_lin, rel)
    elapsed = time.time() - t0
    _report(3, "Jacobi-curve Laurent fit (5 covectors x 5 groups)",
            ok and elapsed < 300.0, t0,
            f"worst lead rel {worst_lead:.1e} <= 1e-6, "
            f"worst lin rel {worst_lin:.1e} <= 1e-3, {elapsed:.0f}s < 300s")


def test_c04_spectrum_trace():
    """spec I = {n_a^2, 1} and tr I = n_a^2 + 1, exact."""
    t0 = time.time()
    rng = np.random.default_rng(104)
    ok = True
    for spec in EXACT_GROUPS:
        m = build_group(spec)
        n_a = m.young[0]
        cov = oc.random_rational_unit_covector(m, rng)
        rep = cv.curvature_operator(m, cov)
        ok &= rep.I == ((n_a * n_a, 0), (0, 1))
        ok &= rep.trace_I == n_a * n_a + 1
        if m.kind == "goursat":
            ok &= rep.trace_I == (m.dim - 1) ** 2 + 1
        else:
            ok &= (rep.I[0][0], rep.trace_I) == (16, 17)
    _report(4, "spectrum/trace of the leading operator, exact", ok, t0)


def test_c05_bracket_identity_suite():
    """Every fiber bracket identity holds as an exact field equality."""
    t0 = time.time()
    ok = True
    count = 0
    for spec in ("goursat:3", "goursat:4", "goursat:5", "goursat:6", "cartan"):
        checks = verify_bracket_identities(build_group(spec))
        count += len(checks)
        ok &= all(c.holds for c in checks)
    _report(5, "bracket identity suite", ok, t0, f"{count} identities")


def _stratum_samples(m, rng, count):
    """count unit-speed covectors covering all strata, abnormal included."""
    samples = []
    if m.kind == "goursat" and m.dim == 4:
        th_sep = 0.4
        c_sep = math.sqrt(2 + 2 * math.cos(th_sep))
        samples += [engel_h_from_chart(0.3, 0.8, 1.0),        # C1+
                    engel_h_from_chart(2.9, 0.5, -1.0),       # C1-
                    engel_h_from_chart(0.3, 2.5, 1.0),        # C2
                    engel_h_from_chart(th_sep, c_sep, 1.0),   # C3
                    engel_h_from_chart(0.0, 0.0, 1.0),        # C4 abnormal
                    engel_h_from_chart(math.pi, 0.0, 1.0),    # C5 abnormal
                    engel_h_from_chart(0.7, 1.2, 0.0),        # C6
                    engel_h_from_chart(0.0, 0.0, 0.0),        # C7 abnormal
                    engel_h_from_chart(0.7, 0.0, 0.0)]        # C7 regular
    elif m.kind == "cartan":
        th_sep, b = 0.4 + 0.7, 0.7
        c_sep = math.sqrt(2 + 2 * math.cos(0.4))
        samples += [cartan_h_from_chart(0.3, 0.8, 1.0, b),    # C1
                    cartan_h_from_chart(0.3, 2.5, 1.0, b),    # C2
                    cartan_h_from_chart(th_sep, c_sep, 1.0, b),  # C3
                    cartan_h_from_chart(b, 0.0, 1.0, b),      # C4 abnormal
                    cartan_h_from_chart(b + math.pi, 0.0, 1.0, b),  # C5 abnormal
                    cartan_h_from_chart(0.7, 1.2, 0.0, 0.0),  # C6
                    cartan_h_from_chart(0.7, 0.0, 0.0, 0.0)]  # C7 abnormal
    elif m.kind == "goursat":
        # pole-zero branch and abnormal samples
        z = [0.0, 1.0, 1.0] + [0.3] * (m.dim - 3)
        ab = [0.0, 1.0, 0.0] + [0.7] * (m.dim - 3)
        samples += [tuple(z), tuple(ab)]
    # random fill: the float rank oracle resolves "pole != 0" only down to
    # roughly (svd threshold)^(1/(n-2)), so random draws keep the pole
    # bounded away from that cliff; the exact-zero branches are covered by
    # the constructed samples above
    while len(samples) < count:
        cov = oc.random_unit_covector(m, rng, pole_min=0.12)
        samples.append(tuple(float(v) for v in cov.h))
    return samples[:count]


def test_c06_growth_oracle_agreement():
    """Rank oracle equals closed-form growth on 200 covectors per group."""
    t0 = time.time()
    rng = np.random.default_rng(106)
    mismatches = 0
    total = 0
    for spec in FIT_GROUPS:
        m = build_group(spec)
        samples = _stratum_samples(m, rng, 200)
        for i, h in enumerate(samples):
            total += 1
            if not rank_oracle_matches(m, Covector.from_h(m, h)):
                mismatches += 1
            if i < 3:   # five flow times for a subset
                for t in rng.uniform(0.1, 1.2, 5):
                    total += 1
                    traj = integrate_flow(m, Covector.from_h(m, h), float(t),
                                          drift_bound=SCAN_DRIFT_TOL)
                    if not rank_oracle_matches(m, traj.covector(len(traj) - 1)):
                        mismatches += 1
    _report(6, "growth-vector oracle agreement (200/group, all strata)",
            mismatches == 0, t0, f"{total - mismatches}/{total}")


def test_c07_pendulum_dynamics():
    """Closed-form elliptic solutions vs RK4, and loss-time counts."""
    t0 = time.time()
    ok = True
    detail = []
    cases = {
        "goursat:4": [("C1", (0.3, 0.8, 1.0)), ("C2", (0.3, 2.5, 1.0)),
                      ("C3", "SEP"), ("C6", (0.7, 1.2, 0.0))],
        "cartan": [("C1", (0.3, 0.8, 1.0, 0.7)), ("C2", (0.3, 2.5, 1.0, 0.7)),
                   ("C3", "SEP"), ("C6", (0.7, 1.2, 0.0, 0.0))],
    }
    for spec, entries in cases.items():
        m = build_group(spec)
        for stratum, pt in entries:
            if pt == "SEP":
                # separatrix sample with elliptic time -1, so the Engel C3
                # geodesic has its unique equiregularity loss at t = 1
                u = -1.0
                th = 2 * math.atan2(math.tanh(u), 1 / math.cosh(u))
                c = 2 / math.cosh(u)
                pt = (th, c, 1.0) if spec == "goursat:4" else (th + 0.7, c, 1.0, 0.7)
            h = engel_h_from_chart(*pt) if spec == "goursat:4" \
                else cartan_h_from_chart(*pt)
            cov = Covector.from_h(m, h)
            chart = classify_pendulum(m, cov)
            ok &= chart.stratum == stratum
            if stratum in ("C1", "C2", "C3"):
                chart = elliptic_coords(m, cov)
            traj = integrate_flow(m, cov, 5.0, 1e-3)
            hs = traj.h_series()
            sup = 0.0
            for i in range(0, len(traj.ts), 5):
                hc = pendulum_closed_form(chart, float(traj.ts[i]))
                sup = max(sup, max(abs(a - b) for a, b in zip(hc, hs[i])))
            ok &= sup <= 1e-6
            # loss-of-equiregularity counts per the qualitative claims
            T = 14.0
            losses = equiregularity_loss_times(m, cov, T)
            if spec == "goursat:4":
                if stratum in ("C1", "C2", "C6"):
                    ok &= len(losses) >= 2            # periodic, infinite set
                    gaps = np.diff(losses)
                    ok &= float(np.max(np.abs(gaps - gaps[0]))) < 1e-6
                elif stratum == "C3":
                    ok &= len(losses) == 1            # exactly one, at t = 1
                    ok &= abs(losses[0] - 1.0) < 1e-8
            else:
                if stratum == "C1":
                    ok &= len(losses) >= 2
                else:
                    ok &= losses == []
            detail.append(f"{spec}/{stratum} sup {sup:.1e} losses {len(losses)}")
    _report(7, "pendulum closed forms vs RK4 + loss counts", ok, t0,
            "; ".join(detail[:4]) + " ...")


def test_c08_energy_bounds():
    """R11 <= 4E (Engel) / 6E (Cartan); slack equals the subtracted square."""
    t0 = time.time()
    rng = np.random.default_rng(108)
    ok = True
    for spec in ("goursat:4", "cartan"):
        m = build_group(spec)
        for _ in range(10000):
            if spec == "goursat:4":
                th = float(rng.uniform(0.1, math.pi - 0.1)) * \
                    (1 if rng.random() < 0.5 else -1)
                pt = (th, float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
                h = engel_h_from_chart(*pt)
                subtracted = 6 * h[2] ** 2 / h[0] ** 2
            else:
                pt = (float(rng.uniform(-3, 3)),
                      float(rng.uniform(0.15, 2)) * (1 if rng.random() < 0.5 else -1),
                      float(rng.uniform(0, 2)), float(rng.uniform(-3, 3)))
                h = cartan_h_from_chart(*pt)
                subtracted = 8 * (h[0] * h[3] + h[1] * h[4]) ** 2 / h[2] ** 2
            cov = Covector.from_h(m, h)
            r = cv.r11(m, cov)
            bound = cv.energy_bound(m, cov)
            ok &= r <= bound + 1e-10
            ok &= abs((bound - r) - subtracted) <= 1e-10 * max(1.0, subtracted)
            if subtracted > 1e-8:
                ok &= r < bound      # equality only when the square vanishes
    _report(8, "energy bounds and slack identity (10^4 samples/group)", ok, t0)


def test_c09_conservation_symplecticity():
    """Drift < 1e-9 (H, E), <= 1e-10 (invariant fiber); M symplectic to 1e-6."""
    t0 = time.time()
    ok = True
    detail = []
    runs = [("goursat:4", engel_h_from_chart(0.3, 0.9, 1.1)),
            ("goursat:5", (0.6, 0.8, 0.7, -0.4, 0.9)),
            ("cartan", cartan_h_from_chart(0.5, 1.1, 0.8, -0.3))]
    for spec, h in runs:
        m = build_group(spec)
        cov = Covector.from_h(m, [float(v) for v in h])
        traj = integrate_flow(m, cov, 10.0, 1e-3, drift_bound=None)
        hd = traj.conservation_drift()
        fd = traj.invariant_fiber_drift()
        ok &= hd < 1e-9 and fd <= 1e-10
        E = traj.E_series()
        ed = 0.0
        if E is not None:
            ed = float(np.max(np.abs(E - E[0])))
            ok &= ed < 1e-9
        trj = integrate_flow(m, cov, 5.0, 1e-3, with_variational=True,
                             store_every=100)
        sd = trj.symplectic_defect()
        ok &= sd <= 1e-6
        detail.append(f"{spec}: dH {hd:.1e} dfib {fd:.1e} dE {ed:.1e} "
                      f"sympl {sd:.1e}")
    _report(9, "conservation and symplecticity", ok, t0, "; ".join(detail))


def test_c10_cost_hessian_probe():
    """Boundary-value probe of the cost Hessian (Heisenberg, slow route)."""
    t0 = time.time()
    g3 = build_group("goursat:3")
    q = oc.cost_hessian_probe(g3, Covector.from_h(g3, (1.0, 0.0, 1.0)), t=0.1)
    ok = abs(q[0, 0] - 400.0) <= 0.05 * 400.0 and \
        abs(q[1, 1] - 100.0) <= 0.05 * 100.0
    _report(10, "cost-Hessian probe within 5% of diag(4,1)/t^2", ok, t0,
            f"diag ({q[0, 0]:.1f}, {q[1, 1]:.1f}) vs (400, 100)")


def test_c11_dimension_coefficients():
    """Closed forms of the two frame coefficients equal their double sums."""
    t0 = time.time()
    ok = cv.coeff_A(4) == (0, 0)
    for n in range(5, 13):
        ok &= cv.coeff_A(n) == cv.coeff_A_sums(n)
    _report(11, "dimension coefficients vs double sums (n = 5..12), exact",
            ok, t0)
