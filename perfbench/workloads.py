"""The benchmark's three workloads: seeded items and the checks on their outputs.

A workload is a list of rounds; each round is a fixed mix of items, so the
mix in a run does not depend on when the clock runs out (the loop stops at a
round boundary).  An item draws its own inputs from the seeded generator and
calls the package through its public functions; the checks on the outputs
run after the item's clock has stopped.  Every tolerance is read from the place the package or the acceptance
gate pins it; none is chosen here.

* ``exact-oracle``: route 1 (exact brackets) over goursat:3..8 and cartan.
  The symbolic kernel (``symfields``) and the bracket algebra (``frames``)
  do most of the work; no other workload leans on them in its loop.
* ``numeric-oracle``: routes 2 and 3 in float64 (Laurent fit of the Jacobi
  curve, cost-Hessian shooting probe); the RK4 flow with variational
  matrices dominates.
* ``geodesic-classify``: the user-facing CLI path (``classify`` and
  ``geodesic``) on one long scalar trajectory per call, plus the rank
  oracle, elliptic closed forms and the CSV/JSON outputs.
"""
from __future__ import annotations

import csv
import inspect
import json
import math
import os
from fractions import Fraction

from carnotcurv import (cli, curvature, elliptic, frames, groups, oracle,
                        regularity)
from carnotcurv.errors import CarnotError

EXACT_GROUPS = ("goursat:3", "goursat:4", "goursat:5", "goursat:6",
                "goursat:7", "goursat:8", "cartan")
FIT_GROUPS = ("goursat:3", "goursat:4", "goursat:5", "goursat:6", "cartan")

# exceptions an item may raise that count as a failed item, not a crash
ITEM_ERRORS = (CarnotError, RuntimeError)


def _default(fn, name):
    return inspect.signature(fn).parameters[name].default


# pinned by the package: run_fit_suite / run_slow_suite defaults
FIT_LEAD_TOL = _default(oracle.run_fit_suite, "lead_tol")
FIT_LIN_TOL = _default(oracle.run_fit_suite, "lin_tol")
PROBE_T = _default(oracle.run_slow_suite, "t")
PROBE_REL_TOL = _default(oracle.run_slow_suite, "rel_tol")
# pinned by run_fit_suite's resampling rule and the c03 generator
FIT_POLE_MIN = 0.45
FIT_TARGET_MIN = 0.05
# pinned by acceptance c06 (random fill) and c07 (closed forms, loss times)
RANK_POLE_MIN = 0.12
CLOSED_FORM_TOL = 1e-6
LOSS_TIME_TOL = 1e-6
# strata whose loss times the package cross-checks against the closed form
LOSS_CLOSED_FORM_STRATA = ("C1", "C2", "C3", "C6")
# the CLI's own default drift bound for `geodesic`
TOL_DRIFT = cli.build_parser().parse_args(
    ["geodesic", "--group", "cartan"]).tol_drift
# geodesic-classify horizon: 2000 RK4 steps per CLI call at the default step
HORIZON = 2.0


class Check:
    """One output check; use = error / tolerance for float checks."""

    __slots__ = ("name", "ok", "use")

    def __init__(self, name, ok, use=None):
        self.name = name
        self.ok = bool(ok)
        self.use = use


def exact_check(name, got, want):
    return Check(name, got == want)


def float_check(name, err, tol):
    return Check(name, err <= tol, err / tol)


class Expect:
    """Expected values that checks compare against (the closed forms).

    The self-test substitutes a subclass with one wrong value to show that
    a wrong answer is counted as a failure; the program is never touched.
    """

    def r11(self, model, cov):
        return curvature.r11(model, cov)

    def leading(self, n):
        return -n * n

    def hessian_diag(self, n, t):
        return n * n / t ** 2


class Item:
    """One closed-loop request.

    ``run`` makes the program calls and returns a callable that checks
    their outputs; the worker times ``run`` only, so the comparison work
    is no part of an item's time.
    """

    __slots__ = ("kind", "run")

    def __init__(self, kind, run):
        self.kind = kind
        self.run = run


# ----------------------------------------------------------------------
# exact-oracle
# ----------------------------------------------------------------------

def _covector_item(spec, rng, expect):
    def run():
        m = groups.build_group(spec)
        cov = oracle.random_rational_unit_covector(m, rng)
        r11 = oracle.r11_exact(m, cov)
        top = oracle.canonical_E_top(m, cov)
        rows = oracle.frame_darboux_check(m, cov)
        aij = None
        if m.kind == "goursat" and m.dim >= 5:
            i = m.dim - 3
            aij = oracle.aij_coefficients(m, cov, i)

        def check():
            checks = [exact_check("r11_exact", r11, expect.r11(m, cov)),
                      Check("canonical_E_top", top.nvars == 2 * m.dim),
                      Check("darboux", rows and all(r.passed for r in rows))]
            if aij is not None:
                # a_ii = (-1)^i h1^(2 - n_a + i) independently of the brackets
                h1 = cov.h[0]
                checks.append(exact_check(
                    "a_ii", aij[0], (-1) ** i * h1 ** (2 - m.young[0] + i)))
            return checks
        return check
    return Item(f"covector:{spec}", run)


def _higher_diagonal_item(spec, rng, expect):
    def run():
        m = groups.build_group(spec)
        cov = oracle.random_rational_unit_covector(m, rng)
        values, residuals = oracle.higher_diagonal_invariants(m, cov)
        return lambda: [exact_check("R_11", values[0], expect.r11(m, cov)),
                        Check("residuals", all(residuals))]
    return Item(f"higher_diagonal:{spec}", run)


def _canonical_chain_item(spec):
    def run():
        m = groups.build_group(spec)
        hf = frames.h_frame(m)
        ff = frames.frame_fields(m)
        na = m.young[0]
        chain = hf.ad_h_chain(hf.w_top, na + 1)
        pairs = []
        field = ff.w_top
        for k in range(na + 2):
            pairs.append((hf.to_canonical_field(chain[k]), field))
            if k <= na:
                field = ff.hvec.bracket(field)
        return lambda: [exact_check(f"chain[{k}]", got, want)
                        for k, (got, want) in enumerate(pairs)]
    return Item(f"canonical_chain:{spec}", run)


def _identities_item(spec):
    def run():
        rows = frames.verify_bracket_identities(groups.build_group(spec))
        return lambda: [Check(r.name, r.holds) for r in rows]
    return Item(f"identities:{spec}", run)


def _interleave(light, heavy):
    """Spread the heavy items evenly through the light ones."""
    out = list(light)
    step = len(out) / (len(heavy) + 1)
    for k, item in enumerate(heavy):
        out.insert(int(round((k + 1) * step)) + k, item)
    return out


def exact_oracle_round(rng, expect, tiny=False):
    # four covectors per group put the median item in the middle of the
    # goursat:6 covector items rather than on the edge between two groups
    per_group = 1 if tiny else 4
    light = [_covector_item(spec, rng, expect)
             for _ in range(per_group) for spec in EXACT_GROUPS]
    kernel = ("goursat:4",) if tiny else ("goursat:4", "goursat:5")
    heavy = [_higher_diagonal_item(spec, rng, expect) for spec in kernel]
    heavy += [_canonical_chain_item(spec) for spec in kernel]
    heavy += [_identities_item(spec)
              for spec in (EXACT_GROUPS[:1] if tiny else EXACT_GROUPS)]
    return _interleave(light, heavy)


# ----------------------------------------------------------------------
# numeric-oracle
# ----------------------------------------------------------------------

def _fit_item(spec, rng, expect):
    def run():
        m = groups.build_group(spec)
        n_a, n_b = m.young
        om = float(curvature.omega(n_a, n_a))
        # run_fit_suite's own domain rule: |Omega R11| >= 0.05
        while True:
            cov = oracle.random_unit_covector(m, rng, pole_min=FIT_POLE_MIN)
            if abs(om * float(curvature.r11(m, cov))) >= FIT_TARGET_MIN:
                break
        fit = oracle.sflat_fit(m, cov)

        def check():
            la, lb = expect.leading(n_a), expect.leading(n_b)
            want_lin = om * float(expect.r11(m, cov))
            return [float_check("lead_a", abs(fit.lead_a - la),
                                FIT_LEAD_TOL * abs(la)),
                    float_check("lead_b", abs(fit.lead_b - lb),
                                FIT_LEAD_TOL * abs(lb)),
                    float_check("lin_a", abs(fit.lin_a - want_lin),
                                FIT_LIN_TOL * abs(want_lin))]
        return check
    return Item(f"fit:{spec}", run)


def _probe_item(rng, expect):
    def run():
        m = groups.build_group("goursat:3")
        cov = oracle.random_unit_covector(m, rng, pole_min=FIT_POLE_MIN)
        q = oracle.cost_hessian_probe(m, cov, t=PROBE_T)

        def check():
            checks = []
            for i, n in enumerate(m.young):
                want = expect.hessian_diag(n, PROBE_T)
                checks.append(float_check(f"diag{i}", abs(q[i, i] - want),
                                          PROBE_REL_TOL * abs(want)))
            return checks
        return check
    return Item("probe:goursat:3", run)


def numeric_oracle_round(rng, expect, tiny=False):
    if tiny:
        return [_fit_item("goursat:3", rng, expect), _probe_item(rng, expect)]
    # seven items, so the median item falls inside one class (the goursat:6
    # fits) instead of between two
    items = [_fit_item(spec, rng, expect) for spec in FIT_GROUPS]
    return _interleave(items, [_probe_item(rng, expect) for _ in range(2)])


# ----------------------------------------------------------------------
# geodesic-classify
# ----------------------------------------------------------------------

def _engel_point(rng, stratum):
    """Chart point (theta, c, alpha) of the Engel group in one stratum."""
    u = rng.uniform
    if stratum == "C4":
        return (0.0, 0.0, u(0.5, 1.5))
    if stratum == "C5":
        return (math.pi, 0.0, u(0.5, 1.5))
    if stratum == "C7-abnormal":
        return (0.0, 0.0, 0.0)
    while True:
        theta = u(-math.pi, math.pi)
        if abs(math.sin(theta)) < RANK_POLE_MIN:
            continue
        if stratum == "C7":
            return (theta, 0.0, 0.0)
        if stratum == "C6":
            return (theta, u(0.5, 1.5) * (1 if u() < 0.5 else -1), 0.0)
        alpha = u(0.5, 1.5) * (-1 if stratum == "C1-" else 1)
        a = abs(alpha)
        floor = a + alpha * math.cos(theta)          # c^2/2 at E = a
        if stratum == "C3":
            return (theta, math.sqrt(2 * floor) * (1 if u() < 0.5 else -1), alpha)
        if stratum == "C2":
            c2 = 2 * (floor + u(0.1, 1.5))
        else:                                        # C1+/C1-: -a < E < a
            lo = max(0.0, floor - 2 * a) + 0.05 * a
            if floor - 0.05 * a <= lo:
                continue
            c2 = 2 * u(lo, floor - 0.05 * a)
        return (theta, math.sqrt(c2) * (1 if u() < 0.5 else -1), alpha)


def _cartan_point(rng, stratum):
    """Chart point (theta, c, alpha, beta) of the Cartan group in one stratum."""
    u = rng.uniform
    beta = u(-math.pi, math.pi)
    if stratum == "C4":
        return (beta, 0.0, u(0.5, 1.5), beta)
    if stratum == "C5":
        return (beta + math.pi, 0.0, u(0.5, 1.5), beta)
    if stratum == "C7":
        return (u(-math.pi, math.pi), 0.0, 0.0, 0.0)
    sign = 1 if u() < 0.5 else -1
    if stratum == "C6":
        return (u(-math.pi, math.pi), sign * u(0.5, 1.5), 0.0, 0.0)
    alpha = u(0.5, 1.5)
    while True:
        psi = u(-math.pi, math.pi)
        floor = alpha * (1 + math.cos(psi))          # c^2/2 at E = alpha
        if stratum == "C3":
            c2 = 2 * floor
        elif stratum == "C2":
            c2 = 2 * (floor + u(0.1, 1.5))
        else:                                        # C1: -alpha < E < alpha
            if floor < 0.1 * alpha:
                continue
            c2 = 2 * u(0.05 * alpha, floor - 0.05 * alpha)
        if c2 >= 2 * RANK_POLE_MIN ** 2:             # pole h3 = c off zero
            return (psi + beta, sign * math.sqrt(c2), alpha, beta)


ENGEL_STRATA = ("C1+", "C1-", "C2", "C3", "C4", "C5", "C6", "C7",
                "C7-abnormal")
CARTAN_STRATA = ("C1", "C2", "C3", "C4", "C5", "C6", "C7")


def _read_geodesic_csv(path):
    """(config line present, header, rows as floats) of a geodesic CSV."""
    with open(path, newline="") as fh:
        first = fh.readline()
        rows = list(csv.reader(fh))
    return (first.startswith("# config: "), rows[0],
            [[float(v) for v in r] for r in rows[1:]])


def _geodesic_item(spec, h, label, outdir):
    def run():
        m = groups.build_group(spec)
        cs = ",".join(repr(float(v)) for v in h)
        cjson = os.path.join(outdir, "classify.json")
        gcsv = os.path.join(outdir, "geodesic.csv")
        T = repr(HORIZON)
        rc_c = cli.main(["classify", "--group", spec, f"--covector={cs}",
                         "--T", T, "--out", cjson])
        rc_g = cli.main(["geodesic", "--group", spec, f"--covector={cs}",
                         "--T", T, "--out", gcsv])
        cov = groups.Covector.from_h(m, h)
        rank_ok = regularity.rank_oracle_matches(m, cov)
        # the outputs are read back by the check, before the next item
        # overwrites them
        return lambda: _check_geodesic(m, cov, rc_c, rc_g, rank_ok, cjson, gcsv)
    return Item(f"geodesic:{spec}:{label}", run)


def _check_geodesic(m, cov, rc_c, rc_g, rank_ok, cjson, gcsv):
    checks = [exact_check("classify exit", rc_c, cli.EXIT_OK),
              exact_check("geodesic exit", rc_g, cli.EXIT_OK),
              Check("rank oracle", rank_ok)]
    if rc_c != cli.EXIT_OK or rc_g != cli.EXIT_OK:
        return checks
    with open(cjson) as fh:
        report = json.load(fh)
    has_config, header, rows = _read_geodesic_csv(gcsv)
    checks.append(Check("CSV config header", has_config))
    iH = header.index("H")
    H0 = rows[0][iH]
    drift = max(abs(r[iH] - H0) for r in rows)
    checks.append(float_check("H drift", drift, TOL_DRIFT))
    if not (m.kind == "cartan" or m.dim == 4):
        return checks
    chart = elliptic.classify_pendulum(m, cov)
    if chart.stratum in ("C1", "C2", "C3"):
        chart = elliptic.elliptic_coords(m, cov)
    ih = [header.index(f"h{i + 1}") for i in range(m.dim)]
    it = header.index("t")
    sup = 0.0
    for r in rows[::5]:                              # c07 samples every 5th
        hc = elliptic.pendulum_closed_form(chart, r[it])
        sup = max(sup, max(abs(a - r[j]) for a, j in zip(hc, ih)))
    checks.append(float_check("h vs closed form", sup, CLOSED_FORM_TOL))
    if chart.stratum in LOSS_CLOSED_FORM_STRATA and report["ample"]:
        want = elliptic.pole_zero_times(chart, HORIZON)
        got = report["loss_times"]
        checks.append(exact_check("loss count", len(got), len(want)))
        if len(got) == len(want):
            err = max((abs(a - b) for a, b in zip(got, want)), default=0.0)
            checks.append(float_check("loss times", err, LOSS_TIME_TOL))
    return checks


def geodesic_classify_round(rng, outdir, tiny=False):
    engel = ENGEL_STRATA[:2] if tiny else ENGEL_STRATA
    cartan = CARTAN_STRATA[:1] if tiny else CARTAN_STRATA
    items = []
    # two Engel points per stratum: with one, the median item fell in the gap
    # between the goursat:4 items and the slower cartan and random-fill ones,
    # and moved by up to a third from seed to seed; with two it falls among
    # the goursat:4 items of strata C1..C3 and C5..C7, which take about the
    # same time
    for st in (engel if tiny else engel * 2):
        pt = _engel_point(rng, st)
        items.append(_geodesic_item("goursat:4", groups.engel_h_from_chart(*pt),
                                    st, outdir))
    for st in cartan:
        pt = _cartan_point(rng, st)
        items.append(_geodesic_item("cartan", groups.cartan_h_from_chart(*pt),
                                    st, outdir))
    for spec in (() if tiny else ("goursat:5", "goursat:6")):
        m = groups.build_group(spec)
        for _ in range(2):
            # random fill as in acceptance c06
            cov = oracle.random_unit_covector(m, rng, pole_min=RANK_POLE_MIN)
            items.append(_geodesic_item(spec, tuple(float(v) for v in cov.h),
                                        "random", outdir))
    return items


WORKLOADS = ("exact-oracle", "numeric-oracle", "geodesic-classify")


def make_round(workload, rng, expect, outdir, tiny=False):
    if workload == "exact-oracle":
        return exact_oracle_round(rng, expect, tiny)
    if workload == "numeric-oracle":
        return numeric_oracle_round(rng, expect, tiny)
    if workload == "geodesic-classify":
        return geodesic_classify_round(rng, outdir, tiny)
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# set-up: build every group model and warm the lazy per-group caches
# ----------------------------------------------------------------------

_SETUP_H = (Fraction(3, 5), Fraction(4, 5), Fraction(1, 2), Fraction(-1, 3),
            Fraction(1, 4), Fraction(-1, 5), Fraction(1, 6), Fraction(-1, 7))


def setup(outdir, between=None):
    """Build every model and warm its caches through public calls.

    The bracket chain is warmed by ``canonical_E_top`` and ``r11_exact``,
    the rank fields by ``rank_oracle_matches`` and the compiled flow by one
    short CLI ``geodesic`` and ``classify`` call, which is what a CLI
    invocation pays before its first step.  ``between`` is called before
    each group (the worker samples the host's speed there).
    """
    for spec in EXACT_GROUPS:
        if between is not None:
            between()
        m = groups.build_group(spec)
        h = _SETUP_H[:m.dim]
        cov = groups.Covector.from_h(m, h)
        oracle.canonical_E_top(m, cov)
        if oracle.r11_exact(m, cov) != curvature.r11(m, cov):
            raise RuntimeError(f"set-up: exact R11 mismatch on {spec}")
        if not regularity.rank_oracle_matches(m, cov):
            raise RuntimeError(f"set-up: rank oracle mismatch on {spec}")
        cs = ",".join(str(v) for v in h)
        for cmd, name in (("geodesic", "setup.csv"), ("classify", "setup.json")):
            rc = cli.main([cmd, "--group", spec, f"--covector={cs}",
                           "--T", "0.01", "--out", os.path.join(outdir, name)])
            if rc != cli.EXIT_OK:
                raise RuntimeError(f"set-up: {cmd} on {spec} exited {rc}")
