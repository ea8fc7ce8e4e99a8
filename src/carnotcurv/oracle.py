"""Independent verification of the curvature invariants.

Three routes are implemented and cross-checked:

* exact canonical-frame construction: the top frame vector is a closed-form
  field W; its flow derivatives are iterated brackets ad_H^k(W), so
  R11 = sigma(ad_H^{n_a+1} W, ad_H^{n_a} W) at the covector, evaluated in
  exact rational arithmetic (zero tolerance against the closed forms);

* finite-t Jacobi-curve fitting: the curve of pulled-back vertical spaces
  M(t)^{-1} V_{lambda(t)} is expressed in the Darboux frame at lambda_0 and
  the Laurent data of its graph map is least-squares fitted (float route,
  fully independent of the closed forms);

* an optional boundary-value probe that differentiates the geodesic cost
  directly through Newton shooting (slow; Heisenberg/Engel scale).
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import (IllConditioned, IndexOutOfRange, LemmaConditionFailed,
                     ShootingDiverged, StepUnbalanced)
from .frames import frame_fields, h_frame, vanishes_on
from .groups import Covector, fiber_transform
from .hamiltonian import (compiled_flow, integrate_flow, integrate_flows,
                          step_count)
from .symfields import Poly, Rat, sigma_pair
from .tolerances import (DRIFT_TOL, FIT_B_ZERO_TOL, FIT_COND_MAX,
                         FIT_LEAD_TOL, FIT_LIN_TOL, PAIRING_TOL,
                         PROBE_BALANCE_TOL, PROBE_REL_TOL, PROBE_UNIT_TOL,
                         SCAN_DRIFT_TOL, SHOOT_TOL)
from . import curvature as _curv

# Laurent fit: RK4 step, and the geomspace (start, stop, num) of its t-grid
_FIT_STEP = 1e-4
_FIT_T_GEOM = (0.008, 0.06, 14)
# offsets of the Richardson-extrapolated pull-back derivative
_PULLBACK_STEPS = (1e-3, 1e-4)
# cost probe: x offset, tau offset over t, RK4 step, Newton iteration cap
_PROBE_H = 2e-3
_PROBE_DT_FRAC = 0.05
_PROBE_STEP = 1e-3
_NEWTON_MAX_ITER = 50
# exact random covectors: |pole| >= _EXACT_POLE_MIN, and h3.. are k/9 with
# |k| <= _EXACT_NINTHS
_EXACT_POLE_MIN = Fraction(1, 5)
_EXACT_NINTHS = 18


class OracleFields:
    """Cached bracket chain ad_H^k(W) for one model, in the h-frame basis,
    with the named E boxes (a1..a n_a, b1) and the F boxes F_a1, F_b1."""

    def __init__(self, model):
        self.model = model
        self.hf = hf = h_frame(model)
        self.n_a = na = model.young[0]
        self.G = hf.ad_h_chain(hf.w_top, na + 1)
        # sigma(ad^{n_a} W, ad^{n_a - 1} W) as a function; must be 1 on 2H=1
        self.norm_fun = hf.sigma(self.G[na], self.G[na - 1])
        self.r11_fun = hf.sigma(self.G[na + 1], self.G[na])
        self.e_boxes = [(f"E_a{i}", self.G[na - i]) for i in range(1, na + 1)]
        self.e_boxes.append(("E_b1", hf.euler))
        self.f_boxes = (-self.G[na], hf.hvec)


def oracle_fields(model):
    return model.memo(OracleFields)


def _require_pole(model, cov):
    if model.has_pole:
        i = model.pole_index
        _curv.check_pole(cov.h[i - 1], cov.exact, f"h{i}")


def _agrees(value, want, exact):
    """value == want at an exact covector, within PAIRING_TOL at a float one."""
    return (value == want if exact
            else abs(float(value) - float(want)) < PAIRING_TOL)


def canonical_E_top(model, cov):
    """Closed-form top frame field, with the defining conditions verified.

    Checks, exactly: the field and its first n_a - 1 flow derivatives are
    vertical (project to zero), and the symplectic normalization
    sigma(E^{(n_a)}, E^{(n_a-1)}) = 1 at the covector.  Returns the field in
    canonical coordinates, frame_fields(model).w_top.
    """
    _require_pole(model, cov)
    of = oracle_fields(model)
    for k in range(of.n_a):
        if not of.G[k].is_vertical:
            raise LemmaConditionFailed(
                f"flow derivative {k} of the top frame field is not vertical")
    norm = of.norm_fun.eval(cov.h)
    if not _agrees(norm, 1, cov.exact):
        raise LemmaConditionFailed(
            f"sigma(E^(n_a), E^(n_a-1)) = {norm} at the covector, expected 1 "
            "(is it unit-speed?)")
    return frame_fields(model).w_top


def r11_exact(model, cov):
    """R11 by the canonical-frame route: sigma(ad^{n_a+1} W, ad^{n_a} W).

    Exact rational for exact covectors; must equal the closed form.
    """
    _require_pole(model, cov)
    return oracle_fields(model).r11_fun.eval(cov.h)


def _aij_forms(model, i):
    """Closed forms of (a_ii, a_{i,i-1}, a_{i,i-2}) as functions of h, and
    the first disagreement with the bracket chain (None when they agree)."""
    of = oracle_fields(model)
    hf = of.hf
    n, na = model.dim, of.n_a

    def hpow(m):
        if m >= 0:
            return Rat(Poly.variable(n, 0) ** m)
        return Rat(Poly.const(n, 1), hf.pole, -m)

    closed = [hpow(2 - na + i) * ((-1) ** i)]
    if i >= 1:
        acc = Rat.zero(n)
        for k in range(i):
            acc = acc + hpow(k) * hf.hvec.apply(hpow(2 - na + (i - 1) - k))
        closed.append(acc * ((-1) ** (i - 1)))
    if i >= 2:
        acc = Rat.zero(n)
        for k in range(i - 1):
            inner = Rat.zero(n)
            for l in range(i - 1 - k):
                inner = inner + hpow(l) * hf.hvec.apply(
                    hpow(2 - na + (i - 2) - k - l))
            acc = acc + hpow(k) * hf.hvec.apply(inner)
        closed.append(acc * ((-1) ** (i - 2)))

    # bracket-chain components: a_{i,j} multiplies d/dh_{n-j}, so the entry
    # a_{i,i-m} is the component along d/dh_{n-i+m}
    gi = of.G[i]
    if not gi.is_vertical:
        return closed, f"ad^{i} W is not vertical for i <= n-3"
    for m, want in enumerate(closed):
        if not gi.b[n - 1 - i + m] == want:
            return closed, (f"a_({i},{i - m}) closed form disagrees with the "
                            "bracket chain")
    return closed, None


def aij_coefficients(model, cov, i):
    """Top three vertical components of the i-th flow derivative of W.

    Returns the values of (a_ii, a_{i,i-1}, a_{i,i-2}) at the covector
    (entries with negative second index omitted), computed from the
    closed-form sum formulas; verified exactly (as rational functions of h)
    against the bracket chain's components.
    """
    if model.kind != "goursat":
        raise IndexOutOfRange("a_ij coefficients are defined for Goursat models")
    n = model.dim
    if not 0 <= i <= n - 3:
        raise IndexOutOfRange(f"need 0 <= i <= n-3 = {n - 3}, got {i}")
    _require_pole(model, cov)
    closed, failure = model.memo(_aij_forms, i)
    if failure:
        raise LemmaConditionFailed(failure)
    return [c.eval(cov.h) for c in closed]


class CheckRow:
    """One verification result row."""

    __slots__ = ("name", "mode", "expected", "actual", "passed")

    def __init__(self, name, mode, expected, actual, passed):
        self.name = name
        self.mode = mode
        self.expected = expected
        self.actual = actual
        self.passed = bool(passed)

    def to_dict(self):
        return {"name": self.name, "mode": self.mode,
                "expected": str(self.expected), "actual": str(self.actual),
                "pass": self.passed}


def _darboux_table(model):
    """(name, sigma as a function of h, value at unit speed) per pairing:
    the int 0, or a Fraction on the E-F rows (a float at a float covector)."""
    of = oracle_fields(model)
    sigma = of.hf.sigma
    rows = []
    for i, (na_, fa) in enumerate(of.e_boxes):
        for nb_, fb in of.e_boxes[i + 1:]:
            rows.append((f"sigma({na_},{nb_})", sigma(fa, fb), 0))
    for name_e, fe in of.e_boxes:
        for box, fb in zip(("a1", "b1"), of.f_boxes):
            rows.append((f"sigma({name_e},F_{box})", sigma(fe, fb),
                         Fraction(name_e == f"E_{box}")))
    rows.append(("sigma(F_a1,F_b1)", sigma(*of.f_boxes), 0))
    return rows


def frame_darboux_check(model, cov):
    """All computable Darboux pairings of the canonical frame at a covector.

    sigma(E, E) = 0, sigma(F_a1, F_b1) = 0, sigma(E_ai, F_a1) = delta_i1,
    sigma(E_ai, F_b1) = 0, sigma(E_b1, F_b1) = 2H = 1 at unit speed.
    Exact for exact covectors, within PAIRING_TOL for float ones.
    """
    _require_pole(model, cov)
    mode = "exact" if cov.exact else "float"
    rows = []
    for name, fun, want in model.memo(_darboux_table):
        if not cov.exact and isinstance(want, Fraction):
            want = float(want)
        val = fun.eval(cov.h)
        rows.append(CheckRow(name, mode, want, val,
                             _agrees(val, want, cov.exact)))
    return rows


def _frame_at(model, cov):
    """Canonical components of the frame boxes at a float covector.

    Returns two float arrays of canonical (x, p) vectors from one basis_at
    call: E with rows E_a1..E_a n_a, E_b1, and F with rows F_a1, F_b1.
    """
    of = oracle_fields(model)
    basis = of.hf.basis_at(cov)

    def rows(fields):
        return np.array([of.hf.to_canonical_at(f, cov, basis=basis)
                         for f in fields], dtype=float)

    return rows(f for _, f in of.e_boxes), rows(of.f_boxes)


class SflatFit:
    """Result of the Laurent fit of the graph-map block S_flat(t)^{-1}."""

    __slots__ = ("lead_a", "lead_b", "lin_a", "lin_b", "offdiag_max",
                 "dropped", "used_ts")

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw.get(k))

    def __repr__(self):
        return (f"SflatFit(lead_a={self.lead_a:.9g}, lead_b={self.lead_b:.9g}, "
                f"lin_a={self.lin_a:.6g}, dropped={self.dropped})")


def sflat_fit(model, cov):
    """Fit the Laurent data of S_flat(t)^{-1} from the integrated Jacobi curve.

    The vertical space at lambda(t) is pulled back through the variational
    matrix, expressed in the Darboux frame at lambda_0, and the graph-map
    rows for the boxes (a1), (b1) are extracted.  Evaluations at +-t are
    averaged, so z(t) = t S_flat(t)^{-1} contains even powers only, and each
    diagonal entry is fitted by z = a + b t^2 + c t^4 on the whole grid: the
    leading coefficient a and the linear coefficient b are the Laurent data,
    with the t^4 term absorbing the next even remainder (at float64 a
    two-term fit bottoms out around 1e-3 relative on b for every usable
    window; modelling the t^4 term is what delivers the 1e-3 tolerance with
    margin).  offdiag_max is the largest off-diagonal modulus on the grid.
    Grid points whose graph-map solve has condition number above
    FIT_COND_MAX are dropped; more than half dropped is an error.
    """
    cov = cov.as_float()
    n = model.dim
    step = _FIT_STEP
    t_grid = np.unique([max(step, round(t / step) * step)
                        for t in np.geomspace(*_FIT_T_GEOM)])
    tmax = float(t_grid[-1])
    E, F = _frame_at(model, cov)
    P = np.eye(2 * n)[:, n:]                      # vertical space, columns

    def sblock_at(M):
        B = np.linalg.solve(M, P)                 # J(t) basis, columns
        Fmat = -sigma_pair(B, E.T[:, :, None])
        # the f-coordinates of box a_i scale like t^i, and the remaining
        # structure is Hilbert-like: equilibrate rows and columns before
        # judging the conditioning of the graph-map solve
        nr = np.linalg.norm(Fmat, axis=1)
        if np.min(nr) == 0.0:
            return None
        scaled = Fmat / nr[:, None]
        nc = np.linalg.norm(scaled, axis=0)
        if np.min(nc) == 0.0:
            return None
        scaled = scaled / nc[None, :]
        if np.linalg.cond(scaled) > FIT_COND_MAX:
            return None
        # rows e_a1, e_b1 of the pairings with F_a1, F_b1
        ef = sigma_pair(B, F.T[:, :, None])
        # Fmat = D_r scaled D_c with D acting on rows/cols: rows = e Fmat^{-1}
        z = np.linalg.solve(scaled.T, (ef / nc[None, :]).T).T
        rows = z / nr[None, :]
        return rows[:, [0, n - 1]]                # box order: a1..a n_a, b1

    trajs = integrate_flows(model, [(cov, tmax), (cov, -tmax)], step=step,
                            with_variational=True, drift_bound=DRIFT_TOL,
                            richardson=True)
    blocks = [[sblock_at(traj.Ms[int(round(t / step))]) for t in t_grid]
              for traj in trajs]

    ts, zs = [], []
    for t, sp, sm in zip(t_grid, *blocks):
        if sp is not None and sm is not None:
            ts.append(t)
            zs.append(0.5 * (t * sp + (-t) * sm))   # a + b t^2 + O(t^4)
    dropped = len(t_grid) - len(ts)
    if dropped > len(t_grid) / 2:
        raise IllConditioned(
            f"{dropped}/{len(t_grid)} graph-map solves exceeded cond "
            f"{FIT_COND_MAX:g}")
    ts = np.array(ts)
    zs = np.array(zs)                            # (m, 2, 2)
    A = np.vstack([np.ones(len(ts)), ts ** 2, ts ** 4]).T
    (lead_a, lin_a, _), *_ = np.linalg.lstsq(A, zs[:, 0, 0], rcond=None)
    (lead_b, lin_b, _), *_ = np.linalg.lstsq(A, zs[:, 1, 1], rcond=None)
    offdiag = max(float(np.max(np.abs(zs[:, 0, 1]))),
                  float(np.max(np.abs(zs[:, 1, 0]))))
    return SflatFit(lead_a=float(lead_a), lead_b=float(lead_b),
                    lin_a=float(lin_a), lin_b=float(lin_b),
                    offdiag_max=offdiag, dropped=dropped, used_ts=ts)


def _higher_diagonal(model):
    """The recursion of higher_diagonal_invariants as functions of h: the
    R_{aa,ii}, the pairings sigma(E_{a,i+1}, F_{a,i+1}) for i < n_a, and
    the closure verdict on 2H = 1."""
    of = oracle_fields(model)
    hf = of.hf
    na = of.n_a
    r_funs, pairings = [], []
    F = of.f_boxes[0]
    for i in range(1, na + 1):
        dF = hf.bracket(hf.hvec, F)
        r_funs.append(hf.sigma(dF, F))
        if i < na:
            F = of.G[na - i].smul(r_funs[-1]) - dF
            pairings.append(hf.sigma(of.G[na - i - 1], F))
    # closure: dF_{a n_a} = R_{aa,n_a n_a} E_{a n_a} on the cylinder
    resid = dF - of.G[0].smul(r_funs[-1])
    return r_funs, pairings, vanishes_on(hf.cylinder, resid.a + resid.b)


def higher_diagonal_invariants(model, cov):
    """Diagonal curvature entries R_{aa,ii} via the structural recursion.

    F_{a,i+1} = R_{aa,ii} E_{ai} - dF_{ai}/dt realized on fields through the
    flow derivative ad_H; R_{aa,ii} = sigma(dF_{ai}/dt, F_{ai}).  Entry
    i = 1 must equal the exact R11.  residuals has one check per step: for
    i < n_a the Darboux pairing sigma(E_{a,i+1}, F_{a,i+1}) = 1 at the
    covector (within PAIRING_TOL if float), and for i = n_a the closure
    dF_{a n_a}/dt = R_{aa,n_a n_a} E_{a n_a}, decided exactly on 2H = 1.
    """
    _require_pole(model, cov)
    r_funs, pairings, closes = model.memo(_higher_diagonal)
    values = [r.eval(cov.h) for r in r_funs]
    residuals = [_agrees(p.eval(cov.h), 1, cov.exact) for p in pairings]
    return values, residuals + [closes]


def derivative_pullback_check(model, cov):
    """Validate the bracket oracle against the ODE oracle.

    Richardson-extrapolated numeric derivative of t -> M(t)^{-1} W(lambda(t))
    at t = 0 versus the bracket field [H, W] evaluated at the covector.
    Returns the max absolute component difference.
    """
    cov = cov.as_float()
    of = oracle_fields(model)
    hf = of.hf

    def pullback(t, step):
        traj = integrate_flow(model, cov, t, step=step, with_variational=True,
                              drift_bound=SCAN_DRIFT_TOL)
        M = traj.Ms[-1]
        end = traj.covector(len(traj) - 1)
        w = np.array(hf.to_canonical_at(hf.w_top, end), dtype=float)
        return np.linalg.solve(M, w)

    def central(hstep):
        inner = hstep / 50.0
        return (pullback(hstep, inner) - pullback(-hstep, inner)) / (2 * hstep)

    h1, h2 = _PULLBACK_STEPS
    d1, d2 = central(h1), central(h2)
    deriv = (h1 * h1 * d2 - h2 * h2 * d1) / (h1 * h1 - h2 * h2)
    want = np.array(hf.to_canonical_at(of.G[1], cov), dtype=float)
    return float(np.max(np.abs(deriv - want)))


# ----------------------------------------------------------------------
# boundary-value probe of the cost Hessian
# ----------------------------------------------------------------------

def _shoot(model, x, p0, target, t):
    """Newton shooting for the momentum at x whose geodesic reaches `target`
    in time t, as a generator: it yields each flow it needs as ((covector,
    t), with_variational), is sent that flow's trajectory, and returns H at
    the solved momentum.

    The residual of each Newton iterate is read from the trajectory that
    accepted it (the line search's, after the first), so the variational
    matrix is integrated only when another Newton step is needed: the state
    part of a flow does not depend on whether the matrix rides along.
    """
    cf = compiled_flow(model)
    n = model.dim
    x = np.array(x, dtype=float)

    def flow(p, with_variational=False):
        return (Covector(model, tuple(x), tuple(p)), t), with_variational

    p = np.array(p0, dtype=float)
    traj = yield flow(p, with_variational=True)
    for _ in range(_NEWTON_MAX_ITER):
        r = traj.ys[-1][:n] - target
        if np.max(np.abs(r)) <= SHOOT_TOL:
            return float(cf.H_of(np.concatenate([x, p])[None])[0])
        if traj.Ms is None:
            traj = yield flow(p, with_variational=True)
        Jac = traj.Ms[-1][:n, n:]
        try:
            dp = np.linalg.solve(Jac, r)
        except np.linalg.LinAlgError as exc:
            raise ShootingDiverged(f"singular shooting Jacobian: {exc}") from exc
        damping = 1.0
        base = np.max(np.abs(r))
        while damping > 1e-4:
            p_try = p - damping * dp
            traj_try = yield flow(p_try)
            if np.max(np.abs(traj_try.ys[-1][:n] - target)) < base:
                p, traj = p_try, traj_try
                break
            damping *= 0.5
        else:
            raise ShootingDiverged(
                f"Newton damping underflow at residual {base:.3e}")
    raise ShootingDiverged(f"shooting did not reach tol {SHOOT_TOL:g} "
                           f"in {_NEWTON_MAX_ITER} iters")


def _shoot_all(model, problems):
    """H of each shooting problem (x, p0, target, t), solved in lockstep.

    Each round runs the flows that the live problems ask for as two
    integrate_flows batches, the variational flows and the line-search
    trials, and each problem takes exactly the steps it takes alone.  The
    flows store only their endpoint.  Once a problem diverges, only the
    problems before it keep running, and the first one (in the order of
    problems) that diverged raises its ShootingDiverged, as solving them
    one after the other would.
    """
    every = step_count(max(t for *_, t in problems), _PROBE_STEP)
    solvers = [_shoot(model, *prob) for prob in problems]
    asks = {i: next(g) for i, g in enumerate(solvers)}
    H = [None] * len(problems)
    failed = None
    while asks:
        for variational in (True, False):
            batch = [i for i, (_, v) in asks.items() if v is variational]
            if not batch:
                continue
            trajs = integrate_flows(model, [asks[i][0] for i in batch],
                                    step=_PROBE_STEP,
                                    with_variational=variational,
                                    store_every=every, drift_bound=None)
            for i, traj in zip(batch, trajs):
                try:
                    asks[i] = solvers[i].send(traj)
                except StopIteration as done:
                    H[i] = done.value
                    del asks[i]
                except ShootingDiverged as exc:
                    if failed is None or i < failed[0]:
                        failed = (i, exc)
                    del asks[i]
            if failed is not None:
                asks = {i: a for i, a in asks.items() if i < failed[0]}
    if failed is not None:
        raise failed[1]
    return H


def cost_hessian_probe(model, cov, t=0.1):
    """Finite-difference probe of the cost Hessian restricted to the distribution.

    Computes c_tau(x) = -tau H(eta(x, tau)) by Newton shooting onto the
    reference geodesic, differentiates in tau centrally, and second-differences
    in x along the projected canonical-frame directions.  The leading behavior
    must match diag(n_a^2, 1)/t^2.  The 13 points x 2 tau shootings are
    solved in lockstep.  Slow; intended for Heisenberg/Engel.
    """
    cov = cov.as_float()
    n = model.dim
    fa1, fb1 = _frame_at(model, cov)[1][:, :n]
    na1 = np.linalg.norm(fa1)
    nb1 = np.linalg.norm(fb1)
    if abs(na1 - 1) > PROBE_UNIT_TOL or abs(nb1 - 1) > PROBE_UNIT_TOL:
        raise LemmaConditionFailed(
            f"projected frame directions are not unit: {na1}, {nb1}")

    dt = _PROBE_DT_FRAC * t
    taus = (t - dt, t + dt)
    ref = integrate_flow(model, cov, t + dt, step=_PROBE_STEP, drift_bound=None)
    targets = {tau: ref.ys[ref.index_at(tau)][:n].copy() for tau in taus}

    x0 = np.array([float(v) for v in cov.base])
    h0 = [float(v) for v in cov.h]
    steps = (_PROBE_H, _PROBE_H / 2)
    # x0, then per step s: x0 +- s v for v = fa1, fb1, fa1 + fb1
    points = [x0]
    for s in steps:
        for v in (fa1, fb1, fa1 + fb1):
            points += [x0 + s * v, x0 - s * v]

    def p_guess(x):
        _, ainv = fiber_transform(model, tuple(x))
        return np.array(
            [sum(ainv[j][i] * h0[i] for i in range(n)) for j in range(n)])

    Hs = iter(_shoot_all(model, [(x, p, targets[tau], tau)
                                 for x, p in zip(points, map(p_guess, points))
                                 for tau in taus]))
    cdot = []
    for _ in points:
        vals = [-tau * next(Hs) for tau in taus]
        cdot.append((vals[1] - vals[0]) / (2 * dt))
    f0 = cdot[0]

    def hessian(s, fp0, fm0, fp1, fm1, fpp, fmm):
        q = np.zeros((2, 2))
        for i, (fp, fm) in enumerate(((fp0, fm0), (fp1, fm1))):
            q[i, i] = (fp - 2 * f0 + fm) / (s * s)
        q[0, 1] = q[1, 0] = (fpp + fmm - 2 * f0
                             - q[0, 0] * s * s - q[1, 1] * s * s) / (2 * s * s)
        return q

    q = hessian(steps[0], *cdot[1:7])
    q2 = hessian(steps[1], *cdot[7:])
    for i in (0, 1):
        if abs(q2[i, i] - q[i, i]) > PROBE_BALANCE_TOL * abs(q[i, i]):
            raise StepUnbalanced(
                f"probe entries at steps {_PROBE_H} and {_PROBE_H / 2} "
                f"disagree: {q[i, i]:.6g} vs {q2[i, i]:.6g}")
    return q2


# ----------------------------------------------------------------------
# randomized covector generators and verification suites
# ----------------------------------------------------------------------

def random_rational_unit_covector(model, rng):
    """Exact rational unit-speed covector with the pole bounded away from 0.

    h1, h2 come from the rational parametrization of the circle; the
    remaining components are random small rationals.
    """
    n = model.dim
    while True:
        q = Fraction(int(rng.integers(-30, 31)), int(rng.integers(1, 16)))
        den = 1 + q * q
        h1 = (1 - q * q) / den
        h2 = 2 * q / den
        rest = [Fraction(int(rng.integers(-_EXACT_NINTHS, _EXACT_NINTHS + 1)), 9)
                for _ in range(n - 2)]
        h = [h1, h2] + rest
        pole = h[model.pole_index - 1]
        if abs(pole) >= _EXACT_POLE_MIN:
            return Covector.from_h(model, h)


def random_unit_covector(model, rng, pole_min=0.1):
    """Float unit-speed covector with the pole bounded away from zero."""
    n = model.dim
    while True:
        h = list(model.circle(rng.uniform(-math.pi, math.pi)))
        h += list(rng.uniform(-2, 2, n - 2))
        if abs(h[model.pole_index - 1]) >= pole_min:
            return Covector.from_h(model, h)


def run_exact_suite(model, count=50, seed=0):
    """Exact-arithmetic suite: bracket identities, frame conditions, a_ij,
    Darboux pairings, and count exact R11 matches."""
    from .frames import verify_bracket_identities
    rows = []
    rng = np.random.default_rng(seed)
    for chk in verify_bracket_identities(model):
        rows.append(CheckRow(f"{model.spec_string} identity {chk.name}",
                             "exact", True, chk.holds, chk.holds))
    cov = random_rational_unit_covector(model, rng)

    def condition_row(name, expected, check, *args):
        try:
            check(model, cov, *args)
            actual = expected
        except LemmaConditionFailed as exc:
            actual = str(exc)
        rows.append(CheckRow(f"{model.spec_string} {name}", "exact",
                             expected, actual, actual == expected))

    condition_row("top-frame conditions", "verified", canonical_E_top)
    for row in frame_darboux_check(model, cov):
        row.name = f"{model.spec_string} {row.name}"
        rows.append(row)
    if model.kind == "goursat" and model.dim >= 5:
        i = model.dim - 3
        condition_row(f"a_ij(i={i}) vs brackets", "equal", aij_coefficients, i)
    matches = 0
    for _ in range(count):
        cov = random_rational_unit_covector(model, rng)
        got = r11_exact(model, cov)
        want = _curv.r11(model, cov)
        matches += (got == want)
    rows.append(CheckRow(f"{model.spec_string} exact R11 matches", "exact",
                         f"{count}/{count}", f"{matches}/{count}",
                         matches == count))
    return rows


def run_fit_suite(model, count=5, seed=0, lead_tol=FIT_LEAD_TOL,
                  lin_tol=FIT_LIN_TOL):
    """Laurent-fit suite: leading and linear coefficients on generic covectors.

    Covectors are resampled while |Omega R11| < 0.05: the linear tolerance
    is relative, so the target must be bounded away from its zero set.  The
    entries with a b index vanish (every curvature entry with a b index is
    0), so the linear b coefficient and the largest a-b entry of the fitted
    block are checked against 0 within the absolute FIT_B_ZERO_TOL.
    """
    rows = []
    rng = np.random.default_rng(seed)
    n_a, n_b = model.young
    for idx in range(count):
        while True:
            cov = random_unit_covector(model, rng, pole_min=0.45)
            want_lin = float(_curv.omega(n_a, n_a)) * float(_curv.r11(model, cov))
            if abs(want_lin) >= 0.05:
                break
        fit = sflat_fit(model, cov)
        ok_a = abs(fit.lead_a + n_a * n_a) <= lead_tol * n_a * n_a
        ok_b = abs(fit.lead_b + n_b * n_b) <= lead_tol * n_b * n_b
        rows.append(CheckRow(f"{model.spec_string} fit lead_a #{idx}", "float",
                             -n_a * n_a, fit.lead_a, ok_a))
        rows.append(CheckRow(f"{model.spec_string} fit lead_b #{idx}", "float",
                             -n_b * n_b, fit.lead_b, ok_b))
        ok_lin = abs(fit.lin_a - want_lin) <= lin_tol * abs(want_lin)
        rows.append(CheckRow(f"{model.spec_string} fit lin_a #{idx}", "float",
                             want_lin, fit.lin_a, ok_lin))
        rows.append(CheckRow(f"{model.spec_string} fit lin_b #{idx}", "float",
                             0.0, fit.lin_b, abs(fit.lin_b) <= FIT_B_ZERO_TOL))
        rows.append(CheckRow(f"{model.spec_string} fit offdiag #{idx}",
                             "float", 0.0, fit.offdiag_max,
                             fit.offdiag_max <= FIT_B_ZERO_TOL))
    return rows


def run_slow_suite(model, seed=0, t=0.1, rel_tol=PROBE_REL_TOL):
    """Cost-Hessian probe suite (Heisenberg scale)."""
    rows = []
    rng = np.random.default_rng(seed)
    cov = random_unit_covector(model, rng, pole_min=0.45)
    q = cost_hessian_probe(model, cov, t=t)
    n_a, n_b = model.young
    for i, want in ((0, n_a * n_a / t ** 2), (1, n_b * n_b / t ** 2)):
        ok = abs(q[i, i] - want) <= rel_tol * want
        rows.append(CheckRow(f"{model.spec_string} cost-Hessian diag {i}",
                             "float", want, q[i, i], ok))
    return rows
