"""The sequential cost-Hessian probe, kept unchanged as a reference.

reference_shoot solves one shooting problem at a time with one-run flows
(each stores every step), and reference_cost_hessian_probe calls it for the
13 points x 2 tau in the order its Hessian reads them.  The tests compare
oracle.cost_hessian_probe, which solves the 26 problems in lockstep,
against them: the same bytes of q, and the same exception and message when
a shooting diverges.
"""
import numpy as np

from carnotcurv.errors import (LemmaConditionFailed, ShootingDiverged,
                               StepUnbalanced)
from carnotcurv.groups import Covector, fiber_transform
from carnotcurv.hamiltonian import compiled_flow, integrate_flow
from carnotcurv.oracle import (_NEWTON_MAX_ITER, _PROBE_DT_FRAC, _PROBE_H,
                               _PROBE_STEP, _frame_at)
from carnotcurv.tolerances import (PROBE_BALANCE_TOL, PROBE_UNIT_TOL,
                                   SHOOT_TOL)


def reference_shoot(model, x, p0, target, t):
    """H at the Newton-solved initial momentum reaching `target` in time t.

    The residual of each Newton iterate is read from the trajectory that
    accepted it (the line search's, after the first), so the variational
    matrix is integrated only when another Newton step is needed: the state
    part of a flow does not depend on whether the matrix rides along.
    """
    cf = compiled_flow(model)
    n = model.dim
    x = np.array(x, dtype=float)

    def flow(p, with_variational=False):
        return integrate_flow(model, Covector(model, tuple(x), tuple(p)), t,
                              step=_PROBE_STEP,
                              with_variational=with_variational,
                              drift_bound=None)

    p = np.array(p0, dtype=float)
    traj = flow(p, with_variational=True)
    for _ in range(_NEWTON_MAX_ITER):
        r = traj.ys[-1][:n] - target
        if np.max(np.abs(r)) <= SHOOT_TOL:
            return float(cf.H_of(np.concatenate([x, p])[None])[0])
        if traj.Ms is None:
            traj = flow(p, with_variational=True)
        Jac = traj.Ms[-1][:n, n:]
        try:
            dp = np.linalg.solve(Jac, r)
        except np.linalg.LinAlgError as exc:
            raise ShootingDiverged(f"singular shooting Jacobian: {exc}") from exc
        damping = 1.0
        base = np.max(np.abs(r))
        while damping > 1e-4:
            p_try = p - damping * dp
            traj_try = flow(p_try)
            if np.max(np.abs(traj_try.ys[-1][:n] - target)) < base:
                p, traj = p_try, traj_try
                break
            damping *= 0.5
        else:
            raise ShootingDiverged(
                f"Newton damping underflow at residual {base:.3e}")
    raise ShootingDiverged(f"shooting did not reach tol {SHOOT_TOL:g} "
                           f"in {_NEWTON_MAX_ITER} iters")


def reference_cost_hessian_probe(model, cov, t=0.1):
    """Finite-difference probe of the cost Hessian restricted to the distribution.

    Computes c_tau(x) = -tau H(eta(x, tau)) by Newton shooting onto the
    reference geodesic, differentiates in tau centrally, and second-differences
    in x along the projected canonical-frame directions.
    """
    cov = cov.as_float()
    n = model.dim
    fa1, fb1 = _frame_at(model, cov)[1][:, :n]
    na1 = np.linalg.norm(fa1)
    nb1 = np.linalg.norm(fb1)
    if abs(na1 - 1) > PROBE_UNIT_TOL or abs(nb1 - 1) > PROBE_UNIT_TOL:
        raise LemmaConditionFailed(
            f"projected frame directions are not unit: {na1}, {nb1}")
    dirs = [fa1, fb1]

    dt = _PROBE_DT_FRAC * t
    taus = (t - dt, t + dt)
    ref = integrate_flow(model, cov, t + dt, step=_PROBE_STEP, drift_bound=None)
    targets = {tau: ref.ys[ref.index_at(tau)][:n].copy() for tau in taus}

    x0 = np.array([float(v) for v in cov.base])
    h0 = [float(v) for v in cov.h]

    def cdot(x):
        _, ainv = fiber_transform(model, tuple(x))
        p_guess = np.array(
            [sum(ainv[j][i] * h0[i] for i in range(n)) for j in range(n)])
        vals = [-tau * reference_shoot(model, x, p_guess, targets[tau], tau)
                for tau in taus]
        return (vals[1] - vals[0]) / (2 * dt)

    f0 = cdot(x0)

    def hessian(s):
        q = np.zeros((2, 2))
        for i, v in enumerate(dirs):
            fp = cdot(x0 + s * v)
            fm = cdot(x0 - s * v)
            q[i, i] = (fp - 2 * f0 + fm) / (s * s)
        fpp = cdot(x0 + s * (dirs[0] + dirs[1]))
        fmm = cdot(x0 - s * (dirs[0] + dirs[1]))
        q[0, 1] = q[1, 0] = (fpp + fmm - 2 * f0
                             - q[0, 0] * s * s - q[1, 1] * s * s) / (2 * s * s)
        return q

    q = hessian(_PROBE_H)
    q2 = hessian(_PROBE_H / 2)
    for i in (0, 1):
        if abs(q2[i, i] - q[i, i]) > PROBE_BALANCE_TOL * abs(q[i, i]):
            raise StepUnbalanced(
                f"probe entries at steps {_PROBE_H} and {_PROBE_H / 2} "
                f"disagree: {q[i, i]:.6g} vs {q2[i, i]:.6g}")
    return q2
