"""The earlier sflat_fit and probe directions, kept unchanged as a reference.

reference_sflat_fit builds the frame vectors at the covector with its own
basis_at call, pairs them with one scalar sigma_pair call per entry, and
runs eight least-squares fits (full and half window, four block entries)
of which it returns two; its window_rel was never read.  It returns a
namespace with the fields of SflatFit.  reference_probe_directions is the
fa1, fb1 construction of the earlier cost_hessian_probe.  The tests compare
oracle.sflat_fit and oracle._frame_at against them bit for bit.
"""
from types import SimpleNamespace

import numpy as np

from carnotcurv.errors import IllConditioned
from carnotcurv.frames import h_frame
from carnotcurv.hamiltonian import integrate_flow
from carnotcurv.oracle import _FIT_STEP, _FIT_T_GEOM, oracle_fields
from carnotcurv.symfields import sigma_pair
from carnotcurv.tolerances import DRIFT_TOL, FIT_COND_MAX


def _frame_boxes(model):
    """E-box fields (a1..a n_a, b1) and the two computable F boxes."""
    of = oracle_fields(model)
    hf = of.hf
    na = of.n_a
    e_boxes = [(f"E_a{i}", of.G[na - i]) for i in range(1, na + 1)]
    e_boxes.append(("E_b1", hf.euler))
    f_a1 = ("F_a1", -of.G[na])
    f_b1 = ("F_b1", hf.hvec)
    return e_boxes, f_a1, f_b1


def reference_sflat_fit(model, cov):
    """Fit the Laurent data of S_flat(t)^{-1} from the integrated Jacobi curve.

    The vertical space at lambda(t) is pulled back through the variational
    matrix, expressed in the Darboux frame at lambda_0, and the graph-map
    rows for the boxes (a1), (b1) are extracted.  Evaluations at +-t are
    averaged, so z(t) = t S_flat(t)^{-1} contains even powers only, and the
    regression fits z = a + b t^2 + c t^4: the leading coefficient a and the
    linear coefficient b are the Laurent data, with the t^4 term absorbing
    the next even remainder (at float64 a two-term fit bottoms out around
    1e-3 relative on b for every usable window; modelling the t^4 term is
    what delivers the 1e-3 tolerance with margin).  Grid points whose
    graph-map solve has condition number above FIT_COND_MAX are dropped;
    more than half dropped is an error.
    """
    cov = cov.as_float()
    n = model.dim
    of = oracle_fields(model)
    hf = of.hf
    step = _FIT_STEP
    t_grid = np.unique([max(step, round(t / step) * step)
                        for t in np.geomspace(*_FIT_T_GEOM)])
    tmax = float(t_grid[-1])

    basis = hf.basis_at(cov)
    e_boxes, f_a1, f_b1 = _frame_boxes(model)
    E = np.array([hf.to_canonical_at(f, cov, basis=basis)
                  for _, f in e_boxes], dtype=float)
    Fa1 = np.array(hf.to_canonical_at(f_a1[1], cov, basis=basis), dtype=float)
    Fb1 = np.array(hf.to_canonical_at(f_b1[1], cov, basis=basis), dtype=float)

    def sig(u, v):
        return sigma_pair(list(u), list(v))

    P = np.zeros((2 * n, n))
    P[n:, :] = np.eye(n)

    ia1, ib1 = 0, n - 1   # box order: a1..a n_a, b1

    def sblock_at(Ms, idx):
        M = Ms[idx]
        basis_vecs = np.linalg.solve(M, P)            # J(t) basis, columns
        Fmat = np.zeros((n, n))
        for r in range(n):
            for i in range(n):
                Fmat[r, i] = -sig(basis_vecs[:, i], E[r])
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
        ea1 = np.array([sig(basis_vecs[:, i], Fa1) for i in range(n)])
        eb1 = np.array([sig(basis_vecs[:, i], Fb1) for i in range(n)])
        # F = D_r scaled D_c with D acting on rows/cols: rows = e F^{-1}
        z = np.linalg.solve(scaled.T, (np.vstack([ea1, eb1]) / nc[None, :]).T).T
        rows = z / nr[None, :]
        return np.array([[rows[0, ia1], rows[0, ib1]],
                         [rows[1, ia1], rows[1, ib1]]])

    out = {}
    for direction in (+1, -1):
        traj = integrate_flow(model, cov, direction * tmax, step=step,
                              with_variational=True, drift_bound=DRIFT_TOL,
                              richardson=True)
        for t in t_grid:
            idx = int(round(t / step))
            out[direction * t] = sblock_at(traj.Ms, idx)

    ts, zs = [], []
    dropped = 0
    for t in t_grid:
        sp, sm = out[t], out[-t]
        if sp is None or sm is None:
            dropped += 1
            continue
        ts.append(t)
        zs.append(0.5 * (t * sp + (-t) * sm))   # a + b t^2 + O(t^4)
    if dropped > len(t_grid) / 2:
        raise IllConditioned(
            f"{dropped}/{len(t_grid)} graph-map solves exceeded cond "
            f"{FIT_COND_MAX:g}")
    ts = np.array(ts)
    zs = np.array(zs)                            # (m, 2, 2)

    def fit(mask):
        t = ts[mask]
        A = np.vstack([np.ones(mask.sum()), t ** 2, t ** 4]).T
        coef = {}
        for (r, c) in ((0, 0), (0, 1), (1, 0), (1, 1)):
            sol, *_ = np.linalg.lstsq(A, zs[mask, r, c], rcond=None)
            coef[(r, c)] = sol
        return coef

    full = fit(np.ones(len(ts), dtype=bool))
    half = fit(ts <= ts[0] + 0.5 * (ts[-1] - ts[0]))
    lead_a, lin_a, _ = full[(0, 0)]
    lead_b, lin_b, _ = full[(1, 1)]
    window_rel = abs(half[(0, 0)][0] - lead_a) / max(abs(lead_a), 1e-300)
    offdiag = max(float(np.max(np.abs(zs[:, 0, 1]))),
                  float(np.max(np.abs(zs[:, 1, 0]))))
    return SimpleNamespace(lead_a=float(lead_a), lead_b=float(lead_b),
                           lin_a=float(lin_a), lin_b=float(lin_b),
                           offdiag_max=offdiag, dropped=dropped,
                           window_rel=float(window_rel), used_ts=ts)


def reference_probe_directions(model, cov):
    """Projected frame directions fa1, fb1 of the earlier cost probe."""
    cov = cov.as_float()
    n = model.dim
    hf = h_frame(model)
    basis = hf.basis_at(cov)
    _, f_a1, f_b1 = _frame_boxes(model)
    fa1, fb1 = (np.array(hf.to_canonical_at(f, cov, basis=basis))[:n]
                for _, f in (f_a1, f_b1))
    return fa1, fb1
