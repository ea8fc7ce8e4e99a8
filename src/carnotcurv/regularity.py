"""Growth vectors, ample/equiregular classification, loss-of-equiregularity.

Two independent routes are provided and must agree:

* closed-form criteria: the growth vector of a normal geodesic is decided by
  the pole coordinate (h1 in the Goursat family, h3 in the Cartan group),
  with abnormality decided algebraically at t = 0 (h1 = h3 = 0, resp.
  h3 = 0 and h1 h4 + h2 h5 = 0, both of which propagate along the flow);

* a rank oracle: dim F^i = rank{ad_H^k V_j at lambda(t) : k <= i, j} - n for
  a vertical frame V_j, computed from exact brackets and an SVD rank with a
  relative threshold and an explicit instability error.
"""
from __future__ import annotations

import json

import numpy as np

from .errors import LossTimeMismatch, NotAmple, RankUnstable
from .frames import h_frame
from .hamiltonian import compiled_flow, integrate_flow, rk4_step
from .tolerances import (LOSS_TIME_MERGE, LOSS_TIME_TOL, RANK_GAP_RATIO,
                         RANK_NOISE_CEIL, RANK_NORM_FLOOR, RANK_TOL,
                         SCAN_DRIFT_TOL, ZERO_TOL)
from . import elliptic

# width at which the bisection of a loss time stops
_BISECT_WIDTH = 1e-10


class GrowthEntry:
    """Growth vector and flags of a geodesic at one time."""

    __slots__ = ("growth", "ample", "equiregular", "abnormal", "step")

    def __init__(self, growth, ample, equiregular, abnormal):
        self.growth = tuple(growth)
        self.ample = ample
        self.equiregular = equiregular
        self.abnormal = abnormal
        self.step = len(self.growth) if ample else None

    def __repr__(self):
        return (f"GrowthEntry({self.growth}, ample={self.ample}, "
                f"equiregular={self.equiregular}, abnormal={self.abnormal})")


def growth_vector_closed_form(model, cov, tol=ZERO_TOL):
    """Growth vector at the covector's time, by the pole-coordinate criteria.

    The model's growth_abnormal where model.is_abnormal (then identically),
    growth_regular where the pole coordinate exceeds tol in size (always
    for goursat:3, which has no pole), and growth_at_pole otherwise.
    """
    h = cov.h
    if cov.exact:
        tol = 0
    if model.is_abnormal(h, tol):
        return GrowthEntry(model.growth_abnormal, False, False, True)
    if not model.has_pole or abs(h[model.pole_index - 1]) > tol:
        return GrowthEntry(model.growth_regular, True, True, False)
    return GrowthEntry(model.growth_at_pole, True, False, False)


def _rank_fields(model):
    """ad_H^k applied to the vertical frame d/dh_j, in the h-frame basis."""
    hf = h_frame(model)
    return [hf.ad_h_chain(hf.dh(j), model.default_max_order)
            for j in range(1, model.dim + 1)]


def growth_vector_rank_oracle(model, cov):
    """Growth vector from ranks of iterated brackets of a vertical frame.

    Evaluates ad_H^k(d/dh_j) at the covector, stacks the canonical
    components, and reads dim F^i off SVD ranks.  Raises RankUnstable when
    the singular-value gap at the threshold is smaller than a factor of 100.
    """
    max_order = model.default_max_order
    n = model.dim
    cov = cov.as_float()
    hf = h_frame(model)
    fields = model.memo(_rank_fields)
    basis = hf.basis_at(cov)
    vecs_by_order = []
    for k in range(max_order + 1):
        rows = []
        for j in range(n):
            v = np.array(hf.to_canonical_at(fields[j][k], cov, basis=basis),
                         dtype=float)
            norm = np.linalg.norm(v)
            if norm > RANK_NORM_FLOOR:
                rows.append(v / norm)
        vecs_by_order.append(rows)

    growth = []
    stacked = list(vecs_by_order[0])
    for i in range(1, max_order + 1):
        stacked += vecs_by_order[i]
        sv = np.linalg.svd(np.array(stacked), compute_uv=False)
        smax = sv[0]
        kept = sv[sv > RANK_TOL * smax]
        dropped = sv[sv <= RANK_TOL * smax]
        if len(dropped):
            if kept[-1] / max(dropped[0], 1e-300) < RANK_GAP_RATIO:
                raise RankUnstable(
                    f"singular-value gap too small at order {i}: "
                    f"{kept[-1]:.3e} vs {dropped[0]:.3e}")
            # a dropped value well above numerical noise means the flag
            # direction is small but not certifiably zero: refuse rather
            # than silently round it away
            if dropped[0] > RANK_NOISE_CEIL * smax:
                raise RankUnstable(
                    f"discarded singular value {dropped[0]:.3e} at order {i} "
                    f"sits above the noise floor {RANK_NOISE_CEIL * smax:.3e}")
        rank = len(kept)
        dim_f = rank - n
        growth.append(dim_f)
        if dim_f == n:
            break
    return tuple(growth)


def rank_oracle_matches(model, cov):
    """True when the rank oracle reproduces the closed-form classification.

    Both routes are evaluated at the same covector, and the closed form
    uses the same zero threshold the rank oracle uses, so the two test the
    same discrete claim.
    """
    cov = cov.as_float()
    entry = growth_vector_closed_form(model, cov, tol=RANK_TOL)
    seq = growth_vector_rank_oracle(model, cov)
    if entry.ample:
        return seq == entry.growth
    # abnormal: the flag must stabilize strictly below n
    return seq[-1] < model.dim and seq[-1] == seq[-2]


def equiregularity_loss_times(model, cov, T, step=1e-3):
    """Zeros of the pole coordinate along the flow on [0, T].

    Sign-change scan on the integration grid, refined by bisection (the
    zeros of an ample geodesic's pole coordinate are simple).  For unit-speed
    Engel and Cartan covectors in strata C1/C2/C3/C6 the zeros are
    cross-checked against the elliptic closed form, and a disagreement
    beyond LOSS_TIME_TOL raises LossTimeMismatch.
    """
    entry = growth_vector_closed_form(model, cov)
    if not entry.ample:
        raise NotAmple("geodesic is abnormal; equiregularity times undefined")
    if not model.has_pole:
        return []
    cov = cov.as_float()
    traj = integrate_flow(model, cov, T, step=step, drift_bound=SCAN_DRIFT_TOL)
    col = model.pole_index - 1
    s = traj.h_series()[:, col]
    ts = traj.ts
    cf = compiled_flow(model)

    def pole_at(i, dt):
        """Pole coordinate at ts[i] + dt via one local RK4 step."""
        if dt == 0.0:
            return s[i]
        return cf.h_of(np.array([rk4_step(cf, traj.ys[i], dt)[0]]))[0, col]

    # a pole within ZERO_TOL at either end of the scan is a zero at that
    # end, and a sign change in the step next to it is that same zero
    at_start, at_end = abs(s[0]) <= ZERO_TOL, abs(s[-1]) <= ZERO_TOL
    last = len(ts) - 2
    zeros = [0.0] if at_start else []
    for i in range(len(ts) - 1):
        a, b = s[i], s[i + 1]
        if a == 0.0 and i > 0:
            zeros.append(float(ts[i]))
            continue
        if (a * b < 0.0 and not (at_start and i == 0)
                and not (at_end and i == last)):
            lo, hi = 0.0, float(ts[i + 1] - ts[i])
            flo = a
            while hi - lo > _BISECT_WIDTH:
                mid = 0.5 * (lo + hi)
                fm = pole_at(i, mid)
                if flo * fm <= 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            zeros.append(float(ts[i]) + 0.5 * (lo + hi))
    if at_end:
        zeros.append(float(ts[-1]))

    out = []
    for z in sorted(zeros):
        if not out or z - out[-1] > LOSS_TIME_MERGE:
            out.append(z)

    # the pendulum charts need unit speed, as in growth_report
    if model.has_pendulum and cov.is_unit_speed():
        chart = elliptic.classify_pendulum(model, cov)
        if chart.stratum in ("C1", "C2", "C3", "C6"):
            if chart.stratum in ("C1", "C2", "C3"):
                chart = elliptic.elliptic_coords(model, cov)
            predicted = elliptic.pole_zero_times(chart, T)
            # the scan's end rule on the closed form: a pole within
            # ZERO_TOL at t = 0 or T is a zero there, even where the exact
            # zero lies a hair outside [0, T]
            if (abs(chart.h0[col]) <= ZERO_TOL
                    and not (predicted and predicted[0] <= LOSS_TIME_TOL)):
                predicted.insert(0, 0.0)
            if (abs(elliptic.pendulum_closed_form(chart, T)[col]) <= ZERO_TOL
                    and not (predicted and predicted[-1] >= T - LOSS_TIME_TOL)):
                predicted.append(T)
            if len(predicted) != len(out) or any(
                    abs(a - b) > LOSS_TIME_TOL for a, b in zip(predicted, out)):
                raise LossTimeMismatch(
                    "loss-time cross-check failed: integration found "
                    f"{out} but the elliptic closed form predicts {predicted}")
    return out


class GrowthReport:
    """Full regularity report for one initial covector."""

    def __init__(self, model, entry, loss_times=None, stratum=None,
                 horizon=None):
        self.model = model
        self.growth = entry.growth
        self.step = entry.step
        self.ample = entry.ample
        self.equiregular = entry.equiregular
        self.abnormal = entry.abnormal
        self.loss_times = loss_times
        self.stratum = stratum
        self.horizon = horizon
        self.young_diagram = model.young if entry.ample else None

    def to_dict(self):
        return {
            "group": self.model.spec_string,
            "growth_vector": list(self.growth),
            "step": self.step,
            "ample": self.ample,
            "equiregular_at_0": self.equiregular,
            "abnormal": self.abnormal,
            "young_diagram": list(self.young_diagram) if self.young_diagram else None,
            "stratum": self.stratum,
            "loss_times": self.loss_times,
            "horizon": self.horizon,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def growth_report(model, cov, T=None, step=1e-3):
    """Assemble a GrowthReport (loss times only when a horizon T is given)."""
    entry = growth_vector_closed_form(model, cov)
    stratum = None
    if model.has_pendulum:
        # the unit-speed test of classify_pendulum itself: off unit speed
        # the report names no stratum rather than raising NotUnitSpeed
        fcov = cov.as_float()
        if fcov.is_unit_speed():
            stratum = elliptic.classify_pendulum(model, fcov).stratum_label
    loss = None
    if T is not None and entry.ample:
        loss = equiregularity_loss_times(model, cov, T, step=step)
    return GrowthReport(model, entry, loss_times=loss, stratum=stratum,
                        horizon=T)
