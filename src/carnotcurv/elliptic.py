"""Jacobi elliptic functions, pendulum strata, and closed-form solutions.

The vertical subsystem of the normal flow on the Engel group and the Cartan
group is the mathematical pendulum; its unit cotangent cylinder splits into
strata C1..C7 by trajectory type (oscillation, rotation, separatrix,
equilibria, circular, rest).  On C1/C2/C3 the flow is straightened by
elliptic coordinates (k, phi); closed-form fiber solutions follow.

Chart conventions (h-components are primary; angles are derived views):
  Engel:  h1 = cos(theta + pi/2) = -sin(theta), h2 = cos(theta),
          c = h3, alpha = h4 (signed); energy E = c^2/2 - alpha*cos(theta)
          equals h3^2/2 - h2 h4.
  Cartan: h1 = cos(theta), h2 = sin(theta), c = h3,
          h4 = alpha sin(beta), h5 = -alpha cos(beta) with alpha >= 0;
          E = h3^2/2 + h1 h5 - h2 h4 = c^2/2 - alpha*cos(theta - beta).
Negative Engel alpha is reduced to the positive case by the pendulum
symmetry theta -> theta + pi, recorded in the chart's angle offset.
"""
from __future__ import annotations

import math

from .errors import (ModulusOutOfRange, NotUnitSpeed, UnsupportedGroup,
                     WrongStratum)
from .tolerances import STRATUM_TOL, ZERO_TIME_WINDOW

_AGM_ITERS = 12


def complete_K(k):
    """Complete elliptic integral of the first kind, by the AGM.

    Relative error ~1e-15 for k in [0, 1).  k >= 1 is a pole / out of range.
    """
    if not 0 <= k < 1:
        raise ModulusOutOfRange(f"modulus must be in [0, 1), got {k}")
    a, b = 1.0, math.sqrt((1.0 - k) * (1.0 + k))
    for _ in range(_AGM_ITERS):
        if abs(a - b) <= 1e-17 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def jacobi_sn_cn_dn(u, k):
    """(sn, cn, dn)(u, k) by the descending-AGM recursion, 12-iteration cap.

    Branch-free for 0 <= k <= 1 - 1e-12; explicit closed forms at the
    degenerate moduli k = 0 (trigonometric) and k = 1 (separatrix).
    """
    if not 0 <= k <= 1:
        raise ModulusOutOfRange(f"modulus must be in [0, 1], got {k}")
    if k == 1.0:
        sech = 1.0 / math.cosh(u)
        return math.tanh(u), sech, sech
    if k < 1e-14:
        return math.sin(u), math.cos(u), 1.0

    # range-reduce large arguments by the real period 4K
    K = complete_K(k)
    if abs(u) > 4.0 * K:
        u -= 4.0 * K * math.floor(u / (4.0 * K) + 0.5)

    a = [1.0]
    b = math.sqrt((1.0 - k) * (1.0 + k))
    c = [k]
    for _ in range(_AGM_ITERS):
        an = 0.5 * (a[-1] + b)
        bn = math.sqrt(a[-1] * b)
        c.append(0.5 * (a[-1] - b))
        a.append(an)
        b = bn
        if abs(c[-1]) <= 1e-17 * an:
            break
    nlev = len(a) - 1
    phi = (2.0 ** nlev) * a[nlev] * u
    phis = [0.0] * (nlev + 1)
    phis[nlev] = phi
    for i in range(nlev, 0, -1):
        s = c[i] / a[i] * math.sin(phis[i])
        s = max(-1.0, min(1.0, s))
        phis[i - 1] = 0.5 * (phis[i] + math.asin(s))
    sn = math.sin(phis[0])
    cn = math.cos(phis[0])
    dn = math.sqrt(max(0.0, 1.0 - (k * sn) * (k * sn)))
    return sn, cn, dn


def _carlson_rf(x, y, z):
    """Carlson symmetric integral R_F by duplication."""
    for _ in range(200):
        lam = (math.sqrt(x) * math.sqrt(y) + math.sqrt(y) * math.sqrt(z)
               + math.sqrt(z) * math.sqrt(x))
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
        mu = (x + y + z) / 3.0
        if max(abs(x - mu), abs(y - mu), abs(z - mu)) < 1e-10 * mu:
            break
    mu = (x + y + z) / 3.0
    dx, dy, dz = 1 - x / mu, 1 - y / mu, 1 - z / mu
    e2 = dx * dy + dy * dz + dz * dx
    e3 = dx * dy * dz
    return (1 - e2 / 10 + e3 / 14 + e2 * e2 / 24 - 3 * e2 * e3 / 44) / math.sqrt(mu)


def inverse_sn(s, k, cn):
    """u in [-K, K] with sn(u, k) = s (and cn >= 0), for s in [-1, 1].

    cn is the matching cn value; only cn^2 is used.  It is taken instead of
    1 - s^2, which cancels near |s| = 1 and loses half the digits of u.
    """
    s = max(-1.0, min(1.0, s))
    return s * _carlson_rf(cn * cn, 1.0 - (k * s) * (k * s), 1.0)


STRATA = ("C1", "C2", "C3", "C4", "C5", "C6", "C7")


class PendulumChart:
    """Stratum classification plus elliptic coordinates where defined.

    Fields k and phi are None outside C1/C2/C3 until elliptic_coords fills
    them; alpha is the pendulum's positive gravity parameter, and
    angle_offset is what must be added to the pendulum angle psi to recover
    theta (0 or pi for Engel, beta for Cartan).
    """

    __slots__ = ("model", "stratum", "sign", "E", "alpha", "beta",
                 "angle_offset", "theta0", "c0", "h0", "k", "phi", "K",
                 "csign", "boundary_uncertain", "abnormal")

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw.get(name))

    @property
    def stratum_label(self):
        if self.sign:
            return self.stratum + self.sign
        return self.stratum

    def __repr__(self):
        extra = ""
        if self.k is not None:
            extra = f", k={self.k:.6g}, phi={self.phi:.6g}"
        return (f"PendulumChart({self.stratum_label}, E={self.E:.6g}"
                f"{extra}, abnormal={self.abnormal})")


def classify_pendulum(model, cov, tol=STRATUM_TOL):
    """Assign the unique pendulum stratum of a unit-speed covector.

    Boundary membership (C3/C4/C5) is decided within tol on |E -+ alpha| and
    |c|; a float input within tol of a separating boundary (but not exactly
    on it) is flagged boundary_uncertain rather than silently trusted.
    """
    if not cov.is_unit_speed():
        raise NotUnitSpeed(f"classification needs h1^2+h2^2 = 1, got 2H = {2 * float(cov.H)}")
    if not model.has_pendulum:
        raise UnsupportedGroup(
            "pendulum classification is defined for the Engel group "
            "(goursat:4) and the Cartan group")
    h = [float(v) for v in cov.h]
    theta, c, alpha, E = cov.theta, h[2], cov.alpha, model.energy(h)
    if model.kind == "goursat":
        offset = 0.0 if alpha >= 0 else math.pi
        beta = None
        sign = "+" if alpha > 0 else ("-" if alpha < 0 else None)
        alpha = abs(alpha)
    else:
        beta = cov.beta if alpha > 0 else 0.0
        offset = beta
        sign = None

    dists = [abs(alpha)] if alpha <= tol else [alpha, abs(E - alpha), abs(E + alpha)]
    if alpha <= tol:
        stratum = "C7" if abs(c) <= tol else "C6"
        dists.append(abs(c))
        sign = None
    elif E < -alpha + tol:
        stratum = "C4"
    elif E < alpha - tol:
        stratum = "C1"
    elif E <= alpha + tol:
        stratum = "C5" if abs(c) <= tol else "C3"
        dists.append(abs(c))
    else:
        stratum = "C2"
    uncertain = any(0.0 < d <= tol for d in dists)

    return PendulumChart(model=model, stratum=stratum, sign=sign, E=E,
                         alpha=alpha, beta=beta, angle_offset=offset,
                         theta0=theta, c0=c, h0=tuple(h), k=None, phi=None,
                         K=None, csign=1.0 if c >= 0 else -1.0,
                         boundary_uncertain=uncertain,
                         abnormal=model.is_abnormal(h, tol))


def elliptic_coords(model, cov):
    """Elliptic coordinates (k, phi, alpha[, beta]) on C1, C2, C3.

    Returns the completed PendulumChart; raises WrongStratum elsewhere.
    The chart inverts the stratum's sn/cn/dn (or tanh/sech) relations for
    the pendulum angle psi = theta - angle_offset and c.
    """
    chart = classify_pendulum(model, cov)
    if chart.stratum not in ("C1", "C2", "C3"):
        raise WrongStratum(
            f"elliptic coordinates are defined on C1/C2/C3, not {chart.stratum_label}")
    alpha, E = chart.alpha, chart.E
    sa = math.sqrt(alpha)
    psi = _wrap_angle(chart.theta0 - chart.angle_offset)
    c = chart.c0
    s_half = math.sin(0.5 * psi)
    c_half = math.cos(0.5 * psi)

    if chart.stratum == "C1":
        k = math.sqrt((E + alpha) / (2.0 * alpha))
        k = min(k, 1.0 - 1e-16)
        sn = s_half / k
        cn = (0.5 * c) / (k * sa)
        K = complete_K(k)
        # cn from c: sn near +-1 is the Cartan pole h3 near 0
        u = inverse_sn(abs(sn), k, cn)
        if sn >= 0 and cn >= 0:
            pass
        elif sn >= 0 > cn:
            u = 2 * K - u
        elif sn < 0 and cn < 0:
            u = 2 * K + u
        else:
            u = 4 * K - u
        phi = u / sa
    elif chart.stratum == "C2":
        k = math.sqrt(2.0 * alpha / (E + alpha))
        K = complete_K(k)
        sn = chart.csign * s_half
        # cn = cos(psi/2) >= 0 on the principal branch; representative mod
        # 2K.  sn near +-1 is a zero of the Engel pole h1
        u = inverse_sn(sn, k, c_half)
        phi = k * u / sa
    else:
        k = 1.0
        K = None
        u = math.atanh(max(-1 + 1e-16, min(1 - 1e-16, chart.csign * s_half)))
        phi = u / sa

    chart.k = k
    chart.phi = phi
    chart.K = K
    return chart


def _wrap_angle(t):
    t = math.fmod(t, 2 * math.pi)
    if t > math.pi:
        t -= 2 * math.pi
    elif t <= -math.pi:
        t += 2 * math.pi
    return t


def pendulum_closed_form(chart, t):
    """Fiber components h(t) from the stratum's closed-form solution."""
    model = chart.model
    st = chart.stratum
    if st in ("C4", "C5", "C7"):
        return chart.h0
    if st == "C6":
        theta_t = chart.theta0 + chart.c0 * t
        return _h_from_angle(chart, theta_t, chart.c0)
    if chart.k is None:
        raise WrongStratum("chart has no elliptic coordinates; call elliptic_coords")

    alpha = chart.alpha
    sa = math.sqrt(alpha)
    if st == "C1":
        u = sa * (chart.phi + t)
        sn, cn, dn = jacobi_sn_cn_dn(u, chart.k)
        s_half, c_half = chart.k * sn, dn
        c = 2.0 * chart.k * sa * cn
    elif st == "C2":
        u = sa * (chart.phi + t) / chart.k
        sn, cn, dn = jacobi_sn_cn_dn(u, chart.k)
        s_half, c_half = chart.csign * sn, cn
        c = 2.0 * chart.csign * (sa / chart.k) * dn
    else:  # C3 separatrix
        u = sa * (chart.phi + t)
        th, sech = math.tanh(u), 1.0 / math.cosh(u)
        s_half, c_half = chart.csign * th, sech
        c = 2.0 * chart.csign * sa * sech
    psi_t = 2.0 * math.atan2(s_half, c_half)
    theta_t = psi_t + chart.angle_offset
    return _h_from_angle(chart, theta_t, c)


def _h_from_angle(chart, theta_t, c):
    # the fiber components beyond h3 are constants of the pendulum flow
    return chart.model.circle(theta_t) + (c,) + chart.h0[3:]


def pole_zero_times(chart, T):
    """Predicted zeros of the pole coordinate (h1 Engel, h3 Cartan) on [0, T].

    Closed-form times from the elliptic solution; used to cross-check the
    integration-based loss-of-equiregularity search.
    """
    model = chart.model
    st = chart.stratum
    out = []
    if model.kind == "goursat":
        # zeros of h1 = -sin(theta)
        if st == "C1":
            # sin(theta) = 2 k sn dn = 0 at u in 2K Z
            _append_lattice(out, chart, T, 2.0 * chart.K, 0.0)
        elif st == "C2":
            # sin(theta) = 2 sn cn = 0 at u in K Z, u = sa (phi + t)/k
            _append_lattice(out, chart, T, chart.K, 0.0, scale=chart.k)
        elif st == "C3":
            tt = -chart.phi
            if 0.0 <= tt <= T:
                out.append(tt)
        elif st == "C6":
            _append_trig(out, chart, T)
        elif st == "C7":
            pass  # h1 constant; zero h1 means abnormal, handled upstream
    else:
        # zeros of h3 = c
        if st == "C1":
            # c = 2 k sqrt(alpha) cn: zeros at u in K + 2K Z
            _append_lattice(out, chart, T, 2.0 * chart.K, chart.K)
        # C2: dn never vanishes; C3: sech never vanishes; C6: c const != 0
    return sorted(out)


def _append_lattice(out, chart, T, period_u, offset_u, scale=1.0):
    sa = math.sqrt(chart.alpha)
    # u(t) = sa (phi + t) / scale; zeros at u = offset_u + period_u * m
    u0 = sa * chart.phi / scale
    rate = sa / scale
    m_lo = math.floor((u0 - offset_u) / period_u) - 1
    m = m_lo
    while True:
        u = offset_u + period_u * m
        t = (u - u0) / rate
        if t > T + ZERO_TIME_WINDOW:
            break
        if t >= -ZERO_TIME_WINDOW:
            out.append(max(0.0, t))
        m += 1


def _append_trig(out, chart, T):
    # h1(t) = -sin(theta0 + c t): zeros at theta0 + c t = pi m
    c = chart.c0
    lo = (chart.theta0 + min(0.0, T * c)) / math.pi
    hi = (chart.theta0 + max(0.0, T * c)) / math.pi
    for m in range(math.floor(lo) - 1, math.ceil(hi) + 2):
        t = (math.pi * m - chart.theta0) / c
        if -ZERO_TIME_WINDOW <= t <= T + ZERO_TIME_WINDOW:
            out.append(min(max(t, 0.0), T))
