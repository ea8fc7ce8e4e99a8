"""Closed-form curvature invariants of rank-two Carnot groups.

For an ample, equiregular, unit-speed geodesic the cost-Hessian family has
the Laurent data Q(t) = I/t^2 + R/3 + O(t), expressed in the orthonormal
basis obtained by projecting the canonical frame.  The Young diagram is
(n-1, 1) for the Goursat family and (4, 1) for the Cartan group, so I is
diag(n_a^2, 1) and R = 3 Omega(n_a, n_a) diag(R11, 0) with a single
nontrivial scalar R11.  All coefficients are exact rationals; floats enter
only at a report boundary.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction

from .errors import NotAmpleEquiregular, SingularCovector
from .groups import is_exact_seq
from .regularity import growth_vector_closed_form
from .tolerances import POLE_TOL


def coeff_A(n):
    """Closed forms of the two dimension-dependent frame coefficients.

    A1 = (1/8)(n+3)(n-2)(n-3)(n-4) and A2 = (1/3)(n-2)(n-3)(n-4); both are
    the closed forms of finite double sums (see coeff_A_sums) and vanish for
    n = 3, 4.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    a1 = Fraction((n + 3) * (n - 2) * (n - 3) * (n - 4), 8)
    a2 = Fraction((n - 2) * (n - 3) * (n - 4), 3)
    return a1, a2


def coeff_A_sums(n):
    """The defining double sums, evaluated directly (independent oracle)."""
    a1 = Fraction(0)
    a2 = Fraction(0)
    for k in range(0, n - 4):
        inner = sum(k + j + 2 for j in range(0, n - 4 - k))
        a1 += (3 + k) * inner
        a2 += inner
    return a1, a2


def omega(n_a, n_b):
    """Young-diagram weight of the linear Laurent term of S_flat(t)^{-1}."""
    if n_a < 1 or n_b < 1:
        raise ValueError("row lengths must be >= 1")
    d = abs(n_a - n_b)
    if d >= 2:
        return Fraction(0)
    if d == 1:
        return Fraction(1, 4 * (n_a + n_b))
    return Fraction(n_a, 4 * n_a * n_a - 1)


def check_pole(value, exact, name):
    """Raise SingularCovector where R11 has its pole: the pole coordinate
    (called name) is exactly 0, or a float below POLE_TOL in size."""
    if (value == 0) if exact else (abs(value) < POLE_TOL):
        raise SingularCovector(
            f"{name} vanishes: R11 has a pole there (loss of equiregularity)")


def r11_goursat(n, h):
    """The scalar curvature invariant R11 for the Goursat group J^n.

    h is the fiber coordinate vector (h1..hn) of a unit-speed covector.
    R11 = -(1/6)(n-1)(12 + n(4n-17))(h3^2 + h2 h4)
          - (n-1)(n-2)(n-3) h3^2 h2^2 / h1^2,
    with h4 = 0 when n = 3 (where the singular term has zero coefficient).
    The h1 = 0 pole coincides with loss of equiregularity; check_pole
    raises SingularCovector there.  Exact input is taken as Fractions and
    any other as floats, so one expression serves both: a Fraction
    coefficient times a float is the float product.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    exact = is_exact_seq(h)
    h = tuple(map(Fraction if exact else float, h))
    h1, h2, h3 = h[0], h[1], h[2]
    lead = Fraction(-(n - 1) * (12 + n * (4 * n - 17)), 6)
    if n == 3:
        return lead * h3 * h3
    check_pole(h1, exact, "h1")
    sing = -(n - 1) * (n - 2) * (n - 3)
    return (lead * (h3 * h3 + h2 * h[3])
            + sing * h3 * h3 * h2 * h2 / (h1 * h1))


def r11_cartan(h):
    """R11 for the Cartan group: 6E - (8/h3^2)(h1 h4 + h2 h5)^2
    with E = h3^2/2 + h1 h5 - h2 h4; input as in r11_goursat."""
    exact = is_exact_seq(h)
    h = tuple(map(Fraction if exact else float, h))
    h1, h2, h3, h4, h5 = h
    check_pole(h3, exact, "h3")
    cross = h1 * h4 + h2 * h5
    return (3 * h3 * h3 + 6 * (h1 * h5 - h2 * h4)
            - 8 * cross * cross / (h3 * h3))


def r11(model, cov):
    """The closed-form R11 of the model's family at the covector."""
    if model.kind == "goursat":
        return r11_goursat(model.dim, cov.h)
    return r11_cartan(cov.h)


def energy_bound(model, cov):
    """Upper bound on R11 from the pendulum energy: 4E (Engel) / 6E (Cartan).

    Defined only where the bound is stated; returns None elsewhere.
    """
    if not model.has_pendulum:
        return None
    return model.energy_factor * model.energy(cov.h)


class CurvatureReport:
    """Curvature data of an ample equiregular unit-speed covector.

    Values are exact Fractions when the covector is exact.  The 2x2
    matrices are expressed in the orthonormal basis of the distribution
    obtained by projecting the canonical frame.
    """

    def __init__(self, model, cov, r11_value):
        n_a, n_b = model.young
        self.model = model
        self.cov = cov
        self.young_diagram = (n_a, n_b)
        self.omega = omega(n_a, n_a)
        self.r11 = r11_value
        coeff = 3 * self.omega
        exact = isinstance(r11_value, Fraction)
        z = Fraction(0) if exact else 0.0
        self.I = ((Fraction(n_a * n_a) if exact else float(n_a * n_a), z),
                  (z, Fraction(n_b * n_b) if exact else float(n_b * n_b)))
        r = (coeff if exact else float(coeff)) * r11_value
        self.R = ((r, z), (z, z))
        self.trace_I = n_a * n_a + n_b * n_b
        self.bound = energy_bound(model, cov)

    def to_dict(self):
        def num(v):
            if isinstance(v, Fraction):
                return str(v)
            return repr(float(v))

        def mat(m):
            return [[num(v) for v in row] for row in m]

        return {
            "group": self.model.spec_string,
            "covector": [num(v) for v in self.cov.h],
            "diagram": list(self.young_diagram),
            "I": mat(self.I),
            "R": mat(self.R),
            "r11": num(self.r11),
            "r11_float": float(self.r11),
            "omega": num(self.omega),
            "trace_I": self.trace_I,
            "bound": None if self.bound is None else num(self.bound),
            "bound_float": None if self.bound is None else float(self.bound),
            "basis": "canonical-frame projection",
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def curvature_operator(model, cov):
    """Assemble the CurvatureReport; requires ample & equiregular at t = 0.

    A vanishing pole coordinate raises SingularCovector (it coincides with
    loss of equiregularity); other regularity violations raise
    NotAmpleEquiregular.
    """
    if not cov.is_unit_speed():
        try:
            two_h = 2 * float(cov.H)
        except OverflowError:    # an exact 2H beyond the float range
            two_h = math.inf
        raise NotAmpleEquiregular(
            f"curvature is defined for unit-speed covectors; 2H = {two_h}")
    value = r11(model, cov)
    entry = growth_vector_closed_form(model, cov)
    if not (entry.ample and entry.equiregular):
        raise NotAmpleEquiregular(
            f"covector is not ample and equiregular at 0 "
            f"(growth {entry.growth}, abnormal={entry.abnormal})")
    return CurvatureReport(model, cov, value)


def bound_slack(model, cov):
    """energy_bound - R11 in closed form, so large |E| does not cancel it:
    6 h3^2 (h1^2 + h2^2)/h1^2 (Engel) or 8 (h1h4 + h2h5)^2/h3^2 (Cartan).
    None where no bound is stated; SingularCovector at the pole of R11."""
    if not model.has_pendulum:
        return None
    h = cov.h
    i = model.pole_index
    pole = h[i - 1]
    check_pole(pole, cov.exact, f"h{i}")
    if model.kind == "goursat":
        top = 6 * h[2] * h[2] * (h[0] * h[0] + h[1] * h[1])
    else:
        cross = h[0] * h[3] + h[1] * h[4]
        top = 8 * cross * cross
    return top / (pole * pole)

