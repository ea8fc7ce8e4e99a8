"""Reference flow code: the original numpy-scalar generator.

Kept unchanged as the oracle that the tests compare CompiledFlow against:
each function binds v_i = y[i] (numpy scalars), writes every power as
v_i**k where it occurs, and the Jacobian is a dense nested list.  The
polynomial printer is the original Poly.to_pyexpr, copied here so the
reference does not move with the package.
"""
import numpy as np

from carnotcurv.frames import frame_fields
from reference_poly import _degkey


def to_pyexpr(poly, varnames):
    """Python source expression with float coefficients (for codegen)."""
    if poly.is_zero:
        return "0.0"
    parts = []
    terms = dict(poly.monomials())
    for e in sorted(terms, key=_degkey, reverse=True):
        c = float(poly.content * terms[e])
        mono = "*".join(
            varnames[i] if k == 1 else f"{varnames[i]}**{k}"
            for i, k in enumerate(e) if k)
        parts.append(f"{c!r}*{mono}" if mono else f"{c!r}")
    return " + ".join(parts)


class ReferenceFlow:
    """Generated numeric callables for one model."""

    def __init__(self, model):
        ff = frame_fields(model)
        n = model.dim
        self.n = n
        pre = "\n".join(f"    v{i} = y[{i}]" for i in range(2 * n))
        vnames = [f"v{i}" for i in range(2 * n)]

        comps = [to_pyexpr(c.num, vnames) for c in ff.hvec.comps]
        src = ("def rhs(y):\n" + pre + "\n    return np.array(["
               + ", ".join(comps) + "])\n")

        jac_rows = []
        for m in range(2 * n):
            row = [to_pyexpr(ff.hvec.comps[m].num.diff(l), vnames)
                   for l in range(2 * n)]
            jac_rows.append("[" + ", ".join(row) + "]")
        src += ("def jac(y):\n" + pre + "\n    return np.array(["
                + ", ".join(jac_rows) + "])\n")

        hcomps = [to_pyexpr(hp, vnames) for hp in ff.h_poly]
        src += ("def h_of(y):\n" + pre + "\n    return np.array(["
                + ", ".join(hcomps) + "])\n")
        src += ("def H_of(y):\n" + pre + "\n    return "
                + to_pyexpr(ff.H_poly, vnames) + "\n")

        ns = {"np": np}
        exec(compile(src, f"<reference flow:{model.spec_string}>", "exec"), ns)
        self.rhs = ns["rhs"]
        self.jac = ns["jac"]
        self.h_of = ns["h_of"]
        self.H_of = ns["H_of"]
        self.source = src


def reference_rk4_step(cf, y, dt, M=None):
    """The RK4 step of hamiltonian.integrate_flow, driven by a
    ReferenceFlow."""
    k1 = cf.rhs(y)
    y2 = y + 0.5 * dt * k1
    k2 = cf.rhs(y2)
    y3 = y + 0.5 * dt * k2
    k3 = cf.rhs(y3)
    y4 = y + dt * k3
    k4 = cf.rhs(y4)
    y_next = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    if M is None:
        return y_next, None
    m1 = cf.jac(y) @ M
    m2 = cf.jac(y2) @ (M + 0.5 * dt * m1)
    m3 = cf.jac(y3) @ (M + 0.5 * dt * m2)
    m4 = cf.jac(y4) @ (M + dt * m3)
    return y_next, M + (dt / 6.0) * (m1 + 2 * m2 + 2 * m3 + m4)
