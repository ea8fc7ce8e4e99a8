"""Normal geodesic flow: fixed-step RK4 on T*R^n with variational equations.

The right-hand side and its Jacobian are generated once per group model from
the exact polynomial Hamiltonian field (the Jacobian is the symbolic
derivative, not finite differences) and compiled to plain Python functions
on Python floats: the state is unpacked once, each power v_i**k is bound
once, and the Jacobian writes only its structurally nonzero entries.  The
state part of an RK4 step is generated too, as one function with its four
stages inlined, and the state is carried from step to step as a tuple of
floats; the variational matrix keeps its numpy operations, its products
BLAS matmuls.  The values equal those of numpy-scalar evaluation and of the
numpy RK4 step bit for bit.  A power that overflows gives NaN values, not
an OverflowError.  Conserved quantities are monitored and drift beyond a
configurable bound (a NaN drift included) is an error rather than a silent
failure.
"""
from __future__ import annotations

import contextlib
import math
from array import array

import numpy as np

from .errors import StepTooLarge
from .frames import frame_fields
from .groups import Covector
from .tolerances import DRIFT_TOL

# The generated code binds each power v_i**k once and keeps the product
# order, and Python's float ** calls the same C pow as a numpy scalar's, so
# the values match numpy-scalar code bit for bit.  Python floats raise
# OverflowError where numpy would warn and return inf; every value of that
# block is then NaN (structural zeros of the Jacobian stay 0), and the NaN
# drift fails the drift check of integrate_flow.
_STAGE = """\
    try:
{powers}{values}    except OverflowError:
        {nan} = math.nan
"""

# One RK4 step of the state with the four stages inlined.  The state and the
# stage states y2, y3, y4 are the variables y*, u*, w*, z*, and the stage
# slopes k1..k4 are a*, b*, c*, d*.  Each element is computed as in the
# numpy step, y + (0.5*dt)*k and y + (dt/6)*(((k1 + 2*k2) + 2*k3) + k4), so
# the bits are the same.
_STEP = """\
def step(y, dt):
    {unpack} = y if y.__class__ is tuple else y.tolist()
    h2 = 0.5 * dt
{k1}{y2}{k2}{y3}{k3}{y4}{k4}    h6 = dt / 6.0
    return ({y_next}), ({u}), ({w}), ({z})
"""


def _names(var, count):
    return ", ".join(f"{var}{i}" for i in range(count))


def _stage(polys, var, out):
    """Source of the block that assigns the values of polys in the variables
    var0, var1, ... to out0, out1, ..., NaN on overflow."""
    used = set()

    def power(i, k):
        if k == 1:
            return f"{var}{i}"
        used.add((i, k))
        return f"{var}{i}_{k}"

    values = "".join(f"        {out}{i} = {p.to_pyexpr(power)}\n"
                     for i, p in enumerate(polys))
    return _STAGE.format(
        powers="".join(f"        {var}{i}_{k} = {var}{i}**{k}\n"
                       for i, k in sorted(used)),
        values=values, nan=" = ".join(f"{out}{i}" for i in range(len(polys))))


def _function(name, nvars, polys, tail):
    """Source of a function of y (nvars floats): out lists the values of
    polys, and tail returns the result built from it."""
    return (f"def {name}(y):\n"
            f"    {_names('v', nvars)} = y if y.__class__ is tuple "
            f"else y.tolist()\n" + _stage(polys, "v", "o")
            + f"    out = [{_names('o', len(polys))}]\n" + tail)


def _step(comps):
    """Source of step(y, dt) for the field with components comps."""
    count = len(comps)

    def update(state, h, slope):
        return "".join(f"    {state}{i} = y{i} + {h}*{slope}{i}\n"
                       for i in range(count))

    return _STEP.format(
        unpack=_names("y", count),
        k1=_stage(comps, "y", "a"), y2=update("u", "h2", "a"),
        k2=_stage(comps, "u", "b"), y3=update("w", "h2", "b"),
        k3=_stage(comps, "w", "c"), y4=update("z", "dt", "c"),
        k4=_stage(comps, "z", "d"),
        y_next=", ".join(f"y{i} + h6*(((a{i} + 2*b{i}) + 2*c{i}) + d{i})"
                         for i in range(count)),
        u=_names("u", count), w=_names("w", count), z=_names("z", count))


class CompiledFlow:
    """Generated numeric callables for one model: rhs(y) and h_of(y) return
    arrays, H_of(y) a float, jac(y) the dense 2n x 2n Jacobian, and
    step(y, dt) the RK4 step of the state as tuples (y_next, y2, y3, y4).
    Each takes y as a tuple of floats or a float array."""

    def __init__(self, model):
        ff = frame_fields(model)
        n = model.dim
        self.n = n
        N = 2 * n
        comps = [c.num for c in ff.hvec.comps]
        entries = [(m * N + l, comps[m].diff(l))
                   for m in range(N) for l in range(N)]
        entries = [(k, d) for k, d in entries if not d.is_zero]

        array = "    return np.array(out)\n"
        src = (_function("rhs", N, comps, array)
               + _function("jac", N, [d for _, d in entries],
                           f"    J = np.zeros(({N}, {N}))\n"
                           f"    J.put(JAC_INDEX, out)\n"
                           f"    return J\n")
               + _function("h_of", N, ff.h_poly, array)
               + _function("H_of", N, [ff.H_poly], "    return out[0]\n"))
        step = _step(comps)

        ns = {"np": np, "math": math,
              "JAC_INDEX": np.array([k for k, _ in entries], dtype=np.intp)}
        # one compile per part keeps the parser's peak memory to the larger
        for part in (src, step):
            exec(compile(part, f"<flow:{model.spec_string}>", "exec"), ns)
        src += step
        self.rhs = ns["rhs"]
        self.jac = ns["jac"]
        self.h_of = ns["h_of"]
        self.H_of = ns["H_of"]
        self.step = ns["step"]
        self.source = src


def compiled_flow(model):
    return model.memo(CompiledFlow)


def rk4_step(cf, y, dt, M=None):
    """One classical RK4 step of the flow from y; also steps the variational
    matrix M (y' = rhs(y), M' = jac(y) M) when one is given.

    Returns (y, M) at t + dt, y as a tuple of floats and M being None when
    none was given.  The state part is the generated cf.step; the matrix
    part stays numpy, its products BLAS matmuls.
    """
    y_next, y2, y3, y4 = cf.step(y, dt)
    if M is None:
        return y_next, None
    jac = cf.jac
    m1 = jac(y) @ M
    m2 = jac(y2) @ (M + 0.5 * dt * m1)
    m3 = jac(y3) @ (M + 0.5 * dt * m2)
    m4 = jac(y4) @ (M + dt * m3)
    return y_next, M + (dt / 6.0) * (m1 + 2 * m2 + 2 * m3 + m4)


def flow_rhs(model, cov):
    """Time derivative of (x, p) at a covector (floats)."""
    cf = compiled_flow(model)
    y = np.array([float(v) for v in cov.xp()])
    return cf.rhs(y)


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
    cf = compiled_flow(model)
    y = np.array([float(v) for v in cov.xp()])
    dy = cf.rhs(y)
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


class Trajectory:
    """Sampled integral curve of the Hamiltonian field, with optional M(t)."""

    CSV_CHUNK = 128   # rows export_csv formats and writes at a time

    def __init__(self, model, ts, ys, Ms=None):
        self.model = model
        self.ts = ts
        self.ys = ys
        self.Ms = Ms
        self._series = {}

    def __len__(self):
        return len(self.ts)

    def covector(self, i):
        n = self.model.dim
        return Covector(self.model, tuple(self.ys[i, :n]), tuple(self.ys[i, n:]))

    def h_series(self):
        """h at the stored samples, computed on the first call; every call
        returns the same read-only array (H_series likewise)."""
        return self._values(compiled_flow(self.model).h_of)

    def H_series(self):
        return self._values(compiled_flow(self.model).H_of)

    def _values(self, f):
        if f not in self._series:
            self._series[f] = np.array([f(y) for y in self.ys])
            self._series[f].flags.writeable = False
        return self._series[f]

    def E_series(self):
        """Pendulum energy integral along the flow (Engel and Cartan only)."""
        if not self.model.has_pendulum:
            return None
        return self.model.energy(self.h_series().T)

    def conservation_drift(self):
        """Max |H(t) - H(0)| over the stored samples."""
        H = self.H_series()
        return float(np.max(np.abs(H - H[0])))

    def invariant_fiber_drift(self):
        """Max drift of the invariant fiber components (h_n, or h4 and h5)."""
        h = self.h_series()
        return float(max(np.max(np.abs(h[:, c] - h[0, c]))
                         for c in self.model.invariant_cols))

    def symplectic_defect(self):
        """Max over samples of ||M^T J M - J||_inf; NaN when a sample is."""
        if self.Ms is None:
            return None
        n = self.model.dim
        J = np.zeros((2 * n, 2 * n))
        J[:n, n:] = -np.eye(n)
        J[n:, :n] = np.eye(n)
        return float(np.max([np.max(np.abs(M.T @ J @ M - J))
                             for M in self.Ms]))

    def index_at(self, t):
        i = int(round((t - self.ts[0]) / (self.ts[1] - self.ts[0]))) \
            if len(self.ts) > 1 else 0
        return max(0, min(len(self.ts) - 1, i))

    def export_csv(self, fh):
        """CSV columns t, x_1..x_n, h_1..h_n, H [, E]; 17 significant digits
        ("%.17g" formats every float, nan and inf too, as f"{v:.17g}")."""
        n = self.model.dim
        cols = ["t", *self.model.base_names,
                *(f"h{i + 1}" for i in range(n)), "H"]
        blocks = [self.ts[:, None], self.ys[:, :n], self.h_series(),
                  self.H_series()[:, None]]
        E = self.E_series()
        if E is not None:
            cols.append("E")
            blocks.append(E[:, None])
        fh.write(",".join(cols) + "\n")
        row = ",".join(["%.17g"] * len(cols)) + "\n"
        for k in range(0, len(self.ts), self.CSV_CHUNK):
            chunk = np.hstack([b[k:k + self.CSV_CHUNK] for b in blocks])
            fh.write(row * len(chunk) % tuple(chunk.ravel().tolist()))


MAX_STEPS = 10 ** 6


def step_count(T, step):
    """Number of RK4 steps for horizon T at the given step size.

    Raises ValueError unless T is finite and nonzero, step is finite and
    positive, and round(|T| / step) is at most MAX_STEPS.
    """
    if not 0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    if not abs(T) < math.inf:
        raise ValueError(f"T must be finite, got {T}")
    if T == 0:
        raise ValueError("T must be nonzero")
    # round(x) > MAX_STEPS exactly when x > MAX_STEPS + 0.5 (ties to even)
    if not abs(T) / step <= MAX_STEPS + 0.5:
        raise ValueError(
            f"|T|/step = {abs(T) / step:.3g} exceeds {MAX_STEPS} steps; "
            f"shorten T or enlarge the step")
    return max(1, int(round(abs(T) / step)))


def integrate_flow(model, cov, T, step=1e-3, with_variational=False,
                   store_every=1, drift_bound=DRIFT_TOL, richardson=False):
    """Classical fixed-step RK4 on the 2n-dim system (plus 2n x 2n variational).

    T may be negative (backward flow).  Raises StepTooLarge when the
    Hamiltonian drifts by more than drift_bound over the run, or when the
    drift is not a number (a covector too large for floats).  With
    richardson=True a second pass at half the step is combined as
    (16 y_{h/2} - y_h)/15, eliminating the h^4 truncation term (the deep
    rows of the Jacobi-curve fit need this).
    """
    nsteps = step_count(T, step)
    # an overflowing covector is reported once, by the drift check (a NaN
    # drift fails it); without a check numpy's warnings stay on
    quiet = (np.errstate(over="ignore", invalid="ignore")
             if drift_bound is not None else contextlib.nullcontext())
    with quiet:
        if richardson:
            t1 = integrate_flow(model, cov, T, step, with_variational,
                                store_every, drift_bound=None)
            t2 = integrate_flow(model, cov, T, step / 2, with_variational,
                                2 * store_every, drift_bound=None)
            ys = (16.0 * t2.ys - t1.ys) / 15.0
            Ms = None
            if with_variational:
                Ms = (16.0 * t2.Ms - t1.Ms) / 15.0
            traj = Trajectory(model, t1.ts, ys, Ms)
        else:
            cf = compiled_flow(model)
            N = 2 * model.dim
            y = tuple(float(v) for v in cov.xp())
            hstep = math.copysign(abs(T) / nsteps, T)

            # the state is a tuple of floats, its samples packed into one
            # float buffer; rk4_step returns fresh matrices, so the stored
            # samples need no copy
            M = np.eye(N) if with_variational else None
            ts, ys, Ms = [0.0], array("d", y), [M]
            t = 0.0
            for k in range(nsteps):
                y, M = rk4_step(cf, y, hstep, M)
                t += hstep
                if (k + 1) % store_every == 0 or k == nsteps - 1:
                    ts.append(t)
                    ys.extend(y)
                    Ms.append(M)

            traj = Trajectory(model, np.array(ts),
                              np.frombuffer(ys).reshape(-1, N),
                              np.array(Ms) if with_variational else None)
        if drift_bound is None:
            return traj
        drift = traj.conservation_drift()
    if not drift <= drift_bound:
        raise StepTooLarge(
            f"H drift {drift:.3e} exceeds bound {drift_bound:.3e}; "
            f"reduce the step size")
    return traj


def conserved_quantities(model, cov):
    """Conserved quantities at a covector: H, invariant fiber components,
    and the pendulum energy where defined."""
    h = cov.h
    out = {"H": cov.H}
    for c in model.invariant_cols:
        out[f"h{c + 1}"] = h[c]
    if model.has_pendulum:
        out["E"] = model.energy(h)
    return out
