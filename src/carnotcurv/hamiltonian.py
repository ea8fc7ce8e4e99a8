"""Normal geodesic flow: fixed-step RK4 on T*R^n with variational equations.

The polynomial maps of the flow are generated once per group model from the
exact polynomial Hamiltonian field: the RK4 step of the state, the fiber
coordinates h, the energy H and the Jacobian of the variational equations
(the symbolic derivative, not finite differences).  Each map but the step is
one numpy block over a stack of states, a chain of ufuncs over their
columns.  The step, the one evaluator of the field, is scalar: it runs on
Python floats with its four stages inlined, each power v_i**k bound once,
and the state is carried from step to step as a tuple of floats.  The
variational matrix keeps its numpy operations, its products BLAS matmuls.
integrate_flows steps several runs in lockstep, longest first: each step of
the runs still stepping takes their states one after the other and their
matrices as the prefix of one stack, the one place where a variational
matrix steps.  The values equal those of numpy-scalar evaluation and of the
numpy RK4 step bit for bit.  A power that overflows gives NaN values, not an
OverflowError.  Conserved quantities are monitored and drift beyond a
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

# The step binds each power v_i**k once and keeps the product order, and
# Python's float ** calls the same C pow as a numpy scalar's, so the values
# match numpy-scalar code bit for bit.  Python floats raise OverflowError
# where numpy would warn and return inf; every value of that stage is then
# NaN, and the NaN drift fails the drift check of integrate_flow.
_TRY = """\
    try:
{powers}{values}    except OverflowError:
        {targets} = math.nan
"""
# The blocks run the same expressions as ufuncs over columns of states.
# Their powers are np.float_power, which calls C pow per element (np.power's
# SIMD loop differs from C pow in the last bit), and a row where one
# overflows is NaN at every index of INDEX, as the step's stage above.
_IGNORE = """\
    with np.errstate(all="ignore"):
{powers}{values}"""

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

# A map of a (K, 2n) array of states, its values in the columns of out.
_BLOCK = """\
def {name}(Y):
    out = np.zeros((len(Y), {size}))
    bad = []
    {unpack} = Y.T
{stage}    if bad:
        out[np.ix_(bad, INDEX)] = math.nan
    return out.reshape({shape})
"""


def _power(col, k, bad):
    """col**k element by element with C pow, as Python's float ** computes
    it; the rows in which a finite element overflows go into bad."""
    p = np.float_power(col, k)
    over = np.isinf(p)
    if over.any():
        bad.extend(np.flatnonzero(over & np.isfinite(col)).tolist())
    return p


def _names(var, count):
    return ", ".join(f"{var}{i}" for i in range(count))


def _stage(entries, var, target, power="{v}**{k}", frame=_TRY):
    """Source of the block that binds each power var_i**k that the
    polynomials use to the expression power formats (v is var_i) and
    assigns the value of each (index, poly) of entries to
    target.format(index), inside frame."""
    used = set()

    def name(i, k):
        if k == 1:
            return f"{var}{i}"
        used.add((i, k))
        return f"{var}{i}_{k}"

    targets = [target.format(k) for k, _ in entries]
    values = "".join(f"        {t} = {p.to_pyexpr(name)}\n"
                     for t, (_, p) in zip(targets, entries))
    return frame.format(
        powers="".join(f"        {var}{i}_{k} = "
                       f"{power.format(v=f'{var}{i}', k=k)}\n"
                       for i, k in sorted(used)),
        values=values, targets=" = ".join(targets))


def _step(comps):
    """Source of step(y, dt) for the field with components comps."""
    count = len(comps)
    entries = list(enumerate(comps))

    def update(state, h, slope):
        return "".join(f"    {state}{i} = y{i} + {h}*{slope}{i}\n"
                       for i in range(count))

    return _STEP.format(
        unpack=_names("y", count),
        k1=_stage(entries, "y", "a{}"), y2=update("u", "h2", "a"),
        k2=_stage(entries, "u", "b{}"), y3=update("w", "h2", "b"),
        k3=_stage(entries, "w", "c{}"), y4=update("z", "dt", "c"),
        k4=_stage(entries, "z", "d{}"),
        y_next=", ".join(f"y{i} + h6*(((a{i} + 2*b{i}) + 2*c{i}) + d{i})"
                         for i in range(count)),
        u=_names("u", count), w=_names("w", count), z=_names("z", count))


def _block(name, nvars, entries, shape):
    """(name, source, INDEX) of the block name(Y): the value of each (index,
    poly) of entries at the rows of Y goes to that index of a row of shape,
    and a row where a power overflows is NaN at every index of entries,
    those of zero polys included."""
    nonzero = [(k, p) for k, p in entries if not p.is_zero]
    source = _BLOCK.format(
        name=name, size=math.prod(shape), unpack=_names("v", nvars),
        shape=", ".join(map(str, (-1, *shape))),
        stage=_stage(nonzero, "v", "out[:, {}]",
                     power="_power({v}, {k}, bad)", frame=_IGNORE))
    return name, source, np.array([k for k, _ in entries], dtype=np.intp)


class CompiledFlow:
    """Generated numeric callables for one model.  h_of, H_of and jac_block
    each map a (K, 2n) array of states, one numpy block for all K, to the
    (K, n) array of h, the (K,) array of H and the (K, 2n, 2n) array of the
    Jacobians; a single state is a one-row call.  step(y, dt), the one
    scalar callable and the one evaluator of the field, is the RK4 step of
    the state as tuples (y_next, y2, y3, y4), y a tuple of floats or a
    float array."""

    def __init__(self, model):
        ff = frame_fields(model)
        n = model.dim
        N = 2 * n
        comps = [c.num for c in ff.hvec.comps]
        jac = [(m * N + l, comps[m].diff(l))
               for m in range(N) for l in range(N)]
        parts = [
            ("step", _step(comps), None),
            _block("h_of", N, list(enumerate(ff.h_poly)), (n,)),
            _block("H_of", N, [(0, ff.H_poly)], ()),
            _block("jac_block", N, [(k, d) for k, d in jac if not d.is_zero],
                   (N, N)),
        ]
        # one compile and one namespace per callable: the parser's peak
        # memory stays that of the largest, and each block has its own INDEX
        for name, source, index in parts:
            ns = {"np": np, "math": math, "_power": _power, "INDEX": index}
            exec(compile(source, f"<flow:{model.spec_string}>", "exec"), ns)
            setattr(self, name, ns[name])


def compiled_flow(model):
    return model.memo(CompiledFlow)


# steps whose Jacobians the flow loop evaluates in one jac_block call: the
# w runs still stepping take CHUNK // w steps each per chunk
CHUNK = 64


def _matrix_step(J, M, h2, dt, h6):
    """One RK4 step of M' = jac(y) M from the Jacobians J[..., s, :, :] at
    the four stage states, with h2 = dt / 2 and h6 = dt / 6.  M may be a
    (B, N, N) stack, and the step sizes arrays of its shape: matmul
    multiplies each slice as it multiplies a single matrix, so every slice
    has the bits of its own step."""
    j1, j2, j3, j4 = (J[..., s, :, :] for s in range(4))
    m1 = j1 @ M
    m2 = j2 @ (M + h2 * m1)
    m3 = j3 @ (M + h2 * m2)
    m4 = j4 @ (M + dt * m3)
    return M + h6 * (m1 + 2 * m2 + 2 * m3 + m4)


class _Run:
    """One flow of a lockstep batch: the state (a tuple of floats), the
    step dt and step count, and the samples stored so far, the matrices in
    one preallocated array."""

    __slots__ = ("y", "dt", "nsteps", "every", "t", "ts", "ys", "Ms")

    def __init__(self, y, dt, nsteps, every, M):
        self.y, self.dt, self.nsteps, self.every = y, dt, nsteps, every
        self.t, self.ts, self.ys = 0.0, [0.0], array("d", y)
        self.Ms = None
        if M is not None:
            self.Ms = np.empty((1 + -(-nsteps // every), *M.shape))
            self.Ms[0] = M

    def trajectory(self, model):
        return Trajectory(model, np.array(self.ts),
                          np.frombuffer(self.ys).reshape(len(self.ts), -1),
                          self.Ms)


def _advance(cf, runs, M):
    """Steps every run to its step count in lockstep; M is the start matrix
    of every run, or None for states only.

    The runs go longest first, so the w runs still stepping are runs[:w]
    and their matrices the prefix M[:w] of one (B, N, N) stack.  A chunk
    takes CHUNK // w steps (at least one, and none past the end of a run)
    of each of the w runs.  The states step on Python floats, step by step
    and run by run within a step; the Jacobians at all their stage states
    are then one jac_block call, and the stack steps once per step.
    """
    step = cf.step
    runs = sorted(runs, key=lambda r: r.nsteps, reverse=True)
    if M is not None:
        N = len(M)
        M = np.tile(M, (len(runs), 1, 1))
        # dt / 2, dt and dt / 6 of each run, as whole matrices: a product
        # with a contiguous array is one ufunc loop, with a (B, 1, 1)
        # column one loop per row
        dt = np.broadcast_to(np.array([r.dt for r in runs])[:, None, None],
                             M.shape)
        coef = np.array([0.5 * dt, dt, dt / 6.0])
    done, w = 0, len(runs)
    while w:
        stop = min(runs[w - 1].nsteps, done + max(1, CHUNK // w))
        live = runs[:w]
        stages = array("d")
        for k in range(done + 1, stop + 1):
            for run in live:
                y = run.y
                run.y, y2, y3, y4 = step(y, run.dt)
                run.t += run.dt
                if M is not None:
                    stages.extend(y + y2 + y3 + y4)
                if k % run.every == 0 or k == run.nsteps:
                    run.ts.append(run.t)
                    run.ys.extend(run.y)
        if M is not None:
            J = cf.jac_block(np.frombuffer(stages).reshape(-1, N))
            J = J.reshape(-1, w, 4, N, N)
            for Jk, k in zip(J, range(done + 1, stop + 1)):
                M[:w] = _matrix_step(Jk, M[:w], *coef[:, :w])
                for b, run in enumerate(live):
                    if k % run.every == 0 or k == run.nsteps:
                        run.Ms[-(-k // run.every)] = M[b]
        done = stop
        while w and runs[w - 1].nsteps == done:
            w -= 1


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
            self._series[f] = f(self.ys)
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


def integrate_flows(model, runs, step=1e-3, with_variational=False,
                    store_every=1, drift_bound=DRIFT_TOL, richardson=False):
    """integrate_flow for each (cov, T) of runs, stepped in lockstep.

    Returns one Trajectory per run, equal bit for bit to what integrate_flow
    gives for that run alone: the runs share the Jacobian block calls and
    the matrix stack (see _advance), and each run's values come from its own
    operations in the same order.  A Richardson run is two runs of the
    batch.  Raises StepTooLarge for the first run, in the order of runs,
    whose drift fails the bound.
    """
    passes = [(step, store_every)]
    if richardson:
        passes.append((step / 2, 2 * store_every))
    plan = [(cov, T, step_count(T, h), every)
            for cov, T in runs for h, every in passes]
    N = 2 * model.dim
    M = np.eye(N) if with_variational else None
    # an overflowing covector is reported once, by the drift check (a NaN
    # drift fails it); without a check numpy's warnings stay on
    quiet = (np.errstate(over="ignore", invalid="ignore")
             if drift_bound is not None else contextlib.nullcontext())
    with quiet:
        flows = [_Run(tuple(float(v) for v in cov.xp()),
                      math.copysign(abs(T) / nsteps, T), nsteps, every, M)
                 for cov, T, nsteps, every in plan]
        _advance(compiled_flow(model), flows, M)
        trajs = [f.trajectory(model) for f in flows]
        if richardson:
            # (16 y_{h/2} - y_h) / 15 in the arrays of the half-step pass
            pairs = list(zip(trajs[::2], trajs[1::2]))
            for t1, t2 in pairs:
                for whole, half in ((t1.ys, t2.ys), (t1.Ms, t2.Ms)):
                    if half is not None:
                        half *= 16.0
                        half -= whole
                        half /= 15.0
            trajs = [Trajectory(model, t1.ts, t2.ys, t2.Ms)
                     for t1, t2 in pairs]
        if drift_bound is not None:
            for traj in trajs:
                drift = traj.conservation_drift()
                if not drift <= drift_bound:
                    raise StepTooLarge(
                        f"H drift {drift:.3e} exceeds bound "
                        f"{drift_bound:.3e}; reduce the step size")
    return trajs


def integrate_flow(model, cov, T, step=1e-3, with_variational=False,
                   store_every=1, drift_bound=DRIFT_TOL, richardson=False):
    """Classical fixed-step RK4 on the 2n-dim system (plus 2n x 2n variational).

    T may be negative (backward flow).  Raises StepTooLarge when the
    Hamiltonian drifts by more than drift_bound over the run, or when the
    drift is not a number (a covector too large for floats).  With
    richardson=True a second pass at half the step is combined as
    (16 y_{h/2} - y_h)/15, eliminating the h^4 truncation term (the deep
    rows of the Jacobi-curve fit need this).  The one-run case of
    integrate_flows.
    """
    return integrate_flows(model, [(cov, T)], step, with_variational,
                           store_every, drift_bound, richardson)[0]


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
