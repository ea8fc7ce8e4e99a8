"""CompiledFlow against the reference numpy-scalar generator, bit for bit.

The generated blocks rhs, h_of, H_of and jac_block map a stack of states
to a stack of values, and each row must reproduce the reference value at
that state exactly: the same terms in the same order, each power through
the same C pow, and every structurally nonzero Jacobian entry in place.  An
overflowing power gives a row of NaN outputs instead of an OverflowError.
integrate_flow steps the state and then the variational matrix a chunk of
CHUNK steps at a time, and its samples must not depend on where the chunks
end.
"""
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnotcurv.errors import StepTooLarge
from carnotcurv.frames import frame_fields
from carnotcurv.groups import Covector, build_group
from carnotcurv.hamiltonian import (CHUNK, compiled_flow, integrate_flow,
                                    step_count)
from reference_covector import covector_at
from reference_flow import ReferenceFlow, reference_rk4_step

SPECS = ("goursat:3", "goursat:4", "goursat:5", "goursat:6", "goursat:7",
         "goursat:8", "cartan")
UNIT = st.floats(-1.0, 1.0)
# a covector for the 300-step run: h and base point, first dim entries
H0 = (0.7, -0.5, 0.9, 0.4, -0.6, 0.8, 0.3, -0.2)
BASE = (0.3, -0.2, 0.5, 0.1, -0.4, 0.6, 0.2, -0.1)


@functools.lru_cache(maxsize=None)
def flows(spec):
    model = build_group(spec)
    return model, compiled_flow(model), ReferenceFlow(model)


@st.composite
def states(draw, model):
    """(x, p) of a covector at a drawn base point, its h scaled by 0.3-3."""
    n = model.dim
    h = draw(st.lists(UNIT, min_size=n, max_size=n))
    base = draw(st.lists(UNIT, min_size=n, max_size=n))
    scale = draw(st.floats(0.3, 3.0))
    cov = covector_at(model, [scale * v for v in h], base)
    return np.array([float(v) for v in cov.xp()])


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and np.array_equal(a, b)
            and a.tobytes() == b.tobytes())


@pytest.mark.parametrize("spec", SPECS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_functions_match_reference(spec, data):
    # every row of a block is the reference function at that row
    model, cf, ref = flows(spec)
    Y = np.array(data.draw(st.lists(states(model), min_size=1, max_size=9)))
    for name, ref_name in (("rhs", "rhs"), ("jac_block", "jac"),
                           ("h_of", "h_of"), ("H_of", "H_of")):
        got = getattr(cf, name)(Y)
        assert len(got) == len(Y), name
        for row, y in zip(got, Y):
            assert same(row, getattr(ref, ref_name)(y)), (name, y.tolist())


@pytest.mark.parametrize("spec", SPECS)
def test_variational_run_matches_reference_loop(spec):
    model, _, ref = flows(spec)
    n = model.dim
    cov = covector_at(model, H0[:n], BASE[:n])
    traj = integrate_flow(model, cov, 0.3, 1e-3, with_variational=True)
    assert len(traj) == 301
    y = np.array([float(v) for v in cov.xp()])
    M = np.eye(2 * n)
    ys, Ms = [y], [M]
    for _ in range(300):
        y, M = reference_rk4_step(ref, y, 0.3 / 300, M)
        ys.append(y)
        Ms.append(M)
    assert traj.ys.tobytes() == np.array(ys).tobytes()
    assert traj.Ms.tobytes() == np.array(Ms).tobytes()


@functools.lru_cache(maxsize=None)
def jacobian_structure(spec):
    """The structurally nonzero entries of the Jacobian, as a boolean
    2n x 2n mask, and the powers (i, k), k >= 2, that its entries use."""
    comps = [c.num for c in frame_fields(build_group(spec)).hvec.comps]
    N = len(comps)
    mask = np.zeros((N, N), dtype=bool)
    powers = set()
    for m in range(N):
        for l in range(N):
            d = comps[m].diff(l)
            mask[m, l] = not d.is_zero
            powers.update((i, k) for e, _ in d.monomials()
                          for i, k in enumerate(e) if k >= 2)
    return mask, powers


def overflows(row, powers):
    """Whether a power of the scalar code raises OverflowError at row."""
    try:
        for i, k in powers:
            float(row[i]) ** k
    except OverflowError:
        return True
    return False


@pytest.mark.parametrize("spec", SPECS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_jac_block_matches_reference(spec, data):
    # a stack of 1-9 states: some rows get a coordinate of size 1e150-1e200,
    # one row an inf coordinate and one a NaN; each row must be the
    # reference Jacobian at that row, or NaN at every structural nonzero
    # where the scalar code's power overflows
    model, cf, ref = flows(spec)
    N = 2 * model.dim
    Y = np.array(data.draw(st.lists(states(model), min_size=1, max_size=9)))
    huge = st.floats(1e150, 1e200).flatmap(
        lambda v: st.sampled_from((v, -v)))
    for row in data.draw(st.sets(st.integers(0, len(Y) - 1))):
        Y[row, data.draw(st.integers(0, N - 1))] = data.draw(huge)
    rows = data.draw(st.permutations(range(len(Y))))
    for row, v in zip(rows, (math.inf, math.nan)):
        Y[row, data.draw(st.integers(0, N - 1))] = v
    mask, powers = jacobian_structure(spec)
    got = cf.jac_block(Y)
    assert got.shape == (len(Y), N, N) and got.flags.c_contiguous
    for row, J in zip(Y, got):
        if overflows(row, powers):
            assert np.array_equal(np.isnan(J), mask), row.tolist()
            assert not J[~mask].any(), row.tolist()
            continue
        with np.errstate(all="ignore"):
            want = ref.jac(row)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(J), nan), row.tolist()
        assert J[~nan].tobytes() == want[~nan].tobytes(), row.tolist()


def reference_run(ref, cov, T, step, store_every, variational):
    """ts, ys and Ms of integrate_flow from the reference step, one step at
    a time, sampled as integrate_flow samples them."""
    nsteps = step_count(T, step)
    dt = math.copysign(abs(T) / nsteps, T)
    y = np.array([float(v) for v in cov.xp()])
    M = np.eye(len(y)) if variational else None
    t, ts, ys, Ms = 0.0, [0.0], [y], [M]
    for k in range(1, nsteps + 1):
        y, M = reference_rk4_step(ref, y, dt, M)
        t += dt
        if k % store_every == 0 or k == nsteps:
            ts.append(t)
            ys.append(y)
            Ms.append(M)
    return np.array(ts), np.array(ys), np.array(Ms) if variational else None


@pytest.mark.parametrize("spec", ("goursat:5", "cartan"))
@pytest.mark.parametrize("sign", (1.0, -1.0))
@pytest.mark.parametrize("variational,richardson",
                         [(True, False), (True, True), (False, False)])
def test_chunked_run_matches_reference_loop(spec, sign, variational,
                                            richardson):
    # 2 * CHUNK + 37 steps sampled every 7th: two whole chunks, a partial
    # one, and samples on both sides of each chunk boundary
    model, _, ref = flows(spec)
    n = model.dim
    cov = covector_at(model, H0[:n], BASE[:n])
    nsteps = 2 * CHUNK + 37
    T, step = sign * nsteps * 1e-3, 1e-3
    assert step_count(T, step) == nsteps
    traj = integrate_flow(model, cov, T, step, with_variational=variational,
                          store_every=7, richardson=richardson)
    ts, ys, Ms = reference_run(ref, cov, T, step, 7, variational)
    if richardson:
        _, ys2, Ms2 = reference_run(ref, cov, T, step / 2, 14, variational)
        ys = (16.0 * ys2 - ys) / 15.0
        Ms = (16.0 * Ms2 - Ms) / 15.0 if variational else None
    assert len(ts) == 2 + nsteps // 7
    assert traj.ts.tobytes() == ts.tobytes()
    assert traj.ys.tobytes() == ys.tobytes()
    if variational:
        assert traj.Ms.tobytes() == Ms.tobytes()
    else:
        assert traj.Ms is None


class TestOverflow:
    def cov(self):
        model = build_group("goursat:4")
        return model, Covector.from_h(model, (1e200, 1.0, 0.0, 0.0))

    def test_overflowing_power_gives_nan_outputs(self):
        # x1 = 1e200: x1**2 occurs in all four blocks and overflows
        cf = compiled_flow(build_group("goursat:4"))
        y = np.zeros((1, 8))
        y[0, 0] = 1e200
        for name, shape in (("rhs", (8,)), ("h_of", (4,)), ("H_of", ())):
            out = np.asarray(getattr(cf, name)(y)[0])
            assert out.shape == shape and np.isnan(out).all(), name
        # the structural zeros of the Jacobian stay 0, every other entry NaN
        J = cf.jac_block(y)[0]
        assert J.shape == (8, 8)
        structure = cf.jac_block(np.ones((1, 8)))[0] != 0
        assert np.array_equal(np.isnan(J), structure)

    def test_unbounded_run_ends_in_nan(self):
        model, cov = self.cov()
        traj = integrate_flow(model, cov, 1.0, 1e-3, drift_bound=None)
        assert np.isnan(traj.ys[-1]).all()
        assert np.isnan(traj.H_series()).all()

    def test_bounded_run_raises_without_warnings(self):
        model, cov = self.cov()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(StepTooLarge, match="H drift nan"):
                integrate_flow(model, cov, 1.0, 1e-3)
