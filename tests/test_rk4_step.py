"""The generated RK4 step against the numpy step, bit for bit.

The state part of a step is the generated CompiledFlow.step on Python
floats; the variational part is the matrix step of integrate_flow, in
numpy.  A single step must give the bytes of the reference numpy step
(tests/reference_flow.py), with and without the matrix; an overflowing
state must give NaN where the numpy step gives NaN when driven by the
compiled Jacobian and the reference field, NaN where a power overflows;
and the loss times that the regularity bisection finds with single local
steps stay pinned.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnotcurv.frames import frame_fields
from carnotcurv.groups import (Covector, build_group, cartan_h_from_chart,
                               engel_h_from_chart)
from carnotcurv.hamiltonian import integrate_flow
from carnotcurv.regularity import equiregularity_loss_times
from reference_flow import reference_rk4_step
from test_flow_codegen import SPECS, flows, overflows, same, states

STEPS = st.floats(1e-5, 0.1).flatmap(
    lambda dt: st.sampled_from((dt, -dt)))


class OneRow:
    """The reference field and the compiled Jacobian block of a flow, called
    on one state at a time, as reference_rk4_step calls rhs and jac.  The
    field is NaN at a state where one of its powers overflows, as the slopes
    of a stage of the compiled step are."""

    def __init__(self, spec):
        model, self.cf, self.ref = flows(spec)
        self.powers = {(i, k) for c in frame_fields(model).hvec.comps
                       for e, _ in c.num.monomials()
                       for i, k in enumerate(e) if k >= 2}

    def rhs(self, y):
        if overflows(y, self.powers):
            return np.full(len(y), math.nan)
        return self.ref.rhs(y)

    def jac(self, y):
        return self.cf.jac_block(np.asarray(y)[None])[0]


def one_step(model, y, dt):
    """The state and variational matrix after one integrate_flow step of
    dt from the state y, the matrix starting at the identity."""
    n = model.dim
    traj = integrate_flow(model, Covector(model, y[:n], y[n:]), dt, abs(dt),
                          with_variational=True, drift_bound=None)
    assert len(traj) == 2
    return traj.ys[1], traj.Ms[1]


@pytest.mark.parametrize("spec", SPECS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_single_step_matches_reference(spec, data):
    model, cf, ref = flows(spec)
    y = data.draw(states(model))
    dt = data.draw(STEPS)
    want, _ = reference_rk4_step(ref, y, dt)
    # a tuple state and its array step the same
    for start in (tuple(y.tolist()), y):
        assert same(np.array(cf.step(start, dt)[0]), want), (y.tolist(), dt)

    got_y, got_M = one_step(model, y, dt)
    want_y, want_M = reference_rk4_step(ref, y, dt, np.eye(len(y)))
    assert same(got_y, want_y), (y.tolist(), dt)
    assert same(got_M, want_M), (y.tolist(), dt)


@pytest.mark.parametrize("spec", SPECS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_overflowing_step_gives_the_same_nans(spec, data):
    # one coordinate of size 1e150-1e200: some power overflows in some
    # stage, and that stage's slopes are NaN
    model, cf, _ = flows(spec)
    y = data.draw(states(model))
    i = data.draw(st.integers(0, 2 * model.dim - 1))
    y[i] = data.draw(st.floats(1e150, 1e200)) * data.draw(
        st.sampled_from((1.0, -1.0)))
    dt = data.draw(STEPS)
    M = np.eye(2 * model.dim)
    # the state part is Python floats: it warns of nothing (warnings are
    # errors in this suite); the matrix part is numpy, and may warn
    plain = cf.step(tuple(y.tolist()), dt)[0]
    with np.errstate(all="ignore"):
        got_y, got_M = one_step(model, y, dt)
        want_y, want_M = reference_rk4_step(OneRow(spec), y, dt, M)
    assert np.array(plain).tobytes() == got_y.tobytes()
    for got, want in ((got_y, want_y), (got_M, want_M)):
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan], want[~nan])


def test_the_1e200_state_steps_to_nan():
    model = build_group("goursat:4")
    y = np.zeros(8)
    y[0] = 1e200
    y_next, M = one_step(model, y, 1e-3)
    assert np.isnan(y_next).all()
    _, want_M = reference_rk4_step(OneRow("goursat:4"), y, 1e-3, np.eye(8))
    assert np.array_equal(np.isnan(M), np.isnan(want_M))


# the c07 acceptance inputs, each (spec, stratum, chart point); "SEP" is
# the separatrix sample whose Engel loss is at t = 1
C07 = [("goursat:4", "C1", (0.3, 0.8, 1.0)), ("goursat:4", "C2", (0.3, 2.5, 1.0)),
       ("goursat:4", "C3", "SEP"), ("goursat:4", "C6", (0.7, 1.2, 0.0)),
       ("cartan", "C1", (0.3, 0.8, 1.0, 0.7)),
       ("cartan", "C2", (0.3, 2.5, 1.0, 0.7)),
       ("cartan", "C3", "SEP"), ("cartan", "C6", (0.7, 1.2, 0.0, 0.0))]
# equiregularity_loss_times(model, cov, 14.0) of the numpy RK4 step, as
# float.hex; the bisection takes single cf.step steps from grid points
LOSS_TIMES = {
    ("goursat:4", "C1"): ["0x1.78abbd2bb627ap+1", "0x1.8fa40f8483300p+2",
                          "0x1.317920399db76p+3", "0x1.9b2038b0f9a00p+3"],
    ("goursat:4", "C2"): ["0x1.74fb7b3f5c1b0p+0", "0x1.84451856b8328p+1",
                          "0x1.27063986e13edp+2", "0x1.8be9e6e266829p+2",
                          "0x1.f0cd943debc66p+2", "0x1.2ad8a0ccb85b3p+3",
                          "0x1.5d4a777a7acbdp+3", "0x1.8fbc4e283d3c7p+3"],
    ("goursat:4", "C3"): ["0x1.0000000020c4dp+0"],
    ("goursat:4", "C6"): ["0x1.046fc1b8e5506p+1", "0x1.29c5170e3d68dp+2",
                          "0x1.d1524d3ff8048p+2", "0x1.3c6fc1b8e1464p+3",
                          "0x1.90365cd1c6737p+3"],
    ("cartan", "C1"): ["0x1.0fcf6c2989260p+1", "0x1.5c4d7f0f12795p+2",
                       "0x1.1859a404a8042p+3", "0x1.828c8881ceacfp+3"],
    ("cartan", "C2"): [], ("cartan", "C3"): [], ("cartan", "C6"): [],
}


@pytest.mark.parametrize("spec,stratum,pt", C07)
def test_loss_times_pinned(spec, stratum, pt):
    model = build_group(spec)
    if pt == "SEP":
        u = -1.0
        th = 2 * math.atan2(math.tanh(u), 1 / math.cosh(u))
        c = 2 / math.cosh(u)
        pt = (th, c, 1.0) if spec == "goursat:4" else (th + 0.7, c, 1.0, 0.7)
    h = engel_h_from_chart(*pt) if spec == "goursat:4" \
        else cartan_h_from_chart(*pt)
    losses = equiregularity_loss_times(model, Covector.from_h(model, h), 14.0)
    assert [float(t).hex() for t in losses] == LOSS_TIMES[spec, stratum]
