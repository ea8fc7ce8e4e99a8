"""CompiledFlow against the reference numpy-scalar generator, bit for bit.

The Python-float code must reproduce the reference values exactly: the same
terms in the same order, each power through the same C pow, and every
structurally nonzero Jacobian entry in place.  An overflowing power gives
NaN outputs instead of an OverflowError.
"""
import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnotcurv.errors import StepTooLarge
from carnotcurv.groups import Covector, build_group
from carnotcurv.hamiltonian import compiled_flow, integrate_flow
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
    cov = Covector.from_h(model, [scale * v for v in h], base=base)
    return np.array([float(v) for v in cov.xp()])


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and np.array_equal(a, b)
            and a.tobytes() == b.tobytes())


@pytest.mark.parametrize("spec", SPECS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_functions_match_reference(spec, data):
    model, cf, ref = flows(spec)
    y = data.draw(states(model))
    for name in ("rhs", "jac", "h_of", "H_of"):
        got, want = getattr(cf, name)(y), getattr(ref, name)(y)
        assert same(got, want), (name, y.tolist())


@pytest.mark.parametrize("spec", SPECS)
def test_variational_run_matches_reference_loop(spec):
    model, _, ref = flows(spec)
    n = model.dim
    cov = Covector.from_h(model, H0[:n], base=BASE[:n])
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


class TestOverflow:
    def cov(self):
        model = build_group("goursat:4")
        return model, Covector.from_h(model, (1e200, 1.0, 0.0, 0.0))

    def test_overflowing_power_gives_nan_outputs(self):
        # x1 = 1e200: x1**2 occurs in all four functions and overflows
        cf = compiled_flow(build_group("goursat:4"))
        y = np.zeros(8)
        y[0] = 1e200
        for name, shape in (("rhs", (8,)), ("h_of", (4,)), ("H_of", ())):
            out = np.asarray(getattr(cf, name)(y))
            assert out.shape == shape and np.isnan(out).all(), name
        # the structural zeros of the Jacobian stay 0, every other entry NaN
        J = cf.jac(y)
        assert J.shape == (8, 8)
        assert np.array_equal(np.isnan(J), cf.jac(np.ones(8)) != 0)

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
