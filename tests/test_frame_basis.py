"""HFrame.basis_at against the reference derivation of the lifted frame.

basis_at evaluates the lifts and vertical fields of frame_fields at (x, p).
On rational covectors it must equal the reference exactly.  On float ones it
groups the same products differently, so it agrees to rounding, and at the
origin (where every oracle, CLI and benchmark covector sits) exactly.
"""
import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnotcurv.frames import h_frame
from carnotcurv.groups import Covector, build_group
from reference_basis import reference_basis_at

SPECS = ("goursat:3", "goursat:4", "goursat:5", "goursat:6", "goursat:7",
         "goursat:8", "cartan")
RATIONAL = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9))
FLOAT = st.floats(-2.0, 2.0)


@functools.lru_cache(maxsize=None)
def frame(spec):
    model = build_group(spec)
    return model, h_frame(model)


def covectors(model, value, origin=False):
    n = model.dim
    base = (st.just((0.0,) * n) if origin
            else st.tuples(*[value] * n))
    return st.builds(lambda x, p: Covector(model, x, p), base,
                     st.tuples(*[value] * n))


@pytest.mark.parametrize("spec", SPECS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_basis_matches_reference(spec, data):
    model, hf = frame(spec)

    cov = data.draw(covectors(model, RATIONAL))
    assert cov.exact
    assert hf.basis_at(cov) == reference_basis_at(model, cov)

    cov = data.draw(covectors(model, FLOAT))
    for got, want in zip(hf.basis_at(cov), reference_basis_at(model, cov)):
        scale = max(abs(v) for v in want)
        assert all(abs(g - w) <= 1e-12 * scale for g, w in zip(got, want))

    cov = data.draw(covectors(model, FLOAT, origin=True))
    assert hf.basis_at(cov) == reference_basis_at(model, cov)
