"""Term-order pin of the polynomials that reach a float evaluation.

Poly.eval sums terms in dictionary order, so the float values of routes 2
and 3 (basis_at, the flow's frame, the rank oracle, fiber_transform) depend
on the insertion order of every term, not only on the polynomial.  One
SHA-256 over (content, terms in order) of each model-level polynomial pins
that order: a kernel change that builds the same polynomials with their
terms in another order fails here.
"""
import hashlib

from carnotcurv.frames import frame_fields
from carnotcurv.groups import build_group
from carnotcurv.oracle import oracle_fields
from carnotcurv.regularity import _rank_fields

TERM_ORDER_SHA256 = (
    "f3cf88b76bb4233dc79262e2ed7507cc4dfbd630d7bf2d7cf3f82985d38f4284")


def _poly(p):
    return (p.content, list(p.terms.items()))


def _rat(r):
    return (_poly(r.num), _poly(r.pole) if r.e else None, r.e)


def _hfield(v):
    return ([_rat(c) for c in v.a], [_rat(c) for c in v.b])


def _model_keys(model):
    ff = frame_fields(model)
    of = oracle_fields(model)
    return [
        [[_poly(p) for p in row] for row in model.a_base],
        [[_poly(p) for p in row] for row in model.a_inv_base],
        [_poly(p) for p in ff.h_poly],
        [[_rat(c) for c in f.comps]
         for f in ff.lift + ff.dh + [ff.hvec, ff.w_top]],
        [_hfield(v) for v in of.G],
        _rat(of.norm_fun), _rat(of.r11_fun),
        # the rank fields as chains ad_H^k d/dh_j, k = 0..default_max_order
        [[_hfield(model.memo(_rank_fields, k)[j])
          for k in range(model.default_max_order + 1)]
         for j in range(model.dim)],
    ]


def test_term_order_pinned():
    keys = [_model_keys(build_group(spec))
            for spec in ("goursat:3", "goursat:4", "goursat:5", "goursat:6",
                         "cartan")]
    keys.append([[_poly(p) for p in row]
                 for row in build_group("goursat:12").a_inv_base])
    digest = hashlib.sha256(repr(keys).encode()).hexdigest()
    assert digest == TERM_ORDER_SHA256
