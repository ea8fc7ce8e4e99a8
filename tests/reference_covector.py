"""The covector at a base point from its fiber coordinates, as a reference.

Covector.from_h builds only at the origin, where A = I and p = h.  Tests that
need a covector elsewhere build it here the way from_h once did for any base
point: p = A(base)^-1 h through fiber_transform, exact when the base point
and h are rational.  The covector's lazy h maps p back through A(base).
"""
from fractions import Fraction

from carnotcurv.groups import Covector, fiber_transform, is_exact_seq


def covector_at(model, h, base):
    """The covector with frame-fiber coordinates h at the base point."""
    _, ainv = fiber_transform(model, base)
    h = tuple(h)
    if is_exact_seq(base) and is_exact_seq(h):
        h = tuple(Fraction(v) for v in h)
    p = tuple(sum(row[j] * h[j] for j in range(len(h))) for row in ainv)
    return Covector(model, base, p)
