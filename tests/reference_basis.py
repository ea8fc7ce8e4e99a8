"""The earlier basis_at of HFrame, kept unchanged as a reference.

It derives the horizontal lifts at a covector from the frame matrix A(x):
the x-part of X_i is row i of A, and its p-part solves A c = -(D_{X_i} A) p,
with D_{X_i} A built from Poly.diff on every call.  HFrame.basis_at reads the
same fields from frame_fields instead, and the tests compare the two.
"""
from carnotcurv.groups import fiber_transform


def reference_basis_at(model, cov):
    """Canonical components of X_1..X_n and d/dh_1..d/dh_n at a covector."""
    n = model.dim
    m = model
    amat, ainv = fiber_transform(m, cov.base)
    x = cov.base
    p = cov.p
    rows = []
    for i in range(n):
        # lift X_i: x-part = row i of A; p-part solves A c = -(D_{X_i} A) p
        da_p = []
        for k in range(n):
            acc = 0
            for jj in range(n):
                dkj = 0
                for mm in range(n):
                    dpoly = m.a_base[k][jj].diff(mm)
                    if not dpoly.is_zero:
                        dkj += m.a_base[i][mm].eval(x) * dpoly.eval(x)
                if dkj:
                    acc += dkj * p[jj]
            da_p.append(acc)
        pcomp = [-sum(ainv[j][k] * da_p[k] for k in range(n)) for j in range(n)]
        rows.append(tuple(amat[i]) + tuple(pcomp))
    for i in range(n):
        rows.append((0,) * n + tuple(ainv[j][i] for j in range(n)))
    return tuple(rows)
