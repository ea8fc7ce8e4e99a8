"""Vector fields on T*R^n attached to a group model.

Everything lives in canonical coordinates (x_1..x_n, p_1..p_n).  The
frame-fiber basis fields d/dh_i are vertical with p-components given by the
columns of A(x)^{-1}; the horizontal lifts X_i keep every h_j constant, which
is what makes the fiber bracket identities hold in the printed form.  All
fields here have exact rational-function components, so identity checks are
decidable exactly.
"""
from __future__ import annotations

from fractions import Fraction

from .symfields import Poly, Rat, RatVecField, directional_derivative


class FrameFields:
    """Per-model catalogue of exact fields on T*R^{2n}; build via frame_fields()."""

    def __init__(self, model):
        self.model = model
        n = model.dim
        m = 2 * n
        self.n = n
        self.nvars = m

        a = [[model.a_base[i][j].pad(m) for j in range(n)] for i in range(n)]
        ainv = [[model.a_inv_base[i][j].pad(m) for j in range(n)] for i in range(n)]
        p = [Poly.variable(m, n + j) for j in range(n)]

        # h_i = sum_j A[i][j] p_j (polynomials in (x, p))
        self.h_poly = []
        for i in range(n):
            acc = Poly.zero(m)
            for j in range(n):
                acc = acc + a[i][j] * p[j]
            self.h_poly.append(acc)
        self.h = [Rat(hp) for hp in self.h_poly]

        self.H_poly = (self.h_poly[0] * self.h_poly[0]
                       + self.h_poly[1] * self.h_poly[1]) * Fraction(1, 2)
        self.H = Rat(self.H_poly)

        # Hamiltonian field: xdot = dH/dp, pdot = -dH/dx
        comps = [Rat(self.H_poly.diff(n + j)) for j in range(n)]
        comps += [Rat(-self.H_poly.diff(j)) for j in range(n)]
        self.hvec = RatVecField(comps)

        # vertical basis d/dh_i: p-components = column i of A^{-1}
        zero = Rat.zero(m)
        self.dh = []
        for i in range(n):
            c = [zero] * n + [Rat(ainv[j][i]) for j in range(n)]
            self.dh.append(RatVecField(c))

        # horizontal lifts X_i - sum_k X_i(h_k) d/dh_k, with X_i the base
        # field (x-components row i of A): every h_k is constant along them
        self.lift = []
        for i in range(n):
            base = RatVecField([Rat(c) for c in a[i]] + [zero] * n)
            lift = base
            for k in range(n):
                lift = lift - self.dh[k].smul(base.apply(self.h[k]))
            self.lift.append(lift)

        # Euler field e = sum h_i d/dh_i = sum p_j d/dp_j
        self.euler = RatVecField([zero] * n + [Rat(pj) for pj in p])

        # d/dtheta = h1 d/dh2 - h2 d/dh1
        self.dtheta = self.dh[1].smul(self.h[0]) - self.dh[0].smul(self.h[1])

        # X_thetabar = h1 X1 + h2 X2,  X_theta = h2 X1 - h1 X2
        self.x_thetabar = self.lift[0].smul(self.h[0]) + self.lift[1].smul(self.h[1])
        self.x_theta = self.lift[0].smul(self.h[1]) - self.lift[1].smul(self.h[0])

        # top canonical-frame seed field
        self.w_top = RatVecField.zero(m)
        for k, coef in model.w_coefficients(self.h_poly).items():
            self.w_top = self.w_top + self.dh[k].smul(coef)


def frame_fields(model):
    return model.memo(FrameFields)


class HField:
    """Field sum_i a_i(h) X_i + sum_i b_i(h) d/dh_i with h-only coefficients.

    Left-invariant calculus: the horizontal lifts satisfy
    [X_i, X_j] = sum_k c_ij^k X_k, [X_i, d/dh_j] = 0, and X_i kills every
    function of h, so brackets of such fields close over coefficients that
    are rational functions of h alone (n variables, not 2n).  This is an
    exact change of basis of the canonical-coordinate fields, used where
    the 2n-variable representation would blow up.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = tuple(a)
        self.b = tuple(b)

    def __add__(self, other):
        return HField([x + y for x, y in zip(self.a, other.a)],
                      [x + y for x, y in zip(self.b, other.b)])

    def __sub__(self, other):
        return HField([x - y for x, y in zip(self.a, other.a)],
                      [x - y for x, y in zip(self.b, other.b)])

    def __neg__(self):
        return HField([-x for x in self.a], [-x for x in self.b])

    def smul(self, s):
        return HField([s * x for x in self.a], [s * x for x in self.b])

    def apply(self, f):
        """Directional derivative of a scalar f(h); horizontal part drops out."""
        return directional_derivative(self.b, f)

    @property
    def is_vertical(self):
        return all(ai.is_zero for ai in self.a)

    def __eq__(self, other):
        if not isinstance(other, HField):
            return NotImplemented
        return (all(x == y for x, y in zip(self.a, other.a))
                and all(x == y for x, y in zip(self.b, other.b)))


class HFrame:
    """Frame-basis field algebra for one model; build via h_frame()."""

    def __init__(self, model):
        self.model = model
        n = model.dim
        self.n = n
        self.h = [Rat(Poly.variable(n, i)) for i in range(n)]
        self.zero = Rat.zero(n)
        self.one = Rat.of(1, n)
        # structure constants as dense lookup c[i][j] -> {k: Fraction}, 0-based
        self.cc = [[model.c(i + 1, j + 1) for j in range(n)] for i in range(n)]

        h = self.h
        # 2H - 1 = h1^2 + h2^2 - 1, zero on the unit cotangent cylinder
        self.cylinder = (h[0] * h[0] + h[1] * h[1]).num - 1
        a_h = [h[0], h[1]] + [self.zero] * (n - 2)
        b_h = []
        for k in range(n):
            acc = self.zero
            for j in (0, 1):
                for l, coef in self.cc[j][k].items():
                    acc = acc + h[j] * h[l - 1] * coef
            b_h.append(acc)
        self.hvec = HField(a_h, b_h)

        self.euler = HField([self.zero] * n, list(h))

        self.pole = h[model.pole_index - 1].num
        b = [self.zero] * n
        for k, coef in model.w_coefficients([hi.num for hi in h]).items():
            b[k] = coef
        self.w_top = HField([self.zero] * n, b)

    def dh(self, i):
        """d/dh_i (1-based)."""
        b = [self.zero] * self.n
        b[i - 1] = self.one
        return HField([self.zero] * self.n, b)

    def bracket(self, v, w):
        n = self.n
        xa, xb = [], []
        for k in range(n):
            acc = v.apply(w.a[k]) - w.apply(v.a[k])
            for i in range(n):
                ai = v.a[i]
                if ai.is_zero:
                    continue
                for j in range(n):
                    cj = w.a[j]
                    if cj.is_zero:
                        continue
                    coef = self.cc[i][j].get(k + 1)
                    if coef:
                        acc = acc + ai * cj * coef
            xa.append(acc)
            xb.append(v.apply(w.b[k]) - w.apply(v.b[k]))
        return HField(xa, xb)

    def sigma(self, v, w):
        """Symplectic pairing as a rational function of h.

        sigma(X_i, X_j) = -h_[Xi,Xj], sigma(d/dh_i, X_j) = delta_ij, verticals
        pair to zero; follows from sigma = d(sum h_k nu_k).
        """
        acc = Rat.zero(self.n)
        for i in range(self.n):
            acc = acc + v.b[i] * w.a[i] - v.a[i] * w.b[i]
        for i in range(self.n):
            ai = v.a[i]
            if ai.is_zero:
                continue
            for j in range(self.n):
                cj = w.a[j]
                if cj.is_zero:
                    continue
                for k, coef in self.cc[i][j].items():
                    acc = acc - ai * cj * coef * self.h[k - 1]
        return acc

    def ad_h_chain(self, seed, count):
        """[H, [H, ... [H, seed]]] up to `count` nested brackets (inclusive list)."""
        out = [seed]
        for _ in range(count):
            out.append(self.bracket(self.hvec, out[-1]))
        return out

    # -- conversions to canonical coordinates ------------------------------
    def to_canonical_field(self, v):
        """Exact RatVecField on T*R^{2n} (for cross-validation; small n only)."""
        ff = frame_fields(self.model)
        hp = list(ff.h_poly)
        out = RatVecField.zero(2 * self.n)

        def compose(r):
            # the pole (h1 or h3 of h_poly) is never constant
            num = r.num.eval(hp)
            if isinstance(num, (int, Fraction)):
                num = Poly.const(2 * self.n, num)
            return Rat(num, r.pole.eval(hp) if r.e else None, r.e)

        for i in range(self.n):
            if not v.a[i].is_zero:
                out = out + ff.lift[i].smul(compose(v.a[i]))
            if not v.b[i].is_zero:
                out = out + ff.dh[i].smul(compose(v.b[i]))
        return out

    def eval_at(self, v, hvals):
        """Coefficient values (a_1..a_n, b_1..b_n) at given h values."""
        return ([c.eval(hvals) for c in v.a], [c.eval(hvals) for c in v.b])

    def basis_at(self, cov):
        """Canonical components of the basis fields at a covector.

        Returns a 2n x 2n nested tuple: rows 0..n-1 are the horizontal lifts
        X_1..X_n, rows n..2n-1 the vertical fields d/dh_1..d/dh_n, each as a
        (x-components, p-components) vector: the fields of frame_fields
        evaluated at (x, p).  Exact for rational covectors.
        """
        ff = frame_fields(self.model)
        pt = list(cov.xp())
        return tuple(f.eval(pt) for f in ff.lift + ff.dh)

    def to_canonical_at(self, v, cov, basis=None):
        """Components of the field at a covector, in canonical (x, p) coords."""
        if basis is None:
            basis = self.basis_at(cov)
        n = self.n
        hvals = list(cov.h)
        a, b = self.eval_at(v, hvals)
        out = [0] * (2 * n)
        for i in range(n):
            ai = a[i]
            if ai:
                row = basis[i]
                for j in range(2 * n):
                    if row[j]:
                        out[j] += ai * row[j]
            bi = b[i]
            if bi:
                row = basis[n + i]
                for j in range(2 * n):
                    if row[j]:
                        out[j] += bi * row[j]
        return tuple(out)


def h_frame(model):
    return model.memo(HFrame)


class IdentityCheck:
    """Result row of a bracket-identity verification: an exact equality."""

    __slots__ = ("name", "holds")

    def __init__(self, name, holds):
        self.name = name
        self.holds = holds

    def __repr__(self):
        return f"IdentityCheck({self.name!r}, {'pass' if self.holds else 'FAIL'})"


def vanishes_on(cylinder, comps):
    """True when every rational-function component vanishes on {cylinder = 0}:
    its numerator is exactly divisible by the cylinder polynomial (the poles
    of the frame are coprime to it).  The higher-diagonal closure of the
    oracle is the one check that holds only there."""
    return all(c.is_zero or c.num.exact_div(cylinder) is not None
               for c in comps)


def verify_bracket_identities(model):
    """Check the fiber bracket identities of the model as exact field equalities.

    The first holds on all of T*R^n with the factor 2H; its row is named by
    its form on the unit cotangent cylinder 2H = 1.

    Goursat family:
        [H, X_theta]   = -2H X3 + h3 X_thetabar
        [H, d/dtheta]  = X_theta                      (n = 3)
                       = X_theta + h2 sum_{i=3}^{n-1} h_{i+1} d/dh_i   (n >= 4)
        [H, d/dh3]     = -d/dtheta
        [H, d/dh_i]    = -h1 d/dh_{i-1}               (i = 4..n)
        [H, e]         = -H

    Cartan group:
        [H, X_theta]   = -2H X3 + h3 X_thetabar
        [H, d/dh5]     = -h2 d/dh3
        [H, d/dh4]     = -h1 d/dh3
        [H, d/dh3]     = -d/dtheta
        [H, d/dtheta]  = X_theta + (h2 h4 - h1 h5) d/dh3
    """
    ff = frame_fields(model)
    n = ff.n
    hv = ff.hvec
    h = ff.h
    checks = []

    def add(name, lhs, rhs):
        checks.append(IdentityCheck(name, lhs == rhs))

    x3 = ff.lift[2]
    add("[H,X_theta] = -X3 + h3*X_thetabar",
        hv.bracket(ff.x_theta), x3.smul(-2 * ff.H) + ff.x_thetabar.smul(h[2]))

    if model.kind == "goursat":
        if n == 3:
            add("[H,d_theta] = X_theta", hv.bracket(ff.dtheta), ff.x_theta)
        else:
            rhs = ff.x_theta
            for i in range(3, n):          # 1-based i = 3..n-1
                rhs = rhs + ff.dh[i - 1].smul(h[1] * h[i])
            add("[H,d_theta] = X_theta + h2*sum h_{i+1} d_hi",
                hv.bracket(ff.dtheta), rhs)
        add("[H,d_h3] = -d_theta", hv.bracket(ff.dh[2]), -ff.dtheta)
        for i in range(4, n + 1):
            add(f"[H,d_h{i}] = -h1*d_h{i-1}",
                hv.bracket(ff.dh[i - 1]), ff.dh[i - 2].smul(-h[0]))
        add("[H,euler] = -H", hv.bracket(ff.euler), -hv)
    else:
        add("[H,d_h5] = -h2*d_h3", hv.bracket(ff.dh[4]), ff.dh[2].smul(-h[1]))
        add("[H,d_h4] = -h1*d_h3", hv.bracket(ff.dh[3]), ff.dh[2].smul(-h[0]))
        add("[H,d_h3] = -d_theta", hv.bracket(ff.dh[2]), -ff.dtheta)
        add("[H,d_theta] = X_theta + (h2h4-h1h5)*d_h3",
            hv.bracket(ff.dtheta),
            ff.x_theta + ff.dh[2].smul(h[1] * h[3] - h[0] * h[4]))
    return checks
