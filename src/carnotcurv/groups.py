"""Group models: the Goursat family J^n (n >= 3) and the Cartan group.

Each model is a concrete polynomial frame realization on R^n together with
the authoritative structure-constant table.  The realization is validated
against the table at build time by exact Lie brackets; for the Cartan group
the z-coefficient signs of X1/X2 are repaired to the unique unitriangular
realization reproducing the table (the commonly printed X2 does not bracket
to the printed X3; see README).

Covectors are points of T*R^n in canonical (base, p) coordinates with the
frame-fiber coordinates h_i = <lambda, X_i> derived through the frame matrix
A(base), A[i][j] = j-th coordinate of X_{i+1}.  At the origin A = I, so
there h = p.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import SingularFrame, UnsupportedGroup, RealizationMismatch
from .symfields import Poly, Rat, RatVecField
from .tolerances import UNIT_SPEED_TOL

_F = Fraction


def _mat_identity(n, nvars):
    return [[Poly.const(nvars, 1 if i == j else 0) for j in range(n)]
            for i in range(n)]


def _mat_mul(a, b):
    n, m, k = len(a), len(b[0]), len(b)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = Poly.zero(a[0][0].nvars)
            for l in range(k):
                acc = acc + a[i][l] * b[l][j]
            row.append(acc)
        out.append(row)
    return out


def _unitriangular_inverse(a):
    """Exact inverse of an upper unitriangular matrix, by back substitution:
    inv[i][j] = -sum_{i<k<=j} a[i][k] inv[k][j], bottom row first."""
    n = len(a)
    inv = _mat_identity(n, a[0][0].nvars)
    for j in range(n):
        for i in range(j - 1, -1, -1):
            acc = inv[i][j]
            for k in range(i + 1, j + 1):
                acc = acc - a[i][k] * inv[k][j]
            inv[i][j] = acc
    return inv


class GroupModel:
    """Immutable Carnot-group realization; build via build_group().

    Besides the realization, the model carries every fact that depends only
    on the family, so other modules read these instead of testing kind and
    dim:

    * pole_index (1-based) and has_pole: the pole coordinate is h1 in the
      Goursat family and h3 in the Cartan group; goursat:3 has no pole.
    * has_pendulum, energy(h), energy_factor: the Engel and Cartan vertical
      flows are a pendulum with energy E, and R11 <= energy_factor * E.
    * is_abnormal(h, tol): the abnormality test, decided at t = 0.
    * growth_regular, growth_at_pole, growth_abnormal: the growth vectors
      off the pole, at it, and of an abnormal geodesic.
    * w_coefficients(h): the seed field W of the canonical frame.
    * invariant_cols: the 0-based fiber columns the flow conserves.
    * circle(theta), chart_axes, h_from_chart, chart_from_h: the chart
      convention and its inverse.
    * default_max_order: the bracket order the rank oracle goes up to.

    memo(build, *args) holds the objects derived from the model (bracket
    algebras, compiled flow, oracle chains and tables), each built once.
    """

    def __init__(self, kind, dim, strata, base_names, a_base, a_inv_base,
                 structure, spec_string):
        goursat = kind == "goursat"
        self.kind = kind
        self.dim = dim
        self.rank = 2
        self.strata = tuple(strata)
        self.step = len(strata)
        self.base_names = tuple(base_names)
        self.var_names = tuple(base_names) + tuple("p_" + s for s in base_names)
        self.a_base = tuple(tuple(row) for row in a_base)
        self.a_inv_base = tuple(tuple(row) for row in a_inv_base)
        self.structure = dict(structure)
        self.spec_string = spec_string
        self.young = (dim - 1, 1) if goursat else (4, 1)
        self.pole_index = 1 if goursat else 3
        self.has_pole = not (goursat and dim == 3)
        self.has_pendulum = not goursat or dim == 4
        self.energy_factor = (4 if goursat else 6) if self.has_pendulum else None
        self.invariant_cols = (dim - 1,) if goursat else (3, 4)
        self.default_max_order = max(2 * dim - 3, dim) if goursat else 6
        self.growth_regular = tuple(range(2, dim + 1))
        # (2,3,3,4,4,..,n) at h1 = 0
        self.growth_at_pole = ((2,) + sum(((j, j) for j in range(3, dim)), ())
                               + (dim,) if goursat else (2, 3, 4, 4, 5))
        self.growth_abnormal = (2, 3) if goursat else (2, 3, 4)
        self.circle = _goursat_circle if goursat else _cartan_circle
        self.chart_axes = self.h_from_chart = self.chart_from_h = None
        if self.has_pendulum and goursat:
            self.chart_axes = ("theta", "c", "alpha")
            self.h_from_chart = engel_h_from_chart
            self.chart_from_h = engel_chart_from_h
        elif self.has_pendulum:
            self.chart_axes = ("theta", "c", "alpha", "beta")
            self.h_from_chart = cartan_h_from_chart
            self.chart_from_h = cartan_chart_from_h
        self._memo = {}

    def energy(self, h):
        """Pendulum energy E = h3^2/2 + h1 h5 - h2 h4 (Cartan), h3^2/2 - h2 h4
        (Engel); defined where has_pendulum.

        h may hold exact rationals, floats, or numpy columns (pass h.T for
        an array of h rows).
        """
        e = h[2] * h[2] / 2
        if self.kind == "cartan":
            e = e + h[0] * h[4]
        return e - h[1] * h[3]

    def is_abnormal(self, h, tol):
        """True where the geodesic with fiber point h is abnormal: h1 = h3 = 0
        (Goursat) or h3 = h1 h4 + h2 h5 = 0 (Cartan), each zero meaning at
        most tol in size (tol = 0 is the exact test).  goursat:3 has none.
        """
        if not self.has_pole or abs(h[2]) > tol:
            return False
        if self.kind == "goursat":
            return abs(h[0]) <= tol
        return abs(h[0] * h[3] + h[1] * h[4]) <= tol

    def w_coefficients(self, h):
        """W on the d/dh basis as {0-based index: Rat}, from the fiber
        functions h (Polys): h1^(2 - n_a) d/dh_n (Goursat) or
        (h2 d/dh4 - h1 d/dh5) / h3 (Cartan)."""
        pole = h[self.pole_index - 1]
        if self.kind == "goursat":
            one = Poly.const(pole.nvars, 1)
            return {self.dim - 1: Rat(one, pole, self.young[0] - 2)}
        return {3: Rat(h[1], pole, 1), 4: Rat(-h[0], pole, 1)}

    def memo(self, build, *args):
        """build(self, *args), computed on first use and kept for the
        model's life; one entry per builder and arguments."""
        key = (build,) + args
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build(self, *args)
        return value

    # frame fields as base vector fields (n components over n variables)
    def frame_field(self, i):
        """X_i (1-based) as a vector field on the base R^n."""
        return RatVecField([Rat(p) for p in self.a_base[i - 1]])

    def c(self, i, j):
        """Structure constants of [X_i, X_j] as {k: coefficient} (1-based)."""
        if (i, j) in self.structure:
            return dict(self.structure[(i, j)])
        if (j, i) in self.structure:
            return {k: -v for k, v in self.structure[(j, i)].items()}
        return {}

    def __repr__(self):
        return f"GroupModel({self.spec_string})"


@functools.lru_cache(maxsize=None)
def parse_group_spec(spec):
    """Parse 'goursat:<n>' | 'cartan' into (kind, n).

    A goursat:n whose frame's top power x^(n-2) is past the exact kernel's
    degree limit raises DegreeOverflow here, before any model work; the
    power is taken in one variable, so the probe's size does not grow
    with n.
    """
    s = spec.strip().lower()
    if s == "cartan":
        return ("cartan", 5)
    if s.startswith("goursat:"):
        try:
            n = int(s.split(":", 1)[1])
        except ValueError:
            raise UnsupportedGroup(f"unsupported group: {spec!r}") from None
        if n < 3:
            raise UnsupportedGroup(f"unsupported group: goursat requires n >= 3, got {n}")
        Poly.variable(1, 0) ** (n - 2)      # raises past the limit
        return ("goursat", n)
    raise UnsupportedGroup(f"unsupported group: {spec!r}")


def _goursat_a_base(n):
    # rows X_1..X_n over base coordinates (x, y0, .., y_{n-2})
    a = [[Poly.zero(n) for _ in range(n)] for _ in range(n)]
    a[0][0] = Poly.const(n, 1)
    x = Poly.variable(n, 0)
    for i in range(0, n - 1):          # X_{i+2}
        for j in range(i, n - 1):      # coordinate y_j = column j+1
            a[i + 1][j + 1] = x ** (j - i) * _F(1, math.factorial(j - i))
    return a


def _cartan_a_base(s1, s2):
    # rows X_1..X_5 over (x, y, z, v, w); s1, s2 flip the z-coefficients
    n = 5
    x = Poly.variable(n, 0)
    y = Poly.variable(n, 1)
    one = Poly.const(n, 1)
    sq = (x * x + y * y) * _F(1, 2)
    z1 = y * _F(-s1, 2)
    z2 = x * _F(-s2, 2)
    zero = Poly.zero(n)
    return [
        [one, zero, z1, zero, -sq],
        [zero, one, z2, sq, zero],
        [zero, zero, one, x, y],
        [zero, zero, zero, one, zero],
        [zero, zero, zero, zero, one],
    ]


def _goursat_structure(n):
    return {(1, i): {i + 1: _F(1)} for i in range(2, n)}


_CARTAN_STRUCTURE = {(1, 2): {3: _F(1)}, (1, 3): {4: _F(1)}, (2, 3): {5: _F(1)}}


def validate_realization(a_base, structure):
    """Exact check that frame brackets reproduce the structure table.

    Returns a list of (i, j) pairs (1-based) whose bracket disagrees.
    """
    n = len(a_base)
    fields = [RatVecField([Rat(p) for p in row]) for row in a_base]
    bad = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            want = RatVecField.zero(n)
            cij = structure.get((i, j), {})
            for k, coef in cij.items():
                want = want + fields[k - 1].smul(coef)
            if fields[i - 1].bracket(fields[j - 1]) != want:
                bad.append((i, j))
    return bad


# candidate z-sign repairs for the Cartan realization, printed signs first
_CARTAN_SIGN_CANDIDATES = ((1, 1), (1, -1), (-1, 1), (-1, -1))

_MODEL_CACHE = {}


def build_group(spec):
    """Build (and cache) a validated group model from its spec string."""
    kind, n = parse_group_spec(spec)
    key = f"goursat:{n}" if kind == "goursat" else "cartan"
    model = _MODEL_CACHE.get(key)
    if model is not None:
        return model

    if kind == "goursat":
        a = _goursat_a_base(n)
        structure = _goursat_structure(n)
        if validate_realization(a, structure):
            raise RealizationMismatch("goursat realization failed validation")
        names = ["x"] + [f"y{j}" for j in range(n - 1)]
        strata = [2] + [1] * (n - 2)
    else:
        a = None
        for s1, s2 in _CARTAN_SIGN_CANDIDATES:
            cand = _cartan_a_base(s1, s2)
            if not validate_realization(cand, _CARTAN_STRUCTURE):
                a = cand
                break
        if a is None:
            raise RealizationMismatch(
                "cartan realization: no z-sign choice reproduces the bracket table")
        structure = _CARTAN_STRUCTURE
        names = ["x", "y", "z", "v", "w"]
        strata = [2, 1, 2]
    # proved here as a polynomial identity, A A^-1 = I holds at every base
    # point, so fiber_transform evaluates both matrices without a check;
    # A(0) = I, so a covector at the origin has p = h (Covector.from_h)
    ainv = _unitriangular_inverse(a)
    if _mat_mul(a, ainv) != _mat_identity(n, n):
        raise SingularFrame("frame matrix inverse check failed")
    origin = (0,) * n
    if [[f.eval(origin) for f in row] for row in a] != [
            [int(i == j) for j in range(n)] for i in range(n)]:
        raise SingularFrame("frame matrix is not the identity at the origin")
    model = GroupModel(kind, n, strata, names, a, ainv, structure, key)
    _MODEL_CACHE[key] = model
    return model


def is_exact_seq(vals):
    return all(isinstance(v, (int, Fraction)) for v in vals)


def fiber_transform(model, base):
    """Frame matrix A(base) and its inverse as nested tuples.

    Exact when the base point is rational; float otherwise.  Rows of A are
    the frame fields' coordinate expressions at the base point.
    """
    base = tuple(base)
    if len(base) != model.dim:
        raise SingularFrame(f"base point must have dim {model.dim}")
    if is_exact_seq(base):
        base = tuple(Fraction(v) for v in base)
    a = tuple(tuple(p.eval(base) for p in row) for row in model.a_base)
    ainv = tuple(tuple(p.eval(base) for p in row) for row in model.a_inv_base)
    return a, ainv


def _mat_apply(m, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


class Covector:
    """Point of T*R^n with canonical (base, p) and derived h coordinates.

    Exact mode (all entries int/Fraction) keeps every derived quantity in
    exact rationals; float mode uses machine floats.  h is p at the origin
    (from_h, and as_float of an origin covector) and A(base) p elsewhere,
    through fiber_transform on first use.  Instances are immutable value
    objects.
    """

    __slots__ = ("model", "base", "p", "exact", "_h")

    def __init__(self, model, base, p):
        base = tuple(base)
        p = tuple(p)
        if len(base) != model.dim or len(p) != model.dim:
            raise SingularFrame(f"covector needs {model.dim} base and p entries")
        exact = is_exact_seq(base) and is_exact_seq(p)
        if exact:
            base = tuple(Fraction(v) for v in base)
            p = tuple(Fraction(v) for v in p)
        else:
            base = tuple(float(v) for v in base)
            p = tuple(float(v) for v in p)
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "_h", None)

    def __setattr__(self, name, value):
        raise AttributeError("Covector is immutable")

    @classmethod
    def from_h(cls, model, h):
        """Build at the origin from frame-fiber coordinates h, where p = h.

        Float entries are stored as 0.0 + v, so -0.0 becomes 0.0; a
        non-finite entry stays in its slot.
        """
        h = tuple(h)
        if len(h) != model.dim:
            raise SingularFrame(f"h must have {model.dim} entries")
        if not is_exact_seq(h):
            h = tuple(0.0 + float(v) for v in h)
        cov = cls(model, (0,) * model.dim, h)
        object.__setattr__(cov, "_h", cov.p)
        return cov

    @property
    def h(self):
        if self._h is None:
            a, _ = fiber_transform(self.model, self.base)
            object.__setattr__(self, "_h", _mat_apply(a, self.p))
        return self._h

    @property
    def H(self):
        h = self.h
        return (h[0] * h[0] + h[1] * h[1]) / 2

    def xp(self):
        return self.base + self.p

    def as_float(self):
        if not self.exact:
            return self
        if not any(self.base):
            return Covector.from_h(self.model, map(float, self.p))
        return Covector(self.model, tuple(map(float, self.base)),
                        tuple(map(float, self.p)))

    def is_unit_speed(self):
        if self.exact:
            return 2 * self.H == 1
        return abs(2 * self.H - 1) <= UNIT_SPEED_TOL

    def __repr__(self):
        return (f"Covector({self.model.spec_string}, base={self.base}, "
                f"h={self.h})")


def _goursat_circle(theta):
    return (-math.sin(theta), math.cos(theta))


def _cartan_circle(theta):
    return (math.cos(theta), math.sin(theta))


def engel_h_from_chart(theta, c, alpha):
    """h-components for the Engel chart (theta, c, alpha) on {H = 1/2}."""
    return _goursat_circle(theta) + (c, alpha)


def cartan_h_from_chart(theta, c, alpha, beta):
    """h-components for the Cartan chart (theta, c, alpha, beta) on {H = 1/2}."""
    return _cartan_circle(theta) + (c, alpha * math.sin(beta),
                                    -alpha * math.cos(beta))


def engel_chart_from_h(h):
    """The Engel chart (theta, c, alpha) of float h-components."""
    return math.atan2(-h[0], h[1]), h[2], h[3]


def cartan_chart_from_h(h):
    """The Cartan chart (theta, c, alpha, beta) of float h-components, with
    alpha >= 0; beta is defined where alpha > 0."""
    return (math.atan2(h[1], h[0]), h[2], math.hypot(h[3], h[4]),
            math.atan2(h[3], -h[4]))
