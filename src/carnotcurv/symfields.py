"""Exact computer-algebra kernel for vector fields on T*R^n.

Sparse multivariate polynomials are stored as integer-coefficient term
dictionaries together with a rational content factor, normalized so that the
integer coefficients have gcd 1 and positive leading (deglex) coefficient.
That makes the representation canonical: two polynomials are equal iff their
(content, terms) pairs are equal.

Rational functions keep the denominator in factored form and reduce by exact
polynomial division against each factor.  All denominators produced by the
bracket calculus in this package are powers of a single irreducible pole
polynomial (h1 for the Goursat family, h3 for the Cartan group), so this
reduction keeps every reachable value canonical without a general
multivariate gcd.

Vector fields carry one rational-function coefficient per coordinate of
T*R^n ~ R^{2n} in canonical coordinates (x_1..x_n, p_1..p_n); the canonical
symplectic pairing is sigma = sum dp_i ^ dx_i, oriented so that sub-Riemannian
Hamilton equations come out in the standard form xdot = dH/dp, pdot = -dH/dx.
"""
from __future__ import annotations

from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from math import gcd
from operator import add, sub

from .errors import DimensionMismatch

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


def _qgcd(a: Fraction, b: Fraction) -> Fraction:
    """gcd on rationals: largest q with a/q, b/q integers."""
    if a == 0:
        return abs(b)
    if b == 0:
        return abs(a)
    return Fraction(gcd(a.numerator, b.numerator),
                    _lcm(a.denominator, b.denominator))


def _degkey(exps):
    return (sum(exps), exps)


class Poly:
    """Sparse multivariate polynomial over Q, canonical form."""

    __slots__ = ("nvars", "terms", "content", "_k")

    def __init__(self, nvars, terms, content, normalized=False):
        self.nvars = nvars
        self._k = None
        if normalized:
            self.terms = terms
            self.content = content
            return
        if content == 0 or not terms:
            self.terms = {}
            self.content = _ZERO
            return
        g = reduce(gcd, (abs(c) for c in terms.values()))
        lead = max(terms, key=_degkey)
        if terms[lead] < 0:
            g = -g
        if g != 1:
            terms = {e: c // g for e, c in terms.items()}
        self.terms = terms
        self.content = content * g

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {}, _ZERO, normalized=True)

    @classmethod
    def const(cls, nvars, value):
        value = Fraction(value)
        if value == 0:
            return cls.zero(nvars)
        return cls(nvars, {(0,) * nvars: 1}, value, normalized=True)

    @classmethod
    def variable(cls, nvars, i):
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): 1}, _ONE, normalized=True)

    @classmethod
    def from_terms(cls, nvars, fraction_terms):
        """Build from {exponent tuple: Fraction-like coefficient}."""
        items = [(e, Fraction(c)) for e, c in fraction_terms.items() if c != 0]
        if not items:
            return cls.zero(nvars)
        den = reduce(_lcm, (c.denominator for _, c in items))
        terms = {e: int(c * den) for e, c in items}
        return cls(nvars, terms, Fraction(1, den))

    # -- basic queries -------------------------------------------------
    @property
    def is_zero(self):
        return not self.terms

    def key(self):
        if self._k is None:
            self._k = (self.content, tuple(sorted(self.terms.items())))
        return self._k

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.content == other.content and self.terms == other.terms

    def __hash__(self):
        return hash(self.key())

    def degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    # -- arithmetic ----------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.nvars, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.nvars != self.nvars:
            raise DimensionMismatch("polynomial variable counts differ")
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        g = _qgcd(self.content, other.content)
        m1 = int(self.content / g)
        m2 = int(other.content / g)
        terms = {e: c * m1 for e, c in self.terms.items()}
        for e, c in other.terms.items():
            v = terms.get(e, 0) + c * m2
            if v:
                terms[e] = v
            elif e in terms:
                del terms[e]
        return Poly(self.nvars, terms, g)

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero:
            return self
        return Poly(self.nvars, self.terms, -self.content, normalized=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0 or self.is_zero:
                return Poly.zero(self.nvars)
            return Poly(self.nvars, self.terms, self.content * Fraction(other),
                        normalized=True)
        if not isinstance(other, Poly):
            return NotImplemented
        if other.nvars != self.nvars:
            raise DimensionMismatch("polynomial variable counts differ")
        if self.is_zero or other.is_zero:
            return Poly.zero(self.nvars)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(i + j for i, j in zip(ea, eb))
                v = out.get(e, 0) + ca * cb
                if v:
                    out[e] = v
                elif e in out:
                    del out[e]
        return Poly(self.nvars, out, self.content * other.content)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power on Poly; use Rat")
        result = Poly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def diff(self, i):
        if self.is_zero:
            return self
        terms = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                terms[tuple(ne)] = c * e[i]
        return Poly(self.nvars, terms, self.content)

    def eval(self, vals):
        if self.is_zero:
            return 0 * vals[0] if vals else _ZERO
        powers = [{} for _ in range(self.nvars)]

        def pw(i, k):
            cache = powers[i]
            v = cache.get(k)
            if v is None:
                v = vals[i] ** k
                cache[k] = v
            return v

        acc = 0
        for e, c in self.terms.items():
            m = c
            for i, k in enumerate(e):
                if k:
                    m = m * pw(i, k)
            acc += m
        return self.content * acc

    def pad(self, nvars):
        """Embed into a larger variable set (same leading indices)."""
        if nvars == self.nvars:
            return self
        extra = (0,) * (nvars - self.nvars)
        terms = {e + extra: c for e, c in self.terms.items()}
        return Poly(nvars, terms, self.content, normalized=True)

    def exact_div(self, d):
        """Return self / d if the division is exact, else None.

        The quotient's terms come out in descending deglex order (float
        evaluation sums them in that order).  Dividing by a one-term divisor
        only shifts exponents.  Otherwise the remainder's monomials sit in a
        heap, so each quotient term finds the leading one by a pop rather
        than by a scan of the whole remainder (Johnson 1974; Monagan &
        Pearce, CASC 2007).
        """
        if d.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero:
            return self
        ratio = Fraction(self.content / d.content)
        if len(d.terms) == 1:
            ((dlead, dlc),) = d.terms.items()
            return self._div_monomial(dlead, ratio / dlc)
        dlead = max(d.terms, key=_degkey)
        dlc = d.terms[dlead]
        rest = [(e, c) for e, c in d.terms.items() if e != dlead]
        rem = dict(self.terms)
        heap = [(-sum(e), tuple(-k for k in e), e) for e in rem]
        heapify(heap)
        quo = {}
        while heap:
            lt = heappop(heap)[2]
            c = rem.pop(lt, None)
            if c is None:
                # stale entry: the term cancelled, or was pushed twice
                continue
            qe = tuple(map(sub, lt, dlead))
            if min(qe) < 0:
                return None
            qc = Fraction(c, dlc)
            quo[qe] = qc
            # every product below is smaller than lt, so lt never returns
            for e, dc in rest:
                te = tuple(map(add, qe, e))
                v = rem.get(te)
                if v is None:
                    rem[te] = -qc * dc
                    heappush(heap, (-sum(te), tuple(-k for k in te), te))
                else:
                    v -= qc * dc
                    if v:
                        rem[te] = v
                    else:
                        del rem[te]
        q = Poly.from_terms(self.nvars, quo)
        return Poly(self.nvars, q.terms, q.content * ratio, normalized=True)

    def _div_monomial(self, dlead, ratio):
        """self / x^dlead, or None when some term lacks a factor of it."""
        need = [(i, k) for i, k in enumerate(dlead) if k]
        for e in self.terms:
            for i, k in need:
                if e[i] < k:
                    return None
        terms = {tuple(map(sub, e, dlead)): self.terms[e]
                 for e in sorted(self.terms, key=_degkey, reverse=True)}
        return Poly(self.nvars, terms, ratio, normalized=True)

    # -- printing --------------------------------------------------------
    def to_str(self, names):
        if self.is_zero:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_degkey, reverse=True):
            c = self.content * self.terms[e]
            mono = "*".join(
                names[i] if k == 1 else f"{names[i]}^{k}"
                for i, k in enumerate(e) if k)
            if mono:
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
            else:
                parts.append(str(c))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def to_pyexpr(self, power):
        """Python source expression with float coefficients (for codegen).

        power(i, k) is the source text of variable i to the power k >= 1.
        Terms come in descending deglex order, each as the coefficient times
        its factors in variable order, so the float evaluation order is
        fixed by the polynomial alone.
        """
        if self.is_zero:
            return "0.0"
        parts = []
        for e in sorted(self.terms, key=_degkey, reverse=True):
            c = float(self.content * self.terms[e])
            mono = "*".join(power(i, k) for i, k in enumerate(e) if k)
            parts.append(f"{c!r}*{mono}" if mono else f"{c!r}")
        return " + ".join(parts)

    def __repr__(self):
        names = [f"v{i}" for i in range(self.nvars)]
        return f"Poly({self.to_str(names)})"


class Rat:
    """Rational function num / prod(factor^mult) with factored denominator."""

    __slots__ = ("num", "den", "_dx")

    def __init__(self, num, den=()):
        self._dx = None
        factors = {}
        scale = _ONE
        for f, e in den:
            if e == 0:
                continue
            if f.is_zero:
                raise ZeroDivisionError("zero denominator factor")
            if f.content != 1:
                scale *= f.content ** e
                f = Poly(f.nvars, f.terms, _ONE, normalized=True)
            k = f.key()
            if k in factors:
                factors[k] = (f, factors[k][1] + e)
            else:
                factors[k] = (f, e)
        if scale != 1:
            num = num * (_ONE / scale)
        if num.is_zero:
            self.num = num
            self.den = ()
            return
        # constant factors fold into the numerator content
        den_list = []
        for f, e in factors.values():
            if f.degree() == 0:
                num = num * (_ONE / (f.content ** e))
            else:
                den_list.append((f, e))
        out = []
        for f, e in den_list:
            while e > 0:
                q = num.exact_div(f)
                if q is None:
                    break
                num = q
                e -= 1
            if e:
                out.append((f, e))
        self.num = num
        self.den = tuple(sorted(out, key=lambda fe: fe[0].key()))

    # -- constructors ----------------------------------------------------
    @classmethod
    def of(cls, value, nvars=None):
        if isinstance(value, Rat):
            return value
        if isinstance(value, Poly):
            return cls(value)
        return cls(Poly.const(nvars, value))

    @classmethod
    def zero(cls, nvars):
        return cls(Poly.zero(nvars))

    # -- queries ---------------------------------------------------------
    @property
    def nvars(self):
        return self.num.nvars

    @property
    def is_zero(self):
        return self.num.is_zero

    def den_expanded(self):
        if self._dx is None:
            d = Poly.const(self.num.nvars, 1)
            for f, e in self.den:
                d = d * f ** e
            self._dx = d
        return self._dx

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = Rat.of(other, self.num.nvars)
        if not isinstance(other, Rat):
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        return self.num * other.den_expanded() == other.num * self.den_expanded()

    def __hash__(self):
        raise TypeError("Rat is unhashable")

    # -- arithmetic --------------------------------------------------------
    def _merge_den(self, other):
        mine = {f.key(): (f, e) for f, e in self.den}
        out = dict(mine)
        for f, e in other.den:
            k = f.key()
            if k in out:
                out[k] = (f, max(out[k][1], e))
            else:
                out[k] = (f, e)
        return out

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = Rat.of(other, self.num.nvars)
        if not isinstance(other, Rat):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        union = self._merge_den(other)
        mine = {f.key(): e for f, e in self.den}
        theirs = {f.key(): e for f, e in other.den}
        n1, n2 = self.num, other.num
        for k, (f, e) in union.items():
            d1 = e - mine.get(k, 0)
            d2 = e - theirs.get(k, 0)
            if d1:
                n1 = n1 * f ** d1
            if d2:
                n2 = n2 * f ** d2
        return Rat(n1 + n2, tuple(union.values()))

    __radd__ = __add__

    def __neg__(self):
        r = Rat.__new__(Rat)
        r.num = -self.num
        r.den = self.den
        r._dx = self._dx
        return r

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = Rat.of(other, self.num.nvars)
        if not isinstance(other, Rat):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            r = Rat.__new__(Rat)
            r.num = self.num * other
            r.den = self.den if not r.num.is_zero else ()
            r._dx = None
            return r
        if isinstance(other, Poly):
            other = Rat(other)
        if not isinstance(other, Rat):
            return NotImplemented
        return Rat(self.num * other.num, self.den + other.den)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero rational function")
        c = self.num.content
        n = Poly(self.num.nvars, self.num.terms, _ONE, normalized=True)
        new_num = self.den_expanded() * (_ONE / c)
        if n.degree() == 0:
            return Rat(new_num)
        return Rat(new_num, ((n, 1),))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = Rat.of(other, self.num.nvars)
        if not isinstance(other, Rat):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return Rat.of(other, self.num.nvars) * self.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        r = Rat.of(1, self.num.nvars)
        for _ in range(k):
            r = r * self
        return r

    def diff(self, i):
        # d(u / prod f^e) = (u' prod f - u sum e_j f_j' prod_{k!=j} f_k)
        #                   / prod f^{e+1}
        if not self.den:
            return Rat(self.num.diff(i))
        fprod = Poly.const(self.num.nvars, 1)
        for f, _ in self.den:
            fprod = fprod * f
        top = self.num.diff(i) * fprod
        for j, (f, e) in enumerate(self.den):
            rest = Poly.const(self.num.nvars, 1)
            for k, (g, _) in enumerate(self.den):
                if k != j:
                    rest = rest * g
            top = top - self.num * (f.diff(i) * rest) * e
        den = tuple((f, e + 1) for f, e in self.den)
        return Rat(top, den)

    def eval(self, vals):
        v = self.num.eval(vals)
        for f, e in self.den:
            v = v / f.eval(vals) ** e
        return v

    def to_str(self, names):
        if not self.den:
            return self.num.to_str(names)
        dparts = []
        for f, e in self.den:
            s = f.to_str(names)
            s = f"({s})" if (len(f.terms) > 1 or f.content != 1) else s
            dparts.append(s if e == 1 else f"{s}^{e}")
        return f"({self.num.to_str(names)})/({'*'.join(dparts)})"

    def __repr__(self):
        names = [f"v{i}" for i in range(self.num.nvars)]
        return f"Rat({self.to_str(names)})"


class RatVecField:
    """Vector field on R^m with rational-function components."""

    __slots__ = ("nvars", "comps")

    def __init__(self, comps):
        comps = tuple(comps)
        self.comps = comps
        self.nvars = comps[0].nvars
        if any(c.nvars != self.nvars for c in comps):
            raise DimensionMismatch("mixed variable counts in field components")
        if len(comps) != self.nvars:
            raise DimensionMismatch("field must have one component per variable")

    @classmethod
    def zero(cls, nvars):
        z = Rat.zero(nvars)
        return cls([z] * nvars)

    @classmethod
    def basis(cls, nvars, i):
        comps = [Rat.zero(nvars) for _ in range(nvars)]
        comps[i] = Rat.of(1, nvars)
        return cls(comps)

    @property
    def is_zero(self):
        return all(c.is_zero for c in self.comps)

    def __eq__(self, other):
        if not isinstance(other, RatVecField):
            return NotImplemented
        return all(a == b for a, b in zip(self.comps, other.comps))

    def __add__(self, other):
        if not isinstance(other, RatVecField):
            return NotImplemented
        if other.nvars != self.nvars:
            raise DimensionMismatch("field dimensions differ")
        return RatVecField([a + b for a, b in zip(self.comps, other.comps)])

    def __sub__(self, other):
        if not isinstance(other, RatVecField):
            return NotImplemented
        return RatVecField([a - b for a, b in zip(self.comps, other.comps)])

    def __neg__(self):
        return RatVecField([-a for a in self.comps])

    def smul(self, s):
        """Multiply by a scalar (number, Poly, or Rat)."""
        if isinstance(s, Poly):
            s = Rat(s)
        if isinstance(s, Rat):
            return RatVecField([s * c for c in self.comps])
        return RatVecField([c * s for c in self.comps])

    def apply(self, f):
        """Directional derivative of a scalar Rat along the field."""
        out = Rat.zero(self.nvars)
        for l, vl in enumerate(self.comps):
            if vl.is_zero:
                continue
            out = out + vl * f.diff(l)
        return out

    def bracket(self, other):
        """Lie bracket [self, other] = D(other)*self - D(self)*other."""
        if other.nvars != self.nvars:
            raise DimensionMismatch("field dimensions differ")
        out = []
        for m in range(self.nvars):
            acc = Rat.zero(self.nvars)
            wm = other.comps[m]
            vm = self.comps[m]
            for l in range(self.nvars):
                vl = self.comps[l]
                wl = other.comps[l]
                if not vl.is_zero:
                    acc = acc + vl * wm.diff(l)
                if not wl.is_zero:
                    acc = acc - wl * vm.diff(l)
            out.append(acc)
        return RatVecField(out)

    def eval(self, vals):
        return tuple(c.eval(vals) for c in self.comps)

    def dumps(self, names):
        """Deterministic plain-text dump, one line per nonzero component."""
        lines = []
        for i, c in enumerate(self.comps):
            if not c.is_zero:
                lines.append(f"d/d{names[i]}: {c.to_str(names)}")
        return "\n".join(lines) if lines else "0"

    def __repr__(self):
        names = [f"v{i}" for i in range(self.nvars)]
        return f"RatVecField(\n{self.dumps(names)}\n)"


def lie_bracket(v, w):
    """Lie bracket of two fields (module-level convenience)."""
    return v.bracket(w)


def sigma_pair(v, w):
    """Canonical symplectic pairing sum_i (v_p[i] w_x[i] - w_p[i] v_x[i]).

    Arguments are length-2n sequences of numbers (or anything supporting
    ring arithmetic) in canonical (x, p) ordering.
    """
    if len(v) != len(w) or len(v) % 2:
        raise DimensionMismatch("sigma needs two tangent vectors of equal even dim")
    n = len(v) // 2
    acc = 0
    for i in range(n):
        acc += v[n + i] * w[i] - w[n + i] * v[i]
    return acc


def sigma_pair_fields(v, w):
    """Symplectic pairing of two fields as a Rat-valued function."""
    if v.nvars != w.nvars or v.nvars % 2:
        raise DimensionMismatch("sigma needs fields on T*R^n")
    n = v.nvars // 2
    acc = Rat.zero(v.nvars)
    for i in range(n):
        acc = acc + v.comps[n + i] * w.comps[i] - w.comps[n + i] * v.comps[i]
    return acc
