"""Exact computer-algebra kernel for vector fields on T*R^n.

Sparse multivariate polynomials are stored as integer-coefficient term
dictionaries together with a rational content factor, normalized so that the
integer coefficients have gcd 1 and positive leading (deglex) coefficient.
That makes the representation canonical: two polynomials are equal iff their
(content, terms) pairs are equal.

Each monomial of the term dictionary is one int, its exponent vector packed
one byte per field as [total degree | e_0 | e_1 | ... | e_{n-1}] with the
degree most significant (Monagan & Pearce, CASC 2007).  Int order is then
deglex order, the product of two monomials is the sum of their keys and a
quotient is a difference.  A total degree above 255 would carry into the
next field, so every result that reaches it raises DegreeOverflow.

Rational functions have one pole: every denominator the bracket calculus in
this package produces is a power of a single irreducible polynomial (h1 for
the Goursat family, h3 for the Cartan group).  A Rat is num / pole^e, stored
as exactly those three slots and reduced by exact division of num by the
pole, which keeps every value canonical without a general multivariate gcd.
A sum or product of two different poles raises ValueError.

Vector fields carry one rational-function coefficient per coordinate of
T*R^n ~ R^{2n} in canonical coordinates (x_1..x_n, p_1..p_n); the canonical
symplectic pairing is sigma = sum dp_i ^ dx_i, oriented so that sub-Riemannian
Hamilton equations come out in the standard form xdot = dH/dp, pdot = -dH/dx.
"""
from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import index

from .errors import DegreeOverflow, DimensionMismatch

_ZERO = Fraction(0)
_ONE = Fraction(1)
_TWO_POLES = "a rational function has one pole; got two different factors"


def _qgcd(a: Fraction, b: Fraction) -> Fraction:
    """gcd of two nonzero rationals: largest q with a/q, b/q integers."""
    return Fraction(gcd(a.numerator, b.numerator),
                    lcm(a.denominator, b.denominator))


def _degkey(exps):
    """Deglex sort key of an exponent tuple (the order of packed keys)."""
    return (sum(exps), exps)


# bits per field of a packed monomial; decoding reads one byte per field
_BITS = 8
_FIELD = (1 << _BITS) - 1
_OVERFLOW = f"total degree above {_FIELD} does not fit a packed monomial"


def _pack(exps):
    """Key of an exponent tuple (of ints, numpy ints included)."""
    exps = [index(k) for k in exps]
    if min(exps, default=0) < 0:
        raise ValueError(f"negative exponent in {exps!r}")
    key = sum(exps)
    if key > _FIELD:
        raise DegreeOverflow(_OVERFLOW)
    for k in exps:
        key = key << _BITS | k
    return key


def _low_fields(nvars):
    """Mask of the exponent fields of a key (all but the degree)."""
    return (1 << _BITS * nvars) - 1


def _unpack(key, nvars):
    """Exponents (e_0, .., e_{n-1}) of a key, as bytes."""
    return (key & _low_fields(nvars)).to_bytes(nvars, "big")


def _borrow_mask(nvars):
    """The lowest bit of each field above e_{n-1}.

    For keys a >= b, some field of a is below b's exactly when a - b
    borrows across a field boundary, that is when (a - b) ^ a ^ b has one
    of these bits set.
    """
    return ((1 << _BITS * (nvars + 1)) - 1) // _FIELD - 1


class Poly:
    """Sparse multivariate polynomial over Q, canonical form."""

    __slots__ = ("nvars", "terms", "content")

    def __init__(self, nvars, terms, content, normalized=False):
        self.nvars = nvars
        if normalized:
            self.terms = terms
            self.content = content
            return
        if content == 0 or not terms:
            self.terms = {}
            self.content = _ZERO
            return
        g = gcd(*terms.values())
        lead = max(terms)
        if lead >> _BITS * nvars > _FIELD:
            raise DegreeOverflow(_OVERFLOW)
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
        return cls(nvars, {0: 1}, value, normalized=True)

    @classmethod
    def variable(cls, nvars, i):
        if not 0 <= i < nvars:
            raise IndexError(f"variable {i} of {nvars}")
        key = 1 << _BITS * nvars | 1 << _BITS * (nvars - 1 - i)
        return cls(nvars, {key: 1}, _ONE, normalized=True)

    @classmethod
    def from_terms(cls, nvars, fraction_terms):
        """Build from {exponent tuple: Fraction-like coefficient}."""
        for e in fraction_terms:
            if len(e) != nvars:
                raise DimensionMismatch(f"exponent {e!r} for {nvars} variables")
        return cls._from_keys(nvars, {_pack(e): c
                                      for e, c in fraction_terms.items()})

    @classmethod
    def _from_keys(cls, nvars, fraction_terms):
        """Build from {packed key: Fraction-like coefficient}."""
        items = [(e, Fraction(c)) for e, c in fraction_terms.items() if c != 0]
        if not items:
            return cls.zero(nvars)
        den = lcm(*(c.denominator for _, c in items))
        terms = {e: int(c * den) for e, c in items}
        return cls(nvars, terms, Fraction(1, den))

    # -- basic queries -------------------------------------------------
    @property
    def is_zero(self):
        return not self.terms

    def monomials(self):
        """(exponent tuple, int coefficient) pairs in term order; the value
        is content times the sum of coefficient * monomial."""
        n = self.nvars
        return [(tuple(_unpack(e, n)), c) for e, c in self.terms.items()]

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.content == other.content and self.terms == other.terms

    def degree(self):
        if not self.terms:
            return -1
        return max(self.terms) >> _BITS * self.nvars

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
                e = ea + eb
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
        shift = _BITS * (self.nvars - 1 - i)
        # one fewer x_i and one less total degree
        step = (1 << shift) + (1 << _BITS * self.nvars)
        terms = {}
        for e, c in self.terms.items():
            k = e >> shift & _FIELD
            if k:
                terms[e - step] = c * k
        return Poly(self.nvars, terms, self.content)

    def eval(self, vals):
        if self.is_zero:
            return 0 * vals[0] if vals else _ZERO
        n = self.nvars
        low = _low_fields(n)
        # vals[i] ** k once per (i, k); the factors multiply in variable
        # order, so a float value depends on the polynomial alone
        powers = [{} for _ in range(n)]
        acc = 0
        for e, c in self.terms.items():
            m = c
            for i, k in enumerate((e & low).to_bytes(n, "big")):
                if k:
                    cache = powers[i]
                    v = cache.get(k)
                    if v is None:
                        v = cache[k] = vals[i] ** k
                    m = m * v
            acc += m
        return self.content * acc

    def pad(self, nvars):
        """Embed into a larger variable set (same leading indices)."""
        if nvars == self.nvars:
            return self
        # the new fields come in below e_{n-1}; the degree stays on top
        shift = _BITS * (nvars - self.nvars)
        terms = {e << shift: c for e, c in self.terms.items()}
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
        dlead = max(d.terms)
        dlc = d.terms[dlead]
        rest = [(e, c) for e, c in d.terms.items() if e != dlead]
        borrow = _borrow_mask(self.nvars)
        rem = dict(self.terms)
        # a min-heap of -key pops the deglex-largest monomial
        heap = [-e for e in rem]
        heapify(heap)
        quo = {}
        while heap:
            lt = -heappop(heap)
            c = rem.pop(lt, None)
            if c is None:
                # stale entry: the term cancelled, or was pushed twice
                continue
            qe = lt - dlead
            if qe < 0 or (qe ^ lt ^ dlead) & borrow:
                return None
            qc = Fraction(c, dlc)
            quo[qe] = qc
            # every product below is smaller than lt, so lt never returns
            for e, dc in rest:
                te = qe + e
                v = rem.get(te)
                if v is None:
                    rem[te] = -qc * dc
                    heappush(heap, -te)
                else:
                    v -= qc * dc
                    if v:
                        rem[te] = v
                    else:
                        del rem[te]
        q = Poly._from_keys(self.nvars, quo)
        return Poly(self.nvars, q.terms, q.content * ratio, normalized=True)

    def _div_monomial(self, dlead, ratio):
        """self / x^dlead, or None when some term lacks a factor of it."""
        borrow = _borrow_mask(self.nvars)
        for e in self.terms:
            if e < dlead or (e - dlead ^ e ^ dlead) & borrow:
                return None
        terms = {e - dlead: self.terms[e]
                 for e in sorted(self.terms, reverse=True)}
        return Poly(self.nvars, terms, ratio, normalized=True)

    # -- printing --------------------------------------------------------
    def to_str(self, names):
        if self.is_zero:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.content * self.terms[e]
            mono = "*".join(
                names[i] if k == 1 else f"{names[i]}^{k}"
                for i, k in enumerate(_unpack(e, self.nvars)) if k)
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
        for e in sorted(self.terms, reverse=True):
            c = float(self.content * self.terms[e])
            mono = "*".join(power(i, k)
                            for i, k in enumerate(_unpack(e, self.nvars)) if k)
            parts.append(f"{c!r}*{mono}" if mono else f"{c!r}")
        return " + ".join(parts)

    def __repr__(self):
        names = [f"v{i}" for i in range(self.nvars)]
        return f"Poly({self.to_str(names)})"


class Rat:
    """Rational function num / pole^e with at most one denominator factor.

    e >= 0.  A pole has content 1 and degree >= 1, and where e > 0 it does
    not divide num; any other pole, or none where e > 0, raises ValueError.
    Where e == 0 the pole is None.  That reduced form is unique, so equality
    compares the three slots.
    """

    __slots__ = ("num", "pole", "e")

    def __init__(self, num, pole=None, e=0):
        if e < 0:
            raise ValueError("negative power of the pole")
        if (e or pole is not None) and not (
                isinstance(pole, Poly) and pole.content == 1
                and pole.degree() > 0):
            raise ValueError(f"a pole has content 1 and degree >= 1; got {pole!r}")
        if not num.is_zero:
            while e > 0:
                q = num.exact_div(pole)
                if q is None:
                    break
                num = q
                e -= 1
        self.num = num
        if e and not num.is_zero:
            self.pole, self.e = pole, e
        else:
            self.pole, self.e = None, 0

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

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = Rat.of(other, self.num.nvars)
        if not isinstance(other, Rat):
            return NotImplemented
        return (self.e == other.e and self.num == other.num
                and self.pole == other.pole)

    # -- arithmetic --------------------------------------------------------
    def _pole(self, other):
        """The pole of a sum or product with other: other's pole object when
        both have one, as tests/reference_rat.py does, since the pole's term
        order reaches float eval."""
        if self.e and other.e and self.pole.terms != other.pole.terms:
            raise ValueError(_TWO_POLES)
        return other.pole if other.e else self.pole

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = Rat.of(other, self.num.nvars)
        if not isinstance(other, Rat):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        # bring both over the larger power of the pole
        pole = self._pole(other)
        e = max(self.e, other.e)
        n1, n2 = self.num, other.num
        if e > self.e:
            n1 = n1 * pole ** (e - self.e)
        if e > other.e:
            n2 = n2 * pole ** (e - other.e)
        return Rat(n1 + n2, pole, e)

    __radd__ = __add__

    def _scaled(self, num):
        """num over this pole; num is this numerator times a number, so the
        form stays reduced."""
        r = Rat.__new__(Rat)
        r.num = num
        r.pole, r.e = (self.pole, self.e) if not num.is_zero else (None, 0)
        return r

    def __neg__(self):
        return self._scaled(-self.num)

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
            return self._scaled(self.num * other)
        if isinstance(other, Poly):
            other = Rat(other)
        if not isinstance(other, Rat):
            return NotImplemented
        return Rat(self.num * other.num, self._pole(other), self.e + other.e)

    __rmul__ = __mul__

    def diff(self, i):
        if not self.e:
            return Rat(self.num.diff(i))
        # d(u / f^e) = (u' f - e u f') / f^{e+1}
        f, e = self.pole, self.e
        top = self.num.diff(i) * f - self.num * f.diff(i) * e
        return Rat(top, f, e + 1)

    def eval(self, vals):
        v = self.num.eval(vals)
        if self.e:
            v = v / self.pole.eval(vals) ** self.e
        return v

    def to_str(self, names):
        if not self.e:
            return self.num.to_str(names)
        f, e = self.pole, self.e
        s = f.to_str(names)
        s = f"({s})" if len(f.terms) > 1 else s
        return f"({self.num.to_str(names)})/({s if e == 1 else f'{s}^{e}'})"

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
