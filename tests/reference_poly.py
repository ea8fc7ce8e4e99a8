"""Reference polynomial kernel: the original tuple-key Poly operations.

Kept unchanged as the oracle that the tests compare the packed-key Poly
against.  Each monomial is a tuple of exponents, a product adds the tuples
field by field, and deglex order is the sort key (total degree, exponents).
RefPoly.from_terms builds from the same {exponent tuple: coefficient}
dictionary as Poly.from_terms.

packed_add, packed_mul and packed_pow are the packed-key Poly loops as they
were before the one-term and unit-multiplier shortcuts: every product by
the double loop, every sum with both operands rescaled term by term.
"""
from fractions import Fraction
from functools import reduce
from math import gcd

from carnotcurv.symfields import Poly, _qgcd

_ZERO = Fraction(0)


def _degkey(exps):
    """Deglex sort key of an exponent tuple (the order of packed keys)."""
    return (sum(exps), exps)


def _qgcd(a, b):
    """gcd on nonzero rationals: largest q with a/q, b/q integers."""
    den = a.denominator // gcd(a.denominator, b.denominator) * b.denominator
    return Fraction(gcd(a.numerator, b.numerator), den)


class RefPoly:
    """Sparse polynomial over Q: {exponent tuple: int} times a content."""

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
        g = reduce(gcd, (abs(c) for c in terms.values()))
        lead = max(terms, key=_degkey)
        if terms[lead] < 0:
            g = -g
        if g != 1:
            terms = {e: c // g for e, c in terms.items()}
        self.terms = terms
        self.content = content * g

    @classmethod
    def from_terms(cls, nvars, fraction_terms):
        items = [(e, Fraction(c)) for e, c in fraction_terms.items() if c != 0]
        if not items:
            return cls(nvars, {}, _ZERO, normalized=True)
        den = reduce(lambda a, b: a // gcd(a, b) * b,
                     (c.denominator for _, c in items))
        terms = {e: int(c * den) for e, c in items}
        return cls(nvars, terms, Fraction(1, den))

    @property
    def is_zero(self):
        return not self.terms

    def __add__(self, other):
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
        return RefPoly(self.nvars, terms, g)

    def __mul__(self, other):
        if self.is_zero or other.is_zero:
            return RefPoly(self.nvars, {}, _ZERO, normalized=True)
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
        return RefPoly(self.nvars, out, self.content * other.content)

    def diff(self, i):
        if self.is_zero:
            return self
        terms = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                terms[tuple(ne)] = c * e[i]
        return RefPoly(self.nvars, terms, self.content)

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
        if nvars == self.nvars:
            return self
        extra = (0,) * (nvars - self.nvars)
        terms = {e + extra: c for e, c in self.terms.items()}
        return RefPoly(nvars, terms, self.content, normalized=True)

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
        if self.is_zero:
            return "0.0"
        parts = []
        for e in sorted(self.terms, key=_degkey, reverse=True):
            c = float(self.content * self.terms[e])
            mono = "*".join(power(i, k) for i, k in enumerate(e) if k)
            parts.append(f"{c!r}*{mono}" if mono else f"{c!r}")
        return " + ".join(parts)


def packed_add(a, b):
    """a + b for two nonzero packed-key Polys, each term rescaled."""
    g = _qgcd(a.content, b.content)
    m1 = int(a.content / g)
    m2 = int(b.content / g)
    terms = {e: c * m1 for e, c in a.terms.items()}
    for e, c in b.terms.items():
        v = terms.get(e, 0) + c * m2
        if v:
            terms[e] = v
        elif e in terms:
            del terms[e]
    return Poly(a.nvars, terms, g)


def packed_mul(a, b):
    """a * b for two nonzero packed-key Polys by the double loop."""
    x, y = a.terms, b.terms
    if len(x) > len(y):
        x, y = y, x
    out = {}
    for ex, cx in x.items():
        for ey, cy in y.items():
            e = ex + ey
            v = out.get(e, 0) + cx * cy
            if v:
                out[e] = v
            elif e in out:
                del out[e]
    return Poly(a.nvars, out, a.content * b.content)


def packed_pow(a, k):
    """a ** k by repeated squaring over packed_mul."""
    result = Poly.const(a.nvars, 1)
    base = a
    while k:
        if k & 1:
            result = packed_mul(result, base)
        base = packed_mul(base, base) if k > 1 else base
        k >>= 1
    return result
