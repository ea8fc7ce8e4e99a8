"""Reference rational functions: the original factored-denominator Rat.

Kept as the oracle that the tests compare symfields.Rat against: a
denominator is any product of factors, merged on addition, and equality
cross-multiplies when the denominators differ.  Factors are matched by their
(content, sorted terms) key.

reduce_by_pole, apply_no_skip and bracket_no_skip are the loops of the
one-pole Rat and its fields as they were before they skipped zero work:
one exact division per power of the pole, and a derivative by every
variable.
"""
from fractions import Fraction

from carnotcurv.symfields import Poly, Rat as OnePoleRat, RatVecField

_ONE = Fraction(1)


def _key(f):
    return (f.content, tuple(sorted(f.terms.items())))


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
            k = _key(f)
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
        self.den = tuple(sorted(out, key=lambda fe: _key(fe[0])))

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
        mine = {_key(f): (f, e) for f, e in self.den}
        out = dict(mine)
        for f, e in other.den:
            k = _key(f)
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
        mine = {_key(f): e for f, e in self.den}
        theirs = {_key(f): e for f, e in other.den}
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



def reduce_by_pole(num, pole, e):
    """(num, e) of num / pole^e after dividing out the pole one power at a
    time."""
    if not num.is_zero:
        while e > 0:
            q = num.exact_div(pole)
            if q is None:
                break
            num = q
            e -= 1
    return num, e


def apply_no_skip(coeffs, f):
    """sum_l coeffs[l] * df/dv_l with a derivative by every variable whose
    coefficient is nonzero."""
    out = OnePoleRat.zero(f.nvars)
    for l, vl in enumerate(coeffs):
        if vl.is_zero:
            continue
        out = out + vl * f.diff(l)
    return out


def bracket_no_skip(v, w):
    """[v, w] of two RatVecFields with every derivative taken."""
    out = []
    for m in range(v.nvars):
        acc = OnePoleRat.zero(v.nvars)
        wm = w.comps[m]
        vm = v.comps[m]
        for l in range(v.nvars):
            vl = v.comps[l]
            wl = w.comps[l]
            if not vl.is_zero:
                acc = acc + vl * wm.diff(l)
            if not wl.is_zero:
                acc = acc - wl * vm.diff(l)
        out.append(acc)
    return RatVecField(out)
