"""Reference exact division: the original quadratic long division.

Kept unchanged as the oracle that the tests compare Poly.exact_div against;
each quotient term scans the whole remainder for its leading monomial.
"""
from fractions import Fraction

from carnotcurv.symfields import Poly
from reference_poly import _degkey

_ZERO = Fraction(0)


def reference_exact_div(self, d):
    """Return self / d if the division is exact, else None."""
    if d.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if self.is_zero:
        return self
    dterms = dict(d.monomials())
    dlead = max(dterms, key=_degkey)
    dlc = dterms[dlead]
    rem = dict(self.monomials())
    quo = {}
    while rem:
        lt = max(rem, key=_degkey)
        qe = tuple(a - b for a, b in zip(lt, dlead))
        if any(k < 0 for k in qe):
            return None
        qc = Fraction(rem[lt], dlc)
        quo[qe] = quo.get(qe, _ZERO) + qc
        for e, c in dterms.items():
            te = tuple(a + b for a, b in zip(qe, e))
            v = rem.get(te, 0) - qc * c
            if v:
                rem[te] = v
            elif te in rem:
                del rem[te]
    q = Poly.from_terms(self.nvars, quo)
    return q * (self.content / d.content)
