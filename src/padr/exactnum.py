"""Laurent rational functions in a formal variable X over the scalars of
padr.scalar (L1): with X = q^(-s) they carry the local L/epsilon/gamma
factors and zeta integrals built on top, and with X = pi the archimedean
Gamma factors, as monomials r X^k.
"""

from __future__ import annotations

from fractions import Fraction

from .scalar import ExactScalar, PoleError, _check, _coerce


def _lp_clean(d):
    return {e: c for e, c in d.items() if not c.is_zero()}


def _lp_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out[e] + c if e in out else c
    return _lp_clean(out)


def _lp_neg(a):
    return {e: -c for e, c in a.items()}


def _lp_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            t = c1 * c2
            out[e] = out[e] + t if e in out else t
    return _lp_clean(out)


def _lp_to_poly(a):
    """Return (offset, dense list) with list[0] the X^offset coefficient."""
    if not a:
        return 0, []
    lo, hi = min(a), max(a)
    zero = ExactScalar.zero()
    return lo, [a.get(e, zero) for e in range(lo, hi + 1)]


def _poly_to_lp(offset, lst):
    return _lp_clean({offset + i: c for i, c in enumerate(lst)})


def _spoly_divmod(a, b):
    """divmod of dense ExactScalar polynomial lists."""
    a = list(a)
    b = list(b)
    while b and b[-1].is_zero():
        b.pop()
    _check(b, "polynomial division by zero")
    q = [ExactScalar.zero()] * max(0, len(a) - len(b) + 1)
    lead_inv = b[-1].inverse()
    while True:
        while a and a[-1].is_zero():
            a.pop()
        if len(a) < len(b):
            break
        d = len(a) - len(b)
        c = a[-1] * lead_inv
        q[d] = q[d] + c
        for i, y in enumerate(b):
            a[i + d] = a[i + d] - c * y
    return q, a


def _spoly_gcd(a, b):
    a, b = list(a), list(b)
    while True:
        while b and b[-1].is_zero():
            b.pop()
        if not b:
            break
        _, r = _spoly_divmod(a, b)
        a, b = b, r
    while a and a[-1].is_zero():
        a.pop()
    if a:
        lead_inv = a[-1].inverse()
        a = [x * lead_inv for x in a]
    return a


class LaurentRF:
    """Laurent rational function num/den in X over ExactScalar, X a formal
    variable: q^(-s) in padr.plocal, pi in padr.arch.

    The canonical form is unique per value: den is a polynomial with
    constant term 1, num and den are coprime, and no entry is zero.  So ==
    compares the two forms and forms no product.  A LaurentRF enters it by
    one of two routes:
      * the public constructor, for any pair: _laurent_canonical divides
        both sides by their gcd, taken only when both have two or more
        terms (a one-term side c X^k is a unit times a power of X), then
        makes den's lowest term 1;
      * the private _from_coprime, for sides coprime by construction: it
        skips the gcd and only makes den's lowest term 1.  Four sites use
        it.  A product n1 n2 / (d1 d2) of canonical forms shares only the
        cross factors gcd(n1, d2) and gcd(n2, d1), since n1, d1 and n2, d2
        are coprime (Henrici 1956; Knuth, TAOCP vol. 2, 4.5.1), so * takes
        those two gcds alone.  subst_X maps X -> s X^(+-1), s != 0, an
        automorphism of the Laurent ring, which keeps coprime sides
        coprime.  plocal.tate_integral builds one numerator over 1 - uX
        that does not vanish at X = 1/u.  inverse swaps the sides of a
        canonical form, which are coprime and have no zero entry.
    -num over den is canonical when num over den is, so __neg__ keeps den.
    evaluate_parts returns num(x) and den(x) undivided, for callers that
    invert one product of denominators.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = {0: ExactScalar.one()}
        num = _lp_clean({int(e): _coerce(c) for e, c in num.items()})
        den = _lp_clean({int(e): _coerce(c) for e, c in den.items()})
        _check(den, "zero denominator")
        num, den = _laurent_canonical(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @staticmethod
    def _from_coprime(num, den):
        """num/den for coprime sides, den's lowest entry non-zero and no
        entry zero: the canonical form without a gcd (see the class
        docstring for the callers, each of which knows its sides coprime)."""
        out = object.__new__(LaurentRF)
        num, den = _normalized(num, den)
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "den", den)
        return out

    def __setattr__(self, *a):
        raise AttributeError("LaurentRF is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def const(c):
        c = _coerce(c)
        return LaurentRF({0: c}) if not c.is_zero() else LaurentRF({})

    @staticmethod
    def X(e=1):
        return LaurentRF({e: ExactScalar.one()})

    @staticmethod
    def monomial(c, e):
        return LaurentRF({e: _coerce(c)})

    @staticmethod
    def zero():
        return LaurentRF({})

    @staticmethod
    def one():
        return LaurentRF({0: ExactScalar.one()})

    def is_zero(self):
        return not self.num

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = _coerce_rf(other)
        num = _lp_add(_lp_mul(self.num, other.den), _lp_mul(other.num, self.den))
        return LaurentRF(num, _lp_mul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        # -num over den is canonical when num over den is
        out = object.__new__(LaurentRF)
        object.__setattr__(out, "num", _lp_neg(self.num))
        object.__setattr__(out, "den", self.den)
        return out

    def __sub__(self, other):
        return self + (-_coerce_rf(other))

    def __rsub__(self, other):
        return _coerce_rf(other) + (-self)

    def __mul__(self, other):
        other = _coerce_rf(other)
        # each factor is coprime, so the product shares only the cross gcds
        n1, d2 = _cancelled(self.num, other.den)
        n2, d1 = _cancelled(other.num, self.den)
        return LaurentRF._from_coprime(_lp_mul(n1, n2), _lp_mul(d1, d2))

    __rmul__ = __mul__

    def inverse(self):
        _check(self.num, "division by zero rational function")
        return LaurentRF._from_coprime(self.den, self.num)

    def __truediv__(self, other):
        return self * _coerce_rf(other).inverse()

    def __rtruediv__(self, other):
        return _coerce_rf(other) * self.inverse()

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            return self.inverse() ** (-n)
        out = LaurentRF.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        try:
            other = _coerce_rf(other)
        except TypeError:
            return NotImplemented
        # the canonical form is unique per value; its coefficients compare
        # by value across field embeddings
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((tuple(sorted(self.num.items())),
                     tuple(sorted(self.den.items()))))

    # -- substitution / evaluation ---------------------------------------

    def evaluate(self, x):
        """Evaluate at X = x (an ExactScalar or rational)."""
        n, d = self.evaluate_parts(x)
        return n / d

    def evaluate_parts(self, x):
        """(num(x), den(x)) without dividing, so that a caller multiplying
        several values can invert one product of denominators; raises
        PoleError where den(x) = 0, or at x = 0 when num has a negative
        power of X."""
        x = _coerce(x)
        if x.is_zero() and min(self.num, default=0) < 0:
            raise PoleError(f"evaluation of {self} at the pole X = 0")
        num = ExactScalar.zero()
        for e, c in self.num.items():
            num = num + c * x ** e
        den = ExactScalar.zero()
        for e, c in self.den.items():
            den = den + c * x ** e
        if den.is_zero():
            raise PoleError(f"evaluation of {self} at the pole X = {x}")
        return num, den

    def subst_X(self, scale, power=1):
        """Substitute X -> scale * X^power (power = +-1, scale != 0).  That
        is an automorphism of the Laurent ring, so the coprime sides stay
        coprime and only den's lowest term is made 1 again."""
        _check(power in (1, -1), f"power {power} is not +-1")
        scale = _coerce(scale)
        _check(not scale.is_zero(), "substitution X -> 0 * X^power")
        num = {power * e: c * scale ** e for e, c in self.num.items()}
        den = {power * e: c * scale ** e for e, c in self.den.items()}
        return LaurentRF._from_coprime(num, den)

    # -- serialization -----------------------------------------------------

    def serialize(self):
        return f"({_lp_serialize(self.num)})/({_lp_serialize(self.den)})"

    def __repr__(self):
        return f"LaurentRF({self.serialize()})"


def _lp_serialize(d):
    if not d:
        return "0"
    terms = []
    for e in sorted(d):
        c = d[e].serialize()
        if e == 0:
            terms.append(f"[{c}]")
        else:
            terms.append(f"[{c}]*X^{e}")
    return " + ".join(terms)


def _coerce_rf(x):
    if isinstance(x, LaurentRF):
        return x
    if isinstance(x, (int, Fraction, ExactScalar)):
        return LaurentRF.const(x)
    raise TypeError(f"cannot coerce {x!r} to LaurentRF")


def _laurent_canonical(num, den):
    """The canonical form of num/den: the sides divided by their gcd, then
    den's lowest term made 1."""
    return _normalized(*_cancelled(num, den))


def _cancelled(num, den):
    """num and den divided by their gcd, den's lowest entry non-zero.  The
    gcd is taken only where it can be non-trivial: when both sides have two
    or more terms (a one-term side c X^k is a unit times a power of X), and
    not both are of degree 1."""
    if len(num) < 2 or len(den) < 2:
        return num, den
    off_n, pn = _lp_to_poly(num)
    off_d, pd = _lp_to_poly(den)
    if len(pn) == 2 and len(pd) == 2:
        # two degree-1 sides share a root only when they are proportional,
        # and then each is its leading coefficient times the monic gcd
        if pn[0] * pd[1] != pn[1] * pd[0]:
            return num, den
        return {off_n: pn[1]}, {off_d: pd[1]}
    g = _spoly_gcd(pn, pd)
    if len(g) < 2:
        return num, den
    pn, rn = _spoly_divmod(pn, g)
    pd, rd = _spoly_divmod(pd, g)
    _check(all(x.is_zero() for x in rn + rd),
           "the gcd does not divide both sides")
    # the gcd divides den, so it is not divisible by X: the quotients keep
    # the sides' offsets and den's lowest entry stays non-zero
    return _poly_to_lp(off_n, pn), _poly_to_lp(off_d, pd)


def _normalized(num, den):
    """num/den with den shifted to a polynomial and its lowest term made 1,
    both sides sorted by exponent; den's lowest entry is non-zero and no
    entry is zero.  The rescaling runs only when that term is not already
    1, so a Laurent polynomial (den = 1) costs no arithmetic."""
    if not num:
        return {}, {0: ExactScalar.one()}
    lo = min(den)
    c0 = den[lo]
    if not c0.is_one():
        c0_inv = c0.inverse()
        num = {e: c * c0_inv for e, c in num.items()}
        den = {e: c * c0_inv for e, c in den.items()}
    return ({e - lo: num[e] for e in sorted(num)},
            {e - lo: den[e] for e in sorted(den)})
