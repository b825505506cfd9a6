"""Laurent rational functions in X (= q^(-s)) over the scalars of
padr.scalar (L1): they carry the local L/epsilon/gamma factors and zeta
integrals built on top.
"""

from __future__ import annotations

from fractions import Fraction

from .scalar import ExactScalar, PoleError, _check, _coerce


def _lp_clean(d):
    return {e: c for e, c in d.items() if not _coerce(c).is_zero()}


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
    return lo, [a.get(e, ExactScalar.zero()) for e in range(lo, hi + 1)]


def _poly_to_lp(offset, lst):
    return _lp_clean({offset + i: c for i, c in enumerate(lst)})


def _spoly_divmod(a, b):
    """divmod of dense ExactScalar polynomial lists."""
    a = list(a)
    b = list(b)
    while b and _coerce(b[-1]).is_zero():
        b.pop()
    _check(b, "polynomial division by zero")
    q = [ExactScalar.zero()] * max(0, len(a) - len(b) + 1)
    lead_inv = _coerce(b[-1]).inverse()
    while True:
        while a and _coerce(a[-1]).is_zero():
            a.pop()
        if len(a) < len(b):
            break
        d = len(a) - len(b)
        c = _coerce(a[-1]) * lead_inv
        q[d] = q[d] + c
        for i, y in enumerate(b):
            a[i + d] = _coerce(a[i + d]) - c * y
    return q, a


def _spoly_gcd(a, b):
    a, b = list(a), list(b)
    while True:
        while b and _coerce(b[-1]).is_zero():
            b.pop()
        if not b:
            break
        _, r = _spoly_divmod(a, b)
        a, b = b, r
    while a and _coerce(a[-1]).is_zero():
        a.pop()
    if a:
        lead_inv = _coerce(a[-1]).inverse()
        a = [_coerce(x) * lead_inv for x in a]
    return a


class LaurentRF:
    """Laurent rational function num/den in X over ExactScalar.

    The constructor canonicalises once (_laurent_canonical): den is a
    polynomial with constant term 1, and num and den are divided by their
    gcd, which is taken only when both sides have two or more terms (a
    one-term side c X^k is a unit times a power of X).  evaluate_parts
    returns num(x) and den(x) undivided, for callers that invert one
    product of denominators.
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
        return LaurentRF(_lp_mul(self.num, other.num), _lp_mul(self.den, other.den))

    __rmul__ = __mul__

    def inverse(self):
        _check(self.num, "division by zero rational function")
        return LaurentRF(self.den, self.num)

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
        lhs = _lp_mul(self.num, other.den)
        rhs = _lp_mul(other.num, self.den)
        diff = _lp_add(lhs, _lp_neg(rhs))
        return not diff

    def __hash__(self):
        # the canonical form is unique per value; the coefficients hash
        # by value across field embeddings
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
        PoleError where den(x) = 0."""
        x = _coerce(x)
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
        """Substitute X -> scale * X^power (power = +-1)."""
        _check(power in (1, -1), f"power {power} is not +-1")
        scale = _coerce(scale)
        num = {power * e: c * scale ** e for e, c in self.num.items()}
        den = {power * e: c * scale ** e for e, c in self.den.items()}
        return LaurentRF(_lp_clean(num), _lp_clean(den))

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
    """gcd-reduced form with den a polynomial of constant term 1.  Each
    step runs only where it can change something: the gcd when both sides
    have two or more terms and, if both are of degree 1, are proportional;
    the rescaling when den's lowest coefficient is not already 1 (so a
    Laurent polynomial, den = 1, costs no arithmetic)."""
    if not num:
        return {}, {0: ExactScalar.one()}
    off_n, pn = _lp_to_poly(num)
    off_d, pd = _lp_to_poly(den)
    # a one-term side c X^k is a unit times a power of X: the gcd is 1; two
    # degree-1 sides share a root only when they are proportional
    if len(num) > 1 and len(den) > 1 and (
            len(pn) != 2 or len(pd) != 2
            or _coerce(pn[0]) * pd[1] == _coerce(pn[1]) * pd[0]):
        g = _spoly_gcd(pn, pd)
        if len(g) > 1:
            pn, rn = _spoly_divmod(pn, g)
            pd, rd = _spoly_divmod(pd, g)
            _check(all(_coerce(x).is_zero() for x in rn + rd),
                   "the gcd does not divide both sides")
    # strip trailing/leading zeros of den, make constant term 1
    lead_shift = 0
    while pd and _coerce(pd[0]).is_zero():
        pd.pop(0)
        lead_shift += 1
    c0 = _coerce(pd[0])
    if not c0.is_one():
        c0_inv = c0.inverse()
        pd = [_coerce(x) * c0_inv for x in pd]
        pn = [_coerce(x) * c0_inv for x in pn]
    num = _poly_to_lp(off_n - off_d - lead_shift, pn)
    den = _poly_to_lp(0, pd)
    return num, den
