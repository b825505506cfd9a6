"""Symbolic differential-operator calculus on the unitary tube domain.

Exact verification machinery for:

* automorphy-factor cocycles and the xi/eta equivariances for the
  quasi-split unitary group in three variables,
* the nabla-type operators C^n and D_rho^n on polynomial sections and
  their closed forms after restriction to the modular curve,
* the Heisenberg group law and the commutation relation of the
  translation operators A_m(l),
* the weight-raising (Maass-Shimura) operator calculus on the formal
  ring spanned by q^m r^t with r the inverse-volume grading variable.

All scalars live in the exact field Q(i, sqrt(D)); tau, conj(tau), w,
conj(w) are formal variables, so every identity is checked as an exact
rational-function identity, never numerically.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

from padr.scalar import _check


# ---------------------------------------------------------------------------
# the scalar field Q(i, sqrt(D))
# ---------------------------------------------------------------------------

class QiD:
    """Element a + b*i + c*sqrt(D) + d*i*sqrt(D) of Q(i, sqrt(D)) for a
    fixed positive integer parameter D (delta = i*sqrt(D) is a square
    root of -D).  sqrt(D) is a free symbol with square D, so for a square
    D the ring has zero divisors, and inverting one raises.

    Representation: four integer numerators ``nums = (a, b, c, d)`` over
    one denominator ``den``, with ``den > 0`` and
    ``gcd(den, *nums) == 1``, so each value has exactly one (nums, den)
    and zero is ``(0, 0, 0, 0)`` over 1.  ``a``, ``b``, ``c``, ``d`` give
    the coordinates as Fractions.

    Arithmetic: ``+``, ``-`` and ``*`` of two QiDs with the same D work on
    the numerators directly and reduce once, in ``_qid``; an int or a
    Fraction is first coerced to a QiD, a QiD with another D raises
    AssertionError, and any other type returns NotImplemented."""

    __slots__ = ("D", "nums", "den")

    def __init__(self, D, a=0, b=0, c=0, d=0):
        self.D = D
        if type(a) is type(b) is type(c) is type(d) is int:
            self.nums, self.den = (a, b, c, d), 1
            return
        fs = [Fraction(x) for x in (a, b, c, d)]
        den = lcm(*(f.denominator for f in fs))
        # each f is in lowest terms, so gcd(den, *nums) == 1 already
        self.nums = tuple(f.numerator * (den // f.denominator) for f in fs)
        self.den = den

    a = property(lambda self: Fraction(self.nums[0], self.den))
    b = property(lambda self: Fraction(self.nums[1], self.den))
    c = property(lambda self: Fraction(self.nums[2], self.den))
    d = property(lambda self: Fraction(self.nums[3], self.den))

    def __add__(self, other):
        if other.__class__ is not QiD or other.D != self.D:
            if not isinstance(other, (QiD, int, Fraction)):
                return NotImplemented
            other = self._coerce(other)
        a1, b1, c1, d1 = self.nums
        a2, b2, c2, d2 = other.nums
        n1, n2 = self.den, other.den
        if n1 == n2:
            return _qid(self.D, a1 + a2, b1 + b2, c1 + c2, d1 + d2, n1)
        return _qid(self.D, a1 * n2 + a2 * n1, b1 * n2 + b2 * n1,
                    c1 * n2 + c2 * n1, d1 * n2 + d2 * n1, n1 * n2)

    def __sub__(self, other):
        if other.__class__ is not QiD or other.D != self.D:
            if not isinstance(other, (QiD, int, Fraction)):
                return NotImplemented
            other = self._coerce(other)
        a1, b1, c1, d1 = self.nums
        a2, b2, c2, d2 = other.nums
        n1, n2 = self.den, other.den
        if n1 == n2:
            return _qid(self.D, a1 - a2, b1 - b2, c1 - c2, d1 - d2, n1)
        return _qid(self.D, a1 * n2 - a2 * n1, b1 * n2 - b2 * n1,
                    c1 * n2 - c2 * n1, d1 * n2 - d2 * n1, n1 * n2)

    def __neg__(self):
        a, b, c, d = self.nums
        return _qid_raw(self.D, (-a, -b, -c, -d), self.den)

    def _coerce(self, other):
        if isinstance(other, QiD):
            if other.D != self.D:
                raise AssertionError(
                    f"QiD with D={other.D} in Q(i, sqrt({self.D}))")
            return other
        return QiD(self.D, other)

    def __mul__(self, other):
        if other.__class__ is not QiD or other.D != self.D:
            if not isinstance(other, (QiD, int, Fraction)):
                return NotImplemented
            other = self._coerce(other)
        D = self.D
        a1, b1, c1, d1 = self.nums
        a2, b2, c2, d2 = other.nums
        return _qid(
            D,
            a1 * a2 - b1 * b2 + D * (c1 * c2 - d1 * d2),
            a1 * b2 + b1 * a2 + D * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 - b1 * d2 - d1 * b2,
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
            self.den * other.den)

    __rmul__ = __mul__

    def conj(self):
        """Complex conjugation: i -> -i, sqrt(D) -> sqrt(D)."""
        a, b, c, d = self.nums
        return _qid_raw(self.D, (a, -b, c, -d), self.den)

    def inverse(self):
        _check(not self.is_zero(), "division by zero")
        D = self.D
        zc = self.conj()
        n1 = self * zc                       # lands in Q(sqrt(D))
        a1, b1, c1, d1 = n1.nums
        _check(not (b1 or d1), "z * conj(z) not in Q(sqrt(D))")
        n2 = _qid_raw(D, (a1, 0, -c1, 0), n1.den)
        n3 = n1 * n2                         # rational
        r, b3, c3, d3 = n3.nums
        _check(not (b3 or c3 or d3), "norm not rational")
        _check(r != 0, "division by a zero divisor")
        # 1 / n3 = n3.den / r, already in lowest terms
        s = 1 if r > 0 else -1
        return zc * n2 * _qid_raw(D, (s * n3.den, 0, 0, 0), s * r)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def is_zero(self):
        return not any(self.nums)

    def is_rational(self):
        _, b, c, d = self.nums
        return not (b or c or d)

    def __eq__(self, other):
        if not isinstance(other, (QiD, int, Fraction)):
            return NotImplemented
        other = self._coerce(other)
        return self.nums == other.nums and self.den == other.den

    def __hash__(self):
        # a rational value hashes like the int or Fraction it equals
        a, b, c, d = self.nums
        if not (b or c or d):
            return hash(Fraction(a, self.den))
        return hash((self.D, self.nums, self.den))

    def __repr__(self):
        return f"QiD({self.a}+{self.b}i+{self.c}rD+{self.d}irD)"


_new = object.__new__


def _qid_raw(D, nums, den):
    """QiD from a numerator tuple and den already in lowest terms."""
    z = _new(QiD)
    z.D, z.nums, z.den = D, nums, den
    return z


def _qid(D, a, b, c, d, den):
    """QiD from integer numerators over den > 0, reduced here."""
    if den != 1:
        g = gcd(den, a, b, c, d)
        if g != 1:
            a, b, c, d, den = a // g, b // g, c // g, d // g, den // g
    return _qid_raw(D, (a, b, c, d), den)


def _is_one(z):
    return z.den == 1 and z.nums == (1, 0, 0, 0)


def qi(D):
    """The imaginary unit."""
    return QiD(D, 0, 1)


def qdelta(D):
    """delta = sqrt(-D) = i sqrt(D)."""
    return QiD(D, 0, 0, 0, 1)


# ---------------------------------------------------------------------------
# polynomials and rational functions in (tau, conj tau, w, conj w)
# ---------------------------------------------------------------------------

# variable order: 0 = tau, 1 = conj(tau), 2 = w, 3 = conj(w)
_CONJ_SWAP = (1, 0, 3, 2)


class SymPoly:
    """Polynomial in tau, conj(tau), w, conj(w) over Q(i, sqrt(D));
    coeffs maps exponent 4-tuples to non-zero QiD scalars.

    A SymPoly is immutable after construction: every operation returns a
    new one, so its hash is computed on first use and cached.  The product
    of two SymPolys accumulates integer numerators over a common
    denominator and builds one QiD per output monomial."""

    __slots__ = ("D", "coeffs", "_hash")

    def __init__(self, D, coeffs=None):
        self.D = D
        self._hash = None
        self.coeffs = {}
        for e, c in (coeffs or {}).items():
            if not isinstance(c, QiD):
                c = QiD(D, c)
            if not c.is_zero():
                self.coeffs[e] = c

    @staticmethod
    def const(D, c):
        return SymPoly(D, {(0, 0, 0, 0): c})

    @staticmethod
    def var(D, idx):
        e = [0, 0, 0, 0]
        e[idx] = 1
        return SymPoly(D, {tuple(e): QiD(D, 1)})

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out[e] + c if e in out else c
        return SymPoly(self.D, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _sympoly_raw(self.D, {e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (QiD, int, Fraction)):
            k = QiD(self.D)._coerce(other)
            return SymPoly(self.D, {e: c * k for e, c in self.coeffs.items()})
        D = self.D
        _check(other.D == D, "SymPoly product across two values of D")
        # each side's numerators over the lcm of its denominators, so the
        # Q(i, sqrt D) products below (QiD.__mul__'s formula) are on
        # integers and reduce once
        xs, l1 = _scaled_terms(self.coeffs)
        ys, l2 = _scaled_terms(other.coeffs)
        acc = {}
        for (s0, s1, s2, s3), a1, b1, c1, d1 in xs:
            for (t0, t1, t2, t3), a2, b2, c2, d2 in ys:
                e = (s0 + t0, s1 + t1, s2 + t2, s3 + t3)
                A = a1 * a2 - b1 * b2 + D * (c1 * c2 - d1 * d2)
                B = a1 * b2 + b1 * a2 + D * (c1 * d2 + d1 * c2)
                C = a1 * c2 + c1 * a2 - b1 * d2 - d1 * b2
                E = a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2
                v = acc.get(e)
                if v is None:
                    acc[e] = [A, B, C, E]
                else:
                    v[0] += A
                    v[1] += B
                    v[2] += C
                    v[3] += E
        den = l1 * l2
        return _sympoly_raw(D, {e: _qid(D, A, B, C, E, den)
                                for e, (A, B, C, E) in acc.items()
                                if A or B or C or E})

    __rmul__ = __mul__

    def deriv(self, idx):
        out = {}
        for e, c in self.coeffs.items():
            if e[idx] == 0:
                continue
            e2 = list(e)
            e2[idx] -= 1
            out[tuple(e2)] = c * e[idx]
        return _sympoly_raw(self.D, out)

    def conj(self):
        out = {}
        for e, c in self.coeffs.items():
            e2 = tuple(e[i] for i in _CONJ_SWAP)
            out[e2] = c.conj()
        return _sympoly_raw(self.D, out)

    def subst_w0(self):
        """Set w = conj(w) = 0."""
        return _sympoly_raw(self.D, {e: c for e, c in self.coeffs.items()
                                     if e[2] == 0 and e[3] == 0})

    def is_zero(self):
        return not self.coeffs

    def is_constant(self):
        return all(e == (0, 0, 0, 0) for e in self.coeffs)

    def constant_value(self):
        _check(self.is_constant(), "constant_value of a non-constant")
        return self.coeffs.get((0, 0, 0, 0), QiD(self.D))

    def lead(self):
        """Largest exponent tuple in lexicographic order."""
        _check(self.coeffs, "lead of the zero polynomial")
        return max(self.coeffs)

    def div_exact(self, f):
        """Quotient self / f when the division is exact, else None.

        The remainder is kept as integer numerators over one denominator,
        which each step of the division by a monic f multiplies by the lcm
        of f's denominators; each quotient term is one QiD."""
        if f.is_constant():
            return self * f.constant_value().inverse()
        fl = f.lead()
        fc = f.coeffs[fl]
        if not _is_one(fc):
            fci = fc.inverse()
            return (self * fci).div_exact(f * fci)
        D = self.D
        _check(f.D == D, "SymPoly division across two values of D")
        terms, den = _scaled_terms(self.coeffs)
        rem = {e: [a, b, c, d] for e, a, b, c, d in terms}
        fs, lf = _scaled_terms(f.coeffs)
        l0, l1, l2, l3 = fl
        out = {}
        while rem:
            lead = max(rem)
            e0, e1, e2, e3 = (lead[0] - l0, lead[1] - l1, lead[2] - l2,
                              lead[3] - l3)
            if e0 < 0 or e1 < 0 or e2 < 0 or e3 < 0:
                return None
            a1, b1, c1, d1 = rem[lead]
            out[(e0, e1, e2, e3)] = _qid(D, a1, b1, c1, d1, den)
            if lf != 1:
                for v in rem.values():
                    v[0] *= lf
                    v[1] *= lf
                    v[2] *= lf
                    v[3] *= lf
                den *= lf
            # rem -= q * f, with q the quotient term just emitted
            for (t0, t1, t2, t3), a2, b2, c2, d2 in fs:
                k = (e0 + t0, e1 + t1, e2 + t2, e3 + t3)
                A = a1 * a2 - b1 * b2 + D * (c1 * c2 - d1 * d2)
                B = a1 * b2 + b1 * a2 + D * (c1 * d2 + d1 * c2)
                C = a1 * c2 + c1 * a2 - b1 * d2 - d1 * b2
                E = a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2
                v = rem.get(k)
                if v is None:
                    if A or B or C or E:
                        rem[k] = [-A, -B, -C, -E]
                else:
                    v[0] -= A
                    v[1] -= B
                    v[2] -= C
                    v[3] -= E
                    if not (v[0] or v[1] or v[2] or v[3]):
                        del rem[k]
        return _sympoly_raw(D, out)

    def __eq__(self, other):
        return isinstance(other, SymPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(tuple(sorted(self.coeffs.items(),
                                               key=lambda x: x[0])))
        return h

    def __repr__(self):
        return f"SymPoly({self.coeffs})"


def _sympoly_raw(D, coeffs):
    """SymPoly from a dict of non-zero QiD coefficients, taken as is."""
    p = _new(SymPoly)
    p.D, p.coeffs, p._hash = D, coeffs, None
    return p


def _scaled_terms(coeffs):
    """The terms (e, a, b, c, d) of coeffs with integer numerators over
    the lcm L of their denominators, and L."""
    # pairwise, not lcm(*dens): an argument tuple per size would stay in
    # the interpreter's tuple free lists and raise the peak memory
    L = 1
    for c in coeffs.values():
        if L % c.den:
            L = lcm(L, c.den)
    out = []
    for e, c in coeffs.items():
        k = L // c.den
        a, b, cc, d = c.nums
        out.append((e, a * k, b * k, cc * k, d * k))
    return out, L


def _fac_expand(D, fac):
    """The product of f^e over fac, from its first factor; 1 for no factor."""
    out = None
    for f, e in fac.items():
        for _ in range(e):
            out = f if out is None else out * f
    return SymPoly.const(D, 1) if out is None else out


def _sp_mul(a, b):
    """a * b for two SymPolys, with no product formed when either is 1."""
    if _sp_is_one(b):
        return a
    if _sp_is_one(a):
        return b
    return a * b


def _sp_is_one(p):
    c = p.coeffs
    if len(c) != 1:
        return False
    v = c.get((0, 0, 0, 0))
    return v is not None and _is_one(v)


class RF:
    """Rational function: SymPoly numerator over a factored denominator
    (a dict of monic non-constant SymPoly factors with positive integer
    exponents).  The constructor cancels the factors that divide the
    numerator exactly.  So the value is reduced once per constructor call
    or `rf_sum`, not once per operation: a product or sum of many RFs is
    one `rf_sum`, and `+`, `-`, `*` and `deriv` are each one such sum."""

    __slots__ = ("num", "fac")

    def __init__(self, num, den=None):
        fac = {}
        if den is not None:
            if isinstance(den, dict):
                fac = den
            else:
                _check(not den.is_zero(), "zero denominator")
                fac = {den: 1}
        # product of the inverted constant factors and leading coefficients
        scale = None
        self.fac = {}
        for f, e in fac.items():
            if e == 0:
                continue
            _check(e > 0 and not f.is_zero(), "bad denominator factor")
            if f.is_constant():
                c = f.constant_value().inverse()
            else:
                c = f.coeffs[f.lead()]
                if _is_one(c):
                    c = None
                else:
                    c = c.inverse()
                    f = f * c
                self.fac[f] = self.fac.get(f, 0) + e
            if c is not None:
                for _ in range(e):
                    scale = c if scale is None else scale * c
        self.num = num if scale is None else num * scale
        self._reduce()

    def _reduce(self):
        if self.num.is_zero():
            self.fac = {}
            return
        for f in list(self.fac):
            while self.fac.get(f, 0) > 0:
                q = self.num.div_exact(f)
                if q is None:
                    break
                self.num = q
                self.fac[f] -= 1
                if self.fac[f] == 0:
                    del self.fac[f]

    @property
    def den(self):
        return _fac_expand(self.num.D, self.fac)

    @staticmethod
    def const(D, c):
        return RF(SymPoly.const(D, c))

    @staticmethod
    def var(D, idx):
        return RF(SymPoly.var(D, idx))

    def __add__(self, other):
        return rf_sum(((1, (self,)), (1, (self._coerce(other),))),
                      self.num.D)

    def __sub__(self, other):
        return rf_sum(((1, (self,)), (-1, (self._coerce(other),))),
                      self.num.D)

    def __neg__(self):
        return RF(-self.num, dict(self.fac))

    def _coerce(self, other):
        if isinstance(other, RF):
            return other
        return RF.const(self.num.D, other)

    def __mul__(self, other):
        if isinstance(other, (QiD, int, Fraction)):
            return rf_sum(((other, (self,)),), self.num.D)
        return rf_sum(((1, (self, other)),), self.num.D)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        _check(not other.num.is_zero(), "division by zero")
        fac = dict(self.fac)
        fac[other.num] = fac.get(other.num, 0) + 1
        num = self.num
        if other.fac:
            num = _sp_mul(num, _fac_expand(num.D, other.fac))
        return RF(num, fac)

    def deriv(self, idx):
        """d/d(variable idx), summed over the denominator with each factor
        whose derivative is non-zero raised by one."""
        parts = [(self.num.deriv(idx), self.fac)]
        for f, e in self.fac.items():
            df = f.deriv(idx)
            if not df.is_zero():
                parts.append((_sp_mul(self.num, df) * (-e),
                              {**self.fac, f: e + 1}))
        return _rf_from_parts(parts, self.num.D)

    def conj(self):
        return RF(self.num.conj(),
                  {f.conj(): e for f, e in self.fac.items()})

    def subst_w0(self):
        fac = {}
        num = self.num.subst_w0()
        for f, e in self.fac.items():
            f0 = f.subst_w0()
            _check(not f0.is_zero(), "pole along w = 0")
            fac[f0] = fac.get(f0, 0) + e
        return RF(num, fac)

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        if not isinstance(other, (RF, QiD, int, Fraction)):
            return NotImplemented
        other = self._coerce(other)
        return _sp_mul(self.num, other.den) == _sp_mul(other.num, self.den)

    def __repr__(self):
        return f"RF({self.num}/{self.fac})"


def rf_sum(terms, D):
    """The RF sum of c * x_1 * ... * x_m over terms (c, (x_1, ..., x_m)),
    with c a scalar (QiD, int or Fraction) and the x_j RFs in Q(i, sqrt D).

    Each term's numerators are multiplied as SymPolys and the exponents of
    its factored denominators added; the terms are summed over the lcm of
    those denominators, and one RF is built, so the sum is reduced once
    instead of once per product and per partial sum.  Its value is that of
    the left-to-right chain of RF `*` and `+`."""
    parts = []
    for c, xs in terms:
        num, fac = None, {}
        for x in xs:
            num = x.num if num is None else _sp_mul(num, x.num)
            for f, e in x.fac.items():
                fac[f] = fac.get(f, 0) + e
        if num is None:
            num = SymPoly.const(D, c)
        elif not (c.__class__ is int and c == 1):
            num = num * c
        parts.append((num, fac))
    return _rf_from_parts(parts, D)


def _rf_from_parts(parts, D):
    """The RF sum of num / prod f^e over parts (num, {f: e}), every f monic
    and non-constant: the numerators are brought over the lcm of the
    denominators of the non-zero parts, added, and one RF is built."""
    parts = [(num, fac) for num, fac in parts if not num.is_zero()]
    lcm = {}
    for _, fac in parts:
        for f, e in fac.items():
            if e > lcm.get(f, 0):
                lcm[f] = e
    total = {}
    for num, fac in parts:
        missing = {f: e - fac.get(f, 0) for f, e in lcm.items()
                   if e > fac.get(f, 0)}
        if missing:
            num = _sp_mul(num, _fac_expand(D, missing))
        for e, c in num.coeffs.items():
            total[e] = total[e] + c if e in total else c
    return RF(_sympoly_raw(D, {e: c for e, c in total.items()
                               if not c.is_zero()}), lcm)


# ---------------------------------------------------------------------------
# matrices over QiD / RF
# ---------------------------------------------------------------------------

def mat_mul(A, B):
    return [[sum((A[i][t] * B[t][j] for t in range(1, len(B))),
                 A[i][0] * B[0][j]) for j in range(len(B[0]))]
            for i in range(len(A))]


def mat_conj_t(A):
    return [[A[j][i].conj() for j in range(len(A))]
            for i in range(len(A[0]))]


def mat_eq(A, B):
    return all(A[i][j] == B[i][j]
               for i in range(len(A)) for j in range(len(A[0])))


def s_delta(D):
    """The Hermitian form matrix of the three-variable group."""
    d = qdelta(D)
    z, o = QiD(D), QiD(D, 1)
    return [[z, z, -o], [z, -d, z], [o, z, z]]


def in_group(g, D):
    """Whether g satisfies g S (conj g)^t = S exactly."""
    S = s_delta(D)
    return mat_eq(mat_mul(mat_mul(g, S), mat_conj_t(g)), S)


def gen_n(D, w, z):
    """Unipotent generator n(w, z): w in Q(sqrt(-D)), z rational."""
    w = QiD(D)._coerce(w)
    z = QiD(D)._coerce(z)
    _check(w.b == w.c == 0, "w not in the quadratic field")
    _check(z.is_rational(), "z not rational")
    d = qdelta(D)
    o = QiD(D, 1)
    zr = QiD(D)
    return [[o, -w.conj() / d, z - w.conj() * w / (2 * d)],
            [zr, o, w],
            [zr, zr, o]]


def gen_m(D, a, b=1):
    """Torus generator m(a, b) = diag(a, b, conj(a)^(-1) b conj(b));
    requires b of norm one."""
    a = QiD(D)._coerce(a)
    b = QiD(D)._coerce(b)
    _check(b * b.conj() == 1, "b not norm one")
    zr = QiD(D)
    return [[a, zr, zr], [zr, b, zr],
            [zr, zr, a.conj().inverse() * b * b.conj()]]


def gen_iota(D, h):
    """Embedding of the two-variable group into the three-variable one."""
    a, b, c, d = h[0][0], h[0][1], h[1][0], h[1][1]
    zr, o = QiD(D), QiD(D, 1)
    return [[a, zr, b], [zr, o, zr], [c, zr, d]]


# ---------------------------------------------------------------------------
# the symmetric domain: eta, xi and the automorphy factors
# ---------------------------------------------------------------------------

def symbolic_point(D):
    """The generic point Z = (tau, w) with independent conjugates,
    as a 4-tuple of RFs (tau, conj tau, w, conj w)."""
    return tuple(RF.var(D, idx) for idx in range(4))


def eta_of(Z, D):
    """eta(Z) = i (conj(tau) - tau - conj(w) w / delta), one rf_sum."""
    return rf_sum(_eta_terms(Z, D), D)


def _eta_terms(Z, D):
    t, tb, u, ub = Z
    i = qi(D)
    return ((i, (tb,)), (-i, (t,)), (-i * qdelta(D).inverse(), (ub, u)))


def xi_of(Z, D):
    """xi(Z) = [[eta(tau), -i w], [i conj(w), -i delta]], with
    eta(tau) = i (conj(tau) - tau)."""
    t, tb, u, ub = Z
    i = qi(D)
    return [[i * (tb - t), -i * u],
            [i * ub, RF.const(D, i * qdelta(D) * (-1))]]


def _affine(D, cs, xs):
    """sum c * x over zip(cs, xs), x None for 1, as one rf_sum."""
    return rf_sum([(c, () if x is None else (x,))
                   for c, x in zip(cs, xs) if not c.is_zero()], D)


def act_point(alpha, Z, D):
    """Image of Z under alpha together with the automorphy factors:
    returns (Z', lam 2x2, mu scalar).  Each affine row of alpha or of its
    conjugate, and each entry of the period matrix, is one rf_sum."""
    t, tb, u, ub = Z
    mu = _affine(D, alpha[2], (t, u, None))
    _check(not mu.is_zero(), "point not in the domain of alpha")
    tp, up = (_affine(D, alpha[i], (t, u, None)) / mu for i in (0, 1))

    # conjugate coordinates: apply the conjugated matrix to (tb, ub)
    ac = [[x.conj() for x in row] for row in alpha]
    mub = _affine(D, ac[2], (tb, ub, None))
    tpb, upb = (_affine(D, ac[i], (tb, ub, None)) / mub for i in (0, 1))

    # lambda from the period matrix M = alpha [[tb, ub], [0, -delta], [1, 0]]:
    # its bottom row, and its middle row over -delta; period(i, s) = s M[i]
    d = qdelta(D)

    def period(i, s=1):
        a0, a1, a2 = alpha[i]
        return [_affine(D, (s * a0, s * a2), (tb, None)),
                _affine(D, (s * a0, -s * a1 * d), (ub, None))]
    lam_c = [period(2), period(1, -d.inverse())]
    # consistency of the top row pins down the transformed conjugates
    for j, m0j in enumerate(period(0)):
        _check(m0j == rf_sum(((1, (tpb, lam_c[0][j])),
                              (1, (upb, lam_c[1][j]))), D),
               "top row of the period matrix")
    lam = [[x.conj() for x in row] for row in lam_c]
    return (tp, tpb, up, upb), lam, mu


def automorphy_cocycle(alpha, beta, D):
    """Exact verification of the chain rules for lambda and mu and of the
    xi/eta equivariances, at a generic symbolic point.  Returns True when
    every identity holds; raises AssertionError (also under -O) naming the
    first that fails.  Each entry of a product of RF matrices, and the
    eta check's left side, is one rf_sum."""
    _check(in_group(alpha, D) and in_group(beta, D), "input not in the group")
    Z = symbolic_point(D)
    bZ, lam_b, mu_b = act_point(beta, Z, D)
    abZ, lam_ab, mu_ab = act_point(alpha, bZ, D)
    Z2, lam_prod, mu_prod = act_point(mat_mul(alpha, beta), Z, D)

    _check(mu_prod == mu_ab * mu_b, "mu chain rule")
    _check(mat_eq(lam_prod, [[rf_sum([(1, (lam_ab[i][t], lam_b[t][j]))
                                      for t in range(2)], D)
                              for j in range(2)] for i in range(2)]),
           "lambda chain rule")

    # eta equivariance: conj(mu) eta(alpha Z) mu = eta(Z)
    aZ, lam_a, mu_a = act_point(alpha, Z, D)
    mc = mu_a.conj()
    _check(rf_sum([(c, (mc,) + xs + (mu_a,)) for c, xs in _eta_terms(aZ, D)],
                  D) == eta_of(Z, D), "eta equivariance")
    # xi equivariance: (conj lam)^t xi(alpha Z) lam = xi(Z)
    lam_ct = [[lam_a[j][i].conj() for j in range(2)] for i in range(2)]
    xi = xi_of(aZ, D)
    lhs = [[rf_sum([(1, (lam_ct[i][a], xi[a][b], lam_a[b][j]))
                    for a in range(2) for b in range(2)], D)
            for j in range(2)] for i in range(2)]
    _check(mat_eq(lhs, xi_of(Z, D)), "xi equivariance")
    return True


# ---------------------------------------------------------------------------
# polynomial sections and the operators C^n, D_rho^n
# ---------------------------------------------------------------------------

class SectionPoly:
    """A section with components f_i (coefficient of X^i Y^(kappa - i)),
    each a SymPoly, and weight data k = (k1, k2, k3), kappa = k2 - k1."""

    __slots__ = ("D", "k", "comps")

    def __init__(self, D, k, comps):
        self.D = D
        self.k = tuple(k)
        kappa = self.k[1] - self.k[0]
        _check(kappa >= 0, "negative kappa = k2 - k1")
        _check(len(comps) == kappa + 1, "need kappa + 1 components")
        self.comps = list(comps)

    @property
    def kappa(self):
        return self.k[1] - self.k[0]


def _vec_subst(vec, M, D):
    """Substitute (X, Y) -> ((X, Y) M) in sum_i vec[i] X^i Y^(kappa-i);
    vec is a list of RFs, M a 2x2 RF matrix.  Each output component is
    one rf_sum over the expanded binomials."""
    kappa = len(vec) - 1
    # X -> m00 X + m10 Y,  Y -> m01 X + m11 Y
    p00, p10, p01, p11 = (_rf_powers(m, kappa)
                          for m in (M[0][0], M[1][0], M[0][1], M[1][1]))
    terms = [[] for _ in range(kappa + 1)]
    for i, coeff in enumerate(vec):
        if coeff.is_zero():
            continue
        # expand (m00 X + m10 Y)^i (m01 X + m11 Y)^(kappa - i)
        for a in range(i + 1):
            for b in range(kappa - i + 1):
                # the zeroth powers, 1, are left out of the product
                xs = (coeff,) + tuple(
                    p[j] for p, j in ((p00, a), (p10, i - a), (p01, b),
                                      (p11, kappa - i - b)) if j)
                terms[a + b].append((comb(i, a) * comb(kappa - i, b), xs))
    return [rf_sum(t, D) for t in terms]


def _rf_powers(x, n):
    """[x^0, ..., x^n]."""
    out = [RF.const(x.num.D, 1)]
    for _ in range(n):
        out.append(out[-1] * x)
    return out


def _rho_factors(Z, D):
    """Shared data for rho_k(Xi(Z))^{+-1}: (det xi, eta, xi^t matrix)."""
    xi = xi_of(Z, D)
    det = xi[0][0] * xi[1][1] - xi[0][1] * xi[1][0]
    eta = eta_of(Z, D)
    xit = [[xi[0][0], xi[1][0]], [xi[0][1], xi[1][1]]]
    return det, eta, xit


_Frame = namedtuple(
    "_Frame", "eta det xit xit_inv args args_w0 c0 c1 inv_mi_eta_tau")


@lru_cache(maxsize=None)
def _frame(D, w0=False):
    """What the nabla routes use of the generic point Z = symbolic_point(D)
    and depends on D alone: eta(Z), det xi(Z), xi^t and (xi^t)^(-1);
    args[j] = (xi[j][0] eta, xi[j][1] eta), the coefficients of the slot
    vector field D_j = args[j][0] d/dtau + args[j][1] d/dw, and args_w0
    the same at w = 0; the contraction coefficients c0, c1 of
    (xi^t)^(-1) v0 eta^(-1) on e_0, e_1; and (-i eta(tau))^(-1).  With w0,
    all of it at conj(w) = 0, from Z = (tau, conj tau, w, 0).  The RFs
    are shared by every caller, so none may be changed in place."""
    Z = symbolic_point(D)[:3] + (RF.const(D, 0) if w0 else RF.var(D, 3),)
    det, eta, xit = _rho_factors(Z, D)
    xit_inv = _mat2_inv(xit, D)
    args = tuple((xit[0][j] * eta, xit[1][j] * eta) for j in range(2))
    return _Frame(eta, det, tuple(map(tuple, xit)),
                  tuple(map(tuple, xit_inv)), args, _nest_w0(args),
                  xit_inv[0][1] / eta, xit_inv[1][1] / eta,
                  RF.const(D, 1) / (QiD(D, 0, -1) * xit[0][0]))


def _nest_w0(x):
    """A nest of tuples and lists of RFs, each restricted to w = 0."""
    return x.subst_w0() if isinstance(x, RF) else tuple(map(_nest_w0, x))


@lru_cache(maxsize=256)
def _rho_matrix(D, k, inverse, w0=False):
    """The matrix T of rho_k(Xi(Z))^(+-1) at Z = symbolic_point(D), with
    rho_k(Xi(Z))^(+-1) v = v T: row i is the image of the unit vector e_i,
    the prefactor det^(-+k1) eta^(+-k3) folded in.  With w0, as the
    restricted routes use it: rho_k(Xi) at conj(w) = 0 and its inverse at
    w = conj(w) = 0.  Shared, like _frame."""
    fr = _frame(D, w0)
    k1, k2, k3 = k
    s = 1 if inverse else -1
    pref = _sym_power(fr.det, s * k1) * _sym_power(fr.eta, -s * k3)
    M = fr.xit if inverse else fr.xit_inv
    zero = RF.const(D, 0)
    kappa = k2 - k1
    T = tuple(
        tuple(_vec_subst([pref if j == i else zero for j in range(kappa + 1)],
                         M, D))
        for i in range(kappa + 1))
    return _nest_w0(T) if w0 and inverse else T


def rho_xi(vec, k, D, inverse=False, w0=False):
    """Apply rho_k(Xi(Z)) (or its inverse) to a vector of RF components,
    at the generic point Z = symbolic_point(D) only (with w0, at the
    restrictions of _rho_matrix): each output component is one rf_sum of
    vec[i] T[i][m] over the cached matrix T."""
    T = _rho_matrix(D, tuple(k), inverse, w0)
    _check(len(vec) == len(T), "need kappa + 1 components")
    return [rf_sum([(1, (v, row[m])) for v, row in zip(vec, T)
                    if not (v.is_zero() or row[m].is_zero())], D)
            for m in range(len(T))]


def _sym_power(x, n):
    if n >= 0:
        return _rf_powers(x, n)[n]
    return RF.const(x.num.D, 1) / _rf_powers(x, -n)[-n]


def _mat2_inv(M, D):
    det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
    return [[M[1][1] / det, RF.const(D, -1) * M[0][1] / det],
            [RF.const(D, -1) * M[1][0] / det, M[0][0] / det]]


@lru_cache(maxsize=256)
def _slot_weights(D, n, w0=False):
    """binom(n, b) c0^(n-b) c1^b for b = 0..n: the weight of the drho_n
    table entry with b slots on e_1; with w0, at w = conj(w) = 0.  Shared,
    like _frame."""
    fr = _frame(D, w0)
    out = tuple(rf_sum(((comb(n, b), (fr.c0,) * (n - b) + (fr.c1,) * b),),
                       D)
                for b in range(n + 1))
    return _nest_w0(out) if w0 else out


def drho_n(f, n, w0=False):
    """D_rho^n f evaluated on the tuple (v0, ..., v0): implements
    C f(u) = Df(xi(Z)^t u eta(Z)) iterated on formal multilinear slots,
    conjugated by rho_k(Xi).  Returns the list of X^i Y^(kappa-i)
    components as RFs in (tau, conj tau, w, conj w), or with w0 their
    restrictions to w = conj(w) = 0 (see drho_restricted).

    Slot j of C differentiates along the image of e_j, the vector field
    D_j = args[j][0] d/dtau + args[j][1] d/dw of `_frame`.  D_0 and D_1
    commute, so a slot assignment's term depends only on the number b of
    slots on e_1: entry b of the table at level m is D_1^b D_0^(m-b)
    (rho(Xi) f), and the contraction with (xi^t)^(-1) v0 eta^(-1) weights
    entry b of level n by its binom(n, b) assignments times c0^(n-b) c1^b.
    Entry b of level m only feeds entries b..b+n-m of level n, so it is
    built only when one of their weights is non-zero: with w0, c0 = 0
    and only the D_1 chain (b = m) is built, else all m + 1 entries.  Each
    built entry comes from entry b (by D_0) or m - 1 (by D_1, for b = m)
    of level m - 1, whose derivatives are taken once per level and only
    along the variables whose slot-field coefficient is non-zero."""
    _check(n >= 0, "negative order")
    D, k = f.D, f.k
    fr = _frame(D, w0)
    weights = _slot_weights(D, n, w0)
    live = [not w.is_zero() for w in weights]
    table = {0: rho_xi([RF(c) for c in f.comps], k, D, False, w0)}
    for m in range(1, n + 1):
        last = w0 and m == n
        args = fr.args_w0 if last else fr.args
        derivs = {}

        def along(j, b):
            # D_j of entry b of the previous level, its zero terms left out
            parts = []
            for a, idx in zip(args[j], (0, 2)):
                if a.is_zero():
                    continue
                if (b, idx) not in derivs:
                    dv = [c.deriv(idx) for c in table[b]]
                    derivs[b, idx] = _nest_w0(dv) if last else dv
                parts.append((a, derivs[b, idx]))
            return [rf_sum([(1, (a, dv[i])) for a, dv in parts], D)
                    for i in range(f.kappa + 1)]
        table = {b: along(0, b) if b < m else along(1, m - 1)
                 for b in range(m + 1) if any(live[b:b + n - m + 1])}
    if w0 and n == 0:
        table = {0: _nest_w0(table[0])}
    total = [rf_sum([(1, (weights[b], vec[i])) for b, vec in table.items()],
                    D)
             for i in range(f.kappa + 1)]
    return rho_xi(total, k, D, True, w0)


def drho_restricted(f, n):
    """drho_n restricted to w = conj(w) = 0 (the embedded curve), each
    variable as early as stays exact.  d/dtau and d/dw treat conj(w) as a
    constant, so conj(w) = 0 commutes with them and with ring operations:
    rho(Xi) and every level run there.  w = 0 comes after the last level's
    d/dtau and d/dw, so that level's slot sum, the weights and
    rho(Xi)^(-1) run at w = 0.  Each restriction is a ring homomorphism on
    RFs with no pole along it, and a pole raises (a division by zero, or
    `RF.subst_w0`), so this equals [c.subst_w0() for c in drho_n(f, n)]."""
    return drho_n(f, n, w0=True)


def conjugated_derivative_form(f, n):
    """Independent route: rho(Xi)^(-1) (d/dw - conj(w)/delta d/dtau)^n
    (rho(Xi) f), restricted to w = conj(w) = 0.  Both derivatives treat
    conj(w) as a constant, so the n-th power is the sum over j of
    binom(n, j) (-conj(w)/delta)^j d^(n-j)/dw^(n-j) d^j/dtau^j, whose terms
    with j > 0 vanish at conj(w) = 0.  So, as in drho_restricted, rho(Xi)
    runs at conj(w) = 0, d/dw is taken n times, then w = 0."""
    _check(n >= 0, "negative order")
    vec = rho_xi([RF(c) for c in f.comps], f.k, f.D, False, True)
    for _ in range(n):
        vec = [c.deriv(2) for c in vec]
    return rho_xi([c.subst_w0() for c in vec], f.k, f.D, True, True)


def coefficient_closed_form(f, n):
    """Closed-form components at w = 0:
    coefficient of X^a Y^(kappa-a) is
    sum_j (a+j)!/a! binom(n, j) (d^(n-j) f_(a+j) / dw^(n-j))|_(w=0)
    (-i eta(tau))^(-j)."""
    _check(n >= 0, "negative order")
    D = f.D
    kappa = f.kappa
    inv = _frame(D, True).inv_mi_eta_tau
    out = []
    for a in range(kappa + 1):
        terms = []
        for j in range(0, min(n, kappa - a) + 1):
            i = a + j
            g = f.comps[i]
            for _ in range(n - j):
                g = g.deriv(2)
            fac = 1
            for t in range(j):
                fac *= i - t
            terms.append((fac * comb(n, j), (RF(g.subst_w0()),) + (inv,) * j))
        out.append(rf_sum(terms, D).subst_w0())
    return out


# ---------------------------------------------------------------------------
# Heisenberg group and translation operators
# ---------------------------------------------------------------------------

def skew_pairing(w1, w2, D):
    """<<w1, w2>> = (conj(w2) w1 - conj(w1) w2) / delta, a rational."""
    s = (w2.conj() * w1 - w1.conj() * w2) * qdelta(D).inverse()
    _check(s.is_rational(), "skew pairing not rational")
    return s.a


def h0_pairing(w1, w2, D):
    """H_0(w1, w2) = 2 i w1 conj(w2) / delta as a QiD scalar."""
    return 2 * qi(D) * w1 * w2.conj() * qdelta(D).inverse()


class HeisenbergElt:
    """n(w, z) decorated with a root-of-unity phase e^(pi i * phase)."""

    __slots__ = ("D", "w", "z", "phase")

    def __init__(self, D, w, z, phase=0):
        self.D = D
        self.w = QiD(D)._coerce(w)
        _check(self.w.b == self.w.c == 0, "w not in the quadratic field")
        self.z = Fraction(z)
        self.phase = Fraction(phase) % 2

    def __mul__(self, other):
        _check(self.D == other.D, "Heisenberg elements with different D")
        return HeisenbergElt(
            self.D, self.w + other.w,
            self.z + other.z +
            Fraction(1, 2) * skew_pairing(self.w, other.w, self.D),
            self.phase + other.phase)

    def inverse(self):
        return HeisenbergElt(self.D, -self.w, -self.z, -self.phase)

    def matrix(self):
        return gen_n(self.D, self.w, QiD(self.D, self.z))

    def __eq__(self, other):
        return (isinstance(other, HeisenbergElt) and self.D == other.D
                and self.w == other.w and self.z == other.z
                and self.phase == other.phase)

    def __repr__(self):
        return f"HeisenbergElt({self.w}, {self.z}, phase={self.phase})"


def am_commutator_phase(l1, l2, m, D):
    """Phase exponent r (meaning e^(pi i r)) with
    A_m(l1) A_m(l2) = e^(pi i r) A_m(l1 + l2), computed by composing the
    operators in canonical form; equals m * E_0(l2, l1) mod 2."""
    # canonical form: theta -> e^(-pi m (H_0(w, l) + c)) theta(w + l)
    c1 = h0_pairing(l1, l1, D) * Fraction(1, 2)
    c2 = h0_pairing(l2, l2, D) * Fraction(1, 2)
    c12 = c1 + c2 + h0_pairing(l1, l2, D)
    c_sum = h0_pairing(l1 + l2, l1 + l2, D) * Fraction(1, 2)
    diff = c12 - c_sum
    # the difference must be purely imaginary: e^(-pi m * i b) phase
    _check(diff.a == 0 and diff.c == 0 and diff.d == 0,
           "canonical-form difference not purely imaginary")
    r = (-Fraction(m) * diff.b) % 2
    _check(r == (Fraction(m) * e0_pairing(l2, l1, D)) % 2,
           "commutator phase differs from m E_0(l2, l1)")
    return r


def e0_pairing(w1, w2, D):
    """E_0 = Im H_0; coincides with the skew pairing."""
    h = h0_pairing(w1, w2, D)
    _check(h.d == 0, "H_0 has an i*sqrt(D) part")
    return h.b


# ---------------------------------------------------------------------------
# Maass-Shimura operators on the formal ring of q^m r^t
# ---------------------------------------------------------------------------

class QRExpansion:
    """Finite sum of c * q^m r^t with rational c, m and integer t >= 0;
    r is the formal inverse-volume variable (4 pi y)^(-1)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        out = {}
        for (m, t), c in (terms or {}).items():
            c = Fraction(c)
            if c:
                key = (Fraction(m), int(t))
                out[key] = out.get(key, Fraction(0)) + c
        self.terms = {k: c for k, c in out.items() if c}

    @staticmethod
    def monomial(m, t=0, c=1):
        return QRExpansion({(m, t): c})

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return QRExpansion(out)

    def scale(self, c):
        return QRExpansion({k: v * c for k, v in self.terms.items()})

    def dz(self):
        """(2 pi i)^(-1) d/dz: q^m -> m q^m and r^t -> t r^(t+1)."""
        out = {}
        for (m, t), c in self.terms.items():
            out[(m, t)] = out.get((m, t), Fraction(0)) + c * m
            if t:
                out[(m, t + 1)] = out.get((m, t + 1), Fraction(0)) + c * t
        return QRExpansion(out)

    def mul_r(self, power=1):
        return QRExpansion({(m, t + power): c
                            for (m, t), c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, QRExpansion) and self.terms == other.terms

    def __repr__(self):
        return f"QRExpansion({self.terms})"


def maass_shimura(f, k, nu):
    """delta_k^nu f = sum_a binom(nu, a) Gamma(nu+k)/Gamma(a+k)
    (-1)^(a-nu) r^(nu-a) ((2 pi i)^(-1) d/dz)^a f."""
    _check(nu >= 0, "negative raising order")
    out = QRExpansion()
    for a in range(nu + 1):
        _check(a + k > 0, "non-positive Gamma argument")
        ratio = 1
        for j in range(a + k, nu + k):
            ratio *= j
        g = f
        for _ in range(a):
            g = g.dz()
        out = out + g.mul_r(nu - a).scale(
            Fraction(comb(nu, a) * ratio * (-1) ** (a - nu)))
    return out

