"""Exact scalar towers and Laurent rational functions.

Scalars live in Q, in a cyclotomic field Q(zeta_N), or in the quadratic
tower Q(i, sqrtD).  Every scalar additionally carries two formal grades:
a q-grade h (a formal factor q^(h/2)) and a pi-grade k (a formal factor
pi^k).  Multiplication adds grades; addition insists on equal grades,
except that an exact zero is grade-polymorphic.  The q-grade is an
integer.  The pi-grade is an integer or a half-integer, since
Gamma(1/2) = pi^(1/2): an integral grade is stored as a plain int, a
half-integral one as a Fraction, and any other value raises ValueError.
The archimedean Gamma factors are rational scalars with such grades.

Representation.  A scalar is a tuple of integer numerators ``nums`` over
one denominator ``den``, in the basis of its kind:

  * "rat":  (n,), the rational n/den;
  * "cyc":  the power basis 1, zeta_N, ..., zeta_N^(phi(N)-1), i.e. the
    coefficients of a polynomial of degree < phi(N) reduced mod Phi_N;
  * "quad": the basis 1, i, sqrtD, i*sqrtD (D > 1 squarefree).

Invariants, kept by every constructor and operation: ``den > 0`` and
``gcd(den, *nums) == 1``, so each value of one kind and conductor has
exactly one (nums, den); zero is ``nums == (0, ...)`` with ``den == 1``.
Arithmetic runs on Python ints and reduces mod Phi_N once per product;
``coeffs`` gives the coefficients as Fractions.

Laurent rational functions in X (= q^(-s)) over these scalars carry the
local L/epsilon/gamma factors and zeta integrals built on top.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

Q0 = Fraction(0)


# ----------------------------------------------------------------------
# integer polynomial helpers (dense lists, index = degree)
# ----------------------------------------------------------------------

def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_trim(out)


def _pseudo_divmod(a, b):
    """(q, r, f) with f*a == q*b + r over Z and deg r < deg b, for integer
    polynomials a and b != 0; f is the power of lc(b) that the division
    needed (1 when b is monic)."""
    lead, db = b[-1], len(b) - 1
    r = list(a)
    q = [0] * max(0, len(r) - db)
    f = 1
    for k in range(len(r) - 1, db - 1, -1):
        c = r[k]
        if not c:
            continue
        if c % lead:
            r = [x * lead for x in r]
            q = [x * lead for x in q]
            f *= lead
            c *= lead
        t = c // lead
        q[k - db] += t
        base = k - db
        for j, y in enumerate(b):
            r[base + j] -= t * y
    return _poly_trim(q), _poly_trim(r[:db]), f


@functools.lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    assert n >= 1
    out, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            out *= p - 1
            m //= p
            while m % p == 0:
                out *= p
                m //= p
        p += 1
    if m > 1:
        out *= m - 1
    return out


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(n: int):
    """Coefficients (degree-ascending, integers) of the n-th cyclotomic polynomial."""
    assert n >= 1
    num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            num, r, _ = _pseudo_divmod(num, list(cyclotomic_poly(d)))
            assert not r
    return tuple(num)


@functools.lru_cache(maxsize=None)
def _phi_tail(N):
    """The non-zero lower terms (j, m_j) of the monic Phi_N, so that
    zeta_N^deg = -sum m_j zeta_N^j."""
    return tuple((j, m) for j, m in enumerate(cyclotomic_poly(N)[:-1]) if m)


def _cyc_reduce(acc, N):
    """Reduce a dense integer list (acc[j] multiplies zeta_N^j) mod Phi_N,
    in place from the top; returns the phi(N) power-basis numerators."""
    deg = euler_phi(N)
    tail = _phi_tail(N)
    for k in range(len(acc) - 1, deg - 1, -1):
        c = acc[k]
        if c:
            base = k - deg
            for j, m in tail:
                acc[base + j] -= c * m
    if len(acc) < deg:
        acc += [0] * (deg - len(acc))
    return acc[:deg]


class GradeError(ArithmeticError):
    """Raised when adding scalars whose formal grades disagree."""


def _check(ok, what):
    """Raise AssertionError(what) unless ok; unlike assert, this also runs
    under python -O, so an identity check cannot pass by being skipped."""
    if not ok:
        raise AssertionError(what)


def _qgrade(k):
    """A q-grade as a plain int; any other value raises ValueError."""
    if type(k) is int:
        return k
    k = Fraction(k)
    if k.denominator != 1:
        raise ValueError(f"q-grade {k} is not an integer")
    return k.numerator


def _pigrade(k):
    """A pi-grade as a plain int, or as a Fraction when it is half-odd;
    any other value raises ValueError."""
    if type(k) is int:
        return k
    k = Fraction(k)
    if k.denominator == 1:
        return k.numerator
    if k.denominator != 2:
        raise ValueError(f"pi-grade {k} is not a half-integer")
    return k


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not a rational: {x!r}")


class ExactScalar:
    """Immutable element of Q, Q(zeta_N) or Q(i, sqrtD) with formal grades,
    stored as integer numerators ``nums`` over one positive ``den``."""

    __slots__ = ("kind", "N", "D", "nums", "den", "qgrade", "pigrade")

    def __init__(self, kind, coeffs, N=None, D=None, qgrade=0, pigrade=0):
        coeffs = [c if type(c) is Fraction else _as_fraction(c)
                  for c in coeffs]
        if kind == "rat":
            size = 1
        elif kind == "cyc":
            if N is None or N < 1:
                raise ValueError(f"bad conductor N={N}")
            size = euler_phi(N)
        elif kind == "quad":
            if D is None or D <= 1 or not _squarefree(D):
                raise ValueError(f"D={D} is not a squarefree integer > 1")
            size = 4
        else:
            raise ValueError(kind)
        if len(coeffs) != size:
            raise ValueError(f"{kind} scalar needs {size} coefficients, "
                             f"got {len(coeffs)}")
        # over the lcm of reduced denominators the numerators are coprime
        den = math.lcm(*(c.denominator for c in coeffs))
        nums = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        _init(self, kind, nums, den, N, D, _qgrade(qgrade), _pigrade(pigrade))

    def __setattr__(self, *a):
        raise AttributeError("ExactScalar is immutable")

    @property
    def coeffs(self):
        """The coefficients in the basis of the kind, as Fractions."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    # -- constructors --------------------------------------------------

    @staticmethod
    def rational(x, qgrade=0, pigrade=0):
        if type(x) is int:
            return _build("rat", (x,), 1, None, None, _qgrade(qgrade),
                          _pigrade(pigrade))
        if type(x) is not Fraction:
            x = Fraction(x)
        return _build("rat", (x.numerator,), x.denominator, None, None,
                      _qgrade(qgrade), _pigrade(pigrade))

    @staticmethod
    def zeta(N, k=1):
        """The root of unity zeta_N^k."""
        if N < 1:
            raise ValueError(f"bad conductor N={N}")
        k %= N
        acc = [0] * max(k + 1, euler_phi(N))
        acc[k] = 1
        return _build("cyc", tuple(_cyc_reduce(acc, N)), 1, N, None,
                      0, 0)._demote()

    @staticmethod
    def i_unit():
        return ExactScalar.zeta(4)

    @staticmethod
    def sqrtD(D):
        return ExactScalar("quad", (0, 0, 1, 0), D=D)

    @staticmethod
    def i_sqrtD(D):
        return ExactScalar("quad", (0, 0, 0, 1), D=D)

    @staticmethod
    def quad(D, a=0, b=0, c=0, d=0, qgrade=0, pigrade=0):
        """a + b i + c sqrtD + d i sqrtD."""
        return ExactScalar("quad", (a, b, c, d), D=D, qgrade=qgrade, pigrade=pigrade)

    @staticmethod
    def zero():
        return ExactScalar.rational(0)

    @staticmethod
    def one():
        return ExactScalar.rational(1)

    # -- basic predicates ----------------------------------------------

    def is_zero(self):
        return not any(self.nums)

    def is_rational(self):
        return self._demote().kind == "rat"

    def as_fraction(self):
        d = self._demote()
        assert d.kind == "rat", f"not rational: {self}"
        assert d.qgrade == 0 and d.pigrade == 0, f"graded scalar: {self}"
        return Fraction(d.nums[0], d.den)

    # -- canonicalization ----------------------------------------------

    def _demote(self):
        """Drop to kind 'rat' when the element is a plain rational."""
        if self.kind == "rat" or any(self.nums[1:]):
            return self
        return _build("rat", self.nums[:1], self.den, None, None,
                      self.qgrade, self.pigrade)

    def with_grades(self, qgrade=None, pigrade=None):
        return _build(self.kind, self.nums, self.den, self.N, self.D,
                      self.qgrade if qgrade is None else _qgrade(qgrade),
                      self.pigrade if pigrade is None else _pigrade(pigrade))

    # -- promotion -----------------------------------------------------

    def _to_cyc(self, N):
        """Embed into Q(zeta_N); requires self rational or cyclotomic with self.N | N."""
        if self.kind == "rat":
            nums = self.nums + (0,) * (euler_phi(N) - 1)
            return _build("cyc", nums, self.den, N, None,
                          self.qgrade, self.pigrade)
        if self.kind != "cyc" or N % self.N:
            raise AssertionError(f"cannot embed {self} into Q(zeta_{N})")
        if N == self.N:
            return self
        step = N // self.N
        acc = [0] * N
        for k, c in enumerate(self.nums):
            if c:
                acc[k * step] = c
        return _make("cyc", _cyc_reduce(acc, N), self.den, N, None,
                     self.qgrade, self.pigrade)

    def _to_quad(self, D):
        if self.kind == "rat":
            return _build("quad", self.nums + (0, 0, 0), self.den, None, D,
                          self.qgrade, self.pigrade)
        if self.kind == "cyc":
            # only Gaussian rationals embed: N | 4
            s = self._demote()
            if s.kind == "rat":
                return s._to_quad(D)
            if s.N != 4:
                raise AssertionError(
                    f"cannot embed Q(zeta_{s.N}) into the quadratic tower")
            return _build("quad", s.nums + (0, 0), s.den, None, D,
                          self.qgrade, self.pigrade)
        if self.D != D:
            raise AssertionError(
                f"incompatible quadratic towers D={self.D} vs D={D}")
        return self

    @staticmethod
    def _promote_pair(a, b):
        if a.kind == b.kind and a.N == b.N and a.D == b.D:
            return a, b
        if a.kind == "quad" or b.kind == "quad":
            D = a.D if a.kind == "quad" else b.D
            return a._to_quad(D), b._to_quad(D)
        Na = a.N if a.kind == "cyc" else 1
        Nb = b.N if b.kind == "cyc" else 1
        N = Na * Nb // math.gcd(Na, Nb)
        return a._to_cyc(N), b._to_cyc(N)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if (self.qgrade, self.pigrade) != (other.qgrade, other.pigrade):
            raise GradeError(
                f"grade mismatch in addition: (q:{self.qgrade},pi:{self.pigrade})"
                f" vs (q:{other.qgrade},pi:{other.pigrade})")
        a, b = ExactScalar._promote_pair(self, other)
        da, db = a.den, b.den
        if da == db:
            nums = [x + y for x, y in zip(a.nums, b.nums)]
        else:
            g = math.gcd(da, db)
            fa, fb = db // g, da // g
            nums = [x * fa + y * fb for x, y in zip(a.nums, b.nums)]
            da *= fa
        return _make(a.kind, nums, da, a.N, a.D,
                     a.qgrade, a.pigrade)._demote()

    __radd__ = __add__

    def __neg__(self):
        return _build(self.kind, tuple([-x for x in self.nums]), self.den,
                      self.N, self.D, self.qgrade, self.pigrade)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        qg = self.qgrade + other.qgrade
        pg = self.pigrade + other.pigrade
        if type(pg) is not int:
            pg = _pigrade(pg)
        den = self.den * other.den
        # a rational factor scales the other's numerators: no promotion
        if other.kind == "rat":
            a, c = self, other.nums[0]
        elif self.kind == "rat":
            a, c = other, self.nums[0]
        else:
            a, b = ExactScalar._promote_pair(self, other)
            if a.kind == "cyc":
                nums = _cyc_mul(a.nums, b.nums, a.N)
            else:
                nums = _quad_mul(a.nums, b.nums, a.D)
            return _make(a.kind, nums, den, a.N, a.D, qg, pg)._demote()
        return _make(a.kind, [x * c for x in a.nums], den, a.N, a.D,
                     qg, pg)._demote()

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise AssertionError("division by zero")
        qg, pg = -self.qgrade, -self.pigrade
        if self.kind == "rat":
            return _make("rat", (self.den,), self.nums[0], None, None, qg, pg)
        if self.kind == "cyc":
            inv, den = _cyc_inverse(self.nums, self.N)
        else:
            inv, den = _quad_inverse(self.nums, self.D)
        return _make(self.kind, [x * self.den for x in inv], den,
                     self.N, self.D, qg, pg)._demote()

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            return self.inverse() ** (-n)
        out = ExactScalar.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        if (self.qgrade, self.pigrade) != (other.qgrade, other.pigrade):
            return False
        try:
            a, b = ExactScalar._promote_pair(self, other)
        except AssertionError:
            return False
        return a.den == b.den and a.nums == b.nums

    def __hash__(self):
        d = self._demote()
        if d.kind == "rat" and not (d.nums[0] and (d.qgrade or d.pigrade)):
            # every zero, and every ungraded rational, hashes as its Fraction
            return hash(Fraction(d.nums[0], d.den))
        return hash((d.kind, d.N, d.D, d.nums, d.den, d.qgrade, d.pigrade))

    # -- Galois --------------------------------------------------------

    def galois(self, m):
        """The automorphism zeta_N -> zeta_N^m (gcd(m, N) = 1); identity on Q."""
        if self.kind == "rat":
            return self
        N = self.N
        if self.kind != "cyc" or math.gcd(m, N) != 1:
            raise AssertionError(f"zeta_{N} -> zeta_{N}^{m} is no automorphism"
                                 f" of {self}")
        acc = [0] * N
        for k, c in enumerate(self.nums):
            if c:
                acc[(k * m) % N] += c
        return _make("cyc", _cyc_reduce(acc, N), self.den, N, None,
                     self.qgrade, self.pigrade)._demote()

    def conjugate(self):
        """Complex conjugation: zeta_N -> zeta_N^(-1), i -> -i, sqrtD -> sqrtD."""
        if self.kind == "rat":
            return self
        if self.kind == "cyc":
            return self.galois(self.N - 1)
        a, b, c, d = self.nums
        return _build("quad", (a, -b, c, -d), self.den, None, self.D,
                      self.qgrade, self.pigrade)

    # -- serialization --------------------------------------------------

    def serialize(self):
        d = self._demote()
        den = d.den
        if d.kind == "rat":
            body = str(Fraction(d.nums[0], den))
        elif d.kind == "cyc":
            terms = []
            for k, n in enumerate(d.nums):
                if n == 0:
                    continue
                c = Fraction(n, den)
                if k == 0:
                    terms.append(str(c))
                else:
                    terms.append(f"{c}*z{d.N}^{k}")
            body = "+".join(terms) if terms else "0"
            body = body.replace("+-", "-")
        else:
            names = (None, "i", f"sqrt{d.D}", f"i*sqrt{d.D}")
            terms = []
            for cc, name in zip(d.nums, names):
                if cc == 0:
                    continue
                if name is None:
                    terms.append(str(cc))
                elif cc == 1:
                    terms.append(name)
                elif cc == -1:
                    terms.append(f"-{name}")
                else:
                    terms.append(f"{cc}*{name}")
            num = "+".join(terms) if terms else "0"
            num = num.replace("+-", "-")
            body = f"({num})/{den}" if den != 1 else (
                f"({num})" if len(terms) > 1 else num)
        if d.qgrade:
            body += f" @q:{d.qgrade}"
        if d.pigrade:
            body += f" @pi:{d.pigrade}"
        return body

    @staticmethod
    def parse(s):
        return _parse_scalar(s)

    def __repr__(self):
        return f"ExactScalar({self.serialize()!r})"


_set = object.__setattr__
_new = object.__new__


def _init(x, kind, nums, den, N, D, qgrade, pigrade):
    _set(x, "kind", kind)
    _set(x, "N", N)
    _set(x, "D", D)
    _set(x, "nums", nums)
    _set(x, "den", den)
    _set(x, "qgrade", qgrade)
    _set(x, "pigrade", pigrade)


def _build(kind, nums, den, N, D, qgrade, pigrade):
    """ExactScalar from a numerator tuple and den already in lowest terms."""
    x = _new(ExactScalar)
    _init(x, kind, nums, den, N, D, qgrade, pigrade)
    return x


def _make(kind, nums, den, N, D, qgrade, pigrade):
    """ExactScalar from integer numerators over den != 0, in lowest terms."""
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        nums = [x // g for x in nums]
        den //= g
    return _build(kind, tuple(nums), den, N, D, qgrade, pigrade)


def root_of_unity_sum(acc, N):
    """The scalar sum_j acc[j] zeta_N^j of dense integer counts acc."""
    return _build("cyc", tuple(_cyc_reduce(list(acc), N)), 1, N, None,
                  0, 0)._demote()


def _coerce(x):
    if isinstance(x, ExactScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return ExactScalar.rational(x)
    raise TypeError(f"cannot coerce {x!r} to ExactScalar")


def _squarefree(D):
    d, p = D, 2
    while p * p <= d:
        if d % (p * p) == 0:
            return False
        if d % p == 0:
            d //= p
        p += 1
    return True


def _cyc_mul(a, b, N):
    """Numerators of the product of two power-basis vectors mod Phi_N."""
    nza = [(i, x) for i, x in enumerate(a) if x]
    nzb = [(j, y) for j, y in enumerate(b) if y]
    if len(nza) < len(nzb):
        nza, nzb = nzb, nza
    acc = [0] * (len(a) + len(b) - 1)
    for j, y in nzb:
        for i, x in nza:
            acc[i + j] += x * y
    return _cyc_reduce(acc, N)


def _cyc_inverse(nums, N):
    """(inv, den) with (sum inv[k] zeta^k)/den the inverse of sum nums[k] zeta^k
    mod Phi_N.  Extended Euclid on integer polynomials: each remainder r is a
    pseudo-remainder with its content divided out, and each cofactor s/c
    satisfies s*a == c*r mod Phi_N, with gcd(c, *s) == 1."""
    deg = euler_phi(N)
    r0, r1 = list(cyclotomic_poly(N)), _poly_trim(list(nums))
    s0, c0, s1, c1 = [], 1, [1], 1
    while len(r1) > 1:
        q, r, f = _pseudo_divmod(r0, r1)
        if not r:
            raise AssertionError("element not invertible (should be impossible "
                                 "in a field)")
        g = math.gcd(*r)
        r = [x // g for x in r]
        # f*r0 - q*r1 == g*r, so s = f*c1*s0 - c0*q*s1 and c = c0*c1*g
        qs = _poly_mul(q, s1)
        s = [f * c1 * x for x in s0] + [0] * (len(qs) - len(s0))
        for i, y in enumerate(qs):
            s[i] -= c0 * y
        c = c0 * c1 * g
        h = math.gcd(c, *s)
        r0, r1 = r1, r
        s0, c0, s1, c1 = s1, c1, [x // h for x in s], c // h
    return s1 + [0] * (deg - len(s1)), c1 * r1[0]


def _quad_mul(a, b, D):
    a1, b1, c1, d1 = a
    a2, b2, c2, d2 = b
    return (a1 * a2 - b1 * b2 + D * (c1 * c2 - d1 * d2),
            a1 * b2 + b1 * a2 + D * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 - b1 * d2 - d1 * b2,
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2)


def _quad_inverse(nums, D):
    """(inv, den) for the inverse of u + v sqrtD (u, v in Z[i]): it is
    (u - v sqrtD) / w with w = u^2 - D v^2 in Z[i], and 1/w = conj(w)/|w|^2."""
    a, b, c, d = nums
    e = a * a - b * b - D * (c * c - d * d)
    f = 2 * (a * b - D * c * d)
    return (a * e + b * f, b * e - a * f, -(c * e + d * f), c * f - d * e), \
        e * e + f * f


def solve_linear(mat, rhs):
    """Gaussian elimination over Fraction; returns a solution or None."""
    n = len(mat)
    m = len(mat[0]) if n else 0
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(mat)]
    piv_cols = []
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, n) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(n):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        piv_cols.append(c)
        r += 1
        if r == n:
            break
    for i in range(r, n):
        if a[i][m] != 0:
            return None
    sol = [Q0] * m
    for i, c in enumerate(piv_cols):
        sol[c] = a[i][m]
    return sol


# ----------------------------------------------------------------------
# exact square roots of small primes inside cyclotomic fields
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def sqrt_prime(p: int) -> ExactScalar:
    """An exact cyclotomic element whose square is p (p prime)."""
    if p == 2:
        s = ExactScalar.zeta(8) + ExactScalar.zeta(8, 7)
    else:
        g0 = ExactScalar.zero()
        for a in range(1, p):
            leg = pow(a, (p - 1) // 2, p)
            sgn = 1 if leg == 1 else -1
            g0 = g0 + sgn * ExactScalar.zeta(p, a)
        if p % 4 == 1:
            s = g0
        else:
            s = -ExactScalar.i_unit() * g0
    assert s * s == ExactScalar.rational(p)
    return s


# ----------------------------------------------------------------------
# scalar parsing
# ----------------------------------------------------------------------

def _parse_scalar(s: str) -> ExactScalar:
    s = s.strip()
    qg = pg = 0
    while "@" in s:
        s, _, tail = s.rpartition("@")
        tail = tail.strip()
        if tail.startswith("q:"):
            qg = _qgrade(tail[2:])
        elif tail.startswith("pi:"):
            pg = _pigrade(tail[3:])
        else:
            raise ValueError(f"bad grade annotation: @{tail}")
        s = s.strip()
    out = _parse_power_basis(s)
    if out is None:
        den = 1
        if s.startswith("(") and ")/" in s:
            body, _, d = s.rpartition(")/")
            s = body[1:]
            den = int(d)
        elif s.startswith("(") and s.endswith(")"):
            s = s[1:-1]
        val = _parse_sum(s)
        out = val / ExactScalar.rational(den)
    return out.with_grades(qgrade=qg, pigrade=pg)


_POWER_TERM = re.compile(r"([+-]?)(\d+)(?:/(\d+))?(?:\*z(\d+)\^(\d+))?")


def _parse_power_basis(s):
    """The value of a sum of terms c and c*zN^k with one N and k < phi(N),
    the form serialize() writes for cyclotomic scalars, placed straight
    into the numerator vector; None for any other input."""
    terms, N, pos = [], None, 0
    while pos < len(s):
        m = _POWER_TERM.match(s, pos)
        if m is None or (pos and not m.group(1)):
            return None
        sign, num, den, n, k = m.groups()
        if n is not None:
            n, k = int(n), int(k)
            if N is None:
                N = n
            if n != N or n < 1 or k >= euler_phi(n):
                return None
        den = int(den or 1)
        if not den:
            return None
        terms.append((int(sign + num), den, int(k or 0)))
        pos = m.end()
    if not terms:
        return None
    den = math.lcm(*(d for _, d, _ in terms))
    nums = [0] * (euler_phi(N) if N else 1)
    for num, d, k in terms:
        nums[k] += num * (den // d)
    kind = "cyc" if N else "rat"
    return _make(kind, nums, den, N, None, 0, 0)._demote()


def _split_top(s, seps):
    parts, depth, cur = [], 0, ""
    for idx, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and ch in seps and cur.strip() and idx > 0 \
                and s[idx - 1] not in "*/^(+-":
            parts.append(cur)
            parts.append(ch)
            cur = ""
        else:
            cur += ch
    parts.append(cur)
    return parts


def _parse_sum(s):
    parts = _split_top(s, "+-")
    total = ExactScalar.zero()
    sign = 1
    for part in parts:
        if part == "+":
            sign = 1
        elif part == "-":
            sign = -1
        else:
            total = total + sign * _parse_term(part.strip())
    return total


def _parse_term(s):
    if not s:
        raise ValueError("empty term")
    neg = False
    while s.startswith("-"):
        neg = not neg
        s = s[1:].strip()
    out = ExactScalar.one()
    for fac in s.split("*"):
        fac = fac.strip()
        if not fac:
            raise ValueError(f"bad term: {s!r}")
        out = out * _parse_factor(fac)
    return -out if neg else out


def _parse_factor(f):
    if f == "i":
        return ExactScalar.i_unit()
    if f.startswith("sqrt"):
        return ExactScalar.sqrtD(int(f[4:]))
    if f.startswith("z"):
        body = f[1:]
        if "^" in body:
            n, _, k = body.partition("^")
            return ExactScalar.zeta(int(n), int(k))
        return ExactScalar.zeta(int(body))
    return ExactScalar.rational(Fraction(f))


# ----------------------------------------------------------------------
# Laurent rational functions in X with ExactScalar coefficients
# ----------------------------------------------------------------------

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


def _lp_scale(a, c):
    return _lp_clean({e: x * c for e, x in a.items()})


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
    assert b, "polynomial division by zero"
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
    """Laurent rational function num/den in X over ExactScalar."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, normalize=True):
        if den is None:
            den = {0: ExactScalar.one()}
        num = _lp_clean({int(e): _coerce(c) for e, c in num.items()})
        den = _lp_clean({int(e): _coerce(c) for e, c in den.items()})
        assert den, "zero denominator"
        if normalize:
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
        return LaurentRF(_lp_neg(self.num), self.den, normalize=False)

    def __sub__(self, other):
        return self + (-_coerce_rf(other))

    def __rsub__(self, other):
        return _coerce_rf(other) + (-self)

    def __mul__(self, other):
        other = _coerce_rf(other)
        return LaurentRF(_lp_mul(self.num, other.num), _lp_mul(self.den, other.den))

    __rmul__ = __mul__

    def inverse(self):
        assert self.num, "division by zero rational function"
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
        return hash(self.serialize())

    # -- substitution / evaluation ---------------------------------------

    def evaluate(self, x):
        """Evaluate at X = x (an ExactScalar or rational)."""
        x = _coerce(x)
        num = ExactScalar.zero()
        for e, c in self.num.items():
            num = num + c * x ** e
        den = ExactScalar.zero()
        for e, c in self.den.items():
            den = den + c * x ** e
        assert not den.is_zero(), "evaluation at a pole"
        return num / den

    def subst_X(self, scale, power=1):
        """Substitute X -> scale * X^power (power = +-1)."""
        assert power in (1, -1)
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
    """gcd-reduced form with den a polynomial of constant term 1."""
    if not num:
        return {}, {0: ExactScalar.one()}
    off_n, pn = _lp_to_poly(num)
    off_d, pd = _lp_to_poly(den)
    g = _spoly_gcd(pn, pd)
    if len(g) > 1:
        pn, rn = _spoly_divmod(pn, g)
        pd, rd = _spoly_divmod(pd, g)
        assert not any(not _coerce(x).is_zero() for x in rn)
        assert not any(not _coerce(x).is_zero() for x in rd)
    # strip trailing/leading zeros of den, make constant term 1
    lead_shift = 0
    while pd and _coerce(pd[0]).is_zero():
        pd.pop(0)
        lead_shift += 1
    c0_inv = _coerce(pd[0]).inverse()
    pd = [_coerce(x) * c0_inv for x in pd]
    pn = [_coerce(x) * c0_inv for x in pn]
    num = _poly_to_lp(off_n - off_d - lead_shift, pn)
    den = _poly_to_lp(0, pd)
    return num, den


# ----------------------------------------------------------------------
# named operation wrappers
# ----------------------------------------------------------------------

def cyclo_arith(a: ExactScalar, b: ExactScalar, op: str) -> ExactScalar:
    if op == "add":
        return a + b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown op {op!r}")


def conjugate(a: ExactScalar) -> ExactScalar:
    return a.conjugate()


def laurent_normalize(f: LaurentRF) -> LaurentRF:
    return LaurentRF(f.num, f.den)
