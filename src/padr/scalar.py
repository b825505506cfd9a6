"""The scalar kernel (L0): exact cyclotomic scalars.

Every scalar lies in one field family: a cyclotomic field Q(zeta_N),
N >= 1, where Q(zeta_1) = Q.  Square roots of integers need no field of
their own: by Kronecker-Weber sqrt D lies in Q(zeta_4D), and sqrtD(D) is
built there from quadratic Gauss sums (sqrt_prime).  Every scalar
additionally carries two formal grades:
a q-grade h (a formal factor q^(h/2)) and a pi-grade k (a formal factor
pi^k).  Multiplication adds grades; addition insists on equal grades,
except that an exact zero is grade-polymorphic.  The q-grade is an
integer.  The pi-grade is an integer or a half-integer, since
Gamma(1/2) = pi^(1/2): an integral grade is stored as a plain int, a
half-integral one as a Fraction, and any other value raises ValueError.
The archimedean Gamma factors are rational scalars with such grades.

Representation.  A scalar is a tuple of integer numerators ``nums`` over
one denominator ``den`` in the power basis 1, zeta_N, ...,
zeta_N^(phi(N)-1), i.e. the coefficients of a polynomial of degree
< phi(N) reduced mod Phi_N; a rational is the case N = 1, nums = (n,).
Two operands of different conductors meet in Q(zeta_lcm).

Invariants, kept by every constructor and operation: ``den > 0`` and
``gcd(den, *nums) == 1``, so each value of one conductor has exactly one
(nums, den); a value whose only non-zero numerator is the constant one
has N = 1; zero is ``nums == (0,)`` with ``den == 1``.  Arithmetic runs
on Python ints.  A product of two dense vectors is one multiplication of
two big integers, each vector packed into one by Kronecker substitution;
short or sparse vectors multiply term by term.  The product is reduced
mod Phi_N once: first folded through x^(N/2) + 1 (x^N - 1 for odd N),
which Phi_N divides, and then by Phi_N itself on the degrees left.
``coeffs`` gives the coefficients as Fractions.  ``hash`` reduces to the
smallest conductor that holds the value, so equal values hash alike
whatever field they were computed in.

Sparse numerators.  A value at a large N often has few non-zero
numerators: the Fourier transforms and Tate integrals of ``verify tate``
give values in Q(zeta_343) with one non-zero numerator of 294.  So every
Python loop over one vector's numerators -- lowest terms (_make),
embedding (_to_cyc), ``galois``, field descent (_descend) and the
exponent shifts of ``root_of_unity_sum`` -- walks only the non-zero
ones, found at C speed by itertools.compress.  _make takes the plain
loop over every numerator when fewer than half of them are zero, as
list.count(0) tells, since it is the faster one on a dense vector.

Sums of roots of unity.  Gauss sums, Fourier transforms and Tate integrals
add up scalars times roots of unity.  ``root_of_unity_sum`` takes each
term as r * x * zeta_M^j: a rational, a scalar and an exponent pair.
Multiplying by zeta_M^j is then an exponent shift of x's numerators into
one dense integer list, and the list is reduced mod Phi_N once for the
whole sum, with no product of two scalars formed.  Its result has the
value that the chain of * and + would give, at one conductor rule: the
lcm over the non-zero terms of lcm(x.N, M), or 1 when it is rational.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from itertools import compress

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
    _check(n >= 1, f"bad conductor {n}")
    for p in _prime_divisors(n):
        n = n // p * (p - 1)
    return n


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(n: int):
    """Coefficients (degree-ascending, integers) of the n-th cyclotomic polynomial.

    With r = rad n, the product of the primes dividing n, this is the
    Moebius product Phi_r(x) = prod over d | r of (x^d - 1)^mu(r/d), and
    then Phi_n(x) = Phi_r(x^(n/r)).  The factors with mu = 1 are multiplied
    first, so that each division by an x^d - 1 with mu = -1 is exact."""
    _check(n >= 1, f"bad conductor {n}")
    primes = _prime_divisors(n)
    r = math.prod(primes)
    # the divisors d of r with mu(d); mu(r/d) = mu(r) mu(d), r squarefree
    divs = [(1, 1)]
    for p in primes:
        divs += [(d * p, -m) for d, m in divs]
    mu_r = (-1) ** len(primes)
    ups = [d for d, m in divs if m == mu_r]
    downs = [d for d, m in divs if m != mu_r]
    poly = [1]
    for d in ups:
        out = [0] * d + poly
        for k, c in enumerate(poly):
            out[k] -= c
        poly = out
    for d in downs:
        # poly = q (x^d - 1) means poly[k] = q[k - d] - q[k]
        q = [0] * (len(poly) - d)
        for k in range(len(q)):
            q[k] = (q[k - d] if k >= d else 0) - poly[k]
        _check(([0] * d + q)[len(q):] == poly[len(q):],
               f"x^{d} - 1 does not divide the product for Phi_{n}")
        poly = q
    s = n // r
    out = [0] * ((len(poly) - 1) * s + 1)
    out[::s] = poly
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _phi_tail(N):
    """The non-zero lower terms (j, m_j) of the monic Phi_N, so that
    zeta_N^deg = -sum m_j zeta_N^j."""
    return tuple((j, m) for j, m in enumerate(cyclotomic_poly(N)[:-1]) if m)


def _cyc_reduce(acc, N):
    """Reduce a dense integer list (acc[j] multiplies zeta_N^j) mod Phi_N,
    in place; returns the phi(N) power-basis numerators.

    Phi_N divides x^h + 1 with h = N/2 for even N, and x^h - 1 with h = N
    for odd N.  So each non-zero coefficient at a degree k >= h first folds
    onto k - h (negated for even N), and only the degrees below h are then
    reduced from the top by the lower terms of Phi_N."""
    deg = euler_phi(N)
    n = len(acc)
    if n > deg:
        h = N if N & 1 else N >> 1
        if n > h:
            # from the top, so a fold onto a degree >= h is folded again
            if N & 1:
                for k in range(n - 1, h - 1, -1):
                    c = acc[k]
                    if c:
                        acc[k - h] += c
            else:
                for k in range(n - 1, h - 1, -1):
                    c = acc[k]
                    if c:
                        acc[k - h] -= c
            n = h
        tail = _phi_tail(N)
        for k in range(n - 1, deg - 1, -1):
            c = acc[k]
            if c:
                base = k - deg
                for j, m in tail:
                    acc[base + j] -= c * m
        del acc[deg:]
    elif n < deg:
        acc += [0] * (deg - n)
    return acc


class GradeError(ArithmeticError):
    """Raised when adding scalars whose formal grades disagree."""


class PoleError(ArithmeticError):
    """Raised when a factor is evaluated at one of its poles."""


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
    """Immutable element of Q(zeta_N), N >= 1 (N = 1 is Q), with formal
    grades, stored as integer numerators ``nums`` in the power basis over
    one positive ``den``."""

    __slots__ = ("N", "nums", "den", "qgrade", "pigrade")

    def __init__(self, coeffs, N=1, qgrade=0, pigrade=0):
        coeffs = [c if type(c) is Fraction else _as_fraction(c)
                  for c in coeffs]
        if N < 1:
            raise ValueError(f"bad conductor N={N}")
        if len(coeffs) != euler_phi(N):
            raise ValueError(f"Q(zeta_{N}) scalar needs {euler_phi(N)} "
                             f"coefficients, got {len(coeffs)}")
        if not any(coeffs[1:]):
            N, coeffs = 1, coeffs[:1]
        # over the lcm of reduced denominators the numerators are coprime
        den = math.lcm(*(c.denominator for c in coeffs))
        nums = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        _set_N(self, N)
        _set_nums(self, nums)
        _set_den(self, den)
        _set_qgrade(self, _qgrade(qgrade))
        _set_pigrade(self, _pigrade(pigrade))

    def __setattr__(self, *a):
        raise AttributeError("ExactScalar is immutable")

    @property
    def coeffs(self):
        """The power-basis coefficients, as Fractions."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    # -- constructors --------------------------------------------------

    @staticmethod
    def rational(x, qgrade=0, pigrade=0):
        if type(x) is int:
            return _build(1, (x,), 1, _qgrade(qgrade), _pigrade(pigrade))
        if type(x) is not Fraction:
            x = Fraction(x)
        return _build(1, (x.numerator,), x.denominator,
                      _qgrade(qgrade), _pigrade(pigrade))

    @staticmethod
    def zeta(N, k=1):
        """The root of unity zeta_N^k."""
        if N < 1:
            raise ValueError(f"bad conductor N={N}")
        k %= N
        acc = [0] * max(k + 1, euler_phi(N))
        acc[k] = 1
        return _build(N, tuple(_cyc_reduce(acc, N)), 1, 0, 0)._demote()

    @staticmethod
    def i_unit():
        return ExactScalar.zeta(4)

    @staticmethod
    def sqrtD(D):
        """The positive square root of a squarefree integer D > 1, in
        Q(zeta_4D): the product of sqrt_prime(p) over the primes p | D."""
        if type(D) is not int or D <= 1 or math.prod(_prime_divisors(D)) != D:
            raise ValueError(f"D={D} is not a squarefree integer > 1")
        out = ExactScalar.one()
        for p in _prime_divisors(D):
            out = out * sqrt_prime(p)
        return out

    @staticmethod
    def zero():
        return ExactScalar.rational(0)

    @staticmethod
    def one():
        return ExactScalar.rational(1)

    # -- basic predicates ----------------------------------------------

    def is_zero(self):
        return not any(self.nums)

    def is_one(self):
        return self.nums == (1,) and self.den == 1 and \
            not (self.qgrade or self.pigrade)

    def is_rational(self):
        return self._demote().N == 1

    def as_fraction(self):
        d = self._demote()
        # constant messages: an f-string would serialize self on every call
        _check(d.N == 1, "not rational")
        _check(d.qgrade == 0 and d.pigrade == 0, "graded scalar")
        return Fraction(d.nums[0], d.den)

    # -- canonicalization ----------------------------------------------

    def _demote(self):
        """Drop to N = 1 when the element is a plain rational."""
        if self.N == 1 or any(self.nums[1:]):
            return self
        return _build(1, self.nums[:1], self.den, self.qgrade, self.pigrade)

    def with_grades(self, qgrade=None, pigrade=None):
        return _build(self.N, self.nums, self.den,
                      self.qgrade if qgrade is None else _qgrade(qgrade),
                      self.pigrade if pigrade is None else _pigrade(pigrade))

    # -- promotion -----------------------------------------------------

    def _to_cyc(self, N):
        """Embed into Q(zeta_N); requires self.N | N."""
        if N == self.N:
            return self
        if self.N == 1:
            nums = self.nums + (0,) * (euler_phi(N) - 1)
            return _build(N, nums, self.den, self.qgrade, self.pigrade)
        step = N // self.N
        acc = [0] * N
        nums = self.nums
        for k in compress(range(len(nums)), nums):
            acc[k * step] = nums[k]
        return _make(N, _cyc_reduce(acc, N), self.den,
                     self.qgrade, self.pigrade)

    @staticmethod
    def _promote_pair(a, b):
        """a and b in one field: Q(zeta_lcm(a.N, b.N))."""
        if a.N == b.N:
            return a, b
        N = math.lcm(a.N, b.N)
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
        return _make(a.N, nums, da, a.qgrade, a.pigrade)._demote()

    __radd__ = __add__

    def __neg__(self):
        return _build(self.N, tuple([-x for x in self.nums]), self.den,
                      self.qgrade, self.pigrade)

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
        if other.N == 1:
            a, c = self, other.nums[0]
        elif self.N == 1:
            a, c = other, self.nums[0]
        else:
            a, b = ExactScalar._promote_pair(self, other)
            return _make(a.N, _cyc_mul(a.nums, b.nums, a.N), den,
                         qg, pg)._demote()
        return _make(a.N, [x * c for x in a.nums], den, qg, pg)._demote()

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise AssertionError("division by zero")
        qg, pg = -self.qgrade, -self.pigrade
        if self.N == 1:
            return _make(1, (self.den,), self.nums[0], qg, pg)
        inv, den = _cyc_inverse(self.nums, self.N)
        return _make(self.N, [x * self.den for x in inv], den,
                     qg, pg)._demote()

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
            n >>= 1
            if n:
                base = base * base
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
        a, b = ExactScalar._promote_pair(self, other)
        return a.den == b.den and a.nums == b.nums

    def __hash__(self):
        if self.is_zero():
            return hash(Q0)
        N, nums = _minimal_field(self.N, self.nums)
        if N == 1 and not (self.qgrade or self.pigrade):
            # every ungraded rational hashes as its Fraction
            return hash(Fraction(nums[0], self.den))
        return hash((N, nums, self.den, self.qgrade, self.pigrade))

    # -- Galois --------------------------------------------------------

    def galois(self, m):
        """The automorphism zeta_N -> zeta_N^m (gcd(m, N) = 1); identity on Q."""
        N = self.N
        if N == 1:
            return self
        if math.gcd(m, N) != 1:
            raise AssertionError(f"zeta_{N} -> zeta_{N}^{m} is no automorphism"
                                 f" of {self}")
        acc = [0] * N
        nums = self.nums
        for k in compress(range(len(nums)), nums):
            acc[k * m % N] += nums[k]
        return _make(N, _cyc_reduce(acc, N), self.den,
                     self.qgrade, self.pigrade)._demote()

    def conjugate(self):
        """Complex conjugation: zeta_N -> zeta_N^(-1)."""
        return self if self.N == 1 else self.galois(self.N - 1)

    # -- serialization --------------------------------------------------

    def serialize(self):
        """The power-basis form: terms c and c*zN^k (c a reduced fraction,
        0 < k < phi(N)) joined by + or -, "0" for zero, then " @q:g" and
        " @pi:h" for non-zero grades.  parse reads exactly this form."""
        d = self._demote()
        den = d.den
        terms = []
        for k, n in enumerate(d.nums):
            if n == 0:
                continue
            # n/den in lowest terms, as str(Fraction(n, den)) writes it
            g = math.gcd(n, den)
            c = f"{n // g}/{den // g}" if g != den else str(n // g)
            terms.append(f"{c}*z{d.N}^{k}" if k else c)
        body = "+".join(terms).replace("+-", "-") if terms else "0"
        if d.qgrade:
            body += f" @q:{d.qgrade}"
        if d.pigrade:
            body += f" @pi:{d.pigrade}"
        return body

    @staticmethod
    def parse(s):
        """The scalar that serialize wrote as s.  parse reads exactly
        serialize's form; any other string raises ValueError."""
        return _parse_scalar(s)

    def __repr__(self):
        return f"ExactScalar({self.serialize()!r})"


_new = object.__new__
# the slot descriptors write past ExactScalar.__setattr__, which raises to
# keep the type immutable, at less cost than object.__setattr__
_set_N, _set_nums, _set_den, _set_qgrade, _set_pigrade = (
    getattr(ExactScalar, slot).__set__ for slot in ExactScalar.__slots__)


def _build(N, nums, den, qgrade, pigrade):
    """ExactScalar from a numerator tuple and den already in lowest terms."""
    x = _new(ExactScalar)
    _set_N(x, N)
    _set_nums(x, nums)
    _set_den(x, den)
    _set_qgrade(x, qgrade)
    _set_pigrade(x, pigrade)
    return x


def _make(N, nums, den, qgrade, pigrade):
    """ExactScalar from integer numerators over den != 0, in lowest terms.

    nums is a tuple or a list that no one else holds, since it may be
    divided in place.  When at least half of the numerators are zero, the
    gcd is taken over the non-zero ones and only they are divided; a
    denser vector is divided whole, which is then the faster loop."""
    sparse = 2 * nums.count(0) >= len(nums)
    g = math.gcd(den, *(compress(nums, nums) if sparse else nums))
    if den < 0:
        g = -g
    if g != 1:
        if not sparse:
            nums = [x // g for x in nums]
        else:
            if type(nums) is tuple:
                nums = list(nums)
            for k in compress(range(len(nums)), nums):
                nums[k] //= g
        den //= g
    return _build(N, tuple(nums), den, qgrade, pigrade)


def root_of_unity_sum(terms):
    """The scalar sum of r * x * zeta_M^j over terms (r, x, M, j), with r a
    rational, x an ExactScalar and M >= 1.

    Each root of unity is an exponent shift: x's numerators go into one
    dense integer list at the lcm N of the terms' conductors, scaled to one
    common denominator, and the list is reduced mod Phi_N once.  No product
    of two scalars is formed.  A non-zero term has conductor lcm(x.N, M),
    with M counted as 1 when zeta_M^j = +-1; the sum lives at the lcm of
    these, or in Q when it is rational.  Zero terms are skipped; the
    non-zero ones must share one grade, else GradeError.
    """
    items = []
    N = D = 1
    qg = pg = last = None
    for r, x, M, j in terms:
        if type(r) is int:
            rn, rd = r, 1
        else:
            rn, rd = r.numerator, r.denominator
        if not rn:
            continue
        if x is not last:  # runs of terms often share x
            if not any(x.nums):
                continue
            if x.qgrade != qg or x.pigrade != pg:
                if qg is not None:
                    raise GradeError(f"grade mismatch in a root-of-unity sum: "
                                     f"(q:{qg},pi:{pg}) vs "
                                     f"(q:{x.qgrade},pi:{x.pigrade})")
                qg, pg = x.qgrade, x.pigrade
            last = x
            if N % x.N:
                N = math.lcm(N, x.N)
        # zeta_M^j as ExactScalar.zeta builds it: conductor M, or 1 for +-1
        j %= M
        if 2 * j % M:
            if N % M:
                N = math.lcm(N, M)
        else:
            if j:
                rn = -rn
            M, j = 1, 0
        items.append((rn, rd, x, M, j))
        d = rd * x.den
        if D % d:
            D = math.lcm(D, d)
    if not items:
        return ExactScalar.zero()
    return _make(N, _cyc_reduce(_accumulate(items, N, D), N), D, qg,
                 pg)._demote()


def _accumulate(items, N, D):
    """The dense list acc (acc[e] multiplies zeta_N^e) of the sum of
    r * x * zeta_Z^j, for items (r numerator, r denominator, x, Z, j) with
    x.N | N and Z | N, as numerators over the common denominator D.

    Only x's non-zero numerators are walked: their exponents at N, each
    below N, are found once per run of items that share x."""
    acc = [0] * N
    last = None
    for rn, rd, x, Z, j in items:
        f = rn * (D // (rd * x.den))
        pos = j * (N // Z)
        if x.N == 1:
            acc[pos] += x.nums[0] * f
            continue
        if x is not last:
            last, nums, stride = x, x.nums, N // x.N
            nz = [(k * stride, nums[k])
                  for k in compress(range(len(nums)), nums)]
        for e, c in nz:
            e += pos
            if e >= N:
                e -= N
            acc[e] += c * f
    return acc


def _coerce(x):
    if isinstance(x, ExactScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return ExactScalar.rational(x)
    raise TypeError(f"cannot coerce {x!r} to ExactScalar")


def _prime_divisors(n):
    """The distinct primes dividing n >= 1, ascending."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _minimal_field(N, nums):
    """(M, nums') with M the smallest conductor M | N such that the element
    sum nums[k] zeta_N^k lies in Q(zeta_M), and nums' its numerators in the
    power basis of Q(zeta_M).  Since these power bases span the rings of
    integers, the common denominator stays in lowest terms."""
    while True:
        for q in _prime_divisors(N):
            smaller = _descend(N, q, nums)
            if smaller is not None:
                N, nums = N // q, smaller
                break
        else:
            return N, nums


def _descend(N, q, nums):
    """The numerators in Q(zeta_(N/q)) of sum nums[k] zeta_N^k, for a prime
    q | N, or None when the element does not lie in that subfield."""
    M = N // q
    if M % q == 0:
        # 1, zeta_N, ..., zeta_N^(q-1) is a basis over Q(zeta_M), zeta_N^q = zeta_M;
        # x lies in Q(zeta_M) when every numerator off the stride q is zero
        sub = nums[::q]
        if nums.count(0) - sub.count(0) != len(nums) - len(sub):
            return None
        return sub
    # q coprime to M: zeta_N^k = zeta_M^(k u) zeta_q^(k v) by CRT; with
    # x = sum_r Y_r zeta_q^r and 1 + zeta_q + ... + zeta_q^(q-1) = 0,
    # x = sum_(r>0) (Y_r - Y_0) zeta_q^r, which lies in Q(zeta_M) iff
    # every Y_r - Y_0 is one value Z, and then x = -Z
    u, v = pow(q, -1, M), pow(M, -1, q)
    Y = [[0] * M for _ in range(q)]
    for k in compress(range(len(nums)), nums):
        Y[k * v % q][k * u % M] += nums[k]
    Y = [_cyc_reduce(y, M) for y in Y]
    Z = [y - y0 for y, y0 in zip(Y[1], Y[0])]
    if any([y - y0 for y, y0 in zip(Yr, Y[0])] != Z for Yr in Y[2:]):
        return None
    return tuple(-z for z in Z)


#: _cyc_mul packs its operands when both have at least this many non-zero
#: numerators (so also at least this length).  Below it the schoolbook loop
#: was the faster one on the operands padr meets: those of padr interp (at
#: most 17 of 60 numerators non-zero at N = 124) and the sparser products
#: of Gauss sums.
_KRON_MIN_TERMS = 28


def _cyc_mul(a, b, N):
    """Numerators of the product of two power-basis vectors mod Phi_N.

    Operands with _KRON_MIN_TERMS non-zero numerators or more are
    multiplied by Kronecker substitution: each vector is packed into one
    int, with numerator k as its digit k in base 2^(8 nb), and the two ints
    are multiplied once.  nb bytes hold any coefficient of the product with
    its sign, so no digit carries into the next.  Each numerator is
    written as the digit x + half, half = 2^(8 nb - 1), and the constant
    _kron_offset (half in every digit) is subtracted from the packed int;
    adding it back to the product makes every digit non-negative, to be
    read through bytes.  Sparser operands take the schoolbook loop over
    their non-zero numerators."""
    la, lb = len(a), len(b)
    if la < _KRON_MIN_TERMS or lb < _KRON_MIN_TERMS or min(
            la - a.count(0), lb - b.count(0)) < _KRON_MIN_TERMS:
        nza = [(i, x) for i, x in enumerate(a) if x]
        nzb = [(j, y) for j, y in enumerate(b) if y]
        if len(nza) < len(nzb):
            nza, nzb = nzb, nza
        acc = [0] * (la + lb - 1)
        for j, y in nzb:
            for i, x in nza:
                acc[i + j] += x * y
        return _cyc_reduce(acc, N)
    # |coefficient| < 2^(bits of a + bits of b + bits of min(la, lb))
    nb = (max(max(a), -min(a)).bit_length()
          + max(max(b), -min(b)).bit_length()
          + min(la, lb).bit_length() + 8) >> 3
    half = 1 << (8 * nb - 1)
    A = int.from_bytes(b"".join([(x + half).to_bytes(nb, "little")
                                 for x in a]), "little")
    B = int.from_bytes(b"".join([(y + half).to_bytes(nb, "little")
                                 for y in b]), "little")
    n = la + lb - 1
    C = ((A - _kron_offset(la, nb)) * (B - _kron_offset(lb, nb))
         + _kron_offset(n, nb)).to_bytes(n * nb, "little")
    fb = int.from_bytes
    return _cyc_reduce([fb(C[i:i + nb], "little") - half
                        for i in range(0, n * nb, nb)], N)


@functools.lru_cache(maxsize=256)
def _kron_offset(n, nb):
    """2^(8 nb - 1) in each of n digits of nb bytes."""
    return int.from_bytes((bytes(nb - 1) + b"\x80") * n, "little")


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
    _check(s * s == ExactScalar.rational(p), f"sqrt_prime({p})^2 != {p}")
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
    return _parse_power_basis(s).with_grades(qgrade=qg, pigrade=pg)


_POWER_TERM = re.compile(r"([+-]?)(\d+)(?:/(\d+))?(?:\*z(\d+)\^(\d+))?")


def _parse_power_basis(s):
    """The value of a sum of terms c and c*zN^k with one N and k < phi(N),
    the form serialize() writes, placed straight into the numerator vector;
    any other input raises ValueError."""
    terms, N, pos = [], None, 0
    while pos < len(s):
        m = _POWER_TERM.match(s, pos)
        if m is None or (pos and not m.group(1)):
            raise ValueError(f"not a serialized scalar: {s!r}")
        sign, num, den, n, k = m.groups()
        if n is not None:
            n, k = int(n), int(k)
            if N is None:
                N = n
            if n != N or n < 1 or k >= euler_phi(n):
                raise ValueError(f"not a power-basis term of Q(zeta_{N}): "
                                 f"{m.group(0)!r}")
        den = int(den or 1)
        if not den:
            raise ValueError(f"zero denominator in {s!r}")
        terms.append((int(sign + num), den, int(k or 0)))
        pos = m.end()
    if not terms:
        raise ValueError("empty scalar")
    N = N or 1
    den = math.lcm(*(d for _, d, _ in terms))
    nums = [0] * euler_phi(N)
    for num, d, k in terms:
        nums[k] += num * (den // d)
    return _make(N, nums, den, 0, 0)._demote()
