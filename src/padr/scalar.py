"""The scalar kernel (L0): exact cyclotomic scalars.

Every scalar lies in one field family: a cyclotomic field Q(zeta_N),
N >= 1, where Q(zeta_1) = Q.  Square roots of integers need no field of
their own: by Kronecker-Weber sqrt p lies in Q(zeta_4p), where
sqrt_prime(p) builds it from a quadratic Gauss sum, and a half power
p^(h/2) is p^floor(h/2) sqrt_prime(p)^(h mod 2) (half_power).  pi lies
in no Q(zeta_N), so a power of pi is no scalar: the archimedean Gamma
factors are rational multiples r pi^k, which padr.arch holds as Laurent
monomials r X^k in X = pi.

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
``coeffs`` gives the coefficients as Fractions.  ``hash`` reads the
normalized trace Tr(x)/phi(N), which is the same in every Q(zeta_N) that
holds x and is x itself for a rational, so equal values hash alike
whatever field they were computed in and a rational hashes as its
Fraction.

Sparse numerators.  A value at a large N often has few non-zero
numerators: the Fourier transforms and Tate integrals of ``verify tate``
give values in Q(zeta_343) with one non-zero numerator of 294.  So every
Python loop over one vector's numerators -- lowest terms (_make),
embedding (_to_cyc), ``galois`` and the exponent shifts of
``root_of_unity_sum`` -- walks only the non-zero ones, found at C speed
by itertools.compress.  _make takes the plain loop over every numerator
when fewer than half of them are zero, as list.count(0) tells, since it
is the faster one on a dense vector.

Sums of roots of unity.  Gauss sums, Fourier transforms and Tate integrals
add up scalars times roots of unity.  ``root_of_unity_sum`` takes each
term as r * x * zeta_M^j: a rational, a scalar and an exponent pair.
Multiplying by zeta_M^j is then an exponent shift of x's numerators into
one dense integer list, and the list is reduced mod Phi_N once for the
whole sum, with no product of two scalars formed.  Its result has the
value that the chain of * and + would give, at one conductor rule: the
lcm over the non-zero terms of lcm(x.N, M), or 1 when it is rational.

Inversion.  The norm of x, the product of its conjugates under
(Z/N)^x, is rational, so 1/x is the product cof of the conjugates other
than x, over that rational.  The norm is taken down a chain of subgroups
H of (Z/N)^x: y = cof * x starts at x, fixed by H = {1}.  While y is not
rational, h is the smallest unit not in H and n the least exponent with
h^n in H; then cof and y are multiplied by Q = prod over 0 < i < n of
h^i(y), and H grows to <H, h>.  Q = h(P_(n-1)), with P_k the product over
i < k of h^i(y), built by doubling (Itoh-Tsujii): P_2k = P_k * h^k(P_k)
and P_2k+1 = y * h(P_2k).  So an inverse needs only galois and *: no
polynomial gcd, and no division by Phi_N.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from itertools import compress

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


class PoleError(ArithmeticError):
    """Raised when a factor is evaluated at one of its poles."""


def _check(ok, what):
    """Raise AssertionError(what) unless ok; unlike assert, this also runs
    under python -O, so an identity check cannot pass by being skipped."""
    if not ok:
        raise AssertionError(what)


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not a rational: {x!r}")


class ExactScalar:
    """Immutable element of Q(zeta_N), N >= 1 (N = 1 is Q), stored as
    integer numerators ``nums`` in the power basis over one positive
    ``den``."""

    __slots__ = ("N", "nums", "den")

    def __init__(self, coeffs, N=1):
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

    def __setattr__(self, *a):
        raise AttributeError("ExactScalar is immutable")

    @property
    def coeffs(self):
        """The power-basis coefficients, as Fractions."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    # -- constructors --------------------------------------------------

    @staticmethod
    def rational(x):
        if type(x) is int:
            return _build(1, (x,), 1)
        if type(x) is not Fraction:
            x = Fraction(x)
        return _build(1, (x.numerator,), x.denominator)

    @staticmethod
    def zeta(N, k=1):
        """The root of unity zeta_N^k."""
        if N < 1:
            raise ValueError(f"bad conductor N={N}")
        k %= N
        acc = [0] * max(k + 1, euler_phi(N))
        acc[k] = 1
        return _build(N, tuple(_cyc_reduce(acc, N)), 1)._demote()

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
        return self.nums == (1,) and self.den == 1

    def is_rational(self):
        return self._demote().N == 1

    def as_fraction(self):
        d = self._demote()
        # constant messages: an f-string would serialize self on every call
        _check(d.N == 1, "not rational")
        return Fraction(d.nums[0], d.den)

    # -- canonicalization ----------------------------------------------

    def _demote(self):
        """Drop to N = 1 when the element is a plain rational."""
        if self.N == 1 or any(self.nums[1:]):
            return self
        return _build(1, self.nums[:1], self.den)

    # -- promotion -----------------------------------------------------

    def _to_cyc(self, N):
        """Embed into Q(zeta_N); requires self.N | N."""
        if N == self.N:
            return self
        if self.N == 1:
            nums = self.nums + (0,) * (euler_phi(N) - 1)
            return _build(N, nums, self.den)
        step = N // self.N
        acc = [0] * N
        nums = self.nums
        for k in compress(range(len(nums)), nums):
            acc[k * step] = nums[k]
        return _make(N, _cyc_reduce(acc, N), self.den)

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
        a, b = ExactScalar._promote_pair(self, other)
        da, db = a.den, b.den
        if da == db:
            nums = [x + y for x, y in zip(a.nums, b.nums)]
        else:
            g = math.gcd(da, db)
            fa, fb = db // g, da // g
            nums = [x * fa + y * fb for x, y in zip(a.nums, b.nums)]
            da *= fa
        return _make(a.N, nums, da)._demote()

    __radd__ = __add__

    def __neg__(self):
        return _build(self.N, tuple([-x for x in self.nums]), self.den)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        den = self.den * other.den
        # a rational factor scales the other's numerators: no promotion
        if other.N == 1:
            a, c = self, other.nums[0]
        elif self.N == 1:
            a, c = other, self.nums[0]
        else:
            a, b = ExactScalar._promote_pair(self, other)
            return _make(a.N, _cyc_mul(a.nums, b.nums, a.N), den)._demote()
        return _make(a.N, [x * c for x in a.nums], den)._demote()

    __rmul__ = __mul__

    def inverse(self):
        """1/x = cof / y, with y = cof * x the norm of x, taken down a chain
        of subgroups H of (Z/N)^x (see Inversion in the module docstring)."""
        if self.is_zero():
            raise AssertionError("division by zero")
        N = self.N
        if N == 1:
            return _make(1, (self.den,), self.nums[0])
        # y = cof * x is the norm of x to the subfield that H fixes
        H, y, cof = {1}, self, ExactScalar.one()
        while y.N != 1:
            h = next(m for m in range(2, N)
                     if m not in H and math.gcd(m, N) == 1)
            hs, t = [1], h  # h^i mod N for i < n, h^n the first one in H
            while t not in H:
                hs.append(t)
                t = t * h % N
            # P_k = prod over i < k of h^i(y), for k = n - 1 by doubling
            P, k = y, 1
            for bit in bin(len(hs) - 1)[3:]:
                P, k = P * P.galois(hs[k]), 2 * k
                if bit == "1":
                    P, k = y * P.galois(h), k + 1
            Q = P.galois(h)
            cof, y = cof * Q, y * Q
            H = {g * e % N for g in H for e in hs}
        return cof * y.inverse()

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
        a, b = ExactScalar._promote_pair(self, other)
        return a.den == b.den and a.nums == b.nums

    def __hash__(self):
        # the normalized trace Tr(x)/phi(N) is the same in every Q(zeta_N)
        # that holds x, and it is x itself when x is rational
        N = self.N
        tr = Fraction(sum(n * t for n, t in zip(self.nums, _traces(N))),
                      self.den * euler_phi(N))
        return hash(tr)

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
        return _make(N, _cyc_reduce(acc, N), self.den)._demote()

    def conjugate(self):
        """Complex conjugation: zeta_N -> zeta_N^(-1)."""
        return self if self.N == 1 else self.galois(self.N - 1)

    # -- serialization --------------------------------------------------

    def serialize(self):
        """The power-basis form: terms c and c*zN^k (c a reduced fraction,
        0 < k < phi(N)) joined by + or -, "0" for zero.  parse reads
        exactly this form."""
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
        return "+".join(terms).replace("+-", "-") if terms else "0"

    @staticmethod
    def parse(s):
        """The scalar that serialize wrote as s.  parse reads exactly
        serialize's form: any string that serialize would not write, as
        "2/4", "+1" or "1*z3^0", raises ValueError."""
        x = _parse_power_basis(s)
        if x.serialize() != s:
            raise ValueError(f"not a serialized scalar: {s!r}")
        return x

    def __repr__(self):
        return f"ExactScalar({self.serialize()!r})"


_new = object.__new__
# the slot descriptors write past ExactScalar.__setattr__, which raises to
# keep the type immutable, at less cost than object.__setattr__
_set_N, _set_nums, _set_den = (
    getattr(ExactScalar, slot).__set__ for slot in ExactScalar.__slots__)


def _build(N, nums, den):
    """ExactScalar from a numerator tuple and den already in lowest terms."""
    x = _new(ExactScalar)
    _set_N(x, N)
    _set_nums(x, nums)
    _set_den(x, den)
    return x


def _make(N, nums, den):
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
    return _build(N, tuple(nums), den)


def root_of_unity_sum(terms):
    """The scalar sum of r * x * zeta_M^j over terms (r, x, M, j), with r a
    rational, x an ExactScalar and M >= 1.

    Each root of unity is an exponent shift: x's numerators go into one
    dense integer list at the lcm N of the terms' conductors, scaled to one
    common denominator, and the list is reduced mod Phi_N once.  No product
    of two scalars is formed.  A non-zero term has conductor lcm(x.N, M),
    with M counted as 1 when zeta_M^j = +-1; the sum lives at the lcm of
    these, or in Q when it is rational.  Zero terms are skipped.
    """
    items = []
    N = D = 1
    last = None
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
    return _make(N, _cyc_reduce(_accumulate(items, N, D), N), D)._demote()


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


@functools.lru_cache(maxsize=None)
def _traces(N):
    """The traces Tr(zeta_N^k) from Q(zeta_N) to Q for k < phi(N):
    mu(m) phi(N)/phi(m), with m = N/gcd(N, k) the order of zeta_N^k."""
    out = []
    for k in range(euler_phi(N)):
        m = N // math.gcd(N, k)
        primes = _prime_divisors(m)
        mu = 0 if math.prod(primes) != m else (-1) ** len(primes)
        out.append(mu * (euler_phi(N) // euler_phi(m)))
    return tuple(out)


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


# ----------------------------------------------------------------------
# exact square roots of small primes inside cyclotomic fields
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def sqrt_prime(p: int) -> ExactScalar:
    """An exact cyclotomic element whose square is p (p prime), as one
    root_of_unity_sum: zeta_8 + zeta_8^7 for p = 2, and otherwise the
    quadratic Gauss sum g = sum over a mod p of (a/p) zeta_p^a, which is
    sqrt(p) for p = 1 mod 4 and i sqrt(p) for p = 3 mod 4; there the
    value is -i g, whose terms -i zeta_p^a are zeta_4p^(3p + 4a)."""
    one = ExactScalar.one()
    if p == 2:
        terms = [(1, one, 8, 1), (1, one, 8, 7)]
    else:
        M, shift, step = (p, 0, 1) if p % 4 == 1 else (4 * p, 3 * p, 4)
        terms = [(1 if pow(a, (p - 1) // 2, p) == 1 else -1, one, M,
                  shift + step * a) for a in range(1, p)]
    s = root_of_unity_sum(terms)
    _check(s * s == ExactScalar.rational(p), f"sqrt_prime({p})^2 != {p}")
    return s


def half_power(p: int, h: int) -> ExactScalar:
    """p^(h/2) for a prime p and an integer h, as the rational
    p^floor(h/2) times sqrt_prime(p) when h is odd: no field inversion."""
    r = ExactScalar.rational(Fraction(p) ** (h >> 1))
    return r * sqrt_prime(p) if h & 1 else r


# ----------------------------------------------------------------------
# scalar parsing
# ----------------------------------------------------------------------

_POWER_TERM = re.compile(r"([+-]?)(\d+)(?:/(\d+))?(?:\*z(\d+)\^(\d+))?")


def _parse_power_basis(s):
    """The value of a sum of terms c and c*zN^k with one N and k < phi(N),
    placed straight into the numerator vector; input of any other shape
    raises ValueError."""
    terms, N, pos = [], None, 0
    while pos < len(s):
        m = _POWER_TERM.match(s, pos)
        if m is None:
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
    return _make(N, nums, den)._demote()
