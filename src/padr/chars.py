"""p-adic valuations, the additive character psi, characters of Q_p^x and
their Gauss sums (L2), with the Gauss-sum cache under PADR_CACHE_DIR.

Values of psi and of characters on units are roots of unity, carried as
exponent pairs (M, j) for zeta_M^j: psi_exponent(num, den, p) gives
psi(num/den) from integers, and PadicChar.unit_exponent(a) gives chi(a).
psi_value and PadicChar.value_unit wrap them for callers that want a scalar.
"""

from __future__ import annotations

import json
import math
import os
import sys
from fractions import Fraction
from functools import lru_cache

from .scalar import (ExactScalar, _check, _coerce, euler_phi,
                     root_of_unity_sum)


# ---------------------------------------------------------------------------
# rational p-adic helpers
# ---------------------------------------------------------------------------

def vp_frac(x, p: int) -> int:
    """p-adic valuation of a non-zero rational (an int or a Fraction)."""
    if type(x) is not int and type(x) is not Fraction:
        x = Fraction(x)
    _check(x != 0, "the valuation of 0")
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def unit_residue(x, p: int, c: int) -> int:
    """The residue mod p^c of a rational x that is a p-adic unit."""
    if type(x) is not int:
        x = Fraction(x)
    n, d = x.numerator, x.denominator
    _check(n % p and d % p, "not a p-adic unit")
    q = p ** c
    return n * pow(d, -1, q) % q


def psi_exponent(num: int, den: int, p: int):
    """(q, j) with psi(num/den) = zeta_q^j, for integers num and den > 0,
    den a power of p: q = p^t is the denominator of num/den in lowest
    terms, and j is a unit mod q (q = 1, j = 0 on Z_p).  Integer
    arithmetic only.

    psi is trivial on Z_p and psi(b/p^k) = zeta_{p^k}^(-b).
    """
    g = math.gcd(num, den)
    num, den = num // g, den // g
    _check(den == p ** vp_frac(den, p), "psi needs a p-power denominator")
    return den, -num % den


def psi_value(r, p: int) -> ExactScalar:
    """psi(r) for rational r with p-power denominator, as a scalar."""
    r = Fraction(r)
    return ExactScalar.zeta(*psi_exponent(r.numerator, r.denominator, p))


@lru_cache(maxsize=None)
def _primitive_root(p: int) -> int:
    """Smallest primitive root mod p^c valid for every c >= 1 (p odd)."""
    _check(p % 2 == 1 and p > 1, f"no cyclic unit group mod p^c for p={p}")
    for g in range(2, p):
        seen, x = set(), 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        if len(seen) == p - 1:
            if pow(g, p - 1, p * p) == 1:
                g += p
            return g
    raise AssertionError("no primitive root found")


@lru_cache(maxsize=None)
def _dlog_table(p: int, c: int):
    """Discrete-log table a -> ind(a) base the fixed generator of (Z/p^c)^x."""
    q = p ** c
    g = _primitive_root(p) % q
    table, x = {}, 1
    for k in range(euler_phi(q)):
        table[x] = k
        x = x * g % q
    return table


# ---------------------------------------------------------------------------
# multiplicative characters of Q_p^x
# ---------------------------------------------------------------------------

class PadicChar:
    """Character of Q_p^x: value u at p, finite part of conductor p^c given by
    an exponent e against the fixed generator of (Z/p^c)^x."""

    __slots__ = ("p", "u", "c", "e")

    def __init__(self, p, u=1, c=0, e=0):
        u = _coerce(u)
        _check(not u.is_zero(), "a character's value at p must be non-zero")
        c = int(c)
        _check(c >= 0, "negative conductor exponent")
        if c > 0:
            _check(p % 2 == 1, "ramified characters require odd p")
            m = euler_phi(p ** c)
            e = int(e) % m
            # primitivity: the finite part must not factor through level c-1
            if c == 1:
                _check(e != 0, "conductor 1 requires a non-trivial finite part")
            else:
                _check(e % p != 0, "the exponent has a smaller conductor")
        else:
            e = 0
        self.p, self.u, self.c, self.e = p, u, c, e

    # -- construction ------------------------------------------------------

    @staticmethod
    def unramified(p, u):
        return PadicChar(p, u, 0, 0)

    @staticmethod
    def from_parts(p, u=1, c=0, e=0):
        """Build a character, reducing (c, e) to the exact conductor."""
        c, e = int(c), int(e)
        if c > 0:
            e %= euler_phi(p ** c)
        while c >= 2 and e % p == 0:
            e //= p
            c -= 1
        if c == 1 and e % (p - 1) == 0:
            c, e = 0, 0
        return PadicChar(p, u, c, e)

    # -- values ------------------------------------------------------------

    def unit_exponent(self, a):
        """(m, k) with chi(a) = zeta_m^k at a p-adic unit a (integer or
        rational): m = phi(p^c), and (1, 0) when chi is unramified."""
        if self.c == 0:
            return 1, 0
        m = euler_phi(self.p ** self.c)
        a = unit_residue(a, self.p, self.c)
        return m, self.e * _dlog_table(self.p, self.c)[a] % m

    def value_unit(self, a) -> ExactScalar:
        """Value at a p-adic unit a (integer or rational)."""
        return ExactScalar.zeta(*self.unit_exponent(a))

    def __call__(self, x) -> ExactScalar:
        x = Fraction(x)
        v = vp_frac(x, self.p)
        unit = x / Fraction(self.p) ** v
        return self.u ** v * self.value_unit(unit)

    def at_minus_one(self) -> ExactScalar:
        return self.value_unit(-1)

    # -- algebra -------------------------------------------------------------

    def __mul__(self, other):
        _check(self.p == other.p, "characters at different primes")
        p = self.p
        C = max(self.c, other.c)
        if C == 0:
            return PadicChar(p, self.u * other.u, 0, 0)
        mC = euler_phi(p ** C)
        e = 0
        for ch in (self, other):
            if ch.c > 0:
                e += ch.e * (mC // euler_phi(p ** ch.c))
        return PadicChar.from_parts(p, self.u * other.u, C, e)

    def inverse(self):
        if self.c == 0:
            return PadicChar(self.p, self.u.inverse(), 0, 0)
        m = euler_phi(self.p ** self.c)
        return PadicChar(self.p, self.u.inverse(), self.c, (-self.e) % m)

    def restrict_units(self):
        """The same finite part with the value at p reset to 1."""
        return PadicChar(self.p, 1, self.c, self.e)

    def key(self):
        # u itself: ExactScalar == and hash hold across field embeddings
        return (self.p, self.c, self.e, self.u)

    def __eq__(self, other):
        return isinstance(other, PadicChar) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return (f"PadicChar(p={self.p}, u={self.u.serialize()}, "
                f"c={self.c}, e={self.e})")


# ---------------------------------------------------------------------------
# Gauss sums
# ---------------------------------------------------------------------------

#: the Gauss sums known to this process, keyed "p_c_e", loaded on first use
#: from PADR_CACHE_DIR; an entry read from the file stays its raw string
#: until a lookup parses and checks it.  Dirty once a sum is added that the
#: file lacks.
_GAUSS_MEMO = None
_GAUSS_DIRTY = False


def _gauss_cache():
    global _GAUSS_MEMO
    if _GAUSS_MEMO is None:
        _GAUSS_MEMO = {}
        cache_dir = os.environ.get("PADR_CACHE_DIR")
        if cache_dir:
            path = os.path.join(cache_dir, "gauss_sums.json")
            if os.path.exists(path):
                try:
                    with open(path) as fh:
                        entries = json.load(fh)
                    if isinstance(entries, dict):
                        _GAUSS_MEMO = entries
                except (OSError, ValueError):
                    # unreadable or truncated: recompute, and rewrite it
                    pass
    return _GAUSS_MEMO


def _gauss_entry(memo, key):
    """The memo's sum at key, parsing a raw entry in place; None when the
    key is absent or its raw entry is not a Gauss sum, which drops it.

    A raw entry g at key "p_c_e" is checked by one product: a Gauss sum of
    conductor q = p^c has |g|^2 = q, so g galois(-1)(g) = p^c.  A sum
    computed in this process is not checked."""
    v = memo.get(key)
    if v is None or isinstance(v, ExactScalar):
        return v
    try:
        p, c, _ = map(int, key.split("_"))
        # a key names a prime power p^c with c >= 1; p ** c is built below
        v = ExactScalar.parse(v) if p >= 2 and c >= 1 else None
    except (ValueError, AttributeError):
        v = None
    if v is not None:
        norm = v * v.galois(-1)
        # p^c > norm when c exceeds norm's bit length: no power to build
        if norm.N != 1 or c > norm.nums[0].bit_length() or norm != p ** c:
            v = None
    if v is None:
        del memo[key]
        return None
    memo[key] = v
    return v


def _gauss_cache_store():
    cache_dir = os.environ.get("PADR_CACHE_DIR")
    if cache_dir:
        path = os.path.join(cache_dir, "gauss_sums.json")
        # an entry never looked up is still raw: parse and check it, and
        # drop it if it fails, so the file holds only checked Gauss sums
        entries = {}
        for k in list(_GAUSS_MEMO):
            v = _gauss_entry(_GAUSS_MEMO, k)
            if v is not None:
                entries[k] = v.serialize()
        # a reader never sees a half-written file: write aside, then rename
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            os.makedirs(cache_dir, exist_ok=True)
            with open(tmp, "w") as fh:
                json.dump(entries, fh, sort_keys=True)
            os.replace(tmp, path)
        except OSError as exc:
            # an unwritable cache costs later runs time, not this verdict
            print(f"padr: Gauss sums not cached: {exc}", file=sys.stderr)
        finally:
            if os.path.isfile(tmp):
                os.unlink(tmp)


def flush_gauss_cache():
    """Write the memo to PADR_CACHE_DIR when it holds sums the file lacks.

    `gauss_sum` only marks the memo dirty, so the file is serialized and
    replaced once per command (the CLI calls this when a command ends),
    not once per new sum."""
    global _GAUSS_DIRTY
    if _GAUSS_DIRTY:
        _gauss_cache_store()
        _GAUSS_DIRTY = False


def gauss_sum(chi: PadicChar) -> ExactScalar:
    """g(chi, psi) = sum over units a mod p^c of chi(a)^(-1) psi(-a/p^c).

    With the normalization psi(b/p^k) = zeta_{p^k}^(-b) this is
    sum_a chi(a)^(-1) zeta_{p^c}^a; for c = 0 the sum is set to 1.
    """
    global _GAUSS_DIRTY
    if chi.c == 0:
        return ExactScalar.one()
    memo = _gauss_cache()
    key = f"{chi.p}_{chi.c}_{chi.e}"
    total = _gauss_entry(memo, key)
    if total is not None:
        return total
    total = _gauss_sum_at(chi, 1)
    memo[key] = total
    _GAUSS_DIRTY = True
    return total


def gauss_sum_twisted(chi: PadicChar, y) -> ExactScalar:
    """g(chi, psi^(-y)) for y in Z_p, by direct summation.

    psi^(-y)(x) = psi(-yx), so the summand is chi(a)^(-1) psi(ya/p^c).
    """
    if chi.c == 0:
        return ExactScalar.one()
    y = Fraction(y)
    _check(y == 0 or vp_frac(y, chi.p) >= 0, "twist must be integral")
    q = chi.p ** chi.c
    return _gauss_sum_at(chi, -y.numerator * pow(y.denominator, -1, q))


def _gauss_sum_at(chi: PadicChar, t: int) -> ExactScalar:
    """sum over units a mod q = p^c of chi(a)^(-1) zeta_q^(t a), c >= 1.

    Each term is the single root of unity zeta_m^k zeta_q^(t a), i.e. the
    exponent N/m k + N/q t a at N = lcm(m, q): one root_of_unity_sum with
    x = 1 and r = 1, reduced mod Phi_N once."""
    p, c = chi.p, chi.c
    q = p ** c
    e = chi.inverse().e
    m = euler_phi(q)
    N = m * q // math.gcd(m, q)
    dlog = _dlog_table(p, c)
    one = ExactScalar.one()
    return root_of_unity_sum([(1, one, N, N // m * (e * dlog[a] % m)
                               + N // q * t * a)
                              for a in range(1, q) if a % p])


def _gauss_inverse(chi: PadicChar) -> ExactScalar:
    """g(chi,psi)^(-1) without a field inversion, via
    g(chi,psi) g(chi^(-1),psi) = q^c chi(-1)."""
    if chi.c == 0:
        return ExactScalar.one()
    q = Fraction(chi.p) ** chi.c
    return gauss_sum(chi.inverse()) * chi.at_minus_one() / ExactScalar.rational(q)
