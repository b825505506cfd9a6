"""Measures on Z_p as truncated power series in T, theta twists by
locally constant functions (plocal.SchwartzFn, read on Z_p),
log-substitution, and q-expansion operator calculus.

The dictionary: a measure mu corresponds to g(T) with
integral of (1+T)^x d mu = g(T); the Dirac measure at a has transform
(1+T)^a, and moments are read off by D_T = (1+T) d/dT at T = 0.
"""

from __future__ import annotations

from fractions import Fraction

from .chars import vp_frac
from .plocal import SchwartzFn
from .scalar import ExactScalar, _check, _coerce, root_of_unity_sum


def _binom_int(a: int, k: int) -> Fraction:
    """Generalized binomial coefficient binom(a, k) for integer a."""
    out = Fraction(1)
    for j in range(k):
        out *= Fraction(a - j, j + 1)
    return out


def _reduce_mod(x: ExactScalar, p: int, m: int) -> ExactScalar:
    """Reduce a p-integral scalar coefficientwise modulo p^m (m = 0: exact)."""
    if m == 0:
        return x
    q = p ** m
    coeffs = []
    for c in x.coeffs:
        _check(c.denominator % p != 0, "non p-integral coefficient")
        num = (c.numerator * pow(c.denominator, -1, q)) % q
        coeffs.append(Fraction(num))
    return ExactScalar(coeffs, N=x.N, qgrade=x.qgrade, pigrade=x.pigrade)


class MeasureSeries:
    """Truncated power series in T representing a measure on Z_p."""

    __slots__ = ("p", "coeffs", "prec_T", "prec_p")

    def __init__(self, p, coeffs, prec_T, prec_p=0):
        _check(prec_T >= 0, "negative T-precision")
        coeffs = [_coerce(c) for c in coeffs[:prec_T + 1]]
        coeffs += [ExactScalar.zero()] * (prec_T + 1 - len(coeffs))
        coeffs = [_reduce_mod(c, p, prec_p) for c in coeffs]
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "prec_T", prec_T)
        object.__setattr__(self, "prec_p", prec_p)

    def __setattr__(self, *a):
        raise AttributeError("MeasureSeries is immutable")

    @staticmethod
    def _join_prec(a, b):
        _check(a.p == b.p, "measures at different primes")
        prec_T = min(a.prec_T, b.prec_T)
        if a.prec_p == 0:
            prec_p = b.prec_p
        elif b.prec_p == 0:
            prec_p = a.prec_p
        else:
            prec_p = min(a.prec_p, b.prec_p)
        return prec_T, prec_p

    def __add__(self, other):
        prec_T, prec_p = MeasureSeries._join_prec(self, other)
        coeffs = [x + y for x, y in zip(self.coeffs, other.coeffs)]
        return MeasureSeries(self.p, coeffs, prec_T, prec_p)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = _coerce(c)
        return MeasureSeries(self.p, [x * c for x in self.coeffs],
                             self.prec_T, self.prec_p)

    def __mul__(self, other):
        prec_T, prec_p = MeasureSeries._join_prec(self, other)
        out = [ExactScalar.zero()] * (prec_T + 1)
        for i, x in enumerate(self.coeffs[:prec_T + 1]):
            if x.is_zero():
                continue
            for j, y in enumerate(other.coeffs[:prec_T + 1 - i]):
                out[i + j] = out[i + j] + x * y
        return MeasureSeries(self.p, out, prec_T, prec_p)

    def d_T(self):
        """D_T = (1+T) d/dT; costs one order of T-precision."""
        _check(self.prec_T >= 1, "insufficient truncation for D_T")
        der = [k * self.coeffs[k] for k in range(1, self.prec_T + 1)]
        out = [ExactScalar.zero()] * self.prec_T
        for k, c in enumerate(der):
            out[k] = out[k] + c
            if k + 1 < self.prec_T:
                out[k + 1] = out[k + 1] + c
        return MeasureSeries(self.p, out, self.prec_T - 1, self.prec_p)

    def at_zero(self):
        return self.coeffs[0]

    def subst_root(self, zeta):
        """g(T) -> g(zeta (1+T) - 1) at the same truncation order."""
        zeta = _coerce(zeta)
        s0 = zeta - ExactScalar.one()  # constant term of the substitution
        # powers of (s0 + zeta*T) truncated
        out = [ExactScalar.zero()] * (self.prec_T + 1)
        power = [ExactScalar.one()] + [ExactScalar.zero()] * self.prec_T
        for k, c in enumerate(self.coeffs):
            if not c.is_zero():
                for i, x in enumerate(power):
                    out[i] = out[i] + c * x
            if k < self.prec_T:
                nxt = [ExactScalar.zero()] * (self.prec_T + 1)
                for i, x in enumerate(power):
                    if x.is_zero():
                        continue
                    nxt[i] = nxt[i] + x * s0
                    if i + 1 <= self.prec_T:
                        nxt[i + 1] = nxt[i + 1] + x * zeta
                power = nxt
        return MeasureSeries(self.p, out, self.prec_T, self.prec_p)

    def serialize(self):
        return {
            "p": self.p,
            "prec_T": self.prec_T,
            "prec_p": self.prec_p,
            "coeffs": [c.serialize() for c in self.coeffs],
        }

    def __eq__(self, other):
        return (self.p == other.p and self.prec_T == other.prec_T
                and self.prec_p == other.prec_p and self.coeffs == other.coeffs)

    def __repr__(self):
        return f"MeasureSeries({self.serialize()})"


def dirac_series(a: int, p: int, prec_T: int, prec_p: int = 0) -> MeasureSeries:
    """Transform (1+T)^a of the Dirac measure at the p-adic integer a."""
    coeffs = [ExactScalar.rational(_binom_int(a, k)) for k in range(prec_T + 1)]
    return MeasureSeries(p, coeffs, prec_T, prec_p)


def mellin_moment(g: MeasureSeries, k: int) -> ExactScalar:
    """The k-th moment: D_T^k g at T = 0 equals the integral of x^k d mu(g)."""
    _check(0 <= k <= g.prec_T, "insufficient truncation")
    out = g
    for _ in range(k):
        out = out.d_T()
    return out.at_zero()


def theta_twist(g: MeasureSeries, phi: SchwartzFn) -> MeasureSeries:
    """Twist the measure by phi restricted to Z_p, via averaging over p-power
    roots of unity: with q = p^max(0, largest ball level of phi), phi
    factors through Z/q on Z_p, and the twist is

    (1/q) sum_{u mod q} sum_{zeta in mu_q} zeta^(-u) phi(u) g(zeta(1+T)-1).

    Each Fourier coefficient c_j = q^(-1) sum_u zeta_q^(-ju) phi(u) is one
    root_of_unity_sum, with phi read once per u.
    """
    _check(g.p == phi.p, "measure and function at different primes")
    p = g.p
    q = p ** max([0] + [k for _, k, _ in phi.terms])
    inv_q = Fraction(1, q)
    values = [(u, phi.evaluate(u)) for u in range(q)]
    total = None
    for j in range(q):
        c = root_of_unity_sum([(inv_q, v, q, -j * u) for u, v in values])
        if c.is_zero():
            continue
        term = g.subst_root(ExactScalar.zeta(q, j)).scale(c)
        total = term if total is None else total + term
    if total is None:
        total = MeasureSeries(p, [], g.prec_T, g.prec_p)
    return total


def integrate(g: MeasureSeries, phi: SchwartzFn,
              power: int = 0) -> ExactScalar:
    """Integral of phi(x) x^power d mu(g) by twisting the measure, then taking the plain moment."""
    return mellin_moment(theta_twist(g, phi), power)


def substitute_log(f_coeffs, c, p: int, prec_T: int,
                   prec_p: int = 0) -> MeasureSeries:
    """Return f(c log(1+T)) truncated; the n-th moment is c^n n! [w^n]f."""
    c = _coerce(c)
    # log(1+T) truncated
    log_coeffs = [ExactScalar.zero()] + [
        ExactScalar.rational(Fraction((-1) ** (k + 1), k))
        for k in range(1, prec_T + 1)]
    L = MeasureSeries(p, log_coeffs, prec_T, 0).scale(c)
    out = MeasureSeries(p, [], prec_T, 0)
    power = MeasureSeries(p, [ExactScalar.one()], prec_T, 0)
    for n, fn in enumerate(f_coeffs):
        if n > prec_T:
            break
        fn = _coerce(fn)
        if not fn.is_zero():
            out = out + power.scale(fn)
        power = power * L
    return MeasureSeries(p, list(out.coeffs), prec_T, prec_p)


class QExpansion:
    """Finitely supported q-expansion coefficients a_m, 1 <= m <= M_max."""

    __slots__ = ("coeffs", "M_max")

    def __init__(self, coeffs, M_max=None):
        coeffs = {int(m): Fraction(c) for m, c in coeffs.items() if c != 0}
        _check(all(m >= 1 for m in coeffs), "q-expansion index below 1")
        self.coeffs = coeffs
        self.M_max = M_max if M_max is not None else max(coeffs, default=1)

    def __eq__(self, other):
        return self.coeffs == other.coeffs

    def __repr__(self):
        return f"QExpansion({self.coeffs})"


def qexp_ops(f: QExpansion, op: str, p: int, N: int = 1) -> QExpansion:
    """Up: a_m -> a_{pm}; theta: a_m -> m a_m; Up_theta_power(N): (Up o theta)^N."""
    if op == "Up":
        return QExpansion({m: f.coeffs[p * m] for m in range(1, f.M_max // p + 1)
                           if p * m in f.coeffs}, max(1, f.M_max // p))
    if op == "theta":
        return QExpansion({m: m * c for m, c in f.coeffs.items()}, f.M_max)
    if op == "Up_theta_power":
        out = f
        for _ in range(N):
            out = qexp_ops(qexp_ops(out, "theta", p), "Up", p)
        return out
    raise ValueError(f"unknown op {op!r}")


def min_vp(f: QExpansion, p: int):
    """Minimum p-adic valuation over the coefficients (None if f = 0)."""
    if not f.coeffs:
        return None
    return min(vp_frac(c, p) for c in f.coeffs.values())
