"""Exact archimedean factors.

Gamma_R / Gamma_C values at integer points, archimedean L-factors attached
to Harish-Chandra parameters, the central L-ratio in its product-of-Gamma
and closed forms, criticality flags and the sign/weight bookkeeping for the
interpolation formula, formal degrees, and the full two-route assembly
check for the archimedean period identity.

Everything is exact: each value is a rational ExactScalar whose pi-grade
k stands for a factor pi^k.  The grade is an integer or, transiently
(Gamma at a half-odd-integer, Gamma(1/2) = pi^(1/2)), a half-integer, so
no floating point ever enters.
"""

from fractions import Fraction
from math import comb, factorial

from padr.scalar import ExactScalar, _check
from padr.repalg import SignedHCSeq, ggp_check, trilinear_closed, \
    trilinear_value


def _pi(value, k):
    """The rational scalar value * pi^k."""
    return ExactScalar.rational(value, pigrade=k)


def gamma_plain(s):
    """Gamma(s) at a positive integer or positive half-odd-integer,
    as an exact scalar (Gamma(1/2) = pi^(1/2))."""
    s = Fraction(s)
    _check(s > 0, f"Gamma argument {s} not positive")
    if s.denominator == 1:
        return ExactScalar.rational(factorial(s.numerator - 1))
    _check(s.denominator == 2, f"Gamma argument {s} not half-integral")
    # Gamma(m + 1/2) = (2m)! / (4^m m!) * sqrt(pi)
    m = (s.numerator - 1) // 2
    return _pi(Fraction(factorial(2 * m), 4 ** m * factorial(m)),
               Fraction(1, 2))


def gamma_R(s):
    """pi^(-s/2) Gamma(s/2) at a positive integer s."""
    s = Fraction(s)
    _check(s.denominator == 1 and s > 0, f"Gamma_R argument {s}")
    return _pi(1, -s / 2) * gamma_plain(s / 2)


def gamma_C(s):
    """2 (2 pi)^(-s) Gamma(s) at a positive integer s."""
    s = Fraction(s)
    _check(s.denominator == 1 and s > 0, f"Gamma_C argument {s}")
    n = s.numerator
    return _pi(Fraction(2 * factorial(n - 1), 2 ** n), -n)


# ---------------------------------------------------------------------------
# weights and Harish-Chandra parameters
# ---------------------------------------------------------------------------

class WeightTuple:
    """Weights k = (k1, k2, k3) and kp = (k1', k2'), weakly increasing."""

    __slots__ = ("k", "kp")

    def __init__(self, k, kp):
        k, kp = tuple(int(x) for x in k), tuple(int(x) for x in kp)
        _check(len(k) == 3 and len(kp) == 2, "need three k and two kp")
        _check(k[0] <= k[1] <= k[2], "k not weakly increasing")
        _check(kp[0] <= kp[1], "kp not weakly increasing")
        self.k, self.kp = k, kp

    def __eq__(self, other):
        return (isinstance(other, WeightTuple)
                and (self.k, self.kp) == (other.k, other.kp))

    def __repr__(self):
        return f"WeightTuple({self.k}, {self.kp})"


class HCParams:
    """Harish-Chandra parameters: integers lam = (lam1, lam2, lam3),
    strictly descending in the first pair, and half-odd-integers
    mu = (mu1, mu2)."""

    __slots__ = ("lam", "mu")

    def __init__(self, lam, mu):
        lam = tuple(int(x) for x in lam)
        mu = tuple(Fraction(x) for x in mu)
        _check(len(lam) == 3 and len(mu) == 2, "need three lam and two mu")
        _check(lam[0] > lam[1], "lam not descending")
        _check(all(m.denominator == 2 for m in mu), "mu not half-odd")
        self.lam, self.mu = lam, mu

    def __eq__(self, other):
        return (isinstance(other, HCParams)
                and (self.lam, self.mu) == (other.lam, other.mu))

    def __repr__(self):
        return f"HCParams({self.lam}, {tuple(map(str, self.mu))})"


def hc_from_weights(w):
    """Harish-Chandra parameters and criticality flags of a weight tuple.

    Returns (HCParams, in_Xcrit, in_Ycrit) with
    lam = (-k1, -k2 - 1, -k3 + 1), mu = (-k1' - 1/2, -k2' + 1/2);
    in_Xcrit iff k1 <= k1' <= k2 and k3 <= k2'; in_Ycrit adds k1 = k1'.
    """
    k1, k2, k3 = w.k
    k1p, k2p = w.kp
    lam = (-k1, -k2 - 1, -k3 + 1)
    mu = (Fraction(-2 * k1p - 1, 2), Fraction(-2 * k2p + 1, 2))
    in_xcrit = k1 <= k1p <= k2 and k3 <= k2p
    in_ycrit = in_xcrit and k1 == k1p
    return HCParams(lam, mu), in_xcrit, in_ycrit


def weights_from_hc(hc):
    """Inverse of hc_from_weights on its image."""
    l1, l2, l3 = hc.lam
    m1, m2 = hc.mu
    return WeightTuple((-l1, -l2 - 1, 1 - l3),
                       (int(-m1 - Fraction(1, 2)), int(Fraction(1, 2) - m2)))


def einf_mq(w):
    """The weight defect m = k1' + k2' - (k1 + k2 + k3) and the fourth
    root of unity (-i)^m, as (string, integer)."""
    m = w.kp[0] + w.kp[1] - sum(w.k)
    root = ("1", "-i", "-1", "i")[m % 4]
    return root, m


def formal_degrees(arg):
    """Formal degree: for a pair mu returns (mu1 - mu2)/(4 pi) as a
    scalar; for an integer n returns dim = n + 1."""
    if isinstance(arg, int):
        _check(arg >= 0, f"negative dimension index {arg}")
        return arg + 1
    m1, m2 = (Fraction(x) for x in arg)
    _check(m1 > m2, "mu not descending")
    return _pi((m1 - m2) / 4, -1)


# ---------------------------------------------------------------------------
# archimedean L-factors and the central ratio
# ---------------------------------------------------------------------------

def arch_L(lam, mu, s, mode="rankin"):
    """Archimedean L-factor at s attached to HC parameters (lam, mu).

    mode 'rankin':   prod_{i,j} Gamma_C(s + |lam_i - mu_j|)
    mode 'ad_pi':    Gamma_R(s + 1)^3 prod_{i<j} Gamma_C(s + lam_i - lam_j)
    mode 'ad_sigma': Gamma_R(s + 1)^2 Gamma_C(s + mu1 - mu2)
    All Gamma arguments must come out positive integers.
    """
    lam = tuple(Fraction(x) for x in lam)
    mu = tuple(Fraction(x) for x in mu)
    s = Fraction(s)
    out = ExactScalar.one()
    if mode == "rankin":
        for li in lam:
            for mj in mu:
                out = out * gamma_C(s + abs(li - mj))
    elif mode == "ad_pi":
        out = gamma_R(s + 1) ** 3
        for i in range(3):
            for j in range(i + 1, 3):
                out = out * gamma_C(s + lam[i] - lam[j])
    elif mode == "ad_sigma":
        out = gamma_R(s + 1) ** 2 * gamma_C(s + mu[0] - mu[1])
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return out


def gamma_vq(w):
    """The full archimedean Gamma-factor at the centre for a weight tuple:
    the 'rankin' factor at s = 1/2 of its Harish-Chandra parameters."""
    hc, _, _ = hc_from_weights(w)
    return arch_L(hc.lam, hc.mu, Fraction(1, 2), "rankin")


def ratio_b1_direct(lam, mu):
    """L(1/2, rankin) / (L(1, ad_pi) L(1, ad_sigma)) as a product and
    quotient of Gamma_R / Gamma_C values."""
    num = arch_L(lam, mu, Fraction(1, 2), "rankin")
    den = arch_L(lam, mu, 1, "ad_pi") * arch_L(lam, mu, 1, "ad_sigma")
    return num / den


def ratio_b1_closed(lam, mu):
    """The same central ratio in closed form: a quotient of plain Gamma
    values times 2^(-3) (2 pi)^(6 - 2(lam3 - mu2))."""
    lam = tuple(Fraction(x) for x in lam)
    mu = tuple(Fraction(x) for x in mu)
    out = ExactScalar.one()
    for li in lam:
        for mj in mu:
            out = out * gamma_plain(Fraction(1, 2) + abs(li - mj))
    for i in range(3):
        for j in range(i + 1, 3):
            out = out / gamma_plain(1 + lam[i] - lam[j])
    out = out / gamma_plain(1 + mu[0] - mu[1])
    e = 6 - 2 * (lam[2] - mu[1])
    _check(e.denominator == 1, "lam3 - mu2 not half-integral")
    e = int(e)
    return out * _pi(Fraction(2) ** e / 8, e)


# ---------------------------------------------------------------------------
# the archimedean period identity, two routes
# ---------------------------------------------------------------------------

def _interlace_data(lam, mu):
    """Normalize lam2 to 0 and return the combinatorial data of the
    interlaced pair: (lam, mu, n, nstars, b, c, k, kp)."""
    lam = tuple(int(x) for x in lam)
    mu = tuple(Fraction(x) for x in mu)
    _check(lam[0] > mu[0] > lam[1] >= lam[2] > mu[1], "interlacing violated")
    shift = lam[1]
    lam = tuple(x - shift for x in lam)
    mu = tuple(x - shift for x in mu)

    n1 = lam[0] - lam[2] - 1
    n2 = mu[0] - mu[1] - 1
    n3 = lam[0] + lam[2] - mu[0] - mu[1] - 1
    _check(n2.denominator == 1 and n3.denominator == 1, "mu not half-odd")
    n = (n1, int(n2), int(n3))
    total = sum(n)
    _check(total % 2 == 0, "odd total degree")
    nstars = tuple(total // 2 - ni for ni in n)
    _check(min(n) >= 0 and min(nstars) >= 0, "negative degree")

    k = (-lam[0], -lam[1] - 1, 1 - lam[2])
    kp = (int(-mu[0] - Fraction(1, 2)), int(Fraction(1, 2) - mu[1]))
    b, c = -kp[0] - 1, kp[1] - 1
    _check(nstars[0] == kp[1] - k[2] and nstars[1] == kp[0] - k[0],
           "seesaw degrees disagree with the weights")
    return lam, mu, n, nstars, b, c, k, kp


def prop_b1_verify(lam, mu, use_haar=False):
    """Two-route check of the archimedean period identity.

    LHS: the invariant integral assembled from the seesaw combinatorics --
    front factor b! c! n3! (n1 + 1) / (d(sigma) (k3-1)! (-k1-1)!) times the
    double binomial sum of trilinear values -- divided by the pairing
    normalization (2 pi)^(2 n1*) ell_k(P_k).

    RHS: Gamma_R(2)^2 Gamma_R(4) times the central L-ratio.

    Returns (equal, lhs, rhs).  With use_haar=True the trilinear values
    are recomputed by exact Haar integration (slow for large weights) and
    checked against the closed form.
    """
    lam, mu, n, nstars, b, c, k, kp = _interlace_data(lam, mu)
    n1s = nstars[0]
    d_sigma = formal_degrees(mu)

    total = Fraction(0)
    for i in range(n1s + 1):
        for j in range(n1s + 1):
            if use_haar:
                route_a, route_b = trilinear_value(n, i, j)
                _check(route_a == route_b, "trilinear routes disagree")
                val = route_a
            else:
                val = trilinear_closed(n, i, j)
            total += (-1) ** (i + j) * comb(n1s, i) * comb(n1s, j) * val

    front = ExactScalar.rational(factorial(b) * factorial(c) * factorial(n[2])
                                 * (n[0] + 1)) / d_sigma \
        / (factorial(k[2] - 1) * factorial(-k[0] - 1))
    j_integral = front * total

    ell_k_pk = -k[0]  # dimension of the minimal K-type
    lhs = j_integral / (_pi(4 ** n1s, 2 * n1s) * ell_k_pk)

    ratio = ratio_b1_direct(lam, mu)
    _check(ratio == ratio_b1_closed(lam, mu),
           "central ratio: the two forms disagree")
    rhs = gamma_R(2) ** 2 * gamma_R(4) * ratio
    return lhs == rhs, lhs, rhs


def i_inf(w, D=4):
    """The archimedean zeta-integral constant (-1)^m 2^(2 k3 - 2 k2') for
    discriminant D = 4, the one case where (2/|delta|)^m is rational."""
    _check(D == 4, "rational only for discriminant 4")
    _, m = einf_mq(w)
    return Fraction((-1) ** m * 2 ** (2 * w.k[2]), 2 ** (2 * w.kp[1]))


# ---------------------------------------------------------------------------
# branching-law cross-check
# ---------------------------------------------------------------------------

def hc_ggp_seq(hc):
    """Merge the two Harish-Chandra parameters into one signed sequence:
    lam entries carry tags (+, +, -) and mu entries (o+, o-).  Requires
    all five values distinct (strict interlacing candidates only)."""
    entries = [(Fraction(hc.lam[0]), "+"), (Fraction(hc.lam[1]), "+"),
               (Fraction(hc.lam[2]), "-"),
               (hc.mu[0], "o+"), (hc.mu[1], "o-")]
    _check(len({v for v, _ in entries}) == 5, "tied parameters")
    entries.sort(key=lambda e: e[0], reverse=True)
    return SignedHCSeq(entries)


def ggp_from_hc(hc):
    """Whether the merged signed sequence passes the sign-adjacency
    branching test; true exactly on strictly interlaced pairs."""
    return ggp_check(hc_ggp_seq(hc))
