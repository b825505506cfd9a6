"""Finite-dimensional representation algebra over Q: homogeneous polynomial
models of GL(2) and SU(2) representations, the standard invariant pairings,
exact SU(2) Haar-monomial integration, trilinear invariant forms computed by
two independent routes, and the interlacing checker for signed
Harish-Chandra parameters.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .scalar import _check


# ---------------------------------------------------------------------------
# homogeneous polynomials in two variables
# ---------------------------------------------------------------------------

class HomPoly:
    """Homogeneous polynomial of degree kappa in X, Y; coeffs[i] multiplies
    X^(kappa-i) Y^i."""

    __slots__ = ("kappa", "coeffs")

    def __init__(self, kappa, coeffs):
        coeffs = {int(i): Fraction(c) for i, c in
                  (coeffs.items() if isinstance(coeffs, dict)
                   else enumerate(coeffs))}
        _check(all(0 <= i <= kappa for i in coeffs),
               "HomPoly index outside 0..kappa")
        self.kappa = kappa
        self.coeffs = {i: c for i, c in coeffs.items() if c != 0}

    def __add__(self, other):
        _check(self.kappa == other.kappa, "degree mismatch")
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            out[i] = out.get(i, Fraction(0)) + c
        return HomPoly(self.kappa, out)

    def scale(self, c):
        c = Fraction(c)
        return HomPoly(self.kappa, {i: x * c for i, x in self.coeffs.items()})

    def act(self, g, dual=False):
        """rho_kappa(g) P(X, Y) = P((X, Y) g); the dual action divides by
        det(g)^kappa."""
        (a, b), (c, d) = g
        a, b, c, d = (Fraction(t) for t in (a, b, c, d))
        out = {}
        for i, coeff in self.coeffs.items():
            # (aX + cY)^(kappa-i) (bX + dY)^i
            for r in range(self.kappa - i + 1):
                for s in range(i + 1):
                    y_deg = r + s
                    term = (coeff * comb(self.kappa - i, r) * comb(i, s)
                            * a ** (self.kappa - i - r) * c ** r
                            * b ** (i - s) * d ** s)
                    out[y_deg] = out.get(y_deg, Fraction(0)) + term
        res = HomPoly(self.kappa, out)
        if dual:
            det = a * d - b * c
            res = res.scale(det ** (-self.kappa))
        return res

    def __eq__(self, other):
        return (isinstance(other, HomPoly) and self.kappa == other.kappa
                and self.coeffs == other.coeffs)

    def __repr__(self):
        return f"HomPoly({self.kappa}, {self.coeffs})"


def pair_ell(P, Q):
    """The invariant pairing: on degree-kappa polynomials,
    ell(X^j Y^(kappa-j), X'^i Y'^(kappa-i)) = (-1)^i binom(kappa,i)^(-1)
    when i + j = kappa; on triple tensors, the product of the three pairings.
    """
    if isinstance(P, TriTensor):
        _check(isinstance(Q, TriTensor) and P.degrees == Q.degrees,
               "TriTensor degrees mismatch")
        n1, n2, n3 = P.degrees
        total = Fraction(0)
        for key, c in P.coeffs.items():
            # paired monomial must have complementary Y-degrees
            dual_key = (n1 - key[0], n2 - key[1], n3 - key[2])
            d = Q.coeffs.get(dual_key)
            if d is None:
                continue
            sign_val = Fraction(1)
            for n, a in zip(P.degrees, key):
                sign_val *= Fraction((-1) ** a, comb(n, a))
            total += c * d * sign_val
        return total
    _check(isinstance(P, HomPoly) and isinstance(Q, HomPoly),
           "pair_ell of a non-HomPoly")
    _check(P.kappa == Q.kappa, "degree mismatch")
    kappa = P.kappa
    total = Fraction(0)
    for a, c in P.coeffs.items():
        d = Q.coeffs.get(kappa - a)
        if d is not None:
            total += c * d * Fraction((-1) ** a, comb(kappa, a))
    return total


class TriTensor:
    """Element of L_{n1} x L_{n2} x L_{n3}; coeffs keyed by the triple of
    Y-degrees."""

    __slots__ = ("degrees", "coeffs")

    def __init__(self, degrees, coeffs):
        self.degrees = tuple(degrees)
        out = {}
        for key, c in coeffs.items():
            c = Fraction(c)
            _check(all(0 <= a <= n for a, n in zip(key, self.degrees)),
                   "TriTensor index outside its degree")
            if c != 0:
                out[tuple(key)] = c
        self.coeffs = out

    def __eq__(self, other):
        return (isinstance(other, TriTensor) and self.degrees == other.degrees
                and self.coeffs == other.coeffs)


def p_invariant(n):
    """The SL(2)-fixed vector (X1Y2 - X2Y1)^(n3*) (X3Y1 - X1Y3)^(n2*)
    (X2Y3 - X3Y2)^(n1*) in L_{n1} x L_{n2} x L_{n3}."""
    n1, n2, n3 = n
    total = n1 + n2 + n3
    _check(total % 2 == 0, "odd total degree")
    stars = [total // 2 - ni for ni in n]
    n1s, n2s, n3s = stars
    _check(min(stars) >= 0, "triangle inequality fails")
    coeffs = {}
    for l3 in range(n3s + 1):        # (X1Y2 - X2Y1)^(n3*), l3 picks X2Y1
        for l2 in range(n2s + 1):    # (X3Y1 - X1Y3)^(n2*), l2 picks X1Y3
            for l1 in range(n1s + 1):  # (X2Y3 - X3Y2)^(n1*), l1 picks X3Y2
                sign = (-1) ** (l1 + l2 + l3)
                c = sign * comb(n3s, l3) * comb(n2s, l2) * comb(n1s, l1)
                # Y-degrees in each factor
                y1 = l3 + (n2s - l2)
                y2 = (n3s - l3) + l1
                y3 = l2 + (n1s - l1)
                key = (y1, y2, y3)
                coeffs[key] = coeffs.get(key, 0) + c
    return TriTensor(n, coeffs)


# ---------------------------------------------------------------------------
# polynomials on SU(2) and exact Haar integration
# ---------------------------------------------------------------------------

class SU2Poly:
    """Polynomial in the four symbols alpha, conj(alpha), beta, conj(beta),
    keyed by exponent quadruples."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        out = {}
        for key, c in (coeffs or {}).items():
            c = Fraction(c)
            if c != 0:
                out[tuple(key)] = c
        self.coeffs = out

    @staticmethod
    def const(c):
        return SU2Poly({(0, 0, 0, 0): c})

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + c
        return SU2Poly(out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return SU2Poly({k: c * other for k, c in self.coeffs.items()})
        out = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                out[k] = out.get(k, Fraction(0)) + c1 * c2
        return SU2Poly(out)

    def conjugate(self):
        """Complex conjugation swaps alpha with conj(alpha) and beta with
        conj(beta) (coefficients here are rational)."""
        return SU2Poly({(b, a, d, c): v
                        for (a, b, c, d), v in self.coeffs.items()})

    def integrate(self):
        """Exact Haar integral over SU(2), term by term."""
        total = Fraction(0)
        for (a, b, c, d), v in self.coeffs.items():
            total += v * su2_monomial_integral(a, b, c, d)
        return total


def su2_monomial_integral(a, b, c, d):
    """Integral over SU(2) of alpha^a conj(alpha)^b beta^c conj(beta)^d with
    normalized Haar measure: delta_{a,b} delta_{c,d} a! c! / (a+c+1)!."""
    if a != b or c != d:
        return Fraction(0)
    return Fraction(factorial(a) * factorial(c), factorial(a + c + 1))


def su2_matrix_coeff(n, i, j):
    """The matrix coefficient ell(rho_n(h) v^(i), vbar^(j)) of the degree-n
    representation, as a polynomial in the entries of h in SU(2), where
    h = [[alpha, beta], [-conj(beta), conj(alpha)]]."""
    _check(0 <= i <= n and 0 <= j <= n, "matrix coefficient index out of "
           "range")
    # rho(h) X^(n-i) Y^i = (alpha X - conj(beta) Y)^(n-i) (beta X + conj(alpha) Y)^i
    # collect the coefficient of each X^(n-r) Y^r
    rows = {}
    for r1 in range(n - i + 1):
        for r2 in range(i + 1):
            r = r1 + r2
            c = Fraction(comb(n - i, r1) * comb(i, r2) * (-1) ** r1)
            key = (n - i - r1, r2, i - r2, r1)  # (alpha, conj a, beta, conj b)
            rows.setdefault(r, SU2Poly())
            rows[r] = rows[r] + SU2Poly({key: c})
    # pair with vbar^(j) = X^j (-Y)^(n-j) = (-1)^(n-j) X^j Y^(n-j): only the
    # X^(n-j) Y^j row of the image pairs non-trivially, with table value
    # (-1)^j binom(n, j)^(-1)
    poly = rows.get(j, SU2Poly())
    return poly * Fraction((-1) ** n, comb(n, j))


# ---------------------------------------------------------------------------
# trilinear invariant forms by two routes
# ---------------------------------------------------------------------------

def trilinear_norm(n):
    """ell_n(P_n x P_n) in closed Gamma-quotient form."""
    n1, n2, n3 = n
    total = n1 + n2 + n3
    _check(total % 2 == 0, "odd total degree")
    stars = [total // 2 - ni for ni in n]
    num = factorial(total // 2 + 1)
    for s in stars:
        num *= factorial(s)
    den = factorial(n1) * factorial(n2) * factorial(n3)
    return Fraction(num, den)


def trilinear_value(n, i, j):
    """The SU(2) integral of the product of the three matrix coefficients
    attached to (n1, n2, n3) with inner indices (i, j), by two routes:

    route A integrates the expanded matrix-coefficient product monomial by
    monomial; route B is the closed form, trilinear_closed(n, i, j).

    Returns (route_A, route_B); the caller may assert equality.
    """
    n1, n2, n3 = n
    total = n1 + n2 + n3
    _check(total % 2 == 0, "odd total degree")
    stars = [total // 2 - ni for ni in n]
    n1s = stars[0]
    _check(min(stars) >= 0, "triangle inequality fails")
    _check(0 <= i <= n1s and 0 <= j <= n1s, "inner index out of range")

    # route A: exact Haar integration of the coefficient product
    prod = su2_matrix_coeff(n1, n1, n1) * su2_matrix_coeff(n2, i, j) \
        * su2_matrix_coeff(n3, n1s - i, n1s - j)
    route_a = prod.integrate()

    return route_a, trilinear_closed(n, i, j)


def trilinear_closed(n, i, j):
    """Route B of trilinear_value: (-1)^(i+j) a_i a_j / ell_n(P_n x P_n)
    with a_t = binom(n1*, t) binom(n2, t)^(-1) binom(n3, n1*-t)^(-1), for a
    triple n and indices that trilinear_value accepts."""
    n1s = sum(n) // 2 - n[0]

    def a_coef(t):
        return Fraction(comb(n1s, t), comb(n[1], t) * comb(n[2], n1s - t))

    return Fraction((-1) ** (i + j)) * a_coef(i) * a_coef(j) \
        / trilinear_norm(n)


def do_binomial_sum(A, B, C):
    """Both sides of the hockey-stick style identity
    sum_i binom(A+B-i, B) binom(C+i, C) = binom(A+B+C+1, A)."""
    lhs = sum(comb(A + B - t, B) * comb(C + t, C) for t in range(A + 1))
    return lhs, comb(A + B + C + 1, A)


# ---------------------------------------------------------------------------
# GGP interlacing checker
# ---------------------------------------------------------------------------

_GGP_ALLOWED = {
    ("o+", "+"), ("+", "o+"), ("-", "o-"), ("o-", "-"),
    ("+", "-"), ("-", "+"), ("o+", "o-"), ("o-", "o+"),
}

_GGP_TAGS = ("+", "-", "o+", "o-")


class SignedHCSeq:
    """Merged strictly-descending sequence of half-integers, each tagged with
    one of '+', '-', 'o+', 'o-' (the circled tags belong to the smaller
    group's parameter)."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = [(Fraction(v), t) for v, t in entries]
        _check(all(t in _GGP_TAGS for _, t in entries), "malformed tag")
        _check(all(entries[k][0] > entries[k + 1][0]
                   for k in range(len(entries) - 1)),
               "not strictly descending")
        self.entries = tuple(entries)

    def tags(self):
        return tuple(t for _, t in self.entries)

    def flip_signs(self):
        flip = {"+": "-", "-": "+", "o+": "o-", "o-": "o+"}
        return SignedHCSeq([(v, flip[t]) for v, t in self.entries])


def ggp_check(seq: SignedHCSeq) -> bool:
    """True iff every adjacent tag pair is one of the eight allowed pairs."""
    tags = seq.tags()
    return all((tags[k], tags[k + 1]) in _GGP_ALLOWED
               for k in range(len(tags) - 1))
