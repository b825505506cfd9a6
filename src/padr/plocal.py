"""Local arithmetic over Q_p on the characters of padr.chars: Tate
L/epsilon/gamma factors, Schwartz functions with exact Fourier transforms,
depletion operators on induced-model triples, zeta integrals by shell
summation, and modified Euler factors evaluated at the central point.

SchwartzFn is the one type for locally constant functions, also for the
Z_p-periodic datum phi1 of an induced-model triple and for the twists of
iwasawa.theta_twist.

Conventions fixed throughout:
  * the additive character psi has conductor Z_p and psi(b/p^k) = zeta_{p^k}^(-b);
  * additive Haar measure gives vol(Z_p) = 1, multiplicative gives vol(Z_p^x) = 1;
  * X stands for q^(-s), so q^(-(1-s)) = q^(-1) X^(-1);
  * half-integral powers of q are realized exactly via sqrt_prime(p) when a
    value (rather than a formal grade) is required.

Roots of unity as exponents (padr.chars).  Gauss sums, Fourier transforms
and Tate integrals pass (r, x, M, j) terms to scalar.root_of_unity_sum, one
call per output value: one per Gauss sum, one per output ball of a
transform, and one per valuation shell of a zeta integral.  The
coefficients are shifted by the exponents into one integer accumulator
that is reduced once.
"""

from __future__ import annotations

import math
from fractions import Fraction

# perfbench/hooks.py finds the cache functions here, not in padr.chars
from .chars import (PadicChar, _gauss_cache, _gauss_cache_store,
                    _gauss_inverse, gauss_sum, psi_exponent, psi_value,
                    vp_frac)
from .exactnum import LaurentRF
from .scalar import (ExactScalar, GradeError, PoleError, _check, _coerce,
                     root_of_unity_sum, sqrt_prime)


# ---------------------------------------------------------------------------
# Tate local factors
# ---------------------------------------------------------------------------

def tate_factors(chi: PadicChar, psi_inverse: bool = False):
    """(L(s,chi), eps(1/2,chi,psi^(-1)) graded, gamma(s,chi,psi)) with X = q^(-s).

    gamma(s,chi,psi) = eps(s,chi,psi) L(1-s,chi^(-1)) / L(s,chi), where
    eps(s,chi,psi) = chi(p)^c g(chi,psi) X^c has no residual q-grade, while
    the central value eps(1/2) carries the formal factor q^(-c/2).  For
    unramified chi, u = chi(p), each factor is one LaurentRF built from its
    numerator and denominator:
        L(s,chi) = 1 / (1 - u X),
        gamma(s,chi,psi) = (1 - u X) / (1 - (u q X)^(-1)),
    and eps = 1; for c >= 1, L = 1 and gamma = eps = chi(p)^c g(chi,psi) X^c.
    The flag multiplies eps and gamma by chi(-1), switching psi to psi^(-1).
    """
    p, c = chi.p, chi.c
    if c == 0:
        u = chi.u
        L = LaurentRF({0: 1}, {0: 1, 1: -u})
        eps_half = ExactScalar.one()
        gamma = LaurentRF({0: 1, 1: -u}, {0: 1, -1: -(u * p).inverse()})
    else:
        L = LaurentRF.one()
        g = gauss_sum(chi)
        root = chi.u ** c * g
        eps_half = root.with_grades(qgrade=-c)
        gamma = LaurentRF.monomial(root, c)
    if psi_inverse:
        sign = chi.at_minus_one()
        eps_half = eps_half * sign
        gamma = gamma * sign
    return L, eps_half, gamma


def zeta_local(p: int, k: int) -> Fraction:
    """zeta_F(k) = 1/(1 - q^(-k)) at an integer point."""
    return 1 / (1 - Fraction(1, p) ** k)


def realize_grades(x: ExactScalar, p: int) -> ExactScalar:
    """Fold formal grades into the value: q^(h/2) -> sqrt_prime(p)^h and
    pi^k -> p^k.  A half-integral pi-grade has no rational value and
    raises GradeError."""
    if type(x.pigrade) is not int:
        raise GradeError(f"pi-grade {x.pigrade} of {x} is not integral")
    out = x.with_grades(qgrade=0, pigrade=0)
    if x.qgrade:
        out = out * sqrt_prime(p) ** x.qgrade
    if x.pigrade:
        out = out * ExactScalar.rational(Fraction(p) ** x.pigrade)
    return out


# ---------------------------------------------------------------------------
# Schwartz functions on Q_p
# ---------------------------------------------------------------------------

class SchwartzFn:
    """Finite sum of coefficients times indicators of balls a + p^k Z_p,
    kept in a canonical disjoint form.  It is Z_p-periodic exactly when
    every ball has level k <= 0."""

    __slots__ = ("p", "terms")

    def __init__(self, p, terms):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "terms", SchwartzFn._canonical(p, terms))

    def __setattr__(self, *a):
        raise AttributeError("SchwartzFn is immutable")

    @staticmethod
    def _canonical(p, terms):
        """The maximal balls on which the function is constant and non-zero,
        sorted by level, then by centre; each centre is the element of
        Z[1/p] in [0, p^k) of its ball.

        One scale D puts every centre and every radius in p^(-D) Z_p, so the
        ball a + p^k Z_p is the key (k, r), r the residue of a p^D mod
        p^(k+D).  Coefficients are summed per key; only the ancestors of the
        keys are split into their p children, carrying the running sum down;
        then complete families of p equal siblings merge bottom-up.
        """
        live = []
        D = 0
        for a, k, c in terms:
            c = _coerce(c)
            if c.is_zero():
                continue
            if type(a) is not Fraction and type(a) is not int:
                a = Fraction(a)
            k = int(k)
            num, den, e = a.numerator, a.denominator, 0
            while den % p == 0:
                den //= p
                e += 1
            live.append((num, den, e, k, c))
            D = max(D, e, -k)
        own = {}
        for num, den, e, k, c in live:
            q = p ** (k + D)
            key = (k, num * p ** (D - e) * pow(den, -1, q) % q)
            own[key] = own[key] + c if key in own else c
        own = {key: c for key, c in own.items() if not c.is_zero()}
        if not own:
            return ()
        # the ancestors of the keys, up to the coarsest level among them
        top = min(k for k, _ in own)
        inner = set()
        for k, r in own:
            while k > top:
                k -= 1
                r %= p ** (k + D)
                if (k, r) in inner:
                    break
                inner.add((k, r))
        # split the inner nodes; every other node is a ball of constancy
        leaves = {}
        todo = [(key, own.get(key)) for key in own.keys() | inner
                if key[0] == top]
        while todo:
            (k, r), v = todo.pop()
            if (k, r) not in inner:
                if v is not None and not v.is_zero():
                    leaves.setdefault(k, {})[r] = v
                continue
            step = p ** (k + D)
            for j in range(p):
                child = (k + 1, r + j * step)
                c = own.get(child)
                todo.append((child, v if c is None else
                             c if v is None else v + c))
        # merge complete equal families of p siblings into coarser balls
        out = []
        merged = {}
        level = max(leaves, default=top - 1)
        while level >= top or merged:
            cur = leaves.get(level, {})
            cur.update(merged)
            merged = {}
            if level + D == 0:
                # p^(-D) Z_p holds the whole support: it has no siblings
                out.extend((level, r, c) for r, c in cur.items())
                break
            mod = p ** (level - 1 + D)
            groups = {}
            for r, c in cur.items():
                groups.setdefault(r % mod, []).append((r, c))
            for base, members in groups.items():
                c0 = members[0][1]
                if len(members) == p and all(c0 == c for _, c in members[1:]):
                    merged[base] = c0
                else:
                    out.extend((level, r, c) for r, c in members)
            level -= 1
        out.sort()  # the keys (level, r) are distinct
        scale = p ** D
        return tuple((Fraction(r, scale), k, c) for k, r, c in out)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def indicator(p, a=0, k=0, coeff=1):
        return SchwartzFn(p, [(a, k, coeff)])

    @staticmethod
    def unit_indicator(p):
        """1 on Z_p^x."""
        return SchwartzFn(p, [(0, 0, 1), (0, 1, -1)])

    @staticmethod
    def zero(p):
        return SchwartzFn(p, [])

    @staticmethod
    def from_char_on_units(chi: PadicChar):
        """phi_chi = chi restricted to Z_p^x, extended by zero."""
        p = chi.p
        if chi.c == 0:
            return SchwartzFn.unit_indicator(p)
        q = p ** chi.c
        return SchwartzFn(p, [(a, chi.c, chi.value_unit(a))
                              for a in range(1, q) if a % p != 0])

    # -- algebra -------------------------------------------------------------

    def __add__(self, other):
        _check(self.p == other.p, "Schwartz functions at different primes")
        return SchwartzFn(self.p, list(self.terms) + list(other.terms))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = _coerce(c)
        return SchwartzFn(self.p, [(a, k, x * c) for a, k, x in self.terms])

    def translate(self, t):
        """x -> phi(x + t)."""
        t = Fraction(t)
        return SchwartzFn(self.p, [(a - t, k, c) for a, k, c in self.terms])

    def dilate(self, t):
        """x -> phi(t x) for non-zero rational t."""
        t = Fraction(t)
        v = vp_frac(t, self.p)
        return SchwartzFn(self.p, [(a / t, k - v, c) for a, k, c in self.terms])

    def evaluate(self, x):
        x = Fraction(x)
        total = ExactScalar.zero()
        for a, k, c in self.terms:
            d = x - a
            if d == 0 or vp_frac(d, self.p) >= k:
                total = total + c
        return total

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, SchwartzFn) and self.p == other.p
                and self.terms == other.terms)

    def __repr__(self):
        body = " + ".join(f"[{c.serialize()}]*1(({a}) + p^{k})"
                          for a, k, c in self.terms)
        return f"SchwartzFn(p={self.p}: {body or '0'})"


def fourier_transform(phi: SchwartzFn) -> SchwartzFn:
    """phi_hat(y) = integral of phi(x) psi(-xy) dx with vol(Z_p) = 1, so that
    the double transform is phi(-x).

    The transform of c 1_{a + p^k Z_p} is c p^(-k) psi(-a y) 1_{p^(-k) Z_p},
    re-expanded into the balls b + p^m Z_p, b = j p^(-k), at the level
    m = max(denominator exponent of a, -k).  On them psi(-a b) = zeta_Q^(e j)
    for one exponent pair (Q, e) = psi_exponent(-a p^(-k)) per input ball,
    so the value on an output ball is one root_of_unity_sum over the input
    balls that reach it: the coefficients c are shifted by these exponents
    into one integer accumulator and reduced once, with no product formed.
    """
    p = phi.p
    # output centres b are kept as integers b p^K
    K = max([0] + [k for _, k, _ in phi.terms])
    balls = {}
    for a, k, c in phi.terms:
        num, den = a.numerator, a.denominator  # den is a power of p
        m = max(vp_frac(den, p), -k)
        if k >= 0:
            Q, e = psi_exponent(-num, den * p ** k, p)
            weight = Fraction(1, p ** k)
        else:
            Q, e = psi_exponent(-num * p ** -k, den, p)
            weight = p ** -k
        shift = p ** (K - k)
        for j in range(p ** (m + k)):
            # zeta_Q^(e j) in lowest terms, so that the term's conductor is
            # the order of this root of unity and not Q
            g = math.gcd(j, Q)
            balls.setdefault((m, j * shift), []).append(
                (weight, c, Q // g, e * (j // g)))
    scale = p ** K
    return SchwartzFn(p, [(Fraction(b, scale), m, root_of_unity_sum(terms))
                          for (m, b), terms in balls.items()])


# ---------------------------------------------------------------------------
# theta (depletion) operators on functions
# ---------------------------------------------------------------------------

def schwartz_theta(phi, chi: PadicChar, mode: str):
    """The two depletion operators, acting by finite translate sums.

    mode "theta_p":   phi - q^(-1) sum_{a mod p} phi(. + a/p)    if c(chi) = 0,
                      g(chi,psi)^(-1) sum over units a mod p^c of
                      chi(a)^(-1) phi(. + a/p^c)                 if c(chi) >= 1.
    mode "theta_pc":  sum over units a mod p of phi(. + a/p)     if c(chi) = 0,
                      theta_p for chi^(-1)                       if c(chi) >= 1.
    """
    p = chi.p
    if mode == "theta_pc":
        if chi.c == 0:
            total = None
            for a in range(1, p):
                t = phi.translate(Fraction(a, p))
                total = t if total is None else total + t
            return total
        return schwartz_theta(phi, chi.inverse(), "theta_p")
    _check(mode == "theta_p", f"unknown mode {mode!r}")
    if chi.c == 0:
        total = None
        for a in range(p):
            t = phi.translate(Fraction(a, p))
            total = t if total is None else total + t
        return phi - total.scale(Fraction(1, p))
    q = p ** chi.c
    inv = chi.inverse()
    total = None
    for a in range(1, q):
        if a % p == 0:
            continue
        t = phi.translate(Fraction(a, q)).scale(inv.value_unit(a))
        total = t if total is None else total + t
    return total.scale(_gauss_inverse(chi))


def theta_p_level(phi, chi: PadicChar, n: int):
    """Level-n form of theta_p: sum over x in p^(-n)Z_p/Z_p of the coefficient
    p^(-n) sum over units a mod p^n of chi(a) psi(a x), applied as translates.

    Independent of n once n >= max(1, c(chi)); equals schwartz_theta(...,
    "theta_p").
    """
    p = chi.p
    _check(n >= max(1, chi.c), f"level {n} below max(1, c(chi))")
    q = p ** n
    total = None
    for x0 in range(q):
        coeff = ExactScalar.zero()
        for a in range(1, q):
            if a % p == 0:
                continue
            coeff = coeff + chi.value_unit(a) * psi_value(Fraction(a * x0, q), p)
        coeff = coeff * ExactScalar.rational(Fraction(1, q))
        if coeff.is_zero():
            continue
        t = phi.translate(Fraction(x0, q)).scale(coeff)
        total = t if total is None else total + t
    _check(total is not None, "theta_p annihilated every translate")
    return total


def w_operator(phi3: SchwartzFn, ell: int) -> SchwartzFn:
    """Averaged translation q^(-l) sum_{z mod p^l} phi3(. + z/p^l)."""
    p = phi3.p
    q = p ** ell
    inv_q = ExactScalar.rational(Fraction(1, q))
    terms = []
    for z in range(q):
        shift = Fraction(z, q)
        for a, k, c in phi3.terms:
            terms.append((a - shift, k, c * inv_q))
    return SchwartzFn(p, terms)


# ---------------------------------------------------------------------------
# Tate's local zeta integral
# ---------------------------------------------------------------------------

def tate_integral(phi: SchwartzFn, chi: PadicChar) -> LaurentRF:
    """Z(s, phi, chi) by valuation-shell decomposition, X = q^(-s).

    Multiplicative measure normalized with vol(Z_p^x) = 1; a ball a + p^k Z_p
    with v = v(a) < k has measure p^(v-k) q/(q-1), and c 1_{p^k Z_p}
    contributes the exact geometric tail c u^k X^k / (1 - u X) when chi is
    unramified (zero when ramified).  The tail and the sum of the shell
    values are each one LaurentRF, built from numerator and denominator:
        Z(s, phi, chi) = c u^k X^k / (1 - u X) + sum_v s_v X^v.

    On the shell p^v Z_p^x, chi(b) = u^v zeta_m^k with (m, k) the exponent
    form of chi at the unit b p^(-v).  Each shell is one root_of_unity_sum
    of the terms (vol, c, m, k) over the sub-balls b + p^klev Z_p at the
    conductor level, times u^v once.  The shell value is the sum of the
    products c chi(b) vol; its sum over the sub-balls lies at the lcm of the
    conductors of c and zeta_m^k over its terms (in Q when rational), and
    the product with u^v then meets u's field.
    """
    p = chi.p
    shells, tails = {}, {}
    level = max(chi.c, 1)
    for a, k, c in phi.terms:
        num = a.numerator
        v = vp_frac(a, p) if num else k
        if v < k:
            need = v + level
            # the units b p^(-v), integers, of the sub-balls b + p^klev Z_p
            unit = num // p ** (v + vp_frac(a.denominator, p))
            if k >= need:
                units, klev = [unit], k
            else:
                step = p ** (k - v)
                units = [unit + t * step for t in range(p ** (need - k))]
                klev = need
            vol = Fraction(p, (p - 1) * p ** (klev - v))
            terms = shells.setdefault(v, [])
            for b in units:
                terms.append((vol, c) + chi.unit_exponent(b))
        elif chi.c == 0:
            # the ball p^k Z_p itself, the one ball that holds 0
            tails[k] = c * chi.u ** k
    total = LaurentRF(tails, {0: 1, 1: -chi.u})
    sums = {}
    for v, terms in shells.items():
        s = root_of_unity_sum(terms)
        if not s.is_zero():
            sums[v] = s * chi.u ** v
    if sums:
        total = total + LaurentRF(sums)
    return total


# ---------------------------------------------------------------------------
# induced-model triples for GL3 and the depletion pipeline
# ---------------------------------------------------------------------------

class GL3Vector:
    """Vector h^{nu,rho,mu}_{phi1,phi2,phi3} of the induced model: phi1 is a
    Z_p-periodic Schwartz function (every ball at level <= 0), phi2 and
    phi3 are Schwartz functions."""

    __slots__ = ("p", "chars", "phi1", "phi2", "phi3")

    def __init__(self, p, chars, phi1: SchwartzFn, phi2: SchwartzFn,
                 phi3: SchwartzFn):
        _check(len(chars) == 3, "GL3 needs three characters")
        _check(all(k <= 0 for _, k, _ in phi1.terms), "phi1 is not Z_p-periodic")
        self.p = p
        self.chars = tuple(chars)
        self.phi1 = phi1
        self.phi2 = phi2
        self.phi3 = phi3

    @staticmethod
    def ordinary(p, chars):
        """h^ord: all three data are unit-ball indicators."""
        return GL3Vector(p, chars, SchwartzFn.indicator(p),
                         SchwartzFn.indicator(p), SchwartzFn.indicator(p))

    def __eq__(self, other):
        return (isinstance(other, GL3Vector) and self.p == other.p
                and self.chars == other.chars and self.phi1 == other.phi1
                and self.phi2 == other.phi2 and self.phi3 == other.phi3)

    def __repr__(self):
        return (f"GL3Vector(p={self.p}, phi1={self.phi1!r}, "
                f"phi2={self.phi2!r}, phi3={self.phi3!r})")


def phi_prime_chi(chi: PadicChar) -> SchwartzFn:
    """phi'_chi: phi_{chi^(-1)} if c(chi) >= 1, else q 1_{pZ_p} - 1_{Z_p}."""
    p = chi.p
    if chi.c >= 1:
        return SchwartzFn.from_char_on_units(chi.inverse())
    return (SchwartzFn.indicator(p, 0, 1, p)
            - SchwartzFn.indicator(p, 0, 0, 1))


def depletion_normal_form(p, chars, chi, chi_prime, ell):
    """The normal form q^(-l) h_{hat(phi_chi), hat(phi'_chi'), 1_{p^(-l)}}
    built directly from Fourier transforms."""
    phi1 = fourier_transform(SchwartzFn.from_char_on_units(chi))
    phi2 = fourier_transform(phi_prime_chi(chi_prime))
    phi3 = SchwartzFn.indicator(p, 0, -ell, Fraction(1, p ** ell))
    return GL3Vector(p, chars, phi1, phi2, phi3)


def depletion_pipeline(h: GL3Vector, chi: PadicChar, chi_prime: PadicChar,
                       ell: int):
    """Apply the depletion steps to the ordinary triple and return the
    resulting vector together with the scalar prefactor mu(p)^(-n')
    g(chi'^(-1), psi).

    Steps on the triple data: the level-p^c depletion acts on phi2, the
    level-p depletion acts on phi1, and the final unipotent average replaces
    phi3 by its W-average (which carries the q^(-l) normalization).
    """
    n = max(1, chi.c)
    n_prime = max(1, chi_prime.c)
    _check(ell >= n + n_prime, "averaging level too small")
    phi2 = schwartz_theta(h.phi2, chi_prime, "theta_pc")
    phi1 = schwartz_theta(h.phi1, chi, "theta_p")
    phi3 = w_operator(h.phi3, ell)
    mu = h.chars[2]
    prefactor = mu.u ** (-n_prime) * gauss_sum(chi_prime.inverse())
    return GL3Vector(h.p, h.chars, phi1, phi2, phi3), prefactor


def whittaker_gl3_torus(h: GL3Vector, a, b) -> ExactScalar:
    """Torus Whittaker value hat(phi3)(0) |b| mu(-b) hat(phi2)(b)
    |a| nu(a)^(-1) hat(phi1)(a)."""
    p = h.p
    nu, _, mu = h.chars
    a, b = Fraction(a), Fraction(b)
    hat1 = fourier_transform(h.phi1)
    hat2 = fourier_transform(h.phi2)
    hat3 = fourier_transform(h.phi3)
    f1 = hat1.evaluate(a)
    f2 = hat2.evaluate(b)
    if f1.is_zero() or f2.is_zero():
        return ExactScalar.zero()
    abs_a = ExactScalar.rational(Fraction(p) ** (-vp_frac(a, p)))
    abs_b = ExactScalar.rational(Fraction(p) ** (-vp_frac(b, p)))
    return (hat3.evaluate(0) * abs_b * mu(-b) * f2
            * abs_a * nu(a).inverse() * f1)


# ---------------------------------------------------------------------------
# zeta integrals of depleted vectors: two routes
# ---------------------------------------------------------------------------

def _gamma_gl3_twist(chars, twist: PadicChar) -> LaurentRF:
    """gamma(s, pi tensor twist^(-1), psi) as a product of three abelian
    gamma factors."""
    out = LaurentRF.one()
    tw_inv = twist.inverse()
    for eta in chars:
        out = out * tate_factors(eta * tw_inv)[2]
    return out


def zeta_two_route(h: GL3Vector, sigma, ell: int):
    """Z(s, pi(J_l) W(h), W_flat) by two routes, returned as a pair of
    LaurentRF in X = q^(-s).

    Both routes share the frame  (zeta_F(2)/zeta_F(1)) hat(phi3)(0) X^l
    mu'(-p^(-l)) / gamma(s, pi x mu'^(-1), psi); route A substitutes the
    closed-form values of the two abelian zeta integrals, route B computes
    them by shell summation on the actual Fourier transforms.
    """
    p = h.p
    nu, rho, mu = h.chars
    mu_p, nu_p = sigma
    hat1 = fourier_transform(h.phi1)
    hat2 = fourier_transform(h.phi2)
    hat3 = fourier_transform(h.phi3)
    zeta_ratio = zeta_local(p, 2) / zeta_local(p, 1)
    frame = (LaurentRF.const(hat3.evaluate(0) * mu_p(-1) * mu_p.u ** (-ell)
                             * ExactScalar.rational(zeta_ratio))
             * LaurentRF.X(ell) / _gamma_gl3_twist(h.chars, mu_p))

    # route B: shell-summed Tate integrals
    z1_B = tate_integral(hat1, nu.inverse() * mu_p).subst_X(Fraction(1, p), -1)
    z2_B = tate_integral(hat2, mu * nu_p.inverse()) * mu.at_minus_one()
    route_B = frame * z1_B * z2_B

    # route A: closed forms (valid for the depleted normal form)
    chi_prime = (mu * nu_p.inverse()).restrict_units()
    z1_A = LaurentRF.const(nu.at_minus_one() * mu_p.at_minus_one())
    if chi_prime.c >= 1:
        z2_A = LaurentRF.const(mu.at_minus_one() * nu_p.at_minus_one())
    else:
        # u L(s) / (q^(s-1) L(1-s, dual)) = (u q X - 1) / (1 - u X)
        u = (mu * nu_p.inverse()).u
        z2_A = LaurentRF({0: -1, 1: u * p}, {0: 1, 1: -u})
    route_A = frame * z1_A * z2_A * mu.at_minus_one()
    return route_A, route_B


def thm81_two_route(pi_chars, sigma, ell: int):
    """Central-value identity for the depleted vector: returns the pair
    (lhs^2, rhs^2) of exact cyclotomic scalars which must be equal.

    lhs assembles the chain prefactor omega_sigma(p)^(l+n') mu(p)^(-n')
    g(chi'^(-1), psi) against the shell-summed zeta integral at J-level
    l + n'; rhs is the closed form
    (zeta_F(2)/(q^(l/2) zeta_F(1))) nu'(p)^l
    gamma(1/2, mu^(-1) nu', psi^(-1)) / gamma(1/2, pi x mu'^(-1), psi).
    """
    nu, rho, mu = pi_chars
    mu_p, nu_p = sigma
    p = nu.p
    chi = (nu * mu_p.inverse()).restrict_units()
    chi_prime = (mu * nu_p.inverse()).restrict_units()
    n = max(1, chi.c)
    n_prime = max(1, chi_prime.c)
    _check(ell >= n + n_prime, "averaging level too small")

    h_ord = GL3Vector.ordinary(p, pi_chars)
    h_dep, prefactor = depletion_pipeline(h_ord, chi, chi_prime, ell)
    z = zeta_two_route(h_dep, sigma, ell + n_prime)[1]

    x_half = sqrt_prime(p).inverse()
    omega = mu_p.u * nu_p.u
    lhs = omega ** (ell + n_prime) * prefactor * z.evaluate(x_half)

    gamma_num = tate_factors(mu.inverse() * nu_p, psi_inverse=True)[2]
    gamma_den = _gamma_gl3_twist(pi_chars, mu_p)
    zeta_ratio = zeta_local(p, 2) / zeta_local(p, 1)
    rhs = (ExactScalar.rational(zeta_ratio) * sqrt_prime(p).inverse() ** ell
           * nu_p.u ** ell * gamma_num.evaluate(x_half)
           / gamma_den.evaluate(x_half))
    return lhs * lhs, rhs * rhs


# ---------------------------------------------------------------------------
# modified Euler factors
# ---------------------------------------------------------------------------

def euler_modified(pi_chars, sigma) -> ExactScalar:
    """The modified factor E(pi, sigma^dual) at the central point:

    1/E = L(1/2, pi x sigma^dual) gamma(1/2, pi x mu'^(-1), psi)
          gamma(1/2, pi^dual x nu', psi^(-1)) gamma(1/2, mu nu'^(-1), psi)^2,

    where L(1/2, pi x sigma^dual) is the product over the character pairs of
    both GL factors.  Half powers of q are realized via sqrt_prime.

    Each Laurent factor is evaluated as a pair (num, den) by
    LaurentRF.evaluate_parts, and E is the product of the denominators over
    the product of the numerators: one inversion for the whole factor.
    """
    nu, rho, mu = pi_chars
    mu_p, nu_p = sigma
    p = nu.p
    x_half = sqrt_prime(p).inverse()
    factors = []
    for eta in pi_chars:
        for xi in (mu_p, nu_p):
            factors.append(tate_factors(eta * xi.inverse())[0])
            factors.append(tate_factors(eta.inverse() * xi)[0])
    mu_inv = mu_p.inverse()
    factors += [tate_factors(eta * mu_inv)[2] for eta in pi_chars]
    for eta in pi_chars:
        factors.append(tate_factors(eta.inverse() * nu_p,
                                    psi_inverse=True)[2])
    parts = [f.evaluate_parts(x_half) for f in factors]
    g3 = tate_factors(mu * nu_p.inverse())[2].evaluate_parts(x_half)
    parts += [g3, g3]
    inv_num = inv_den = ExactScalar.one()
    for n, d in parts:
        inv_num = inv_num * n
        inv_den = inv_den * d
    return inv_den / inv_num


def euler_cpr(pi_chars, sigma) -> ExactScalar:
    """The square root of E(pi, sigma^dual) in the Coates--Perrin-Riou shape,
    from Frobenius eigenvalues: the product of (1 - lam x) at x = q^(-1/2)
    over the six character pairs (i, j).

    alpha = (alpha_1, alpha_2, alpha_3) are the values at p of (nu, rho, mu)
    and beta = (beta_1, beta_2) those of (mu', nu').  Each pair (i, j) of
    pi x sigma^dual carries the two eigenvalues alpha_i/beta_j and
    beta_j/alpha_i, and the filtration that the shifted-piano ordering
    selects keeps one of them:
      * j = 1: beta_1/alpha_i for i = 1, 2, 3 (mu' against all of pi);
      * j = 2: alpha_1/beta_2 and alpha_2/beta_2 (nu' against nu and rho),
        and beta_2/alpha_3 (nu' against mu).
    For unramified characters euler_cpr(pi, sigma)^2 equals
    euler_modified(pi, sigma), the route through L and gamma factors, which
    stays the oracle (`padr verify cpr`).  x is sqrt_prime(p) scaled by 1/p,
    so no cyclotomic inversion is made.  Ramified characters are rejected.
    """
    chars = (*pi_chars, *sigma)
    _check(all(ch.c == 0 for ch in chars),
           "euler_cpr takes unramified characters only")
    a1, a2, a3, b1, b2 = (ch.u for ch in chars)
    p = pi_chars[0].p
    x = sqrt_prime(p) * Fraction(1, p)
    one = ExactScalar.one()
    factors = [one - lam * x
               for lam in (b1 / a1, b1 / a2, b1 / a3, a1 / b2, a2 / b2, b2 / a3)]
    return math.prod(factors[1:], start=factors[0])


def gamma_gl_pair(pi_chars, sigma, x) -> ExactScalar:
    """gamma(1/2, pi x sigma^dual, psi) as the product over the six character
    pairs, evaluated at X = x."""
    out = ExactScalar.one()
    for eta in pi_chars:
        for xi in sigma:
            out = out * tate_factors(eta * xi.inverse())[2].evaluate(x)
    return out


def l_gl_pair(pi_chars, sigma, x) -> ExactScalar:
    """L(1/2, pi x sigma^dual) L(1/2, pi^dual x sigma) evaluated at X = x
    (and at q^(-1) x^(-1) on the dual side handled by the caller's choice of
    x being the central point, where both sides coincide)."""
    out = ExactScalar.one()
    for eta in pi_chars:
        for xi in sigma:
            out = out * tate_factors(eta * xi.inverse())[0].evaluate(x)
            out = out * tate_factors(eta.inverse() * xi)[0].evaluate(x)
    return out


# ---------------------------------------------------------------------------
# adjoint modified factor and the p-stabilization ratio
# ---------------------------------------------------------------------------

def adjoint_modified(sigma) -> ExactScalar:
    """1/E(sigma, Ad, psi) = L(1, sigma_u x sigma_u^dual) gamma(1, mu^(-1)nu,
    psi) x {1/zeta_F(1)^2 if c(sigma) = 0, q^c(sigma)/zeta_F(1) if c > 0},
    with sigma_u the pair of unramified characters carrying the values at p.
    Returns E; raises PoleError when a factor has a pole there."""
    mu, nu = sigma
    p = mu.p
    c_sigma = mu.c + nu.c
    x1 = Fraction(1, p)
    L_ad = ExactScalar.one()
    values = (mu.u, nu.u)
    for ua in values:
        for ub in values:
            f = ExactScalar.one() - ua * ub.inverse() * ExactScalar.rational(x1)
            if f.is_zero():
                raise PoleError("L(s, sigma x sigma^dual) has a pole at s = 1")
            L_ad = L_ad * f.inverse()
    g = tate_factors(mu.inverse() * nu)[2].evaluate(x1)
    z1 = ExactScalar.rational(zeta_local(p, 1))
    if c_sigma == 0:
        inv = L_ad * g / (z1 * z1)
    else:
        inv = L_ad * g * ExactScalar.rational(Fraction(p) ** c_sigma) / z1
    return inv.inverse()


def subgroup_index(p: int, c: int, ell: int) -> int:
    """[K_0(p^c) : I_0(p^l)] inside GL_2(Z_p) for l >= max(1, c)."""
    _check(ell >= max(1, c), f"level {ell} below max(1, {c})")
    if c == 0:
        return p ** (ell - 1) * (p + 1)
    return p ** (ell - c)


def pstab_ratio(sigma, ell: int) -> ExactScalar:
    """q^(l/2) nu(p)^l [K_0(p^c(sigma)) : I_0(p^l)]^(-1) E(sigma, Ad, psi)
    mu(-1), returned with the q^(l/2) as a formal grade."""
    mu, nu = sigma
    idx = subgroup_index(mu.p, mu.c + nu.c, ell)
    val = (nu.u ** ell * adjoint_modified(sigma)
           * mu.at_minus_one() * ExactScalar.rational(Fraction(1, idx)))
    return val.with_grades(qgrade=val.qgrade + ell)


# ---------------------------------------------------------------------------
# U_p eigenvalues on ordinary vectors
# ---------------------------------------------------------------------------

def up_eigenvalues(chars, n: int, index: int, mode: str) -> ExactScalar:
    """Eigenvalue of U_p(alpha_i) or U_p(beta_j) on the normalized ordinary
    vector of I(mu_1, ..., mu_n): alpha gives q^(i(n-i)/2) / prod_{l<=i}
    mu_l(p), beta gives q^(j(n-j)/2) prod_{l>n-j} mu_l(p); the half power of
    q is a formal grade."""
    _check(len(chars) == n, f"{len(chars)} characters for GL_{n}")
    if mode == "alpha":
        _check(1 <= index <= n, f"alpha index {index} outside 1..{n}")
        val = ExactScalar.one()
        for l in range(1, index + 1):
            val = val * chars[l - 1].u.inverse()
        return val.with_grades(qgrade=index * (n - index))
    if mode == "beta":
        _check(1 <= index <= n - 1, f"beta index {index} outside 1..{n - 1}")
        val = ExactScalar.one()
        for l in range(n - index + 1, n + 1):
            val = val * chars[l - 1].u
        return val.with_grades(qgrade=index * (n - index))
    raise ValueError(f"unknown mode {mode!r}")


def gl2_up_oracle(phi2: SchwartzFn, chars2) -> ExactScalar:
    """Recompute the U_p(beta_1) eigenvalue from torus Whittaker values
    W(diag(b,1)) = mu(-b) |b|^(1/2) hat(phi2)(b): the operator sends this to
    [sum_{x mod p} psi(bx)] W(diag(pb,1)), and the ratio must be constant on
    the support.  Returns the realized (sqrt_prime) eigenvalue."""
    p = phi2.p
    mu = chars2[1]
    hat2 = fourier_transform(phi2)
    root = sqrt_prime(p)

    def w_val(b):
        f = hat2.evaluate(b)
        if f.is_zero():
            return ExactScalar.zero()
        v = vp_frac(b, p)
        return mu(-b) * root.inverse() ** v * f

    def coset_sum(b):
        total = ExactScalar.zero()
        for x in range(p):
            total = total + psi_value(Fraction(b) * x, p)
        return total

    ratio = None
    for v in range(-1, 3):
        for unit in (1, 1 + p):
            b = Fraction(unit) * Fraction(p) ** v
            w = w_val(b)
            if w.is_zero():
                _check((coset_sum(b) * w_val(p * b)).is_zero(),
                       "support leaked under the operator")
                continue
            r = coset_sum(b) * w_val(p * b) / w
            if ratio is None:
                ratio = r
            else:
                _check(r == ratio, "non-constant eigenvalue ratio")
    _check(ratio is not None, "empty support")
    return ratio
