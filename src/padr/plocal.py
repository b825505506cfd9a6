"""Local arithmetic over Q_p on the characters of padr.chars: Tate
L/epsilon/gamma factors, Schwartz functions with exact Fourier transforms,
depletion operators on induced-model triples, zeta integrals by shell
summation, and modified Euler factors evaluated at the central point.

SchwartzFn is the one type for locally constant functions, also for the
Z_p-periodic datum phi1 of an induced-model triple and for the twists of
iwasawa.theta_twist.  It holds twisted atoms c psi(alpha x) on balls, as
integer keys at one scale: the Fourier transform maps each atom to one
atom, and the zeta integral reads them.  Its canonical form, the dense
balls of constancy, is derived from the atoms when something reads it.

Orthogonality (Tate's thesis, 1950).  On the ball p^k Z_p, the shells
p^v Z_p^x where psi(alpha x) is not 1, v_p(alpha) = -F, sum chi(x)
psi(alpha x) to exactly 0 except one: v = F - 1 for unramified chi (the
shells v >= F are its geometric tail), v = F - c for chi of conductor
c >= 1.  tate_integral enumerates only that shell, term by term; it uses
no Gauss-sum value, so Tate's functional equation still checks gauss_sum.

Conventions fixed throughout:
  * the additive character psi has conductor Z_p and psi(b/p^k) = zeta_{p^k}^(-b);
  * additive Haar measure gives vol(Z_p) = 1, multiplicative gives vol(Z_p^x) = 1;
  * X stands for q^(-s), so q^(-(1-s)) = q^(-1) X^(-1);
  * a half-integral power of q is an exact value, scalar.half_power.

Roots of unity as exponents (padr.chars).  Gauss sums, Fourier transforms
and Tate integrals pass (r, x, M, j) terms to scalar.root_of_unity_sum, one
call per output value: one per Gauss sum, one per atom of a transform and
one per ball of its dense form, and one per valuation shell of a zeta
integral.  The coefficients are shifted by the exponents into one integer
accumulator that is reduced once.
"""

from __future__ import annotations

import math
from fractions import Fraction

# perfbench/hooks.py finds the cache functions here, not in padr.chars
from .chars import (PadicChar, _gauss_cache, _gauss_cache_store,
                    _gauss_inverse, gauss_sum, psi_exponent, psi_value,
                    vp_frac)
from .exactnum import LaurentRF, _lp_add, _lp_mul
from .scalar import (ExactScalar, PoleError, _check, _coerce, half_power,
                     root_of_unity_sum)


# ---------------------------------------------------------------------------
# Tate local factors
# ---------------------------------------------------------------------------

#: the factor 1, shared: a LaurentRF is immutable, and building one costs
#: a canonical form
_RF_ONE = LaurentRF.one()


def tate_factors(chi: PadicChar, psi_inverse: bool = False):
    """(L(s,chi), eps(s,chi,psi), gamma(s,chi,psi)), LaurentRFs in X = q^(-s).

    gamma(s,chi,psi) = eps(s,chi,psi) L(1-s,chi^(-1)) / L(s,chi).  For
    unramified chi, u = chi(p), each factor is one LaurentRF built from its
    numerator and denominator:
        L(s,chi) = 1 / (1 - u X),
        gamma(s,chi,psi) = (1 - u X) / (1 - (u q X)^(-1)),
    and eps = 1; for c >= 1, L = 1 and gamma = eps = chi(p)^c g(chi,psi) X^c,
    so that eps(1/2) is its value at X = half_power(p, -1).  The flag
    multiplies eps and gamma by chi(-1), switching psi to psi^(-1); for
    unramified chi that is 1.
    """
    c = chi.c
    if c == 0:
        u = chi.u
        L = LaurentRF({0: 1}, {0: 1, 1: -u})
        gamma = LaurentRF({0: 1, 1: -u}, {0: 1, -1: -(u * chi.p).inverse()})
        return L, _RF_ONE, gamma
    root = chi.u ** c * gauss_sum(chi)
    if psi_inverse:
        root = root * chi.at_minus_one()
    gamma = LaurentRF.monomial(root, c)
    return _RF_ONE, gamma, gamma


def zeta_local(p: int, k: int) -> Fraction:
    """zeta_F(k) = 1/(1 - q^(-k)) at an integer point."""
    return 1 / (1 - Fraction(1, p) ** k)


# ---------------------------------------------------------------------------
# Schwartz functions on Q_p
# ---------------------------------------------------------------------------

class SchwartzFn:
    """Finite sum of twisted atoms c psi(alpha x) 1_(beta + p^k Z_p)(x).

    A function built from balls, coefficients times indicators of balls
    a + p^k Z_p, has alpha = 0 on every atom; fourier_transform maps each
    atom to one atom.  The atoms are integer keys (k, r, f, c) at one scale
    p^(-E): beta = r p^(-E) with 0 <= r < p^(k+E), and alpha = f p^(-E).
    They may overlap and are not a canonical form; tate_integral reads them.

    The canonical form is the dense one: the maximal balls on which the
    function is constant and non-zero, as integer keys at the smallest
    scale D with every centre and radius in p^(-D) Z_p, sorted (k, r, c),
    c on the ball r p^(-D) + p^k Z_p with 0 <= r < p^(k+D).  A function
    built from balls has it from the start, and its atoms are these keys;
    for a transform it is derived from the atoms on first use and kept.
    ==, repr, terms, evaluate, translate, dilate and + read it.  The
    function is Z_p-periodic exactly when every dense key has level
    k <= 0."""

    __slots__ = ("p", "E", "atoms", "_dense")

    def __init__(self, p, terms):
        live, D = [], 0
        for a, k, c in terms:
            c = _coerce(c)
            if c.is_zero():
                continue
            if type(k) is not int and Fraction(k).denominator != 1:
                raise ValueError(f"ball level {k!r} is not an integer")
            k = int(k)
            if type(a) is not Fraction and type(a) is not int:
                a = Fraction(a)
            num, den, e = a.numerator, a.denominator, 0
            while den % p == 0:
                den //= p
                e += 1
            live.append((num, den, e, k, c))
            D = max(D, e, -k)
        keys = []
        for num, den, e, k, c in live:
            q = p ** (k + D)
            keys.append((k, num * p ** (D - e) * pow(den, -1, q) % q, c))
        self._set_balls(p, D, keys)

    @staticmethod
    def _from_keys(p, D, keys):
        """From dense (k, r, c), k >= -D and 0 <= r < p^(k+D), repeats
        allowed."""
        return object.__new__(SchwartzFn)._set_balls(p, D, keys)

    @staticmethod
    def _from_atoms(p, E, atoms):
        """From atoms (k, r, f, c), k >= -E and 0 <= r < p^(k+E)."""
        return object.__new__(SchwartzFn)._fill(p, E, tuple(atoms), None)

    def _set_balls(self, p, D, keys):
        D, keys = SchwartzFn._canonical(p, D, keys)
        return self._fill(p, D, tuple((k, r, 0, c) for k, r, c in keys),
                          (D, keys))

    def _fill(self, *slots):
        for name, value in zip(SchwartzFn.__slots__, slots):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, *a):
        raise AttributeError("SchwartzFn is immutable")

    @staticmethod
    def _canonical(p, D, keys):
        """The dense canonical form (D', keys) of dense keys (k, r, c) at the
        scale p^(-D): the maximal balls on which the function is constant and
        non-zero, sorted by level, then by residue.

        Coefficients are summed per key; only the ancestors of the keys are
        split into their p children, carrying the running sum down; then
        complete families of p equal siblings merge bottom-up, and D drops
        to the smallest scale that holds the result.
        """
        own = {}
        for k, r, c in keys:
            own[k, r] = own[k, r] + c if (k, r) in own else c
        own = {key: c for key, c in own.items() if not c.is_zero()}
        # the ancestors of the keys, up to the coarsest level among them
        top = min((k for k, _ in own), default=0)
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
        # the smallest scale D - s: p^s divides every r, and s <= k + D
        s = min(vp_frac(math.gcd(p ** D, *(r for _, r, _ in out)), p),
                D + out[0][0]) if out else D
        return D - s, tuple((k, r // p ** s, c) for k, r, c in out)

    def _dense_form(self):
        """(D, keys), derived from the atoms on first use.

        Each atom is split into the balls b + p^m Z_p on which psi(alpha x)
        is constant, m = max(0, k, F) with p^F the denominator of alpha,
        and the value on a ball is one root_of_unity_sum, over the atoms
        that reach it, of the terms c psi(alpha b)."""
        if self._dense is None:
            p, E = self.p, self.E
            den = p ** (2 * E)
            balls = {}
            for k, r, f, c in self.atoms:
                m = max(0, k, E - vp_frac(f, p) if f else 0)
                step = p ** (k + E)
                for j in range(p ** (m - k)):
                    b = r + j * step
                    # psi(alpha b) = zeta_Q^e in lowest terms, so that the
                    # term's conductor is the order of this root of unity
                    balls.setdefault((m, b), []).append(
                        (1, c) + psi_exponent(f * b, den, p))
            object.__setattr__(self, "_dense", SchwartzFn._canonical(
                p, E, [(m, b, root_of_unity_sum(terms))
                       for (m, b), terms in balls.items()]))
        return self._dense

    @property
    def D(self):
        return self._dense_form()[0]

    @property
    def keys(self):
        return self._dense_form()[1]

    @property
    def terms(self):
        """(a, k, c) per dense key, the centre a = r p^(-D) a Fraction."""
        D, keys = self._dense_form()
        scale = self.p ** D
        return tuple((Fraction(r, scale), k, c) for k, r, c in keys)

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
        return not self.keys

    def __eq__(self, other):
        return (isinstance(other, SchwartzFn) and self.p == other.p
                and self._dense_form() == other._dense_form())

    def __repr__(self):
        body = " + ".join(f"[{c.serialize()}]*1(({a}) + p^{k})"
                          for a, k, c in self.terms)
        return f"SchwartzFn(p={self.p}: {body or '0'})"


def fourier_transform(phi: SchwartzFn) -> SchwartzFn:
    """phi_hat(y) = integral of phi(x) psi(-xy) dx with vol(Z_p) = 1, so that
    the double transform is phi(-x).

    Atom by atom, each in O(1):
        c psi(alpha x) 1_(beta + p^k Z_p)(x)
            -> c p^(-k) psi(alpha beta) psi(-beta y) 1_(alpha + p^(-k) Z_p)(y):
    the output ball is centred at the input's frequency, and its frequency
    is minus the input's centre.  The scale grows to the largest input
    level, so that it holds the balls of level -k.  The weight p^(-k) and
    a root psi(alpha beta) other than 1 enter c through one
    root_of_unity_sum term, with no product of two scalars formed.  The
    dense form of the result is derived only when something reads it.
    """
    p, E = phi.p, phi.E
    out = max([E] + [k for k, _, _, _ in phi.atoms])
    s, den = p ** (out - E), p ** (2 * E)
    atoms = []
    for k, r, f, c in phi.atoms:
        weight = Fraction(1, p ** k) if k >= 0 else p ** -k
        if f * r:
            c = root_of_unity_sum([(weight, c) + psi_exponent(f * r, den, p)])
        else:
            c = c * weight
        atoms.append((-k, f * s % p ** (out - k), -r * s, c))
    return SchwartzFn._from_atoms(p, out, atoms)


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
    """Z(s, phi, chi) by valuation-shell decomposition, X = q^(-s), read from
    the atoms c psi(alpha x) 1_(beta + p^k Z_p) of phi.

    Multiplicative measure normalized with vol(Z_p^x) = 1; a ball a + p^k Z_p
    with v = v(a) < k has measure p^(v-k) q/(q-1).  The tails and the
    shell values give
        Z(s, phi, chi) = sum_t c_t u^t X^t / (1 - u X) + sum_v s_v X^v,
    built as one numerator over 1 - uX,
        (sum_t c_t u^t X^t + (1 - u X) sum_v s_v X^v) / (1 - u X).
    At X = 1/u that numerator is sum_t c_t, so when the sum is not 0 the
    sides are coprime and the LaurentRF is built without a gcd; otherwise
    the public constructor cancels 1 - uX.  With no tail (chi ramified, or
    no ball through 0) Z is the Laurent polynomial of the shell sums.

    On the shell p^v Z_p^x, chi(b) = u^v zeta_m^k with (m, k) the exponent
    form of chi at the unit b p^(-v), an integer read from the key.  Each
    shell is one root_of_unity_sum of the terms (vol, c, M, j) over the
    sub-balls b + p^klev Z_p on which chi and psi(alpha x) are constant,
    times u^v once.  An atom on a ball without 0 is enumerated in its shell.
    On the ball p^k Z_p, v_p(alpha) = -F, only the shell that orthogonality
    leaves (module docstring) is enumerated, and for unramified chi the
    shells v >= F, where psi(alpha x) = 1, give the tail from t = max(F, k).
    """
    p, E = chi.p, phi.E
    shells, tails = {}, {}
    level = max(chi.c, 1)
    for k, r, f, c in phi.atoms:
        # psi(alpha x) is constant on the balls of level >= F
        F = E - vp_frac(f, p) if f else k
        v = vp_frac(r, p) - E if r else k
        if v < k:
            klev = max(k, v + level, F)
            # the units b p^(-v), integers, of the sub-balls b + p^klev Z_p
            unit = r // p ** (v + E)
            step = p ** (k - v)
            vol = Fraction(p, (p - 1) * p ** (klev - v))
            terms = shells.setdefault(v, [])
            for t in range(p ** (klev - k)):
                b = unit + t * step
                # psi(alpha b p^v)
                Q, j = psi_exponent(f * b, p ** (E - v), p) \
                    if f and v < E else (1, 0)
                terms.append(_twist_term(vol, c, *chi.unit_exponent(b), Q, j))
            continue
        if chi.c == 0:
            t = max(F, k)
            tails[t] = tails[t] + c if t in tails else c
        v = F - level
        if v >= k:
            # psi(alpha p^v) = zeta_Q^j, and psi(alpha b p^v) = zeta_Q^(j b)
            Q, j = psi_exponent(f, p ** (E - v), p)
            vol = Fraction(p, (p - 1) * p ** level)
            terms = shells.setdefault(v, [])
            for b in range(1, p ** level):
                if b % p:
                    terms.append(_twist_term(vol, c, *chi.unit_exponent(b),
                                             Q, j * b))
    u = chi.u
    sums = {}
    for v, terms in shells.items():
        s = root_of_unity_sum(terms)
        if not s.is_zero():
            sums[v] = s * u ** v
    if not tails:  # a ramified chi, or no ball through 0
        return LaurentRF._from_coprime(sums, {0: ExactScalar.one()})
    den = {0: ExactScalar.one(), 1: -u}
    num = _lp_add({t: c * u ** t for t, c in tails.items()},
                  _lp_mul(sums, den))
    # num(1/u) = sum_t c_t: when it is not 0, num is coprime to 1 - uX
    if sum(tails.values(), ExactScalar.zero()).is_zero():
        return LaurentRF(num, den)
    return LaurentRF._from_coprime(num, den)


def _twist_term(vol, c, m, e, Q, j):
    """The root_of_unity_sum term for vol c zeta_m^e zeta_Q^j: one exponent
    pair at lcm(m, Q).  A chi value zeta_m^e = +-1 goes into vol instead, as
    root_of_unity_sum counts it, so that it adds no factor m to the
    conductor."""
    if Q == 1:
        return vol, c, m, e
    if 2 * e % m == 0:
        return (-vol if e else vol), c, Q, j
    L = math.lcm(m, Q)
    return vol, c, L, e * (L // m) + j * (L // Q)


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
        _check(all(k <= 0 for k, _, _ in phi1.keys), "phi1 is not Z_p-periodic")
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

    x_half = half_power(p, -1)
    omega = mu_p.u * nu_p.u
    lhs = omega ** (ell + n_prime) * prefactor * z.evaluate(x_half)

    gamma_num = tate_factors(mu.inverse() * nu_p, psi_inverse=True)[2]
    gamma_den = _gamma_gl3_twist(pi_chars, mu_p)
    zeta_ratio = zeta_local(p, 2) / zeta_local(p, 1)
    rhs = (ExactScalar.rational(zeta_ratio) * half_power(p, -ell)
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
    both GL factors, all at X = q^(-1/2) = half_power(p, -1).

    Each Laurent factor is evaluated as a pair (num, den) by
    LaurentRF.evaluate_parts, and E is the product of the denominators over
    the product of the numerators: one inversion for the whole factor.
    """
    nu, rho, mu = pi_chars
    mu_p, nu_p = sigma
    p = nu.p
    x_half = half_power(p, -1)
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
    stays the oracle (`padr verify cpr`).  x = half_power(p, -1) is
    sqrt_prime(p) scaled by 1/p, so no cyclotomic inversion is made.
    Ramified characters are rejected.
    """
    chars = (*pi_chars, *sigma)
    _check(all(ch.c == 0 for ch in chars),
           "euler_cpr takes unramified characters only")
    a1, a2, a3, b1, b2 = (ch.u for ch in chars)
    p = pi_chars[0].p
    x = half_power(p, -1)
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
# adjoint modified factor
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


# ---------------------------------------------------------------------------
# U_p eigenvalues on ordinary vectors
# ---------------------------------------------------------------------------

def up_eigenvalues(chars, n: int, index: int, mode: str) -> ExactScalar:
    """Eigenvalue of U_p(alpha_i) or U_p(beta_j) on the normalized ordinary
    vector of I(mu_1, ..., mu_n): alpha gives q^(i(n-i)/2) / prod_{l<=i}
    mu_l(p), beta gives q^(j(n-j)/2) prod_{l>n-j} mu_l(p), with the half
    power of q the value half_power(p, i(n-i))."""
    _check(len(chars) == n, f"{len(chars)} characters for GL_{n}")
    if mode == "alpha":
        _check(1 <= index <= n, f"alpha index {index} outside 1..{n}")
        val = half_power(chars[0].p, index * (n - index))
        for l in range(1, index + 1):
            val = val / chars[l - 1].u
        return val
    if mode == "beta":
        _check(1 <= index <= n - 1, f"beta index {index} outside 1..{n - 1}")
        val = half_power(chars[0].p, index * (n - index))
        for l in range(n - index + 1, n + 1):
            val = val * chars[l - 1].u
        return val
    raise ValueError(f"unknown mode {mode!r}")


def gl2_up_oracle(phi2: SchwartzFn, chars2) -> ExactScalar:
    """Recompute the U_p(beta_1) eigenvalue from torus Whittaker values
    W(diag(b,1)) = mu(-b) |b|^(1/2) hat(phi2)(b): the operator sends this to
    [sum_{x mod p} psi(bx)] W(diag(pb,1)), and the ratio must be constant on
    the support.  Returns the eigenvalue as a value, |b|^(1/2) as
    half_power(p, -v(b))."""
    p = phi2.p
    mu = chars2[1]
    hat2 = fourier_transform(phi2)

    def w_val(b):
        f = hat2.evaluate(b)
        if f.is_zero():
            return ExactScalar.zero()
        v = vp_frac(b, p)
        return mu(-b) * half_power(p, -v) * f

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
