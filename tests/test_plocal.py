import random
from fractions import Fraction

import pytest

from padr.chars import (
    PadicChar,
    gauss_sum,
    gauss_sum_twisted,
    psi_exponent,
    psi_value,
    vp_frac,
)
from padr.exactnum import LaurentRF
from padr.plocal import (
    GL3Vector,
    SchwartzFn,
    adjoint_modified,
    depletion_normal_form,
    depletion_pipeline,
    euler_cpr,
    euler_modified,
    fourier_transform,
    gamma_gl_pair,
    gl2_up_oracle,
    l_gl_pair,
    phi_prime_chi,
    pstab_ratio,
    realize_grades,
    schwartz_theta,
    subgroup_index,
    tate_factors,
    tate_integral,
    theta_p_level,
    thm81_two_route,
    up_eigenvalues,
    w_operator,
    whittaker_gl3_torus,
    zeta_two_route,
)
from padr.plocal import _gamma_gl3_twist
from padr.scalar import ExactScalar as E, GradeError, sqrt_prime


# The per-ball product routes that fourier_transform and tate_integral
# replaced by exponent accumulation: every factor psi(-ab) and chi(b) is
# built as a scalar and multiplied in.  Kept as the oracle of the new
# route, which must agree in value; the two may hold it in different
# fields.

def _fourier_by_products(phi):
    p = phi.p
    out = []
    for a, k, c in phi.terms:
        d = 0
        den = Fraction(a).denominator
        while den % p == 0:
            den //= p
            d += 1
        m = max(d, -k)
        weight = c * E.rational(Fraction(p) ** (-k))
        step = Fraction(p) ** (-k)
        for j in range(p ** (m + k)):
            b = j * step
            out.append((b, m, weight * psi_value(-a * b, p)))
    return SchwartzFn(p, out)


def _tate_by_products(phi, chi):
    p = chi.p
    q = Fraction(p)
    total = LaurentRF.zero()
    shells = {}
    shell_vol = q / (q - 1)
    for a, k, c in phi.terms:
        if a != 0 and vp_frac(a, p) < k:
            v = vp_frac(a, p)
            need = v + max(chi.c, 1)
            if k >= need:
                subcenters, klev = [a], k
            else:
                step = Fraction(p) ** k
                subcenters = [a + t * step for t in range(p ** (need - k))]
                klev = need
            vol = E.rational(Fraction(p) ** (v - klev) * shell_vol)
            for b in subcenters:
                term = c * chi(b) * vol
                shells[v] = term if v not in shells else shells[v] + term
        else:
            if chi.c > 0:
                continue
            u = chi.u
            one = LaurentRF.one()
            tail = LaurentRF.monomial(u ** k, k) / (one - LaurentRF.monomial(u, 1))
            total = total + tail * c
    shells = {v: s for v, s in shells.items() if not s.is_zero()}
    if shells:
        total = total + LaurentRF(shells)
    return total


# tate_factors as it was built before its closed forms: each unramified
# factor through a chain of generic LaurentRF operations.  Kept as the
# oracle of the closed forms, which must agree serialized.
def _tate_factors_by_chains(chi, psi_inverse=False):
    p, c = chi.p, chi.c
    q = Fraction(p)
    one = LaurentRF.one()
    if c == 0:
        L = one / (one - LaurentRF.monomial(chi.u, 1))
        L_dual_oneminus = one / (one - LaurentRF.monomial(chi.u.inverse() / q, -1))
        eps_half = E.one()
        gamma = L_dual_oneminus / L
    else:
        L = one
        root = chi.u ** c * gauss_sum(chi)
        eps_half = root.with_grades(qgrade=-c)
        gamma = LaurentRF.monomial(root, c)
    if psi_inverse:
        sign = chi.at_minus_one()
        eps_half = eps_half * sign
        gamma = gamma * sign
    return L, eps_half, gamma


PRIMES_TO_31 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
RATIOS_TO_9 = sorted({Fraction(a, b) for a in range(1, 10) for b in range(1, 10)})


def ramified_chars(p, c, limit=None):
    m = (p - 1) * p ** (c - 1)
    out = []
    for e in range(1, m):
        if c >= 2 and e % p == 0:
            continue
        out.append(PadicChar(p, 1, c, e))
    return out[:limit] if limit else out


def unram(p, u):
    return PadicChar.unramified(p, Fraction(u))


class TestPadicChar:
    def test_exponent_forms(self):
        # psi(-1/9) = zeta_9, psi(3/9) = psi(1/3) = zeta_3^2
        assert psi_exponent(-1, 9, 3) == (9, 1)
        assert psi_exponent(3, 9, 3) == (3, 2)
        assert psi_exponent(5, 1, 3) == (1, 0)
        assert psi_value(Fraction(3, 9), 3) == E.zeta(3, 2)
        chi = PadicChar(5, 2, 2, 3)
        for a in (1, 2, Fraction(3, 7), -1):
            assert chi.value_unit(a) == E.zeta(*chi.unit_exponent(a))
        assert unram(5, 3).unit_exponent(2) == (1, 0)

    # each of these looped forever, or returned a value, under python -O
    def test_valuation_of_zero_raises(self):
        with pytest.raises(AssertionError):
            vp_frac(0, 3)

    def test_character_at_zero_raises(self):
        with pytest.raises(AssertionError):
            PadicChar.unramified(5, 2)(0)

    def test_psi_of_non_p_power_denominator_raises(self):
        with pytest.raises(AssertionError):
            psi_value(Fraction(1, 6), 3)
        with pytest.raises(AssertionError):
            psi_exponent(1, 6, 3)

    def test_zero_value_at_p_raises(self):
        with pytest.raises(AssertionError):
            PadicChar.unramified(5, 0)

    def test_trivial(self):
        chi = unram(5, 1)
        assert chi.is_trivial()
        assert chi(Fraction(7, 3)) == E.one()
        assert gauss_sum(chi) == E.one()

    def test_multiplicativity(self):
        chi = PadicChar(5, Fraction(2), 1, 1)
        for x, y in [(2, 3), (Fraction(7, 5), 4), (Fraction(1, 5), Fraction(2, 25))]:
            assert chi(Fraction(x) * Fraction(y)) == chi(x) * chi(y)

    def test_group_law_and_inverse(self):
        a = PadicChar(5, Fraction(2), 1, 1)
        b = PadicChar(5, Fraction(3), 2, 3)
        ab = a * b
        for x in (2, 3, Fraction(7, 25)):
            assert ab(x) == a(x) * b(x)
            assert (a * a.inverse())(x) == E.one()

    def test_conductor_reduction(self):
        # an exponent divisible by p at level 2 really lives at level 1
        chi = PadicChar.from_parts(5, 1, 2, 5)
        assert chi.c == 1 and chi.e == 1

    def test_equality_and_hash_by_value(self):
        # zeta_6^2 = zeta_3, computed in Q(zeta_6) and in Q(zeta_3)
        a, b = PadicChar(5, E.zeta(6, 2)), PadicChar(5, E.zeta(3))
        assert a == b and hash(a) == hash(b)
        a, b = PadicChar(5, E.zeta(6, 2), 1, 1), PadicChar(5, E.zeta(3), 1, 1)
        assert a == b and hash(a) == hash(b)
        assert a != PadicChar(5, E.zeta(3), 1, 3)
        assert len({a, b, PadicChar(5, E.zeta(3, 2), 1, 1)}) == 2

    def test_sign_at_minus_one(self):
        chi = PadicChar(5, 1, 1, 2)  # quadratic
        assert chi.at_minus_one() == E.one()
        chi = PadicChar(7, 1, 1, 3)  # quadratic, 7 = 3 mod 4
        assert chi.at_minus_one() == -E.one()


class TestGaussSum:
    def test_quadratic_square(self):
        chi = PadicChar(5, 1, 1, 2)
        g = gauss_sum(chi)
        assert g * g == E.rational(5)

    @pytest.mark.parametrize("p,c", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)])
    def test_product_identity(self, p, c):
        for chi in ramified_chars(p, c, limit=4):
            lhs = gauss_sum(chi) * gauss_sum(chi.inverse())
            assert lhs == E.rational(p ** c) * chi.at_minus_one()

    def test_twisted_identity(self):
        chi = PadicChar(5, 1, 1, 1)
        g = gauss_sum(chi.inverse())
        for y in (1, 2, 3, 4, 6):
            want = chi(-y).inverse() * g
            assert gauss_sum_twisted(chi.inverse(), y) == want
        for y in (0, 5, 10):
            assert gauss_sum_twisted(chi.inverse(), y).is_zero() or y == 0 and \
                gauss_sum_twisted(chi.inverse(), y) == -E.one()

    def test_twist_by_nonunit_vanishes(self):
        chi = PadicChar(3, 1, 2, 1)
        assert gauss_sum_twisted(chi.inverse(), 3).is_zero()


class TestTateFactors:
    def test_unramified_shape(self):
        chi = unram(3, 2)
        L, eps, gamma = tate_factors(chi)
        one = LaurentRF.one()
        assert L == one / (one - LaurentRF.monomial(2, 1))
        assert eps == E.one()
        dual = one / (one - LaurentRF.monomial(Fraction(1, 6), -1))
        assert gamma == dual / L

    def test_ramified_shape(self):
        chi = PadicChar(5, Fraction(3), 1, 1)
        L, eps, gamma = tate_factors(chi)
        assert L == LaurentRF.one()
        assert eps.qgrade == -1
        root = chi.u * gauss_sum(chi)
        assert gamma == LaurentRF.monomial(root, 1)

    @pytest.mark.parametrize("p", PRIMES_TO_31)
    def test_closed_forms_match_chains(self, p):
        for u in RATIOS_TO_9:
            for psi_inverse in (False, True):
                got = tate_factors(unram(p, u), psi_inverse)
                want = _tate_factors_by_chains(unram(p, u), psi_inverse)
                assert [x.serialize() for x in got] == \
                    [x.serialize() for x in want]

    @pytest.mark.parametrize("p", [3, 5])
    def test_central_reflection(self, p):
        # gamma(1/2, chi, psi) gamma(1/2, chi^(-1), psi^(-1)) = 1
        x_half = sqrt_prime(p).inverse()
        chars = [unram(p, Fraction(2, 3)), PadicChar(p, Fraction(3), 1, 1)]
        for chi in chars:
            g1 = tate_factors(chi)[2].evaluate(x_half)
            g2 = tate_factors(chi.inverse(), psi_inverse=True)[2].evaluate(x_half)
            assert g1 * g2 == E.one()


class TestSchwartzFn:
    def test_canonical_merge(self):
        p = 3
        fine = SchwartzFn(p, [(a, 1, 2) for a in range(3)])
        assert fine == SchwartzFn.indicator(p, 0, 0, 2)

    def test_evaluate(self):
        f = SchwartzFn.unit_indicator(5)
        assert f.evaluate(2) == E.one()
        assert f.evaluate(5).is_zero()
        assert f.evaluate(Fraction(1, 5)).is_zero()

    def test_translate_dilate(self):
        f = SchwartzFn.indicator(3, 1, 2)
        assert f.translate(1) == SchwartzFn.indicator(3, 0, 2)
        assert f.dilate(3) == SchwartzFn.indicator(3, Fraction(1, 3), 1)

    def test_centre_with_prime_to_p_denominator(self):
        # 1/2 = 2 mod 3, so 2 * (1/2 + 3Z_3) is the ball 1 + 3Z_3
        f = SchwartzFn.indicator(3, 1, 1).dilate(2)
        assert f == SchwartzFn.indicator(3, 2, 1)
        assert f.terms == ((Fraction(2), 1, E.one()),)

    def test_same_ball_cancels(self):
        assert SchwartzFn(3, [(Fraction(1, 2), 0, 1), (0, 0, -1)]).is_zero()

    def test_fourier_of_prime_to_p_centre(self):
        f = SchwartzFn.indicator(3, 1, 1).dilate(2)
        assert fourier_transform(f) == \
            fourier_transform(SchwartzFn.indicator(3, 2, 1))
        assert fourier_transform(fourier_transform(f)) == f.dilate(-1)

    def test_canonical_form_properties(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        ball = st.tuples(st.integers(-20, 20), st.integers(0, 1),
                         st.sampled_from([1, 2, 3, 5, 7]), st.integers(-1, 1),
                         st.integers(-2, 2))

        @hyp.settings(max_examples=100, deadline=None)
        @hyp.given(st.sampled_from([2, 3, 5, 7]), st.lists(ball, max_size=6),
                   st.data())
        def check(p, raw, data):
            terms = [(Fraction(n, p ** e * u), k, c) for n, e, u, k, c in raw]
            # complete families of p equal siblings must merge
            if raw and data.draw(st.booleans()):
                a, k, _ = terms[0]
                c = data.draw(st.integers(-2, 2))
                terms += [(a + j * Fraction(p) ** k, k + 1, c)
                          for j in range(p)]
            f = SchwartzFn(p, terms)
            for a, k, c in f.terms:
                # the denominator is a power of p
                assert p ** a.denominator.bit_length() % a.denominator == 0
                assert 0 <= a < Fraction(p) ** k
                assert not c.is_zero()
            for i, (a, k, _) in enumerate(f.terms):
                for b, j, _ in f.terms[i + 1:]:
                    assert a != b and vp_frac(a - b, p) < min(k, j)
            families = {}
            for a, k, c in f.terms:
                parent = Fraction(p) ** (k - 1)
                families.setdefault((k, a - (a / parent).__floor__() * parent),
                                    []).append(c)
            for cs in families.values():
                assert not (len(cs) == p and all(c == cs[0] for c in cs))
            # every ball lies in p^-D Z_p and is a union of p^m-balls:
            # the points j / p^D with j < p^(m + D) meet each of them
            live = [(a, k) for a, k, c in terms if c]
            if not live:
                assert f.is_zero()
                return
            D = max([0] + [-k for _, k in live] +
                    [-vp_frac(a, p) for a, _ in live if a])
            m = max(k for _, k in live)
            points = [Fraction(j, p ** D) for j in range(p ** (m + D))]
            points.append(Fraction(1, p ** (D + 1)))
            for x in points:
                want = sum(c for a, k, c in terms
                           if a == x or vp_frac(x - a, p) >= k)
                assert f.evaluate(x) == E.rational(want)

        check()


class TestFourier:
    def test_unit_ball_self_dual(self):
        f = SchwartzFn.indicator(3)
        assert fourier_transform(f) == f

    def test_small_ball(self):
        got = fourier_transform(SchwartzFn.indicator(3, 0, 1))
        assert got == SchwartzFn.indicator(3, 0, -1, Fraction(1, 3))

    def test_double_transform_reflects(self):
        f = SchwartzFn.indicator(5, 1, 1)
        assert fourier_transform(fourier_transform(f)) == \
            SchwartzFn.indicator(5, -1, 1)

    def test_inversion_random(self):
        rng = random.Random(2)
        for _ in range(8):
            p = rng.choice([3, 5])
            f = SchwartzFn(p, [(Fraction(rng.randint(-4, 4), p), rng.randint(-1, 1),
                                rng.randint(-2, 2)) for _ in range(2)])
            assert fourier_transform(fourier_transform(f)) == f.dilate(-1)


class TestExponentRoute:
    """fourier_transform and tate_integral against the product route, by
    value: the two routes may hold a value in different fields."""

    def test_products_oracle(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        # coefficients in Q, Q(zeta_3), Q(zeta_4) and Q(zeta_p), kept small
        # so that the product route stays fast
        coeff = st.tuples(st.sampled_from([1, -1, 2, -3]),
                          st.integers(1, 3),
                          st.sampled_from(["1", "z3", "z4", "zp", "1+zp"]),
                          st.integers(1, 5))
        ball = st.tuples(st.integers(-9, 9), st.integers(0, 1),
                         st.sampled_from([1, 2, 5]), st.integers(-1, 1),
                         coeff)

        @hyp.settings(max_examples=60, deadline=None)
        @hyp.given(st.sampled_from([2, 3, 5, 7]),
                   st.lists(ball, min_size=1, max_size=4), st.data())
        def check(p, raw, data):
            grade = data.draw(st.integers(-1, 1))

            def scalar(n, d, kind, k):
                base = {"1": E.one(), "z3": E.zeta(3, k), "z4": E.zeta(4, k),
                        "zp": E.zeta(p, k), "1+zp": 1 + E.zeta(p, k)}[kind]
                return (Fraction(n, d) * base).with_grades(qgrade=grade)

            phi = SchwartzFn(p, [(Fraction(n, p ** e * u), k, scalar(*cf))
                                 for n, e, u, k, cf in raw])
            hat = fourier_transform(phi)
            assert hat == _fourier_by_products(phi)
            # conductor 0 to 2 (p odd; 1 for p = 7, to keep Q(zeta_2058))
            c = 0 if p == 2 else data.draw(st.integers(0, 1 if p == 7 else 2))
            u = data.draw(st.sampled_from(
                [E.one(), E.rational(2), E.rational(Fraction(1, 3)),
                 E.rational(2, qgrade=1), E.zeta(3), 2 * E.zeta(4, 3)]))
            m = (p - 1) * p ** max(c - 1, 0)
            e = data.draw(st.sampled_from(
                [x for x in range(1, m) if c != 2 or x % p])) if c else 0
            chi = PadicChar(p, u, c, e)
            for f in (phi, hat):
                assert tate_integral(f, chi) == _tate_by_products(f, chi)

        check()

    @pytest.mark.parametrize("p, c", [(3, 2), (5, 2), (7, 1)])
    def test_character_coefficients(self, p, c):
        # coefficients chi(a) share the psi conductor's prime: some
        # products chi(a) psi(-ab) are rational
        for chi in ramified_chars(p, c, 3):
            phi = SchwartzFn.from_char_on_units(chi)
            hat = fourier_transform(phi)
            assert hat == _fourier_by_products(phi)
            assert fourier_transform(hat) == _fourier_by_products(hat)
            for psi_chi in (chi, chi.inverse(), unram(p, 2)):
                assert tate_integral(hat, psi_chi) == \
                    _tate_by_products(hat, psi_chi)


class TestTateIntegral:
    def test_unit_ball_gives_L(self):
        chi = unram(5, 3)
        assert tate_integral(SchwartzFn.indicator(5), chi) == tate_factors(chi)[0]

    def test_units_give_one(self):
        chi = unram(5, 3)
        assert tate_integral(SchwartzFn.unit_indicator(5), chi) == LaurentRF.one()

    @pytest.mark.parametrize("p", PRIMES_TO_31)
    def test_tail_closed_form_matches_chain(self, p):
        one = LaurentRF.one()
        for u in RATIOS_TO_9:
            chi = unram(p, u)
            for k in range(-2, 4):
                got = tate_integral(SchwartzFn.indicator(p, 0, k, 3), chi)
                want = (LaurentRF.monomial(chi.u ** k, k)
                        / (one - LaurentRF.monomial(chi.u, 1)) * 3)
                assert got.serialize() == want.serialize()

    def test_ramified_kills_units_unless_matched(self):
        chi = PadicChar(5, 1, 1, 1)
        assert tate_integral(SchwartzFn.unit_indicator(5), chi) == LaurentRF.zero()

    def test_functional_equation_random(self):
        rng = random.Random(4)
        done = 0
        while done < 20:
            p = rng.choice([3, 5, 7])
            phi = SchwartzFn(p, [(Fraction(rng.randint(-6, 6), p ** rng.randint(0, 1)),
                                  rng.randint(-1, 2), rng.randint(-3, 3))
                                 for _ in range(rng.randint(1, 3))])
            if phi.is_zero():
                continue
            if rng.random() < 0.5:
                chi = unram(p, Fraction(rng.randint(1, 5), rng.randint(1, 5)))
            else:
                chi = PadicChar(p, Fraction(rng.randint(1, 4)), 1,
                                rng.randint(1, p - 2))
            lhs = tate_integral(fourier_transform(phi), chi.inverse()) \
                .subst_X(Fraction(1, p), -1)
            assert lhs == tate_factors(chi)[2] * tate_integral(phi, chi)
            done += 1


def delta(p, j=0, level=0):
    """The Z_p-periodic indicator of the class j / p^level + Z_p."""
    return SchwartzFn.indicator(p, Fraction(j, p ** level))


class TestPeriodicSchwartzFn:
    def test_points_are_read_modulo_Z_p(self):
        # 1/2 is in Z_3: translating by it is the identity, and 5/6 is 1/3
        phi = delta(3, 1, 1)
        assert phi.translate(Fraction(1, 2)) == phi
        assert phi.evaluate(Fraction(5, 6)) == 1
        assert phi.evaluate(Fraction(2, 3)) == 0
        assert phi.evaluate(Fraction(1, 9)) == 0
        assert phi.translate(Fraction(7, 6)).evaluate(Fraction(1, 6)) == 1

    @pytest.mark.parametrize("p", [3, 5])
    def test_add_at_unequal_levels(self, p):
        a = delta(p, 1, 2).scale(3) + delta(p, 0, 0)
        b = delta(p, 2, 1) + delta(p, 1, 3).scale(-1)
        s = a + b
        q = p ** 3
        assert s == b + a == SchwartzFn(p, [
            (0, 0, 1), (Fraction(p, q), 0, 3), (Fraction(2 * p * p, q), 0, 1),
            (Fraction(1, q), 0, -1)])
        for j in range(p ** 4):
            for d in (1, 2, 7):
                x = Fraction(j, p ** 4 * d)
                assert s.evaluate(x) == a.evaluate(x) + b.evaluate(x)
        assert (a - a).is_zero()
        assert (a + a.scale(-1) + b) == b


class TestThetaOperators:
    def test_intertwining_theta_p(self):
        for p in (3, 5):
            chars = [unram(p, 1)] + ramified_chars(p, 1, 2) + ramified_chars(p, 2, 1)
            phi = delta(p, 1, 2) + delta(p, 0, 0).scale(2)
            hat = fourier_transform(phi)
            for chi in chars:
                lhs = fourier_transform(schwartz_theta(phi, chi, "theta_p"))
                phi_chi = SchwartzFn.from_char_on_units(chi)
                for y in range(p ** 2 + 2):
                    assert lhs.evaluate(y) == phi_chi.evaluate(-y) * hat.evaluate(y)

    def test_intertwining_theta_pc(self):
        for p in (3, 5):
            chars = [unram(p, 1)] + ramified_chars(p, 1, 1)
            phi = delta(p, 1, 1)
            hat = fourier_transform(phi)
            for chi in chars:
                lhs = fourier_transform(schwartz_theta(phi, chi, "theta_pc"))
                pphi = phi_prime_chi(chi)
                for y in range(p ** 2 + 2):
                    assert lhs.evaluate(y) == pphi.evaluate(-y) * hat.evaluate(y)

    def test_level_independence(self):
        for p, c, e in [(3, 0, 0), (3, 1, 1), (5, 1, 2), (3, 2, 1)]:
            chi = PadicChar(p, 1, c, e)
            phi = SchwartzFn(p, [(Fraction(1), 1, 1), (Fraction(1, p), 0, 2)])
            base = schwartz_theta(phi, chi, "theta_p")
            for n in range(max(1, c), max(1, c) + 2):
                assert theta_p_level(phi, chi, n) == base

    def test_w_operator_on_unit_ball(self):
        p = 5
        for ell in (1, 2, 3):
            got = w_operator(SchwartzFn.indicator(p), ell)
            assert got == SchwartzFn.indicator(p, 0, -ell, Fraction(1, p ** ell))

    def test_w_operator_idempotent_in_level(self):
        p = 3
        one_o = SchwartzFn.indicator(p)
        assert w_operator(w_operator(one_o, 1), 2) == w_operator(one_o, 2)


class TestDepletionPipeline:
    @pytest.mark.parametrize("ram", [False, True])
    def test_normal_form(self, ram):
        p = 3
        chars = tuple(unram(p, u) for u in (2, 1, 3))
        if ram:
            chi, chip = PadicChar(p, 1, 1, 1), PadicChar(p, 1, 1, 1)
        else:
            chi, chip = unram(p, 1), unram(p, 1)
        h = GL3Vector.ordinary(p, chars)
        got, pref = depletion_pipeline(h, chi, chip, 2)
        want = depletion_normal_form(p, chars, chi, chip, 2)
        assert got == want
        n_prime = max(1, chip.c)
        assert pref == chars[2].u ** (-n_prime) * gauss_sum(chip.inverse())

    def test_phi1_must_be_Z_p_periodic(self):
        p = 3
        chars = tuple(unram(p, u) for u in (2, 1, 3))
        one = SchwartzFn.indicator(p)
        with pytest.raises(AssertionError):
            GL3Vector(p, chars, SchwartzFn.indicator(p, 0, 1), one, one)
        assert GL3Vector(p, chars, SchwartzFn.indicator(p, Fraction(1, 9), -1),
                         one, one).phi1.evaluate(Fraction(4, 9)) == 1

    def test_whittaker_ordinary(self):
        p = 3
        chars = tuple(unram(p, u) for u in (2, 1, 3))
        h = GL3Vector.ordinary(p, chars)
        assert whittaker_gl3_torus(h, 1, 1) == chars[2].at_minus_one()
        # support: vanishes once b leaves the support of the transform
        assert whittaker_gl3_torus(h, 1, Fraction(1, p)).is_zero()


class TestZetaTwoRoutes:
    def sigma_cases(self, p):
        return [
            (unram(p, 5), unram(p, Fraction(1, 2))),
            (PadicChar(p, Fraction(5), 1, 1), unram(p, Fraction(1, 2))),
            (unram(p, 5), PadicChar(p, Fraction(1, 2), 1, 1)),
            (PadicChar(p, Fraction(5), 1, 1), PadicChar(p, Fraction(1, 2), 1, 1)),
        ]

    @pytest.mark.parametrize("p", [3, 5])
    def test_closed_form_matches_shells(self, p):
        chars = tuple(unram(p, u) for u in (2, 1, 3))
        h = GL3Vector.ordinary(p, chars)
        for sigma in self.sigma_cases(p):
            nu, rho, mu = chars
            chi = (nu * sigma[0].inverse()).restrict_units()
            chip = (mu * sigma[1].inverse()).restrict_units()
            hd, _ = depletion_pipeline(h, chi, chip, 3)
            route_A, route_B = zeta_two_route(hd, sigma, 3 + max(1, chip.c))
            assert route_A == route_B

    @pytest.mark.parametrize("p,ell", [(3, 3), (3, 4), (5, 3)])
    def test_central_value_two_route(self, p, ell):
        chars = tuple(unram(p, u) for u in (2, 1, 3))
        for sigma in [self.sigma_cases(p)[0], self.sigma_cases(p)[3]]:
            lhs2, rhs2 = thm81_two_route(chars, sigma, ell)
            assert lhs2 == rhs2


class TestEulerFactors:
    @pytest.mark.parametrize("p", [3, 5])
    def test_euler_cross_check(self, p):
        chars = tuple(unram(p, u) for u in (2, 1, 3))
        x_half = sqrt_prime(p).inverse()
        for sigma in [(unram(p, 5), unram(p, Fraction(1, 2))),
                      (PadicChar(p, Fraction(5), 1, 1),
                       PadicChar(p, Fraction(1, 2), 1, 1))]:
            got = euler_modified(chars, sigma)
            gGL = gamma_gl_pair(chars, sigma, x_half)
            Lv = l_gl_pair(chars, sigma, x_half)
            A = _gamma_gl3_twist(chars, sigma[0]).evaluate(x_half)
            C = tate_factors(chars[2] * sigma[1].inverse())[2].evaluate(x_half)
            assert got == gGL / (Lv * C * C * A * A)

    def test_adjoint_value(self):
        sigma = (unram(5, 3), unram(5, Fraction(1, 3)))
        assert adjoint_modified(sigma) == E.rational(Fraction(32, 5))

    def test_index(self):
        assert subgroup_index(3, 2, 5) == 27
        assert subgroup_index(3, 0, 2) == 12

    def test_pstab_growth(self):
        p = 5
        sigma = (unram(p, 3), unram(p, Fraction(1, 3)))
        r3 = realize_grades(pstab_ratio(sigma, 3), p)
        r4 = realize_grades(pstab_ratio(sigma, 4), p)
        assert r4 / r3 == sqrt_prime(p) * sigma[1].u / E.rational(p)


def euler_modified_per_factor(pi_chars, sigma):
    """The per-factor route to E: every Laurent factor divided out by
    LaurentRF.evaluate, and the product of the values inverted."""
    nu, rho, mu = pi_chars
    mu_p, nu_p = sigma
    x_half = sqrt_prime(nu.p).inverse()
    L_val = E.one()
    for eta in pi_chars:
        for xi in (mu_p, nu_p):
            L_val = L_val * tate_factors(eta * xi.inverse())[0].evaluate(x_half)
            L_val = L_val * tate_factors(eta.inverse() * xi)[0].evaluate(x_half)
    g1 = _gamma_gl3_twist(pi_chars, mu_p).evaluate(x_half)
    g2 = E.one()
    for eta in pi_chars:
        g2 = g2 * tate_factors(eta.inverse() * nu_p,
                               psi_inverse=True)[2].evaluate(x_half)
    g3 = tate_factors(mu * nu_p.inverse())[2].evaluate(x_half)
    return (L_val * g1 * g2 * g3 * g3).inverse()


class TestEulerOneInversion:
    PRIMES_TO_31 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]

    @pytest.mark.parametrize("p", PRIMES_TO_31)
    def test_equals_per_factor_route(self, p):
        # Satake values a/b with 1 <= a, b <= 9, as padr interp is queried
        rng = random.Random(p)
        for _ in range(4):
            chars = tuple(unram(p, Fraction(rng.randint(1, 9),
                                            rng.randint(1, 9)))
                          for _ in range(5))
            got = euler_modified(chars[:3], chars[3:])
            assert got.serialize() == \
                euler_modified_per_factor(chars[:3], chars[3:]).serialize()

    def test_ramified_sigma(self):
        p = 5
        chars = tuple(unram(p, u) for u in (2, 1, 3))
        sigma = (PadicChar(p, Fraction(5), 1, 1),
                 PadicChar(p, Fraction(1, 2), 1, 1))
        assert euler_modified(chars, sigma).serialize() == \
            euler_modified_per_factor(chars, sigma).serialize()


class TestEulerCPR:
    """euler_cpr squared against the L and gamma route of euler_modified,
    on TestEulerOneInversion's grid."""

    @pytest.mark.parametrize("p", TestEulerOneInversion.PRIMES_TO_31)
    def test_square_is_euler_modified(self, p):
        rng = random.Random(p)
        for _ in range(4):
            chars = tuple(unram(p, Fraction(rng.randint(1, 9),
                                            rng.randint(1, 9)))
                          for _ in range(5))
            got = euler_cpr(chars[:3], chars[3:]) ** 2
            assert got.serialize() == \
                euler_modified(chars[:3], chars[3:]).serialize()

    def test_ramified_sigma_rejected(self):
        p = 5
        chars = tuple(unram(p, u) for u in (2, 1, 3))
        sigma = (PadicChar(p, Fraction(5), 1, 1), unram(p, Fraction(1, 2)))
        with pytest.raises(AssertionError, match="unramified"):
            euler_cpr(chars, sigma)


class TestUpEigenvalues:
    def test_alpha_example(self):
        chars = tuple(unram(5, u) for u in (2, 7, 11))
        ev = up_eigenvalues(chars, 3, 1, "alpha")
        assert realize_grades(ev, 5) == E.rational(Fraction(5, 2))

    def test_half_integral_pigrade_not_realized(self):
        # p^(1/2) is not rational: no float may stand in for it
        with pytest.raises(GradeError):
            realize_grades(E.rational(2, pigrade=Fraction(1, 2)), 5)
        assert realize_grades(E.rational(2, pigrade=-1), 5) == \
            E.rational(Fraction(2, 5))

    def test_beta_example(self):
        chars = (unram(5, 7), unram(5, 3))
        ev = up_eigenvalues(chars, 2, 1, "beta")
        assert ev == E.rational(3, qgrade=1)

    def test_gl2_oracle_matches_formula(self):
        for p in (3, 5):
            for u in (3, Fraction(1, 2)):
                chars = (unram(p, 7), unram(p, u))
                ev = up_eigenvalues(chars, 2, 1, "beta")
                got = gl2_up_oracle(SchwartzFn.indicator(p), chars)
                assert got == realize_grades(ev, p)

    def test_alpha_beta_compatibility(self):
        # beta_j is alpha_{n-j} divided by the central uniformizer, so the
        # eigenvalues differ by the central character value at p
        chars = tuple(unram(5, u) for u in (2, 7, 11))
        n = 3
        central = E.one()
        for ch in chars:
            central = central * ch.u
        for j in (1, 2):
            lhs = up_eigenvalues(chars, n, j, "beta")
            rhs = up_eigenvalues(chars, n, n - j, "alpha") * central
            assert lhs == rhs
