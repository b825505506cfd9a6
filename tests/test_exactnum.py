import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import padr
from padr.exactnum import (
    ExactScalar as E,
    GradeError,
    LaurentRF,
    cyclo_arith,
    conjugate,
    cyclotomic_poly,
    euler_phi,
    laurent_normalize,
    sqrt_prime,
    _parse_sum,
)


def rand_scalar(rng, N):
    deg = euler_phi(N)
    coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(deg)]
    return E("cyc", coeffs, N=N)._demote()


class TestCycloArith:
    def test_root_of_unity_order(self):
        assert cyclo_arith(E.zeta(5), E.zeta(5, 4), "mul") == E.one()

    def test_phi3_relation(self):
        assert cyclo_arith(E.one() + E.zeta(3), E.zeta(3, 2), "add") == E.zero()

    def test_grade_addition_under_mul(self):
        a = E.rational(2, qgrade=1)
        b = E.rational(3, qgrade=1)
        assert cyclo_arith(a, b, "mul") == E.rational(6, qgrade=2)

    def test_grade_mismatch_on_add(self):
        with pytest.raises(GradeError):
            cyclo_arith(E.rational(1, qgrade=1), E.rational(1), "add")

    def test_zero_is_grade_polymorphic(self):
        assert E.zero() + E.rational(5, qgrade=3) == E.rational(5, qgrade=3)

    def test_division_by_zero(self):
        with pytest.raises(AssertionError):
            cyclo_arith(E.one(), E.zero(), "div")

    def test_mixed_level_embedding(self):
        # zeta_6 = -zeta_3^2
        assert E.zeta(6) == -E.zeta(3, 2)
        assert E.zeta(4) * E.zeta(3) == E.zeta(12, 7)

    def test_field_axioms_random(self):
        rng = random.Random(7)
        for N in (1, 3, 8, 12, 40):
            for _ in range(8):
                a, b, c = (rand_scalar(rng, N) for _ in range(3))
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
                if not a.is_zero():
                    assert a * a.inverse() == E.one()

    def test_pigrade_tracking(self):
        a = E.rational(Fraction(1, 2), pigrade=-2)
        b = E.rational(4, pigrade=3)
        assert (a * b).pigrade == 1
        assert (a / b).pigrade == -5

    def test_half_integral_pigrade(self):
        h = E.rational(1, pigrade=Fraction(1, 2))
        assert h.pigrade == Fraction(1, 2)
        assert h.serialize() == "1 @pi:1/2"
        assert (h * E.rational(3, pigrade=Fraction(-3, 2))).pigrade == -1
        # an integral grade is a plain int, also when halves add up to it
        sq = h * h
        assert sq == E.rational(1, pigrade=1)
        assert type(sq.pigrade) is int
        assert type(E.rational(1, pigrade=Fraction(4, 2)).pigrade) is int
        assert (h / h).pigrade == 0 and h / h == 1
        assert h + h == E.rational(2, pigrade=Fraction(1, 2))
        with pytest.raises(GradeError):
            h + E.one()

    @pytest.mark.parametrize("bad", [Fraction(1, 3), Fraction(5, 4), "1/6"])
    def test_non_half_integral_pigrade_rejected(self, bad):
        with pytest.raises(ValueError):
            E.rational(1, pigrade=bad)
        with pytest.raises(ValueError):
            E.one().with_grades(pigrade=bad)
        with pytest.raises(ValueError):
            E.parse(f"1 @pi:{bad}")

    @pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(-3, 4), "1/2"])
    def test_non_integral_qgrade_rejected(self, bad):
        with pytest.raises(ValueError):
            E.rational(1, qgrade=bad)
        with pytest.raises(ValueError):
            E("rat", [1], qgrade=bad)
        with pytest.raises(ValueError):
            E.one().with_grades(qgrade=bad)
        with pytest.raises(ValueError):
            E.parse(f"1 @q:{bad}")

    def test_integral_qgrade_accepted(self):
        assert E.rational(1, qgrade=Fraction(4, 2)).qgrade == 2
        assert E.parse("1 @q:-3").qgrade == -3


class TestConjugate:
    def test_zeta8(self):
        assert conjugate(E.zeta(8)) == E.zeta(8, 7)

    def test_i_sqrtD(self):
        assert conjugate(E.i_sqrtD(5)) == -E.i_sqrtD(5)
        assert conjugate(E.sqrtD(5)) == E.sqrtD(5)

    def test_involution(self):
        rng = random.Random(11)
        for N in (5, 8, 12):
            a = rand_scalar(rng, N)
            assert conjugate(conjugate(a)) == a

    def test_ring_automorphism(self):
        rng = random.Random(13)
        for _ in range(10):
            a = rand_scalar(rng, 15)
            b = rand_scalar(rng, 15)
            assert conjugate(a * b) == conjugate(a) * conjugate(b)
            assert conjugate(a + b) == conjugate(a) + conjugate(b)

    def test_quad_tower_arith(self):
        x = E.quad(5, 1, 2, Fraction(1, 3), -1)
        y = E.quad(5, 0, 1, 1, 2)
        assert (x * y).D == 5
        assert x * x.inverse() == E.one()
        assert conjugate(x * y) == conjugate(x) * conjugate(y)
        # sqrtD^2 = D, (i sqrtD)^2 = -D
        assert E.sqrtD(5) * E.sqrtD(5) == E.rational(5)
        assert E.i_sqrtD(5) ** 2 == E.rational(-5)


class TestSerialization:
    CASES = ["3/4", "-2", "1/2*z8^3", "(1+i*sqrt5)/2 @q:1 @pi:-2",
             "0", "1", "2*z5^1-1*z5^3", "1*z8^5", "1*z4^1+1*z3^1",
             "z8^3-1/2", "3/4*z12^2+-1*z12^1 @q:-1", "3/4 @pi:1/2",
             "-2*z5^1 @pi:-7/2"]

    def test_round_trip(self):
        for s in self.CASES:
            v = E.parse(s)
            assert E.parse(v.serialize()) == v

    def test_deterministic(self):
        rng = random.Random(17)
        for N in (5, 8):
            for _ in range(5):
                v = rand_scalar(rng, N)
                assert v.serialize() == E.parse(v.serialize()).serialize()

    @pytest.mark.parametrize("N", [5, 8, 12, 81, 506])
    def test_power_basis_round_trip(self, N):
        rng = random.Random(N)
        for _ in range(4):
            v = rand_scalar(rng, N).with_grades(qgrade=rng.randint(-1, 1))
            s = v.serialize()
            assert E.parse(s) == v
            assert E.parse(s).serialize() == s
            # the direct placement agrees with the general grammar
            body = v.with_grades(qgrade=0).serialize()
            assert E.parse(body) == _parse_sum(body)

    def test_quad_round_trip(self):
        v = E.quad(7, Fraction(1, 2), -1, 0, Fraction(3, 5), qgrade=-1)
        assert E.parse(v.serialize()) == v


class TestEqualityAndHash:
    def test_all_zeros_hash_alike(self):
        zeros = {E.zero(), E.rational(0, qgrade=1), E.zeta(5) - E.zeta(5)}
        assert len(zeros) == 1

    def test_equal_values_hash_alike(self):
        rng = random.Random(29)
        for N in (1, 5, 12):
            for _ in range(4):
                a, b = rand_scalar(rng, N), rand_scalar(rng, N)
                if b.is_zero():
                    continue
                assert (a * b) / b == a
                assert hash((a * b) / b) == hash(a)
                assert hash(a + b - b) == hash(a)
        x = E.quad(5, Fraction(1, 2), 3, 0, -1)
        y = E.quad(5, 2, 0, Fraction(1, 3), 1)
        assert hash(x * y / y) == hash(x)

    def test_tower_checks_survive_dash_O(self):
        code = ("from padr.exactnum import ExactScalar as E\n"
                "print(E.zeta(8) == E.quad(3, 0, 1), "
                "E.zeta(3) == E.quad(5, 0, 1))\n"
                "try:\n"
                "    E.one() / E.zero()\n"
                "except AssertionError:\n"
                "    print('raised')\n")
        src = os.path.dirname(os.path.dirname(padr.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["False", "False", "raised"]


def _sympy_value(sp, v, x=None, m=1):
    """v as a sympy value: in Q(i, sqrtD) for kind quad, else the polynomial
    sum c_k x^(k*m mod N) (for m = 1 the power basis itself)."""
    c = [sp.Rational(f.numerator, f.denominator) for f in v.coeffs]
    if v.kind == "quad":
        s = sp.sqrt(v.D)
        return c[0] + c[1] * sp.I + c[2] * s + c[3] * sp.I * s
    N = v.N or 1
    dense = [0] * N
    for k, ck in enumerate(c):
        dense[k * m % N] += ck
    return sp.Poly(dense[::-1], x, domain="QQ")


def _check_invariants(v):
    assert v.den > 0
    assert math.gcd(v.den, *v.nums) == 1
    assert v.coeffs == tuple(Fraction(n, v.den) for n in v.nums)


class TestSympyOracle:
    """Differential test of the integer kernel against sympy."""

    @pytest.fixture(scope="class")
    def sp(self):
        return pytest.importorskip("sympy")

    @pytest.mark.parametrize("N", [1, 3, 8, 12, 27, 40, 81])
    def test_cyclotomic(self, sp, N):
        rng = random.Random(1000 + N)
        x = sp.Symbol("x")
        phi = sp.Poly(sp.cyclotomic_poly(N, x), x, domain="QQ")

        def value(v, m=1):
            # a rational result has dropped to kind "rat": lift it to N
            v = v if v.kind == "cyc" else E("cyc", v.coeffs + (0,) * (
                euler_phi(N) - 1), N=N)
            return _sympy_value(sp, v, x, m).rem(phi)

        for _ in range(3):
            a, b = rand_scalar(rng, N), rand_scalar(rng, N)
            A, B = value(a), value(b)
            for v, want in ((a * b, (A * B).rem(phi)), (a + b, A + B)):
                _check_invariants(v)
                assert value(v) == want
            # zeta -> zeta^m permutes the exponents mod N, as x^N == 1 mod Phi_N
            m = rng.choice([k for k in range(1, N + 1) if math.gcd(k, N) == 1])
            for v, k in ((a.galois(m), m), (a.conjugate(), N - 1)):
                _check_invariants(v)
                assert value(v) == value(a, k)
            if not a.is_zero():
                inv = a.inverse()
                _check_invariants(inv)
                assert a * inv == E.one()
                assert (value(inv) * A).rem(phi) == sp.Poly(1, x, domain="QQ")

    @pytest.mark.parametrize("D", [2, 3, 5, 7])
    def test_quad(self, sp, D):
        rng = random.Random(2000 + D)

        def draw():
            return E.quad(D, *(Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                               for _ in range(4)))

        for _ in range(3):
            a, b = draw(), draw()
            A, B = _sympy_value(sp, a), _sympy_value(sp, b)
            prod = a * b
            _check_invariants(prod)
            assert sp.expand(_sympy_value(sp, prod) - A * B) == 0
            if not a.is_zero():
                inv = a.inverse()
                _check_invariants(inv)
                assert sp.expand(_sympy_value(sp, inv) * A) == 1


class TestSqrtPrime:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
    def test_square(self, p):
        s = sqrt_prime(p)
        assert s * s == E.rational(p)


class TestLaurentRF:
    def test_normalize_monomial_cancel(self):
        X = LaurentRF.X()
        f = (X - X ** 2) / X
        assert f == LaurentRF.one() - X

    def test_zero_u_L_factor(self):
        one = LaurentRF.one()
        f = one / (one - LaurentRF.monomial(0, 1))
        assert f == one

    def test_geometric_division(self):
        u = Fraction(2, 3)
        one = LaurentRF.one()
        X = LaurentRF.X()
        f = (one - u * u * X * X) / (one - LaurentRF.monomial(u, 1))
        assert f == one + LaurentRF.monomial(u, 1)

    def test_canonical_den_constant_one(self):
        f = laurent_normalize(LaurentRF({1: 2, 3: 5}, {2: 4, 3: 8}))
        assert f.den.get(0) == E.one()

    def test_equality_vs_evaluation(self):
        rng = random.Random(23)
        for _ in range(10):
            num = {e: Fraction(rng.randint(-3, 3)) for e in range(-2, 3)}
            den = {0: Fraction(1), 1: Fraction(rng.randint(1, 3))}
            f = LaurentRF(num, den)
            g = LaurentRF(num, den) * LaurentRF({1: 3}) / LaurentRF({1: 3})
            assert f == g
            for pt in (Fraction(1, 7), Fraction(3, 2), Fraction(-5, 4)):
                assert f.evaluate(pt) == g.evaluate(pt)

    def test_subst_X_inverse(self):
        u = Fraction(1, 2)
        one = LaurentRF.one()
        f = one / (one - LaurentRF.monomial(u, 1))
        g = f.subst_X(Fraction(1, 3), -1)
        assert g == one / (one - LaurentRF.monomial(Fraction(1, 6), -1))

    def test_graded_coefficients(self):
        c = E.rational(2, qgrade=1)
        f = LaurentRF({1: c})
        assert (f * f) == LaurentRF({2: E.rational(4, qgrade=2)})
