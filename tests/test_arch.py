import random
from fractions import Fraction
from math import factorial

import pytest

from padr.arch import (
    HCParams,
    WeightTuple,
    arch_L,
    einf_mq,
    formal_degrees,
    gamma_C,
    gamma_R,
    gamma_plain,
    gamma_vq,
    ggp_from_hc,
    hc_from_weights,
    i_inf,
    prop_b1_verify,
    ratio_b1_closed,
    ratio_b1_direct,
    weights_from_hc,
)
from padr.cli import _pi_string
from padr.scalar import ExactScalar, GradeError


def pi(value, k=0):
    """The rational scalar value * pi^k."""
    return ExactScalar.rational(value, pigrade=k)


def interlaced_pairs(lam1_max, lam3_min=-5, mu2_min=Fraction(-11, 2)):
    """All HC parameter pairs with lam2 = 0, lam1 <= lam1_max and
    lam1 > mu1 > 0 >= lam3 > mu2, entries bounded below as given."""
    out = []
    for l1 in range(1, lam1_max + 1):
        for l3 in range(lam3_min, 1):
            m1 = Fraction(1, 2)
            while m1 < l1:
                m2 = Fraction(2 * l3 - 1, 2)
                while m2 >= mu2_min:
                    out.append(((l1, 0, l3), (m1, m2)))
                    m2 -= 1
                m1 += 1
    return out


class TestGradedScalar:
    """The rational pi-graded scalars the archimedean factors compute on."""

    def test_arithmetic(self):
        a = pi(Fraction(3, 4), -2)
        b = pi(2, 5)
        assert a * b == pi(Fraction(3, 2), 3)
        assert a / b == pi(Fraction(3, 8), -7)
        assert a ** 2 == pi(Fraction(9, 16), -4)
        assert 1 / b == pi(Fraction(1, 2), -5)

    def test_add_same_grade(self):
        a = pi(1, 3)
        assert a + a == pi(2, 3)
        assert a + pi(0) == a

    def test_add_mixed_grade_rejected(self):
        with pytest.raises(GradeError):
            pi(1, 1) + pi(1, 2)

    def test_string(self):
        assert _pi_string(pi(Fraction(1, 8), -10)) == "1/8*pi^-10"
        assert _pi_string(pi(3)) == "3"
        assert _pi_string(pi(0, 4)) == "0"
        assert _pi_string(pi(-2, Fraction(1, 2))) == "-2*pi^1/2"


class TestGammaValues:
    def test_gamma_C_examples(self):
        assert gamma_C(1) == pi(1, -1)
        assert gamma_C(3) == pi(Fraction(1, 2), -3)

    def test_gamma_R_examples(self):
        assert gamma_R(1) == pi(1)
        assert gamma_R(2) == pi(1, -1)
        assert gamma_R(3) == pi(Fraction(1, 2), -1)
        assert gamma_R(4) == pi(1, -2)

    def test_gamma_plain_half(self):
        assert gamma_plain(Fraction(1, 2)) == pi(1, Fraction(1, 2))
        assert gamma_plain(Fraction(5, 2)) == \
            pi(Fraction(3, 4), Fraction(1, 2))

    @pytest.mark.parametrize("n", range(1, 21))
    def test_gamma_C_recurrence(self, n):
        # Gamma_C(n + 1) = (n / 2pi) Gamma_C(n)
        assert gamma_C(n + 1) == gamma_C(n) * pi(Fraction(n, 2), -1)

    def test_all_values_rational_pi_power(self):
        for n in range(1, 31):
            # pi^(-n/2) Gamma(n/2): the half-integral grades cancel
            g = gamma_R(n)
            assert g.is_rational()
            assert type(g.pigrade) is int
            assert gamma_C(n).pigrade == -n


class TestWeightsAndHC:
    def test_reference_example(self):
        w = WeightTuple((-1, 0, 2), (-1, 2))
        hc, xcrit, ycrit = hc_from_weights(w)
        assert hc.lam == (1, -1, -1)
        assert hc.mu == (Fraction(1, 2), Fraction(-3, 2))
        assert xcrit and ycrit

    def test_noncritical(self):
        w = WeightTuple((0, 0, 1), (1, 1))
        _, xcrit, _ = hc_from_weights(w)
        assert not xcrit

    def test_round_trip(self):
        rng = random.Random(11)
        for _ in range(40):
            k1 = rng.randint(-4, 0)
            k2 = rng.randint(k1, 3)
            k3 = rng.randint(k2, 5)
            k1p = rng.randint(-4, 2)
            k2p = rng.randint(max(k1p, k3), 6)
            w = WeightTuple((k1, k2, k3), (k1p, k2p))
            hc, _, _ = hc_from_weights(w)
            assert weights_from_hc(hc) == w

    def test_einf_mq(self):
        w = WeightTuple((-1, 0, 2), (-1, 2))
        assert einf_mq(w) == ("1", 0)
        w2 = WeightTuple((-1, 0, 2), (-1, 3))
        assert einf_mq(w2) == ("-i", 1)

    def test_einf_fourth_root(self):
        rng = random.Random(12)
        for _ in range(20):
            k = sorted(rng.randint(-3, 3) for _ in range(3))
            kp = sorted(rng.randint(-3, 3) for _ in range(2))
            root, m = einf_mq(WeightTuple(k, kp))
            assert root in ("1", "-i", "-1", "i")
            assert root == ("1", "-i", "-1", "i")[m % 4]


class TestFormalDegrees:
    def test_discrete_series(self):
        assert formal_degrees((Fraction(3, 2), Fraction(-1, 2))) == \
            pi(Fraction(1, 2), -1)

    def test_compact(self):
        assert formal_degrees(3) == 4

    def test_linearity(self):
        for t in range(1, 6):
            mu = (Fraction(2 * t - 1, 2), Fraction(-1, 2))
            assert formal_degrees(mu) == pi(Fraction(t, 4), -1)


class TestArchL:
    def test_gamma_vq_example(self):
        w = WeightTuple((-1, 0, 2), (-1, 2))
        assert gamma_vq(w) == pi(Fraction(1, 8), -10)

    def test_ratio_example(self):
        ratio = ratio_b1_direct((2, 0, 0), (Fraction(1, 2), Fraction(-3, 2)))
        assert ratio == pi(Fraction(3, 4), 3)
        assert ratio == ratio_b1_closed((2, 0, 0),
                                        (Fraction(1, 2), Fraction(-3, 2)))

    def test_ratio_two_forms_sweep(self):
        # quotient of Gamma_C/Gamma_R products vs the closed plain-Gamma
        # form, over all interlaced pairs with entries bounded by 6
        for lam, mu in interlaced_pairs(6, lam3_min=-6,
                                        mu2_min=Fraction(-13, 2)):
            assert ratio_b1_direct(lam, mu) == ratio_b1_closed(lam, mu)

    def test_ratio_shift_invariance(self):
        lam, mu = (3, 0, -1), (Fraction(3, 2), Fraction(-5, 2))
        for t in (-2, 1, 3):
            shifted = (tuple(x + t for x in lam), tuple(m + t for m in mu))
            assert ratio_b1_direct(*shifted) == ratio_b1_direct(lam, mu)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            arch_L((1, 0, 0), (Fraction(1, 2), Fraction(-1, 2)), 1, "x")


class TestPropB1:
    def test_example_200(self):
        ok, lhs, rhs = prop_b1_verify((2, 0, 0),
                                      (Fraction(1, 2), Fraction(-3, 2)),
                                      use_haar=True)
        assert ok
        assert lhs == rhs == pi(Fraction(3, 4), -1)

    def test_example_300(self):
        ok, lhs, rhs = prop_b1_verify((3, 0, 0),
                                      (Fraction(3, 2), Fraction(-1, 2)),
                                      use_haar=True)
        assert ok and lhs == rhs

    def test_all_interlacing_lam1_le_5(self):
        for lam, mu in interlaced_pairs(5):
            ok, lhs, rhs = prop_b1_verify(lam, mu)
            assert ok, (lam, mu, lhs, rhs)

    def test_interlacing_violation_rejected(self):
        with pytest.raises(AssertionError):
            prop_b1_verify((1, 0, 0), (Fraction(3, 2), Fraction(-1, 2)))

    def test_i_inf_d4(self):
        w = WeightTuple((-1, 0, 2), (-1, 2))
        assert i_inf(w) == Fraction(1)
        w2 = WeightTuple((-1, 0, 2), (-1, 3))
        assert i_inf(w2) == -Fraction(2 ** 4, 2 ** 6)
        with pytest.raises(AssertionError):
            i_inf(w, D=3)


class TestGGPCrossCheck:
    def test_matches_strict_interlacing(self):
        rng = random.Random(13)
        seen_true = seen_false = 0
        while seen_true < 10 or seen_false < 10:
            l1 = rng.randint(1, 5)
            l2 = rng.randint(-2, l1 - 1)
            l3 = rng.randint(-5, l2 - 1)
            m1 = Fraction(2 * rng.randint(-2, 5) + 1, 2)
            m2 = Fraction(2 * rng.randint(-6, -3) + 1, 2)
            if m1 <= m2:
                continue
            hc = HCParams((l1, l2, l3), (m1, m2))
            want = l1 > m1 > l2 > l3 > m2
            assert ggp_from_hc(hc) == want
            seen_true += want
            seen_false += not want
