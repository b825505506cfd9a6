import random
from fractions import Fraction

import pytest

from padr.diffops import RF, QiD
from padr.iwasawa import (
    MeasureSeries,
    QExpansion,
    dirac_series,
    integrate,
    mellin_moment,
    min_vp,
    qexp_ops,
    theta_twist,
)
from padr.plocal import SchwartzFn


class TestDiracSeries:
    def test_a2(self):
        g = dirac_series(2, 3, 4)
        assert [c.as_fraction() for c in g.coeffs] == [1, 2, 1, 0, 0]

    def test_a0(self):
        g = dirac_series(0, 5, 3)
        assert [c.as_fraction() for c in g.coeffs] == [1, 0, 0, 0]

    def test_binom_p_mod_p(self):
        p = 5
        g = dirac_series(p, p, p, prec_p=1)
        vals = [c.as_fraction() for c in g.coeffs]
        # binom(p, k) mod p: 1, 0, ..., 0, 1
        assert vals == [1, 0, 0, 0, 0, 1]


class TestMellinMoment:
    def test_dirac_cube(self):
        assert mellin_moment(dirac_series(2, 3, 4), 3).as_fraction() == 8

    def test_linearity(self):
        a, b = 3, 7
        g = dirac_series(a, 5, 3) + dirac_series(b, 5, 3)
        assert mellin_moment(g, 1).as_fraction() == a + b

    def test_power5_moment4(self):
        g = dirac_series(5, 7, 6)
        assert mellin_moment(g, 4).as_fraction() == 625

    def test_dictionary_on_dirac_sums(self):
        rng = random.Random(5)
        p, N_T = 5, 8
        for _ in range(10):
            pts = [(rng.randint(0, N_T), Fraction(rng.randint(-3, 3)))
                   for _ in range(3)]
            g = MeasureSeries(p, [], N_T)
            for a, c in pts:
                g = g + dirac_series(a, p, N_T).scale(c)
            for k in range(4):
                want = sum(c * a ** k for a, c in pts)
                assert mellin_moment(g, k).as_fraction() == want


class TestThetaTwist:
    def test_dirac_evaluation(self):
        p, n = 3, 1
        phi = SchwartzFn(p, [(1, n, 2), (2, n, Fraction(1, 3))])
        for a in (1, 2, 4):
            g = dirac_series(a, p, 6)
            tw = theta_twist(g, phi)
            want = g.scale(phi.evaluate(a))
            assert tw == want

    def test_unit_restriction_kills_nonunits(self):
        p = 3
        phi = SchwartzFn.unit_indicator(p)
        g = dirac_series(p * 2, p, 8)
        assert theta_twist(g, phi) == MeasureSeries(p, [], 8)

    def test_moment_compatibility(self):
        rng = random.Random(9)
        p, N_T = 3, 9
        phi = SchwartzFn(p, [(u, 2, Fraction(rng.randint(-2, 2)))
                             for u in range(9)])
        pts = [(rng.randint(0, N_T - 2), Fraction(rng.randint(-2, 2)))
               for _ in range(4)]
        g = MeasureSeries(p, [], N_T)
        for a, c in pts:
            g = g + dirac_series(a, p, N_T).scale(c)
        for k in range(3):
            direct = sum(c * phi.evaluate(a).as_fraction() * a ** k
                         for a, c in pts)
            assert integrate(g, phi, k).as_fraction() == direct

    def test_twist_composes_with_unit_indicator(self):
        p, N_T = 3, 7
        phi = SchwartzFn(p, [(0, 1, 1), (1, 1, 5), (2, 1, 7)])
        units = SchwartzFn.unit_indicator(p)
        prod = SchwartzFn(p, [(1, 1, 5), (2, 1, 7)])  # phi 1_{Z_p^x}
        g = dirac_series(2, p, N_T) + dirac_series(3, p, N_T)
        assert theta_twist(theta_twist(g, phi), units) == theta_twist(g, prod)

    def test_linearity_in_g(self):
        p, N_T = 3, 6
        phi = SchwartzFn(p, [(1, 1, 2), (2, 1, 3)])
        g1, g2 = dirac_series(1, p, N_T), dirac_series(4, p, N_T)
        lhs = theta_twist(g1 + g2, phi)
        rhs = theta_twist(g1, phi) + theta_twist(g2, phi)
        assert lhs == rhs


class TestQExpansion:
    def test_up(self):
        f = QExpansion({1: 1, 2: 1})
        assert qexp_ops(f, "Up", 2) == QExpansion({1: 1})

    def test_theta(self):
        f = QExpansion({1: 1, 5: 3})
        assert qexp_ops(f, "theta", 5) == QExpansion({1: 1, 5: 15})

    def test_up_theta_divisibility(self):
        rng = random.Random(3)
        p, N = 3, 4
        f = QExpansion({m: Fraction(rng.randint(-9, 9))
                        for m in range(1, p ** N * 3 + 1)})
        g = qexp_ops(f, "Up_theta_power", p, N)
        v = min_vp(g, p)
        assert v is None or v >= N

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_divisibility_all_N(self, p):
        rng = random.Random(p)
        for N in range(1, 7):
            f = QExpansion({m: Fraction(rng.randint(1, 50))
                            for m in range(1, p ** N + p)})
            g = qexp_ops(f, "Up_theta_power", p, N)
            v = min_vp(g, p)
            assert v is None or v >= N


class TestBadInputsRaise:
    """Each check raises explicitly, so it also holds under python -O."""

    def test_sum_of_measures_at_different_primes(self):
        with pytest.raises(AssertionError):
            dirac_series(2, 3, 2) + dirac_series(2, 5, 2)

    def test_twist_by_a_function_at_another_prime(self):
        phi = SchwartzFn(5, [(1, 1, 1)])
        with pytest.raises(AssertionError):
            theta_twist(dirac_series(2, 3, 4), phi)

    def test_negative_T_precision(self):
        with pytest.raises(AssertionError):
            MeasureSeries(3, [1], -1)

    def test_q_expansion_index_below_one(self):
        with pytest.raises(AssertionError):
            QExpansion({0: 1})


@pytest.mark.parametrize("make", [lambda: MeasureSeries(5, [1, 2], 3),
                                  lambda: QExpansion({1: 1, 2: 3}),
                                  lambda: RF.const(3, 2)],
                         ids=["MeasureSeries", "QExpansion", "RF"])
@pytest.mark.parametrize("foreign", [0, None, "a"])
def test_eq_with_a_foreign_operand_is_false(make, foreign):
    # == against an operand of no known type answers NotImplemented, so that
    # Python falls back to identity, instead of raising
    x = make()
    assert not x == foreign and x != foreign
    if not (isinstance(x, RF) and foreign == 0):
        assert x.__eq__(foreign) is NotImplemented
    # RF still reads QiD, int and Fraction operands as constants
    if isinstance(x, RF):
        assert x == 2 and x == Fraction(2) and x == QiD(3, 2)
