import random
from fractions import Fraction
from math import comb

import pytest

from padr.repalg import (
    HomPoly,
    SignedHCSeq,
    do_binomial_sum,
    ggp_check,
    p_invariant,
    pair_ell,
    su2_matrix_coeff,
    su2_monomial_integral,
    trilinear_norm,
    trilinear_value,
)


class TestPairEll:
    def test_xy_value(self):
        assert pair_ell(HomPoly(2, {1: 1}), HomPoly(2, {1: 1})) == \
            Fraction(-1, 2)

    @pytest.mark.parametrize("kappa", range(9))
    def test_fixed_vector_value(self, kappa):
        total = Fraction(0)
        for a in range(kappa + 1):
            c = comb(kappa, a) * (-1) ** a
            total += c * pair_ell(HomPoly(kappa, {a: 1}),
                                  HomPoly(kappa, {kappa - a: 1}))
        assert total == kappa + 1

    def test_invariance(self):
        rng = random.Random(3)
        done = 0
        while done < 20:
            k = rng.randint(1, 5)
            g = [[Fraction(rng.randint(-3, 3)) for _ in range(2)]
                 for _ in range(2)]
            if g[0][0] * g[1][1] - g[0][1] * g[1][0] == 0:
                continue
            P = HomPoly(k, {i: rng.randint(-2, 2) for i in range(k + 1)})
            Q = HomPoly(k, {i: rng.randint(-2, 2) for i in range(k + 1)})
            assert pair_ell(P.act(g), Q.act(g, dual=True)) == pair_ell(P, Q)
            done += 1

    @pytest.mark.parametrize("kappa", range(1, 9))
    def test_perfectness(self, kappa):
        # the Gram matrix on monomials is an antidiagonal of units
        gram = [[pair_ell(HomPoly(kappa, {a: 1}), HomPoly(kappa, {b: 1}))
                 for b in range(kappa + 1)] for a in range(kappa + 1)]
        for a in range(kappa + 1):
            for b in range(kappa + 1):
                assert (gram[a][b] != 0) == (a + b == kappa)


class TestSU2Integral:
    def test_examples(self):
        assert su2_monomial_integral(1, 1, 0, 0) == Fraction(1, 2)
        assert su2_monomial_integral(1, 0, 0, 0) == 0
        assert su2_monomial_integral(2, 2, 1, 1) == Fraction(1, 12)

    def test_numeric_quadrature_oracle(self):
        # independent low-precision check: with t = |beta|^2, the phase
        # integrals force a = b, c = d and leave the Beta integral
        # int_0^1 (1-t)^a t^c dt, evaluated here by the midpoint rule
        N = 4000
        for a, c in [(0, 0), (1, 0), (1, 1), (2, 1), (3, 2)]:
            approx = sum((1 - (k + 0.5) / N) ** a * ((k + 0.5) / N) ** c
                         for k in range(N)) / N
            exact = su2_monomial_integral(a, a, c, c)
            assert abs(approx - float(exact)) < 1e-6

    @pytest.mark.parametrize("n", range(5))
    def test_schur_orthogonality(self, n):
        # after removing the pairing normalization, every unitary matrix
        # coefficient of the degree-n representation has square-integral
        # 1/(n+1)
        for i in range(n + 1):
            for j in range(n + 1):
                m = su2_matrix_coeff(n, i, j)
                sq = (m * m.conjugate()).integrate()
                assert sq * comb(n, i) * comb(n, j) == Fraction(1, n + 1)


class TestTrilinear:
    def test_example_112(self):
        a, b = trilinear_value((1, 1, 2), 0, 0)
        assert a == b == Fraction(1, 12)

    def test_trivial(self):
        a, b = trilinear_value((0, 0, 0), 0, 0)
        assert a == b == 1

    def test_p_invariant_norm(self):
        for n in [(1, 1, 2), (2, 2, 2), (1, 2, 3), (2, 3, 3), (4, 2, 2)]:
            pn = p_invariant(n)
            assert pair_ell(pn, pn) == trilinear_norm(n)

    def test_two_routes_small_sweep(self):
        for n in [(1, 1, 2), (2, 2, 2), (1, 2, 3), (3, 3, 2)]:
            stars = sum(n) // 2 - n[0]
            for i in range(stars + 1):
                for j in range(stars + 1):
                    a, b = trilinear_value(n, i, j)
                    assert a == b

    def test_binomial_sum_against_gamma_quotient(self):
        n = (1, 1, 2)
        n1s = sum(n) // 2 - n[0]
        s = sum(Fraction(comb(n1s, t), comb(n[1], t) * comb(n[2], n1s - t))
                * comb(n1s, t) for t in range(n1s + 1))
        assert s == Fraction(3, 2)

    def test_do_identity(self):
        for A in range(5):
            for B in range(5):
                for C in range(5):
                    lhs, rhs = do_binomial_sum(A, B, C)
                    assert lhs == rhs


class TestGGP:
    def test_strict_interlacing_true(self):
        seq = SignedHCSeq([(3, "+"), (Fraction(3, 2), "o+"), (1, "+"),
                           (0, "-"), (Fraction(-3, 2), "o-")])
        assert ggp_check(seq)

    def test_adjacent_same_sign_false(self):
        seq = SignedHCSeq([(3, "o+"), (2, "+"), (1, "+")])
        assert not ggp_check(seq)

    def test_flip_symmetry(self):
        rng = random.Random(8)
        tags = ["+", "-", "o+", "o-"]
        for _ in range(30):
            k = rng.randint(2, 6)
            seq = SignedHCSeq([(k - t, rng.choice(tags)) for t in range(k)])
            assert ggp_check(seq) == ggp_check(seq.flip_signs())

    def test_malformed(self):
        with pytest.raises(AssertionError):
            SignedHCSeq([(1, "+"), (2, "-")])
        with pytest.raises(AssertionError):
            SignedHCSeq([(1, "x")])
