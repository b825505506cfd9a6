import functools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import padr
from padr.exactnum import (
    LaurentRF,
    _laurent_canonical,
    _lp_mul,
    _lp_to_poly,
    _poly_to_lp,
    _spoly_divmod,
    _spoly_gcd,
)
from padr.scalar import (
    ExactScalar as E,
    GradeError,
    PoleError,
    cyclotomic_poly,
    euler_phi,
    root_of_unity_sum,
    sqrt_prime,
    _KRON_MIN_TERMS,
    _build,
    _coerce,
    _cyc_mul,
    _cyc_reduce,
    _descend,
    _make,
    _prime_divisors,
    _pseudo_divmod,
    _phi_tail,
    _minimal_field,
)


def rand_scalar(rng, N):
    deg = euler_phi(N)
    coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(deg)]
    return E(coeffs, N=N)


def quad(D, a=0, b=0, c=0, d=0, qgrade=0):
    """a + b i + c sqrtD + d i sqrtD, in Q(zeta_4D)."""
    i, s = E.i_unit(), E.sqrtD(D)
    return (a + b * i + c * s + d * i * s).with_grades(qgrade=qgrade)


class TestCycloArith:
    def test_root_of_unity_order(self):
        assert E.zeta(5) * E.zeta(5, 4) == E.one()

    def test_phi3_relation(self):
        assert (E.one() + E.zeta(3)) + E.zeta(3, 2) == E.zero()

    def test_grade_addition_under_mul(self):
        a = E.rational(2, qgrade=1)
        b = E.rational(3, qgrade=1)
        assert a * b == E.rational(6, qgrade=2)

    def test_grade_mismatch_on_add(self):
        with pytest.raises(GradeError):
            E.rational(1, qgrade=1) + E.rational(1)

    def test_zero_is_grade_polymorphic(self):
        assert E.zero() + E.rational(5, qgrade=3) == E.rational(5, qgrade=3)

    def test_division_by_zero(self):
        with pytest.raises(AssertionError):
            E.one() / E.zero()

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
            E([1], qgrade=bad)
        with pytest.raises(ValueError):
            E.one().with_grades(qgrade=bad)
        with pytest.raises(ValueError):
            E.parse(f"1 @q:{bad}")

    def test_integral_qgrade_accepted(self):
        assert E.rational(1, qgrade=Fraction(4, 2)).qgrade == 2
        assert E.parse("1 @q:-3").qgrade == -3


def test_is_one():
    assert E.one().is_one() and E.zeta(1).is_one() and E.zeta(4, 4).is_one()
    assert (E.zeta(3) * E.zeta(3, 2)).is_one()
    for v in (E.zero(), E.rational(-1), E.rational(Fraction(1, 2)), E.zeta(4),
              E.rational(1, qgrade=1), E.rational(1, pigrade=Fraction(1, 2))):
        assert not v.is_one()


def test_scalars_stay_immutable():
    x = E([1, 2], N=3)
    for slot, value in (("N", 2), ("nums", (1,)), ("den", 2), ("qgrade", 1),
                        ("pigrade", 1), ("other", 0)):
        with pytest.raises(AttributeError):
            setattr(x, slot, value)
    assert (x.N, x.nums, x.den, x.qgrade, x.pigrade) == (3, (1, 2), 1, 0, 0)


# The kernel's earlier routes, kept as oracles: the schoolbook product over
# the non-zero numerators and the reduction by the lower terms of Phi_N alone.

def _cyc_reduce_tail(acc, N):
    deg = euler_phi(N)
    tail = _phi_tail(N)
    for k in range(len(acc) - 1, deg - 1, -1):
        c = acc[k]
        if c:
            base = k - deg
            for j, m in tail:
                acc[base + j] -= c * m
    if len(acc) < deg:
        acc += [0] * (deg - len(acc))
    return acc[:deg]


def _cyc_mul_school(a, b, N):
    nza = [(i, x) for i, x in enumerate(a) if x]
    nzb = [(j, y) for j, y in enumerate(b) if y]
    acc = [0] * (len(a) + len(b) - 1)
    for j, y in nzb:
        for i, x in nza:
            acc[i + j] += x * y
    return _cyc_reduce_tail(acc, N)


class TestCycloKernel:
    """The packed product and the folded reduction give the oracles'
    integers, on either side of the product's route cutoff."""

    CONDUCTORS = [1, 2, 3, 4, 12, 44, 110, 124, 156, 272, 342, 343, 506, 2058]

    @staticmethod
    def strategies():
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        conductor = st.one_of(st.sampled_from(TestCycloKernel.CONDUCTORS),
                              st.integers(1, 130))
        # coefficient size: 1 bit, a few bits, and more than 100 bits
        bits = st.sampled_from([1, 3, 40, 101, 130])
        return hyp, st, conductor, bits

    @staticmethod
    def vector(rng, n, terms, bits):
        """n integers, `terms` of them non-zero, of both signs and at most
        `bits` bits."""
        out = [0] * n
        for i in rng.sample(range(n), min(terms, n)):
            out[i] = rng.choice((-1, 1)) * rng.randint(1, (1 << bits) - 1 or 1)
        return out

    def test_reduce_equals_tail_oracle(self):
        hyp, st, conductor, bits = self.strategies()

        @hyp.settings(max_examples=150, deadline=None)
        @hyp.given(conductor, st.floats(0, 3), st.sampled_from([0, 1, 2, 0.5]),
                   bits, st.integers(0, 2**32))
        def check(N, frac, density, b, seed):
            rng = random.Random(seed)
            n = int(frac * N)  # lengths from 0 to 3N
            terms = n if density == 2 else int(density * n)
            acc = self.vector(rng, n, terms, b)
            assert _cyc_reduce(list(acc), N) == _cyc_reduce_tail(acc, N)

        check()

    def test_mul_equals_school_oracle(self):
        hyp, st, conductor, bits = self.strategies()
        T = _KRON_MIN_TERMS
        # non-zero counts: none, one term, either side of the cutoff, dense
        terms = st.sampled_from([0, 1, T - 1, T, T + 1, 10**6])

        @hyp.settings(max_examples=200, deadline=None)
        @hyp.given(conductor, terms, terms, bits, bits, st.integers(0, 2**32))
        def check(N, ta, tb, ba, bb, seed):
            rng = random.Random(seed)
            n = euler_phi(N)
            a = tuple(self.vector(rng, n, ta, ba))
            b = tuple(self.vector(rng, n, tb, bb))
            assert _cyc_mul(a, b, N) == _cyc_mul_school(a, b, N)

        check()

    @pytest.mark.parametrize("N", [110, 124, 272, 506, 2058])
    def test_mul_at_the_cutoff(self, N):
        # the sparser operand at T - 1 (schoolbook) and at T (packed)
        # non-zero numerators, against a dense one, each way round
        rng = random.Random(N)
        n = euler_phi(N)
        dense = tuple(self.vector(rng, n, n, 130))
        for t in (_KRON_MIN_TERMS - 1, _KRON_MIN_TERMS):
            sparse = tuple(self.vector(rng, n, t, 2))
            want = _cyc_mul_school(sparse, dense, N)
            assert _cyc_mul(sparse, dense, N) == want
            assert _cyc_mul(dense, sparse, N) == want

    @pytest.mark.parametrize("N", [124, 506])
    def test_mul_at_the_digit_bound(self, N):
        # dense operands of one sign at their largest values put the middle
        # product coefficient within a factor 2 of the digit's range, for
        # the sizes where the digit width has no spare bit
        n = euler_phi(N)
        for ba in range(1, 11):
            for bb in range(1, 11):
                if N > 124 and (ba + bb) % 8:
                    continue
                a = ((1 << ba) - 1,) * n
                for b in (((1 << bb) - 1,) * n, (1 - (1 << bb),) * n):
                    assert _cyc_mul(a, b, N) == _cyc_mul_school(a, b, N)

    def test_products_of_roots_of_unity(self):
        # zeta^j * zeta^k = zeta^(j+k) on both routes; 1 + zeta + ... is
        # dense enough for the packed product
        for N in (506, 343, 2058):
            n = euler_phi(N)
            ones = E([1] * n, N=N)
            for j, k in ((1, 2), (n - 1, n - 1), (N // 2, N - 1)):
                assert E.zeta(N, j) * E.zeta(N, k) == E.zeta(N, j + k)
                got = (ones * E.zeta(N, j)) * (ones * E.zeta(N, k))
                assert got == (ones * ones) * E.zeta(N, j + k)


@functools.lru_cache(maxsize=None)
def _cyclotomic_by_division(n):
    """Phi_n as (x^n - 1) pseudo-divided by Phi_d for every d | n, d < n."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num, r, _ = _pseudo_divmod(num, list(_cyclotomic_by_division(d)))
            assert not r
    return tuple(num)


class TestCyclotomicPoly:
    def test_moebius_product_equals_division_oracle(self):
        for n in list(range(1, 601)) + [2058]:
            assert cyclotomic_poly(n) == _cyclotomic_by_division(n), n


# Dense-loop oracles for the kernel's sparse walks: each walks every
# numerator, zero or not, as the kernel did before it skipped the zeros.

def _make_dense(N, nums, den, qgrade, pigrade):
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    return _build(N, tuple(x // g for x in nums), den // g, qgrade, pigrade)


def _demote_dense(x):
    if x.N == 1 or any(x.nums[1:]):
        return x
    return _build(1, x.nums[:1], x.den, x.qgrade, x.pigrade)


def _to_cyc_dense(x, N):
    acc = [0] * N
    for k, c in enumerate(x.nums):
        acc[k * (N // x.N)] += c
    return _make_dense(N, _cyc_reduce(acc, N), x.den, x.qgrade, x.pigrade)


def _galois_dense(x, m):
    acc = [0] * x.N
    for k, c in enumerate(x.nums):
        acc[k * m % x.N] += c
    return _demote_dense(_make_dense(x.N, _cyc_reduce(acc, x.N), x.den,
                                     x.qgrade, x.pigrade))


def _descend_dense(N, q, nums):
    M = N // q
    if M % q == 0:
        if any(c for k, c in enumerate(nums) if k % q):
            return None
        return nums[::q]
    u, v = pow(q, -1, M), pow(M, -1, q)
    Y = [[0] * M for _ in range(q)]
    for k, c in enumerate(nums):
        Y[k * v % q][k * u % M] += c
    Y = [_cyc_reduce(y, M) for y in Y]
    Z = [y - y0 for y, y0 in zip(Y[1], Y[0])]
    if any([y - y0 for y, y0 in zip(Yr, Y[0])] != Z for Yr in Y[2:]):
        return None
    return tuple(-z for z in Z)


def _root_of_unity_sum_dense(terms):
    items, N, D, grades = [], 1, 1, (0, 0)
    for r, x, M, j in terms:
        r = Fraction(r)
        if not r or x.is_zero():
            continue
        j %= M
        if 2 * j % M == 0:
            r, M, j = (-r if j else r), 1, 0
        N, D = math.lcm(N, x.N, M), math.lcm(D, r.denominator * x.den)
        items.append((r, x, M, j))
        grades = (x.qgrade, x.pigrade)
    if not items:
        return E.zero()
    acc = [0] * N
    for r, x, M, j in items:
        f = r.numerator * (D // (r.denominator * x.den))
        for k, c in enumerate(x.nums):
            acc[(j * (N // M) + k * (N // x.N)) % N] += c * f
    return _demote_dense(_make_dense(N, _cyc_reduce(acc, N), D, *grades))


class TestSparseWalks:
    """The kernel loops that walk only the non-zero numerators give the
    dense loops' scalars: the same (N, nums, den, grades), so the same
    serialize() and value, at every density."""

    CONDUCTORS = [1, 2, 42, 49, 343, 506]
    # non-zero numerators: none, one, a few, every one
    DENSITIES = ["zero", "one", "few", "full"]

    @staticmethod
    def strategies():
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        return (hyp, st, st.sampled_from(TestSparseWalks.CONDUCTORS),
                st.sampled_from(TestSparseWalks.DENSITIES),
                st.integers(0, 2**32))

    @staticmethod
    def numerators(rng, N, density):
        n = euler_phi(N)
        terms = {"zero": 0, "one": 1, "few": min(n, rng.randint(2, 6)),
                 "full": n}[density]
        out = [0] * n
        for i in rng.sample(range(n), terms):
            out[i] = rng.choice((-1, 1)) * rng.randint(1, 10**rng.randint(1, 30))
        return out

    @classmethod
    def scalar(cls, rng, N, density, qgrade=0):
        """A scalar at N as _make leaves it, before any demotion."""
        nums = cls.numerators(rng, N, density)
        return _make_dense(N, nums, rng.randint(1, 60), qgrade, 0)

    @staticmethod
    def same(got, want):
        assert (got.N, got.nums, got.den, got.qgrade, got.pigrade) == \
            (want.N, want.nums, want.den, want.qgrade, want.pigrade)
        assert got.serialize() == want.serialize()
        assert got == want

    def test_make(self):
        hyp, st, conductor, density, seed = self.strategies()

        @hyp.settings(max_examples=200, deadline=None)
        @hyp.given(conductor, density, st.integers(-6, 6).filter(bool),
                   st.sampled_from([1, 2, 6, 35, 10**20]), st.booleans(),
                   seed)
        def check(N, dens, den, factor, as_tuple, s):
            # a common factor of den and the numerators, and a negative den
            nums = [x * factor for x in self.numerators(random.Random(s),
                                                         N, dens)]
            den *= factor
            arg = tuple(nums) if as_tuple else list(nums)
            self.same(_make(N, arg, den, 1, 0),
                      _make_dense(N, nums, den, 1, 0))

        check()

    def test_demote(self):
        hyp, st, conductor, density, seed = self.strategies()

        @hyp.settings(max_examples=200, deadline=None)
        @hyp.given(conductor, density, st.booleans(), seed)
        def check(N, dens, constant, s):
            x = self.scalar(random.Random(s), N, dens)
            if constant and x.nums[0] == 0:
                x = _build(N, (7,) + x.nums[1:], x.den, 0, 0)
            self.same(x._demote(), _demote_dense(x))

        check()

    @pytest.mark.parametrize("N", [2, 42, 49, 343, 506])
    def test_zero_vector_demotes_to_Q(self, N):
        zero = _make(N, [0] * euler_phi(N), -5, 0, 0)
        assert zero.nums == (0,) * euler_phi(N) and zero.den == 1
        got = zero._demote()
        assert (got.N, got.nums, got.den) == (1, (0,), 1)
        self.same(got, _demote_dense(zero))
        assert got == E.zero() and got.is_rational()

    def test_to_cyc(self):
        hyp, st, conductor, density, seed = self.strategies()

        @hyp.settings(max_examples=60, deadline=None)
        @hyp.given(conductor, density, st.sampled_from([1, 2, 3]), seed)
        def check(N, dens, k, s):
            x = self.scalar(random.Random(s), N, dens)
            self.same(x._to_cyc(k * N), _to_cyc_dense(x, k * N))

        check()

    def test_galois(self):
        hyp, st, conductor, density, seed = self.strategies()

        @hyp.settings(max_examples=100, deadline=None)
        @hyp.given(conductor, density, st.integers(-3000, 3000), seed)
        def check(N, dens, m, s):
            x = self.scalar(random.Random(s), N, dens, qgrade=2)
            hyp.assume(math.gcd(m, N) == 1)
            self.same(x.galois(m), _galois_dense(x, m))

        check()

    def test_descend(self):
        hyp, st, conductor, density, seed = self.strategies()

        @hyp.settings(max_examples=150, deadline=None)
        @hyp.given(conductor.filter(lambda N: N > 1), density, st.booleans(),
                   seed)
        def check(N, dens, from_subfield, s):
            rng = random.Random(s)
            q = rng.choice(_prime_divisors(N))
            if from_subfield:
                # an element of Q(zeta_(N/q)), which descends
                nums = self.scalar(rng, N // q, dens)._to_cyc(N).nums
            else:
                nums = tuple(self.numerators(rng, N, dens))
            got = _descend(N, q, nums)
            assert got == _descend_dense(N, q, nums)
            assert got is not None or not from_subfield

        check()

    def test_root_of_unity_sum(self):
        hyp, st, conductor, density, seed = self.strategies()
        rationals = st.sampled_from([1, -1, 3, Fraction(2, 7),
                                     Fraction(-5, 6)])

        @hyp.settings(max_examples=100, deadline=None)
        @hyp.given(conductor, st.lists(st.tuples(
            rationals, density, st.booleans(), st.integers(-999, 999)),
            max_size=5), seed)
        def check(N, raw, s):
            # every x and every zeta_M lies in Q(zeta_N), x at N or in Q
            rng = random.Random(s)
            terms = []
            for r, dens, at_N, j in raw:
                x = self.scalar(rng, N if at_N else 1, dens, qgrade=1)
                M = rng.choice([1, 2, N] + _prime_divisors(N))
                # a run of terms that share x, as the callers make
                terms += [(r, x, M, j + t) for t in range(rng.randint(1, 3))]
            self.same(root_of_unity_sum(terms),
                      _root_of_unity_sum_dense(terms))

        check()


class TestRootOfUnitySum:
    POOL = [E.zero(), E.one(), E.rational(Fraction(-2, 3)), E.zeta(3),
            E.zeta(4, 3), E.zeta(6, 2), 1 + E.zeta(6), E.zeta(9, 3),
            E.zeta(12, 5), E.rational(3, qgrade=1)]

    @staticmethod
    def chain(terms):
        total = E.zero()
        for r, x, M, j in terms:
            total = total + r * x * E.zeta(M, j)
        return total

    @staticmethod
    def conductor(terms, value):
        """lcm(x.N, M) over the non-zero terms, with M counted as 1 when
        zeta_M^j = +-1; 1 when the value is rational."""
        if value.N == 1:
            return 1
        return math.lcm(*(math.lcm(x.N, M if 2 * j % M else 1)
                          for r, x, M, j in terms if r and not x.is_zero()))

    def test_equals_chain_of_products(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        # the grade-1 scalar is drawn only when every term has grade 1
        term = st.tuples(
            st.sampled_from([0, 1, -1, 2, Fraction(1, 3), Fraction(-5, 2)]),
            st.integers(0, len(self.POOL) - 2),
            st.sampled_from([1, 2, 3, 4, 6, 9, 12, 18]),
            st.integers(-20, 20))

        @hyp.settings(max_examples=300, deadline=None)
        @hyp.given(st.lists(term, max_size=6), st.booleans())
        def check(raw, graded):
            terms = [(r, self.POOL[-1] if graded else self.POOL[i], M, j)
                     for r, i, M, j in raw]
            want = self.chain(terms)
            got = root_of_unity_sum(terms)
            assert got == want
            assert got.N == self.conductor(terms, want)
            # a zero is grade-polymorphic: only a non-zero sum shows its grade
            if not want.is_zero():
                assert (got.qgrade, got.pigrade) == \
                    (want.qgrade, want.pigrade)

        check()

    def test_rational_partial_sum_keeps_the_lcm(self):
        # zeta_9^3 + zeta_9^6 = -1: the chain continues in Q(zeta_3), the
        # sum stays at lcm(9, 9, 3) = 9
        one = E.one()
        terms = [(1, one, 9, 3), (1, one, 9, 6), (1, one, 3, 1)]
        assert root_of_unity_sum(terms).serialize() == "-1+1*z9^3"
        assert self.chain(terms).serialize() == "-1+1*z3^1"
        assert root_of_unity_sum(terms) == self.chain(terms)

    def test_rational_product_term(self):
        # zeta_6^2 * zeta_3^2 = 1 is rational, and the term still has
        # conductor lcm(6, 3) = 6
        terms = [(1, E.zeta(6, 2), 3, 2), (1, E.one(), 3, 1)]
        assert root_of_unity_sum(terms).serialize() == "1*z6^1"
        assert self.chain(terms).serialize() == "1+1*z3^1"
        assert root_of_unity_sum(terms) == self.chain(terms)

    def test_zero_terms_and_empty_sum(self):
        assert root_of_unity_sum([]) == E.zero()
        assert root_of_unity_sum([(0, E.zeta(4), 4, 1),
                                  (2, E.zero(), 3, 1)]) == E.zero()
        assert root_of_unity_sum([(1, E.one(), 4, 1),
                                  (1, E.one(), 4, 3)]) == E.zero()

    def test_mixed_grades_raise(self):
        graded = E.rational(2, qgrade=1)
        with pytest.raises(GradeError):
            root_of_unity_sum([(1, E.one(), 3, 1), (1, graded, 3, 2)])
        # a zero term is grade-polymorphic
        got = root_of_unity_sum([(1, graded, 3, 1), (0, E.one(), 3, 2),
                                 (1, E.zero(), 5, 1)])
        assert got == E.zeta(3) * graded


class TestConjugate:
    def test_zeta8(self):
        assert E.zeta(8).conjugate() == E.zeta(8, 7)

    def test_i_sqrtD(self):
        assert quad(5, d=1).conjugate() == -quad(5, d=1)
        assert E.sqrtD(5).conjugate() == E.sqrtD(5)

    def test_involution(self):
        rng = random.Random(11)
        for N in (5, 8, 12):
            a = rand_scalar(rng, N)
            assert a.conjugate().conjugate() == a

    def test_ring_automorphism(self):
        rng = random.Random(13)
        for _ in range(10):
            a = rand_scalar(rng, 15)
            b = rand_scalar(rng, 15)
            assert (a * b).conjugate() == a.conjugate() * b.conjugate()
            assert (a + b).conjugate() == a.conjugate() + b.conjugate()

    def test_quad_tower_arith(self):
        x = quad(5, 1, 2, Fraction(1, 3), -1)
        y = quad(5, 0, 1, 1, 2)
        assert (x * y).N == 20
        assert x * x.inverse() == E.one()
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        # sqrtD^2 = D, (i sqrtD)^2 = -D
        assert E.sqrtD(5) * E.sqrtD(5) == E.rational(5)
        assert quad(5, d=1) ** 2 == E.rational(-5)


class TestSerialization:
    @staticmethod
    def cases():
        i, z, h = E.i_unit(), E.zeta, Fraction(1, 2)
        return [E.rational(Fraction(3, 4)), E.rational(-2), h * z(8, 3),
                ((1 + i * E.sqrtD(5)) * h).with_grades(qgrade=1, pigrade=-2),
                E.zero(), E.one(), 2 * z(5) - z(5, 3), z(8, 5), z(4) + z(3),
                z(8, 3) - h,
                (Fraction(3, 4) * z(12, 2) - z(12)).with_grades(qgrade=-1),
                E.rational(Fraction(3, 4), pigrade=h),
                (-2 * z(5)).with_grades(pigrade=Fraction(-7, 2))]

    def test_round_trip(self):
        for v in self.cases():
            s = v.serialize()
            assert E.parse(s) == v
            assert E.parse(s).serialize() == s

    @pytest.mark.parametrize("s", ["i", "sqrt5", "z8^3-1/2", "1*z4^1+1*z3^1",
                                   "(1+i*sqrt5)/2"])
    def test_parse_reads_only_serialized_form(self, s):
        with pytest.raises(ValueError):
            E.parse(s)

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

    def test_quad_round_trip(self):
        v = quad(7, Fraction(1, 2), -1, 0, Fraction(3, 5), qgrade=-1)
        assert E.parse(v.serialize()) == v
        assert E.parse(v.serialize()).serialize() == v.serialize()

    @staticmethod
    def fraction_serialize(v):
        """The body of v.serialize() with each coefficient as str(Fraction)."""
        d = v._demote()
        terms = [f"{Fraction(n, d.den)}*z{d.N}^{k}" if k
                 else str(Fraction(n, d.den))
                 for k, n in enumerate(d.nums) if n]
        body = "+".join(terms).replace("+-", "-") if terms else "0"
        if d.qgrade:
            body += f" @q:{d.qgrade}"
        if d.pigrade:
            body += f" @pi:{d.pigrade}"
        return body

    def test_coefficients_written_as_fractions(self):
        rng = random.Random(29)
        values = [E.zero(), E.one(), E.rational(-7), E.rational(12, qgrade=1),
                  E.rational(Fraction(-6, 4), pigrade=Fraction(-7, 2)),
                  E([Fraction(4, 6), Fraction(-9, 3), 0, 5], N=5),
                  E([0, 0, Fraction(-1, 2), 0, 0, 3], N=9).with_grades(qgrade=-1)]
        for N in (1, 3, 5, 8, 12):
            for _ in range(6):
                deg = euler_phi(N)
                den = rng.choice([1, 2, 6, 12])
                v = E([Fraction(rng.choice([0, 1, -1, 2, -3, 4, -6, 12]), den)
                       for _ in range(deg)], N=N)
                values.append(v.with_grades(qgrade=rng.randint(-2, 2),
                                            pigrade=rng.randint(-1, 1)))
        for v in values:
            assert v.serialize() == self.fraction_serialize(v)


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
        x = quad(5, Fraction(1, 2), 3, 0, -1)
        y = quad(5, 2, 0, Fraction(1, 3), 1)
        assert hash(x * y / y) == hash(x)

    def test_tower_checks_survive_dash_O(self):
        code = ("from padr.scalar import ExactScalar as E\n"
                "print(E.zeta(8, 2) == E.i_unit(), "
                "(E.zeta(8) * E.sqrtD(3)) ** 2 == 3 * E.zeta(4))\n"
                "try:\n"
                "    E.one() / E.zero()\n"
                "except AssertionError:\n"
                "    print('raised')\n")
        src = os.path.dirname(os.path.dirname(padr.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["True", "True", "raised"]

    def test_embedded_values_are_equal(self):
        i = E.i_unit()
        assert E.zeta(8, 2) == i and hash(E.zeta(8, 2)) == hash(i)
        assert E.zeta(8, 2) * i == -1
        assert (E.zeta(8) * E.sqrtD(3)) ** 2 == 3 * E.zeta(4)
        assert len({E.zeta(4), E.zeta(8, 2), i, E.zeta(12, 3)}) == 1

    @pytest.mark.parametrize("D", [2, 3, 5, 6, 7, 15, 30])
    def test_sqrtD_squares_to_D(self, D):
        s = E.sqrtD(D)
        assert s * s == D and s.conjugate() == s
        assert (4 * D) % s.N == 0

    @pytest.mark.parametrize("D", [0, 1, 4, 12, -3, "5"])
    def test_sqrtD_rejects_bad_D(self, D):
        with pytest.raises(ValueError):
            E.sqrtD(D)

    def test_hash_is_a_function_of_the_value(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @st.composite
        def embedded(draw):
            """A value of Q(zeta_N) and the same value computed in
            Q(zeta_(N m)) and in Q(zeta_(N m')) by multiplying by a root of
            unity of that order and back."""
            N = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12, 15]))
            nums = draw(st.lists(st.integers(-3, 3), min_size=euler_phi(N),
                                 max_size=euler_phi(N)))
            den = draw(st.integers(1, 4))
            a = E([Fraction(n, den) for n in nums], N=N)
            out = [a]
            for m in draw(st.lists(st.sampled_from([2, 3, 4, 5, 6]),
                                   min_size=2, max_size=2)):
                k = draw(st.integers(1, N * m - 1))
                z = E.zeta(N * m, k)
                out.append((a * z) * z.inverse())
            return out

        @hyp.settings(max_examples=60, deadline=None)
        @hyp.given(embedded())
        def prop(values):
            a, b, c = values
            assert a == b and b == c and a == c
            assert hash(a) == hash(b) == hash(c)
            for v in values:
                assert _in_minimal_field(v) == a

        prop()

    @pytest.mark.parametrize("v, M", [
        (E.zeta(12, 3), 4), (E.zeta(15), 15), (E.zeta(6), 3),
        (E.sqrtD(3), 12), (E.sqrtD(5) * E.zeta(9, 3), 15),
        (E.zeta(8) + E.zeta(8, 2) - E.zeta(8), 4)])
    def test_minimal_field(self, v, M):
        w = _in_minimal_field(v)
        assert w.N == M and w == v


def _in_minimal_field(v):
    """v rebuilt in the power basis of its smallest cyclotomic field."""
    M, nums = _minimal_field(v.N, v.nums)
    return E([Fraction(n, v.den) for n in nums], N=M, qgrade=v.qgrade,
             pigrade=v.pigrade)


def _sympy_value(sp, v, x, m=1):
    """v as the sympy polynomial sum c_k x^(k*m mod N) (for m = 1 the power
    basis itself)."""
    c = [sp.Rational(f.numerator, f.denominator) for f in v.coeffs]
    N = v.N
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
            # a rational result has dropped to N = 1, with the basis (x^0,)
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
        """Products and inverses computed by sympy in Q(i, sqrtD) (as
        polynomials in i and s reduced by i^2 + 1 and s^2 - D), mapped into
        Q(zeta_4D) through quad(), agree with the kernel's."""
        rng = random.Random(2000 + D)
        i, s = sp.symbols("i s")
        rels = [i ** 2 + 1, s ** 2 - D]
        basis = (1, i, s, i * s)

        def coords(expr):
            r = sp.Poly(sp.reduced(sp.expand(expr), rels, i, s)[1], i, s)
            return [r.coeff_monomial(m) for m in basis]

        def to_scalar(c):
            return quad(D, *(Fraction(int(x.p), int(x.q)) for x in c))

        for _ in range(3):
            ca, cb = ([sp.Rational(rng.randint(-5, 5), rng.randint(1, 4))
                       for _ in range(4)] for _ in range(2))
            a, b = to_scalar(ca), to_scalar(cb)
            A, B = (sum(x * m for x, m in zip(c, basis)) for c in (ca, cb))
            prod = a * b
            _check_invariants(prod)
            assert prod == to_scalar(coords(A * B))
            if not a.is_zero():
                w = sp.symbols("w0:4")
                W = sum(x * m for x, m in zip(w, basis))
                sol = sp.solve([x - y for x, y in
                                zip(coords(A * W), (1, 0, 0, 0))], w)
                inv = a.inverse()
                _check_invariants(inv)
                assert inv == to_scalar([sol[x] for x in w])


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
        f = LaurentRF({1: 2, 3: 5}, {2: 4, 3: 8})
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

    def test_hash_agrees_with_equality_across_embeddings(self):
        # zeta_6^2 = zeta_3, computed in Q(zeta_6) and in Q(zeta_3)
        a, b = LaurentRF.const(E.zeta(6, 2)), LaurentRF.const(E.zeta(3))
        assert a == b and hash(a) == hash(b)
        one = LaurentRF.one()
        f = one / (one - LaurentRF.monomial(E.zeta(6, 2), 1))
        g = one / (one - LaurentRF.monomial(E.zeta(3), 1))
        assert f == g and hash(f) == hash(g)
        assert len({a, b, f, g}) == 2

    def test_negation_keeps_the_canonical_pair(self):
        # -f is built from f's pair without canonicalising again
        one = LaurentRF.one()
        for f in (LaurentRF.zero(), LaurentRF({1: 2, 3: 5}, {2: 4, 3: 8}),
                  one / (one - LaurentRF.monomial(E.zeta(3), 1)) * 3):
            g = LaurentRF({e: -c for e, c in f.num.items()}, f.den)
            assert ((-f).num, (-f).den) == (g.num, g.den)
            assert -f == g and hash(-f) == hash(g)

    def test_evaluation_at_a_pole(self):
        one = LaurentRF.one()
        f = one / (one - LaurentRF.monomial(Fraction(1, 3), 1))
        assert f.evaluate(Fraction(1, 2)) == Fraction(6, 5)
        with pytest.raises(PoleError):
            f.evaluate(3)

    def test_subst_X_inverse(self):
        u = Fraction(1, 2)
        one = LaurentRF.one()
        f = one / (one - LaurentRF.monomial(u, 1))
        g = f.subst_X(Fraction(1, 3), -1)
        assert g == one / (one - LaurentRF.monomial(Fraction(1, 6), -1))

    @staticmethod
    def canonical_every_step(num, den):
        """_laurent_canonical with the gcd taken whatever the sides' length
        and den rescaled even when its lowest coefficient is 1."""
        if not num:
            return {}, {0: E.one()}
        off_n, pn = _lp_to_poly(num)
        off_d, pd = _lp_to_poly(den)
        g = _spoly_gcd(pn, pd)
        if len(g) > 1:
            pn = _spoly_divmod(pn, g)[0]
            pd = _spoly_divmod(pd, g)[0]
        shift = 0
        while pd and _coerce(pd[0]).is_zero():
            pd.pop(0)
            shift += 1
        c0_inv = _coerce(pd[0]).inverse()
        pn = [_coerce(x) * c0_inv for x in pn]
        pd = [_coerce(x) * c0_inv for x in pd]
        return _poly_to_lp(off_n - off_d - shift, pn), _poly_to_lp(0, pd)

    POOL = [E.one(), E.rational(-2), E.rational(Fraction(3, 4)), E.zeta(3),
            E.zeta(4, 3), 1 + E.zeta(6), sqrt_prime(5).inverse(),
            E.rational(Fraction(-1, 6))]

    def test_skipped_steps_change_nothing(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        # a side is 1 to 3 terms c X^e, or c0 X^e + c1 X^(e+1) (degree 1);
        # coefficients rational or cyclotomic
        index = st.integers(0, len(self.POOL) - 1)
        side = st.one_of(
            st.dictionaries(st.integers(-3, 3), index, min_size=1,
                            max_size=3),
            st.builds(lambda e, i, j: {e: i, e + 1: j},
                      st.integers(-3, 3), index, index))
        factor = st.sampled_from([{}, {0: 1, 1: -1}, {0: 2, 2: 1},
                                  {-1: 1, 0: E.zeta(3)}])

        q = E.rational(1, qgrade=1)

        @hyp.settings(max_examples=300, deadline=None)
        @hyp.given(side, side, factor, st.integers(0, 1), st.integers(0, 1),
                   st.one_of(st.none(), st.tuples(index, st.integers(-2, 2))))
        def check(rn, rd, common, gn, gd, prop):
            num = {e: self.POOL[i] * q ** gn for e, i in rn.items()}
            den = {e: self.POOL[i] * q ** gd for e, i in rd.items()}
            if prop is not None:  # num = c X^s den: the sides share den
                c = self.POOL[prop[0]] * q ** gn
                num = {e + prop[1]: c * x for e, x in den.items()}
            if common:  # a shared factor, so the multi-term gcd is not 1
                num, den = _lp_mul(num, common), _lp_mul(den, common)
            got = _laurent_canonical(num, den)
            want = self.canonical_every_step(num, den)
            assert [{e: c.serialize() for e, c in side.items()}
                    for side in got] == \
                [{e: c.serialize() for e, c in side.items()}
                 for side in want]

        check()
        # two degree-1 sides, proportional and coprime
        for num, den in (({0: 2, 1: -4}, {0: 1, 1: -2}),
                         ({0: E.zeta(3), 1: 1}, {0: 1, 1: E.zeta(3, 2)}),
                         ({0: 2, 1: -4}, {0: 1, 1: -3}),
                         ({-1: 1, 0: E.zeta(3)}, {0: 1, 1: 1})):
            assert _laurent_canonical(num, den) == \
                self.canonical_every_step(num, den)
        assert _laurent_canonical({0: 2, 1: -4}, {0: 1, 1: -2}) == \
            ({0: 2}, {0: 1})

    def test_evaluate_parts_raises_where_evaluate_does(self):
        one = LaurentRF.one()
        f = one / (one - LaurentRF.monomial(Fraction(1, 3), 1))
        with pytest.raises(PoleError):
            f.evaluate_parts(3)
        g = LaurentRF({-1: 2, 1: 1}, {0: 1, 1: -1, 2: Fraction(-6)})
        rng = random.Random(31)
        points = [3, Fraction(1, 3), Fraction(-1, 2), sqrt_prime(3).inverse(),
                  E.zeta(4)] + [Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                                for _ in range(12)]
        poles = 0
        for h in (f, g, f * g, LaurentRF.X(-2) / g):
            for x in points:
                if x == 0 and min(h.num) < 0:
                    continue
                try:
                    want = h.evaluate(x)
                except PoleError:
                    poles += 1
                    with pytest.raises(PoleError):
                        h.evaluate_parts(x)
                    continue
                n, d = h.evaluate_parts(x)
                assert n / d == want
        assert poles  # the points reach the poles X = 3 of f, 1/3 and -1/2 of g

    def test_graded_coefficients(self):
        c = E.rational(2, qgrade=1)
        f = LaurentRF({1: c})
        assert (f * f) == LaurentRF({2: E.rational(4, qgrade=2)})
