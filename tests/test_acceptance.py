"""Acceptance battery: ten timed end-to-end checks, one pass/fail line each.

Every check reruns a family of exact identities from scratch (no fixtures
shared between criteria) and must finish inside its wall-clock bound; the
collected lines are echoed in the terminal summary.
"""

import random
import time
from fractions import Fraction

from padr import arch, diffops, iwasawa
from padr.chars import PadicChar, gauss_sum, gauss_sum_twisted
from padr.plocal import (
    SchwartzFn,
    fourier_transform,
    gl2_up_oracle,
    schwartz_theta,
    tate_factors,
    tate_integral,
    thm81_two_route,
    up_eigenvalues,
)
from padr.repalg import (
    do_binomial_sum,
    p_invariant,
    pair_ell,
    trilinear_norm,
    trilinear_value,
)
from padr.scalar import ExactScalar as E

CRITERION_LINES = []


def _check(num, desc, bound, fn):
    t0 = time.perf_counter()
    err = None
    try:
        fn()
    except BaseException as exc:
        err = exc
    dt = time.perf_counter() - t0
    ok = err is None and dt < bound
    line = (f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc} "
            f"({dt:.2f}s, bound {bound:g}s)")
    CRITERION_LINES.append(line)
    print(line)
    if err is not None:
        raise err
    assert dt < bound, line


def ramified_chars(p, c):
    m = (p - 1) * p ** (c - 1)
    return [PadicChar(p, 1, c, e) for e in range(1, m)
            if not (c >= 2 and e % p == 0)]


def test_criterion_01_gauss_sum_identities():
    def body():
        for p in (3, 5, 7):
            for c in (1, 2):
                q = p ** c
                for chi in ramified_chars(p, c):
                    inv = chi.inverse()
                    assert gauss_sum(chi) * gauss_sum(inv) == \
                        E.rational(q) * chi.at_minus_one()
                    gref = gauss_sum(inv)
                    for y in list(range(p + 2)) + [Fraction(1, p + 1)]:
                        lhs = gauss_sum_twisted(inv, y)
                        yv = Fraction(y)
                        if yv != 0 and yv.numerator % p:
                            # lhs = chi(-y)^(-1) gref, cross-multiplied
                            assert lhs * chi(-yv) == gref
                        else:
                            assert lhs.is_zero()
    _check(1, "Gauss-sum product and twisted-character identities", 1, body)


def test_criterion_02_moment_dictionary():
    def body():
        rng = random.Random(2)
        p, prec = 5, 8
        for _ in range(100):
            pts = [(rng.randint(0, prec), Fraction(rng.randint(-3, 3)))
                   for _ in range(rng.randint(1, 4))]
            g = iwasawa.MeasureSeries(p, [], prec)
            for a, c in pts:
                g = g + iwasawa.dirac_series(a, p, prec).scale(c)
            for k in range(4):
                assert iwasawa.mellin_moment(g, k).as_fraction() == \
                    sum(c * a ** k for a, c in pts)
    _check(2, "measure moments agree with direct point-mass sums", 1, body)


def test_criterion_03_theta_fourier_intertwining():
    def body():
        for p in (3, 5):
            chars = [PadicChar.unramified(p, 1)] \
                + ramified_chars(p, 1) + ramified_chars(p, 2)
            # 1 on 1/p^2 + Z_p plus 2 on Z_p: a Z_p-periodic function
            phi = SchwartzFn(p, [(Fraction(1, p ** 2), 0, 1), (0, 0, 2)])
            hat = fourier_transform(phi)
            for chi in chars:
                lhs = fourier_transform(schwartz_theta(phi, chi, "theta_p"))
                phi_chi = SchwartzFn.from_char_on_units(chi)
                for y in range(p ** 2 + 2):
                    assert lhs.evaluate(y) == \
                        phi_chi.evaluate(-y) * hat.evaluate(y)
    _check(3, "theta-kernel transform factors through the unit character", 5,
           body)


def test_criterion_04_zeta_functional_equation():
    def body():
        rng = random.Random(17)
        done = 0
        while done < 50:
            p = rng.choice([3, 5, 7])
            phi = SchwartzFn(
                p, [(Fraction(rng.randint(-6, 6), p ** rng.randint(0, 1)),
                     rng.randint(-1, 2), rng.randint(-3, 3))
                    for _ in range(rng.randint(1, 3))])
            if phi.is_zero():
                continue
            if rng.random() < 0.5:
                chi = PadicChar.unramified(
                    p, Fraction(rng.randint(1, 5), rng.randint(1, 5)))
            else:
                chi = PadicChar(p, Fraction(rng.randint(1, 4)), 1,
                                rng.randint(1, p - 2))
            lhs = tate_integral(fourier_transform(phi), chi.inverse()) \
                .subst_X(Fraction(1, p), -1)
            assert lhs == tate_factors(chi)[2] * tate_integral(phi, chi)
            done += 1
    _check(4, "local zeta functional equation on 50 random inputs", 10, body)


def test_criterion_05_central_value_two_routes():
    def body():
        for p in (3, 5):
            chars = tuple(PadicChar.unramified(p, u) for u in (2, 1, 3))
            sigmas = [(PadicChar.unramified(p, 5),
                       PadicChar.unramified(p, Fraction(1, 2))),
                      (PadicChar(p, Fraction(5), 1, 1),
                       PadicChar(p, Fraction(1, 2), 1, 1))]
            for ell in (3, 4):
                for sigma in sigmas:
                    lhs, rhs = thm81_two_route(chars, sigma, ell)
                    assert lhs == rhs
    _check(5, "assembled central value equals its closed square-root form",
           30, body)


def test_criterion_06_up_eigenvalue_oracle():
    def body():
        for p in (3, 5, 7):
            for u in (3, Fraction(1, 2), 7):
                chars = (PadicChar.unramified(p, 7),
                         PadicChar.unramified(p, u))
                ev = up_eigenvalues(chars, 2, 1, "beta")
                got = gl2_up_oracle(SchwartzFn.indicator(p), chars)
                assert got == ev
    _check(6, "Up eigenvalue formula matches torus-model brute force", 1,
           body)


def test_criterion_07_trilinear_forms():
    def body():
        for n1 in range(11):
            for n2 in range(11):
                for n3 in range(11):
                    total = n1 + n2 + n3
                    if total > 10 or total % 2:
                        continue
                    stars = [total // 2 - x for x in (n1, n2, n3)]
                    if min(stars) < 0:
                        continue
                    n = (n1, n2, n3)
                    for i in range(stars[0] + 1):
                        for j in range(stars[0] + 1):
                            a, b = trilinear_value(n, i, j)
                            assert a == b
                    pn = p_invariant(n)
                    assert pair_ell(pn, pn) == trilinear_norm(n)
        for a in range(9):
            for b in range(9):
                for c in range(9):
                    lhs, rhs = do_binomial_sum(a, b, c)
                    assert lhs == rhs
    _check(7, "SU(2) trilinear integrals, norms and binomial double sums",
           60, body)


def test_criterion_08_archimedean_assembly():
    def body():
        for l1 in range(1, 6):
            for l3 in range(-5, 1):
                m1 = Fraction(1, 2)
                while m1 < l1:
                    m2 = Fraction(2 * l3 - 1, 2)
                    while m2 >= Fraction(-11, 2):
                        ok, lhs, rhs = arch.prop_b1_verify((l1, 0, l3),
                                                           (m1, m2))
                        assert ok, ((l1, 0, l3), (m1, m2), lhs, rhs)
                        m2 -= 1
                    m1 += 1
    _check(8, "archimedean pairing assembly equals the Gamma-factor ratio",
           60, body)


def test_criterion_09_symbolic_operator_suite():
    def body():
        # automorphy cocycle chain rules over sample group elements
        for D in (3, 4):
            w1 = diffops.QiD(D, 1, 0, 0, 1)
            a = diffops.QiD(D, 2, 1)
            zr, o = diffops.QiD(D), diffops.QiD(D, 1)
            gens = [diffops.gen_n(D, w1, Fraction(1, 2)),
                    diffops.gen_m(D, a),
                    diffops.gen_iota(D, [[zr, o], [-o, zr]])]
            for i in range(3):
                assert diffops.automorphy_cocycle(gens[i],
                                                  gens[(i + 1) % 3], D)
        # nabla power three-route agreement on probes of each vector weight
        D = 4
        probes = [
            ((0, 0, 1), [{(1, 0, 2, 0): 1}]),
            ((-1, 0, 2), [{(1, 0, 1, 0): 1}, {(0, 1, 0, 0): diffops.qi(D)}]),
            ((0, 2, 1), [{(0, 0, 2, 0): 1}, {(1, 0, 0, 1): 2},
                         {(0, 0, 0, 0): 1}]),
            ((-1, 2, 1), [{(0, 0, 2, 0): 1}, {(1, 0, 1, 0): 1},
                          {(0, 1, 0, 1): 2}, {(0, 0, 1, 1): 1}]),
        ]
        for k, monos in probes:
            f = diffops.SectionPoly(D, k,
                                    [diffops.SymPoly(D, m) for m in monos])
            for n in range(4):
                xs = diffops.drho_restricted(f, n)
                ys = diffops.conjugated_derivative_form(f, n)
                zs = diffops.coefficient_closed_form(f, n)
                for x, y, z in zip(xs, ys, zs):
                    assert x == y and x == z
        # weight-raising tower law
        fqr = diffops.QRExpansion({(1, 0): 1, (3, 1): 5, (4, 0): -2})
        for k in (1, 2, 3):
            for nu in (1, 2, 3):
                assert diffops.maass_shimura(
                    diffops.maass_shimura(fqr, k, nu), k + 2 * nu, 1) \
                    == diffops.maass_shimura(fqr, k, nu + 1)
        # Heisenberg group laws and translation commutator phases
        rng = random.Random(9)
        for D in (3, 4):
            for _ in range(10):
                x = diffops.HeisenbergElt(
                    D, diffops.QiD(D, rng.randint(-2, 2), 0, 0,
                                   rng.randint(-2, 2)),
                    Fraction(rng.randint(-4, 4), 2))
                y = diffops.HeisenbergElt(
                    D, diffops.QiD(D, rng.randint(-2, 2), 0, 0,
                                   rng.randint(-2, 2)),
                    Fraction(rng.randint(-4, 4), 2))
                assert diffops.mat_eq((x * y).matrix(),
                                      diffops.mat_mul(x.matrix(), y.matrix()))
                r12 = diffops.am_commutator_phase(x.w, y.w, 1, D)
                r21 = diffops.am_commutator_phase(y.w, x.w, 1, D)
                assert (r12 + r21) % 2 == 0
        l1 = diffops.QiD(3, 1)
        l2 = diffops.QiD(3, 0, 0, 0, Fraction(1, 4))
        assert diffops.am_commutator_phase(l1, l2, 1, 3) == Fraction(1, 2)
    _check(9, "symbolic cocycle, lowering-operator and lattice-phase suite",
           60, body)


def test_criterion_10_ordinary_divisibility():
    def body():
        rng = random.Random(10)
        p = 3
        for n_pow in range(1, 7):
            f = iwasawa.QExpansion({m: Fraction(rng.randint(-9, 9))
                                    for m in range(1, p ** 6 + 30)})
            g = iwasawa.qexp_ops(f, "Up_theta_power", p, n_pow)
            v = iwasawa.min_vp(g, p)
            assert v is not None and v >= n_pow
    _check(10, "iterated twisted Up operator raises p-divisibility", 1, body)
