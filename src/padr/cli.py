"""Command-line front end: interpolation-factor calculator and
identity-suite runner with JSON output.

`padr interp` assembles the local factors attached to a weight/Satake
configuration; `padr verify <suite>` runs a named battery of exact
identities and exits 0 only when every identity holds.  `run(argv)` runs
one command in process and returns its exit code; `main` is the console
script and the target of `python -m padr.cli`.  The parser is argparse,
so a padr process imports nothing outside the standard library.
"""

import argparse
import functools
import json
import math
import random
import re
import sys
from fractions import Fraction

from padr.chars import (PadicChar, flush_gauss_cache, gauss_sum,
                        gauss_sum_twisted)
from padr.scalar import ExactScalar, PoleError


#: the largest |e| of a scalar written with an exponent, such as 1e-400:
#: Fraction builds 10^e whole, and 1e10000000 alone takes seconds.  4300 is
#: the number of digits Python reads in one integer literal.
_MAX_EXPONENT = 4300

#: E_p = euler_cpr(pi, sigma)^2 is a product of 12 factors 1 - lam/sqrt(p),
#: and a Satake value under "pi" enters the lam of 4 of them, one under
#: "sigma" 6.  So the integers that E_p serializes have fewer than
#: 4 B(pi) + 6 B(sigma) + 6 bits(p) + 32 bits, B(key) the sum over the
#: key's values of the larger bit length of numerator and denominator,
#: and that must stay within the 14284 bits (4300 digits) that Python
#: writes as a string.
_SATAKE_BITS = 14284

#: verify thm81 averages over p^ell translates, and its time grows with
#: p^ell.  In process on a 2-vCPU host: 3^9 = 19683 took 0.45 s (0.8 s for
#: the command), 13^4 = 28561 0.83 s, and 3^10 = 59049 1.5-2.4 s.
_THM81_TRANSLATES = 20000

#: the largest --p of the suites whose time grows with p, checked in this
#: order.  The times of gauss and thm81 follow the factorisation of p - 1,
#: so they are not monotone in p.  As processes on a 2-vCPU host, verify
#: gauss took at most 1.4 s for every prime up to 61 (p = 61), and 2.4 s
#: at 67, 3.7 s at 71 and 131 s at 199; verify thm81 --ell 2 took 0.30 s
#: at 31, 0.25 s at 37, 0.29 s at 41 and 0.60 s at 43, and 3.2 s at 47,
#: 2.2 s at 53, 31 s at 59 and 1.7 s at 61; verify fourier took 0.42 s at
#: 4999 (median of seeds 0-19, at most 1.0 s), and at most 1.2 s at 6007
#: and 1.7 s at 8009; verify measures took 0.94 s at 101 (median of seeds
#: 0-9, at most 1.3 s), and 1.1 s at 113 and over 20 s at 1009.
_MAX_P = {"gauss": 61, "thm81": 43, "fourier": 5000, "measures": 101}

#: the largest --p of interp, whose E_p is written in the power basis of
#: Q(zeta_p) or Q(zeta_4p), about p/2 terms.  As processes on a 2-vCPU
#: host, interp took 1.1-1.2 s at 9967 and 9931 (p = 3 mod 4), 0.5 s at
#: 9973, the largest prime it takes, and 1.2-1.3 s at 10007.
_MAX_INTERP_P = 10000


class UsageError(Exception):
    """A bad argument value: the command exits 2 with `Error: <message>`."""


def _parse_fraction(s):
    s = str(s)
    try:
        exp = re.search(r"[eE]([-+]?[\d_]+)\s*$", s)
        if exp and abs(int(exp[1])) > _MAX_EXPONENT:
            raise ValueError(f"exponent beyond {_MAX_EXPONENT} in size")
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse scalar {s!r}: {exc}")


def _parse_ints(s, n, label):
    try:
        out = tuple(int(x) for x in str(s).split(","))
    except ValueError:
        out = ()
    if len(out) != n:
        raise UsageError(f"{label} must be {n} comma-separated integers")
    return out


def _check_prime(p):
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise UsageError(f"--p must be a prime, got {p}")


def _pi_string(x):
    """A rational multiple r*pi^k, the LaurentRF monomial r X^k in X = pi,
    as 'r*pi^k', or as 'r' when k = 0 or r = 0, e.g. '1/8*pi^-10'."""
    if x.is_zero():
        return "0"
    (k, r), = x.num.items()
    r = r.as_fraction()
    return f"{r}*pi^{k}" if k else str(r)


def _satake_values(data, key, n):
    vals = data.get(key) if isinstance(data, dict) else None
    if not isinstance(vals, list) or len(vals) != n:
        raise UsageError(f"--satake needs a list of {n} values "
                         f"under {key!r}")
    vals = [_parse_fraction(u) for u in vals]
    if not all(vals):
        raise UsageError(f"--satake values under {key!r} must be "
                         f"non-zero")
    return vals


def _check_weight_size(hc):
    """Gamma_VQ is the product over the six pairs (lam_i, mu_j) of
    Gamma_C(n) = (n-1)!/2^(n-1), n = 1/2 + |lam_i - mu_j|.  With m = n - 1,
    its numerator divides the product of the odd parts of the m!, which
    have bits(m!) - v_2(m!) bits, at most S(m) - (m - popcount(m)) with
    S(m) = the sum of bits(k) for k <= m; its denominator is a smaller
    power of 2.  Both must stay within the _SATAKE_BITS Python writes."""
    need = 1
    for lam in hc.lam:
        for mu in hc.mu:
            m = int(abs(lam - mu) - Fraction(1, 2))
            L = m.bit_length()
            need += L * (m + 1) - (1 << L) + 1 - m + m.bit_count()
    if need > _SATAKE_BITS:
        raise UsageError(
            f"--weights and --kp are too large: Gamma_VQ would need {need} "
            f"bits, at most {_SATAKE_BITS} can be written out")


def _check_satake_size(p, pi_vals, sigma_vals):
    def bits(vals):
        return sum(max(abs(u.numerator), u.denominator).bit_length()
                   for u in vals)
    need = (4 * bits(pi_vals) + 6 * bits(sigma_vals)
            + 6 * p.bit_length() + 32)
    if need > _SATAKE_BITS:
        raise UsageError(
            f"--satake values are too large: E_p would need {need} bits, "
            f"at most {_SATAKE_BITS} can be written out")


def _adjoint_or_pole(sigma):
    from padr import plocal
    try:
        return plocal.adjoint_modified(sigma).serialize()
    except PoleError:
        return "pole"


def _emit(report, fmt):
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=False))
        return
    for line in _text_lines(report):
        print(line)


def _text_lines(report):
    if "suites" in report:
        for sub in report["suites"]:
            yield from _text_lines(sub)
        return
    if "identities" in report:
        yield f"suite {report['suite']}: " \
            f"{report['passed']} passed, {report['failed']} failed"
        for ident in report["identities"]:
            mark = "ok  " if ident["ok"] else "FAIL"
            yield f"  {mark} {ident['name']}"
        return
    for key, val in report.items():
        yield f"{key}: {val}"


def interp(p, weights, kp, satake, fmt):
    """Assemble the local interpolation factors for one configuration."""
    from padr import arch, plocal
    # before _check_prime, whose trial division is slow on a large prime
    if p > _MAX_INTERP_P:
        raise UsageError(f"--p {p}: interp takes primes up to "
                         f"{_MAX_INTERP_P}")
    _check_prime(p)
    k = _parse_ints(weights, 3, "--weights")
    kprime = _parse_ints(kp, 2, "--kp")
    try:
        w = arch.WeightTuple(k, kprime)
    except AssertionError as exc:
        raise UsageError(f"bad weights: {exc}")
    hc, xcrit, ycrit = arch.hc_from_weights(w)
    _check_weight_size(hc)

    data = {"pi": ["2", "1", "3"], "sigma": ["5", "1/2"]}
    if satake is not None:
        try:
            try:
                with open(satake) as fh:
                    data = json.load(fh, parse_float=_parse_fraction)
            except OSError:
                data = json.loads(satake, parse_float=_parse_fraction)
        except ValueError as exc:  # bad JSON, or a file that is not text
            raise UsageError(f"bad --satake: {exc}")
    pi_vals = _satake_values(data, "pi", 3)
    sigma_vals = _satake_values(data, "sigma", 2)
    _check_satake_size(p, pi_vals, sigma_vals)
    pi_chars = tuple(PadicChar.unramified(p, u) for u in pi_vals)
    sigma = tuple(PadicChar.unramified(p, u) for u in sigma_vals)

    root, m_q = arch.einf_mq(w)
    report = {
        "p": p,
        "E_p": (plocal.euler_cpr(pi_chars, sigma) ** 2).serialize(),
        "E_adjoint": _adjoint_or_pole(sigma),
        "E_inf": root,
        "m_Q": m_q,
        "Gamma_VQ": _pi_string(arch.gamma_vq(w)),
        "criticality": {"x_critical": xcrit, "y_critical": ycrit},
    }
    try:
        report["ggp"] = "compatible" if arch.ggp_from_hc(hc) \
            else "incompatible"
    except AssertionError:
        report["ggp"] = "degenerate"
    if not xcrit:
        report["warnings"] = ["weights outside the critical range; "
                              "archimedean factors are formal"]
    _emit(report, fmt)
    return 0


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def _ident(name, ok, detail=None):
    out = {"name": name, "ok": bool(ok)}
    if detail is not None:
        out["detail"] = detail
    return out


def suite_gauss(p):
    out = []
    for e in range(1, p - 1):
        chi = PadicChar(p, 1, 1, e)
        lhs = gauss_sum(chi) * gauss_sum(chi.inverse())
        rhs = ExactScalar.rational(p) * chi.at_minus_one()
        out.append(_ident(f"product-identity c=1 e={e}", lhs == rhs))
    quad = PadicChar(p, 1, 1, (p - 1) // 2)
    g = gauss_sum(quad)
    out.append(_ident("quadratic-square",
                      g * g == ExactScalar.rational(p) * quad.at_minus_one()))
    chi = PadicChar(p, 1, 1, 1)
    gref = gauss_sum(chi.inverse())
    for y in range(1, p):
        lhs = gauss_sum_twisted(chi.inverse(), y)
        out.append(_ident(f"twisted-identity y={y}",
                          lhs == chi(-y).inverse() * gref))
    return out


def suite_fourier(p, rng):
    from padr.plocal import SchwartzFn, fourier_transform
    out = []
    f0 = SchwartzFn.indicator(p)
    out.append(_ident("unit-ball self-dual", fourier_transform(f0) == f0))
    got = fourier_transform(SchwartzFn.indicator(p, 0, 1))
    want = SchwartzFn.indicator(p, 0, -1, Fraction(1, p))
    out.append(_ident("small-ball transform", got == want))
    for t in range(10):
        f = SchwartzFn(p, [(Fraction(rng.randint(-4, 4), p),
                            rng.randint(-1, 1), rng.randint(-2, 2))
                           for _ in range(2)])
        ok = fourier_transform(fourier_transform(f)) == f.dilate(-1)
        out.append(_ident(f"double-transform inversion #{t}", ok))
    return out


def _random_tate_case(rng):
    from padr.plocal import SchwartzFn
    p = rng.choice([3, 5, 7])
    phi = SchwartzFn(p, [(Fraction(rng.randint(-6, 6), p ** rng.randint(0, 1)),
                          rng.randint(-1, 2), rng.randint(-3, 3))
                         for _ in range(rng.randint(1, 3))])
    if rng.random() < 0.5:
        chi = PadicChar.unramified(
            p, Fraction(rng.randint(1, 5), rng.randint(1, 5)))
    else:
        chi = PadicChar(p, Fraction(rng.randint(1, 4)), 1,
                        rng.randint(1, p - 2))
    return p, phi, chi


def suite_tate(rng):
    from padr.plocal import fourier_transform, tate_factors, tate_integral
    out = []
    done = 0
    while done < 50:
        q, phi, chi = _random_tate_case(rng)
        if phi.is_zero():
            continue
        lhs = tate_integral(fourier_transform(phi), chi.inverse()) \
            .subst_X(Fraction(1, q), -1)
        ok = lhs == tate_factors(chi)[2] * tate_integral(phi, chi)
        out.append(_ident(f"functional-equation #{done} p={q}", ok))
        done += 1
    return out


def suite_thm81(p, ell):
    from padr import plocal
    out = []
    chars = tuple(PadicChar.unramified(p, u) for u in (2, 1, 3))
    sigmas = [
        ("unramified", (PadicChar.unramified(p, 5),
                        PadicChar.unramified(p, Fraction(1, 2)))),
        ("conductor-1", (PadicChar(p, Fraction(5), 1, 1),
                         PadicChar(p, Fraction(1, 2), 1, 1))),
    ]
    for label, sigma in sigmas:
        lhs, rhs = plocal.thm81_two_route(chars, sigma, ell)
        out.append(_ident(
            f"two-route central value {label} p={p} ell={ell}", lhs == rhs,
            {"route_a": lhs.serialize(), "route_b": rhs.serialize()}))
    return out


def suite_trilinear():
    from padr.repalg import (do_binomial_sum, p_invariant, pair_ell,
                             trilinear_norm, trilinear_value)
    out = []
    for n in [(1, 1, 2), (2, 2, 2), (1, 2, 3), (3, 3, 2)]:
        stars = sum(n) // 2 - n[0]
        ok = all(trilinear_value(n, i, j)[0] == trilinear_value(n, i, j)[1]
                 for i in range(stars + 1) for j in range(stars + 1))
        out.append(_ident(f"two-route trilinear n={n}", ok))
        pn = p_invariant(n)
        out.append(_ident(f"norm gamma-quotient n={n}",
                          pair_ell(pn, pn) == trilinear_norm(n)))
    ok = all(do_binomial_sum(a, b, c)[0] == do_binomial_sum(a, b, c)[1]
             for a in range(5) for b in range(5) for c in range(5))
    out.append(_ident("binomial double-sum identity A,B,C<5", ok))
    return out


def suite_propb1():
    from padr import arch
    out = []
    for l1 in range(1, 4):
        for l3 in range(-3, 1):
            m1 = Fraction(1, 2)
            while m1 < l1:
                m2 = Fraction(2 * l3 - 1, 2)
                while m2 >= Fraction(-7, 2):
                    ok, lhs, rhs = arch.prop_b1_verify((l1, 0, l3), (m1, m2))
                    out.append(_ident(
                        f"assembly lam=({l1},0,{l3}) mu=({m1},{m2})", ok,
                        {"lhs": _pi_string(lhs), "rhs": _pi_string(rhs)}))
                    m2 -= 1
                m1 += 1
    return out


def suite_diffops(rng):
    from padr import diffops
    out = []
    for D in (3, 4):
        w1 = diffops.QiD(D, 1, 0, 0, 1)
        a = diffops.QiD(D, 2, 1)
        zr, o = diffops.QiD(D), diffops.QiD(D, 1)
        gens = [diffops.gen_n(D, w1, Fraction(1, 2)),
                diffops.gen_m(D, a),
                diffops.gen_iota(D, [[zr, o], [-o, zr]])]
        for i in range(3):
            g, h = gens[i], gens[(i + 1) % 3]
            try:
                ok = diffops.automorphy_cocycle(g, h, D)
            except AssertionError:
                ok = False
            out.append(_ident(f"cocycle chain rule D={D} pair {i}", ok))
    D = 4
    f = diffops.SectionPoly(
        D, (-1, 0, 2),
        [diffops.SymPoly(D, {(1, 0, 1, 0): 1}),
         diffops.SymPoly(D, {(0, 1, 0, 0): diffops.qi(D)})])
    for n in range(3):
        a_ = diffops.drho_restricted(f, n)
        b_ = diffops.conjugated_derivative_form(f, n)
        c_ = diffops.coefficient_closed_form(f, n)
        ok = all(x == y and x == z for x, y, z in zip(a_, b_, c_))
        out.append(_ident(f"nabla three-route n={n}", ok))
    ok = True
    for _ in range(8):
        x = diffops.HeisenbergElt(
            3, diffops.QiD(3, rng.randint(-2, 2), 0, 0, rng.randint(-2, 2)),
            Fraction(rng.randint(-4, 4), 2))
        y = diffops.HeisenbergElt(
            3, diffops.QiD(3, rng.randint(-2, 2), 0, 0, rng.randint(-2, 2)),
            Fraction(rng.randint(-4, 4), 2))
        ok = ok and diffops.mat_eq((x * y).matrix(),
                                   diffops.mat_mul(x.matrix(), y.matrix()))
    out.append(_ident("heisenberg group law vs matrix product", ok))
    l1, l2 = diffops.QiD(3, 1), diffops.QiD(3, 0, 0, 0, Fraction(1, 4))
    out.append(_ident("translation commutator fourth root",
                      diffops.am_commutator_phase(l1, l2, 1, 3)
                      == Fraction(1, 2)))
    fqr = diffops.QRExpansion({(1, 0): 1, (3, 1): 5})
    ok = all(diffops.maass_shimura(diffops.maass_shimura(fqr, k, nu),
                                   k + 2 * nu, 1)
             == diffops.maass_shimura(fqr, k, nu + 1)
             for k in (1, 2) for nu in (1, 2, 3))
    out.append(_ident("weight-raising tower law", ok))
    return out


def suite_measures(p, prec_t, rng):
    from padr import iwasawa
    from padr.plocal import SchwartzFn
    out = []
    for t in range(20):
        pts = [(rng.randint(0, prec_t), Fraction(rng.randint(-3, 3)))
               for _ in range(3)]
        g = iwasawa.MeasureSeries(p, [], prec_t)
        for a, c in pts:
            g = g + iwasawa.dirac_series(a, p, prec_t).scale(c)
        ok = all(iwasawa.mellin_moment(g, k).as_fraction()
                 == sum(c * a ** k for a, c in pts) for k in range(4))
        out.append(_ident(f"mellin dictionary #{t}", ok))
    phi = SchwartzFn(p, [(u, 1, Fraction(rng.randint(-2, 2)))
                         for u in range(p)])
    pts = [(rng.randint(0, prec_t - 1), Fraction(rng.randint(-2, 2)))
           for _ in range(4)]
    g = iwasawa.MeasureSeries(p, [], prec_t)
    for a, c in pts:
        g = g + iwasawa.dirac_series(a, p, prec_t).scale(c)
    ok = all(iwasawa.integrate(g, phi, k).as_fraction()
             == sum(c * phi.evaluate(a).as_fraction() * a ** k
                    for a, c in pts)
             for k in range(3))
    out.append(_ident("twisted moment compatibility", ok))
    for n_pow in (1, 2, 4):
        f = iwasawa.QExpansion({m: Fraction(rng.randint(-9, 9))
                                for m in range(1, 30)})
        g = iwasawa.qexp_ops(f, "Up_theta_power", p, n_pow)
        v = iwasawa.min_vp(g, p)
        out.append(_ident(f"ordinary divisibility N={n_pow}",
                          v is None or v >= n_pow))
    return out


def suite_cpr(rng):
    """E_p by two routes: the Coates--Perrin-Riou product of Frobenius
    eigenvalues, squared, against the L and gamma factors, on three draws
    of Satake values a/b with 1 <= a, b <= 9 at every prime up to 31."""
    from padr import plocal
    out = []
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for _ in range(3):
            vals = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                    for _ in range(5)]
            chars = tuple(PadicChar.unramified(p, u) for u in vals)
            pi_chars, sigma = chars[:3], chars[3:]
            ok = plocal.euler_cpr(pi_chars, sigma) ** 2 == \
                plocal.euler_modified(pi_chars, sigma)
            label = ",".join(map(str, vals[:3])) + ";" + \
                ",".join(map(str, vals[3:]))
            out.append(_ident(f"E_p = euler_cpr^2 p={p} satake={label}", ok))
    return out


#: suite name -> (suite function, the verify parameters it takes, in order)
_SUITES = {
    "gauss": (suite_gauss, ("p",)),
    "fourier": (suite_fourier, ("p", "rng")),
    "tate": (suite_tate, ("rng",)),
    "thm81": (suite_thm81, ("p", "ell")),
    "trilinear": (suite_trilinear, ()),
    "propb1": (suite_propb1, ()),
    "diffops": (suite_diffops, ("rng",)),
    "measures": (suite_measures, ("p", "prec_t", "rng")),
    "cpr": (suite_cpr, ("rng",)),
}


def _run_suite(name, seed, params):
    fn, names = _SUITES[name]
    args = dict(params, rng=random.Random(seed))
    idents = fn(*(args[n] for n in names))
    passed = sum(1 for i in idents if i["ok"])
    return {"suite": name, "seed": seed, "identities": idents,
            "passed": passed, "failed": len(idents) - passed}


def verify(suite, p, ell, prec_t, seed, fmt):
    """Run a named identity battery; exit 0 only if every identity holds."""
    names = list(_SUITES) if suite == "all" else [suite]
    used = {n for name in names for n in _SUITES[name][1]}
    # before _check_prime, whose trial division is slow on a large prime
    for name, most in _MAX_P.items():
        if name in names and p > most:
            raise UsageError(f"--p {p}: {name} takes primes up to "
                             f"{most}")
    if "p" in used:
        _check_prime(p)
    if p == 2 and {"gauss", "thm81"} & set(names):
        raise UsageError("gauss and thm81 need an odd prime --p")
    # thm81's conductor-1 case needs ell >= n + n' = 2
    if "ell" in used and ell < 2:
        raise UsageError(f"--ell must be at least 2, got {ell}")
    # p^ell >= 2^ell exceeds the bound once ell reaches its bit length, so
    # such an ell is rejected before p^ell is built
    if "ell" in used and (ell >= _THM81_TRANSLATES.bit_length()
                          or p ** ell > _THM81_TRANSLATES):
        raise UsageError(f"--ell {ell} at --p {p}: thm81 averages "
                         f"p^ell translates, at most "
                         f"{_THM81_TRANSLATES}")
    # the Mellin moments of the measures suite go up to T^3
    if "prec_t" in used and prec_t < 3:
        raise UsageError(f"--prec-T must be at least 3, got {prec_t}")
    params = {"p": p, "ell": ell, "prec_t": prec_t}
    reports = [_run_suite(n, seed, params) for n in names]
    report = reports[0] if len(reports) == 1 else {"suites": reports}
    _emit(report, fmt)
    return 1 if any(r["failed"] for r in reports) else 0


# ---------------------------------------------------------------------------
# argument parsing and entry points
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse with the conventions of padr's command line: options are
    never abbreviated, an option's value is the next token whatever it
    looks like, and a usage error ends stderr with `Error: <message>`."""

    def __init__(self, **kwargs):
        #: the option strings that take a value
        self.value_options = set()
        super().__init__(allow_abbrev=False, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.nargs != 0:
            self.value_options.update(action.option_strings)
        return action

    def parse_known_args(self, args=None, namespace=None):
        # argparse takes a token that starts with '-' and is no negative
        # number for an option, so "--weights -3,-1,2" would leave --weights
        # without a value; "--weights=-3,-1,2" is one token it reads whole
        args = list(sys.argv[1:] if args is None else args)
        out = []
        while args:
            tok = args.pop(0)
            if tok == "--":
                out += [tok] + args
                break
            if tok in self.value_options and args:
                tok = f"{tok}={args.pop(0)}"
            out.append(tok)
        return super().parse_known_args(out, namespace)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(2, f"Error: {message}\n")


@functools.cache
def _parser():
    """The parser of both commands, built once per process."""
    parser = _Parser(
        prog="padr",
        description="Exact-arithmetic toolkit for local interpolation "
                    "factors.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    fmt = {"dest": "fmt", "choices": ["json", "text"], "default": "json",
           "help": "output format (default: %(default)s)"}

    doc = "Assemble the local interpolation factors for one configuration."
    sub = commands.add_parser("interp", help=doc, description=doc)
    sub.add_argument("--p", type=int, default=5,
                     help=f"a prime, at most {_MAX_INTERP_P} "
                          "(default: %(default)s)")
    sub.add_argument("--weights", default="-1,0,2",
                     help="k1,k2,k3 (weakly increasing); with --kp they must "
                          "keep Gamma_VQ within 4300 digits: at the default "
                          "--kp, -509,0,509 does and -510,0,510 does not "
                          "(default: %(default)s)")
    sub.add_argument("--kp", default="-1,2",
                     help="k1',k2' (weakly increasing) (default: %(default)s)")
    sub.add_argument("--satake",
                     help="JSON {\"pi\": [u1,u2,u3], \"sigma\": [v1,v2]} of "
                          "rational strings, or a file path (default: pi "
                          "2,1,3 and sigma 5,1/2)")
    sub.add_argument("--format", **fmt)
    sub.set_defaults(command=interp, parser=sub)

    doc = "Run a named identity battery; exit 0 only if every identity holds."
    sub = commands.add_parser("verify", help=doc, description=doc)
    sub.add_argument("suite", metavar="SUITE",
                     choices=list(_SUITES) + ["all"],
                     help=f"one of {', '.join(_SUITES)}, or all")
    sub.add_argument("--p", type=int, default=3,
                     help="a prime: at most "
                          f"{_MAX_P['fourier']} for fourier and "
                          f"{_MAX_P['measures']} for measures, and an odd one "
                          f"at most {_MAX_P['gauss']} for gauss and "
                          f"{_MAX_P['thm81']} for thm81, also under all "
                          "(default: %(default)s)")
    sub.add_argument("--ell", type=int, default=3,
                     help="thm81's averaging level: ell >= 2 and p^ell <= "
                          f"{_THM81_TRANSLATES} (ell <= 9 at p = 3) "
                          "(default: %(default)s)")
    sub.add_argument("--prec-T", dest="prec_t", type=int, default=8,
                     help="the measures suite's T-adic precision, at least 3 "
                          "(default: %(default)s)")
    sub.add_argument("--seed", type=int, default=0,
                     help="the seed of the suites' random draws "
                          "(default: %(default)s)")
    sub.add_argument("--format", **fmt)
    sub.set_defaults(command=verify, parser=sub)
    return parser


def run(argv=None):
    """Run `padr ARGV` in this process (sys.argv[1:] when ARGV is None):
    write to sys.stdout and sys.stderr as they are at the call, and return
    the exit code, 0 when every identity holds, 1 when one fails and 2 on
    a usage error.  New Gauss sums go to PADR_CACHE_DIR once, when the
    command ends, also when it returns 1."""
    try:
        try:
            args = vars(_parser().parse_args(argv))
            command, parser = args.pop("command"), args.pop("parser")
            return command(**args)
        except UsageError as exc:
            parser.error(str(exc))
    except SystemExit as exc:  # a usage error, or --help
        return exc.code
    finally:
        flush_gauss_cache()


def main(argv=None, prog_name=None):
    """The console script: exit with run's code.  prog_name is the keyword
    of click's form that perfbench's sampled_cli.py passes; every usage
    line names padr."""
    sys.exit(run(argv))


def _click_main(argv=None, standalone_mode=True):
    """click's `main.main(argv, standalone_mode=False)`, which perfbench's
    worker and make_references.py call: return when the code is 0, raise
    SystemExit(code) otherwise.  ROADMAP item 4 moves perfbench onto run
    and then deletes this form."""
    code = run(argv)
    if code or standalone_mode:
        sys.exit(code)


main.main = _click_main


if __name__ == "__main__":  # pragma: no cover
    main()
