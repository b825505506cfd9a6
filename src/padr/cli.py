"""Command-line front end: interpolation-factor calculator and
identity-suite runner with JSON output.

`padr interp` assembles the local factors attached to a weight/Satake
configuration; `padr verify <suite>` runs a named battery of exact
identities and exits 0 only when every identity holds.
"""

import json
import math
import random
import re
import sys
from fractions import Fraction

import click

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


def _parse_fraction(s):
    s = str(s)
    try:
        exp = re.search(r"[eE]([-+]?[\d_]+)\s*$", s)
        if exp and abs(int(exp[1])) > _MAX_EXPONENT:
            raise ValueError(f"exponent beyond {_MAX_EXPONENT} in size")
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(f"cannot parse scalar {s!r}: {exc}")


def _parse_ints(s, n, label):
    try:
        out = tuple(int(x) for x in str(s).split(","))
    except ValueError:
        out = ()
    if len(out) != n:
        raise click.UsageError(f"{label} must be {n} comma-separated integers")
    return out


def _check_prime(p):
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise click.UsageError(f"--p must be a prime, got {p}")


def _pi_string(x):
    """A rational multiple of a power of pi as 'v*pi^k', or as 'v' when
    k = 0 or v = 0, e.g. '1/8*pi^-10'."""
    v = x.with_grades(pigrade=0).as_fraction()
    return f"{v}*pi^{x.pigrade}" if v and x.pigrade else str(v)


def _satake_values(data, key, n):
    vals = data.get(key) if isinstance(data, dict) else None
    if not isinstance(vals, list) or len(vals) != n:
        raise click.UsageError(f"--satake needs a list of {n} values "
                               f"under {key!r}")
    vals = [_parse_fraction(u) for u in vals]
    if not all(vals):
        raise click.UsageError(f"--satake values under {key!r} must be "
                               f"non-zero")
    return vals


def _check_satake_size(p, pi_vals, sigma_vals):
    def bits(vals):
        return sum(max(abs(u.numerator), u.denominator).bit_length()
                   for u in vals)
    need = (4 * bits(pi_vals) + 6 * bits(sigma_vals)
            + 6 * p.bit_length() + 32)
    if need > _SATAKE_BITS:
        raise click.UsageError(
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
        click.echo(json.dumps(report, indent=2, sort_keys=False))
        return
    for line in _text_lines(report):
        click.echo(line)


def _text_lines(report, prefix=""):
    if "suites" in report:
        for sub in report["suites"]:
            yield from _text_lines(sub, prefix)
        return
    if "identities" in report:
        yield f"{prefix}suite {report['suite']}: " \
            f"{report['passed']} passed, {report['failed']} failed"
        for ident in report["identities"]:
            mark = "ok  " if ident["ok"] else "FAIL"
            yield f"{prefix}  {mark} {ident['name']}"
        return
    for key, val in report.items():
        yield f"{prefix}{key}: {val}"


@click.group()
@click.pass_context
def main(ctx):
    """Exact-arithmetic toolkit for local interpolation factors."""
    # new Gauss sums go to PADR_CACHE_DIR once, when the command ends
    # (also when it exits 1)
    ctx.call_on_close(flush_gauss_cache)


@main.command()
@click.option("--p", type=int, default=5, show_default=True)
@click.option("--weights", default="-1,0,2", show_default=True,
              help="k1,k2,k3 (weakly increasing)")
@click.option("--kp", default="-1,2", show_default=True,
              help="k1',k2' (weakly increasing)")
@click.option("--satake", default=None,
              help="JSON {\"pi\": [u1,u2,u3], \"sigma\": [v1,v2]} of "
                   "rational strings, or a file path")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]),
              default="json", show_default=True)
def interp(p, weights, kp, satake, fmt):
    """Assemble the local interpolation factors for one configuration."""
    from padr import arch, plocal
    _check_prime(p)
    k = _parse_ints(weights, 3, "--weights")
    kprime = _parse_ints(kp, 2, "--kp")
    try:
        w = arch.WeightTuple(k, kprime)
    except AssertionError as exc:
        raise click.UsageError(f"bad weights: {exc}")

    data = {"pi": ["2", "1", "3"], "sigma": ["5", "1/2"]}
    if satake is not None:
        try:
            try:
                with open(satake) as fh:
                    data = json.load(fh, parse_float=_parse_fraction)
            except OSError:
                data = json.loads(satake, parse_float=_parse_fraction)
        except ValueError as exc:  # bad JSON, or a file that is not text
            raise click.UsageError(f"bad --satake: {exc}")
    pi_vals = _satake_values(data, "pi", 3)
    sigma_vals = _satake_values(data, "sigma", 2)
    _check_satake_size(p, pi_vals, sigma_vals)
    pi_chars = tuple(PadicChar.unramified(p, u) for u in pi_vals)
    sigma = tuple(PadicChar.unramified(p, u) for u in sigma_vals)

    hc, xcrit, ycrit = arch.hc_from_weights(w)
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


def suite_tate(p, rng, count=50):
    from padr.plocal import fourier_transform, tate_factors, tate_integral
    out = []
    done = 0
    while done < count:
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


def suite_propb1(lam1_max=3):
    from padr import arch
    out = []
    for l1 in range(1, lam1_max + 1):
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
    "tate": (suite_tate, ("p", "rng")),
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


@main.command()
@click.argument("suite", type=click.Choice(list(_SUITES) + ["all"]))
@click.option("--p", type=int, default=3, show_default=True)
@click.option("--ell", type=int, default=3, show_default=True)
@click.option("--prec-T", "prec_t", type=int, default=8, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "text"]),
              default="json", show_default=True)
def verify(suite, p, ell, prec_t, seed, fmt):
    """Run a named identity battery; exit 0 only if every identity holds."""
    names = list(_SUITES) if suite == "all" else [suite]
    used = {n for name in names for n in _SUITES[name][1]}
    if "p" in used:
        _check_prime(p)
    if p == 2 and {"gauss", "thm81"} & set(names):
        raise click.UsageError("gauss and thm81 need an odd prime --p")
    # thm81's conductor-1 case needs ell >= n + n' = 2
    if "ell" in used and ell < 2:
        raise click.UsageError(f"--ell must be at least 2, got {ell}")
    # the Mellin moments of the measures suite go up to T^3
    if "prec_t" in used and prec_t < 3:
        raise click.UsageError(f"--prec-T must be at least 3, got {prec_t}")
    params = {"p": p, "ell": ell, "prec_t": prec_t}
    reports = [_run_suite(n, seed, params) for n in names]
    report = reports[0] if len(reports) == 1 else {"suites": reports}
    _emit(report, fmt)
    if any(r["failed"] for r in reports):
        sys.exit(1)


if __name__ == "__main__":  # pragma: no cover
    main()
