"""Output checker: every op's output against an oracle that is not padr.

* tate and nabla ops evaluate an identity; it must hold.
* gauss ops: the `padr verify gauss` process must exit 0 and report
  exactly the expected identities, each ok.
* interp ops: the report is compared by value, never by its string
  form, so a change of basis in the serialisation is not a failure.
  E_p and E_adjoint are recomputed with sympy from the local-factor
  formulas of unramified characters; the archimedean fields are compared
  with the table in references/interp_arch.json, made at the seed commit
  by make_references.py.  Queries at a pole of E_adjoint are recorded as
  poles: a crash there is an expected failure, and a report that states
  the pole instead of a value counts as success.

Every op gets one verdict:
  "ok"        output correct
  "pole"      known pole, the op crashed (failed, but not wrong)
  "error"     the op raised or exited non-zero where it should not
  "wrong"     the op returned an output that disagrees with the oracle
"""

import functools
import json
import os
import re
from fractions import Fraction

import mpmath
import sympy

HERE = os.path.dirname(os.path.abspath(__file__))
ARCH_REFS = os.path.join(HERE, "references", "interp_arch.json")
DIGITS = 60


# ---------------------------------------------------------------------------
# reading padr's exact-scalar strings as numbers
# ---------------------------------------------------------------------------

_TERM = re.compile(r"[+-]?[^+-]+")


def scalar_value(text):
    """Complex value of a serialised exact scalar, to DIGITS digits.

    Accepts rationals, sums of c*zN^k (zN = exp(2 pi i / N)), and
    (sum of c*{i, sqrtD, i*sqrtD})/den; grade suffixes are returned
    separately as (value, {"q": g, "pi": g})."""
    text = text.strip()
    grades = {"q": Fraction(0), "pi": Fraction(0)}
    while "@" in text:
        text, _, tail = text.rpartition("@")
        key, _, val = tail.strip().partition(":")
        grades[key] = Fraction(val)
        text = text.strip()
    m = re.fullmatch(r"(.*)\*pi\^(-?[0-9/]+)", text)
    if m:
        text, grades["pi"] = m.group(1), Fraction(m.group(2))
    den = 1
    m = re.fullmatch(r"\((.*)\)/(\d+)", text)
    if m:
        text, den = m.group(1), int(m.group(2))
    elif text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    with mpmath.workdps(DIGITS):
        total = mpmath.mpc(0)
        for term in _TERM.findall(text.replace(" ", "")):
            total += _term_value(term)
        return total / den, grades


def _term_value(term):
    sign = -1 if term.startswith("-") else 1
    term = term.lstrip("+-")
    value = mpmath.mpc(sign)
    for fac in term.split("*"):
        if fac == "i":
            value *= mpmath.mpc(0, 1)
        elif fac.startswith("sqrt"):
            value *= mpmath.sqrt(int(fac[4:]))
        elif fac.startswith("z"):
            n, _, k = fac[1:].partition("^")
            value *= mpmath.expjpi(mpmath.mpf(2 * int(k or 1)) / int(n))
        else:
            c = Fraction(fac)
            value *= mpmath.mpf(c.numerator) / c.denominator
    return value


def close(a, b):
    with mpmath.workdps(DIGITS):
        return abs(a - b) <= mpmath.mpf(10) ** (20 - DIGITS) * max(1, abs(b))


# ---------------------------------------------------------------------------
# the sympy oracle for the local factors of interp
# ---------------------------------------------------------------------------

class Pole(Exception):
    pass


def _inv(x):
    if x == 0:
        raise Pole
    return 1 / x


def _L(u, x):
    """L(s, chi) = 1/(1 - u X) for chi unramified with chi(p) = u."""
    return _inv(1 - u * x)


def _gamma(u, x, q):
    """gamma(s, chi, psi) = L(1-s, chi^-1)/L(s, chi) for chi unramified,
    as the reduced rational function X(1 - uX)/(X - 1/(uq)) of X."""
    return x * (1 - u * x) * _inv(x - 1 / (u * q))


def euler_factor(p, pi, sigma):
    """E(pi, sigma^dual) at the centre, exact in sympy (X = p^(-1/2))."""
    q = sympy.Integer(p)
    x = 1 / sympy.sqrt(q)
    nu, rho, mu = pi
    mu_p, nu_p = sigma
    inv = sympy.Integer(1)
    for eta in pi:
        for xi in sigma:
            inv *= _L(eta / xi, x) * _L(xi / eta, x)
    for eta in pi:
        inv *= _gamma(eta / mu_p, x, q) * _gamma(nu_p / eta, x, q)
    inv *= _gamma(mu / nu_p, x, q) ** 2
    return _inv(inv)


def adjoint_factor(p, sigma):
    """E(sigma, Ad) for unramified sigma: 1/E = L(1, sigma x sigma^dual)
    gamma(1, mu^-1 nu, psi) / zeta_p(1)^2, all at X = 1/p."""
    q = sympy.Integer(p)
    x = 1 / q
    mu, nu = sigma
    inv = sympy.Integer(1)
    for a in sigma:
        for b in sigma:
            inv *= _inv(1 - a / b * x)
    inv *= _gamma(nu / mu, x, q)
    inv *= (1 - 1 / q) ** 2
    return _inv(inv)


def _rat(s):
    return sympy.Rational(str(Fraction(s)))


@functools.lru_cache(maxsize=1)
def arch_refs():
    with open(ARCH_REFS) as fh:
        return json.load(fh)


def interp_expected(op, refs=None):
    """Expected report fields of one interp query: E_p and E_adjoint as
    sympy numbers (E_adjoint None at a pole) and the stored arch fields."""
    refs = arch_refs() if refs is None else refs
    p = op["p"]
    pi = [_rat(u) for u in op["pi"]]
    sigma = [_rat(u) for u in op["sigma"]]
    try:
        adj = adjoint_factor(p, sigma)
    except Pole:
        adj = None
    return {"E_p": euler_factor(p, pi, sigma), "E_adjoint": adj,
            "arch": refs[f"{op['weights']}|{op['kp']}"]}


def _same_arch(report, want):
    got_root, _ = scalar_value(report["E_inf"])
    want_root, _ = scalar_value(want["E_inf"])
    got_g, got_gr = scalar_value(report["Gamma_VQ"])
    want_g, want_gr = scalar_value(want["Gamma_VQ"])
    return (close(got_root, want_root) and report["m_Q"] == want["m_Q"]
            and close(got_g, want_g) and got_gr == want_gr
            and report["criticality"] == want["criticality"]
            and report["ggp"] == want["ggp"]
            and bool(report.get("warnings")) == want["warnings"])


def _states_pole(report):
    val = report.get("E_adjoint")
    if val is None or "pole" in report:
        return True
    return isinstance(val, str) and "pole" in val.lower()


def check_interp(op, result, refs=None):
    want = interp_expected(op, refs)
    pole = want["E_adjoint"] is None
    if "error" in result or result.get("code"):
        return "pole" if pole else "error"
    try:
        report = json.loads(result["stdout"])
        if not _same_arch(report, want["arch"]) or report["p"] != op["p"]:
            return "wrong"
        e_p, gr = scalar_value(report["E_p"])
        if any(gr.values()) or not close(e_p, sympy.N(want["E_p"], DIGITS)):
            return "wrong"
        if pole:
            return "ok" if _states_pole(report) else "wrong"
        adj, gr = scalar_value(report["E_adjoint"])
        ok = not any(gr.values()) and close(adj, sympy.N(want["E_adjoint"],
                                                         DIGITS))
        return "ok" if ok else "wrong"
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return "wrong"


def gauss_identity_names(p):
    return ([f"product-identity c=1 e={e}" for e in range(1, p - 1)]
            + ["quadratic-square"]
            + [f"twisted-identity y={y}" for y in range(1, p)])


def check_gauss(op, result):
    if "error" in result or result.get("code"):
        return "error"
    try:
        report = json.loads(result["stdout"])
    except ValueError:
        return "wrong"
    names = [i.get("name") for i in report.get("identities", [])]
    good = (report.get("suite") == "gauss" and report.get("failed") == 0
            and names == gauss_identity_names(op["p"])
            and all(i.get("ok") is True for i in report["identities"]))
    return "ok" if good else "wrong"


def check_identity(result):
    if "error" in result:
        return "error"
    return "ok" if result.get("ok") is True else "wrong"


def verdict(op, result):
    if op["kind"] == "interp":
        return check_interp(op, result)
    if op["kind"].startswith("gauss-"):
        return check_gauss(op, result)
    return check_identity(result)
