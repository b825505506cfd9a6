"""The output checker accepts padr's real output and catches perturbed
references, perturbed outputs and failed identities."""

import copy
import json

import pytest

import check
import worker

OP = {"p": 7, "weights": "-1,0,2", "kp": "-1,2",
      "pi": ["2", "1/3", "3"], "sigma": ["5/7", "1/2"]}
POLE = {"p": 5, "weights": "-1,0,2", "kp": "-1,2",
        "pi": ["5", "1", "1"], "sigma": ["1", "1"]}


def interp(op):
    worker._import_padr(check.os.path.join(
        check.os.path.dirname(check.HERE), "src"))
    try:
        code, text = worker._run_cli(worker.interp_args(op))
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"code": code, "stdout": text}


def edit(result, **fields):
    report = json.loads(result["stdout"])
    report.update(fields)
    return {"code": 0, "stdout": json.dumps(report)}


@pytest.fixture(scope="module")
def good():
    return interp(OP)


def test_real_output_passes(good):
    assert check.check_interp(OP, good) == "ok"


def test_perturbed_reference_is_caught(good):
    refs = copy.deepcopy(check.arch_refs())
    key = f"{OP['weights']}|{OP['kp']}"
    assert check.check_interp(OP, good, refs) == "ok"
    refs[key]["Gamma_VQ"] = refs[key]["Gamma_VQ"].replace("1/", "3/", 1)
    assert check.check_interp(OP, good, refs) == "wrong"
    refs = copy.deepcopy(check.arch_refs())
    refs[key]["ggp"] = "compatible" if refs[key]["ggp"] != "compatible" \
        else "incompatible"
    assert check.check_interp(OP, good, refs) == "wrong"


def test_perturbed_local_factors_are_caught(good):
    report = json.loads(good["stdout"])
    assert check.check_interp(
        OP, edit(good, E_p=report["E_p"] + "+1/1000000000")) == "wrong"
    assert check.check_interp(
        OP, edit(good, E_adjoint=report["E_adjoint"] + "+1")) == "wrong"
    assert check.check_interp(
        dict(OP, sigma=["5/7", "1/3"]), good) == "wrong"


def test_values_are_compared_not_strings(good):
    # the same E_p written at twice the conductor is still correct
    report = json.loads(good["stdout"])
    doubled = check.re.sub(
        r"z(\d+)\^(\d+)",
        lambda m: f"z{2 * int(m.group(1))}^{2 * int(m.group(2))}",
        report["E_p"])
    assert doubled != report["E_p"]
    assert check.check_interp(OP, edit(good, E_p=doubled)) == "ok"
    z4, _ = check.scalar_value("z4^1")
    i, _ = check.scalar_value("i")
    assert check.close(z4, i)


def test_pole_configuration_is_recorded_as_pole():
    want = check.interp_expected(POLE)
    assert want["E_adjoint"] is None
    crashed = interp(POLE)
    assert check.check_interp(POLE, crashed) == "pole"
    # a later fix that reports the pole instead of crashing succeeds ...
    from padr import plocal
    chars = [plocal.PadicChar.unramified(5, u) for u in (5, 1, 1, 1, 1)]
    e_p = plocal.euler_modified(chars[:3], chars[3:]).serialize()
    fixed = edit(interp(dict(POLE, sigma=["2", "1"])), E_p=e_p)
    assert check.check_interp(POLE, edit(fixed, E_adjoint="pole")) == "ok"
    assert check.check_interp(POLE, edit(fixed, E_adjoint=None)) == "ok"
    # ... but a number in place of the pole is wrong
    assert check.check_interp(POLE, edit(fixed, E_adjoint="3")) == "wrong"


def test_crash_away_from_a_pole_is_an_error():
    assert check.check_interp(OP, {"error": "ZeroDivisionError: x"}) == "error"


def test_scalar_strings():
    mp = check.mpmath
    root2, gr = check.scalar_value("z8^1-z8^3")
    with mp.workdps(check.DIGITS):
        assert check.close(root2, mp.sqrt(2)) and not any(gr.values())
    val, gr = check.scalar_value("(1+2*i+sqrt3)/4 @q:-1")
    with mp.workdps(check.DIGITS):
        assert check.close(val, (1 + 2j + mp.sqrt(3)) / 4)
    assert gr["q"] == -1
    val, gr = check.scalar_value("1/8*pi^-10")
    assert check.close(val, check.mpmath.mpf(1) / 8) and gr["pi"] == -10


def test_gauss_reports():
    names = check.gauss_identity_names(11)
    good = {"suite": "gauss", "failed": 0, "passed": len(names),
            "identities": [{"name": n, "ok": True} for n in names]}
    res = {"code": 0, "stdout": json.dumps(good)}
    assert check.check_gauss({"p": 11}, res) == "ok"
    bad = copy.deepcopy(good)
    bad["identities"][3]["ok"] = False
    assert check.check_gauss({"p": 11},
                             {"code": 0, "stdout": json.dumps(bad)}) == "wrong"
    short = copy.deepcopy(good)
    short["identities"].pop()
    assert check.check_gauss(
        {"p": 11}, {"code": 0, "stdout": json.dumps(short)}) == "wrong"
    assert check.check_gauss({"p": 11}, dict(res, code=1)) == "error"


def test_identities():
    assert check.check_identity({"ok": True}) == "ok"
    assert check.check_identity({"ok": False}) == "wrong"
    assert check.check_identity({"error": "AssertionError: "}) == "error"
