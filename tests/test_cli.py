import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from click.testing import CliRunner

import padr
from padr import chars as pchars, plocal
from padr.chars import PadicChar
from padr.cli import main
from padr.scalar import ExactScalar


def run(*args):
    return CliRunner().invoke(main, list(args))


def run_python(*args, cache_dir=None):
    """python with these arguments, in a subprocess that imports this padr,
    with PADR_CACHE_DIR set to cache_dir (unset when it is None)."""
    src = os.path.dirname(os.path.dirname(padr.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PADR_CACHE_DIR", None)
    if cache_dir is not None:
        env["PADR_CACHE_DIR"] = str(cache_dir)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


class TestVerify:
    def test_gauss_suite_p7(self):
        res = run("verify", "gauss", "--p", "7")
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["suite"] == "gauss"
        assert report["failed"] == 0
        assert len(report["identities"]) == 12

    def test_all_suites_pass(self):
        res = run("verify", "all", "--seed", "1")
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert len(report["suites"]) == 9
        assert all(sub["failed"] == 0 for sub in report["suites"])

    def test_seed_determinism(self):
        a = run("verify", "tate", "--seed", "3")
        b = run("verify", "tate", "--seed", "3")
        assert a.output == b.output
        assert a.exit_code == b.exit_code == 0

    def test_text_format(self):
        res = run("verify", "fourier", "--format", "text")
        assert res.exit_code == 0
        lines = res.output.splitlines()
        assert lines[0].startswith("suite fourier:")
        assert all(l.lstrip().startswith("ok") for l in lines[1:])

    def test_gauss_imports_only_the_layers_it_uses(self):
        # the scalar kernel and the Gauss sums: no LaurentRF, no Tate code
        res = run_python("-c", "import sys\n"
                         "from padr.cli import main\n"
                         "main.main(['verify', 'gauss', '--p', '5'], "
                         "standalone_mode=False)\n"
                         "print(sorted(m for m in sys.modules "
                         "if m.startswith('padr')), file=sys.stderr)")
        assert res.returncode == 0, res.stderr
        loaded = res.stderr.strip().splitlines()[-1]
        assert loaded == str(["padr", "padr.chars", "padr.cli",
                              "padr.scalar"])

    def test_cpr_suite_covers_every_prime_to_31(self):
        res = run("verify", "cpr", "--format", "text")
        assert res.exit_code == 0
        lines = res.output.splitlines()
        assert lines[0] == "suite cpr: 33 passed, 0 failed"
        primes = {l.split(" p=")[1].split()[0] for l in lines[1:]}
        assert primes == {str(p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23,
                                           29, 31)}

    def test_unknown_suite_usage_error(self):
        res = run("verify", "nope")
        assert res.exit_code == 2

    def test_truncated_gauss_cache_is_recomputed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PADR_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(pchars, "_GAUSS_MEMO", None)
        cache = tmp_path / "gauss_sums.json"
        cache.write_text('{"7_1_1": "1*z42^')
        res = run("verify", "gauss", "--p", "7")
        assert res.exit_code == 0
        assert json.loads(res.output)["failed"] == 0
        # rewritten whole, by rename, with no temporary file left behind
        assert json.loads(cache.read_text())
        assert [f.name for f in tmp_path.iterdir()] == ["gauss_sums.json"]


class TestGoldenOutputs:
    """The default output for a fixed seed is byte-identical across
    refactors: the md5 of each command's output is pinned."""

    @pytest.mark.parametrize("args, digest", [
        (("verify", "all", "--seed", "1", "--format", "json"),
         "43292e3a01e95e5ebc8d3e14f0978cbc"),
        (("verify", "thm81", "--p", "7", "--ell", "3", "--format", "json"),
         "fd04793a47f8c66ca35c85454ec54b1c"),
        (("verify", "measures", "--p", "5", "--seed", "2"),
         "9c81f70876288c1b3e89dc882e91f5b5"),
        (("interp",), "765c49aaa5945560ff0f78dd0c328502"),
        (("verify", "thm81", "--p", "11", "--ell", "2", "--format", "json"),
         "b68d0beb345c961a9978d1bc5cde3f01"),
    ], ids=["verify-all", "verify-thm81", "verify-measures", "interp",
            "verify-thm81-p11"])
    def test_output_md5(self, args, digest):
        res = run(*args)
        assert res.exit_code == 0
        assert hashlib.md5(res.output.encode()).hexdigest() == digest

    def test_gauss_cache_md5(self, tmp_path, monkeypatch):
        # the cache file shows each Gauss sum in the field it was built in
        monkeypatch.setenv("PADR_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(pchars, "_GAUSS_MEMO", None)
        monkeypatch.setattr(pchars, "_GAUSS_DIRTY", False)
        for p in (11, 13, 17, 19, 23):
            assert run("verify", "gauss", "--p", str(p)).exit_code == 0
        data = (tmp_path / "gauss_sums.json").read_bytes()
        assert hashlib.md5(data).hexdigest() == \
            "e6f44341695ecf9ed66fec1aea86904a"


class TestGaussCacheWrites:
    """New Gauss sums reach PADR_CACHE_DIR in one write per command."""

    @pytest.fixture
    def stores(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PADR_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(pchars, "_GAUSS_MEMO", None)
        monkeypatch.setattr(pchars, "_GAUSS_DIRTY", False)
        calls = []
        store = pchars._gauss_cache_store

        def counted():
            calls.append(1)
            store()
        monkeypatch.setattr(pchars, "_gauss_cache_store", counted)
        return calls

    def test_cold_then_warm(self, stores, tmp_path, monkeypatch):
        cold = run("verify", "gauss", "--p", "11")
        assert cold.exit_code == 0
        assert len(stores) == 1
        cache = tmp_path / "gauss_sums.json"
        written = cache.read_bytes()
        assert [f.name for f in tmp_path.iterdir()] == ["gauss_sums.json"]
        # a new process on the filled directory reads every sum it needs
        monkeypatch.setattr(pchars, "_GAUSS_MEMO", None)
        warm = run("verify", "gauss", "--p", "11")
        assert warm.output == cold.output
        assert len(stores) == 1
        assert cache.read_bytes() == written

    def test_verify_all_writes_once(self, stores):
        assert run("verify", "all", "--seed", "1").exit_code == 0
        assert len(stores) == 1

    def test_written_when_an_identity_fails(self, stores, tmp_path):
        # -g passes the |g|^2 = q check of a cached entry, so it is used,
        # and the product identity of e = 1 then fails
        wrong = -pchars._gauss_sum_at(PadicChar(7, 1, 1, 1), 1)
        cache = tmp_path / "gauss_sums.json"
        cache.write_text(json.dumps({"7_1_1": wrong.serialize()}))
        assert run("verify", "gauss", "--p", "7").exit_code == 1
        assert len(stores) == 1
        assert len(json.loads(cache.read_text())) > 1

    @pytest.mark.parametrize("entry", ["5", "1*z42^1", "0", "5 @q:1"])
    def test_entry_that_is_no_gauss_sum_is_recomputed(self, stores, tmp_path,
                                                     entry):
        # each entry parses, but its product with its conjugate is not 7
        cache = tmp_path / "gauss_sums.json"
        cache.write_text(json.dumps({"7_1_1": entry}))
        res = run("verify", "gauss", "--p", "7")
        assert res.exit_code == 0
        assert json.loads(res.output)["failed"] == 0
        assert len(stores) == 1
        want = pchars._gauss_sum_at(PadicChar(7, 1, 1, 1), 1).serialize()
        assert json.loads(cache.read_text())["7_1_1"] == want

    def test_entry_under_a_bad_key_is_dropped(self, stores, tmp_path):
        # a key names p_c_e; 7^99999999 is never built to check "7"
        cache = tmp_path / "gauss_sums.json"
        cache.write_text(json.dumps({"foo": "1", "7_1": "1",
                                     "7_99999999_1": "7", "0_-1_1": "1",
                                     "7_-1_1": "1", "1_1_1": "1"}))
        assert run("verify", "gauss", "--p", "7").exit_code == 0
        written = json.loads(cache.read_text())
        assert written and all(k.startswith("7_1_") for k in written)

    def test_only_sums_read_from_the_file_are_checked(self, stores, tmp_path,
                                                      monkeypatch):
        calls = []
        galois = ExactScalar.galois

        def counted(self, m):
            calls.append(m)
            return galois(self, m)
        monkeypatch.setattr(ExactScalar, "galois", counted)
        assert run("verify", "gauss", "--p", "7").exit_code == 0
        assert calls == []
        # a new process reads 5 sums: one check, galois(-1), per sum
        monkeypatch.setattr(pchars, "_GAUSS_MEMO", None)
        assert run("verify", "gauss", "--p", "7").exit_code == 0
        assert calls == [-1] * 5

    def test_entry_not_in_serialize_form_is_recomputed(self, stores, tmp_path):
        # parse reads only serialize's form, so "(<value>)/1" is unreadable
        want = pchars._gauss_sum_at(PadicChar(7, 1, 1, 1), 1).serialize()
        cache = tmp_path / "gauss_sums.json"
        cache.write_text(json.dumps({"7_1_1": f"({want})/1"}))
        res = run("verify", "gauss", "--p", "7")
        assert res.exit_code == 0
        assert json.loads(res.output)["failed"] == 0
        assert len(stores) == 1
        entries = json.loads(cache.read_text())
        assert entries["7_1_1"] == want
        assert all(ExactScalar.parse(v).serialize() == v
                   for v in entries.values())

    def test_truncated_entry_at_another_p_is_dropped(self, stores, tmp_path,
                                                      monkeypatch):
        cache = tmp_path / "gauss_sums.json"
        assert run("verify", "gauss", "--p", "5").exit_code == 0
        entries = json.loads(cache.read_text())
        entries["5_1_1"] = "1*z20^"
        cache.write_text(json.dumps(entries))
        monkeypatch.setattr(pchars, "_GAUSS_MEMO", None)
        res = run("verify", "gauss", "--p", "7")
        assert res.exit_code == 0
        assert json.loads(res.output)["failed"] == 0
        assert len(stores) == 2
        # the new sums are added, the unreadable entry is dropped and every
        # other entry is written back as it was
        written = json.loads(cache.read_text())
        del entries["5_1_1"]
        assert {k: v for k, v in written.items() if k.startswith("5_")} \
            == entries
        assert any(k.startswith("7_") for k in written)

    def test_warm_run_parses_only_the_sums_it_uses(self, stores, tmp_path,
                                                   monkeypatch):
        for p in ("5", "7"):
            monkeypatch.setattr(pchars, "_GAUSS_MEMO", None)
            assert run("verify", "gauss", "--p", p).exit_code == 0
        cache = tmp_path / "gauss_sums.json"
        written = cache.read_bytes()
        parsed = []
        parse = ExactScalar.parse

        def counted(s):
            parsed.append(s)
            return parse(s)
        monkeypatch.setattr(ExactScalar, "parse", staticmethod(counted))
        monkeypatch.setattr(pchars, "_GAUSS_MEMO", None)
        assert run("verify", "gauss", "--p", "7").exit_code == 0
        entries = json.loads(written)
        assert sorted(parsed) == sorted(v for k, v in entries.items()
                                        if k.startswith("7_"))
        assert len(stores) == 2 and cache.read_bytes() == written

    @pytest.mark.parametrize("make", [
        lambda root: (root / "cache").write_text("a file"),
        lambda root: (root / "cache" / "gauss_sums.json").mkdir(parents=True),
    ], ids=["dir-is-a-file", "cache-file-is-a-dir"])
    @pytest.mark.parametrize("suite", ["gauss", "tate"])
    def test_unwritable_cache_keeps_the_verdict(self, tmp_path, make, suite):
        make(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        args = ("-m", "padr.cli", "verify", suite, "--p", "5")
        res = run_python(*args, cache_dir=tmp_path / "cache")
        assert res.returncode == 0, res.stderr
        assert res.stdout == run_python(*args).stdout
        assert res.stderr.startswith("padr: Gauss sums not cached: ")
        assert len(res.stderr.splitlines()) == 1
        # nothing written, and no temporary file left behind
        assert sorted(tmp_path.rglob("*")) == before

    def test_interp_and_usage_errors_write_nothing(self, stores, tmp_path):
        assert run("interp").exit_code == 0
        assert run("verify", "gauss", "--p", "9").exit_code == 2
        assert stores == [] and not list(tmp_path.iterdir())


class TestUsageErrors:
    @pytest.mark.parametrize("args, message", [
        (["interp", "--p", "4"], "--p must be a prime, got 4"),
        (["interp", "--p", "9"], "--p must be a prime, got 9"),
        (["verify", "gauss", "--p", "2"], "odd prime"),
        (["verify", "thm81", "--p", "2"], "odd prime"),
        (["verify", "all", "--p", "2"], "odd prime"),
        (["verify", "gauss", "--p", "9"], "--p must be a prime, got 9"),
        (["verify", "thm81", "--ell", "0"], "--ell must be at least 2"),
        (["verify", "thm81", "--ell", "1"], "--ell must be at least 2"),
        (["verify", "measures", "--prec-T", "0"], "--prec-T must be at least"),
        (["verify", "measures", "--prec-T", "1"], "--prec-T must be at least"),
        (["verify", "measures", "--prec-T", "2"], "--prec-T must be at least"),
        (["interp", "--weights=--1,0,2"], "--weights must be 3 comma-"),
        (["interp", "--weights=\u00b2,0,2"], "--weights must be 3 comma-"),
        (["interp", "--kp=-1,--2"], "--kp must be 2 comma-"),
        # Fraction would build 10^(10^7) whole, as a number or as a string
        (["interp", "--satake", '{"pi": [1e10000000, 1, 1], "sigma": [3, 2]}'],
         "exponent beyond 4300"),
        (["interp", "--satake",
          '{"pi": ["1e-10000000", 1, 1], "sigma": [3, 2]}'],
         "exponent beyond 4300"),
        # E_p of a 3001-digit Satake value has integers beyond the 4300
        # digits that Python writes as a string
        (["interp", "--p", "7", "--weights", "0,0,0", "--kp", "0,0",
          "--satake", '{"pi": ["1' + "0" * 3000 + '", "1", "1"], '
                      '"sigma": ["3", "1/2"]}'],
         "--satake values are too large"),
        (["interp", "--satake",
          '{"pi": [1, 2, 3], "sigma": ["1/' + "7" * 3000 + '", 2]}'],
         "--satake values are too large"),
        # 4 B(pi) + 6 B(sigma) + 6 bits(p) + 32 = 14288 bits, 4 too many
        (["interp", "--p", "7", "--satake",
          '{"pi": [3, 3, 3], "sigma": ["' + str(2 ** 2367 + 1) + '", 1]}'],
         "E_p would need 14288 bits"),
    ])
    def test_exit_2_with_message(self, args, message):
        res = run(*args)
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        last = res.output.splitlines()[-1]
        assert last.startswith("Error: ") and message in last

    @pytest.mark.parametrize("args", [
        ["interp", "--p", "2"],
        ["verify", "fourier", "--p", "2"],
        ["verify", "thm81", "--ell", "2"],
        ["verify", "measures", "--prec-T", "3"],
    ])
    def test_boundary_values_run(self, args):
        assert run(*args).exit_code == 0


class TestInterp:
    def test_default_report(self):
        res = run("interp")
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["p"] == 5
        assert report["E_inf"] == "1"
        assert report["m_Q"] == 0
        assert report["Gamma_VQ"] == "1/8*pi^-10"
        assert report["criticality"] == {"x_critical": True,
                                         "y_critical": True}
        # lam2 = lam3 = -1 tie, so the branching test does not apply
        assert report["ggp"] == "degenerate"
        pi = tuple(PadicChar.unramified(5, u) for u in (2, 1, 3))
        sigma = (PadicChar.unramified(5, 5),
                 PadicChar.unramified(5, Fraction(1, 2)))
        assert report["E_p"] == plocal.euler_modified(pi, sigma).serialize()
        assert report["E_adjoint"] == \
            plocal.adjoint_modified(sigma).serialize()

    def test_satake_override(self):
        data = json.dumps({"pi": ["3", "1", "2"], "sigma": ["7", "1/3"]})
        res = run("interp", "--p", "7", "--satake", data)
        assert res.exit_code == 0
        report = json.loads(res.output)
        pi = tuple(PadicChar.unramified(7, u) for u in (3, 1, 2))
        sigma = (PadicChar.unramified(7, 7),
                 PadicChar.unramified(7, Fraction(1, 3)))
        assert report["E_p"] == plocal.euler_modified(pi, sigma).serialize()

    def test_malformed_satake_scalar(self):
        data = json.dumps({"pi": ["1//2", "1", "3"], "sigma": ["5", "1/2"]})
        res = run("interp", "--satake", data)
        assert res.exit_code == 2

    @pytest.mark.parametrize("data", [
        {"pi": ["1"]},
        {"sigma": ["5", "1/2"]},
        {"pi": ["2", "1", "3"]},
        {"pi": ["2", "1", "3", "4"], "sigma": ["5", "1/2"]},
        {"pi": ["2", "1", "3"], "sigma": ["5"]},
        {"pi": "213", "sigma": ["5", "1/2"]},
        ["2", "1", "3"],
    ])
    def test_malformed_satake_shape(self, data):
        res = run("interp", "--satake", json.dumps(data))
        assert res.exit_code == 2
        assert "--satake" in res.output

    @pytest.mark.parametrize("data", [
        {"pi": ["2", "1", "3"], "sigma": ["0", "1"]},
        {"pi": ["2", "0/7", "3"], "sigma": ["5", "1/2"]},
    ])
    def test_zero_satake_value_usage_error(self, data):
        res = run("interp", "--satake", json.dumps(data))
        assert res.exit_code == 2
        assert "non-zero" in res.output

    @pytest.mark.parametrize("sigma", [["1", "1"], ["5", "1"], ["1/5", "1"]])
    def test_pole_is_reported(self, sigma):
        data = json.dumps({"pi": ["5", "1", "1"], "sigma": sigma})
        res = run("interp", "--p", "5", "--satake", data)
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["E_adjoint"] == "pole"
        pi = tuple(PadicChar.unramified(5, u) for u in (5, 1, 1))
        chars = tuple(PadicChar.unramified(5, Fraction(u)) for u in sigma)
        assert report["E_p"] == plocal.euler_modified(pi, chars).serialize()

    @pytest.mark.parametrize("inline", [True, False], ids=["string", "file"])
    def test_json_numbers_are_read_exactly(self, tmp_path, inline):
        # a float would round 12345678901234567891.5 to a nearby integer
        def e_p(text):
            if not inline:
                path = tmp_path / "satake.json"
                path.write_text(text)
                text = str(path)
            res = run("interp", "--p", "7", "--satake", text)
            assert res.exit_code == 0, res.output
            return json.loads(res.output)["E_p"]

        exact = e_p('{"pi": ["24691357802469135783/2", "1", "1"], '
                    '"sigma": ["3", "1/2"]}')
        assert e_p('{"pi": [12345678901234567891.5, "1", "1"], '
                   '"sigma": [3, 0.5]}') == exact
        # 1e-400 is a non-zero rational, though no float holds it
        tiny = e_p('{"pi": [1e-400, "1", "1"], "sigma": ["3", "1/2"]}')
        pi = (PadicChar.unramified(7, Fraction(1, 10 ** 400)),
              PadicChar.unramified(7, 1), PadicChar.unramified(7, 1))
        sigma = (PadicChar.unramified(7, 3),
                 PadicChar.unramified(7, Fraction(1, 2)))
        assert tiny == plocal.euler_modified(pi, sigma).serialize()

    @pytest.mark.parametrize("pi, sigma", [
        # B(pi) = 1995 bits: large for pi, but sigma leaves room
        (["1e-200", "1e-200", "1e-200"], ["3", "1/2"]),
        # 4 B(pi) + 6 B(sigma) + 6 bits(p) + 32 = 14284 bits, the most
        (["1", "3", "3"], [str(2 ** 2367 + 1), "1"]),
    ], ids=["large-pi", "bound-edge"])
    def test_satake_values_within_the_size_bound(self, pi, sigma):
        text = json.dumps({"pi": pi, "sigma": sigma})
        res = run("interp", "--p", "7", "--satake", text)
        assert res.exit_code == 0, res.output
        chars = [tuple(PadicChar.unramified(7, Fraction(u)) for u in vals)
                 for vals in (pi, sigma)]
        assert json.loads(res.output)["E_p"] == \
            plocal.euler_modified(*chars).serialize()

    @pytest.mark.parametrize("content", [b'{"pi": [1, 2', b"\xff\xfe"],
                             ids=["bad-json", "not-utf8"])
    def test_unreadable_satake_file(self, tmp_path, content):
        path = tmp_path / "satake.json"
        path.write_bytes(content)
        res = run("interp", "--satake", str(path))
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        assert res.output.splitlines()[-1].startswith("Error: bad --satake")

    def test_malformed_weights(self):
        res = run("interp", "--weights", "1,2")
        assert res.exit_code == 2

    def test_noncritical_warns(self):
        res = run("interp", "--weights", "0,0,1", "--kp", "1,1")
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert not report["criticality"]["x_critical"]
        assert "warnings" in report

    def test_text_format(self):
        res = run("interp", "--format", "text")
        assert res.exit_code == 0
        assert "Gamma_VQ: 1/8*pi^-10" in res.output

    @pytest.mark.parametrize("args, code", [
        ([], 0),
        (["--weights", "0,0,1", "--kp", "1,1"], 0),
        (["--weights", "1,0,2"], 2),
    ])
    def test_same_under_dash_O(self, args, code):
        # the arch validators and the ggp degeneracy check are no asserts
        plain = run_python("-m", "padr.cli", "interp", *args)
        opt = run_python("-O", "-m", "padr.cli", "interp", *args)
        assert plain.returncode == opt.returncode == code
        assert (opt.stdout, opt.stderr) == (plain.stdout, plain.stderr)
