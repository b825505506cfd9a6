"""tools/bench_pair.py: the per-metric summary and the checks it makes
before any benchmark run."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tools", "bench_pair.py")


@pytest.fixture(scope="module")
def bench_pair():
    spec = importlib.util.spec_from_file_location("bench_pair", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_quartiles_and_wins(bench_pair):
    parent = [10.0, 12.0, 11.0, 13.0, 9.0]
    change = [11.0, 12.0, 10.0, 15.0, 9.5]
    out = bench_pair.summarize(parent, change, "higher")
    assert out["parent"] == {"median": 11.0, "q1": 10.0, "q3": 12.0,
                             "runs": parent}
    assert out["change"] == {"median": 11.0, "q1": 10.0, "q3": 12.0,
                             "runs": change}
    # pairs 0, 3 and 4 are won, pair 1 is a tie, pair 2 is lost
    assert out["change_wins"] == 3
    # lower is better: the tie still counts for neither side
    assert bench_pair.summarize(parent, change, "lower")["change_wins"] == 1


def test_bypass_check_is_read_from_the_stamp_line(bench_pair):
    lines = ["== cli-stream seed=7 trace=1",
             'stamp {"workload": "cli-stream", "bypass_check": "ok"}',
             '{"correct": true, "metrics": {}}']
    assert bench_pair.bypass_check(lines) == "ok"
    bad = ['stamp {"bypass_check": ["plocal.gauss_sum.calls = 0, '
           'predicted > 0"]}']
    assert bench_pair.bypass_check(bad) == [
        "plocal.gauss_sum.calls = 0, predicted > 0"]
    with pytest.raises(RuntimeError):
        bench_pair.bypass_check(['{"correct": true}'])


def test_fewer_than_ten_pairs_exit_2_before_any_run(bench_pair,
                                                    monkeypatch, tmp_path):
    def no_run(*args, **kwargs):
        raise AssertionError("a benchmark run was started")

    monkeypatch.setattr(bench_pair, "run", no_run)
    monkeypatch.setattr(bench_pair, "export", no_run)
    with pytest.raises(SystemExit) as exc:
        bench_pair.main(["--pairs", "9", "--out", str(tmp_path / "b.json")])
    assert exc.value.code == 2
    assert not (tmp_path / "b.json").exists()


def test_a_failing_traced_run_stops_before_any_pair(bench_pair, monkeypatch,
                                                   tmp_path):
    calls = []

    def run(tree, workload, seed, seconds, trace):
        calls.append(trace)
        if trace:
            raise RuntimeError("a traced run failed")
        raise AssertionError("an untraced run was started")

    monkeypatch.setattr(bench_pair, "run", run)
    monkeypatch.setattr(bench_pair, "export", lambda rev, dest: None)
    monkeypatch.setattr(bench_pair, "benchmark_differs", lambda *a: False)
    monkeypatch.setattr(bench_pair, "git", lambda *args: "0" * 40)
    with pytest.raises(RuntimeError, match="a traced run failed"):
        bench_pair.main(["--out", str(tmp_path / "b.json")])
    assert calls == [True]
    assert not (tmp_path / "b.json").exists()


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_refuses_when_the_benchmark_differs_from_the_parent(tmp_path):
    repo = tmp_path / "repo"
    (repo / "tools").mkdir(parents=True)
    (repo / "perfbench").mkdir()
    shutil.copy(SCRIPT, repo / "tools")
    (repo / "BENCHMARK.json").write_text(json.dumps(
        {"paths": ["perfbench"], "run_seconds": 1, "workloads": [],
         "end_to_end": []}))
    bench = repo / "perfbench" / "run.py"
    bench.write_text("raise SystemExit('a benchmark run was started')\n")

    def git(*args):
        subprocess.run(["git", "-C", str(repo), "-c", "user.name=t",
                        "-c", "user.email=t@example.org", *args],
                       check=True, capture_output=True)

    def bench_pair(*args):
        return subprocess.run(
            [sys.executable, str(repo / "tools" / "bench_pair.py"),
             "--out", str(tmp_path / "b.json"), *args],
            capture_output=True, text=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "parent")
    # an uncommitted change under perfbench/
    bench.write_text(bench.read_text() + "# edited\n")
    res = bench_pair("--parent", "HEAD")
    assert res.returncode == 1
    assert "differ from HEAD" in res.stderr
    # a committed one
    git("commit", "-q", "-am", "change")
    res = bench_pair("--parent", "HEAD~1")
    assert res.returncode == 1
    assert "differ from HEAD~1" in res.stderr
    assert not (tmp_path / "b.json").exists()
