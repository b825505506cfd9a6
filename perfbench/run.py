"""Layered benchmark for padr.

    python3 perfbench/run.py --workload tate-fe --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; padr is imported from ./src.  This
process generates every input from --seed and talks to one fresh worker
process (worker.py) per run, one op at a time.

--trace 0 prints the end-to-end metrics: set-up time (median of several
worker start-ups), throughput, median and tail op latency, and peak
memory.  Times are in reference seconds (speed.py): each stretch of
wall time counts at the speed a fixed probe measured around it, so that
a host that runs everything slower for a while does not show as a
slower padr; the wall times are in the stamp line.  --trace 1 runs the
first round twice, in an untraced and a traced worker, and prints the
per-layer metrics, the tracing overhead and the bypass check.  Every
op's output is checked (check.py); the last line of stdout is one JSON
object {correct, attempted, failed, metrics}.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

import check  # noqa: E402
import layers  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"throughput_ops_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
#: printed with the end-to-end metrics but kept out of the result line.
#: The median and the tail of a workload with few, very unequal ops rest
#: on one or two ops, and carry the speed probe's error for those ops
#: undiluted; fail_ratio is 0 on every workload, and a gate must not be.
REPORTED = {"op_p50_ms": "ms", "op_tail_ms": "ms", "fail_ratio": "1"}
#: worker start-ups per run whose median is setup_s; cli-stream fills its
#: Gauss cache in every start-up (3 s), so it takes fewer.
SETUPS = {"cli-stream": 3}
SETUPS_DEFAULT = 9


class WorkerProcess:
    """One worker.py process; its set-up runs from launch to "ready"."""

    def __init__(self, workload, workdir, trace, sample=False):
        cfg = {"workload": workload.name, "src": SRC, "workdir": workdir,
               "trace": trace, "prepare": workload.prepare,
               "sample": sample,
               "spans_path": os.path.join(WORK, f"{workload.name}.spans")}
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py")], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            self._send(cfg)
            if not self._recv().get("ready"):
                raise RuntimeError("worker not ready")
        except BaseException:
            self.kill()
            raise
        self.ready = time.perf_counter()
        self.timeline = None

    def _send(self, msg):
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()

    def _recv(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited ({self.proc.wait()})")
        return json.loads(line)

    def round(self, ops):
        self._send({"cmd": "round", "ops": ops})
        return self._recv()["results"]

    def quit(self):
        self._send({"cmd": "quit"})
        out = self._recv()
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.timeline = out["timeline"]
        return out

    def seconds(self, a, b):
        """(wall, reference) seconds of [a, b]; after quit()."""
        return speed.interval(self.timeline, a, b)

    def setup_seconds(self):
        """(wall, reference) seconds from launch to ready."""
        return self.seconds(self.launched, self.ready)

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def tail(latencies):
    """Highest percentile with at least ten ops beyond it, as (value,
    percentile, n).  Below 21 ops that percentile is at or under the
    median, so the slowest op is reported instead, as percentile 100."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 21:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def run_rounds(worker, rounds, seconds):
    """Issue whole rounds until `seconds` have passed; returns a list of
    (op/result pairs, seconds) per round."""
    done, elapsed = [], 0.0
    while elapsed < seconds:
        ops = next(rounds)
        t0 = time.perf_counter()
        results = worker.round(ops)
        took = time.perf_counter() - t0
        elapsed += took
        done.append((list(zip(ops, results)), took))
    return done


def judge(pairs):
    verdicts = [check.verdict(op, res) for op, res in pairs]
    failed = sum(v != "ok" for v in verdicts)
    correct = all(v in ("ok", "pole") for v in verdicts)
    return verdicts, failed, correct


def timed_run(workload, seed, seconds, workdir):
    workers = []
    for _ in range(SETUPS.get(workload.name, SETUPS_DEFAULT) - 1):
        w = WorkerProcess(workload, workdir, trace=False, sample=True)
        w.quit()
        workers.append(w)
    worker = WorkerProcess(workload, workdir, trace=False, sample=True)
    try:
        rounds = run_rounds(worker, workload.rounds(seed), seconds)
        fin = worker.quit()
    except BaseException:
        worker.kill()
        raise
    workers.append(worker)
    pairs = [pair for done, _ in rounds for pair in done]
    verdicts, failed, correct = judge(pairs)
    ok = [v == "ok" for v in verdicts]
    walls, refs = zip(*(
        speed.interval(res["timeline"], *res["t"]) if "timeline" in res
        else worker.seconds(*res["t"]) for _, res in pairs))
    ref_ms = [1000.0 * r for r in refs]
    lat = [ms for ms, good in zip(ref_ms, ok) if good]
    tail_ms, tail_pct, n = tail(lat)
    by_kind = {}
    for (op, _), ms, good in zip(pairs, ref_ms, ok):
        if good:
            by_kind.setdefault(op["kind"], []).append(ms)
    setups = [w.setup_seconds() for w in workers]
    metrics = {
        "throughput_ops_s": len(lat) / sum(refs),
        "op_p50_ms": statistics.median(lat),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": fin["rss_kb"] / 1024.0,
        "setup_s": statistics.median(ref for _, ref in setups),
        "fail_ratio": failed / len(pairs),
    }
    info = {"ops": len(pairs), "ok_ops": len(lat),
            "round_s": [took for _, took in rounds],
            "wall_throughput_ops_s": len(lat) / sum(walls),
            "wall_over_ref": sum(walls) / sum(refs),
            "probes": len(worker.timeline),
            "tail_percentile": tail_pct, "tail_samples": n,
            "setup_samples_s": [wall for wall, _ in setups],
            "setup_samples_ref_s": [ref for _, ref in setups],
            "verdicts": Counter(verdicts),
            "p50_ms_by_kind": {k: statistics.median(v)
                               for k, v in sorted(by_kind.items())}}
    return correct, len(pairs), failed, metrics, info


def traced_run(workload, seed, workdir):
    """The first round, untraced and then traced, in fresh workers."""
    ops = next(workload.rounds(seed))
    walls = []
    for trace in (False, True):
        worker = WorkerProcess(workload, workdir, trace=trace)
        try:
            t0 = time.perf_counter()
            results = worker.round(ops)
            walls.append(time.perf_counter() - t0)
            fin = worker.quit()
        except BaseException:
            worker.kill()
            raise
    pairs = list(zip(ops, results))
    verdicts, failed, correct = judge(pairs)
    values = layers.metrics(fin["trace"], walls[1], len(pairs),
                            walls[1] - walls[0])
    problems = layers.bypass_problems(workload.name, values)
    by_layer, _ = layers.self_seconds(fin["trace"])
    info = {"ops": len(pairs), "untraced_s": walls[0], "traced_s": walls[1],
            "trace_overhead_s": walls[1] - walls[0],
            "self_s": by_layer, "bypass_check": problems or "ok",
            "verdicts": Counter(verdicts)}
    return correct and not problems, len(pairs), failed, values, info


def stamp(workload, seed, trace, info):
    """Where and on what the numbers were measured."""
    return {"workload": workload, "seed": seed, "trace": trace,
            "commit": _commit(), "source_sha256": _source_digest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": _cpu_model(), **info}


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest():
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "padr"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_one(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if trace:
            result = traced_run(workload, seed, workdir)
        else:
            result = timed_run(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct, attempted, failed, metrics, info = result
    units = layers.units() if trace else END_TO_END
    print(f"== {name} seed={seed} trace={int(trace)}")
    for key, unit in (units if trace else {**units, **REPORTED}).items():
        print(f"  {key:44s} {metrics[key]:>16.6g} {unit}")
    if trace:
        for layer, secs in sorted(info["self_s"].items()):
            print(f"  {layer + '.self_s':44s} {secs:>16.6g} s")
    print("stamp " + json.dumps(stamp(name, seed, trace, info)))
    out = {key: {"value": metrics[key], "unit": unit}
           for key, unit in units.items()}
    return correct, attempted, failed, out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "padr", "__init__.py")):
        print(f"perfbench: no padr sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        c, a, f, m = run_one(name, args.seed, args.seconds, bool(args.trace))
        correct, attempted, failed = correct and c, attempted + a, failed + f
        prefix = "" if len(names) == 1 else name + "."
        metrics.update({prefix + k: v for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
