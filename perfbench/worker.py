"""Benchmark worker: one fresh process per run, driven by run.py.

Protocol: JSON lines.  run.py sends a config line; the worker imports
padr, does the workload's set-up and answers {"ready": true}.  Then each
{"cmd": "round", "ops": [...]} line is answered with the op results, and
{"cmd": "quit"} with the worker's peak memory, its speed-probe timeline
(speed.py) and, when tracing, the trace summary.  Ops run one at a time
(closed loop, one client).  The probe runs at the worker's start, after
the set-up and after every op and, when run.py asks for it ("sample"),
every 0.1 s.
Each op result carries its start and end instants, and a gauss op, whose
time is spent in a process of its own, that process's probe timeline.

    python3 perfbench/worker.py                       # worker, via run.py
    python3 perfbench/worker.py --traced-cli OUT ARGS # `padr ARGS`, traced
"""

import contextlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import speed

HERE = os.path.dirname(os.path.abspath(__file__))


def _import_padr(src):
    sys.path.insert(0, src)
    global arch, cli, diffops, exactnum, plocal
    from padr import arch, cli, diffops, exactnum, plocal  # noqa: F401


def _peak_rss_kb():
    """Peak resident memory of this process and of its op processes.

    ru_maxrss of a process also counts the image it was forked from
    before exec, so this process reads its own high-water mark instead;
    for the op processes the forked image is this one, already counted."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    own = int(line.split()[1])
    except OSError:
        pass
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids)


def _run_cli(args):
    """padr's CLI entry point, in process; returns (exit code, stdout)."""
    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf):
        try:
            cli.main.main(args, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, buf.getvalue()


def tate_op(op):
    PadicChar, SchwartzFn = plocal.PadicChar, plocal.SchwartzFn
    p = op["p"]
    phi = SchwartzFn(p, [(Fraction(num, den), k, c)
                         for num, den, k, c in op["terms"]])
    chi_spec = op["chi"]
    u = Fraction(*chi_spec["u"])
    chi = PadicChar(p, u, chi_spec["c"], chi_spec["e"]) if chi_spec["c"] \
        else PadicChar.unramified(p, u)
    lhs = plocal.tate_integral(plocal.fourier_transform(phi), chi.inverse()) \
        .subst_X(Fraction(1, p), -1)
    rhs = plocal.tate_factors(chi)[2] * plocal.tate_integral(phi, chi)
    return {"ok": lhs == rhs}


def nabla_op(op):
    if op["kind"] == "cocycle":
        D = op["D"]
        QiD = diffops.QiD
        zr, o = QiD(D), QiD(D, 1)
        gens = [diffops.gen_n(D, QiD(D, 1, 0, 0, 1), Fraction(1, 2)),
                diffops.gen_m(D, QiD(D, 2, 1)),
                diffops.gen_iota(D, [[zr, o], [-o, zr]])]
        i = op["pair"]
        try:
            ok = diffops.automorphy_cocycle(gens[i], gens[(i + 1) % 3], D)
        except AssertionError:
            ok = False
        return {"ok": bool(ok)}
    D = 4
    base = {"1": 1, "2": 2, "i": diffops.qi(D)}
    comps = [diffops.SymPoly(D, {tuple(e): base[c] * m for e, c, m in comp})
             for comp in op["comps"]]
    f = diffops.SectionPoly(D, tuple(op["k"]), comps)
    n = op["n"]
    xs = diffops.drho_restricted(f, n)
    ys = diffops.conjugated_derivative_form(f, n)
    zs = diffops.coefficient_closed_form(f, n)
    ok = len(xs) == len(ys) == len(zs) and all(
        x == y and x == z for x, y, z in zip(xs, ys, zs))
    return {"ok": ok}


def interp_args(op):
    return ["interp", "--p", str(op["p"]), "--weights", op["weights"],
            "--kp", op["kp"],
            "--satake", json.dumps({"pi": op["pi"], "sigma": op["sigma"]})]


class Worker:
    """One workload's set-up and ops, as configured by run.py."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.src = cfg["src"]
        self.workdir = cfg["workdir"]
        self.tracer = None
        self.trace_files = []
        self.cache_dir = None
        self.sampler = speed.Sampler()

    def setup(self):
        # padr keeps no Gauss cache unless asked to; only gauss ops ask
        os.environ.pop("PADR_CACHE_DIR", None)
        _import_padr(self.src)
        fill = self.cfg.get("prepare", {}).get("fill")
        if fill:
            self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.workdir)
            os.environ["PADR_CACHE_DIR"] = self.cache_dir
            for p in fill:
                code, _ = _run_cli(["verify", "gauss", "--p", str(p)])
                if code:
                    raise RuntimeError(f"cache fill failed for p={p}")
            del os.environ["PADR_CACHE_DIR"]
        if self.cfg.get("trace"):
            from spans import Tracer
            import hooks
            self.tracer = Tracer()
            hooks.install(self.tracer)

    def run_op(self, op):
        kind = op["kind"]
        t0 = time.perf_counter()
        try:
            # gauss ops are processes of their own, traced from inside
            if self.tracer is not None and not kind.startswith("gauss-"):
                with self.tracer.span("bench.op"):
                    out = self._op(kind, op)
            else:
                out = self._op(kind, op)
        except Exception as exc:  # an op that raises is a failed op
            out = {"error": f"{type(exc).__name__}: {exc}"}
        t1 = time.perf_counter()
        out["ms"] = (t1 - t0) * 1000.0
        out["t"] = [t0, t1]
        self.sampler.sample()
        return out

    def _op(self, kind, op):
        if kind == "tate":
            return tate_op(op)
        if kind in ("nabla", "cocycle"):
            return nabla_op(op)
        if kind == "interp":
            args = interp_args(op)
            if self.tracer is not None:
                with self.tracer.span("cli"):
                    code, text = _run_cli(args)
            else:
                code, text = _run_cli(args)
            return {"code": code, "stdout": text}
        return self._gauss_process(op["p"], warm=kind == "gauss-warm")

    def _gauss_process(self, p, warm):
        env = dict(os.environ, PYTHONPATH=self.src)
        fresh = None
        if warm:
            env["PADR_CACHE_DIR"] = self.cache_dir
        else:
            fresh = tempfile.mkdtemp(prefix="cache-", dir=self.workdir)
            env["PADR_CACHE_DIR"] = fresh
        args = ["verify", "gauss", "--p", str(p)]
        timeline = None
        if self.tracer is not None:
            fd, out = tempfile.mkstemp(suffix=".json", dir=self.workdir)
            os.close(fd)
            self.trace_files.append(out)
            cmd = [sys.executable, os.path.join(HERE, "worker.py"),
                   "--traced-cli", out] + args
        elif self.cfg.get("sample"):
            timeline = os.path.join(self.workdir, "timeline.json")
            cmd = [sys.executable, os.path.join(HERE, "sampled_cli.py"),
                   timeline] + args
        else:
            cmd = [sys.executable, "-m", "padr.cli"] + args
        try:
            res = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True,
                                 timeout=150)
        finally:
            if fresh is not None:
                shutil.rmtree(fresh, ignore_errors=True)
        out = {"code": res.returncode, "stdout": res.stdout,
               "stderr": res.stderr[-2000:]}
        if timeline is not None:
            with open(timeline) as fh:
                out["timeline"] = json.load(fh)
            os.remove(timeline)
        return out

    def finish(self):
        self.sampler.stop()
        out = {"rss_kb": _peak_rss_kb(), "timeline": self.sampler.timeline}
        if self.tracer is not None:
            from spans import merge_summaries
            parts = [self.tracer.summary()]
            for path in self.trace_files:
                with open(path) as fh:
                    parts.append(json.load(fh))
            out["trace"] = merge_summaries(parts)
            self.tracer.write(self.cfg["spans_path"])
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        return out


def serve():
    proto = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr       # nothing else may write to the protocol

    def send(msg):
        proto.write(json.dumps(msg) + "\n")
        proto.flush()

    worker = Worker(json.loads(sys.stdin.readline()))
    worker.sampler.sample()       # the speed at which the start-up ran
    if worker.cfg.get("sample"):
        worker.sampler.start()
    worker.setup()
    send({"ready": True})
    worker.sampler.sample()
    for line in sys.stdin:
        msg = json.loads(line)
        if msg["cmd"] == "round":
            send({"results": [worker.run_op(op) for op in msg["ops"]]})
        elif msg["cmd"] == "quit":
            send(worker.finish())
            return


def traced_cli(out_path, args):
    """Run `padr ARGS` with every hook installed; write the summary."""
    from spans import Tracer
    import hooks
    from padr import cli as padr_cli
    tracer = Tracer()
    hooks.install(tracer)
    code = 0
    try:
        with tracer.span("cli"):
            padr_cli.main.main(args, standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        with open(out_path, "w") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    if len(sys.argv) > 2 and sys.argv[1] == "--traced-cli":
        sys.exit(traced_cli(sys.argv[2], sys.argv[3:]))
    serve()
