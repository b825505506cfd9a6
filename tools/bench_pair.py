"""Paired benchmark runs of a parent commit and the working tree.

    python3 tools/bench_pair.py --parent HEAD --pairs 10 --out BENCH_7.json

Exports the parent revision with ``git archive`` into a temporary
directory, removed at exit (no worktree is registered), and runs the unmodified ``perfbench/run.py``
of each side, alternately, for every workload of ``BENCHMARK.json``.  Pair i
runs both sides with seed ``--seed + i``; even pairs start with the parent,
odd pairs with the working tree.  One traced run (``--trace 1``) per side
and workload at seed 7 gives the per-layer counts and the bypass check, so
that every benchmark file traces the same inputs.  The traced runs come
before the pairs, so a traced run that fails stops the script within
minutes, before the long paired runs.  At least 10 pairs are run: fewer
cannot show a gain on nine of ten pairs.

The output file holds, per workload and end-to-end metric, each side's
runs, median and quartiles, and the number of pairs the working tree won
(ties count for neither side); per workload, the failed ops of every run;
and the traced per-layer metrics and bypass check of both sides.  The two
sides must carry the same ``perfbench/`` and ``BENCHMARK.json``, or the
script stops.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACE_SEED = 7
MIN_PAIRS = 10


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout


def export(rev, dest):
    """The tree of rev, unpacked into dest."""
    with tempfile.TemporaryFile() as fh:
        subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                       stdout=fh, check=True)
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            tar.extractall(dest, **({"filter": "data"}
                                    if hasattr(tarfile, "data_filter") else {}))


def run(tree, workload, seed, seconds, trace):
    """The result line of one perfbench/run.py process in tree; a traced
    run adds the bypass check of its stamp line as "bypass_check"."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    res = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} failed:\n"
                           f"{res.stdout[-2000:]}{res.stderr[-2000:]}")
    out = json.loads(lines[-1])
    if trace:
        out["bypass_check"] = bypass_check(lines)
    return out


def benchmark_differs(rev, paths):
    """Whether paths differ between rev and the working tree, committed or
    not."""
    return bool(git("status", "--porcelain", "--", *paths).strip()) or \
        subprocess.run(["git", "-C", ROOT, "diff", "--quiet", rev,
                        "--", *paths]).returncode != 0


def bypass_check(lines):
    """The bypass check of the last stamp line among run.py's output lines:
    "ok", or the list of predicted counts that did not hold."""
    stamps = [line for line in lines if line.startswith("stamp ")]
    if not stamps:
        raise RuntimeError("a traced run printed no stamp line")
    return json.loads(stamps[-1][len("stamp "):])["bypass_check"]


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "runs": values}


def summarize(parent, change, better):
    """Each side's spread and the number of pairs (parent[i], change[i])
    the change won; better is "higher" or "lower", and a tie counts for
    neither side."""
    sign = 1 if better == "higher" else -1
    return {"parent": spread(parent), "change": spread(change),
            "change_wins": sum(sign * (c - p) > 0
                               for p, c in zip(parent, change))}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD",
                    help="git revision to compare the working tree with")
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS)
    ap.add_argument("--seed", type=int, default=1,
                    help="seed of the first pair")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        ap.error(f"--pairs must be at least {MIN_PAIRS}")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    paths = bench["paths"] + ["BENCHMARK.json"]
    if benchmark_differs(args.parent, paths):
        sys.exit(f"{' '.join(paths)} differ from {args.parent}: "
                 "the sides would not run the same benchmark")
    parent_sha = git("rev-parse", args.parent).strip()
    # removed with its contents when the script exits
    workdir = tempfile.TemporaryDirectory(prefix="bench_pair_")
    parent_tree = workdir.name
    export(parent_sha, parent_tree)
    trees = {"parent": parent_tree, "change": ROOT}
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}

    traced = {w: {side: run(tree, w, TRACE_SEED, seconds, True)
                  for side, tree in trees.items()} for w in workloads}
    runs = {w: {side: [] for side in trees} for w in workloads}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in workloads:
            for side in order:
                res = run(trees[side], w, seed, seconds, False)
                runs[w][side].append(res)
                print(f"pair {i} {w} {side}: " + json.dumps(
                    {m: res["metrics"][m]["value"] for m in metrics}),
                    flush=True)

    out = {"parent": parent_sha,
           "change": "working tree on " + git("rev-parse", "HEAD").strip(),
           "command": " ".join(["python3", "tools/bench_pair.py"]
                               + (argv if argv is not None else sys.argv[1:])),
           "pairs": args.pairs, "seeds": [args.seed + i
                                          for i in range(args.pairs)],
           "run_seconds": seconds,
           "host": {"python": platform.python_version(),
                    "nproc": os.cpu_count(), "machine": platform.machine()},
           "workloads": {}, "trace": {"seed": TRACE_SEED}}
    for w in workloads:
        entry = {}
        for m, better in metrics.items():
            vals = {side: [r["metrics"][m]["value"] for r in runs[w][side]]
                    for side in trees}
            entry[m] = {"better": better, "unit": runs[w]["change"][0]
                        ["metrics"][m]["unit"],
                        **summarize(vals["parent"], vals["change"], better)}
        entry["failed_ops"] = {side: [r["failed"] for r in runs[w][side]]
                               for side in trees}
        out["workloads"][w] = entry
    for w in workloads:
        out["trace"][w] = {}
        for side, res in traced[w].items():
            out["trace"][w][side] = {k: v["value"]
                                     for k, v in res["metrics"].items()}
            out["trace"][w][side]["bypass_check"] = res["bypass_check"]
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
