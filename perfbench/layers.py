"""Per-layer metrics of a traced run, and the bypass check.

Layer times are reported as a share (%) of the traced ops' wall time:
a layer a workload bypasses then reads 0 by construction, and the share
still shows which layer an optimisation moved.  The absolute self
seconds are printed beside them by run.py.
"""

from hooks import layer_of

CALLS = [
    ("exactnum.scalar.add.calls", "exactnum.scalar.add"),
    ("exactnum.scalar.mul.calls", "exactnum.scalar.mul"),
    ("exactnum.scalar.inverse.calls", "exactnum.scalar.inverse"),
    ("exactnum.scalar.eq.calls", "exactnum.scalar.eq"),
    ("exactnum.scalar.parse.calls", "exactnum.scalar.parse"),
    ("exactnum.scalar.serialize.calls", "exactnum.scalar.serialize"),
    ("exactnum.laurent.new.calls", "exactnum.laurent.new"),
    ("plocal.schwartz.new.calls", "plocal.schwartz.new"),
    ("plocal.gauss_sum.calls", "plocal.gauss_sum"),
    ("plocal.tate_factors.calls", "plocal.tate_factors"),
    ("diffops.rf.new.calls", "diffops.rf.new"),
]
COUNTS = [
    ("diffops.qid.mul.calls", "diffops.qid.mul"),
    ("diffops.qid.inverse.calls", "diffops.qid.inverse"),
    ("plocal.gauss_cache.bytes", "plocal.gauss_cache.bytes"),
]
MAXIMA = [
    ("exactnum.scalar.max_conductor", "N"),
    ("exactnum.scalar.max_coeff_bits", "bits"),
]
#: self-time shares: metric prefix -> layer, or span name for one op
SHARES = [
    ("exactnum.scalar", "layer"),
    ("exactnum.scalar.parse", "span"),
    ("exactnum.scalar.serialize", "span"),
    ("exactnum.laurent", "layer"),
    ("plocal.schwartz", "layer"),
    ("plocal.fourier_transform", "layer"),
    ("plocal.tate_integral", "layer"),
    ("plocal.gauss_sum", "layer"),
    ("plocal.euler_modified", "layer"),
    ("plocal.adjoint_modified", "layer"),
    ("diffops.drho_n", "layer"),
    ("diffops.conjugated_derivative_form", "layer"),
    ("diffops.coefficient_closed_form", "layer"),
    ("diffops.automorphy_cocycle", "layer"),
    ("diffops.rf", "layer"),
    ("arch", "layer"),
    ("cli", "layer"),
]


def units():
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    out = {name: "count" for name, _ in CALLS}
    out.update({name: ("bytes" if name.endswith("bytes") else "count")
                for name, _ in COUNTS})
    out.update({name: unit for name, unit in MAXIMA})
    out.update({f"{name}.self_pct": "%" for name, _ in SHARES})
    out["plocal.schwartz.expand_ratio"] = "ratio"
    out["trace.ops"] = "count"
    out["trace.overhead_s"] = "s"
    return out


def self_seconds(summary):
    """Self seconds per layer and per span name."""
    by_layer = {}
    for name, secs in summary["self_s"].items():
        layer = layer_of(name)
        if layer is not None:
            by_layer[layer] = by_layer.get(layer, 0.0) + secs
    return by_layer, summary["self_s"]


def metrics(summary, wall_s, ops, overhead_s):
    calls, counts = summary["calls"], summary["counts"]
    by_layer, by_span = self_seconds(summary)
    out = {name: calls.get(span, 0) for name, span in CALLS}
    out.update({name: counts.get(key, 0) for name, key in COUNTS})
    out.update({name: summary["maxima"].get(name, 0) for name, _ in MAXIMA})
    for name, kind in SHARES:
        secs = (by_layer if kind == "layer" else by_span).get(name, 0.0)
        out[f"{name}.self_pct"] = 100.0 * secs / wall_s
    fine = counts.get("plocal.schwartz.fine_balls", 0)
    out["plocal.schwartz.expand_ratio"] = \
        counts.get("plocal.schwartz.out_terms", 0) / fine if fine else 0.0
    out["trace.ops"] = ops
    out["trace.overhead_s"] = overhead_s
    return out


_SCALAR_CALLS = ["exactnum.scalar.add.calls", "exactnum.scalar.mul.calls",
                 "exactnum.scalar.inverse.calls", "exactnum.scalar.eq.calls",
                 "exactnum.scalar.parse.calls",
                 "exactnum.scalar.serialize.calls"]
_DIFFOPS = ["diffops.rf.new.calls", "diffops.qid.mul.calls",
            "diffops.qid.inverse.calls"]

#: Counts each workload must leave at zero (the layers it bypasses) ...
ZERO = {
    "tate-fe": ["exactnum.scalar.parse.calls"] + _DIFFOPS,
    "nabla": _SCALAR_CALLS + ["exactnum.laurent.new.calls",
                              "plocal.schwartz.new.calls",
                              "plocal.gauss_sum.calls",
                              "plocal.tate_factors.calls"],
    "cli-stream": ["plocal.schwartz.new.calls"] + _DIFFOPS,
}
#: ... and counts it must move, which shows the hooks sit on the functions
#: the program really calls.
NONZERO = {
    "tate-fe": ["exactnum.scalar.add.calls", "plocal.schwartz.new.calls",
                "exactnum.laurent.new.calls"],
    "nabla": ["diffops.rf.new.calls", "diffops.qid.mul.calls"],
    "cli-stream": ["exactnum.scalar.inverse.calls",
                   "exactnum.laurent.new.calls", "plocal.tate_factors.calls",
                   "plocal.gauss_sum.calls", "exactnum.scalar.parse.calls",
                   "exactnum.scalar.serialize.calls",
                   "plocal.gauss_cache.bytes"],
}


def bypass_problems(workload, values):
    """Predicted zero or non-zero counts that did not hold."""
    bad = [f"{m} = {values[m]}, predicted 0"
           for m in ZERO[workload] if values[m] != 0]
    bad += [f"{m} = 0, predicted > 0"
            for m in NONZERO[workload] if values[m] == 0]
    return bad
