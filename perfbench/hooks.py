"""Wrap padr's public functions, from outside the package, with spans.

Each wrapped callable records a span named ``<layer>.<op>``; LAYERS maps
the span names of one layer to the layer name used by the metrics.
``fractions.Fraction`` is deliberately not wrapped: a tate-fe round makes
millions of Fraction calls, and wrapping them would cost more
than the work being measured.  Fraction time is charged as self time to
whichever padr span called it.
"""

import importlib
import os
import sys

#: (owner path, attribute, span name).  A span name without an op part
#: (e.g. "arch") charges the call to the layer only.
SPANS = [
    ("exactnum.ExactScalar", "__add__", "exactnum.scalar.add"),
    ("exactnum.ExactScalar", "__radd__", "exactnum.scalar.add"),
    ("exactnum.ExactScalar", "__sub__", "exactnum.scalar.sub"),
    ("exactnum.ExactScalar", "__rsub__", "exactnum.scalar.sub"),
    ("exactnum.ExactScalar", "__neg__", "exactnum.scalar.neg"),
    ("exactnum.ExactScalar", "__mul__", "exactnum.scalar.mul"),
    ("exactnum.ExactScalar", "__rmul__", "exactnum.scalar.mul"),
    ("exactnum.ExactScalar", "inverse", "exactnum.scalar.inverse"),
    ("exactnum.ExactScalar", "__truediv__", "exactnum.scalar.div"),
    ("exactnum.ExactScalar", "__rtruediv__", "exactnum.scalar.div"),
    ("exactnum.ExactScalar", "__pow__", "exactnum.scalar.pow"),
    ("exactnum.ExactScalar", "__eq__", "exactnum.scalar.eq"),
    ("exactnum.ExactScalar", "galois", "exactnum.scalar.galois"),
    ("exactnum.ExactScalar", "conjugate", "exactnum.scalar.conjugate"),
    ("exactnum.ExactScalar", "zeta", "exactnum.scalar.zeta"),
    ("exactnum.ExactScalar", "serialize", "exactnum.scalar.serialize"),
    ("exactnum.ExactScalar", "parse", "exactnum.scalar.parse"),
    ("exactnum.LaurentRF", "__init__", "exactnum.laurent.new"),
    ("exactnum.LaurentRF", "__add__", "exactnum.laurent.add"),
    ("exactnum.LaurentRF", "__radd__", "exactnum.laurent.add"),
    ("exactnum.LaurentRF", "__sub__", "exactnum.laurent.sub"),
    ("exactnum.LaurentRF", "__rsub__", "exactnum.laurent.sub"),
    ("exactnum.LaurentRF", "__neg__", "exactnum.laurent.neg"),
    ("exactnum.LaurentRF", "__mul__", "exactnum.laurent.mul"),
    ("exactnum.LaurentRF", "__rmul__", "exactnum.laurent.mul"),
    ("exactnum.LaurentRF", "inverse", "exactnum.laurent.inverse"),
    ("exactnum.LaurentRF", "__truediv__", "exactnum.laurent.div"),
    ("exactnum.LaurentRF", "__rtruediv__", "exactnum.laurent.div"),
    ("exactnum.LaurentRF", "__pow__", "exactnum.laurent.pow"),
    ("exactnum.LaurentRF", "__eq__", "exactnum.laurent.eq"),
    ("exactnum.LaurentRF", "evaluate", "exactnum.laurent.evaluate"),
    ("exactnum.LaurentRF", "subst_X", "exactnum.laurent.subst_X"),
    ("exactnum.LaurentRF", "serialize", "exactnum.laurent.serialize"),
    ("plocal.SchwartzFn", "__init__", "plocal.schwartz.new"),
    ("plocal", "fourier_transform", "plocal.fourier_transform"),
    ("plocal", "tate_integral", "plocal.tate_integral"),
    ("plocal", "gauss_sum", "plocal.gauss_sum"),
    ("plocal", "_gauss_cache", "plocal.gauss_cache.load"),
    ("plocal", "_gauss_cache_store", "plocal.gauss_cache.store"),
    ("plocal", "tate_factors", "plocal.tate_factors"),
    ("plocal", "euler_modified", "plocal.euler_modified"),
    ("plocal", "adjoint_modified", "plocal.adjoint_modified"),
    ("diffops", "drho_n", "diffops.drho_n"),
    ("diffops", "conjugated_derivative_form",
     "diffops.conjugated_derivative_form"),
    ("diffops", "coefficient_closed_form", "diffops.coefficient_closed_form"),
    ("diffops", "automorphy_cocycle", "diffops.automorphy_cocycle"),
    ("diffops.RF", "__init__", "diffops.rf.new"),
    ("diffops.RF", "__add__", "diffops.rf.add"),
    ("diffops.RF", "__sub__", "diffops.rf.sub"),
    ("diffops.RF", "__neg__", "diffops.rf.neg"),
    ("diffops.RF", "__mul__", "diffops.rf.mul"),
    ("diffops.RF", "__rmul__", "diffops.rf.mul"),
    ("diffops.RF", "__truediv__", "diffops.rf.div"),
    ("diffops.RF", "deriv", "diffops.rf.deriv"),
    ("diffops.RF", "conj", "diffops.rf.conj"),
    ("diffops.RF", "subst_w0", "diffops.rf.subst_w0"),
    ("diffops.RF", "__eq__", "diffops.rf.eq"),
    ("arch.WeightTuple", "__init__", "arch"),
    ("arch", "hc_from_weights", "arch"),
    ("arch", "einf_mq", "arch"),
    ("arch", "gamma_vq", "arch"),
    ("arch", "ggp_from_hc", "arch"),
]

#: Count-only wrappers: too frequent for a span each, and not a layer.
COUNTS = [
    ("diffops.QiD", "__mul__", "diffops.qid.mul"),
    ("diffops.QiD", "__rmul__", "diffops.qid.mul"),
    ("diffops.QiD", "inverse", "diffops.qid.inverse"),
]

#: Layers whose self time is reported, and the span-name prefixes of each.
LAYERS = {
    "exactnum.scalar": "exactnum.scalar.",
    "exactnum.laurent": "exactnum.laurent.",
    "plocal.schwartz": "plocal.schwartz.",
    "plocal.fourier_transform": "plocal.fourier_transform",
    "plocal.tate_integral": "plocal.tate_integral",
    "plocal.gauss_sum": "plocal.gauss_sum",
    "plocal.gauss_cache": "plocal.gauss_cache.",
    "plocal.tate_factors": "plocal.tate_factors",
    "plocal.euler_modified": "plocal.euler_modified",
    "plocal.adjoint_modified": "plocal.adjoint_modified",
    "diffops.drho_n": "diffops.drho_n",
    "diffops.conjugated_derivative_form": "diffops.conjugated_derivative_form",
    "diffops.coefficient_closed_form": "diffops.coefficient_closed_form",
    "diffops.automorphy_cocycle": "diffops.automorphy_cocycle",
    "diffops.rf": "diffops.rf.",
    "arch": "arch",
    "cli": "cli",
}


def layer_of(span_name):
    for layer, prefix in LAYERS.items():
        if span_name == prefix or (prefix.endswith(".")
                                   and span_name.startswith(prefix)):
            return layer
    return None


def _resolve(path):
    mod, _, cls = path.partition(".")
    owner = importlib.import_module("padr." + mod)
    return owner, (getattr(owner, cls) if cls else owner)


def _scalar_stats(tracer):
    """on_result hook: largest conductor and coefficient bit length."""
    maxima = tracer.maxima

    def note(out, _args):
        if out.__class__.__name__ != "ExactScalar":
            return
        if out.N is not None and out.N > maxima["exactnum.scalar.max_conductor"]:
            maxima["exactnum.scalar.max_conductor"] = out.N
        bits = max(max(c.numerator.bit_length(), c.denominator.bit_length())
                   for c in out.coeffs)
        if bits > maxima["exactnum.scalar.max_coeff_bits"]:
            maxima["exactnum.scalar.max_coeff_bits"] = bits
    return note


def _schwartz_init(tracer, init):
    """SchwartzFn.__init__ span, plus the expansion ratio computed from the
    input terms outside the span: output terms / fine balls enumerated."""
    counts = tracer.counts
    traced = tracer.wrap("plocal.schwartz.new", init)

    def new(self, p, terms):
        terms = list(terms)
        traced(self, p, terms)
        live = [int(k) for _, k, c in terms if not _is_zero(c)]
        if live:
            m = max(live)
            counts["plocal.schwartz.fine_balls"] += sum(p ** (m - k)
                                                        for k in live)
        counts["plocal.schwartz.out_terms"] += len(self.terms)
    return new


def _is_zero(c):
    return c.is_zero() if hasattr(c, "is_zero") else c == 0


def _cache_store(tracer, store):
    """Gauss-cache store span, plus the bytes of the file it wrote."""
    counts = tracer.counts

    def note(_out, _args):
        cache_dir = os.environ.get("PADR_CACHE_DIR")
        if cache_dir:
            path = os.path.join(cache_dir, "gauss_sums.json")
            counts["plocal.gauss_cache.bytes"] += os.path.getsize(path)
    return tracer.wrap("plocal.gauss_cache.store", store, note)


def install(tracer):
    """Replace padr's callables by traced ones, in every padr module that
    holds a reference to them (``from padr.plocal import gauss_sum``)."""
    replaced = {}
    note = _scalar_stats(tracer)
    for path, attr, name in SPANS:
        owner, target = _resolve(path)
        raw = target.__dict__[attr]
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        if name == "plocal.schwartz.new":
            new = _schwartz_init(tracer, fn)
        elif name == "plocal.gauss_cache.store":
            new = _cache_store(tracer, fn)
        elif name.startswith("exactnum.scalar.") and name.rsplit(".", 1)[1] \
                in ("add", "sub", "mul", "inverse", "div", "pow", "parse"):
            new = tracer.wrap(name, fn, note)
        else:
            new = tracer.wrap(name, fn)
        setattr(target, attr, staticmethod(new) if static else new)
        replaced[id(fn)] = new
    for path, attr, name in COUNTS:
        _, target = _resolve(path)
        fn = target.__dict__[attr]
        setattr(target, attr, tracer.count(name, fn))
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("padr") or mod is None:
            continue
        for key, val in list(vars(mod).items()):
            if id(val) in replaced and callable(val):
                setattr(mod, key, replaced[id(val)])
