"""Traced run: per-layer spans and counts, recorded from outside the library.

Every function and method that a gptau layer module defines is wrapped,
and the wrapper is installed in every gptau namespace that binds it (a
name imported with `from .module import hom` is a separate binding in
homalg, gorenstein, approx and classify) and on the defining class for
methods.  A call records a span (name, start, end, parent) in memory;
the spans are written out when the run ends, and a layer's self time is
its spans' time minus their child spans.  The smallest, hottest
functions (scalar arithmetic, coercion, matrix construction) are only
counted: a span each would cost more than the work they do.
"""

from __future__ import annotations

import fractions
from array import array
import gzip
import importlib
import inspect
import os
import random
import sys
import time
from collections import Counter

from harness import Tally, measure, run_ops
from inputs import Family, module_text, present

LAYERS = ("field", "linalg", "algebra", "module", "homalg", "gorenstein",
          "approx", "classify", "fileio")
MAX_SPANS = 2_000_000  # spans beyond this are aggregated but not kept
SPAN_FIELDS = 5  # index, name id, start ns, end ns, parent index
KEY_CACHE_SIZE = 4096

FP_ARITHMETIC = ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__")
RATIONAL_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                       "__rmul__", "__truediv__", "__rtruediv__", "__neg__")
COUNTED_ONLY = {"linalg.Matrix.__init__", "module.Module.block_of_coord"}

# Inclusive time of the outermost call into any function of the group.
GROUPS = {
    "module.split_s": ["module.split_indecomposables"],
    "module.iso_s": ["module.is_isomorphic", "module._iso_indecomposable"],
    "module.hom_s": ["module.hom"],
    "module.construct_s": ["module.Module.__init__"],
    "homalg.presentation_s": ["homalg.minimal_projective_presentation"],
    "homalg.syzygy_s": ["homalg.syzygy", "homalg.cosyzygy",
                        "homalg.minimal_projective_resolution"],
    "homalg.tau_s": ["homalg.tau", "homalg.tau_inverse", "homalg.transpose_Tr"],
    "homalg.ext_s": ["homalg.ext_dim", "homalg.ext_vanishes_all_positive"],
    "homalg.pd_s": ["homalg.proj_dim", "homalg.inj_dim"],
    "gorenstein.gp_s": ["gorenstein.gorenstein_projective",
                        "gorenstein.gorenstein_injective",
                        "gorenstein.semi_gp", "gorenstein.semi_gi"],
    "gorenstein.algebra_s": ["gorenstein.gorenstein_algebra",
                             "gorenstein.self_injective"],
    "linalg.rref_s": ["linalg.Matrix.rref"],
    "linalg.matmul_s": ["linalg.Matrix.__matmul__"],
    "linalg.solve_s": ["linalg.Matrix.solve", "linalg.Matrix.solve_matrix"],
    "approx.gamma_s": ["approx.gamma", "approx.cached_gamma"],
    "approx.homE_s": ["approx.hom_E", "approx.hom_E_map"],
    "approx.egp_s": ["approx.e_gorenstein_projective"],
    "approx.min_approx_s": ["approx.minimal_right_approx"],
    "fileio.parse_s": ["fileio.parse_algebra_file", "fileio.parse_module_file"],
    "algebra.build_s": ["algebra.bound_quiver_algebra", "algebra.Algebra.__init__"],
}


def _module_key(m):
    """Content of a module, for spotting Hom requests on equal inputs.
    Built from plain ints so that it calls no counted scalar method."""
    return (id(m.algebra), m.dim, tuple(_scalar_key(x) for a in m.actions
                                        for row in a.data for x in row))


def _scalar_key(x):
    v = getattr(x, "v", None)  # field.Fp
    return v if v is not None else (x.numerator, x.denominator)


class Tracer:
    def __init__(self):
        self.names = []  # span name ids -> names
        self.reset()
        self._undo = []
        self._group_of = {n: g for g, names in GROUPS.items() for n in names}

    def reset(self):
        self.calls = Counter()  # per function
        self.counts = Counter()  # derived counters (cells, bytes, ...)
        self.self_ns = Counter()  # per layer
        self.group_ns = Counter()
        self.group_depth = Counter()
        self.spans = array("q")  # SPAN_FIELDS int64s per kept span
        self.n_spans = 0
        self.stack = []  # [index, start, child ns]
        self.hom_keys = set()
        self._key_cache = {}

    # -- wrappers ----------------------------------------------------------

    def _observe(self, name, args, result):
        c = self.counts
        if name == "linalg.Matrix.__matmul__":
            a, b = args
            c["matmul_mults"] += a.rows * a.cols * b.cols
        elif name == "module.hom":
            key = (self._content(args[0]), self._content(args[1]))
            c["hom_repeats"] += key in self.hom_keys
            self.hom_keys.add(key)
        elif name == "module.is_isomorphic":
            c["iso_yes"] += bool(result)
        elif name == "classify._ClassSet.add":
            c["classes"] += bool(result)
        elif name in ("fileio.parse_algebra_file", "fileio.parse_module_file"):
            c["parse_bytes"] += os.path.getsize(args[0])

    def _content(self, m):
        hit = self._key_cache.get(id(m))
        if hit is None or hit[0] is not m:
            if len(self._key_cache) >= KEY_CACHE_SIZE:
                self._key_cache.clear()  # it holds the modules alive
            hit = self._key_cache[id(m)] = (m, _module_key(m))
        return hit[1]

    def _counted(self, fn, name):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _spanned(self, fn, name, layer):
        tr = self
        group = self._group_of.get(name)
        observed = name in (
            "linalg.Matrix.__matmul__", "module.hom", "module.is_isomorphic",
            "classify._ClassSet.add", "fileio.parse_algebra_file",
            "fileio.parse_module_file")
        is_rref = name == "linalg.Matrix.rref"
        name_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter_ns

        def spanned(*args, **kwargs):
            tr.calls[name] += 1
            if is_rref:
                m = args[0]
                if m._rref is not None:
                    tr.counts["rref_cache_hits"] += 1
                else:
                    tr.counts["rref_cells"] += m.rows * m.cols
            if group:
                tr.group_depth[group] += 1
            index = tr.n_spans
            tr.n_spans += 1
            parent = tr.stack[-1][0] if tr.stack else -1
            frame = [index, clock(), 0]
            tr.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tr.stack.pop()
                dur = end - frame[1]
                tr.self_ns[layer] += dur - frame[2]
                if tr.stack:
                    tr.stack[-1][2] += dur
                if group:
                    tr.group_depth[group] -= 1
                    if not tr.group_depth[group]:
                        tr.group_ns[group] += dur
                if len(tr.spans) < MAX_SPANS * SPAN_FIELDS:
                    tr.spans.extend((index, name_id, frame[1], end, parent))
            if observed:
                tr._observe(name, args, result)
            return result
        return spanned

    def _wrap(self, fn, name, layer):
        if name in COUNTED_ONLY or name.startswith("field."):
            return self._counted(fn, name)
        return self._spanned(fn, name, layer)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module("gptau." + layer)
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and obj not in wrapped):
                    wrapped[obj] = self._wrap(obj, "%s.%s" % (layer, obj.__name__), layer)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mattr, m in list(vars(obj).items()):
                        name = "%s.%s.%s" % (layer, attr, mattr)
                        if inspect.isfunction(m):
                            self._set(obj, mattr, self._wrap(m, name, layer))
                        elif isinstance(m, staticmethod):
                            self._set(obj, mattr,
                                      staticmethod(self._wrap(m.__func__, name, layer)))
        for modname, mod in list(sys.modules.items()):
            if modname == "gptau" or modname.startswith("gptau."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        self._set(mod, attr, wrapped[obj])
        if importlib.import_module("gptau.field")._RAT is fractions.Fraction:
            for attr in RATIONAL_ARITHMETIC:
                self._set(fractions.Fraction, attr, self._counted(
                    fractions.Fraction.__dict__[attr], "field.rational." + attr))
        self.wrapped = wrapped

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def unwrapped_bindings(self):
        """gptau namespaces that still bind an original layer function."""
        out = []
        for modname, mod in list(sys.modules.items()):
            if modname == "gptau" or modname.startswith("gptau."):
                for attr, obj in vars(mod).items():
                    if inspect.isfunction(obj) and obj in self.wrapped:
                        out.append("%s.%s" % (modname, attr))
        return out

    def kept_spans(self):
        """(index, name, start ns, end ns, parent index), in order of ending."""
        s = self.spans
        for k in range(0, len(s), SPAN_FIELDS):
            yield s[k], self.names[s[k + 1]], s[k + 2], s[k + 3], s[k + 4]

    def ancestors(self, index):
        parent = {i: p for i, _, _, _, p in self.kept_spans()}
        names = {i: n for i, n, _, _, _ in self.kept_spans()}
        out = []
        while parent.get(index, -1) != -1:
            index = parent[index]
            out.append(names[index])
        return out

    def write_spans(self, path):
        with gzip.open(path, "wt") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for span in self.kept_spans():
                fh.write("%d\t%s\t%d\t%d\t%d\n" % span)

    # -- metrics -----------------------------------------------------------

    def layer_metrics(self, ops):
        calls, c = self.calls, self.counts

        def per_op(x):
            return x / ops

        def ratio(a, b):
            return a / b if b else 0.0

        layer_calls = Counter()
        for name, n in calls.items():
            layer_calls[name.split(".")[0]] += n
        out = []
        for layer in LAYERS:
            out.append((layer + ".self_s", per_op(self.self_ns[layer] / 1e9), "s/op"))
            out.append((layer + ".calls", per_op(layer_calls[layer]), "1/op"))
        for group in GROUPS:
            out.append((group, per_op(self.group_ns[group] / 1e9), "s/op"))
        iso = calls["module.is_isomorphic"]
        hom = calls["module.hom"]
        candidates = calls["classify._ClassSet.add"]
        rational = sum(n for name, n in calls.items() if name.startswith("field.rational."))
        fp = sum(calls["field.Fp." + a] for a in FP_ARITHMETIC)
        out += [
            ("module.iso_yes_ratio", ratio(c["iso_yes"], iso), "ratio"),
            ("module.hom_calls", per_op(hom), "1/op"),
            ("module.hom_repeat_ratio", ratio(c["hom_repeats"], hom), "ratio"),
            ("classify.candidates", per_op(candidates), "1/op"),
            ("classify.classes", per_op(c["classes"]), "1/op"),
            ("classify.class_yield", ratio(c["classes"], candidates), "ratio"),
            ("linalg.rref_calls", per_op(calls["linalg.Matrix.rref"]), "1/op"),
            ("linalg.rref_cache_hits", per_op(c["rref_cache_hits"]), "1/op"),
            ("linalg.rref_cells", per_op(c["rref_cells"]), "1/op"),
            ("linalg.matmul_mults", per_op(c["matmul_mults"]), "1/op"),
            ("linalg.matrices_built", per_op(calls["linalg.Matrix.__init__"]), "1/op"),
            ("field.rational_ops", per_op(rational), "1/op"),
            ("field.fp_ops", per_op(fp), "1/op"),
            ("field.coerce_calls", per_op(calls["field.FieldSpec.of"]), "1/op"),
            ("fileio.bytes", per_op(c["parse_bytes"]), "B/op"),
        ]
        return out


# -- self-tests ------------------------------------------------------------------


def _small_inputs(workdir):
    """Linear A3 and the sum of two of its interval modules, as files."""
    rng = random.Random("layers-self-test")
    pres = present(Family("linear", 3), rng)
    alg = os.path.join(workdir, "self-test.alg")
    mod = os.path.join(workdir, "self-test.mod")
    with open(alg, "w") as fh:
        fh.write(pres.text)
    with open(mod, "w") as fh:
        fh.write(module_text(pres, [(0, 1), (1, 2)], rng)[0])
    return alg, mod


def self_test(g, workdir):
    """Problems found in the instrumentation itself (empty when sound)."""
    problems = []
    alg, mod = _small_inputs(workdir)
    tr = Tracer()
    tr.install()
    try:
        left = tr.unwrapped_bindings()
        if left:
            problems.append("unwrapped bindings: %s" % ", ".join(left[:5]))
        for via, call in (("homalg", lambda m: g.homalg.is_tau_rigid(m)),
                          ("classify", lambda m: g.classify.tau_rigid_test(m))):
            m = g.fileio.parse_module_file(mod, g.fileio.parse_algebra_file(alg))
            tr.reset()
            call(m)
            homs = [i for i, n, _, _, _ in tr.kept_spans() if n == "module.hom"]
            if not any(any(a.startswith(via + ".") for a in tr.ancestors(i))
                       for i in homs):
                problems.append("hom reached through %s was not counted" % via)

        def job():
            a = g.fileio.parse_algebra_file(alg)
            m = g.fileio.parse_module_file(mod, a)
            n = g.fileio.parse_module_file(mod, a)
            g.proj_dim(m)
            g.gorenstein_projective(m)
            g.ext_dim(m, n, 1)
            g.is_isomorphic(m, n)
            g.classify.tau_rigid_test(m)
            return dict(tr.calls), dict(tr.counts)

        tr.reset()
        first = job()
        tr.reset()
        if job() != first:
            problems.append("two runs of one seeded job gave different counts")
    finally:
        tr.uninstall()
    return problems


# -- the traced run --------------------------------------------------------------


def traced_run(g, workload, seconds, out_dir):
    """Untraced pass over `seconds / 2` of whole rounds, then the same
    operations traced; per-layer metrics are per traced operation."""
    problems = self_test(g, workload.workdir)
    for p in problems:
        print("SELF-TEST FAILED: %s" % p, file=sys.stderr)
    untraced, rounds = measure(g, workload, seconds / 2)
    tr = Tracer()
    tr.install()
    traced = Tally()
    try:
        for ops in rounds:
            run_ops(g, ops, traced)
    finally:
        tr.uninstall()
    n = len(traced.spans)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "spans-%s-seed%d.tsv.gz" % (workload.name, workload.seed))
    tr.write_spans(path)
    metrics = {}
    for name, value, unit in tr.layer_metrics(n):
        metrics[name] = {"value": value, "unit": unit}
    plain, slow = n / untraced.busy, n / traced.busy
    for name, value, unit in (("trace.untraced_ops_per_s", plain, "1/s"),
                              ("trace.traced_ops_per_s", slow, "1/s"),
                              ("trace.overhead_ops_per_s", plain - slow, "1/s"),
                              ("trace.spans", tr.n_spans, "count")):
        metrics[name] = {"value": value, "unit": unit}
    for name, m in metrics.items():
        print("metric %-28s %14.6g %s" % (name, m["value"], m["unit"]))
    print("spans written to %s (%d kept of %d)" % (
        path, len(tr.spans) // SPAN_FIELDS, tr.n_spans))
    attempted = len(untraced.spans) + n
    failed = untraced.failed + traced.failed
    return attempted, failed, metrics, not problems
