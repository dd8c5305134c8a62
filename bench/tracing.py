"""Layer tracing from outside the package.

While a ``Tracer`` is installed it replaces public functions and methods of
bvdomains with wrappers that record spans and counts, and puts everything
back when it is removed.  The package itself holds no tracing code and its
output is unchanged.

Spans: a span is opened around each call of a traced function and around
each entry-closure evaluation of the lazy matrices built by ``compose``,
``invert``, the dual constructors and the E/F transforms.  A span's self time
is its duration minus the time covered by its child spans.  Function spans
are kept in memory with their parent and op index; closure spans are many,
so only their per-op totals are kept.

Counts: calls of ``Triangle.entry``/``BandedMatrix.entry`` and ``Seq``,
entry-closure evaluations (cache misses, one per distinct (matrix, n, k)),
and calls into the associated dual matrices.  They depend only on the ops,
never on timing, so they repeat exactly.
"""

from __future__ import annotations

import argparse
from collections import Counter, defaultdict
from time import perf_counter

from bvdomains import builders, cli, core, duals, matclass, spaces, verify

_MODULES = (core, builders, spaces, duals, matclass, verify, cli)

# Lazy matrices are attributed to a layer by the closure that computes their
# entries.  Closures of the named triangles are only counted: their cost is a
# few Fraction operations, timed as part of whoever asked for the entry.
_CLOSURE_LAYERS = {
    "_build_inverse.<locals>.entry": "core.forward_subst",
    "compose.<locals>.entry": "core.compose",
    "alpha_assoc.<locals>.<lambda>": "duals.assoc",
    "beta_assoc.<locals>.entry": "duals.assoc",
    "closed_form_beta_matrix.<locals>.entry": "duals.cross_check",
    "row_transform_E.<locals>.entry": "matclass.transform",
    "left_transform_F.<locals>.entry": "matclass.transform",
}

# (module, function, span name) for every function traced.  A function is
# traced under each module binding of it, so calls through ``from .core
# import truncate`` are seen too; ``matclass.dual_test`` is the row dual
# check of class_test_from_domain and gets its own name.
_FUNCTION_SPANS = (
    (cli, "build_parser", "cli.parse"),
    (cli, "parse_seq_spec", "cli.parse"),
    (cli, "parse_matrix_spec", "cli.parse"),
    (cli, "parse_domain_spec", "cli.parse"),
    (cli, "_emit", "cli.serialize"),
    (cli, "_emit_json", "cli.serialize"),
    (core, "truncate", "core.truncate"),
    (core, "dense_mul", "core.dense_mul"),
    (duals, "dual_test", "duals.dual_test"),
    (matclass, "apply_general", "matclass.apply"),
    (spaces, "membership", "spaces.membership"),
    (spaces, "domain_membership", "spaces.membership"),
    (verify, "run_suite", "verify.suite"),
)
_METHOD_SPANS = (
    (argparse.ArgumentParser, "parse_args", "cli.parse"),
    (duals.DualReport, "to_dict", "cli.serialize"),
    (matclass.ClassReport, "to_dict", "cli.serialize"),
    (spaces.MembershipReport, "to_dict", "cli.serialize"),
)
_CONDITIONS = ("cond_l1_linf", "cond_l1_c", "cond_l1_l1")

ROOT_SPAN = "cli.main"  # one per op, around cli.main


class Tracer:
    """Spans and counts of the ops run while it is installed."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.incl_s: defaultdict = defaultdict(float)
        self.spans: list = []  # (id, parent id, name, op, start, end)
        self.closure_spans: defaultdict = defaultdict(lambda: [0, 0.0])  # (op, name) -> [count, self_s]
        self._stack: list = []  # frames [name, child seconds, recorded span id]
        self._open: Counter = Counter()
        self._op = -1
        self._restore: list = []

    # ------------------------------------------------------------- spans

    def call(self, name, fn, args, kwargs, record=True):
        stack = self._stack
        parent = stack[-1] if stack else None
        span_id = len(self.spans) if record else (parent[2] if parent else None)
        if record:
            self.spans.append(None)  # reserve the id; filled in on exit
        frame = [name, 0.0, span_id]
        stack.append(frame)
        self._open[name] += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            duration = end - start
            stack.pop()
            own = duration - frame[1]
            self.self_s[name] += own
            self._open[name] -= 1
            if not self._open[name]:
                self.incl_s[name] += duration
            if parent is not None:
                parent[1] += duration
            if record:
                parent_id = parent[2] if parent else None
                self.spans[span_id] = (span_id, parent_id, name, self._op, start, end)
            else:
                agg = self.closure_spans[(self._op, name)]
                agg[0] += 1
                agg[1] += own

    def run_op(self, fn, *args):
        """Run one op under a root span; returns fn's result."""
        self._op += 1
        return self.call(ROOT_SPAN, fn, args, {})

    # ----------------------------------------------------------- install

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _span_wrapper(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    def _closure_wrapper(self, fn):
        counts = self.counts
        layer = _CLOSURE_LAYERS.get(getattr(fn, "__qualname__", ""))
        if layer is None:
            def counted(n, k):
                counts["core.entry_evals"] += 1
                return fn(n, k)
        else:
            key = layer + "_evals"

            def counted(n, k):
                counts["core.entry_evals"] += 1
                counts[key] += 1
                return self.call(layer, fn, (n, k), {}, record=False)

        return counted, layer

    def _patch_matrix_class(self, cls):
        tracer, counts = self, self.counts
        orig_init, orig_entry = cls.__init__, cls.entry

        def __init__(matrix, entry_fn, *args, **kwargs):
            wrapped, layer = tracer._closure_wrapper(entry_fn)
            orig_init(matrix, wrapped, *args, **kwargs)
            matrix._bench_layer = layer

        def entry(matrix, n, k):
            counts["core.entry_calls"] += 1
            if getattr(matrix, "_bench_layer", None) == "duals.assoc":
                counts["duals.assoc_entry_calls"] += 1
            return orig_entry(matrix, n, k)

        self._set(cls, "__init__", __init__)
        self._set(cls, "entry", entry)

    def _condition_wrapper(self, fn):
        def traced(m, n):
            oracle = getattr(m, "_bench_layer", None) == "duals.cross_check"
            return self.call("duals.cross_check" if oracle else "duals.cond", fn, (m, n), {})

        return traced

    def install(self):
        counts = self.counts
        self._patch_matrix_class(core.Triangle)
        self._patch_matrix_class(matclass.BandedMatrix)
        seq_call = core.Seq.__call__

        def __call__(seq, k):
            counts["core.seq_calls"] += 1
            return seq_call(seq, k)

        self._set(core.Seq, "__call__", __call__)
        for owner, attr, name in _METHOD_SPANS:
            self._set(owner, attr, self._span_wrapper(name, getattr(owner, attr)))
        for home, attr, name in _FUNCTION_SPANS:
            orig = getattr(home, attr)
            for module in _MODULES:
                if module.__dict__.get(attr) is orig:
                    span = "matclass.row_checks" if module is matclass and attr == "dual_test" else name
                    self._set(module, attr, self._span_wrapper(span, orig))
        for attr in _CONDITIONS:
            self._set(duals, attr, self._condition_wrapper(getattr(duals, attr)))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
