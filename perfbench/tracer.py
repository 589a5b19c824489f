"""Span recording for the traced run, from outside the program.

The tracer wraps public entry points of the ``kst`` modules for the
length of one traced pass and restores them afterwards. A wrapped call
records a span (name, start, end, parent span, operation id) in memory;
counts are recorded at the same boundaries. Self time of a span is its
duration minus the time covered by its direct child spans.

Functions are patched in every loaded ``kst`` module that binds them by
name (``kst.pipeline.phi_batch`` beside ``kst.decompose.phi_batch``);
methods and properties are patched on their class.
"""

from __future__ import annotations

import functools
import sys
import time

# Spans of these names do not open a nested span of the same layer: exact
# inner values computed while building the table belong to the table, and
# psi_exact_extended calling psi_grid is one exact evaluation.
_INNER_EXACT_PARENTS = ("inner.exact", "inner.table")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: dict[str, float] = {}
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def open(self, name: str) -> list:
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def innermost(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, name, fn, skip_inside=(), after=None):
        """Wrap fn in a span; ``after(tracer, args, result)`` records counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.innermost() in skip_inside:
                return fn(*args, **kwargs)
            rec = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            if after is not None:
                after(tracer, args, out)
            return out

        return traced

    def counter(self, key, fn):
        """Wrap fn to count its calls without opening a span."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.add(key)
            return fn(*args, **kwargs)

        return counted

    # -- patching ------------------------------------------------------------

    def patch_function(self, module, attr: str, make) -> None:
        original = getattr(module, attr)
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "kst" or name.startswith("kst.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, wrapped)

    def patch_method(self, cls, attr: str, make) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, property):
            wrapped = property(make(original.fget))
        else:
            wrapped = make(original)
        self._restore.append((cls, attr, original))
        setattr(cls, attr, wrapped)

    def unpatch(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- derived figures -----------------------------------------------------

    def self_times(self, first: int = 0) -> dict[str, float]:
        spans = self.spans[first:]
        covered = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= first:
                covered[parent - first] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(spans):
            out[name] = out.get(name, 0.0) + (end - start - covered[i])
        return out

    def total_times(self, first: int = 0) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, start, end, _, _ in self.spans[first:]:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def to_json_dict(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "counts": self.counts,
        }


def install(tracer: Tracer) -> None:
    """Wrap the entry points of every module on the hot path."""
    import kst.bumps as bumps
    import kst.cli as cli
    import kst.decompose as decompose
    import kst.inner as inner
    import kst.pipeline as pipeline
    import kst.relunet as relunet
    import kst.target as target

    def rows(key, arg_index):
        return lambda t, args, out: t.add(key, len(args[arg_index]))

    t = tracer
    # target
    t.patch_method(target.TargetFunction, "eval_batch",
                   lambda f: t.wrap("target.eval", f, after=rows("target.points", 1)))
    # inner
    ev = inner.InnerEvaluator
    t.patch_method(ev, "psi_table", lambda f: t.wrap("inner.table", f))
    for name in ("psi_grid", "psi_exact_extended", "psi_trunc_float"):
        t.patch_method(ev, name, lambda f: t.wrap(
            "inner.exact", f, skip_inside=_INNER_EXACT_PARENTS,
            after=lambda tr, args, out: tr.add("inner.exact_calls")))
    t.patch_method(ev, "psi_trunc_vector", lambda f: t.wrap("inner.vector", f))
    # bumps
    t.patch_function(bumps, "disjoint_support_audit", lambda f: t.wrap(
        "bumps.audit", f, after=lambda tr, args, out: tr.add("bumps.images", out.count)))

    # decompose
    def after_iterate(tr, args, state):
        g, n = state.params.gamma, state.params.n
        tr.add("decompose.rounds")
        tr.add("decompose.sweep_points", (g ** state.k_list[-1] + 1) ** n)

    t.patch_function(decompose, "iterate",
                     lambda f: t.wrap("decompose.iterate", f, after=after_iterate))
    t.patch_function(decompose, "choose_k_r", lambda f: t.wrap("decompose.choose_k", f))
    t.patch_function(decompose, "residual_modulus",
                     lambda f: t.counter("decompose.k_tests", f))
    t.patch_function(decompose, "measure_residual_norm",
                     lambda f: t.wrap("decompose.measure", f))
    t.patch_function(decompose, "phi_batch", lambda f: t.wrap(
        "decompose.phi_batch", f, after=rows("decompose.phi_batch_points", 2)))
    t.patch_function(decompose, "state_from_json_dict",
                     lambda f: t.wrap("decompose.load_state", f))

    # pipeline: stage times come from the report the program already keeps
    def after_assemble(tr, args, out):
        report = out[1]
        for stage, secs in report.timings.items():
            tr.add(f"pipeline.{stage}_s", secs)
        tr.add("pipeline.psi_knots", report.psi_knots)
        tr.add("pipeline.phi_knots", report.phi_knots)

    def after_run(tr, args, out):
        tr.add("pipeline.decompose_s", out[1].timings.get("decompose", 0.0))

    t.patch_function(pipeline, "assemble_from_state", lambda f: t.wrap(
        "pipeline.assemble_from_state", f, after=after_assemble))
    t.patch_function(pipeline, "run_pipeline",
                     lambda f: t.wrap("pipeline.run", f, after=after_run))

    # relunet
    t.patch_function(relunet, "build_univariate", lambda f: t.wrap(
        "relunet.build_univariate", f,
        after=lambda tr, args, out: tr.add("relunet.build_univariate_calls")))
    t.patch_method(relunet.AssembledKst, "network",
                   lambda f: t.wrap("relunet.materialize", f))
    t.patch_method(relunet.AssembledKst, "eval_batch",
                   lambda f: t.wrap("relunet.interp_forward", f))
    t.patch_method(relunet.ReluNetwork, "eval_batch", lambda f: t.wrap(
        "relunet.dag_forward", f, after=rows("relunet.dag_points", 1)))
    t.patch_method(relunet.ReluNetwork, "to_json_dict",
                   lambda f: t.wrap("relunet.to_json", f))

    # cli
    t.patch_function(cli, "cmd_decompose", lambda f: t.wrap("cli.decompose", f))
    t.patch_function(cli, "cmd_assemble", lambda f: t.wrap("cli.assemble", f))
