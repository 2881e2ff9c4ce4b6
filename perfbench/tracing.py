"""Span tracing of the package's public functions, installed from outside.

``Tracer.installed()`` replaces each traced function with a wrapper, in its
defining module and in every ``tempkg`` module that imported it under the same
name, and puts the originals back on exit. A span is
``[name, parent span id, start, end, segment]``, where a segment is one set-up
or one pass of the run; spans stay in memory and are written once, by
``Tracer.write``. Counters are read from the arguments or results of the same
calls, per segment.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import os
import statistics
import sys
import time

# Traced spans; each gives <span>.calls, <span>.s and <span>.self_s.
SPANS = (
    "autodiff.Tape.backward",
    "_kernels.scatter_add_rows",
    "_kernels.decay_accumulate",
    "_kernels.adam_update",
    "rgcn.encode_snapshot",
    "temporal.encode_gru",
    "temporal.encode_sa",
    "heterogeneity.compute_tpf",
    "heterogeneity.gate_alpha",
    "heterogeneity.impute_window",
    "decoder.score_rows",
    "decoder.sample_negatives",
    "decoder.query_loss",
    "model.TempModel.snapshot_loss",
    "model.TempModel.eval_context",
    "model.init_params",
    "optim.AdamState.step",
    "checkpoint.save_checkpoint",
    "train._validation_mrr",
    "evaluation.evaluate",
    "evaluation.rank_query",
    "ted.TedModel",
    "ted.TedModel.reference_sets",
    "ted.TedModel.tier_scores",
    "ted.TedModel.rank_scores",
    "synth.generate_synthetic",
    "data.build_true_index",
)


# Counters read at traced or count-only calls: function -> ((counter, read), ...)
# where read(args, result) gives the amount. A counter ending in "_max" keeps
# the largest amount seen, every other one the sum.
COUNTERS = {
    "model.grads_by_name": (("autodiff.tape_nodes", lambda a, out: len(a[0])),
                            ("autodiff.tape_nodes_max", lambda a, out: len(a[0]))),
    "model.TempModel.encode_context": (("steps", lambda a, out: 1),),
    "_kernels.scatter_add_rows": (("kernels.scatter_add_rows.rows",
                                   lambda a, out: len(a[1])),),
    "rgcn.encode_snapshot": (("rgcn.edges", lambda a, out: 2 * len(a[0])),),
    "decoder.score_rows": (("decoder.rows_scored", lambda a, out: a[0].shape[0]),),
    "decoder.sample_negatives": (("decoder.negatives_drawn",
                                  lambda a, out: out[0].size + out[1].size),),
    "checkpoint.save_checkpoint": (("checkpoint.bytes",
                                    lambda a, out: os.path.getsize(a[0])),),
    "evaluation.evaluate": (("evaluation.queries", lambda a, out: len(out.results)),),
    "ted.TedModel.reference_sets": (("ted.tuples",
                                     lambda a, out: sum(len(x) for x in out)),),
}

COUNT_METRICS = ("autodiff.tape_nodes", "autodiff.tape_nodes_max",
                 "kernels.scatter_add_rows.rows", "rgcn.edges", "decoder.rows_scored",
                 "decoder.negatives_drawn", "checkpoint.bytes", "evaluation.queries",
                 "ted.tuples")


def metric_prefix(span: str) -> str:
    """Metric names start with a letter, so `_kernels.x` reports as `kernels.x`."""
    return span.lstrip("_")


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = [f"{metric_prefix(span)}.{kind}" for span in SPANS
             for kind in ("calls", "s", "self_s")]
    return names + list(COUNT_METRICS) + ["rgcn.encodes_per_step", "trace.items_per_s"]


def _resolve(dotted: str):
    """'model.TempModel.snapshot_loss' -> (owner object, attribute name, module)."""
    parts = dotted.split(".")
    module = importlib.import_module(f"tempkg.{parts[0]}")
    owner = module
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    if len(parts) == 2 and isinstance(getattr(module, parts[1]), type):
        return getattr(module, parts[1]), "__init__", module  # a class: time its build
    return owner, parts[-1], module


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []     # [name index, parent id, start, end, segment]
        self.segments: list[tuple[str, dict]] = []   # (kind, counters) per segment
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # --- installing -------------------------------------------------------------

    def _count(self, reads, args, out) -> None:
        counts = self.segments[-1][1]
        for counter, read in reads:
            amount = read(args, out)
            if counter.endswith("_max"):
                counts[counter] = max(counts[counter], amount)
            else:
                counts[counter] += amount

    def _wrap(self, fn, span: str | None, reads):
        spans, stack = self.spans, self._stack
        if span is not None:
            name_id = len(self.names)
            self.names.append(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span is None:
                out = fn(*args, **kwargs)
            else:
                sid = len(spans)
                record = [name_id, stack[-1] if stack else -1, 0.0, 0.0,
                          len(self.segments) - 1]
                spans.append(record)
                stack.append(sid)
                record[2] = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    record[3] = time.perf_counter()
                    stack.pop()
            if reads:
                self._count(reads, args, out)
            return out

        return wrapper

    def _patch(self, owner, attr: str, module, wrapper) -> None:
        original = getattr(owner, attr)
        targets = [owner]
        if owner is module:  # also rebind names imported with `from ... import`
            targets += [m for key, m in sys.modules.items()
                        if key.startswith("tempkg.") and m is not module
                        and getattr(m, attr, None) is original]
        for target in targets:
            self._saved.append((target, attr, original))
            setattr(target, attr, wrapper)

    @contextlib.contextmanager
    def installed(self):
        """Trace every function of SPANS and COUNTERS until the block exits."""
        try:
            for dotted in dict.fromkeys(SPANS + tuple(COUNTERS)):
                owner, attr, module = _resolve(dotted)
                span = metric_prefix(dotted) if dotted in SPANS else None
                wrapper = self._wrap(getattr(owner, attr), span, COUNTERS.get(dotted))
                self._patch(owner, attr, module, wrapper)
            yield self
        finally:
            for target, attr, original in reversed(self._saved):
                setattr(target, attr, original)
            self._saved.clear()

    # --- segments and aggregation ---------------------------------------------------

    def begin(self, kind: str) -> None:
        """Start a segment ('setup' or 'pass'); counters restart from zero."""
        self.segments.append((kind, dict.fromkeys(COUNT_METRICS + ("steps",), 0)))

    def _segment_metrics(self) -> list[dict[str, float]]:
        """Calls, total and self seconds per span, plus counters, per segment."""
        child = [0.0] * len(self.spans)
        for name_id, parent, start, end, seg in self.spans:
            if parent >= 0:
                child[parent] += end - start
        span_metrics = metric_names()[:3 * len(SPANS)]
        out = [dict(dict.fromkeys(span_metrics, 0.0), **counts)
               for _, counts in self.segments]
        for sid, (name_id, parent, start, end, seg) in enumerate(self.spans):
            span, m = self.names[name_id], out[seg]
            m[f"{span}.calls"] += 1
            m[f"{span}.s"] += end - start
            m[f"{span}.self_s"] += end - start - child[sid]
        return out

    def per_layer(self, items_per_s: float) -> dict[str, float]:
        """Median setup segment plus median pass segment, metric by metric."""
        by_kind: dict[str, list[dict]] = {}
        for (kind, _), metrics in zip(self.segments, self._segment_metrics()):
            by_kind.setdefault(kind, []).append(metrics)
        total: dict[str, float] = {}
        for segs in by_kind.values():
            for name in segs[0]:
                total[name] = total.get(name, 0.0) + statistics.median(s[name] for s in segs)
        steps = total.pop("steps")
        total["rgcn.encodes_per_step"] = (total["rgcn.encode_snapshot.calls"] / steps
                                          if steps else 0.0)
        total["trace.items_per_s"] = items_per_s
        return {name: total[name] for name in metric_names()}

    def write(self, path) -> None:
        """All spans of the run, with their names and segments, as gzipped JSON."""
        doc = {"names": self.names,
               "segments": [kind for kind, _ in self.segments],
               "fields": ["name", "parent", "start", "end", "segment"],
               "spans": self.spans}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)
