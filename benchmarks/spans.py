"""Span tracing for the benchmark, installed from outside the program.

A ``Tracer`` replaces a public function at the name its *calling* module
binds (``augqual.qa.adam_step``, not ``augqual.numerics.adam_step``), so
every real call is caught: Python looks module globals up at call time.
``util.dumps_canonical`` recurses through its own module global, so it is
hooked only at its callers' bindings and each span is one top-level call.

Spans stay in memory and are written out once, when the process ends. Each
span records its name, start, end, parent span and the id of the pass it
belongs to. ``layer_metrics`` turns the spans of one pass into the
per-layer metrics listed in ``benchmarks/README.md``.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import sys
import time

# (calling module, bound name, span name, what to measure after the call)
HOOKS = [
    ("augqual.pipeline", "run_pipeline", "pipeline.run", "cpu"),
    ("augqual.pipeline", "generate_corpus", "corpus.generate", None),
    ("augqual.cli", "generate_corpus", "corpus.generate", None),
    ("augqual.pipeline", "save_corpus", "corpus.save", ("file", 1)),
    ("augqual.cli", "save_corpus", "corpus.save", ("file", 1)),
    ("augqual.pipeline", "corpus_checksum", "corpus.checksum", None),
    ("augqual.qa", "corpus_checksum", "corpus.checksum", None),
    ("augqual.cli", "corpus_checksum", "corpus.checksum", None),
    ("augqual.cli", "load_corpus", "corpus.load", None),
    ("augqual.qa", "forge_batch", "forge.batch", "items"),
    ("augqual.pipeline", "train_stage0", "qa.stage0", None),
    ("augqual.cli", "train_stage0", "qa.stage0", None),
    ("augqual.qa", "qa_loss_and_grads", "qa.grad", None),
    ("augqual.qa", "adam_step", "numerics.adam", None),
    ("augqual.qa", "score_corpus", "qa.score", None),
    ("augqual.pipeline", "export_weights", "qa.export", ("file", 3)),
    ("augqual.cli", "export_weights", "qa.export", ("file", 3)),
    ("augqual.pipeline", "save_qa_snapshot", "qa.snapshot_save", ("file", 2)),
    ("augqual.cli", "save_qa_snapshot", "qa.snapshot_save", ("file", 2)),
    ("augqual.cli", "load_qa_snapshot", "qa.snapshot_load", None),
    ("augqual.cli", "load_weight_file", "qa.weights_load", None),
    ("augqual.pipeline", "train_stage1", "finetune.stage1", None),
    ("augqual.cli", "train_stage1", "finetune.stage1", None),
    ("augqual.finetune", "verify_weight_file", "finetune.verify", None),
    ("augqual.finetune", "adam_step", "numerics.adam", None),
    ("augqual.pipeline", "save_head_snapshot", "finetune.snapshot_save", ("file", 3)),
    ("augqual.cli", "save_head_snapshot", "finetune.snapshot_save", ("file", 3)),
    ("augqual.cli", "load_head_snapshot", "finetune.snapshot_load", None),
    ("augqual.pipeline", "predict_all", "finetune.predict", None),
    ("augqual.cli", "predict_all", "finetune.predict", None),
    ("augqual.pipeline", "compute_metrics", "metrics.compute", None),
    ("augqual.cli", "compute_metrics", "metrics.compute", None),
    ("augqual.qa", "dumps_canonical", "util.dumps", "text"),
    ("augqual.finetune", "dumps_canonical", "util.dumps", "text"),
    ("augqual.pipeline", "dumps_canonical", "util.dumps", "text"),
]


class Tracer:
    """Records one span per wrapped call; not thread-safe (the program is not threaded)."""

    def __init__(self, pass_id: str):
        self.pass_id = pass_id
        self.pid = os.getpid()
        self.spans = []
        self.absent = {}      # "module.name" no longer bound -> its span name
        self._stack = []

    def install(self) -> None:
        """Wrap every hook whose calling module this process has imported."""
        for module_name, attr, span_name, measure in HOOKS:
            module = sys.modules.get(module_name)
            if module is None:
                continue      # that module is not part of this process
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent[f"{module_name}.{attr}"] = span_name
                continue
            setattr(module, attr, self._wrap(fn, span_name, measure))

    def _wrap(self, fn, span_name, measure):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(span_name) as span:
                cpu0 = time.process_time() if measure == "cpu" else 0.0
                result = fn(*args, **kwargs)
                if measure == "cpu":
                    span["cpu"] = time.process_time() - cpu0
            if measure == "items":
                items = getattr(result, "items", None)
                if isinstance(items, (tuple, list)):
                    span["items"] = len(items)
            elif measure == "text":
                span["bytes"] = len(result.encode("utf-8"))
            elif isinstance(measure, tuple):
                path = args[measure[1]] if len(args) > measure[1] else kwargs.get("path")
                if path is not None and os.path.exists(path):
                    span["bytes"] = os.path.getsize(path)
            return result
        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "pass": self.pass_id, "pid": self.pid}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        except BaseException as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def dump(self) -> dict:
        return {"pass": self.pass_id, "pid": self.pid, "spans": self.spans,
                "absent_hooks": self.absent}


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class PassSpans:
    """The spans of one pass, from every process it ran, indexed for queries."""

    def __init__(self, dumps):
        self.children = {}
        self.by_name = {}
        for d in dumps:
            for s in d["spans"]:
                self.by_name.setdefault(s["name"], []).append(s)
                if s["parent"] is not None:
                    self.children.setdefault((s["pid"], s["parent"]), []).append(s)

    def named(self, name):
        return self.by_name.get(name, [])

    def kids(self, span):
        return self.children.get((span["pid"], span["id"]), [])

    def by_parent(self, name, parent_name):
        """Spans called ``name`` whose direct parent is called ``parent_name``."""
        parents = {(s["pid"], s["id"]) for s in self.named(parent_name)}
        return [s for s in self.named(name) if (s["pid"], s["parent"]) in parents]

    def seed_durations(self):
        """Per-seed spans of run_pipeline, which has no per-seed function.

        A seed starts when run_pipeline calls generate_corpus and ends when its
        last compute_metrics call returns; the report write after the last seed
        is not part of any seed.
        """
        out = []
        for run in self.named("pipeline.run"):
            kids = sorted(self.kids(run), key=lambda c: c["start"])
            starts = [i for i, c in enumerate(kids) if c["name"] == "corpus.generate"]
            for k, i in enumerate(starts):
                group = kids[i:starts[k + 1] if k + 1 < len(starts) else len(kids)]
                ends = [c["end"] for c in group if c["name"] == "metrics.compute"]
                if ends:
                    out.append(max(ends) - kids[i]["start"])
        return out


# Per-layer metric -> (span it is measured on, how). "total" sums span
# durations, "self" subtracts the time the span's children cover, "calls"
# counts spans, "bytes"/"items" sum what the wrapper measured after the call.
METRICS = {
    "cli.import_s": ("cli.import", "median"),
    "cli.command_s": ("cli.command", "median"),
    "cli.cpu_s": ("cli.command", "process_cpu"),
    "corpus.generate_s": ("corpus.generate", "total"),
    "corpus.save_s": ("corpus.save", "total"),
    "corpus.save_bytes": ("corpus.save", "bytes"),
    "corpus.checksum_s": ("corpus.checksum", "total"),
    "corpus.checksum_calls": ("corpus.checksum", "calls"),
    "corpus.load_s": ("corpus.load", "total"),
    "corpus.load_calls": ("corpus.load", "calls"),
    "forge.batch_s": ("forge.batch", "total"),
    "forge.batch_calls": ("forge.batch", "calls"),
    "forge.items": ("forge.batch", "items"),
    "qa.stage0_s": ("qa.stage0", "total"),
    "qa.stage0_self_s": ("qa.stage0", "self"),
    "qa.grad_s": ("qa.grad", "total"),
    "qa.grad_calls": ("qa.grad", "calls"),
    "qa.score_s": ("qa.score", "total"),
    "qa.export_s": ("qa.export", "total"),
    "qa.weights_bytes": ("qa.export", "bytes"),
    "qa.snapshot_save_s": ("qa.snapshot_save", "total"),
    "qa.snapshot_bytes": ("qa.snapshot_save", "bytes"),
    "qa.snapshot_load_s": ("qa.snapshot_load", "total"),
    "qa.weights_load_s": ("qa.weights_load", "total"),
    "numerics.adam_s": ("numerics.adam", "total"),
    "numerics.adam_s.stage0": ("numerics.adam", ("total", "qa.stage0")),
    "numerics.adam_s.stage1": ("numerics.adam", ("total", "finetune.stage1")),
    "numerics.adam_calls": ("numerics.adam", "calls"),
    "numerics.adam_calls.stage0": ("numerics.adam", ("calls", "qa.stage0")),
    "numerics.adam_calls.stage1": ("numerics.adam", ("calls", "finetune.stage1")),
    "finetune.stage1_s": ("finetune.stage1", "total"),
    "finetune.stage1_self_s": ("finetune.stage1", "self"),
    "finetune.verify_s": ("finetune.verify", "total"),
    "finetune.snapshot_save_s": ("finetune.snapshot_save", "total"),
    "finetune.snapshot_bytes": ("finetune.snapshot_save", "bytes"),
    "finetune.snapshot_load_s": ("finetune.snapshot_load", "total"),
    "finetune.predict_s": ("finetune.predict", "total"),
    "metrics.compute_s": ("metrics.compute", "total"),
    "pipeline.seed_s": ("pipeline.run", "seed_median"),
    "pipeline.seed_max_s": ("pipeline.run", "seed_max"),
    "pipeline.self_s": ("pipeline.run", "self"),
    "pipeline.cpu_s": ("pipeline.run", "cpu"),
    "util.dumps_s": ("util.dumps", "total"),
    "util.dumps_calls": ("util.dumps", "calls"),
    "util.dumps_bytes": ("util.dumps", "bytes"),
}


def layer_metrics(dumps, processes) -> dict:
    """Per-layer metrics of one pass: name -> value (0 when the span never ran).

    ``processes`` holds one entry per process of the pass with its CPU time
    (user + system, from the parent's wait4) as ``cpu_s``.
    """
    p = PassSpans(dumps)
    seeds = p.seed_durations()
    out = {}
    for metric, (name, how) in METRICS.items():
        spans = p.named(name)
        if isinstance(how, tuple):
            spans = p.by_parent(name, how[1])
            how = how[0]
        durations = [s["end"] - s["start"] for s in spans]
        if how == "total":
            value = sum(durations)
        elif how == "median":
            value = statistics.median(durations) if durations else 0.0
        elif how == "calls":
            value = len(spans)
        elif how in ("bytes", "items", "cpu"):
            value = sum(s.get(how, 0) for s in spans)
        elif how == "self":
            value = sum(d - _union_length((c["start"], c["end"]) for c in p.kids(s))
                        for s, d in zip(spans, durations))
        elif how == "process_cpu":
            value = sum(proc["cpu_s"] for proc in processes)
        elif how == "seed_median":
            value = statistics.median(seeds) if seeds else 0.0
        else:  # seed_max
            value = max(seeds, default=0.0)
        out[metric] = value
    return out


def span_counts(dumps) -> dict:
    counts = {}
    for d in dumps:
        for s in d["spans"]:
            counts[s["name"]] = counts.get(s["name"], 0) + 1
    return counts


def nesting_errors(dumps) -> list:
    """Spans that are not inside their parent's interval, or are unclosed."""
    errors = []
    for d in dumps:
        by_id = {s["id"]: s for s in d["spans"]}
        for s in d["spans"]:
            if "end" not in s or s["end"] < s["start"]:
                errors.append(f"pid {d['pid']} span {s['id']} {s['name']} is not closed")
                continue
            parent = by_id.get(s["parent"]) if s["parent"] is not None else None
            if s["parent"] is not None and parent is None:
                errors.append(f"pid {d['pid']} span {s['id']} has unknown parent")
            elif parent is not None and not (
                    parent["start"] <= s["start"] and s["end"] <= parent["end"]):
                errors.append(f"pid {d['pid']} span {s['id']} {s['name']} lies "
                              f"outside its parent {parent['name']}")
    return errors
