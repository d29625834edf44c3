"""In-memory spans around the calls into each ``jocot`` module.

``install`` wraps every public function of the package's modules and binds
the wrapper at every name a caller looks up: the defining module, each
module that imported the name (``jocot.training.gradient``), and the package
itself. ``uninstall`` puts the originals back. A span is a list
``[name, start, end, parent]``, where ``parent`` is the index of the span that
was open when the call began (-1 for none).

A layer's self time is its span's duration minus the part its direct child
spans cover; self times over every span of a round therefore sum to the
duration of the round's root span.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# span names (module without the "jocot." prefix, then function) grouped
# into the layers the per-layer metrics report
GROUPS = {
    "network.forward": ("network.forward",),
    "network.gradient": ("network.gradient",),
    "network.adam_step": ("network.adam_step",),
    "selection.small_loss_select": ("selection.small_loss_select",),
    "selection.consensus": ("selection.inner_consensus", "selection.outer_consensus"),
    "training.epoch": ("training.coteaching_epoch", "training.jocor_epoch",
                       "training.coteachingplus_epoch"),
    "training.train_teachers": ("training.train_teachers", "training.train_module"),
    "training.train_student": ("training.train_student",),
    "training.evaluate": ("training.evaluate",),
    "noise.inject_noise": ("noise.inject_noise",),
    "noise.noisy_label_precision": ("noise.noisy_label_precision",),
    "data.load": ("data.synthesize", "data.load_csv", "data.save_csv"),
    "data.split": ("data.split",),
    "experiment.run_cell": ("experiment.run_cell",),
    "experiment.emit_metrics": ("experiment.emit_metrics",),
}


class Tracer:
    """Spans and counters of one traced round."""

    def __init__(self):
        self.spans: list = []
        self.counts: defaultdict = defaultdict(int)
        self._stack: list = []

    def begin(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        rec = [name, 0.0, 0.0, parent]
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def end(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self.begin(name)
        try:
            yield rec
        finally:
            self.end(rec)

    def self_times(self) -> list:
        """Self time of every span, in span order."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [(end - start) - c for (_, start, end, _), c in zip(self.spans, covered)]


def _wrap(fn, name: str, tracer: Tracer):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(rec)
    return wrapper


def _wrap_rows(fn, name: str, tracer: Tracer, arg: str):
    """Count the rows of the batch argument ``arg`` (positional index 1)."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        batch = kwargs[arg] if arg in kwargs else args[1]
        tracer.counts[name + ".rows"] += len(batch)
        rec = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(rec)
    return wrapper


def _wrap_select(fn, name: str, tracer: Tracer):
    """small_loss_select takes an iterable of (index, loss) pairs; it is
    listed inside the span so that rows ranked can be counted."""
    @functools.wraps(fn)
    def wrapper(per_sample_losses, *args, **kwargs):
        rec = tracer.begin(name)
        try:
            pairs = list(per_sample_losses)
            result = fn(pairs, *args, **kwargs)
        finally:
            tracer.end(rec)
        tracer.counts[name + ".rows"] += len(pairs)
        tracer.counts[name + ".kept"] += len(result)
        return result
    return wrapper


def _wrap_factory(fn, name: str, tracer: Tracer):
    """A make_*_loss_fn factory: the closure it returns is traced too."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = tracer.begin(name)
        try:
            closure = fn(*args, **kwargs)
        finally:
            tracer.end(rec)
        return _wrap(closure, name + ".closure", tracer)
    return wrapper


def _wrap_emit(fn, name: str, tracer: Tracer):
    """emit_metrics returns the written paths; their sizes are counted."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = tracer.begin(name)
        try:
            written = fn(*args, **kwargs)
        finally:
            tracer.end(rec)
        tracer.counts[name + ".bytes"] += sum(p.stat().st_size for p in written)
        return written
    return wrapper


def _make_wrapper(fn, name: str, tracer: Tracer):
    if name in ("network.forward", "network.gradient"):
        return _wrap_rows(fn, name, tracer, "features")
    if name == "selection.small_loss_select":
        return _wrap_select(fn, name, tracer)
    if name.startswith("losses.make_"):
        return _wrap_factory(fn, name, tracer)
    if name == "experiment.emit_metrics":
        return _wrap_emit(fn, name, tracer)
    return _wrap(fn, name, tracer)


def install(tracer: Tracer) -> list:
    """Wrap every public jocot function at every name bound to it.

    Returns the (namespace, attribute, original) triples ``uninstall``
    needs.
    """
    namespaces = [m for n, m in sorted(sys.modules.items())
                  if n == "jocot" or n.startswith("jocot.")]
    wrappers = {}
    for mod in namespaces:
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                short = mod.__name__.removeprefix("jocot.")
                wrappers[id(obj)] = _make_wrapper(obj, f"{short}.{attr}", tracer)
    installed = []
    for mod in namespaces:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers and inspect.isfunction(obj):
                setattr(mod, attr, wrappers[id(obj)])
                installed.append((mod, attr, obj))
    return installed


def uninstall(installed: list) -> None:
    for mod, attr, original in installed:
        setattr(mod, attr, original)


def layer_metrics(tracer: Tracer, teacher_epochs: int, student_epochs: int) -> dict:
    """Per-layer figures of one traced round (without trace.overhead_s).

    Calls and self time are given for every group; BENCHMARK.json picks the
    ones a run reports.
    """
    self_by_name = defaultdict(float)
    incl_by_name = defaultdict(float)
    calls_by_name = defaultdict(int)
    for (name, start, end, _), self_t in zip(tracer.spans, tracer.self_times()):
        self_by_name[name] += self_t
        incl_by_name[name] += end - start
        calls_by_name[name] += 1
    losses = [n for n in calls_by_name if n.startswith("losses.")]

    def total(table, group):
        names = losses if group == "losses" else GROUPS[group]
        return sum(table[n] for n in names)

    out = {}
    for group in (*GROUPS, "losses"):
        out[f"{group}.calls"] = total(calls_by_name, group)
        out[f"{group}.self_s"] = total(self_by_name, group)
    for name in ("network.forward", "network.gradient", "selection.small_loss_select"):
        out[f"{name}.rows"] = tracer.counts[name + ".rows"]
    ranked = tracer.counts["selection.small_loss_select.rows"]
    out["selection.kept_ratio"] = (tracer.counts["selection.small_loss_select.kept"] / ranked
                                   if ranked else 0.0)
    out["training.teacher_epoch_s"] = (total(incl_by_name, "training.epoch") / teacher_epochs
                                       if teacher_epochs else 0.0)
    out["training.student_epoch_s"] = (
        total(incl_by_name, "training.train_student") / student_epochs
        if student_epochs else 0.0)
    out["experiment.emit_metrics.bytes"] = tracer.counts["experiment.emit_metrics.bytes"]
    return out
