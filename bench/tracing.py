"""Timing spans around the public functions of each sopa layer.

SPAN_TABLE is the one place that maps a span to the function it wraps.
A Tracer patches those functions (and the copies that other modules
imported by name) with wrappers that record (name, start, end, parent,
attrs) in memory; per_layer_metrics() turns the recorded spans into the
per-layer figures.  The semiring layer is measured by exact operation
counts (sopa.semiring.CountingSemiring), not by spans, because its
functions run once per array operation of the recurrence.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time


def _encode_attrs(args, kwargs, result):
    tape = kwargs.get("tape", args[4] if len(args) > 4 else None)
    return {"grad": bool(tape is not None and tape.grad_enabled),
            "tokens": sum(len(d.token_ids) for d in args[1])}


def _trace_attrs(args, kwargs, result):
    return {"refused": result is None}


# span name, module, attribute path, modules holding a by-name import of it,
# attrs recorded from (args, kwargs, result)
SPAN_TABLE = [
    ("embeddings.load", "sopa.embeddings", "load_embeddings", (), None),
    ("embeddings.read_dataset", "sopa.embeddings", "read_dataset", (), None),
    ("embeddings.gather", "sopa.embeddings", "EmbeddingMatrix.doc_matrix", (), None),
    ("automata.encode", "sopa.automata", "encode_documents", ("sopa.classifier",),
     _encode_attrs),
    ("automata.trace", "sopa.automata", "trace_best_match", ("sopa.interpret",),
     _trace_attrs),
    ("autodiff.projection", "sopa.autodiff", "Tape.pattern_affine", (), None),
    ("autodiff.backward", "sopa.autodiff", "Tape.backward", (), None),
    ("autodiff.adam", "sopa.autodiff", "Adam.step", (), None),
    ("classifier.train", "sopa.classifier", "train", (), None),
    ("classifier.evaluate", "sopa.classifier", "evaluate", (), None),
    ("classifier.load_model", "sopa.classifier", "load_model", (), None),
    ("interpret.top_k", "sopa.interpret", "top_k_phrases", (), None),
    ("interpret.contributions", "sopa.interpret", "pattern_contributions", (), None),
]


class Tracer:
    """Records spans while installed; restores every patched function on uninstall."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, attrs]
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def install(self):
        self.missing = []
        for name, module, path, aliases, attrs in SPAN_TABLE:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self.missing.append(name)
                continue
            self._patch(owner, attr, self._wrap(name, original, attrs))
            for alias in aliases:
                alias_module = importlib.import_module(alias)
                if getattr(alias_module, attr, None) is original:
                    self._patch(alias_module, attr, getattr(owner, attr))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def _patch(self, owner, attr, replacement):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, name, fn, attrs):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = time.perf_counter()
            if attrs is not None:
                record[4] = attrs(args, kwargs, result)
            return result
        return wrapper

    def write(self, path: str, header: dict):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header, "missing_spans": self.missing}) + "\n")
            for name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "attrs": attrs}) + "\n")


def _self_times(spans: list[list]) -> list[float]:
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _steps_and_dev_passes(spans, train_index, steps_per_epoch):
    """Train step and dev pass intervals of one train() span.

    A step runs from its grad-tape encode_documents call to the end of the
    Adam step that follows; an epoch's dev pass runs from its last Adam step
    to the next step's encode (or the end of train()).
    """
    children = [i for i, s in enumerate(spans) if s[3] == train_index]
    steps, open_step = [], None
    for i in children:
        name, start, end, _, attrs = spans[i]
        if name == "automata.encode" and attrs["grad"]:
            open_step = {"start": start, "inner": 0.0}
        if open_step is None:
            continue
        if name in ("automata.encode", "autodiff.backward", "autodiff.adam"):
            open_step["inner"] += end - start
        if name == "autodiff.adam":
            steps.append((open_step["start"], end, open_step["inner"]))
            open_step = None
    dev = []
    train_end = spans[train_index][2]
    for k in range(steps_per_epoch - 1, len(steps), steps_per_epoch):
        nxt = steps[k + 1][0] if k + 1 < len(steps) else train_end
        dev.append(nxt - steps[k][1])
    return steps, dev


def per_layer_metrics(tracer: Tracer, repeats: int, steps_per_epoch: int) -> dict:
    """Per-layer figures from spans recorded over `repeats` identical sequences."""
    spans = tracer.spans
    selfs = _self_times(spans)

    def of(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def total(idx):
        return sum(spans[i][2] - spans[i][1] for i in idx)

    def mean(value, count):
        return value / count if count else 0.0

    def per_call(idx):
        return mean(total(idx), len(idx))

    encodes = of("automata.encode")
    grad = [i for i in encodes if spans[i][4]["grad"]]
    nograd = [i for i in encodes if not spans[i][4]["grad"]]
    tok_grad = sum(spans[i][4]["tokens"] for i in grad)
    tok_all = sum(spans[i][4]["tokens"] for i in encodes)
    traces = of("automata.trace")
    steps, dev = [], []
    for t in of("classifier.train"):
        s, d = _steps_and_dev_passes(spans, t, steps_per_epoch)
        steps += s
        dev += d
    contrib, top_k = of("interpret.contributions"), of("interpret.top_k")
    return {
        "embeddings.load_s": per_call(of("embeddings.load")),
        "embeddings.read_dataset_s": total(of("embeddings.read_dataset")) / repeats,
        "embeddings.gather_s": total(of("embeddings.gather")) / repeats,
        "embeddings.gather_calls": len(of("embeddings.gather")) / repeats,
        "automata.forward_grad_us_per_token":
            1e6 * mean(sum(selfs[i] for i in grad), tok_grad),
        "automata.forward_nograd_us_per_token":
            1e6 * mean(sum(selfs[i] for i in nograd), tok_all - tok_grad),
        "automata.trace_ms_per_pair": 1e3 * per_call(traces),
        "automata.trace_calls": len(traces) / repeats,
        "automata.trace_refused": sum(spans[i][4]["refused"] for i in traces) / repeats,
        "autodiff.projection_us_per_token":
            1e6 * mean(total(of("autodiff.projection")), tok_all),
        "autodiff.backward_us_per_token":
            1e6 * mean(total(of("autodiff.backward")), tok_grad),
        "autodiff.adam_ms_per_step": 1e3 * per_call(of("autodiff.adam")),
        "classifier.train_step_ms":
            1e3 * statistics.median([end - start for start, end, _ in steps]) if steps else 0.0,
        "classifier.train_steps": len(steps) / repeats,
        "classifier.step_other_ms":
            1e3 * statistics.median([end - start - inner for start, end, inner in steps])
            if steps else 0.0,
        "classifier.dev_pass_s": statistics.median(dev) if dev else 0.0,
        "classifier.load_model_s": per_call(of("classifier.load_model")),
        "interpret.top_k_self_s": sum(selfs[i] for i in top_k) / repeats,
        "interpret.contrib_self_ms": 1e3 * mean(sum(selfs[i] for i in contrib), len(contrib)),
        "trace.missing_spans": float(len(tracer.missing)),
    }

