"""Workloads of the sopa benchmark: seeded inputs and the measured session.

Every workload writes an embedding file, label<TAB>text train/dev/test
files and a seeded model file, so the real parsers run.  Its session then
drives the public sopa API the way the CLI does: set-up (load_embeddings,
read_dataset, load_model), train() for a fixed number of epochs, evaluate()
on the test split, top_k_phrases for every pattern (`explain --mode
patterns`, max semirings only) and pattern_contributions per document
(`explain --mode doc`).  Workloads differ in document length, embedding
width, vocabulary and semiring, so a different layer dominates each.

All workloads use the pattern spec 6:10,5:10,4:10 with self-loops and
epsilons on and the sigmoid encoder.  Document lengths are spread evenly
over the workload's range and shuffled by the seed, so every seed gives the
same length multiset and the same padded batch shapes.  Words are drawn
from a Zipf distribution; positive documents carry a planted trigram.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

import sopa.automata as automata
import sopa.classifier as classifier
import sopa.embeddings as embeddings
import sopa.interpret as interpret
from sopa.autodiff import Param, Tape
from sopa.reference import dense_doc_score
from sopa.semiring import CountingSemiring, get_semiring

import tracing

PATTERN_SPEC = {6: 10, 5: 10, 4: 10}
ENCODER = "sigmoid"
MLP_HIDDEN = 25
EPOCHS = 1
EVAL_BATCH = 150      # evaluate()'s default, as `sopa eval` runs it
TOP_K = 5             # `explain --k` default
TOP_N = 5             # `explain --top-n` default
SETUP_REPEATS = 3     # at least, and until SETUP_SECONDS have been spent
SETUP_SECONDS = 2.0
ORACLE_WINDOW = 10    # tokens per oracle-checked document prefix
ORACLE_TOLERANCE = 1e-10
PROBE_BATCH = 32
PROBE_LENGTHS = (64, 256)


@dataclass(frozen=True)
class Workload:
    name: str
    vocab: int
    dim: int
    doc_len: tuple[int, int]
    semiring: str
    batch_size: int
    splits: tuple[int, int, int]  # train, dev, test documents
    top_k_docs: int  # documents explained per round by --mode patterns; 0 = none
    explain_docs: int  # documents explained per round by --mode doc
    check_docs: int  # test documents in the oracle and trace-replay checks


WORKLOADS = {w.name: w for w in (
    # The recurrence and its quadratic backward dominate; batch 32 because
    # at the default 150 the backward would need several GB.
    Workload("train-long", vocab=2000, dim=50, doc_len=(192, 320),
             semiring="max-product", batch_size=32, splits=(32, 8, 16),
             top_k_docs=0, explain_docs=3, check_docs=1),
    # The token projection dominates and parsing a 20k x 300 embedding file
    # makes set-up matter; sum-product has the non-idempotent backward.
    Workload("train-short-wide", vocab=20000, dim=300, doc_len=(8, 24),
             semiring="sum-product", batch_size=150, splits=(150, 150, 150),
             top_k_docs=0, explain_docs=40, check_docs=6),
    # Grad-free scoring and the pure-Python traceback dominate; training is
    # a short side stage.
    Workload("infer-explain", vocab=2000, dim=50, doc_len=(16, 40),
             semiring="max-sum", batch_size=150, splits=(150, 150, 120),
             top_k_docs=10, explain_docs=30, check_docs=10),
)}

E2E_UNITS = {
    "setup_s": "s",
    "train_tokens_per_s": "tokens/s",
    "eval_docs_per_s": "docs/s",
    "explain_doc_ms_p50": "ms",
    "explain_doc_ms_p90": "ms",
    "peak_rss_mb": "MiB",
}
# printed where the workload exercises them; not every workload can
SUMMARY_UNITS = {"explain_pairs_per_s": "pairs/s", "failed_frac": "ratio"}

LAYER_UNITS = {
    "embeddings.load_s": "s",
    "embeddings.load_rows_per_s": "rows/s",
    "embeddings.read_dataset_s": "s",
    "embeddings.gather_s": "s",
    "embeddings.gather_calls": "count",
    "automata.forward_grad_us_per_token": "us",
    "automata.forward_nograd_us_per_token": "us",
    "automata.trace_calls": "count",
    "automata.trace_refused": "count",
    "autodiff.projection_us_per_token": "us",
    "autodiff.backward_us_per_token": "us",
    "autodiff.backward_us_per_token.n64": "us",
    "autodiff.backward_us_per_token.n256": "us",
    "autodiff.backward_n256_over_n64": "ratio",
    "autodiff.adam_ms_per_step": "ms",
    "autodiff.tape_nodes_per_token": "count",
    "semiring.ops_per_token": "count",
    "classifier.train_step_ms": "ms",
    "classifier.train_steps": "count",
    "classifier.step_other_ms": "ms",
    "classifier.dev_pass_s": "s",
    "classifier.load_model_s": "s",
    "interpret.contrib_self_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.missing_spans": "count",
}
# zero on workloads without traceback (sum-product) or top-k reports
LAYER_SUMMARY_UNITS = {"automata.trace_ms_per_pair": "ms", "interpret.top_k_self_s": "s"}


class Tally:
    """Attempted and failed operations: train steps, eval batches, explain
    reports, oracle and trace-replay pairs, exact-count repeats."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int = 0):
        self.attempted += attempted
        self.failed += failed


@dataclass
class Session:
    vocab: embeddings.Vocabulary
    emb: embeddings.EmbeddingMatrix
    train: list
    dev: list
    test: list
    model: classifier.ModelBundle


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _contains(ids, tri) -> bool:
    return any(tuple(ids[i:i + 3]) == tri for i in range(len(ids) - 2))


def generate(w: Workload, seed: int, workdir: str) -> dict:
    """Write the workload's input files; the same seed writes the same bytes."""
    rng = np.random.default_rng(seed)
    words = [f"w{i:05d}" for i in range(w.vocab)]
    paths = {"embeddings": os.path.join(workdir, "vectors.txt"),
             "model": os.path.join(workdir, "model.json")}
    row = " ".join(["%.6f"] * w.dim)
    vectors = rng.normal(size=(w.vocab, w.dim)).tolist()
    with open(paths["embeddings"], "w", encoding="utf-8") as fh:
        fh.writelines(f"{word} {row % tuple(v)}\n" for word, v in zip(words, vectors))

    cdf = np.cumsum(1.0 / np.arange(1, w.vocab + 1))
    cdf /= cdf[-1]
    trigram = tuple(int(i) for i in rng.choice(np.arange(w.vocab // 10, w.vocab // 2),
                                               size=3, replace=False))
    lo, hi = w.doc_len
    for split, count in zip(("train", "dev", "test"), w.splits):
        lengths = rng.permutation(np.linspace(lo, hi, count).round().astype(int))
        labels = rng.permutation(np.arange(count) % 2)
        lines = []
        for n, label in zip(lengths.tolist(), labels.tolist()):
            while True:
                ids = np.searchsorted(cdf, rng.random(n)).tolist()
                if label:
                    at = int(rng.integers(0, n - 2))
                    ids[at:at + 3] = trigram
                    break
                if not _contains(ids, trigram):
                    break
            lines.append(f"{label}\t{' '.join(words[i] for i in ids)}\n")
        paths[split] = os.path.join(workdir, f"{split}.tsv")
        with open(paths[split], "w", encoding="utf-8") as fh:
            fh.writelines(lines)

    config = automata.PatternSetConfig(pattern_spec=PATTERN_SPEC, semiring=w.semiring,
                                       encoder=ENCODER)
    model = classifier.ModelBundle(
        patterns=automata.make_patterns(config, w.dim, rng),
        mlp=classifier.MlpParams.random(config.total_patterns, MLP_HIDDEN, 2, rng),
        config=config,
        vocab_fingerprint=embeddings.Vocabulary(words=words, dim=w.dim).fingerprint(),
        num_classes=2)
    classifier.save_model(model, paths["model"])
    return paths


# ---------------------------------------------------------------------------
# session stages; each checks its own outputs into the tally
# ---------------------------------------------------------------------------

def set_up(paths: dict) -> Session:
    vocab, emb = embeddings.load_embeddings(paths["embeddings"])
    splits = [embeddings.read_dataset(paths[s], vocab) for s in ("train", "dev", "test")]
    return Session(vocab, emb, *splits, model=classifier.load_model(paths["model"]))


def steps_per_epoch(w: Workload) -> int:
    return math.ceil(w.splits[0] / w.batch_size)


def train_once(w: Workload, seed: int, s: Session, tally: Tally, reference: list):
    """One train() call; returns (tokens, seconds).  reference holds the
    first call's log, which every later fixed-seed call must repeat."""
    config = classifier.TrainConfig(
        pattern_spec=PATTERN_SPEC, semiring=w.semiring, encoder=ENCODER,
        mlp_hidden=MLP_HIDDEN, batch_size=w.batch_size, max_epochs=EPOCHS,
        patience=EPOCHS, seed=seed)
    steps = EPOCHS * steps_per_epoch(w)
    t0 = time.perf_counter()
    try:
        _, log = classifier.train(s.train, s.dev, s.vocab, s.emb, config)
    except classifier.TrainingDiverged:
        tally.add(steps, steps)
        return None
    seconds = time.perf_counter() - t0
    finite = all(math.isfinite(r["train_loss"]) and math.isfinite(r["dev_loss"]) for r in log)
    if not reference:
        reference.append(log)
    ok = finite and len(log) == EPOCHS and log == reference[0]
    tally.add(steps, 0 if ok else steps)
    return EPOCHS * sum(len(d) for d in s.train), seconds


def eval_once(s: Session, tally: Tally, reference: list):
    t0 = time.perf_counter()
    metrics = classifier.evaluate(s.model, s.test, s.vocab, s.emb, batch_size=EVAL_BATCH)
    seconds = time.perf_counter() - t0
    if not reference:
        reference.append(metrics)
    ok = (metrics["total"] == len(s.test) and metrics == reference[0]
          and sum(c["total"] for c in metrics["per_class"].values()) == len(s.test))
    batches = math.ceil(len(s.test) / EVAL_BATCH)
    tally.add(batches, 0 if ok else batches)
    return len(s.test), seconds


def _spread(docs: list, count: int) -> list:
    """`count` documents at evenly spaced length quantiles of docs.  Every round
    explains the same ones, so latency percentiles do not depend on how many
    rounds a run fits."""
    docs = sorted(docs, key=len)
    return [docs[int((j + 0.5) * len(docs) / count)] for j in range(count)]


def top_k_once(w: Workload, s: Session, tally: Tally):
    """explain --mode patterns: every pattern's top-k over the explained documents."""
    docs = _spread(s.test, w.top_k_docs)
    t0 = time.perf_counter()
    reports = [interpret.top_k_phrases(s.model, docs, s.vocab, s.emb, p, TOP_K)
               for p in range(s.model.num_patterns)]
    seconds = time.perf_counter() - t0
    bad = sum(len(r.entries) != min(TOP_K, len(docs))
              or any(a.score < b.score for a, b in zip(r.entries, r.entries[1:]))
              for r in reports)
    tally.add(len(reports), bad)
    return len(docs) * s.model.num_patterns, seconds


def contributions_once(w: Workload, s: Session, tally: Tally) -> list[float]:
    """explain --mode doc for each explained document; returns latencies in ms."""
    traceable = get_semiring(s.model.config.semiring).idempotent_plus
    latencies, bad = [], 0
    for doc in _spread(s.test, w.explain_docs):
        t0 = time.perf_counter()
        report = interpret.pattern_contributions(s.model, doc, s.vocab, s.emb, top_n=TOP_N)
        latencies.append(1e3 * (time.perf_counter() - t0))
        bad += (len(report.contributions) != s.model.num_patterns
                or not 0.0 < report.predicted_probability <= 1.0
                or len(report.top) != TOP_N
                or (traceable and any(e.phrase is None for e in report.top)))
    tally.add(len(latencies), bad)
    return latencies


def check_outputs(w: Workload, s: Session, tally: Tally):
    """Engine scores against the dense oracle on document prefixes, and, under
    max semirings, best-match traces against the scores they explain."""
    model, sr = s.model, get_semiring(s.model.config.semiring)
    groups = automata.group_patterns(model.patterns)
    docs = s.test[:w.check_docs]
    windows = [embeddings.TokenizedDocument(d.token_ids[:ORACLE_WINDOW],
                                            d.raw_tokens[:ORACLE_WINDOW], d.label, d.doc_id)
               for d in docs]
    z, _, _ = automata.encode_documents(groups, windows, s.emb, model.config)
    bad = 0
    for i, doc in enumerate(windows):
        matrix = s.emb.doc_matrix(doc)
        for p, pattern in enumerate(model.patterns):
            oracle = dense_doc_score(pattern, matrix, model.config)
            engine = float(z.value[i, p])
            bad += not (engine == oracle or abs(engine - oracle)
                        <= ORACLE_TOLERANCE * max(abs(engine), abs(oracle)))
    tally.add(z.value.size, bad)
    if not sr.idempotent_plus:
        return
    z, _, _ = automata.encode_documents(groups, docs, s.emb, model.config)
    bad = 0
    for i, doc in enumerate(docs):
        for p, pattern in enumerate(model.patterns):
            score = float(z.value[i, p])
            if score == sr.zero:
                continue
            trace = automata.trace_best_match(pattern, doc, s.emb, model.config,
                                              pattern_index=p)
            bad += (trace is None or trace.score != score
                    or automata.replay_trace_score(trace, pattern, doc, s.emb,
                                                   model.config) != score)
    tally.add(z.value.size, bad)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def summarize(name: str, samples: list[float]) -> tuple[float, float, int]:
    """(median, or 90th percentile for *_p90; interquartile range over median; count)."""
    if len(samples) < 2:
        return samples[0], 0.0, len(samples)
    median = statistics.median(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4)
    value = statistics.quantiles(samples, n=10)[8] if name.endswith("_p90") else median
    return value, (q3 - q1) / median if median else 0.0, len(samples)


def run_round(w: Workload, seed: int, s: Session, tally: Tally, samples: dict, refs: dict):
    """One unit of every stage, so each stage is sampled across the whole run.

    Tapes are reference cycles, so the cyclic collector runs before each unit
    and one unit's garbage is not collected on the next unit's clock.
    """
    gc.collect()
    result = train_once(w, seed, s, tally, refs.setdefault("train", []))
    if result is not None:
        samples["train_tokens_per_s"].append(result[0] / result[1])
    gc.collect()
    docs, seconds = eval_once(s, tally, refs.setdefault("eval", []))
    samples["eval_docs_per_s"].append(docs / seconds)
    if w.top_k_docs:
        gc.collect()
        pairs, seconds = top_k_once(w, s, tally)
        samples["explain_pairs_per_s"].append(pairs / seconds)
    gc.collect()
    samples["explain_doc_ms"].extend(contributions_once(w, s, tally))


def _new_samples() -> dict:
    return {name: [] for name in (*E2E_UNITS, *SUMMARY_UNITS, "explain_doc_ms")}


def run_end_to_end(w: Workload, seed: int, seconds: float, paths: dict, tally: Tally) -> dict:
    """Untraced session: set-up, then rounds until another would overrun
    `seconds`; returns {metric: list of samples}."""
    samples = _new_samples()
    while len(samples["setup_s"]) < SETUP_REPEATS or sum(samples["setup_s"]) < SETUP_SECONDS:
        t0 = time.perf_counter()
        s = set_up(paths)
        samples["setup_s"].append(time.perf_counter() - t0)

    refs: dict = {}
    start, rounds = time.perf_counter(), 0
    while rounds == 0 or (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds:
        run_round(w, seed, s, tally, samples, refs)
        rounds += 1
    samples["explain_doc_ms_p50"] = samples["explain_doc_ms_p90"] = samples.pop("explain_doc_ms")

    check_outputs(w, s, tally)
    samples["peak_rss_mb"].append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    samples["failed_frac"].append(tally.failed / tally.attempted)
    return samples


def exact_counts(w: Workload, s: Session) -> tuple[float, float]:
    """Tape nodes per padded position and semiring ops per token position, from
    one grad-enabled encode of the batch_size longest training documents."""
    batch = sorted(s.train, key=len)[-w.batch_size:]
    n_max = max(len(d) for d in batch)
    sr = CountingSemiring(get_semiring(w.semiring))
    tape = Tape(grad=True)
    groups = automata.group_patterns(s.model.patterns, as_params=True)
    automata.encode_documents(groups, batch, s.emb, s.model.config, tape=tape, semiring=sr)
    return len(tape._nodes) / n_max, sr.total / (len(batch) * n_max)


def backward_probe(s: Session, n: int) -> float:
    """Backward microseconds per token for PROBE_BATCH documents of exactly n tokens."""
    pool = np.resize([t for d in s.train for t in d.token_ids], (PROBE_BATCH, n)).tolist()
    docs = [embeddings.TokenizedDocument(ids, [""] * n, label=i % 2)
            for i, ids in enumerate(pool)]
    groups = automata.group_patterns(s.model.patterns, as_params=True)
    leaves = {name: Param(name, getattr(s.model.mlp, name)) for name in ("w1", "b1", "w2", "b2")}
    tape = Tape(grad=True)
    z, _, _ = automata.encode_documents(groups, docs, s.emb, s.model.config, tape=tape)
    logits = classifier._mlp_logits(tape, z, {k: tape.leaf(p) for k, p in leaves.items()},
                                    0.0, None, False)
    loss = tape.cross_entropy(logits, np.array([d.label for d in docs]))
    t0 = time.perf_counter()
    tape.backward(loss)
    return 1e6 * (time.perf_counter() - t0) / (PROBE_BATCH * n)


def run_traced(w: Workload, seed: int, seconds: float, paths: dict, tally: Tally,
               spans_path: str, header: dict) -> dict:
    """Pairs of untraced and traced sessions, then the exact counts and the
    length probe; returns {metric: value}."""
    tracer = tracing.Tracer()
    samples, refs = _new_samples(), {}
    untraced = traced = 0.0
    repeats = 0
    while repeats == 0 or (untraced + traced) * (repeats + 1) / repeats <= seconds:
        t0 = time.perf_counter()
        s = set_up(paths)
        run_round(w, seed, s, tally, samples, refs)
        untraced += time.perf_counter() - t0
        tracer.install()
        try:
            t0 = time.perf_counter()
            s = set_up(paths)
            run_round(w, seed, s, tally, samples, refs)
            traced += time.perf_counter() - t0
        finally:
            tracer.uninstall()
        repeats += 1
    if tracer.missing:
        print(f"missing spans (wrapped function not found): {', '.join(tracer.missing)}")
    metrics = tracing.per_layer_metrics(tracer, repeats, steps_per_epoch(w))
    metrics["embeddings.load_rows_per_s"] = (len(s.vocab) / metrics["embeddings.load_s"]
                                             if metrics["embeddings.load_s"] else 0.0)
    metrics["trace.overhead_frac"] = (traced - untraced) / untraced

    first, second = exact_counts(w, s), exact_counts(w, s)
    tally.add(1, first != second)
    metrics["autodiff.tape_nodes_per_token"], metrics["semiring.ops_per_token"] = first

    short, long = (backward_probe(s, n) for n in PROBE_LENGTHS)
    metrics["autodiff.backward_us_per_token.n64"] = short
    metrics["autodiff.backward_us_per_token.n256"] = long
    metrics["autodiff.backward_n256_over_n64"] = long / short

    check_outputs(w, s, tally)
    tracer.write(spans_path, header)
    return metrics
