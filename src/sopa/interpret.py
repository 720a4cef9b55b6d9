"""Reports that show what trained patterns actually matched.

Two report kinds: per-pattern top-k phrase lists (the best-scoring span per
document, ranked across a dataset) and per-document leave-one-out pattern
contributions (how much the predicted-class probability drops when one
pattern's score is zeroed before the MLP).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from sopa.automata import SELF_LOOP, DocumentScan, MatchTrace
from sopa.classifier import ModelBundle, _check_fingerprint, _check_matchable, mlp_probabilities
from sopa.embeddings import EmbeddingMatrix, TokenizedDocument, Vocabulary
from sopa.semiring import get_semiring

EPSILON_MARK = "ε"  # ε
TRACE_BATCH = 150  # documents scanned together by the top-k reports (evaluate's default)


@dataclass
class PhraseEntry:
    """One matched span: step annotations, source document, span, score."""

    doc_id: int
    start: int  # 1-based, inclusive
    end: int
    score: float
    steps: list[dict] = field(default_factory=list)
    # each step: {"kind": main|self-loop|epsilon, "token": str|None, "state": int}


@dataclass
class PatternReport:
    pattern_index: int
    pattern_length: int
    entries: list[PhraseEntry] = field(default_factory=list)


@dataclass
class ContributionEntry:
    pattern_index: int
    contribution: float
    phrase: PhraseEntry | None


@dataclass
class ContributionReport:
    doc_id: int
    predicted_label: int
    predicted_probability: float
    contributions: list[float] = field(default_factory=list)
    top: list[ContributionEntry] = field(default_factory=list)


def _phrase_from_trace(trace: MatchTrace, doc: TokenizedDocument) -> PhraseEntry:
    steps = []
    for step in trace.steps:
        token = None if step.token_pos is None else doc.raw_tokens[step.token_pos - 1]
        steps.append({"kind": step.kind, "token": token, "state": step.state})
    return PhraseEntry(doc_id=doc.doc_id, start=trace.start, end=trace.end,
                       score=float(trace.score), steps=steps)


def top_k_phrases(model: ModelBundle, dataset: list[TokenizedDocument],
                  vocab: Vocabulary, embeddings: EmbeddingMatrix,
                  pattern_index: int, k: int) -> PatternReport:
    """The k best-scoring matches of one pattern across a dataset.

    Each document contributes its single best span.  Ranking is by descending
    score with ascending document id breaking ties.  Requires a max semiring;
    there is no single best path to report under sum-product.
    """
    if not 0 <= pattern_index < len(model.patterns):
        raise ValueError(f"pattern index {pattern_index} out of range")
    return _top_k(model, dataset, vocab, embeddings, [pattern_index], k)[0]


def top_k_reports(model: ModelBundle, dataset: list[TokenizedDocument],
                  vocab: Vocabulary, embeddings: EmbeddingMatrix,
                  k: int) -> list[PatternReport]:
    """top_k_phrases of every pattern in declared order, scanning each batch
    of documents once against the whole bank."""
    return _top_k(model, dataset, vocab, embeddings, range(len(model.patterns)), k)


def _top_k(model: ModelBundle, dataset: list[TokenizedDocument], vocab: Vocabulary,
           embeddings: EmbeddingMatrix, indices, k: int) -> list[PatternReport]:
    if not get_semiring(model.config.semiring).idempotent_plus:
        raise ValueError("phrase reports require a max semiring")
    _check_fingerprint(model, vocab)
    entries = {p: [] for p in indices}
    for lo in range(0, len(dataset), TRACE_BATCH):
        batch = dataset[lo:lo + TRACE_BATCH]
        scan = DocumentScan([model.patterns[p] for p in entries], batch, embeddings,
                            model.config)
        for i, doc in enumerate(batch):
            for j, found in enumerate(entries.values()):
                trace = scan.trace(i, j)
                if trace is not None:
                    found.append(_phrase_from_trace(trace, doc))
    return [PatternReport(pattern_index=p, pattern_length=model.patterns[p].length,
                          entries=sorted(found, key=lambda e: (-e.score, e.doc_id))[:max(k, 0)])
            for p, found in entries.items()]


def pattern_contributions(model: ModelBundle, doc: TokenizedDocument,
                          vocab: Vocabulary, embeddings: EmbeddingMatrix,
                          top_n: int = 5) -> ContributionReport:
    """Leave-one-out contribution of each pattern to the predicted class.

    Runs the MLP k+1 times: once on the full feature vector, then once per
    pattern with that entry zeroed (the numeric 0.0; the MLP consumes raw
    scores).  contribution[p] = original predicted-class probability minus
    the zeroed-p probability, so unused patterns contribute exactly 0.
    """
    _check_fingerprint(model, vocab)
    _check_matchable(model.config, {"explained": [doc]})
    scan = DocumentScan(model.patterns, [doc], embeddings, model.config)
    z = scan.scores[0]
    probs = mlp_probabilities(model.mlp, z)
    predicted = int(probs.argmax())
    original = float(probs[predicted])
    contributions = []
    for p in range(len(model.patterns)):
        z_without = z.copy()
        z_without[p] = 0.0
        contributions.append(original - float(mlp_probabilities(model.mlp, z_without)[predicted]))

    traceable = get_semiring(model.config.semiring).idempotent_plus
    order = np.argsort(-np.array(contributions), kind="stable")[:max(top_n, 0)]
    top = []
    for p in order:
        trace = scan.trace(0, int(p)) if traceable else None
        phrase = None if trace is None else _phrase_from_trace(trace, doc)
        top.append(ContributionEntry(pattern_index=int(p),
                                     contribution=contributions[p], phrase=phrase))
    return ContributionReport(doc_id=doc.doc_id, predicted_label=predicted,
                              predicted_probability=original,
                              contributions=contributions, top=top)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _phrase_text(steps: list[dict]) -> str:
    parts = []
    for step in steps:
        if step["token"] is None:
            parts.append(EPSILON_MARK)
        elif step["kind"] == SELF_LOOP:
            parts.append(step["token"] + "_SL")
        else:
            parts.append(step["token"])
    return " ".join(parts)


def _render_pattern_plain(report: PatternReport) -> str:
    lines = [f"pattern {report.pattern_index} (length {report.pattern_length})"]
    for e in report.entries:
        lines.append(f"  {e.score:.6f}  doc {e.doc_id}  span {e.start}..{e.end}: "
                     f"{_phrase_text(e.steps)}")
    return "\n".join(lines) + "\n"


def _render_contribution_plain(report: ContributionReport) -> str:
    lines = [f"doc {report.doc_id}: predicted class {report.predicted_label} "
             f"(p={report.predicted_probability:.4f})"]
    for entry in report.top:
        where = ""
        if entry.phrase is not None:
            where = (f"  span {entry.phrase.start}..{entry.phrase.end}: "
                     f"{_phrase_text(entry.phrase.steps)}")
        lines.append(f"  pattern {entry.pattern_index}  {entry.contribution:+.6f}{where}")
    return "\n".join(lines) + "\n"


# structured records: each report's header type, the field of its items and their type
_RECORD_TYPES = {PatternReport: ("pattern_report", "entries", "phrase"),
                 ContributionReport: ("contribution_report", "top", "contributor")}


def render_report(report: PatternReport | ContributionReport,
                  format: str = "plain-text") -> str:
    """Render either report kind; structured output is line-delimited JSON,
    a header record and then one record per item."""
    if format == "plain-text":
        if isinstance(report, PatternReport):
            return _render_pattern_plain(report)
        return _render_contribution_plain(report)
    if format != "structured":
        raise ValueError(f"unknown report format {format!r}")
    head_type, items, item_type = _RECORD_TYPES[type(report)]
    head = {"type": head_type, **asdict(report)}
    lines = [head] + [{"type": item_type, **item} for item in head.pop(items)]
    return "\n".join(json.dumps(rec) for rec in lines) + "\n"

