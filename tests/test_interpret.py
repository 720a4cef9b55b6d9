"""Phrase reports, leave-one-out contributions, and report rendering."""

import json
from dataclasses import asdict

import numpy as np
import pytest

import sopa.interpret as interpret
from sopa.automata import (EPSILON, MAIN, SELF_LOOP, DocumentScan, PatternParams,
                           PatternSetConfig, encode_documents, group_patterns,
                           make_patterns)
from sopa.classifier import MlpParams, ModelBundle, forward_logits, mlp_probabilities, train
from sopa.embeddings import TokenizedDocument
from sopa.interpret import (ContributionEntry, ContributionReport,
                            PatternReport, PhraseEntry, pattern_contributions, render_report,
                            top_k_phrases, top_k_reports)
from sopa.reference import dense_span_score

from _synth import micro_task

TRAINED = {}


def trained_micro(request=None):
    """One small trained model shared across this module's tests."""
    if "bundle" not in TRAINED:
        vocab, emb, train_docs, dev_docs = micro_task()
        from sopa.classifier import TrainConfig
        config = TrainConfig(pattern_spec={2: 3}, mlp_hidden=4, batch_size=8,
                             max_epochs=8, patience=10, lr=2e-2, seed=2)
        model, _ = train(train_docs, dev_docs, vocab, emb, config)
        TRAINED["bundle"] = (model, vocab, emb, train_docs, dev_docs)
    return TRAINED["bundle"]


# -- top-k phrases -----------------------------------------------------------

def test_top_k_requires_max_semiring():
    model, vocab, emb, docs, _ = trained_micro()
    sp = ModelBundle(patterns=model.patterns, mlp=model.mlp,
                     config=PatternSetConfig(pattern_spec={2: 3},
                                             semiring="sum-product"),
                     vocab_fingerprint=model.vocab_fingerprint,
                     num_classes=2)
    with pytest.raises(ValueError, match="max semiring"):
        top_k_phrases(sp, docs, vocab, emb, 0, 3)


def test_top_k_pattern_index_bounds():
    model, vocab, emb, docs, _ = trained_micro()
    with pytest.raises(ValueError, match="out of range"):
        top_k_phrases(model, docs, vocab, emb, 3, 2)
    with pytest.raises(ValueError, match="out of range"):
        top_k_phrases(model, docs, vocab, emb, -1, 2)


def test_top_k_sizes_and_order():
    model, vocab, emb, docs, _ = trained_micro()
    report = top_k_phrases(model, docs, vocab, emb, 0, 5)
    assert report.pattern_index == 0
    assert report.pattern_length == 2
    assert len(report.entries) == 5
    scores = [e.score for e in report.entries]
    assert scores == sorted(scores, reverse=True)
    empty = top_k_phrases(model, docs, vocab, emb, 0, 0)
    assert empty.entries == []
    single = top_k_phrases(model, docs[:1], vocab, emb, 0, 5)
    assert len(single.entries) == 1


def test_top_k_ties_order_by_doc_id():
    model, vocab, emb, docs, _ = trained_micro()
    twin_a = TokenizedDocument(token_ids=docs[0].token_ids,
                               raw_tokens=docs[0].raw_tokens, label=0, doc_id=40)
    twin_b = TokenizedDocument(token_ids=docs[0].token_ids,
                               raw_tokens=docs[0].raw_tokens, label=0, doc_id=41)
    report = top_k_phrases(model, [twin_b, twin_a], vocab, emb, 1, 2)
    assert [e.doc_id for e in report.entries] == [40, 41]
    assert report.entries[0].score == report.entries[1].score


def test_phrase_score_is_the_span_score():
    model, vocab, emb, docs, _ = trained_micro()
    for p in range(model.num_patterns):
        report = top_k_phrases(model, docs, vocab, emb, p, 3)
        for e in report.entries:
            doc = next(d for d in docs if d.doc_id == e.doc_id)
            span = emb.doc_matrix(doc)[e.start - 1:e.end]
            assert e.score == dense_span_score(model.patterns[p], span,
                                               model.config)


def test_phrase_tokens_come_from_the_document():
    model, vocab, emb, docs, _ = trained_micro()
    report = top_k_phrases(model, docs, vocab, emb, 0, 4)
    for e in report.entries:
        doc = next(d for d in docs if d.doc_id == e.doc_id)
        consumed = [s["token"] for s in e.steps if s["token"] is not None]
        assert consumed == doc.raw_tokens[e.start - 1:e.end]


@pytest.mark.parametrize("semiring, encoder, tracks", [("max-sum", "sigmoid", 1),
                                                      ("max-product", "identity", 2)])
def test_top_k_reports_equal_per_pattern_reports_from_one_scan_per_batch(
        monkeypatch, semiring, encoder, tracks):
    _, vocab, emb, docs, _ = trained_micro()
    rng = np.random.default_rng(5)
    config = PatternSetConfig(pattern_spec={3: 2, 2: 2}, semiring=semiring, encoder=encoder)
    model = ModelBundle(patterns=make_patterns(config, 2, rng, std=1.0),
                        mlp=MlpParams.random(4, 3, 2, rng), config=config,
                        vocab_fingerprint=vocab.fingerprint(), num_classes=2)
    scans = []

    class CountedScan(DocumentScan):
        def __init__(self, patterns, batch, *args):
            super().__init__(patterns, batch, *args)
            scans.append((len(patterns), len(batch), self._run.restart.shape[0]))

    monkeypatch.setattr(interpret, "DocumentScan", CountedScan)
    monkeypatch.setattr(interpret, "TRACE_BATCH", 10)
    reports = top_k_reports(model, docs, vocab, emb, 6)
    # 24 documents: one bank-wide scan per batch; identity-encoded
    # max-product scores carry the (max, negated min) pair
    assert scans == [(4, 10, tracks), (4, 10, tracks), (4, 4, tracks)]
    singles = [top_k_phrases(model, docs, vocab, emb, p, 6) for p in range(4)]
    assert all(r.entries for r in reports)
    assert ([render_report(r, "structured") for r in reports]
            == [render_report(r, "structured") for r in singles])


# -- contributions -----------------------------------------------------------

def test_contributions_match_manual_leave_one_out():
    model, vocab, emb, docs, _ = trained_micro()
    doc = docs[0]
    report = pattern_contributions(model, doc, vocab, emb, top_n=3)
    z = encode_documents(group_patterns(model.patterns), [doc], emb, model.config)[0].value[0]
    probs = mlp_probabilities(model.mlp, z)
    c = int(probs.argmax())
    assert report.predicted_label == c
    assert report.predicted_probability == float(probs[c])
    for p in range(model.num_patterns):
        z0 = z.copy()
        z0[p] = 0.0
        expect = float(probs[c]) - float(mlp_probabilities(model.mlp, z0)[c])
        assert report.contributions[p] == expect
    ranked = sorted(range(3), key=lambda p: -report.contributions[p])
    assert [e.pattern_index for e in report.top] == ranked


@pytest.mark.parametrize("semiring", ["max-product", "max-sum", "sum-product"])
def test_forward_logits_gives_the_probability_explain_reports(semiring):
    # both run the numpy head on one document's z, so the bits agree
    vocab, emb, docs, _ = micro_task()
    rng = np.random.default_rng(13)
    config = PatternSetConfig(pattern_spec={3: 2, 1: 2, 2: 1}, semiring=semiring)
    for _ in range(3):
        model = ModelBundle(patterns=make_patterns(config, emb.dim, rng),
                            mlp=MlpParams.random(5, 4, 3, rng, std=0.5), config=config,
                            vocab_fingerprint=vocab.fingerprint(), num_classes=3)
        for doc in docs:
            r = pattern_contributions(model, doc, vocab, emb)
            p = forward_logits(model, doc, vocab, emb)
            assert p[r.predicted_label] == r.predicted_probability


def test_disconnected_pattern_contributes_exactly_zero():
    model, vocab, emb, docs, _ = trained_micro()
    mlp = MlpParams(w1=model.mlp.w1.copy(), b1=model.mlp.b1,
                    w2=model.mlp.w2, b2=model.mlp.b2)
    mlp.w1[1, :] = 0.0  # sever pattern 1 from the MLP
    cut = ModelBundle(patterns=model.patterns, mlp=mlp, config=model.config,
                      vocab_fingerprint=model.vocab_fingerprint,
                      num_classes=model.num_classes)
    report = pattern_contributions(cut, docs[0], vocab, emb)
    assert report.contributions[1] == 0.0


def test_contribution_phrases_align_with_top_k():
    model, vocab, emb, docs, _ = trained_micro()
    report = pattern_contributions(model, docs[2], vocab, emb, top_n=3)
    for entry in report.top:
        if entry.phrase is None:
            continue
        solo = top_k_phrases(model, [docs[2]], vocab, emb,
                             entry.pattern_index, 1)
        assert solo.entries[0] == entry.phrase


def test_contributions_reject_a_document_the_model_cannot_score():
    # under max-sum an unmatched pattern scores -inf, which would make the
    # probability and every contribution NaN
    vocab, emb, _, _ = micro_task()
    rng = np.random.default_rng(4)
    config = PatternSetConfig(pattern_spec={4: 1, 2: 1}, semiring="max-sum")
    model = ModelBundle(patterns=make_patterns(config, 2, rng),
                        mlp=MlpParams.random(2, 3, 2, rng), config=config,
                        vocab_fingerprint=vocab.fingerprint(), num_classes=2)
    doc = TokenizedDocument(token_ids=[0], raw_tokens=["pos"], doc_id=41)
    with pytest.raises(ValueError, match=r"ids 41\) have fewer than 2 tokens"):
        pattern_contributions(model, doc, vocab, emb)


def test_contribution_top_n_zero():
    model, vocab, emb, docs, _ = trained_micro()
    report = pattern_contributions(model, docs[0], vocab, emb, top_n=0)
    assert report.top == []
    assert len(report.contributions) == model.num_patterns


# -- rendering ---------------------------------------------------------------

# the header's record type, the field holding its items, and their record type
STRUCTURED = {PatternReport: ("pattern_report", "entries", "phrase"),
              ContributionReport: ("contribution_report", "top", "contributor")}


def assert_structured_holds(report):
    """Each line of the structured rendering is one JSON record, and
    together they hold exactly the report's fields."""
    head_type, items, item_type = STRUCTURED[type(report)]
    text = render_report(report, "structured")
    head, *rest = [json.loads(line) for line in text.splitlines()]
    assert head.pop("type") == head_type
    assert [r.pop("type") for r in rest] == [item_type] * len(rest)
    assert {**head, items: rest} == asdict(report)


def sample_pattern_report():
    steps = [{"kind": MAIN, "token": "big", "state": 1},
             {"kind": SELF_LOOP, "token": "bad", "state": 1},
             {"kind": EPSILON, "token": None, "state": 2}]
    entry = PhraseEntry(doc_id=3, start=2, end=3, score=1.25, steps=steps)
    return PatternReport(pattern_index=1, pattern_length=2, entries=[entry])


def test_pattern_plain_text_format():
    text = render_report(sample_pattern_report(), "plain-text")
    assert text == ("pattern 1 (length 2)\n"
                    "  1.250000  doc 3  span 2..3: big bad_SL ε\n")


def sample_contribution_report():
    phrase = PhraseEntry(doc_id=5, start=1, end=1, score=0.5,
                         steps=[{"kind": MAIN, "token": "hello", "state": 1}])
    return ContributionReport(
        doc_id=5, predicted_label=1, predicted_probability=0.87252,
        contributions=[0.1, -0.05],
        top=[ContributionEntry(pattern_index=0, contribution=0.1, phrase=phrase),
             ContributionEntry(pattern_index=1, contribution=-0.05, phrase=None)])


def test_contribution_plain_text_format():
    text = render_report(sample_contribution_report(), "plain-text")
    assert text == ("doc 5: predicted class 1 (p=0.8725)\n"
                    "  pattern 0  +0.100000  span 1..1: hello\n"
                    "  pattern 1  -0.050000\n")


def test_contribution_structured_format_with_and_without_a_phrase():
    report = sample_contribution_report()
    text = render_report(report, "structured")
    assert text == (
        '{"type": "contribution_report", "doc_id": 5, "predicted_label": 1, '
        '"predicted_probability": 0.87252, "contributions": [0.1, -0.05]}\n'
        '{"type": "contributor", "pattern_index": 0, "contribution": 0.1, "phrase": '
        '{"doc_id": 5, "start": 1, "end": 1, "score": 0.5, '
        '"steps": [{"kind": "main", "token": "hello", "state": 1}]}}\n'
        '{"type": "contributor", "pattern_index": 1, "contribution": -0.05, "phrase": null}\n')
    assert_structured_holds(report)


def test_structured_round_trip_pattern_report():
    assert_structured_holds(sample_pattern_report())


def test_structured_round_trip_contribution_report():
    model, vocab, emb, docs, _ = trained_micro()
    report = pattern_contributions(model, docs[1], vocab, emb, top_n=2)
    assert_structured_holds(report)


def test_structured_lines_are_json():
    model, vocab, emb, docs, _ = trained_micro()
    report = top_k_phrases(model, docs, vocab, emb, 0, 3)
    lines = render_report(report, "structured").splitlines()
    assert json.loads(lines[0])["type"] == "pattern_report"
    assert all(json.loads(l)["type"] == "phrase" for l in lines[1:])


def test_render_unknown_format():
    with pytest.raises(ValueError, match="unknown report format"):
        render_report(sample_pattern_report(), "yaml")

