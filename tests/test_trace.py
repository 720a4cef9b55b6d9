"""Best-match traces read back from the scan states: against the forward
Viterbi oracle, and the checks that make a wrong trace fail loudly."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sopa.automata as automata
from sopa.autodiff import Param, Tape
from sopa.automata import (DocumentScan, PatternParams, PatternSetConfig,
                           TraceMismatch, encode_documents, group_params, group_patterns,
                           make_patterns, replay_trace_score, trace_best_match)
from sopa.classifier import MlpParams, _mlp_logits
from sopa.embeddings import EmbeddingMatrix, TokenizedDocument
from sopa.reference import dense_doc_score, viterbi_trace

DIM = 2
VOCAB = 5

# derandomized and database-free, so every run checks the same cases and
# writes nothing
PROPERTY = settings(deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def doc_of(ids, doc_id=-1):
    return TokenizedDocument(token_ids=[int(i) for i in ids],
                             raw_tokens=[""] * len(ids), doc_id=doc_id)


def integer_pattern(length, rng):
    """Weights in {-1, 0, 1}: sums and products stay exact, so ties are common."""
    def draw(*shape):
        return rng.integers(-1, 2, size=shape).astype(float)
    return PatternParams(u=draw(length, DIM), a=draw(length), w=draw(length, DIM),
                         b=draw(length), c=draw(length))


@settings(PROPERTY, max_examples=300)
@given(lengths=st.lists(st.integers(1, 5), min_size=1, max_size=3),
       doc_lengths=st.lists(st.integers(1, 12), min_size=1, max_size=4),
       semiring=st.sampled_from(("max-product", "max-sum")),
       encoder=st.sampled_from(("sigmoid", "identity")),
       self_loops=st.booleans(), epsilons=st.booleans(), integer=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_batched_traces_match_the_viterbi_oracle(lengths, doc_lengths, semiring, encoder,
                                                 self_loops, epsilons, integer, seed):
    rng = np.random.default_rng(seed)
    spec: dict[int, int] = {}
    for length in lengths:
        spec[length] = spec.get(length, 0) + 1
    config = PatternSetConfig(pattern_spec=spec, semiring=semiring, encoder=encoder,
                              self_loops=self_loops, epsilons=epsilons)
    if integer:
        emb = EmbeddingMatrix(vectors=rng.integers(-2, 3, size=(VOCAB, DIM)).astype(float))
        patterns = [integer_pattern(length, rng) for length in lengths]
    else:
        emb = EmbeddingMatrix(vectors=rng.normal(size=(VOCAB, DIM)))
        patterns = [PatternParams.random(length, DIM, rng, std=1.0) for length in lengths]
    # documents of mixed length share one padded batch
    docs = [doc_of(rng.integers(0, VOCAB, size=n), doc_id=i)
            for i, n in enumerate(doc_lengths)]
    scan = DocumentScan(patterns, docs, emb, config)
    z, _, _ = encode_documents(group_patterns(patterns), docs, emb, config)
    assert np.array_equal(scan.scores, z.value)
    for i, doc in enumerate(docs):
        for p, pattern in enumerate(patterns):
            expect = viterbi_trace(pattern, emb.doc_matrix(doc), config, pattern_index=p)
            assert scan.trace(i, p) == expect


def test_tie_chain_as_long_as_the_document():
    # every arc of a zero pattern scores 0.5, so every state ties with its
    # neighbours and resolving the start runs back through the whole document
    config = PatternSetConfig(pattern_spec={3: 1})
    zero = PatternParams(*(np.zeros(shape) for shape in
                           ((3, DIM), 3, (3, DIM), 3, 3)))
    emb = EmbeddingMatrix(vectors=np.ones((VOCAB, DIM)))
    doc = doc_of([0] * 1500)
    trace = trace_best_match(zero, doc, emb, config)
    assert trace == viterbi_trace(zero, emb.doc_matrix(doc), config)


def _micro_scan(semiring="max-sum"):
    rng = np.random.default_rng(4)
    config = PatternSetConfig(pattern_spec={3: 2}, semiring=semiring, encoder="identity")
    emb = EmbeddingMatrix(vectors=rng.normal(size=(VOCAB, DIM)))
    patterns = make_patterns(config, DIM, rng, std=1.0)
    docs = [doc_of([0, 1, 2, 3], doc_id=6), doc_of([4, 3, 2, 1, 0], doc_id=7)]
    return patterns, docs, emb, config


@pytest.mark.parametrize("semiring", ["max-product", "max-sum"])
def test_trace_raises_when_a_table_disagrees_with_the_states(monkeypatch, semiring):
    patterns, docs, emb, config = _micro_scan(semiring)
    assert DocumentScan(patterns, docs, emb, config).trace(1, 1) is not None

    real = automata.scan_forward

    def corrupted(*args, **kwargs):
        run = real(*args, **kwargs)
        return dataclasses.replace(run, mp=run.mp + 0.25)

    monkeypatch.setattr(automata, "scan_forward", corrupted)
    scan = DocumentScan(patterns, docs, emb, config)
    with pytest.raises(TraceMismatch, match="pattern 1, document 7: no arc reproduces"):
        scan.trace(1, 1)


def test_refold_check_rejects_a_path_that_misses_its_score(monkeypatch):
    patterns, docs, emb, config = _micro_scan()
    real = automata._best_path

    def lossy(*args):
        start, end, score, steps = real(*args)
        return start, end, score, steps[:-1]

    monkeypatch.setattr(automata, "_best_path", lossy)
    with pytest.raises(TraceMismatch, match="pattern 0, document 6: the traced path folds"):
        DocumentScan(patterns, docs, emb, config).trace(0, 0)


def test_sum_product_scan_scores_but_does_not_trace():
    patterns, docs, emb, _ = _micro_scan()
    config = PatternSetConfig(pattern_spec={3: 2}, semiring="sum-product")
    scan = DocumentScan(patterns, docs, emb, config)
    z, _, _ = encode_documents(group_patterns(patterns), docs, emb, config)
    assert np.array_equal(scan.scores, z.value)
    with pytest.raises(ValueError, match="max semiring"):
        scan.trace(0, 0)


# pre-activations whose sigmoid is exactly 0.0 (stable_sigmoid underflows
# below about -745), by the families they zero
ZEROED = {"main": ("b",), "self-loop": ("a",), "epsilon": ("c",),
          "main+epsilon": ("b", "c")}


@pytest.mark.parametrize("target", sorted(ZEROED))
@pytest.mark.parametrize("self_loops", [True, False])
@pytest.mark.parametrize("epsilons", [True, False])
def test_an_exactly_zero_factor_is_a_match_not_an_absent_path(target, self_loops, epsilons):
    rng = np.random.default_rng(9)
    config = PatternSetConfig(pattern_spec={3: 2, 2: 1}, self_loops=self_loops,
                              epsilons=epsilons)
    emb = EmbeddingMatrix(vectors=rng.normal(size=(VOCAB, DIM)))
    patterns = make_patterns(config, DIM, rng, std=1.0)
    for p in patterns:
        for name in ZEROED[target]:
            getattr(p, name)[:] = -800.0
    docs = [doc_of(rng.integers(0, VOCAB, size=n), doc_id=i) for i, n in enumerate((1, 3, 6))]
    scan = DocumentScan(patterns, docs, emb, config)
    for i, doc in enumerate(docs):
        for p, pattern in enumerate(patterns):
            doc_matrix = emb.doc_matrix(doc)
            assert scan.scores[i, p] == dense_doc_score(pattern, doc_matrix, config)
            trace = scan.trace(i, p)
            assert trace == viterbi_trace(pattern, doc_matrix, config, pattern_index=p)
            if trace is not None:
                assert replay_trace_score(trace, pattern, doc, emb, config) == trace.score
                assert trace.score == scan.scores[i, p]
    # where every path crosses a zeroed arc, the 6-token document still
    # matches every pattern, with score 0.0
    if "b" in ZEROED[target] and ("c" in ZEROED[target] or not (self_loops and epsilons)):
        for p in range(len(patterns)):
            trace = scan.trace(2, p)
            assert trace is not None and trace.score == 0.0
            assert 1 <= trace.start <= trace.end <= 6

    groups = group_patterns(patterns, as_params=True)
    mlp = {name: Param(name, value) for name, value in
           MlpParams.random(config.total_patterns, 3, 2, rng).arrays().items()}
    tape = Tape(grad=True)
    z, _, _ = encode_documents(groups, docs, emb, config, tape=tape)
    logits = _mlp_logits(tape, z, {k: tape.leaf(v) for k, v in mlp.items()}, 0.0, None, False)
    tape.backward(tape.cross_entropy(logits, np.array([0, 1, 0])))
    for param in group_params(groups) + list(mlp.values()):
        assert np.isfinite(param.grad).all(), param.name
