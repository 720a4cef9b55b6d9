"""Best-match traces read back from the scan's records: against the forward
Viterbi oracle, and the checks that make a wrong trace fail loudly."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sopa.automata as automata
import sopa.engine as engine
from _synth import PROPERTY, doc_of
from _tape import dense_adjoint, gather_grid, paired_tables, slot_table
from sopa.autodiff import Param, Tape
from sopa.automata import (MAIN, SELF_LOOP, DocumentScan, MatchStep, MatchTrace,
                           PatternParams, PatternSetConfig, TraceMismatch, encode_documents,
                           group_params, group_patterns, make_patterns, replay_trace_score,
                           trace_best_match)
from sopa.classifier import MlpParams, _mlp_logits
from sopa.embeddings import EmbeddingMatrix
from sopa.engine import encode_values, scan_backward, scan_forward
from sopa.reference import dense_doc_score, viterbi_trace
from sopa.semiring import get_semiring

DIM = 2
VOCAB = 5


def kept_scan(sr, config, bank, docs, emb):
    """The bank's encoded (n,W,B,k) self-loop and main grids and encoded
    epsilons, None for a disabled family, and a kept scan of the same
    scores, read from the bank's slot tables, which encodes nothing more."""
    vectors, index, valid, _ = automata._batch_matrix(docs, emb)

    def table(weights, bias):
        return Tape.pattern_affine(vectors, index, weights, bias, config.encoder, bank.lengths,
                                   slot_table(vectors, bank.lengths, sr.absent))[0]
    tables = {"sl": table(bank.u, bank.a) if config.self_loops else None,
              "mp": table(bank.w, bank.b)}
    leaves = {name: None if x is None else gather_grid(x, index) for name, x in tables.items()}
    leaves["eps"] = encode_values(bank.c, config.encoder) if config.epsilons else None
    run = scan_forward(sr, *paired_tables(tables["sl"], tables["mp"], sr.absent), index,
                       leaves["eps"], "identity", valid, True, bank.lengths)
    return leaves, run


def trace_adjoints(run, i, p):
    """The adjoints of document i's score for pattern p, by family, from a
    kept scan of the encoded leaves, the self-loops' and main arcs' as
    (n,W,B,k) grids."""
    seed = np.zeros(run.scores.shape)
    seed[i, p] = 1.0
    grads = scan_backward(run, seed)
    return {name: g if name == "eps" else dense_adjoint(g, run.lengths)
            for name, g in zip(("sl", "mp", "eps"), grads) if g is not None}


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


@settings(PROPERTY, max_examples=150)
@given(lengths=st.lists(st.integers(1, 5), min_size=1, max_size=3),
       doc_lengths=st.lists(st.integers(1, 12), min_size=1, max_size=4),
       encoder=st.sampled_from(("sigmoid", "identity")),
       self_loops=st.booleans(), epsilons=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_max_sum_gradient_of_a_document_score_flows_along_its_trace(
        lengths, doc_lengths, encoder, self_loops, epsilons, seed):
    # integer weights, so ties are common: the adjoint of one document score
    # reaches each transition score once per step of the trace that takes it
    rng = np.random.default_rng(seed)
    spec: dict[int, int] = {}
    for length in lengths:
        spec[length] = spec.get(length, 0) + 1
    config = PatternSetConfig(pattern_spec=spec, semiring="max-sum", encoder=encoder,
                              self_loops=self_loops, epsilons=epsilons)
    lengths = config.lengths()  # in declared order
    emb = EmbeddingMatrix(vectors=rng.integers(-2, 3, size=(VOCAB, DIM)).astype(float))
    patterns = [integer_pattern(length, rng) for length in lengths]
    docs = [doc_of(rng.integers(0, VOCAB, size=n), doc_id=i)
            for i, n in enumerate(doc_lengths)]
    sr = get_semiring("max-sum")
    bank = group_patterns(patterns)
    # the scan's own transition scores as leaves, epsilons already encoded
    leaves, run = kept_scan(sr, config, bank, docs, emb)
    scan = DocumentScan(patterns, docs, emb, config)
    width = max(lengths)
    for i in range(len(docs)):
        for p, length in enumerate(lengths):
            trace = scan.trace(i, p)
            if trace is None:
                continue
            assert run.scores[i, p] == trace.score
            grads = trace_adjoints(run, i, p)
            expect = {name: np.zeros_like(v) for name, v in leaves.items() if v is not None}
            column, slot = width - length, sum(lengths[:p])  # the pattern's state 0
            for step in trace.steps:
                if step.kind == MAIN:
                    expect["mp"][step.token_pos - 1, column + step.state - 1, i, p] += 1.0
                elif step.kind == SELF_LOOP:
                    expect["sl"][step.token_pos - 1, column + step.state, i, p] += 1.0
                else:
                    expect["eps"][slot + step.state - 1] += 1.0
            for name, grad in grads.items():
                assert np.array_equal(grad, expect[name]), (name, i, p)


@settings(PROPERTY, max_examples=300)
@given(lengths=st.lists(st.integers(1, 5), min_size=1, max_size=3),
       doc_lengths=st.lists(st.integers(1, 12), min_size=1, max_size=4),
       encoder=st.sampled_from(("sigmoid", "identity")), signed=st.booleans(),
       self_loops=st.booleans(), epsilons=st.booleans(), integer=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_max_product_gradient_of_a_document_score_flows_along_its_trace(
        lengths, doc_lengths, encoder, signed, self_loops, epsilons, integer, seed):
    # the adjoint of one document score reaches each transition score on its
    # trace as the product of the path's other factors, and no other score;
    # signed identity scores, or an exact zero of an integer bank, make the
    # scan carry its second (negated-min) track, positive ones keep one
    rng = np.random.default_rng(seed)
    spec: dict[int, int] = {}
    for length in lengths:
        spec[length] = spec.get(length, 0) + 1
    config = PatternSetConfig(pattern_spec=spec, semiring="max-product", encoder=encoder,
                              self_loops=self_loops, epsilons=epsilons)
    lengths = config.lengths()  # in declared order
    if integer:
        vectors = rng.integers(-2, 3, size=(VOCAB, DIM)).astype(float)
        patterns = [integer_pattern(length, rng) for length in lengths]
    else:
        vectors = rng.normal(size=(VOCAB, DIM))
        patterns = [PatternParams.random(length, DIM, rng, std=1.0) for length in lengths]
    signed = encoder == "identity" and signed
    if signed:  # every main score of pattern 0's first slot is -1
        patterns[0].w[0] = 0.0
        patterns[0].b[0] = -1.0
    elif encoder == "identity":
        vectors = np.abs(vectors)
        patterns = [PatternParams(*(np.abs(x) for x in dataclasses.astuple(p)))
                    for p in patterns]
    emb = EmbeddingMatrix(vectors=vectors)
    docs = [doc_of(rng.integers(0, VOCAB, size=n), doc_id=i)
            for i, n in enumerate(doc_lengths)]
    sr = get_semiring("max-product")
    bank = group_patterns(patterns)
    # the scan's own transition scores as leaves, epsilons already encoded
    leaves, run = kept_scan(sr, config, bank, docs, emb)
    scan = DocumentScan(patterns, docs, emb, config)
    # two tracks where an enabled family holds a real score that is not
    # finite and positive
    two_tracks = any((~((x > 0) & (x < np.inf)) & (x != -np.inf)).any()
                     for x in leaves.values() if x is not None)
    assert two_tracks >= signed
    assert scan._run.decisions.shape[2] == (2 if two_tracks else 1)
    width = max(lengths)
    for i in range(len(docs)):
        for p, length in enumerate(lengths):
            trace = scan.trace(i, p)
            if trace is None:
                continue
            assert run.scores[i, p] == trace.score
            grads = trace_adjoints(run, i, p)
            column, slot = width - length, sum(lengths[:p])  # the pattern's state 0
            cells = []
            for step in trace.steps:
                if step.kind == MAIN:
                    cells.append(("mp", (step.token_pos - 1, column + step.state - 1, i, p)))
                elif step.kind == SELF_LOOP:
                    cells.append(("sl", (step.token_pos - 1, column + step.state, i, p)))
                else:
                    cells.append(("eps", (slot + step.state - 1,)))
            factors = [leaves[name][cell] for name, cell in cells]
            off_path = {name: np.ones(g.shape, dtype=bool) for name, g in grads.items()}
            for s, (name, cell) in enumerate(cells):
                want = math.prod(factors[:s] + factors[s + 1:])
                got = grads[name][cell]
                assert abs(got - want) <= 1e-12 * abs(want), (name, cell, got, want)
                off_path[name][cell] = False
            for name, grad in grads.items():
                assert not grad[off_path[name]].any(), (name, i, p)


def test_trace_tie_breaks_main_over_self_loop_despite_a_later_start():
    # a case of the integer sweep above: after token 2, state 1 is reached at
    # 3.0 both by a main arc from a span fresh at token 2 and by a self-loop
    # of the span that started at token 1.  The trace takes the main arc, as
    # the gradient does, so its span starts later than the tied one.
    config = PatternSetConfig(pattern_spec={2: 1}, semiring="max-sum", encoder="identity")
    pattern = PatternParams(u=[[1.0, -1.0], [1.0, 1.0]], a=[-1.0, 1.0],
                            w=[[-1.0, 0.0], [0.0, -1.0]], b=[1.0, -1.0], c=[-1.0, -1.0])
    emb = EmbeddingMatrix(vectors=np.array([[1.0, 2.0], [-1.0, 1.0], [-2.0, 2.0],
                                            [0.0, -1.0], [-2.0, -2.0]]))
    doc = doc_of([1, 2, 4, 2])
    trace = trace_best_match(pattern, doc, emb, config)
    assert trace == MatchTrace(pattern_index=0, start=2, end=3, score=4.0,
                               steps=[MatchStep(MAIN, 2, 1), MatchStep(MAIN, 3, 2)])
    assert trace == viterbi_trace(pattern, emb.doc_matrix(doc), config)
    assert replay_trace_score(trace, pattern, doc, emb, config) == 4.0


def test_tie_chain_as_long_as_the_document():
    # every arc of a zero pattern scores 0.5, so every state ties with its
    # neighbours and the trace follows recorded winners back through the
    # whole document
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
def test_a_document_scan_keeps_its_records_but_no_states(semiring):
    # a trace reads the records, the end scores and the slot tables; the
    # identity encoder's signed scores run max-product on two tracks
    patterns, docs, emb, config = _micro_scan(semiring)
    scan = DocumentScan(patterns, docs, emb, config)
    assert scan._run.states is None
    assert scan._run.decisions.shape[2] == (2 if semiring == "max-product" else 1)
    for i, doc in enumerate(docs):
        for p, pattern in enumerate(patterns):
            trace = scan.trace(i, p)
            assert trace == viterbi_trace(pattern, emb.doc_matrix(doc), config, pattern_index=p)


@pytest.mark.parametrize("semiring", ["max-product", "max-sum"])
@pytest.mark.parametrize("corrupt", ["table", "decision"])
def test_trace_raises_when_a_table_disagrees_with_the_states(monkeypatch, semiring, corrupt):
    # continuous weights: the branch a flipped decision takes is no tie
    patterns, docs, emb, config = _micro_scan(semiring)
    trace = DocumentScan(patterns, docs, emb, config).trace(1, 1)
    assert trace is not None

    real = automata.scan_forward

    def corrupted(*args, **kwargs):
        run = real(*args, **kwargs)
        if corrupt == "table":
            tables = run.tables.copy()
            tables[1] += 0.25  # the main table
            return dataclasses.replace(run, tables=tables)
        # the first arc of the path whose other branch exists: a main arc
        # into a state with a self-loop, or a self-loop at a state a main
        # arc enters; flipped on both tracks, so on the path's own
        step = next(s for s in trace.steps
                    if (s.kind == MAIN and s.state < 3) or (s.kind == SELF_LOOP and s.state))
        run.decisions[step.token_pos - 1, 0, :, step.state, 1, 1] ^= True
        return run

    monkeypatch.setattr(automata, "scan_forward", corrupted)
    scan = DocumentScan(patterns, docs, emb, config)
    with pytest.raises(TraceMismatch, match="pattern 1, document 7: the traced path folds"):
        scan.trace(1, 1)


def test_refold_check_rejects_a_path_that_misses_its_score(monkeypatch):
    patterns, docs, emb, config = _micro_scan()
    real = engine._best_path

    def lossy(*args):
        start, end, score, steps = real(*args)
        return start, end, score, steps[:-1]

    monkeypatch.setattr(engine, "_best_path", lossy)
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

    bank = group_patterns(patterns, as_params=True)
    mlp = {name: Param(name, value) for name, value in
           MlpParams.random(config.total_patterns, 3, 2, rng).arrays().items()}
    tape = Tape(grad=True)
    z, _, _ = encode_documents(bank, docs, emb, config, tape=tape)
    logits = _mlp_logits(tape, z, {k: tape.leaf(v) for k, v in mlp.items()}, 0.0, None, False)
    tape.backward(tape.cross_entropy(logits, np.array([0, 1, 0])))
    for param in group_params(bank) + list(mlp.values()):
        assert np.isfinite(param.grad).all(), param.name
