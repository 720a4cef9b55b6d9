"""The fused pattern scan: properties against the brute-force oracle and
finite differences, and what it records on the tape."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import sopa.autodiff as autodiff
import sopa.automata as automata
from sopa.autodiff import Param, Tape, finite_difference_check
from sopa.automata import (DocumentScan, PatternSetConfig, encode_documents, group_params,
                           group_patterns, make_patterns, min_match_tokens)
from sopa.classifier import MlpParams, _mlp_logits
from sopa.embeddings import EmbeddingMatrix, TokenizedDocument
from sopa.reference import brute_force_doc_score, dense_doc_score, viterbi_trace
from sopa.semiring import CountingSemiring, get_semiring

SEMIRINGS = ("max-product", "max-sum", "sum-product")
ENCODERS = ("sigmoid", "identity")
DIM = 3
VOCAB = 7

# derandomized and database-free, so every run checks the same cases and
# writes nothing
PROPERTY = settings(deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def doc_of(ids):
    return TokenizedDocument(token_ids=list(ids), raw_tokens=[""] * len(ids))


def rel_dev(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b), 1e-30)


@settings(PROPERTY, max_examples=200)
@given(length=st.integers(1, 5), other=st.integers(1, 4), n=st.integers(1, 8),
       pad=st.integers(0, 3), semiring=st.sampled_from(SEMIRINGS),
       encoder=st.sampled_from(ENCODERS), self_loops=st.booleans(), epsilons=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_engine_matches_brute_force(length, other, n, pad, semiring, encoder, self_loops,
                                    epsilons, seed):
    rng = np.random.default_rng(seed)
    # a second length, so the shorter patterns sit on padded grid columns
    other += other >= length
    config = PatternSetConfig(pattern_spec={length: 2, other: 1}, semiring=semiring,
                              encoder=encoder, self_loops=self_loops, epsilons=epsilons)
    emb = EmbeddingMatrix(vectors=rng.normal(size=(VOCAB, DIM)))
    patterns = make_patterns(config, DIM, rng, std=1.0)
    doc = doc_of(rng.integers(0, VOCAB, size=n))
    # a longer neighbour pads the scored document inside the batch
    longer = doc_of(rng.integers(0, VOCAB, size=n + pad))
    z, _, _ = encode_documents(group_patterns(patterns), [doc, longer], emb, config)
    for p, pattern in enumerate(patterns):
        oracle = brute_force_doc_score(pattern, emb.doc_matrix(doc), config)
        engine = float(z.value[0, p])
        if semiring == "sum-product":
            assert rel_dev(engine, oracle) <= 1e-10
        else:
            assert engine == oracle


def _loss_closure(bank, mlp_params, docs, labels, emb, config):
    def forward(tape: Tape):
        z, _, _ = encode_documents(bank, docs, emb, config, tape=tape)
        leaves = {name: tape.leaf(p) if tape.grad_enabled else tape.const(p.value)
                  for name, p in mlp_params.items()}
        logits = _mlp_logits(tape, z, leaves, 0.0, None, False)
        return tape.cross_entropy(logits, labels)
    return forward


@settings(PROPERTY, max_examples=60)
@given(length=st.integers(1, 5), lengths=st.lists(st.integers(0, 5), min_size=1, max_size=3),
       semiring=st.sampled_from(SEMIRINGS), encoder=st.sampled_from(ENCODERS),
       self_loops=st.booleans(), epsilons=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
# unencoded max-product: negative scores run the (max, negated min) pair
@example(length=3, lengths=[3, 5], semiring="max-product", encoder="identity",
         self_loops=True, epsilons=True, seed=11)
@example(length=4, lengths=[1, 4], semiring="max-product", encoder="identity",
         self_loops=False, epsilons=True, seed=12)
def test_scan_gradients_match_finite_differences(length, lengths, semiring, encoder,
                                                 self_loops, epsilons, seed):
    rng = np.random.default_rng(seed)
    config = PatternSetConfig(pattern_spec={length: 2, 1: 1}, semiring=semiring,
                              encoder=encoder, self_loops=self_loops, epsilons=epsilons)
    emb = EmbeddingMatrix(vectors=rng.normal(size=(VOCAB, DIM)))
    # every feature finite: max-sum scores an unmatched pattern -inf
    shortest = min_match_tokens(length, epsilons)
    docs = [doc_of(rng.integers(0, VOCAB, size=shortest + extra)) for extra in lengths]
    labels = rng.integers(0, 2, size=len(docs))
    bank = group_patterns(make_patterns(config, DIM, rng, std=0.5), as_params=True)
    mlp = MlpParams.random(config.total_patterns, 3, 2, rng, std=0.5)
    mlp_params = {name: Param(f"mlp.{name}", getattr(mlp, name))
                  for name in ("w1", "b1", "w2", "b2")}
    forward = _loss_closure(bank, mlp_params, docs, labels, emb, config)
    params = group_params(bank)

    tape = Tape(grad=True)
    loss = forward(tape)
    assert np.isfinite(loss.value)
    for p in params:
        p.zero_grad()
    tape.backward(loss)
    report = finite_difference_check(lambda: float(forward(Tape(grad=False)).value),
                                     params, max_checks=40)
    assert report.max_rel_error < 1e-4  # acceptance criterion 3's tolerance


def _scan_inputs(bsz, n, count, length, rng):
    mp = rng.normal(size=(bsz, n, count, length))
    sl = rng.normal(size=(bsz, n, count, length))
    eps = rng.normal(size=count * length)
    return sl, mp, eps, np.ones((bsz, n), dtype=bool)


def _scan_peak_bytes(grad: bool, sl, mp, eps, valid) -> int:
    tape = Tape(grad=grad)
    sr = get_semiring("max-product")
    nodes = [tape.const(v) for v in (sl, mp, eps)]
    tracemalloc.start()
    try:
        tape.pattern_scan(sr, *nodes, valid, [mp.shape[3]] * mp.shape[2])
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_grad_free_scan_keeps_no_history():
    bsz, n, count, length = 4, 400, 3, 5
    inputs = _scan_inputs(bsz, n, count, length, np.random.default_rng(0))
    # the per-step (max, negated min) state vectors a grad tape keeps
    history = (n + 1) * 2 * bsz * count * (length + 1) * 8
    assert _scan_peak_bytes(True, *inputs) >= history
    assert _scan_peak_bytes(False, *inputs) < history / 4


def test_scan_backward_holds_two_operands_of_adjoint():
    # the backward's own allocations: the self-loop and main adjoints, each
    # the size of one (B, n, k, W) operand, handed to their nodes uncopied,
    # plus per-step vectors; a copy of each would make four operands
    rng = np.random.default_rng(3)
    bsz, n, lengths = 4, 300, (7, 2, 5)
    sr = get_semiring("max-product")
    cells = autodiff.grid_cells(lengths)
    grids = []
    for _ in range(2):
        grid = np.full((bsz, n, len(lengths) * 7), -np.inf)
        grid[..., cells] = rng.uniform(size=(bsz, n, len(cells)))
        grids.append(Param("grid", grid.reshape(bsz, n, len(lengths), 7)))
    eps = Param("eps", rng.uniform(size=len(cells)))
    tape = Tape(grad=True)
    ends = tape.pattern_scan(sr, *(tape.leaf(p) for p in (*grids, eps)),
                             np.ones((bsz, n), dtype=bool), lengths)
    z = tape.semiring_reduce(sr, ends, axis=1)
    loss = tape.semiring_reduce(sr, tape.semiring_reduce(sr, z, axis=1), axis=0)
    tracemalloc.start()
    try:
        tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * grids[0].value.nbytes
    assert grids[1].grad.any()  # the main adjoint reached its leaf


def test_grad_tape_records_a_constant_node_count():
    rng = np.random.default_rng(1)
    config = PatternSetConfig(pattern_spec={3: 2, 2: 1})
    emb = EmbeddingMatrix(vectors=rng.normal(size=(VOCAB, DIM)))
    bank = group_patterns(make_patterns(config, DIM, rng), as_params=True)
    counts = []
    for n in (4, 64):
        tape = Tape(grad=True)
        encode_documents(bank, [doc_of(rng.integers(0, VOCAB, size=n))], emb, config,
                         tape=tape)
        counts.append(len(tape._nodes))
    assert counts[0] == counts[1]
    assert counts[0] <= 15


# -- how many tracks the max-product scan carries ------------------------------

@pytest.fixture
def scan_tracks(monkeypatch):
    """The track count of every scan run from here on, in call order."""
    seen = []
    real = autodiff.scan_forward

    def spy(*args, **kwargs):
        run = real(*args, **kwargs)
        seen.append(run.restart.shape[0])
        if run.states is not None:
            assert run.states.shape[1] == seen[-1]
        return run

    monkeypatch.setattr(autodiff, "scan_forward", spy)
    monkeypatch.setattr(automata, "scan_forward", spy)
    return seen


def _track_batch(encoder, nonnegative, self_loops=True, epsilons=True, seed=2):
    rng = np.random.default_rng(seed)
    config = PatternSetConfig(pattern_spec={3: 2, 1: 1}, semiring="max-product",
                              encoder=encoder, self_loops=self_loops, epsilons=epsilons)
    vectors = rng.normal(size=(VOCAB, DIM))
    patterns = make_patterns(config, DIM, rng, std=1.0)
    if nonnegative:
        vectors = np.abs(vectors)
        for p in patterns:
            for name in ("u", "a", "w", "b", "c"):
                setattr(p, name, np.abs(getattr(p, name)))
    docs = [doc_of(rng.integers(0, VOCAB, size=n)) for n in (1, 4, 7)]
    return config, EmbeddingMatrix(vectors=vectors), patterns, docs


def test_sigmoid_max_product_costs_what_max_sum_costs(scan_tracks):
    # the bank mixes lengths 3 and 1, so its grid carries -inf padding
    config, emb, patterns, docs = _track_batch("sigmoid", False)
    bank = group_patterns(patterns, as_params=True)
    totals = {}
    for kind in ("max-product", "max-sum"):
        sr = CountingSemiring(get_semiring(kind))
        encode_documents(bank, docs, emb, PatternSetConfig(
            pattern_spec=config.pattern_spec, semiring=kind), tape=Tape(grad=True),
            semiring=sr)
        totals[kind] = sr.total
    assert totals["max-product"] == totals["max-sum"] > 0
    # the grad tape kept one track of states: padding is not a negative factor
    assert scan_tracks == [1, 1]


def test_encode_documents_rejects_a_mismatched_semiring():
    config, emb, patterns, docs = _track_batch("sigmoid", False)
    with pytest.raises(ValueError, match="'max-sum' does not match the config's 'max-product'"):
        encode_documents(group_patterns(patterns), docs, emb, config,
                         semiring=CountingSemiring(get_semiring("max-sum")))


def _assert_scan_matches_oracles(config, emb, patterns, docs):
    scan = DocumentScan(patterns, docs, emb, config)
    for i, doc in enumerate(docs):
        for p, pattern in enumerate(patterns):
            doc_matrix = emb.doc_matrix(doc)
            assert scan.scores[i, p] == dense_doc_score(pattern, doc_matrix, config)
            assert scan.trace(i, p) == viterbi_trace(pattern, doc_matrix, config,
                                                     pattern_index=p)


@pytest.mark.parametrize("family", [None, "a", "b", "c"])
def test_a_negative_identity_factor_keeps_the_dual_track(scan_tracks, family):
    if family is None:  # mixed signs everywhere
        config, emb, patterns, docs = _track_batch("identity", False)
    else:  # one family of pattern 0 goes negative, and the whole bank with it
        config, emb, patterns, docs = _track_batch("identity", True)
        getattr(patterns[0], family)[0] = -100.0
    _assert_scan_matches_oracles(config, emb, patterns, docs)
    assert scan_tracks == [2]


@pytest.mark.parametrize("self_loops", [True, False])
@pytest.mark.parametrize("epsilons", [True, False])
def test_nonnegative_identity_factors_take_one_track(scan_tracks, self_loops, epsilons):
    # disabled families are -inf inside the scan; only enabled ones decide
    config, emb, patterns, docs = _track_batch("identity", True, self_loops, epsilons)
    _assert_scan_matches_oracles(config, emb, patterns, docs)
    one = encode_documents(group_patterns(patterns), docs, emb, config)[0].value
    # one negative factor sends the whole bank through the dual track, which
    # must score the other patterns alike
    patterns[0].b[0] = -100.0
    dual = encode_documents(group_patterns(patterns), docs, emb, config)[0].value
    assert scan_tracks == [1, 1, 2]
    assert np.array_equal(one[:, 1:], dual[:, 1:])
