"""The fused pattern scan: properties against the brute-force oracle and
finite differences, and what it records on the tape."""

import tracemalloc

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sopa.autodiff import Param, Tape, finite_difference_check
from sopa.automata import (PatternSetConfig, encode_documents, group_params,
                           group_patterns, make_patterns, min_match_tokens)
from sopa.classifier import MlpParams, _mlp_logits
from sopa.embeddings import EmbeddingMatrix, TokenizedDocument
from sopa.reference import brute_force_doc_score
from sopa.semiring import get_semiring

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
@given(length=st.integers(1, 5), n=st.integers(1, 8), pad=st.integers(0, 3),
       semiring=st.sampled_from(SEMIRINGS), encoder=st.sampled_from(ENCODERS),
       self_loops=st.booleans(), epsilons=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_engine_matches_brute_force(length, n, pad, semiring, encoder, self_loops,
                                    epsilons, seed):
    rng = np.random.default_rng(seed)
    config = PatternSetConfig(pattern_spec={length: 2}, semiring=semiring,
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


def _loss_closure(groups, mlp_params, docs, labels, emb, config):
    def forward(tape: Tape):
        z, _, _ = encode_documents(groups, docs, emb, config, tape=tape)
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
    groups = group_patterns(make_patterns(config, DIM, rng, std=0.5), as_params=True)
    mlp = MlpParams.random(config.total_patterns, 3, 2, rng, std=0.5)
    mlp_params = {name: Param(f"mlp.{name}", getattr(mlp, name))
                  for name in ("w1", "b1", "w2", "b2")}
    forward = _loss_closure(groups, mlp_params, docs, labels, emb, config)
    params = group_params(groups)

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
    eps = rng.normal(size=(count, length))
    return sl, mp, eps, np.ones((bsz, n), dtype=bool)


def _scan_peak_bytes(grad: bool, sl, mp, eps, valid) -> int:
    tape = Tape(grad=grad)
    sr = get_semiring("max-product")
    nodes = [tape.const(v) for v in (sl, mp, eps)]
    tracemalloc.start()
    try:
        tape.pattern_scan(sr, *nodes, valid)
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


def test_grad_tape_records_constant_nodes_per_length_group():
    rng = np.random.default_rng(1)
    config = PatternSetConfig(pattern_spec={3: 2, 2: 1})
    emb = EmbeddingMatrix(vectors=rng.normal(size=(VOCAB, DIM)))
    groups = group_patterns(make_patterns(config, DIM, rng), as_params=True)
    counts = []
    for n in (4, 64):
        tape = Tape(grad=True)
        encode_documents(groups, [doc_of(rng.integers(0, VOCAB, size=n))], emb, config,
                         tape=tape)
        counts.append(len(tape._nodes))
    assert counts[0] == counts[1]
    assert counts[0] <= 15 * len(groups)
