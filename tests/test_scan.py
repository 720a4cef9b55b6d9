"""The fused pattern scan: properties against the brute-force oracle and
finite differences, and what it records on the tape.  Tests that drive
scan_forward and scan_backward directly build their grids in the engine's
(n,W,B,k) layout."""

import functools
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _synth import PROPERTY, doc_of
from _tape import scalarize

import sopa.autodiff as autodiff
import sopa.automata as automata
from sopa.autodiff import Param, Tape, finite_difference_check
from sopa.automata import (DocumentScan, PatternSetConfig, encode_documents, group_params,
                           group_patterns, make_patterns, min_match_tokens)
from sopa.classifier import MlpParams, _mlp_logits
from sopa.embeddings import EmbeddingMatrix
from sopa.reference import brute_force_doc_score, dense_doc_score, viterbi_trace
from sopa.semiring import CountingSemiring, get_semiring

SEMIRINGS = ("max-product", "max-sum", "sum-product")
ENCODERS = ("sigmoid", "identity")
DIM = 3
VOCAB = 7


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
    # laid out as the engine's grids are, column first
    mp = rng.normal(size=(n, length, bsz, count))
    sl = rng.normal(size=(n, length, bsz, count))
    eps = rng.normal(size=count * length)
    return sl, mp, eps, np.ones((bsz, n), dtype=bool)


def _scan_peak_bytes(grad: bool, sl, mp, eps, valid) -> int:
    sr = get_semiring("max-product")
    tracemalloc.start()
    try:
        autodiff.scan_forward(sr, sl, mp, eps, "identity", valid, grad,
                              [mp.shape[1]] * mp.shape[3])
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
    # which operand won each max is recorded only where a max-semiring
    # backward or trace follows it back: eval, dev passes and sum-product
    # pay nothing
    sl, mp, eps, valid = inputs
    lengths = [length] * count
    for semiring in SEMIRINGS:
        sr = get_semiring(semiring)
        for keep in (False, True):
            run = autodiff.scan_forward(sr, sl, mp, eps, "identity", valid, keep, lengths)
            if keep and sr.idempotent_plus:
                assert run.decisions.dtype == bool
                tracks = 2 if semiring == "max-product" else 1  # the inputs have negatives
                assert run.decisions.shape == (n, 3, tracks, length + 1, bsz, count)
            else:
                assert run.decisions is None


@pytest.mark.parametrize("semiring", SEMIRINGS)
@pytest.mark.parametrize("encoder", ENCODERS)
@pytest.mark.parametrize("keep", [False, True])
def test_every_tokens_scan_operands_are_contiguous_blocks(monkeypatch, semiring, encoder, keep):
    # the grids, states and records are laid out column first, so each
    # token's slice of them is one C-contiguous block and a step's ufuncs
    # run over whole (document, pattern) blocks, not over the few states of
    # one lane.  Identity-encoded max-product carries the second track.
    runs = []
    real = automata.scan_forward

    def spy(*args, **kwargs):
        runs.append(real(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(automata, "scan_forward", spy)
    rng = np.random.default_rng(6)
    config = PatternSetConfig(pattern_spec={3: 2, 2: 1}, semiring=semiring, encoder=encoder)
    emb = EmbeddingMatrix(vectors=rng.normal(size=(VOCAB, DIM)))
    bank = group_patterns(make_patterns(config, DIM, rng, std=1.0), as_params=keep)
    docs = [doc_of(rng.integers(0, VOCAB, size=n)) for n in (3, 8, 5)]
    encode_documents(bank, docs, emb, config, tape=Tape(grad=keep))
    (run,) = runs
    kept = [x for x in (run.states, run.decisions) if x is not None]
    assert len(kept) == keep * (1 + (semiring == "max-product"))
    for t in range(len(run.mp)):
        for x in (run.mp, run.sl, *kept):
            assert x[t].flags.c_contiguous


@pytest.mark.parametrize("semiring", SEMIRINGS)
@pytest.mark.parametrize("keep", [False, True])
def test_scan_steps_store_into_cache_line_aligned_buffers(monkeypatch, semiring, keep):
    # a ufunc storing a contiguous block off a 64-byte boundary runs up to
    # twice as slow, and malloc aligns to 16 bytes only, so a scan whose
    # steps stored into fresh arrays ran at a speed set by the heap's state.
    # Every step stores into the same buffers, each on a cache line.
    calls = []
    real = autodiff._scan_step

    def spy(sr, h, sl_t, mp_t, eps, restart, bufs, out, won=None):
        calls.append((bufs, out))
        return real(sr, h, sl_t, mp_t, eps, restart, bufs, out, won)

    monkeypatch.setattr(autodiff, "_scan_step", spy)
    sl, mp, eps, valid = _scan_inputs(4, 6, 3, 5, np.random.default_rng(2))
    run = autodiff.scan_forward(get_semiring(semiring), sl, mp, eps, "identity", valid,
                                keep, [5] * 3)
    bufs = calls[0][0]
    assert len({id(b) for step, _ in calls for b in step}) == len(bufs)
    outs = [out for _, out in calls]
    if run.states is None:
        assert all(out is outs[0] for out in outs)
    else:
        outs = [run.states]  # each step stores into its own slice of the history
    kept = [x for x in (run.decisions,) if x is not None]
    for x in (*bufs, *outs, *kept):
        assert x.ctypes.data % 64 == 0


@pytest.mark.parametrize("semiring", SEMIRINGS)
def test_scan_backward_holds_two_operands_of_adjoint(semiring):
    # the backward's own allocations: the self-loop and main adjoints, each
    # the size of one (n, W, B, k) operand, handed back uncopied, plus
    # per-step vectors; a copy of each would make four operands
    rng = np.random.default_rng(3)
    bsz, n, lengths = 4, 300, (7, 2, 5)
    sr = get_semiring(semiring)
    cells = autodiff.grid_cells(lengths)
    patterns, columns = np.divmod(cells, 7)
    grids = []
    for _ in range(2):
        grid = np.full((n, 7, bsz, len(lengths)), sr.absent)
        grid[:, columns, :, patterns] = rng.uniform(size=(bsz, n, len(cells))).T
        grids.append(grid)
    eps = rng.uniform(size=len(cells))
    valid = np.ones((bsz, n), dtype=bool)
    run = autodiff.scan_forward(sr, *grids, eps, "identity", valid, True, lengths)
    tracemalloc.start()
    try:
        _, g_mp, _ = autodiff.scan_backward(sr, run, np.ones((bsz, len(lengths))), valid,
                                            "identity", lengths, True, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * grids[0].nbytes
    assert g_mp.any()  # the main adjoint reached the grid


@settings(PROPERTY, max_examples=200)
@given(lengths=st.lists(st.integers(1, 5), min_size=1, max_size=3),
       doc_lengths=st.lists(st.integers(1, 12), min_size=2, max_size=5),
       semiring=st.sampled_from(("max-product", "max-sum")),
       encoder=st.sampled_from(ENCODERS), self_loops=st.booleans(), epsilons=st.booleans(),
       integer=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_a_documents_scan_adjoints_are_the_same_bits_alone_and_in_a_batch(
        lengths, doc_lengths, semiring, encoder, self_loops, epsilons, integer, seed):
    # under a max semiring the main and self-loop adjoints of a document,
    # sign bits included, do not depend on the other documents of its padded
    # batch, and its padding receives none: the backward's lanes do not mix.
    # (Sum-product's reverse recurrence runs through the padding, whose zero
    # adjoints can carry a sign.)
    rng = np.random.default_rng(seed)
    spec: dict[int, int] = {}
    for length in lengths:
        spec[length] = spec.get(length, 0) + 1
    config = PatternSetConfig(pattern_spec=spec, semiring=semiring, encoder=encoder,
                              self_loops=self_loops, epsilons=epsilons)
    if integer:  # ties and exact zeros are common
        emb = EmbeddingMatrix(vectors=rng.integers(-2, 3, size=(VOCAB, DIM)).astype(float))
        bank = group_patterns(make_patterns(config, DIM, rng))
        for name in ("u", "a", "w", "b", "c"):
            setattr(bank, name, rng.integers(-1, 2, size=getattr(bank, name).shape) * 1.0)
    else:
        emb = EmbeddingMatrix(vectors=rng.normal(size=(VOCAB, DIM)))
        bank = group_patterns(make_patterns(config, DIM, rng, std=1.0))
    docs = [doc_of(rng.integers(0, VOCAB, size=n)) for n in doc_lengths]
    weights = rng.normal(size=(len(docs), len(bank.lengths)))
    sr = get_semiring(semiring)

    def adjoints(batch, w):
        # the self-loop and main grids' adjoints (n,W,B,k) of the document
        # scores weighted by w
        vectors, index, valid, _ = automata._batch_matrix(batch, emb)

        def grid(weights, bias):
            return Tape.pattern_affine(vectors, index, weights, bias, encoder, bank.lengths,
                                       sr.absent)[0]
        sl = grid(bank.u, bank.a) if self_loops else None
        run = autodiff.scan_forward(sr, sl, grid(bank.w, bank.b),
                                    bank.c if epsilons else None, encoder, valid, True,
                                    bank.lengths)
        g_sl, g_mp, _ = autodiff.scan_backward(sr, run, w, valid, encoder, bank.lengths,
                                               self_loops, epsilons)
        return [g for g in (g_sl, g_mp) if g is not None]

    batched = adjoints(docs, weights)
    for i, doc in enumerate(docs):
        n = len(doc.token_ids)
        for alone, together in zip(adjoints([doc], weights[i:i + 1]), batched):
            assert alone[:, :, 0].tobytes() == together[:n, :, i].tobytes()
            assert not together[n:, :, i].any()


def test_grad_tape_records_a_constant_node_count():
    rng = np.random.default_rng(1)
    emb = EmbeddingMatrix(vectors=rng.normal(size=(VOCAB, DIM)))
    for semiring in SEMIRINGS:
        config = PatternSetConfig(pattern_spec={3: 2, 2: 1}, semiring=semiring)
        bank = group_patterns(make_patterns(config, DIM, rng), as_params=True)
        for n in (4, 64):
            tape = Tape(grad=True)
            encode_documents(bank, [doc_of(rng.integers(0, VOCAB, size=n))], emb, config,
                             tape=tape)
            # the whole pattern layer, projections and recurrence, is one node
            assert len(tape._nodes) == 1, (semiring, n)


def _bank_outputs(config, emb, patterns, docs):
    """The bytes of a grad batch's scores and Param grads, of a grad-free
    batch's scores, and the reprs of every trace under a max semiring."""
    bank = group_patterns(patterns, as_params=True)
    tape = Tape(grad=True)
    z, tokens, _ = encode_documents(bank, docs, emb, config, tape=tape)
    tape.backward(scalarize(tape, z))
    free = encode_documents(group_patterns(patterns), docs, emb, config)[0].value
    out = [x.tobytes() for x in (z.value, tokens, free, *(p.grad for p in group_params(bank)))]
    if get_semiring(config.semiring).idempotent_plus:
        scan = DocumentScan(patterns, docs, emb, config)
        out += [repr(scan.trace(i, p)) for i in range(len(docs)) for p in range(len(patterns))]
    return out


@pytest.mark.parametrize("semiring", SEMIRINGS)
@pytest.mark.parametrize("self_loops", [True, False])
def test_pattern_affine_wrapped_by_name_keeps_every_output(monkeypatch, semiring, self_loops):
    # the benchmark's tracer swaps Tape.pattern_affine for a plain wrapper
    # function, and on uninstall sets back the plain function it read, not
    # the staticmethod: the engine must call it through the class
    rng = np.random.default_rng(4)
    config = PatternSetConfig(pattern_spec={3: 2, 1: 1}, semiring=semiring,
                              self_loops=self_loops)
    emb = EmbeddingMatrix(vectors=rng.normal(size=(VOCAB, DIM)))
    patterns = make_patterns(config, DIM, rng, std=1.0)
    docs = [doc_of(rng.integers(0, VOCAB, size=n)) for n in (2, 5, 9)]
    expect = _bank_outputs(config, emb, patterns, docs)

    calls = []
    original = Tape.pattern_affine  # the plain function, as getattr reads it

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        calls.append(True)
        return original(*args, **kwargs)

    monkeypatch.setattr(Tape, "pattern_affine", wrapper)  # the staticmethod comes back last
    assert _bank_outputs(config, emb, patterns, docs) == expect
    # one call per enabled family in each of the grad batch, the grad-free
    # batch and, under a max semiring, DocumentScan
    batches = 3 if get_semiring(semiring).idempotent_plus else 2
    assert len(calls) == batches * (1 + self_loops)
    Tape.pattern_affine = original  # the tracer's uninstall
    assert _bank_outputs(config, emb, patterns, docs) == expect


@pytest.mark.parametrize("semiring", SEMIRINGS)
def test_scan_history_is_released_before_the_projections_backward(monkeypatch, semiring):
    # the kept states and records are the backward's largest arrays; they
    # go once the scan's own adjoints are out, before either projection's
    # backward runs
    runs = []
    real_scan = automata.scan_forward

    def spy(*args, **kwargs):
        run = real_scan(*args, **kwargs)
        runs.append(weakref.ref(run))
        return run

    checked = []
    real_affine = Tape.pattern_affine

    def affine(*args, **kwargs):
        grid, backward = real_affine(*args, **kwargs)

        def checked_backward(g):
            assert runs[-1]() is None, "the scan's history outlived its backward"
            checked.append(True)
            return backward(g)
        return grid, checked_backward

    monkeypatch.setattr(automata, "scan_forward", spy)
    monkeypatch.setattr(Tape, "pattern_affine", affine)
    rng = np.random.default_rng(5)
    config = PatternSetConfig(pattern_spec={3: 2, 2: 1}, semiring=semiring)
    emb = EmbeddingMatrix(vectors=rng.normal(size=(VOCAB, DIM)))
    bank = group_patterns(make_patterns(config, DIM, rng), as_params=True)
    docs = [doc_of(rng.integers(0, VOCAB, size=n)) for n in (3, 8)]
    tape = Tape(grad=True)
    z, _, _ = encode_documents(bank, docs, emb, config, tape=tape)
    run = runs[-1]()
    # max-sum's walk reads only the records, so its scan keeps no states
    assert run is not None and (run.decisions if semiring == "max-sum" else run.states) is not None
    run = None  # the backward must be able to free it
    tape.backward(scalarize(tape, z))
    assert checked == [True, True]  # the main and the self-loop projections


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
