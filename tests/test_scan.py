"""The fused pattern scan: properties against the brute-force oracle and
finite differences, and what it records on the tape.  Tests that drive
scan_forward and scan_backward directly write their scores and read their
adjoints in the (n,W,B,k) grid layout, passed to the scan as slot tables."""

import collections
import functools
import itertools
import tracemalloc
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _synth import PROPERTY, doc_of
from _tape import (dense_adjoint, fd_max_err, gather_grid, grid_table, paired_tables, scalarize,
                   slot_table)

import sopa.automata as automata
import sopa.engine as engine
from sopa.autodiff import Param, Tape, finite_difference_check
from sopa.automata import (DocumentScan, PatternSetConfig, encode_documents, group_params,
                           group_patterns, make_patterns, min_match_tokens)
from sopa.classifier import MlpParams, _mlp_logits
from sopa.embeddings import EmbeddingMatrix
from sopa.engine import scan_backward, scan_forward, stable_sigmoid
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


def scan_loss(sr, mp, sl=None, eps=None, valid=None, encoder="sigmoid", grad=False):
    """Sum of a pattern scan's document scores, from Params: sl and mp hold
    (n,W,B,k) transition scores, eps epsilon pre-activations, None for a
    disabled family.  With grad, adds the sum's gradient to each one's grad."""
    n, length, bsz, count = mp.value.shape
    if valid is None:
        valid = np.ones((bsz, n), dtype=bool)
    lengths = [length] * count
    mp_table, index = grid_table(mp.value)
    sl_table = None if sl is None else grid_table(sl.value)[0]
    run = scan_forward(sr, *paired_tables(sl_table, mp_table, sr.absent), index,
                       None if eps is None else eps.value, encoder, valid, grad, lengths)
    if grad:
        grads = scan_backward(run, np.ones(run.scores.shape))
        for p, g in zip((sl, mp, eps), grads):
            if p is not None:
                p.grad += g if p is eps else dense_adjoint(g, lengths)
    return float(np.sum(run.scores))


def as_grid(draw):
    """A (B,n,k,W) draw laid out as the scan's (n,W,B,k) grid."""
    return np.ascontiguousarray(draw.transpose(1, 3, 0, 2))


def lane(table):
    """One document's (n,W) scores for one pattern as an (n,W,1,1) grid."""
    return np.array(table, dtype=float)[:, :, None, None]


@pytest.mark.parametrize("kind", ["max-product", "max-sum", "sum-product"])
def test_semiring_times_and_plus_gradients(kind):
    # every product and sum of the recurrence, through the scan's backward,
    # and the sigmoid encoder's derivative for the epsilons
    sr = get_semiring(kind)
    rng = np.random.default_rng(5)
    sl = Param("sl", as_grid(stable_sigmoid(rng.normal(size=(2, 4, 2, 3)))))
    mp = Param("mp", as_grid(stable_sigmoid(rng.normal(size=(2, 4, 2, 3)))))
    eps = Param("eps", rng.normal(size=6))
    valid = np.array([[True] * 4, [True, True, False, False]])

    def loss(grad):
        return scan_loss(sr, mp, sl, eps, valid, grad=grad)

    assert fd_max_err(loss, [sl, mp, eps]) < 1e-7


def test_semiring_times_dual_gradients():
    sr = get_semiring("max-product")
    rng = np.random.default_rng(6)
    # unencoded mixed-sign scores exercise both selection branches of the
    # (max, negated min) pair
    sl = Param("sl", as_grid(rng.normal(0.0, 2.0, size=(3, 5, 2, 3))))
    mp = Param("mp", as_grid(rng.normal(0.0, 2.0, size=(3, 5, 2, 3))))
    eps = Param("eps", rng.normal(0.0, 2.0, size=6))
    assert (sl.value < 0).any() and (mp.value < 0).any()

    def loss(grad):
        return scan_loss(sr, mp, sl, eps, encoder="identity", grad=grad)

    assert fd_max_err(loss, [sl, mp, eps]) < 1e-7


def test_semiring_times_dual_values_and_absent():
    sr = get_semiring("max-product")
    amax = np.array([2.0, 3.0, float("-inf")])
    aneg = np.array([-1.0, -2.0, float("-inf")])
    vmax, vneg = sr.dual_times_arrays(amax, aneg, np.array([2.0, -2.0, 5.0]))
    # lane 0: set extremes (max 2, min 1) times 2 -> (4, -2 as negated min)
    # lane 1: extremes (max 3, min 2) times -2 -> max -4, min -6 (negated: 6)
    assert vmax.tolist()[:2] == [4.0, -4.0]
    assert vneg.tolist()[:2] == [-2.0, 6.0]
    assert np.isneginf(vmax[2]) and np.isneginf(vneg[2])


def test_semiring_plus_tie_routes_to_first_operand():
    # one token through a length-2 pattern: epsilon-then-main (the main
    # operand of the end state's sum) ties with main-then-epsilon (the
    # epsilon operand); the adjoint follows the first
    sr = get_semiring("max-sum")
    mp = Param("mp", lane([[1.0, 1.0]]))
    eps = Param("eps", np.array([0.0, 0.0]))
    assert scan_loss(sr, mp, eps=eps, encoder="identity", grad=True) == 1.0
    assert mp.grad[..., 0, 0].tolist() == [[0.0, 1.0]]
    assert eps.grad.tolist() == [1.0, 0.0]
    # two tokens through a length-1 pattern: a zero self-loop on token 1
    # keeps the start state's score, tying with a fresh start before token 2
    sl = Param("sl", lane([[0.0], [0.0]]))
    mp = Param("mp", lane([[-5.0], [1.0]]))
    assert scan_loss(sr, mp, sl=sl, encoder="identity", grad=True) == 1.0
    assert sl.grad[..., 0, 0].tolist() == [[1.0], [0.0]]
    assert mp.grad[..., 0, 0].tolist() == [[0.0], [1.0]]
    # three tokens through a length-2 pattern: on token 2, a main step into
    # state 1 ties a self-loop that stays there
    sl = Param("sl", lane([[0.0, -9.0], [-9.0, 0.0], [-9.0, -9.0]]))
    mp = Param("mp", lane([[0.0, -9.0], [0.0, -9.0], [-9.0, 0.0]]))
    assert scan_loss(sr, mp, sl=sl, encoder="identity", grad=True) == 0.0
    assert sl.grad[..., 0, 0].tolist() == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    assert mp.grad[..., 0, 0].tolist() == [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]


def test_semiring_reduce_max_routes_to_first_argmax():
    # three tokens through a length-1 pattern: the scan's reduce over end
    # positions sends the document score's adjoint to the first of the tied
    # best end positions under the max semirings, to every position under
    # sum-product
    mp, index = grid_table(lane([[1.0], [3.0], [3.0]]))
    valid = np.ones((1, 3), dtype=bool)
    for kind, expect in (("max-product", [0.0, 1.0, 0.0]), ("max-sum", [0.0, 1.0, 0.0]),
                         ("sum-product", [1.0, 1.0, 1.0])):
        sr = get_semiring(kind)
        run = scan_forward(sr, *paired_tables(None, mp, sr.absent), index, None, "identity",
                           valid, True, [1])
        tokens = sr.finalize_scores(run.ends)
        assert isinstance(tokens, np.ndarray) and tokens.tolist() == [[[1.0], [3.0], [3.0]]]
        assert run.scores.tolist() == [[7.0 if kind == "sum-product" else 3.0]]
        _, g_mp, _ = scan_backward(run, np.ones((1, 1)))
        assert dense_adjoint(g_mp, [1]).reshape(-1).tolist() == expect, kind


def test_finalize_scores_gradients_and_shortcut():
    # the scan finalizes its document scores: two tokens through two length-1
    # patterns, the second with no path; mp is (n,W,B,k)
    mp, index = grid_table(np.array([[[[0.5, -np.inf]]], [[[2.0, -np.inf]]]]))
    valid = np.ones((1, 2), dtype=bool)

    def scan(kind):
        sr = get_semiring(kind)
        run = scan_forward(sr, *paired_tables(None, mp, sr.absent), index, None, "identity",
                           valid, True, [1, 1])
        _, g_mp, _ = scan_backward(run, np.ones((1, 2)))
        return run.scores, sr.finalize_scores(run.ends), dense_adjoint(g_mp, [1, 1])

    # max-product maps the lane to its declared zero 0.0, and the lane passes
    # no adjoint
    z, tokens, g_mp = scan("max-product")
    assert z.tolist() == [[2.0, 0.0]]
    assert tokens.tolist() == [[[0.5, 0.0], [2.0, 0.0]]]
    assert g_mp.reshape(2, 2).tolist() == [[0.0, 0.0], [1.0, 0.0]]
    # max-sum's declared zero is its absent marker -inf, so nothing is
    # finalized or masked; the lane's score is -inf whatever the weights,
    # so it too passes no adjoint
    z, tokens, g_mp = scan("max-sum")
    assert z.tolist() == [[2.0, -np.inf]]
    assert np.isneginf(tokens[..., 1]).all()
    assert g_mp.reshape(2, 2).tolist() == [[0.0, 0.0], [1.0, 0.0]]


def _scan_inputs(bsz, n, count, length, rng):
    # (n,W,B,k) grids, as the slot tables and index the scan reads them from
    sl, index = grid_table(rng.normal(size=(n, length, bsz, count)))
    mp, _ = grid_table(rng.normal(size=(n, length, bsz, count)))
    eps = rng.normal(size=count * length)
    return np.stack([sl, mp]), index, eps, np.ones((bsz, n), dtype=bool)


def _scan_peak_bytes(grad: bool, tables, index, eps, valid) -> int:
    sr = get_semiring("max-product")
    tracemalloc.start()
    try:
        engine.scan_forward(sr, tables, True, index, eps, "identity", valid, grad,
                            [tables.shape[1]] * tables.shape[3])
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
    tables, index, eps, valid = inputs
    lengths = [length] * count
    for semiring in SEMIRINGS:
        sr = get_semiring(semiring)
        for keep in (False, True):
            run = engine.scan_forward(sr, tables, True, index, eps, "identity", valid, keep,
                                      lengths)
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
    # the gathered operands, states and records are laid out column first,
    # so each token's slice of them is one C-contiguous block and a step's
    # ufuncs run over whole (document, pattern) blocks, not over the few
    # states of one lane.  Identity-encoded max-product carries the second
    # track.
    runs, operands = [], []
    real = automata.scan_forward
    real_step = engine._scan_step

    def spy(*args, **kwargs):
        runs.append(real(*args, **kwargs))
        return runs[-1]

    def step(sr, h, ops, *args):
        operands.append((ops[0].flags.c_contiguous, ops[1].flags.c_contiguous))
        return real_step(sr, h, ops, *args)

    monkeypatch.setattr(automata, "scan_forward", spy)
    monkeypatch.setattr(engine, "_scan_step", step)
    rng = np.random.default_rng(6)
    config = PatternSetConfig(pattern_spec={3: 2, 2: 1}, semiring=semiring, encoder=encoder)
    emb = EmbeddingMatrix(vectors=rng.normal(size=(VOCAB, DIM)))
    bank = group_patterns(make_patterns(config, DIM, rng, std=1.0), as_params=keep)
    docs = [doc_of(rng.integers(0, VOCAB, size=n)) for n in (3, 8, 5)]
    encode_documents(bank, docs, emb, config, tape=Tape(grad=keep))
    (run,) = runs
    kept = [x for x in (run.states, run.decisions) if x is not None]
    assert len(kept) == keep * (1 + (semiring == "max-product"))
    assert len(operands) == len(run.index[0]) and all(sl and mp for sl, mp in operands)
    for t in range(len(run.index[0])):
        for x in kept:
            assert x[t].flags.c_contiguous


@pytest.mark.parametrize("semiring", SEMIRINGS)
@pytest.mark.parametrize("keep", [False, True])
def test_scan_steps_store_into_cache_line_aligned_buffers(monkeypatch, semiring, keep):
    # a ufunc storing a contiguous block off a 64-byte boundary runs up to
    # twice as slow, and malloc aligns to 16 bytes only, so a scan whose
    # steps stored into fresh arrays ran at a speed set by the heap's state.
    # Every step stores into the same buffers, each on a cache line, and
    # gathers both families' operands from the tables into one more.  The
    # self-loop and main operands are the two halves of one pair, each on
    # cache lines of its own, which one product fills.
    calls = []
    real = engine._scan_step

    def spy(sr, h, ops, eps, restart, bufs, out, won=None):
        calls.append(((ops, *bufs), out))
        return real(sr, h, ops, eps, restart, bufs, out, won)

    monkeypatch.setattr(engine, "_scan_step", spy)
    # B = 5: one track's (W+1, B, k) block is 720 bytes, not whole cache
    # lines, so the main half starts on one only by the pair's padding
    tables, index, eps, valid = _scan_inputs(5, 6, 3, 5, np.random.default_rng(2))
    run = engine.scan_forward(get_semiring(semiring), tables, True, index, eps, "identity",
                              valid, keep, [5] * 3)
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
@pytest.mark.parametrize("keep", [False, True])
def test_only_a_max_product_scan_runs_under_one_errstate(monkeypatch, semiring, keep):
    # no scan enters a warning context of its own, max-product included: a
    # bare max-product scan's products cannot be invalid, and the dual
    # product silences its guarded -inf * 0.0 inside itself.  Every step of
    # every scan, and of the sum-product backward's recomputation, runs
    # under the caller's setting, which every scan leaves as it found it,
    # returning or raising.  Mixed-sign tables run the dual product under
    # max-product, positive ones the bare product.
    settings_seen = []
    real = engine._scan_step

    def spy(*args):
        settings_seen.append(np.geterr()["invalid"])
        return real(*args)

    monkeypatch.setattr(engine, "_scan_step", spy)
    sr = get_semiring(semiring)
    tables, index, eps, valid = _scan_inputs(2, 5, 3, 4, np.random.default_rng(7))
    before = np.geterr()
    backward_steps = 5 * (keep and semiring == "sum-product")
    for t, e, tracks in ((tables, eps, 2), (np.abs(tables) + 0.5, np.abs(eps) + 0.5, 1)):
        settings_seen.clear()
        run = engine.scan_forward(sr, t, True, index, e, "identity", valid, keep, [4] * 3)
        assert np.geterr() == before
        assert len(run.restart) == (tracks if semiring == "max-product" else 1)
        if keep:
            engine.scan_backward(run, np.ones(run.scores.shape))
        assert settings_seen == [before["invalid"]] * (5 + backward_steps)
        assert np.geterr() == before

    def failing(*args):
        if len(settings_seen) == 2:
            raise RuntimeError("a step failed")
        return spy(*args)

    monkeypatch.setattr(engine, "_scan_step", failing)
    settings_seen.clear()
    with pytest.raises(RuntimeError, match="a step failed"):
        engine.scan_forward(sr, tables, True, index, eps, "identity", valid, keep, [4] * 3)
    assert np.geterr() == before


@pytest.mark.parametrize("self_loops, epsilons", [(False, True), (True, False), (False, False)])
def test_a_max_sum_state_that_overflows_meets_no_disabled_family(self_loops, epsilons):
    # finite main scores whose sum overflows: state 2 reaches +inf.  A
    # disabled family's absent -inf, added to it, would make the score NaN;
    # a disabled family is not added at all, so the score is +inf, as brute
    # force scores it
    config = PatternSetConfig(pattern_spec={3: 1}, semiring="max-sum", encoder="identity",
                              self_loops=self_loops, epsilons=epsilons)
    pattern = make_patterns(config, DIM, np.random.default_rng(0))[0]
    for name in ("u", "a", "w", "c"):
        setattr(pattern, name, np.zeros_like(getattr(pattern, name)))
    pattern.b = np.array([1e308, 1e308, -1e308])
    emb = EmbeddingMatrix(vectors=np.random.default_rng(1).normal(size=(VOCAB, DIM)))
    doc = doc_of([1, 2, 3, 4, 5])
    with np.errstate(over="ignore"):
        score = DocumentScan([pattern], [doc], emb, config).scores[0, 0]
        assert score == brute_force_doc_score(pattern, emb.doc_matrix(doc), config) == np.inf


@pytest.mark.parametrize("semiring", SEMIRINGS)
def test_the_oracles_keep_their_own_warning_context(semiring):
    # -inf * 0.0 outside the scan: absent states times exact-zero identity
    # scores.  pyproject turns a RuntimeWarning into an error; no product
    # that allocates its result may raise one.  (Sum-product's absent marker
    # is 0.0, so -inf is no operand of its products.)
    sr = get_semiring(semiring)
    config = PatternSetConfig(pattern_spec={3: 1}, semiring=semiring, encoder="identity")
    pattern = make_patterns(config, DIM, np.random.default_rng(0))[0]
    for name in ("u", "a", "w", "b", "c"):
        setattr(pattern, name, np.zeros_like(getattr(pattern, name)))
    doc_matrix = np.random.default_rng(1).normal(size=(4, DIM))
    assert np.geterr()["invalid"] != "ignore"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        score = dense_doc_score(pattern, doc_matrix, config)
        if sr.idempotent_plus:
            prods = sr.path_times_arrays(np.array([-np.inf, 2.0]), np.array([0.0, 0.0]))
            assert prods.tolist() == [-np.inf, 0.0 if semiring == "max-product" else 2.0]
    assert score == 0.0  # every path takes a zero score


@pytest.mark.parametrize("semiring", SEMIRINGS)
def test_scan_backward_holds_two_operands_of_adjoint(semiring):
    # the backward's own allocations: the self-loop and main adjoints, each
    # at most the size of one (n, W, B, k) operand, handed back uncopied,
    # plus per-step vectors; a copy of each would make four operands
    rng = np.random.default_rng(3)
    bsz, n, lengths = 4, 300, (7, 2, 5)
    sr = get_semiring(semiring)
    cells = engine.grid_cells(lengths)
    patterns, columns = np.divmod(cells, 7)
    grids = []
    for _ in range(2):
        grid = np.full((n, 7, bsz, len(lengths)), sr.absent)
        grid[:, columns, :, patterns] = rng.uniform(size=(bsz, n, len(cells))).T
        grids.append(grid)
    eps = rng.uniform(size=len(cells))
    valid = np.ones((bsz, n), dtype=bool)
    (sl, index), (mp, _) = (grid_table(grid) for grid in grids)
    run = engine.scan_forward(sr, np.stack([sl, mp]), True, index, eps, "identity", valid,
                              True, lengths)
    tracemalloc.start()
    try:
        _, g_mp, _ = engine.scan_backward(run, np.ones((bsz, len(lengths))))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * grids[0].nbytes
    assert dense_adjoint(g_mp, lengths).any()  # the main adjoint reached the grid


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
        # the self-loop and main adjoints of the document scores weighted by
        # w, as (n,W,B,k) grids
        vectors, index, valid, _ = automata._batch_matrix(batch, emb)

        def table(weights, bias):
            return Tape.pattern_affine(vectors, index, weights, bias, encoder, bank.lengths,
                                       slot_table(vectors, bank.lengths, sr.absent))[0]
        sl = table(bank.u, bank.a) if self_loops else None
        run = engine.scan_forward(sr, *paired_tables(sl, table(bank.w, bank.b), sr.absent),
                                  index, bank.c if epsilons else None, encoder, valid, True,
                                  bank.lengths)
        g_sl, g_mp, _ = engine.scan_backward(run, w)
        return [dense_adjoint(g, bank.lengths) for g in (g_sl, g_mp) if g is not None]

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
    real = engine.scan_forward

    def spy(*args, **kwargs):
        run = real(*args, **kwargs)
        seen.append(run.restart.shape[0])
        if run.states is not None:
            assert run.states.shape[1] == seen[-1]
        return run

    monkeypatch.setattr(engine, "scan_forward", spy)
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
    # the bank mixes lengths 3 and 1, so its grid carries -inf padding; a
    # disabled family is multiplied under neither semiring
    totals = []
    for self_loops, epsilons in itertools.product((True, False), repeat=2):
        config, emb, patterns, docs = _track_batch("sigmoid", False, self_loops, epsilons)
        bank = group_patterns(patterns, as_params=True)
        totals.append({})
        for kind in ("max-product", "max-sum"):
            sr = CountingSemiring(get_semiring(kind))
            encode_documents(bank, docs, emb, PatternSetConfig(
                pattern_spec=config.pattern_spec, semiring=kind, self_loops=self_loops,
                epsilons=epsilons), tape=Tape(grad=True), semiring=sr)
            totals[-1][kind] = sr.total
        assert totals[-1]["max-product"] == totals[-1]["max-sum"] > 0
    # each family off costs less than both on, and both off least
    ops = [t["max-product"] for t in totals]
    assert ops[0] > max(ops[1], ops[2]) and min(ops[1], ops[2]) > ops[3]
    # the grad tape kept one track of states: padding is not a negative
    # factor, and a disabled family's absent marker is no factor at all
    assert scan_tracks == [1, 1] * 4


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


def _same(a: float, b: float) -> bool:
    return a == b or (np.isnan(a) and np.isnan(b))


def _bytes(run, params):
    return [x.tobytes() for x in (run.scores, run.ends, run.states, run.decisions,
                                  *(p.grad for p in params))]


@settings(PROPERTY, max_examples=200)
@given(lengths=st.lists(st.integers(1, 4), min_size=1, max_size=3),
       doc_lengths=st.lists(st.integers(1, 6), min_size=1, max_size=3),
       bank=st.sampled_from(["sigmoid", "identity", "positive-identity"]),
       # both families on half the time, no special value a third: bare
       # scans are not rare
       switches=st.sampled_from([(True, True)] * 3 + [(True, False), (False, True),
                                                      (False, False)]),
       special=st.sampled_from([None] * 3 + [0.0, -0.0, np.nan, np.inf, -np.inf]),
       family=st.sampled_from("abc"), seed=st.integers(0, 2 ** 32 - 1))
@example(lengths=[3, 1, 2], doc_lengths=[4, 2], bank="sigmoid", switches=(True, True),
         special=None, family="a", seed=0)
@example(lengths=[4, 2], doc_lengths=[6, 1, 3], bank="positive-identity",
         switches=(True, True), special=None, family="b", seed=3)
@example(lengths=[3, 1], doc_lengths=[5], bank="positive-identity", switches=(True, True),
         special=-0.0, family="c", seed=1)
@example(lengths=[2, 3], doc_lengths=[4, 4], bank="sigmoid", switches=(True, True),
         special=-np.inf, family="b", seed=2)
def test_a_bare_scan_keeps_every_bit_of_the_guarded_one(lengths, doc_lengths, bank, switches,
                                                        special, family, seed):
    # one slot of pattern 0 scores special for every token: its weight row
    # is zero and its bias special (the epsilon is special itself).  A
    # max-product scan runs bare where every real factor of an enabled
    # family is finite and positive: a sigmoid bank, or an identity bank of
    # positive scores, without a special value in an enabled family that
    # encodes to 0.0, NaN or an infinity.  Every other scan, identity banks
    # of mixed signs among them, runs the dual product.
    rng = np.random.default_rng(seed)
    self_loops, epsilons = switches
    encoder = "sigmoid" if bank == "sigmoid" else "identity"
    config = PatternSetConfig(pattern_spec=dict(collections.Counter(lengths)),
                              semiring="max-product", encoder=encoder,
                              self_loops=self_loops, epsilons=epsilons)
    if bank == "positive-identity":
        emb, patterns = _positive_bank(config, rng)
    else:
        emb = EmbeddingMatrix(vectors=rng.normal(size=(VOCAB, DIM)))
        patterns = make_patterns(config, DIM, rng, std=1.0)
    if bank == "identity":
        patterns[0].b[0] = -100.0  # a negative main score: two tracks
    if special is not None:
        if family == "c":
            patterns[0].c[0] = special
        else:
            getattr(patterns[0], "u" if family == "a" else "w")[0] = 0.0
            getattr(patterns[0], family)[0] = special
    factor = engine.encode_values(np.float64(1.0 if special is None else special), encoder)
    on = {"a": self_loops, "b": True, "c": epsilons}[family]
    bare = bank != "identity" and (not on or bool(np.isfinite(factor) and factor > 0.0))
    docs = [doc_of(rng.integers(0, VOCAB, size=n)) for n in doc_lengths]

    # scores against brute force, traces against the Viterbi oracle; a NaN
    # score has no best path.  The oracles read an infinite factor otherwise
    # than the scan, guarded or bare: a path product of -inf is no path to
    # the brute-force fold, and a -inf arc a path to the Viterbi oracle
    scan = DocumentScan(patterns, docs, emb, config)
    assert len(scan._run.restart) == (1 if bare else 2)
    for i, doc in enumerate(docs if not (on and np.isinf(factor)) else []):
        doc_matrix = emb.doc_matrix(doc)
        for p, pattern in enumerate(patterns):
            score = scan.scores[i, p]
            assert _same(score, brute_force_doc_score(pattern, doc_matrix, config))
            if not np.isnan(score):
                assert scan.trace(i, p) == viterbi_trace(pattern, doc_matrix, config,
                                                         pattern_index=p)

    # ends, states, decisions and gradients: the same bits as the same scan
    # with every one-track product run guarded, by a step double
    sr = get_semiring("max-product")
    vectors, index, valid, _ = automata._batch_matrix(docs, emb)

    def kept_scan():
        params = group_patterns(patterns, as_params=True)
        run, backward = automata._scan_bank(sr, config, params, vectors, index, valid, True)
        # an infinite factor on a dual track makes adjoints of both signs
        # infinite, and the weight gradient sums them to NaN; that is the
        # backward's, guarded or bare, and only the scan is checked for
        # invalid products here
        with np.errstate(invalid="ignore"):
            backward(np.ones(run.scores.shape))
        return run, group_params(params)

    run, params = kept_scan()
    assert len(run.restart) == (1 if bare else 2)
    real = engine._extend

    def guarded_extend(sr, x, b, out):
        if len(x) == 2:
            real(sr, x, b, out)
        else:
            out[0] = sr.path_times_arrays(x[0], b)

    with mock.patch.object(engine, "_extend", guarded_extend):
        guarded, guarded_params = kept_scan()
    assert _bytes(run, params) == _bytes(guarded, guarded_params)


def _tracks_and_grid_rule(config, emb, patterns, docs):
    """The track count of a scan of the bank's slot tables, and the track
    count of the rule on its (n,W,B,k) operand grids: two under max-product
    where an enabled family's grid or epsilon holds a score that is not
    finite and positive, the absent padding excepted."""
    sr = get_semiring(config.semiring)
    bank = group_patterns(patterns)
    vectors, index, valid, _ = automata._batch_matrix(docs, emb)

    def table(weights, bias):
        return Tape.pattern_affine(vectors, index, weights, bias, config.encoder, bank.lengths,
                                   slot_table(vectors, bank.lengths, sr.absent))[0]
    sl = table(bank.u, bank.a) if config.self_loops else None
    mp = table(bank.w, bank.b)
    eps = bank.c if config.epsilons else None
    run = engine.scan_forward(sr, *paired_tables(sl, mp, sr.absent), index, eps,
                              config.encoder, valid, False, bank.lengths)
    scores = [gather_grid(x, index) for x in (sl, mp) if x is not None]
    if eps is not None:
        scores.append(engine.encode_values(eps, config.encoder))
    dual = any((~((x > 0) & (x < np.inf)) & (x != sr.absent)).any() for x in scores)
    return run.restart.shape[0], 2 if dual and sr.kind == "max-product" else 1


def _positive_bank(config, rng):
    # identity scores of at least 1 on every token, so only a bias can make
    # one negative, and then only where the token vector is the zero row
    # that OOV tokens and padding share
    vectors = 1.0 + np.abs(rng.normal(size=(VOCAB, DIM)))
    patterns = make_patterns(config, DIM, rng, std=1.0)
    for p in patterns:
        for name in ("u", "a", "w", "b", "c"):
            setattr(p, name, 1.0 + np.abs(getattr(p, name)))
    return EmbeddingMatrix(vectors=vectors), patterns


@pytest.mark.parametrize("case, padded, expect", [
    ("padding-row", True, 2), ("padding-row", False, 1), ("oov-row", False, 2),
    ("zero-row", True, 2), ("zero-row", False, 1), ("epsilon", True, 2),
    ("disabled-self-loop", True, 1), ("disabled-epsilon", True, 1), ("sigmoid", True, 1)])
def test_the_track_decision_on_tables_is_the_grid_rule(case, padded, expect):
    rng = np.random.default_rng(8)
    config = PatternSetConfig(pattern_spec={3: 2, 1: 1}, semiring="max-product",
                              encoder="sigmoid" if case == "sigmoid" else "identity",
                              self_loops=case != "disabled-self-loop",
                              epsilons=case != "disabled-epsilon")
    emb, patterns = _positive_bank(config, rng)
    if case in ("padding-row", "oov-row"):  # scores the zero row -0.5, every token >= 0.5
        patterns[1].b[0] = -0.5
    elif case == "zero-row":  # scores the zero row exactly 0.0
        patterns[1].b[0] = 0.0
    elif case == "epsilon":
        patterns[2].c[0] = -0.5
    elif case == "disabled-self-loop":  # negative scores in a disabled family
        patterns[0].a[:] = -100.0
    elif case == "disabled-epsilon":
        patterns[0].c[:] = -100.0
    else:  # negative pre-activations, which the sigmoid maps into (0, 1)
        patterns[0].a[:] = patterns[0].b[:] = patterns[0].c[:] = -100.0
    lengths = (2, 5, 3) if padded else (4, 4, 4)
    docs = [doc_of(rng.integers(0, VOCAB, size=n)) for n in lengths]
    if case == "oov-row":
        docs[1].token_ids[2] = -1
    assert _tracks_and_grid_rule(config, emb, patterns, docs) == (expect, expect)


def _traced_peak(f, *args):
    """f(*args) and the peak of what it allocated."""
    tracemalloc.start()
    try:
        return f(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("semiring", ["max-product", "max-sum"])
def test_max_semiring_scans_build_no_operand_grid(semiring):
    # at train-long's shapes one (n, W, B, k) float64 operand grid is 14.7 MB.
    # The projections, a grad-free and a kept scan, and the kept scan's
    # backward through the projections each peak below that, so none of
    # them holds such a block: the steps gather their operands from the
    # slot tables, and the backward hands the projections one arc per lane
    # and token.  A kept max-product scan's states alone outweigh a grid, so
    # its peak is bounded beyond them.
    rng = np.random.default_rng(0)
    bsz, n, dim, distinct = 32, 320, 50, 1500
    sr = get_semiring(semiring)
    config = PatternSetConfig(pattern_spec={6: 10, 5: 10, 4: 10}, semiring=semiring)
    bank = group_patterns(make_patterns(config, dim, rng))
    vectors = rng.normal(size=(distinct, dim))
    index = rng.integers(0, distinct, size=(bsz, n))
    valid = np.ones((bsz, n), dtype=bool)
    grid = n * max(bank.lengths) * bsz * len(bank.lengths) * 8
    # the scan's tables, allocated as the bank's forward does, outside the
    # projections' peaks
    tables = np.full((2, max(bank.lengths), distinct, len(bank.lengths)), sr.absent)
    backs = []
    for out, (weights, bias) in zip(tables, ((bank.u, bank.a), (bank.w, bank.b))):
        (_, back), peak = _traced_peak(Tape.pattern_affine, vectors, index, weights, bias,
                                       "sigmoid", bank.lengths, out)
        assert peak < grid
        backs.append(back)
    sl_back, mp_back = backs
    for keep in (False, True):
        run, peak = _traced_peak(engine.scan_forward, sr, tables, True, index, bank.c,
                                 "sigmoid", valid, keep, bank.lengths)
        kept = sum(x.nbytes for x in (run.states, run.decisions) if x is not None)
        assert peak - (run.states is not None) * kept < grid

    def backward():
        g_sl, g_mp, _ = engine.scan_backward(run, np.ones((bsz, len(bank.lengths))))
        return sl_back(g_sl), mp_back(g_mp)
    _, peak = _traced_peak(backward)
    assert peak < grid
