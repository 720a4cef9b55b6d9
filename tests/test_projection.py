"""The token-keyed projection: each batch projects its distinct tokens once
(Tape.pattern_affine) through the kernel the oracles use (engine.project).
Scores and adjoints are indexed in the (n,W,B,k) grid layout, gathered from
the slot tables through the batch's index."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _synth import PROPERTY, doc_of
from _tape import dense_adjoint, fd_max_err, gather_grid, paired_tables, slot_adjoint, slot_table
from sopa.autodiff import Param, Tape, finite_difference_check
from sopa.automata import (MAIN, SELF_LOOP, DocumentScan, PatternParams, PatternSetConfig,
                           _batch_matrix, encode_documents, group_patterns, make_patterns,
                           transition_tables)
from sopa.embeddings import OOV_ID, EmbeddingMatrix
from sopa.engine import (encode_values, grid_cells, project, scan_backward, scan_forward,
                         stable_sigmoid)
from sopa.semiring import get_semiring

SEMIRINGS = ("max-product", "max-sum", "sum-product")
ENCODERS = ("sigmoid", "identity")


def bits(a: np.ndarray) -> bytes:
    # bitwise, so 0.0 and -0.0 differ
    return np.ascontiguousarray(a).tobytes()


def masked_sigmoid(x):
    # the two-branch formula stable_sigmoid replaced; its bits are the contract
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_stable_sigmoid_matches_and_saturates():
    x = np.linspace(-20, 20, 101)
    assert np.allclose(stable_sigmoid(x), 1.0 / (1.0 + np.exp(-x)), atol=1e-15)
    assert stable_sigmoid(np.array([-1000.0]))[0] == 0.0
    assert stable_sigmoid(np.array([1000.0]))[0] == 1.0
    assert not np.isnan(stable_sigmoid(np.array([-745.0, 745.0]))).any()
    tiny = np.finfo(np.float64).smallest_subnormal
    edges = np.array([0.0, -0.0, 745.0, -745.0, 1000.0, -1000.0, tiny, -tiny, 1e-310,
                      -1e-310, np.nan, -np.nan, np.inf, -np.inf])
    wide = np.random.default_rng(0).normal(scale=30.0, size=(50, 6, 5))
    # ±0, ±inf, ±NaN, and values whose exp(-|x|) is tiny, subnormal or zero
    signed = np.array([0.0, np.inf, np.nan, 700.0, 745.0, 1e-300, tiny])
    for x in (edges, np.linspace(-40, 40, 1001), wide, np.concatenate([signed, -signed])):
        # bitwise, so 0.0 and -0.0 and the sign of a NaN count
        assert stable_sigmoid(x).tobytes() == masked_sigmoid(x).tobytes()


def test_project_matches_einsum():
    rng = np.random.default_rng(0)
    v = rng.normal(size=(7, 4))
    m = rng.normal(size=(3, 2, 4))
    b = rng.normal(size=(3, 2))
    out = project(v, m, b, "identity")
    assert out.shape == (7, 3, 2)
    assert np.allclose(out, np.einsum("ne,cle->ncl", v, m) + b, atol=1e-14)
    # its reduction order is deterministic, so repeated calls agree bitwise
    assert np.array_equal(out, project(v, m, b, "identity"))
    # and a row's scores do not depend on the rows projected with it
    for i in range(len(v)):
        assert np.array_equal(out[i:i + 1], project(v[i:i + 1], m, b, "identity"))
    assert np.array_equal(project(v, m, b, "sigmoid"), stable_sigmoid(out))


def test_pattern_affine_gradients():
    rng = np.random.default_rng(3)
    vectors = rng.normal(size=(7, 3))
    index = np.array([[0, 1, 2, 3, 4], [5, 6, 1, 1, 0]])  # some rows repeat
    lengths = (2, 1, 3, 2)
    w = Param("w", rng.normal(size=(8, 3)))
    b = Param("b", rng.normal(size=8))

    for encoder in ("sigmoid", "identity"):
        def loss(grad):
            # the sum of the squared grid cells
            table, backward = Tape.pattern_affine(vectors, index, w.value, b.value, encoder,
                                                  lengths, 0.0, slot_table(vectors, lengths))
            grid = gather_grid(table, index)
            if grad:
                g_w, g_b = backward(slot_adjoint(2.0 * grid, lengths))
                w.grad += g_w
                b.grad += g_b
            return float(np.sum(grid * grid))

        assert fd_max_err(loss, [w, b], max_checks=40) < 1e-8


def test_pattern_affine_value_matches_loop():
    rng = np.random.default_rng(4)
    vectors = rng.normal(size=(6, 4))
    index = np.arange(6).reshape(2, 3)
    lengths = (2, 3, 1)
    w = rng.normal(size=(6, 4))
    b = rng.normal(size=6)
    table, _ = Tape.pattern_affine(vectors, index, w, b, "identity", lengths, -np.inf,
                                   slot_table(vectors, lengths))
    out = gather_grid(table, index)
    # right-aligned: pattern p's slot j sits at column 3 - L_p + j
    expect = np.full((3, 3, 2, 3), -np.inf)
    slot = 0
    for p, length in enumerate(lengths):
        for j in range(length):
            expect[:, 3 - length + j, :, p] = vectors[index.T] @ w[slot] + b[slot]
            slot += 1
    assert np.array_equal(np.isneginf(out), np.isneginf(expect))
    assert np.allclose(out, expect, atol=1e-12)


# the first three examples put U x S above numpy's 8,192-element iterator
# buffer, so einsum iterates the product in more than one buffer
@settings(PROPERTY, max_examples=30)
@given(dim=st.sampled_from((1, 3, 7, 8, 9, 50, 300, 301)), slots=st.sampled_from((1, 6, 150)),
       rows=st.integers(1, 3000), encoder=st.sampled_from(ENCODERS),
       seed=st.integers(0, 2 ** 32 - 1))
@example(dim=300, slots=150, rows=3000, encoder="identity", seed=0)
@example(dim=301, slots=150, rows=1058, encoder="sigmoid", seed=1)
@example(dim=9, slots=6, rows=3000, encoder="identity", seed=2)
@example(dim=1, slots=150, rows=100, encoder="identity", seed=3)
def test_project_rows_do_not_depend_on_the_rows_or_layout_beside_them(dim, slots, rows,
                                                                      encoder, seed):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(rows, dim))
    weights = rng.normal(size=(slots, dim))
    bias = rng.normal(size=slots)
    full = project(vectors, weights, bias, encoder)
    for i in range(rows):
        assert bits(project(vectors[i:i + 1], weights, bias, encoder)) == bits(full[i:i + 1])
        # a 1-D row, reduced over e on its own
        lone = np.einsum("e,ke->k", vectors[i], weights, optimize=False) + bias
        assert bits(encode_values(lone, encoder)) == bits(full[i])
    for rows_of in (slice(1, None), slice(7, None), slice(None, None, 2), slice(1, None, 2)):
        assert bits(project(vectors[rows_of], weights, bias, encoder)) == bits(full[rows_of])
    # Fortran order, as a transposed array would have it
    fortran_v, fortran_w = np.asfortranarray(vectors), np.asfortranarray(weights)
    for v, w in ((fortran_v, weights), (vectors, fortran_w), (fortran_v, fortran_w)):
        assert bits(project(v, w, bias, encoder)) == bits(full)


@pytest.mark.parametrize("dim", [50, 300, 301])
@settings(PROPERTY, max_examples=6)
@given(rows=st.integers(1, 200), encoder=st.sampled_from(ENCODERS),
       seed=st.integers(0, 2 ** 32 - 1))
@example(rows=200, encoder="identity", seed=0)
def test_project_slots_do_not_depend_on_the_slots_beside_them(dim, rows, encoder, seed):
    # the engine projects a bank's S slots in one call, the oracles one
    # pattern's L slots at a time; they agree bitwise only if a slot's cells
    # do not change with the slots (output columns) projected beside it
    rng = np.random.default_rng(seed)
    slots = 150
    vectors = rng.normal(size=(rows, dim))
    weights = rng.normal(size=(slots, dim))
    bias = rng.normal(size=slots)
    full = project(vectors, weights, bias, encoder)
    for length in (1, 4, 5, 6, 7):
        for first in range(0, slots, length):
            block = slice(first, first + length)
            assert bits(project(vectors, weights[block], bias[block], encoder)) == \
                bits(full[:, block]), (length, first)


def token_lists(vocab: int):
    ids = st.integers(OOV_ID, vocab - 1)
    return st.lists(st.lists(ids, min_size=1, max_size=6), min_size=1, max_size=4)


@settings(PROPERTY, max_examples=150)
@given(vocab=st.integers(1, 6), dim=st.integers(1, 4), count=st.integers(1, 3),
       length=st.integers(1, 4), docs=token_lists(6), encoder=st.sampled_from(ENCODERS),
       seed=st.integers(0, 2 ** 32 - 1))
@example(vocab=3, dim=2, count=2, length=3, docs=[[-1, -1], [-1], [-1, -1, -1]],
         encoder="sigmoid", seed=1)  # an all-OOV batch
@example(vocab=2, dim=3, count=1, length=2, docs=[[1, 1, 1, 0], [0, 0]],
         encoder="identity", seed=2)  # repeated ids
def test_gathered_tables_equal_per_document_tables(vocab, dim, count, length, docs,
                                                   encoder, seed):
    rng = np.random.default_rng(seed)
    docs = [doc_of([i if i < vocab else OOV_ID for i in ids]) for ids in docs]
    # a longer pattern pads the drawn ones on the bank's grid
    config = PatternSetConfig(pattern_spec={length: count, 5: 1}, encoder=encoder)
    emb = EmbeddingMatrix(vectors=rng.normal(size=(vocab, dim)))
    patterns = make_patterns(config, dim, rng, std=1.0)
    bank = group_patterns(patterns)
    vectors, index, valid, lengths = _batch_matrix(docs, emb)

    padded = np.full(index.shape, OOV_ID)
    for i, doc in enumerate(docs):
        padded[i, :len(doc)] = doc.token_ids
    assert len(vectors) == len(np.unique(padded))  # one row per distinct token
    # OOV tokens and padding share the zero row
    assert not vectors[index[padded == OOV_ID]].any()
    assert len(np.unique(index[padded == OOV_ID])) <= 1

    sl, mp = (gather_grid(Tape.pattern_affine(vectors, index, weights, bias, encoder,
                                              bank.lengths, -np.inf,
                                              slot_table(vectors, bank.lengths))[0], index)
              for weights, bias in ((bank.u, bank.a), (bank.w, bank.b)))
    for i, doc in enumerate(docs):
        n = int(lengths[i])
        assert valid[i].sum() == n
        for p, pattern in enumerate(patterns):
            ref_sl, ref_mp, _ = transition_tables(pattern, emb.doc_matrix(doc), config)
            first = 5 - pattern.length
            assert bits(sl[:n, first:, i, p]) == bits(ref_sl)
            assert bits(mp[:n, first:, i, p]) == bits(ref_mp)
            assert np.isneginf(sl[:, :first, i, p]).all()
            assert np.isneginf(mp[:, :first, i, p]).all()


@pytest.mark.parametrize("encoder", ENCODERS)
def test_pattern_affine_gradients_match_dense_reference(encoder):
    rng = np.random.default_rng(7)
    # row 0 is the shared OOV/padding row; the index repeats rows
    vectors = np.vstack([np.zeros(4), rng.normal(size=(5, 4))])
    index = rng.integers(0, len(vectors), size=(3, 7))
    # patterns of lengths 3 and 1 on a (2, 3) grid; the second sits in column 2
    lengths, cells = (3, 1), [0, 1, 2, 5]
    w = Param("w", rng.normal(size=(4, 4)))
    b = Param("b", rng.normal(size=4))
    # drawn per position, (B,n,k,W); the grid's cells read it as (n,W,B,k)
    adjoint = rng.normal(size=index.shape + (2, 3))
    lanes = adjoint.transpose(1, 3, 0, 2)

    def loss(grad):
        # the grid's cells weighted by the adjoint
        table, backward = Tape.pattern_affine(vectors, index, w.value, b.value, encoder,
                                              lengths, 0.0, slot_table(vectors, lengths))
        grid = gather_grid(table, index)
        if grad:
            g_w, g_b = backward(slot_adjoint(lanes, lengths))
            w.grad += g_w
            b.grad += g_b
        return float(np.sum(grid * lanes))

    loss(True)

    # dense reference: every padded position projected and differentiated alone
    x = vectors[index]
    g = adjoint.reshape(index.shape + (6,))[..., cells]
    if encoder == "sigmoid":
        y = 1.0 / (1.0 + np.exp(-(np.einsum("bne,se->bns", x, w.value) + b.value)))
        g = g * y * (1.0 - y)
    for grad, ref in ((w.grad, np.einsum("bns,bne->se", g, x)), (b.grad, g.sum(axis=(0, 1)))):
        assert np.abs(grad - ref).max() <= 1e-12 * np.abs(ref).max()

    report = finite_difference_check(lambda: loss(False), [w, b])
    assert report.max_rel_error < 1e-8


@settings(PROPERTY, max_examples=100)
@given(vocab=st.integers(1, 4), dim=st.integers(1, 4), spec=st.sampled_from(
           ({3: 2, 1: 1}, {2: 1}, {5: 1, 4: 2})), docs=token_lists(4),
       encoder=st.sampled_from(ENCODERS), strided=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@example(vocab=2, dim=3, spec={3: 2, 1: 1}, docs=[[1, 1, 0, 1, 1, 0], [0, 1], [1, 1, 1]],
         encoder="sigmoid", strided=False, seed=1)  # tokens repeated across documents
def test_projection_backward_adds_each_slots_adjoint_in_document_token_order(
        vocab, dim, spec, docs, encoder, strided, seed):
    # one bincount over every slot at every position, laid out (B,n,S) or
    # as a strided view of it, still adds each row's sum of a slot's
    # adjoint in (document, token) order: the bits of np.add.at over the
    # documents-first positions, slot by slot
    rng = np.random.default_rng(seed)
    docs = [doc_of([i if i < vocab else OOV_ID for i in ids]) for ids in docs]
    config = PatternSetConfig(pattern_spec=spec, encoder=encoder)
    emb = EmbeddingMatrix(vectors=rng.normal(size=(vocab, dim)))
    bank = group_patterns(make_patterns(config, dim, rng, std=1.0))
    vectors, index, _, _ = _batch_matrix(docs, emb)
    _, backward = Tape.pattern_affine(vectors, index, bank.w, bank.b, encoder, bank.lengths,
                                      -np.inf, slot_table(vectors, bank.lengths))
    # an adjoint on every slot, padding included; large and small values, so
    # that another order of the additions rounds otherwise
    shape = index.shape + (len(bank.b),)
    value = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    if strided:  # the same adjoint written slots first, (S,n,B), as a view
        value = np.ascontiguousarray(value.transpose(2, 1, 0)).transpose(2, 1, 0)
    g = (np.arange(len(bank.b)), value)
    g_w, g_b = backward(g)
    ref_w, ref_b = dense_reference(vectors, index, bank.w, bank.b, bank.lengths, encoder,
                                   dense_adjoint(g, bank.lengths))
    assert bits(g_w) == bits(ref_w)
    assert bits(g_b) == bits(ref_b)


def dense_reference(vectors, index, weights, bias, lengths, encoder, adjoint):
    """The weight and bias gradients of an (n,W,B,k) adjoint of a family's
    scores: np.add.at over the positions in (document, token) order, slot
    by slot."""
    at = index.reshape(-1)
    patterns, columns = np.divmod(grid_cells(lengths), adjoint.shape[1])
    g_rows = np.zeros((len(vectors), len(bias)))
    for slot, (p, col) in enumerate(zip(patterns, columns)):
        np.add.at(g_rows[:, slot], at, adjoint[:, col, :, p].T.reshape(-1))
    if encoder == "sigmoid":
        y = project(vectors, weights, bias, encoder)
        g_rows *= y * (1.0 - y)
    return g_rows.T @ vectors, g_rows.sum(axis=0)


@settings(PROPERTY, max_examples=100)
@given(vocab=st.integers(1, 4), dim=st.integers(1, 4), spec=st.sampled_from(
           ({3: 2, 1: 1}, {2: 1}, {5: 1, 4: 2})), docs=token_lists(4),
       encoder=st.sampled_from(ENCODERS), seed=st.integers(0, 2 ** 32 - 1))
@example(vocab=2, dim=3, spec={3: 2, 1: 1}, docs=[[1, 1, 0, 1, 1, 0], [0, 1], [1, 1, 1]],
         encoder="sigmoid", seed=1)  # tokens repeated across documents
def test_projection_backward_of_arcs_is_the_dense_backward(vocab, dim, spec, docs, encoder,
                                                            seed):
    # both shapes of the one adjoint format, on padded positions too:
    # one arc or none per (document, token, pattern), on any slot of its
    # pattern, NaN where there is no arc, which no sum reads; and every slot
    # at every position.  Values of any magnitude, +0.0 and -0.0 among
    # them: the one bincount adds the bits the dense reference adds.
    rng = np.random.default_rng(seed)
    docs = [doc_of([i if i < vocab else OOV_ID for i in ids]) for ids in docs]
    config = PatternSetConfig(pattern_spec=spec, encoder=encoder)
    emb = EmbeddingMatrix(vectors=rng.normal(size=(vocab, dim)))
    bank = group_patterns(make_patterns(config, dim, rng, std=1.0))
    vectors, index, _, _ = _batch_matrix(docs, emb)
    _, backward = Tape.pattern_affine(vectors, index, bank.w, bank.b, encoder, bank.lengths,
                                      -np.inf, slot_table(vectors, bank.lengths))
    lengths = np.array(bank.lengths)

    def draw(shape):
        value = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
        value[rng.random(shape) < 0.2] = -0.0
        value[rng.random(shape) < 0.1] = 0.0
        return value

    lanes = index.shape + (len(lengths),)
    state = rng.integers(-1, lengths, size=lanes)  # an arc's source state, -1 for none
    slot = np.where(state < 0, -1, np.cumsum(lengths) - lengths + state).astype(np.int32)
    arcs = (slot, draw(lanes))
    arcs[1][slot < 0] = np.nan
    every = (np.arange(lengths.sum()), draw(index.shape + (lengths.sum(),)))
    for g in (arcs, every):
        ref_w, ref_b = dense_reference(vectors, index, bank.w, bank.b, bank.lengths, encoder,
                                       dense_adjoint(g, bank.lengths))
        g_w, g_b = backward(g)
        assert bits(g_w) == bits(ref_w)
        assert bits(g_b) == bits(ref_b)


@settings(PROPERTY, max_examples=150)
@given(lengths=st.lists(st.integers(1, 5), min_size=1, max_size=3),
       doc_lengths=st.lists(st.integers(1, 10), min_size=1, max_size=4),
       semiring=st.sampled_from(("max-product", "max-sum")),
       encoder=st.sampled_from(ENCODERS), self_loops=st.booleans(), epsilons=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
# 140 slots: a slot past 127 does not fit an int8
@example(lengths=[7] * 20, doc_lengths=[9, 4], semiring="max-sum", encoder="sigmoid",
         self_loops=True, epsilons=True, seed=5)
def test_a_walk_records_one_arc_per_consumed_token(lengths, doc_lengths, semiring, encoder,
                                                   self_loops, epsilons, seed):
    # integer weights, so ties are common; integer score adjoints, -0.0
    # among them.  A lane's arcs are the token arcs of its trace, each at its
    # slot, at most one per token, none on padding or before a restart, and
    # none where it has no path (documents too short for a pattern); the
    # projections' backward of them adds the bits of the dense reference.
    rng = np.random.default_rng(seed)
    spec: dict[int, int] = {}
    for length in lengths:
        spec[length] = spec.get(length, 0) + 1
    config = PatternSetConfig(pattern_spec=spec, semiring=semiring, encoder=encoder,
                              self_loops=self_loops, epsilons=epsilons)
    lengths = config.lengths()
    emb = EmbeddingMatrix(vectors=rng.integers(-2, 3, size=(5, 2)).astype(float))
    patterns = [PatternParams(*(rng.integers(-1, 2, size=shape).astype(float) for shape in
                                ((n, 2), n, (n, 2), n, n))) for n in lengths]
    bank = group_patterns(patterns)
    docs = [doc_of(rng.integers(OOV_ID, 5, size=n)) for n in doc_lengths]
    sr = get_semiring(semiring)
    vectors, index, valid, _ = _batch_matrix(docs, emb)
    tables = [Tape.pattern_affine(vectors, index, weights, bias, encoder, bank.lengths,
                                  sr.absent, slot_table(vectors, bank.lengths))
              for weights, bias in ((bank.u, bank.a), (bank.w, bank.b))]
    run = scan_forward(sr, *paired_tables(tables[0][0] if self_loops else None, tables[1][0],
                                          sr.absent),
                       index, bank.c if epsilons else None, encoder, valid, True, bank.lengths)
    g = rng.integers(-1, 2, size=run.scores.shape) * 1.0
    g[rng.random(g.shape) < 0.3] = -0.0
    g_sl, g_mp, _ = scan_backward(run, g)
    arcs = {SELF_LOOP: g_sl, MAIN: g_mp}
    taken = sum((slot >= 0).astype(int) for slot, _ in filter(None, arcs.values()))
    assert taken.max(initial=0) <= 1  # one family or none per lane and token
    assert not taken[~valid].any()

    scan = DocumentScan(patterns, docs, emb, config)
    for i in range(len(docs)):
        for p, length in enumerate(lengths):
            trace = scan.trace(i, p)
            steps = [] if trace is None else [s for s in trace.steps if s.token_pos]
            assert taken[i, :, p].sum() == len(steps)
            for step in steps:  # an arc's slot is its source state's
                slot = sum(lengths[:p]) + step.state - (step.kind == MAIN)
                assert arcs[step.kind][0][i, step.token_pos - 1, p] == slot
    for (weights, bias), (_, backward), g_family in zip(
            ((bank.u, bank.a), (bank.w, bank.b)), tables, (g_sl, g_mp)):
        if g_family is not None:
            ref_w, ref_b = dense_reference(vectors, index, weights, bias, bank.lengths,
                                           encoder, dense_adjoint(g_family, bank.lengths))
            g_w, g_b = backward(g_family)
            assert bits(g_w) == bits(ref_w)
            assert bits(g_b) == bits(ref_b)


# the example: a one-pattern bank under sum-product, whose end scores are
# summed over a document of 45 tokens alone and over 59 positions in the batch
@settings(PROPERTY, max_examples=100)
@given(doc=st.lists(st.integers(OOV_ID, 7), min_size=1, max_size=7),
       others=st.lists(st.lists(st.integers(OOV_ID, 15), min_size=1, max_size=9),
                       min_size=1, max_size=3),
       where=st.integers(0, 3), spec=st.sampled_from(({3: 2, 1: 1}, {2: 1})),
       semiring=st.sampled_from(SEMIRINGS), encoder=st.sampled_from(ENCODERS),
       self_loops=st.booleans(), epsilons=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@example(doc=[i % 16 for i in range(45)], others=[[i % 13 for i in range(59)]], where=0,
         spec={2: 1}, semiring="sum-product", encoder="sigmoid", self_loops=True,
         epsilons=True, seed=0)
def test_document_scores_alike_alone_and_in_any_batch(doc, others, where, spec, semiring,
                                                       encoder, self_loops, epsilons, seed):
    rng = np.random.default_rng(seed)
    config = PatternSetConfig(pattern_spec=spec, semiring=semiring, encoder=encoder,
                              self_loops=self_loops, epsilons=epsilons)
    emb = EmbeddingMatrix(vectors=rng.normal(size=(16, 3)))
    bank = group_patterns(make_patterns(config, 3, rng, std=1.0))
    alone_z, alone_tok, _ = encode_documents(bank, [doc_of(doc)], emb, config)
    batch = [doc_of(ids) for ids in others]
    where = min(where, len(batch))
    batch.insert(where, doc_of(doc))
    z, tok, _ = encode_documents(bank, batch, emb, config)
    assert bits(z.value[where]) == bits(alone_z.value[0])
    assert bits(tok[where, :len(doc)]) == bits(alone_tok[0])
