"""The token-keyed projection: each batch projects its distinct tokens once
(Tape.pattern_affine) through the kernel the oracles use (autodiff.project).
Grids are indexed in the engine's (n,W,B,k) layout."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _synth import PROPERTY, doc_of
from sopa.autodiff import (Param, Tape, encode_values, finite_difference_check, grid_cells,
                           project)
from sopa.automata import (PatternSetConfig, _batch_matrix, encode_documents,
                           group_patterns, make_patterns, transition_tables)
from sopa.embeddings import OOV_ID, EmbeddingMatrix

SEMIRINGS = ("max-product", "max-sum", "sum-product")
ENCODERS = ("sigmoid", "identity")


def bits(a: np.ndarray) -> bytes:
    # bitwise, so 0.0 and -0.0 differ
    return np.ascontiguousarray(a).tobytes()


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

    sl, _ = Tape.pattern_affine(vectors, index, bank.u, bank.a, encoder, bank.lengths, -np.inf)
    mp, _ = Tape.pattern_affine(vectors, index, bank.w, bank.b, encoder, bank.lengths, -np.inf)
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
        grid, backward = Tape.pattern_affine(vectors, index, w.value, b.value, encoder,
                                             lengths, 0.0)
        if grad:
            g_w, g_b = backward(lanes)
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
    # the grid is laid out column first, (n,W,B,k), but every row's sum of
    # a slot's adjoint still adds the positions in (document, token) order:
    # the bits of np.add.at over the documents-first positions, slot by slot
    rng = np.random.default_rng(seed)
    docs = [doc_of([i if i < vocab else OOV_ID for i in ids]) for ids in docs]
    config = PatternSetConfig(pattern_spec=spec, encoder=encoder)
    emb = EmbeddingMatrix(vectors=rng.normal(size=(vocab, dim)))
    bank = group_patterns(make_patterns(config, dim, rng, std=1.0))
    vectors, index, _, _ = _batch_matrix(docs, emb)
    grid, backward = Tape.pattern_affine(vectors, index, bank.w, bank.b, encoder,
                                         bank.lengths, -np.inf)
    # an adjoint on every cell, padding included; large and small values, so
    # that another order of the additions rounds otherwise
    adjoint = rng.normal(size=grid.shape) * 10.0 ** rng.integers(-8, 9, size=grid.shape)
    if strided:  # the same adjoint written documents first, (B,n,k,W), as a view
        adjoint = np.ascontiguousarray(adjoint.transpose(2, 0, 3, 1)).transpose(1, 3, 0, 2)
    g_w, g_b = backward(adjoint)

    at = index.reshape(-1)  # positions in (document, token) order
    patterns, columns = np.divmod(grid_cells(bank.lengths), grid.shape[1])
    g_rows = np.zeros((len(vectors), len(bank.b)))
    for slot, (p, col) in enumerate(zip(patterns, columns)):
        np.add.at(g_rows[:, slot], at, adjoint[:, col, :, p].T.reshape(-1))
    if encoder == "sigmoid":
        y = project(vectors, bank.w, bank.b, encoder)
        g_rows *= y * (1.0 - y)
    assert bits(g_w) == bits(g_rows.T @ vectors)
    assert bits(g_b) == bits(g_rows.sum(axis=0))


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
