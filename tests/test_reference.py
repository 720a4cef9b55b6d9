"""Oracles: dense span algebra, path enumeration, and the explicit CNN."""

import numpy as np
import pytest

from sopa.automata import (PatternParams, PatternSetConfig, score_document,
                           transition_tables)
from sopa.embeddings import EmbeddingMatrix, TokenizedDocument
from sopa.reference import (brute_force_doc_score, brute_force_span_score,
                            cnn_filter_of, dense_doc_score, dense_span_score,
                            explicit_cnn_score)
from sopa.semiring import get_semiring


def ones_pattern(length, dim=2):
    """Every transition family scores exactly 1.0 under the identity encoder."""
    return PatternParams(u=np.zeros((length, dim)), a=np.ones(length),
                         w=np.zeros((length, dim)), b=np.ones(length),
                         c=np.ones(length))


def path_count(length, m, self_loops=True, epsilons=True):
    config = PatternSetConfig(pattern_spec={length: 1}, semiring="sum-product",
                              encoder="identity", self_loops=self_loops,
                              epsilons=epsilons)
    return brute_force_span_score(ones_pattern(length), np.zeros((m, 2)), config)


# -- path enumeration ------------------------------------------------------

@pytest.mark.parametrize("length,m,sl,eps,expected", [
    # one token, one slot: the main step, or a self-loop closed by an epsilon
    (1, 1, True, True, 2.0),
    (1, 1, False, True, 1.0),
    (1, 1, True, False, 1.0),
    # two tokens into one slot need a self-loop; without one nothing matches
    (1, 2, True, True, 2.0),
    (1, 2, False, True, 0.0),
    (1, 2, True, False, 1.0),
    (2, 2, True, True, 7.0),
    (2, 2, False, False, 1.0),
    (3, 2, False, False, 0.0),
])
def test_path_counts(length, m, sl, eps, expected):
    assert path_count(length, m, self_loops=sl, epsilons=eps) == expected


@pytest.mark.parametrize("length,m", [(1, 1), (2, 2), (3, 3), (2, 4)])
def test_cnn_mode_has_one_path_only_at_exact_width(length, m):
    full = path_count(length, m, self_loops=False, epsilons=False)
    assert full == (1.0 if m == length else 0.0)


# -- dense oracle ----------------------------------------------------------

def test_empty_span_is_one_epsilon_hop():
    # a length-1 pattern can cross the empty span on its single epsilon
    pattern = PatternParams(u=np.zeros((1, 2)), a=np.zeros(1),
                            w=np.zeros((1, 2)), b=np.zeros(1),
                            c=np.array([-3.0]))
    config = PatternSetConfig(pattern_spec={1: 1}, semiring="max-sum",
                              encoder="identity")
    assert dense_span_score(pattern, np.zeros((0, 2)), config) == -3.0


def test_empty_span_unreachable_for_longer_patterns():
    config = PatternSetConfig(pattern_spec={2: 1}, semiring="max-sum",
                              encoder="identity")
    s = dense_span_score(ones_pattern(2), np.zeros((0, 2)), config)
    assert s == get_semiring("max-sum").zero


def test_empty_span_without_epsilons():
    config = PatternSetConfig(pattern_spec={1: 1}, epsilons=False)
    s = dense_span_score(ones_pattern(1), np.zeros((0, 2)), config)
    assert s == 0.0  # finalized from the internal absence marker


def test_dense_matches_brute_over_random_instances(rng):
    failures = 0
    for semiring in ("max-product", "max-sum", "sum-product"):
        sr = get_semiring(semiring)
        exact = semiring != "sum-product"
        for encoder in ("sigmoid", "identity"):
            for trial in range(30):
                L = int(rng.integers(1, 5))
                m = int(rng.integers(0, 6))
                config = PatternSetConfig(
                    pattern_spec={L: 1}, semiring=semiring, encoder=encoder,
                    self_loops=bool(rng.integers(0, 2)),
                    epsilons=bool(rng.integers(0, 2)))
                pattern = PatternParams.random(L, 3, rng)
                span = rng.normal(size=(m, 3))
                d = dense_span_score(pattern, span, config)
                b = brute_force_span_score(pattern, span, config)
                if exact:
                    failures += d != b
                else:
                    scale = max(abs(d), abs(b), 1.0)
                    failures += abs(d - b) > 1e-10 * scale
    assert failures == 0


def test_doc_score_folds_all_spans(rng):
    for semiring in ("max-product", "max-sum", "sum-product"):
        config = PatternSetConfig(pattern_spec={2: 1}, semiring=semiring,
                                  encoder="identity")
        sr = get_semiring(semiring)
        pattern = PatternParams.random(2, 2, rng)
        doc = rng.normal(size=(4, 2))
        d = dense_doc_score(pattern, doc, config)
        b = brute_force_doc_score(pattern, doc, config)
        if semiring == "sum-product":
            assert d == pytest.approx(b, rel=1e-10)
        else:
            assert d == b


def test_engine_agrees_with_both_oracles(rng):
    emb = EmbeddingMatrix(vectors=rng.normal(size=(6, 2)))
    for semiring in ("max-product", "max-sum"):
        for _ in range(15):
            L = int(rng.integers(1, 4))
            n = int(rng.integers(1, 6))
            config = PatternSetConfig(pattern_spec={L: 1}, semiring=semiring,
                                      encoder="identity")
            pattern = PatternParams.random(L, 2, rng)
            ids = [int(i) for i in rng.integers(0, 6, size=n)]
            doc = TokenizedDocument(token_ids=ids,
                                    raw_tokens=["x"] * n)
            s, _ = score_document(pattern, doc, emb, config)
            matrix = emb.vectors[ids]
            assert s == dense_doc_score(pattern, matrix, config)
            assert s == brute_force_doc_score(pattern, matrix, config)


def test_sum_product_dominates_max_product_with_sigmoid(rng):
    # every path weight is positive, so the sum can only exceed the max
    for _ in range(10):
        config_max = PatternSetConfig(pattern_spec={2: 1})
        config_sum = PatternSetConfig(pattern_spec={2: 1}, semiring="sum-product")
        pattern = PatternParams.random(2, 2, rng)
        doc = rng.normal(size=(3, 2))
        assert (brute_force_doc_score(pattern, doc, config_sum)
                >= brute_force_doc_score(pattern, doc, config_max))


# -- bounds and validation -------------------------------------------------

def test_brute_span_length_bound():
    config = PatternSetConfig(pattern_spec={1: 1})
    with pytest.raises(ValueError, match="limited to 10 tokens"):
        brute_force_span_score(ones_pattern(1), np.zeros((11, 2)), config)


def test_brute_doc_length_bound():
    config = PatternSetConfig(pattern_spec={1: 1})
    with pytest.raises(ValueError, match="limited to 8 tokens"):
        brute_force_doc_score(ones_pattern(1), np.zeros((9, 2)), config)


def test_doc_oracles_reject_empty_documents():
    config = PatternSetConfig(pattern_spec={1: 1})
    with pytest.raises(ValueError, match="at least one token"):
        dense_doc_score(ones_pattern(1), np.zeros((0, 2)), config)
    with pytest.raises(ValueError, match="at least one token"):
        brute_force_doc_score(ones_pattern(1), np.zeros((0, 2)), config)


# -- explicit CNN ----------------------------------------------------------

def test_cnn_score_takes_best_window():
    doc = np.array([[5.0], [9.0]])
    assert explicit_cnn_score(np.array([1.0]), np.zeros(1), doc) == 9.0


def test_cnn_score_zero_filter_returns_bias_sum():
    doc = np.zeros((4, 3))
    filt = np.zeros(6)
    assert explicit_cnn_score(filt, np.array([3.0, 4.0]), doc) == 7.0


def test_cnn_score_short_document_is_absent():
    filt = np.ones(4)
    assert explicit_cnn_score(filt, np.zeros(2), np.ones((1, 2))) == float("-inf")


def test_cnn_score_single_window():
    filt = np.array([1.0, 0.0, 0.0, 1.0])
    doc = np.array([[2.0, 3.0], [4.0, 5.0]])
    assert explicit_cnn_score(filt, np.zeros(2), doc) == 7.0


def test_cnn_score_shape_mismatch():
    with pytest.raises(ValueError, match="filter length"):
        explicit_cnn_score(np.ones(3), np.zeros(2), np.ones((4, 2)))


def test_cnn_filter_matches_engine_in_restricted_mode(rng):
    emb = EmbeddingMatrix(vectors=rng.normal(size=(5, 3)))
    config = PatternSetConfig(pattern_spec={2: 1}, semiring="max-sum",
                              encoder="identity", self_loops=False,
                              epsilons=False)
    assert config.cnn_mode
    for _ in range(20):
        pattern = PatternParams.random(2, 3, rng)
        n = int(rng.integers(1, 6))
        ids = [int(i) for i in rng.integers(0, 5, size=n)]
        doc = TokenizedDocument(token_ids=ids, raw_tokens=["x"] * n)
        s, _ = score_document(pattern, doc, emb, config)
        filt, biases = cnn_filter_of(pattern)
        cnn = explicit_cnn_score(filt, biases, emb.vectors[ids])
        if n < 2:
            assert cnn == float("-inf") and s == get_semiring("max-sum").zero
        else:
            assert s == pytest.approx(cnn, rel=1e-12, abs=1e-12)


def test_transition_tables_accept_semiring_override(rng):
    pattern = PatternParams.random(2, 2, rng)
    # the semiring comes from the config, whose default is max-product
    config = PatternSetConfig(pattern_spec={2: 1}, semiring="max-sum", epsilons=False)
    sl, mp, eps = transition_tables(pattern, rng.normal(size=(3, 2)), config)
    assert (eps == float("-inf")).all()
