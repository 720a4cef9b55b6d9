"""Pattern scoring engine: frozen examples, traces, grouping, and properties."""

import numpy as np
import pytest

from sopa.automata import (EPSILON, MAIN, SELF_LOOP, MatchStep, PatternParams,
                           PatternSetConfig, encode_documents,
                           group_params, group_patterns, make_patterns,
                           parse_pattern_spec, replay_trace_score, score_document,
                           trace_best_match, transition_tables, ungroup_patterns)
from sopa.autodiff import Param
from sopa.embeddings import EmbeddingMatrix, TokenizedDocument
from sopa.semiring import get_semiring


def doc_of(ids, n_vocab=None):
    return TokenizedDocument(token_ids=list(ids),
                             raw_tokens=[f"t{i}" for i in ids])


def zero_pattern(length, dim):
    z = np.zeros
    return PatternParams(u=z((length, dim)), a=z(length), w=z((length, dim)),
                         b=z(length), c=z(length))


@pytest.fixture()
def tiny_emb():
    vecs = np.array([[2.0, 0.0], [3.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    return EmbeddingMatrix(vectors=vecs)


# -- pattern spec parsing --------------------------------------------------

def test_parse_pattern_spec():
    assert parse_pattern_spec("5:10") == {5: 10}
    assert parse_pattern_spec("6:10,5:10,4:10") == {6: 10, 5: 10, 4: 10}
    assert parse_pattern_spec(" 2:1 , 3:2 ") == {2: 1, 3: 2}


@pytest.mark.parametrize("bad,msg", [
    ("0:3", "length must be >= 1"),
    ("8:1", "exceeds the maximum"),
    ("5:0", "count must be >= 1"),
    ("5:1,5:2", "duplicate"),
    ("", "empty pattern spec"),
    ("5", "expected LENGTH:COUNT"),
    ("a:b", "expected LENGTH:COUNT"),
])
def test_parse_pattern_spec_rejects(bad, msg):
    with pytest.raises(ValueError, match=msg):
        parse_pattern_spec(bad)


def test_parse_pattern_spec_reads_the_map_form():
    assert parse_pattern_spec({"6": 10, "4": 2}) == {6: 10, 4: 2}
    assert list(parse_pattern_spec({3: 1, 2: 5})) == [3, 2]  # declared order
    for bad, msg in (({"2": 1.5}, "expected LENGTH:COUNT"), ({"2": True}, "LENGTH:COUNT"),
                     ({"0": 1}, "length must be >= 1"), ({}, "empty pattern spec"),
                     (["2:1"], "bad pattern spec entry")):
        with pytest.raises(ValueError, match=msg):
            parse_pattern_spec(bad)


def test_pattern_params_validation():
    with pytest.raises(ValueError, match="shape"):
        PatternParams(u=np.zeros((2, 3)), a=np.zeros(2), w=np.zeros((2, 4)),
                      b=np.zeros(2), c=np.zeros(2))
    with pytest.raises(ValueError, match="must have shape"):
        PatternParams(u=np.zeros((2, 3)), a=np.zeros(3), w=np.zeros((2, 3)),
                      b=np.zeros(2), c=np.zeros(2))
    p = zero_pattern(2, 3)
    assert (p.length, p.dim) == (2, 3)


def test_pattern_set_config_validation():
    with pytest.raises(ValueError, match="unknown encoder"):
        PatternSetConfig(pattern_spec={2: 1}, encoder="tanh")
    with pytest.raises(ValueError, match="unknown semiring"):
        PatternSetConfig(pattern_spec={2: 1}, semiring="boolean")
    with pytest.raises(ValueError, match="at least one pattern"):
        PatternSetConfig(pattern_spec={})
    config = PatternSetConfig(pattern_spec={3: 2, 2: 1})
    assert config.total_patterns == 3
    assert config.lengths() == [3, 3, 2]
    assert not config.cnn_mode
    cnn = PatternSetConfig(pattern_spec={2: 1}, semiring="max-sum",
                           encoder="identity", self_loops=False, epsilons=False)
    assert cnn.cnn_mode


# -- transition scores -----------------------------------------------------

def test_transition_scores_zero_params_sigmoid():
    config = PatternSetConfig(pattern_spec={1: 1})
    sl, mp, _ = transition_tables(zero_pattern(1, 2), np.array([[5.0, -3.0]]), config)
    assert sl.tolist() == [[0.5]] and mp.tolist() == [[0.5]]


def test_transition_scores_identity_affine():
    config = PatternSetConfig(pattern_spec={1: 1}, semiring="max-sum",
                              encoder="identity")
    pattern = PatternParams(u=np.zeros((1, 2)), a=np.array([-5.0]),
                            w=np.array([[1.0, 0.0]]), b=np.array([0.0]),
                            c=np.array([-10.0]))
    sl, mp, eps = transition_tables(pattern, np.array([[2.0, 0.0]]), config)
    assert sl.tolist() == [[-5.0]]
    assert mp.tolist() == [[2.0]]
    assert eps.tolist() == [-10.0]


def test_epsilon_scores_sigmoid_zero():
    config = PatternSetConfig(pattern_spec={3: 1})
    _, _, eps = transition_tables(zero_pattern(3, 2), np.zeros((0, 2)), config)
    assert eps.tolist() == [0.5] * 3


def test_transition_tables_disabled_families_and_dim_check():
    config = PatternSetConfig(pattern_spec={2: 1}, self_loops=False,
                              epsilons=False)
    sr = get_semiring("max-product")
    sl, mp, eps = transition_tables(zero_pattern(2, 3), np.zeros((4, 3)), config)
    assert sl.shape == (4, 2) and mp.shape == (4, 2) and eps.shape == (2,)
    assert (sl == sr.zero).all() and (eps == sr.zero).all()
    assert (mp == 0.5).all()
    with pytest.raises(ValueError, match="dimension"):
        transition_tables(zero_pattern(2, 3), np.zeros((4, 2)), config)


# -- document scoring ------------------------------------------------------

def test_score_zero_params_single_token_is_half(tiny_emb):
    config = PatternSetConfig(pattern_spec={1: 1})
    s, per_token = score_document(zero_pattern(1, 2), doc_of([0]), tiny_emb, config)
    assert s == 0.5
    assert per_token.tolist() == [0.5]


def test_score_identity_max_sum_worked_example(tiny_emb):
    config = PatternSetConfig(pattern_spec={1: 1}, semiring="max-sum",
                              encoder="identity")
    pattern = PatternParams(u=np.zeros((1, 2)), a=np.array([-5.0]),
                            w=np.array([[1.0, 0.0]]), b=np.array([0.0]),
                            c=np.array([-10.0]))
    doc = doc_of([0, 1])  # vectors (2,0) and (3,0)
    s, per_token = score_document(pattern, doc, tiny_emb, config)
    assert s == 3.0
    assert per_token.tolist() == [2.0, 3.0]
    trace = trace_best_match(pattern, doc, tiny_emb, config)
    assert (trace.start, trace.end, trace.score) == (2, 2, 3.0)
    assert trace.steps == [MatchStep(kind=MAIN, token_pos=2, state=1)]


@pytest.mark.parametrize("semiring", ["max-product", "max-sum", "sum-product"])
def test_doc_shorter_than_pattern_without_eps_scores_zero(tiny_emb, semiring):
    config = PatternSetConfig(pattern_spec={2: 1}, semiring=semiring,
                              epsilons=False)
    sr = get_semiring(semiring)
    s, per_token = score_document(zero_pattern(2, 2), doc_of([0]), tiny_emb, config)
    assert s == sr.zero
    assert (per_token == sr.zero).all()


def test_epsilon_admits_shorter_matches(tiny_emb):
    # a length-3 pattern can match 2 tokens once an epsilon may fire
    config_on = PatternSetConfig(pattern_spec={3: 1})
    config_off = PatternSetConfig(pattern_spec={3: 1}, epsilons=False)
    pattern = zero_pattern(3, 2)
    doc = doc_of([0, 1])
    s_on, _ = score_document(pattern, doc, tiny_emb, config_on)
    s_off, _ = score_document(pattern, doc, tiny_emb, config_off)
    assert s_on > get_semiring("max-product").zero
    assert s_off == get_semiring("max-product").zero


def test_empty_document_rejected(tiny_emb):
    config = PatternSetConfig(pattern_spec={1: 1})
    with pytest.raises(ValueError, match="at least one token"):
        score_document(zero_pattern(1, 2), doc_of([]), tiny_emb, config)
    with pytest.raises(ValueError, match="at least one token"):
        trace_best_match(zero_pattern(1, 2), doc_of([]), tiny_emb, config)


def test_pattern_dim_must_match_embeddings(tiny_emb):
    config = PatternSetConfig(pattern_spec={1: 1})
    with pytest.raises(ValueError, match="dimension"):
        score_document(zero_pattern(1, 3), doc_of([0]), tiny_emb, config)


# -- batched encoding ------------------------------------------------------

def test_encode_documents_matches_single_scoring(tiny_emb):
    rng = np.random.default_rng(1)
    config = PatternSetConfig(pattern_spec={2: 2, 1: 1}, semiring="max-product",
                              encoder="identity")
    patterns = make_patterns(config, 2, rng)
    docs = [doc_of([0, 1, 2]), doc_of([3]), doc_of([2, 2, 0, 1])]
    bank = group_patterns(patterns)
    z, tokens, lengths = encode_documents(bank, docs, tiny_emb, config)
    assert z.value.shape == (3, 3)
    assert tokens.shape == (3, 4, 3)
    assert lengths.tolist() == [3, 1, 4]
    for i, doc in enumerate(docs):
        for p, pattern in enumerate(patterns):
            s, per_token = score_document(pattern, doc, tiny_emb, config)
            assert z.value[i, p] == s
            assert np.array_equal(tokens[i, :len(doc), p], per_token)


def test_batch_padding_does_not_change_scores(tiny_emb):
    # a short document scores identically alone and batched with longer ones
    rng = np.random.default_rng(2)
    for semiring in ("max-product", "max-sum", "sum-product"):
        config = PatternSetConfig(pattern_spec={2: 1}, semiring=semiring,
                                  encoder="identity")
        pattern = make_patterns(config, 2, rng)[0]
        short = doc_of([1, 0])
        longer = doc_of([0, 1, 2, 3])
        bank = group_patterns([pattern])
        alone, _, _ = encode_documents(bank, [short], tiny_emb, config)
        z, _, _ = encode_documents(bank, [longer, short], tiny_emb, config)
        assert z.value[1, 0] == alone.value[0, 0]


def test_duplicated_pattern_duplicates_z_entry(tiny_emb):
    rng = np.random.default_rng(3)
    config = PatternSetConfig(pattern_spec={2: 1})
    pattern = make_patterns(config, 2, rng)[0]
    config2 = PatternSetConfig(pattern_spec={2: 2})
    z, _, _ = encode_documents(group_patterns([pattern, pattern]), [doc_of([0, 1, 2])],
                               tiny_emb, config2)
    assert z.value[0, 0] == z.value[0, 1]


def test_mixed_length_grouping_preserves_declaration_order(tiny_emb):
    rng = np.random.default_rng(4)
    lengths = [3, 1, 2, 1, 3]
    patterns = [PatternParams.random(L, 2, rng) for L in lengths]
    config = PatternSetConfig(pattern_spec={3: 2, 1: 2, 2: 1})
    doc = doc_of([0, 1, 2, 3])
    bank = group_patterns(patterns)
    z, _, _ = encode_documents(bank, [doc], tiny_emb, config)
    for p, pattern in enumerate(patterns):
        s, _ = score_document(pattern, doc, tiny_emb, config)
        assert z.value[0, p] == s


@pytest.mark.parametrize("semiring", ["max-product", "max-sum", "sum-product"])
def test_z_column_does_not_depend_on_patterns_sharing_its_length(semiring):
    # {3: 1, 2: 2} and {3: 2, 2: 2} share their patterns; a pattern alone at
    # its length must score the same bits as beside another of that length,
    # and as alone in its bank
    rng = np.random.default_rng(6)
    emb = EmbeddingMatrix(vectors=rng.normal(size=(20, 3)))
    p3, q3, p2, q2 = (PatternParams.random(L, 3, rng, std=1.0) for L in (3, 3, 2, 2))
    docs = [doc_of(rng.integers(0, 20, size=n)) for n in rng.integers(16, 31, size=8)]
    one, _, _ = encode_documents(group_patterns([p3, p2, q2]), docs, emb,
                                 PatternSetConfig({3: 1, 2: 2}, semiring=semiring))
    two, _, _ = encode_documents(group_patterns([p3, q3, p2, q2]), docs, emb,
                                 PatternSetConfig({3: 2, 2: 2}, semiring=semiring))
    lone, _, _ = encode_documents(group_patterns([p3]), docs, emb,
                                  PatternSetConfig({3: 1}, semiring=semiring))
    assert one.value[:, 0].tobytes() == two.value[:, 0].tobytes()
    assert one.value[:, 1:].tobytes() == two.value[:, 2:].tobytes()
    assert lone.value[:, 0].tobytes() == one.value[:, 0].tobytes()


def test_group_patterns_round_trip_and_params(tiny_emb):
    rng = np.random.default_rng(5)
    patterns = [PatternParams.random(L, 2, rng) for L in (2, 3, 2)]
    bank = group_patterns(patterns)
    back = ungroup_patterns(bank)
    for orig, again in zip(patterns, back):
        for name in ("u", "a", "w", "b", "c"):
            assert np.array_equal(getattr(orig, name), getattr(again, name))
    params = group_params(group_patterns(patterns, as_params=True))
    assert all(isinstance(p, Param) for p in params)
    # one flat Param per field, the slots of all patterns in declared order
    assert [p.name for p in params] == [f"patterns.{n}" for n in ("u", "a", "w", "b", "c")]
    assert [p.value.shape for p in params] == [(7, 2), (7,), (7, 2), (7,), (7,)]
    assert np.array_equal(params[0].value[2:5], patterns[1].u)


def test_max_product_scores_finalized_to_declared_zero(tiny_emb):
    # unmatched documents surface the declared zero, not the internal -inf
    config = PatternSetConfig(pattern_spec={3: 1}, epsilons=False)
    z, _, _ = encode_documents(group_patterns([zero_pattern(3, 2)]), [doc_of([0])],
                               tiny_emb, config)
    assert z.value[0, 0] == 0.0


# -- traces ----------------------------------------------------------------

def test_trace_requires_max_semiring(tiny_emb):
    config = PatternSetConfig(pattern_spec={1: 1}, semiring="sum-product")
    with pytest.raises(ValueError, match="max semiring"):
        trace_best_match(zero_pattern(1, 2), doc_of([0]), tiny_emb, config)


def test_cnn_mode_trace_consumes_consecutive_window(tiny_emb):
    rng = np.random.default_rng(6)
    config = PatternSetConfig(pattern_spec={2: 1}, semiring="max-sum",
                              encoder="identity", self_loops=False,
                              epsilons=False)
    pattern = make_patterns(config, 2, rng)[0]
    trace = trace_best_match(pattern, doc_of([0, 1, 2]), tiny_emb, config)
    assert trace.end - trace.start + 1 == 2
    assert [s.kind for s in trace.steps] == [MAIN, MAIN]
    assert [s.token_pos for s in trace.steps] == [trace.start, trace.end]


def test_trace_tie_breaks_toward_earlier_span(tiny_emb):
    # tokens 1 and 3 share the best vector, so two spans tie; earlier wins
    config = PatternSetConfig(pattern_spec={1: 1}, semiring="max-sum",
                              encoder="identity", self_loops=False,
                              epsilons=False)
    pattern = PatternParams(u=np.zeros((1, 2)), a=np.zeros(1),
                            w=np.array([[1.0, 1.0]]), b=np.zeros(1),
                            c=np.zeros(1))
    trace = trace_best_match(pattern, doc_of([0, 2, 0]), tiny_emb, config)
    assert trace.score == 2.0
    assert (trace.start, trace.end) == (1, 1)


def test_trace_tie_breaks_main_over_epsilon(tiny_emb):
    # equal-weight slots make main-then-eps and eps-then-main paths tie;
    # the preference order puts the main step last
    config = PatternSetConfig(pattern_spec={2: 1}, semiring="max-sum",
                              encoder="identity", self_loops=False)
    pattern = PatternParams(u=np.zeros((2, 2)), a=np.zeros(2),
                            w=np.array([[1.0, 0.0], [1.0, 0.0]]),
                            b=np.zeros(2), c=np.zeros(2))
    trace = trace_best_match(pattern, doc_of([1]), tiny_emb, config)
    assert trace.score == 3.0
    assert [s.kind for s in trace.steps] == [EPSILON, MAIN]


def test_trace_matches_score_and_replays_exactly(tiny_emb):
    rng = np.random.default_rng(7)
    for semiring in ("max-product", "max-sum"):
        for encoder in ("sigmoid", "identity"):
            for _ in range(25):
                L = int(rng.integers(1, 5))
                config = PatternSetConfig(
                    pattern_spec={L: 1}, semiring=semiring, encoder=encoder,
                    self_loops=bool(rng.integers(0, 2)),
                    epsilons=bool(rng.integers(0, 2)))
                pattern = PatternParams.random(L, 2, rng)
                n = int(rng.integers(1, 6))
                doc = doc_of(rng.integers(0, 4, size=n))
                s, _ = score_document(pattern, doc, tiny_emb, config)
                trace = trace_best_match(pattern, doc, tiny_emb, config)
                if s == get_semiring(semiring).zero and trace is None:
                    continue
                assert trace is not None
                assert trace.score == s
                assert 1 <= trace.start <= trace.end <= n
                assert replay_trace_score(trace, pattern, doc, tiny_emb,
                                          config) == trace.score


def test_trace_step_structure(tiny_emb):
    config = PatternSetConfig(pattern_spec={2: 1})
    pattern = zero_pattern(2, 2)
    trace = trace_best_match(pattern, doc_of([0, 1, 2]), tiny_emb, config)
    consumed = [s.token_pos for s in trace.steps if s.kind != EPSILON]
    assert consumed == list(range(trace.start, trace.end + 1))
    for s in trace.steps:
        if s.kind == EPSILON:
            assert s.token_pos is None
    assert trace.steps[-1].state == 2


def test_make_patterns_deterministic():
    config = PatternSetConfig(pattern_spec={2: 2})
    a = make_patterns(config, 3, np.random.default_rng(9))
    b = make_patterns(config, 3, np.random.default_rng(9))
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.w, pb.w) and np.array_equal(pa.c, pb.c)
