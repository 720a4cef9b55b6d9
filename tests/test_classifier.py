"""Training loop, MLP head, evaluation, search, and model serialization."""

import gc
import json
import weakref
from dataclasses import fields

import numpy as np
import pytest

import sopa.classifier as classifier
from sopa.autodiff import Adam, Param, Tape, finite_difference_check
from sopa.automata import (PatternParams, PatternSetConfig, encode_documents,
                           group_params, group_patterns, make_patterns)
from sopa.classifier import (MlpParams, ModelBundle, TrainConfig,
                             TrainingDiverged, _batch_logits, atomic_write_text,
                             count_parameters, evaluate, forward_logits,
                             load_model, mlp_probabilities, random_search,
                             save_model, softmax, train)
from sopa.embeddings import EmbeddingMatrix, TokenizedDocument, Vocabulary

from _synth import micro_task


QUICK = TrainConfig(pattern_spec={2: 2}, mlp_hidden=4, batch_size=8,
                    max_epochs=3, patience=5, lr=1e-2, seed=1)


def zero_model(num_patterns=2, hidden=3, num_classes=2, vocab=None):
    patterns = [PatternParams(u=np.zeros((2, 2)), a=np.zeros(2),
                              w=np.zeros((2, 2)), b=np.zeros(2), c=np.zeros(2))
                for _ in range(num_patterns)]
    mlp = MlpParams(w1=np.zeros((num_patterns, hidden)), b1=np.zeros(hidden),
                    w2=np.zeros((hidden, num_classes)), b2=np.zeros(num_classes))
    fingerprint = vocab.fingerprint() if vocab else {"sha256": "x", "dim": 2}
    return ModelBundle(patterns=patterns, mlp=mlp,
                       config=PatternSetConfig(pattern_spec={2: num_patterns}),
                       vocab_fingerprint=fingerprint, num_classes=num_classes)


# -- MLP head --------------------------------------------------------------

def test_softmax_rows_sum_to_one(rng):
    p = softmax(rng.normal(size=(5, 4)))
    assert np.allclose(p.sum(axis=1), 1.0)
    assert (p > 0).all()


def test_softmax_shift_invariant(rng):
    x = rng.normal(size=(3, 4))
    assert np.allclose(softmax(x), softmax(x + 100.0), atol=1e-12)


def test_softmax_uniform_on_constant_logits():
    p = softmax(np.array([7.0, 7.0, 7.0]))
    assert (p == p[0]).all()
    assert p.sum() == pytest.approx(1.0)


def test_mlp_probabilities_zero_weights_uniform():
    mlp = MlpParams(w1=np.zeros((2, 3)), b1=np.zeros(3),
                    w2=np.zeros((3, 4)), b2=np.zeros(4))
    p = mlp_probabilities(mlp, np.array([[1.0, 2.0], [0.0, 0.0]]))
    assert p.shape == (2, 4)
    assert (p == 0.25).all()


def test_mlp_params_shape_validation():
    with pytest.raises(ValueError, match="inconsistent"):
        MlpParams(w1=np.zeros((2, 3)), b1=np.zeros(4),
                  w2=np.zeros((3, 2)), b2=np.zeros(2))
    with pytest.raises(ValueError, match="inconsistent"):
        MlpParams(w1=np.zeros((2, 3)), b1=np.zeros(3),
                  w2=np.zeros((4, 2)), b2=np.zeros(2))


def test_forward_logits_matches_batch_head():
    vocab, emb, train_docs, _ = micro_task()
    model = zero_model(vocab=vocab)
    p = forward_logits(model, train_docs[0], vocab, emb)
    assert p.shape == (2,)
    assert (p == 0.5).all()


# lengths out of order, so no sort by length can match the declared order
PERMUTED_LENGTHS = (3, 1, 3, 2, 1)
PERMUTED_CONFIG = {3: 2, 1: 2, 2: 1}


def permuted_patterns(dim, rng):
    return [PatternParams.random(L, dim, rng, std=0.5) for L in PERMUTED_LENGTHS]


@pytest.mark.parametrize("semiring", ["sum-product", "max-product"])
def test_loss_gradients_through_a_permuted_pattern_list(semiring):
    # each z column's adjoint must reach its own pattern's rows in the bank
    _, emb, docs, _ = micro_task()
    docs = docs[:6]
    rng = np.random.default_rng(11)
    config = PatternSetConfig(pattern_spec=PERMUTED_CONFIG, semiring=semiring)
    bank = group_patterns(permuted_patterns(emb.dim, rng), as_params=True)
    assert bank.lengths == PERMUTED_LENGTHS
    mlp = {name: Param(f"mlp.{name}", value) for name, value
           in MlpParams.random(len(PERMUTED_LENGTHS), 4, 2, rng, std=0.5).arrays().items()}
    params = group_params(bank) + list(mlp.values())
    labels = np.array([d.label for d in docs])

    def loss(tape):
        return tape.cross_entropy(_batch_logits(tape, bank, docs, emb, config, mlp), labels)

    tape = Tape(grad=True)
    out = loss(tape)
    for p in params:
        p.zero_grad()
    tape.backward(out)
    report = finite_difference_check(lambda: float(loss(Tape(grad=False)).value), params)
    assert report.checked == sum(p.size for p in params)
    assert report.max_rel_error < 1e-6


def test_forward_logits_matches_the_batch_path_on_a_random_model():
    vocab, emb, docs, _ = micro_task()
    rng = np.random.default_rng(12)
    config = PatternSetConfig(pattern_spec=PERMUTED_CONFIG)
    model = ModelBundle(patterns=permuted_patterns(emb.dim, rng),
                        mlp=MlpParams.random(len(PERMUTED_LENGTHS), 4, 3, rng, std=0.5),
                        config=config, vocab_fingerprint=vocab.fingerprint(), num_classes=3)
    bank = group_patterns(model.patterns)
    z, _, _ = encode_documents(bank, docs, emb, config)
    batch = softmax(_batch_logits(Tape(grad=False), bank, docs, emb, config,
                                  model.mlp.arrays()).value)
    preds = []
    for i, doc in enumerate(docs):
        p = forward_logits(model, doc, vocab, emb)
        # z scores a document alike alone and in a batch, so the numpy head
        # on its row of the batch's z gives the same bits
        assert np.array_equal(p, mlp_probabilities(model.mlp, z.value[i:i + 1])[0])
        # a row of a multi-row BLAS product may differ in its last bits
        np.testing.assert_allclose(p, batch[i], rtol=1e-12, atol=0.0)
        preds.append(int(p.argmax()))
        # train()'s dropout masks z, then the hidden layer, from rng in that order
        masks = np.random.default_rng(5)
        keep_z = (masks.random((1, 5)) >= 0.3) / 0.7
        hidden = np.maximum((z.value[i:i + 1] * keep_z) @ model.mlp.w1 + model.mlp.b1, 0.0)
        keep_h = (masks.random((1, 4)) >= 0.3) / 0.7
        expect = softmax((hidden * keep_h) @ model.mlp.w2 + model.mlp.b2)[0]
        got = softmax(_batch_logits(Tape(grad=False), bank, [doc], emb, config,
                                    model.mlp.arrays(), 0.3, np.random.default_rng(5)).value)[0]
        assert np.array_equal(got, expect)
    labels = np.array([d.label for d in docs])
    assert evaluate(model, docs, vocab, emb)["correct"] == int((np.array(preds) == labels).sum())


# -- evaluation ------------------------------------------------------------

def test_evaluate_ties_resolve_to_class_zero():
    vocab, emb, train_docs, _ = micro_task()
    model = zero_model(vocab=vocab)
    metrics = evaluate(model, train_docs, vocab, emb)
    zeros = sum(1 for d in train_docs if d.label == 0)
    assert metrics["correct"] == zeros
    assert metrics["accuracy"] == zeros / len(train_docs)
    assert metrics["total"] == len(train_docs)
    assert metrics["per_class"][0] == {"total": zeros, "correct": zeros}
    assert metrics["per_class"][1]["correct"] == 0


def test_evaluate_predicts_the_logits_argmax_as_the_dev_pass_does():
    # a margin of 1e-17 is lost in exp (softmax ties the classes) but still
    # decides the argmax of the logits, which train()'s dev pass predicts
    vocab, emb, train_docs, _ = micro_task()
    model = zero_model(vocab=vocab)
    model.mlp.b2[1] = 1e-17
    per_class = evaluate(model, train_docs, vocab, emb)["per_class"]
    assert per_class[0]["correct"] == 0
    assert per_class[1]["correct"] == per_class[1]["total"] > 0


def test_evaluate_rejects_empty_and_unlabeled():
    vocab, emb, train_docs, _ = micro_task()
    model = zero_model(vocab=vocab)
    with pytest.raises(ValueError, match="empty evaluation dataset"):
        evaluate(model, [], vocab, emb)
    bare = TokenizedDocument(token_ids=[0], raw_tokens=["pos"], doc_id=7)
    with pytest.raises(ValueError, match="has no label"):
        evaluate(model, [bare], vocab, emb)


def test_evaluate_rejects_a_label_the_model_has_no_class_for(monkeypatch):
    vocab, emb, train_docs, _ = micro_task()
    model = zero_model(vocab=vocab)  # two classes
    stray = TokenizedDocument(token_ids=[0], raw_tokens=["pos"], label=7, doc_id=12)
    # refused before any document is scored, not graded as wrong
    monkeypatch.setattr(classifier, "_batch_logits", None)
    with pytest.raises(ValueError, match="1 evaluation document.* document 12 has label 7, "
                                         "and the model has num_classes 2"):
        evaluate(model, train_docs + [stray], vocab, emb)


def test_fingerprint_mismatch_rejected():
    vocab, emb, train_docs, _ = micro_task()
    model = zero_model(vocab=vocab)
    other = Vocabulary(words=["different"], dim=2)
    with pytest.raises(ValueError, match="vocabulary fingerprint"):
        evaluate(model, train_docs, other, emb)
    with pytest.raises(ValueError, match="vocabulary fingerprint"):
        forward_logits(model, train_docs[0], other, emb)


# -- parameter accounting ---------------------------------------------------

def test_count_parameters_formula():
    patterns = [PatternParams(u=np.zeros((5, 300)), a=np.zeros(5),
                              w=np.zeros((5, 300)), b=np.zeros(5), c=np.zeros(5))
                for _ in range(10)]
    mlp = MlpParams(w1=np.zeros((10, 25)), b1=np.zeros(25),
                    w2=np.zeros((25, 2)), b2=np.zeros(2))
    model = ModelBundle(patterns=patterns, mlp=mlp,
                        config=PatternSetConfig(pattern_spec={5: 10}),
                        vocab_fingerprint={}, num_classes=2)
    sopa_count, mlp_count = count_parameters(model)
    assert sopa_count == 30150  # (2*300 + 3) * 5 * 10
    assert mlp_count == 11 * 25 + 26 * 2


def test_count_parameters_matches_optimizer_registration():
    config = PatternSetConfig(pattern_spec={2: 2, 1: 1})
    rng = np.random.default_rng(0)
    patterns = make_patterns(config, 2, rng)
    bank = group_patterns(patterns, as_params=True)
    mlp = MlpParams.random(3, 4, 2, rng)
    params = group_params(bank) + [Param(f"mlp.{n}", getattr(mlp, n))
                                     for n in ("w1", "b1", "w2", "b2")]
    optimizer = Adam(params, lr=1e-3)
    model = ModelBundle(patterns=patterns, mlp=mlp, config=config,
                        vocab_fingerprint={}, num_classes=2)
    sopa_count, mlp_count = count_parameters(model)
    assert optimizer.registered_scalars == sopa_count + mlp_count
    assert sopa_count == (2 * 2 + 3) * 2 * 2 + (2 * 2 + 3) * 1


# -- training --------------------------------------------------------------

def test_a_swept_train_step_tape_is_freed_at_its_last_reference():
    # no node points back at its tape, so a train step leaves no cyclic
    # garbage for the collector
    _, emb, docs, _ = micro_task()
    rng = np.random.default_rng(0)
    config = QUICK.pattern_config()
    bank, mlp, _ = classifier._model_params(make_patterns(config, emb.dim, rng),
                                            MlpParams.random(2, 4, 2, rng))
    gc.disable()
    try:
        tape = Tape(grad=True)
        logits = _batch_logits(tape, bank, docs[:8], emb, config, mlp, 0.3, rng)
        tape.backward(tape.cross_entropy(logits, np.array([d.label for d in docs[:8]])))
        freed = weakref.ref(tape)
        del tape, logits
        assert freed() is None
    finally:
        gc.enable()


def test_train_smoke_and_log_structure():
    vocab, emb, train_docs, dev_docs = micro_task()
    model, log = train(train_docs, dev_docs, vocab, emb, QUICK)
    assert model.num_patterns == 2
    assert model.num_classes == 2
    assert model.vocab_fingerprint == vocab.fingerprint()
    assert 1 <= len(log) <= QUICK.max_epochs
    for i, rec in enumerate(log, start=1):
        assert rec["epoch"] == i
        assert set(rec) == {"epoch", "train_loss", "dev_loss", "dev_acc"}
        assert np.isfinite(rec["train_loss"]) and np.isfinite(rec["dev_loss"])
        assert 0.0 <= rec["dev_acc"] <= 1.0


def test_train_fixed_seed_is_bit_identical():
    vocab, emb, train_docs, dev_docs = micro_task()
    m1, log1 = train(train_docs, dev_docs, vocab, emb, QUICK)
    m2, log2 = train(train_docs, dev_docs, vocab, emb, QUICK)
    assert log1 == log2
    for p1, p2 in zip(m1.patterns, m2.patterns):
        for name in ("u", "a", "w", "b", "c"):
            assert np.array_equal(getattr(p1, name), getattr(p2, name))
    for name in ("w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(m1.mlp, name), getattr(m2.mlp, name))


def test_zero_lr_stops_after_patience():
    vocab, emb, train_docs, dev_docs = micro_task()
    config = TrainConfig(pattern_spec={1: 1}, mlp_hidden=2, batch_size=8,
                         max_epochs=10, patience=1, lr=0.0, seed=0)
    model, log = train(train_docs, dev_docs, vocab, emb, config)
    # epoch 1 improves on infinity; epoch 2 repeats it exactly and stops
    assert len(log) == 2
    assert log[0]["dev_loss"] == log[1]["dev_loss"]


def test_returned_model_is_best_dev_snapshot():
    vocab, emb, train_docs, dev_docs = micro_task()
    config = TrainConfig(pattern_spec={2: 2}, mlp_hidden=4, batch_size=8,
                         max_epochs=6, patience=10, lr=2e-2, seed=3)
    model, log = train(train_docs, dev_docs, vocab, emb, config)
    best = min(rec["dev_loss"] for rec in log)
    # recompute dev NLL from the returned parameters
    from sopa.automata import encode_documents
    z, _, _ = encode_documents(group_patterns(model.patterns), dev_docs, emb,
                               model.config)
    probs = mlp_probabilities(model.mlp, z.value)
    labels = np.array([d.label for d in dev_docs])
    nll = -np.mean(np.log(probs[np.arange(len(dev_docs)), labels]))
    assert nll == pytest.approx(best, rel=1e-10)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_diverges_on_non_finite_features():
    words = ["boom", "ok"]
    vocab = Vocabulary(words=words, dim=2)
    emb = EmbeddingMatrix(vectors=np.array([[np.inf, 0.0], [0.1, 0.1]]))
    docs = [TokenizedDocument(token_ids=[0, 1], raw_tokens=words, label=1,
                              doc_id=0),
            TokenizedDocument(token_ids=[1, 1], raw_tokens=["ok", "ok"],
                              label=0, doc_id=1)]
    config = TrainConfig(pattern_spec={1: 1}, encoder="identity",
                         semiring="max-sum", mlp_hidden=2, batch_size=4,
                         max_epochs=2, patience=2, seed=0)
    with pytest.raises(TrainingDiverged, match="non-finite"):
        train(docs, docs, vocab, emb, config)


def test_train_rejects_empty_splits():
    vocab, emb, train_docs, dev_docs = micro_task()
    with pytest.raises(ValueError, match="non-empty"):
        train([], dev_docs, vocab, emb, QUICK)
    with pytest.raises(ValueError, match="non-empty"):
        train(train_docs, [], vocab, emb, QUICK)


@pytest.mark.parametrize("field,value,msg", [
    ("lr", 1.0, "learning rate"),
    ("lr", -0.1, "learning rate"),
    ("dropout", 1.0, "dropout"),
    ("mlp_hidden", 0, "positive integer"),
    ("batch_size", 0, "positive integer"),
    ("max_epochs", 0, "positive integer"),
    ("patience", 0, "positive integer"),
])
def test_train_config_validation(field, value, msg):
    kwargs = {"pattern_spec": {1: 1}, field: value}
    with pytest.raises(ValueError, match=msg):
        TrainConfig(**kwargs)


@pytest.mark.parametrize("field, value", [
    ("lr", "0.1"), ("dropout", None), ("lr", True), ("seed", 1.5), ("seed", False),
    ("max_epochs", 1.5), ("mlp_hidden", "4"), ("self_loops", "no"), ("epsilons", 1),
    ("pattern_spec", {"2": 1}), ("pattern_spec", {2: 1.0}), ("pattern_spec", {True: 1}),
])
def test_train_config_rejects_values_of_a_wrong_type(field, value):
    kwargs = {"pattern_spec": {1: 1}, field: value}
    with pytest.raises(ValueError, match=field.replace("_", "[_ ]")):
        TrainConfig(**kwargs)


def test_train_config_validates_pattern_side():
    with pytest.raises(ValueError, match="bad pattern spec entry"):
        TrainConfig(pattern_spec={0: 1})
    with pytest.raises(ValueError, match="unknown semiring"):
        TrainConfig(pattern_spec={1: 1}, semiring="tropical-ish")


def test_train_config_fields_keep_their_names_and_order():
    # callers build TrainConfig by keyword; the scoring fields come from
    # PatternSetConfig and a model file holds exactly those
    assert [f.name for f in fields(TrainConfig)] == [
        "pattern_spec", "semiring", "encoder", "self_loops", "epsilons", "lr", "dropout",
        "mlp_hidden", "batch_size", "max_epochs", "patience", "seed"]
    assert type(TrainConfig(pattern_spec={2: 1}).pattern_config()) is PatternSetConfig


@pytest.mark.parametrize("make", [PatternSetConfig, TrainConfig])
def test_config_objects_bound_the_pattern_length(make):
    with pytest.raises(ValueError, match="exceeds the maximum 7"):
        make(pattern_spec={2: 1, 8: 1})
    assert make(pattern_spec={7: 1}).pattern_spec == {7: 1}


# -- serialization ----------------------------------------------------------

def test_save_load_round_trip_is_exact(tmp_path):
    vocab, emb, train_docs, dev_docs = micro_task()
    model, _ = train(train_docs, dev_docs, vocab, emb, QUICK)
    path = str(tmp_path / "model.json")
    save_model(model, path)
    again = load_model(path)
    for p1, p2 in zip(model.patterns, again.patterns):
        for name in ("u", "a", "w", "b", "c"):
            assert np.array_equal(getattr(p1, name), getattr(p2, name))
    for name in ("w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(model.mlp, name), getattr(again.mlp, name))
    assert again.config == model.config
    assert again.vocab_fingerprint == model.vocab_fingerprint
    assert again.num_classes == model.num_classes
    m1 = evaluate(model, dev_docs, vocab, emb)
    m2 = evaluate(again, dev_docs, vocab, emb)
    assert m1 == m2


def test_load_model_rejects_unknown_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "someone-elses-v9"}))
    with pytest.raises(ValueError, match="unsupported model format"):
        load_model(str(path))


def _drop_pattern(payload):
    payload["patterns"].pop()


def _lengthen_pattern(payload):
    entry = payload["patterns"][0]
    for name in ("u", "w", "a", "b", "c"):
        entry[name].append(entry[name][0])


def _widen_vocab_dim(payload):
    payload["vocab_fingerprint"]["dim"] = 3


def _extra_w1_row(payload):
    payload["mlp"]["w1"].append(payload["mlp"]["w1"][0])


def _more_classes(payload):
    payload["num_classes"] = 3


def _nan_pattern_value(payload):
    payload["patterns"][1]["b"][0] = float("nan")


def _inf_mlp_value(payload):
    payload["mlp"]["b2"][1] = float("inf")


def _list_at_top_level(payload):
    return [1, 2]


def _config_list(payload):
    payload["config"] = []


def _patterns_object(payload):
    payload["patterns"] = {"0": payload["patterns"][0]}


def _pattern_entry_list(payload):
    payload["patterns"][1] = [1.0]


def _mlp_list(payload):
    payload["mlp"] = []


def _fingerprint_string(payload):
    payload["vocab_fingerprint"] = "abc"


def _no_config(payload):
    del payload["config"]


def _no_encoder(payload):
    del payload["config"]["encoder"]


def _no_pattern_c(payload):
    del payload["patterns"][1]["c"]


def _no_mlp_b1(payload):
    del payload["mlp"]["b1"]


def _ragged_u(payload):
    payload["patterns"][0]["u"][1] = [0.0]


def _string_in_w(payload):
    payload["patterns"][1]["w"][0][0] = "q"


def _object_in_b(payload):
    payload["patterns"][0]["b"][0] = {}


def _short_a(payload):
    payload["patterns"][0]["a"].pop()


def _short_mlp_b1(payload):
    payload["mlp"]["b1"].pop()


@pytest.mark.parametrize("corrupt,message", [
    (_list_at_top_level, "the top level must be a JSON object, not list"),
    (_config_list, "'config' must be a JSON object, not list"),
    (_patterns_object, "'patterns' must be a JSON list, not dict"),
    (_pattern_entry_list, r"'patterns'\[1\] must be a JSON object, not list"),
    (_mlp_list, "'mlp' must be a JSON object, not list"),
    (_fingerprint_string, "'vocab_fingerprint' must be a JSON object, not str"),
    (_no_config, "missing field 'config'"),
    (_no_encoder, "missing field 'encoder'"),
    (_no_pattern_c, "missing field 'c'"),
    (_no_mlp_b1, "missing field 'b1'"),
    (_ragged_u, r"model.json: 'patterns'\[0\]: .*inhomogeneous shape"),
    (_string_in_w, r"model.json: 'patterns'\[1\]: could not convert string to float: 'q'"),
    (_object_in_b, r"model.json: 'patterns'\[0\]: float\(\) argument must be"),
    (_short_a, r"model.json: 'patterns'\[0\]: a must have shape \(2,\)"),
    (_short_mlp_b1, "model.json: 'mlp': inconsistent MLP layer shapes"),
    (_drop_pattern, "'patterns' holds 1 patterns, but 'pattern_spec' declares 2"),
    (_lengthen_pattern, r"'patterns'\[0\] has length 3, but 'pattern_spec' declares 2"),
    (_widen_vocab_dim, r"'patterns'\[0\] has dimension 2, but 'vocab_fingerprint' declares dim 3"),
    (_extra_w1_row, "'mlp.w1' has 3 rows, one per pattern is 2"),
    (_more_classes, "'mlp.w2' has 2 columns, but 'num_classes' is 3"),
    (_nan_pattern_value, r"'patterns'\[1\].b has a non-finite value"),
    (_inf_mlp_value, "'mlp.b2' has a non-finite value"),
])
def test_load_model_validates_fields(tmp_path, corrupt, message):
    vocab, *_ = micro_task()
    path = tmp_path / "model.json"
    save_model(zero_model(vocab=vocab), str(path))
    payload = json.loads(path.read_text())
    replaced = corrupt(payload)
    path.write_text(json.dumps(payload if replaced is None else replaced))
    with pytest.raises(ValueError, match=message):
        load_model(str(path))


def test_fingerprint_is_hashed_once_per_vocabulary(monkeypatch):
    import sopa.embeddings
    from sopa.interpret import pattern_contributions
    vocab, emb, train_docs, _ = micro_task()
    made = []
    sha256 = sopa.embeddings.hashlib.sha256

    def counting(*args):
        made.append(args)
        return sha256(*args)

    monkeypatch.setattr(sopa.embeddings.hashlib, "sha256", counting)
    model = zero_model(vocab=vocab)
    for _ in range(3):
        evaluate(model, train_docs, vocab, emb)
        forward_logits(model, train_docs[0], vocab, emb)
        pattern_contributions(model, train_docs[0], vocab, emb)
    assert len(made) == 1


def test_atomic_write_replaces_existing(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")
    atomic_write_text(str(path), "new")
    assert path.read_text() == "new"
    assert list(tmp_path.iterdir()) == [path]  # no stray temp files


# -- hyperparameter search ---------------------------------------------------

def search_setup():
    vocab, emb, train_docs, dev_docs = micro_task()
    base = TrainConfig(pattern_spec={1: 1}, mlp_hidden=2, batch_size=8,
                       max_epochs=2, patience=3, lr=1e-2, seed=0)
    return vocab, emb, train_docs, dev_docs, base


def test_random_search_returns_ranked_rows():
    vocab, emb, train_docs, dev_docs, base = search_setup()
    space = {"lr": [1e-2, 5e-3], "pattern_spec": ["1:1", "2:1"]}
    best, rows = random_search(space, train_docs, dev_docs, vocab, emb, base,
                               iterations=3, seed=5)
    assert len(rows) == 3
    assert [r["iteration"] for r in rows] == [1, 2, 3]
    for row in rows:
        assert set(row["choice"]) == {"lr", "pattern_spec"}
        assert isinstance(row["choice"]["pattern_spec"], dict)
        assert row["epochs"] >= 1
    top = max(rows, key=lambda r: r["best_dev_acc"])
    assert best.lr == top["config"].lr
    assert best.pattern_spec == top["config"].pattern_spec


def test_random_search_deterministic():
    vocab, emb, train_docs, dev_docs, base = search_setup()
    space = {"lr": [1e-2, 5e-3, 1e-3]}
    _, rows1 = random_search(space, train_docs, dev_docs, vocab, emb, base,
                             iterations=3, seed=7)
    _, rows2 = random_search(space, train_docs, dev_docs, vocab, emb, base,
                             iterations=3, seed=7)
    assert [r["choice"] for r in rows1] == [r["choice"] for r in rows2]
    assert [r["best_dev_acc"] for r in rows1] == [r["best_dev_acc"] for r in rows2]


def test_random_search_single_point_space():
    vocab, emb, train_docs, dev_docs, base = search_setup()
    best, rows = random_search({"lr": [0.0]}, train_docs, dev_docs, vocab, emb,
                               base, iterations=1, seed=0)
    assert best.lr == 0.0
    assert len(rows) == 1


def test_random_search_validation():
    vocab, emb, train_docs, dev_docs, base = search_setup()
    with pytest.raises(ValueError, match="empty search space"):
        random_search({}, train_docs, dev_docs, vocab, emb, base)
    with pytest.raises(ValueError, match="unknown hyperparameter"):
        random_search({"momentum": [0.9]}, train_docs, dev_docs, vocab, emb, base)
    with pytest.raises(ValueError, match="no candidate values"):
        random_search({"lr": []}, train_docs, dev_docs, vocab, emb, base)
    with pytest.raises(ValueError, match="iterations"):
        random_search({"lr": [0.1]}, train_docs, dev_docs, vocab, emb, base,
                      iterations=0)


def test_random_search_parses_and_checks_every_pattern_spec_candidate(monkeypatch):
    vocab, emb, train_docs, dev_docs, base = search_setup()
    monkeypatch.setattr(classifier, "train", lambda *args: pytest.fail("a model trained"))
    with pytest.raises(ValueError, match=r"search space 'pattern_spec': candidate '2:x': "
                                         "bad pattern spec entry"):
        random_search({"pattern_spec": [{"2": 1}, "2:x"]}, train_docs, dev_docs, vocab,
                      emb, base)


@pytest.mark.parametrize("value", ["2", 2.0, True], ids=["string", "float", "bool"])
def test_load_model_requires_an_integer_num_classes(tmp_path, value):
    vocab, *_ = micro_task()
    path = tmp_path / "model.json"
    save_model(zero_model(vocab=vocab), str(path))
    payload = json.loads(path.read_text())
    payload["num_classes"] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"^{path}: 'num_classes' must be a JSON integer, "
                                         f"not {type(value).__name__}$"):
        load_model(str(path))


def _short_doc_task(lengths):
    vocab = Vocabulary(words=["a", "b"], dim=2)
    emb = EmbeddingMatrix(vectors=np.array([[0.3, 0.1], [-0.2, 0.4]]))
    docs = [TokenizedDocument(token_ids=[i % 2] * n, raw_tokens=["a"] * n,
                              label=i % 2, doc_id=i) for i, n in enumerate(lengths)]
    return vocab, emb, docs


@pytest.mark.parametrize("epsilons,short,enough", [(False, 2, 4), (True, 1, 2)])
def test_train_rejects_documents_too_short_to_match(epsilons, short, enough):
    # max-sum scores an unmatched pattern -inf, which would surface as a NaN
    # loss; the check names the documents and the minimum length instead
    vocab, emb, docs = _short_doc_task([enough, short, enough, enough])
    config = TrainConfig(pattern_spec={4: 1, 2: 1}, semiring="max-sum",
                         epsilons=epsilons, mlp_hidden=2, batch_size=4,
                         max_epochs=1, patience=1, seed=0)
    with pytest.raises(ValueError, match=rf"training document\(s\) \(ids 1\) "
                                         rf"have fewer than {enough} tokens"):
        train(docs, docs[:1] + docs[2:], vocab, emb, config)
    with pytest.raises(ValueError, match=rf"development document\(s\) \(ids 1\)"):
        train(docs[:1] + docs[2:], docs, vocab, emb, config)
    _, log = train(docs[:1] + docs[2:], docs[2:], vocab, emb, config)
    assert np.isfinite(log[0]["train_loss"])
    model, _ = train(docs[:1] + docs[2:], docs[2:], vocab, emb, config)
    with pytest.raises(ValueError, match=r"evaluation document\(s\) \(ids 1\)"):
        evaluate(model, docs, vocab, emb)
    with pytest.raises(ValueError, match=r"input document\(s\) \(ids 1\)"):
        forward_logits(model, docs[1], vocab, emb)
    assert np.isfinite(forward_logits(model, docs[0], vocab, emb)).all()


def test_short_documents_still_train_where_unmatched_scores_are_finite():
    vocab, emb, docs = _short_doc_task([4, 1, 4, 1])
    for semiring in ("max-product", "sum-product"):
        config = TrainConfig(pattern_spec={4: 1}, semiring=semiring,
                             epsilons=False, mlp_hidden=2, batch_size=4,
                             max_epochs=1, patience=1, seed=0)
        _, log = train(docs, docs, vocab, emb, config)
        assert np.isfinite(log[0]["train_loss"])
