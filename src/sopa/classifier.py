"""Document classifier on top of pattern scores.

The k per-pattern document scores form a feature vector z that feeds a
two-layer MLP with a softmax output.  Training is minibatch Adam on
cross-entropy with epoch-level early stopping on development loss; the
returned model is the best-dev-loss snapshot.
"""

from __future__ import annotations

import json
import numbers
import os
import tempfile
from dataclasses import dataclass, fields, replace

import numpy as np

from sopa.autodiff import Adam, Node, Param, Tape
from sopa.automata import (PatternBank, PatternParams, PatternSetConfig, encode_documents,
                           group_params, group_patterns, make_patterns,
                           min_match_tokens, parse_pattern_spec, ungroup_patterns)
from sopa.embeddings import EmbeddingMatrix, TokenizedDocument, Vocabulary
from sopa.semiring import get_semiring

MODEL_FORMAT = "sopa-model-v1"


class TrainingDiverged(RuntimeError):
    """Raised when the training loss stops being finite."""


@dataclass
class MlpParams:
    """Two-layer perceptron: rectifier hidden layer, linear output."""

    w1: np.ndarray  # (k, h)
    b1: np.ndarray  # (h,)
    w2: np.ndarray  # (h, C)
    b2: np.ndarray  # (C,)

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, np.asarray(getattr(self, f.name), dtype=np.float64))
        k, h = self.w1.shape
        h2, c = self.w2.shape
        if self.b1.shape != (h,) or h2 != h or self.b2.shape != (c,):
            raise ValueError("inconsistent MLP layer shapes")

    def arrays(self) -> dict[str, np.ndarray]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def num_features(self) -> int:
        return self.w1.shape[0]

    @property
    def hidden(self) -> int:
        return self.w1.shape[1]

    @property
    def num_classes(self) -> int:
        return self.w2.shape[1]

    @classmethod
    def random(cls, k: int, hidden: int, num_classes: int,
               rng: np.random.Generator, std: float = 0.1):
        return cls(
            w1=rng.normal(0.0, std, (k, hidden)),
            b1=rng.normal(0.0, std, hidden),
            w2=rng.normal(0.0, std, (hidden, num_classes)),
            b2=rng.normal(0.0, std, num_classes),
        )


@dataclass(frozen=True)
class TrainConfig(PatternSetConfig):
    """A model's scoring configuration plus how to train it."""

    lr: float = 1e-3
    dropout: float = 0.0
    mlp_hidden: int = 25
    batch_size: int = 150
    max_epochs: int = 250
    patience: int = 30
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        for f in fields(self):  # postponed annotations: f.type is "int", "float", ...
            kind = {"int": numbers.Integral, "float": numbers.Real}.get(f.type)
            value = getattr(self, f.name)
            if kind and (not isinstance(value, kind) or isinstance(value, bool)):
                raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")
        if not 0.0 <= self.lr < 1.0:
            raise ValueError(f"learning rate must lie in [0, 1), got {self.lr}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")
        for name in ("mlp_hidden", "batch_size", "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")

    def pattern_config(self) -> PatternSetConfig:
        return PatternSetConfig(**{f.name: getattr(self, f.name)
                                   for f in fields(PatternSetConfig)})


@dataclass
class ModelBundle:
    patterns: list[PatternParams]
    mlp: MlpParams
    config: PatternSetConfig
    vocab_fingerprint: dict
    num_classes: int

    @property
    def num_patterns(self) -> int:
        return len(self.patterns)


def softmax(logits: np.ndarray) -> np.ndarray:
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def mlp_probabilities(mlp: MlpParams, z: np.ndarray) -> np.ndarray:
    """Class probabilities from a raw feature vector or batch (no dropout).

    The one-document head of forward_logits and of interpret's leave-one-out
    loop, which makes k+1 single-vector calls per explained document; a
    grad-free tape head costs about 2.5x as much per call (26 vs 10 us at
    k=30, h=25 on 2 cores).  Batches go through _batch_logits.
    """
    z = np.asarray(z, dtype=np.float64)
    hidden = np.maximum(z @ mlp.w1 + mlp.b1, 0.0)
    return softmax(hidden @ mlp.w2 + mlp.b2)


def _check_fingerprint(model: ModelBundle, vocab: Vocabulary):
    if model.vocab_fingerprint != vocab.fingerprint():
        raise ValueError("vocabulary fingerprint does not match the model; "
                         "these embeddings are not the ones it was trained with")


def _dropout_node(tape: Tape, x: Node, rate: float, rng: np.random.Generator) -> Node:
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return tape.mul(x, tape.const(mask))


def _mlp_logits(tape: Tape, z: Node, leaves: dict[str, Node], dropout: float,
                rng: np.random.Generator | None, train_mode: bool) -> Node:
    if train_mode and dropout > 0.0:
        z = _dropout_node(tape, z, dropout, rng)
    hidden = tape.relu(tape.add_bias(tape.matmul(z, leaves["w1"]), leaves["b1"]))
    if train_mode and dropout > 0.0:
        hidden = _dropout_node(tape, hidden, dropout, rng)
    return tape.add_bias(tape.matmul(hidden, leaves["w2"]), leaves["b2"])


def _batch_logits(tape: Tape, bank: PatternBank, docs: list[TokenizedDocument],
                  embeddings: EmbeddingMatrix, config: PatternSetConfig, mlp: dict,
                  dropout: float = 0.0, rng: np.random.Generator | None = None) -> Node:
    """Logits (B, C) of one document batch: pattern scores z, then the MLP.

    The one forward path of the train step, the dev pass, evaluate and
    oracle-check.  mlp maps w1, b1, w2, b2 to Params, recorded as leaves, or
    to plain arrays.  A positive dropout applies inverted dropout to z and
    the hidden layer, drawing the masks from rng in that order.
    """
    z, _, _ = encode_documents(bank, docs, embeddings, config, tape=tape)
    leaves = {name: tape.leaf(p) if isinstance(p, Param) else tape.const(p)
              for name, p in mlp.items()}
    return _mlp_logits(tape, z, leaves, dropout, rng, dropout > 0.0)


def forward_logits(model: ModelBundle, doc: TokenizedDocument, vocab: Vocabulary,
                   embeddings: EmbeddingMatrix) -> np.ndarray:
    """Class probabilities for one document, from the numpy head that
    pattern_contributions uses."""
    _check_fingerprint(model, vocab)
    _check_matchable(model.config, {"input": [doc]})
    z, _, _ = encode_documents(group_patterns(model.patterns), [doc], embeddings, model.config)
    return mlp_probabilities(model.mlp, z.value)[0]


def evaluate(model: ModelBundle, dataset: list[TokenizedDocument], vocab: Vocabulary,
             embeddings: EmbeddingMatrix, batch_size: int = 150) -> dict:
    """Accuracy and per-class counts under argmax prediction (ties -> class 0)."""
    _check_fingerprint(model, vocab)
    if not dataset:
        raise ValueError("empty evaluation dataset")
    _check_matchable(model.config, {"evaluation": dataset})
    labels = _class_labels(model, dataset, "evaluation")
    bank = group_patterns(model.patterns)
    preds = []
    for lo in range(0, len(dataset), batch_size):
        logits = _batch_logits(Tape(grad=False), bank, dataset[lo:lo + batch_size],
                               embeddings, model.config, model.mlp.arrays())
        preds.append(softmax(logits.value).argmax(axis=1))
    correct = np.concatenate(preds) == labels
    per_class: dict[int, dict[str, int]] = {}
    for label in sorted(set(labels.tolist())):
        sel = labels == label
        per_class[int(label)] = {"total": int(sel.sum()),
                                 "correct": int(correct[sel].sum())}
    return {
        "accuracy": float(correct.mean()),
        "total": len(dataset),
        "correct": int(correct.sum()),
        "per_class": per_class,
    }


def _labels_of(dataset: list[TokenizedDocument]) -> np.ndarray:
    labels = []
    for doc in dataset:
        if doc.label is None:
            raise ValueError(f"document {doc.doc_id} has no label")
        labels.append(doc.label)
    return np.array(labels, dtype=np.int64)


def _class_labels(model: ModelBundle, docs: list[TokenizedDocument], name: str) -> np.ndarray:
    """The documents' labels, each checked to be one of the model's classes."""
    labels = _labels_of(docs)
    unknown = np.flatnonzero(labels >= model.num_classes)
    if len(unknown):
        doc = docs[unknown[0]]
        raise ValueError(f"{len(unknown)} {name} document(s) have a label the model has "
                         f"no class for: document {doc.doc_id} has label {doc.label}, and "
                         f"the model has num_classes {model.num_classes}")
    return labels


def count_parameters(model: ModelBundle) -> tuple[int, int]:
    """Trainable scalar counts: (pattern side, MLP side).

    Per pattern of length L over e-dim embeddings: (2e+3)*L, counting the two
    weight vectors and three scalars per slot.  MLP: (k+1)*h + (h+1)*C.
    """
    sopa_count = sum((2 * p.dim + 3) * p.length for p in model.patterns)
    k, h, c = model.mlp.num_features, model.mlp.hidden, model.mlp.num_classes
    return sopa_count, (k + 1) * h + (h + 1) * c


def _check_matchable(config: PatternSetConfig, splits: dict[str, list[TokenizedDocument]]):
    """Reject documents too short for the longest pattern when an unmatched
    pattern scores a non-finite feature (the max-sum zero is -inf)."""
    if np.isfinite(get_semiring(config.semiring).zero):
        return
    length = max(config.pattern_spec)
    need = min_match_tokens(length, config.epsilons)
    for name, docs in splits.items():
        short = [d.doc_id for d in docs if len(d.token_ids) < need]
        if short:
            shown = ", ".join(map(str, short[:10])) + (", ..." if len(short) > 10 else "")
            raise ValueError(
                f"{len(short)} {name} document(s) (ids {shown}) have fewer than {need} "
                f"tokens, the minimum a length-{length} pattern can match "
                f"{'with' if config.epsilons else 'without'} epsilon transitions; "
                f"under {config.semiring} an unmatched pattern scores -inf")


def _model_params(patterns: list[PatternParams], mlp: MlpParams):
    """Fresh Params holding a model's values: the pattern bank, the MLP's
    Params by field name, and all of them in optimizer order."""
    bank = group_patterns(patterns, as_params=True)
    mlp_params = {name: Param(f"mlp.{name}", value) for name, value in mlp.arrays().items()}
    return bank, mlp_params, group_params(bank) + list(mlp_params.values())


def train(train_set: list[TokenizedDocument], dev_set: list[TokenizedDocument],
          vocab: Vocabulary, embeddings: EmbeddingMatrix,
          config: TrainConfig) -> tuple[ModelBundle, list[dict]]:
    """Minibatch Adam on cross-entropy with dev-loss early stopping.

    Returns the best-dev-loss snapshot and one log record per epoch.  All
    randomness (init, shuffling, dropout) flows from one generator seeded by
    config.seed, so fixed-seed runs are bit-identical.
    """
    if not train_set or not dev_set:
        raise ValueError("training and development sets must be non-empty")
    train_labels = _labels_of(train_set)
    dev_labels = _labels_of(dev_set)
    num_classes = max(2, int(max(train_labels.max(), dev_labels.max())) + 1)

    pconfig = config.pattern_config()
    _check_matchable(pconfig, {"training": train_set, "development": dev_set})
    rng = np.random.default_rng(config.seed)
    patterns = make_patterns(pconfig, embeddings.dim, rng)
    mlp_init = MlpParams.random(pconfig.total_patterns, config.mlp_hidden, num_classes, rng)
    bank, mlp_params, params = _model_params(patterns, mlp_init)
    optimizer = Adam(params, lr=config.lr)

    def dev_metrics() -> tuple[float, float]:
        total_loss = 0.0
        correct = 0
        for lo in range(0, len(dev_set), config.batch_size):
            docs = dev_set[lo:lo + config.batch_size]
            labels = dev_labels[lo:lo + config.batch_size]
            tape = Tape(grad=False)
            logits = _batch_logits(tape, bank, docs, embeddings, pconfig, mlp_params)
            loss = tape.cross_entropy(logits, labels)
            total_loss += float(loss.value) * len(docs)
            correct += int((logits.value.argmax(axis=1) == labels).sum())
        return total_loss / len(dev_set), correct / len(dev_set)

    log: list[dict] = []
    best_loss = np.inf
    best_state = [p.value.copy() for p in params]
    since_improved = 0
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(train_set))
        epoch_loss = 0.0
        for lo in range(0, len(order), config.batch_size):
            idx = order[lo:lo + config.batch_size]
            docs = [train_set[i] for i in idx]
            tape = Tape(grad=True)
            logits = _batch_logits(tape, bank, docs, embeddings, pconfig, mlp_params,
                                   config.dropout, rng)
            loss = tape.cross_entropy(logits, train_labels[idx])
            if not np.isfinite(loss.value):
                raise TrainingDiverged(
                    f"non-finite training loss {loss.value!r} at epoch {epoch}")
            optimizer.zero_grad()
            tape.backward(loss)
            optimizer.step()
            epoch_loss += float(loss.value) * len(docs)
        dev_loss, dev_acc = dev_metrics()
        if not np.isfinite(dev_loss):
            raise TrainingDiverged(
                f"non-finite development loss {dev_loss!r} at epoch {epoch}")
        log.append({"epoch": epoch, "train_loss": epoch_loss / len(train_set),
                    "dev_loss": dev_loss, "dev_acc": dev_acc})
        if dev_loss < best_loss:
            best_loss = dev_loss
            best_state = [p.value.copy() for p in params]
            since_improved = 0
        else:
            since_improved += 1
            if since_improved >= config.patience:
                break

    for p, value in zip(params, best_state):
        p.value[...] = value
    model = ModelBundle(
        patterns=ungroup_patterns(bank),
        mlp=MlpParams(**{name: p.value.copy() for name, p in mlp_params.items()}),
        config=pconfig,
        vocab_fingerprint=vocab.fingerprint(),
        num_classes=num_classes,
    )
    return model, log


def random_search(space: dict[str, list], train_set: list[TokenizedDocument],
                  dev_set: list[TokenizedDocument], vocab: Vocabulary,
                  embeddings: EmbeddingMatrix, base_config: TrainConfig,
                  iterations: int = 30, seed: int = 0) -> tuple[TrainConfig, list[dict]]:
    """Uniform random hyperparameter search ranked by best dev accuracy.

    space maps TrainConfig field names to candidate lists; fields absent from
    the space keep base_config's value.  Sampling order is the sorted field
    order, so a fixed seed reproduces the sampled sequence.
    """
    if not isinstance(space, dict):
        raise ValueError("the search space must map hyperparameter names to candidate "
                         f"lists, not {type(space).__name__}")
    if not space:
        raise ValueError("empty search space")
    checked: dict[str, list] = {}  # every candidate, before the first model trains
    for name, candidates in space.items():
        if name not in TrainConfig.__dataclass_fields__:
            raise ValueError(f"unknown hyperparameter {name!r}")
        if not isinstance(candidates, list) or not candidates:
            raise ValueError(f"no candidate values for {name!r}; expected a non-empty "
                             f"list, not {candidates!r}")
        checked[name] = []
        for value in candidates:
            try:
                if name == "pattern_spec":
                    value = parse_pattern_spec(value)
                replace(base_config, **{name: value})
            except ValueError as exc:
                raise ValueError(f"search space {name!r}: candidate {value!r}: {exc}") from None
            checked[name].append(value)
    if iterations < 1:
        raise ValueError("iterations must be >= 1")

    rng = np.random.default_rng(seed)
    results: list[dict] = []
    best_row = None
    for it in range(1, iterations + 1):
        choice = {}
        for name in sorted(checked):
            candidates = checked[name]
            choice[name] = candidates[int(rng.integers(len(candidates)))]
        config = replace(base_config, **choice)
        model, log = train(train_set, dev_set, vocab, embeddings, config)
        best_epoch = max(log, key=lambda rec: rec["dev_acc"])
        row = {"iteration": it, "choice": choice, "config": config,
               "best_dev_acc": best_epoch["dev_acc"],
               "best_dev_loss": min(rec["dev_loss"] for rec in log),
               "epochs": len(log)}
        results.append(row)
        if best_row is None or row["best_dev_acc"] > best_row["best_dev_acc"]:
            best_row = row
    return best_row["config"], results


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def atomic_write_text(path: str, text: str):
    """Write via a temp file in the target directory plus rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_model(model: ModelBundle, path: str):
    """JSON model file; decimal float repr keeps the round trip bit-exact."""
    payload = {
        "format": MODEL_FORMAT,
        "config": model.config.record(),
        "num_classes": model.num_classes,
        "vocab_fingerprint": model.vocab_fingerprint,
        "patterns": [{f.name: getattr(p, f.name).tolist() for f in fields(PatternParams)}
                     for p in model.patterns],
        "mlp": {name: value.tolist() for name, value in model.mlp.arrays().items()},
    }
    atomic_write_text(path, json.dumps(payload, indent=1))


_JSON_NAMES = {dict: "object", list: "list", int: "integer"}


def _expect(path: str, value, label: str, want: type):
    # JSON true and false load as bools, which Python counts as ints
    if not isinstance(value, want) or (want is int and isinstance(value, bool)):
        raise ValueError(f"{path}: {label} must be a JSON {_JSON_NAMES[want]}, "
                         f"not {type(value).__name__}")
    return value


def _field(path: str, owner: dict, key: str, want: type = object):
    """owner[key], checked to be present and of type want.  No two fields of
    the model format share a key, so the key alone names the field."""
    if key not in owner:
        raise ValueError(f"{path}: missing field {key!r}")
    return _expect(path, owner[key], repr(key), want)


def load_model(path: str) -> ModelBundle:
    with open(path) as f:
        payload = _expect(path, json.load(f), "the top level", dict)
    fmt = payload.get("format")
    if fmt != MODEL_FORMAT:
        raise ValueError(f"{path}: unsupported model format {fmt!r}")
    cfg = _field(path, payload, "config", dict)
    values = {f.name: _field(path, cfg, f.name) for f in fields(PatternSetConfig)}
    _expect(path, values["pattern_spec"], "'pattern_spec'", dict)
    try:  # the rules a config from the CLI or the API obeys
        values["pattern_spec"] = parse_pattern_spec(values["pattern_spec"])
        config = PatternSetConfig(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: 'config': {exc}") from None
    entries = _field(path, payload, "patterns", list)
    for i, entry in enumerate(entries):
        _expect(path, entry, f"'patterns'[{i}]", dict)
    patterns = [_arrays(path, PatternParams, entry) for entry in entries]
    mlp = _arrays(path, MlpParams, _field(path, payload, "mlp", dict))
    model = ModelBundle(patterns=patterns, mlp=mlp, config=config,
                        vocab_fingerprint=_field(path, payload, "vocab_fingerprint", dict),
                        num_classes=_field(path, payload, "num_classes", int))
    _check_model(model, path)
    return model


def _arrays(path: str, cls, owner: dict):
    """cls built from the float64 arrays that owner holds under its field names."""
    return cls(**{f.name: np.array(_field(path, owner, f.name), dtype=np.float64)
                  for f in fields(cls)})


def _check_model(model: ModelBundle, path: str):
    """Shapes that agree with the config and each other, and finite values;
    each failure names the field."""
    lengths = [p.length for p in model.patterns]
    declared = model.config.lengths()
    if len(lengths) != len(declared):
        raise ValueError(f"{path}: 'patterns' holds {len(lengths)} patterns, but "
                         f"'pattern_spec' declares {len(declared)}")
    for i, (length, want) in enumerate(zip(lengths, declared)):
        if length != want:
            raise ValueError(f"{path}: 'patterns'[{i}] has length {length}, but "
                             f"'pattern_spec' declares {want}")
    dim = model.vocab_fingerprint.get("dim")
    for i, p in enumerate(model.patterns):
        if p.dim != dim:
            raise ValueError(f"{path}: 'patterns'[{i}] has dimension {p.dim}, but "
                             f"'vocab_fingerprint' declares dim {dim}")
    if model.mlp.num_features != len(lengths):
        raise ValueError(f"{path}: 'mlp.w1' has {model.mlp.num_features} rows, one per "
                         f"pattern is {len(lengths)}")
    if model.mlp.num_classes != model.num_classes:
        raise ValueError(f"{path}: 'mlp.w2' has {model.mlp.num_classes} columns, but "
                         f"'num_classes' is {model.num_classes}")
    for i, p in enumerate(model.patterns):
        for f in fields(p):
            if not np.isfinite(getattr(p, f.name)).all():
                raise ValueError(f"{path}: 'patterns'[{i}].{f.name} has a non-finite value")
    for name, value in model.mlp.arrays().items():
        if not np.isfinite(value).all():
            raise ValueError(f"{path}: 'mlp.{name}' has a non-finite value")
