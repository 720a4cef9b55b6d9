"""Command-line interface: train, eval, explain, search, oracle-check.

Option precedence is CLI flag > config file (--config, JSON) > built-in
default.  Every run logs its fully resolved configuration and seed.  All
output files are written atomically.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from sopa.autodiff import Tape, finite_difference_check
from sopa.automata import ENCODERS, encode_documents, group_patterns, parse_pattern_spec
from sopa.classifier import (TrainConfig, TrainingDiverged, _batch_logits, _check_fingerprint,
                             _class_labels, _model_params, atomic_write_text, evaluate,
                             load_model, random_search, save_model, train)
from sopa.embeddings import load_embeddings, read_dataset
from sopa.interpret import pattern_contributions, render_report, top_k_reports
from sopa.reference import (MAX_BRUTE_DOC, brute_force_doc_score, cnn_filter_of,
                            explicit_cnn_score)
from sopa.semiring import KINDS, get_semiring

# TrainConfig's own defaults, plus the two that only the CLI has
_DEFAULTS = {f.name: f.default for f in dataclasses.fields(TrainConfig)
             if f.default is not dataclasses.MISSING}
_DEFAULTS.update(patterns="6:10,5:10,4:10", lowercase=False)

ORACLE_TOLERANCE = 1e-10
GRAD_TOLERANCE = 1e-4


def _add_shared_flags(cmd: argparse.ArgumentParser):
    cmd.add_argument("--train", required=True, help="training set (label<TAB>text)")
    cmd.add_argument("--dev", required=True, help="development set")
    cmd.add_argument("--embeddings", required=True, help="word vector file")
    cmd.add_argument("--config", help="JSON file of defaults (flag > file > built-in)")
    cmd.add_argument("--seed", type=int)
    cmd.add_argument("--semiring", choices=KINDS)
    cmd.add_argument("--encoder", choices=ENCODERS)
    cmd.add_argument("--patterns", help="pattern spec, e.g. 6:10,5:10,4:10")
    cmd.add_argument("--no-self-loops", action="store_const", const=False,
                     dest="self_loops", help="disable self-loop transitions")
    cmd.add_argument("--no-epsilon", action="store_const", const=False,
                     dest="epsilons", help="disable epsilon transitions")
    cmd.add_argument("--lr", type=float)
    cmd.add_argument("--dropout", type=float)
    cmd.add_argument("--mlp-hidden", type=int)
    cmd.add_argument("--batch-size", type=int)
    cmd.add_argument("--max-epochs", type=int)
    cmd.add_argument("--patience", type=int)
    cmd.add_argument("--lowercase", action="store_const", const=True)


def _resolve(args: argparse.Namespace) -> tuple[TrainConfig, bool]:
    """The training configuration and the lowercase switch: flag values
    merged with the config file and defaults.

    A config file holds the keys of _DEFAULTS, with the pattern spec either
    as a "patterns" string or as the {"length": count} "pattern_spec" map
    that `search --out` writes; any other key is an error.
    """
    file_values = {}
    if args.config:
        with open(args.config) as f:
            file_values = json.load(f)
        if not isinstance(file_values, dict):
            raise ValueError(f"{args.config}: config file must hold a JSON object")
        unknown = sorted(set(file_values) - set(_DEFAULTS) - {"pattern_spec"})
        if unknown:
            raise ValueError(f"{args.config}: unknown config key(s) {', '.join(unknown)}")
        if "pattern_spec" in file_values:
            if "patterns" in file_values:
                raise ValueError(f"{args.config}: give the pattern spec as "
                                 "'patterns' or 'pattern_spec', not both")
            if not isinstance(file_values["pattern_spec"], dict):
                raise ValueError(f"{args.config}: pattern_spec must map "
                                 "lengths to counts")
            file_values["patterns"] = file_values.pop("pattern_spec")
        if not isinstance(file_values.get("lowercase", False), bool):
            raise ValueError(f"{args.config}: lowercase must be true or false, "
                             f"got {file_values['lowercase']!r}")

    def get(key: str):
        value = getattr(args, key)
        return file_values.get(key, _DEFAULTS[key]) if value is None else value

    config = TrainConfig(pattern_spec=parse_pattern_spec(get("patterns")),
                         **{name: get(name) for name in _DEFAULTS
                            if name in TrainConfig.__dataclass_fields__})
    return config, get("lowercase")


def _load_training_sets(args: argparse.Namespace, lowercase: bool):
    """(vocab, embeddings, train set, dev set) of a train or search run."""
    vocab, embeddings = load_embeddings(args.embeddings)
    return (vocab, embeddings, read_dataset(args.train, vocab, lowercase),
            read_dataset(args.dev, vocab, lowercase))


def _add_model_flags(cmd: argparse.ArgumentParser, data: str, data_help: str | None = None):
    """Declare --model, the data file flag data, --embeddings and --lowercase."""
    cmd.add_argument("--model", required=True)
    cmd.add_argument(data, required=True, help=data_help)
    cmd.add_argument("--embeddings", required=True)
    cmd.add_argument("--lowercase", action="store_const", const=True)


def _load_model_inputs(args: argparse.Namespace, data: str):
    """(vocab, embeddings, model, documents of the file data): the model is
    checked to have been trained with these embeddings."""
    vocab, embeddings = load_embeddings(args.embeddings)
    model = load_model(args.model)
    _check_fingerprint(model, vocab)
    return vocab, embeddings, model, read_dataset(data, vocab, bool(args.lowercase))


def _log_resolved(config: TrainConfig, extra: dict):
    print(json.dumps({"resolved_config": config.record(), **extra}, sort_keys=True))


def cmd_train(args: argparse.Namespace) -> int:
    config, lowercase = _resolve(args)
    _log_resolved(config, {"command": "train"})
    vocab, embeddings, train_set, dev_set = _load_training_sets(args, lowercase)
    model, log = train(train_set, dev_set, vocab, embeddings, config)
    save_model(model, args.out)
    log_path = args.log or args.out + ".log.jsonl"
    atomic_write_text(log_path, "".join(json.dumps(rec) + "\n" for rec in log))
    best = min(log, key=lambda rec: rec["dev_loss"])
    print(f"model written to {args.out} ({len(log)} epochs; "
          f"best dev loss {best['dev_loss']:.6f}, dev accuracy {best['dev_acc']:.4f})")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    vocab, embeddings, model, dataset = _load_model_inputs(args, args.data)
    metrics = evaluate(model, dataset, vocab, embeddings)
    print(f"accuracy {metrics['accuracy']:.4f}")
    metrics_path = args.metrics_out or args.data + ".metrics.json"
    atomic_write_text(metrics_path, json.dumps(metrics, indent=1) + "\n")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise ValueError(f"--k must be at least 1, got {args.k}")
    if args.top_n < 0:
        raise ValueError(f"--top-n must be at least 0, got {args.top_n}")
    vocab, embeddings, model, dataset = _load_model_inputs(args, args.data)
    if args.mode == "patterns":
        reports = top_k_reports(model, dataset, vocab, embeddings, args.k)
    else:
        if args.doc_id is None:
            raise ValueError("--mode doc requires --doc-id")
        if not 0 <= args.doc_id < len(dataset):
            raise ValueError(f"--doc-id {args.doc_id} out of range for "
                             f"{len(dataset)} documents")
        reports = [pattern_contributions(model, dataset[args.doc_id], vocab,
                                         embeddings, top_n=args.top_n)]
    plain = "\n".join(render_report(r, "plain-text") for r in reports)
    print(plain, end="")
    if args.out:
        atomic_write_text(args.out + ".txt", plain)
        structured = "".join(render_report(r, "structured") for r in reports)
        atomic_write_text(args.out + ".jsonl", structured)
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    base, lowercase = _resolve(args)
    _log_resolved(base, {"command": "search", "iterations": args.iterations})
    with open(args.space) as f:
        space = json.load(f)
    vocab, embeddings, train_set, dev_set = _load_training_sets(args, lowercase)
    best, results = random_search(space, train_set, dev_set, vocab, embeddings,
                                  base, iterations=args.iterations,
                                  seed=base.seed)
    rows = []
    for row in results:
        rows.append({"iteration": row["iteration"],
                     "config": row["config"].record(),
                     "best_dev_acc": row["best_dev_acc"],
                     "best_dev_loss": row["best_dev_loss"],
                     "epochs": row["epochs"]})
        print(f"iteration {row['iteration']}: best dev accuracy "
              f"{row['best_dev_acc']:.4f} over {row['epochs']} epochs")
    atomic_write_text(args.out, json.dumps(best.record(), indent=1) + "\n")
    results_path = args.results_out or args.out + ".results.jsonl"
    atomic_write_text(results_path, "".join(json.dumps(r) + "\n" for r in rows))
    print(f"best config written to {args.out}")
    return 0


def _rel_deviation(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b), 1e-30)


def cmd_oracle_check(args: argparse.Namespace) -> int:
    if args.grad_checks < 1:
        raise ValueError(f"--grad-checks must be at least 1, got {args.grad_checks}")
    vocab, embeddings, model, docs = _load_model_inputs(args, args.docs)
    sr = get_semiring(model.config.semiring)

    scored = []
    skipped = 0
    for doc in docs:
        if len(doc) > MAX_BRUTE_DOC:
            print(f"warning: doc {doc.doc_id} has {len(doc)} tokens "
                  f"(> {MAX_BRUTE_DOC}); skipped", file=sys.stderr)
            skipped += 1
        else:
            scored.append(doc)
    if not scored:
        raise ValueError("no documents short enough for the oracle bounds")
    grad_docs = scored[:4]
    labels = _class_labels(model, grad_docs, "oracle-check")

    z, _, _ = encode_documents(group_patterns(model.patterns), scored, embeddings,
                               model.config)
    matrices = [embeddings.doc_matrix(doc) for doc in scored]

    # (report line head, oracle, must match exactly); a NaN deviation fails
    oracles = [(f"recurrence vs brute force: {len(scored)} docs x {len(model.patterns)} patterns, ",
                lambda pattern, m: brute_force_doc_score(pattern, m, model.config),
                sr.idempotent_plus)]
    if model.config.cnn_mode:
        oracles.append(("CNN-mode equivalence: ",
                        lambda pattern, m: explicit_cnn_score(*cnn_filter_of(pattern), m), False))
    failures = 0
    for head, oracle, exact in oracles:
        worst = 0.0
        for i, doc_matrix in enumerate(matrices):
            for p, pattern in enumerate(model.patterns):
                engine, expected = float(z.value[i, p]), oracle(pattern, doc_matrix)
                deviation = _rel_deviation(engine, expected)
                worst = max(worst, deviation)
                if not (engine == expected if exact else deviation <= ORACLE_TOLERANCE):
                    failures += 1
        print(f"{head}worst deviation {worst:.3e}")

    bank, mlp_params, params = _model_params(model.patterns, model.mlp)

    def forward(tape: Tape):
        logits = _batch_logits(tape, bank, grad_docs, embeddings, model.config,
                               mlp_params)
        return tape.cross_entropy(logits, labels)

    tape = Tape(grad=True)
    loss = forward(tape)
    for p in params:
        p.zero_grad()
    tape.backward(loss)
    report = finite_difference_check(lambda: float(forward(Tape(grad=False)).value),
                                     params, max_checks=args.grad_checks)
    print(f"gradient check: {report.checked} scalars, "
          f"max relative error {report.max_rel_error:.3e}")
    # not-less-than so a NaN loss (e.g. unmatched max-sum features) fails loudly
    if not report.max_rel_error < GRAD_TOLERANCE:
        failures += 1
        for entry in report.worst[:3]:
            print(f"  worst: {entry.param}{entry.index} analytic {entry.analytic:.6e} "
                  f"numeric {entry.numeric:.6e}", file=sys.stderr)

    if skipped:
        print(f"skipped {skipped} over-long documents", file=sys.stderr)
    if failures:
        print(f"FAIL ({failures} check(s) failed)")
        return 1
    print("PASS")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sopa",
        description="Train, evaluate, and inspect soft-pattern text classifiers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--out", required=True, help="model output path")
    p.add_argument("--log", help="training log path (default: <out>.log.jsonl)")
    _add_shared_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model on a labeled dataset")
    _add_model_flags(p, "--data")
    p.add_argument("--metrics-out", help="metrics file (default: <data>.metrics.json)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("explain", help="emit interpretability reports")
    _add_model_flags(p, "--data")
    p.add_argument("--mode", choices=("patterns", "doc"), required=True)
    p.add_argument("--k", type=int, default=5, help="matches per pattern report")
    p.add_argument("--doc-id", type=int, help="document to explain (--mode doc)")
    p.add_argument("--top-n", type=int, default=5,
                   help="contributors to annotate (--mode doc)")
    p.add_argument("--out", help="output prefix; writes <out>.txt and <out>.jsonl")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("search", help="random hyperparameter search")
    p.add_argument("--space", required=True, help="JSON file of candidate values")
    p.add_argument("--iterations", type=int, default=30)
    p.add_argument("--out", required=True, help="best config output path")
    p.add_argument("--results-out", help="results table (default: <out>.results.jsonl)")
    _add_shared_flags(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("oracle-check", help="certify a model against the oracles")
    _add_model_flags(p, "--docs", f"small labeled dataset (<= {MAX_BRUTE_DOC} tokens per doc)")
    p.add_argument("--grad-checks", type=int, default=40,
                   help="number of scalars probed by finite differences")
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, TrainingDiverged) as exc:  # what user input can cause
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
