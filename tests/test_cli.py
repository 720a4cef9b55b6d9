"""End-to-end command-line runs against small on-disk datasets."""

import json
import warnings

import numpy as np
import pytest

import sopa.classifier as classifier
import sopa.cli as cli
from sopa.classifier import TrainConfig, load_model

from _synth import write_micro_files

FAST = ["--patterns", "2:2", "--mlp-hidden", "4", "--batch-size", "8",
        "--max-epochs", "3", "--lr", "0.01"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Micro dataset files plus one trained model, shared by read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    paths = write_micro_files(root)
    model_path = str(root / "model.json")
    rc = cli.main(["train", "--train", paths["train"], "--dev", paths["dev"],
                   "--embeddings", paths["embeddings"], "--out", model_path]
                  + FAST)
    assert rc == 0
    paths["model"] = model_path
    paths["root"] = root
    return paths


def train_args(paths, out, extra=()):
    return (["train", "--train", paths["train"], "--dev", paths["dev"],
             "--embeddings", paths["embeddings"], "--out", out]
            + FAST + list(extra))


# -- train -------------------------------------------------------------------

def test_train_writes_model_log_and_resolved_config(tmp_path, capsys):
    paths = write_micro_files(tmp_path)
    out = str(tmp_path / "m.json")
    rc = cli.main(train_args(paths, out))
    captured = capsys.readouterr()
    assert rc == 0
    header = json.loads(captured.out.splitlines()[0])
    assert header["command"] == "train"
    assert header["resolved_config"]["pattern_spec"] == {"2": 2}
    assert header["resolved_config"]["lr"] == 0.01
    assert header["resolved_config"]["seed"] == 0
    assert f"model written to {out}" in captured.out
    model = load_model(out)
    assert model.num_patterns == 2
    log_lines = open(out + ".log.jsonl").read().splitlines()
    assert 1 <= len(log_lines) <= 3
    assert set(json.loads(log_lines[0])) == {"epoch", "train_loss",
                                             "dev_loss", "dev_acc"}


def test_train_is_deterministic_at_fixed_seed(tmp_path):
    paths = write_micro_files(tmp_path)
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert cli.main(train_args(paths, out1)) == 0
    assert cli.main(train_args(paths, out2)) == 0
    assert open(out1).read() == open(out2).read()
    assert open(out1 + ".log.jsonl").read() == open(out2 + ".log.jsonl").read()


def test_config_file_merging_flag_wins(tmp_path, capsys):
    paths = write_micro_files(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lr": 0.02, "max_epochs": 2, "patterns": "1:1",
                               "mlp_hidden": 3, "batch_size": 8}))
    out = str(tmp_path / "m.json")
    rc = cli.main(["train", "--train", paths["train"], "--dev", paths["dev"],
                   "--embeddings", paths["embeddings"], "--out", out,
                   "--config", str(cfg), "--lr", "0.005"])
    assert rc == 0
    header = json.loads(capsys.readouterr().out.splitlines()[0])
    resolved = header["resolved_config"]
    assert resolved["lr"] == 0.005          # flag beats file
    assert resolved["max_epochs"] == 2      # file beats default
    assert resolved["pattern_spec"] == {"1": 1}
    assert resolved["patience"] == 30       # untouched default


def test_flag_free_train_resolves_to_train_config_defaults():
    args = cli.build_parser().parse_args(["train", "--train", "t.tsv", "--dev", "d.tsv",
                                          "--embeddings", "e.txt", "--out", "m.json"])
    assert cli._resolve(args) == (TrainConfig(pattern_spec={6: 10, 5: 10, 4: 10}), False)


def test_config_file_must_be_object(tmp_path, capsys):
    paths = write_micro_files(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    rc = cli.main(train_args(paths, str(tmp_path / "m.json"),
                             ["--config", str(cfg)]))
    assert rc == 1
    assert "must hold a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    ({"learning_rate": 0.5, "paterns": "2:3", "lr": 0.5},
     "unknown config key(s) learning_rate, paterns"),
    ({"patterns": "2:3", "pattern_spec": {"2": 3}}, "not both"),
    ({"pattern_spec": "2:3"}, "pattern_spec must map lengths to counts"),
])
def test_config_file_rejects_keys_it_would_not_use(tmp_path, capsys, content, message):
    paths = write_micro_files(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(content))
    rc = cli.main(train_args(paths, str(tmp_path / "m.json"), ["--config", str(cfg)]))
    assert rc == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("content, key", [
    ({"lr": "0.1"}, "lr"),
    ({"dropout": None}, "dropout"),
    ({"seed": 1.5}, "seed"),
    ({"max_epochs": 1.5}, "max_epochs"),
    ({"patience": True}, "patience"),
    ({"self_loops": "no"}, "self_loops"),
    ({"epsilons": 0}, "epsilons"),
    ({"lowercase": "no"}, "lowercase"),
    ({"pattern_spec": {"2": 1.5}}, "'2:1.5'"),
    ({"semiring": ["max-sum"]}, "semiring"),  # unhashable: once a TypeError
])
def test_config_file_values_of_a_wrong_type_are_clean_errors(tmp_path, capsys, content, key):
    paths = write_micro_files(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(content))
    rc = cli.main(["train", "--train", paths["train"], "--dev", paths["dev"],
                   "--embeddings", paths["embeddings"], "--out", str(tmp_path / "m.json"),
                   "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and key in err and "Traceback" not in err


def test_ablation_flags_reach_the_saved_model(tmp_path):
    paths = write_micro_files(tmp_path)
    out = str(tmp_path / "m.json")
    rc = cli.main(train_args(paths, out, ["--no-self-loops", "--no-epsilon",
                                          "--semiring", "max-sum",
                                          "--encoder", "identity"]))
    assert rc == 0
    model = load_model(out)
    assert not model.config.self_loops
    assert not model.config.epsilons
    assert model.config.cnn_mode


def test_bad_pattern_spec_is_a_clean_error(tmp_path, capsys):
    paths = write_micro_files(tmp_path)
    rc = cli.main(["train", "--train", paths["train"], "--dev", paths["dev"],
                   "--embeddings", paths["embeddings"],
                   "--out", str(tmp_path / "m.json"), "--patterns", "0:5"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["train"])
    assert exc.value.code == 2


def test_malformed_json_config_is_a_clean_error(tmp_path, capsys):
    paths = write_micro_files(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"lr": ')
    rc = cli.main(train_args(paths, str(tmp_path / "m.json"), ["--config", str(cfg)]))
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_a_key_error_inside_a_command_propagates(workspace, monkeypatch):
    # no user input reaches a KeyError, so one is a bug and keeps its traceback
    def broken(args):
        raise KeyError("x")
    monkeypatch.setattr(cli, "cmd_eval", broken)
    with pytest.raises(KeyError):
        cli.main(["eval", "--model", workspace["model"], "--data", workspace["test"],
                  "--embeddings", workspace["embeddings"]])


def test_train_loads_a_vector_whose_sum_of_squares_overflows(tmp_path):
    paths = write_micro_files(tmp_path)
    with open(paths["embeddings"], "a", encoding="utf-8") as fh:
        fh.write("a 1e200 1.0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(train_args(paths, str(tmp_path / "m.json"))) == 0


# -- eval ----------------------------------------------------------------------

def test_eval_prints_accuracy_and_writes_metrics(workspace, capsys):
    rc = cli.main(["eval", "--model", workspace["model"],
                   "--data", workspace["test"],
                   "--embeddings", workspace["embeddings"]])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("accuracy 0.") or out.startswith("accuracy 1.")
    metrics = json.loads(open(workspace["test"] + ".metrics.json").read())
    assert metrics["total"] == 10
    assert 0.0 <= metrics["accuracy"] <= 1.0
    assert set(metrics["per_class"]) == {"0", "1"}


def test_eval_metrics_out_override(workspace, tmp_path, capsys):
    target = str(tmp_path / "metrics.json")
    rc = cli.main(["eval", "--model", workspace["model"],
                   "--data", workspace["dev"],
                   "--embeddings", workspace["embeddings"],
                   "--metrics-out", target])
    assert rc == 0
    assert json.loads(open(target).read())["total"] == 10


def test_eval_rejects_a_label_the_model_has_no_class_for(workspace, tmp_path, capsys):
    data = tmp_path / "test.tsv"
    data.write_text(open(workspace["test"]).read() + "7\tpos f0\n")
    metrics = tmp_path / "metrics.json"
    rc = cli.main(["eval", "--model", workspace["model"], "--data", str(data),
                   "--embeddings", workspace["embeddings"], "--metrics-out", str(metrics)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: 1 evaluation document(s) have a label the model has no "
                          "class for: document 10 has label 7, and the model has num_classes 2")
    assert not metrics.exists()


@pytest.mark.parametrize("text", ["[1, 2]", '{"format": "sopa-model-v1", "config": []}'])
def test_eval_rejects_a_model_file_of_wrong_json_types(workspace, tmp_path, capsys, text):
    bad = tmp_path / "model.json"
    bad.write_text(text)
    rc = cli.main(["eval", "--model", str(bad), "--data", workspace["dev"],
                   "--embeddings", workspace["embeddings"]])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("change", [
    {"semiring": "foo"}, {"encoder": "tanh"}, {"self_loops": "yes"},
    {"pattern_spec": {"2.0": 2}}, {"pattern_spec": {"8": 1}},
], ids=["semiring", "encoder", "self_loops", "spec_key", "length_8"])
def test_eval_rejects_a_model_config_the_cli_would_not_accept(workspace, tmp_path, capsys,
                                                               change):
    payload = json.loads(open(workspace["model"]).read())
    payload["config"].update(change)
    if change == {"pattern_spec": {"8": 1}}:  # a whole model but for the length bound
        payload["patterns"] = [{name: [rows[0]] * 8 for name, rows in
                                payload["patterns"][0].items()}]
        payload["mlp"]["w1"] = payload["mlp"]["w1"][:1]
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(payload))
    rc = cli.main(["eval", "--model", str(bad), "--data", workspace["dev"],
                   "--embeddings", workspace["embeddings"],
                   "--metrics-out", str(tmp_path / "metrics.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {bad}: 'config': ")
    assert not (tmp_path / "metrics.json").exists()


@pytest.mark.parametrize("command, flag, value", [
    ("train", "--patterns", "8:1"),
    ("train", "--config", {"patterns": "8:1"}),
    ("train", "--config", {"pattern_spec": {"8": 1}}),
    ("search", "--space", {"pattern_spec": ["8:1"]}),
])
def test_pattern_length_bound_holds_for_every_cli_source(tmp_path, capsys, command, flag,
                                                         value):
    paths = write_micro_files(tmp_path)
    if isinstance(value, dict):
        (tmp_path / "values.json").write_text(json.dumps(value))
        value = str(tmp_path / "values.json")
    rc = cli.main([command, "--train", paths["train"], "--dev", paths["dev"],
                   "--embeddings", paths["embeddings"], "--out", str(tmp_path / "out.json"),
                   flag, value])
    captured = capsys.readouterr()
    assert rc == 1
    assert "exceeds the maximum 7" in captured.err
    assert "best dev accuracy" not in captured.out
    assert list(tmp_path.glob("out.json*")) == []


# -- explain -------------------------------------------------------------------

def test_explain_patterns_writes_both_formats(workspace, tmp_path, capsys):
    prefix = str(tmp_path / "report")
    rc = cli.main(["explain", "--model", workspace["model"],
                   "--data", workspace["dev"],
                   "--embeddings", workspace["embeddings"],
                   "--mode", "patterns", "--k", "3", "--out", prefix])
    assert rc == 0
    out = capsys.readouterr().out
    assert "pattern 0 (length 2)" in out
    assert "pattern 1 (length 2)" in out
    assert open(prefix + ".txt").read() == out
    records = [json.loads(l) for l in open(prefix + ".jsonl")]
    headers = [r for r in records if r["type"] == "pattern_report"]
    assert [h["pattern_index"] for h in headers] == [0, 1]
    phrases = [r for r in records if r["type"] == "phrase"]
    assert all(len(p["steps"]) >= 2 for p in phrases)


def test_explain_doc_mode(workspace, capsys):
    rc = cli.main(["explain", "--model", workspace["model"],
                   "--data", workspace["dev"],
                   "--embeddings", workspace["embeddings"],
                   "--mode", "doc", "--doc-id", "0", "--top-n", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("doc 0: predicted class ")
    assert "pattern" in out


def test_explain_doc_mode_validation(workspace, capsys):
    rc = cli.main(["explain", "--model", workspace["model"],
                   "--data", workspace["dev"],
                   "--embeddings", workspace["embeddings"], "--mode", "doc"])
    assert rc == 1
    assert "requires --doc-id" in capsys.readouterr().err
    rc = cli.main(["explain", "--model", workspace["model"],
                   "--data", workspace["dev"],
                   "--embeddings", workspace["embeddings"],
                   "--mode", "doc", "--doc-id", "99"])
    assert rc == 1
    assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize("flags, error", [
    (["--mode", "patterns", "--k", "0"], "--k must be at least 1, got 0"),
    (["--mode", "patterns", "--k", "-2"], "--k must be at least 1, got -2"),
    (["--mode", "doc", "--doc-id", "0", "--top-n", "-2"], "--top-n must be at least 0, got -2"),
    (["--mode", "doc", "--doc-id", "0", "--top-n", "0"], None),
])
def test_explain_rejects_k_below_one_and_top_n_below_zero(workspace, capsys, flags, error):
    rc = cli.main(["explain", "--model", workspace["model"], "--data", workspace["dev"],
                   "--embeddings", workspace["embeddings"], *flags])
    captured = capsys.readouterr()
    if error is None:
        assert rc == 0 and captured.out.startswith("doc 0: predicted class ")
    else:
        assert rc == 1
        assert captured.err.startswith(f"error: {error}")
        assert captured.out == ""


def test_explain_doc_mode_rejects_a_document_too_short_to_score(tmp_path, capsys):
    paths = write_micro_files(tmp_path)
    out = str(tmp_path / "m.json")
    assert cli.main(train_args(paths, out, ["--semiring", "max-sum",
                                            "--patterns", "4:1"])) == 0
    short = tmp_path / "short.tsv"
    short.write_text("1\tpos\n")
    capsys.readouterr()
    rc = cli.main(["explain", "--model", out, "--data", str(short),
                   "--embeddings", paths["embeddings"], "--mode", "doc", "--doc-id", "0"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "fewer than 2 tokens" in captured.err
    assert "p=nan" not in captured.out


def test_explain_rejects_sum_product_models(tmp_path, capsys):
    paths = write_micro_files(tmp_path)
    out = str(tmp_path / "m.json")
    assert cli.main(train_args(paths, out, ["--semiring", "sum-product"])) == 0
    rc = cli.main(["explain", "--model", out, "--data", paths["dev"],
                   "--embeddings", paths["embeddings"], "--mode", "patterns"])
    assert rc == 1
    assert "max semiring" in capsys.readouterr().err


# -- search --------------------------------------------------------------------

def test_search_runs_iterations_and_writes_best(tmp_path, capsys):
    paths = write_micro_files(tmp_path)
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"lr": [0.01, 0.005]}))
    out = str(tmp_path / "best.json")
    rc = cli.main(["search", "--train", paths["train"], "--dev", paths["dev"],
                   "--embeddings", paths["embeddings"], "--space", str(space),
                   "--iterations", "2", "--out", out,
                   "--patterns", "1:1", "--mlp-hidden", "3",
                   "--batch-size", "8", "--max-epochs", "2"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "iteration 1: best dev accuracy" in stdout
    assert "iteration 2: best dev accuracy" in stdout
    assert f"best config written to {out}" in stdout
    best = json.loads(open(out).read())
    assert best["lr"] in (0.01, 0.005)
    rows = [json.loads(l) for l in open(out + ".results.jsonl")]
    assert [r["iteration"] for r in rows] == [1, 2]


def test_search_output_is_a_config_that_train_resolves_alike(tmp_path, capsys):
    paths = write_micro_files(tmp_path)
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"lr": [0.01, 0.005], "pattern_spec": ["2:1", "1:2"]}))
    out = str(tmp_path / "best.json")
    rc = cli.main(["search", "--train", paths["train"], "--dev", paths["dev"],
                   "--embeddings", paths["embeddings"], "--space", str(space),
                   "--iterations", "2", "--out", out, "--mlp-hidden", "3",
                   "--batch-size", "8", "--max-epochs", "2", "--seed", "4",
                   "--no-epsilon"])
    assert rc == 0
    best = json.loads(open(out).read())
    expected = TrainConfig(**dict(best, pattern_spec={
        int(k): v for k, v in best["pattern_spec"].items()}))
    assert expected.pattern_spec in ({2: 1}, {1: 2}) and not expected.epsilons
    args = cli.build_parser().parse_args(["train", "--train", paths["train"],
                                          "--dev", paths["dev"], "--embeddings",
                                          paths["embeddings"], "--out", "m.json",
                                          "--config", out])
    assert cli._resolve(args)[0] == expected


def test_search_samples_pattern_spec_maps_as_search_out_writes_them(tmp_path, capsys):
    paths = write_micro_files(tmp_path)
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"pattern_spec": [{"2": 1}, {"1": 2}]}))
    out = str(tmp_path / "best.json")
    rc = cli.main(["search", "--train", paths["train"], "--dev", paths["dev"],
                   "--embeddings", paths["embeddings"], "--space", str(space),
                   "--iterations", "2", "--out", out, "--mlp-hidden", "3",
                   "--batch-size", "8", "--max-epochs", "2"])
    assert rc == 0
    rows = [json.loads(line) for line in open(out + ".results.jsonl")]
    assert [r["config"]["pattern_spec"] in ({"2": 1}, {"1": 2}) for r in rows] == [True, True]


def test_search_empty_space_is_an_error(tmp_path, capsys):
    paths = write_micro_files(tmp_path)
    space = tmp_path / "space.json"
    space.write_text("{}")
    rc = cli.main(["search", "--train", paths["train"], "--dev", paths["dev"],
                   "--embeddings", paths["embeddings"], "--space", str(space),
                   "--iterations", "1", "--out", str(tmp_path / "best.json"),
                   "--patterns", "1:1", "--max-epochs", "1"])
    assert rc == 1
    assert "empty search space" in capsys.readouterr().err


@pytest.mark.parametrize("space, message", [
    ([{"lr": [0.01]}], "the search space must map hyperparameter names to candidate "
                       "lists, not list"),
    ({"lr": 0.01}, "no candidate values for 'lr'; expected a non-empty list, not 0.01"),
    ({"lr": [0.01, "x"], "mlp_hidden": [2, 3]},
     "search space 'lr': candidate 'x': lr must be of type float, got 'x'"),
], ids=["list", "scalar", "bad_candidate"])
def test_search_checks_the_whole_space_before_training(tmp_path, capsys, monkeypatch,
                                                       space, message):
    paths = write_micro_files(tmp_path)
    (tmp_path / "space.json").write_text(json.dumps(space))
    monkeypatch.setattr(classifier, "train", lambda *args: pytest.fail("a model trained"))
    rc = cli.main(["search", "--train", paths["train"], "--dev", paths["dev"],
                   "--embeddings", paths["embeddings"], "--space", str(tmp_path / "space.json"),
                   "--iterations", "4", "--out", str(tmp_path / "best.json")] + FAST)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.endswith(f"error: {message}\n") and "Traceback" not in err
    assert list(tmp_path.glob("best.json*")) == []


# -- oracle-check ----------------------------------------------------------------

def test_oracle_check_passes_on_trained_model(workspace, capsys):
    rc = cli.main(["oracle-check", "--model", workspace["model"],
                   "--docs", workspace["dev"],
                   "--embeddings", workspace["embeddings"],
                   "--grad-checks", "12"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "recurrence vs brute force: 10 docs x 2 patterns" in out
    assert "gradient check:" in out and "max relative error" in out
    assert out.rstrip().endswith("PASS")


@pytest.mark.parametrize("checks", ["0", "-3"])
def test_oracle_check_rejects_fewer_than_one_gradient_check(workspace, capsys, checks):
    rc = cli.main(["oracle-check", "--model", workspace["model"],
                   "--docs", workspace["dev"], "--embeddings", workspace["embeddings"],
                   "--grad-checks", checks])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: --grad-checks must be at least 1")
    assert "PASS" not in captured.out


def test_oracle_check_reports_cnn_equivalence(tmp_path, capsys):
    paths = write_micro_files(tmp_path)
    out = str(tmp_path / "m.json")
    assert cli.main(train_args(paths, out, ["--no-self-loops", "--no-epsilon",
                                            "--semiring", "max-sum",
                                            "--encoder", "identity"])) == 0
    rc = cli.main(["oracle-check", "--model", out, "--docs", paths["dev"],
                   "--embeddings", paths["embeddings"], "--grad-checks", "8"])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "CNN-mode equivalence" in captured
    assert captured.rstrip().endswith("PASS")


def test_oracle_check_catches_a_broken_oracle(workspace, capsys, monkeypatch):
    # simulate an engine/oracle rift by corrupting the oracle's answers
    real = cli.brute_force_doc_score
    monkeypatch.setattr(cli, "brute_force_doc_score",
                        lambda *a, **k: real(*a, **k) + 0.25)
    rc = cli.main(["oracle-check", "--model", workspace["model"],
                   "--docs", workspace["dev"],
                   "--embeddings", workspace["embeddings"],
                   "--grad-checks", "4"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out


@pytest.mark.parametrize("corrupt", [lambda score: score + 0.25, lambda score: float("nan")])
def test_oracle_check_catches_a_broken_cnn_oracle(tmp_path, capsys, monkeypatch, corrupt):
    # a deviation past the tolerance fails the check, and so does a NaN one
    paths = write_micro_files(tmp_path)
    out = str(tmp_path / "m.json")
    assert cli.main(train_args(paths, out, ["--no-self-loops", "--no-epsilon",
                                            "--semiring", "max-sum",
                                            "--encoder", "identity"])) == 0
    real = cli.explicit_cnn_score
    monkeypatch.setattr(cli, "explicit_cnn_score", lambda *a: corrupt(real(*a)))
    rc = cli.main(["oracle-check", "--model", out, "--docs", paths["dev"],
                   "--embeddings", paths["embeddings"], "--grad-checks", "4"])
    assert rc == 1
    assert "FAIL (20 check(s) failed)" in capsys.readouterr().out


def test_oracle_check_reports_a_nan_deviation_as_the_worst(tmp_path, capsys, monkeypatch):
    # every CNN deviation is NaN: the printed worst is NaN, not a 0.0 that
    # contradicts the verdict, while the brute-force line still prints 0
    paths = write_micro_files(tmp_path)
    out = str(tmp_path / "m.json")
    assert cli.main(train_args(paths, out, ["--no-self-loops", "--no-epsilon",
                                            "--semiring", "max-sum",
                                            "--encoder", "identity"])) == 0
    monkeypatch.setattr(cli, "explicit_cnn_score", lambda *a: float("nan"))
    rc = cli.main(["oracle-check", "--model", out, "--docs", paths["dev"],
                   "--embeddings", paths["embeddings"], "--grad-checks", "4"])
    printed = capsys.readouterr().out
    assert rc == 1
    assert "CNN-mode equivalence: worst deviation nan\n" in printed
    assert "patterns, worst deviation 0.000e+00\n" in printed
    assert "FAIL (20 check(s) failed)" in printed


def test_oracle_check_rejects_a_label_the_model_has_no_class_for(workspace, tmp_path, capsys):
    docs = tmp_path / "docs.tsv"
    docs.write_text("1\tpos f0\n7\tneg f1\n")
    rc = cli.main(["oracle-check", "--model", workspace["model"], "--docs", str(docs),
                   "--embeddings", workspace["embeddings"], "--grad-checks", "4"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: 1 oracle-check document(s) have a label the model "
                                   "has no class for: document 1 has label 7, and the model "
                                   "has num_classes 2")
    # refused before any document is scored
    assert "recurrence vs brute force" not in captured.out


def test_oracle_check_rejects_corrupt_model_file(workspace, tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"format": "sopa-model-v1", "config": ')
    rc = cli.main(["oracle-check", "--model", str(bad),
                   "--docs", workspace["dev"],
                   "--embeddings", workspace["embeddings"]])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_oracle_check_skips_long_docs_with_warning(workspace, tmp_path, capsys):
    mixed = tmp_path / "mixed.tsv"
    mixed.write_text("1\tpos f0 f1\n0\t" + " ".join(["neg"] * 9) + "\n")
    rc = cli.main(["oracle-check", "--model", workspace["model"],
                   "--docs", str(mixed),
                   "--embeddings", workspace["embeddings"],
                   "--grad-checks", "4"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "warning: doc 1 has 9 tokens" in captured.err
    assert "skipped 1 over-long documents" in captured.err


def test_oracle_check_fails_on_non_finite_loss(tmp_path, capsys):
    # a 1-token doc cannot match a length-2 pattern without epsilons, so the
    # max-sum feature is -inf and the gradient check must fail, not pass
    paths = write_micro_files(tmp_path)
    out = str(tmp_path / "m.json")
    assert cli.main(train_args(paths, out, ["--semiring", "max-sum",
                                            "--encoder", "identity",
                                            "--no-epsilon"])) == 0
    docs = tmp_path / "docs.tsv"
    docs.write_text("1\tpos\n0\tneg f0\n")
    with np.errstate(invalid="ignore"):
        rc = cli.main(["oracle-check", "--model", out, "--docs", str(docs),
                       "--embeddings", paths["embeddings"],
                       "--grad-checks", "4"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_oracle_check_requires_some_short_doc(workspace, tmp_path, capsys):
    long_only = tmp_path / "long.tsv"
    long_only.write_text("1\t" + " ".join(["pos"] * 9) + "\n")
    rc = cli.main(["oracle-check", "--model", workspace["model"],
                   "--docs", str(long_only),
                   "--embeddings", workspace["embeddings"]])
    assert rc == 1
    assert "no documents short enough" in capsys.readouterr().err
