import csv
import gc
import json
import os
import re
import subprocess
import sys
import weakref

import numpy as np
import pytest

from decohd import cli, encoding, experiment
from decohd.budget import BudgetQuery
from decohd.data import Dataset, SyntheticSpec, load_csv, make_synthetic, save_csv
from decohd.experiment import ExperimentConfig, ModelSpec, write_csv
from decohd.faults import ROBUSTNESS_COLUMNS, NoiseConfig, robustness_sweep
from decohd.model import accuracy
from decohd.ops import generate_matrix
from decohd.precision import quantize_array, quantize_model
from decohd.serialize import load_arrays, load_classifier, save_arrays, save_classifier
from decohd.training import TrainConfig
from tests.conftest import small_classifier


@pytest.fixture
def saved_decohd(tmp_path, rng):
    """A tiny decohd container and a test CSV that fits it."""
    clf, _ = small_classifier("decohd", rng)
    model_path = tmp_path / "model.npz"
    csv_path = tmp_path / "test.csv"
    save_classifier(model_path, clf)
    save_csv(str(csv_path), make_synthetic(3, 6, 20, 3.0, seed=11)[1])
    return str(model_path), str(csv_path)


@pytest.fixture
def synthetic_csvs(tmp_path):
    train_ds, test_ds = make_synthetic(3, 6, 20, 3.0, seed=11)
    paths = str(tmp_path / "train.csv"), str(tmp_path / "test.csv")
    save_csv(paths[0], train_ds)
    save_csv(paths[1], test_ds)
    return paths


def train_args(csvs, tmp_path, *extra):
    return ["train", "--train-csv", csvs[0], "--test-csv", csvs[1], "--output", str(tmp_path / "m.npz"),
            "--dim", "64", "--latent-dim", "8", "--channels", "2", "--epochs", "3", *extra]


def printed(name: str, out: str) -> str:
    """The value a command printed as ``name=value``."""
    return re.search(rf"(?<!\w){name}=(\S+)", out).group(1)


@pytest.mark.parametrize("model", ["decohd", "prototype"])
def test_eval_prints_the_accuracy_train_printed(synthetic_csvs, tmp_path, capsys, monkeypatch, model):
    assert cli.main(train_args(synthetic_csvs, tmp_path, "--model", model, "--refine-epochs", "2")) == 0
    trained = printed("test_accuracy", capsys.readouterr().out)
    formats = []  # eval rounds as the sweep does, at fp32 too

    def counting(scorer, fmt):
        formats.append(fmt.name)
        return quantize_model(scorer, fmt)

    monkeypatch.setattr(cli, "quantize_model", counting)
    assert cli.main(["eval", "--model", str(tmp_path / "m.npz"), "--test-csv", synthetic_csvs[1]]) == 0
    out = capsys.readouterr().out
    assert printed("accuracy", out) == trained and formats == ["fp32"]
    assert f"model={model} " in out


def test_train_removes_the_history_an_earlier_model_left_at_its_output(synthetic_csvs, tmp_path, capsys):
    history = tmp_path / "m_history.csv"
    for model, written in [("decohd", True), ("prototype", False), ("decohd", True)]:
        assert cli.main(train_args(synthetic_csvs, tmp_path, "--model", model)) == 0
        assert history.is_file() == written
        assert (f"history written to {history}" in capsys.readouterr().out) == written


def save_trained(csvs, tmp_path, name: str, *extra) -> str:
    """A container trained on *csvs*: a D=64 prototype table of encoder seed 4, unless *extra* says otherwise."""
    path = str(tmp_path / f"{name}.npz")
    assert cli.main(["train", "--train-csv", csvs[0], "--test-csv", csvs[1], "--output", path,
                     "--model", "prototype", "--dim", "64", "--seed", "4", *extra]) == 0
    return path


def read_rows(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def robustness_argv(models, test_csv, output, p_grid="0", trials="1") -> list[str]:
    return ["robustness", "--models", *models, "--test-csv", test_csv, "--p-grid", p_grid, "--trials", trials,
            "--seed", "7", "--output", str(output)]


@pytest.mark.parametrize("other", ["same", "encoder", "standardizer", "dim", "classes"])
def test_robustness_scores_each_model_against_its_own_encodings(synthetic_csvs, tmp_path, capsys, other):
    first = save_trained(synthetic_csvs, tmp_path, "first")
    csvs = synthetic_csvs
    extra = {"encoder": ["--seed", "5"], "dim": ["--dim", "128"]}.get(other, [])  # the same data otherwise
    if other == "standardizer":
        csvs = (str(tmp_path / "other_train.csv"), synthetic_csvs[1])
        save_csv(csvs[0], make_synthetic(3, 6, 20, 3.0, seed=12)[0])
    if other == "classes":  # the same features, labels folded onto two classes
        csvs = (str(tmp_path / "two_train.csv"), str(tmp_path / "two_test.csv"))
        for path, ds in zip(csvs, make_synthetic(3, 6, 20, 3.0, seed=11)):
            save_csv(path, Dataset(ds.features, ds.labels % 2, 2))
    second = save_trained(csvs, tmp_path, "second", *extra)
    capsys.readouterr()
    output = tmp_path / "r.csv"
    code = cli.main(robustness_argv([first, second], synthetic_csvs[1], output, "0,1e-2"))
    err = capsys.readouterr().err
    if other == "classes":  # read against the second model's 2 classes, as eval reads it
        line = int(np.argmax(load_csv(synthetic_csvs[1]).labels == 2)) + 1
        assert code == 2 and err == f"data error: {synthetic_csvs[1]}: line {line}: label 2 out of range [0, 2)\n"
        assert not output.exists()
        return
    assert code == 0 and err == ""
    rows = read_rows(output)
    assert rows[0] == list(ROBUSTNESS_COLUMNS)
    dim = "128" if other == "dim" else "64"
    assert [row[:4] for row in rows[1:]] == [["first", "64", "0", "0"], ["first", "64", "0.01", "0"],
                                             ["second", dim, "0", "0"], ["second", dim, "0.01", "0"]]
    for model in (first, second):  # each model's rows are those of a run of that model alone
        alone = tmp_path / "alone.csv"
        assert cli.main(robustness_argv([model], synthetic_csvs[1], alone, "0,1e-2")) == 0
        stem = os.path.splitext(os.path.basename(model))[0]
        assert read_rows(alone)[1:] == [row for row in rows[1:] if row[0] == stem]


def test_robustness_of_models_that_encode_alike_is_one_sweep_over_one_encoding(synthetic_csvs, tmp_path):
    models = [save_trained(synthetic_csvs, tmp_path, "table"),
              save_trained(synthetic_csvs, tmp_path, "deco", "--model", "decohd", "--latent-dim", "8",
                           "--channels", "2", "--epochs", "3")]
    output = tmp_path / "r.csv"
    assert cli.main(robustness_argv(models, synthetic_csvs[1], output, "0,1e-3,1e-2", "2")) == 0
    table, deco = (load_classifier(path) for path in models)
    test_ds = load_csv(synthetic_csvs[1])
    h = table.encoder.encode_batch(test_ds.features, table.standardizer)
    rows = robustness_sweep({"table": table.scorer, "deco": deco.scorer}, h, test_ds.labels, [0.0, 1e-3, 1e-2], 2, 7)
    expected = tmp_path / "expected.csv"
    write_csv(expected, ROBUSTNESS_COLUMNS, rows)
    assert output.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("train", [{"eval_every": 0}, {"weight_decay": -0.5},
                                   {"noise": {"p_grid": [2.0]}}, {"noise": {"p_grid": [0.0], "trials": 0}},
                                   {"encoder_kind": "gaussian"},  # an unknown key, as old manifests hold
                                   {"models": [{"kind": "onlinehd", "epochs": -3}]},
                                   {"models": [{"kind": "onlinehd", "learning_rate": -0.1}]},
                                   {"models": [{"kind": "sparsehd", "budget": 0.05}]},
                                   {"learning_rate": float("nan")}, {"weight_decay": float("inf")},
                                   {"models": [{"kind": "onlinehd", "learning_rate": float("nan")}]},
                                   {"data": {"synthetic": {"num_classes": 3, "separation": float("nan")}}},
                                   {"models": ["decohd"]}, {"models": [1]}, {"models": {"kind": "decohd"}},
                                   {"data": "x"}, {"data": {"synthetic": 3}}, {"noise": 5}, {"train": 3},
                                   {"dims": "64"}, {"dims": [64.7]}, {"dims": []}, {"precisions": []},
                                   {"models": []}, {"models": [{"kind": "decohd", "channels": "22"}]},
                                   {"models": [{"kind": "decohd", "channels": [True, 2]}]},
                                   {"models": [{"kind": "decohd", "latent_dim": 4.5}]},
                                   {"models": [{"kind": "onlinehd", "epochs": 1.5}]},
                                   {"root_seed": 1.5}, {"root_seed": "x"}, {"epochs": True}, {"epochs": 1.5},
                                   {"eval_every": 1.5}, {"batch_size": 2.5},
                                   {"noise": {"p_grid": [0.0], "trials": 1.5}},
                                   {"data": {"synthetic": {"samples_per_class": 10.5}}},
                                   {"data": {"synthetic": {"num_classes": 3.5}}},
                                   {"data": {"train_csv": 3, "test_csv": "test.csv"}},
                                   {"data": {"synthetic": {"num_classes": 1}}},
                                   {"data": {"synthetic": {"num_features": 0}}},
                                   {"data": {"synthetic": {"samples_per_class": 0}}},
                                   {"dims": [32, 32]}, {"precisions": ["fp32", "fp32"]},
                                   {"noise": {"p_grid": [0, 0]}}],
                         ids=["eval_every", "weight_decay", "noise-p", "noise-trials", "encoder-kind",
                              "refine-epochs", "refine-learning-rate", "sparse-budget-keeps-none",
                              "learning-rate-nan", "weight-decay-inf", "refine-learning-rate-nan",
                              "separation-nan", "model-a-string", "model-a-number", "models-an-object",
                              "data-a-string", "synthetic-a-number", "noise-a-number", "train-a-number",
                              "dims-a-string", "dims-a-float", "dims-empty", "precisions-empty", "models-empty",
                              "channels-a-string", "channels-a-bool", "latent-dim-a-float",
                              "refine-epochs-a-float", "root-seed-a-float", "root-seed-a-string",
                              "epochs-a-bool", "epochs-a-float", "eval-every-a-float", "batch-size-a-float",
                              "trials-a-float", "samples-per-class-a-float", "num-classes-a-float",
                              "train-csv-a-number", "one-class", "no-features", "no-samples-per-class",
                              "dims-repeated", "precisions-repeated", "p-grid-repeated"])
def test_invalid_train_config_of_a_sweep_exits_1(tmp_path, capsys, train):
    # Top-level keys replace the config's own; any other key goes into its train config.
    top = {k: v for k, v in train.items()
           if k in ("noise", "encoder_kind", "models", "data", "train", "dims", "precisions", "root_seed")}
    config = {
        "data": {"synthetic": {"num_classes": 3, "num_features": 6, "samples_per_class": 10}},
        "models": [{"kind": "decohd", "channels": [2], "latent_dim": 4}],
        "train": {"epochs": 1, **{k: v for k, v in train.items() if k not in top}},
        "dims": [16],
        **top,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["sweep", "--config", str(path), "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert not (tmp_path / "out" / "models").exists()  # rejected before any model trains


SYNTHETIC = {"data": {"synthetic": {}}}


@pytest.mark.parametrize("config, message", [
    ({"data": {"synthetic": {"num_classes": 3.5}}}, "data.synthetic.num_classes: expected an integer, got float"),
    ({**SYNTHETIC, "noise": {"p_grid": [0.1], "trials": 0}}, "noise: need trials >= 1, got 0"),
    ({**SYNTHETIC, "train": {"batch_size": 0}}, "train: batch sizes must be >= 1"),
    ({**SYNTHETIC, "models": [{"kind": "decohd", "channels": [2, True]}]},
     "models[0].channels[1]: expected an integer, got bool"),
    ({}, "data: give either train_csv+test_csv or synthetic, not both"),
], ids=["nested-type", "noise-range", "train-range", "list-item-type", "no-data"])
def test_a_config_error_names_its_key_once(tmp_path, capsys, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["sweep", "--config", str(path), "--output-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("extra", [["--epochs", "-1"], ["--dim", "0"], ["--channels", "0,2"],
                                   ["--model", "sparsehd", "--sparse-budget", "0"],
                                   ["--model", "sparsehd", "--sparse-budget", "1e-9"],
                                   ["--model", "sparsehd", "--sparse-budget", "0.0156"],
                                   ["--weight-decay", "-0.5"], ["--model", "onlinehd", "--refine-epochs", "-3"],
                                   ["--learning-rate", "nan"], ["--learning-rate", "inf"],
                                   ["--weight-decay", "nan"], ["--weight-decay", "inf"]])
def test_invalid_option_values_exit_1_as_config_errors(synthetic_csvs, tmp_path, capsys, extra):
    # At --dim 64 a sparse budget below 1/64 keeps no dimension.
    assert cli.main(train_args(synthetic_csvs, tmp_path, *extra)) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert not (tmp_path / "m.npz").exists()


def test_a_decohd_shape_prints_model_configs_rule(synthetic_csvs, tmp_path, capsys):
    assert cli.main(train_args(synthetic_csvs, tmp_path, "--channels", "0,2")) == 1
    assert capsys.readouterr() == ("", "config error: models[0]: every layer needs at least one channel\n")


BUDGET = ["budget", "--m", "0.5", "--classes", "3", "--dim", "64"]


@pytest.mark.parametrize("argv", [["budget", "--m", "0", "--classes", "3", "--dim", "64"],
                                  ["synth", "--classes", "1"],
                                  BUDGET + ["--d", "0"], BUDGET + ["--d", "-5"], BUDGET + ["--d", ","],
                                  BUDGET + ["--layers", "0"], BUDGET + ["--layers", "-1"],
                                  BUDGET + ["--layers", "1,0"], BUDGET + ["--top", "-1"],
                                  ["synth", "--separation", "nan"], ["synth", "--separation", "inf"],
                                  BUDGET + ["--layers", "1,1"], BUDGET + ["--d", "64,64"]],
                         ids=["budget", "synth", "budget-d0", "budget-d-5", "budget-d-empty", "budget-layers0",
                              "budget-layers-1", "budget-layers1-0", "budget-top-1",
                              "synth-separation-nan", "synth-separation-inf",
                              "budget-layers-repeated", "budget-d-repeated"])
def test_invalid_values_of_other_subcommands_exit_1(argv, tmp_path, capsys):
    outputs = ["--train-out", str(tmp_path / "a.csv"), "--test-out", str(tmp_path / "b.csv")]
    assert cli.main(argv + (outputs if argv[0] == "synth" else [])) == 1
    out, err = capsys.readouterr()
    assert err.startswith("config error: ") and "Traceback" not in err
    assert out == ""  # refused before any row is printed


@pytest.mark.parametrize("argv, message", [
    (["budget", "--m", "0", "--classes", "3", "--dim", "64"], "budget: m_target must be positive"),
    (["synth", "--classes", "1"], "synth: need num_classes >= 2, num_features >= 1 and samples_per_class >= 1"),
    (["budget", "--m", "0.5", "--classes", "1", "--dim", "64"], "budget: num_classes must be >= 2"),
], ids=["budget", "synth", "budget-classes1"])
def test_a_refused_option_value_prints_its_specs_rule(argv, message, tmp_path, capsys):
    outputs = ["--train-out", str(tmp_path / "a.csv"), "--test-out", str(tmp_path / "b.csv")]
    assert cli.main(argv + (outputs if argv[0] == "synth" else [])) == 1
    assert capsys.readouterr() == ("", f"config error: {message}\n")
    assert not list(tmp_path.iterdir())


def test_malformed_csv_exits_2_as_data_error(saved_decohd, tmp_path, capsys):
    model_path, _ = saved_decohd
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2,3,4,5,6,0\n1,2,3,0\n", encoding="utf-8")
    assert cli.main(["eval", "--model", model_path, "--test-csv", str(ragged)]) == 2
    assert "data error: " in capsys.readouterr().err


@pytest.mark.parametrize("spoil", ["not-utf8", "directory"])
def test_a_test_csv_that_cannot_be_read_as_text_exits_2_as_data_error(saved_decohd, tmp_path, capsys, spoil):
    model_path, _ = saved_decohd
    path = tmp_path / "latin1.csv"
    if spoil == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"1,2,3,4,5,6,0\n1,2,3,4,5,6\xe9,1\n")
    assert cli.main(["eval", "--model", model_path, "--test-csv", str(path)]) == 2
    reason = "not a regular file" if spoil == "directory" else "line 2: not UTF-8 text"
    assert capsys.readouterr().err == f"data error: {path}: {reason}\n"


def test_test_set_of_wrong_width_exits_2_as_data_error(saved_decohd, tmp_path, capsys):
    model_path, _ = saved_decohd
    narrow = str(tmp_path / "narrow.csv")
    save_csv(narrow, make_synthetic(3, 5, 4, 3.0, seed=1)[1])
    assert cli.main(["eval", "--model", model_path, "--test-csv", narrow]) == 2
    assert "5 feature columns, expected 6" in capsys.readouterr().err


def test_non_finite_test_feature_exits_2_as_data_error(saved_decohd, tmp_path, capsys):
    model_path, _ = saved_decohd
    spoiled = tmp_path / "nan.csv"
    spoiled.write_text("1,2,3,4,5,6,0\n1,nan,3,4,5,6,1\n", encoding="utf-8")
    assert cli.main(["eval", "--model", model_path, "--test-csv", str(spoiled)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "line 2: non-finite cell 'nan'" in err


@pytest.mark.parametrize("command", ["eval", "robustness"])
def test_label_the_model_lacks_exits_2_as_data_error(saved_decohd, tmp_path, capsys, command):
    model_path, _ = saved_decohd  # 3 classes
    beyond = tmp_path / "beyond.csv"
    beyond.write_text("1,2,3,4,5,6,0\n1,2,3,4,5,6,2\n6,5,4,3,2,1,4\n", encoding="utf-8")
    argv = (["eval", "--model", model_path, "--test-csv", str(beyond)] if command == "eval" else
            ["robustness", "--models", model_path, "--test-csv", str(beyond), "--p-grid", "0",
             "--trials", "1", "--output", str(tmp_path / "r.csv")])
    assert cli.main(argv) == 2
    assert "line 3: label 4 out of range [0, 3)" in capsys.readouterr().err


def test_eval_refuses_a_label_beyond_int64_by_its_value(tmp_path, capsys):
    csvs = (str(tmp_path / "two_train.csv"), str(tmp_path / "two_test.csv"))
    for path, ds in zip(csvs, make_synthetic(2, 6, 10, 3.0, seed=11)):
        save_csv(path, ds)
    model_path = save_trained(csvs, tmp_path, "two")
    huge = tmp_path / "huge.csv"
    huge.write_text("1,2,3,4,5,6,0\n1,2,3,4,5,6,1e20\n", encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["eval", "--model", model_path, "--test-csv", str(huge)]) == 2
    assert capsys.readouterr().err == f"data error: {huge}: line 2: label 100000000000000000000 out of range [0, 2)\n"


def test_robustness_refuses_models_that_share_a_file_stem(synthetic_csvs, tmp_path, capsys, monkeypatch):
    # Refused before any container is loaded, the one listed first included.
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    other = save_trained(synthetic_csvs, tmp_path, "other")
    first = save_trained(synthetic_csvs, tmp_path, "a/m")
    second = save_trained(synthetic_csvs, tmp_path, "b/m")
    loads = []
    monkeypatch.setattr(cli, "load_classifier", loads.append)
    capsys.readouterr()
    output = tmp_path / "r.csv"
    code = cli.main(["robustness", "--models", other, first, second, "--test-csv", synthetic_csvs[1],
                     "--p-grid", "0", "--trials", "1", "--output", str(output)])
    err = capsys.readouterr().err
    assert code == 1 and loads == []
    assert err.startswith("config error: ") and first in err and second in err
    assert not output.exists()


def test_robustness_holds_one_model_and_its_encodings_at_a_time(synthetic_csvs, tmp_path, monkeypatch):
    # Three models of three encoders: at each sweep no drawn matrix and
    # one set of test encodings are alive, and the rows are those of one
    # sweep per model in stem order.
    models = [save_trained(synthetic_csvs, tmp_path, name, "--seed", seed)
              for name, seed in (("c", "4"), ("a", "5"), ("b", "6"))]
    drawn, encoded, sweeps = [], [], []

    def draw(*args, **kwargs):
        matrix = generate_matrix(*args, **kwargs)
        drawn.append(weakref.ref(matrix))
        return matrix

    def encode(clf, path):
        test_ds, h = encode_test_set(clf, path)
        encoded.append(weakref.ref(h))
        return test_ds, h

    def sweep(scorers, *args):
        gc.collect()
        sweeps.append((*scorers, sum(ref() is not None for ref in drawn),
                       sum(ref() is not None for ref in encoded)))
        return robustness_sweep(scorers, *args)

    encode_test_set = cli._encode_test_set
    monkeypatch.setattr(encoding, "generate_matrix", draw)
    monkeypatch.setattr(cli, "_encode_test_set", encode)
    monkeypatch.setattr(cli, "robustness_sweep", sweep)
    output = tmp_path / "r.csv"
    assert cli.main(robustness_argv(models, synthetic_csvs[1], output, "0,1e-2")) == 0
    assert sweeps == [("a", 0, 1), ("b", 0, 1), ("c", 0, 1)]
    assert [row[0] for row in read_rows(output)[1:]] == ["a", "a", "b", "b", "c", "c"]


def test_train_with_a_wider_test_csv_exits_2(synthetic_csvs, tmp_path, capsys):
    wide = str(tmp_path / "wide.csv")
    save_csv(wide, make_synthetic(3, 7, 4, 3.0, seed=1)[1])
    assert cli.main(train_args((synthetic_csvs[0], wide), tmp_path)) == 2
    assert f"{wide}: 7 feature columns, expected 6" in capsys.readouterr().err


def test_sweep_with_a_wider_test_csv_exits_2_at_prepare_data(synthetic_csvs, tmp_path, capsys):
    wide = str(tmp_path / "wide.csv")
    save_csv(wide, make_synthetic(3, 7, 4, 3.0, seed=1)[1])
    config = {
        "data": {"train_csv": synthetic_csvs[0], "test_csv": wide},
        "models": [{"kind": "prototype"}],
        "dims": [16],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(path), "--output-dir", str(out)]) == 2
    assert f"{wide}: 7 feature columns, expected 6" in capsys.readouterr().err
    failure = json.loads((out / "failure_manifest.json").read_text(encoding="utf-8"))
    assert failure["stage"] == "prepare-data"


def spoiled_csv(tmp_path, shape: str) -> str:
    """A train CSV of one row, or of rows that all carry label 0 or all label 1."""
    train_ds = make_synthetic(3, 6, 20, 3.0, seed=11)[0]
    if shape == "one-row":
        ds = Dataset(train_ds.features[:1], train_ds.labels[:1], 3)
    elif shape == "labels-all-1":
        ds = Dataset(train_ds.features, 0 * train_ds.labels + 1, 2)
    else:
        ds = Dataset(train_ds.features, 0 * train_ds.labels, 1)
    path = str(tmp_path / f"{shape}.csv")
    save_csv(path, ds)
    return path


# A row count and the number of distinct labels: one row holds one class.
@pytest.mark.parametrize("shape, got", [("one-row", "1 and 1"), ("one-class", "60 and 1")],
                         ids=["one-row", "one-class"])
def test_a_train_csv_of_one_row_or_one_class_exits_2_and_saves_nothing(tmp_path, capsys, shape, got):
    path = spoiled_csv(tmp_path, shape)
    assert cli.main(train_args((path, path), tmp_path, "--model", "decohd")) == 2
    err = capsys.readouterr().err
    assert f"data error: {path}: training needs at least 2 rows and 2 classes, got {got}" in err
    assert not (tmp_path / "m.npz").exists()


@pytest.mark.parametrize("model", ["prototype", "decohd"])
def test_a_train_csv_whose_labels_are_all_1_exits_2_and_saves_nothing(tmp_path, capsys, model):
    # max(label) + 1 counts 2 classes here, but the rows hold one.
    path = spoiled_csv(tmp_path, "labels-all-1")
    assert cli.main(train_args((path, path), tmp_path, "--model", model)) == 2
    err = capsys.readouterr().err
    assert f"data error: {path}: training needs at least 2 rows and 2 classes, got 60 and 1" in err
    assert not (tmp_path / "m.npz").exists()


@pytest.mark.parametrize("shape", ["one-row", "one-class", "labels-all-1"])
def test_sweep_of_a_train_csv_of_one_row_or_one_class_exits_2_at_prepare_data(tmp_path, capsys, shape):
    path = spoiled_csv(tmp_path, shape)
    config = {
        "data": {"train_csv": path, "test_csv": path},
        "models": [{"kind": "decohd", "latent_dim": 8}],
        "train": {"epochs": 1},
        "dims": [16],
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(config_path), "--output-dir", str(out)]) == 2
    assert f"data error: {path}: " in capsys.readouterr().err
    failure = json.loads((out / "failure_manifest.json").read_text(encoding="utf-8"))
    assert failure["stage"] == "prepare-data"


# Labels whose classes [0, max + 1) are not all present: a gap, and one-based labels.
SPARSE_LABELS = {
    "gap": ("0.1,0\n0.2,0\n0.3,100000\n0.4,100000\n",
            "class 1 has no training rows (99999 missing of the 100001 classes [0, 100001))"),
    "one-based": ("0.1,1\n0.2,1\n0.3,2\n0.4,2\n", "class 0 has no training rows (1 missing of the 3 classes [0, 3))"),
}


@pytest.mark.parametrize("labels", sorted(SPARSE_LABELS))
def test_a_train_csv_with_a_class_of_no_rows_exits_2_from_train_and_sweep_and_saves_nothing(tmp_path, capsys,
                                                                                          labels):
    text, message = SPARSE_LABELS[labels]
    path = tmp_path / "train.csv"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["train", "--train-csv", str(path), "--test-csv", str(path), "--model", "prototype",
                     "--dim", "64", "--output", str(tmp_path / "m.npz")]) == 2
    assert capsys.readouterr().err == f"data error: {path}: {message}\n"
    config = {"data": {"train_csv": str(path), "test_csv": str(path)}, "models": [{"kind": "prototype"}],
              "dims": [16]}
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(tmp_path / "config.json"), "--output-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"data error: {path}: {message}\n"
    assert sorted(os.listdir(tmp_path)) == ["config.json", "out", "train.csv"]
    assert sorted(os.listdir(out)) == ["failure_manifest.json", "models"] and os.listdir(out / "models") == []
    assert json.loads((out / "failure_manifest.json").read_text(encoding="utf-8"))["stage"] == "prepare-data"


def test_divergence_exits_3(synthetic_csvs, tmp_path, capsys):
    assert cli.main(train_args(synthetic_csvs, tmp_path, "--epochs", "50", "--learning-rate", "1e18")) == 3
    assert "training diverged: " in capsys.readouterr().err


@pytest.mark.parametrize("epochs", ["1", "2"])
def test_a_step_that_overflows_the_basis_exits_3_and_saves_nothing(synthetic_csvs, tmp_path, capsys, epochs):
    # lr 1e30 overflows the three-layer float32 basis in the first step,
    # the run's last at one epoch; no warning leaks (warnings fail the suite).
    argv = train_args(synthetic_csvs, tmp_path, "--channels", "2,2,2", "--epochs", epochs, "--learning-rate", "1e30")
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("training diverged: scores became non-finite at epoch 0")
    assert not (tmp_path / "m.npz").exists()


def test_a_microbatch_divergence_is_reported_once(synthetic_csvs, tmp_path, capsys):
    # Batches of 8 rows: the second step's forward meets the first step's
    # overflowed basis, and the message names that reason once.
    argv = train_args(synthetic_csvs, tmp_path, "--channels", "2,2,2", "--batch-size", "8", "--learning-rate", "1e30")
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("training diverged: non-finite logits in microbatch (") and "at epoch 0\n" in err
    assert err.count("diverged") == 1
    assert not (tmp_path / "m.npz").exists()


def test_a_step_that_diverges_in_the_head_alone_exits_3_and_saves_nothing(synthetic_csvs, tmp_path, capsys):
    # lr 1e30 on one layer leaves the basis finite and overflows every score.
    assert cli.main(train_args(synthetic_csvs, tmp_path, "--epochs", "1", "--learning-rate", "1e30")) == 3
    err = capsys.readouterr().err
    assert err.startswith("training diverged: scores became non-finite at epoch 0")
    assert not (tmp_path / "m.npz").exists()


def test_internal_value_error_is_not_reported_as_config_error(synthetic_csvs, tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("shapes (3,) and (4,) not aligned")

    monkeypatch.setattr("decohd.experiment.train", broken)
    with pytest.raises(ValueError, match="not aligned"):
        cli.main(train_args(synthetic_csvs, tmp_path))
    assert "config error" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["budget", "--m", "0.5", "--classes", "3", "--dim", "64", "--layers", "1,x"],
                                  ["robustness", "--models", "m.npz", "--test-csv", "t.csv", "--p-grid", "0,2"],
                                  ["eval", "--model", "m.npz", "--test-csv", "t.csv", "--precision", "fp7"],
                                  ["robustness", "--models", "m.npz", "--test-csv", "t.csv", "--trials", "0"],
                                  ["robustness", "--models", "m.npz", "--test-csv", "t.csv", "--p-grid", ""],
                                  ["robustness", "--models", "m.npz", "--test-csv", "t.csv", "--p-grid", "0,0"]])
def test_malformed_command_line_is_rejected_by_argparse(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    assert "error: argument" in capsys.readouterr().err


def refuse_output(command, path, csvs, tmp_path, monkeypatch, capsys) -> str:
    """Run *command* with its output option at *path*, which argparse must
    refuse with exit 2 before anything is fitted or printed; returns stderr."""
    def never(*args, **kwargs):
        raise AssertionError("trained before the command line was checked")

    monkeypatch.setattr(cli, "fit_model", never)
    argv, option = {
        "train": (train_args(csvs, tmp_path, "--output", path), "--output"),
        "robustness": (robustness_argv(["m.npz"], "t.csv", path), "--output"),
        "budget": (BUDGET + ["--output", path], "--output"),
        "synth-train": (["synth", "--train-out", path], "--train-out"),
        "synth-test": (["synth", "--test-out", path], "--test-out"),
    }[command]
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"error: argument {option}: " in err
    return err


OUTPUT_COMMANDS = ["train", "robustness", "budget", "synth-train", "synth-test"]


@pytest.mark.parametrize("command", OUTPUT_COMMANDS)
def test_an_output_path_without_its_directory_is_rejected_by_argparse(synthetic_csvs, tmp_path, capsys, monkeypatch,
                                                                      command):
    missing = str(tmp_path / "no_such_dir" / "out")
    err = refuse_output(command, missing, synthetic_csvs, tmp_path, monkeypatch, capsys)
    assert f"no directory to write {missing!r} into" in err
    assert sorted(os.listdir(tmp_path)) == ["test.csv", "train.csv"]  # nothing written


@pytest.mark.parametrize("command, empty", [(c, e) for e in (False, True) for c in OUTPUT_COMMANDS],
                         ids=OUTPUT_COMMANDS + [f"{c}-empty" for c in OUTPUT_COMMANDS])
def test_an_output_path_that_is_a_directory_is_rejected_by_argparse(synthetic_csvs, tmp_path, capsys, monkeypatch,
                                                                    command, empty):
    # An empty path names no file to write either.
    outdir = tmp_path / "outdir"
    outdir.mkdir()
    err = refuse_output(command, "" if empty else str(outdir), synthetic_csvs, tmp_path, monkeypatch, capsys)
    assert ("an empty path names no file to write" if empty else
            f"{str(outdir)!r} is a directory, not a file to write") in err
    assert sorted(os.listdir(tmp_path)) == ["outdir", "test.csv", "train.csv"] and not os.listdir(outdir)


@pytest.mark.parametrize("option, value, message", [
    ("--p-grid", "0,2", "expected distinct comma-separated probabilities in [0, 1], got '0,2'"),
    ("--p-grid", "0,0", "expected distinct comma-separated probabilities in [0, 1], got '0,0'"),
    ("--p-grid", "", "expected distinct comma-separated probabilities in [0, 1], got ''"),
    ("--trials", "0", "expected a positive integer, got '0'"),
], ids=["p-range", "p-repeat", "p-empty", "trials-0"])
def test_a_refused_noise_option_exits_2_with_its_message(capsys, option, value, message):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["robustness", "--models", "m.npz", "--test-csv", "t.csv", option, value])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument {option}: {message}\n")


def test_a_p_grid_cell_that_is_not_a_number_is_rejected_by_argparse(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(robustness_argv(["m.npz"], "t.csv", "r.csv", "0,x"))
    assert excinfo.value.code == 2
    assert ("error: argument --p-grid: expected distinct comma-separated probabilities in [0, 1], got '0,x'"
            in capsys.readouterr().err)


def test_the_module_runs_as_the_decohd_command(tmp_path):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "decohd.cli", "budget", "--m", "0", "--classes", "3", "--dim", "64"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "config error: budget: m_target must be positive\n"


def test_sweep_accuracies_agree_within_two_test_rows_across_blas_thread_counts(tmp_path):
    # What the experiment docstring and ``sweep --help`` promise of a
    # rerun under another thread count; the bits may or may not differ.
    config = {"root_seed": 5, "data": {"synthetic": {"num_classes": 4, "num_features": 24, "samples_per_class": 40}},
              "models": [{"kind": "decohd", "channels": [2, 2], "latent_dim": 64}, {"kind": "prototype"},
                         {"kind": "onlinehd", "epochs": 2}],
              "train": {"epochs": 3, "batch_size": 32, "microbatch_size": 16},
              "dims": [512], "precisions": ["fp32", "bf16"]}
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    accuracies = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-m", "decohd.cli", "sweep", "--config", "config.json", "--output-dir",
                        f"t{threads}"], cwd=tmp_path, env=env, check=True, capture_output=True, timeout=300)
        with open(tmp_path / f"t{threads}" / "results.csv", encoding="utf-8") as fh:
            accuracies.append({(r["model"], r["precision"], r["D"]): float(r["accuracy"]) for r in csv.DictReader(fh)})
    one, two = accuracies
    assert one.keys() == two.keys() and len(one) == 6
    test_rows = 4 * 40
    assert all(abs(one[k] - two[k]) <= 2 / test_rows + 1e-12 for k in one), (one, two)


def spoil_container(path, how: str) -> None:
    """Rewrite a saved container so that it cannot be used."""
    if how == "garbage":
        with open(path, "wb") as fh:
            fh.write(b"not a container")
        return
    meta, arrays = load_arrays(path)
    if how == "meta-list":
        meta = list(meta)
    elif how == "head":
        del arrays["head"]
    elif how == "encoder":
        del meta["encoder"]
    elif how == "channels":
        arrays["channels:0"] = arrays["channels:0"][:, :-1]
    elif how == "v4":  # as format 4 wrote it, with the encoder's normalize_output
        meta.update(format_version=4, encoder={**meta["encoder"], "normalize_output": True})
    else:
        meta.update({"version": {"format_version": 99}, "v1": {"format_version": 1},
                     "v2": {"format_version": 2}, "kind": {"kind": "tree"}}[how])
    save_arrays(path, meta, arrays)


@pytest.mark.parametrize("how", ["version", "v1", "v2", "v4", "kind", "garbage", "meta-list", "head", "encoder",
                                 "channels"])
@pytest.mark.parametrize("command", ["eval", "robustness"])
def test_unusable_container_exits_2_as_data_error(saved_decohd, tmp_path, capsys, command, how):
    model_path, csv_path = saved_decohd
    spoil_container(model_path, how)
    argv = (["eval", "--model", model_path, "--test-csv", csv_path] if command == "eval" else
            ["robustness", "--models", model_path, "--test-csv", csv_path, "--p-grid", "0",
             "--trials", "1", "--output", str(tmp_path / "r.csv")])
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "Traceback" not in err
    if how in ("version", "v1", "v2", "v4"):
        assert f"unsupported container version {99 if how == 'version' else how[1]}" in err
    if how in ("head", "encoder"):
        assert f"has no entry '{how}'" in err
    if how == "meta-list":
        assert "not a readable model container" in err
    if how == "channels":
        assert "channels:0 is float32 of shape" in err


def test_budget_prints_the_top_rows_and_writes_every_configuration(tmp_path, capsys):
    # By hand, C=4 and D=8: footprint (4*M + L*8) / 32, trainable params
    # L*d + 4*M and savings 1 - params / 32, for M paths and L channels.
    # (2,2) at 48/32 is over budget; the rest sort by paths, then footprint.
    output = tmp_path / "budget.csv"
    assert cli.main(["budget", "--m", "1", "--classes", "4", "--dim", "8", "--d", "2,4", "--layers", "1,2",
                     "--max-channels", "2", "--top", "2", "--output", str(output)]) == 0
    rows = [
        ["layers", "channels", "latent_dim", "num_paths", "footprint", "trainable_params", "savings"],
        ["1", "2", "2", "2", "0.75", "12", "0.625"],
        ["1", "2", "4", "2", "0.75", "16", "0.5"],
        ["2", "1x2", "2", "2", "1", "14", "0.5625"],
        ["2", "1x2", "4", "2", "1", "20", "0.375"],
        ["2", "2x1", "2", "2", "1", "14", "0.5625"],
        ["2", "2x1", "4", "2", "1", "20", "0.375"],
        ["1", "1", "2", "1", "0.375", "6", "0.8125"],
        ["1", "1", "4", "1", "0.375", "8", "0.75"],
        ["2", "1x1", "2", "1", "0.625", "8", "0.75"],
        ["2", "1x1", "4", "1", "0.625", "12", "0.625"],
    ]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "10 configurations with footprint <= 1.0 (C=4, D=8)"
    assert [line.split() for line in lines[1:4]] == rows[:3]
    assert lines[4:] == [f"full table written to {output}"]
    with open(output, newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh)) == rows


def test_synth_refuses_one_path_for_both_splits(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["synth", "--train-out", "a.csv", "--test-out", os.path.join(".", "a.csv")]) == 1
    assert capsys.readouterr() == ("", "config error: a.csv and ./a.csv: synth needs distinct train and test paths\n")
    assert not os.listdir(tmp_path)


def test_synth_writes_csvs_that_load_back_to_the_dataset(tmp_path, capsys):
    paths = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert cli.main(["synth", "--classes", "3", "--features", "4", "--per-class", "5", "--separation", "2.5",
                     "--seed", "7", "--train-out", paths[0], "--test-out", paths[1]]) == 0
    assert capsys.readouterr().out == f"wrote 15 train rows to {paths[0]}\nwrote 15 test rows to {paths[1]}\n"
    for path, expected in zip(paths, make_synthetic(3, 4, 5, 2.5, seed=7)):
        loaded = load_csv(path)
        np.testing.assert_array_equal(loaded.labels, expected.labels)
        np.testing.assert_allclose(loaded.features, expected.features, rtol=1e-9, atol=0)  # %.10g


def test_sweep_exits_0_and_prints_paths_that_exist(tmp_path, capsys):
    config = {"data": {"synthetic": {"num_classes": 3, "num_features": 6, "samples_per_class": 10}},
              "models": [{"kind": "prototype"}], "dims": [16]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["sweep", "--config", str(path), "--output-dir", str(tmp_path / "out")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.rsplit(" ", 1)[0] for line in lines] == ["results written to", "manifest written to"]
    for line in lines:
        assert os.path.isfile(line.rsplit(" ", 1)[1])


def test_a_manifest_rerun_writes_back_into_its_own_run(tmp_path, capsys, monkeypatch):
    # A redirected sweep's manifest names the directory it wrote, so its
    # rerun leaves the run in the config's own output_dir as it is.
    monkeypatch.chdir(tmp_path)
    config = {"data": {"synthetic": {"num_classes": 3, "num_features": 6, "samples_per_class": 10}},
              "models": [{"kind": "prototype"}], "dims": [16], "output_dir": "out"}
    (tmp_path / "c.json").write_text(json.dumps(config), encoding="utf-8")
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "results.csv").write_text("kept\n", encoding="utf-8")
    assert cli.main(["sweep", "--config", "c.json", "--output-dir", "elsewhere"]) == 0
    assert json.loads((tmp_path / "elsewhere" / "manifest.json").read_text(encoding="utf-8"))["config"][
        "output_dir"] == "elsewhere"
    assert cli.main(["sweep", "--config", os.path.join("elsewhere", "manifest.json")]) == 0
    capsys.readouterr()
    assert os.listdir(tmp_path / "out") == ["results.csv"]
    assert (tmp_path / "out" / "results.csv").read_text(encoding="utf-8") == "kept\n"


def test_a_rerun_from_the_manifest_of_a_csv_sweep_is_bit_exact(tmp_path, capsys, monkeypatch):
    # As the sweep's help promises for one environment: only the history's
    # wall clock and the manifest's output_dir may differ.
    monkeypatch.chdir(tmp_path)
    train_ds, test_ds = make_synthetic(3, 6, 12, 3.0, seed=5)
    save_csv("train.csv", train_ds)
    save_csv("test.csv", test_ds)
    config = {"data": {"train_csv": "train.csv", "test_csv": "test.csv"}, "root_seed": 4,
              "models": [{"kind": "decohd", "channels": [2], "latent_dim": 4}, {"kind": "onlinehd", "epochs": 1}],
              "train": {"epochs": 2, "batch_size": 8, "microbatch_size": 4, "learning_rate": 1e-2},
              "dims": [32], "precisions": ["fp32", "fp8_e4m3fn"], "noise": {"p_grid": [0.0, 0.01], "trials": 2},
              "output_dir": "first"}
    (tmp_path / "c.json").write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["sweep", "--config", "c.json"]) == 0
    assert cli.main(["sweep", "--config", os.path.join("first", "manifest.json"), "--output-dir", "second"]) == 0
    capsys.readouterr()

    def read_bytes(run, name):
        return (tmp_path / run / name).read_bytes()

    models = sorted(os.listdir(tmp_path / "first" / "models"))
    assert models == ["decohd_D32.npz", "onlinehd_D32.npz"]
    assert sorted(os.listdir(tmp_path / "second" / "models")) == models
    for name in ["results.csv", "precision.csv", "robustness.csv", *(os.path.join("models", m) for m in models)]:
        assert read_bytes("first", name) == read_bytes("second", name), name

    def history(run):
        with open(tmp_path / run / "history.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(row.pop("wall_seconds") for row in rows)
        return rows

    assert history("first") == history("second")
    first, second = (json.loads(read_bytes(run, "manifest.json")) for run in ("first", "second"))
    assert (first["config"].pop("output_dir"), second["config"].pop("output_dir")) == ("first", "second")
    assert first == second


@pytest.mark.parametrize("precision", ["fp32", "bf16"])
def test_eval_holds_no_drawn_matrix_while_it_scores(saved_decohd, monkeypatch, capsys, precision):
    # The loaded model draws its encoder's matrix to encode the test CSV
    # and releases it before it quantizes and scores.
    drawn, alive = [], []

    def draw(*args, **kwargs):
        matrix = generate_matrix(*args, **kwargs)
        drawn.append(weakref.ref(matrix))
        return matrix

    def score(*args):
        gc.collect()
        alive.append(sum(ref() is not None for ref in drawn))
        return accuracy(*args)

    monkeypatch.setattr(encoding, "generate_matrix", draw)
    monkeypatch.setattr(cli, "accuracy", score)
    model_path, csv_path = saved_decohd
    assert cli.main(["eval", "--model", model_path, "--test-csv", csv_path, "--precision", precision]) == 0
    assert len(drawn) == 1 and alive == [0]


def test_options_a_spec_also_sets_default_to_the_specs_value():
    # --channels alone differs (ModelSpec.channels is (2,)): ROADMAP Direction 21.
    parse = cli.build_parser().parse_args
    train = parse(["train", "--train-csv", "a.csv", "--test-csv", "b.csv", "--output", "m.npz"])
    assert TrainConfig(train.learning_rate, train.weight_decay, train.epochs, train.batch_size,
                       train.microbatch_size) == TrainConfig()
    assert ModelSpec(train.model, latent_dim=train.latent_dim, epochs=train.refine_epochs,
                     budget=train.sparse_budget) == ModelSpec(train.model)
    config = ExperimentConfig(data={"synthetic": {}})
    assert (train.seed, train.dim, train.channels) == (config.root_seed, config.dims[0], [10])
    assert parse(["robustness", "--models", "m.npz", "--test-csv", "t.csv"]).trials == NoiseConfig().trials
    budget = parse(["budget", "--m", "1", "--classes", "3", "--dim", "64"])
    assert BudgetQuery(1.0, 3, 64, tuple(budget.layers), budget.max_channels, tuple(budget.d)) == \
        BudgetQuery(1.0, 3, 64)
    synth = parse(["synth"])
    assert SyntheticSpec(synth.classes, synth.features, synth.per_class, synth.separation) == SyntheticSpec()


def test_eval_at_bf16_scores_the_rounded_model_on_rounded_encodings(saved_decohd, capsys):
    model_path, csv_path = saved_decohd
    assert cli.main(["eval", "--model", model_path, "--test-csv", csv_path, "--precision", "bf16"]) == 0
    clf = load_classifier(model_path)
    test_ds = load_csv(csv_path)
    h = clf.encoder.encode_batch(test_ds.features, clf.standardizer)
    expected = accuracy(quantize_model(clf.scorer, "bf16"), quantize_array(h, "bf16"), test_ds.labels)
    out = capsys.readouterr().out
    assert printed("accuracy", out) == f"{expected:.4f}" and "precision=bf16 " in out


@pytest.mark.parametrize("content, message", [
    (None, "cannot read config "),
    ("{", ": invalid JSON: "),
    (json.dumps({**SYNTHETIC, "precisions": ["fp7"]}), "precisions: unknown formats ['fp7']; presets: "),
], ids=["missing", "invalid-json", "unknown-precision"])
def test_a_sweep_config_that_cannot_be_used_exits_1(tmp_path, capsys, content, message):
    path = tmp_path / "config.json"
    if content is not None:
        path.write_text(content, encoding="utf-8")
    assert cli.main(["sweep", "--config", str(path), "--output-dir", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error: ") and message in err
    assert not (tmp_path / "out").exists()


SWEEP_CONFIG = {"data": {"synthetic": {"num_classes": 3, "num_features": 6, "samples_per_class": 10}},
                "models": [{"kind": "prototype"}], "dims": [16]}


@pytest.mark.parametrize("raw, message", [
    (b'{"dims": [16], "dims": [32]}', "key 'dims' repeated in one object"),
    (b'{"train": {"epochs": 1, "epochs": 2}}', "key 'epochs' repeated in one object"),
    (b'{"name": "caf\xe9"}', "not UTF-8 text: "),
], ids=["repeated-key", "repeated-nested-key", "not-utf8"])
def test_a_sweep_config_read_with_care_exits_1_naming_its_path(tmp_path, capsys, raw, message):
    path = tmp_path / "config.json"
    path.write_bytes(raw)
    assert cli.main(["sweep", "--config", str(path), "--output-dir", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"config error: {path}: {message}") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_a_sweep_config_that_starts_with_a_bom_runs(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps(SWEEP_CONFIG).encode())
    assert cli.main(["sweep", "--config", str(path), "--output-dir", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == "" and (tmp_path / "out" / "results.csv").is_file()


@pytest.mark.parametrize("where", ["option", "config"])
@pytest.mark.parametrize("below", ["", "sub"], ids=["a-file", "below-a-file"])
def test_an_output_dir_that_cannot_be_created_exits_1_and_writes_nothing(tmp_path, capsys, where, below):
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n", encoding="utf-8")
    out = str(blocker / below)  # "" names the file itself
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**SWEEP_CONFIG, **({"output_dir": out} if where == "config" else {})}),
                    encoding="utf-8")
    argv = ["sweep", "--config", str(path)] + (["--output-dir", out] if where == "option" else [])
    assert cli.main(argv) == 1
    out_text, err = capsys.readouterr()
    assert out_text == "" and err.startswith(f"config error: cannot create output directory {out}: ")
    assert sorted(os.listdir(tmp_path)) == ["blocker", "config.json"]
    assert blocker.read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("where", ["option", "config"])
def test_an_empty_output_dir_exits_1_and_removes_nothing(tmp_path, monkeypatch, capsys, where):
    # The working directory's earlier outputs stay, and the option does
    # not fall back to the config's directory.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "results.csv").write_text("kept\n", encoding="utf-8")
    config = {**SWEEP_CONFIG, "output_dir": "" if where == "config" else str(tmp_path / "from_config")}
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    argv = ["sweep", "--config", "config.json"] + (["--output-dir", ""] if where == "option" else [])
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "config error: an empty output directory names no place to write\n"
    assert sorted(os.listdir(tmp_path)) == ["config.json", "results.csv"]
    assert (tmp_path / "results.csv").read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("name", ["results.csv", os.path.join("models", "prototype_D16.npz")])
def test_a_directory_at_an_output_name_exits_1_naming_it(tmp_path, capsys, monkeypatch, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    (out / "manifest.json").write_text("kept\n", encoding="utf-8")
    (tmp_path / "config.json").write_text(json.dumps(SWEEP_CONFIG), encoding="utf-8")
    def never(*args):
        raise AssertionError("the sweep read its data")

    monkeypatch.setattr(experiment, "prepare_data", never)  # refused before any data is read or trained
    assert cli.main(["sweep", "--config", str(tmp_path / "config.json"), "--output-dir", str(out)]) == 1
    out_text, err = capsys.readouterr()
    assert out_text == "" and err == f"config error: {out / name} is a directory, not an output file\n"
    assert sorted(os.listdir(out)) == ["manifest.json", name.split(os.sep)[0]]
    assert (out / "manifest.json").read_text(encoding="utf-8") == "kept\n"
    assert not any((out / name).iterdir())


def test_train_refuses_a_history_path_that_is_a_directory_before_training(synthetic_csvs, tmp_path, capsys,
                                                                          monkeypatch):
    (tmp_path / "m_history.csv").mkdir()
    err = refuse_output("train", str(tmp_path / "m.npz"), synthetic_csvs, tmp_path, monkeypatch, capsys)
    assert err.endswith(f"error: argument --output: {str(tmp_path / 'm_history.csv')!r} "
                        "is a directory, not a file to write\n")
    assert sorted(os.listdir(tmp_path)) == ["m_history.csv", "test.csv", "train.csv"]


def test_the_trials_rule_is_noise_configs(monkeypatch):
    judged = []

    class Judging(NoiseConfig):
        def __post_init__(self):
            judged.append(self.trials)
            super().__post_init__()

    monkeypatch.setattr(cli, "NoiseConfig", Judging)
    args = cli.build_parser().parse_args(["robustness", "--models", "m.npz", "--test-csv", "t.csv", "--trials", "7"])
    assert args.trials == 7 and 7 in judged
