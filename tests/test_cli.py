import csv
import json
import re

import pytest

from decohd import cli
from decohd.data import Dataset, make_synthetic, save_csv
from decohd.faults import ROBUSTNESS_COLUMNS
from decohd.serialize import load_arrays, save_arrays, save_classifier
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
def test_eval_prints_the_accuracy_train_printed(synthetic_csvs, tmp_path, capsys, model):
    assert cli.main(train_args(synthetic_csvs, tmp_path, "--model", model, "--refine-epochs", "2")) == 0
    trained = printed("test_accuracy", capsys.readouterr().out)
    assert cli.main(["eval", "--model", str(tmp_path / "m.npz"), "--test-csv", synthetic_csvs[1]]) == 0
    out = capsys.readouterr().out
    assert printed("accuracy", out) == trained
    assert f"model={model} " in out


def save_trained(csvs, tmp_path, name: str, *extra) -> str:
    path = str(tmp_path / f"{name}.npz")
    assert cli.main(["train", "--train-csv", csvs[0], "--test-csv", csvs[1], "--output", path,
                     "--model", "prototype", "--dim", "64", "--seed", "4", *extra]) == 0
    return path


@pytest.mark.parametrize("other", ["same", "encoder", "standardizer", "classes"])
def test_robustness_requires_models_that_encode_alike(synthetic_csvs, tmp_path, capsys, other):
    first = save_trained(synthetic_csvs, tmp_path, "first")
    csvs = synthetic_csvs
    extra = ["--seed", "5"] if other == "encoder" else []  # the same data, another encoder draw
    if other == "standardizer":
        csvs = (str(tmp_path / "other_train.csv"), synthetic_csvs[1])
        save_csv(csvs[0], make_synthetic(3, 6, 20, 3.0, seed=12)[0])
    if other == "classes":  # the same features, labels folded onto two classes
        csvs = (str(tmp_path / "two_train.csv"), str(tmp_path / "two_test.csv"))
        for path, ds in zip(csvs, make_synthetic(3, 6, 20, 3.0, seed=11)):
            save_csv(path, Dataset(ds.features, ds.labels % 2, 2))
    second = save_trained(csvs, tmp_path, "second", *extra)
    capsys.readouterr()
    code = cli.main(["robustness", "--models", first, second, "--test-csv", synthetic_csvs[1],
                     "--p-grid", "0", "--trials", "1", "--output", str(tmp_path / "r.csv")])
    err = capsys.readouterr().err
    if other == "same":
        assert code == 0 and err == ""
        with open(tmp_path / "r.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(ROBUSTNESS_COLUMNS)
        assert [row[:4] for row in rows[1:]] == [["first", "64", "0", "0"], ["second", "64", "0", "0"]]
    else:
        assert code == 1
        assert err.startswith(f"config error: {second}: ")
        assert "sharing one encoder, standardizer and class count" in err


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
    ({**SYNTHETIC, "noise": {"p_grid": [0.1], "trials": 0}},
     "noise: need trials >= 1 and every p in [0, 1], got 0 and (0.1,)"),
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


def test_malformed_csv_exits_2_as_data_error(saved_decohd, tmp_path, capsys):
    model_path, _ = saved_decohd
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2,3,4,5,6,0\n1,2,3,0\n", encoding="utf-8")
    assert cli.main(["eval", "--model", model_path, "--test-csv", str(ragged)]) == 2
    assert "data error: " in capsys.readouterr().err


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


def test_robustness_refuses_models_that_share_a_file_stem(synthetic_csvs, tmp_path, capsys):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = save_trained(synthetic_csvs, tmp_path, "a/m")
    second = save_trained(synthetic_csvs, tmp_path, "b/m")
    capsys.readouterr()
    output = tmp_path / "r.csv"
    code = cli.main(["robustness", "--models", first, second, "--test-csv", synthetic_csvs[1],
                     "--p-grid", "0", "--trials", "1", "--output", str(output)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: ") and first in err and second in err
    assert not output.exists()


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
    assert err.startswith("training diverged: ") and "path basis became non-finite at epoch 0" in err
    assert not (tmp_path / "m.npz").exists()


def test_a_step_that_diverges_in_the_head_alone_exits_3_and_saves_nothing(synthetic_csvs, tmp_path, capsys):
    # lr 1e30 on one layer leaves the basis finite and overflows every score.
    assert cli.main(train_args(synthetic_csvs, tmp_path, "--epochs", "1", "--learning-rate", "1e30")) == 3
    err = capsys.readouterr().err
    assert err.startswith("training diverged: ") and "scores became non-finite at epoch 0" in err
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
    else:
        meta.update({"version": {"format_version": 99}, "v1": {"format_version": 1},
                     "v2": {"format_version": 2}, "kind": {"kind": "tree"}}[how])
    save_arrays(path, meta, arrays)


@pytest.mark.parametrize("how", ["version", "v1", "v2", "kind", "garbage", "meta-list", "head", "encoder",
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
    if how in ("version", "v1", "v2"):
        assert f"unsupported container version {99 if how == 'version' else how[1]}" in err
    if how in ("head", "encoder"):
        assert f"has no entry '{how}'" in err
    if how == "meta-list":
        assert "not a readable model container" in err
    if how == "channels":
        assert "channels:0 is float32 of shape" in err
