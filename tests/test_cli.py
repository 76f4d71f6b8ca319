import json
import re

import pytest

from decohd import cli
from decohd.data import Dataset, make_synthetic, save_csv
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
    extra = ["--encoder", "ternary"] if other == "encoder" else []
    if other == "standardizer":
        csvs = (str(tmp_path / "other_train.csv"), synthetic_csvs[1])
        save_csv(csvs[0], make_synthetic(3, 6, 20, 3.0, seed=12)[0])
    if other == "classes":  # the same features, labels folded onto two classes
        csvs = (str(tmp_path / "two_train.csv"), str(tmp_path / "two_test.csv"))
        for path, ds in zip(csvs, make_synthetic(3, 6, 20, 3.0, seed=11)):
            save_csv(path, Dataset(ds.features, ds.labels % 2, ds.split, "two", 2))
    second = save_trained(csvs, tmp_path, "second", *extra)
    capsys.readouterr()
    code = cli.main(["robustness", "--models", first, second, "--test-csv", synthetic_csvs[1],
                     "--p-grid", "0", "--trials", "1", "--output", str(tmp_path / "r.csv")])
    err = capsys.readouterr().err
    if other == "same":
        assert code == 0 and err == ""
    else:
        assert code == 1
        assert err.startswith(f"config error: {second}: ")
        assert "sharing one encoder, standardizer and class count" in err


@pytest.mark.parametrize("train", [{"eval_every": 0}, {"dtype": "foo"}, {"dtype": "int32"},
                                   {"noise": {"p_grid": [2.0]}}, {"noise": {"p_grid": [0.0], "trials": 0}},
                                   {"encoder_kind": "ternery"}],
                         ids=["eval_every", "dtype-name", "dtype-integer", "noise-p", "noise-trials",
                              "encoder-kind"])
def test_invalid_train_config_of_a_sweep_exits_1(tmp_path, capsys, train):
    # Top-level keys replace the config's own; any other key goes into its train config.
    top = {k: v for k, v in train.items() if k in ("noise", "encoder_kind")}
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


@pytest.mark.parametrize("extra", [["--epochs", "-1"], ["--dim", "0"], ["--channels", "0,2"],
                                   ["--model", "sparsehd", "--sparse-budget", "0"]])
def test_invalid_option_values_exit_1_as_config_errors(synthetic_csvs, tmp_path, capsys, extra):
    assert cli.main(train_args(synthetic_csvs, tmp_path, *extra)) == 1
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("argv", [["budget", "--m", "0", "--classes", "3", "--dim", "64"],
                                  ["synth", "--classes", "1"]], ids=["budget", "synth"])
def test_invalid_values_of_other_subcommands_exit_1(argv, tmp_path, capsys):
    outputs = ["--train-out", str(tmp_path / "a.csv"), "--test-out", str(tmp_path / "b.csv")]
    assert cli.main(argv + (outputs if argv[0] == "synth" else [])) == 1
    assert capsys.readouterr().err.startswith("config error: ")


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


def test_divergence_exits_3(synthetic_csvs, tmp_path, capsys):
    assert cli.main(train_args(synthetic_csvs, tmp_path, "--epochs", "50", "--learning-rate", "1e18")) == 3
    assert "training diverged: " in capsys.readouterr().err


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
                                  ["robustness", "--models", "m.npz", "--test-csv", "t.csv", "--trials", "0"]])
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
    if how == "head":
        del arrays["head"]
    elif how == "encoder":
        del meta["encoder"]
    elif how == "latents":
        arrays["latents_0"] = arrays["latents_0"][:, :-1]
    else:
        meta.update({"version": {"format_version": 99}, "kind": {"kind": "tree"}}[how])
    save_arrays(path, meta, arrays)


@pytest.mark.parametrize("how", ["version", "kind", "garbage", "head", "encoder", "latents"])
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
    if how == "version":
        assert "unsupported container version 99" in err
    if how in ("head", "encoder"):
        assert f"has no entry '{how}'" in err
    if how == "latents":
        assert "layer 0 latents have shape" in err
