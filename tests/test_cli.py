import numpy as np
import pytest

from decohd import cli
from decohd.data import load_csv, make_synthetic, save_csv
from decohd.inference import infer_scores
from decohd.model import pick_class
from decohd.serialize import load_arrays, load_classifier, save_arrays, save_classifier
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


def per_row_predictions(model_path, csv_path, mode):
    """Oracle: every row scored on its own through infer_scores."""
    clf = load_classifier(model_path)
    test_ds = load_csv(csv_path, split="test")
    h = clf.encoder.encode_batch(test_ds.features, clf.standardizer)
    scorer = clf.scorer
    scores = np.stack([infer_scores(hv, scorer.bank, scorer.head, mode) for hv in h])
    return pick_class(scores), test_ds.labels, scorer, h


@pytest.mark.parametrize("mode", ["materialized_prototypes", "score_only"])
def test_eval_exits_zero_with_per_row_accuracy(saved_decohd, capsys, mode):
    model_path, csv_path = saved_decohd
    assert cli.main(["eval", "--model", model_path, "--test-csv", csv_path, "--mode", mode]) == 0
    pred, labels, _, _ = per_row_predictions(model_path, csv_path, mode)
    out = capsys.readouterr().out
    assert f"inference mode: {mode} " in out
    assert f"accuracy={(pred == labels).mean():.4f}" in out


def test_materialized_one_pass_matches_per_row(saved_decohd):
    pred, _, scorer, h = per_row_predictions(*saved_decohd, "materialized_prototypes")
    scores = cli._decomposed_scores(scorer, h, "materialized_prototypes")
    assert scores.shape == (h.shape[0], scorer.head.shape[0])
    np.testing.assert_array_equal(np.argmax(scores, axis=1), pred)


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
                                  ["eval", "--model", "m.npz", "--test-csv", "t.csv", "--precision", "fp7"]])
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
    meta.update({"version": {"format_version": 99}, "kind": {"kind": "tree"}}[how])
    save_arrays(path, meta, arrays)


@pytest.mark.parametrize("how", ["version", "kind", "garbage"])
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
