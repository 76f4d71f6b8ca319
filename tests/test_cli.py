import numpy as np
import pytest

from decohd import cli
from decohd.data import load_csv, make_synthetic, save_csv
from decohd.inference import infer_scores
from decohd.model import pick_class
from decohd.serialize import load_classifier, save_classifier
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
