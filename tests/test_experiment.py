import csv
import dataclasses
import json
import os

import numpy as np
import pytest

from decohd import encoding, experiment, model, ops, training
from decohd.baselines import build_prototype_table, onlinehd_refine, sparsify_table
from decohd.data import make_synthetic, save_csv
from decohd.encoding import fit_standardizer
from decohd.experiment import (
    ConfigError,
    DataSpec,
    ExperimentConfig,
    ModelSpec,
    encode_splits,
    fit_model,
    load_config,
    prepare_data,
    run_experiment,
)
from decohd.model import Classifier
from decohd.ops import HadamardProjector, generate_matrix, row_blocks
from decohd.precision import quantize_array
from decohd.serialize import load_classifier, save_classifier
from decohd.training import TrainConfig
from tests.conftest import assert_same_bits

PRECISIONS = ("fp32", "bf16", "fp8_e4m3fn")
P_GRID = (0.0, 1e-3)
TRIALS = 2


def tiny_config() -> ExperimentConfig:
    return ExperimentConfig(
        name="tiny",
        root_seed=3,
        data={"synthetic": {"num_classes": 3, "num_features": 8, "samples_per_class": 20}},
        models=(
            {"kind": "decohd", "channels": [2, 2], "latent_dim": 8},
            {"kind": "prototype"},
            {"kind": "onlinehd", "epochs": 2},
            {"kind": "sparsehd", "budget": 0.5, "epochs": 2},
        ),
        train={"epochs": 2, "batch_size": 16, "microbatch_size": 8, "learning_rate": 1e-2},
        dims=(64,),
        precisions=PRECISIONS,
        noise={"p_grid": list(P_GRID), "trials": TRIALS},
    )


def read(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_four_model_sweep_writes_every_row(tmp_path):
    config = tiny_config()
    result = run_experiment(config, output_dir=str(tmp_path))
    labels = ["decohd", "prototype", "onlinehd", "sparsehd"]
    assert config.model_labels() == labels
    assert not os.path.exists(tmp_path / "failure_manifest.json")

    results = {(r["model"], r["precision"], r["D"]): r for r in read(tmp_path / "results.csv")}
    precision = {(r["model_kind"], r["format_name"], r["D"]): r for r in read(tmp_path / "precision.csv")}
    robustness = {(r["model_kind"], float(r["p_flip"]), int(r["trial"])): r
                  for r in read(tmp_path / "robustness.csv")}
    history = read(tmp_path / "history.csv")
    assert len(results) == len(precision) == 4 * len(PRECISIONS)
    assert len(robustness) == 4 * len(P_GRID) * TRIALS
    assert [(r["model"], int(r["epoch"])) for r in history] == [("decohd", 0), ("decohd", 1)]

    for label in labels:
        for p in PRECISIONS:
            row = results[(label, p, "64")]
            acc = float(row["accuracy"])
            assert 0.0 <= acc <= 1.0
            assert precision[(label, p, "64")]["test_accuracy"] == row["accuracy"]
        fp32 = results[(label, "fp32", "64")]["accuracy"]
        for trial in range(TRIALS):
            # p=0 flips no bit, so it reproduces the fp32 accuracy exactly.
            assert robustness[(label, 0.0, trial)]["test_accuracy"] == fp32
    assert float(results[("prototype", "fp32", "64")]["m_budget"]) == 1.0
    assert float(results[("sparsehd", "fp32", "64")]["m_budget"]) == 0.5

    with open(result.manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["model_labels"] == labels
    assert sorted(os.listdir(tmp_path / "models")) == sorted(f"{l}_D64.npz" for l in labels)


def test_a_manifest_reloads_as_its_config(tmp_path):
    # JSON turns the config's tuples into lists and its unused CSV paths
    # into nulls; the walk of load_config must take both back.
    result = run_experiment(tiny_config(), output_dir=str(tmp_path))
    assert load_config(result.manifest_path) == tiny_config()


def test_manifest_keys_are_pinned(tmp_path):
    config = ExperimentConfig(data={"synthetic": {"num_classes": 3, "num_features": 4, "samples_per_class": 5}},
                              dims=(16,))
    result = run_experiment(config, output_dir=str(tmp_path))
    with open(result.manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest.keys() == {"package_version", "config", "dataset", "model_labels"}
    assert manifest["dataset"]["name"] == config.data.name
    assert load_config(result.manifest_path) == config


def test_a_csv_sweep_with_no_name_writes_a_null_dataset_name(tmp_path):
    train_ds, test_ds = make_synthetic(3, 4, 5, 3.0, seed=2)
    paths = str(tmp_path / "train.csv"), str(tmp_path / "test.csv")
    save_csv(paths[0], train_ds)
    save_csv(paths[1], test_ds)
    config = ExperimentConfig(data={"train_csv": paths[0], "test_csv": paths[1]}, dims=(16,))
    result = run_experiment(config, output_dir=str(tmp_path / "out"))
    with open(result.manifest_path, encoding="utf-8") as fh:
        assert json.load(fh)["dataset"]["name"] is None


def test_a_config_built_in_python_equals_its_json_load(tmp_path):
    # Python callers pass dicts and lists where JSON has objects and
    # arrays; one walk builds both into the same specs, tuples and floats.
    raw = {
        "root_seed": 3,
        "data": {"synthetic": {"num_classes": 3, "separation": 2}},
        "models": [{"kind": "decohd", "channels": [2, 3]}, {"kind": "sparsehd", "budget": 1}],
        "train": {"epochs": 2, "learning_rate": 1},
        "dims": [64, 128],
        "precisions": ["fp32", "bf16"],
        "noise": {"p_grid": [0, 1e-3], "trials": 2},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    config = ExperimentConfig(**raw)
    assert config == load_config(str(path))
    assert json.dumps(dataclasses.asdict(config)) == json.dumps(dataclasses.asdict(load_config(str(path))))
    assert config.models[0] == ModelSpec(kind="decohd", channels=(2, 3))
    assert config.dims == (64, 128) and config.precisions == ("fp32", "bf16")
    assert [type(v) for v in (config.data.synthetic.separation, config.train.learning_rate,
                              *config.noise.p_grid)] == [float] * 4


def test_two_dimension_sweep_tells_its_robustness_rows_apart(tmp_path):
    # Each (model, p, trial) is run once per dimension; the D column
    # keeps the two rows apart, and each D's p=0 rows reproduce that
    # D's fp32 accuracy.
    config = dataclasses.replace(tiny_config(), dims=(32, 64), precisions=("fp32",))
    run_experiment(config, output_dir=str(tmp_path))
    rows = read(tmp_path / "robustness.csv")
    keys = [(r["model_kind"], int(r["D"]), float(r["p_flip"]), int(r["trial"])) for r in rows]
    labels = config.model_labels()
    assert keys == sorted((label, d, p, trial) for label in labels for d in (32, 64)
                          for p in P_GRID for trial in range(TRIALS))
    fp32 = {(r["model"], int(r["D"])): r["accuracy"] for r in read(tmp_path / "results.csv")}
    for row, (label, d, p, _) in zip(rows, keys):
        if p == 0.0:
            assert row["test_accuracy"] == fp32[(label, d)]


@pytest.mark.parametrize(
    "model, refines",
    [
        ({"kind": "prototype"}, 0),
        ({"kind": "onlinehd", "epochs": 2}, 1),
        ({"kind": "sparsehd", "base": "onlinehd", "epochs": 2}, 1),
        ({"kind": "sparsehd", "base": "prototype", "epochs": 2}, 0),
    ],
    ids=["prototype", "onlinehd", "sparsehd-onlinehd", "sparsehd-prototype"],
)
def test_fit_model_refines_only_a_table_it_keeps(monkeypatch, model, refines):
    config = ExperimentConfig(data={"synthetic": {"num_classes": 3, "num_features": 8,
                                                  "samples_per_class": 20}},
                              models=(model,), dims=(64,))
    train_ds, test_ds = prepare_data(config.data, config.root_seed)
    standardizer = fit_standardizer(train_ds.features)
    encoder, h_train, h_test = encode_splits(config, standardizer, train_ds, test_ds, 64)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return onlinehd_refine(*args, **kwargs)

    monkeypatch.setattr(experiment, "onlinehd_refine", counting)
    spec = config.models[0]
    clf, history = fit_model(spec, spec.kind, config, encoder, standardizer,
                             h_train, train_ds.labels, h_test, test_ds.labels, 3)
    assert len(calls) == refines
    assert clf.kind == spec.kind and history == []
    if spec.kind == "sparsehd" and spec.base == "prototype":
        expected = sparsify_table(build_prototype_table(h_train, train_ds.labels, 3), spec.budget)
        assert_same_bits(clf.scorer.table, expected.table)
        np.testing.assert_array_equal(clf.scorer.mask, expected.mask)


# Every settable config field; a key added or removed changes what
# configs and manifests load, so it must be changed here on purpose.
CONFIG_SCHEMA = {
    ExperimentConfig: ["name", "root_seed", "data", "models", "train", "dims", "precisions", "noise",
                       "output_dir"],
    DataSpec: ["name", "train_csv", "test_csv", "synthetic"],
    ModelSpec: ["kind", "channels", "latent_dim", "epochs", "learning_rate", "budget", "base"],
    TrainConfig: ["learning_rate", "weight_decay", "epochs", "batch_size", "microbatch_size", "eval_every"],
}


@pytest.mark.parametrize("budget, dims", [(1e-9, (64,)), (0.0156, (64,)), (0.01, (1000, 64))],
                         ids=["tiny", "below-one-over-D", "second-dim"])
def test_sparse_budget_that_keeps_no_dimension_is_a_config_error(budget, dims):
    # sparsify_table keeps floor(budget * D) dimensions; a model that keeps
    # none at some D is refused before anything trains.
    models = ({"kind": "prototype"}, {"kind": "sparsehd", "budget": budget})
    with pytest.raises(ConfigError, match=f"models\\[1\\]: sparsehd budget {budget} retains zero of 64 dimensions"):
        ExperimentConfig(data={"synthetic": {}}, models=models, dims=dims)


@pytest.mark.parametrize("budget, dims", [(1 / 64, (64,)), (0.01, (100, 1000)), (1e-9, (10**9,))],
                         ids=["one-of-64", "one-of-100", "one-of-1e9"])
def test_sparse_budget_that_keeps_one_dimension_is_accepted(budget, dims):
    ExperimentConfig(data={"synthetic": {}}, models=({"kind": "sparsehd", "budget": budget},), dims=dims)
    # The budget of another kind is not read.
    ExperimentConfig(data={"synthetic": {}}, models=({"kind": "onlinehd", "budget": 1e-9},), dims=(64,))


@pytest.mark.parametrize("config, message", [
    ({"data": {"synthetic": {"separation": float("nan")}}}, "separation must be finite"),
    ({"data": {"synthetic": {"separation": float("inf")}}}, "separation must be finite"),
    ({"models": [{"kind": "onlinehd", "learning_rate": float("nan")}]}, "finite learning_rate"),
    ({"models": [{"kind": "onlinehd", "learning_rate": float("inf")}]}, "finite learning_rate"),
    ({"train": {"learning_rate": float("nan")}}, "learning_rate must be positive and finite"),
    ({"train": {"weight_decay": float("nan")}}, "weight_decay must be finite"),
], ids=["separation-nan", "separation-inf", "refine-lr-nan", "refine-lr-inf", "train-lr-nan", "weight-decay-nan"])
def test_non_finite_config_values_are_config_errors(tmp_path, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"data": {"synthetic": {}}, **config}), encoding="utf-8")
    with pytest.raises(ConfigError, match=message):
        load_config(str(path))


@pytest.mark.parametrize("cls", list(CONFIG_SCHEMA), ids=lambda cls: cls.__name__)
def test_config_schema_is_pinned(cls):
    assert [f.name for f in dataclasses.fields(cls)] == CONFIG_SCHEMA[cls]


def test_deleted_inference_keys_are_rejected(tmp_path):
    path = tmp_path / "config.json"
    for key, value in (("inference", {"quantize_encodings": True}), ("normalize_encodings", True)):
        path.write_text(json.dumps({"data": {"synthetic": {}}, key: value}), encoding="utf-8")
        with pytest.raises(ConfigError, match=f"unknown keys \\['{key}'\\]"):
            load_config(str(path))


@pytest.mark.parametrize("key, value", [("sigma_init", 1.0), ("shuffle_seed", 3), ("betas", [0.9, 0.99]),
                                        ("eps", 1e-8), ("decay_latents", False), ("decay_head", False),
                                        ("dtype", "float64")])
def test_deleted_train_keys_are_rejected(tmp_path, key, value):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"data": {"synthetic": {}}, "train": {key: value}}), encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown keys"):
        load_config(str(path))


# Ids name whether training ran and whether its last epoch evaluated, and
# the projectors fit_model builds: two matrix-free ones, no dense draw.
@pytest.mark.parametrize("epochs, eval_every, matrix_free", [(2, 1, 2), (3, 2, 2), (0, 1, 2)],
                         ids=["trained-2", "trained-no-final-eval-2", "untrained-2"])
def test_fit_model_hands_the_trained_bank_to_the_classifier(monkeypatch, tmp_path, epochs, eval_every,
                                                            matrix_free):
    # Training builds its two matrix-free projectors once, draws no dense
    # matrix, and returns the bank of its final params, after any number
    # of epochs and whether or not the last one evaluated: that bank is
    # the deployed one, so nothing is drawn again.
    # A container holds the channels, so loading it and predicting draws
    # one dense matrix: the encoder's.  Every dense draw reads
    # ops.row_blocks, a streamed bank's through model.row_blocks.
    config = ExperimentConfig(
        data={"synthetic": {"num_classes": 3, "num_features": 8, "samples_per_class": 20}},
        models=({"kind": "decohd", "channels": [2, 2], "latent_dim": 17},),
        train={"epochs": epochs, "batch_size": 16, "microbatch_size": 8, "eval_every": eval_every},
        dims=(64,),
    )
    train_ds, test_ds = prepare_data(config.data, config.root_seed)
    standardizer = fit_standardizer(train_ds.features)
    encoder, h_train, h_test = encode_splits(config, standardizer, train_ds, test_ds, 64)
    draws = {"dense": 0, "streamed": 0, "matrix_free": 0, "encoder": 0}

    def counting(name, draw):
        def wrapped(*args, **kwargs):
            draws[name] += 1
            return draw(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(ops, "row_blocks", counting("dense", row_blocks))
    monkeypatch.setattr(model, "row_blocks", counting("streamed", row_blocks))
    monkeypatch.setattr(training, "HadamardProjector", counting("matrix_free", HadamardProjector))
    monkeypatch.setattr(encoding, "generate_matrix", counting("encoder", generate_matrix))
    spec = config.models[0]
    clf, _ = fit_model(spec, spec.kind, config, encoder, standardizer,
                       h_train, train_ds.labels, h_test, test_ds.labels, 3)
    scorer = clf.scorer
    assert draws == {"dense": 0, "streamed": 0, "matrix_free": matrix_free, "encoder": 0}
    path = tmp_path / "decohd.npz"
    save_classifier(path, clf)
    loaded = load_classifier(path)
    predicted = loaded.predict_batch(test_ds.features)
    assert draws == {"dense": 1, "streamed": 0, "matrix_free": matrix_free, "encoder": 1}
    np.testing.assert_array_equal(predicted, clf.predict_batch(test_ds.features))
    assert [c.dtype for c in scorer.bank.channels] == [np.float32, np.float32]
    for got, expected in zip(scorer.bank.channels, loaded.scorer.bank.channels):
        assert_same_bits(got, expected)


@pytest.mark.parametrize("model", [
    {"kind": "decohd", "channels": [2, 2], "latent_dim": 8},
    {"kind": "prototype"},
    {"kind": "onlinehd", "epochs": 2},
    {"kind": "sparsehd", "budget": 0.5, "epochs": 2},
], ids=["decohd", "prototype", "onlinehd", "sparsehd"])
def test_every_deployed_array_is_float32(model):
    # Quantization and bit flips read float32 storage only; every model
    # fit_model builds must deploy it.
    config = ExperimentConfig(
        data={"synthetic": {"num_classes": 3, "num_features": 8, "samples_per_class": 20}},
        models=(model,),
        train={"epochs": 1, "batch_size": 16, "microbatch_size": 8},
        dims=(64,),
    )
    train_ds, test_ds = prepare_data(config.data, config.root_seed)
    standardizer = fit_standardizer(train_ds.features)
    encoder, h_train, h_test = encode_splits(config, standardizer, train_ds, test_ds, 64)
    spec = config.models[0]
    clf, _ = fit_model(spec, spec.kind, config, encoder, standardizer,
                       h_train, train_ds.labels, h_test, test_ds.labels, 3)
    assert isinstance(clf, Classifier)
    stored = clf.scorer.stored()
    assert stored and {key: a.dtype for key, a in stored.items()} == dict.fromkeys(stored, np.float32)


def test_test_encodings_are_quantized_once_per_precision_and_dim(tmp_path, monkeypatch):
    # Four models share each quantized copy; the scorers' own arrays go
    # through precision.quantize_model, which this does not count.
    config = dataclasses.replace(tiny_config(), dims=(32, 64), noise={"p_grid": []})
    calls = []

    def counting(a, fmt):
        calls.append((a.shape, fmt.name))
        return quantize_array(a, fmt)

    monkeypatch.setattr(experiment, "quantize_array", counting)
    run_experiment(config, output_dir=str(tmp_path))
    assert calls == [((60, 32), "bf16"), ((60, 32), "fp8_e4m3fn"),
                     ((60, 64), "bf16"), ((60, 64), "fp8_e4m3fn")]
