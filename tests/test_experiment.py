import csv
import dataclasses
import json
import os

import numpy as np
import pytest

from decohd import experiment
from decohd.baselines import build_prototype_table, onlinehd_refine, sparsify_table
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
from decohd.model import materialize_channels
from decohd.ops import generate_matrix
from decohd.precision import quantize_array
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
            assert format(result.accuracies[(label, p, 64)], ".10g") == row["accuracy"]
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
    ExperimentConfig: ["name", "root_seed", "data", "models", "train", "encoder_kind", "dims",
                       "precisions", "noise", "output_dir"],
    DataSpec: ["name", "train_csv", "test_csv", "synthetic"],
    ModelSpec: ["kind", "channels", "latent_dim", "epochs", "learning_rate", "budget", "base"],
    TrainConfig: ["learning_rate", "weight_decay", "epochs", "batch_size", "microbatch_size", "dtype",
                  "eval_every"],
}


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
                                        ("eps", 1e-8), ("decay_latents", False), ("decay_head", False)])
def test_deleted_train_keys_are_rejected(tmp_path, key, value):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"data": {"synthetic": {}}, "train": {key: value}}), encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown keys"):
        load_config(str(path))


@pytest.mark.parametrize("dtype, generated", [("float32", 2), ("float64", 4)])
def test_fit_model_hands_the_trained_bank_to_the_classifier(monkeypatch, dtype, generated):
    # A float32 run's final bank is the deployed one, so its two projectors
    # are generated once; a float64 run's bank is rebuilt at float32.
    config = ExperimentConfig(
        data={"synthetic": {"num_classes": 3, "num_features": 8, "samples_per_class": 20}},
        models=({"kind": "decohd", "channels": [2, 2], "latent_dim": 8},),
        train={"epochs": 2, "batch_size": 16, "microbatch_size": 8, "dtype": dtype},
        dims=(64,),
    )
    train_ds, test_ds = prepare_data(config.data, config.root_seed)
    standardizer = fit_standardizer(train_ds.features)
    encoder, h_train, h_test = encode_splits(config, standardizer, train_ds, test_ds, 64)
    specs = []

    def counting(spec, dtype=np.float32):
        specs.append(spec)
        return generate_matrix(spec, dtype=dtype)

    monkeypatch.setattr("decohd.model.generate_matrix", counting)
    spec = config.models[0]
    clf, _ = fit_model(spec, spec.kind, config, encoder, standardizer,
                       h_train, train_ds.labels, h_test, test_ds.labels, 3)
    scorer = clf.scorer
    assert len(specs) == generated
    fresh = materialize_channels(clf.params.astype(np.float32),
                                 [generate_matrix(s, dtype=np.float32) for s in clf.config.projector_specs()])
    assert [c.dtype for c in scorer.bank.channels] == [np.float32, np.float32]
    for got, expected in zip(scorer.bank.channels, fresh.channels):
        assert_same_bits(got, expected)


@pytest.mark.parametrize("model, dtype", [
    ({"kind": "decohd", "channels": [2, 2], "latent_dim": 8}, "float32"),
    ({"kind": "decohd", "channels": [2, 2], "latent_dim": 8}, "float64"),
    ({"kind": "prototype"}, "float32"),
    ({"kind": "onlinehd", "epochs": 2}, "float32"),
    ({"kind": "sparsehd", "budget": 0.5, "epochs": 2}, "float32"),
], ids=["decohd", "decohd-float64", "prototype", "onlinehd", "sparsehd"])
def test_every_deployed_array_is_float32(model, dtype):
    # Quantization and bit flips read float32 storage only; every model
    # fit_model builds must deploy it, whatever dtype training ran in.
    config = ExperimentConfig(
        data={"synthetic": {"num_classes": 3, "num_features": 8, "samples_per_class": 20}},
        models=(model,),
        train={"epochs": 1, "batch_size": 16, "microbatch_size": 8, "dtype": dtype},
        dims=(64,),
    )
    train_ds, test_ds = prepare_data(config.data, config.root_seed)
    standardizer = fit_standardizer(train_ds.features)
    encoder, h_train, h_test = encode_splits(config, standardizer, train_ds, test_ds, 64)
    spec = config.models[0]
    clf, _ = fit_model(spec, spec.kind, config, encoder, standardizer,
                       h_train, train_ds.labels, h_test, test_ds.labels, 3)
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
