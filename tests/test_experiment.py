import csv
import dataclasses
import gc
import json
import os
import re
import weakref

import numpy as np
import pytest

from decohd import cli, encoding, experiment, model, ops, serialize, training
from decohd.baselines import build_prototype_table, onlinehd_refine, sparsify_table
from decohd.data import ParseError, SyntheticSpec, bayes_accuracy, make_synthetic, save_csv
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
from decohd.faults import robustness_sweep
from decohd.model import Classifier, accuracy
from decohd.ops import HadamardProjector, generate_matrix, row_blocks
from decohd.precision import get_format, quantize_array, quantize_model
from decohd.serialize import load_classifier, save_classifier
from decohd.training import TrainConfig
from tests.conftest import assert_same_bits, fold_oracle

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
    # The manifest records the directory the run wrote, not the config's.
    result = run_experiment(tiny_config(), output_dir=str(tmp_path))
    assert load_config(result.manifest_path) == dataclasses.replace(tiny_config(), output_dir=str(tmp_path))


def test_manifest_keys_are_pinned(tmp_path):
    config = ExperimentConfig(data={"synthetic": {"num_classes": 3, "num_features": 4, "samples_per_class": 5}},
                              dims=(16,))
    result = run_experiment(config, output_dir=str(tmp_path))
    with open(result.manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest.keys() == {"package_version", "config", "dataset", "model_labels"}
    assert manifest["dataset"]["name"] == config.data.name
    assert manifest["dataset"]["bayes_accuracy"] == bayes_accuracy(SyntheticSpec(3, 4, 5, 3.0))
    assert load_config(result.manifest_path) == dataclasses.replace(config, output_dir=str(tmp_path))


def test_the_bayes_ceiling_is_written_only_where_it_has_a_closed_form(tmp_path):
    # With more classes than features the centres are not orthogonal.
    config = ExperimentConfig(data={"synthetic": {"num_classes": 5, "num_features": 4, "samples_per_class": 5}},
                              models=({"kind": "prototype"},), dims=(16,))
    result = run_experiment(config, output_dir=str(tmp_path))
    with open(result.manifest_path, encoding="utf-8") as fh:
        assert json.load(fh)["dataset"]["bayes_accuracy"] is None


def test_a_csv_sweep_with_no_name_writes_a_null_dataset_name(tmp_path):
    train_ds, test_ds = make_synthetic(3, 4, 5, 3.0, seed=2)
    paths = str(tmp_path / "train.csv"), str(tmp_path / "test.csv")
    save_csv(paths[0], train_ds)
    save_csv(paths[1], test_ds)
    config = ExperimentConfig(data={"train_csv": paths[0], "test_csv": paths[1]}, dims=(16,))
    result = run_experiment(config, output_dir=str(tmp_path / "out"))
    with open(result.manifest_path, encoding="utf-8") as fh:
        dataset = json.load(fh)["dataset"]
    assert dataset["name"] is None and dataset["bayes_accuracy"] is None


@pytest.mark.parametrize("labels, first, missing",
                         [((0, 10**15), 1, 10**15 - 1), ((1, 2), 0, 1), ((0, 1, 3, 5), 2, 2)],
                         ids=["huge", "one-based", "two-gaps"])
def test_prepare_data_refuses_a_train_csv_whose_classes_are_not_all_present(tmp_path, labels, first, missing):
    # Judged from the sorted distinct labels: a label of 10**15 is
    # refused with no array of 10**15 classes, which could not be made.
    path = tmp_path / "train.csv"
    path.write_text("".join(f"{i / 10},{label}\n" for i, label in enumerate(labels * 2)), encoding="utf-8")
    c = labels[-1] + 1
    with pytest.raises(ParseError, match="^" + re.escape(
            f"{path}: class {first} has no training rows ({missing} missing of the {c} classes [0, {c}))") + "$"):
        prepare_data(DataSpec(train_csv=str(path), test_csv=str(path)), 0)


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
        assert_same_bits(clf.scorer.prototypes, expected.prototypes)
        np.testing.assert_array_equal(clf.scorer.mask, expected.mask)


@pytest.mark.parametrize("model", [{"kind": "decohd", "channels": [2, 2], "latent_dim": 16}, {"kind": "prototype"},
                                   {"kind": "onlinehd", "epochs": 2}, {"kind": "sparsehd", "budget": 0.5}],
                         ids=["decohd", "prototype", "onlinehd", "sparsehd"])
def test_predict_batch_agrees_with_the_fold_of_the_features(model):
    # Every fitted model is linear in h, so from raw features it predicts
    # the class of one C x F map (conftest.fold_oracle) on every row that
    # float32 rounding cannot reorder.
    config = ExperimentConfig(data={"synthetic": {"num_classes": 4, "num_features": 8, "samples_per_class": 40}},
                              models=(model,), dims=(128,), root_seed=5,
                              train={"epochs": 10, "batch_size": 32, "microbatch_size": 16, "learning_rate": 1e-2})
    train_ds, test_ds = prepare_data(config.data, config.root_seed)
    standardizer = fit_standardizer(train_ds.features)
    encoder, h_train, h_test = encode_splits(config, standardizer, train_ds, test_ds, 128)
    spec = config.models[0]
    clf, _ = fit_model(spec, spec.kind, config, encoder, standardizer,
                       h_train, train_ds.labels, h_test, test_ds.labels, 4)
    scores, bound = fold_oracle(clf, test_ds.features)
    top2 = np.sort(scores, axis=1)[:, -2:]
    clear = top2[:, 1] - top2[:, 0] > 2 * bound
    assert clear.mean() > 0.9
    np.testing.assert_array_equal(clf.predict_batch(test_ds.features)[clear], np.argmax(scores, axis=1)[clear])


# Every settable config field; a key added or removed changes what
# configs and manifests load, so it must be changed here on purpose.
CONFIG_SCHEMA = {
    ExperimentConfig: ["name", "root_seed", "data", "models", "train", "dims", "precisions", "noise",
                       "output_dir"],
    DataSpec: ["name", "train_csv", "test_csv", "synthetic"],
    ModelSpec: ["kind", "channels", "latent_dim", "epochs", "learning_rate", "budget", "base"],
    TrainConfig: ["learning_rate", "weight_decay", "epochs", "batch_size", "microbatch_size", "eval_every"],
}


@pytest.mark.parametrize("spec, message", [
    (dict(kind="tree"), "model kind 'tree' not one of ('decohd', 'prototype', 'onlinehd', 'sparsehd')"),
    (dict(kind="sparsehd", base="decohd"), "sparsehd base must be 'onlinehd' or 'prototype'"),
], ids=["unknown-kind", "unknown-base"])
def test_a_model_spec_refuses_an_unknown_kind_or_base(spec, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ModelSpec(**spec)


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


@pytest.mark.parametrize("raw, message", [
    (b'{"data": {"synthetic": {}}, "dims": [16], "dims": [32]}', "key 'dims' repeated in one object"),
    (b'{"data": {"synthetic": {"num_classes": 3, "num_classes": 4}}}', "key 'num_classes' repeated in one object"),
    (b'{"data": {"synthetic": {}}, "name": "caf\xe9"}', "not UTF-8 text: "),
], ids=["repeated-key", "repeated-nested-key", "not-utf8"])
def test_a_config_with_a_repeated_key_or_bytes_not_utf8_is_refused_naming_its_path(tmp_path, raw, message):
    path = tmp_path / "config.json"
    path.write_bytes(raw)
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: {re.escape(message)}"):
        load_config(str(path))


def test_a_config_that_starts_with_a_bom_loads_as_without_it(tmp_path):
    text = json.dumps({"data": {"synthetic": {}}, "dims": [16], "name": "caf\u00e9"}, ensure_ascii=False)
    plain, bom = tmp_path / "plain.json", tmp_path / "bom.json"
    plain.write_bytes(text.encode())
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert load_config(str(bom)) == load_config(str(plain))
    assert load_config(str(bom)).name == "caf\u00e9"


@pytest.mark.parametrize("below", ["", "sub"], ids=["a-file", "below-a-file"])
def test_run_experiment_refuses_an_output_dir_that_cannot_be_created(tmp_path, below):
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n", encoding="utf-8")
    out = str(blocker / below)  # "" names the file itself
    config = dataclasses.replace(tiny_config(), output_dir=out)
    with pytest.raises(ConfigError, match=f"^cannot create output directory {re.escape(out)}: "):
        run_experiment(config)
    assert sorted(os.listdir(tmp_path)) == ["blocker"] and blocker.read_text(encoding="utf-8") == "kept\n"


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
    # of epochs and whether or not the last one evaluated: its channels
    # are the deployed ones, so nothing is drawn again.
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


def test_evaluation_holds_no_fit_stage_array(tmp_path, monkeypatch):
    # At each D no encoder matrix is alive from the first fit on, and the
    # training encodings are dead by the first quantized copy of the test
    # encodings and by the bit-flip sweep; every accuracy is still that of
    # the saved container.  Drawn matrices are seen where they are drawn:
    # reading encoder.matrix would draw one.
    config = dataclasses.replace(tiny_config(), dims=(32, 64), precisions=("fp32", "bf16"),
                                 noise={"p_grid": [0.0, 1e-2], "trials": 1})
    drawn, fit_stage, checked = [], [], []  # weakrefs to every drawn matrix, to h_train per D; the checks made

    def draw(*args, **kwargs):
        matrix = generate_matrix(*args, **kwargs)
        drawn.append(weakref.ref(matrix))
        return matrix

    def encode(*args):
        encoder, h_train, h_test = encode_splits(*args)
        fit_stage.append(weakref.ref(h_train))
        return encoder, h_train, h_test

    def check(stage):
        if (stage, len(fit_stage)) in checked:
            return
        gc.collect()
        alive = [f"matrix {i}" for i, ref in enumerate(drawn) if ref() is not None]
        if stage != "fit" and fit_stage[-1]() is not None:
            alive.append("h_train")
        assert not alive, f"{alive} alive at {stage}"
        checked.append((stage, len(fit_stage)))

    def fit(*args):
        check("fit")
        return fit_model(*args)

    def first_quantize(a, fmt):
        check("quantize")
        return quantize_array(a, fmt)

    def sweep(*args):
        check("robustness")
        return robustness_sweep(*args)

    monkeypatch.setattr(encoding, "generate_matrix", draw)
    monkeypatch.setattr(experiment, "encode_splits", encode)
    monkeypatch.setattr(experiment, "fit_model", fit)
    monkeypatch.setattr(experiment, "quantize_array", first_quantize)
    monkeypatch.setattr(experiment, "robustness_sweep", sweep)
    run_experiment(config, output_dir=str(tmp_path))
    assert len(drawn) == 2  # one draw per D, by its encode_splits
    assert checked == [(stage, d) for d in (1, 2) for stage in ("fit", "quantize", "robustness")]

    _, test_ds = prepare_data(config.data, config.root_seed)
    rows = read(tmp_path / "results.csv")
    assert len(rows) == len(config.models) * 2 * 2
    for row in rows:
        clf = load_classifier(tmp_path / "models" / f"{row['model']}_D{row['D']}.npz")
        h = clf.encoder.encode_batch(test_ds.features, clf.standardizer)
        fmt = get_format(row["precision"])
        acc = accuracy(quantize_model(clf.scorer, fmt), quantize_array(h, fmt), test_ds.labels)
        assert row["accuracy"] == format(acc, ".10g"), row


def test_a_dimension_holds_nothing_of_the_one_before(tmp_path, monkeypatch):
    # When the next D starts to encode, the test encodings, deployed
    # scorers and quantized test encodings of the D before are dead.
    config = dataclasses.replace(tiny_config(), dims=(32, 64), precisions=("fp32", "bf16"),
                                 noise={"p_grid": [0.0, 1e-2], "trials": 1})
    previous, checked = [], []  # (name, weakref) of the D before; the Ds checked

    def encode(*args):
        gc.collect()
        alive = [name for name, ref in previous if ref() is not None]
        assert not alive, f"{alive} alive at encode-D{args[-1]}"
        checked.append(args[-1])
        encoder, h_train, h_test = encode_splits(*args)
        previous[:] = [("h_test", weakref.ref(h_test))]
        return encoder, h_train, h_test

    def fit(spec, label, *args):
        clf, history = fit_model(spec, label, *args)
        previous.append((f"{label} scorer", weakref.ref(clf.scorer)))
        return clf, history

    def quantize(a, fmt):
        q_h = quantize_array(a, fmt)
        previous.append((f"{fmt.name} test encodings", weakref.ref(q_h)))
        return q_h

    def sweep(scorers, h_test, *args):
        # The bit-flip sweep starts with no quantized test encoding alive.
        gc.collect()
        alive = [name for name, ref in previous if name.endswith("test encodings") and ref() is not None]
        assert not alive, f"{alive} alive at robustness-D{h_test.shape[1]}"
        swept.append(h_test.shape[1])
        return robustness_sweep(scorers, h_test, *args)

    swept = []
    monkeypatch.setattr(experiment, "encode_splits", encode)
    monkeypatch.setattr(experiment, "fit_model", fit)
    monkeypatch.setattr(experiment, "quantize_array", quantize)
    monkeypatch.setattr(experiment, "robustness_sweep", sweep)
    run_experiment(config, output_dir=str(tmp_path))
    assert checked == swept == [32, 64]
    assert [name for name, _ in previous] == ["h_test", *(f"{label} scorer" for label in config.model_labels()),
                                              "bf16 test encodings"]


@pytest.mark.parametrize("kinds, builds", [(("decohd", "prototype", "onlinehd", "sparsehd"), 1),
                                            (("decohd", "sparsehd"), 1), (("decohd",), 0)],
                         ids=["every_kind", "one_table_kind", "decohd_only"])
def test_one_class_sum_table_per_dimension(tmp_path, monkeypatch, kinds, builds):
    # Every table kind starts from one table of the dimension's class sums,
    # built once; a decohd-only run builds none.
    models = [m for m in tiny_config().models if m.kind in kinds]
    config = dataclasses.replace(tiny_config(), models=tuple(models), dims=(32, 64), precisions=("fp32",),
                                 noise={"p_grid": [0.0], "trials": 1})
    built = []

    def build(h, labels, num_classes):
        built.append(h.shape[1])
        return build_prototype_table(h, labels, num_classes)

    monkeypatch.setattr(experiment, "build_prototype_table", build)
    run_experiment(config, output_dir=str(tmp_path))
    assert built == [32] * builds + [64] * builds


AT_D64 = {  # a call of each stage's function at D=64, by its arguments
    "encode_splits": lambda *args: args[-1] == 64,
    "fit_model": lambda spec, label, config, encoder, *args: label == "onlinehd" and encoder.config.dim == 64,
    "quantize_model": lambda scorer, fmt: scorer.dim == 64,
    "robustness_sweep": lambda scorers, h_test, *args: h_test.shape[1] == 64,
}


@pytest.mark.parametrize("fail, stage", [("encode_splits", "encode-D64"), ("fit_model", "train-onlinehd-D64"),
                                         ("quantize_model", "eval-decohd-D64"),
                                         ("robustness_sweep", "robustness-D64")],
                         ids=["encode", "train", "eval", "robustness"])
def test_a_failing_stage_of_a_later_dimension_is_named(tmp_path, monkeypatch, fail, stage):
    # The failure manifest names the stage of the second D that failed,
    # and the first D's containers are on disk.
    config = dataclasses.replace(tiny_config(), dims=(32, 64), precisions=("fp32",),
                                 noise={"p_grid": [0.0], "trials": 1})
    real = getattr(experiment, fail)

    def failing(*args):
        if AT_D64[fail](*args):
            raise RuntimeError("refused")
        return real(*args)

    monkeypatch.setattr(experiment, fail, failing)
    with pytest.raises(RuntimeError, match="refused"):
        run_experiment(config, output_dir=str(tmp_path))
    failure = json.loads((tmp_path / "failure_manifest.json").read_text(encoding="utf-8"))
    assert failure == {"error": "RuntimeError: refused", "stage": stage}
    assert {f"{label}_D32.npz" for label in config.model_labels()} <= set(os.listdir(tmp_path / "models"))


def test_a_sweep_into_a_used_directory_leaves_no_output_of_an_earlier_run(tmp_path, monkeypatch):
    # A decohd sweep with a p-grid, then a run that fails, then a
    # prototype sweep with none, all into one directory: each run's
    # outputs are its own, and only the containers of earlier runs stay.
    first = dataclasses.replace(tiny_config(), precisions=("fp32",), noise={"p_grid": [0.0], "trials": 1})
    run_experiment(first, output_dir=str(tmp_path))
    assert {"robustness.csv", "history.csv", "manifest.json"} <= set(os.listdir(tmp_path))

    def failing(*args):
        raise RuntimeError("refused")

    with monkeypatch.context() as patch:
        patch.setattr(experiment, "fit_model", failing)
        with pytest.raises(RuntimeError, match="refused"):
            run_experiment(first, output_dir=str(tmp_path))
    assert sorted(os.listdir(tmp_path)) == ["failure_manifest.json", "models"]

    last = dataclasses.replace(tiny_config(), models=({"kind": "prototype"},), precisions=("fp32",), noise={})
    run_experiment(last, output_dir=str(tmp_path))
    assert sorted(os.listdir(tmp_path)) == ["manifest.json", "models", "precision.csv", "results.csv"]
    assert [r["model"] for r in read(tmp_path / "results.csv")] == ["prototype"]
    assert sorted(os.listdir(tmp_path / "models")) == sorted(f"{label}_D64.npz" for label in first.model_labels())


@pytest.mark.parametrize("num_classes, num_features, dim", [(4, 16, 256), (8, 32, 512)],
                         ids=["C4-F16-D256", "C8-F32-D512"])
def test_decohd_learns_within_a_tenth_of_the_prototype_table(num_classes, num_features, dim):
    # The fidelity gate: on separable blobs a trained decohd's test
    # accuracy stays within 0.10 of the prototype table's, at every seed.
    # Eight paths: C=4 below them, C=8 at them.  Scoring <P_c, h*h>
    # instead fails it by 0.2 or more.
    for seed in (1, 2, 3):
        config = ExperimentConfig(
            root_seed=seed,
            data={"synthetic": {"num_classes": num_classes, "num_features": num_features,
                                "samples_per_class": 60, "separation": 3.0}},
            models=({"kind": "decohd", "channels": [2, 2, 2], "latent_dim": 64}, {"kind": "prototype"}),
            train={"epochs": 20, "batch_size": 64, "learning_rate": 0.05},
            dims=(dim,),
        )
        train_ds, test_ds = prepare_data(config.data, config.root_seed)
        standardizer = fit_standardizer(train_ds.features)
        encoder, h_train, h_test = encode_splits(config, standardizer, train_ds, test_ds, dim)
        decohd, table = (
            accuracy(fit_model(spec, spec.kind, config, encoder, standardizer, h_train, train_ds.labels,
                               h_test, test_ds.labels, num_classes)[0].scorer, h_test, test_ds.labels)
            for spec in config.models
        )
        assert decohd >= table - 0.10, (seed, decohd, table)


def test_a_trained_or_loaded_model_is_never_rebuilt_from_its_latents(monkeypatch, tmp_path):
    # A model built from latents expands them through the dense projectors
    # of stream_channels, not the matrix-free ones they were trained
    # through, and scores h*h: fit_model, load_classifier and decohd train
    # must deploy the trained bank itself.
    def refuse(*args, **kwargs):
        raise AssertionError("a model was rebuilt from latents")

    monkeypatch.setattr(model, "stream_channels", refuse)
    monkeypatch.setattr(model.DecoHDClassifier, "__init__", refuse)
    for module in (cli, experiment, serialize, training):
        assert not hasattr(module, "stream_channels") and not hasattr(module, "DecoHDClassifier")
    config = ExperimentConfig(
        data={"synthetic": {"num_classes": 3, "num_features": 8, "samples_per_class": 20}},
        models=({"kind": "decohd", "channels": [2, 2], "latent_dim": 8},),
        train={"epochs": 2, "batch_size": 16, "microbatch_size": 8},
        dims=(64,),
    )
    train_ds, test_ds = prepare_data(config.data, config.root_seed)
    standardizer = fit_standardizer(train_ds.features)
    encoder, h_train, h_test = encode_splits(config, standardizer, train_ds, test_ds, 64)
    spec = config.models[0]
    clf, _ = fit_model(spec, spec.kind, config, encoder, standardizer,
                       h_train, train_ds.labels, h_test, test_ds.labels, 3)
    assert type(clf) is Classifier and clf.scorer.bank.squared is False
    save_classifier(tmp_path / "fit.npz", clf)
    loaded = load_classifier(tmp_path / "fit.npz")
    assert type(loaded) is Classifier and loaded.scorer.bank.squared is False
    np.testing.assert_array_equal(loaded.predict_batch(test_ds.features), clf.predict_batch(test_ds.features))

    csvs = [str(tmp_path / "train.csv"), str(tmp_path / "test.csv")]
    for path, ds in zip(csvs, (train_ds, test_ds)):
        save_csv(path, ds)
    assert cli.main(["train", "--train-csv", csvs[0], "--test-csv", csvs[1], "--output", str(tmp_path / "cli.npz"),
                     "--dim", "64", "--latent-dim", "8", "--channels", "2,2", "--epochs", "2"]) == 0
    assert load_classifier(tmp_path / "cli.npz").scorer.bank.squared is False


OUTPUT_NAMES = ["results.csv", "precision.csv", "robustness.csv", "history.csv", "manifest.json",
                "failure_manifest.json"]


@pytest.mark.parametrize("source", ["config", "argument"])
def test_run_experiment_refuses_an_empty_output_dir_and_removes_nothing(tmp_path, monkeypatch, source):
    # "" would name the working directory, whose earlier outputs a run removes.
    monkeypatch.chdir(tmp_path)
    for name in OUTPUT_NAMES:
        (tmp_path / name).write_text("kept\n", encoding="utf-8")
    config = dataclasses.replace(tiny_config(), output_dir="" if source == "config" else str(tmp_path / "out"))
    with pytest.raises(ConfigError, match="^an empty output directory names no place to write$"):
        run_experiment(config, output_dir="" if source == "argument" else None)
    assert sorted(os.listdir(tmp_path)) == sorted(OUTPUT_NAMES)
    assert all((tmp_path / name).read_text(encoding="utf-8") == "kept\n" for name in OUTPUT_NAMES)


@pytest.mark.parametrize("name", [*OUTPUT_NAMES, os.path.join("models", "sparsehd_D64.npz")])
def test_run_experiment_refuses_a_directory_at_an_output_name_and_removes_nothing(tmp_path, name):
    out = tmp_path / "out"
    out.mkdir()
    for other in OUTPUT_NAMES:
        if other != name:
            (out / other).write_text("kept\n", encoding="utf-8")
    (out / name).mkdir(parents=True)
    path = re.escape(str(out / name))
    with pytest.raises(ConfigError, match=f"^{path} is a directory, not an output file$"):
        run_experiment(tiny_config(), output_dir=str(out))
    made = ["models"] if name not in OUTPUT_NAMES else []  # no models/ unless the test made it
    assert sorted(os.listdir(out)) == sorted(OUTPUT_NAMES + made)
    assert all((out / other).read_text(encoding="utf-8") == "kept\n" for other in OUTPUT_NAMES if other != name)
