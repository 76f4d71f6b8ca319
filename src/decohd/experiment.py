"""Experiment orchestration: config files, sweeps, and result emission.

A run is fully described by one JSON config; the manifest written next
to the results contains the resolved config plus every derived seed, and
re-running from the manifest reproduces the run bit-exactly (modulo the
wall-clock column of the history file).  Unknown config keys are errors:
silent typos in sweep grids are the main operational hazard.  At every
precision but fp32 the test encodings are rounded to the format before
they are scored, as the models' stored arrays are.

Output files (all UTF-8 CSV with header rows):

* results.csv     model, m_budget, precision, D, accuracy
* precision.csv   model_kind, format_name, D, test_accuracy
* robustness.csv  model_kind, p_flip, trial, test_accuracy
* history.csv     model, epoch, mean_loss, train_accuracy,
                  test_accuracy, wall_seconds
"""

from __future__ import annotations

import csv
import json
import os
from collections.abc import Sequence
from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np

from . import __version__
from .baselines import Classifier, build_prototype_table, onlinehd_refine, sparsify_table
from .budget import budget_of
from .data import Dataset, ParseError, load_csv, make_synthetic
from .encoding import EncoderConfig, RandomProjectionEncoder, Standardizer, fit_standardizer
from .faults import ROBUSTNESS_COLUMNS, robustness_sweep
from .model import ChannelBank, DecoHDClassifier, ModelConfig, accuracy
from .ops import MATRIX_KINDS, derive_seed
from .precision import get_format, quantize_array, quantize_model
from .serialize import save_classifier
from .training import EpochStats, TrainConfig, train

MODEL_KINDS = ("decohd", "prototype", "onlinehd", "sparsehd")


class ConfigError(ValueError):
    """Malformed experiment configuration."""


def _from_dict(cls, data: dict, context: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{context}: expected an object, got {type(data).__name__}")
    allowed = {f.name for f in fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}; allowed: {sorted(allowed)}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


@dataclass(frozen=True)
class SyntheticSpec:
    num_classes: int = 4
    num_features: int = 16
    samples_per_class: int = 200
    separation: float = 3.0


@dataclass(frozen=True)
class DataSpec:
    name: str = "synthetic"
    train_csv: str | None = None
    test_csv: str | None = None
    synthetic: SyntheticSpec | dict | None = None

    def __post_init__(self):
        if isinstance(self.synthetic, dict):
            object.__setattr__(self, "synthetic", _from_dict(SyntheticSpec, self.synthetic, "data.synthetic"))
        has_csv = self.train_csv is not None and self.test_csv is not None
        if has_csv == (self.synthetic is not None):
            raise ConfigError("data: give either train_csv+test_csv or synthetic, not both")


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    channels: tuple[int, ...] = (2,)  # decohd
    latent_dim: int = 4096  # decohd
    epochs: int = 200  # onlinehd refinement passes
    learning_rate: float = 0.1  # onlinehd
    budget: float = 0.5  # sparsehd retained fraction
    base: str = "onlinehd"  # sparsehd: table to sparsify

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ConfigError(f"model kind {self.kind!r} not one of {MODEL_KINDS}")
        if self.base not in ("onlinehd", "prototype"):
            raise ConfigError("sparsehd base must be 'onlinehd' or 'prototype'")
        object.__setattr__(self, "channels", tuple(int(c) for c in self.channels))
        if not self.channels or min(self.channels) < 1 or self.latent_dim < 1:
            raise ConfigError("decohd needs at least one layer, every layer >= 1 channel, latent_dim >= 1")
        if not 0.0 < self.budget <= 1.0:
            raise ConfigError("sparsehd budget must be in (0, 1]")


@dataclass(frozen=True)
class NoiseConfig:
    p_grid: tuple[float, ...] = ()
    trials: int = 5

    def __post_init__(self):
        object.__setattr__(self, "p_grid", tuple(float(p) for p in self.p_grid))
        if self.trials < 1 or not all(0.0 <= p <= 1.0 for p in self.p_grid):
            raise ConfigError(f"need trials >= 1 and every p in [0, 1], got {self.trials} and {self.p_grid}")


@dataclass(frozen=True)
class ExperimentConfig:
    name: str = "experiment"
    root_seed: int = 0
    data: DataSpec | dict = field(default_factory=DataSpec)
    models: tuple = (ModelSpec(kind="prototype"),)
    train: TrainConfig | dict = field(default_factory=TrainConfig)
    encoder_kind: str = "gaussian"
    dims: tuple[int, ...] = (10000,)
    precisions: tuple[str, ...] = ("fp32",)
    noise: NoiseConfig | dict = field(default_factory=NoiseConfig)
    output_dir: str = "results"

    def __post_init__(self):
        if isinstance(self.data, dict):
            object.__setattr__(self, "data", _from_dict(DataSpec, self.data, "data"))
        if isinstance(self.train, dict):
            object.__setattr__(self, "train", _from_dict(TrainConfig, self.train, "train"))
        if isinstance(self.noise, dict):
            object.__setattr__(self, "noise", _from_dict(NoiseConfig, self.noise, "noise"))
        models = []
        for i, m in enumerate(self.models):
            models.append(_from_dict(ModelSpec, m, f"models[{i}]") if isinstance(m, dict) else m)
        object.__setattr__(self, "models", tuple(models))
        if self.encoder_kind not in MATRIX_KINDS:
            raise ConfigError(f"encoder_kind {self.encoder_kind!r} not one of {MATRIX_KINDS}")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if any(d < 1 for d in self.dims):
            raise ConfigError(f"dims must be >= 1, got {self.dims}")
        object.__setattr__(self, "precisions", tuple(self.precisions))
        for p in self.precisions:
            get_format(p)  # validate early

    def model_labels(self) -> list[str]:
        """A model's kind, or ``kind<n>`` for the n-th of several models
        of one kind; no kind ends in a digit, so labels are unique."""
        counts = {}
        for m in self.models:
            counts[m.kind] = counts.get(m.kind, 0) + 1
        seen = {}
        labels = []
        for m in self.models:
            if counts[m.kind] == 1:
                labels.append(m.kind)
            else:
                seen[m.kind] = seen.get(m.kind, 0) + 1
                labels.append(f"{m.kind}{seen[m.kind]}")
        return labels


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if isinstance(raw, dict) and "config" in raw and "derived_seeds" in raw:
        raw = raw["config"]  # manifests reload as configs
    return _from_dict(ExperimentConfig, raw, "config")


# ---------------------------------------------------------------------------
# Pipelines


def check_width(dataset: Dataset, num_features: int, path: str) -> None:
    """A :class:`ParseError` unless *dataset*, read from *path*, is *num_features* wide."""
    if dataset.num_features != num_features:
        raise ParseError(f"{path}: {dataset.num_features} feature columns, expected {num_features}")


def prepare_data(spec: DataSpec, root_seed: int) -> tuple[Dataset, Dataset]:
    """The (train, test) pair of *spec*; a test CSV must fit the train CSV."""
    if spec.synthetic is not None:
        s = spec.synthetic
        train_ds, test_ds = make_synthetic(
            s.num_classes,
            s.num_features,
            s.samples_per_class,
            s.separation,
            seed=derive_seed(root_seed, "data"),
            name=spec.name,
        )
    else:
        train_ds = load_csv(spec.train_csv, name=spec.name, split="train")
        test_ds = load_csv(spec.test_csv, name=spec.name, split="test", num_classes=train_ds.num_classes)
        check_width(test_ds, train_ds.num_features, spec.test_csv)
    return train_ds, test_ds


def build_encoder(config: ExperimentConfig, num_features: int, dim: int) -> RandomProjectionEncoder:
    return RandomProjectionEncoder(
        EncoderConfig(
            num_features=num_features,
            dim=dim,
            kind=config.encoder_kind,
            seed=derive_seed(config.root_seed, "encoder", dim),
        )
    )


def encode_splits(
    config: ExperimentConfig, standardizer: Standardizer, train_ds: Dataset, test_ds: Dataset, dim: int
):
    """Build the encoder of dimension *dim* and encode both splits with
    a standardizer fitted once on the train split; returns (encoder,
    h_train, h_test)."""
    encoder = build_encoder(config, train_ds.num_features, dim)
    h_train = encoder.encode_batch(train_ds.features, standardizer)
    h_test = encoder.encode_batch(test_ds.features, standardizer)
    return encoder, h_train, h_test


def fit_model(
    spec: ModelSpec,
    label: str,
    config: ExperimentConfig,
    encoder: RandomProjectionEncoder,
    standardizer,
    h_train: np.ndarray,
    y_train: np.ndarray,
    h_test: np.ndarray,
    y_test: np.ndarray,
    num_classes: int,
):
    """Train one model; returns (classifier, history).  The deployed
    form is ``classifier.scorer``."""
    if spec.kind == "decohd":
        model_cfg = ModelConfig(
            channels_per_layer=spec.channels,
            latent_dim=spec.latent_dim,
            dim=encoder.config.dim,
            num_classes=num_classes,
            seed=derive_seed(config.root_seed, "model", label, encoder.config.dim),
        )
        result = train(model_cfg, config.train, h_train, y_train, h_test, y_test)
        # Reuse the trained channels but not the path basis the evaluation
        # kept: run_experiment scores only quantized or bit-flipped copies
        # of this bank, so its own basis is built on first use, if ever.
        bank = ChannelBank(result.bank.channels) if result.bank is not None else None
        clf = DecoHDClassifier(
            encoder=encoder, standardizer=standardizer, config=model_cfg, params=result.params,
            _bank=bank,
        )
        return clf, result.history

    table = build_prototype_table(h_train, y_train, num_classes)
    if spec.kind == "onlinehd" or (spec.kind == "sparsehd" and spec.base == "onlinehd"):
        table = onlinehd_refine(
            table,
            h_train,
            y_train,
            epochs=spec.epochs,
            learning_rate=spec.learning_rate,
            seed=derive_seed(config.root_seed, "refine", label),
        )
    if spec.kind == "sparsehd":
        return Classifier(encoder, standardizer, sparsify_table(table, spec.budget), spec.kind), []
    return Classifier(encoder, standardizer, table, spec.kind), []


def write_csv(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    def fmt(v):
        if isinstance(v, float):
            return format(v, ".10g")
        return v

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


@dataclass
class ExperimentResult:
    output_dir: str
    results_csv: str
    manifest_path: str
    accuracies: dict  # (label, precision, dim) -> accuracy


def run_experiment(config: ExperimentConfig, output_dir: str | None = None) -> ExperimentResult:
    """Train every requested model at every dimension, evaluate under
    the precision and noise sweeps, and write results plus a manifest.

    Any stage failure still leaves the partial outputs on disk together
    with a ``failure_manifest.json`` naming the stage, then re-raises.
    """
    out = output_dir or config.output_dir
    os.makedirs(out, exist_ok=True)
    models_dir = os.path.join(out, "models")
    os.makedirs(models_dir, exist_ok=True)

    labels = config.model_labels()
    stage = "prepare-data"
    derived_seeds: dict[str, int] = {}
    result_rows = []
    precision_rows = []
    robustness_rows = []
    history_rows = []
    accuracies = {}
    try:
        train_ds, test_ds = prepare_data(config.data, config.root_seed)
        standardizer = fit_standardizer(train_ds.features)
        for dim in config.dims:
            stage = f"encode-D{dim}"
            encoder, h_train, h_test = encode_splits(config, standardizer, train_ds, test_ds, dim)
            derived_seeds[f"encoder_D{dim}"] = encoder.config.seed
            scorers = {}
            for spec, label in zip(config.models, labels):
                stage = f"train-{label}-D{dim}"
                clf, history = fit_model(
                    spec, label, config, encoder, standardizer,
                    h_train, train_ds.labels, h_test, test_ds.labels, train_ds.num_classes,
                )
                if spec.kind == "decohd":
                    derived_seeds[f"model_{label}_D{dim}"] = clf.config.seed
                scorers[label] = clf.scorer
                save_classifier(os.path.join(models_dir, f"{label}_D{dim}.npz"), clf)
                history_rows += [[label, *astuple(h)] for h in history]
            # Every model is scored against the same test encodings, so they
            # are quantized once per precision, by the first evaluation.
            for precision in config.precisions:
                fmt = get_format(precision)
                q_h = None
                for label, scorer in scorers.items():
                    stage = f"eval-{label}-D{dim}"
                    if q_h is None:
                        q_h = quantize_array(h_test, fmt) if fmt.name != "fp32" else h_test
                    acc = accuracy(quantize_model(scorer, fmt), q_h, test_ds.labels)
                    accuracies[(label, precision, dim)] = acc
                    result_rows.append([label, budget_of(scorer), precision, dim, acc])
                    precision_rows.append([label, precision, dim, acc])
            if config.noise.p_grid:
                stage = f"robustness-D{dim}"
                noise_seed = derive_seed(config.root_seed, "noise", dim)
                derived_seeds[f"noise_D{dim}"] = noise_seed
                robustness_rows += robustness_sweep(
                    scorers, h_test, test_ds.labels, config.noise.p_grid, config.noise.trials, noise_seed
                )
        stage = "write-results"
        result_rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
        precision_rows.sort(key=lambda r: (r[0], r[1], r[2]))
        robustness_rows.sort(key=lambda r: (r[0], r[1], r[2]))
        results_csv = os.path.join(out, "results.csv")
        write_csv(results_csv, ["model", "m_budget", "precision", "D", "accuracy"], result_rows)
        write_csv(
            os.path.join(out, "precision.csv"),
            ["model_kind", "format_name", "D", "test_accuracy"],
            precision_rows,
        )
        if robustness_rows:
            write_csv(os.path.join(out, "robustness.csv"), ROBUSTNESS_COLUMNS, robustness_rows)
        if history_rows:
            header = ["model", *(f.name for f in fields(EpochStats))]
            write_csv(os.path.join(out, "history.csv"), header, history_rows)
        manifest_path = os.path.join(out, "manifest.json")
        manifest = {
            "package_version": __version__,
            "config": asdict(config),
            "derived_seeds": derived_seeds,
            "dataset": {
                "name": train_ds.name,
                "num_features": train_ds.num_features,
                "num_classes": train_ds.num_classes,
                "num_train": train_ds.num_samples,
                "num_test": test_ds.num_samples,
            },
            "model_labels": labels,
        }
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except Exception as exc:
        failure = {"stage": stage, "error": f"{type(exc).__name__}: {exc}"}
        with open(os.path.join(out, "failure_manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(failure, fh, indent=2, sort_keys=True)
            fh.write("\n")
        raise
    return ExperimentResult(
        output_dir=out,
        results_csv=results_csv,
        manifest_path=manifest_path,
        accuracies=accuracies,
    )
