"""Experiment orchestration: config files, sweeps, and result emission.

A run is fully described by one JSON config; the manifest written next
to the results holds the resolved config, whose root_seed every random
stream derives from, and re-running from the manifest reproduces the
run bit-exactly (modulo the wall-clock column of the history file).
Unknown config keys are errors: silent typos in sweep grids are the
main operational hazard.  A config error names the key path of the
value refused, once, as in ``data.synthetic.num_classes`` or
``models[1].channels[0]``.  At every precision but fp32 the test
encodings are rounded to the format before they are scored, as the
models' stored arrays are.

Output files (all UTF-8 CSV with header rows):

* results.csv     model, m_budget, precision, D, accuracy
* precision.csv   model_kind, format_name, D, test_accuracy
* robustness.csv  model_kind, D, p_flip, trial, test_accuracy
* history.csv     model, epoch, mean_loss, train_accuracy,
                  test_accuracy, wall_seconds
"""

from __future__ import annotations

import csv
import json
import math
import os
import types
import typing
from collections.abc import Sequence
from dataclasses import asdict, astuple, dataclass, field, fields, is_dataclass

import numpy as np

from . import __version__
from .baselines import MODEL_KINDS, build_prototype_table, onlinehd_refine, sparsify_table
from .budget import budget_of
from .data import Dataset, ParseError, load_csv, make_synthetic
from .encoding import EncoderConfig, RandomProjectionEncoder, Standardizer, fit_standardizer
from .faults import ROBUSTNESS_COLUMNS, robustness_sweep
from .inference import DecomposedScorer
from .model import ChannelBank, Classifier, ModelConfig, accuracy
from .ops import derive_seed
from .precision import PRESETS, get_format, quantize_array, quantize_model
from .serialize import save_classifier
from .training import EpochStats, TrainConfig, train


class ConfigError(ValueError):
    """Malformed experiment configuration."""


_JSON_TYPES = {int: ("an integer", int), float: ("a number", (int, float)), str: ("a string", str),
               tuple: ("a list", (list, tuple))}


def _build(hint, value, key: str):
    """*value*, from JSON or Python, as the field annotation *hint* at *key*
    takes it: a list as a tuple of built items, an object as its spec with
    each field built under ``key.field``, a number as a float where a float
    is expected (a bool is no number); anything else is a ConfigError."""
    options = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
    if value is None and type(None) in options:
        return None
    hint = options[0]
    origin = typing.get_origin(hint) or hint
    if is_dataclass(origin) and isinstance(value, origin):  # a spec built in Python
        return value
    expected, accepted = _JSON_TYPES.get(origin, ("an object", dict))
    if not isinstance(value, accepted) or isinstance(value, bool):
        raise ConfigError(f"{key}: expected {expected}, got {type(value).__name__}")
    if origin is tuple:
        return tuple(_build(typing.get_args(hint)[0], item, f"{key}[{i}]") for i, item in enumerate(value))
    if not is_dataclass(origin):
        return float(value) if origin is float else value
    hints = typing.get_type_hints(origin)  # one per field
    unknown = value.keys() - hints.keys()
    if unknown:
        raise ConfigError(f"{key}: unknown keys {sorted(unknown)}; allowed: {sorted(hints)}")
    built = {name: _build(hints[name], item, name if key == "config" else f"{key}.{name}")
             for name, item in value.items()}
    try:
        return origin(**built)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


@dataclass(frozen=True)
class SyntheticSpec:
    num_classes: int = 4
    num_features: int = 16
    samples_per_class: int = 200
    separation: float = 3.0

    def __post_init__(self):
        if self.num_classes < 2 or self.num_features < 1 or self.samples_per_class < 1:  # as make_synthetic
            raise ValueError("need num_classes >= 2, num_features >= 1 and samples_per_class >= 1")
        if not 0.0 <= self.separation < math.inf:
            raise ValueError(f"separation must be finite and >= 0, got {self.separation}")


@dataclass(frozen=True)
class DataSpec:
    name: str | None = None
    train_csv: str | None = None
    test_csv: str | None = None
    synthetic: SyntheticSpec | dict | None = None

    def __post_init__(self):
        object.__setattr__(self, "synthetic", _build(SyntheticSpec | None, self.synthetic, "data.synthetic"))
        has_csv = self.train_csv is not None and self.test_csv is not None
        if has_csv == (self.synthetic is not None):
            raise ValueError("give either train_csv+test_csv or synthetic, not both")


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
            raise ValueError(f"model kind {self.kind!r} not one of {MODEL_KINDS}")
        if self.base not in ("onlinehd", "prototype"):
            raise ValueError("sparsehd base must be 'onlinehd' or 'prototype'")
        if not self.channels or min(self.channels) < 1 or self.latent_dim < 1:
            raise ValueError("decohd needs at least one layer, every layer >= 1 channel, latent_dim >= 1")
        if not 0.0 < self.budget <= 1.0:
            raise ValueError("sparsehd budget must be in (0, 1]")
        if self.epochs < 0 or not 0.0 <= self.learning_rate < math.inf:
            raise ValueError("onlinehd refinement needs epochs >= 0 and a finite learning_rate >= 0")


@dataclass(frozen=True)
class NoiseConfig:
    p_grid: tuple[float, ...] = ()
    trials: int = 5

    def __post_init__(self):
        if self.trials < 1 or not all(0.0 <= p <= 1.0 for p in self.p_grid):
            raise ValueError(f"need trials >= 1 and every p in [0, 1], got {self.trials} and {self.p_grid}")
        if len(set(self.p_grid)) < len(self.p_grid):
            raise ValueError(f"p_grid repeats a value: {self.p_grid}")


@dataclass(frozen=True)
class ExperimentConfig:
    name: str = "experiment"
    root_seed: int = 0
    data: DataSpec | dict = field(default_factory=dict)  # DataSpec() has no data; refused under "data"
    models: tuple[ModelSpec | dict, ...] = (ModelSpec(kind="prototype"),)
    train: TrainConfig | dict = field(default_factory=TrainConfig)
    dims: tuple[int, ...] = (10000,)
    precisions: tuple[str, ...] = ("fp32",)
    noise: NoiseConfig | dict = field(default_factory=NoiseConfig)
    output_dir: str = "results"

    def __post_init__(self):
        for name, hint in typing.get_type_hints(ExperimentConfig).items():
            object.__setattr__(self, name, _build(hint, getattr(self, name), name))
        for name in ("models", "dims", "precisions"):
            values = getattr(self, name)
            if not values:
                raise ConfigError(f"{name}: expected at least one entry")
            if name != "models" and len(set(values)) < len(values):  # repeated models get labels kind1, kind2
                raise ConfigError(f"{name}: repeats a value: {values}")
        if min(self.dims) < 1:
            raise ConfigError(f"dims: every value must be >= 1, got {self.dims}")
        unknown = sorted(set(self.precisions) - PRESETS.keys())
        if unknown:
            raise ConfigError(f"precisions: unknown formats {unknown}; presets: {sorted(PRESETS)}")
        for i, m in enumerate(self.models):
            for d in self.dims if m.kind == "sparsehd" else ():
                if int(np.floor(m.budget * d)) < 1:  # as sparsify_table keeps
                    raise ConfigError(f"models[{i}]: sparsehd budget {m.budget} retains zero of {d} dimensions")

    def model_labels(self) -> list[str]:
        """A model's kind, or ``kind<n>`` for the n-th of several models
        of one kind; no kind ends in a digit, so labels are unique."""
        kinds = [m.kind for m in self.models]
        return [k if kinds.count(k) == 1 else f"{k}{kinds[:i + 1].count(k)}" for i, k in enumerate(kinds)]


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if isinstance(raw, dict) and "config" in raw and "package_version" in raw:
        raw = raw["config"]  # manifests reload as configs
    return _build(ExperimentConfig, raw, "config")


# ---------------------------------------------------------------------------
# Pipelines


def check_width(dataset: Dataset, num_features: int, path: str) -> None:
    """A :class:`ParseError` unless *dataset*, read from *path*, is *num_features* wide."""
    if dataset.num_features != num_features:
        raise ParseError(f"{path}: {dataset.num_features} feature columns, expected {num_features}")


def prepare_data(spec: DataSpec, root_seed: int) -> tuple[Dataset, Dataset]:
    """The (train, test) pair of *spec*: a train CSV of 2 rows and 2 labels or more, a test CSV that fits it."""
    if spec.synthetic is not None:
        s = spec.synthetic
        train_ds, test_ds = make_synthetic(
            s.num_classes,
            s.num_features,
            s.samples_per_class,
            s.separation,
            seed=derive_seed(root_seed, "data"),
        )
    else:
        train_ds = load_csv(spec.train_csv)
        present = len(np.unique(train_ds.labels))
        if train_ds.num_samples < 2 or present < 2:
            raise ParseError(f"{spec.train_csv}: training needs at least 2 rows and 2 classes, "
                             f"got {train_ds.num_samples} and {present}")
        test_ds = load_csv(spec.test_csv, num_classes=train_ds.num_classes)
        check_width(test_ds, train_ds.num_features, spec.test_csv)
    return train_ds, test_ds


def build_encoder(config: ExperimentConfig, num_features: int, dim: int) -> RandomProjectionEncoder:
    return RandomProjectionEncoder(
        EncoderConfig(num_features=num_features, dim=dim, seed=derive_seed(config.root_seed, "encoder", dim))
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
        # Deploy the trained channels but not the path basis the evaluation
        # kept: run_experiment scores only quantized or bit-flipped copies
        # of this bank, so its own basis is built on first use, if ever.
        scorer = DecomposedScorer(ChannelBank(result.bank.channels), result.params.head)
        return Classifier(encoder, standardizer, scorer, spec.kind), result.history

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
    """Write *header* and *rows*, each float to 10 significant digits."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([format(v, ".10g") if isinstance(v, float) else v for v in row] for row in rows)


@dataclass
class ExperimentResult:
    results_csv: str
    manifest_path: str


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
    result_rows = []
    robustness_rows = []
    history_rows = []
    try:
        train_ds, test_ds = prepare_data(config.data, config.root_seed)
        standardizer = fit_standardizer(train_ds.features)
        for dim in config.dims:
            stage = f"encode-D{dim}"
            encoder, h_train, h_test = encode_splits(config, standardizer, train_ds, test_ds, dim)
            scorers = {}
            for spec, label in zip(config.models, labels):
                stage = f"train-{label}-D{dim}"
                clf, history = fit_model(
                    spec, label, config, encoder, standardizer,
                    h_train, train_ds.labels, h_test, test_ds.labels, train_ds.num_classes,
                )
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
                    result_rows.append([label, budget_of(scorer), precision, dim, acc])
            if config.noise.p_grid:
                stage = f"robustness-D{dim}"
                robustness_rows += robustness_sweep(
                    scorers, h_test, test_ds.labels, config.noise.p_grid, config.noise.trials,
                    derive_seed(config.root_seed, "noise", dim),
                )
        stage = "write-results"
        result_rows.sort(key=lambda r: r[:4])
        robustness_rows.sort(key=lambda r: r[:4])
        results_csv = os.path.join(out, "results.csv")
        write_csv(results_csv, ["model", "m_budget", "precision", "D", "accuracy"], result_rows)
        write_csv(os.path.join(out, "precision.csv"), ["model_kind", "format_name", "D", "test_accuracy"],
                  sorted(([m, p, d, acc] for m, _, p, d, acc in result_rows), key=lambda r: r[:3]))
        if robustness_rows:
            write_csv(os.path.join(out, "robustness.csv"), ROBUSTNESS_COLUMNS, robustness_rows)
        if history_rows:
            header = ["model", *(f.name for f in fields(EpochStats))]
            write_csv(os.path.join(out, "history.csv"), header, history_rows)
        manifest_path = os.path.join(out, "manifest.json")
        manifest = {
            "package_version": __version__,
            "config": asdict(config),
            "dataset": {
                "name": config.data.name,
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
    return ExperimentResult(results_csv=results_csv, manifest_path=manifest_path)
