"""Experiment orchestration: config files, sweeps, and result emission.

A run is fully described by one JSON config; the manifest written next
to the results holds the resolved config, whose root_seed every random
stream derives from.  A rerun from the manifest is bit-exact in one
environment, the same numpy/BLAS build and BLAS thread count; across
thread counts, accuracies agree within a few test rows.  The history
file's wall-clock column is the one thing a rerun does not reproduce.
A config is UTF-8 JSON, a BOM first allowed.  Unknown config keys and
a key repeated within one object are errors: silent typos in sweep
grids are the main operational hazard.  :func:`build_spec` is the one
way a JSON or command-line value becomes a spec; its config error names
the key path of the value refused, once, as in
``data.synthetic.num_classes`` or ``models[1].channels[0]``.  At every precision but fp32 the test
encodings are rounded to the format before they are scored, as the
models' stored arrays are.  The manifest's dataset block records the
Bayes ceiling of synthetic data (:func:`~decohd.data.bayes_accuracy`),
the accuracy no model of those data can beat beyond sampling noise.
Only ``DataSpec``, ``ModelSpec`` and ``ExperimentConfig`` live here;
every other spec lives beside the function that reads it.

Each dimension runs a fit stage, then an evaluation stage.  The fit
stage encodes both splits and releases the encoder's matrix, builds
the one class-sum table that every table kind starts from, then fits
and saves every model, so it holds no F x D matrix; its training
encodings die as it ends, and the table lives on only as the
prototype model's scorer.  So the evaluation stage
holds only the test encodings and the deployed scorers, plus, in the
precision sweep, one quantized copy of the test encodings at a time,
released before the bit-flip sweep, and there one stack of a model's
variants (:func:`~decohd.faults.robustness_sweep`).  All of them die
before the next dimension encodes.

The output directory is the config's ``output_dir`` unless the caller
names another, and the manifest records the directory written, so a
rerun from it that names no other writes back into its own run.  An
empty one, or one holding a directory at an output file's name, a model
container's in ``models/`` included, is a config error before any file
is written or removed.
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
from dataclasses import asdict, astuple, dataclass, field, fields, is_dataclass, replace

import numpy as np

from . import __version__
from .baselines import MODEL_KINDS, PrototypeTable, build_prototype_table, onlinehd_refine, sparsify_table
from .budget import budget_of
from .data import Dataset, ParseError, SyntheticSpec, bayes_accuracy, load_csv, make_synthetic
from .encoding import EncoderConfig, RandomProjectionEncoder, Standardizer, fit_standardizer
from .faults import ROBUSTNESS_COLUMNS, NoiseConfig, robustness_sweep
from .model import Classifier, ModelConfig, accuracy
from .ops import derive_seed
from .precision import PRESETS, get_format, quantize_array, quantize_model
from .serialize import save_classifier
from .training import EpochStats, TrainConfig, train


class ConfigError(ValueError):
    """Malformed experiment configuration."""


_JSON_TYPES = {int: ("an integer", int), float: ("a number", (int, float)), str: ("a string", str),
               tuple: ("a list", (list, tuple))}


def build_spec(hint, value, key: str):
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
        return tuple(build_spec(typing.get_args(hint)[0], item, f"{key}[{i}]") for i, item in enumerate(value))
    if not is_dataclass(origin):
        return float(value) if origin is float else value
    hints = typing.get_type_hints(origin)  # one per field
    unknown = value.keys() - hints.keys()
    if unknown:
        raise ConfigError(f"{key}: unknown keys {sorted(unknown)}; allowed: {sorted(hints)}")
    built = {name: build_spec(hints[name], item, name if key == "config" else f"{key}.{name}")
             for name, item in value.items()}
    try:
        return origin(**built)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


@dataclass(frozen=True)
class DataSpec:
    name: str | None = None
    train_csv: str | None = None
    test_csv: str | None = None
    synthetic: SyntheticSpec | dict | None = None

    def __post_init__(self):
        object.__setattr__(self, "synthetic", build_spec(SyntheticSpec | None, self.synthetic, "data.synthetic"))
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
        ModelConfig(self.channels, self.latent_dim, 1, 2)  # a decohd shape
        if not 0.0 < self.budget <= 1.0:
            raise ValueError("sparsehd budget must be in (0, 1]")
        if self.epochs < 0 or not 0.0 <= self.learning_rate < math.inf:
            raise ValueError("onlinehd refinement needs epochs >= 0 and a finite learning_rate >= 0")


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
            object.__setattr__(self, name, build_spec(hint, getattr(self, name), name))
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
    """The config, or a manifest's, at *path*: UTF-8 JSON, a BOM first
    allowed, no key repeated within an object."""
    def unique_keys(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"{path}: key {key!r} repeated in one object")
            obj[key] = value
        return obj

    try:
        with open(path, encoding="utf-8-sig") as fh:
            raw = json.load(fh, object_pairs_hook=unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if isinstance(raw, dict) and "config" in raw and "package_version" in raw:
        raw = raw["config"]  # manifests reload as configs
    return build_spec(ExperimentConfig, raw, "config")


# ---------------------------------------------------------------------------
# Pipelines


def prepare_data(spec: DataSpec, root_seed: int) -> tuple[Dataset, Dataset]:
    """The (train, test) pair of *spec*: a train CSV of 2 rows and 2 labels or more, a test CSV that fits it.

    Each class in ``[0, C)``, C the largest label plus one, needs a train
    row; the first without one is refused, judged from the sorted
    distinct labels, never a C-sized array."""
    if spec.synthetic is not None:
        train_ds, test_ds = make_synthetic(**asdict(spec.synthetic), seed=derive_seed(root_seed, "data"))
    else:
        train_ds = load_csv(spec.train_csv)
        present = np.unique(train_ds.labels)
        if train_ds.num_samples < 2 or len(present) < 2:
            raise ParseError(f"{spec.train_csv}: training needs at least 2 rows and 2 classes, "
                             f"got {train_ds.num_samples} and {len(present)}")
        missing = train_ds.num_classes - len(present)
        if missing:  # present[i] == i up to the first missing class
            first = int(np.argmax(present != np.arange(len(present))))
            c = train_ds.num_classes
            raise ParseError(f"{spec.train_csv}: class {first} has no training rows "
                             f"({missing} missing of the {c} classes [0, {c}))")
        test_ds = load_csv(spec.test_csv, num_classes=train_ds.num_classes, num_features=train_ds.num_features)
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
    h_train, h_test).  The encoder's matrix is released: it is drawn
    again only if something encodes."""
    encoder = build_encoder(config, train_ds.num_features, dim)
    h_train = encoder.encode_batch(train_ds.features, standardizer)
    h_test = encoder.encode_batch(test_ds.features, standardizer)
    del encoder.matrix
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
    table: PrototypeTable | None = None,
):
    """Train one model; returns (classifier, history).  The deployed
    form is ``classifier.scorer``.  The table kinds start from *table*,
    the class sums of *h_train*, built here when not given; neither
    refinement nor sparsifying writes into it."""
    if spec.kind == "decohd":
        model_cfg = ModelConfig(
            channels_per_layer=spec.channels,
            latent_dim=spec.latent_dim,
            dim=encoder.config.dim,
            num_classes=num_classes,
            seed=derive_seed(config.root_seed, "model", label, encoder.config.dim),
        )
        result = train(model_cfg, config.train, h_train, y_train, h_test, y_test)
        return Classifier(encoder, standardizer, result.scorer, spec.kind), result.history

    if table is None:
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
        table = sparsify_table(table, spec.budget)
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

    *output_dir*, when given, replaces ``config.output_dir``.  An empty
    output directory, one that cannot be created, or one that holds a
    directory at an output file's name, ``models/<label>_D<dim>.npz``
    included, is a ConfigError, raised before anything is written or
    removed.  Any stage failure still leaves the partial outputs on disk
    together with a ``failure_manifest.json`` naming the stage, then
    re-raises.  The six output files of an earlier run into the
    directory are removed first, so two runs never mix; containers in
    ``models/`` of labels or dimensions this run does not write are left
    as they are.
    """
    out = config.output_dir if output_dir is None else output_dir
    if not out:
        raise ConfigError("an empty output directory names no place to write")
    outputs = [os.path.join(out, name) for name in ("results.csv", "precision.csv", "robustness.csv",
                                                     "history.csv", "manifest.json", "failure_manifest.json")]
    models_dir = os.path.join(out, "models")
    labels = config.model_labels()
    containers = {(label, dim): os.path.join(models_dir, f"{label}_D{dim}.npz")
                  for dim in config.dims for label in labels}
    for path in [*outputs, *containers.values()]:
        if os.path.isdir(path):
            raise ConfigError(f"{path} is a directory, not an output file")
    try:
        os.makedirs(models_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    for path in outputs:
        if os.path.exists(path):
            os.remove(path)

    stage = "prepare-data"
    result_rows = []
    robustness_rows = []
    history_rows = []

    def run_dim(dim: int) -> None:
        """Fit, save and evaluate every model at *dim*; what it holds dies as it returns."""
        nonlocal stage
        stage = f"encode-D{dim}"
        encoder, h_train, h_test = encode_splits(config, standardizer, train_ds, test_ds, dim)
        scorers = {}
        # One class-sum table, which every table kind starts from.
        table = (build_prototype_table(h_train, train_ds.labels, train_ds.num_classes)
                 if any(spec.kind != "decohd" for spec in config.models) else None)
        for spec, label in zip(config.models, labels):
            stage = f"train-{label}-D{dim}"
            clf, history = fit_model(
                spec, label, config, encoder, standardizer,
                h_train, train_ds.labels, h_test, test_ds.labels, train_ds.num_classes, table,
            )
            scorers[label] = clf.scorer
            save_classifier(containers[label, dim], clf)
            history_rows.extend([label, *astuple(h)] for h in history)
        del h_train, table  # evaluation reads only h_test and the scorers
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
        del q_h  # the last precision's copy would outlive its loop into the bit-flip sweep
        if config.noise.p_grid:
            stage = f"robustness-D{dim}"
            robustness_rows.extend(robustness_sweep(
                scorers, h_test, test_ds.labels, config.noise.p_grid, config.noise.trials,
                derive_seed(config.root_seed, "noise", dim),
            ))

    try:
        train_ds, test_ds = prepare_data(config.data, config.root_seed)
        standardizer = fit_standardizer(train_ds.features)
        for dim in config.dims:
            run_dim(dim)
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
        synth = config.data.synthetic
        manifest = {
            "package_version": __version__,
            "config": asdict(replace(config, output_dir=out)),
            "dataset": {
                "name": config.data.name,
                "num_features": train_ds.num_features,
                "num_classes": train_ds.num_classes,
                "num_train": train_ds.num_samples,
                "num_test": test_ds.num_samples,
                "bayes_accuracy": bayes_accuracy(synth) if synth else None,
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
