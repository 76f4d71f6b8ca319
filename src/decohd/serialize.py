"""Model containers: deterministic npz files.

A container holds a JSON metadata record plus the stored parameter
arrays.  Frozen random matrices are never written; only their seeds and
shapes travel (inside the encoder/model configs), and the matrices are
regenerated on load.  Round-trips are bit-exact, and writing the same
model twice produces byte-identical files (entries are stored
uncompressed, sorted, with zeroed zip timestamps).
"""

from __future__ import annotations

import io
import json
import zipfile
from dataclasses import asdict

import numpy as np

from .baselines import Classifier, PrototypeTable, SparseScorer
from .data import ParseError
from .encoding import EncoderConfig, RandomProjectionEncoder, Standardizer
from .model import DecoHDClassifier, ModelConfig, ModelParams, check_param_shapes

FORMAT_VERSION = 1


class ContainerError(ParseError):
    """A model container that cannot be used: unreadable or malformed,
    of another format version, or of an unknown model kind."""


def save_arrays(path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write a deterministic npz: same content, same bytes."""
    meta_json = json.dumps(meta, sort_keys=True)
    entries = dict(arrays)
    entries["__meta__"] = np.array(meta_json)
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name in sorted(entries):
            buf = io.BytesIO()
            # order="C" keeps a 0-d array 0-d; ascontiguousarray would make it (1,).
            np.lib.format.write_array(buf, np.asarray(entries[name], order="C"), version=(1, 0))
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, buf.getvalue())


def load_arrays(path) -> tuple[dict, dict[str, np.ndarray]]:
    try:
        # A missing file raises OSError, a non-zip BadZipFile or (pickle
        # refused) ValueError, a lone .npy TypeError (an array is no
        # context manager), no __meta__ KeyError, bad JSON ValueError.
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files if k != "__meta__"}
            meta = json.loads(data["__meta__"].item())
    except (OSError, zipfile.BadZipFile, ValueError, TypeError, KeyError) as exc:
        raise ContainerError(f"{path}: not a readable model container: {exc}") from exc
    if not isinstance(meta, dict):
        raise ContainerError(f"{path}: container metadata is not a JSON object")
    return meta, arrays


def save_classifier(path, clf) -> None:
    """Serialize a :class:`DecoHDClassifier` or a baseline
    :class:`Classifier`, tagged by model kind.

    A decomposed model stores its trainable latents and head, not the
    materialized bank; a baseline stores its table, plus the mask and
    budget when sparsified.
    """
    meta = {"format_version": FORMAT_VERSION, "kind": clf.kind, "encoder": asdict(clf.encoder.config)}
    arrays = {
        "standardizer_mean": clf.standardizer.mean,
        "standardizer_std": clf.standardizer.std,
    }
    if isinstance(clf, DecoHDClassifier):
        meta["model"] = asdict(clf.config)
        for i, a in enumerate(clf.params.latents):
            arrays[f"latents_{i}"] = a
        arrays["head"] = clf.params.head
    elif clf.kind == "sparsehd":
        # The v1 layout keeps a full-width table: masked-out columns are
        # written as zeros and dropped again on load.
        scorer = clf.scorer
        table = np.zeros((scorer.num_classes, scorer.dim), dtype=scorer.table.dtype)
        table[:, scorer.mask] = scorer.table
        meta["budget"] = scorer.budget
        arrays.update(table=table, mask=scorer.mask)
    else:
        arrays["table"] = clf.scorer.prototypes
    save_arrays(path, meta, arrays)


def load_classifier(path):
    """Read a container written by :func:`save_classifier`.

    A container that cannot make a usable model raises
    :class:`ContainerError`: a wrong format version, an unknown kind, a
    missing metadata key or array, or arrays whose shapes disagree with
    the configs, or a standardizer that cannot scale features.
    """
    meta, arrays = load_arrays(path)
    if meta.get("format_version") != FORMAT_VERSION:
        raise ContainerError(f"{path}: unsupported container version {meta.get('format_version')}")
    kind = meta.get("kind")
    if kind not in ("decohd", "prototype", "onlinehd", "sparsehd"):
        raise ContainerError(f"{path}: unknown model kind {kind!r} in container")
    try:
        return _classifier_from(meta, arrays, kind)
    except KeyError as exc:
        raise ContainerError(f"{path}: {kind} container has no entry {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ContainerError(f"{path}: malformed {kind} container: {exc}") from exc


def _classifier_from(meta: dict, arrays: dict[str, np.ndarray], kind: str):
    encoder = RandomProjectionEncoder(EncoderConfig(**meta["encoder"]))
    standardizer = Standardizer(mean=arrays["standardizer_mean"], std=arrays["standardizer_std"])
    width = (encoder.config.num_features,)
    if standardizer.mean.shape != width or standardizer.std.shape != width:
        raise ValueError(f"standardizer shapes {standardizer.mean.shape} and "
                         f"{standardizer.std.shape}, expected {width}")
    # fit_standardizer clamps a tiny std to 1, so every fitted one passes.
    if not np.isfinite(standardizer.mean).all():
        raise ValueError("standardizer mean is not finite")
    if not (np.isfinite(standardizer.std) & (standardizer.std > 0)).all():
        raise ValueError("standardizer std is not finite and positive")
    if kind == "decohd":
        model_meta = dict(meta["model"])
        model_meta["channels_per_layer"] = tuple(model_meta["channels_per_layer"])
        config = ModelConfig(**model_meta)
        params = ModelParams(
            latents=[arrays[f"latents_{i}"] for i in range(config.num_layers)],
            head=arrays["head"],
        )
        check_param_shapes(params, config)
        if config.dim != encoder.config.dim:
            raise ValueError(f"model dim {config.dim} does not match encoder dim {encoder.config.dim}")
        return DecoHDClassifier(encoder=encoder, standardizer=standardizer, config=config, params=params)
    table = arrays["table"]
    if table.dtype != np.float32 or table.ndim != 2 or table.shape[1] != encoder.config.dim:
        raise ValueError(f"table is {table.dtype} of shape {table.shape}, "
                         f"expected float32 of shape (classes, {encoder.config.dim})")
    if kind == "sparsehd":
        mask = arrays["mask"]
        if mask.dtype != np.bool_ or mask.shape != (encoder.config.dim,):
            raise ValueError(f"mask is {mask.dtype} of shape {mask.shape}, "
                             f"expected bool of shape ({encoder.config.dim},)")
        retained = np.ascontiguousarray(table[:, mask])
        return Classifier(encoder, standardizer, SparseScorer(retained, mask, float(meta["budget"])), kind)
    return Classifier(encoder, standardizer, PrototypeTable(table), kind)
