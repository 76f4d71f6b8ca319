"""Model containers: deterministic npz files.

A container holds a JSON metadata record, the standardizer and what
the model scores with: its scorer's ``stored()`` arrays (channels and
head, or a table) plus the table's mask if it has one (sparsehd).  The
record holds the encoder config's three integer fields and, for a
decomposed model, its score form, ``squared``
(:attr:`~decohd.model.ChannelBank.squared`).  No latent, projector or
encoder matrix travels, and loading draws nothing: the loaded model's
first encode draws the encoder's matrix from its seed.
Round-trips are bit-exact, and writing the same model twice produces
byte-identical files (entries are stored uncompressed, sorted, with
zeroed zip timestamps).
"""

from __future__ import annotations

import io
import json
import math
import zipfile
from dataclasses import asdict, fields

import numpy as np

from .baselines import MODEL_KINDS, PrototypeTable
from .data import ParseError
from .encoding import EncoderConfig, RandomProjectionEncoder, Standardizer
from .inference import DecomposedScorer
from .model import ChannelBank, Classifier

FORMAT_VERSION = 5


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
        # context manager), no __meta__ KeyError, bad or non-object JSON
        # ValueError or TypeError.
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files if k != "__meta__"}
            meta = dict(json.loads(data["__meta__"].item()))
    except (OSError, zipfile.BadZipFile, ValueError, TypeError, KeyError) as exc:
        raise ContainerError(f"{path}: not a readable model container: {exc}") from exc
    return meta, arrays


def save_classifier(path, clf) -> None:
    """Serialize a classifier of any kind, tagged by its kind: the
    encoder config, the standardizer and its scorer's ``stored()``
    arrays, plus the score form of a decomposed model and the mask of a
    sparse table.  A stored array that is not float32, as a model
    trained on float64 encodings holds, is a ValueError before the file
    is opened: :func:`load_classifier` would refuse the container."""
    scorer = clf.scorer
    stored = scorer.stored()
    wide = next((name for name, a in stored.items() if a.dtype != np.float32), None)
    if wide is not None:
        raise ValueError(f"{wide} is {stored[wide].dtype}, expected float32: a container holds float32 arrays")
    meta = {"format_version": FORMAT_VERSION, "kind": clf.kind, "encoder": asdict(clf.encoder.config)}
    arrays = {"standardizer_mean": clf.standardizer.mean, "standardizer_std": clf.standardizer.std, **stored}
    if clf.kind == "decohd":
        meta["squared"] = scorer.bank.squared
    if clf.kind == "sparsehd":
        arrays["mask"] = scorer.mask
    save_arrays(path, meta, arrays)


def load_classifier(path) -> Classifier:
    """Read a container written by :func:`save_classifier`.

    A container that cannot make a usable model raises
    :class:`ContainerError`: a wrong format version (format 4 included),
    an unknown kind, a missing metadata key or array, an encoder record
    other than the config's three integers, stored arrays that are not
    float32 matrices of at least one row as wide as the encoding they
    score, a mask that keeps no dimension, a score form that is not a
    bool, or a standardizer that cannot scale features.
    """
    meta, arrays = load_arrays(path)
    if meta.get("format_version") != FORMAT_VERSION:
        raise ContainerError(f"{path}: unsupported container version {meta.get('format_version')}")
    kind = meta.get("kind")
    if kind not in MODEL_KINDS:
        raise ContainerError(f"{path}: unknown model kind {kind!r} in container")
    try:
        return _classifier_from(meta, arrays, kind)
    except KeyError as exc:
        raise ContainerError(f"{path}: {kind} container has no entry {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ContainerError(f"{path}: malformed {kind} container: {exc}") from exc


def _matrix(arrays: dict[str, np.ndarray], name: str, width: int) -> np.ndarray:
    """Stored array *name*: a float32 matrix *width* columns wide, with
    at least one row (no model has an empty layer or class axis)."""
    a = arrays[name]
    if a.dtype != np.float32 or a.ndim != 2 or a.shape[0] < 1 or a.shape[1] != width:
        raise ValueError(f"{name} is {a.dtype} of shape {a.shape}, expected float32 of shape (rows, {width}), rows >= 1")
    return a


def _classifier_from(meta: dict, arrays: dict[str, np.ndarray], kind: str) -> Classifier:
    record = meta["encoder"]
    for f in fields(EncoderConfig):  # every key: a missing one is not the config's default
        if type(record[f.name]) is not int:  # JSON's true is no int here, nor is 7.0
            raise ValueError(f"encoder {f.name} is {record[f.name]!r}, expected an integer")
    encoder = RandomProjectionEncoder(EncoderConfig(**record))
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
    dim = encoder.config.dim
    if kind == "decohd":
        # A container with no channels at all lacks "channels:0".
        layers = max(1, sum(name.startswith("channels:") for name in arrays))
        channels = [_matrix(arrays, f"channels:{i}", dim) for i in range(layers)]
        head = _matrix(arrays, "head", math.prod(len(c) for c in channels))
        if not isinstance(meta["squared"], bool):
            raise ValueError(f"squared is {meta['squared']!r}, expected true or false")
        scorer = DecomposedScorer(ChannelBank(channels, squared=meta["squared"]), head)
    elif kind == "sparsehd":
        mask = arrays["mask"]
        if mask.dtype != np.bool_ or mask.shape != (dim,) or not mask.any():
            raise ValueError(f"mask is {mask.dtype} of shape {mask.shape} with {np.count_nonzero(mask)} set, "
                             f"expected bool of shape ({dim},) with at least one set")
        scorer = PrototypeTable(_matrix(arrays, "table", int(mask.sum())), mask)
    else:
        scorer = PrototypeTable(_matrix(arrays, "table", dim))
    return Classifier(encoder, standardizer, scorer, kind)
