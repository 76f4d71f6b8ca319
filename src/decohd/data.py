"""Dataset ingestion and synthetic fixtures.

CSV layout: one sample per row, numeric feature columns, integer class
label in the last column, optional single header row (auto-detected).
Feature count and class count are inferred and reported.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .ops import derive_seed, rng_from_seed

DATA_DIR_ENV = "DECOHD_DATA_DIR"


class ParseError(ValueError):
    """CSV parse failure; the message carries the 1-based line number."""


@dataclass
class Dataset:
    features: np.ndarray  # (n, num_features) float64
    labels: np.ndarray  # (n,) int64
    split: str
    name: str
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels disagree on sample count")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("labels out of range [0, num_classes)")

    @property
    def num_samples(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]


def resolve_data_path(path: str) -> str:
    """Absolute paths pass through; relative ones resolve against
    $DECOHD_DATA_DIR when it is set."""
    if os.path.isabs(path) or os.path.exists(path):
        return path
    base = os.environ.get(DATA_DIR_ENV)
    if base:
        candidate = os.path.join(base, path)
        if os.path.exists(candidate):
            return candidate
    return path


def _is_numeric_row(cells: list[str]) -> bool:
    try:
        for c in cells:
            float(c)
    except ValueError:
        return False
    return True


def _diagnose_csv(path: str, has_header: bool) -> None:
    """Slow pass after a failed fast parse: pin the offending line."""
    width = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if has_header and lineno == 1:
                continue
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise ParseError(f"{path}: line {lineno}: expected {width} columns, got {len(cells)}")
            for c in cells:
                try:
                    float(c)
                except ValueError:
                    raise ParseError(f"{path}: line {lineno}: non-numeric cell {c!r}")
    raise ParseError(f"{path}: malformed CSV")


def load_csv(
    path: str,
    name: str | None = None,
    split: str = "train",
    num_classes: int | None = None,
) -> Dataset:
    """Parse a dataset CSV; raises :class:`ParseError` with a line
    number on malformed input, a NaN or inf cell included.  The class
    count is max(label)+1 unless given explicitly, in which case labels
    are validated against it."""
    path = resolve_data_path(path)
    if not os.path.exists(path):
        raise ParseError(f"dataset file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
    if not first.strip():
        raise ParseError(f"{path}: line 1: empty file")
    has_header = not _is_numeric_row(first.strip().split(","))
    try:
        raw = np.loadtxt(path, delimiter=",", skiprows=1 if has_header else 0, ndmin=2)
    except ValueError:
        _diagnose_csv(path, has_header)
    if raw.shape[1] < 2:
        raise ParseError(f"{path}: need at least one feature column plus a label column")
    offset = 2 if has_header else 1
    nonfinite = np.argwhere(~np.isfinite(raw))
    if nonfinite.size:
        row, col = nonfinite[0]
        raise ParseError(f"{path}: line {row + offset}: non-finite cell {str(raw[row, col])!r}")
    features = raw[:, :-1]
    raw_labels = raw[:, -1]
    bad = np.nonzero(raw_labels != np.floor(raw_labels))[0]
    if bad.size:
        raise ParseError(f"{path}: line {bad[0] + offset}: label {float(raw_labels[bad[0]])!r} is not an integer")
    labels = raw_labels.astype(np.int64)
    bad = np.nonzero(labels < 0)[0]
    if bad.size:
        raise ParseError(f"{path}: line {bad[0] + offset}: negative label {labels[bad[0]]}")
    if num_classes is not None:
        bad = np.nonzero(labels >= num_classes)[0]
        if bad.size:
            raise ParseError(
                f"{path}: line {bad[0] + offset}: label {labels[bad[0]]} out of range "
                f"[0, {num_classes})"
            )
    else:
        num_classes = int(labels.max()) + 1
    return Dataset(
        features=features,
        labels=labels,
        split=split,
        name=name or os.path.splitext(os.path.basename(path))[0],
        num_classes=num_classes,
    )


def save_csv(path: str, dataset: Dataset) -> None:
    """Write a dataset back out in the canonical layout (no header)."""
    data = np.column_stack([dataset.features, dataset.labels.astype(np.float64)])
    fmt = ["%.10g"] * dataset.num_features + ["%d"]
    np.savetxt(path, data, delimiter=",", fmt=fmt)


def make_synthetic(
    num_classes: int,
    num_features: int,
    samples_per_class: int,
    separation: float,
    seed: int = 0,
    name: str = "synthetic",
) -> tuple[Dataset, Dataset]:
    """Gaussian blobs: class c is centered at separation * e_{c mod d},
    unit isotropic noise; returns a (train, test) pair of equal size.

    separation 0 makes the classes indistinguishable (a chance-level
    fixture); large separation makes them trivially separable.
    """
    if separation < 0:
        raise ValueError("separation must be >= 0")
    if num_classes < 2 or num_features < 1 or samples_per_class < 1:
        raise ValueError("invalid synthetic dataset shape")
    centers = np.zeros((num_classes, num_features))
    for c in range(num_classes):
        centers[c, c % num_features] = separation * (1 + c // num_features)

    def build(split: str) -> Dataset:
        rng = rng_from_seed(derive_seed(seed, "synthetic", split))
        labels = np.repeat(np.arange(num_classes), samples_per_class)
        features = centers[labels] + rng.standard_normal((len(labels), num_features))
        order = rng.permutation(len(labels))
        return Dataset(
            features=features[order],
            labels=labels[order],
            split=split,
            name=name,
            num_classes=num_classes,
        )

    return build("train"), build("test")
