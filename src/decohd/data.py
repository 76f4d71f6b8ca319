"""Dataset ingestion and synthetic fixtures.

CSV layout: UTF-8 text, a BOM first allowed; one sample per row,
numeric feature columns, integer class label in the last column,
optional single header row (auto-detected).  Feature count and class
count are inferred and reported.  A relative path is read against the
working directory.  :func:`check_labels` is the one label rule, for CSVs
and arrays alike.
:class:`SyntheticSpec` states the synthetic blobs' shape rule, and
:func:`bayes_accuracy` their ceiling, which is None beyond C <= F.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .ops import derive_seed, rng_from_seed

_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")  # what errors="surrogateescape" makes of a byte not UTF-8


class ParseError(ValueError):
    """CSV parse failure; the message names the file and, when a line is
    at fault, its 1-based number, and a bad label by its value."""


def check_labels(labels, rows: int, num_classes: int, lines=None) -> np.ndarray:
    """*labels* as int64, or a ValueError unless it holds one integral
    label per row, each in ``[0, num_classes)``: the rule of every
    labelled input.  Labels are judged in their own dtype before any
    cast, so 1.7 and 1e20 are refused, not truncated or wrapped.  The
    first bad label is named by row index, or by ``lines[row]``, its CSV
    line, and by value, as ``row 1: label nan is not an integer`` or
    ``line 2: label -1 out of range [0, 3)``; 2**63 bounds any C."""
    labels = np.asarray(labels)
    if labels.shape != (rows,):
        raise ValueError("features and labels disagree on sample count")
    integral = np.isfinite(labels) & (labels == np.floor(labels)) if labels.dtype.kind == "f" else np.ones(rows, bool)
    high = min(num_classes, 2**63)  # int64's bound
    bad = np.flatnonzero(~integral | (labels < 0) | (labels >= high))
    if bad.size:
        i = bad[0]
        where = f"row {i}" if lines is None else f"line {lines[i]}"
        if not integral[i]:
            raise ValueError(f"{where}: label {labels[i]} is not an integer")
        raise ValueError(f"{where}: label {int(labels[i])} out of range [0, {high})")
    return labels.astype(np.int64, copy=False)


@dataclass
class Dataset:
    features: np.ndarray  # (n, num_features) float64
    labels: np.ndarray  # (n,) int64
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = check_labels(self.labels, len(self.features), self.num_classes)

    @property
    def num_samples(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]


def _cells(line: str) -> list[str]:
    return line.split("#", 1)[0].strip().split(",")


def _first_non_numeric(cells: list[str], as_loadtxt: bool = False) -> str | None:
    for c in cells:
        try:
            float(c)
        except ValueError:
            return c
        if as_loadtxt and ("_" in c or not c.strip().isascii()):  # float() reads both, np.loadtxt neither
            return c
    return None


def load_csv(path: str, num_classes: int | None = None, num_features: int | None = None) -> Dataset:
    """Parse a dataset CSV; raises :class:`ParseError` with a line
    number on malformed input, a NaN or inf cell and a line that is not
    UTF-8 included, and one naming the path alone when it is no regular
    file or not *num_features* wide.  The class count is max(label)+1
    unless *num_classes* is given; :func:`check_labels` judges the labels
    against it."""
    if not os.path.isfile(path):
        raise ParseError(f"{path}: not a regular file" if os.path.exists(path) else f"dataset file not found: {path}")
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        numbered = list(enumerate(fh, start=1))
    bad = next((n for n, line in numbered if not line.isascii() and _ESCAPED_BYTE.search(line)), None)
    if bad is not None:
        raise ParseError(f"{path}: line {bad}: not UTF-8 text")
    rows = [(n, line) for n, line in numbered if line[0] not in "#\n"]  # the lines np.loadtxt reads
    if not rows:
        raise ParseError(f"{path}: line 1: empty file")
    if _first_non_numeric(_cells(rows[0][1])) is not None:  # a header
        header_line = rows.pop(0)[0]
        if not rows:
            raise ParseError(f"{path}: line {header_line}: a header and no data rows")
    lines, texts = zip(*rows)
    try:
        raw = np.loadtxt(texts, delimiter=",", ndmin=2)
    except ValueError:
        width = len(_cells(rows[0][1]))
        for lineno, text in rows:
            cells = _cells(text)
            if len(cells) != width:
                raise ParseError(f"{path}: line {lineno}: expected {width} columns, got {len(cells)}")
            bad = _first_non_numeric(cells, as_loadtxt=True)
            if bad is not None:
                raise ParseError(f"{path}: line {lineno}: non-numeric cell {bad!r}")
        raise ParseError(f"{path}: malformed CSV")
    if raw.shape[1] < 2:
        raise ParseError(f"{path}: need at least one feature column plus a label column")
    nonfinite = np.argwhere(~np.isfinite(raw))
    if nonfinite.size:
        row, col = nonfinite[0]
        raise ParseError(f"{path}: line {lines[row]}: non-finite cell {str(raw[row, col])!r}")
    features = raw[:, :-1]
    num_classes = int(raw[:, -1].max()) + 1 if num_classes is None else num_classes
    try:
        labels = check_labels(raw[:, -1], len(raw), num_classes, lines)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
    if num_features is not None and features.shape[1] != num_features:
        raise ParseError(f"{path}: {features.shape[1]} feature columns, expected {num_features}")
    return Dataset(features=features, labels=labels, num_classes=num_classes)


def save_csv(path: str, dataset: Dataset) -> None:
    """Write a dataset back out in the canonical layout (no header)."""
    data = np.column_stack([dataset.features, dataset.labels.astype(np.float64)])
    fmt = ["%.10g"] * dataset.num_features + ["%d"]
    np.savetxt(path, data, delimiter=",", fmt=fmt)


@dataclass(frozen=True)
class SyntheticSpec:
    """The keyword arguments of :func:`make_synthetic` but its seed."""

    num_classes: int = 4
    num_features: int = 16
    samples_per_class: int = 200
    separation: float = 3.0

    def __post_init__(self):
        if self.num_classes < 2 or self.num_features < 1 or self.samples_per_class < 1:
            raise ValueError("need num_classes >= 2, num_features >= 1 and samples_per_class >= 1")
        if not 0.0 <= self.separation < math.inf:
            raise ValueError(f"separation must be finite and >= 0, got {self.separation}")


def bayes_accuracy(spec: SyntheticSpec) -> float | None:
    """Accuracy of the Bayes rule on :func:`make_synthetic` data of
    *spec*, None unless ``num_classes <= num_features``: the centres are
    then orthogonal and of equal norm, so the rule is ``argmax_c x_c`` and
    it is right with probability ``integral of phi(z - s) * Phi(z)**(C - 1) dz``,
    which Simpson's rule sums over ``z - s`` in [-10, 10].  The ceiling no
    model of those data can beat beyond sampling noise."""
    if spec.num_classes > spec.num_features:
        return None
    steps, width = 2000, 20.0 / 2000
    total = 0.0
    for i in range(steps + 1):
        t = -10.0 + i * width
        weight = 1 if i in (0, steps) else (2 if i % 2 == 0 else 4)
        cdf = 0.5 * (1.0 + math.erf((t + spec.separation) / math.sqrt(2.0)))
        total += weight * math.exp(-0.5 * t * t) * cdf ** (spec.num_classes - 1)
    return total * width / 3.0 / math.sqrt(2.0 * math.pi)


def make_synthetic(
    num_classes: int,
    num_features: int,
    samples_per_class: int,
    separation: float,
    seed: int = 0,
) -> tuple[Dataset, Dataset]:
    """Gaussian blobs: class c is centered at separation * e_{c mod d},
    unit isotropic noise; returns a (train, test) pair of equal size.

    separation 0 makes the classes indistinguishable (a chance-level
    fixture); large separation makes them trivially separable.
    """
    SyntheticSpec(num_classes, num_features, samples_per_class, separation)  # refuses a bad shape
    centers = np.zeros((num_classes, num_features))
    for c in range(num_classes):
        centers[c, c % num_features] = separation * (1 + c // num_features)

    def build(split: str) -> Dataset:
        rng = rng_from_seed(derive_seed(seed, "synthetic", split))
        labels = np.repeat(np.arange(num_classes), samples_per_class)
        features = centers[labels] + rng.standard_normal((len(labels), num_features))
        order = rng.permutation(len(labels))
        return Dataset(features=features[order], labels=labels[order], num_classes=num_classes)

    return build("train"), build("test")
