"""Comparison models sharing the decomposed model's encoder.

* prototype table: one dense hypervector per class, built by class-wise
  summation of the encoded training set;
* online refinement: sequential similarity-weighted updates of the table
  on misclassified samples;
* sparse masking: a matched-budget feature-axis reduction that keeps the
  top dimensions by aggregate prototype magnitude (a stand-in for
  retraining-based sparsification methods, hence "sparsehd-style" in all
  outputs).

Both deployed forms share the decomposed scorer's protocol:
``stored()`` returns the float32 array the form holds, under the name
``"table"``, and ``replace(arrays)`` wraps rewritten arrays in the same
form.  A sparsified table holds only its retained columns, C x
floor(budget * dim), and scores the retained dimensions of the
encodings against them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .encoding import RandomProjectionEncoder, Standardizer
from .model import pick_class
from .ops import derive_seed, rng_from_seed


@dataclass
class PrototypeTable:
    """Dense class prototypes, shape (num_classes, dim)."""

    prototypes: np.ndarray

    @property
    def num_classes(self) -> int:
        return self.prototypes.shape[0]

    @property
    def dim(self) -> int:
        return self.prototypes.shape[1]

    def stored(self) -> dict[str, np.ndarray]:
        return {"table": self.prototypes}

    def replace(self, arrays: dict[str, np.ndarray]) -> "PrototypeTable":
        return PrototypeTable(arrays["table"])

    def score_batch(self, h: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return np.asarray(h) @ self.prototypes.T


def build_prototype_table(h: np.ndarray, labels: np.ndarray, num_classes: int) -> PrototypeTable:
    """Class-wise summation of encoded hypervectors.

    Each row is widened and added into its class's float64 row, in row
    order.  That is the order ``np.add.at`` adds in, so the sums are the
    same bit for bit, without a float64 copy of every encoding.  The
    table is stored in the input dtype.  A class with no samples keeps a
    zero prototype and triggers a warning.
    """
    h = np.asarray(h)
    labels = np.asarray(labels)
    if labels.min(initial=0) < 0 or (len(labels) and labels.max() >= num_classes):
        raise ValueError("labels out of range for num_classes")
    table = np.zeros((num_classes, h.shape[1]), dtype=np.float64)
    for row, label in zip(h, labels):
        table[label] += row
    counts = np.bincount(labels, minlength=num_classes)
    for c in np.nonzero(counts == 0)[0]:
        warnings.warn(f"class {c} has no training samples; prototype left at zero")
    return PrototypeTable(table.astype(h.dtype, copy=False))


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b)) / (na * nb)


def onlinehd_refine(
    table: PrototypeTable,
    h: np.ndarray,
    labels: np.ndarray,
    epochs: int = 200,
    learning_rate: float = 0.1,
    seed: int = 0,
) -> PrototypeTable:
    """Sequential per-sample refinement of a prototype table.

    For each sample (shuffled every epoch), if the dot-product prediction
    is wrong, pull the true class's prototype toward the sample and push
    the predicted one away, each weighted by (1 - cosine similarity).
    With learning_rate 0 this is the identity.  Each sample is widened
    to float64 when it is visited, so no float64 copy of *h* is made.
    """
    h = np.asarray(h)
    labels = np.asarray(labels)
    protos = table.prototypes.astype(np.float64)
    n = h.shape[0]
    for epoch in range(epochs):
        order = rng_from_seed(derive_seed(seed, "refine", epoch)).permutation(n)
        for j in order:
            hv = h[j].astype(np.float64)
            y = int(labels[j])
            pred = int(pick_class(protos @ hv))
            if pred == y:
                continue
            protos[y] += learning_rate * (1.0 - _cosine(protos[y], hv)) * hv
            protos[pred] -= learning_rate * (1.0 - _cosine(protos[pred], hv)) * hv
    return PrototypeTable(protos.astype(table.prototypes.dtype, copy=False))


@dataclass
class SparseScorer:
    """Prototype table restricted to a shared subset of dimensions.

    ``table`` holds only the retained columns, ``table[:, j]`` being the
    prototypes' ``j``-th retained dimension in index order; ``mask``
    marks those dimensions among ``dim``.  :meth:`stored` returns the
    table itself and :meth:`replace` wraps new arrays as they are.
    Scoring reads only the retained columns of the encodings.
    """

    table: np.ndarray  # (num_classes, retained)
    mask: np.ndarray  # bool, shape (dim,)
    budget: float

    @property
    def num_classes(self) -> int:
        return self.table.shape[0]

    @property
    def dim(self) -> int:
        return self.mask.shape[0]

    @property
    def prototypes(self) -> np.ndarray:
        # Read by the benchmark's tracer, which counts stored words as
        # mask.sum() * prototypes.shape[0].
        return self.table

    def stored(self) -> dict[str, np.ndarray]:
        return {"table": self.table}

    def replace(self, arrays: dict[str, np.ndarray]) -> "SparseScorer":
        return SparseScorer(table=arrays["table"], mask=self.mask, budget=self.budget)

    def score_batch(self, h: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return np.asarray(h)[..., self.mask] @ self.table.T


def sparsify_table(table: PrototypeTable, budget: float) -> SparseScorer:
    """Keep the top floor(budget * dim) dimensions by summed |prototype|
    magnitude across classes; the mask is shared by all classes, and
    only the retained columns are copied.

    Ties break toward the lower dimension index, so the mask is a pure
    function of the table.
    """
    if not 0.0 < budget <= 1.0:
        raise ValueError("budget must be in (0, 1]")
    keep = int(np.floor(budget * table.dim))
    if keep < 1:
        raise ValueError(f"budget {budget} retains zero of {table.dim} dimensions")
    magnitude = np.abs(table.prototypes.astype(np.float64)).sum(axis=0)
    order = np.argsort(-magnitude, kind="stable")
    mask = np.zeros(table.dim, dtype=bool)
    mask[order[:keep]] = True
    return SparseScorer(table=np.ascontiguousarray(table.prototypes[:, mask]), mask=mask, budget=budget)


@dataclass
class Classifier:
    """End-to-end baseline classifier over raw features: the shared
    encoder, the standardizer and a deployed scorer."""

    encoder: RandomProjectionEncoder
    standardizer: Standardizer
    scorer: PrototypeTable | SparseScorer
    kind: str  # "prototype", "onlinehd" or "sparsehd"

    def predict_batch(self, features: np.ndarray) -> np.ndarray:
        h = self.encoder.encode_batch(features, self.standardizer)
        return pick_class(self.scorer.score_batch(h))
