"""Comparison models sharing the decomposed model's encoder.

* prototype table: one dense hypervector per class, built by class-wise
  summation of the encoded training set;
* online refinement: sequential similarity-weighted updates of the table
  on misclassified samples;
* sparse masking: a matched-budget feature-axis reduction that keeps the
  top dimensions by aggregate prototype magnitude (a stand-in for
  retraining-based sparsification methods such as SparseHD; every output
  names it ``sparsehd``).

All three deploy as one :class:`PrototypeTable`, which shares the
decomposed scorer's protocol: ``stored()`` returns the float32 array the
table holds, under the name ``"table"``, ``replace(arrays)`` wraps
rewritten arrays with the same mask, and the class method
``score_stack(variants, h)`` scores several tables of one mask in one
product, of which ``score_batch`` is the one-table case.  A sparsified
table is the one with a mask: it holds only its retained columns,
C x floor(budget * dim), and scores the retained dimensions of the
encodings against them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import check_labels
from .model import in_stacks, pick_class, stack_rows, stacked_product
from .ops import derive_seed, rng_from_seed


@dataclass
class PrototypeTable:
    """Class prototypes, shape (num_classes, dim).

    A sparsified table's *mask* marks the retained dimensions among
    ``dim``; ``prototypes`` then holds only those columns, in index
    order, and scoring reads only those dimensions of the encodings.
    """

    prototypes: np.ndarray
    mask: np.ndarray | None = None  # bool, shape (dim,)

    @property
    def num_classes(self) -> int:
        return self.prototypes.shape[0]

    @property
    def dim(self) -> int:
        return self.prototypes.shape[1] if self.mask is None else self.mask.shape[0]

    def stored(self) -> dict[str, np.ndarray]:
        return {"table": self.prototypes}

    def replace(self, arrays: dict[str, np.ndarray]) -> "PrototypeTable":
        return PrototypeTable(arrays["table"], self.mask)

    def score_batch(self, h: np.ndarray) -> np.ndarray:
        """``h @ prototypes.T`` on the retained dimensions: the
        one-table case of :meth:`score_stack`."""
        return next(self.score_stack([self], h))

    @classmethod
    def score_stack(cls, variants, h: np.ndarray):
        """Scores of *h* under each table of the iterable *variants*, in
        order, each equal to its :meth:`score_batch` bit for bit.  The
        tables are copies of one table, such as its bit-flipped ones
        (:meth:`replace` keeps the mask), so they share its mask: each
        stack of at most :data:`~decohd.model.STACK_ROWS` class rows
        (:func:`~decohd.model.in_stacks`) gathers the retained columns
        of *h* once and multiplies them against its tables stacked."""
        h = np.asarray(h)

        def score(stack):
            mask = stack[0].mask
            x = h if mask is None else np.take(h, np.flatnonzero(mask), axis=-1)
            with np.errstate(over="ignore", invalid="ignore"):
                return stacked_product(x, [v.prototypes for v in stack])

        return in_stacks(variants, lambda v: stack_rows(len(h), v.num_classes, v.prototypes.shape[1]), score)


def build_prototype_table(h: np.ndarray, labels: np.ndarray, num_classes: int) -> PrototypeTable:
    """Class-wise summation of encoded hypervectors.

    Each row is widened and added into its class's float64 row, in row
    order.  That is the order ``np.add.at`` adds in, so the sums are the
    same bit for bit, without a float64 copy of every encoding.  The
    table is stored in the input dtype.  A class with no samples keeps a
    zero prototype; one warning names the first such class and their
    count.
    """
    h = np.asarray(h)
    labels = check_labels(labels, len(h), num_classes)
    table = np.zeros((num_classes, h.shape[1]), dtype=np.float64)
    for row, label in zip(h, labels):
        table[label] += row
    empty = np.flatnonzero(np.bincount(labels, minlength=num_classes) == 0)
    if empty.size:
        warnings.warn(f"class {empty[0]} has no training samples ({empty.size} classes in all); "
                      "their prototypes are left at zero")
    return PrototypeTable(table.astype(h.dtype, copy=False))


def _refuse_mask(table: PrototypeTable, action: str) -> None:
    if table.mask is not None:
        raise ValueError(f"cannot {action} a sparsified table: it holds {table.prototypes.shape[1]} "
                         f"of {table.dim} dimensions; {action} the dense table instead")


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
    A sparsified table is refused: refine the dense table, then sparsify.
    """
    _refuse_mask(table, "refine")
    h = np.asarray(h)
    labels = check_labels(labels, len(h), table.num_classes)
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


def sparsify_table(table: PrototypeTable, budget: float) -> PrototypeTable:
    """Keep the top floor(budget * dim) dimensions by summed |prototype|
    magnitude across classes; the mask is shared by all classes, and
    only the retained columns are copied.

    Ties break toward the lower dimension index, so the mask is a pure
    function of the table.  An already sparsified table is refused.
    """
    _refuse_mask(table, "sparsify")
    if not 0.0 < budget <= 1.0:
        raise ValueError("budget must be in (0, 1]")
    keep = int(np.floor(budget * table.dim))
    if keep < 1:
        raise ValueError(f"budget {budget} retains zero of {table.dim} dimensions")
    magnitude = np.abs(table.prototypes.astype(np.float64)).sum(axis=0)
    order = np.argsort(-magnitude, kind="stable")
    mask = np.zeros(table.dim, dtype=bool)
    mask[order[:keep]] = True
    return PrototypeTable(np.ascontiguousarray(table.prototypes[:, mask]), mask)


MODEL_KINDS = ("decohd", "prototype", "onlinehd", "sparsehd")
