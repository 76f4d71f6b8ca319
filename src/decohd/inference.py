"""Inference regimes for the decomposed classifier.

Two equivalent ways to score an encoded input, trading memory for
per-sample work:

* ``score_only``: stream over paths keeping one working hypervector and
  C scalar scores (``s_c += head[c,m] * <Z_m(h), h>``); peak auxiliary
  storage is two float64 hypervectors (the working buffer and *h*
  widened once) plus C scalars.
* ``materialized_prototypes``: precompute the C input-independent
  prototypes ``P_c = sum_m head[c,m] * basis_m`` once, then score each
  input with C dot products against ``h*h``.

The streaming mode works in float64 throughout, whatever the model
dtype.  The prototype table is stored at the model dtype, so its scores
carry that dtype's rounding.  The error is bounded relative to the sum
of the absolute path terms, ``sum_m |head[c,m]| * <|basis_m|, h*h>``,
not relative to the score: a score that cancels to near zero may differ
between modes by far more than its own magnitude times eps.  Both modes
must agree on argmax.

:class:`DecomposedScorer` is the deployed form of a decomposed model.
Like the baselines' :class:`~decohd.baselines.PrototypeTable` and
:class:`~decohd.baselines.SparseScorer` it exposes ``stored()``, the
arrays the form keeps, and ``replace(arrays)``, a new scorer over
rewritten arrays; quantization, fault injection and budget accounting
work through these two alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ChannelBank, layer_index_arrays, path_basis
from .ops import dot

INFERENCE_MODES = ("score_only", "materialized_prototypes")

# Most rows score_batch squares and scores at once; its working buffer
# holds this many rows whatever the batch size.
_SCORE_CHUNK_ROWS = 1024


def stream_scores(h: np.ndarray, bank: ChannelBank, head: np.ndarray) -> np.ndarray:
    """Score-only streaming: one path hypervector alive at a time.

    *h* is widened to float64 once.  The working buffer is float64 and is
    rebound from it on every path; binding, the dot product and the score
    accumulation all run in float64.
    """
    h = np.asarray(h)
    if h.shape != (bank.dim,):
        raise ValueError(f"hypervector shape {h.shape} does not match bank dim {bank.dim}")
    h = h.astype(np.float64, copy=False)
    idx = layer_index_arrays(bank.channels_per_layer)
    scores = np.zeros(head.shape[0], dtype=np.float64)
    z = np.empty(bank.dim, dtype=np.float64)
    for m in range(bank.num_paths):
        z[:] = h
        for i, ch in enumerate(bank.channels):
            np.multiply(z, ch[idx[i][m]], out=z)
        scores += head[:, m].astype(np.float64) * dot(z, h)
    return scores


def materialize_prototypes(bank: ChannelBank, head: np.ndarray) -> np.ndarray:
    """Collapse the decomposition into a conventional C x dim prototype
    table; input-independent, computed once per model."""
    basis = path_basis(bank)
    protos = head.astype(np.float64, copy=False) @ basis.astype(np.float64, copy=False)
    return protos.astype(np.result_type(head, bank.channels[0]), copy=False)


def materialized_scores(h: np.ndarray, prototypes: np.ndarray) -> np.ndarray:
    """Conventional scoring against a prototype table: the input enters
    only through its elementwise square.  *h* is one hypervector, giving
    shape (num_classes,), or a batch of rows, giving (n, num_classes)."""
    h = np.asarray(h, dtype=np.float64)
    return (prototypes.astype(np.float64, copy=False) @ (h * h).T).T


def infer_scores(h: np.ndarray, bank: ChannelBank, head: np.ndarray, mode: str) -> np.ndarray:
    if mode == "score_only":
        return stream_scores(h, bank, head)
    if mode == "materialized_prototypes":
        return materialized_scores(h, materialize_prototypes(bank, head))
    raise ValueError(f"unknown inference mode {mode!r}; expected one of {INFERENCE_MODES}")


def score_batch(h: np.ndarray, bank: ChannelBank, head: np.ndarray) -> np.ndarray:
    """Batched scoring, shape (n, num_classes), against the path basis
    the bank keeps (:attr:`~decohd.model.ChannelBank.basis`).

    Rows are scored in chunks of at most ``_SCORE_CHUNK_ROWS``, squared
    into one reused buffer, so working memory does not grow with n.  The
    rows are split evenly over the chunks rather than leaving a short
    tail: BLAS computes small products with other kernels, whose rounding
    differs, and even chunks keep each row's scores equal to those of
    one whole-batch product.
    """
    h = np.asarray(h)
    n = h.shape[0]
    chunks = max(1, -(-n // _SCORE_CHUNK_ROWS))
    u = np.empty((min(n, _SCORE_CHUNK_ROWS), h.shape[1]), dtype=h.dtype)
    out = np.empty((n, head.shape[0]), dtype=np.result_type(h, bank.basis, head))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(chunks):
            lo, hi = k * n // chunks, (k + 1) * n // chunks
            sq = np.multiply(h[lo:hi], h[lo:hi], out=u[: hi - lo])
            out[lo:hi] = (sq @ bank.basis.T) @ head.T
    return out


def peak_memory_estimate(mode: str, num_classes: int, dim: int, itemsize: int = 4) -> int:
    """Auxiliary inference storage in bytes, by the analytic count of
    resident floats per mode.

    ``score_only`` holds float64 buffers whatever the model dtype: the
    working hypervector, the input widened to float64 and C scores.
    *itemsize* is the width of the stored prototype table.
    """
    if mode == "score_only":
        return (2 * dim + num_classes) * 8
    if mode == "materialized_prototypes":
        return num_classes * dim * itemsize
    raise ValueError(f"unknown inference mode {mode!r}; expected one of {INFERENCE_MODES}")


def choose_mode(num_classes: int, dim: int, memory_cap_bytes: int | None, itemsize: int = 4) -> str:
    """Prefer the prototype table when it fits the cap, else stream."""
    if memory_cap_bytes is None:
        return "materialized_prototypes"
    if num_classes * dim * itemsize <= memory_cap_bytes:
        return "materialized_prototypes"
    return "score_only"


@dataclass
class DecomposedScorer:
    """Inference-resident state of a decomposed model: the materialized
    channel bank plus the bundling head.  :meth:`stored` names them
    ``"channels:{i}"`` and ``"head"``."""

    bank: ChannelBank
    head: np.ndarray

    @property
    def num_classes(self) -> int:
        return self.head.shape[0]

    @property
    def dim(self) -> int:
        return self.bank.dim

    def stored(self) -> dict[str, np.ndarray]:
        out = {f"channels:{i}": c for i, c in enumerate(self.bank.channels)}
        out["head"] = self.head
        return out

    def replace(self, arrays: dict[str, np.ndarray]) -> "DecomposedScorer":
        """A new scorer over a fresh bank, so no kept basis goes stale."""
        channels = [arrays[f"channels:{i}"] for i in range(len(self.bank.channels))]
        return DecomposedScorer(bank=ChannelBank(channels), head=arrays["head"])

    def scores(self, h: np.ndarray, mode: str = "score_only") -> np.ndarray:
        return infer_scores(h, self.bank, self.head, mode)

    def score_batch(self, h: np.ndarray) -> np.ndarray:
        return score_batch(h, self.bank, self.head)
