"""Scoring a decomposed model: one batched forward, one streamed forward.

The score of class c is ``s_c = sum_m head[c,m] * <basis_m, h*h>``, with
``basis_m`` the bound-path factor of path m (:func:`~decohd.model.path_basis`).

* :func:`path_terms` computes the input term ``u = h*h`` and the path
  terms ``t = u @ basis.T``.  :func:`score_batch` runs it per chunk of
  rows against the basis the bank keeps, and training runs it per
  microbatch.
* :func:`stream_scores` scores one hypervector path by path, keeping one
  float64 working hypervector, *h* widened once and C scalar scores.

:meth:`DecomposedScorer.scores` scores one hypervector in the mode that
:func:`choose_mode` picks under a memory cap: ``score_only`` streams,
``materialized_prototypes`` scores ``<P_c, h*h>`` against the prototypes
``P_c = sum_m head[c,m] * basis_m`` stored at the model dtype.  Forms
differ in rounding by a bound relative to the sum of the absolute path
terms, ``sum_m |head[c,m]| * <|basis_m|, h*h>``, not to the score, which
may cancel to near zero.

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

from .model import ChannelBank, layer_index_arrays

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
        scores += head[:, m].astype(np.float64) * np.dot(z, h)
    return scores


def materialize_prototypes(bank: ChannelBank, head: np.ndarray) -> np.ndarray:
    """Collapse the decomposition into a conventional C x dim prototype
    table, from the path basis the bank keeps; input-independent."""
    basis = bank.basis
    protos = head.astype(np.float64, copy=False) @ basis.astype(np.float64, copy=False)
    return protos.astype(np.result_type(head, bank.channels[0]), copy=False)


def path_terms(h: np.ndarray, basis: np.ndarray, out: np.ndarray | None = None):
    """The input term ``u = h*h`` and the path terms ``t = u @ basis.T``
    of a batch of rows; *out*, if given, receives ``u``."""
    u = np.multiply(h, h, out=out)
    return u, u @ basis.T


def score_batch(h: np.ndarray, bank: ChannelBank, head: np.ndarray) -> np.ndarray:
    """Batched scoring, shape (n, num_classes), against the path basis
    the bank keeps (:attr:`~decohd.model.ChannelBank.basis`).

    Rows are scored in chunks of at most ``_SCORE_CHUNK_ROWS``, squared
    into one reused buffer, so working memory does not grow with n.  The
    rows are split evenly over the chunks rather than leaving a short
    tail: BLAS computes small products with other kernels, whose rounding
    differs, and even chunks keep each row's scores equal to those of
    one whole-batch product.

    A bit-flipped bank may overflow: the basis is built, and the rows
    scored, with overflow and invalid-value warnings silenced.
    """
    h = np.asarray(h)
    n = h.shape[0]
    chunks = max(1, -(-n // _SCORE_CHUNK_ROWS))
    u = np.empty((min(n, _SCORE_CHUNK_ROWS), h.shape[1]), dtype=h.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        basis = bank.basis
        out = np.empty((n, head.shape[0]), dtype=np.result_type(h, basis, head))
        for k in range(chunks):
            lo, hi = k * n // chunks, (k + 1) * n // chunks
            _, t = path_terms(h[lo:hi], basis, out=u[: hi - lo])
            out[lo:hi] = t @ head.T
    return out


def choose_mode(num_classes: int, dim: int, memory_cap_bytes: int | None) -> str:
    """Prefer the float32 prototype table when it fits the cap, else stream."""
    if memory_cap_bytes is None or num_classes * dim * 4 <= memory_cap_bytes:
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
        """Scores of one hypervector, shape (num_classes,), in a mode of
        :func:`choose_mode`."""
        if mode == "score_only":
            return stream_scores(h, self.bank, self.head)
        if mode == "materialized_prototypes":
            h = np.asarray(h, dtype=np.float64)
            # A bit-flipped bank may overflow, as in score_batch.
            with np.errstate(over="ignore", invalid="ignore"):
                prototypes = materialize_prototypes(self.bank, self.head).astype(np.float64, copy=False)
                return (prototypes @ (h * h).T).T
        raise ValueError(
            f"unknown inference mode {mode!r}; expected 'score_only' or 'materialized_prototypes'"
        )

    def score_batch(self, h: np.ndarray) -> np.ndarray:
        return score_batch(h, self.bank, self.head)
