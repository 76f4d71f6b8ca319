"""Scoring a decomposed model: one input term, two forwards.

The score of class c is ``s_c = sum_m head[c,m] * <basis_m, u>``, with
``basis_m`` the bound-path factor of path m (:func:`~decohd.model.path_basis`)
and ``u = h*h`` the one input term (:func:`input_term`).  No class
prototype is stored; a decomposed model has two forwards:

* :func:`score_batch` scores rows against the basis the bank keeps, via
  :func:`path_terms` (``t = u @ basis.T``), which training runs per
  microbatch too.  It serves batches and ``predict``.
* :func:`stream_scores` scores one hypervector path by path, in
  ``itertools.product`` order, without a basis: it keeps ``u`` and one
  working hypervector in float64 and C scalar scores.

Forms differ in rounding by a bound relative to the sum of the absolute
path terms, ``sum_m |head[c,m]| * <|basis_m|, u>``, not to the score,
which may cancel to near zero.  :func:`choose_mode` and the *mode* of
:meth:`DecomposedScorer.scores` stay only for callers that pass them.

:class:`DecomposedScorer` is the deployed form of a decomposed model.
Like the baselines' :class:`~decohd.baselines.PrototypeTable` and
:class:`~decohd.baselines.SparseScorer` it exposes ``stored()``, the
arrays the form keeps, and ``replace(arrays)``, a new scorer over
rewritten arrays; quantization, fault injection and budget accounting
work through these two alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .model import ChannelBank

# Most rows score_batch squares and scores at once; its working buffer
# holds this many rows whatever the batch size.
_SCORE_CHUNK_ROWS = 1024


def input_term(h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``h*h``, the input term of every score; *out*, if given, receives it."""
    return np.multiply(h, h, out=out)


def stream_scores(h: np.ndarray, bank: ChannelBank, head: np.ndarray) -> np.ndarray:
    """Score-only streaming: one path hypervector alive at a time.

    *h* is widened to float64 once and squared in place into ``u``; each
    path binds its channel rows into a float64 working buffer, its basis
    row, and adds the row's dot with ``u`` to the scores.  A bit-flipped
    bank may overflow: as in :func:`score_batch`, its warnings are silenced.
    """
    u = np.array(h, dtype=np.float64)
    if u.shape != (bank.dim,):
        raise ValueError(f"hypervector shape {u.shape} does not match bank dim {bank.dim}")
    scores = np.zeros(head.shape[0], dtype=np.float64)
    z = np.empty(bank.dim, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        input_term(u, out=u)
        for m, rows in enumerate(itertools.product(*bank.channels)):
            z[:] = rows[0]
            for row in rows[1:]:
                np.multiply(z, row, out=z)
            scores += head[:, m].astype(np.float64) * np.dot(z, u)
    return scores


def path_terms(h: np.ndarray, basis: np.ndarray, out: np.ndarray | None = None):
    """The input term ``u`` (:func:`input_term`) and the path terms
    ``t = u @ basis.T`` of a batch of rows; *out*, if given, receives ``u``."""
    u = input_term(h, out=out)
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
    """``"score_only"`` under every cap: a kept basis scores faster than a
    C x dim table rebuilt per call, and streaming needs neither.  The
    arguments stay only for callers that pass them."""
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
        """Scores of one hypervector, shape (num_classes,), streamed by
        :func:`stream_scores`; ``score_only`` is the one *mode*."""
        if mode != "score_only":
            raise ValueError(f"unknown inference mode {mode!r}; expected 'score_only'")
        return stream_scores(h, self.bank, self.head)

    def score_batch(self, h: np.ndarray) -> np.ndarray:
        return score_batch(h, self.bank, self.head)
