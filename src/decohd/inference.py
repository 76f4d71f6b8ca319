"""Scoring a decomposed model: bind, bundle, then score.

The score of class c is ``s_c = <P_c, h> = sum_m head[c,m] * <basis_m, h>``,
with ``basis_m`` the bound-path factor of path m
(:func:`~decohd.model.path_basis`) and ``P_c`` the class's composed
prototype.  A linear bank scores in that order: the head bundles the
bound paths into ``P = head @ basis``, and :func:`score_batch` scores
``h @ P.T`` in one product, C*dim multiply-accumulates per row with no
n x dim or n x M temporary.  :class:`DecomposedScorer` composes P on its
first score and keeps it: P is resident but never stored.  Training
scores the same product with its own forward
(:func:`decohd.training.evaluate`) and has no fallback: a non-finite
score there means the run diverged.  At C >= M, a shape no benchmark
workload has, P is wider than the basis.

Given no prototypes, :func:`score_batch` scores the path terms
``(h @ basis.T) @ head.T`` against the basis the bank keeps, in chunks
of at most 256 rows, so its working memory is bounded.  Two cases take
that form.  The fenced bank of :func:`~decohd.model.stream_channels`
(:attr:`~decohd.model.ChannelBank.squared`) scores ``<P_c, h*h>``, the
form the benchmark's serve oracle checks, until ROADMAP Direction 7
removes the fence; a chunked ``(h*h) @ P.T`` is not bit-equal to one
whole-batch product at small C.  And a bit-flipped float32 exponent can
make P overflow where the path terms, scaled by |h| <= 1 first, stay
finite: a P that is not finite, or a product with a non-finite score,
falls back to the path terms, so composing adds no non-finite score.

Forms differ in rounding by a bound relative to the sum of the absolute
path terms, ``sum_m |head[c,m]| * <|basis_m|, |h|>``, not to the score,
which may cancel to near zero.

:func:`stream_scores`, :func:`choose_mode` and the *mode* of
:meth:`DecomposedScorer.scores` are the benchmark's low-memory
bindings: each is the one-row case of :func:`score_batch` or a
constant, kept only because the benchmark calls and traces them.

:class:`DecomposedScorer` is the deployed form of a decomposed model.
Like the baselines' :class:`~decohd.baselines.PrototypeTable`, dense or
sparsified, it exposes ``stored()``, the arrays the form keeps, and
``replace(arrays)``, a new scorer over rewritten arrays; quantization,
fault injection and budget accounting work through these two alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .model import ChannelBank, path_basis

# Most rows the path-term form scores at once.  A fenced bank's chunk is
# squared into one buffer of this many rows whatever the batch size: at
# D=10000 float32 it is 10 MB, under glibc's 32 MB mmap threshold, so the
# heap reuses it rather than mapping and zero-filling it per call, and a
# chunk's squares are still in cache for the product; 512 rows was no
# faster, 128 slower.
_SCORE_CHUNK_ROWS = 256


def stream_scores(
    h: np.ndarray, bank: ChannelBank, head: np.ndarray, prototypes: np.ndarray | None = None
) -> np.ndarray:
    """Scores of one hypervector, shape (num_classes,): the one-row case
    of :func:`score_batch`, kept as the benchmark's traced low-memory
    layer."""
    h = np.asarray(h)
    if h.shape != (bank.dim,):
        raise ValueError(f"hypervector shape {h.shape} does not match bank dim {bank.dim}")
    return score_batch(h[None, :], bank, head, prototypes)[0]


def score_batch(
    h: np.ndarray, bank: ChannelBank, head: np.ndarray, prototypes: np.ndarray | None = None
) -> np.ndarray:
    """Batched scoring, shape (n, num_classes): ``h @ prototypes.T``
    given a linear bank's composed *prototypes*; otherwise, or if that
    product has a non-finite score, the path terms
    ``(h @ basis.T) @ head.T`` against the basis the bank keeps
    (:attr:`~decohd.model.ChannelBank.basis`).

    The path terms are scored in chunks of at most
    ``_SCORE_CHUNK_ROWS`` rows, a fenced bank's squared into one reused
    buffer, so working memory does not grow with n.  The rows are split
    evenly over the chunks rather than leaving a short tail: BLAS
    computes small products with other kernels, whose rounding differs,
    and even chunks keep each row's scores equal to those of one
    whole-batch product.

    A bit-flipped bank may overflow: the basis is built, and the rows
    scored, with overflow and invalid-value warnings silenced.
    """
    h = np.asarray(h)
    with np.errstate(over="ignore", invalid="ignore"):
        if prototypes is not None:
            out = h @ prototypes.T
            if np.isfinite(out).all():
                return out
        n = h.shape[0]
        chunks = max(1, -(-n // _SCORE_CHUNK_ROWS))
        u = np.empty((min(n, _SCORE_CHUNK_ROWS), h.shape[1]), dtype=h.dtype) if bank.squared else None
        basis = bank.basis
        out = np.empty((n, head.shape[0]), dtype=np.result_type(h, basis, head))
        for k in range(chunks):
            lo, hi = k * n // chunks, (k + 1) * n // chunks
            x = h[lo:hi] if u is None else np.multiply(h[lo:hi], h[lo:hi], out=u[: hi - lo])
            out[lo:hi] = (x @ basis.T) @ head.T
    return out


def choose_mode(num_classes: int, dim: int, memory_cap_bytes: int | None) -> str:
    """``"score_only"`` under every cap, the one mode.  The benchmark's
    low-memory requests call it; its arguments are not read."""
    return "score_only"


@dataclass
class DecomposedScorer:
    """Inference-resident state of a decomposed model: the materialized
    channel bank plus the bundling head, and the class prototypes they
    compose.  :meth:`stored` names the channels ``"channels:{i}"`` and the
    head ``"head"``; the prototypes are not stored."""

    bank: ChannelBank
    head: np.ndarray

    @property
    def num_classes(self) -> int:
        return self.head.shape[0]

    @property
    def dim(self) -> int:
        return self.bank.dim

    @functools.cached_property
    def _prototypes(self) -> np.ndarray | None:
        """P = head @ basis of a linear bank, composed on the first score
        from a basis that is not kept, then kept itself; None for the
        fenced bank and when an entry of P is not finite, as a
        bit-flipped bank's may be: both score the path terms."""
        if self.bank.squared:
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            prototypes = self.head @ path_basis(self.bank)
        return prototypes if np.isfinite(prototypes).all() else None

    def stored(self) -> dict[str, np.ndarray]:
        out = {f"channels:{i}": c for i, c in enumerate(self.bank.channels)}
        out["head"] = self.head
        return out

    def replace(self, arrays: dict[str, np.ndarray]) -> "DecomposedScorer":
        """A new scorer over a fresh bank, which composes its own
        prototypes, so none goes stale; the bank keeps its score form
        (:attr:`~decohd.model.ChannelBank.squared`)."""
        channels = [arrays[f"channels:{i}"] for i in range(len(self.bank.channels))]
        return DecomposedScorer(bank=ChannelBank(channels, squared=self.bank.squared), head=arrays["head"])

    def scores(self, h: np.ndarray, mode: str = "score_only") -> np.ndarray:
        """Scores of one hypervector, shape (num_classes,):
        :func:`stream_scores`, the one-row case of :meth:`score_batch`,
        bit for bit and in its dtype.  ``score_only`` is the one *mode*;
        the benchmark's low-memory requests pass it."""
        if mode != "score_only":
            raise ValueError(f"unknown inference mode {mode!r}; expected 'score_only'")
        return stream_scores(h, self.bank, self.head, self._prototypes)

    def score_batch(self, h: np.ndarray) -> np.ndarray:
        return score_batch(h, self.bank, self.head, self._prototypes)
