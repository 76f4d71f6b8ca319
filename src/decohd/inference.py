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
Both classes also score several variants of one scorer, such as its
bit-flipped copies, by the class method ``score_stack(variants, h)``:
the variants' prototypes, or here their bases, are stacked into one
product (:func:`score_forms`), each variant's scores equal to its own
``score_batch`` bit for bit, and ``score_batch`` is the one-scorer case.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .model import ChannelBank, in_stacks, path_basis, stack_rows, stacked_product

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
    """Batched scoring, shape (n, num_classes): the one-scorer case of
    :func:`score_forms`, its stack of one form.  ``h @ prototypes.T``
    given a linear bank's composed *prototypes*; otherwise, or if that
    product has a non-finite score, the path terms
    ``(h @ basis.T) @ head.T`` against the basis the bank keeps
    (:attr:`~decohd.model.ChannelBank.basis`)."""
    return _score_stack(np.asarray(h), [(bank, head, prototypes)])[0]


def score_forms(h: np.ndarray, forms):
    """Scores of *h*, shape (n, num_classes) each, under every
    ``(bank, head, prototypes)`` of the iterable *forms*, in order, a
    stack of at most :data:`~decohd.model.STACK_ROWS` rows at a time
    (:func:`~decohd.model.in_stacks`).

    A stack scores the composed prototypes of its forms in one product
    (:func:`~decohd.model.stacked_product`).  The forms without
    prototypes, or whose product has a non-finite score, score their
    path terms, again in stacks: their bases are stacked into one
    product per chunk of at most ``_SCORE_CHUNK_ROWS`` rows, and each
    form's head is applied to its own path terms.  A fenced bank's chunk
    is squared once, into one reused buffer, so working memory grows
    with neither n nor the forms.  The rows are split evenly over the
    chunks rather than leaving a short tail: BLAS computes small
    products with other kernels, whose rounding differs, and even chunks
    keep each row's scores equal to those of one whole-batch product.
    A form alone in its stack scores against its own arrays and the
    basis its bank keeps; a stacked bank's basis is built into the
    stack and not kept.

    A bit-flipped bank may overflow: the basis is built, and the rows
    scored, with overflow and invalid-value warnings silenced.
    """
    h = np.asarray(h)
    n, dim = h.shape

    def rows(form):
        bank, _, prototypes = form
        return _path_rows(n, bank, dim) if prototypes is None else stack_rows(n, len(prototypes), dim)

    return in_stacks(forms, rows, lambda stack: _score_stack(h, stack))


def _path_rows(n: int, bank: ChannelBank, dim: int) -> float:
    """The stack rows of *bank*'s path terms over *n* rows: those of the
    shortest chunk's product."""
    return stack_rows(n // max(1, -(-n // _SCORE_CHUNK_ROWS)), bank.num_paths, dim)


def _score_stack(h: np.ndarray, stack) -> list[np.ndarray]:
    """The scores of one stack of :func:`score_forms`."""
    if len(stack) == 1 and stack[0][2] is None:  # one form without P, such as a served fenced bank
        return _path_terms(h, stack)
    with np.errstate(over="ignore", invalid="ignore"):
        composed = iter(stacked_product(h, [p for _, _, p in stack if p is not None]))
    out = [None if p is None else next(composed) for _, _, p in stack]
    out = [s if s is not None and np.isfinite(s).all() else None for s in out]
    n, dim = h.shape
    terms = in_stacks([form for form, s in zip(stack, out) if s is None], lambda form: _path_rows(n, form[0], dim),
                      lambda forms: _path_terms(h, forms))
    return [next(terms) if s is None else s for s in out]


def _path_terms(h: np.ndarray, forms) -> list[np.ndarray]:
    """``(h @ basis.T) @ head.T`` of each (bank, head, _) of *forms*, in
    even row chunks; the banks are copies of one bank, so they share
    its form (:attr:`~decohd.model.ChannelBank.squared`)."""
    n, dim = h.shape
    chunks = max(1, -(-n // _SCORE_CHUNK_ROWS))
    starts = list(itertools.accumulate((head.shape[1] for _, head, _ in forms), initial=0))  # a head row per path
    with np.errstate(over="ignore", invalid="ignore"):
        if len(forms) == 1:
            basis = forms[0][0].basis
        else:
            basis = np.empty((starts[-1], dim), dtype=np.result_type(*{c.dtype for b, _, _ in forms for c in b.channels}))
            for (bank, _, _), lo, hi in zip(forms, starts, starts[1:]):
                basis[lo:hi] = path_basis(bank)
        u = np.empty((min(n, _SCORE_CHUNK_ROWS), dim), dtype=h.dtype) if forms[0][0].squared else None
        outs = [np.empty((n, head.shape[0]), dtype=np.result_type(h, basis, head)) for _, head, _ in forms]
        for k in range(chunks):
            lo, hi = k * n // chunks, (k + 1) * n // chunks
            x = h[lo:hi] if u is None else np.multiply(h[lo:hi], h[lo:hi], out=u[: hi - lo])
            terms = x @ basis.T
            for (_, head, _), out, a, b in zip(forms, outs, starts, starts[1:]):
                out[lo:hi] = terms[:, a:b] @ head.T
    return outs


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
        bit-flipped bank's may be: both score the path terms.  A
        non-finite stored entry leaves a row or column of P non-finite
        (inf times anything is inf or NaN, and so is any sum holding
        one), so such a bank returns None before composing."""
        if self.bank.squared or not all(np.isfinite(a).all() for a in self.stored().values()):
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
        """:func:`score_batch`, the one-scorer case of :meth:`score_stack`."""
        return score_batch(h, self.bank, self.head, self._prototypes)

    @classmethod
    def score_stack(cls, variants, h: np.ndarray):
        """Scores of *h* under each scorer of the iterable *variants*,
        in order, each equal to its :meth:`score_batch` bit for bit:
        :func:`score_forms` over their banks, heads and prototypes.
        Consecutive scorers are stacked, at most
        :data:`~decohd.model.STACK_ROWS` rows at a time.  The variants
        are copies of one scorer, such as its bit-flipped ones
        (:meth:`replace` keeps the bank's score form), so a stack's
        banks are all fenced or all linear."""
        return score_forms(h, ((v.bank, v.head, v._prototypes) for v in variants))
