"""Decomposed classifier parameterization.

Class prototypes are never stored directly.  Each layer ``i`` holds
``L_i`` trainable low-dimensional latents that a frozen random projector
expands into channel hypervectors.
Picking one channel per layer defines a path; binding the selected
channels gives the path's factor ``basis_m`` (:func:`path_basis`), and
a small per-class weight matrix, the bundling head, weighs all
``M = prod(L_i)`` paths.  Bundling the path factors by the head
composes class c's prototype ``P_c = sum_m head[c, m] * basis_m``, and
the class scores ``<P_c, h>``: bind, bundle and score in the
hypervector space itself, with only the channels and the head stored.
Training contracts each row against the C prototypes, and carries the
gradient back through the binding with :func:`channel_grads`
(:mod:`decohd.training`).

Each layer's latents are expanded by a frozen projector of
:meth:`ModelConfig.projector_specs`.  Training expands them through
matrix-free projectors (:class:`~decohd.ops.HadamardProjector`) with
:func:`materialize_channels`, and containers store those channels.
A :class:`DecoHDClassifier`, a model built from latents, uses dense
Gaussian projectors of the same specs instead, streamed a strip at a
time (:func:`stream_channels`): the benchmark's serve oracle regenerates
exactly those, and scores the earlier form ``<P_c, h*h>``.  So the bank
that :func:`stream_channels` returns is the one marked
:attr:`ChannelBank.squared`, and it alone scores ``h*h``; that fence
stays until the benchmark serves from a container (ROADMAP Direction 7).

Path enumeration is row-major over the per-layer channel choices: the
last layer varies fastest, as in ``itertools.product`` of the layers'
channels.  The head's column order follows this flat enumeration and is
part of the serialized model format.

One :class:`Classifier` deploys every model kind, trained, loaded or
built from latents.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .encoding import RandomProjectionEncoder, Standardizer
from .ops import HadamardProjector, RandomMatrixSpec, derive_seed, rng_from_seed, row_blocks


@dataclass(frozen=True)
class ModelConfig:
    """Architecture of the decomposed classifier, and the one statement
    of its shape rule and of the two sizes a budget weighs."""

    channels_per_layer: tuple[int, ...]
    latent_dim: int
    dim: int
    num_classes: int
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "channels_per_layer", tuple(int(x) for x in self.channels_per_layer))
        if len(self.channels_per_layer) < 1:
            raise ValueError("need at least one layer")
        if any(l < 1 for l in self.channels_per_layer):
            raise ValueError("every layer needs at least one channel")
        if self.latent_dim < 1 or self.dim < 1:
            raise ValueError("latent_dim and dim must be >= 1")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")

    @property
    def num_layers(self) -> int:
        return len(self.channels_per_layer)

    @property
    def num_paths(self) -> int:
        return math.prod(self.channels_per_layer)

    @property
    def footprint(self) -> float:
        """Stored elements, the C x M head and the channels at full dim,
        relative to a dense C x dim table; it can exceed 1."""
        num_classes, dim = self.num_classes, self.dim
        return (num_classes * self.num_paths + sum(self.channels_per_layer) * dim) / (num_classes * dim)

    @property
    def trainable_params(self) -> int:
        """The latents' entries and the head's."""
        return sum(self.channels_per_layer) * self.latent_dim + self.num_classes * self.num_paths

    def projector_specs(self) -> list[RandomMatrixSpec]:
        """The seeds of each layer's frozen latent_dim x dim projector.

        Either kind gives entries of variance 1/latent_dim
        (:class:`~decohd.ops.HadamardProjector`, :func:`~decohd.ops.row_blocks`):
        with unit-variance latents the channel entries come out O(1)
        independent of latent_dim.
        """
        return [
            RandomMatrixSpec(rows=self.latent_dim, cols=self.dim, seed=derive_seed(self.seed, "projector", i))
            for i in range(self.num_layers)
        ]


@dataclass
class ModelParams:
    """The only trainable state: per-layer latents and the bundling head."""

    latents: list[np.ndarray]  # layer i: (L_i, latent_dim)
    head: np.ndarray  # (num_classes, num_paths)

    def copy(self) -> "ModelParams":
        return ModelParams([a.copy() for a in self.latents], self.head.copy())

    def arrays(self) -> list[np.ndarray]:
        """The latents, then the head."""
        return [*self.latents, self.head]


def init_params(config: ModelConfig, dtype=np.float64) -> ModelParams:
    """Latents i.i.d. normal(0, 1); every head entry exactly 1/M."""
    latents = []
    for i, l in enumerate(config.channels_per_layer):
        rng = rng_from_seed(derive_seed(config.seed, "latents", i))
        latents.append(rng.standard_normal((l, config.latent_dim)).astype(dtype))
    head = np.full((config.num_classes, config.num_paths), 1.0 / config.num_paths, dtype=dtype)
    return ModelParams(latents=latents, head=head)


# ---------------------------------------------------------------------------
# Channels and path basis


@dataclass
class ChannelBank:
    """Materialized channel hypervectors, one (L_i, dim) block per layer.

    A bank is immutable once scored: the cached property :attr:`basis`
    builds the path basis on first use and keeps it for every later
    read, so writing into ``channels`` afterwards would leave it stale.
    Quantization, bit-flip injection and training build fresh banks
    instead.  The kept basis is read by training's step and evaluation,
    and by the path-term form of :func:`~decohd.inference.score_batch`:
    the fenced bank's and that of a bank whose composed prototypes
    overflow.  A deployed linear scorer composes its prototypes from a
    basis it does not keep (:class:`~decohd.inference.DecomposedScorer`),
    and a bank stacked with others (:func:`~decohd.inference.score_forms`)
    builds its basis into the stack without keeping it.

    *squared* marks the fenced bank of :func:`stream_channels`, the only
    code that sets it: its classes score ``<P_c, h*h>``, not ``<P_c, h>``.
    """

    channels: list[np.ndarray]
    squared: bool = False

    @property
    def dim(self) -> int:
        return self.channels[0].shape[1]

    @property
    def channels_per_layer(self) -> tuple[int, ...]:
        return tuple(c.shape[0] for c in self.channels)

    @property
    def num_paths(self) -> int:
        return math.prod(self.channels_per_layer)

    @functools.cached_property
    def basis(self) -> np.ndarray:
        """:func:`path_basis` of this bank, built once and kept."""
        return path_basis(self)


def materialize_channels(params: ModelParams, projectors: list[HadamardProjector]) -> ChannelBank:
    """Expand each layer's latents through its matrix-free projector:
    the bank of *params* as training builds it."""
    if len(projectors) != len(params.latents):
        raise ValueError("projector count does not match latent layer count")
    channels = []
    for i, (lat, projector) in enumerate(zip(params.latents, projectors)):
        if lat.shape[1] != projector.rows:
            raise ValueError(f"layer {i}: latent dim {lat.shape[1]} does not match projector rows {projector.rows}")
        channels.append(projector.apply(lat))
    return ChannelBank(channels)


def stream_channels(params: ModelParams, config: ModelConfig) -> ChannelBank:
    """The channels of *params* through the dense Gaussian projectors of
    ``config.projector_specs()``, at the latents' dtype: the fence for
    models built from latents.  Training expands latents through other,
    matrix-free projectors, so deploy a trained model from its container,
    not by rebuilding it here from its latents.

    Each layer, on its own thread, sums ``lat[:, j:j+16] @ P[j:j+16]`` in
    order over the strips that :func:`~decohd.ops.row_blocks` draws,
    multiplying each into one reused buffer, so it holds one draw buffer,
    its cast and its channels, never a whole projector.  The bank is
    :attr:`~ChannelBank.squared`, as the benchmark's serve oracle scores it.
    Latents or a head of other shapes than *config*'s are a ValueError.
    """
    shapes = [a.shape for a in params.arrays()]
    expected = [(l, config.latent_dim) for l in config.channels_per_layer]
    expected.append((config.num_classes, config.num_paths))
    if shapes != expected:
        raise ValueError(f"latent and head shapes {shapes}, expected {expected}")

    def layer(lat, spec):
        channels, product, start = None, None, 0
        for strip in row_blocks(spec):
            part = np.matmul(lat[:, start : start + len(strip)], strip.astype(lat.dtype, copy=False), out=product)
            if channels is None:
                channels, product = part, np.empty_like(part)
            else:
                channels += part
            start += len(strip)
        return channels

    with ThreadPoolExecutor(max_workers=config.num_layers) as pool:
        return ChannelBank(list(pool.map(layer, params.latents, config.projector_specs())), squared=True)


def _layer_views(channels: list[np.ndarray]) -> list[np.ndarray]:
    """Layer i's (L_i, dim) channels as a broadcastable view with L_i on
    axis i and size 1 on the other layer axes, dim last.  A product of
    views is indexed by per-layer channel choices, so over all layers it
    reshapes to (num_paths, dim) in flat path order."""
    n = len(channels)
    return [
        c.reshape((1,) * i + (c.shape[0],) + (1,) * (n - 1 - i) + (c.shape[1],))
        for i, c in enumerate(channels)
    ]


def path_basis(bank: ChannelBank) -> np.ndarray:
    """Input-independent bound-path factors, shape (num_paths, dim).

    Row m is the binding of the channels selected by flat path m, bound
    from the first layer to the last by broadcast outer products.
    """
    views = _layer_views(bank.channels)
    basis = views[0].copy()
    for view in views[1:]:
        basis = basis * view
    return basis.reshape(bank.num_paths, bank.dim)


def channel_grads(bank: ChannelBank, d_basis: np.ndarray) -> list[np.ndarray]:
    """Per-layer channel gradients from the (num_paths, dim) path-basis
    gradient: the adjoint of :func:`path_basis`.

    Layer i's complement is the product of the lower layers' channels in
    ascending order times the product of the higher layers' channels from
    the last layer down, built from broadcast :func:`_layer_views`.  Each
    channel sums ``d_basis * complement`` over the paths through it in
    ascending path order, as a sequential scatter-add would.
    """
    views = _layer_views(bank.channels)
    d_basis = d_basis.reshape(bank.channels_per_layer + (bank.dim,))
    d_channels = []
    for i in range(len(views)):
        parts = [functools.reduce(np.multiply, p) for p in (views[:i], views[:i:-1]) if p]
        term = d_basis * functools.reduce(np.multiply, parts) if parts else d_basis
        d_channels.append(np.add.reduce(term, axis=tuple(j for j in range(len(views)) if j != i)))
    return d_channels


def pick_class(scores: np.ndarray):
    """Argmax over the last (class) axis with deterministic rules: NaN
    ranks below every finite score, ties break toward the lowest class
    index.  One score vector gives one index, (n, C) scores give n."""
    scores = np.asarray(scores)
    return np.argmax(np.where(np.isnan(scores), -np.inf, scores), axis=-1)


def accuracy(scorer, h: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows of *h* whose batched score picks the label in *labels*."""
    return float((pick_class(scorer.score_batch(h)) == np.asarray(labels)).mean())


# ---------------------------------------------------------------------------
# Stacked scoring: several variants of one scorer in one product

# Most rows of class prototypes or path factors one stacked product
# multiplies, so its working memory does not grow with the variants
# scored: 640 rows of D=10000 float32 are 25.6 MB.  The benchmark's
# largest stack, nine bit-flipped decohd bases of 64 paths, is 576.
STACK_ROWS = 640


def stack_rows(n: int, rows: int, width: int) -> float:
    """The rows that the product of an (n, width) input and a (rows,
    width) block adds to a stack; infinite, so that the block is scored
    alone, where BLAS would round the block's own product by another
    kernel than a stacked one.  A product of one row or one column goes
    to a matrix-vector kernel, and OpenBLAS computes one of at most
    10**6 multiply-accumulates by a small-matrix kernel whose rounding
    depends on the output column.  Larger products are blocked over
    ``width`` alike whatever their rows and columns, so a stacked
    block's scores equal its own product's bit for bit.

    The 10**6 rule was measured on one BLAS only, numpy's bundled
    OpenBLAS 0.3.31 on a SkylakeX core.  Other OpenBLAS cores and
    versions, and other BLAS, choose their kernels by other sizes;
    there a stacked block's scores may differ from its own product's in
    the last bits, with no error raised."""
    return rows if min(n, rows) > 1 and n * rows * width > 10**6 else math.inf


def in_stacks(variants, rows, score):
    """The scores ``score(group)`` returns for each group of consecutive
    *variants*, in order: a group holds the most variants whose
    ``rows(v)`` total at most ``STACK_ROWS``, or one variant alone.
    *variants* may be an iterator; it is consumed a group at a time."""
    group, total = [], 0
    for v in variants:
        r = rows(v)
        if group and total + r > STACK_ROWS:
            yield from score(group)
            group, total = [], 0
        group.append(v)
        total += r
    if group:
        yield from score(group)


def stacked_product(x: np.ndarray, blocks: list[np.ndarray]) -> list[np.ndarray]:
    """``x @ b.T`` for each block b, as column views of one product
    against the stacked blocks."""
    if len(blocks) <= 1:
        return [x @ b.T for b in blocks]
    scores = x @ np.concatenate(blocks).T
    ends = np.cumsum([len(b) for b in blocks])
    return [scores[:, end - len(b):end] for b, end in zip(blocks, ends)]


# ---------------------------------------------------------------------------
# End-to-end classifier: one Classifier deploys every model kind


@dataclass
class Classifier:
    """End-to-end classifier over raw features for every model kind: the
    encoder, the standardizer and a deployed scorer."""

    encoder: RandomProjectionEncoder
    standardizer: Standardizer
    scorer: DecomposedScorer | PrototypeTable  # not imported: their modules import this one
    kind: str  # one of baselines.MODEL_KINDS

    def predict(self, x: np.ndarray) -> int:
        return int(self.predict_batch(np.asarray(x)[None, :])[0])

    def predict_batch(self, features: np.ndarray) -> np.ndarray:
        h = self.encoder.encode_batch(features, self.standardizer)
        return pick_class(self.scorer.score_batch(h))


class DecoHDClassifier(Classifier):
    """The :class:`Classifier` of a decomposed model built from latents
    (the benchmark's serve workload starts from one); it streams its
    float32 channels once, at construction, through the dense projectors
    of :func:`stream_channels`, not the matrix-free ones of training: a
    trained model is deployed from its container, not rebuilt here.  The
    latents and the head are cast to float32 once each, here."""

    def __init__(self, encoder, standardizer, config: ModelConfig, params: ModelParams):
        from .inference import DecomposedScorer  # local import avoids a cycle

        latents, head = [a.astype(np.float32) for a in params.latents], params.head.astype(np.float32)
        bank = stream_channels(ModelParams(latents, head), config)
        super().__init__(encoder, standardizer, DecomposedScorer(bank, head), "decohd")

    def channel_bank(self) -> ChannelBank:
        """The float32 channels, with the head the model's inference-resident state."""
        return self.scorer.bank

    def head(self) -> np.ndarray:
        return self.scorer.head
