"""Decomposed classifier parameterization.

Class prototypes are never stored directly.  Each layer ``i`` holds
``L_i`` trainable low-dimensional latents that a frozen random projector
expands into channel hypervectors.
Picking one channel per layer defines a path; binding the selected
channels gives the path's factor ``basis_m`` (:func:`path_basis`), and
a small per-class weight matrix, the bundling head, weighs all
``M = prod(L_i)`` paths.  A class score binds the input with every
path, bundles by the head and dots with the input.

Because binding is elementwise, a score depends on the input only
through its elementwise square: ``score_c(h) = <P_c, h*h>`` with
``P_c = sum_m head[c, m] * basis_m``.  :mod:`decohd.inference` forms
``h*h`` in one function, ``input_term``, for its batched and streamed forwards.

A channel expansion ``lat @ P`` is always the in-order sum of
``lat[:, j:j+16] @ P[j:j+16]`` over the projector's 16-row strips, in
one function, ``_expand``, which is the only code that walks a
projector.  Training holds each projector as its 64-row panels, all
allocated on the calling thread (:func:`materialize_projectors`), and
builds every bank with :func:`materialize_channels`: the first from the
initial latents, then one per optimizer step, whose hook updates a
panel's latent columns before the panel's strips are read
(:mod:`decohd.training`).  A model built from latents, a
:class:`DecoHDClassifier`, multiplies each strip into its channels as
soon as it is drawn from the seed, and never holds a whole projector
(:func:`stream_channels`).  All of them run the same products, so their
banks are bit-identical.  Containers store channels.

Path enumeration is row-major over the per-layer channel choices: the
last layer varies fastest, as in ``itertools.product`` of the layers'
channels.  The head's column order follows this flat enumeration and is
part of the serialized model format.

One :class:`Classifier` deploys every model kind, trained, loaded or
built from latents.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .encoding import RandomProjectionEncoder, Standardizer
from .ops import STRIP_ROWS, RandomMatrixSpec, derive_seed, generate_matrix, rng_from_seed, row_blocks

# Projector rows per panel, the unit in which training holds a projector
# and a step walks it: four draw strips.  Gradient bits: on OpenBLAS a
# 64-row panel's latent-gradient product (decohd.training) equals the
# whole-projector product bit for bit; 32, 96 and 128 rows did too but
# were slower, 40, 48, 56 and 80 rows did not, and 16-row panels take a
# small-matrix kernel that rounds differently.  Heap reuse: the panels
# are allocated on the calling thread (a worker thread allocates from its
# own malloc arena).  glibc maps any request above its dynamic mmap
# threshold, and freeing a mapped chunk of up to 32 MiB raises the
# threshold to that chunk's size.  So once a process has freed, say, a
# 23.5 MiB encoder matrix, a 2.56 MB panel comes from the main heap and
# reuses memory freed there, while a 156 MiB whole projector, above the
# 32 MiB ceiling, always gets a fresh mapping.  In a process that has
# freed nothing, each panel gets its own mapping, as a projector would.
_PANEL_ROWS = 64


@dataclass(frozen=True)
class ModelConfig:
    """Architecture of the decomposed classifier."""

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

    def projector_specs(self) -> list[RandomMatrixSpec]:
        """One frozen latent_dim x dim projector per layer.

        Entries are normal(0, 1/latent_dim) (ops.row_blocks): with
        unit-variance latents the channel entries come out O(1)
        independent of latent_dim.
        """
        return [
            RandomMatrixSpec(rows=self.latent_dim, cols=self.dim, seed=derive_seed(self.seed, "projector", i))
            for i in range(self.num_layers)
        ]


def materialize_projectors(config: ModelConfig, dtype=np.float32) -> list[list[np.ndarray]]:
    """Every layer's projector, held as its ``_PANEL_ROWS``-row panels,
    top to bottom.  Only training holds these: a model built from latents
    streams its channels instead (:func:`stream_channels`).

    Every panel is allocated here, on the calling thread; then each layer
    fills its panels on its own thread.  Each projector owns its Philox
    stream, and numpy releases the GIL while it fills an array, so the
    layers draw in parallel and each layer's panels stack bit for bit to
    a plain :func:`generate_matrix` of its spec.  A thread holds one draw
    buffer.
    """
    specs = config.projector_specs()
    held = [
        [np.empty((min(_PANEL_ROWS, s.rows - p), s.cols), dtype=dtype) for p in range(0, s.rows, _PANEL_ROWS)]
        for s in specs
    ]
    with ThreadPoolExecutor(max_workers=len(specs)) as pool:
        return list(pool.map(lambda spec, panels: generate_matrix(spec, dtype, panels), specs, held))


@dataclass
class ModelParams:
    """The only trainable state: per-layer latents and the bundling head."""

    latents: list[np.ndarray]  # layer i: (L_i, latent_dim)
    head: np.ndarray  # (num_classes, num_paths)

    def copy(self) -> "ModelParams":
        return ModelParams([a.copy() for a in self.latents], self.head.copy())

    def astype(self, dtype) -> "ModelParams":
        return ModelParams([a.astype(dtype) for a in self.latents], self.head.astype(dtype))

    def arrays(self) -> list[np.ndarray]:
        """The latents, then the head."""
        return [*self.latents, self.head]


def check_param_shapes(params: ModelParams, config: ModelConfig) -> None:
    """A ValueError unless *params* has the latent and head shapes of *config*."""
    shapes = [a.shape for a in params.arrays()]
    expected = [(l, config.latent_dim) for l in config.channels_per_layer]
    expected.append((config.num_classes, config.num_paths))
    if shapes != expected:
        raise ValueError(f"latent and head shapes {shapes}, expected {expected}")


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

    A bank is immutable once scored: :attr:`basis` builds the path basis
    on first use and keeps it for every later batch, so writing into
    ``channels`` afterwards would leave it stale.  Quantization, bit-flip
    injection and training build fresh banks instead.
    """

    channels: list[np.ndarray]
    _basis: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.channels[0].shape[1]

    @property
    def channels_per_layer(self) -> tuple[int, ...]:
        return tuple(c.shape[0] for c in self.channels)

    @property
    def num_paths(self) -> int:
        return math.prod(self.channels_per_layer)

    @property
    def basis(self) -> np.ndarray:
        """:func:`path_basis` of this bank, built once and kept."""
        if self._basis is None:
            self._basis = path_basis(self)
        return self._basis


def _expand(lat: np.ndarray, blocks, before=None) -> np.ndarray:
    """``lat @ P`` summed strip by strip, in order, over the row blocks of
    ``P`` that *blocks* yields: a held projector's panels, or the strips
    that :func:`~decohd.ops.row_blocks` draws.  Each block is used before
    the next is asked for, one ``STRIP_ROWS``-row strip at a time, each
    cast to the latents' dtype.  ``before(block, cols)``, if given, runs
    before the block's strips are read; *cols* are the block's latent
    columns.  The first strip's product is the sum; every later one is
    multiplied into one reused buffer and added."""
    channels, product, start = None, None, 0
    for block in blocks:
        if before is not None:
            before(block, slice(start, start + len(block)))
        for j in range(0, len(block), STRIP_ROWS):
            strip = block[j : j + STRIP_ROWS]
            part = np.matmul(lat[:, start : start + len(strip)], strip.astype(lat.dtype, copy=False), out=product)
            if channels is None:
                channels, product = part, np.empty_like(part)
            else:
                channels += part
            start += len(strip)
    return channels


def materialize_channels(params: ModelParams, projectors: list[list[np.ndarray]], before=None) -> ChannelBank:
    """Expand each latent through its layer's held projector, a list of
    panels (:func:`materialize_projectors`).  ``before(i, panel, cols)``,
    if given, runs before the strips of each panel of layer i are read;
    *cols* are the panel's latent columns."""
    if len(projectors) != len(params.latents):
        raise ValueError("projector count does not match latent layer count")
    channels = []
    for i, (lat, panels) in enumerate(zip(params.latents, projectors)):
        rows = sum(len(panel) for panel in panels)
        if lat.shape[1] != rows:
            raise ValueError(f"layer {i}: latent dim {lat.shape[1]} does not match projector rows {rows}")
        channels.append(_expand(lat, panels, None if before is None else partial(before, i)))
    return ChannelBank(channels)


def stream_channels(params: ModelParams, config: ModelConfig) -> ChannelBank:
    """``materialize_channels(params, materialize_projectors(config,
    dtype))`` bit for bit, at the latents' dtype, without holding any
    projector whole.

    Each layer expands on its own thread from the strips that
    :func:`~decohd.ops.row_blocks` draws from its spec, so a thread holds
    one draw buffer, its cast and its channels.
    """
    check_param_shapes(params, config)
    specs = config.projector_specs()

    def layer(lat, spec):
        return _expand(lat, row_blocks(spec))

    with ThreadPoolExecutor(max_workers=len(specs)) as pool:
        return ChannelBank(list(pool.map(layer, params.latents, specs)))


def layer_views(channels: list[np.ndarray]) -> list[np.ndarray]:
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
    views = layer_views(bank.channels)
    basis = views[0].copy()
    for view in views[1:]:
        basis = basis * view
    return basis.reshape(bank.num_paths, bank.dim)


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
# End-to-end classifier: one Classifier deploys every model kind


@dataclass
class Classifier:
    """End-to-end classifier over raw features for every model kind: the
    encoder, the standardizer and a deployed scorer."""

    encoder: RandomProjectionEncoder
    standardizer: Standardizer
    scorer: DecomposedScorer | PrototypeTable | SparseScorer  # not imported: their modules import this one
    kind: str  # one of baselines.MODEL_KINDS

    def predict(self, x: np.ndarray) -> int:
        return int(self.predict_batch(np.asarray(x)[None, :])[0])

    def predict_batch(self, features: np.ndarray) -> np.ndarray:
        h = self.encoder.encode_batch(features, self.standardizer)
        return pick_class(self.scorer.score_batch(h))


class DecoHDClassifier(Classifier):
    """The :class:`Classifier` of a decomposed model built from latents
    (the benchmark's serve workload starts from one); it streams its
    float32 channels once, at construction (:func:`stream_channels`)."""

    def __init__(self, encoder, standardizer, config: ModelConfig, params: ModelParams):
        from .inference import DecomposedScorer  # local import avoids a cycle

        bank = stream_channels(params.astype(np.float32), config)
        super().__init__(encoder, standardizer, DecomposedScorer(bank, params.head.astype(np.float32)), "decohd")

    def channel_bank(self) -> ChannelBank:
        """The float32 channels, with the head the model's inference-resident state."""
        return self.scorer.bank

    def head(self) -> np.ndarray:
        return self.scorer.head
