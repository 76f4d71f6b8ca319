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

Each layer's latents are expanded by a frozen projector of
:meth:`ModelConfig.projector_specs`.  Training expands them through
matrix-free projectors (:class:`~decohd.ops.HadamardProjector`) with
:func:`materialize_channels`, and containers store those channels.
A :class:`DecoHDClassifier`, a model built from latents, uses dense
Gaussian projectors of the same specs instead, streamed a strip at a
time (:func:`stream_channels`): the benchmark's serve oracle regenerates
exactly those, so this dense fence stays until the benchmark changes.

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

import numpy as np

from .encoding import RandomProjectionEncoder, Standardizer
from .ops import HadamardProjector, RandomMatrixSpec, derive_seed, rng_from_seed, row_blocks


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
    its cast and its channels, never a whole projector.
    """
    check_param_shapes(params, config)

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
        return ChannelBank(list(pool.map(layer, params.latents, config.projector_specs())))


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
    float32 channels once, at construction, through the dense projectors
    of :func:`stream_channels`, not the matrix-free ones of training: a
    trained model is deployed from its container, not rebuilt here."""

    def __init__(self, encoder, standardizer, config: ModelConfig, params: ModelParams):
        from .inference import DecomposedScorer  # local import avoids a cycle

        bank = stream_channels(params.astype(np.float32), config)
        super().__init__(encoder, standardizer, DecomposedScorer(bank, params.head.astype(np.float32)), "decohd")

    def channel_bank(self) -> ChannelBank:
        """The float32 channels, with the head the model's inference-resident state."""
        return self.scorer.bank

    def head(self) -> np.ndarray:
        return self.scorer.head
