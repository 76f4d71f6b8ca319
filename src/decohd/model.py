"""Decomposed classifier parameterization.

Class prototypes are never stored directly.  Each layer ``i`` holds
``L_i`` trainable low-dimensional latents that a frozen random projector
expands into channel hypervectors (:func:`materialize_channels`).
Picking one channel per layer defines a path; binding the selected
channels gives the path's factor ``basis_m`` (:func:`path_basis`), and
a small per-class weight matrix, the bundling head, weighs all
``M = prod(L_i)`` paths.  A class score binds the input with every
path, bundles by the head and dots with the input.

Because binding is elementwise, a score depends on the input only
through its elementwise square: ``score_c(h) = <P_c, h*h>`` with
``P_c = sum_m head[c, m] * basis_m``.  :mod:`decohd.inference` forms
``h*h`` in one function, ``input_term``, for its batched and streamed forwards.

Path enumeration is row-major over the per-layer channel choices: the
last layer varies fastest, as in ``itertools.product`` of the layers'
channels.  The head's column order follows this flat enumeration and is
part of the serialized model format.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .encoding import RandomProjectionEncoder, Standardizer
from .ops import RandomMatrixSpec, derive_seed, generate_matrix, rng_from_seed


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

        Entries are normal(0, 1/latent_dim): with unit-variance latents
        the channel entries come out O(1) independent of latent_dim.
        """
        return [
            RandomMatrixSpec(
                rows=self.latent_dim,
                cols=self.dim,
                kind="gaussian",
                seed=derive_seed(self.seed, "projector", i),
                scale=1.0 / np.sqrt(self.latent_dim),
            )
            for i in range(self.num_layers)
        ]


def materialize_projectors(config: ModelConfig, dtype=np.float32) -> list[np.ndarray]:
    """Every layer's projector, each drawn on its own thread.

    Each projector owns its Philox stream, and numpy releases the GIL
    while it fills an array, so the layers draw in parallel and every
    matrix is bit-identical to a plain :func:`generate_matrix` of its
    spec.  A thread holds one block buffer besides its output.
    """
    specs = config.projector_specs()
    with ThreadPoolExecutor(max_workers=len(specs)) as pool:
        return list(pool.map(lambda spec: generate_matrix(spec, dtype=dtype), specs))


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
    if len(params.latents) != config.num_layers:
        raise ValueError("latent layer count does not match config")
    for i, (a, l) in enumerate(zip(params.latents, config.channels_per_layer)):
        if a.shape != (l, config.latent_dim):
            raise ValueError(f"layer {i} latents have shape {a.shape}, expected ({l}, {config.latent_dim})")
    if params.head.shape != (config.num_classes, config.num_paths):
        raise ValueError(
            f"head has shape {params.head.shape}, expected "
            f"({config.num_classes}, {config.num_paths})"
        )


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


def materialize_channels(params: ModelParams, projectors: list[np.ndarray]) -> ChannelBank:
    """Expand each latent through its layer's frozen projector."""
    if len(projectors) != len(params.latents):
        raise ValueError("projector count does not match latent layer count")
    channels = []
    for i, (lat, proj) in enumerate(zip(params.latents, projectors)):
        if lat.shape[1] != proj.shape[0]:
            raise ValueError(
                f"layer {i}: latent dim {lat.shape[1]} does not match projector rows {proj.shape[0]}"
            )
        channels.append(lat @ proj)
    return ChannelBank(channels)


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
# End-to-end classifier (encoder + standardizer + trained parameters)


@dataclass
class DecoHDClassifier:
    """A trained decomposed classifier over raw feature vectors.

    ``_bank`` may be given the channels already materialized from
    *params*, as training hands over its final bank; :meth:`channel_bank`
    rebuilds them at float32 when they are of another dtype.
    """

    encoder: RandomProjectionEncoder
    standardizer: Standardizer
    config: ModelConfig
    params: ModelParams
    kind: ClassVar[str] = "decohd"
    _bank: ChannelBank | None = field(default=None, repr=False, compare=False)

    def channel_bank(self) -> ChannelBank:
        """Materialized float32 channels, cached; this plus the head is
        the inference-resident state of the model."""
        if self._bank is None or self._bank.channels[0].dtype != np.float32:
            projectors = materialize_projectors(self.config)
            self._bank = materialize_channels(self.params.astype(np.float32), projectors)
        return self._bank

    def head(self) -> np.ndarray:
        return self.params.head.astype(np.float32)

    @property
    def scorer(self):
        """The deployed form: a :class:`~decohd.inference.DecomposedScorer`
        over the cached float32 bank and head."""
        from .inference import DecomposedScorer  # local import avoids a cycle

        return DecomposedScorer(bank=self.channel_bank(), head=self.head())

    def predict(self, x: np.ndarray) -> int:
        return int(self.predict_batch(np.asarray(x)[None, :])[0])

    def predict_batch(self, features: np.ndarray) -> np.ndarray:
        h = self.encoder.encode_batch(features, self.standardizer)
        return pick_class(self.scorer.score_batch(h))
