"""Fixed random-projection encoder with train-split standardization.

An input ``x`` is standardized with statistics fitted on the training
split only, then projected by a frozen random matrix into the
high-dimensional space: ``h = ((x - mean) / std) @ W``.  The projection
matrix is regenerated from its seed and never trained or stored.

The projection runs in float64.  The encoder widens its float32-rounded
matrix to float64 once, at construction, and holds that copy, so no
request pays for the cast and every encoding is bit-identical to a
float64 product with the float32-rounded matrix.

Rows are projected in chunks of ``_ENCODE_CHUNK_ROWS`` into one float64
buffer per call.  Each chunk is then normalized and narrowed to the
output dtype in strips of ``_NORM_STRIP_ROWS`` rows, each while it is
still in cache: the strip's squares go to a strip-sized scratch, their
row sums give the norms, the strip is divided in place and cast into
the output.  These are the operations ``np.linalg.norm`` runs, so the
encodings are bit for bit its result, without its chunk-sized array of
squares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ops import DEFAULT_TERNARY_ZERO_PROB, RandomMatrixSpec, derive_seed, generate_matrix

_ENCODE_CHUNK_ROWS = 1024
_NORM_STRIP_ROWS = 32


@dataclass
class Standardizer:
    """Per-feature mean and standard deviation of the training split."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def identity(cls, num_features: int) -> "Standardizer":
        """Pass-through standardizer (mean 0, std 1)."""
        return cls(np.zeros(num_features), np.ones(num_features))

    def apply(self, features: np.ndarray) -> np.ndarray:
        return (np.asarray(features, dtype=np.float64) - self.mean) / self.std


def fit_standardizer(train_features: np.ndarray) -> Standardizer:
    """Fit per-feature statistics; population std (ddof=0).

    Near-constant columns (std below 1e-9 relative to the mean scale)
    get their std clamped to 1 instead of raising, so tabular data with
    degenerate columns still encodes.
    """
    x = np.asarray(train_features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-d feature matrix, got shape {x.shape}")
    if x.shape[0] < 2:
        raise ValueError("standardizer needs at least 2 training rows")
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    tiny = 1e-9 * np.maximum(1.0, np.abs(mean))
    std = np.where(std < tiny, 1.0, std)
    return Standardizer(mean=mean, std=std)


@dataclass(frozen=True)
class EncoderConfig:
    """Shape and seed of the frozen encoder.

    The matrix is regenerable from (seed, kind, num_features, dim) alone.
    ``normalize_output`` rescales each hypervector to unit L2 norm; a
    positive per-sample rescaling cannot change downstream argmax, and it
    bounds logit magnitude at large D.
    """

    num_features: int
    dim: int
    kind: str = "gaussian"
    seed: int = 0
    normalize_output: bool = True
    ternary_zero_prob: float = DEFAULT_TERNARY_ZERO_PROB

    def __post_init__(self):
        if self.num_features < 1:
            raise ValueError("num_features must be >= 1")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")

    def matrix_spec(self) -> RandomMatrixSpec:
        # 1/sqrt(num_features) keeps hypervector entries O(1) regardless
        # of the input feature count.
        return RandomMatrixSpec(
            rows=self.num_features,
            cols=self.dim,
            kind=self.kind,
            seed=derive_seed(self.seed, "encoder", self.num_features, self.dim),
            scale=1.0 / np.sqrt(self.num_features),
            ternary_zero_prob=self.ternary_zero_prob,
        )


class RandomProjectionEncoder:
    """Applies the frozen projection; immutable after construction.

    ``matrix`` is held in float64: a generated matrix is drawn at
    float32 and widened once.  An explicit ``matrix`` can be passed to
    pin the projection in tests.
    """

    def __init__(self, config: EncoderConfig, matrix: np.ndarray | None = None):
        self.config = config
        if matrix is None:
            matrix = generate_matrix(config.matrix_spec(), dtype=np.float32)
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.shape != (config.num_features, config.dim):
            raise ValueError(
                f"encoder matrix shape {matrix.shape} does not match config "
                f"({config.num_features}, {config.dim})"
            )
        self.matrix = matrix

    def encode(self, x: np.ndarray, standardizer: Standardizer, dtype=np.float32) -> np.ndarray:
        """Encode a single sample into a hypervector."""
        h = self.encode_batch(np.asarray(x)[None, :], standardizer, dtype=dtype)
        return h[0]

    def encode_batch(
        self, features: np.ndarray, standardizer: Standardizer, dtype=np.float32
    ) -> np.ndarray:
        """Encode rows of *features*: projected in float64 chunks, then
        normalized (when configured) and cast in strips, as the module
        docstring describes.  A zero row has norm 0 and stays zero.
        Beyond its output and the standardized input, a call holds one
        chunk and one strip."""
        features = np.asarray(features)
        if features.ndim != 2 or features.shape[1] != self.config.num_features:
            raise ValueError(
                f"expected shape (n, {self.config.num_features}), got {features.shape}"
            )
        if not np.isfinite(features).all():
            raise ValueError("non-finite value in input features")
        z = standardizer.apply(features)
        n = features.shape[0]
        out = np.empty((n, self.config.dim), dtype=dtype)
        block = np.empty((min(n, _ENCODE_CHUNK_ROWS), self.config.dim))
        squares = np.empty((min(n, _NORM_STRIP_ROWS), self.config.dim))
        for start in range(0, n, _ENCODE_CHUNK_ROWS):
            stop = min(start + _ENCODE_CHUNK_ROWS, n)
            product = np.matmul(z[start:stop], self.matrix, out=block[: stop - start])
            for lo in range(0, stop - start, _NORM_STRIP_ROWS):
                rows = product[lo:lo + _NORM_STRIP_ROWS]
                if self.config.normalize_output:
                    sq = np.multiply(rows, rows, out=squares[: len(rows)])
                    norms = np.sqrt(np.add.reduce(sq, axis=1, keepdims=True))
                    np.divide(rows, norms, out=rows, where=norms > 0.0)
                out[start + lo:start + lo + len(rows)] = rows
        return out
