"""Fixed random-projection encoder with train-split standardization.

An input ``x`` is standardized with statistics fitted on the training
split only, then projected by a frozen random matrix into the
high-dimensional space: ``h = ((x - mean) / std) @ W``.  The projection
matrix is regenerated from its seed and never trained or stored: an
encoder draws it on its first encode and holds it until it is released
(``del encoder.matrix``), after which the next encode draws it again,
bit for bit.

Every encoding is ``h = zW / |zW|``, z the standardized row: h is linear
in z up to a positive per-row scale, so a model whose scores are linear
in h, S its effective C x D table, predicts ``argmax_c (z @ (W @ S.T))_c``:
a C x F fold for analysis and tests, never a deployed form.

The projection runs in float32, the precision the matrix is drawn at
and the encodings are stored in: the encoder holds the float32 matrix
``generate_matrix`` returns, and a call draws it if it is not held, then
casts the standardized rows to float32 once and runs one product into
the output.  A product of 2 or more rows accumulates each entry in one
order whatever the row count, so a row's encoding does not depend on
its batch; a single row runs a matrix-vector product and may differ
from its batched twin in the last bit.

The output is normalized in place in strips of ``_NORM_ROWS`` rows
while each is in cache: the strip's float32 squares go to a strip-sized
scratch, their row sums give the norms and the strip is divided by them
in one plain in-place divide, zero norms first set to 1: a zero row
stays zero, and a row whose squares all underflow to zero stays as it
is.  The squares overflow float32 beyond about 1.8e19, far above
standardized inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ops import RandomMatrixSpec, derive_seed, generate_matrix

_NORM_ROWS = 32


@dataclass
class Standardizer:
    """Per-feature mean and standard deviation of the training split."""

    mean: np.ndarray
    std: np.ndarray

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

    The matrix is regenerable from (seed, num_features, dim) alone.
    Every hypervector has unit L2 norm (``normalize_output``, a constant):
    a positive per-sample rescaling cannot change downstream argmax, and
    it bounds logit magnitude at large D.
    """

    num_features: int
    dim: int
    seed: int = 0
    normalize_output = True  # a constant, not a field: perfbench/oracle.py reads it

    def __post_init__(self):
        if self.num_features < 1:
            raise ValueError("num_features must be >= 1")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")

    def matrix_spec(self) -> RandomMatrixSpec:
        # Entries of variance 1/num_features (ops.row_blocks) keep
        # hypervector entries O(1) regardless of the input feature count.
        seed = derive_seed(self.seed, "encoder", self.num_features, self.dim)
        return RandomMatrixSpec(rows=self.num_features, cols=self.dim, seed=seed)


class RandomProjectionEncoder:
    """Applies the frozen projection of *config*.

    ``matrix`` is the float32 matrix ``generate_matrix`` draws from the
    config's spec.  It is drawn when first read, not at construction,
    and held as drawn until ``del encoder.matrix`` releases it.
    """

    def __init__(self, config: EncoderConfig):
        self.config = config

    @cached_property
    def matrix(self) -> np.ndarray:
        return generate_matrix(self.config.matrix_spec(), dtype=np.float32)

    def encode(self, x: np.ndarray, standardizer: Standardizer) -> np.ndarray:
        """Encode a single sample into a hypervector."""
        return self.encode_batch(np.asarray(x)[None, :], standardizer)[0]

    def encode_batch(self, features: np.ndarray, standardizer: Standardizer) -> np.ndarray:
        """Encode rows of *features*: one float32 product into the
        output, normalized in float32 strips, as the module docstring
        describes.  Beyond its output and the standardized input, a call
        holds one strip of squares."""
        features = np.asarray(features)
        if features.ndim != 2 or features.shape[1] != self.config.num_features:
            raise ValueError(
                f"expected shape (n, {self.config.num_features}), got {features.shape}"
            )
        if not np.isfinite(features).all():
            raise ValueError("non-finite value in input features")
        # Drawn before the standardized rows exist: drawn after them, the
        # matrix raised a bench train run's peak RSS by 28 MB (heap layout).
        matrix = self.matrix
        z = standardizer.apply(features).astype(np.float32)
        n = features.shape[0]
        out = np.matmul(z, matrix)
        squares = np.empty((min(n, _NORM_ROWS), self.config.dim), dtype=np.float32)
        for lo in range(0, n, _NORM_ROWS):
            rows = out[lo:lo + _NORM_ROWS]
            sq = np.multiply(rows, rows, out=squares[: len(rows)])
            norms = np.sqrt(np.add.reduce(sq, axis=1, keepdims=True))
            norms[norms == 0.0] = 1.0  # a zero row stays as it is
            np.divide(rows, norms, out=rows)
        return out
