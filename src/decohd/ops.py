"""Primitive operations of the high-dimensional vector space.

Binding (elementwise multiplication), bundling (weighted addition) and
the dot-product similarity are written where the model performs them,
in :func:`decohd.model.path_basis` and the forwards of
:mod:`decohd.inference`.

Frozen random matrices are described by a :class:`RandomMatrixSpec` of
shape and seed alone and regenerated on demand, so they never need to
be stored.  Two kinds are drawn from a spec.  The dense Gaussian kind
(the input encoder, and the projectors of a model built from latents)
is materialized whole (:func:`generate_matrix`) or streamed as row
strips (:func:`row_blocks`), with the same bits.  The structured kind,
a :class:`HadamardProjector`, is the latent projector that training
uses: it multiplies by a randomized Walsh-Hadamard transform and never
forms its matrix.

Seed derivation
---------------
Every random stream in the package flows from one root seed through a
single fixed rule: ``derive_seed(root, *tokens)`` hashes the ASCII string
``"<root>:<token>:..."`` with SHA-256 and keeps the first 8 bytes
(big-endian) as the 64-bit key of a Philox counter-based generator.
Streams are therefore independent of generation order and bit-identical
across runs and platforms.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

# Rows per draw strip of a dense matrix (row_blocks), and per product of a
# streamed channel expansion (decohd.model.stream_channels): a 1.3 MB
# float64 buffer at 10000 columns.  Kept small because, under glibc, a
# buffer below the 32 MB mmap ceiling that a worker thread frees can stay
# in that thread's malloc arena; and OpenBLAS runs a 4 x 16 @ 16 x 10000
# product on the calling thread alone, so the layers' expansions do not
# compete for BLAS threads.  32- and 64-row blocks were slower.
STRIP_ROWS = 16


def derive_seed(root: int, *tokens: int | str) -> int:
    """Derive a 64-bit stream seed from a root seed and a token path.

    The rule (SHA-256 over ``"<root>:<t1>:<t2>:..."``, first 8 bytes,
    big-endian) is part of the reproducibility contract: manifests record
    only root seeds, and every substream is recoverable from them.
    """
    msg = ":".join([str(int(root))] + [str(t) for t in tokens])
    return int.from_bytes(hashlib.sha256(msg.encode("ascii")).digest()[:8], "big")


def rng_from_seed(seed: int) -> np.random.Generator:
    """Counter-based generator keyed by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=seed))


@dataclass(frozen=True)
class RandomMatrixSpec:
    """Seeded description of a frozen random matrix.

    Regenerating from an equal spec is bit-identical, which is what lets
    models store seeds instead of the matrices themselves.
    """

    rows: int
    cols: int
    seed: int

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"matrix shape must be positive, got {self.rows}x{self.cols}")


def row_blocks(spec: RandomMatrixSpec):
    """Yield the float64 matrix described by *spec* top to bottom, one
    draw strip of ``STRIP_ROWS`` rows at a time (the last strip
    may be shorter).

    Entries are i.i.d. normal(0, 1/rows): standard normals times
    ``1/sqrt(rows)``, so a unit-variance input of ``rows`` entries
    projects to entries of unit variance whatever ``rows`` is.

    Every yield is a view of one float64 buffer, drawn into in place,
    scaled and overwritten by the next yield, so a caller casts or keeps
    what it needs before asking for more.  The generator fills
    sequentially, so the strips stacked equal one full-size draw bit for bit.
    """
    rng = rng_from_seed(spec.seed)
    scale = 1.0 / np.sqrt(spec.rows)
    buffer = np.empty((min(STRIP_ROWS, spec.rows), spec.cols))
    for start in range(0, spec.rows, len(buffer)):
        strip = buffer[: spec.rows - start]
        rng.standard_normal(out=strip)
        strip *= scale
        yield strip


def generate_matrix(spec: RandomMatrixSpec, dtype=np.float32) -> np.ndarray:
    """Materialize the matrix described by *spec* in *dtype*, filled from
    :func:`row_blocks`, so it holds one draw buffer besides its output."""
    out = np.empty((spec.rows, spec.cols), dtype=dtype)
    for start, strip in zip(range(0, spec.rows, STRIP_ROWS), row_blocks(spec)):
        out[start : start + len(strip)] = strip
    return out


def _sylvester(n: int) -> np.ndarray:
    """The ``n x n`` Walsh-Hadamard matrix, n a power of two, by Sylvester's doubling."""
    h = np.ones((1, 1))
    while len(h) < n:
        h = np.block([[h, h], [h, -h]])
    return h


class HadamardProjector:
    """The seeded ``rows x cols`` latent projector P of *spec*, applied
    without forming it (after Ailon & Chazelle, STOC 2006, and Fastfood,
    Le, Sarlos & Smola, ICML 2013).

    A latent, zero-padded to ``n``, the next power of two at or above
    ``rows``, goes through ``ceil(cols / n)`` blocks ``H G Pi H B``: B
    random signs, H the ``n``-point Walsh-Hadamard transform, Pi a
    permutation and G a Gaussian diagonal.  The blocks' outputs, side by
    side and truncated to ``cols``, are ``lat @ P``.  Each G is divided by
    its norm (as Fastfood's S is) and by ``sqrt(rows)``, so P's entries
    have the dense kind's mean square ``1/rows`` (:func:`row_blocks`).
    The diagonals, signs first, come from the spec's Philox stream, so an
    equal spec rebuilds P bit for bit.  H is applied as ``H_a kron H_b``
    with ``a * b = n``, two products with ``sqrt(n)``-sized matrices, so P
    costs 13 bytes a column and two such matrices.
    """

    def __init__(self, spec: RandomMatrixSpec):
        self.rows, self.cols = spec.rows, spec.cols
        n = 1 << (spec.rows - 1).bit_length()
        blocks = -(-spec.cols // n)
        rng = rng_from_seed(spec.seed)
        # Per block: the signs that meet the latent's *rows* nonzero
        # entries, the permutation (Pi x)_j = x[perms[j]] and G, scaled.
        self.signs = (2 * rng.integers(0, 2, (blocks, n), dtype=np.int8) - 1)[:, : spec.rows].copy()
        self.perms = rng.permuted(np.tile(np.arange(n, dtype=np.int32), (blocks, 1)), axis=1)
        gauss = rng.standard_normal((blocks, n))
        self.gauss = gauss / (np.linalg.norm(gauss, axis=1, keepdims=True) * np.sqrt(spec.rows))
        a = 1 << (n.bit_length() - 1) // 2
        self._factors = (_sylvester(a), _sylvester(n // a))

    def _hadamard(self, x: np.ndarray) -> np.ndarray:
        """H on every block of the (L, blocks, n) *x*: ``a @ X @ b`` for
        each block reshaped to an ``a x b`` matrix X."""
        a, b = (f.astype(x.dtype, copy=False) for f in self._factors)
        return (a @ x.reshape(x.shape[:-1] + (len(a), len(b))) @ b).reshape(x.shape)

    def _permute(self, x: np.ndarray, inverse: bool = False) -> np.ndarray:
        """Pi, or its inverse, applied to every block of the (L, blocks, n) *x*."""
        blocks, n = self.perms.shape
        index = (self.perms + n * np.arange(blocks)[:, None]).reshape(-1)
        flat = x.reshape(len(x), -1)
        if inverse:
            out = np.empty_like(flat)
            out[:, index] = flat
        else:
            out = np.take(flat, index, axis=1)
        return out.reshape(x.shape)

    def apply(self, lat: np.ndarray) -> np.ndarray:
        """``lat @ P``: (L, rows) latents to (L, cols) channels, in the latents' dtype."""
        x = np.zeros((len(lat),) + self.gauss.shape, dtype=lat.dtype)
        np.multiply(lat[:, None, :], self.signs, out=x[:, :, : self.rows])
        y = self._permute(self._hadamard(x))
        y *= self.gauss.astype(lat.dtype, copy=False)
        return self._hadamard(y).reshape(len(lat), -1)[:, : self.cols].copy()

    def apply_T(self, g: np.ndarray) -> np.ndarray:
        """``g @ P.T``: (L, cols) channel gradients to (L, rows) latent
        gradients, in their dtype; the adjoint of :meth:`apply`."""
        y = np.zeros((len(g),) + self.gauss.shape, dtype=g.dtype)
        y.reshape(len(g), -1)[:, : self.cols] = g
        y = self._hadamard(y)
        y *= self.gauss.astype(g.dtype, copy=False)
        x = self._hadamard(self._permute(y, inverse=True))[:, :, : self.rows]
        x *= self.signs
        return x.sum(axis=1)
