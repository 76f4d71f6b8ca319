"""Primitive operations of the high-dimensional vector space.

Binding (elementwise multiplication), bundling (weighted addition) and
the dot-product similarity are written where the model performs them,
in :func:`decohd.model.path_basis` and the forwards of
:mod:`decohd.inference`.

Frozen random matrices (the input encoder and the per-layer latent
projectors) are Gaussian, described by a :class:`RandomMatrixSpec` of
shape and seed alone and regenerated on demand, so they never need to
be stored: whole or into panels that the caller allocated
(:func:`generate_matrix`), or as a stream of row strips
(:func:`row_blocks`), all with the same bits.

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

# Rows per draw strip, and projector rows per product of a channel
# expansion (decohd.model._expand).  Every block an expansion walks but
# the last (a drawn strip, a held panel) is a whole number of strips, so
# held and streamed projectors run the same products and give
# bit-identical banks.  16 x 10000 is a 1.3 MB float64 buffer, held once
# per stream whatever the matrix.  Kept small because, under glibc, a
# buffer below the 32 MB mmap ceiling that is freed on a worker thread (the
# per-layer draws of materialize_projectors and stream_channels) can stay
# resident in that thread's malloc arena, where the main thread cannot
# reuse it; for the same reason a held projector's panels are allocated
# on the calling thread (decohd.model.materialize_projectors).  OpenBLAS
# runs a 4 x 16 @ 16 x 10000 product on the calling thread alone, so one
# layer's expansion wakes no BLAS threads to compete with the other
# layers' draws; 32- and 64-row blocks were slower.
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


def generate_matrix(spec: RandomMatrixSpec, dtype=np.float32, panels=None):
    """Materialize the matrix described by *spec* in *dtype*, filled from
    :func:`row_blocks`, so it holds one draw buffer besides its output.

    Given *panels*, arrays allocated by the caller whose rows stack to the
    matrix, each but the last a whole number of draw strips, it fills
    those in their own dtype instead and returns them."""
    whole = panels is None
    if whole:
        panels = [np.empty((spec.rows, spec.cols), dtype=dtype)]
    s = STRIP_ROWS
    targets = (panel[j : j + s] for panel in panels for j in range(0, len(panel), s))
    for target, strip in zip(targets, row_blocks(spec)):
        target[...] = strip
    return panels[0] if whole else panels
