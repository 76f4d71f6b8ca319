"""Primitive operations of the high-dimensional vector space.

Binding (elementwise multiplication), bundling (weighted addition) and
the dot-product similarity are written where the model performs them,
in :func:`decohd.model.path_basis` and the forwards of
:mod:`decohd.inference`.

Frozen random matrices (the input encoder and the per-layer latent
projectors) are described by :class:`RandomMatrixSpec` and regenerated on
demand, so they never need to be stored.

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

MATRIX_KINDS = ("gaussian", "ternary")

# Symmetric default: -1, 0, +1 each with probability 1/3.
DEFAULT_TERNARY_ZERO_PROB = 1.0 / 3.0

# Rows drawn per float64 block in generate_matrix: 16 x 10000 is 1.3 MB,
# held once per call whatever the matrix size.  Kept small because,
# under glibc, a buffer freed on a worker thread of
# materialize_projectors can stay resident in that thread's malloc
# arena, where the main thread cannot reuse it.
_GENERATE_BLOCK_ROWS = 16


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
    kind: str
    seed: int
    scale: float = 1.0
    ternary_zero_prob: float = DEFAULT_TERNARY_ZERO_PROB

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"matrix shape must be positive, got {self.rows}x{self.cols}")
        if self.kind not in MATRIX_KINDS:
            raise ValueError(f"unknown matrix kind {self.kind!r}; expected one of {MATRIX_KINDS}")
        if not 0.0 <= self.ternary_zero_prob < 1.0:
            raise ValueError("ternary_zero_prob must be in [0, 1)")


def _uniform_to_ternary(u: np.ndarray, p0: float) -> None:
    """Map uniforms in place: 0 below *p0*, -1 below the midpoint of the
    rest, +1 above it.  The two masks die on return."""
    zero, negative = u < p0, u < p0 + (1.0 - p0) / 2.0
    u.fill(1.0)
    np.copyto(u, -1.0, where=negative)
    np.copyto(u, 0.0, where=zero)


def generate_matrix(spec: RandomMatrixSpec, dtype=np.float32) -> np.ndarray:
    """Materialize the matrix described by *spec*.

    gaussian: i.i.d. normal(0, 1) entries times ``scale``.
    ternary:  i.i.d. over {-1, 0, +1} times ``scale``; zero carries
    ``ternary_zero_prob`` mass and the remainder splits evenly.

    Sampling fills one float64 buffer of ``_GENERATE_BLOCK_ROWS`` rows,
    reused for every block: each block is drawn into it in place, scaled
    and cast into the preallocated output.  The stream does not depend
    on the requested storage dtype, and no full-size float64 copy is
    ever held.  The generator fills sequentially, so the result equals
    one full-size draw bit for bit.
    """
    rng = rng_from_seed(spec.seed)
    out = np.empty((spec.rows, spec.cols), dtype=dtype)
    buffer = np.empty((min(_GENERATE_BLOCK_ROWS, spec.rows), spec.cols))
    for start in range(0, spec.rows, _GENERATE_BLOCK_ROWS):
        block = buffer[: min(_GENERATE_BLOCK_ROWS, spec.rows - start)]
        if spec.kind == "gaussian":
            rng.standard_normal(out=block)
        else:
            rng.random(out=block)
            _uniform_to_ternary(block, spec.ternary_zero_prob)
        block *= spec.scale
        out[start : start + block.shape[0]] = block
    return out
