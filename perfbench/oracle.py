"""Independent float64 recomputation of a served decomposed classifier.

The oracle shares no code with ``decohd``: it re-derives the seeded
random streams (SHA-256 seed rule, Philox normals), expands channels
from the latents in float64 and scores through a dense prototype table
built with broadcast outer products instead of the package's gather.
Projectors are drawn in row blocks, so the oracle never holds a whole
latent_dim x dim matrix and does not set the process's peak memory.
"""

from __future__ import annotations

import hashlib

import numpy as np

# A served prediction may differ from the oracle only where the oracle's
# score of the served class trails the best by at most this share of the
# row's score magnitude (sum of absolute terms, max over classes): eight
# float32 epsilons.  The float32 pipeline's measured worst error on the
# serve workload is 1.7e-8 of that magnitude.
FLOAT32_TOLERANCE = 2.0**-20

_BLOCK_ROWS = 512


def derive_seed(root: int, *tokens) -> int:
    """SHA-256 over "<root>:<t1>:...", first 8 bytes big-endian."""
    msg = ":".join([str(int(root))] + [str(t) for t in tokens])
    return int.from_bytes(hashlib.sha256(msg.encode("ascii")).digest()[:8], "big")


def _normal_blocks(seed: int, rows: int, cols: int):
    gen = np.random.Generator(np.random.Philox(key=seed))
    for start in range(0, rows, _BLOCK_ROWS):
        yield start, gen.standard_normal((min(_BLOCK_ROWS, rows - start), cols))


class ServeOracle:
    """Float64 scores of a decohd classifier given its stored arrays.

    *encoder* and *model* are the ``EncoderConfig`` and ``ModelConfig``
    the classifier was built from; only their plain fields are read.
    """

    def __init__(self, encoder, model, mean, std, latents, head):
        f, d = encoder.num_features, encoder.dim
        self.mean = np.asarray(mean, dtype=np.float64)
        self.std = np.asarray(std, dtype=np.float64)
        self.normalize = encoder.normalize_output
        w = np.empty((f, d))
        for start, block in _normal_blocks(derive_seed(encoder.seed, "encoder", f, d), f, d):
            w[start : start + len(block)] = block
        self.w = w / np.sqrt(f)

        channels = []
        for i, lat in enumerate(latents):
            lat = np.asarray(lat, dtype=np.float64)
            acc = np.zeros((lat.shape[0], d))
            seed = derive_seed(model.seed, "projector", i)
            for start, block in _normal_blocks(seed, model.latent_dim, d):
                acc += lat[:, start : start + len(block)] @ block
            channels.append(acc / np.sqrt(model.latent_dim))
        # Row-major path order, last layer fastest.
        basis = channels[0]
        for ch in channels[1:]:
            basis = (basis[:, None, :] * ch[None, :, :]).reshape(-1, d)
        head = np.asarray(head, dtype=np.float64)
        self.prototypes = head @ basis
        self.magnitude = np.abs(head) @ np.abs(basis)

    def scores(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (scores, per-row tolerance) for raw feature rows."""
        z = (np.asarray(features, dtype=np.float64) - self.mean) / self.std
        scores = np.empty((z.shape[0], self.prototypes.shape[0]))
        tol = np.empty(z.shape[0])
        for start in range(0, z.shape[0], 1024):
            h = z[start : start + 1024] @ self.w
            if self.normalize:
                norms = np.linalg.norm(h, axis=1, keepdims=True)
                h = np.divide(h, norms, out=h, where=norms > 0.0)
            u = h * h
            scores[start : start + len(u)] = u @ self.prototypes.T
            tol[start : start + len(u)] = FLOAT32_TOLERANCE * (u @ self.magnitude.T).max(axis=1)
        return scores, tol


def mismatches(predicted, scores: np.ndarray, tol: np.ndarray) -> tuple[np.ndarray, int]:
    """Compare served class indices with oracle scores row by row.

    Returns (wrong, tolerated): *wrong* flags rows whose class has an
    oracle score more than the row's tolerance below the best; *tolerated*
    counts rows that differ from the oracle argmax within tolerance.
    """
    predicted = np.asarray(predicted, dtype=np.int64)
    rows = np.arange(len(predicted))
    valid = (predicted >= 0) & (predicted < scores.shape[1])
    gap = np.full(len(predicted), np.inf)
    gap[valid] = scores.max(axis=1)[valid] - scores[rows[valid], predicted[valid]]
    differs = predicted != scores.argmax(axis=1)
    wrong = differs & (gap > tol)
    return wrong, int((differs & ~wrong).sum())
