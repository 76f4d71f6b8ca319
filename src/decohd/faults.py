"""Random bit-flip fault injection into 32-bit float parameters.

Each bit of each targeted float32 word flips independently with the
configured probability, from a seeded stream derived per parameter
array, so a given NoiseSpec always produces the same corrupted model.
The flips are sampled by count, not bit by bit: each chunk of m words
draws its flip count from Binomial(32m, p), then that many distinct bit
positions uniformly without replacement (above p=1/2, the count and
positions of the bits kept).  This is exactly the distribution of
independent per-bit flips; random draws grow with the smaller of the
flipped and kept bits, and memory with the chunk, not the array.  At
p=0 nothing is drawn: the array is copied as it is.  Since every array
owns its stream, skipping one changes no other array's flips.
Flips can produce NaN/Inf values; those are kept as stored, and scoring
treats NaN logits as minus infinity.

Targets are stored model parameters (the deployed inference state):
:func:`inject_bitflips` maps over a scorer's ``stored()`` arrays, which
are exactly the float32 arrays the scorer holds: the materialized
channel bank plus the bundling head of a decomposed model, the prototype
table of a baseline, and the retained columns of a sparsified table.
Any other dtype is refused.  Each array's stream is derived from the
spec's seed, ``"bits"`` and the array's ``stored()`` key.
:func:`robustness_sweep` rows are lists in ``ROBUSTNESS_COLUMNS`` order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import accuracy
from .ops import derive_seed, rng_from_seed


@dataclass(frozen=True)
class NoiseSpec:
    flip_probability: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.flip_probability <= 1.0:
            raise ValueError("flip_probability must be in [0, 1]")


ROBUSTNESS_COLUMNS = ("model_kind", "p_flip", "trial", "test_accuracy")

# Words whose bits are drawn at once: numpy's choice without replacement
# may shuffle an int64 array of every candidate bit, so a chunk bounds
# that at 1 MB whatever the array's size.
_FLIP_CHUNK_WORDS = 4096


def flip_float32_bits(a: np.ndarray, flip_probability: float, seed: int) -> np.ndarray:
    """Flip each of the 32 bits of each element independently; returns
    a new C-contiguous array.

    Per chunk of up to ``_FLIP_CHUNK_WORDS`` words (m words, 32m bits,
    bit b of word w at position ``32*w + b``), the stream draws the flip
    count k ~ Binomial(32m, p), then k distinct positions, which set a
    bit mask XORed into a copy.  Above p=1/2 it draws the count and
    positions of the bits left as they are instead, so at most half the
    bits are drawn and p=1 draws no position.  Given its count, every set
    of k bits is equally likely, as it is under independent flips, so the
    two have the same distribution.  p=0 draws nothing.
    """
    a = np.asarray(a)
    if a.dtype != np.float32:
        raise TypeError(f"bit flips are defined on float32 storage, got {a.dtype}")
    out = a.copy(order="C")
    if flip_probability == 0.0:
        return out
    words = out.view(np.uint32).reshape(-1)
    rng = rng_from_seed(seed)
    flip_drawn = flip_probability <= 0.5
    q = flip_probability if flip_drawn else 1.0 - flip_probability
    bits = np.empty(32 * min(_FLIP_CHUNK_WORDS, words.size), dtype=bool)
    for start in range(0, words.size, _FLIP_CHUNK_WORDS):
        chunk = words[start:start + _FLIP_CHUNK_WORDS]
        mask = bits[:32 * chunk.size]
        count = rng.binomial(mask.size, q)
        mask.fill(not flip_drawn)
        mask[rng.choice(mask.size, size=count, replace=False, shuffle=False)] = flip_drawn
        chunk ^= np.packbits(mask, bitorder="little").view("<u4")
    return out


def inject_bitflips(scorer, spec: NoiseSpec):
    """Corrupt every stored float32 array of a deployed scorer; returns
    a new scorer of the same type.  p=0 is a bit-exact identity and p=1
    inverts every bit (so applying it twice restores the model)."""
    p = spec.flip_probability
    return scorer.replace(
        {key: flip_float32_bits(a, p, derive_seed(spec.seed, "bits", key))
         for key, a in scorer.stored().items()}
    )


def robustness_sweep(
    scorers: dict[str, object],
    h_test: np.ndarray,
    y_test: np.ndarray,
    p_grid,
    trials: int,
    seed: int = 0,
) -> list[list]:
    """Accuracy-under-noise curves for several models on one test set.

    Every (p, trial) cell owns an independent stream derived from
    (seed, p index, trial index); all models in a cell share that stream
    root.  Returns one ``ROBUSTNESS_COLUMNS`` row per (model, p, trial), sorted.
    """
    rows = []
    for p_idx, p in enumerate(p_grid):
        for trial in range(trials):
            cell_seed = derive_seed(seed, "noise", p_idx, trial)
            for name in sorted(scorers):
                corrupted = inject_bitflips(scorers[name], NoiseSpec(p, seed=cell_seed))
                rows.append([name, float(p), trial, accuracy(corrupted, h_test, y_test)])
    rows.sort(key=lambda r: r[:3])
    return rows
