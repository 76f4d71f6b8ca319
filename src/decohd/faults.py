"""Random bit-flip fault injection into 32-bit float parameters.

Each bit of each targeted float32 word flips independently with the
configured probability, from a seeded stream derived per parameter
array, so a given (p, seed) pair always produces the same corrupted model.
The flips are sampled by count, not bit by bit: each chunk of m words
draws its flip count from Binomial(32m, p), then that many distinct bit
positions uniformly without replacement, at every p.  This is exactly
the distribution of independent per-bit flips; memory grows with the
chunk, not the array.  At p=0 every count is 0, so the copy keeps
every word as it was, a signalling NaN's payload included.
Flips can produce NaN/Inf values; those are kept as stored, and scoring
treats NaN logits as minus infinity.

Targets are stored model parameters (the deployed inference state):
:func:`inject_bitflips` maps over a scorer's ``stored()`` arrays, which
are exactly the float32 arrays the scorer holds: the materialized
channel bank plus the bundling head of a decomposed model, or a
baseline's prototype table, which holds only its retained columns when
a mask sparsifies it.
Any other dtype is refused.  Each array's stream is derived from the
seed, ``"bits"`` and the array's ``stored()`` key.  :class:`NoiseConfig`
states the sweep's rules, a single p's range included.
:func:`robustness_sweep` rows are lists in ``ROBUSTNESS_COLUMNS`` order.
It scores each model's variants, the unflipped scorer and its flipped
copies, by one stacked product per :data:`~decohd.model.STACK_ROWS`
rows (the scorer class's ``score_stack``), so the test encodings are
read once per stack rather than once per variant, and only one stack's
variants are alive at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .model import pick_class
from .ops import derive_seed, rng_from_seed


@dataclass(frozen=True)
class NoiseConfig:
    p_grid: tuple[float, ...] = ()
    trials: int = 5

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"need trials >= 1, got {self.trials}")
        if not all(0.0 <= p <= 1.0 for p in self.p_grid):
            raise ValueError(f"every flip probability must be in [0, 1], got {self.p_grid}")
        if len(set(self.p_grid)) < len(self.p_grid):
            raise ValueError(f"p_grid repeats a value: {self.p_grid}")


ROBUSTNESS_COLUMNS = ("model_kind", "D", "p_flip", "trial", "test_accuracy")

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
    bit mask XORed into a copy.  Given its count, every set of k bits is
    equally likely, as it is under independent flips, so the two have the
    same distribution.  p=0 takes the same path and draws a zero count
    for every chunk.
    """
    a = np.asarray(a)
    if a.dtype != np.float32:
        raise TypeError(f"bit flips are defined on float32 storage, got {a.dtype}")
    out = a.copy(order="C")
    words = out.view(np.uint32).reshape(-1)
    rng = rng_from_seed(seed)
    bits = np.empty(32 * min(_FLIP_CHUNK_WORDS, words.size), dtype=bool)
    for start in range(0, words.size, _FLIP_CHUNK_WORDS):
        chunk = words[start:start + _FLIP_CHUNK_WORDS]
        mask = bits[:32 * chunk.size]
        count = rng.binomial(mask.size, flip_probability)
        mask.fill(False)
        mask[rng.choice(mask.size, size=count, replace=False, shuffle=False)] = True
        chunk ^= np.packbits(mask, bitorder="little").view("<u4")
    return out


def inject_bitflips(scorer, flip_probability: float, seed: int = 0):
    """Corrupt every stored float32 array of a deployed scorer; returns
    a new scorer of the same type.  p=0 is a bit-exact identity and p=1
    inverts every bit (so applying it twice restores the model)."""
    NoiseConfig(p_grid=(flip_probability,))  # refuses a p outside [0, 1]
    return scorer.replace(
        {key: flip_float32_bits(a, flip_probability, derive_seed(seed, "bits", key))
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
    root.  p=0 flips no bit, so each model is scored once, unflipped,
    and that accuracy fills all of its p=0 rows.  A model's variants,
    the unflipped scorer and one flipped copy per cell of nonzero p, are
    scored by one stacked call, ``type(scorer).score_stack``, which
    reads the test encodings once per stack; each score equals the
    variant's own ``score_batch`` bit for bit.  The variants are built
    as the stack takes them, so at most one stack of
    :data:`~decohd.model.STACK_ROWS` rows and its variants are alive at
    once.  Returns one ``ROBUSTNESS_COLUMNS`` row per (model, p, trial),
    ``D`` being the model's dimension, sorted.
    """
    y_test = np.asarray(y_test)
    cells = [(p_idx, p, trial) for p_idx, p in enumerate(p_grid) for trial in range(trials)]
    rows = []
    for name, scorer in scorers.items():
        flipped = (inject_bitflips(scorer, p, derive_seed(seed, "noise", p_idx, trial))
                   for p_idx, p, trial in cells if p != 0.0)
        scores = type(scorer).score_stack(itertools.chain([scorer] if 0.0 in p_grid else [], flipped), h_test)
        accs = (float((pick_class(s) == y_test).mean()) for s in scores)
        unflipped = next(accs) if 0.0 in p_grid else None
        rows += [[name, scorer.dim, float(p), trial, unflipped if p == 0.0 else next(accs)] for _, p, trial in cells]
    rows.sort(key=lambda r: r[:4])
    return rows
