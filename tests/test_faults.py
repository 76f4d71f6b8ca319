import tracemalloc

import numpy as np
import pytest

from decohd import faults
from decohd.faults import ROBUSTNESS_COLUMNS, NoiseSpec, flip_float32_bits, inject_bitflips, robustness_sweep
from decohd.ops import rng_from_seed
from tests.conftest import assert_same_bits, deployed_forms

KINDS = ("decohd", "prototype", "sparsehd")


def words(scorer) -> dict[str, np.ndarray]:
    """The raw bits of every array a deployed scorer holds."""
    if hasattr(scorer, "bank"):
        out = {f"channels{i}": c for i, c in enumerate(scorer.bank.channels)}
        out["head"] = scorer.head
    elif hasattr(scorer, "mask"):
        out = {"table": scorer.table}
    else:
        out = {"table": scorer.prototypes}
    return {k: np.ascontiguousarray(a).view(np.uint32) for k, a in out.items()}


def assert_same_words(a, b):
    wa, wb = words(a), words(b)
    assert sorted(wa) == sorted(wb)
    for k in wa:
        np.testing.assert_array_equal(wa[k], wb[k], err_msg=k)


@pytest.mark.parametrize("kind", KINDS)
class TestBitflipLimits:
    def test_zero_rate_is_identity(self, rng, kind):
        scorer = deployed_forms(rng)[kind]
        out = inject_bitflips(scorer, NoiseSpec(0.0, seed=7))
        assert type(out) is type(scorer)
        assert_same_words(out, scorer)

    def test_unit_rate_is_an_involution(self, rng, kind):
        scorer = deployed_forms(rng)[kind]
        once = inject_bitflips(scorer, NoiseSpec(1.0, seed=7))
        for k, w in words(once).items():
            assert not np.array_equal(w, words(scorer)[k]), k
        assert_same_words(inject_bitflips(once, NoiseSpec(1.0, seed=7)), scorer)

    def test_seeded(self, rng, kind):
        scorer = deployed_forms(rng)[kind]
        a = inject_bitflips(scorer, NoiseSpec(1e-2, seed=3))
        assert_same_words(a, inject_bitflips(scorer, NoiseSpec(1e-2, seed=3)))


def test_unit_rate_inverts_every_decomposed_word(rng):
    scorer = deployed_forms(rng)["decohd"]
    flipped = words(inject_bitflips(scorer, NoiseSpec(1.0, seed=1)))
    for k, w in words(scorer).items():
        np.testing.assert_array_equal(flipped[k], ~w, err_msg=k)


def test_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(1.5)
    with pytest.raises(TypeError):  # the only target is the stored parameters
        NoiseSpec(0.1, target="encodings")


def test_zero_rate_copies_without_drawing(monkeypatch):
    seeds = []

    def counting(seed):
        seeds.append(seed)
        return rng_from_seed(seed)

    monkeypatch.setattr(faults, "rng_from_seed", counting)
    a = np.array([[1.5, -0.0, 3e-45], [np.inf, np.nan, -2.0]], dtype=np.float32)
    a.view(np.uint32)[1, 1] = 0x7FA00001  # a signalling NaN keeps its payload
    out = flip_float32_bits(a, 0.0, 11)
    assert_same_bits(out, a)
    assert not np.shares_memory(out, a)
    assert seeds == []
    flip_float32_bits(a, 1e-3, 11)
    assert seeds == [11]


def flipped_bits(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per word, the bits in which *out* differs from *a*, unpacked to
    shape (n, 32) with bit k in column k."""
    diff = (a.view(np.uint32) ^ out.view(np.uint32)).reshape(-1)
    return ((diff[:, None] >> np.arange(32, dtype=np.uint32)) & 1).astype(bool)


def test_flip_counts_fall_within_binomial_bounds(rng):
    a = rng.standard_normal(10_000).astype(np.float32)
    p, bits = 1e-3, 32 * 10_000
    mean, sd = bits * p, np.sqrt(bits * p * (1 - p))
    counts = [int(flipped_bits(a, flip_float32_bits(a, p, seed)).sum()) for seed in range(10)]
    assert all(abs(k - mean) <= 5 * sd for k in counts), counts
    assert abs(np.mean(counts) - mean) <= 5 * sd / np.sqrt(len(counts))
    assert len(set(counts)) > 1  # the count is drawn, not fixed at its mean


def test_every_bit_position_is_hit_uniformly(rng):
    a = rng.standard_normal(4096).astype(np.float32)
    hits = sum(flipped_bits(a, flip_float32_bits(a, 1e-2, seed)).sum(axis=0) for seed in range(10))
    expected = hits.sum() / 32
    chi2 = float(((hits - expected) ** 2 / expected).sum())
    assert chi2 < 61.1, chi2  # the 0.999 quantile of chi-square with 31 degrees of freedom


@pytest.mark.parametrize("p", [0.3, 0.8])
def test_flipped_positions_are_distinct(rng, p):
    # The stream draws the count first: of the flipped bits up to p=1/2,
    # of the kept bits above.  Two draws of one position would leave a
    # flipped-bit total off the count.
    a = rng.standard_normal((8, 16)).astype(np.float32)
    bits = 32 * a.size
    for seed in range(20):
        count = rng_from_seed(seed).binomial(bits, min(p, 1 - p))
        flipped = count if p <= 0.5 else bits - count
        assert flipped_bits(a, flip_float32_bits(a, p, seed)).sum() == flipped


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_flip_memory_is_bounded_by_the_chunk(rng, p):
    # numpy's choice without replacement may shuffle every candidate bit
    # as int64, 256 bytes per word; the chunk bounds that, so the working
    # memory beyond the copy stays flat as the array grows.
    a = rng.standard_normal(64 * faults._FLIP_CHUNK_WORDS).astype(np.float32)
    tracemalloc.start()
    try:
        flip_float32_bits(a, p, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - a.nbytes <= 32 * 32 * faults._FLIP_CHUNK_WORDS, peak  # 32 bytes per chunk bit


def sweep_inputs(rng):
    """Every deployed form, 40 float32 test rows for them and labels."""
    scorers = deployed_forms(rng)
    h = rng.standard_normal((40, 48)).astype(np.float32)
    return scorers, h, rng.integers(0, 4, 40)


def test_robustness_rows_follow_the_columns_sorted(rng):
    scorers, h, y = sweep_inputs(rng)
    rows = robustness_sweep(scorers, h, y, p_grid=[1e-2, 0.0, 0.5], trials=2, seed=3)
    assert len(rows) == len(scorers) * 3 * 2
    assert all(len(row) == len(ROBUSTNESS_COLUMNS) for row in rows)
    assert [row[:3] for row in rows] == sorted(
        [name, p, trial] for name in scorers for p in (1e-2, 0.0, 0.5) for trial in range(2)
    )
    for row in rows:
        assert 0.0 <= row[3] <= 1.0


def test_robustness_rows_of_a_model_do_not_depend_on_the_others(rng):
    # Every model in a (p, trial) cell draws from that cell's streams alone.
    scorers, h, y = sweep_inputs(rng)
    together = robustness_sweep(scorers, h, y, p_grid=[0.0, 1e-2, 0.3], trials=2, seed=5)
    for name, scorer in scorers.items():
        alone = robustness_sweep({name: scorer}, h, y, p_grid=[0.0, 1e-2, 0.3], trials=2, seed=5)
        assert alone == [row for row in together if row[0] == name]
