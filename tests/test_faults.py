import tracemalloc

import numpy as np
import pytest

from decohd import baselines, faults
from decohd.faults import ROBUSTNESS_COLUMNS, NoiseConfig, flip_float32_bits, inject_bitflips, robustness_sweep
from decohd.model import accuracy, stacked_product
from decohd.ops import derive_seed, rng_from_seed
from tests.conftest import assert_same_bits, deployed_forms

KINDS = ("decohd", "prototype", "sparsehd")


def words(scorer) -> dict[str, np.ndarray]:
    """The raw bits of every array a deployed scorer holds."""
    if hasattr(scorer, "bank"):
        out = {f"channels{i}": c for i, c in enumerate(scorer.bank.channels)}
        out["head"] = scorer.head
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
        out = inject_bitflips(scorer, 0.0, 7)
        assert type(out) is type(scorer)
        assert_same_words(out, scorer)

    def test_unit_rate_is_an_involution(self, rng, kind):
        scorer = deployed_forms(rng)[kind]
        once = inject_bitflips(scorer, 1.0, 7)
        for k, w in words(once).items():
            assert not np.array_equal(w, words(scorer)[k]), k
        assert_same_words(inject_bitflips(once, 1.0, 7), scorer)

    def test_seeded(self, rng, kind):
        scorer = deployed_forms(rng)[kind]
        a = inject_bitflips(scorer, 1e-2, 3)
        assert_same_words(a, inject_bitflips(scorer, 1e-2, 3))


def test_unit_rate_inverts_every_decomposed_word(rng):
    scorer = deployed_forms(rng)["decohd"]
    flipped = words(inject_bitflips(scorer, 1.0, 1))
    for k, w in words(scorer).items():
        np.testing.assert_array_equal(flipped[k], ~w, err_msg=k)


def test_spec_validation(rng):
    scorer = deployed_forms(rng)["decohd"]
    with pytest.raises(ValueError, match=r"^every flip probability must be in \[0, 1\], got \(1\.5,\)$"):
        inject_bitflips(scorer, 1.5)
    with pytest.raises(TypeError):  # the only target is the stored parameters
        inject_bitflips(scorer, 0.1, target="encodings")


@pytest.mark.parametrize("kwargs, message", [
    (dict(trials=0), r"need trials >= 1, got 0"),
    (dict(p_grid=(0.5, -0.1)), r"every flip probability must be in \[0, 1\], got \(0\.5, -0\.1\)"),
    (dict(p_grid=(float("nan"),)), r"every flip probability must be in \[0, 1\], got \(nan,\)"),
    (dict(p_grid=(0.0, 0.0)), r"p_grid repeats a value: \(0\.0, 0\.0\)"),
], ids=["trials", "range", "nan", "repeat"])
def test_each_noise_config_message_names_one_rule(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        NoiseConfig(**kwargs)


def test_only_float32_storage_is_flipped():
    with pytest.raises(TypeError, match="^bit flips are defined on float32 storage, got float64$"):
        flip_float32_bits(np.zeros(4), 0.5, 1)


def test_zero_rate_copies_without_drawing():
    # p=0 runs the sampler, whose zero counts leave every word as it was.
    a = np.array([[1.5, -0.0, 3e-45], [np.inf, np.nan, -2.0]], dtype=np.float32)
    a.view(np.uint32)[1, 1] = 0x7FA00001  # a signalling NaN keeps its payload
    out = flip_float32_bits(a, 0.0, 11)
    assert_same_bits(out, a)
    assert not np.shares_memory(out, a)


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
    for p in (1e-2, 0.75):
        hits = sum(flipped_bits(a, flip_float32_bits(a, p, seed)).sum(axis=0) for seed in range(10))
        expected = hits.sum() / 32
        chi2 = float(((hits - expected) ** 2 / (expected * (1 - p))).sum())  # a position's hits are binomial
        assert chi2 < 61.1, (p, chi2)  # the 0.999 quantile of chi-square with 31 degrees of freedom


@pytest.mark.parametrize("p", [0.3, 0.8])
def test_flipped_positions_are_distinct(rng, p):
    # The stream draws the flip count first; numpy draws it above p=1/2
    # as bits - Binomial(bits, 1 - p).  Two draws of one position would
    # leave a flipped-bit total off the count.
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
    assert [row[:4] for row in rows] == sorted(
        [name, 48, p, trial] for name in scorers for p in (1e-2, 0.0, 0.5) for trial in range(2)
    )
    for row in rows:
        assert 0.0 <= row[4] <= 1.0


def test_unflipped_rows_score_each_model_once(rng, monkeypatch):
    # p=0 draws no bit, so its trials would score exact copies: each
    # model's one stacked call takes it once, unflipped, and one flipped
    # copy per trial at every other p.
    scorers, h, y = sweep_inputs(rng)
    stacks = []

    def counting(cls):
        original = cls.score_stack.__func__

        def score_stack(cls, variants, h_test):
            variants = list(variants)
            stacks.append(variants)
            return original(cls, variants, h_test)

        monkeypatch.setattr(cls, "score_stack", classmethod(score_stack))

    for cls in {type(s) for s in scorers.values()}:
        counting(cls)
    rows = robustness_sweep(scorers, h, y, p_grid=[0.0, 1e-2], trials=3, seed=4)
    assert len(stacks) == len(scorers)
    for (name, scorer), variants in zip(scorers.items(), stacks):
        assert len(variants) == 1 + 3
        assert variants[0] is scorer and all(v is not scorer for v in variants[1:])
        unflipped = accuracy(scorer, h, y)
        assert [row[4] for row in rows if row[0] == name and row[2] == 0.0] == [unflipped] * 3


def test_rows_equal_scoring_each_flipped_copy_alone(rng, monkeypatch):
    # 1 + 3 * 54 = 163 variants of 4 class rows exceed one stack of
    # decohd.model.STACK_ROWS = 640 rows, so each table's variants are
    # scored in two stacks, of 160 and 3; each row equals the accuracy of
    # its cell's flipped copy scored alone.
    scorers = deployed_forms(rng, dim=2048)
    h = rng.standard_normal((300, 2048)).astype(np.float32)
    y = rng.integers(0, 4, 300)
    p_grid, trials = (0.0, 1e-5, 1e-4, 1e-3), 54
    stacked = []

    def recording(x, blocks):
        stacked.append(len(blocks))
        return stacked_product(x, blocks)

    monkeypatch.setattr(baselines, "stacked_product", recording)
    rows = robustness_sweep(scorers, h, y, p_grid, trials, seed=6)
    assert stacked == [160, 3, 160, 3]  # the prototype table's, then the sparsified one's
    expected = []
    for p_idx, p in enumerate(p_grid):
        for trial in range(trials):
            cell_seed = derive_seed(6, "noise", p_idx, trial)
            for name, scorer in scorers.items():
                acc = accuracy(inject_bitflips(scorer, p, cell_seed) if p else scorer, h, y)
                expected.append([name, 2048, p, trial, acc])
    assert rows == sorted(expected)


def test_robustness_rows_of_a_model_do_not_depend_on_the_others(rng):
    # Every model in a (p, trial) cell draws from that cell's streams alone.
    scorers, h, y = sweep_inputs(rng)
    together = robustness_sweep(scorers, h, y, p_grid=[0.0, 1e-2, 0.3], trials=2, seed=5)
    for name, scorer in scorers.items():
        alone = robustness_sweep({name: scorer}, h, y, p_grid=[0.0, 1e-2, 0.3], trials=2, seed=5)
        assert alone == [row for row in together if row[0] == name]
