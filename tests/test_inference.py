import tracemalloc
import warnings

import numpy as np
import pytest

from decohd import inference, model
from decohd.inference import DecomposedScorer, choose_mode, score_batch, stream_scores
from decohd.encoding import EncoderConfig, RandomProjectionEncoder
from decohd.faults import NoiseSpec, inject_bitflips
from decohd.model import ChannelBank, DecoHDClassifier, path_basis, pick_class
from decohd.precision import quantize_model
from tests.conftest import (
    assert_same_bits,
    brute_force_logits,
    identity_standardizer,
    integer_bank_and_head,
    random_small_instance,
    score_term_scale,
)

def random_bank_and_head(rng, dtype=np.float32, channels=(2, 3), dim=32, num_classes=4):
    bank = ChannelBank([rng.standard_normal((l, dim)).astype(dtype) for l in channels])
    head = rng.standard_normal((num_classes, int(np.prod(channels)))).astype(dtype)
    h = rng.standard_normal(dim).astype(dtype)
    return bank, head, h


class TestStreamScores:
    def test_single_path_equals_logits_exactly(self, rng):
        # Integer values, so that every summation order is exact.
        bank, head, h = integer_bank_and_head(rng, channels=(1,), dim=8)
        np.testing.assert_array_equal(stream_scores(h, bank, head), brute_force_logits(h, bank, head))

    def test_matches_batched_forward_fp32(self, rng):
        for _ in range(10):
            bank, head, h = random_bank_and_head(rng, np.float32)
            ref = brute_force_logits(h, bank, head)
            out = stream_scores(h, bank, head)
            err = np.abs(out - ref) / score_term_scale(bank, head, h)
            assert err.max() < 1e-5

    def test_matches_batched_forward_fp64(self, rng):
        for _ in range(10):
            bank, head, h = random_bank_and_head(rng, np.float64)
            ref = brute_force_logits(h, bank, head)
            np.testing.assert_allclose(stream_scores(h, bank, head), ref, rtol=1e-10)

    def test_hand_fixture(self):
        bank = ChannelBank([np.array([[1.0, -1.0, 1.0]]), np.array([[2.0, 2.0, 2.0]])])
        head = np.array([[1.0], [0.5]])
        h = np.array([1.0, 2.0, 3.0])
        # Z = [2, -4, 6]; <Z, h> = 2 - 8 + 18 = 12
        np.testing.assert_array_equal(stream_scores(h, bank, head), [12.0, 6.0])

    def test_leaves_a_float64_input_unchanged(self, rng):
        # The input term is squared in place, into a float64 copy of h.
        bank, head, h = random_bank_and_head(rng, np.float64)
        before = h.copy()
        stream_scores(h, bank, head)
        assert_same_bits(h, before)

    def test_single_working_buffer(self, rng):
        # Real bytes of one call against the analytic count: the float64
        # working hypervector, the input widened to float64 once and
        # squared in place, and C float64 scores.  Allowed on top: numpy's
        # ufunc cast buffer (float32 channel rows are cast into the float64
        # working buffer in bufsize-element chunks) and 16 KiB for the
        # per-layer tuples of channel rows and per-path head columns.  One
        # more D-length float64 vector (80 KB at D=10000) exceeds it.
        dim, num_classes = 10000, 26
        bound = (2 * dim + num_classes) * 8 + np.getbufsize() * 8 + 16 * 1024
        for channels in [(3, 4), (4, 4, 4), (5, 5, 5)]:
            bank, head, h = random_bank_and_head(rng, channels=channels, dim=dim, num_classes=num_classes)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                stream_scores(h, bank, head)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak <= bound, channels


class TestCrossModeEquivalence:
    """The streamed forward against the batched one on the kept basis."""

    def test_hundred_random_fixtures(self, rng):
        for _ in range(100):
            channels = tuple(int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 4))))
            bank, head, h = random_bank_and_head(
                rng, np.float32, channels=channels,
                dim=int(rng.integers(8, 65)), num_classes=int(rng.integers(2, 6)),
            )
            scorer = DecomposedScorer(bank=bank, head=head)
            streamed, batched = scorer.scores(h), scorer.score_batch(h[None])[0]
            assert (np.abs(batched - streamed) / score_term_scale(bank, head, h)).max() < 1e-5
            assert pick_class(streamed) == pick_class(batched)

    def test_uniform_head_scores_every_class_alike(self, rng):
        bank, _, h = random_bank_and_head(rng)
        head = np.full((4, bank.num_paths), 1.0 / bank.num_paths, dtype=np.float32)
        for scores in (stream_scores(h, bank, head), score_batch(h[None], bank, head)[0]):
            for c in range(1, 4):
                assert_same_bits(scores[c], scores[0])

    def test_depends_on_h_only_through_square(self, rng):
        bank, head, h = random_bank_and_head(rng)
        assert_same_bits(stream_scores(h, bank, head), stream_scores(-h, bank, head))
        assert_same_bits(score_batch(h[None], bank, head), score_batch(-h[None], bank, head))

    def test_unknown_mode(self, rng):
        bank, head, h = random_bank_and_head(rng)
        for mode in ("fastest", "materialized_prototypes"):
            with pytest.raises(ValueError, match="unknown inference mode"):
                DecomposedScorer(bank=bank, head=head).scores(h, mode)


class TestScoreBatch:
    def test_matches_per_sample_logits(self, rng):
        cfg, params, projectors, h, y = random_small_instance(rng)
        from decohd.model import materialize_channels

        bank = materialize_channels(params, projectors)
        batch = score_batch(h, bank, params.head)
        for j in range(h.shape[0]):
            np.testing.assert_allclose(batch[j], brute_force_logits(h[j], bank, params.head), rtol=1e-9)


class TestChunkedScoreBatch:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2500])
    def test_equals_whole_batch_product(self, rng, n, dtype):
        bank, head, _ = random_bank_and_head(rng, dtype, channels=(2, 3, 2), dim=256, num_classes=5)
        h = rng.standard_normal((n, 256)).astype(dtype)
        scores = score_batch(h, bank, head)
        assert_same_bits(scores, ((h * h) @ path_basis(bank).T) @ head.T)
        assert scores.shape == (n, 5)

    def test_working_memory_does_not_grow_with_rows(self, rng):
        dim = 256
        bank, head, _ = random_bank_and_head(rng, channels=(2, 3, 2), dim=dim, num_classes=5)
        bank.basis  # built before measuring: it is kept, not per call
        buffer = inference._SCORE_CHUNK_ROWS * dim * 4
        for n in (2 * inference._SCORE_CHUNK_ROWS, 8 * inference._SCORE_CHUNK_ROWS):
            h = rng.standard_normal((n, dim)).astype(np.float32)
            tracemalloc.start()
            try:
                scores = score_batch(h, bank, head)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # The output plus one chunk's squares and path terms; squaring
            # the whole batch at once would take 8x the buffer at the
            # larger n.
            assert peak - scores.nbytes <= 1.5 * buffer, n


class TestKeptBasis:
    def test_score_batch_equals_fresh_basis(self, rng):
        bank, head, _ = random_bank_and_head(rng, channels=(2, 3, 2), dim=64, num_classes=5)
        h = rng.standard_normal((7, 64)).astype(np.float32)
        for _ in range(3):
            fresh = ((h * h) @ path_basis(bank).T) @ head.T
            np.testing.assert_array_equal(score_batch(h, bank, head), fresh)

    def test_basis_built_once_per_bank(self, rng, monkeypatch):
        calls = []

        def counting(bank):
            calls.append(bank)
            return path_basis(bank)

        monkeypatch.setattr(model, "path_basis", counting)
        bank, head, _ = random_bank_and_head(rng)
        scorer = DecomposedScorer(bank=bank, head=head)
        h = rng.standard_normal((3, bank.dim)).astype(np.float32)
        for _ in range(3):
            scorer.score_batch(h)
            pick_class(scorer.score_batch(h))
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "rewrite",
        [lambda s: quantize_model(s, "bf16"), lambda s: inject_bitflips(s, NoiseSpec(1.0, seed=3))],
        ids=["bf16", "bitflip_p1"],
    )
    def test_rewritten_scorer_not_stale(self, rng, rewrite):
        bank, head, _ = random_bank_and_head(rng, channels=(3, 2), dim=48)
        h = rng.standard_normal((6, 48)).astype(np.float32)
        scorer = DecomposedScorer(bank=bank, head=head)
        before = scorer.score_batch(h)
        rewritten = rewrite(scorer)
        fresh = DecomposedScorer(
            bank=ChannelBank([c.copy() for c in rewritten.bank.channels]), head=rewritten.head.copy()
        )
        after = rewritten.score_batch(h)
        np.testing.assert_array_equal(after, fresh.score_batch(h))
        with np.errstate(over="ignore", invalid="ignore"):
            expected = ((h * h) @ path_basis(rewritten.bank).T) @ rewritten.head.T
        np.testing.assert_array_equal(after, expected)
        assert not np.array_equal(after, before, equal_nan=True)


def overflowing_bank_and_head():
    """Channels as flipped exponent bits leave them: near float32's limit,
    and one channel inf.  Binding overflows to inf, and the path that
    binds inf to 0 gives NaN in float32 and in float64 alike."""
    channels = [np.full((2, 8), 3e38, dtype=np.float32), np.full((2, 8), 3e38, dtype=np.float32)]
    channels[0][1] = np.inf
    channels[1][0, :4] = 0.0
    return ChannelBank(channels), np.ones((3, 4), dtype=np.float32)


@pytest.mark.parametrize("form", ["score_batch", "score_only"])
def test_flipped_bank_scores_without_warnings(form):
    bank, head = overflowing_bank_and_head()
    scorer = DecomposedScorer(bank, head)
    h = np.ones(8, dtype=np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scores = scorer.score_batch(h[None])[0] if form == "score_batch" else scorer.scores(h, form)
    assert np.isnan(scores).all()


class TestChooseMode:
    """Every cap streams: no cap makes a materialized table the better mode."""

    def test_streams_when_the_table_fits(self):
        assert choose_mode(26, 10000, memory_cap_bytes=26 * 10000 * 4) == "score_only"

    def test_falls_back_to_streaming(self):
        assert choose_mode(26, 10000, memory_cap_bytes=26 * 10000 * 4 - 1) == "score_only"
        assert choose_mode(26, 10000, memory_cap_bytes=0) == "score_only"

    def test_no_cap(self):
        assert choose_mode(26, 10000, memory_cap_bytes=None) == "score_only"


class TestDecomposedScorer:
    def test_classifier_scorer_and_predict(self, rng):
        cfg, params, projectors, h, y = random_small_instance(rng)
        encoder = RandomProjectionEncoder(EncoderConfig(num_features=3, dim=cfg.dim))
        clf = DecoHDClassifier(encoder, identity_standardizer(3), cfg, params)
        scorer = clf.scorer
        assert scorer.head.dtype == np.float32
        pred = pick_class(scorer.score_batch(h.astype(np.float32)))
        assert pred.shape == (h.shape[0],)

    def test_integer_exactness_across_modes(self, rng):
        bank, head, h = integer_bank_and_head(rng)
        scorer = DecomposedScorer(bank=bank, head=head)
        assert_same_bits(scorer.scores(h, "score_only"), scorer.score_batch(h[None])[0])
