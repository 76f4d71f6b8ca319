import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from decohd import inference, model, training
from decohd.inference import DecomposedScorer, choose_mode, score_batch, stream_scores
from decohd.encoding import EncoderConfig, RandomProjectionEncoder, fit_standardizer
from decohd.faults import inject_bitflips
from decohd.experiment import ExperimentConfig, encode_splits, fit_model, prepare_data
from decohd.model import ChannelBank, DecoHDClassifier, ModelConfig, accuracy, init_params, path_basis, pick_class
from decohd.precision import quantize_model
from tests.conftest import (
    assert_same_bits,
    assert_scores_near_reference,
    identity_standardizer,
    integer_bank_and_head,
    random_small_instance,
    reference_scores,
)

def random_bank_and_head(rng, dtype=np.float32, channels=(2, 3), dim=32, num_classes=4, squared=False):
    bank = ChannelBank([rng.standard_normal((l, dim)).astype(dtype) for l in channels], squared=squared)
    head = rng.standard_normal((num_classes, int(np.prod(channels)))).astype(dtype)
    h = rng.standard_normal(dim).astype(dtype)
    return bank, head, h


class TestStreamScores:
    def test_single_path_equals_logits_exactly(self, rng):
        # Integer values, so that every summation order is exact.
        bank, head, h = integer_bank_and_head(rng, channels=(1,), dim=8)
        np.testing.assert_array_equal(stream_scores(h, bank, head), reference_scores(h, bank.channels, head))

    def test_matches_batched_forward_fp32(self, rng):
        for _ in range(10):
            bank, head, h = random_bank_and_head(rng, np.float32)
            assert_scores_near_reference(stream_scores(h, bank, head), h, bank, head, rel=1e-5)

    def test_matches_batched_forward_fp64(self, rng):
        for _ in range(10):
            bank, head, h = random_bank_and_head(rng, np.float64)
            assert_scores_near_reference(stream_scores(h, bank, head), h, bank, head, rel=1e-12)

    def test_hand_fixture(self):
        bank = ChannelBank([np.array([[1.0, -1.0, 1.0]]), np.array([[2.0, 2.0, 2.0]])])
        head = np.array([[1.0], [0.5]])
        h = np.array([1.0, 2.0, 3.0])
        # P_0 = [2, -2, 2]; <P_0, h> = 2 - 4 + 6 = 4
        np.testing.assert_array_equal(stream_scores(h, bank, head), [4.0, 2.0])

    def test_an_h_of_the_wrong_length_is_refused(self, rng):
        bank, head, _ = random_bank_and_head(rng, np.float64)  # dim 32
        with pytest.raises(ValueError, match=r"^hypervector shape \(31,\) does not match bank dim 32$"):
            stream_scores(np.zeros(31), bank, head)

    def test_leaves_a_float64_input_unchanged(self, rng):
        # A fenced bank's input is squared into score_batch's own
        # buffer, never in place.
        for squared in (False, True):
            bank, head, h = random_bank_and_head(rng, np.float64, squared=squared)
            before = h.copy()
            stream_scores(h, bank, head)
            assert_same_bits(h, before)


class TestCrossModeEquivalence:
    """The one-row forward is the batched one on the kept basis."""

    def test_hundred_random_fixtures(self, rng):
        for _ in range(100):
            channels = tuple(int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 4))))
            bank, head, h = random_bank_and_head(
                rng, np.float32, channels=channels,
                dim=int(rng.integers(8, 65)), num_classes=int(rng.integers(2, 6)),
            )
            scorer = DecomposedScorer(bank=bank, head=head)
            one_row = scorer.scores(h)
            assert_same_bits(one_row, scorer.score_batch(h[None])[0])
            assert_scores_near_reference(one_row, h, bank, head, rel=1e-5)

    def test_uniform_head_scores_every_class_alike(self, rng):
        bank, _, h = random_bank_and_head(rng)
        head = np.full((4, bank.num_paths), 1.0 / bank.num_paths, dtype=np.float32)
        scores = score_batch(h[None], bank, head)[0]
        for c in range(1, 4):
            assert_same_bits(scores[c], scores[0])

    def test_depends_on_h_only_through_square(self, rng):
        # The fenced bank of stream_channels scores <P_c, h*h>, the form
        # the benchmark's serve oracle checks.
        bank, head, h = random_bank_and_head(rng, squared=True)
        assert_same_bits(score_batch(h[None], bank, head), score_batch(-h[None], bank, head))
        assert_scores_near_reference(score_batch(h[None], bank, head)[0], h, bank, head, rel=1e-5)

    def test_unknown_mode(self, rng):
        bank, head, h = random_bank_and_head(rng)
        for mode in ("fastest", "materialized_prototypes"):
            with pytest.raises(ValueError, match="unknown inference mode"):
                DecomposedScorer(bank=bank, head=head).scores(h, mode)


# One row's scores through each forward of a linear bank: inference's
# path terms, a deployed scorer's composed prototypes and a training
# step's against the class table.
FORWARDS = {
    "score_batch": lambda h, bank, head: score_batch(h[None], bank, head)[0],
    "scorer": lambda h, bank, head: DecomposedScorer(bank, head).score_batch(h[None])[0],
    "train": lambda h, bank, head: training._forward(h[None], head @ bank.basis)[0],
}


@pytest.mark.parametrize("forward", FORWARDS.values(), ids=FORWARDS.keys())
class TestLinearInTheInput:
    """A trained bank scores <P_c, h>: odd in h and scaled by powers of
    two, bit for bit, in every forward, away from underflow and overflow."""

    def test_odd_in_h(self, rng, forward):
        bank, head, h = random_bank_and_head(rng, channels=(2, 2))
        assert_same_bits(forward(-h, bank, head), -forward(h, bank, head))

    @pytest.mark.parametrize("k", [-6, -1, 1, 7])
    def test_scaled_by_powers_of_two(self, rng, forward, k):
        bank, head, h = random_bank_and_head(rng, channels=(2, 2))
        assert_same_bits(forward(np.ldexp(h, k), bank, head), np.ldexp(forward(h, bank, head), k))


class TestScoreBatch:
    def test_matches_per_sample_logits(self, rng):
        cfg, params, projectors, h, y = random_small_instance(rng)
        from decohd.model import materialize_channels

        bank = materialize_channels(params, projectors)
        batch = score_batch(h, bank, params.head)
        for j in range(h.shape[0]):
            assert_scores_near_reference(batch[j], h[j], bank, params.head, rel=1e-12)


class TestChunkedScoreBatch:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 513, 1023, 1024, 1025, 2500])
    def test_equals_whole_batch_product(self, rng, n, dtype, monkeypatch):
        # 255 to 257 and 513 sit on the 256-row chunk boundaries.  The
        # whole-batch product is score_batch with one chunk, for a linear
        # and for a fenced bank.
        bank, head, _ = random_bank_and_head(rng, dtype, channels=(2, 3, 2), dim=256, num_classes=5)
        h = rng.standard_normal((n, 256)).astype(dtype)
        for form in (bank, ChannelBank(bank.channels, squared=True)):
            scores = score_batch(h, form, head)
            with monkeypatch.context() as whole:
                whole.setattr(inference, "_SCORE_CHUNK_ROWS", max(n, 1))
                assert_same_bits(scores, score_batch(h, form, head))
            assert scores.shape == (n, 5)
            assert_scores_near_reference(scores, h, form, head, rel=1e-5 if dtype == np.float32 else 1e-12)

    def test_working_memory_does_not_grow_with_rows(self, rng):
        # Measured on the fenced bank, whose chunks are squared into a buffer.
        dim = 256
        bank, head, _ = random_bank_and_head(rng, channels=(2, 3, 2), dim=dim, num_classes=5, squared=True)
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
            fresh = score_batch(h, ChannelBank(bank.channels), head)
            np.testing.assert_array_equal(score_batch(h, bank, head), fresh)
        assert_scores_near_reference(score_batch(h, bank, head), h, bank, head, rel=1e-5)

    def test_basis_built_once_per_bank(self, rng, monkeypatch):
        calls = []

        def counting(bank):
            calls.append(bank)
            return path_basis(bank)

        monkeypatch.setattr(model, "path_basis", counting)
        monkeypatch.setattr(inference, "path_basis", counting)
        bank, head, _ = random_bank_and_head(rng)
        scorer = DecomposedScorer(bank=bank, head=head)
        h = rng.standard_normal((3, bank.dim)).astype(np.float32)
        for _ in range(3):
            scorer.score_batch(h)
            pick_class(scorer.score_batch(h))
        assert len(calls) == 1

    def test_a_scored_bank_keeps_its_basis_outside_its_fields(self, rng):
        bank, head, _ = random_bank_and_head(rng)
        h = rng.standard_normal((3, bank.dim)).astype(np.float32)
        assert "basis" not in vars(bank)
        score_batch(h, bank, head)  # the path terms, through the bank's basis
        assert "basis" in vars(bank)
        assert bank.basis is vars(bank)["basis"]
        assert_same_bits(bank.basis, path_basis(bank))
        # Equality and repr see the fields alone.
        assert [f.name for f in dataclasses.fields(ChannelBank)] == ["channels", "squared"]
        assert repr(bank) == repr(ChannelBank(bank.channels))
        # The fenced bank scores through its basis too; a rewritten
        # scorer's bank is fresh and holds none.
        scorer = DecomposedScorer(ChannelBank(bank.channels, squared=True), head)
        scorer.score_batch(h)
        assert "basis" in vars(scorer.bank)
        assert "basis" not in vars(scorer.replace(scorer.stored()).bank)

    @pytest.mark.parametrize(
        "rewrite",
        [lambda s: quantize_model(s, "bf16"), lambda s: inject_bitflips(s, 1.0, 3)],
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
        assert_scores_near_reference(after, h, rewritten.bank, rewritten.head, rel=1e-5)
        assert not np.array_equal(after, before, equal_nan=True)


class TestComposedPrototypes:
    """A linear scorer bundles its paths into P = head @ basis once, then
    scores h @ P.T."""

    @staticmethod
    def counting(monkeypatch):
        calls = []

        def counting_path_basis(bank):
            calls.append(bank)
            return path_basis(bank)

        monkeypatch.setattr(inference, "path_basis", counting_path_basis)
        return calls

    def test_a_deployed_scorer_composes_once(self, monkeypatch):
        clf, bank, head, features = trained_classifier()
        calls = self.counting(monkeypatch)
        h = clf.encoder.encode_batch(features, clf.standardizer)
        for _ in range(3):
            clf.scorer.score_batch(h)
            clf.predict_batch(features)
            clf.predict(features[0])
            clf.scorer.scores(h[0])
        assert len(calls) == 1 and calls[0] is bank
        assert_same_bits(clf.scorer._prototypes, head @ path_basis(bank))
        # Resident: the stored arrays and P; the basis was not kept.
        assert "basis" not in vars(bank)

    def test_evaluate_scores_as_the_deployed_scorer(self, rng, monkeypatch):
        # Training composes P once per epoch end and evaluates it with the
        # step's forward, composing nothing more; on a finite model that
        # is the deployed accuracy.
        bank, head, _ = random_bank_and_head(rng, channels=(2, 3), dim=64, num_classes=5)
        h = rng.standard_normal((40, 64)).astype(np.float32)
        labels = rng.integers(0, 5, 40)
        prototypes = head @ path_basis(bank)
        calls = self.counting(monkeypatch)
        evaluated = training.evaluate(prototypes, h, labels)
        assert calls == []
        assert evaluated == accuracy(DecomposedScorer(ChannelBank(bank.channels), head), h, labels)
        prototypes[1, 3] = np.inf
        assert math.isnan(training.evaluate(prototypes, h, labels))

    def test_replace_composes_from_its_own_arrays(self, rng, monkeypatch):
        bank, head, _ = random_bank_and_head(rng, channels=(3, 2), dim=48)
        h = rng.standard_normal((6, 48)).astype(np.float32)
        scorer = DecomposedScorer(bank=bank, head=head)
        before = scorer.score_batch(h)
        calls = self.counting(monkeypatch)
        arrays = {k: -a for k, a in scorer.stored().items()}
        rewritten = scorer.replace(arrays)
        after = rewritten.score_batch(h)
        assert len(calls) == 1 and calls[0] is rewritten.bank
        assert all(a is arrays[f"channels:{i}"] for i, a in enumerate(calls[0].channels))
        assert_same_bits(rewritten._prototypes, arrays["head"] @ path_basis(rewritten.bank))
        assert_same_bits(scorer.score_batch(h), before)
        assert_scores_near_reference(after, h, rewritten.bank, rewritten.head, rel=1e-5)

    def test_an_overflowing_prototype_scores_the_path_terms(self):
        # One channel entry near float32's limit and a head entry above 1:
        # head @ basis overflows, while the path terms, scaled by |h| < 1
        # first, stay finite.
        channels = [np.ones((2, 8), dtype=np.float32), np.ones((1, 8), dtype=np.float32)]
        channels[0][0, 0] = 3e38
        bank = ChannelBank(channels)
        head = np.array([[2.0, 1.0], [0.5, 0.5], [1.0, -1.0]], dtype=np.float32)
        with np.errstate(over="ignore"):
            assert not np.isfinite(head @ path_basis(bank)).all()
        h = np.linspace(-0.4, 0.4, 24, dtype=np.float32).reshape(3, 8)
        scorer = DecomposedScorer(bank, head)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = scorer.score_batch(h)
            rows = [scorer.scores(x) for x in h]
        assert scorer._prototypes is None
        assert np.isfinite(batch).all()
        assert_scores_near_reference(batch, h, bank, head, rel=1e-5)
        assert_same_bits(np.stack(rows), batch)

    @pytest.mark.parametrize("entry", ["channel", "head"])
    def test_a_non_finite_stored_entry_composes_nothing(self, rng, monkeypatch, entry):
        # An inf channel or head entry leaves a column or row of P non-finite,
        # so the scorer has no prototypes without composing them, and scores
        # the path terms.
        bank, head, _ = random_bank_and_head(rng, channels=(2, 3), dim=48)
        if entry == "channel":
            bank.channels[0][1, 5] = np.inf
        else:
            head[2, 3] = np.inf
        h = rng.standard_normal((6, 48)).astype(np.float32)
        calls = self.counting(monkeypatch)
        scorer = DecomposedScorer(bank, head)
        assert scorer._prototypes is None
        assert calls == []
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(head @ path_basis(bank)).all()
        assert_same_bits(scorer.score_batch(h), score_batch(h, ChannelBank(bank.channels), head))

    def test_a_non_finite_product_scores_the_path_terms(self, rng):
        bank, head, _ = random_bank_and_head(rng, channels=(2, 2), dim=16)
        h = rng.standard_normal((5, 16)).astype(np.float32)
        prototypes = head @ bank.basis
        prototypes[1, 3] = np.inf
        assert_same_bits(score_batch(h, bank, head, prototypes), score_batch(h, bank, head))
        # A finite P whose product overflows before it cancels, when BLAS
        # sums P_0 = (3e38, 3e38, -3e38) in order; the path terms cancel
        # inside the first path.
        bank = ChannelBank([np.array([[3e38, 0, -3e38], [0, 3e38, 0]], dtype=np.float32)])
        head = np.array([[1, 1], [1, -1]], dtype=np.float32)
        h = np.full((1, 3), 0.577, dtype=np.float32)
        scores = DecomposedScorer(bank, head).score_batch(h)
        assert np.isfinite(scores).all()
        assert_scores_near_reference(scores, h, bank, head, rel=1e-5)


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
    """Every cap gives the one mode, scoring on the kept basis."""

    def test_score_only_when_the_table_fits(self):
        assert choose_mode(26, 10000, memory_cap_bytes=26 * 10000 * 4) == "score_only"

    def test_score_only_below_the_table(self):
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


def fenced_classifier():
    """A model built from latents, as the benchmark's serve workload builds it."""
    cfg = ModelConfig((2, 2, 2), latent_dim=16, dim=256, num_classes=5, seed=11)
    features = np.random.default_rng(5).standard_normal((40, 8))
    encoder = RandomProjectionEncoder(EncoderConfig(num_features=8, dim=256, seed=12))
    clf = DecoHDClassifier(encoder, fit_standardizer(features), cfg, init_params(cfg))
    return clf, clf.channel_bank(), clf.head(), features[:6]


def trained_classifier():
    """A linear decohd as fit_model trains and deploys it."""
    config = ExperimentConfig(
        data={"synthetic": {"num_classes": 3, "num_features": 8, "samples_per_class": 20}},
        models=({"kind": "decohd", "channels": [2, 2], "latent_dim": 8},),
        train={"epochs": 2, "batch_size": 16, "microbatch_size": 8},
        dims=(64,),
    )
    train_ds, test_ds = prepare_data(config.data, config.root_seed)
    standardizer = fit_standardizer(train_ds.features)
    encoder, h_train, h_test = encode_splits(config, standardizer, train_ds, test_ds, 64)
    spec = config.models[0]
    clf, _ = fit_model(spec, spec.kind, config, encoder, standardizer,
                       h_train, train_ds.labels, h_test, test_ds.labels, 3)
    return clf, clf.scorer.bank, clf.scorer.head, test_ds.features[:6]


@pytest.mark.parametrize("build", [fenced_classifier, trained_classifier], ids=["fenced", "linear"])
def test_the_serve_low_memory_binding_is_the_one_row_score_batch(build):
    # The benchmark's low-memory request, bit for bit and in dtype the
    # classifier's own one-row batch.
    clf, bank, head, features = build()
    assert bank.squared == (build is fenced_classifier)
    cap = (bank.dim + len(head)) * 4
    for x in features:
        h = clf.encoder.encode(x, clf.standardizer)
        low = DecomposedScorer(bank, head).scores(h, mode=choose_mode(len(head), bank.dim, cap))
        one_row = clf.scorer.score_batch(clf.encoder.encode_batch(x[None, :], clf.standardizer))[0]
        assert_same_bits(low, one_row)
