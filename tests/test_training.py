import math
import tracemalloc

import numpy as np
import pytest

from decohd import training
from decohd.data import make_synthetic
from decohd.encoding import EncoderConfig, RandomProjectionEncoder
from decohd.model import (
    ChannelBank,
    ModelConfig,
    ModelParams,
    init_params,
    materialize_channels,
)
from decohd.ops import HadamardProjector, RandomMatrixSpec
from decohd.training import (
    AdamW,
    TrainConfig,
    TrainingDiverged,
    evaluate,
    softmax_cross_entropy,
    train,
)
from tests.conftest import (
    LAYER_SHAPES,
    adamw_step,
    assert_same_bits,
    backward,
    batch_loss,
    identity_standardizer,
    layer_index_arrays,
    projectors_of,
    random_small_instance,
)


def finite_difference_grads(h, y, params, projectors, eps=1e-4):
    """Central differences on every latent and head entry."""
    d_latents = [np.zeros_like(a) for a in params.latents]
    for li, lat in enumerate(params.latents):
        it = np.nditer(lat, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            orig = lat[i]
            lat[i] = orig + eps
            lp = batch_loss(h, y, params, projectors)
            lat[i] = orig - eps
            lm = batch_loss(h, y, params, projectors)
            lat[i] = orig
            d_latents[li][i] = (lp - lm) / (2 * eps)
    d_head = np.zeros_like(params.head)
    it = np.nditer(params.head, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        orig = params.head[i]
        params.head[i] = orig + eps
        lp = batch_loss(h, y, params, projectors)
        params.head[i] = orig - eps
        lm = batch_loss(h, y, params, projectors)
        params.head[i] = orig
        d_head[i] = (lp - lm) / (2 * eps)
    return ModelParams(latents=d_latents, head=d_head)


def max_relative_error(analytic: ModelParams, numeric: ModelParams) -> float:
    worst = 0.0
    for a, n in zip(analytic.latents + [analytic.head], numeric.latents + [numeric.head]):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


def cross_entropy(logits, label):
    """The loss of one row: softmax_cross_entropy of a one-row batch."""
    return softmax_cross_entropy(np.asarray(logits)[None], np.array([label]))[1]


class TestCrossEntropy:
    def test_uniform_two_class(self):
        assert cross_entropy(np.array([0.0, 0.0]), 0) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_log_sum_exp_stability(self):
        loss = cross_entropy(np.array([1000.0, 0.0]), 0)
        assert 0.0 <= loss < 1e-300

    def test_direct_softmax_oracle(self):
        # 64-bit direct computation: -log(e^3 / (e^1 + e^2 + e^3))
        expected = -math.log(math.exp(3.0) / (math.exp(1.0) + math.exp(2.0) + math.exp(3.0)))
        assert cross_entropy(np.array([1.0, 2.0, 3.0]), 2) == pytest.approx(expected, rel=1e-12)
        assert cross_entropy(np.array([1.0, 2.0, 3.0]), 2) == pytest.approx(0.40761, abs=5e-6)


class TestBackward:
    def test_head_residuals_sum_to_zero(self, rng):
        cfg, params, projectors, h, y = random_small_instance(rng)
        g = backward(h, y, params, projectors)
        np.testing.assert_allclose(g.head.sum(axis=0), 0.0, atol=1e-10)

    def test_matches_finite_differences(self, rng):
        for _ in range(5):
            cfg, params, projectors, h, y = random_small_instance(rng)
            analytic = backward(h, y, params, projectors)
            numeric = finite_difference_grads(h, y, params, projectors)
            assert max_relative_error(analytic, numeric) < 1e-4

    def test_zero_input_zero_gradients(self, rng):
        cfg, params, projectors, h, y = random_small_instance(rng)
        g = backward(np.zeros_like(h), y, params, projectors)
        # u = 0 annihilates everything except the (constant-logit) softmax,
        # whose head gradient is t == 0.
        np.testing.assert_array_equal(g.head, np.zeros_like(g.head))
        for d in g.latents:
            np.testing.assert_array_equal(d, np.zeros_like(d))


def scatter_channel_grads(d_basis, bank):
    """Oracle: gather every path's channels, form each layer's complement
    as prefix (lower layers, ascending) times suffix (higher layers, last
    first) and scatter ``d_basis * complement`` with ``np.add.at``."""
    idx = layer_index_arrays(bank.channels_per_layer)
    gathered = [c[i] for c, i in zip(bank.channels, idx)]
    n = len(gathered)
    prefix = [np.ones_like(gathered[0])]
    for i in range(1, n):
        prefix.append(prefix[-1] * gathered[i - 1])
    suffix = [np.ones_like(gathered[0])]
    for i in range(n - 2, -1, -1):
        suffix.insert(0, suffix[0] * gathered[i + 1])
    d_channels = []
    for i, c in enumerate(bank.channels):
        d_c = np.zeros_like(c)
        np.add.at(d_c, idx[i], d_basis * (prefix[i] * suffix[i]))
        d_channels.append(d_c)
    return d_channels


class TestChannelGradients:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("channels", LAYER_SHAPES)
    def test_reshape_sum_equals_scatter(self, rng, channels, dtype):
        dim = 96
        bank = ChannelBank([rng.standard_normal((l, dim)).astype(dtype) for l in channels])
        d_basis = rng.standard_normal((bank.num_paths, dim)).astype(dtype)
        got = training._channel_grads_from_basis(d_basis, bank)
        expected = scatter_channel_grads(d_basis, bank)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert_same_bits(g, e)

    def test_latent_grads_equal_direct_product(self, rng):
        # A step forms d latent = d channel @ P^T in one apply_T call per
        # layer; latent 150 pads to 256, so dim 40 is one truncated block.
        projectors = [HadamardProjector(RandomMatrixSpec(150, 40, seed=s)) for s in (1, 2)]
        d_ch = [rng.standard_normal((l, 40)) for l in (2, 3)]
        for proj, d in zip(projectors, d_ch):
            np.testing.assert_allclose(proj.apply_T(d), d @ proj.apply(np.eye(150)).T, rtol=0, atol=1e-12)


class TestAdamW:
    def _params(self):
        return ModelParams(latents=[np.array([[1.0, -2.0]])], head=np.array([[0.5], [0.25]]))

    def _zero_grads(self, params):
        return ModelParams(
            latents=[np.zeros_like(a) for a in params.latents],
            head=np.zeros_like(params.head),
        )

    def test_zero_grad_no_decay_fixed_point(self):
        params = self._params()
        before = params.copy()
        opt = AdamW(params.arrays(), learning_rate=0.1, weight_decay=0.0)
        for _ in range(3):
            adamw_step(opt, self._zero_grads(params))
        assert params.head.tobytes() == before.head.tobytes()
        assert params.latents[0].tobytes() == before.latents[0].tobytes()

    def test_first_step_matches_reference_recurrence(self, rng):
        # 64-bit reference implementation of the published update
        params = self._params()
        g = ModelParams(latents=[rng.standard_normal((1, 2))], head=rng.standard_normal((2, 1)))
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8

        def reference(p, grad, t=1):
            m = (1 - b1) * grad
            v = (1 - b2) * grad * grad
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            return p - lr * m_hat / (np.sqrt(v_hat) + eps)

        expected_lat = reference(params.latents[0], g.latents[0])
        expected_head = reference(params.head, g.head)
        out = params.copy()
        assert (AdamW.beta1, AdamW.beta2, AdamW.eps) == (b1, b2, eps)
        adamw_step(AdamW(out.arrays(), learning_rate=lr), g)
        np.testing.assert_allclose(out.latents[0], expected_lat, rtol=1e-12)
        np.testing.assert_allclose(out.head, expected_head, rtol=1e-12)
        # and the direction is sign-like: g / (|g| + eps) up to bias correction
        step_dir = (params.latents[0] - out.latents[0]) / lr
        np.testing.assert_allclose(step_dir, np.sign(g.latents[0]), atol=1e-3)

    def test_decoupled_decay_shrinks(self):
        params = self._params()
        opt = AdamW(params.arrays(), learning_rate=0.1, weight_decay=0.5)
        expected = params.head * (1.0 - 0.1 * 0.5) ** 2
        adamw_step(opt, self._zero_grads(params))
        adamw_step(opt, self._zero_grads(params))
        np.testing.assert_allclose(params.head, expected, rtol=1e-12)


def _blob_setup(num_classes=2, dim=512, latent_dim=64, channels=(2,), separation=10.0, seed=3,
                dtype=np.float32):
    """Blob encodings in *dtype*, the precision :func:`train` runs in."""
    train_ds, test_ds = make_synthetic(num_classes, 8, 100, separation=separation, seed=seed)
    enc = RandomProjectionEncoder(EncoderConfig(num_features=8, dim=dim, seed=11))
    # raw (uncentered) encoding: scores are even functions of h, and
    # centering two balanced blobs would fold them onto each other
    ident = identity_standardizer(8)
    h_train = enc.encode_batch(train_ds.features, ident).astype(dtype, copy=False)
    h_test = enc.encode_batch(test_ds.features, ident).astype(dtype, copy=False)
    cfg = ModelConfig(
        channels_per_layer=channels, latent_dim=latent_dim, dim=dim,
        num_classes=num_classes, seed=5,
    )
    return cfg, h_train, train_ds.labels, h_test, test_ds.labels


@pytest.mark.parametrize("key, value", [("learning_rate", math.nan), ("learning_rate", math.inf),
                                        ("learning_rate", 0.0), ("weight_decay", math.nan),
                                        ("weight_decay", math.inf), ("weight_decay", -0.5)])
def test_learning_rate_and_weight_decay_must_be_finite(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be"):
        TrainConfig(**{key: value})


class TestTrain:
    def test_synthetic_separability(self):
        cfg, h_tr, y_tr, h_te, y_te = _blob_setup(dtype=np.float64)
        tcfg = TrainConfig(epochs=50, batch_size=200, microbatch_size=128,
                           learning_rate=0.05, eval_every=50)
        result = train(cfg, tcfg, h_tr, y_tr, h_te, y_te)
        bank = materialize_channels(result.params, projectors_of(cfg))
        assert evaluate(bank, result.params.head, h_tr, y_tr) >= 0.99
        assert result.history[-1].mean_loss < result.history[0].mean_loss

    def test_zero_epochs_returns_init(self):
        # Training runs in the encodings' dtype, which must be floating.
        cfg, h_tr, y_tr, _, _ = _blob_setup(dtype=np.float64)
        tcfg = TrainConfig(epochs=0)
        result = train(cfg, tcfg, h_tr, y_tr)
        ref = init_params(cfg, dtype=np.float64)
        for a, b in zip(result.params.arrays(), ref.arrays()):
            assert_same_bits(a, b)
        with pytest.raises(ValueError, match="training encodings must be floating, got int64"):
            train(cfg, tcfg, h_tr.astype(np.int64), y_tr)

    def test_empty_test_set_is_refused_before_training(self, monkeypatch):
        # Refused before any projector is built, not scored as a diverged run.
        cfg, h_tr, y_tr, _, _ = _blob_setup()
        monkeypatch.setattr(training, "HadamardProjector", None)
        with pytest.raises(ValueError, match="^empty test set$"):
            train(cfg, TrainConfig(epochs=1), h_tr, y_tr, h_tr[:0], y_tr[:0])

    def test_bit_identical_reruns(self):
        cfg, h_tr, y_tr, _, _ = _blob_setup()
        tcfg = TrainConfig(epochs=5, batch_size=64, microbatch_size=32)
        a = train(cfg, tcfg, h_tr, y_tr).params
        b = train(cfg, tcfg, h_tr, y_tr).params
        assert a.head.tobytes() == b.head.tobytes()
        for la, lb in zip(a.latents, b.latents):
            assert la.tobytes() == lb.tobytes()

    def test_frozen_matrices_untouched(self, monkeypatch):
        cfg, h_tr, y_tr, _, _ = _blob_setup(dtype=np.float64)
        projectors = []

        def keeping(spec):
            projectors.append(HadamardProjector(spec))
            return projectors[-1]

        monkeypatch.setattr(training, "HadamardProjector", keeping)
        train(cfg, TrainConfig(epochs=3), h_tr, y_tr)
        fresh = projectors_of(cfg)
        assert len(projectors) == len(fresh) == cfg.num_layers
        for used, new in zip(projectors, fresh):
            for name in ("signs", "perms", "gauss"):
                assert_same_bits(getattr(used, name), getattr(new, name))

    def test_microbatch_invariance(self):
        cfg, h_tr, y_tr, _, _ = _blob_setup(dtype=np.float64)
        h = h_tr[:256]
        y = y_tr[:256]
        base = dict(epochs=1, batch_size=256, learning_rate=0.01)
        split = train(cfg, TrainConfig(microbatch_size=128, **base), h, y).params
        whole = train(cfg, TrainConfig(microbatch_size=256, **base), h, y).params
        np.testing.assert_allclose(split.head, whole.head, rtol=1e-6)
        for a, b in zip(split.latents, whole.latents):
            np.testing.assert_allclose(a, b, rtol=1e-6, atol=1e-12)

    def test_divergence_aborts_with_checkpoint(self):
        cfg, h_tr, y_tr, _, _ = _blob_setup()
        tcfg = TrainConfig(epochs=50, learning_rate=1e18)
        with pytest.raises(TrainingDiverged) as excinfo:
            train(cfg, tcfg, h_tr, y_tr)
        assert excinfo.value.last_good is not None
        assert np.isfinite(excinfo.value.last_good.head).all()

    @pytest.mark.parametrize("epochs, batch_size, reason", [
        (1, 1024, "path basis became non-finite"),
        (2, 1024, "path basis became non-finite"),
        (1, 64, "non-finite logits"),
    ], ids=["one-epoch", "two-epochs", "four-steps-per-epoch"])
    def test_huge_learning_rate_diverges_without_a_warning(self, epochs, batch_size, reason):
        # At lr 1e30 the first step takes the float32 channels past 1e26,
        # so the three-layer path basis overflows.  Whether that step
        # ends the epoch or the next batch's forward follows it, the run
        # raises, and no warning leaks (the suite turns warnings into errors).
        cfg, h_tr, y_tr, _, _ = _blob_setup(channels=(2, 2, 2))
        tcfg = TrainConfig(epochs=epochs, batch_size=batch_size, learning_rate=1e30)
        with pytest.raises(TrainingDiverged, match=reason) as excinfo:
            train(cfg, tcfg, h_tr, y_tr)
        assert "at epoch 0" in str(excinfo.value)
        assert excinfo.value.history == []
        for a, b in zip(excinfo.value.last_good.arrays(), init_params(cfg, dtype=np.float32).arrays()):
            assert_same_bits(a, b)

    @pytest.mark.parametrize("with_test", [True, False], ids=["evaluated", "no-test-set"])
    def test_a_head_only_divergence_raises_after_one_forward(self, monkeypatch, with_test):
        # At lr 1e30 one step leaves a one-layer model's basis finite but
        # its head near 1e30, so every score overflows.  The run checks the
        # scores of one forward after the epoch's last step: the
        # evaluation's when it runs, else one more microbatch's, never both.
        cfg, h_tr, y_tr, h_te, y_te = _blob_setup(channels=(2,))
        forwards = []

        def counting_path_terms(h, *args, **kwargs):
            forwards.append(len(h))
            return path_terms(h, *args, **kwargs)

        path_terms = training.path_terms
        monkeypatch.setattr(training, "path_terms", counting_path_terms)
        tcfg = TrainConfig(epochs=1, batch_size=len(y_tr), microbatch_size=64, learning_rate=1e30)
        test = (h_te, y_te) if with_test else ()
        with pytest.raises(TrainingDiverged, match="scores became non-finite at epoch 0") as excinfo:
            train(cfg, tcfg, h_tr, y_tr, *test)
        steps = [64, 64, 64, 8]
        assert forwards == (steps if with_test else steps + [64])
        assert excinfo.value.history == []
        for a, b in zip(excinfo.value.last_good.arrays(), init_params(cfg, dtype=np.float32).arrays()):
            assert_same_bits(a, b)

    def test_running_history_columns(self):
        cfg, h_tr, y_tr, h_te, y_te = _blob_setup(dtype=np.float64)
        tcfg = TrainConfig(epochs=3, learning_rate=0.01, eval_every=2)
        result = train(cfg, tcfg, h_tr, y_tr, h_te, y_te)
        assert [h.epoch for h in result.history] == [0, 1, 2]
        assert math.isnan(result.history[0].test_accuracy)
        assert not math.isnan(result.history[1].test_accuracy)
        assert all(h.wall_seconds >= 0 for h in result.history)


class TestMicrobatchBuffer:
    def test_leaves_the_callers_encodings_unchanged(self):
        # Rows are gathered into the run's own buffer and squared there.
        cfg, h_tr, y_tr, h_te, y_te = _blob_setup()
        before = (h_tr.tobytes(), h_te.tobytes())
        tcfg = TrainConfig(epochs=2, batch_size=64, microbatch_size=24, learning_rate=0.01)
        result = train(cfg, tcfg, h_tr, y_tr, h_te, y_te)
        assert (h_tr.tobytes(), h_te.tobytes()) == before
        # The gather reads any layout: Fortran-ordered rows train the same bits.
        again = train(cfg, tcfg, np.asfortranarray(h_tr), y_tr, h_te, y_te)
        for a, b in zip(result.params.arrays(), again.params.arrays()):
            assert_same_bits(a, b)

    @pytest.mark.parametrize("channels, microbatch", [((2, 3, 2), 128), ((4, 4, 4), 16)],
                             ids=["12-paths-mb128", "64-paths-mb16"])
    def test_working_memory_is_bounded_by_microbatch_not_batch(self, rng, channels, microbatch):
        # Beyond its inputs a run holds one microbatch of rows (gathered and
        # squared in one buffer) and a few arrays of the basis's shape: the
        # basis, its gradient and the channel-gradient products.  Its
        # projectors are matrix-free, so the bound has no room for a
        # latent_dim x dim array (128 KiB here), nor for gathering the
        # 2000-row batch, copying the inputs or a second microbatch-sized
        # array.
        n, dim = 2000, 512
        h = rng.standard_normal((n, dim)).astype(np.float32)
        y = rng.integers(0, 5, n)
        cfg = ModelConfig(channels_per_layer=channels, latent_dim=64, dim=dim, num_classes=5, seed=5)
        basis = math.prod(channels) * dim * 4
        tcfg = TrainConfig(epochs=2, batch_size=n, microbatch_size=microbatch, learning_rate=0.01)
        tracemalloc.start()
        try:
            result = train(cfg, tcfg, h, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= microbatch * dim * 4 + 8 * basis + (1 << 16)
        assert result.bank is not None


class TestOneBankPerParameterState:
    @pytest.mark.parametrize(
        "epochs, eval_every, with_test",
        [(3, 1, True), (3, 2, True), (3, 1, False), (0, 1, True)],
        ids=["eval-every-epoch", "eval-every-2nd", "no-test-set", "zero-epochs"],
    )
    def test_materializes_once_per_parameter_state(self, monkeypatch, epochs, eval_every, with_test):
        cfg, h_tr, y_tr, h_te, y_te = _blob_setup(dtype=np.float64)
        materialized, expansions, stepped, scored = [], [], [], []

        def counting_materialize(params, projectors):
            materialized.append([a.copy() for a in params.latents])
            return materialize_channels(params, projectors)

        def counting_apply(self, lat):
            expansions.append(lat.shape)
            return apply(self, lat)

        def recording_step(h_train, y_train, b_idx, h_mb, params, *args):
            loss_sum, correct, bank = step(h_train, y_train, b_idx, h_mb, params, *args)
            stepped.append((params.copy(), bank))
            return loss_sum, correct, bank

        def recording_evaluate(bank, *args):
            scored.append(bank)
            return evaluate(bank, *args)

        apply, step = HadamardProjector.apply, training._train_batch
        monkeypatch.setattr(training, "materialize_channels", counting_materialize)
        monkeypatch.setattr(HadamardProjector, "apply", counting_apply)
        monkeypatch.setattr(training, "_train_batch", recording_step)
        monkeypatch.setattr(training, "evaluate", recording_evaluate)
        tcfg = TrainConfig(epochs=epochs, batch_size=64, microbatch_size=32,
                           learning_rate=0.01, eval_every=eval_every)
        test = (h_te, y_te) if with_test else ()
        result = train(cfg, tcfg, h_tr, y_tr, *test)
        steps = epochs * -(-len(y_tr) // 64)
        # The first bank is materialized before the first step, even when
        # no step runs; every step materializes the bank of its updated
        # parameters, with one apply per layer.
        assert len(materialized) == steps + 1
        assert len(stepped) == steps
        assert len(expansions) == cfg.num_layers * (steps + 1)
        # Every bank a step returns, which the evaluations score and the
        # run returns, is the bank of the parameters it belongs to.
        projectors = projectors_of(cfg)
        for params, bank in stepped:
            for got, expected in zip(bank.channels, materialize_channels(params, projectors).channels):
                assert_same_bits(got, expected)
        per_epoch = steps // epochs if epochs else 0
        evaluated = [e for e in range(epochs) if with_test and (e + 1) % eval_every == 0]
        assert len(scored) == len(evaluated)
        for bank, e in zip(scored, evaluated):
            assert bank is stepped[(e + 1) * per_epoch - 1][1]
        if epochs > 0:
            assert result.bank is stepped[-1][1]
            for got, expected in zip(stepped[-1][0].arrays(), result.params.arrays()):
                assert_same_bits(got, expected)
        else:
            # The bank of the initial params, built once.
            initial = materialize_channels(init_params(cfg, dtype=np.float64), projectors)
            for got, expected in zip(result.bank.channels, initial.channels):
                assert_same_bits(got, expected)


class TestGradientAccumulationMatchesBackward:
    def test_one_step_equals_explicit_backward(self, rng):
        # one full-batch step of train() from init_params must equal AdamW
        # applied to backward()'s gradients there
        cfg, _, projectors, h, y = random_small_instance(rng)
        self._check_one_step(cfg, projectors, h, y)

    def test_multi_block_step_equals_explicit_backward(self, rng):
        # latent 100 pads to 128, so dim 300 takes three Hadamard blocks,
        # the last cut to 44 entries
        cfg = ModelConfig(channels_per_layer=(2, 3), latent_dim=100, dim=300, num_classes=3, seed=9)
        projectors = projectors_of(cfg)
        h = rng.standard_normal((7, cfg.dim))
        y = rng.integers(0, cfg.num_classes, 7)
        result = self._check_one_step(cfg, projectors, h, y)
        fresh = materialize_channels(result.params, projectors)
        for got, expected in zip(result.bank.channels, fresh.channels):
            assert_same_bits(got, expected)

    @staticmethod
    def _check_one_step(cfg, projectors, h, y):
        params = init_params(cfg, dtype=np.float64)
        tcfg = TrainConfig(
            epochs=1, batch_size=len(y), microbatch_size=len(y),
            learning_rate=1e-3, weight_decay=5e-5,
        )
        result = train(cfg, tcfg, h, y)
        grads = backward(h, y, params, projectors)
        expected = params.copy()
        adamw_step(AdamW(expected.arrays(), learning_rate=1e-3, weight_decay=5e-5), grads)
        np.testing.assert_allclose(result.params.head, expected.head, rtol=1e-12)
        for a, b in zip(result.params.latents, expected.latents):
            np.testing.assert_allclose(a, b, rtol=1e-12)
        return result
