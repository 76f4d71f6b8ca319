import math

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
    materialize_projectors,
)
from decohd.ops import rng_from_seed
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
    assert_same_bits,
    backward,
    batch_loss,
    identity_standardizer,
    layer_index_arrays,
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
        cfg, params, projectors, h, y = random_small_instance(rng)
        bank = materialize_channels(params, projectors)
        d_basis = rng.standard_normal((bank.num_paths, cfg.dim))
        grads = training._gradients(params.head, d_basis, bank, projectors)
        d_channels = training._channel_grads_from_basis(d_basis, bank)
        for d_lat, d_ch, proj in zip(grads.latents, d_channels, projectors):
            np.testing.assert_allclose(d_lat, d_ch @ proj.T, rtol=1e-12, atol=1e-12)


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
        opt = AdamW(learning_rate=0.1, weight_decay=0.0)
        for _ in range(3):
            opt.step(params, self._zero_grads(params))
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
        AdamW(learning_rate=lr).step(out, g)
        np.testing.assert_allclose(out.latents[0], expected_lat, rtol=1e-12)
        np.testing.assert_allclose(out.head, expected_head, rtol=1e-12)
        # and the direction is sign-like: g / (|g| + eps) up to bias correction
        step_dir = (params.latents[0] - out.latents[0]) / lr
        np.testing.assert_allclose(step_dir, np.sign(g.latents[0]), atol=1e-3)

    def test_decoupled_decay_shrinks(self):
        params = self._params()
        opt = AdamW(learning_rate=0.1, weight_decay=0.5)
        expected = params.head * (1.0 - 0.1 * 0.5) ** 2
        opt.step(params, self._zero_grads(params))
        opt.step(params, self._zero_grads(params))
        np.testing.assert_allclose(params.head, expected, rtol=1e-12)


def _blob_setup(num_classes=2, dim=512, latent_dim=64, channels=(2,), separation=10.0, seed=3):
    train_ds, test_ds = make_synthetic(num_classes, 8, 100, separation=separation, seed=seed)
    enc = RandomProjectionEncoder(EncoderConfig(num_features=8, dim=dim, seed=11))
    # raw (uncentered) encoding: scores are even functions of h, and
    # centering two balanced blobs would fold them onto each other
    ident = identity_standardizer(8)
    h_train = enc.encode_batch(train_ds.features, ident)
    h_test = enc.encode_batch(test_ds.features, ident)
    cfg = ModelConfig(
        channels_per_layer=channels, latent_dim=latent_dim, dim=dim,
        num_classes=num_classes, seed=5,
    )
    return cfg, h_train, train_ds.labels, h_test, test_ds.labels


class TestTrain:
    def test_synthetic_separability(self):
        cfg, h_tr, y_tr, h_te, y_te = _blob_setup()
        tcfg = TrainConfig(epochs=50, batch_size=200, microbatch_size=128,
                           learning_rate=0.05, dtype="float64", eval_every=50)
        result = train(cfg, tcfg, h_tr, y_tr, h_te, y_te)
        bank = materialize_channels(result.params, materialize_projectors(cfg, dtype=np.float64))
        assert evaluate(bank, result.params.head, h_tr, y_tr) >= 0.99
        assert result.history[-1].mean_loss < result.history[0].mean_loss

    def test_zero_epochs_returns_init(self):
        cfg, h_tr, y_tr, _, _ = _blob_setup()
        tcfg = TrainConfig(epochs=0, dtype="float64")
        result = train(cfg, tcfg, h_tr, y_tr)
        ref = init_params(cfg, dtype=np.float64)
        assert result.params.head.tobytes() == ref.head.tobytes()
        for a, b in zip(result.params.latents, ref.latents):
            assert a.tobytes() == b.tobytes()

    def test_bit_identical_reruns(self):
        cfg, h_tr, y_tr, _, _ = _blob_setup()
        tcfg = TrainConfig(epochs=5, batch_size=64, microbatch_size=32, dtype="float32")
        a = train(cfg, tcfg, h_tr, y_tr).params
        b = train(cfg, tcfg, h_tr, y_tr).params
        assert a.head.tobytes() == b.head.tobytes()
        for la, lb in zip(a.latents, b.latents):
            assert la.tobytes() == lb.tobytes()

    def test_frozen_matrices_untouched(self):
        cfg, h_tr, y_tr, _, _ = _blob_setup()
        before = [p.tobytes() for p in materialize_projectors(cfg, dtype=np.float64)]
        train(cfg, TrainConfig(epochs=3, dtype="float64"), h_tr, y_tr)
        after = [p.tobytes() for p in materialize_projectors(cfg, dtype=np.float64)]
        assert before == after

    def test_microbatch_invariance(self):
        cfg, h_tr, y_tr, _, _ = _blob_setup()
        h = h_tr[:256]
        y = y_tr[:256]
        base = dict(epochs=1, batch_size=256, learning_rate=0.01, dtype="float64")
        split = train(cfg, TrainConfig(microbatch_size=128, **base), h, y).params
        whole = train(cfg, TrainConfig(microbatch_size=256, **base), h, y).params
        np.testing.assert_allclose(split.head, whole.head, rtol=1e-6)
        for a, b in zip(split.latents, whole.latents):
            np.testing.assert_allclose(a, b, rtol=1e-6, atol=1e-12)

    def test_divergence_aborts_with_checkpoint(self):
        cfg, h_tr, y_tr, _, _ = _blob_setup()
        tcfg = TrainConfig(epochs=50, learning_rate=1e18, dtype="float32")
        with pytest.raises(TrainingDiverged) as excinfo:
            train(cfg, tcfg, h_tr, y_tr)
        assert excinfo.value.last_good is not None
        assert np.isfinite(excinfo.value.last_good.head).all()

    def test_running_history_columns(self):
        cfg, h_tr, y_tr, h_te, y_te = _blob_setup()
        tcfg = TrainConfig(epochs=3, learning_rate=0.01, dtype="float64", eval_every=2)
        result = train(cfg, tcfg, h_tr, y_tr, h_te, y_te)
        assert [h.epoch for h in result.history] == [0, 1, 2]
        assert math.isnan(result.history[0].test_accuracy)
        assert not math.isnan(result.history[1].test_accuracy)
        assert all(h.wall_seconds >= 0 for h in result.history)


class TestOneBankPerParameterState:
    @pytest.mark.parametrize(
        "epochs, eval_every, with_test",
        [(3, 1, True), (3, 2, True), (3, 1, False), (0, 1, True)],
        ids=["eval-every-epoch", "eval-every-2nd", "no-test-set", "zero-epochs"],
    )
    def test_materializes_once_per_parameter_state(self, monkeypatch, epochs, eval_every, with_test):
        cfg, h_tr, y_tr, h_te, y_te = _blob_setup()
        states = []

        def counting(params, projectors):
            states.append([a.copy() for a in params.latents])
            return materialize_channels(params, projectors)

        monkeypatch.setattr(training, "materialize_channels", counting)
        tcfg = TrainConfig(epochs=epochs, batch_size=64, microbatch_size=32, dtype="float64",
                           learning_rate=0.01, eval_every=eval_every)
        test = (h_te, y_te) if with_test else ()
        result = train(cfg, tcfg, h_tr, y_tr, *test)
        steps = epochs * -(-len(y_tr) // 64)
        # One bank per optimizer step.  An evaluation builds the bank of the
        # post-step parameters, which the next epoch's first batch reuses;
        # only one after the last epoch adds a state.
        final_eval = with_test and epochs > 0 and epochs % eval_every == 0
        assert len(states) == steps + final_eval
        for a, b in zip(states, states[1:]):
            assert any(x.tobytes() != y.tobytes() for x, y in zip(a, b)), "bank rebuilt for unchanged params"
        if final_eval:
            fresh = materialize_channels(result.params, materialize_projectors(cfg, dtype=np.float64))
            for got, expected in zip(result.bank.channels, fresh.channels):
                assert_same_bits(got, expected)
        else:
            assert result.bank is None


class TestGradientAccumulationMatchesBackward:
    def test_one_step_equals_explicit_backward(self, rng):
        # one full-batch step of train() from init_params must equal AdamW
        # applied to backward()'s gradients there
        cfg, _, projectors, h, y = random_small_instance(rng)
        params = init_params(cfg, dtype=np.float64)
        tcfg = TrainConfig(
            epochs=1, batch_size=len(y), microbatch_size=len(y),
            learning_rate=1e-3, weight_decay=5e-5, dtype="float64",
        )
        result = train(cfg, tcfg, h, y)
        grads = backward(h, y, params, projectors)
        expected = params.copy()
        AdamW(learning_rate=1e-3, weight_decay=5e-5).step(expected, grads)
        np.testing.assert_allclose(result.params.head, expected.head, rtol=1e-12)
        for a, b in zip(result.params.latents, expected.latents):
            np.testing.assert_allclose(a, b, rtol=1e-12)
