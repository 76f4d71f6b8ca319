import math

import numpy as np
import pytest

from decohd import training
from decohd.baselines import build_prototype_table, onlinehd_refine, sparsify_table
from decohd.data import make_synthetic
from decohd.encoding import EncoderConfig, RandomProjectionEncoder, Standardizer, fit_standardizer
from decohd.model import (
    Classifier,
    DecoHDClassifier,
    ModelConfig,
    ModelParams,
    init_params,
    materialize_channels,
    path_basis,
)
from decohd.ops import HadamardProjector, rng_from_seed
from decohd.precision import get_format


# Every dense frozen random matrix is Gaussian (decohd.ops.row_blocks):
# the encoder's, and the projectors of a model built from latents.  The
# tests that draw one name the kind in their ids.
GAUSSIAN_DTYPES = [pytest.param(np.float32, id="gaussian-float32"), pytest.param(np.float64, id="gaussian-float64")]


# Layer shapes on which the broadcast path basis and the reshape-sum
# channel gradients are checked bit for bit against gather/scatter forms.
LAYER_SHAPES = [(3, 3), (4, 4, 4), (5, 5, 5), (2, 3, 4), (7,), (2, 2, 2, 2)]


def layer_index_arrays(channels_per_layer) -> list[np.ndarray]:
    """Path-order oracle: for each layer, the channel chosen by every
    flat path index, row-major with the last layer fastest."""
    grids = np.unravel_index(np.arange(math.prod(channels_per_layer)), channels_per_layer)
    return [np.asarray(g) for g in grids]


@pytest.fixture
def rng():
    return rng_from_seed(20240917)


def assert_same_bits(actual, expected):
    """Equal dtype, shape and bytes: -0.0 differs from 0.0, NaN payloads count."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert np.ascontiguousarray(actual).tobytes() == np.ascontiguousarray(expected).tobytes()


def identity_standardizer(num_features: int) -> Standardizer:
    """Pass-through standardizer (mean 0, std 1)."""
    return Standardizer(np.zeros(num_features), np.ones(num_features))


def projectors_of(cfg: ModelConfig) -> list[HadamardProjector]:
    """The matrix-free projectors that training builds for *cfg*."""
    return [HadamardProjector(spec) for spec in cfg.projector_specs()]


def random_small_instance(rng, dtype=np.float64):
    """A random tiny model + batch for gradient and equivalence checks;
    the initial latents are scaled by 0.7."""
    num_layers = int(rng.integers(1, 4))
    channels = tuple(int(rng.integers(1, 4)) for _ in range(num_layers))
    cfg = ModelConfig(
        channels_per_layer=channels,
        latent_dim=int(rng.integers(2, 17)),
        dim=int(rng.integers(4, 65)),
        num_classes=int(rng.integers(2, 5)),
        seed=int(rng.integers(0, 2**31)),
    )
    unit = init_params(cfg)
    params = ModelParams([(a * 0.7).astype(dtype) for a in unit.latents], unit.head.astype(dtype))
    projectors = projectors_of(cfg)
    batch = int(rng.integers(1, 9))
    h = rng.standard_normal((batch, cfg.dim)).astype(dtype)
    y = rng.integers(0, cfg.num_classes, batch)
    return cfg, params, projectors, h, y


def backward(h_batch, labels, params: ModelParams, projectors) -> ModelParams:
    """Analytic gradient of the mean cross-entropy over the batch, from
    the forward, channel-gradient and ``d latent = apply_T(d channel)``
    steps that :func:`decohd.training.train` runs on one microbatch."""
    labels = np.asarray(labels)
    bank = materialize_channels(params, projectors)
    _, _, d_head_sum, d_basis_sum = training._microbatch_stats(
        np.asarray(h_batch), labels, bank.basis, params.head
    )
    b = len(labels)
    d_channels = training._channel_grads_from_basis(d_basis_sum / b, bank)
    return ModelParams([p.apply_T(d_ch) for d_ch, p in zip(d_channels, projectors)], d_head_sum / b)


def adamw_step(optimizer, grads: ModelParams) -> None:
    """One whole-array AdamW step: :meth:`step`, then every array's update."""
    optimizer.step()
    for k, g in enumerate(grads.arrays()):
        optimizer.update(k, g)


def batch_loss(h_batch, labels, params: ModelParams, projectors) -> float:
    """Mean cross-entropy of the batch; the finite-difference oracle
    pairs this with :func:`backward`."""
    labels = np.asarray(labels)
    bank = materialize_channels(params, projectors)
    loss_sum, _, _, _ = training._microbatch_stats(np.asarray(h_batch), labels, bank.basis, params.head)
    return loss_sum / len(labels)


def integer_bank_and_head(rng, channels=(2, 3), dim=6, num_classes=3):
    """Integer-valued fixtures: exact under float arithmetic."""
    from decohd.model import ChannelBank

    bank = ChannelBank(
        [rng.integers(-3, 4, (l, dim)).astype(np.float64) for l in channels]
    )
    head = rng.integers(-3, 4, (num_classes, int(np.prod(channels)))).astype(np.float64)
    h = rng.integers(-3, 4, dim).astype(np.float64)
    return bank, head, h


def brute_force_logits(h, bank, head):
    """Independent oracle: explicit loops over paths, channels, classes."""
    channels = bank.channels_per_layer
    num_paths = int(np.prod(channels))
    num_classes = head.shape[0]
    scores = np.zeros(num_classes)
    for c in range(num_classes):
        bundle = np.zeros(bank.dim)
        for m in range(num_paths):
            multi = np.unravel_index(m, channels)
            z = np.array(h, dtype=np.float64)
            for i, mi in enumerate(multi):
                z = z * bank.channels[i][mi]
            bundle = bundle + head[c, m] * z
        scores[c] = float(np.dot(bundle, h))
    return scores


def product_scores(h, bank, head):
    """Scores as two whole products in the operands' dtype,
    ``((h * h) @ path_basis(bank).T) @ head.T``: the form that
    :func:`decohd.inference.score_batch` must equal bit for bit."""
    return ((h * h) @ path_basis(bank).T) @ head.T


def score_term_scale(bank, head, h):
    """Per-class sum of the absolute path terms of a score, in float64.

    ``|head| @ (|path_basis| @ h*h)``.  Rounding error of any evaluation
    order of a score is bounded by a small multiple of eps times this
    scale, not times the score, which may cancel to near zero.
    """
    h = np.asarray(h, dtype=np.float64)
    basis = np.abs(path_basis(bank).astype(np.float64))
    return np.abs(head.astype(np.float64)) @ (basis @ (h * h))


def small_classifier(kind: str, rng):
    """A tiny classifier of *kind* (F=6, D=64, C=3) and test features for
    it.  decohd gets a random float32 head so its classes differ."""
    train_ds, test_ds = make_synthetic(3, 6, 20, 3.0, seed=11)
    standardizer = fit_standardizer(train_ds.features)
    encoder = RandomProjectionEncoder(EncoderConfig(num_features=6, dim=64, seed=4))
    if kind == "decohd":
        config = ModelConfig(channels_per_layer=(2, 3), latent_dim=8, dim=64, num_classes=3, seed=5)
        params = init_params(config, dtype=np.float32)
        params.head = rng.standard_normal(params.head.shape).astype(np.float32)
        clf = DecoHDClassifier(encoder=encoder, standardizer=standardizer, config=config, params=params)
        return clf, test_ds.features
    h = encoder.encode_batch(train_ds.features, standardizer)
    table = build_prototype_table(h, train_ds.labels, 3)
    if kind == "prototype":
        return Classifier(encoder, standardizer, table, "prototype"), test_ds.features
    refined = onlinehd_refine(table, h, train_ds.labels, epochs=2, seed=1)
    if kind == "onlinehd":
        return Classifier(encoder, standardizer, refined, "onlinehd"), test_ds.features
    return Classifier(encoder, standardizer, sparsify_table(table, 0.5), "sparsehd"), test_ds.features


def deployed_forms(rng, channels=(2, 3), dim=48, num_classes=4):
    """One float32 scorer of each deployed form, by kind: the decomposed
    bank plus head, a dense prototype table and its half-sparsified
    version."""
    from decohd.baselines import PrototypeTable
    from decohd.inference import DecomposedScorer
    from decohd.model import ChannelBank

    bank = ChannelBank([rng.standard_normal((l, dim)).astype(np.float32) for l in channels])
    head = rng.standard_normal((num_classes, int(np.prod(channels)))).astype(np.float32)
    table = PrototypeTable(rng.standard_normal((num_classes, dim)).astype(np.float32))
    return {
        "decohd": DecomposedScorer(bank=bank, head=head),
        "prototype": table,
        "sparsehd": sparsify_table(table, 0.5),
    }


def add_at_prototype_sums(h, labels, num_classes):
    """Class sums by ``np.add.at`` over a float64 copy of *h*, stored in
    *h*'s dtype: the reference :func:`decohd.baselines.build_prototype_table`
    must equal bit for bit."""
    h = np.asarray(h)
    table = np.zeros((num_classes, h.shape[1]), dtype=np.float64)
    np.add.at(table, np.asarray(labels), h.astype(np.float64))
    return table.astype(h.dtype)


def quantize_oracle(values, fmt):
    """Rounding onto *fmt*'s grid in float64 through frexp/ldexp: the
    reference :func:`decohd.precision.quantize_array` must equal bit for
    bit, once cast back to float32.

    Each finite value's step is ``2**(max(exponent, emin) - m)``;
    scaling by it is exact, and ``np.round`` breaks ties to even.
    """
    fmt = get_format(fmt)
    x = np.asarray(values, dtype=np.float64)
    scalar = x.ndim == 0
    x = np.atleast_1d(x).copy()
    out = x.copy()

    finite = np.isfinite(x)
    xf = x[finite]
    if xf.size:
        with np.errstate(invalid="ignore", over="ignore"):
            _, exp = np.frexp(np.abs(xf))
            e = np.maximum(exp - 1, fmt.min_normal_exponent)
            step_exp = e - fmt.mantissa_bits
            q = np.ldexp(np.round(np.ldexp(xf, -step_exp)), step_exp)
        if fmt.finite_only:
            q = np.clip(q, -fmt.max_finite, fmt.max_finite)
        else:
            # IEEE overflow rule: values at or beyond the midpoint
            # between max finite and the next power of two round to inf.
            threshold = 2.0**fmt.max_exponent * (2.0 - 2.0 ** (-fmt.mantissa_bits - 1))
            over = np.abs(xf) >= threshold
            q = np.clip(q, -fmt.max_finite, fmt.max_finite)
            q[over] = np.sign(xf[over]) * np.inf
        out[finite] = q

    if fmt.finite_only:
        out[np.isposinf(x)] = fmt.max_finite
        out[np.isneginf(x)] = -fmt.max_finite
    if scalar:
        return float(out[0])
    return out
