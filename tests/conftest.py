import itertools
import math

import numpy as np
import pytest

from decohd.baselines import build_prototype_table, onlinehd_refine, sparsify_table
from decohd.data import make_synthetic
from decohd.encoding import EncoderConfig, RandomProjectionEncoder, Standardizer, fit_standardizer
from decohd.model import (
    ChannelBank,
    Classifier,
    DecoHDClassifier,
    ModelConfig,
    ModelParams,
    init_params,
    path_basis,
)
from decohd.ops import HadamardProjector, generate_matrix, rng_from_seed
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


def random_small_instance(rng, dtype=np.float64, classes_below_paths: bool | None = None):
    """A random tiny model + batch for gradient and equivalence checks;
    the initial latents are scaled by 0.7.  *classes_below_paths* True
    or False forces fewer classes than paths, or at least as many: the
    shapes on which the class table is the smaller or the larger one."""
    while True:
        channels = tuple(int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 4))))
        latent_dim, dim = int(rng.integers(2, 17)), int(rng.integers(4, 65))
        num_paths = math.prod(channels)
        if classes_below_paths is None:
            num_classes = int(rng.integers(2, 5))
        elif classes_below_paths and num_paths > 2:
            num_classes = int(rng.integers(2, num_paths))
        elif not classes_below_paths:
            num_classes = int(rng.integers(max(2, num_paths), num_paths + 3))
        else:
            continue
        break
    cfg = ModelConfig(channels, latent_dim, dim, num_classes, seed=int(rng.integers(0, 2**31)))
    unit = init_params(cfg)
    params = ModelParams([(a * 0.7).astype(dtype) for a in unit.latents], unit.head.astype(dtype))
    projectors = projectors_of(cfg)
    batch = int(rng.integers(1, 9))
    h = rng.standard_normal((batch, cfg.dim)).astype(dtype)
    y = rng.integers(0, cfg.num_classes, batch)
    return cfg, params, projectors, h, y


def explicit_loss_and_grads(h_batch, labels, params: ModelParams, projectors):
    """Mean cross-entropy of the batch and its gradient, in float64 from
    explicit forms; nothing of :mod:`decohd.training` runs.

    Each layer's projector is densified to its matrix (``apply`` of the
    identity), the channels are ``latents @ matrix``, path m binds the
    channels that ``itertools.product`` picks, and the scores are
    :func:`reference_scores`, ``<P_c, h>`` with
    ``P_c = sum_m head[c, m] * basis_m``.  With the
    batch-averaged softmax residual ``g`` and ``G = g.T @ h``, the
    gradients are ``G @ basis.T`` for the head and, for channel l of
    layer i, the sum over the paths through it of ``(head.T @ G)_m``
    times the other layers' channels on the path; a latent's gradient is
    its channels' times the matrix transposed.
    """
    h = np.asarray(h_batch, dtype=np.float64)
    labels = np.asarray(labels)
    matrices = [p.apply(np.eye(p.rows)) for p in projectors]
    channels = [lat.astype(np.float64) @ m for lat, m in zip(params.latents, matrices)]
    paths = list(itertools.product(*(range(len(c)) for c in channels)))
    basis = np.array([np.prod([c[l] for c, l in zip(channels, path)], axis=0) for path in paths])
    head = params.head.astype(np.float64)
    scores = reference_scores(h, channels, head)
    shifted = scores - scores.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    rows = np.arange(len(labels))
    loss = float(-log_probs[rows, labels].mean())
    resid = np.exp(log_probs)
    resid[rows, labels] -= 1.0
    grad_prototypes = resid.T @ h / len(labels)
    d_basis = head.T @ grad_prototypes
    d_channels = [np.zeros_like(c) for c in channels]
    for m, path in enumerate(paths):
        for i, l in enumerate(path):
            others = [c[k] for j, (c, k) in enumerate(zip(channels, path)) if j != i]
            d_channels[i][l] += d_basis[m] * np.prod(others, axis=0)
    d_latents = [d @ m.T for d, m in zip(d_channels, matrices)]
    return loss, ModelParams(d_latents, grad_prototypes @ basis.T)


def backward(h_batch, labels, params: ModelParams, projectors) -> ModelParams:
    """Gradient of the mean cross-entropy over the batch
    (:func:`explicit_loss_and_grads`)."""
    return explicit_loss_and_grads(h_batch, labels, params, projectors)[1]


def batch_loss(h_batch, labels, params: ModelParams, projectors) -> float:
    """Mean cross-entropy of the batch (:func:`explicit_loss_and_grads`);
    the finite-difference oracle pairs this with :func:`backward`."""
    return explicit_loss_and_grads(h_batch, labels, params, projectors)[0]


def integer_bank_and_head(rng, channels=(2, 3), dim=6, num_classes=3):
    """Integer-valued fixtures: exact under float arithmetic."""
    bank = ChannelBank(
        [rng.integers(-3, 4, (l, dim)).astype(np.float64) for l in channels]
    )
    head = rng.integers(-3, 4, (num_classes, int(np.prod(channels)))).astype(np.float64)
    h = rng.integers(-3, 4, dim).astype(np.float64)
    return bank, head, h


def reference_scores(h, channels, head, squared=False):
    """Independent float64 oracle of a decomposed model's scores, for
    one hypervector or a batch of rows: every path of ``itertools.product``
    over the layers' channel rows binds its rows, the head bundles the
    paths into each class's prototype, and the prototype is dotted with
    *h*, or with ``h*h`` for a *squared* (fenced) bank.

    Called on absolute values, ``reference_scores(|h|, |channels|,
    |head|)`` is the per-class sum of the absolute path terms.  Rounding
    error of any evaluation order of a score is bounded by a small
    multiple of eps times it, not times the score, which may cancel to
    near zero.
    """
    h = np.asarray(h, dtype=np.float64)
    head = np.asarray(head, dtype=np.float64)
    prototypes = np.zeros((head.shape[0], h.shape[-1]))
    for m, rows in enumerate(itertools.product(*channels)):
        z = np.ones(h.shape[-1])
        for row in rows:
            z = z * np.asarray(row, dtype=np.float64)
        prototypes += head[:, m : m + 1] * z
    return (h * h if squared else h) @ prototypes.T


def fold_oracle(clf, features):
    """Float64 scores of the classifier *clf* on raw *features*, folded
    into one C x F map, and a bound on float32 rounding per row.

    The encoder is linear up to a positive per-row scale,
    ``h = zW / |zW|``, so a scorer linear in h predicts
    ``argmax(z @ (W @ S.T))``, with S its effective C x D table: the
    table of prototype and onlinehd, the table on the kept columns and
    zero elsewhere for sparsehd, and ``head @ path_basis(bank)`` for a
    trained decohd.  z is standardized here and W drawn again from the
    encoder's spec, both in float64; of the package only
    :func:`~decohd.model.path_basis` runs, on a float64 copy of the bank.

    Each term of a float32 score passes through fewer than
    ``n = F + D + M + L + 8`` roundings (the encoding sum, the divide,
    the table contraction, decohd's path sum and binding), so the score
    is off by at most ``gamma_n`` times the same sum over absolute
    factors, with decohd's table as ``|head| @ |basis|``, the path sum
    that :func:`~decohd.inference.score_batch` forms.  A row whose
    top-2 margin exceeds twice the largest such bound must predict the
    fold's class.
    """
    z = (np.asarray(features, dtype=np.float64) - clf.standardizer.mean) / clf.standardizer.std
    w = generate_matrix(clf.encoder.config.matrix_spec(), dtype=np.float32).astype(np.float64)
    s = clf.scorer
    depth = z.shape[1] + w.shape[1] + 8
    if clf.kind == "decohd":
        assert not s.bank.squared, "the fenced bank scores h*h, which does not fold"
        head = s.head.astype(np.float64)
        basis = path_basis(ChannelBank([c.astype(np.float64) for c in s.bank.channels]))
        table, terms = head @ basis, np.abs(head) @ np.abs(basis)
        depth += head.shape[1] + len(s.bank.channels)
    elif clf.kind == "sparsehd":
        table = np.zeros((s.num_classes, s.dim))
        table[:, s.mask] = s.prototypes
        terms = np.abs(table)
    else:
        table = s.prototypes.astype(np.float64)
        terms = np.abs(table)
    u = np.finfo(np.float32).eps / 2
    gamma = depth * u / (1 - depth * u)
    bound = gamma * (np.abs(z) @ (np.abs(w) @ terms.T)).max(axis=1)
    return z @ (w @ table.T), bound


def assert_scores_near_reference(scores, h, bank, head, rel):
    """*scores* within *rel* times the absolute term sum of
    :func:`reference_scores` for the bank's own form."""
    abs_channels = [np.abs(c) for c in bank.channels]
    scale = reference_scores(np.abs(h), abs_channels, np.abs(head), bank.squared)
    error = np.abs(np.asarray(scores, dtype=np.float64) - reference_scores(h, bank.channels, head, bank.squared))
    assert (error <= rel * scale).all()


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
        if fmt.specials != "ieee":
            q = np.clip(q, -fmt.max_finite, fmt.max_finite)
        else:
            # IEEE overflow rule: values at or beyond the midpoint
            # between max finite and the next power of two round to inf.
            threshold = 2.0**fmt.max_exponent * (2.0 - 2.0 ** (-fmt.mantissa_bits - 1))
            over = np.abs(xf) >= threshold
            q = np.clip(q, -fmt.max_finite, fmt.max_finite)
            q[over] = np.sign(xf[over]) * np.inf
        out[finite] = q

    if fmt.specials != "ieee":
        out[np.isposinf(x)] = fmt.max_finite
        out[np.isneginf(x)] = -fmt.max_finite
    if scalar:
        return float(out[0])
    return out
