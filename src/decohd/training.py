"""End-to-end optimization of the decomposed classifier.

The loss is mean cross-entropy over dot-product logits.  Its gradients are
analytic and flow through the bind -> bundle -> score pipeline back to
the latents and the bundling head; the frozen projectors and encoder are
never touched.  A gradient is a :class:`~decohd.model.ModelParams` whose
latents and head hold the derivatives of the loss with respect to them.

Writing ``u = h*h`` (:func:`decohd.inference.input_term`) and
``basis_m`` for the bound-path factor of path m, the logits are
``s_c = sum_m head[c,m] * <basis_m, u>``; ``u`` and the path terms
``t = u @ basis.T`` come from :func:`decohd.inference.path_terms`, the
forward that batched scoring runs too.  The softmax ``p`` and the loss
share one exponential (:func:`softmax_cross_entropy`).  With softmax
residual ``g_c = p_c - 1{c==y}`` (batch-averaged):

* d head[c,m]   = g_c * <basis_m, u>
* d basis_m     = (sum_c g_c head[c,m]) * u
* d channel[i,l] = sum over paths with m_i == l of
                   d basis_m * (product of the other layers' channels)
* d latent[i,l] = d channel[i,l] @ projector_i^T

Paths are row-major, so the channel gradient is a reshape-sum: the
products ``d basis * complement`` viewed as ``(L_0, ..., L_k, dim)`` are
summed over every layer axis but i.  Gradient accumulation happens at
the channel level, so the projector matmuls run once per optimizer step
rather than once per microbatch.  Channels are materialized once per
parameter state: the end-of-epoch evaluation scores the bank that the
next epoch's first batch trains on.  The test suite checks these
gradients against central differences of the loss.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .inference import DecomposedScorer, path_terms
from .model import (
    ChannelBank,
    ModelConfig,
    ModelParams,
    accuracy,
    init_params,
    layer_views,
    materialize_channels,
    materialize_projectors,
)
from .ops import derive_seed, rng_from_seed


class TrainingError(RuntimeError):
    """Non-finite intermediate encountered during training."""


class TrainingDiverged(TrainingError):
    """Loss went non-finite; carries the last finite checkpoint."""

    def __init__(self, message: str, last_good: ModelParams | None, history: list):
        super().__init__(message)
        self.last_good = last_good
        self.history = history


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    weight_decay: float = 5e-5
    epochs: int = 1000
    batch_size: int = 1024
    microbatch_size: int = 128
    dtype: str = "float32"
    eval_every: int = 1

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1 or self.microbatch_size < 1:
            raise ValueError("batch sizes must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        try:
            floating = np.issubdtype(np.dtype(self.dtype), np.floating)
        except TypeError:
            floating = False
        if not floating:
            raise ValueError(f"dtype must name a floating type, got {self.dtype!r}")


def softmax_cross_entropy(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, float]:
    """Softmax probabilities of a batch of logits and their mean
    cross-entropy, both in float64 from one shifted exponential."""
    scores = np.asarray(scores, dtype=np.float64)
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    loss = float(np.mean(np.log(total[:, 0]) - shifted[np.arange(len(labels)), labels]))
    return e / total, loss


def _microbatch_stats(h: np.ndarray, labels: np.ndarray, basis: np.ndarray, head: np.ndarray):
    """Forward + residuals for one microbatch.

    Returns (loss, num_correct, d_head_sum, d_basis_sum) where the grad
    terms are sums over samples (caller divides by the batch size).
    """
    u, t = path_terms(h, basis)  # t: (b, num_paths)
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging step; checked below
        scores = t @ head.T  # (b, num_classes)
    if not np.isfinite(scores).all():
        raise TrainingError(
            f"non-finite logits in microbatch (|h|max={np.abs(h).max():.3g}, "
            f"|head|max={np.abs(head).max():.3g})"
        )
    probs, loss = softmax_cross_entropy(scores, labels)
    loss_sum = loss * len(labels)
    correct = int((np.argmax(scores, axis=1) == labels).sum())
    resid = probs
    resid[np.arange(len(labels)), labels] -= 1.0
    resid = resid.astype(h.dtype, copy=False)
    d_head_sum = resid.T @ t
    d_basis_sum = (resid @ head).T @ u
    return loss_sum, correct, d_head_sum, d_basis_sum


def _channel_grads_from_basis(d_basis: np.ndarray, bank: ChannelBank) -> list[np.ndarray]:
    """Per-layer channel gradients from the (num_paths, dim) path-basis
    gradient.

    Layer i's complement is the product of the lower layers' channels in
    ascending order times the product of the higher layers' channels from
    the last layer down, built from broadcast :func:`layer_views`.  Each
    channel sums ``d_basis * complement`` over the paths through it in
    ascending path order, as a sequential scatter-add would.
    """
    views = layer_views(bank.channels)
    n = len(views)
    d_basis = d_basis.reshape(bank.channels_per_layer + (bank.dim,))
    prefix = [None] * n  # prefix[i]: product of views[:i]
    for i in range(1, n):
        prefix[i] = views[0] if i == 1 else prefix[i - 1] * views[i - 1]
    suffix = [None] * n  # suffix[i]: product of views[i+1:], last layer first
    for i in range(n - 2, -1, -1):
        suffix[i] = views[-1] if i == n - 2 else suffix[i + 1] * views[i + 1]
    d_channels = []
    for i, num in enumerate(bank.channels_per_layer):
        parts = [p for p in (prefix[i], suffix[i]) if p is not None]
        term = d_basis
        if parts:
            term = d_basis * (parts[0] if len(parts) == 1 else parts[0] * parts[1])
        d_channels.append(np.moveaxis(term, i, 0).reshape(num, -1, bank.dim).sum(axis=1))
    return d_channels


def _gradients(
    d_head: np.ndarray, d_basis: np.ndarray, bank: ChannelBank, projectors: list[np.ndarray]
) -> ModelParams:
    """Latent and head gradients from the head and path-basis gradients.

    ``d latent_i = d channel_i @ projector_i^T`` is computed as
    ``(projector_i @ d channel_i^T)^T``: with only L_i output rows, the
    product against a transposed projector takes a slow BLAS path.
    """
    d_channels = _channel_grads_from_basis(d_basis, bank)
    d_latents = [(proj @ d_ch.T).T for d_ch, proj in zip(d_channels, projectors)]
    return ModelParams(latents=d_latents, head=d_head)


class AdamW:
    """Decoupled weight-decay Adam over a ModelParams pytree.

    Update: p -= lr * (m_hat / (sqrt(v_hat) + eps) + wd * p), with
    bias-corrected moments.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, learning_rate: float = 1e-3, weight_decay: float = 0.0):
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.t = 0
        self._m: list[np.ndarray] | None = None
        self._v: list[np.ndarray] | None = None

    def step(self, params: ModelParams, grads: ModelParams) -> None:
        """One in-place update of latents and head by their gradients."""
        arrays = params.arrays()
        if self._m is None:
            self._m = [np.zeros_like(a) for a in arrays]
            self._v = [np.zeros_like(a) for a in arrays]
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for k, (p, g) in enumerate(zip(arrays, grads.arrays())):
            m = self._m[k]
            v = self._v[k]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay > 0.0:
                update = update + self.weight_decay * p
            p -= self.learning_rate * update


@dataclass
class EpochStats:
    """One epoch of a run; its fields, in order, are a history CSV's columns."""

    epoch: int
    mean_loss: float
    train_accuracy: float
    test_accuracy: float
    wall_seconds: float


@dataclass
class TrainResult:
    params: ModelParams
    history: list[EpochStats] = field(default_factory=list)
    # Channels of the final params when the last epoch evaluated them, else None.
    bank: ChannelBank | None = None


def train(
    config: ModelConfig,
    train_config: TrainConfig,
    h_train: np.ndarray,
    y_train: np.ndarray,
    h_test: np.ndarray | None = None,
    y_test: np.ndarray | None = None,
) -> TrainResult:
    """Run the full optimization loop over pre-encoded hypervectors.

    Training starts from :func:`~decohd.model.init_params` of *config*.
    Each epoch shuffles the data, walks it in batches, and accumulates
    gradients over microbatches before a single optimizer step; the
    accumulated gradient is the exact batch mean regardless of the
    microbatch split.  ``train_accuracy`` in the history is the running
    accuracy of the pre-update forward passes.  A non-finite epoch loss
    aborts with the last finite checkpoint attached to the exception.
    Channels are materialized only when the parameters changed since the
    last bank, and the final bank, if any, is returned with the result.
    """
    dtype = np.dtype(train_config.dtype)
    h_train = np.asarray(h_train)
    y_train = np.asarray(y_train, dtype=np.int64)
    n = h_train.shape[0]
    if n == 0:
        raise ValueError("empty training set")

    params = init_params(config, dtype=dtype)
    projectors = materialize_projectors(config, dtype=dtype)
    optimizer = AdamW(learning_rate=train_config.learning_rate, weight_decay=train_config.weight_decay)
    history: list[EpochStats] = []
    last_good = params.copy()
    bank = None  # channels of the current params; None once a step changes them
    start = time.perf_counter()

    for epoch in range(train_config.epochs):
        order = rng_from_seed(derive_seed(config.seed, "shuffle", epoch)).permutation(n)
        loss_sum = 0.0
        correct = 0
        try:
            for b_start in range(0, n, train_config.batch_size):
                b_idx = order[b_start : b_start + train_config.batch_size]
                b_n = len(b_idx)
                if bank is None:
                    bank = materialize_channels(params, projectors)
                basis = bank.basis
                d_head = np.zeros_like(params.head)
                d_basis = np.zeros_like(basis)
                for m_start in range(0, b_n, train_config.microbatch_size):
                    mb = b_idx[m_start : m_start + train_config.microbatch_size]
                    h = h_train[mb].astype(dtype, copy=False)
                    l_sum, c, dh_sum, db_sum = _microbatch_stats(h, y_train[mb], basis, params.head)
                    loss_sum += l_sum
                    correct += c
                    d_head += dh_sum / b_n
                    d_basis += db_sum / b_n
                optimizer.step(params, _gradients(d_head, d_basis, bank, projectors))
                bank = None
        except TrainingError as exc:
            raise TrainingDiverged(
                f"training diverged at epoch {epoch}: {exc}", last_good, history
            ) from exc

        mean_loss = loss_sum / n
        if not np.isfinite(mean_loss):
            raise TrainingDiverged(
                f"loss became non-finite at epoch {epoch}", last_good, history
            )
        test_acc = float("nan")
        if h_test is not None and y_test is not None and (epoch + 1) % train_config.eval_every == 0:
            bank = materialize_channels(params, projectors)
            test_acc = evaluate(bank, params.head, np.asarray(h_test).astype(dtype, copy=False), y_test)
        history.append(
            EpochStats(
                epoch=epoch,
                mean_loss=mean_loss,
                train_accuracy=correct / n,
                test_accuracy=test_acc,
                wall_seconds=time.perf_counter() - start,
            )
        )
        last_good = params.copy()

    return TrainResult(params=params, history=history, bank=bank)


def evaluate(bank: ChannelBank, head: np.ndarray, h: np.ndarray, labels: np.ndarray) -> float:
    """Classification accuracy of the model (*bank*, *head*) on
    pre-encoded data."""
    return accuracy(DecomposedScorer(bank=bank, head=head), h, labels)
