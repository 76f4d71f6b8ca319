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
* d latent_i    = d channel_i @ P_i^T, the projector's ``apply_T``

Paths are row-major, so the channel gradient is a reshape-sum: the
products ``d basis * complement`` viewed as ``(L_0, ..., L_k, dim)`` are
summed over every layer axis but i.  Gradient accumulation happens at
the channel level, so each projector is applied twice per optimizer
step, not per microbatch.  Each microbatch's rows are gathered into one
buffer of ``microbatch_size`` rows that the run reuses, and squared
there in place into ``u``, so a step's working memory does not grow with
the batch or the training set.

The projectors are matrix-free (:class:`~decohd.ops.HadamardProjector`),
so training holds no ``latent_dim x dim`` array.  A step makes one
``apply_T`` call and one whole-array AdamW update per latent, one update
of the head, and builds the next bank with
:func:`~decohd.model.materialize_channels`.  So there is one bank per
parameter state: one more is built from the initial parameters, each
end-of-epoch evaluation scores the bank that the next epoch's first
batch trains on, and the returned parameters come with their bank,
after zero epochs too.  The test suite checks these gradients against
central differences of the loss.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .inference import path_terms, score_batch
from .model import (
    ChannelBank,
    ModelConfig,
    ModelParams,
    init_params,
    layer_views,
    materialize_channels,
    pick_class,
)
from .ops import HadamardProjector, derive_seed, rng_from_seed


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
    eval_every: int = 1

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1 or self.microbatch_size < 1:
            raise ValueError("batch sizes must be >= 1")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")


def softmax_cross_entropy(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, float]:
    """Softmax probabilities of a batch of logits and their mean
    cross-entropy, both in float64 from one shifted exponential."""
    scores = np.asarray(scores, dtype=np.float64)
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    loss = float(np.mean(np.log(total[:, 0]) - shifted[np.arange(len(labels)), labels]))
    return e / total, loss


def _microbatch_stats(
    h: np.ndarray, labels: np.ndarray, basis: np.ndarray, head: np.ndarray, out: np.ndarray | None = None
):
    """Forward + residuals for one microbatch; *out*, if given, receives
    the input term ``u`` (*h* itself, to square it in place).

    Returns (loss, num_correct, d_head_sum, d_basis_sum) where the grad
    terms are sums over samples (caller divides by the batch size).
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging step; checked below
        u, t = path_terms(h, basis, out=out)  # t: (b, num_paths)
        scores = t @ head.T  # (b, num_classes)
    if not np.isfinite(scores).all():
        raise TrainingError(
            f"non-finite logits in microbatch (|h*h|max={np.abs(u).max():.3g}, "
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
    d_basis = d_basis.reshape(bank.channels_per_layer + (bank.dim,))
    d_channels = []
    for i, num in enumerate(bank.channels_per_layer):
        parts = [functools.reduce(np.multiply, p) for p in (views[:i], views[:i:-1]) if p]
        term = d_basis * functools.reduce(np.multiply, parts) if parts else d_basis
        d_channels.append(np.moveaxis(term, i, 0).reshape(num, -1, bank.dim).sum(axis=1))
    return d_channels


class AdamW:
    """Decoupled weight-decay Adam over the arrays of a ModelParams.

    Update: p -= lr * (m_hat / (sqrt(v_hat) + eps) + wd * p), with
    bias-corrected moments.  A step is one :meth:`step`, then one
    :meth:`update` of every array, in any order.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, arrays: list[np.ndarray], learning_rate: float = 1e-3, weight_decay: float = 0.0):
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.t = 0
        self._arrays = arrays
        self._m = [np.zeros_like(a) for a in arrays]
        self._v = [np.zeros_like(a) for a in arrays]

    def step(self) -> None:
        """Start a step: advance ``t`` and its bias corrections."""
        self.t += 1
        self._bc1 = 1.0 - self.beta1**self.t
        self._bc2 = 1.0 - self.beta2**self.t

    def update(self, k: int, grad: np.ndarray) -> None:
        """In-place update of the k-th array by its gradient *grad*."""
        p, m, v = self._arrays[k], self._m[k], self._v[k]
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * (grad * grad)
        update = (m / self._bc1) / (np.sqrt(v / self._bc2) + self.eps)
        if self.weight_decay > 0.0:
            update = update + self.weight_decay * p
        p -= self.learning_rate * update


def _train_batch(h_train, y_train, b_idx, h_mb, params: ModelParams, bank: ChannelBank,
                 projectors: list[HadamardProjector], optimizer: AdamW, loss_sum: float):
    """One optimizer step on the batch *b_idx*, whose microbatches are
    gathered into *h_mb*.  Returns *loss_sum* plus each microbatch's loss
    sum in turn, the number of correct pre-update predictions and the bank
    of the updated parameters; the gradients and the old basis die with
    the call.
    """
    b_n = len(b_idx)
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged step; the forward checks it
        basis = bank.basis
    correct = 0
    d_head = np.zeros_like(params.head)
    d_basis = np.zeros_like(basis)
    for m_start in range(0, b_n, len(h_mb)):
        mb = b_idx[m_start : m_start + len(h_mb)]
        h = np.take(h_train, mb, axis=0, out=h_mb[: len(mb)], mode="clip")
        l_sum, c, dh_sum, db_sum = _microbatch_stats(h, y_train[mb], basis, params.head, out=h)
        loss_sum += l_sum
        correct += c
        dh_sum /= b_n
        d_head += dh_sum
        db_sum /= b_n
        d_basis += db_sum
    optimizer.step()
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging step; checked after it
        d_channels = _channel_grads_from_basis(d_basis, bank)
        for k, (projector, d_channel) in enumerate(zip(projectors, d_channels)):
            optimizer.update(k, projector.apply_T(d_channel))
        optimizer.update(len(params.latents), d_head)
        bank = materialize_channels(params, projectors)
    return loss_sum, correct, bank


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
    bank: ChannelBank  # the channels of params
    history: list[EpochStats]


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
    accuracy of the pre-update forward passes.  An epoch that ends with
    a non-finite loss, path basis or score (of the evaluation, else of
    one microbatch) aborts with the last finite checkpoint attached to
    the exception.  Channels are materialized once, from the initial
    parameters; each step returns the bank of its updated parameters, and
    the returned parameters always come with their bank, after zero
    epochs too, so no caller expands the latents again.  Training runs
    in the floating dtype of *h_train*: the encoder's float32, or float64
    as a precision reference.  *h_train* is only read: each microbatch is
    gathered into, and squared in, one buffer that the run reuses.
    """
    h_train = np.asarray(h_train)
    dtype = h_train.dtype
    if not np.issubdtype(dtype, np.floating):
        raise ValueError(f"training encodings must be floating, got {dtype}")
    y_train = np.asarray(y_train, dtype=np.int64)
    n = h_train.shape[0]
    if n == 0:
        raise ValueError("empty training set")
    if h_test is not None and len(h_test) == 0:
        raise ValueError("empty test set")

    params = init_params(config, dtype=dtype)
    projectors = [HadamardProjector(spec) for spec in config.projector_specs()]
    optimizer = AdamW(params.arrays(), train_config.learning_rate, train_config.weight_decay)
    history: list[EpochStats] = []
    last_good = params.copy()
    # Each microbatch's rows are gathered into this one buffer and squared
    # there in place; mode="clip" lets np.take write into it unbuffered.
    h_mb = np.empty((min(train_config.microbatch_size, n), h_train.shape[1]), dtype=dtype)
    start = time.perf_counter()
    # The channels of the current params: each step returns its successor.
    bank = materialize_channels(params, projectors)

    for epoch in range(train_config.epochs):
        order = rng_from_seed(derive_seed(config.seed, "shuffle", epoch)).permutation(n)
        loss_sum = 0.0
        correct = 0
        try:
            for b_start in range(0, n, train_config.batch_size):
                b_idx = order[b_start : b_start + train_config.batch_size]
                loss_sum, c, bank = _train_batch(
                    h_train, y_train, b_idx, h_mb, params, bank, projectors, optimizer, loss_sum
                )
                correct += c
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
        with np.errstate(over="ignore", invalid="ignore"):  # the last step may have diverged
            if not np.isfinite(bank.basis).all():
                raise TrainingDiverged(
                    f"path basis became non-finite at epoch {epoch}", last_good, history
                )
            # A step may diverge in the head alone, so one forward's scores
            # must be finite too: the evaluation's when it runs, else those
            # of the first microbatch of training rows.
            if h_test is not None and y_test is not None and (epoch + 1) % train_config.eval_every == 0:
                test_acc = evaluate(bank, params.head, np.asarray(h_test).astype(dtype, copy=False), y_test)
                finite = not math.isnan(test_acc)
            else:
                np.copyto(h_mb, h_train[: len(h_mb)])
                finite = np.isfinite(path_terms(h_mb, bank.basis, out=h_mb)[1] @ params.head.T).all()
            if not finite:
                raise TrainingDiverged(f"scores became non-finite at epoch {epoch}", last_good, history)
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

    return TrainResult(params=params, bank=bank, history=history)


def evaluate(bank: ChannelBank, head: np.ndarray, h: np.ndarray, labels: np.ndarray) -> float:
    """Classification accuracy of the model (*bank*, *head*) on
    pre-encoded data, or NaN if a score is not finite, as a diverged
    model's are."""
    scores = score_batch(h, bank, head)
    if not np.isfinite(scores).all():
        return math.nan
    return float((pick_class(scores) == np.asarray(labels)).mean())
