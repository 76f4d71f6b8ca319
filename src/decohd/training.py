"""End-to-end optimization of the decomposed classifier.

The loss is mean cross-entropy over dot-product logits.  Its gradients are
analytic and flow through the bind -> bundle -> score pipeline back to
the latents and the bundling head; the frozen projectors and encoder are
never touched.  A gradient is a :class:`~decohd.model.ModelParams` whose
latents and head hold the derivatives of the loss with respect to them.

Writing ``basis_m`` for the bound-path factor of path m, class c's
logit is ``s_c = <P_c, h>`` against its composed prototype
``P_c = sum_m head[c,m] * basis_m``.  The softmax ``p`` and the loss
share one exponential (:func:`softmax_cross_entropy`).  With softmax
residual ``g_c = p_c - 1{c==y}`` (batch-averaged) and ``G = g.T @ h``
(C x dim), the gradient of the prototypes:

* d head        = G @ basis.T
* d basis       = head.T @ G
* d channel[i,l] = sum over paths with m_i == l of
                   d basis_m * (product of the other layers' channels),
                   :func:`~decohd.model.channel_grads`
* d latent_i    = d channel_i @ P_i^T, the projector's ``apply_T``

A step forms the prototypes ``P = head @ basis`` once, scores each
microbatch ``h @ P.T``, sums ``G`` over the microbatches and forms
d head and d basis from it once per step: 2*C*dim multiply-accumulates
per row.  Scoring against the basis instead costs 2*M*dim per row, less
when there are at least as many classes as paths; no benchmark workload
has such a shape yet, so the step keeps one form (ROADMAP, benchmark
revision).  P lives for one step, and each epoch's end composes it once
more and scores it with the step's own forward (:func:`evaluate`): so
training scores one way, and a non-finite basis needs no check of its
own, as it leaves every score non-finite.  Trained banks score ``h``
itself: only the fenced bank of
:func:`~decohd.model.stream_channels` scores ``h*h``, until ROADMAP
Direction 7 removes it.

Gradient accumulation happens before the channels, so each projector
is applied twice per optimizer step, not per microbatch.  Each
microbatch's rows are gathered into one buffer of ``microbatch_size``
rows that the run reuses, so a step's working memory does not grow
with the batch or the training set.

The projectors are matrix-free (:class:`~decohd.ops.HadamardProjector`),
so training holds no ``latent_dim x dim`` array.  A step makes one
``apply_T`` call per layer, one :meth:`AdamW.step` over the latent and
head gradients, and builds the next bank with
:func:`~decohd.model.materialize_channels`.  So there is one bank per
parameter state: one more is built from the initial parameters, each
epoch's end scores the bank that the next epoch's first batch trains
on, and the result holds the deployed scorer of the last bank, after
zero epochs too.  The test suite checks these gradients
against an explicit float64 backward and central differences of the loss.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .data import check_labels
from .inference import DecomposedScorer
from .model import (
    ChannelBank,
    ModelConfig,
    ModelParams,
    channel_grads,
    init_params,
    materialize_channels,
    pick_class,
)
from .ops import HadamardProjector, derive_seed, rng_from_seed


class TrainingDiverged(RuntimeError):
    """The one divergence error, raised at one site as "<reason> at epoch
    N"; carries the last finite checkpoint and the finished epochs' history."""

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


def _forward(h: np.ndarray, prototypes: np.ndarray) -> np.ndarray:
    """Logits ``h @ P.T`` of the rows *h* against the class prototypes
    *P*.  A diverging step may overflow; the caller checks the logits."""
    with np.errstate(over="ignore", invalid="ignore"):
        return h @ prototypes.T


class AdamW:
    """Decoupled weight-decay Adam over the arrays of a ModelParams.

    Update: p -= lr * (m_hat / (sqrt(v_hat) + eps) + wd * p), with
    bias-corrected moments.  *learning_rate* and *weight_decay* have no
    defaults here: :class:`TrainConfig` holds them.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, arrays: list[np.ndarray], learning_rate: float, weight_decay: float):
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.t = 0
        self._arrays = arrays
        self._m = [np.zeros_like(a) for a in arrays]
        self._v = [np.zeros_like(a) for a in arrays]

    def step(self, grads: list[np.ndarray]) -> None:
        """Advance ``t`` and update every array in place by its gradient
        in *grads*, in the order of the arrays."""
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for p, m, v, grad in zip(self._arrays, self._m, self._v, grads, strict=True):
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * (grad * grad)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay > 0.0:
                update = update + self.weight_decay * p
            p -= self.learning_rate * update


def _train_batch(h_train, y_train, b_idx, h_mb, params: ModelParams, bank: ChannelBank,
                 projectors: list[HadamardProjector], optimizer: AdamW, loss_sum: float):
    """One optimizer step on the batch *b_idx*, whose microbatches are
    gathered into *h_mb* and scored against the prototypes
    ``head @ basis``.  Returns *loss_sum* plus each microbatch's loss
    sum in turn, the number of correct pre-update predictions and the bank
    of the updated parameters; the gradients, the prototypes and the old
    basis die with the call.
    """
    b_n = len(b_idx)
    head = params.head
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged step; the forward checks it
        basis = bank.basis
        prototypes = head @ basis
    correct = 0
    G = np.zeros_like(prototypes)
    for m_start in range(0, b_n, len(h_mb)):
        mb = b_idx[m_start : m_start + len(h_mb)]
        h = np.take(h_train, mb, axis=0, out=h_mb[: len(mb)], mode="clip")
        labels = y_train[mb]
        scores = _forward(h, prototypes)
        if not np.isfinite(scores).all():
            raise FloatingPointError(
                f"non-finite logits in microbatch (|h|max={np.abs(h).max():.3g}, "
                f"|head|max={np.abs(head).max():.3g})"
            )
        probs, loss = softmax_cross_entropy(scores, labels)
        loss_sum += loss * len(mb)
        correct += int((np.argmax(scores, axis=1) == labels).sum())
        probs[np.arange(len(mb)), labels] -= 1.0
        G += (probs / b_n).astype(h.dtype, copy=False).T @ h
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging step; checked after it
        d_latents = [proj.apply_T(d) for proj, d in zip(projectors, channel_grads(bank, head.T @ G))]
        optimizer.step([*d_latents, G @ basis.T])
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
    scorer: DecomposedScorer  # the deployed form of params
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
    accuracy of the pre-update forward passes.  A non-finite logit in a
    microbatch, or an epoch that ends with a non-finite score of
    ``head @ basis`` (of the evaluation, else of one microbatch), aborts
    with the last finite checkpoint attached to the exception; the loss
    of finite logits is finite.  Channels are materialized once, from
    the initial parameters; each step returns the bank of its updated
    parameters, and the result deploys the last one, after zero epochs
    too, as a scorer whose bank keeps no basis.  Training runs in the
    floating dtype of *h_train*: the encoder's float32, or float64 as a
    precision reference.  *h_train* is only read: each microbatch is
    gathered into one buffer that the run reuses.
    """
    h_train = np.asarray(h_train)
    dtype = h_train.dtype
    if not np.issubdtype(dtype, np.floating):
        raise ValueError(f"training encodings must be floating, got {dtype}")
    n = h_train.shape[0]
    if n == 0:
        raise ValueError("empty training set")
    if h_test is not None and len(h_test) == 0:
        raise ValueError("empty test set")
    y_train = check_labels(y_train, n, config.num_classes)
    if h_test is not None and y_test is not None:
        y_test = check_labels(y_test, len(h_test), config.num_classes)

    params = init_params(config, dtype=dtype)
    projectors = [HadamardProjector(spec) for spec in config.projector_specs()]
    optimizer = AdamW(params.arrays(), train_config.learning_rate, train_config.weight_decay)
    history: list[EpochStats] = []
    last_good = params.copy()
    # Each microbatch's rows are gathered into this one buffer; mode="clip"
    # lets np.take write into it unbuffered.
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
            # A step may diverge in the basis or in the head alone; either
            # leaves every score of P non-finite, so one forward checks both:
            # the evaluation's when it runs, else the first microbatch's.
            with np.errstate(over="ignore", invalid="ignore"):
                prototypes = params.head @ bank.basis
            if h_test is not None and y_test is not None and (epoch + 1) % train_config.eval_every == 0:
                test_acc = evaluate(prototypes, np.asarray(h_test).astype(dtype, copy=False), y_test)
                finite = not math.isnan(test_acc)
            else:
                test_acc = float("nan")
                finite = np.isfinite(_forward(h_train[: len(h_mb)], prototypes)).all()
            del prototypes  # not held through the next epoch's steps
            if not finite:
                raise FloatingPointError("scores became non-finite")
        except FloatingPointError as exc:
            raise TrainingDiverged(f"{exc} at epoch {epoch}", last_good, history) from exc

        history.append(
            EpochStats(
                epoch=epoch,
                mean_loss=loss_sum / n,
                train_accuracy=correct / n,
                test_accuracy=test_acc,
                wall_seconds=time.perf_counter() - start,
            )
        )
        last_good = params.copy()

    return TrainResult(params, DecomposedScorer(ChannelBank(bank.channels), params.head), history)


def evaluate(prototypes: np.ndarray, h: np.ndarray, labels: np.ndarray) -> float:
    """Classification accuracy of the class *prototypes* ``head @ basis``
    on pre-encoded data, scored by the training step's own forward, or
    NaN if a score is not finite, as a diverged model's are."""
    scores = _forward(h, prototypes)
    if not np.isfinite(scores).all():
        return math.nan
    return float((pick_class(scores) == np.asarray(labels)).mean())
