"""Deterministic training loop: weighted cross entropy, clipping, Adam.

Videos split 80/20 into train and validation by id.  The training
videos' frames are one :class:`data.FrameStream`, read in a new
shuffled order each epoch; a batch gathers and decodes the planes of
its own frames only.  Every batch builds one graph for all of its
frames, accumulates gradients once, clips by global norm, then applies
bias-corrected Adam; a batch whose labels are all -1 is skipped.  All
shuffling comes from RNGs seeded by (seed, salt), so two runs with the
same corpus and config produce bitwise identical parameters.

Validation is :func:`evaluation.evaluate` with window 1, the unsmoothed
score.  Timing and gradient-norm telemetry is kept apart from the
history, which must stay bitwise reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import evaluation, tensor as T
from .binio import write_atomic
from .data import AU_ORDER, FrameStream, VideoSequence, reject_non_finite
from .errors import ContractViolation, EmptyBatchError, NumericError
from .model import ModelConfig, ModelParams, check_frame_size, model_forward
from .tensor import Tensor

WEIGHT_CAP = 10.0


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    batch_size: int = 16
    epochs: int = 20
    grad_clip_global_norm: float = 5.0
    class_weighting: bool = True
    precision: str = "single"
    val_fraction: float = 0.2
    seed: int = 7

    def validate(self):
        reject_non_finite(self)
        if self.learning_rate <= 0:
            raise ContractViolation(f"learning_rate must be > 0, got {self.learning_rate}")
        for name in ("adam_beta1", "adam_beta2"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ContractViolation(f"{name} must be in [0, 1), got {v}")
        if self.adam_epsilon <= 0:
            raise ContractViolation(f"adam_epsilon must be > 0, got {self.adam_epsilon}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ContractViolation("batch_size and epochs must be >= 1")
        if self.grad_clip_global_norm <= 0:
            raise ContractViolation(
                f"grad_clip_global_norm must be > 0, got {self.grad_clip_global_norm}"
            )
        if self.precision not in ("single", "double"):
            raise ContractViolation(f"precision must be single or double, got {self.precision!r}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ContractViolation(f"val_fraction must be in (0, 1), got {self.val_fraction}")

    @property
    def dtype(self):
        return np.float32 if self.precision == "single" else np.float64


# ---------------------------------------------------------------------------
# loss


def compute_class_weights(labels: np.ndarray) -> np.ndarray:
    """Per-AU positive-example weight from N x 8 labels: negatives/positives,
    clipped to [1, 10].

    An AU with no positive examples at all gets the cap.  Unknown
    labels (-1) are ignored.
    """
    pos = (labels == 1).sum(axis=0).astype(np.float64)
    neg = (labels == 0).sum(axis=0).astype(np.float64)
    ratio = np.where(pos > 0, neg / np.maximum(pos, 1.0), WEIGHT_CAP)
    return np.clip(ratio, 1.0, WEIGHT_CAP)


# ---------------------------------------------------------------------------
# optimiser


def clip_gradients(params, max_norm: float) -> float:
    """Scale all gradients, out of place, by min(1, max_norm / norm); returns the raw norm."""
    if max_norm <= 0:
        raise ContractViolation(f"clip_gradients: max_norm must be > 0, got {max_norm}")
    norm = T.global_grad_norm(params)
    if norm > max_norm:
        factor = max_norm / norm
        for p in params:
            p.grad = p.grad * factor
    return norm


@dataclass
class AdamState:
    step: int
    m: list[np.ndarray]
    v: list[np.ndarray]

    @classmethod
    def for_params(cls, params) -> "AdamState":
        return cls(
            step=0,
            m=[np.zeros_like(p.value) for p in params],
            v=[np.zeros_like(p.value) for p in params],
        )


def adam_step(params, state: AdamState, cfg: TrainConfig):
    """One bias-corrected Adam update from the current gradients."""
    state.step += 1
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    for p, m, v in zip(params, state.m, state.v):
        g = T.gradient(p)
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient in {p.name}")
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.value -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + cfg.adam_epsilon)


# ---------------------------------------------------------------------------
# train/validation split


def split_videos(videos: list[VideoSequence], seed: int, val_fraction: float):
    """Deterministic video-level split; returns (train_ids, val_ids).

    Videos are keyed by id (corpus file order does not matter) and
    permuted by a seeded RNG; roughly val_fraction of them, at least
    one, become validation.  Needs at least two videos.
    """
    ids = sorted(v.video_id for v in videos)
    if len(ids) != len(set(ids)):
        raise ContractViolation("duplicate video ids in corpus")
    if len(ids) < 2:
        raise ContractViolation(f"need at least 2 videos to split, got {len(ids)}")
    rng = np.random.default_rng([seed, 2])
    perm = rng.permutation(len(ids))
    n_val = min(len(ids) - 1, max(1, int(round(val_fraction * len(ids)))))
    val = {ids[i] for i in perm[:n_val]}
    return [i for i in ids if i not in val], sorted(val)


# ---------------------------------------------------------------------------
# training loop


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    val_accuracy: float
    val_f1: float
    val_metric: float


@dataclass
class EpochTelemetry:
    """How one epoch's optimisation behaved and where its time went.

    Norms are the global gradient norms before clipping.  Timings vary
    run to run, so none of this goes into the history or a checkpoint.
    """

    epoch: int
    steps: int
    grad_norm_mean: float
    grad_norm_max: float
    clipped_fraction: float
    step_seconds: float
    validation_seconds: float

    def summary(self) -> str:
        return (
            f"epoch {self.epoch}: grad_norm mean {self.grad_norm_mean:.4f} "
            f"max {self.grad_norm_max:.4f} clipped {self.clipped_fraction:.3f} "
            f"steps {self.step_seconds:.3f} s validation {self.validation_seconds:.3f} s"
        )


@dataclass
class TrainResult:
    best_params: ModelParams
    final_params: ModelParams
    best_epoch: int
    best_metric: float
    history: list[EpochStats]
    class_weights: np.ndarray
    train_ids: list[str]
    val_ids: list[str]
    telemetry: list[EpochTelemetry]


def train(
    corpus: list[VideoSequence],
    model_config: ModelConfig | None = None,
    train_config: TrainConfig | None = None,
    on_epoch_end=None,
    on_telemetry=None,
) -> TrainResult:
    """Train on a corpus; returns best-validation-metric parameters.

    ``on_epoch_end(stats, params)`` runs after each epoch's validation
    pass; it must not mutate the parameters.  ``on_telemetry(record)``
    then receives that epoch's :class:`EpochTelemetry`.  The best epoch
    is the first one reaching the highest validation challenge metric.
    """
    model_config = model_config or ModelConfig()
    train_config = train_config or TrainConfig()
    model_config.validate()
    train_config.validate()

    check_frame_size(model_config, corpus)
    train_ids, val_ids = split_videos(corpus, train_config.seed, train_config.val_fraction)
    by_id = {v.video_id: v for v in corpus}
    # every training frame, in (video, frame) order: a batch is rows of these
    frames = FrameStream([by_id[i] for i in train_ids])
    val_videos = [by_id[i] for i in val_ids]
    if (frames.labels == -1).all():
        raise EmptyBatchError(f"every label of the {len(train_ids)} training videos is -1")
    if all((v.labels == -1).all() for v in val_videos):
        raise ContractViolation(
            f"the {len(val_ids)} validation videos hold no known label, so no epoch "
            f"could be scored: {val_ids}"
        )

    if train_config.class_weighting:
        weights = compute_class_weights(frames.labels)
    else:
        weights = np.ones(len(AU_ORDER))

    params = ModelParams.init(model_config, train_config.seed, train_config.dtype)
    adam = AdamState.for_params(params.all_parameters())

    history: list[EpochStats] = []
    telemetry: list[EpochTelemetry] = []
    best_epoch = -1
    best_metric = -np.inf

    for epoch in range(train_config.epochs):
        rng = np.random.default_rng([train_config.seed, 3, epoch])
        order = rng.permutation(len(frames))
        epoch_loss = 0.0
        norms = []
        started = time.perf_counter()
        for start in range(0, len(order), train_config.batch_size):
            picks = order[start : start + train_config.batch_size]
            if (frames.labels[picks] == -1).all():
                continue  # no known label to learn from: no step, no Adam update
            batch = (*frames.inputs(picks), frames.labels[picks])
            where = f"epoch {epoch}, batch {start // train_config.batch_size}"
            loss, norm = _train_step(params, adam, batch, weights, train_config, where)
            epoch_loss += loss
            norms.append(norm)
        validating = time.perf_counter()
        stats = _validate_epoch(epoch, epoch_loss / len(norms), params, val_videos, weights)
        done = time.perf_counter()

        history.append(stats)
        telemetry.append(EpochTelemetry(
            epoch=epoch,
            steps=len(norms),
            grad_norm_mean=float(np.mean(norms)),
            grad_norm_max=max(norms),
            clipped_fraction=float(np.mean(np.array(norms) > train_config.grad_clip_global_norm)),
            step_seconds=validating - started,
            validation_seconds=done - validating,
        ))
        if stats.val_metric > best_metric:  # always at epoch 0: the metric is finite
            best_metric = stats.val_metric
            best_epoch = epoch
            best_params = params.copy()
        if on_epoch_end is not None:
            on_epoch_end(stats, params)
        if on_telemetry is not None:
            on_telemetry(telemetry[-1])

    return TrainResult(
        best_params=best_params,
        final_params=params,
        best_epoch=best_epoch,
        best_metric=best_metric,
        history=history,
        class_weights=weights,
        train_ids=train_ids,
        val_ids=val_ids,
        telemetry=telemetry,
    )


def _train_step(params, adam, batch, weights, cfg: TrainConfig,
                where: str) -> tuple[float, float]:
    """Forward, backward, clip and Adam on one batch.

    The batch is (images, diffs, labels).  Its graph lives only inside
    this call, so it is freed before the next batch builds its own.
    Returns the batch loss and the gradient norm before clipping.
    """
    images, diffs, labels = batch
    plist = params.all_parameters()
    T.zero_grads(plist)
    loss = T.masked_cross_entropy(model_forward(params, images, diffs), labels, weights)
    value = float(loss.value)
    if not np.isfinite(value):
        raise NumericError(f"training diverged: loss {value} at {where}")
    T.backward(loss)
    norm = clip_gradients(plist, cfg.grad_clip_global_norm)
    adam_step(plist, adam, cfg)
    return value, norm


def _validate_epoch(epoch, train_loss, params, val_videos, weights) -> EpochStats:
    """Score the validation videos unsmoothed, as ``evaluate`` with window 1.

    The validation loss is the training objective over all validation
    frames at once, computed in float64 from the tracks' logits.
    """
    try:
        report = evaluation.evaluate(params, val_videos, 1)
    except NumericError as exc:
        raise NumericError(f"epoch {epoch} validation: {exc}") from None
    val_loss = T.masked_cross_entropy(
        Tensor(np.concatenate([t.logits for t in report.tracks])),
        np.concatenate([v.labels for v in val_videos]), weights,
    )
    return EpochStats(
        epoch=epoch,
        train_loss=float(train_loss),
        val_loss=float(val_loss.value),
        val_accuracy=report.unsmoothed.accuracy,
        val_f1=report.unsmoothed.mean_f1,
        val_metric=report.unsmoothed.metric,
    )


HISTORY_HEADER = "epoch,train_loss,val_loss,val_accuracy,val_f1,val_metric"


def write_history(history: list[EpochStats], path) -> Path:
    lines = [HISTORY_HEADER]
    for s in history:
        lines.append(
            f"{s.epoch},{s.train_loss:.6f},{s.val_loss:.6f},"
            f"{s.val_accuracy:.6f},{s.val_f1:.6f},{s.val_metric:.6f}"
        )
    return write_atomic(path, "\n".join(lines) + "\n")
