"""Scoring: model passes over videos, thresholding, temporal majority
smoothing, F1, challenge metric.

Every scoring pass, training's validation included, is :func:`score_frames`
in a :class:`tensor.Workspace`.  The model scores each frame on its own
(a video matters only through its landmark differences), so
``score_frames`` reads a list of videos as one :class:`data.FrameStream`
and fills every forward pass with its next SCORING_BATCH rows, across
video boundaries, before splitting the scores back per video.

The challenge metric is 0.5 * pooled accuracy + 0.5 * mean per-AU F1.
Accuracy pools every valid (label != -1) decision across videos and
AUs.  The F1 mean runs over AUs that received at least one valid
decision; an evaluated AU whose F1 denominator is zero scores 0 and is
flagged as degenerate rather than dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .binio import write_atomic
from .data import AU_ORDER, FrameStream, VideoSequence
from .errors import ContractViolation, NumericError
from .model import ModelParams, check_frame_size, model_forward


def binarize(probs: np.ndarray) -> np.ndarray:
    """Probabilities to 0/1 decisions at 0.5; exactly 0.5 counts as active."""
    return (np.asarray(probs) >= 0.5).astype(np.int8)


def check_window(window: int) -> int:
    """The smoothing window, which must be odd and >= 1 so no vote ties."""
    if window < 1 or window % 2 == 0:
        raise ContractViolation(f"smoothing window must be odd and >= 1, got {window}")
    return window


def smooth(binary: np.ndarray, window: int) -> np.ndarray:
    """Sliding majority vote down each column of a T x AU 0/1 array, as int8:
    columns are edge-padded by window // 2 rows, and each window's sum is the
    difference of two entries of one running sum.  Window 1 is the identity."""
    check_window(window)
    arr = np.asarray(binary)
    if arr.ndim != 2:
        raise ContractViolation(f"smooth: expected T x AU array, got {arr.shape}")
    if not ((arr == 0) | (arr == 1)).all():
        raise ContractViolation("smooth: decisions must be 0/1")
    votes = arr.astype(np.int8)
    if window == 1 or not len(votes):
        return votes
    half, n = window // 2, len(votes)
    running = np.zeros((n + window, votes.shape[1]), np.int64)
    np.cumsum(votes[np.clip(np.arange(-half, n + half), 0, n - 1)], axis=0, out=running[1:])
    return (2 * (running[window:] - running[:-window]) > window).astype(np.int8)


def f1_from_counts(tp: int, fp: int, fn: int) -> tuple[float, bool]:
    """F1 = 2tp / (2tp + fp + fn); a zero denominator scores 0, flagged."""
    denom = 2 * tp + fp + fn
    if denom == 0:
        return 0.0, True
    return 2.0 * tp / denom, False


@dataclass
class MetricsReport:
    tp: np.ndarray  # per AU, int64
    fp: np.ndarray
    fn: np.ndarray
    tn: np.ndarray
    per_au_f1: np.ndarray  # per AU, float
    degenerate: np.ndarray  # per AU, bool: F1 denominator was zero
    evaluated: np.ndarray  # per AU, bool: had at least one valid decision
    accuracy: float
    mean_f1: float
    metric: float


def challenge_metric(
    predictions: dict[str, np.ndarray], labels: dict[str, np.ndarray]
) -> MetricsReport:
    """Score 0/1 predictions against labels with unknowns masked out.

    Both arguments map video id to a T x 8 array; the key sets and the
    per-video lengths must agree.  Raises if not a single decision is
    valid.
    """
    if set(predictions) != set(labels):
        raise ContractViolation(
            f"video ids differ: predictions {sorted(predictions)} vs labels {sorted(labels)}"
        )
    if not predictions:
        raise ContractViolation("no videos to score")
    n_aus = len(AU_ORDER)
    ids = sorted(predictions)
    for vid in ids:
        pred = np.asarray(predictions[vid])
        lab = np.asarray(labels[vid])
        if pred.shape != lab.shape or pred.ndim != 2 or pred.shape[1] != n_aus:
            raise ContractViolation(
                f"video {vid!r}: predictions {pred.shape} vs labels {lab.shape}, "
                f"expected matching T x {n_aus}"
            )
        if not ((pred == 0) | (pred == 1)).all():
            raise ContractViolation(f"video {vid!r}: predictions must be 0/1")
        if not ((lab == -1) | (lab == 0) | (lab == 1)).all():
            raise ContractViolation(f"video {vid!r}: labels must be in {{-1, 0, 1}}")
    # integer counts do not depend on the order of summation, so one pass over
    # all rows is exact; a -1 label is neither 0 nor 1 and falls out of every count
    active = np.concatenate([predictions[vid] for vid in ids]) == 1
    lab = np.concatenate([labels[vid] for vid in ids])
    positive, negative = lab == 1, lab == 0
    tp = (active & positive).sum(axis=0, dtype=np.int64)
    fp = (active & negative).sum(axis=0, dtype=np.int64)
    fn = (~active & positive).sum(axis=0, dtype=np.int64)
    tn = (~active & negative).sum(axis=0, dtype=np.int64)
    decisions = tp + fp + fn + tn
    if decisions.sum() == 0:
        raise ContractViolation("no valid decisions: every label is -1")
    evaluated = decisions > 0
    per_au_f1 = np.zeros(n_aus)
    degenerate = ~evaluated
    for i in np.flatnonzero(evaluated):
        per_au_f1[i], degenerate[i] = f1_from_counts(int(tp[i]), int(fp[i]), int(fn[i]))
    accuracy = float((tp + tn).sum() / decisions.sum())
    # sequential sum: keeps the mean reproducible decision-for-decision
    scored = [float(per_au_f1[i]) for i in range(n_aus) if evaluated[i]]
    mean_f1 = sum(scored) / len(scored)
    return MetricsReport(
        tp=tp,
        fp=fp,
        fn=fn,
        tn=tn,
        per_au_f1=per_au_f1,
        degenerate=degenerate,
        evaluated=evaluated,
        accuracy=accuracy,
        mean_f1=mean_f1,
        metric=0.5 * accuracy + 0.5 * mean_f1,
    )


# ---------------------------------------------------------------------------
# running the model over videos


# Frames per forward pass.  A pass's im2col and conv/relu buffers take
# about 0.5 MB per 64 x 64 frame and the pass allocates little beyond
# them, so the chunk size sets scoring's memory peak.  Pooled passes on
# perfbench's infer workload (100 videos x 4 frames, seed 2050, one 36 s
# run each on a 2-vCPU Xeon host with OpenBLAS, channel-last conv stack):
#   chunk   infer frames/s   peak RSS MB
#   16      2156             69.2
#   32      2274             78.1
#   64      2121             98.4
# 16 keeps the peak flat, and it is the default training batch, so
# validation's passes refill the training steps' buffers.
SCORING_BATCH = 16


def score_frames(params: ModelParams, videos: list[VideoSequence], workspace: T.Workspace):
    """Probabilities (T x 8) and float64 logits (T x 8 x 2) of every video.

    The videos' frames form one :class:`data.FrameStream`, and every
    forward pass scores its next SCORING_BATCH rows in ``workspace``'s
    buffers, across video boundaries.  Only that pass's planes are
    decoded, so memory does not grow with the corpus.  Returns one
    (probs, logits) pair per video; the arrays never alias the buffers.
    Raises NumericError on a non-finite probability, which a 0.5
    threshold would read as "inactive".
    """
    frames = FrameStream(videos)
    logits = np.empty((len(frames), len(AU_ORDER), 2))
    for start in range(0, len(frames), SCORING_BATCH):
        rows = slice(start, start + SCORING_BATCH)
        # each pass's graph dies before the next pass builds its own
        with T.reusing(workspace):
            logits[rows] = model_forward(params, *frames.inputs(rows)).value
    probs = T.logistic(logits[..., 1] - logits[..., 0])
    if not np.isfinite(probs).all():
        raise NumericError("scoring gave a non-finite activation probability; "
                           "the model's parameters may hold NaN or Inf")
    cuts = np.cumsum(frames.lengths)[:-1]
    return list(zip(np.split(probs, cuts), np.split(logits, cuts)))


def predict_video(params: ModelParams, video: VideoSequence) -> np.ndarray:
    """Per-frame activation probabilities, T x 8 float64, scored in a workspace of its own.

    Only the benchmark harness, ``perfbench/run.py``, calls it.
    """
    return score_frames(params, [video], T.Workspace())[0][0]


@dataclass
class PredictionTrack:
    video_id: str
    probs: np.ndarray  # T x 8 float64
    logits: np.ndarray  # T x 8 x 2 float64
    binary: np.ndarray  # T x 8 int8, threshold 0.5
    smoothed: np.ndarray  # T x 8 int8, majority filtered


@dataclass
class EvalReport:
    window: int
    unsmoothed: MetricsReport
    smoothed: MetricsReport
    tracks: list[PredictionTrack]


def predict_tracks(params: ModelParams, corpus: list[VideoSequence], window: int,
                   workspace: T.Workspace | None = None) -> list[PredictionTrack]:
    """One track per video, scored in ``workspace`` (a new one if None) after
    checking the window and every video's frame size."""
    check_window(window)
    check_frame_size(params.config, corpus)
    if workspace is None:
        workspace = T.Workspace()
    tracks = []
    for video, (probs, logits) in zip(corpus, score_frames(params, corpus, workspace)):
        binary = binarize(probs)
        smoothed = binary if window == 1 else smooth(binary, window)
        tracks.append(PredictionTrack(video.video_id, probs, logits, binary, smoothed))
    return tracks


def evaluate(params: ModelParams, corpus: list[VideoSequence], window: int,
             workspace: T.Workspace | None = None) -> EvalReport:
    """Score a corpus with and without temporal smoothing; window 1 smooths nothing."""
    if not corpus:
        raise ContractViolation("evaluate: empty corpus")
    tracks = predict_tracks(params, corpus, window, workspace)
    labels = {v.video_id: v.labels for v in corpus}
    raw = challenge_metric({t.video_id: t.binary for t in tracks}, labels)
    smoothed = raw if window == 1 else challenge_metric(
        {t.video_id: t.smoothed for t in tracks}, labels)
    return EvalReport(window=window, unsmoothed=raw, smoothed=smoothed, tracks=tracks)


# ---------------------------------------------------------------------------
# artifacts

PREDICTION_HEADER = "frame," + ",".join(AU_ORDER)


def _write_track_csv(rows: np.ndarray, cell: str, path) -> Path:
    """Header, then one line per frame: its index and the row's values, each
    formatted by ``cell`` through one ``%`` template per line."""
    template = "%d" + ("," + cell) * rows.shape[1]
    lines = [PREDICTION_HEADER] + [template % (t, *row) for t, row in enumerate(rows.tolist())]
    return write_atomic(path, "\n".join(lines) + "\n")


def write_probability_csv(track: PredictionTrack, path) -> Path:
    """The track's probabilities, six decimals, one row per frame."""
    return _write_track_csv(track.probs, "%.6f", path)


def write_binary_csv(track: PredictionTrack, path) -> Path:
    """The track's smoothed decisions, one row per frame."""
    return _write_track_csv(track.smoothed, "%d", path)


def render_report(report: EvalReport, videos: int) -> str:
    """Human-readable scoring summary covering both variants."""
    lines = [f"window = {report.window}", f"videos = {videos}"]
    for variant, metrics in (("unsmoothed", report.unsmoothed), ("smoothed", report.smoothed)):
        lines.append(f"{variant}.accuracy = {metrics.accuracy:.6f}")
        lines.append(f"{variant}.mean_f1 = {metrics.mean_f1:.6f}")
        lines.append(f"{variant}.challenge_metric = {metrics.metric:.6f}")
    for variant, metrics in (("unsmoothed", report.unsmoothed), ("smoothed", report.smoothed)):
        for i, au in enumerate(AU_ORDER):
            lines.append(
                f"{variant}.{au}: tp={int(metrics.tp[i])} fp={int(metrics.fp[i])} "
                f"fn={int(metrics.fn[i])} tn={int(metrics.tn[i])} "
                f"f1={metrics.per_au_f1[i]:.6f}"
                + (" degenerate" if metrics.degenerate[i] else "")
            )
    return "\n".join(lines) + "\n"


REPORT_CSV_HEADER = (
    "window,accuracy,mean_f1,challenge_metric,"
    "smoothed_accuracy,smoothed_mean_f1,smoothed_challenge_metric"
)


def write_report_csv(report: EvalReport, path) -> Path:
    """Single-row summary suitable for aggregating runs in a spreadsheet."""
    u, s = report.unsmoothed, report.smoothed
    row = (
        f"{report.window},{u.accuracy:.6f},{u.mean_f1:.6f},{u.metric:.6f},"
        f"{s.accuracy:.6f},{s.mean_f1:.6f},{s.metric:.6f}"
    )
    return write_atomic(path, REPORT_CSV_HEADER + "\n" + row + "\n")
