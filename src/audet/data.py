"""Corpus handling: synthetic face videos, input features, binary storage.

A video is held column-wise, T-leading, in the corpus file's own units:
one u8 gray plane per frame (the rendering of a schematic 73-point
face), f32 landmark coordinates, and one i8 label per action unit (-1
marks unknown).  One record dtype describes a stored
frame, so a video is written and read as one block of bytes.  A
:class:`FrameStream` numbers the frames of a list of videos as rows,
and its :meth:`FrameStream.inputs` is the only place stored frames
become model input.
Videos are generated by a five-state expression Markov chain;
activations ramp linearly over three frames so that labels flip before
the face fully settles, which is the only label noise in the default
corpus.
"""

from __future__ import annotations

import math
import struct
import unicodedata
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .binio import ByteReader, pack_str, write_atomic
from .errors import ContractViolation, EmptyCorpusError, FormatError

AU_ORDER = ("AU1", "AU2", "AU4", "AU6", "AU12", "AU15", "AU20", "AU25")

# expression prototypes of the generator's Markov chain, in state order
EXPRESSION_STATES = ("neutral", "surprise", "happy", "sad", "fear")
EXPRESSION_PROTOTYPES = {
    "neutral": frozenset(),
    "surprise": frozenset({"AU1", "AU2", "AU25"}),
    "happy": frozenset({"AU6", "AU12", "AU25"}),
    "sad": frozenset({"AU1", "AU4", "AU15"}),
    "fear": frozenset({"AU1", "AU2", "AU4", "AU20", "AU25"}),
}

PROTOTYPE_LABELS = np.array(
    [[1 if au in EXPRESSION_PROTOTYPES[s] else 0 for au in AU_ORDER] for s in EXPRESSION_STATES],
    dtype=np.int8,
)

# landmark layout: slices into the 73 x 2 coordinate array
JAW = slice(0, 17)
LEFT_BROW = slice(17, 23)
RIGHT_BROW = slice(23, 29)
LEFT_EYE = slice(38, 46)
RIGHT_EYE = slice(46, 54)
OUTER_LIP = slice(54, 66)
INNER_LIP = slice(66, 73)

LANDMARK_COUNT = 73
DISPLACEMENT_SCALE = 0.04
RAMP_STEP = 1.0 / 3.0


def _build_template() -> np.ndarray:
    pts = np.zeros((LANDMARK_COUNT, 2))
    theta = np.arange(17) * np.pi / 16
    pts[JAW, 0] = 0.5 - 0.28 * np.cos(theta)
    pts[JAW, 1] = 0.35 + 0.45 * np.sin(theta)

    i = np.arange(6)
    arch = 0.30 - 0.02 * np.sin(i * np.pi / 5)
    pts[LEFT_BROW, 0] = 0.28 + 0.032 * i  # outer to inner
    pts[LEFT_BROW, 1] = arch
    pts[RIGHT_BROW, 0] = 0.72 - 0.032 * i
    pts[RIGHT_BROW, 1] = arch

    bridge = np.arange(4)
    pts[29:33, 0] = 0.5
    pts[29:33, 1] = 0.36 + 0.05 * bridge
    base = np.arange(5)
    pts[33:38, 0] = 0.44 + 0.03 * base
    pts[33:38, 1] = 0.575 - 0.005 * np.abs(base - 2)

    def eye(cx):
        ang = np.pi - np.arange(8) * np.pi / 4  # index 0 at the left extreme
        return np.stack([cx + 0.055 * np.cos(ang), 0.40 - 0.025 * np.sin(ang)], axis=1)

    pts[LEFT_EYE] = eye(0.37)
    pts[RIGHT_EYE] = eye(0.63)

    ang = np.pi - np.arange(12) * np.pi / 6  # 0: left corner, 6: right corner
    pts[OUTER_LIP, 0] = 0.5 + 0.11 * np.cos(ang)
    pts[OUTER_LIP, 1] = 0.68 - 0.045 * np.sin(ang)
    ang = np.pi - np.arange(7) * 2 * np.pi / 7
    pts[INNER_LIP, 0] = 0.5 + 0.08 * np.cos(ang)
    pts[INNER_LIP, 1] = 0.68 - 0.006 * np.sin(ang)
    return pts


LANDMARK_TEMPLATE = _build_template()
LANDMARK_TEMPLATE.setflags(write=False)


def _build_displacements() -> np.ndarray:
    """Unit displacement field per AU, scaled by DISPLACEMENT_SCALE."""
    moves = {
        # inner / outer brow raisers, brow lowerer pulls down and inward
        "AU1": [(i, 0.0, -1.0) for i in (20, 21, 22, 26, 27, 28)],
        "AU2": [(i, 0.0, -1.0) for i in (17, 18, 19, 23, 24, 25)],
        "AU4": [(i, 0.5, 0.75) for i in range(17, 23)]
        + [(i, -0.5, 0.75) for i in range(23, 29)],
        # cheek raiser lifts the lower lids
        "AU6": [(i, 0.0, -0.75) for i in (43, 44, 45, 51, 52, 53)],
        # lip corner puller / depressor / stretcher act on the mouth corners
        "AU12": [(54, -0.7, -0.7), (60, 0.7, -0.7),
                 (55, -0.35, -0.35), (65, -0.35, -0.35),
                 (59, 0.35, -0.35), (61, 0.35, -0.35)],
        "AU15": [(54, 0.0, 1.0), (60, 0.0, 1.0),
                 (55, 0.0, 0.5), (65, 0.0, 0.5),
                 (59, 0.0, 0.5), (61, 0.0, 0.5)],
        "AU20": [(54, -1.0, 0.0), (60, 1.0, 0.0),
                 (55, -0.5, 0.0), (65, -0.5, 0.0),
                 (59, 0.5, 0.0), (61, 0.5, 0.0)],
        # lips part: inner lip halves separate, lower outer lip follows
        "AU25": [(i, 0.0, -0.75) for i in (67, 68, 69)]
        + [(i, 0.0, 0.75) for i in (70, 71, 72)]
        + [(i, 0.0, 0.4) for i in range(61, 66)],
    }
    field_ = np.zeros((len(AU_ORDER), LANDMARK_COUNT, 2))
    for k, au in enumerate(AU_ORDER):
        for idx, ux, uy in moves[au]:
            field_[k, idx, 0] += DISPLACEMENT_SCALE * ux
            field_[k, idx, 1] += DISPLACEMENT_SCALE * uy
    return field_


AU_DISPLACEMENTS = _build_displacements()
AU_DISPLACEMENTS.setflags(write=False)


def displaced_landmarks(intensities: np.ndarray) -> np.ndarray:
    """Template deformed by per-AU activation strengths in [0, 1]."""
    w = np.asarray(intensities, dtype=np.float64)
    if w.shape != (len(AU_ORDER),):
        raise ContractViolation(f"intensities must be ({len(AU_ORDER)},), got {w.shape}")
    return LANDMARK_TEMPLATE + np.tensordot(w, AU_DISPLACEMENTS, axes=1)


# ---------------------------------------------------------------------------
# videos


def check_video_id(video_id: str) -> None:
    """The id names the video's output files, so it must stay one plain file name."""
    if (video_id in ("", ".", "..")
            or any(ch in "/\\" or unicodedata.category(ch) == "Cc" for ch in video_id)):
        raise ContractViolation(f"video {video_id!r}: a video id must not be empty, '.' or "
                                "'..', or hold '/', '\\' or a control character")


@dataclass
class VideoSequence:
    """One video as T-leading arrays, T >= 3.

    planes: T x H x W uint8 gray planes, 0..255 standing for [0, 1]
    landmarks: T x 73 x 2 float32, normalised coordinates, all finite
    labels: T x 8 int8 in {-1, 0, 1}
    """

    video_id: str
    planes: np.ndarray
    landmarks: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        check_video_id(self.video_id)
        where = f"video {self.video_id!r}"
        for name, dtype, tail in (("planes", np.uint8, None),
                                  ("landmarks", np.float32, (LANDMARK_COUNT, 2)),
                                  ("labels", np.int8, (len(AU_ORDER),))):
            arr = getattr(self, name)
            if not isinstance(arr, np.ndarray) or arr.dtype != dtype:
                raise ContractViolation(
                    f"{where}: {name} must be {np.dtype(dtype)}, "
                    f"got {getattr(arr, 'dtype', type(arr).__name__)}"
                )
            if tail is not None and arr.shape[1:] != tail:
                raise ContractViolation(f"{where}: {name} must be T x {tail}, got {arr.shape}")
        if self.planes.ndim != 3:
            raise ContractViolation(f"{where}: planes must be T x H x W, got {self.planes.shape}")
        lengths = {len(self.planes), len(self.landmarks), len(self.labels)}
        if len(lengths) > 1:
            raise ContractViolation(
                f"{where}: frame counts differ: planes {len(self.planes)}, "
                f"landmarks {len(self.landmarks)}, labels {len(self.labels)}"
            )
        # motion features need a neighbour on at least one side of every frame
        if len(self) < 3:
            raise ContractViolation(f"{where} has {len(self)} frames, need >= 3")
        bad = ~((self.labels == -1) | (self.labels == 0) | (self.labels == 1)).all(axis=1)
        if bad.any():
            t = int(np.argmax(bad))
            raise ContractViolation(
                f"{where}: frame {t} has labels outside {{-1, 0, 1}}: {self.labels[t].tolist()}"
            )
        finite = np.isfinite(self.landmarks).all(axis=(1, 2))
        if not finite.all():
            raise ContractViolation(
                f"{where}: frame {int(np.argmin(finite))} has non-finite landmarks"
            )

    def __len__(self):
        return len(self.labels)

    def labels_array(self) -> np.ndarray:
        """The T x 8 labels (the ``labels`` array itself, not a copy).

        Only the benchmark harness, ``perfbench/run.py``, calls it.
        """
        return self.labels


def encode_planes(values: np.ndarray) -> np.ndarray:
    """Values in [0, 1] (clipped) to the u8 grid: round(255 x)."""
    return np.round(np.clip(values, 0.0, 1.0) * 255.0).astype(np.uint8)


def decode_planes(planes: np.ndarray) -> np.ndarray:
    """u8 planes as float32 model input, planes / 255; the model casts
    them to its parameters' dtype."""
    return planes / np.float32(255)


# ---------------------------------------------------------------------------
# input features


def landmark_diffs(landmarks: np.ndarray) -> np.ndarray:
    """Scaled landmark motion of every frame, T x 146, from T x 73 x 2 landmarks.

    Row t is 10 * (L[min(t+1, T-1)] - L[max(t-1, 0)]), laid out as
    x0, y0, x1, y1, ...  Endpoints clamp, so first and last frames use
    a one-sided difference.
    """
    if landmarks.ndim != 3 or landmarks.shape[1:] != (LANDMARK_COUNT, 2):
        raise ContractViolation(f"landmark_diffs: expected T,73,2, got {landmarks.shape}")
    n = len(landmarks)
    t = np.arange(n)
    ahead = landmarks[np.minimum(t + 1, n - 1)]
    behind = landmarks[np.maximum(t - 1, 0)]
    return (10.0 * (ahead - behind)).reshape(n, -1)


class FrameStream:
    """The frames of a list of videos as rows 0..N-1, in (video, frame) order.

    Only the small per-frame arrays are concatenated: ``diffs``, the
    N x 146 motion features, and ``labels``, N x 8.  The u8 planes stay
    in their videos; :meth:`inputs`, the one place stored frames become
    model input, gathers and decodes only the rows asked for.  Training
    reads the rows in shuffled batches, scoring in consecutive passes.
    """

    def __init__(self, videos: list[VideoSequence]):
        if not videos:
            raise ContractViolation("FrameStream: no videos")
        self.videos = videos
        self.lengths = np.array([len(v) for v in videos])
        self.diffs = np.concatenate([landmark_diffs(v.landmarks) for v in videos])
        self.labels = np.concatenate([v.labels for v in videos])
        # each row's owning video and its frame index there
        self.video = np.repeat(np.arange(len(videos)), self.lengths)
        self.frame = np.concatenate([np.arange(len(v)) for v in videos])

    def __len__(self):
        return len(self.labels)

    def inputs(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """Decoded gray planes (B x H x W) and motion features (B x 146), in
        float32, of ``rows``: an index array or a slice."""
        planes = np.stack([self.videos[v].planes[t] for v, t in
                           zip(self.video[rows].tolist(), self.frame[rows].tolist())])
        return decode_planes(planes), self.diffs[rows]


# ---------------------------------------------------------------------------
# synthetic generator


@dataclass
class SynthConfig:
    videos: int = 50
    frames_per_video: int = 60
    seed: int = 7
    image_size: int = 64
    stay_probability: float = 0.92
    label_flip_noise: float = 0.0
    landmark_jitter_sigma: float = 0.005
    pixel_noise_sigma: float = 0.02

    def validate(self):
        reject_non_finite(self)
        if self.videos < 1:
            raise ContractViolation(f"videos must be >= 1, got {self.videos}")
        if self.frames_per_video < 3:
            raise ContractViolation(
                f"frames_per_video must be >= 3, got {self.frames_per_video}"
            )
        if self.image_size < 8:
            raise ContractViolation(f"image_size must be >= 8, got {self.image_size}")
        if not 0.0 <= self.stay_probability <= 1.0:
            raise ContractViolation(
                f"stay_probability must be in [0, 1], got {self.stay_probability}"
            )
        if not 0.0 <= self.label_flip_noise <= 1.0:
            raise ContractViolation(
                f"label_flip_noise must be in [0, 1], got {self.label_flip_noise}"
            )
        for name in ("landmark_jitter_sigma", "pixel_noise_sigma"):
            if getattr(self, name) < 0:
                raise ContractViolation(f"{name} must be >= 0, got {getattr(self, name)}")


def reject_non_finite(config):
    """Raise ContractViolation naming the first float setting that is NaN or inf.

    Range checks compare with < and >, which NaN passes, so a config's
    validate() runs this first.
    """
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, (float, np.floating)) and not math.isfinite(value):
            raise ContractViolation(f"{f.name} must be finite, got {value}")


_DRAWN_GROUPS = (
    (LEFT_BROW, False),
    (RIGHT_BROW, False),
    (LEFT_EYE, True),
    (RIGHT_EYE, True),
    (OUTER_LIP, True),
    (INNER_LIP, True),
)


def _stroke_segments() -> np.ndarray:
    """Landmark index pairs of every drawn segment, S x 2, in drawing order."""
    pairs = []
    for group, closed in _DRAWN_GROUPS:
        idx = list(range(group.start, group.stop))
        pairs += zip(idx[:-1], idx[1:])
        if closed:
            pairs.append((idx[-1], idx[0]))
    return np.array(pairs)


_SEGMENTS = _stroke_segments()


def render_face(landmarks: np.ndarray, size: int = 64) -> np.ndarray:
    """Rasterise brows, eyes and lips as anti-aliased polylines.

    Takes T x 73 x 2 landmarks and returns T x size x size images.
    Coverage per pixel is clip(1.5 - distance_to_stroke, 0, 1); the
    image is 0.2 background plus 0.8 * coverage.  Jaw and nose points
    exist only for the motion features and are not drawn.

    Each segment is evaluated for all frames at once on a window the
    size of its largest bounding box (the stroke's extent plus 2 px,
    clipped to the image), then max-merged into a coverage buffer
    padded by one window so that no window needs clipping.  Window
    pixels outside a frame's own box lie more than 2 px from the
    stroke, so they add nothing.
    """
    if landmarks.ndim != 3 or landmarks.shape[1:] != (LANDMARK_COUNT, 2):
        raise ContractViolation(f"render_face: expected T x 73 x 2, got {landmarks.shape}")
    pts = np.asarray(landmarks, dtype=np.float64) * (size - 1)
    if not np.isfinite(pts).all():
        raise ContractViolation("render_face: landmarks must be finite")
    n = len(pts)
    a, b = pts[:, _SEGMENTS[:, 0]], pts[:, _SEGMENTS[:, 1]]  # T x segments x (x, y)
    # bounding boxes, first pixel clipped to [0, size] and last to [-1, size - 1]
    lo = np.clip(np.floor(np.minimum(a, b) - 2), 0, size).astype(np.int64)
    hi = np.clip(np.ceil(np.maximum(a, b) + 2), -1, size - 1).astype(np.int64)
    window = np.maximum(1, (hi - lo + 1).max(axis=0))  # segments x (width, height)
    stride = size + int(window.max())
    cov = np.zeros((n, stride, stride))
    flat = cov.reshape(-1)
    frame_start = (np.arange(n) * stride * stride)[:, None, None]
    for s, (width, height) in enumerate(window):
        px = (lo[:, s, 0, None] + np.arange(width))[:, None, :]  # T x 1 x width
        py = (lo[:, s, 1, None] + np.arange(height))[:, :, None]  # T x height x 1
        ax, ay = a[:, s, 0, None, None], a[:, s, 1, None, None]
        dx = b[:, s, 0, None, None] - ax
        dy = b[:, s, 1, None, None] - ay
        seg2 = dx * dx + dy * dy
        point = seg2 < 1e-12
        t = np.clip(((px - ax) * dx + (py - ay) * dy) / np.where(point, 1.0, seg2), 0.0, 1.0)
        t = np.where(point, 0.0, t)
        dist = np.sqrt((px - (ax + t * dx)) ** 2 + (py - (ay + t * dy)) ** 2)
        at = frame_start + py * stride + px
        flat[at] = np.maximum(flat[at], np.clip(1.5 - dist, 0.0, 1.0))
    return 0.2 + 0.8 * cov[:, :size, :size]


def generate_synthetic(config: SynthConfig) -> list[VideoSequence]:
    """Sample a corpus of schematic face videos.

    Each video runs its own RNG seeded from (config.seed, video index),
    so corpora agree across runs and video count changes do not shift
    earlier videos.  Expression states follow a Markov chain that stays
    put with ``stay_probability`` and otherwise jumps uniformly to one
    of the other four states.  Activations ramp by 1/3 per frame toward
    the current prototype; frame 0 starts settled.  The per-frame loop
    only draws random numbers; each video is then rendered as one
    T-leading batch.
    """
    config.validate()
    return [_synthesize_video(config, v) for v in range(config.videos)]


def _synthesize_video(config: SynthConfig, v: int) -> VideoSequence:
    # The video's own arrays are allocated before its whole-video float64
    # temporaries, which are all freed on return, so a corpus leaves no
    # free holes between its videos in the heap.  Such holes later served
    # training's large arrays without raising glibc's adaptive trim
    # threshold, and training then re-faulted its memory on every epoch.
    size, n = config.image_size, config.frames_per_video
    rng = np.random.default_rng([config.seed, v])
    planes = np.empty((n, size, size), np.uint8)
    landmarks = np.empty((n, LANDMARK_COUNT, 2), np.float32)
    labels = np.empty((n, len(AU_ORDER)), np.int8)
    noise = np.empty((n, size, size))
    state = int(rng.integers(5))
    intensities = PROTOTYPE_LABELS[state].astype(np.float64)
    for t in range(n):
        if t > 0:
            if rng.random() >= config.stay_probability:
                others = [s for s in range(5) if s != state]
                state = others[int(rng.integers(4))]
            target = PROTOTYPE_LABELS[state].astype(np.float64)
            intensities = np.clip(
                intensities + RAMP_STEP * (2.0 * target - 1.0), 0.0, 1.0
            )
        target_labels = PROTOTYPE_LABELS[state]
        flips = rng.random(len(AU_ORDER)) < config.label_flip_noise
        labels[t] = np.where(flips, 1 - target_labels, target_labels)

        lm = displaced_landmarks(intensities)
        lm = lm + rng.normal(0.0, config.landmark_jitter_sigma, lm.shape)
        landmarks[t] = np.clip(lm, 0.0, 1.0)
        noise[t] = rng.normal(0.0, config.pixel_noise_sigma, (size, size))

    planes[:] = encode_planes(render_face(landmarks, size) + noise)
    return VideoSequence(f"synth{v:04d}", planes, landmarks, labels)


# ---------------------------------------------------------------------------
# binary corpus format
#
# magic "AUC1", version u16, height u16, width u16, video count u32, then
# per video: id (u16 length + utf8), frame count u32, then one
# frame_record(height, width) per frame: gray u8*H*W, landmarks
# 146 * f32, labels 8 * i8.  All integers and floats little endian.

CORPUS_MAGIC = b"AUC1"
CORPUS_VERSION = 2  # 1 also stored an edge-map plane per frame


def frame_record(height: int, width: int) -> np.dtype:
    """Packed dtype of one stored frame; its fields are VideoSequence's arrays."""
    return np.dtype([
        ("planes", "u1", (height, width)),
        ("landmarks", "<f4", (LANDMARK_COUNT, 2)),
        ("labels", "i1", (len(AU_ORDER),)),
    ])


def _corpus_file(path: Path) -> Path:
    return path if path.suffix == ".auc" else path / "corpus.auc"


def store_corpus(videos: list[VideoSequence], path) -> Path:
    """Write videos to one .auc file; a directory path gets corpus.auc."""
    if not videos:
        raise ContractViolation("store_corpus: no videos to store")
    h, w = videos[0].planes.shape[1:]
    record = frame_record(h, w)
    chunks = [CORPUS_MAGIC, struct.pack("<HHHI", CORPUS_VERSION, h, w, len(videos))]
    for video in videos:
        check_video_id(video.video_id)
        if video.planes.shape[1:] != (h, w):
            raise ContractViolation(
                f"store_corpus: video {video.video_id!r} frame size "
                f"{video.planes.shape[1:]} != corpus size {(h, w)}"
            )
        rows = np.empty(len(video), record)
        rows["planes"], rows["landmarks"], rows["labels"] = (
            video.planes, video.landmarks, video.labels)
        chunks += [pack_str(video.video_id), struct.pack("<I", len(video)), rows.tobytes()]
    return write_atomic(_corpus_file(Path(path)), b"".join(chunks))


def _load_file(target: Path) -> list[VideoSequence]:
    r = ByteReader(target.read_bytes(), str(target))
    r.check_header(CORPUS_MAGIC, CORPUS_VERSION, "corpus")
    h, w, count = r.unpack("<HHI")
    if count == 0:
        raise EmptyCorpusError(f"{target}: corpus holds no videos")
    record = frame_record(h, w)
    videos = []
    for _ in range(count):
        video_id = r.take_str()
        (n_frames,) = r.unpack("<I")
        rows = np.frombuffer(r.take(n_frames * record.itemsize), record)
        try:
            videos.append(VideoSequence(video_id, rows["planes"].copy(),
                                        rows["landmarks"].astype(np.float32),
                                        rows["labels"].copy()))
        except ContractViolation as exc:
            raise FormatError(f"{target}: {exc}") from None
    r.check_end(" after last video")
    return videos


def load_corpus(path) -> list[VideoSequence]:
    """Read a corpus from a .auc file or from every .auc file in a directory.

    Video ids must be unique across everything read: scores and track
    files are keyed by id, so a repeat raises FormatError naming both
    files.  So does a file whose frame size differs from the first file's,
    since a model takes one image size.
    """
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"corpus path does not exist: {p}")
    if p.is_dir():
        files = sorted(f for f in p.iterdir() if f.suffix == ".auc")
        if not files:
            raise EmptyCorpusError(f"no .auc files in {p}")
    else:
        files = [p]
    videos = []
    source = {}
    for f in files:
        loaded = _load_file(f)
        if videos and loaded[0].planes.shape[1:] != videos[0].planes.shape[1:]:
            (h, w), (h0, w0) = loaded[0].planes.shape[1:], videos[0].planes.shape[1:]
            raise FormatError(f"{f}: frames are {h} x {w} px, but {files[0]} holds "
                              f"{h0} x {w0} px frames; a corpus has one image size")
        for video in loaded:
            if video.video_id in source:
                raise FormatError(
                    f"{f}: video id {video.video_id!r} repeats one in {source[video.video_id]}"
                )
            source[video.video_id] = f
            videos.append(video)
    return videos
