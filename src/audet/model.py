"""Three-branch action unit detector.

The static branch runs a strided conv stack over the two-plane frame
(gray + edges) and scans the resulting feature map position by position
with a gated recurrent cell, raster order, zero initial state.  The
dynamic branch is a small MLP over the 146 landmark motion values with
a tanh output.  Their concatenation (dynamic first) maps through one
tanh affine layer into the fused state.

Decoding is recurrent over the AU list: a second gated cell starts from
the fused state and consumes one learned AU embedding per step; each
step's output state feeds a shared 2-way affine classifier whose
softmax gives the activation probability for that AU.  Step i therefore
sees only embeddings 0..i, never later ones.

The forward functions take batches only, B x 2 x S x S images and
B x 146 motion vectors, and run a batch as one graph; one frame is a
batch of one.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .binio import ByteReader, pack_str, write_atomic
from .data import AU_ORDER, LANDMARK_COUNT
from .errors import ContractViolation, FormatError, NumericError
from .tensor import GruCellParams, Parameter, Tensor

DIFF_DIM = 2 * LANDMARK_COUNT

_ACTIVATIONS = {"relu": T.relu, "tanh": T.tanh}


@dataclass(frozen=True)
class ModelConfig:
    """Architecture dimensions; conv_spec rows are (in, out, kernel, stride)."""

    image_size: int = 64
    conv_spec: tuple[tuple[int, int, int, int], ...] = (
        (2, 16, 5, 2),
        (16, 32, 3, 2),
        (32, 32, 3, 2),
    )
    static_gru_hidden: int = 64
    dynamic_hidden: tuple[tuple[int, str], ...] = ((128, "relu"), (64, "tanh"))
    fusion_out: int = 64
    au_embedding_dim: int = 64

    def validate(self):
        if not self.conv_spec:
            raise ContractViolation("conv_spec is empty")
        if self.conv_spec[0][0] != 2:
            raise ContractViolation(
                f"first conv layer must take the 2 image planes, got {self.conv_spec[0][0]}"
            )
        for i, (cin, cout, k, s) in enumerate(self.conv_spec):
            if min(cin, cout, k, s) < 1:
                raise ContractViolation(f"conv layer {i}: bad spec {(cin, cout, k, s)}")
            if i > 0 and cin != self.conv_spec[i - 1][1]:
                raise ContractViolation(
                    f"conv layer {i} takes {cin} channels but layer {i - 1} emits "
                    f"{self.conv_spec[i - 1][1]}"
                )
        self.conv_output_shape()  # raises if the map collapses
        if not self.dynamic_hidden:
            raise ContractViolation("dynamic_hidden is empty")
        for width, act in self.dynamic_hidden:
            if width < 1:
                raise ContractViolation(f"dynamic layer width {width} < 1")
            if act not in _ACTIVATIONS:
                raise ContractViolation(f"unknown activation {act!r}")
        if self.dynamic_hidden[-1][1] != "tanh":
            raise ContractViolation("dynamic branch must end in tanh")
        for name in ("static_gru_hidden", "fusion_out", "au_embedding_dim"):
            if getattr(self, name) < 1:
                raise ContractViolation(f"{name} must be >= 1")

    def conv_output_shape(self) -> tuple[int, int, int]:
        size = self.image_size
        channels = 2
        for _, cout, k, s in self.conv_spec:
            size = T.conv_output_size(size, k, s)
            channels = cout
        return channels, size, size

    def to_kv(self) -> dict[str, str]:
        return {
            "image_size": str(self.image_size),
            "conv_spec": ",".join(":".join(map(str, layer)) for layer in self.conv_spec),
            "static_gru_hidden": str(self.static_gru_hidden),
            "dynamic_hidden": ",".join(f"{w}:{a}" for w, a in self.dynamic_hidden),
            "fusion_out": str(self.fusion_out),
            "au_embedding_dim": str(self.au_embedding_dim),
        }

    @classmethod
    def from_kv(cls, kv: dict[str, str], origin: str) -> "ModelConfig":
        expected = set(cls().to_kv())
        if set(kv) != expected:
            raise FormatError(
                f"{origin}: config keys {sorted(kv)} != expected {sorted(expected)}"
            )
        try:
            conv = tuple(
                tuple(int(x) for x in layer.split(":")) for layer in kv["conv_spec"].split(",")
            )
            if any(len(layer) != 4 for layer in conv):
                raise ValueError("conv_spec layers need 4 fields")
            dyn = []
            for part in kv["dynamic_hidden"].split(","):
                w, a = part.split(":")
                dyn.append((int(w), a))
            cfg = cls(
                image_size=int(kv["image_size"]),
                conv_spec=conv,
                static_gru_hidden=int(kv["static_gru_hidden"]),
                dynamic_hidden=tuple(dyn),
                fusion_out=int(kv["fusion_out"]),
                au_embedding_dim=int(kv["au_embedding_dim"]),
            )
            cfg.validate()
        except (ValueError, ContractViolation) as exc:
            raise FormatError(f"{origin}: bad model config: {exc}") from None
        return cfg


def parameter_count(config: ModelConfig) -> int:
    """Total trainable scalars for a configuration, in closed form."""
    n = 0
    for cin, cout, k, _ in config.conv_spec:
        n += cout * cin * k * k + cout
    conv_channels = config.conv_spec[-1][1]
    h = config.static_gru_hidden
    n += 3 * h * (conv_channels + h + 1)
    prev = DIFF_DIM
    for width, _ in config.dynamic_hidden:
        n += width * prev + width
        prev = width
    n += config.fusion_out * (prev + h) + config.fusion_out
    n += len(AU_ORDER) * config.au_embedding_dim
    f = config.fusion_out
    n += 3 * f * (config.au_embedding_dim + f + 1)
    n += 2 * f + 2
    return n


@dataclass
class ModelParams:
    """All trainable parameters, grouped per branch."""

    config: ModelConfig
    conv_layers: list[tuple[Parameter, Parameter]]  # (kernels, bias)
    static_gru: GruCellParams
    dynamic_layers: list[tuple[Parameter, Parameter]]  # (weights, bias)
    fusion_weights: Parameter
    fusion_bias: Parameter
    au_table: Parameter
    query_gru: GruCellParams
    classifier_weights: Parameter
    classifier_bias: Parameter

    @property
    def dtype(self):
        return self.au_table.value.dtype

    def all_parameters(self) -> list[Parameter]:
        out = []
        for kern, bias in self.conv_layers:
            out += [kern, bias]
        out += self.static_gru.parameters()
        for w, b in self.dynamic_layers:
            out += [w, b]
        out += [self.fusion_weights, self.fusion_bias, self.au_table]
        out += self.query_gru.parameters()
        out += [self.classifier_weights, self.classifier_bias]
        return out

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        return [(p.name, p.value) for p in self.all_parameters()]

    def copy(self) -> "ModelParams":
        clone = ModelParams.zeros(self.config, dtype=self.dtype)
        for mine, theirs in zip(self.all_parameters(), clone.all_parameters()):
            theirs.value[...] = mine.value
        return clone

    @classmethod
    def zeros(cls, config: ModelConfig, dtype=np.float32) -> "ModelParams":
        config.validate()
        conv = []
        for i, (cin, cout, k, _) in enumerate(config.conv_spec):
            conv.append(
                (
                    Parameter(np.zeros((cout, cin, k, k), dtype), f"conv{i}.kernels"),
                    Parameter(np.zeros(cout, dtype), f"conv{i}.bias"),
                )
            )
        conv_channels = config.conv_spec[-1][1]
        static = GruCellParams.zeros(conv_channels, config.static_gru_hidden, dtype, "static_gru")
        dyn = []
        prev = DIFF_DIM
        for i, (width, _) in enumerate(config.dynamic_hidden):
            dyn.append(
                (
                    Parameter(np.zeros((width, prev), dtype), f"dynamic{i}.weights"),
                    Parameter(np.zeros(width, dtype), f"dynamic{i}.bias"),
                )
            )
            prev = width
        f = config.fusion_out
        return cls(
            config=config,
            conv_layers=conv,
            static_gru=static,
            dynamic_layers=dyn,
            fusion_weights=Parameter(
                np.zeros((f, prev + config.static_gru_hidden), dtype), "fusion.weights"
            ),
            fusion_bias=Parameter(np.zeros(f, dtype), "fusion.bias"),
            au_table=Parameter(
                np.zeros((len(AU_ORDER), config.au_embedding_dim), dtype), "au_table"
            ),
            query_gru=GruCellParams.zeros(config.au_embedding_dim, f, dtype, "query_gru"),
            classifier_weights=Parameter(np.zeros((2, f), dtype), "classifier.weights"),
            classifier_bias=Parameter(np.zeros(2, dtype), "classifier.bias"),
        )

    @classmethod
    def init(cls, config: ModelConfig, seed: int, dtype=np.float32) -> "ModelParams":
        """Glorot-uniform weights, zero biases, small uniform AU table.

        One RNG drawn in :meth:`all_parameters` order, so a seed pins
        every value regardless of platform.
        """
        params = cls.zeros(config, dtype)
        rng = np.random.default_rng([seed, 1])
        for p in params.all_parameters():
            if p is params.au_table:
                limit = 0.1
            elif p.value.ndim >= 2:
                # (out, in) or (out, in, k, k): fans are out and in times the kernel area
                fan_out, fan_in = p.value.shape[:2]
                limit = np.sqrt(6.0 / ((fan_in + fan_out) * math.prod(p.value.shape[2:])))
            else:
                continue  # biases stay zero
            p.value[...] = rng.uniform(-limit, limit, p.value.shape).astype(dtype)
        return params


# ---------------------------------------------------------------------------
# forward passes


def static_forward(params: ModelParams, image: np.ndarray) -> Tensor:
    """Conv stack over B two-plane frames, then a raster scan of each map.

    ``image`` is B x 2 x S x S; the result is the B x h last scan states.
    """
    cfg = params.config
    expect = (2, cfg.image_size, cfg.image_size)
    if image.ndim != 4 or image.shape[1:] != expect:
        raise ContractViolation(f"static_forward: image {image.shape}, expected B x {expect}")
    x = Tensor(np.ascontiguousarray(image, dtype=params.dtype))
    for (kern, bias), (_, _, _, stride) in zip(params.conv_layers, cfg.conv_spec):
        x = T.relu(T.conv2d(x, kern, bias, stride))
    seq = T.spatial_sequence(x)
    h0 = Tensor(np.zeros((len(image), cfg.static_gru_hidden), dtype=params.dtype))
    states = T.gru_scan(seq, h0, params.static_gru)
    return T.row(states, states.shape[1] - 1)


def dynamic_forward(params: ModelParams, diff: np.ndarray) -> Tensor:
    """MLP over B landmark motion vectors, a B x 146 array."""
    if diff.ndim != 2 or diff.shape[1] != DIFF_DIM:
        raise ContractViolation(f"dynamic_forward: diff {diff.shape}, expected B x {DIFF_DIM}")
    x = Tensor(np.asarray(diff, dtype=params.dtype))
    for (w, b), (_, act) in zip(params.dynamic_layers, params.config.dynamic_hidden):
        x = _ACTIVATIONS[act](T.linear(w, b, x))
    return x


def fuse(params: ModelParams, dynamic: Tensor, static: Tensor) -> Tensor:
    """Joint state from both branches: tanh affine over [dynamic, static]."""
    joint = T.concat([dynamic, static])
    return T.tanh(T.linear(params.fusion_weights, params.fusion_bias, joint))


@dataclass
class ForwardResult:
    """Outputs of a batch of B frames.

    ``probs`` is B x 8 float64 activation probabilities and ``logits``
    one B x 8 x 2 node; index 1 of the last logit axis is "active".
    """

    probs: np.ndarray
    logits: Tensor


def classify_aus(params: ModelParams, fused: Tensor) -> ForwardResult:
    """Recurrent decoding over the AU list.

    The query cell starts from the B x f fused states and consumes
    embedding i at step i; that step's state goes through the shared
    2-way classifier.  Every frame reads the same embeddings, so their
    input projection is computed once.  Probability of activation is the
    softmax weight of class 1, computed here directly from the logit gap.
    """
    states = T.gru_scan(params.au_table, fused, params.query_gru)
    logits = T.linear(params.classifier_weights, params.classifier_bias, states)
    gap = logits.value[..., 1].astype(np.float64) - logits.value[..., 0].astype(np.float64)
    return ForwardResult(T.logistic(gap), logits)


def model_forward(params: ModelParams, image: np.ndarray, diff: np.ndarray) -> ForwardResult:
    """Full pass over a batch: probabilities and logits for all 8 AUs.

    ``image`` is B x 2 x H x W (gray plus edge planes, see
    data.decode_planes) and ``diff`` B x 146; the batch runs as one graph.
    """
    if image.shape[:1] != diff.shape[:1]:
        raise ContractViolation(
            f"model_forward: images {image.shape} and diffs {diff.shape} differ in batch extent"
        )
    h_static = static_forward(params, image)
    h_dynamic = dynamic_forward(params, diff)
    return classify_aus(params, fuse(params, h_dynamic, h_static))


def check_frame_size(config: ModelConfig, videos) -> None:
    """Raise ContractViolation naming the first video whose frames are not image_size square."""
    size = config.image_size
    for video in videos:
        h, w = video.planes.shape[2:]
        if (h, w) != (size, size):
            raise ContractViolation(f"video {video.video_id!r} has {h} x {w} px frames, "
                                    f"but the model's image_size is {size}")


# ---------------------------------------------------------------------------
# checkpoint format
#
# magic "AUCK", version u16, config block (u32 byte length, utf8 key=value
# lines), tensor count u32, then per tensor: name (u16 length + utf8),
# rank u8, extents u32 each, float32 payload.  After the tensors, the AU
# name list: count u8, names (u16 length + utf8).  Little endian.

CHECKPOINT_MAGIC = b"AUCK"
CHECKPOINT_VERSION = 1
MAX_TENSOR_RANK = 4  # conv kernels, the highest-rank parameters


def save_checkpoint(params: ModelParams, path) -> Path:
    """Write parameters as float32 named tensors; returns the file path.

    Raises NumericError, writing nothing, if a tensor holds NaN or Inf
    (in float32, so a float64 value beyond its range counts).
    """
    buf = bytearray()
    buf += CHECKPOINT_MAGIC
    buf += struct.pack("<H", CHECKPOINT_VERSION)
    cfg_text = "\n".join(f"{k}={v}" for k, v in params.config.to_kv().items()).encode("utf-8")
    buf += struct.pack("<I", len(cfg_text)) + cfg_text
    named = params.named_arrays()
    buf += struct.pack("<I", len(named))
    for name, value in named:
        buf += pack_str(name)
        buf += struct.pack("<B", value.ndim)
        for extent in value.shape:
            buf += struct.pack("<I", extent)
        stored = np.ascontiguousarray(value, dtype="<f4")
        if not np.isfinite(stored).all():
            raise NumericError(f"save_checkpoint: tensor {name!r} holds NaN or Inf; "
                               f"{path} not written")
        buf += stored.tobytes()
    buf += struct.pack("<B", len(AU_ORDER))
    for au in AU_ORDER:
        buf += pack_str(au)
    return write_atomic(path, bytes(buf))


def load_checkpoint(path) -> ModelParams:
    """Read a checkpoint back into float32 parameters."""
    target = Path(path)
    r = ByteReader(target.read_bytes(), str(target))
    magic = r.take(4)
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"{target}: bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
    (version,) = r.unpack("<H")
    if version != CHECKPOINT_VERSION:
        raise FormatError(
            f"{target}: checkpoint version {version}, this reader supports {CHECKPOINT_VERSION}"
        )
    (cfg_len,) = r.unpack("<I")
    kv = {}
    for line in r.take_text(cfg_len).splitlines():
        if not line.strip():
            continue
        if "=" not in line:
            raise FormatError(f"{target}: config line without '=': {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in kv:
            raise FormatError(f"{target}: config key {key!r} appears twice")
        kv[key] = value.strip()
    config = ModelConfig.from_kv(kv, str(target))

    (count,) = r.unpack("<I")
    arrays = {}
    for _ in range(count):
        name = r.take_str()
        (rank,) = r.unpack("<B")
        if rank > MAX_TENSOR_RANK:
            raise FormatError(
                f"{target}: tensor {name!r} has rank {rank}, at most {MAX_TENSOR_RANK} allowed"
            )
        shape = tuple(r.unpack("<" + "I" * rank)) if rank else ()
        # exact product: in int64, four u32 extents can wrap to a negative
        # size; take() then rejects any size beyond the bytes left
        n = math.prod(shape)
        payload = np.frombuffer(r.take(4 * n), "<f4").reshape(shape)
        if name in arrays:
            raise FormatError(f"{target}: duplicate tensor {name!r}")
        if not np.isfinite(payload).all():
            raise FormatError(f"{target}: tensor {name!r} holds NaN or Inf")
        arrays[name] = payload.astype(np.float32)

    (au_count,) = r.unpack("<B")
    aus = tuple(r.take_str() for _ in range(au_count))
    if aus != AU_ORDER:
        raise FormatError(f"{target}: AU order {aus} != expected {AU_ORDER}")
    if not r.exhausted():
        raise FormatError(f"{target}: {r.remaining()} trailing bytes")

    params = ModelParams.zeros(config, dtype=np.float32)
    expected = dict(params.named_arrays())
    missing = sorted(set(expected) - set(arrays))
    extra = sorted(set(arrays) - set(expected))
    if missing or extra:
        raise FormatError(f"{target}: missing tensors {missing}, unexpected {extra}")
    for p in params.all_parameters():
        stored = arrays[p.name]
        if stored.shape != p.value.shape:
            raise FormatError(
                f"{target}: tensor {p.name!r} has shape {stored.shape}, "
                f"expected {p.value.shape}"
            )
        p.value[...] = stored
    return params
