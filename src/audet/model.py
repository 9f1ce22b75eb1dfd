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

The trainable tensors are declared once, in the ordered name -> shape
table of :func:`parameter_shapes`; building, counting, copying, saving
and checking them all follow it.  The forward functions take batches
only, B x 2 x S x S images and B x 146 motion vectors, run a batch as
one graph (one frame is a batch of one), and read the tensors by name.
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
from .tensor import Parameter, Tensor

DIFF_DIM = 2 * LANDMARK_COUNT


@dataclass(frozen=True)
class ModelConfig:
    """Architecture dimensions, each one independent of the others.

    ``conv_spec`` rows are (filters, kernel, stride), each layer followed
    by relu: layer 0 reads the 2 image planes, every later layer the
    filters of the layer before.  ``dynamic_hidden`` lists the widths of
    the landmark-motion MLP: relu on every layer but the last, tanh on
    the last.  The checkpoint text spells out those derived values (in
    channels, activation names), and :meth:`from_kv` accepts exactly the
    text :meth:`to_kv` writes.
    """

    image_size: int = 64
    conv_spec: tuple[tuple[int, int, int], ...] = ((16, 5, 2), (32, 3, 2), (32, 3, 2))
    static_gru_hidden: int = 64
    dynamic_hidden: tuple[int, ...] = (128, 64)
    fusion_out: int = 64
    au_embedding_dim: int = 64

    def validate(self):
        if not self.conv_spec:
            raise ContractViolation("conv_spec is empty")
        for i, layer in enumerate(self.conv_spec):
            if min(layer) < 1:
                raise ContractViolation(f"conv layer {i}: bad spec {layer}")
        self.conv_output_shape()  # raises if the map collapses
        if not self.dynamic_hidden:
            raise ContractViolation("dynamic_hidden is empty")
        for width in self.dynamic_hidden:
            if width < 1:
                raise ContractViolation(f"dynamic layer width {width} < 1")
        for name in ("static_gru_hidden", "fusion_out", "au_embedding_dim"):
            if getattr(self, name) < 1:
                raise ContractViolation(f"{name} must be >= 1")

    def conv_layers(self):
        """(in channels, filters, kernel, stride) of each conv layer."""
        channels = 2  # the gray and edge planes
        for filters, k, s in self.conv_spec:
            yield channels, filters, k, s
            channels = filters

    def conv_output_shape(self) -> tuple[int, int, int]:
        size = self.image_size
        for _, k, s in self.conv_spec:
            size = T.conv_output_size(size, k, s)
        return self.conv_spec[-1][0], size, size

    def to_kv(self) -> dict[str, str]:
        last = len(self.dynamic_hidden) - 1
        return {
            "image_size": str(self.image_size),
            "conv_spec": ",".join(":".join(map(str, layer)) for layer in self.conv_layers()),
            "static_gru_hidden": str(self.static_gru_hidden),
            "dynamic_hidden": ",".join(f"{w}:{'tanh' if i == last else 'relu'}"
                                       for i, w in enumerate(self.dynamic_hidden)),
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
            rows = [tuple(map(int, layer.split(":"))) for layer in kv["conv_spec"].split(",")]
            if any(len(row) != 4 for row in rows):
                raise ValueError("conv_spec layers need 4 fields")
            dyn = [int(part.split(":")[0]) for part in kv["dynamic_hidden"].split(",")]
            cfg = cls(
                image_size=int(kv["image_size"]),
                conv_spec=tuple(row[1:] for row in rows),
                static_gru_hidden=int(kv["static_gru_hidden"]),
                dynamic_hidden=tuple(dyn),
                fusion_out=int(kv["fusion_out"]),
                au_embedding_dim=int(kv["au_embedding_dim"]),
            )
            cfg.validate()
        except (ValueError, ContractViolation) as exc:
            raise FormatError(f"{origin}: bad model config: {exc}") from None
        # the text also spells out what the dimensions imply (in channels,
        # activations), so it must be exactly the text these dimensions write
        written = cfg.to_kv()
        if written != kv:
            key = next(k for k in kv if kv[k] != written[k])
            raise FormatError(f"{origin}: bad model config: {key} = {kv[key]!r}, "
                              f"expected {written[key]!r}")
        return cfg


# Narrow variant of the default architecture: same layer types and wiring,
# sized so the exhaustive finite-difference sweep finishes in seconds.
GRADCHECK_CONFIG = ModelConfig(
    conv_spec=((4, 5, 2), (8, 3, 2), (8, 3, 2)),
    static_gru_hidden=16,
    dynamic_hidden=(16, 16),
    fusion_out=16,
    au_embedding_dim=16,
)


def _gru_shapes(prefix: str, input_dim: int, hidden_dim: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of a gated cell's tensors (see tensor.gru_scan)."""
    return {f"{prefix}.input_weights": (3 * hidden_dim, input_dim),
            f"{prefix}.hidden_weights": (3 * hidden_dim, hidden_dim),
            f"{prefix}.biases": (3 * hidden_dim,)}


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every trainable tensor, in table order.

    The one place a tensor's shape is written: building, counting,
    copying, saving and loading parameters all follow this table, and
    its order is the checkpoint's tensor order and the init draw order.
    """
    config.validate()
    shapes = {}
    for i, (cin, cout, k, _) in enumerate(config.conv_layers()):
        shapes[f"conv{i}.kernels"] = (cout, cin, k, k)
        shapes[f"conv{i}.bias"] = (cout,)
    h = config.static_gru_hidden
    shapes.update(_gru_shapes("static_gru", config.conv_spec[-1][0], h))
    prev = DIFF_DIM
    for i, width in enumerate(config.dynamic_hidden):
        shapes[f"dynamic{i}.weights"] = (width, prev)
        shapes[f"dynamic{i}.bias"] = (width,)
        prev = width
    f = config.fusion_out
    shapes["fusion.weights"] = (f, prev + h)
    shapes["fusion.bias"] = (f,)
    shapes["au_table"] = (len(AU_ORDER), config.au_embedding_dim)
    shapes.update(_gru_shapes("query_gru", config.au_embedding_dim, f))
    shapes["classifier.weights"] = (2, f)
    shapes["classifier.bias"] = (2,)
    return shapes


def parameter_count(config: ModelConfig) -> int:
    """Total trainable scalars for a configuration."""
    return sum(math.prod(shape) for shape in parameter_shapes(config).values())


@dataclass
class ModelParams:
    """All trainable parameters of ``config``, by name in table order
    (:func:`parameter_shapes`)."""

    config: ModelConfig
    tensors: dict[str, Parameter]

    @property
    def dtype(self):
        return self.tensors["au_table"].value.dtype

    def cell(self, prefix: str) -> tuple[Parameter, Parameter, Parameter]:
        """The input weights, hidden weights and biases of the gated cell ``prefix``."""
        t = self.tensors
        return t[f"{prefix}.input_weights"], t[f"{prefix}.hidden_weights"], t[f"{prefix}.biases"]

    def all_parameters(self) -> list[Parameter]:
        return list(self.tensors.values())

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        return [(name, p.value) for name, p in self.tensors.items()]

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, {name: Parameter(p.value.copy(), name)
                                         for name, p in self.tensors.items()})

    @classmethod
    def zeros(cls, config: ModelConfig, dtype=np.float32) -> "ModelParams":
        return cls(config, {name: Parameter(np.zeros(shape, dtype), name)
                            for name, shape in parameter_shapes(config).items()})

    @classmethod
    def init(cls, config: ModelConfig, seed: int, dtype=np.float32) -> "ModelParams":
        """Glorot-uniform weights, zero biases, small uniform AU table.

        One RNG drawn in table order, so a seed pins every value
        regardless of platform.
        """
        params = cls.zeros(config, dtype)
        rng = np.random.default_rng([seed, 1])
        for name, p in params.tensors.items():
            if name == "au_table":
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


def channel_last(image: np.ndarray, dtype) -> np.ndarray:
    """A B x H x W x C copy, in ``dtype``, of a B x C x H x W image batch:
    the conv stack's layout.

    Copying plane by plane is several times faster than a whole-array
    transpose.
    """
    b, c, h, w = image.shape
    out = np.empty((b, h, w, c), dtype=dtype)
    for i in range(c):
        out[..., i] = image[:, i]
    return out


def static_forward(params: ModelParams, image: np.ndarray) -> Tensor:
    """Conv stack over B two-plane frames, then a raster scan of each map.

    ``image`` is B x 2 x S x S; the result is the B x h last scan states.
    """
    cfg = params.config
    expect = (2, cfg.image_size, cfg.image_size)
    if image.ndim != 4 or image.shape[1:] != expect:
        raise ContractViolation(f"static_forward: image {image.shape}, expected B x {expect}")
    t = params.tensors
    x = Tensor(channel_last(image, params.dtype))
    for i, (_, _, stride) in enumerate(cfg.conv_spec):
        x = T.relu(T.conv2d(x, t[f"conv{i}.kernels"], t[f"conv{i}.bias"], stride))
    seq = T.spatial_sequence(x)
    h0 = Tensor(np.zeros((len(image), cfg.static_gru_hidden), dtype=params.dtype))
    states = T.gru_scan(seq, h0, *params.cell("static_gru"))
    return T.row(states, states.shape[1] - 1)


def dynamic_forward(params: ModelParams, diff: np.ndarray) -> Tensor:
    """MLP over B landmark motion vectors, a B x 146 array: relu hidden
    layers, then a tanh layer."""
    if diff.ndim != 2 or diff.shape[1] != DIFF_DIM:
        raise ContractViolation(f"dynamic_forward: diff {diff.shape}, expected B x {DIFF_DIM}")
    t = params.tensors
    x = Tensor(np.asarray(diff, dtype=params.dtype))
    last = len(params.config.dynamic_hidden) - 1
    for i in range(last):
        x = T.relu(T.linear(t[f"dynamic{i}.weights"], t[f"dynamic{i}.bias"], x))
    return T.tanh(T.linear(t[f"dynamic{last}.weights"], t[f"dynamic{last}.bias"], x))


def fuse(params: ModelParams, dynamic: Tensor, static: Tensor) -> Tensor:
    """Joint state from both branches: tanh affine over [dynamic, static]."""
    joint = T.concat([dynamic, static])
    t = params.tensors
    return T.tanh(T.linear(t["fusion.weights"], t["fusion.bias"], joint))


def classify_aus(params: ModelParams, fused: Tensor) -> Tensor:
    """Recurrent decoding over the AU list: the B x 8 x 2 logits node.

    The query cell starts from the B x f fused states and consumes
    embedding i at step i; that step's state goes through the shared
    2-way classifier.  Every frame reads the same embeddings, so their
    input projection is computed once.  Index 1 of the last axis is
    "active": its softmax weight, the logistic of the logit gap, is the
    probability of activation.
    """
    t = params.tensors
    states = T.gru_scan(t["au_table"], fused, *params.cell("query_gru"))
    return T.linear(t["classifier.weights"], t["classifier.bias"], states)


def model_forward(params: ModelParams, image: np.ndarray, diff: np.ndarray) -> Tensor:
    """Full pass over a batch: the B x 8 x 2 logits node of all 8 AUs.

    ``image`` is B x 2 x H x W (gray plus edge planes, see
    data.FrameStream.inputs) and ``diff`` B x 146; the batch runs as one graph.
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
    r.check_header(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint")
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
    r.check_end()

    # checked against the table, then wrapped: no parameter is allocated
    # from the config, so what loading allocates is bounded by the file's size
    shapes = parameter_shapes(config)
    stored, needed = sum(a.size for a in arrays.values()), parameter_count(config)
    if stored != needed:
        raise FormatError(f"{target}: the config has {needed} parameters, "
                          f"the file stores {stored}")
    missing = sorted(set(shapes) - set(arrays))
    extra = sorted(set(arrays) - set(shapes))
    if missing or extra:
        raise FormatError(f"{target}: missing tensors {missing}, unexpected {extra}")
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise FormatError(f"{target}: tensor {name!r} has shape {arrays[name].shape}, "
                              f"expected {shape}")
    return ModelParams(config, {name: Parameter(arrays[name], name) for name in shapes})
