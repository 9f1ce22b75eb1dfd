"""Reverse-mode automatic differentiation on numpy arrays.

Every operation returns a graph node carrying the forward value and a
closure that routes an incoming gradient to the node's parents.  Calling
:func:`backward` on a scalar node seeds it with 1 and walks the graph
once in reverse topological order.  :class:`Parameter` leaves keep a
persistent ``grad`` buffer that accumulates additively; the caller
resets it between optimisation steps (see :func:`zero_grads`).

There is no broadcasting anywhere: primitives demand exact shapes and
raise ``ContractViolation`` otherwise.  Arithmetic runs in whatever
dtype the inputs carry, so the same graph code serves float32 training
and float64 gradient checking.

The layer primitives (:func:`linear`, :func:`conv2d`,
:func:`spatial_sequence`, :func:`gru_scan`) take an optional leading
batch axis: a B x ... input runs B independent examples through one
node, and the unbatched call is the same code on a batch of one.  The
model always passes a batch, so a training step builds one graph for
its whole batch; the unbatched forms serve the per-primitive gradient
checks.  The recurrent scan is one node for all S steps of a gated
cell: it projects every step's input with a single matmul, then steps
the B x h states.

Build one graph per step and call :func:`backward` on it once.  As
the walk passes each interior node it releases the node's backward
closure and gradient, so the arrays only a backward pass needs are freed
as soon as they have been used; a second :func:`backward` over a
consumed graph raises ``ContractViolation``.

A :class:`Workspace` lets a pass that repeats with the same shapes, such
as a training step, store its large forward arrays (each convolution's
im2col matrix and output map, each relu's output) in the buffers of the
previous pass instead of fresh allocations.  Inside ``with
reusing(workspace):`` the i-th buffer request of the pass gets the
buffer of the previous pass's i-th request when shape and dtype match.
The values are bitwise the same as on fresh arrays; only where they
live changes, so nothing computed in one pass may be kept past the
start of the next.  With no workspace active every request is a plain
``np.empty``.  A thread has at most one active pass.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, EmptyBatchError, NumericError


class Tensor:
    """One node of the computation graph."""

    __slots__ = ("value", "grad", "parents", "_push")

    def __init__(self, value, parents=()):
        self.value = value if isinstance(value, np.ndarray) else np.asarray(value)
        self.grad = None
        self.parents = parents
        self._push = None

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Tensor(shape={self.value.shape}, dtype={self.value.dtype})"


class Parameter(Tensor):
    """Named trainable leaf with a persistent gradient buffer."""

    __slots__ = ("name",)

    def __init__(self, value, name: str):
        super().__init__(np.asarray(value))
        self.name = name
        self.grad = np.zeros_like(self.value)

    def reset_grad(self):
        self.grad[...] = 0.0

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.value.shape})"


class Workspace:
    """Forward buffers handed out again, in request order, on every pass.

    The first request that differs from the previous pass's in shape or
    dtype drops that buffer and every later one before allocating: a new
    batch shape changes all of them, and holding the old set while the
    new one is built would keep two passes' buffers in memory at once.
    """

    def __init__(self):
        self.buffers: list[np.ndarray] = []
        self.allocations = 0  # buffers created so far; steady passes add none
        self._taken = 0

    def take(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        """The buffer for this pass's next request, uninitialised."""
        i = self._taken
        self._taken += 1
        if i < len(self.buffers):
            buf = self.buffers[i]
            if buf.shape == shape and buf.dtype == dtype:
                return buf
        del self.buffers[i:]
        buf = np.empty(shape, dtype)
        self.allocations += 1
        self.buffers.append(buf)
        return buf


_active: ContextVar[Workspace | None] = ContextVar("active_workspace", default=None)


@contextmanager
def reusing(workspace: Workspace | None):
    """Run one pass with ``workspace`` active; ``None`` runs it on fresh arrays.

    On exit, normal or not, the workspace is deactivated and keeps only
    the buffers this pass requested.
    """
    if workspace is None:
        yield
        return
    _require(_active.get() is None, "reusing: another workspace pass is already active")
    workspace._taken = 0
    token = _active.set(workspace)
    try:
        yield
    finally:
        _active.reset(token)
        del workspace.buffers[workspace._taken :]


def _empty(shape: tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialised array, from the active workspace if there is one."""
    workspace = _active.get()
    return np.empty(shape, dtype) if workspace is None else workspace.take(shape, dtype)


def _accum(node: Tensor, g: np.ndarray):
    if node.grad is None:
        node.grad = np.array(g)
    else:
        node.grad += g


def _require(cond: bool, message: str):
    if not cond:
        raise ContractViolation(message)


def _same_shape(op: str, a: Tensor, b: Tensor):
    _require(
        a.value.shape == b.value.shape,
        f"{op}: shape mismatch {a.value.shape} vs {b.value.shape}",
    )


# ---------------------------------------------------------------------------
# elementwise and shape primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("add", a, b)
    out = Tensor(a.value + b.value, (a, b))

    def push(g):
        _accum(a, g)
        _accum(b, g)

    out._push = push
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("mul", a, b)
    out = Tensor(a.value * b.value, (a, b))

    def push(g):
        _accum(a, g * b.value)
        _accum(b, g * a.value)

    out._push = push
    return out


def scale(a: Tensor, factor: float) -> Tensor:
    """Multiply by a python constant (not a graph node)."""
    f = float(factor)
    out = Tensor(a.value * f, (a,))

    def push(g):
        _accum(a, g * f)

    out._push = push
    return out


def total(a: Tensor) -> Tensor:
    """Sum of all elements, as a scalar node."""
    out = Tensor(np.asarray(a.value.sum(), dtype=a.value.dtype), (a,))

    def push(g):
        _accum(a, np.full_like(a.value, g))

    out._push = push
    return out


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.value, 0, out=_empty(a.value.shape, a.value.dtype)), (a,))

    def push(g):
        _accum(a, g * (a.value > 0))

    out._push = push
    return out


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.value)
    out = Tensor(y, (a,))

    def push(g):
        _accum(a, g * (1.0 - y * y))

    out._push = push
    return out


def logistic(v: np.ndarray) -> np.ndarray:
    """Elementwise 1 / (1 + e^-v) of an array, outside the graph."""
    # piecewise form stays finite for large |v|: 1/(1+e^-v) for v >= 0,
    # e^v/(1+e^v) below; exp(-|v|) is e^-v on one side and e^v on the other
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a: Tensor) -> Tensor:
    y = logistic(a.value)
    out = Tensor(y, (a,))

    def push(g):
        _accum(a, g * y * (1.0 - y))

    out._push = push
    return out


def concat(parts: list[Tensor], axis: int = 0) -> Tensor:
    """Join tensors along one axis; other extents must agree."""
    _require(len(parts) > 0, "concat: no parts")
    ndim = parts[0].value.ndim
    _require(-ndim <= axis < ndim, f"concat: axis {axis} out of range for ndim {ndim}")
    axis %= ndim
    lead = parts[0].value.shape
    for p in parts:
        shape = p.value.shape
        ok = len(shape) == ndim and all(
            shape[d] == lead[d] for d in range(ndim) if d != axis
        )
        _require(ok, f"concat: shape {shape} incompatible with {lead} along axis {axis}")
    out = Tensor(np.concatenate([p.value for p in parts], axis=axis), tuple(parts))
    sizes = [p.value.shape[axis] for p in parts]

    def push(g):
        ofs = 0
        index = [slice(None)] * ndim
        for p, n in zip(parts, sizes):
            index[axis] = slice(ofs, ofs + n)
            _accum(p, g[tuple(index)])
            ofs += n

    out._push = push
    return out


def row(a: Tensor, index: int) -> Tensor:
    """Select one row of a matrix, or of every matrix in a batch."""
    _require(a.value.ndim >= 2, f"row: expected matrix, got shape {a.value.shape}")
    _require(0 <= index < a.value.shape[-2],
             f"row: index {index} out of range for {a.value.shape}")
    out = Tensor(a.value[..., index, :].copy(), (a,))

    def push(g):
        full = np.zeros_like(a.value)
        full[..., index, :] = g
        _accum(a, full)

    out._push = push
    return out


def linear(weights: Tensor, bias: Tensor, x: Tensor) -> Tensor:
    """Affine map ``weights @ x + bias`` of a vector, or of each row of a batch.

    ``x`` is d or ... x d; the output replaces the last extent with the
    weights' row count.
    """
    _require(x.value.ndim >= 1, f"linear: input must be a vector, got {x.value.shape}")
    _require(weights.value.ndim == 2, f"linear: weights must be a matrix, got {weights.value.shape}")
    n, d = weights.value.shape
    _require(
        x.value.shape[-1] == d,
        f"linear: weights {weights.value.shape} do not accept input {x.value.shape}",
    )
    _require(
        bias.value.shape == (n,),
        f"linear: bias {bias.value.shape} does not match output dim {n}",
    )
    out = Tensor(x.value @ weights.value.T + bias.value, (weights, bias, x))

    def push(g):
        rows = g.reshape(-1, n)
        _accum(weights, rows.T @ x.value.reshape(-1, d))
        _accum(bias, rows.sum(axis=0))
        _accum(x, g @ weights.value)

    out._push = push
    return out


def spatial_sequence(a: Tensor) -> Tensor:
    """Read a C x H x W map as H*W feature vectors in raster order.

    A B x C x H x W batch gives B x H*W x C.
    """
    _require(a.value.ndim in (3, 4),
             f"spatial_sequence: expected C,H,W map or a batch of them, got {a.value.shape}")
    *lead, c, h, w = a.value.shape
    out = Tensor(a.value.reshape(*lead, c, h * w).swapaxes(-1, -2).copy(), (a,))

    def push(g):
        _accum(a, g.swapaxes(-1, -2).reshape(a.value.shape))

    out._push = push
    return out


# ---------------------------------------------------------------------------
# convolution


def conv_output_size(size: int, kernel: int, stride: int) -> int:
    """Spatial extent after a valid-padding convolution."""
    _require(kernel >= 1 and stride >= 1, f"conv: bad kernel {kernel} or stride {stride}")
    _require(size >= kernel, f"conv: input extent {size} smaller than kernel {kernel}")
    return (size - kernel) // stride + 1


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor, stride: int) -> Tensor:
    """2-d cross-correlation, valid padding.

    ``x`` is C x H x W or a B x C x H x W batch, ``kernels`` is
    F x C x k x k, ``bias`` is F.  Output is F x H' x W' (B x F x H' x W'
    for a batch) with H' = (H - k) // stride + 1.  The whole batch is one
    im2col matmul, and the output is a strided view of its F x B*H'*W'
    product.  All three operands share one dtype.
    """
    _require(x.value.ndim in (3, 4),
             f"conv2d: input must be C,H,W or a batch of them, got {x.value.shape}")
    _require(kernels.value.ndim == 4, f"conv2d: kernels must be F,C,k,k, got {kernels.value.shape}")
    f, kc, kh, kw = kernels.value.shape
    xs = x.value if x.value.ndim == 4 else x.value[None]
    b, c, h, w = xs.shape
    _require(kh == kw, f"conv2d: kernels must be square, got {kh}x{kw}")
    _require(kc == c, f"conv2d: kernel channels {kc} != input channels {c}")
    _require(bias.value.shape == (f,), f"conv2d: bias {bias.value.shape} != filter count {f}")
    dtype = xs.dtype
    if kernels.value.dtype != dtype or bias.value.dtype != dtype:
        # tested before formatting: str() of three dtypes costs ~18 us per call
        raise ContractViolation(f"conv2d: input {dtype}, kernels {kernels.value.dtype} and "
                                f"bias {bias.value.dtype} must share a dtype")
    ho = conv_output_size(h, kh, stride)
    wo = conv_output_size(w, kh, stride)

    sb, sc, sh, sw = xs.strides
    patches = np.lib.stride_tricks.as_strided(
        xs,
        shape=(c, kh, kh, b, ho, wo),
        strides=(sc, sh, sw, sb, sh * stride, sw * stride),
    )
    col = _empty((c * kh * kh, b * ho * wo), dtype)
    np.copyto(col.reshape(c, kh, kh, b, ho, wo), patches)
    km = kernels.value.reshape(f, c * kh * kh)
    prod = np.matmul(km, col, out=_empty((f, b * ho * wo), dtype))
    prod += bias.value[:, None]
    # the next op reads the view in batch-major order; no copy is made
    out_val = prod.reshape(f, b, ho, wo).swapaxes(0, 1)
    out = Tensor(out_val.reshape(x.value.shape[:-3] + (f, ho, wo)), (x, kernels, bias))
    # an input that is neither a parameter nor computed (the image) needs no gradient
    input_grad = isinstance(x, Parameter) or bool(x.parents)

    def push(g):
        gm = g.reshape(b, f, ho * wo).swapaxes(0, 1).reshape(f, b * ho * wo)
        _accum(kernels, (gm @ col.T).reshape(f, c, kh, kh))
        _accum(bias, gm.sum(axis=1))
        if not input_grad:
            return
        dcol = (km.T @ gm).reshape(c, kh, kh, b, ho, wo).swapaxes(0, 3)  # b,kh,kh,c,ho,wo
        dx = np.zeros_like(xs)
        for u in range(kh):
            for v in range(kh):
                dx[:, :, u : u + (ho - 1) * stride + 1 : stride,
                         v : v + (wo - 1) * stride + 1 : stride] += dcol[:, u, v]
        _accum(x, dx.reshape(x.value.shape))

    out._push = push
    return out


# ---------------------------------------------------------------------------
# gated recurrent cell


@dataclass
class GruCellParams:
    """Weights of one gated recurrent cell.

    The three gate blocks are stacked row-wise in the order update,
    reset, candidate: ``input_weights`` is 3h x d, ``hidden_weights``
    is 3h x h and ``biases`` is 3h.
    """

    input_weights: Parameter
    hidden_weights: Parameter
    biases: Parameter

    def __post_init__(self):
        wi, wh, b = self.input_weights.value, self.hidden_weights.value, self.biases.value
        _require(wi.ndim == 2 and wi.shape[0] % 3 == 0,
                 f"gru: input weights must be 3h x d, got {wi.shape}")
        h = wi.shape[0] // 3
        _require(wh.shape == (3 * h, h),
                 f"gru: hidden weights must be {(3 * h, h)}, got {wh.shape}")
        _require(b.shape == (3 * h,), f"gru: biases must be ({3 * h},), got {b.shape}")

    @property
    def input_dim(self) -> int:
        return self.input_weights.value.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.input_weights.value.shape[0] // 3

    def parameters(self) -> list[Parameter]:
        return [self.input_weights, self.hidden_weights, self.biases]

    @classmethod
    def zeros(cls, input_dim: int, hidden_dim: int, dtype=np.float32, prefix="gru"):
        return cls(
            Parameter(np.zeros((3 * hidden_dim, input_dim), dtype), f"{prefix}.input_weights"),
            Parameter(np.zeros((3 * hidden_dim, hidden_dim), dtype), f"{prefix}.hidden_weights"),
            Parameter(np.zeros(3 * hidden_dim, dtype), f"{prefix}.biases"),
        )


def gru_cell(x: Tensor, h: Tensor, cell: GruCellParams) -> Tensor:
    """One step of a gated recurrent cell, as a single fused node.

    update   z = sigmoid(Wz x + Uz h + bz)
    reset    r = sigmoid(Wr x + Ur h + br)
    cand     c = tanh(Wc x + Uc (r*h) + bc)
    output   h' = (1 - z) * h + z * c

    ``x`` is d and ``h`` is h, or B x d and B x h for a batch.  This is
    :func:`gru_scan` over a single step.
    """
    d, hd = cell.input_dim, cell.hidden_dim
    batched = h.value.ndim == 2
    lead = h.value.shape[:1] if batched else ()
    _require(x.value.shape == lead + (d,), f"gru_cell: input {x.value.shape} != {lead + (d,)}")
    _require(h.value.shape == lead + (hd,), f"gru_cell: state {h.value.shape} != {lead + (hd,)}")
    rows = h.value.shape[0] if batched else 1
    return _gru_recurrence(x, x.value.reshape(rows, 1, d), h, h.value.reshape(rows, hd), cell,
                           h.value.shape)


def gru_scan(xs: Tensor, h0: Tensor, cell: GruCellParams) -> Tensor:
    """Run a gated recurrent cell over S steps, as a single node.

    ``xs`` is S x d and ``h0`` is h: the output is the S x h sequence of
    states, row t being the state after consuming input t.  With a B x h
    ``h0`` the B states step together; ``xs`` is then either B x S x d,
    one input sequence per row, or S x d, one sequence shared by every
    row (projected once, not B times).  The output is B x S x h.

    Every step's input projection is computed up front in one matmul;
    the loop over steps does only the recurrent part.
    """
    d, hd = cell.input_dim, cell.hidden_dim
    _require(h0.value.ndim in (1, 2), f"gru_scan: state must be h or B x h, got {h0.value.shape}")
    _require(h0.value.shape[-1] == hd, f"gru_scan: state {h0.value.shape} has width != {hd}")
    _require(xs.value.ndim in (2, 3) and xs.value.shape[-1] == d,
             f"gru_scan: inputs must be S x {d} or B x S x {d}, got {xs.value.shape}")
    if xs.value.ndim == 3:
        _require(h0.value.ndim == 2 and xs.value.shape[0] == h0.value.shape[0],
                 f"gru_scan: input batch {xs.value.shape} does not match state {h0.value.shape}")
    _require(xs.value.shape[-2] >= 1, "gru_scan: no steps")
    steps = xs.value.shape[-2]
    states = h0.value.reshape(-1, hd)
    out_shape = h0.value.shape[:-1] + (steps, hd)
    return _gru_recurrence(xs, xs.value, h0, states, cell, out_shape)


def _gru_recurrence(xs: Tensor, xv: np.ndarray, h0: Tensor, hv: np.ndarray,
                    cell: GruCellParams, out_shape) -> Tensor:
    """Shared node of gru_cell and gru_scan.

    ``xv`` is S x d (shared by all rows) or B x S x d, ``hv`` is B x h;
    the node's value is the B x S x h state sequence viewed as
    ``out_shape``, and gradients flow back in the callers' shapes.
    """
    wi, wh, bias = cell.input_weights, cell.hidden_weights, cell.biases
    hd = cell.hidden_dim
    rows, steps = hv.shape[0], xv.shape[-2]
    shared = xv.ndim == 2
    wh_zr, wh_c = wh.value[: 2 * hd], wh.value[2 * hd :]
    # every step's input projection at once: S x 3h, or B x S x 3h
    gi = xv @ wi.value.T + bias.value

    hs = np.empty((rows, steps + 1, hd), dtype=hv.dtype)  # hs[:, t] is the state before step t
    hs[:, 0] = hv
    zr = np.empty((rows, steps, 2 * hd), dtype=hv.dtype)
    cand = np.empty((rows, steps, hd), dtype=hv.dtype)
    rh = np.empty((rows, steps, hd), dtype=hv.dtype)
    for t in range(steps):
        g_t = gi[t] if shared else gi[:, t]
        h_prev = hs[:, t]
        zr[:, t] = logistic(g_t[..., : 2 * hd] + h_prev @ wh_zr.T)
        z, r = zr[:, t, :hd], zr[:, t, hd:]
        rh[:, t] = r * h_prev
        cand[:, t] = np.tanh(g_t[..., 2 * hd :] + rh[:, t] @ wh_c.T)
        hs[:, t + 1] = (1.0 - z) * h_prev + z * cand[:, t]
    out = Tensor(hs[:, 1:].reshape(out_shape), (xs, h0, wi, wh, bias))

    def push(g):
        g = g.reshape(rows, steps, hd)
        dpre = np.empty((rows, steps, 3 * hd), dtype=gi.dtype)  # gate pre-activations
        dh = np.zeros_like(hv)
        for t in reversed(range(steps)):
            h_prev, c = hs[:, t], cand[:, t]
            z, r = zr[:, t, :hd], zr[:, t, hd:]
            gt = g[:, t] + dh
            dh = gt * (1.0 - z)
            dci = (gt * z) * (1.0 - c * c)
            drh = dci @ wh_c
            dh += drh * r
            dzr = np.concatenate([gt * (c - h_prev), drh * h_prev], axis=1)
            dzr *= zr[:, t] * (1.0 - zr[:, t])
            dh += dzr @ wh_zr
            dpre[:, t, : 2 * hd] = dzr
            dpre[:, t, 2 * hd :] = dci
        flat = dpre.reshape(rows * steps, 3 * hd)
        dwh = np.empty_like(wh.value)
        dwh[: 2 * hd] = flat[:, : 2 * hd].T @ hs[:, :-1].reshape(rows * steps, hd)
        dwh[2 * hd :] = flat[:, 2 * hd :].T @ rh.reshape(rows * steps, hd)
        _accum(wh, dwh)
        dgi = dpre.sum(axis=0) if shared else dpre  # shared inputs gather every row
        dgi_flat = dgi.reshape(-1, 3 * hd)
        _accum(wi, dgi_flat.T @ xv.reshape(-1, xv.shape[-1]))
        _accum(bias, dgi_flat.sum(axis=0))
        _accum(xs, (dgi @ wi.value).reshape(xs.value.shape))
        _accum(h0, dh.reshape(h0.value.shape))

    out._push = push
    return out


# ---------------------------------------------------------------------------
# classification head


def softmax_cross_entropy(logits: Tensor, label: int) -> tuple[Tensor, Tensor]:
    """Softmax probabilities and cross entropy against an integer label.

    Stable under large logits (max subtraction).  Returns the
    probability vector node and the scalar loss node.
    """
    v = logits.value
    _require(v.ndim == 1, f"softmax_cross_entropy: logits must be a vector, got {v.shape}")
    _require(isinstance(label, (int, np.integer)) and 0 <= label < v.shape[0],
             f"softmax_cross_entropy: label {label} out of range for {v.shape[0]} classes")
    m = v.max()
    e = np.exp(v - m)
    se = e.sum()
    p = e / se
    probs = Tensor(p, (logits,))

    def push_probs(g):
        _accum(logits, p * (g - float(g @ p)))

    probs._push = push_probs

    # grouped so an exact common shift of the logits cancels before the log
    loss = Tensor(np.asarray(np.log(se) - (v[label] - m), dtype=v.dtype), (logits,))

    def push_loss(g):
        d = p.copy()
        d[label] -= 1.0
        _accum(logits, d * g)

    loss._push = push_loss
    return probs, loss


def masked_cross_entropy(logits: Tensor, labels: np.ndarray, weights: np.ndarray) -> Tensor:
    """Class-weighted cross entropy of a batch of per-task 2-way logits.

    ``logits`` is B x K x 2, ``labels`` B x K in {-1, 0, 1}, ``weights``
    K positive-class weights.  A term is scaled by its task's weight
    where the label is 1; labels of -1 contribute nothing.  Each frame's
    loss is the mean over its known labels, and the result is the mean
    over the frames that have at least one.  Raises EmptyBatchError when
    no frame does.
    """
    v = logits.value
    labels = np.asarray(labels)
    weights = np.asarray(weights)
    _require(v.ndim == 3 and v.shape[2] == 2,
             f"masked_cross_entropy: logits must be B x K x 2, got {v.shape}")
    _require(labels.shape == v.shape[:2],
             f"masked_cross_entropy: labels {labels.shape} do not match logits {v.shape}")
    _require(weights.shape == (v.shape[1],),
             f"masked_cross_entropy: weights {weights.shape} != ({v.shape[1]},)")
    _require(bool(np.isin(labels, (-1, 0, 1)).all()),
             f"masked_cross_entropy: labels outside {{-1, 0, 1}}: {np.unique(labels).tolist()}")
    known = labels != -1
    per_frame = known.sum(axis=1)
    frames = int((per_frame > 0).sum())
    if frames == 0:
        raise EmptyBatchError("every label in the batch is -1")
    # coefficient of each term in the batch mean, zero for unknown labels
    coef = np.where(labels == 1, weights, 1.0) * known / np.maximum(per_frame, 1)[:, None] / frames
    coef = coef.astype(v.dtype)
    target = np.where(known, labels, 0)[..., None]

    m = v.max(axis=2, keepdims=True)
    e = np.exp(v - m)
    se = e.sum(axis=2, keepdims=True)
    p = e / se
    # grouped so an exact common shift of the logits cancels before the log
    ce = (np.log(se) - (np.take_along_axis(v, target, axis=2) - m))[..., 0]
    loss = Tensor(np.asarray((coef * ce).sum(), dtype=v.dtype), (logits,))

    def push(g):
        d = p.copy()
        np.put_along_axis(d, target, np.take_along_axis(d, target, axis=2) - 1.0, axis=2)
        _accum(logits, d * (coef * g)[..., None])

    loss._push = push
    return loss


# ---------------------------------------------------------------------------
# backward pass and gradient utilities


def _topo_order(root: Tensor) -> list[Tensor]:
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order  # parents precede consumers


def backward(root: Tensor):
    """Seed a scalar node with gradient 1 and propagate to all leaves.

    Each interior node gives up its backward closure and gradient once
    it has pushed, so the graph can be walked only once.
    """
    _require(root.value.size == 1, f"backward: root must be scalar, got shape {root.value.shape}")
    order = _topo_order(root)
    # interior nodes always carry a closure until a backward pass consumes them
    _require(not any(node.parents and node._push is None for node in order),
             "backward: graph already consumed by an earlier backward pass; "
             "build a new graph for every pass")
    if root.grad is None:
        root.grad = np.ones_like(root.value)
    for node in reversed(order):
        if node._push is None:
            continue  # a leaf keeps its gradient
        if node.grad is not None:
            node._push(node.grad)
        node._push = None
        node.grad = None


def zero_grads(params):
    for p in params:
        p.reset_grad()


def global_grad_norm(params) -> float:
    acc = 0.0
    for p in params:
        g = p.grad
        if g is not None:
            acc += float((g.astype(np.float64) ** 2).sum())
    return float(np.sqrt(acc))


@dataclass
class GradientCheckReport:
    """Worst finite-difference disagreement and where it occurred."""

    max_relative_error: float
    worst_parameter: str
    worst_index: tuple[int, ...]

    def location(self) -> str:
        return f"{self.worst_parameter}[{','.join(map(str, self.worst_index))}]"


def finite_difference_check(loss_fn, params, step: float = 1e-3) -> float:
    """Worst relative error of :func:`finite_difference_report`."""
    return finite_difference_report(loss_fn, params, step).max_relative_error


def finite_difference_report(loss_fn, params, step: float = 1e-3) -> GradientCheckReport:
    """Compare analytic gradients against central differences.

    ``loss_fn`` rebuilds the loss graph from the current parameter
    values and returns the scalar node.  Every component of every
    parameter is perturbed by +/-step.  Reports the worst relative
    error ``|a - e| / max(1e-8, |a| + |e|)`` and the first component
    that reached it.  Demands float64 parameters and a deterministic
    loss.
    """
    params = list(params)
    _require(len(params) > 0, "finite_difference_check: no parameters")
    for p in params:
        _require(
            p.value.dtype == np.float64,
            f"finite_difference_check: {p.name} is {p.value.dtype}, needs float64",
        )

    first = float(loss_fn().value)
    again = float(loss_fn().value)
    if first != again:
        raise NumericError(
            f"loss function is not deterministic ({first!r} vs {again!r}); "
            "finite differences would be meaningless"
        )

    zero_grads(params)
    backward(loss_fn())
    analytic = [p.grad.copy() for p in params]

    worst = 0.0
    where = (params[0].name, (0,) * params[0].value.ndim)
    for p, grads in zip(params, analytic):
        for idx in np.ndindex(p.value.shape):
            orig = p.value[idx]
            p.value[idx] = orig + step
            up = float(loss_fn().value)
            p.value[idx] = orig - step
            down = float(loss_fn().value)
            p.value[idx] = orig
            estimate = (up - down) / (2.0 * step)
            a = float(grads[idx])
            rel = abs(a - estimate) / max(1e-8, abs(a) + abs(estimate))
            if rel > worst:
                worst = rel
                where = (p.name, tuple(int(i) for i in idx))
    return GradientCheckReport(worst, *where)
