"""Reverse-mode automatic differentiation on numpy arrays.

Every operation returns a node built whole, ``Tensor(value, parents, push)``,
whose closure ``push`` routes an incoming gradient to the parents.  Calling
:func:`backward` on a scalar node seeds it with 1 and walks the graph
once in reverse topological order.  A leaf's ``grad`` is ``None`` until
a backward pass reaches it; later passes add to it until
:func:`zero_grads` sets it back to ``None``.

There is no broadcasting anywhere: primitives demand exact shapes and
raise ``ContractViolation`` otherwise.  Arithmetic runs in whatever
dtype the inputs carry, so the same graph code serves float32 training
and float64 gradient checking.

The engine holds the ops the model runs and no others: :func:`conv2d`,
:func:`relu`, :func:`spatial_sequence`, :func:`gru_scan`, :func:`row`,
:func:`linear`, :func:`tanh`, :func:`concat` and
:func:`masked_cross_entropy`.  They take a leading batch axis
(:func:`conv2d`, :func:`spatial_sequence`, :func:`gru_scan` and
:func:`masked_cross_entropy` demand one), so a training step builds one
graph for its whole batch; a single example is a batch of one.  Feature
maps are channel-last, B x H x W x C: :func:`conv2d` gathers each output
pixel's patch as k runs of k*C adjacent values, scatters its input
gradient along whole C-wide rows, and :func:`spatial_sequence` is a
reshape.  The recurrent scan :func:`gru_scan` is one node for all S
steps of a gated cell: it projects every step's input with a single
matmul, then steps the B x h states.

Right operands.  Every matmul in a forward pass multiplies by a
C-contiguous right operand, copying a transposed or permuted weight
matrix once per call: with a transposed view, OpenBLAS runs the model's
small products up to 2.7x slower (a scan step's 16 x 64 by 64 x 128
product 7.4 -> 2.7 us, the first dynamic layer 15.1 -> 6.3 us).

Row counts.  With a contiguous right operand, OpenBLAS gives a row of a
product the same bits whatever the product's row count, as long as that
count is a multiple of 4; rows past the last multiple of 4 go through
other kernels.  :func:`linear`, whose row count is the batch size, pads
its rows to a multiple of 4; :func:`conv2d` runs one product per frame,
and the static scan's input projection has S*B rows, a multiple of 4 at
the model's map size.  That a frame's scores then do not depend on
which frames share its scoring pass is measured (float32 on SkylakeX
kernels, float64 on SkylakeX and Haswell kernels), not promised: the
scans' per-step products (B rows) are not padded, and Haswell's float32
kernels need other row multiples.

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
    """One graph node, given its value, parents and backward rule in one call.

    ``push(g)`` adds the node's gradient ``g`` into its parents'; a leaf has neither.
    """

    __slots__ = ("value", "grad", "parents", "_push")

    def __init__(self, value, parents=(), push=None):
        self.value = value if isinstance(value, np.ndarray) else np.asarray(value)
        self.grad = None
        self.parents = parents
        self._push = push

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Tensor(shape={self.value.shape}, dtype={self.value.dtype})"


class Parameter(Tensor):
    """Named trainable leaf; its ``grad`` is ``None`` until a backward pass reaches it."""

    __slots__ = ("name",)

    def __init__(self, value, name: str):
        super().__init__(np.asarray(value))
        self.name = name

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
def reusing(workspace: Workspace):
    """Run one pass with ``workspace`` active.

    On exit, normal or not, the workspace is deactivated and keeps only
    the buffers this pass requested.
    """
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
    """Add ``g`` to ``node``'s gradient.

    A node keeps its first gradient as pushed, uncopied, and adds a later
    one out of place, so no array a rule pushed is ever written through.
    """
    node.grad = g if node.grad is None else node.grad + g


def _require(cond: bool, message):
    """Raise ContractViolation unless ``cond``; a callable ``message`` formats it only then."""
    if not cond:
        raise ContractViolation(message if isinstance(message, str) else message())


# ---------------------------------------------------------------------------
# elementwise and shape primitives


def relu(a: Tensor) -> Tensor:
    def push(g):
        _accum(a, g * (a.value > 0))

    return Tensor(np.maximum(a.value, 0, out=_empty(a.value.shape, a.value.dtype)), (a,), push)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.value)

    def push(g):
        _accum(a, g * (1.0 - y * y))

    return Tensor(y, (a,), push)


def logistic(v: np.ndarray) -> np.ndarray:
    """Elementwise 1 / (1 + e^-v) of an array, outside the graph."""
    # piecewise form stays finite for large |v|: 1/(1+e^-v) for v >= 0,
    # e^v/(1+e^v) below; exp(-|v|) is e^-v on one side and e^v on the
    # other, so one division serves both sides
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0, e) / (1.0 + e)


def concat(parts: list[Tensor]) -> Tensor:
    """Join tensors along their last axis; the other extents must agree."""
    _require(len(parts) > 0, "concat: no parts")
    first = parts[0].value.shape
    for p in parts:
        shape = p.value.shape
        _require(len(shape) >= 1 and shape[:-1] == first[:-1],
                 lambda: f"concat: shape {shape} incompatible with {first} along the last axis")
    bounds = np.cumsum([p.value.shape[-1] for p in parts])[:-1]

    def push(g):
        for p, piece in zip(parts, np.split(g, bounds, axis=-1)):
            _accum(p, piece)

    return Tensor(np.concatenate([p.value for p in parts], axis=-1), tuple(parts), push)


def row(a: Tensor, index: int) -> Tensor:
    """Select one row of a matrix, or of every matrix in a batch."""
    _require(a.value.ndim >= 2, lambda: f"row: expected matrix, got shape {a.value.shape}")
    _require(0 <= index < a.value.shape[-2],
             lambda: f"row: index {index} out of range for {a.value.shape}")

    def push(g):
        full = np.zeros_like(a.value)
        full[..., index, :] = g
        _accum(a, full)

    return Tensor(a.value[..., index, :].copy(), (a,), push)


def linear(weights: Tensor, bias: Tensor, x: Tensor) -> Tensor:
    """Affine map ``weights @ x + bias`` of a vector, or of each row of a batch.

    ``x`` is d or ... x d; the output replaces the last extent with the
    weights' row count.
    """
    _require(x.value.ndim >= 1, lambda: f"linear: input must be a vector, got {x.value.shape}")
    _require(weights.value.ndim == 2,
             lambda: f"linear: weights must be a matrix, got {weights.value.shape}")
    n, d = weights.value.shape
    _require(
        x.value.shape[-1] == d,
        lambda: f"linear: weights {weights.value.shape} do not accept input {x.value.shape}",
    )
    _require(
        bias.value.shape == (n,),
        lambda: f"linear: bias {bias.value.shape} does not match output dim {n}",
    )

    def push(g):
        rows = g.reshape(-1, n)
        _accum(weights, rows.T @ x.value.reshape(-1, d))
        _accum(bias, rows.sum(axis=0))
        _accum(x, g @ weights.value)

    xr = x.value.reshape(-1, d)
    count = len(xr)
    if count % 4:  # see "Row counts" above
        xr = np.concatenate([xr, np.zeros((-count % 4, d), xr.dtype)])
    out = (xr @ np.ascontiguousarray(weights.value.T))[:count]
    out += bias.value
    return Tensor(out.reshape(*x.value.shape[:-1], n), (weights, bias, x), push)


def spatial_sequence(a: Tensor) -> Tensor:
    """Read each H x W x C map of a B x H x W x C batch as H*W feature
    vectors in raster order: B x H*W x C, a view of a contiguous input."""
    _require(a.value.ndim == 4,
             lambda: f"spatial_sequence: expected a B,H,W,C batch, got {a.value.shape}")
    b, h, w, c = a.value.shape

    def push(g):
        _accum(a, g.reshape(a.value.shape))

    return Tensor(a.value.reshape(b, h * w, c), (a,), push)


# ---------------------------------------------------------------------------
# convolution


def conv_output_size(size: int, kernel: int, stride: int) -> int:
    """Spatial extent after a valid-padding convolution."""
    _require(kernel >= 1 and stride >= 1, lambda: f"conv: bad kernel {kernel} or stride {stride}")
    _require(size >= kernel, lambda: f"conv: input extent {size} smaller than kernel {kernel}")
    return (size - kernel) // stride + 1


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor, stride: int) -> Tensor:
    """2-d cross-correlation, valid padding, channel-last.

    ``x`` is a B x H x W x C batch, ``kernels`` is F x C x k x k, ``bias``
    is F.  Output is B x H' x W' x F with H' = (H - k) // stride + 1, a
    view of the N x F im2col product (N = B*H'*W'): row n of the N x k*k*C
    im2col matrix holds output pixel n's k x k patch as k runs of k*C
    values, each a contiguous piece of one input row, and the kernels are
    copied once per call into the matching k*k*C x F matrix.  The input
    gradient is added back along whole rows of C channels; at stride s,
    s neighbouring taps of a patch row land in adjacent input columns and
    are added as one s*C-wide row.  All three operands share one dtype.
    """
    _require(x.value.ndim == 4,
             lambda: f"conv2d: input must be a B,H,W,C batch, got {x.value.shape}")
    _require(kernels.value.ndim == 4,
             lambda: f"conv2d: kernels must be F,C,k,k, got {kernels.value.shape}")
    f, kc, kh, kw = kernels.value.shape
    xs = np.ascontiguousarray(x.value)
    b, h, w, c = xs.shape
    _require(kh == kw, lambda: f"conv2d: kernels must be square, got {kh}x{kw}")
    _require(kc == c, lambda: f"conv2d: kernel channels {kc} != input channels {c}")
    _require(bias.value.shape == (f,),
             lambda: f"conv2d: bias {bias.value.shape} != filter count {f}")
    dtype = xs.dtype
    _require(kernels.value.dtype == dtype and bias.value.dtype == dtype,
             lambda: f"conv2d: input {dtype}, kernels {kernels.value.dtype} and "
                     f"bias {bias.value.dtype} must share a dtype")
    ho = conv_output_size(h, kh, stride)
    wo = conv_output_size(w, kh, stride)
    n, kkc = b * ho * wo, kh * kh * c

    # C-order strides, computed: numpy calls an array contiguous whatever
    # the stride of a length-1 axis.  Taps v = 0..k-1 of all C channels of
    # one patch row are then k*C adjacent values.
    sc = xs.itemsize
    sw, sh, sb = c * sc, w * c * sc, h * w * c * sc
    patches = np.lib.stride_tricks.as_strided(
        xs, shape=(b, ho, wo, kh, kh * c), strides=(sb, sh * stride, sw * stride, sh, sc))
    col = _empty((n, kkc), dtype)
    np.copyto(col.reshape(b, ho, wo, kh, kh * c), patches)
    km = kernels.value.transpose(2, 3, 1, 0).reshape(kkc, f)  # rows in (u, v, c) order
    # one product per frame: a frame's map does not depend on its batch, and
    # OpenBLAS threads one B*H'*W'-row product over work buffers that stay
    # resident once touched (3.7 MB more RSS after the model's three conv
    # products at B = 16 than after the same work as per-frame products)
    prod = _empty((n, f), dtype)
    np.matmul(col.reshape(b, ho * wo, kkc), km, out=prod.reshape(b, ho * wo, f))
    prod += bias.value
    # an input that is neither a parameter nor computed (the image) needs no gradient
    input_grad = isinstance(x, Parameter) or bool(x.parents)

    def push(g):
        gm = g.reshape(n, f)
        # col.T @ gm, not gm.T @ col: with the long operand col as BLAS's
        # first, it runs 1.3-2x faster at the model's shapes
        # in C order: global_grad_norm sums in memory order, and sets the clip factor
        dk = (col.T @ gm).reshape(kh, kh, c, f).transpose(3, 2, 0, 1)
        _accum(kernels, np.ascontiguousarray(dk))
        _accum(bias, np.ones(n, dtype) @ gm)
        if not input_grad:
            return
        dcol = (gm @ km.T).reshape(b, ho, wo, kh, kh * c)
        dx = np.zeros((b, h, w, c), dtype)
        # taps v0..v0+m-1 (m <= stride) of output pixel j land in adjacent
        # input columns stride*j + v0..: one add of m*C-wide rows
        for u in range(kh):
            for v0 in range(0, kh, stride):
                m = min(stride, kh - v0)
                dst = np.lib.stride_tricks.as_strided(
                    dx[:, u:, v0:], shape=(b, ho, wo, m * c),
                    strides=(sb, sh * stride, sw * stride, sc))
                dst += dcol[:, :, :, u, v0 * c : (v0 + m) * c]
        _accum(x, dx)

    return Tensor(prod.reshape(b, ho, wo, f), (x, kernels, bias), push)


# ---------------------------------------------------------------------------
# gated recurrent cell


def gru_scan(xs: Tensor, h0: Tensor, wi: Tensor, wh: Tensor, bias: Tensor) -> Tensor:
    """Run a gated recurrent cell over S steps, as a single node.

    ``h0`` is the B x h batch of initial states, and the output is the
    B x S x h sequence of states, [b, t] being row b's state after
    consuming its input t.  ``xs`` is either B x S x d, one input
    sequence per row, or S x d, one sequence shared by every row
    (projected once, not B times).  The cell's three gate blocks are
    stacked row-wise in the order update, reset, candidate: the input
    weights ``wi`` are 3h x d, the hidden weights ``wh`` 3h x h and
    ``bias`` 3h.

    Every step's input projection is computed up front in one matmul;
    the loop over steps does only the recurrent part.  The loop keeps
    its arrays step-major (states are S+1 x B x h, gates S x B x ...),
    so each step reads and writes contiguous slices through ``out=``,
    and the output is a B x S x h view of the states.  The update and
    reset gates are computed as sigma(v) = tanh(v/2)/2 + 1/2: the gate
    columns of the input projection and the gate rows of the hidden
    weights are halved once per call, and since halving is exact in
    binary floating point, tanh sees exactly v/2; a saturated gate is
    exactly 0 or 1 and nothing can overflow.  The new state is
    h + z * (c - h).  The backward pass computes the gate derivatives of
    all steps before its loop, which then writes into preallocated
    buffers.
    """
    _require(wi.value.ndim == 2 and wi.value.shape[0] % 3 == 0,
             lambda: f"gru: input weights must be 3h x d, got {wi.value.shape}")
    hd, d = wi.value.shape[0] // 3, wi.value.shape[1]
    _require(wh.value.shape == (3 * hd, hd),
             lambda: f"gru: hidden weights must be {(3 * hd, hd)}, got {wh.value.shape}")
    _require(bias.value.shape == (3 * hd,),
             lambda: f"gru: biases must be ({3 * hd},), got {bias.value.shape}")
    _require(h0.value.ndim == 2 and h0.value.shape[1] == hd,
             lambda: f"gru_scan: state must be a B x {hd} batch, got {h0.value.shape}")
    _require(xs.value.ndim in (2, 3) and xs.value.shape[-1] == d,
             lambda: f"gru_scan: inputs must be S x {d} or B x S x {d}, got {xs.value.shape}")
    _require(xs.value.ndim == 2 or xs.value.shape[0] == h0.value.shape[0],
             lambda: f"gru_scan: input batch {xs.value.shape} does not match "
                     f"state {h0.value.shape}")
    _require(xs.value.shape[-2] >= 1, "gru_scan: no steps")
    hv = h0.value
    rows, steps = hv.shape[0], xs.value.shape[-2]
    shared = xs.value.ndim == 2
    half = hv.dtype.type(0.5)
    zr_cols, c_cols = slice(0, 2 * hd), slice(2 * hd, None)
    wh_zr, wh_c = wh.value[zr_cols], wh.value[c_cols]
    # step-major inputs, S x d or S x B x d, and every step's projection at once
    xv = xs.value if shared else np.ascontiguousarray(xs.value.swapaxes(0, 1))
    gi = (xv.reshape(-1, d) @ np.ascontiguousarray(wi.value.T)).reshape(*xv.shape[:-1], 3 * hd)
    gi += bias.value
    gi[..., zr_cols] *= half
    gi_zr, gi_c = gi[..., zr_cols], gi[..., c_cols]
    half_wh_zr_t = np.ascontiguousarray((wh_zr * half).T)
    wh_c_t = np.ascontiguousarray(wh_c.T)

    hs = np.empty((steps + 1, rows, hd), dtype=hv.dtype)  # hs[t] is the state before step t
    hs[0] = hv
    zr = np.empty((steps, rows, 2 * hd), dtype=hv.dtype)  # gate values, z then r
    cand = np.empty((steps, rows, hd), dtype=hv.dtype)
    rh = np.empty((steps, rows, hd), dtype=hv.dtype)
    for h_prev, h_next, zr_t, z, r, rh_t, c, gi_zr_t, gi_c_t in zip(
            hs[:-1], hs[1:], zr, zr[..., :hd], zr[..., hd:], rh, cand, gi_zr, gi_c):
        np.matmul(h_prev, half_wh_zr_t, out=zr_t)
        zr_t += gi_zr_t
        np.tanh(zr_t, out=zr_t)
        zr_t *= half
        zr_t += half
        np.multiply(r, h_prev, out=rh_t)
        np.matmul(rh_t, wh_c_t, out=c)
        c += gi_c_t
        np.tanh(c, out=c)
        np.subtract(c, h_prev, out=h_next)
        h_next *= z
        h_next += h_prev

    def push(g):
        gs = g.swapaxes(0, 1)  # S x B x h
        z, r = zr[..., :hd], zr[..., hd:]
        h_prevs = hs[:-1]
        # the gate derivatives of every step at once, outside the loop
        one_minus_z = 1.0 - z
        dc_gate = z * (1.0 - cand * cand)
        c_minus_h = cand - h_prevs
        dzr_gate = zr * (1.0 - zr)
        dpre = np.empty((steps, rows, 3 * hd), dtype=gi.dtype)  # gate pre-activations
        dh = np.zeros_like(hv)
        gt, drh, tmp = np.empty_like(dh), np.empty_like(dh), np.empty_like(dh)
        for t in reversed(range(steps)):
            dz, dr, dc = dpre[t, :, :hd], dpre[t, :, hd : 2 * hd], dpre[t, :, c_cols]
            dzr = dpre[t, :, zr_cols]
            np.add(gs[t], dh, out=gt)
            np.multiply(gt, one_minus_z[t], out=dh)
            np.multiply(gt, dc_gate[t], out=dc)
            np.matmul(dc, wh_c, out=drh)
            np.multiply(drh, r[t], out=tmp)
            dh += tmp
            np.multiply(gt, c_minus_h[t], out=dz)
            np.multiply(drh, h_prevs[t], out=dr)
            dzr *= dzr_gate[t]
            np.matmul(dzr, wh_zr, out=tmp)
            dh += tmp
        flat = dpre.reshape(steps * rows, 3 * hd)
        dwh = np.empty_like(wh.value)
        dwh[zr_cols] = flat[:, zr_cols].T @ h_prevs.reshape(steps * rows, hd)
        dwh[c_cols] = flat[:, c_cols].T @ rh.reshape(steps * rows, hd)
        _accum(wh, dwh)
        dgi = dpre.sum(axis=1) if shared else dpre  # shared inputs gather every row
        dgi_flat = dgi.reshape(-1, 3 * hd)
        _accum(wi, dgi_flat.T @ xv.reshape(-1, d))
        _accum(bias, dgi_flat.sum(axis=0))
        dx = (dgi_flat @ wi.value).reshape(xv.shape)
        _accum(xs, dx if shared else dx.swapaxes(0, 1))
        _accum(h0, dh)

    return Tensor(hs[1:].swapaxes(0, 1), (xs, h0, wi, wh, bias), push)


# ---------------------------------------------------------------------------
# classification head


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
             lambda: f"masked_cross_entropy: logits must be B x K x 2, got {v.shape}")
    _require(labels.shape == v.shape[:2],
             lambda: f"masked_cross_entropy: labels {labels.shape} do not match logits {v.shape}")
    _require(weights.shape == (v.shape[1],),
             lambda: f"masked_cross_entropy: weights {weights.shape} != ({v.shape[1]},)")
    _require(bool(((labels == -1) | (labels == 0) | (labels == 1)).all()),
             lambda: f"masked_cross_entropy: labels outside {{-1, 0, 1}}: "
                     f"{np.unique(labels).tolist()}")
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

    def push(g):
        d = p.copy()
        np.put_along_axis(d, target, np.take_along_axis(d, target, axis=2) - 1.0, axis=2)
        _accum(logits, d * (coef * g)[..., None])

    return Tensor(np.asarray((coef * ce).sum(), dtype=v.dtype), (logits,), push)


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
    _require(root.value.size == 1,
             lambda: f"backward: root must be scalar, got shape {root.value.shape}")
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
        p.grad = None


def gradient(p: Parameter) -> np.ndarray:
    """``p.grad``, or ContractViolation naming ``p`` if no backward pass reached it."""
    _require(p.grad is not None,
             lambda: f"{p.name!r} has no gradient: no backward pass reached it")
    return p.grad


def global_grad_norm(params) -> float:
    acc = 0.0
    for p in params:
        acc += float((gradient(p).astype(np.float64) ** 2).sum())
    return float(np.sqrt(acc))


@dataclass
class GradientCheckReport:
    """Worst finite-difference disagreement and where it occurred."""

    max_relative_error: float
    worst_parameter: str
    worst_index: tuple[int, ...]

    def location(self) -> str:
        return f"{self.worst_parameter}[{','.join(map(str, self.worst_index))}]"


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
    _require(len(params) > 0, "finite_difference_report: no parameters")
    for p in params:
        _require(
            p.value.dtype == np.float64,
            lambda: f"finite_difference_report: {p.name} is {p.value.dtype}, needs float64",
        )

    first = float(loss_fn().value)
    again = float(loss_fn().value)
    if first != again:
        raise NumericError(
            f"loss function is not deterministic ({first!r} vs {again!r}); "
            "finite differences would be meaningless"
        )

    zero_grads(params)
    backward(loss_fn())  # the loss_fn calls below build graphs but walk none
    grads = [gradient(p) for p in params]

    worst = 0.0
    where = (params[0].name, (0,) * params[0].value.ndim)
    for p, grad in zip(params, grads):
        for idx in np.ndindex(p.value.shape):
            orig = p.value[idx]
            p.value[idx] = orig + step
            up = float(loss_fn().value)
            p.value[idx] = orig - step
            down = float(loss_fn().value)
            p.value[idx] = orig
            estimate = (up - down) / (2.0 * step)
            a = float(grad[idx])
            rel = abs(a - estimate) / max(1e-8, abs(a) + abs(estimate))
            if rel > worst:
                worst = rel
                where = (p.name, tuple(int(i) for i in idx))
    return GradientCheckReport(worst, *where)
