"""Float64 equivalence of the engine's rewritten kernels with reference formulas.

Each check compares a value or gradient array with its reference by the
max-norm relative error, max |a - b| / max |b|, and demands at most
1e-13: re-ordered floating-point sums stay within a few units in the
last place, while any indexing slip (a swapped axis, a wrong tap, a
shifted step) gives an error of order 1.  Every check runs over 40
random shapes, including a batch of one, one output position or step,
strides 1 and 2.  These
checks must hold on every BLAS kernel, so CI runs them on a second one.
"""

import numpy as np
import pytest

import audet.tensor as T
from audet.tensor import Parameter

from conftest import weighted_sum

BOUND = 1e-13
CASES = 40


def _agree(got, want, what):
    scale = np.max(np.abs(want))
    err = np.max(np.abs(got - want)) / scale if scale > 0 else np.max(np.abs(got))
    assert got.shape == want.shape, (what, got.shape, want.shape)
    assert err <= BOUND, f"{what}: relative error {err:.3e} > {BOUND:.0e}"


# ---------------------------------------------------------------------------
# conv2d: channel-last against a B x C x H x W reference


def _conv_nchw(x, k, bias, stride, g):
    """Value and gradients (x, kernels, bias) of sum(g * conv(x)) in the
    B x C x H x W layout, from strided patches and einsum."""
    b, c, h, w = x.shape
    f, _, kh, _ = k.shape
    ho, wo = (h - kh) // stride + 1, (w - kh) // stride + 1
    sb, sc, sh, sw = x.strides
    patches = np.lib.stride_tricks.as_strided(
        x, shape=(b, c, ho, wo, kh, kh), strides=(sb, sc, sh * stride, sw * stride, sh, sw))
    out = np.einsum("bcijuv,fcuv->bfij", patches, k) + bias[None, :, None, None]
    dk = np.einsum("bfij,bcijuv->fcuv", g, patches)
    dbias = g.sum(axis=(0, 2, 3))
    dx = np.zeros_like(x)
    for u in range(kh):
        for v in range(kh):
            dx[:, :, u : u + (ho - 1) * stride + 1 : stride,
                     v : v + (wo - 1) * stride + 1 : stride] += np.einsum(
                "bfij,fc->bcij", g, k[:, :, u, v])
    return out, dx, dk, dbias


def _conv_shapes():
    rng = np.random.default_rng(2020)
    shapes = []
    for i in range(CASES):
        stride = (1, 2)[i % 2] if i < 30 else int(rng.integers(1, 4))
        kside = int(rng.integers(1, 6))
        # a batch of one, and one output position, each in a few cases
        batch = 1 if i % 5 == 0 else int(rng.integers(2, 5))
        ho = 1 if i % 7 == 0 else int(rng.integers(1, 6))
        wo = 1 if i % 7 == 0 else int(rng.integers(1, 6))
        h = (ho - 1) * stride + kside + int(rng.integers(0, stride))
        w = (wo - 1) * stride + kside + int(rng.integers(0, stride))
        shapes.append((batch, int(rng.integers(1, 6)), h, w, int(rng.integers(1, 6)),
                       kside, stride))
    return shapes


@pytest.mark.parametrize("case", range(CASES))
def test_channel_last_conv2d_matches_the_nchw_formula(case):
    batch, c, h, w, f, kside, stride = _conv_shapes()[case]
    rng = np.random.default_rng(case)
    x = rng.uniform(-1, 1, (batch, c, h, w))
    k = rng.uniform(-1, 1, (f, c, kside, kside))
    bias = rng.uniform(-1, 1, f)
    ho, wo = (h - kside) // stride + 1, (w - kside) // stride + 1
    g = rng.uniform(-1, 1, (batch, f, ho, wo))
    want = _conv_nchw(x, k, bias, stride, g)

    xp = Parameter(np.ascontiguousarray(x.transpose(0, 2, 3, 1)), "x")
    kp, bp = Parameter(k.copy(), "k"), Parameter(bias.copy(), "b")
    out = T.conv2d(xp, kp, bp, stride)
    T.backward(weighted_sum(out, g.transpose(0, 2, 3, 1)))
    _agree(out.value.transpose(0, 3, 1, 2), want[0], "value")
    _agree(xp.grad.transpose(0, 3, 1, 2), want[1], "input gradient")
    _agree(kp.grad, want[2], "kernel gradient")
    _agree(bp.grad, want[3], "bias gradient")


def test_conv_shapes_cover_the_edge_cases():
    shapes = _conv_shapes()
    assert any(s[0] == 1 for s in shapes)
    assert any((s[2] - s[5]) // s[6] == 0 and (s[3] - s[5]) // s[6] == 0 for s in shapes)
    assert {1, 2} <= {s[6] for s in shapes}


# ---------------------------------------------------------------------------
# gru_scan: the lean backward against the per-step loop it replaced


def _scan_reference(xs, h0, wi, wh, bias, g):
    """States and gradients (xs, h0, wi, wh, bias) of sum(g * states), by
    the step-major loop with per-step temporaries that the lean backward
    replaced."""
    hd = h0.shape[1]
    rows, steps = h0.shape[0], len(xs)
    zr_cols, c_cols = slice(0, 2 * hd), slice(2 * hd, None)
    wh_zr, wh_c = wh[zr_cols], wh[c_cols]
    gi = xs @ wi.T + bias
    gi[:, zr_cols] *= 0.5
    hs = np.empty((steps + 1, rows, hd))
    hs[0] = h0
    zr = np.empty((steps, rows, 2 * hd))
    cand = np.empty((steps, rows, hd))
    rh = np.empty((steps, rows, hd))
    for t in range(steps):
        zr[t] = np.tanh(hs[t] @ (wh_zr * 0.5).T + gi[t, zr_cols]) * 0.5 + 0.5
        z, r = zr[t, :, :hd], zr[t, :, hd:]
        rh[t] = r * hs[t]
        cand[t] = np.tanh(rh[t] @ wh_c.T + gi[t, c_cols])
        hs[t + 1] = hs[t] + z * (cand[t] - hs[t])

    gs = g.swapaxes(0, 1)
    dpre = np.empty((steps, rows, 3 * hd))
    dh = np.zeros_like(h0)
    for t in reversed(range(steps)):
        h_prev, c, zr_t = hs[t], cand[t], zr[t]
        z, r = zr_t[:, :hd], zr_t[:, hd:]
        dz, dr, dc = dpre[t, :, :hd], dpre[t, :, hd : 2 * hd], dpre[t, :, c_cols]
        gt = gs[t] + dh
        dh = gt * (1.0 - z)
        np.multiply(gt, z, out=dc)
        dc *= 1.0 - c * c
        drh = dc @ wh_c
        dh += drh * r
        np.subtract(c, h_prev, out=dz)
        dz *= gt
        np.multiply(drh, h_prev, out=dr)
        dzr = dpre[t, :, zr_cols]
        dzr *= zr_t * (1.0 - zr_t)
        dh += dzr @ wh_zr
    flat = dpre.reshape(steps * rows, 3 * hd)
    dwh = np.empty_like(wh)
    dwh[zr_cols] = flat[:, zr_cols].T @ hs[:-1].reshape(steps * rows, hd)
    dwh[c_cols] = flat[:, c_cols].T @ rh.reshape(steps * rows, hd)
    dgi = dpre.sum(axis=1)
    return hs[1:].swapaxes(0, 1), dgi @ wi, dh, dgi.T @ xs, dwh, dgi.sum(axis=0)


def _scan_shapes():
    rng = np.random.default_rng(2021)
    return [(1 if i % 5 == 0 else int(rng.integers(2, 6)),     # rows
             1 if i % 7 == 0 else int(rng.integers(2, 9)),     # steps
             int(rng.integers(1, 7)), int(rng.integers(1, 7)))  # input and state width
            for i in range(CASES)]


@pytest.mark.parametrize("case", range(CASES))
def test_lean_scan_backward_matches_the_per_step_loop(case):
    rows, steps, d, hd = _scan_shapes()[case]
    rng = np.random.default_rng(100 + case)
    xs = rng.uniform(-1, 1, (steps, d))
    h0 = rng.uniform(-1, 1, (rows, hd))
    wi, wh = rng.uniform(-1, 1, (3 * hd, d)), rng.uniform(-1, 1, (3 * hd, hd))
    bias = rng.uniform(-1, 1, 3 * hd)
    g = rng.uniform(-1, 1, (rows, steps, hd))
    want = _scan_reference(xs, h0, wi, wh, bias, g)

    xp, hp = Parameter(xs.copy(), "xs"), Parameter(h0.copy(), "h0")
    cell = (Parameter(wi.copy(), "wi"), Parameter(wh.copy(), "wh"), Parameter(bias.copy(), "b"))
    states = T.gru_scan(xp, hp, *cell)
    T.backward(weighted_sum(states, g))
    got = (states.value, xp.grad, hp.grad, *(p.grad for p in cell))
    for what, a, b in zip(("states", "inputs", "h0", "input weights", "hidden weights",
                           "biases"), got, want):
        _agree(a, b, what)


def test_scan_shapes_cover_the_edge_cases():
    shapes = _scan_shapes()
    assert any(s[0] == 1 for s in shapes) and any(s[1] == 1 for s in shapes)
