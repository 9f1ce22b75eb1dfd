"""Engine tests: hand-computed cases, per-primitive gradient checks,
and the structural properties every op must satisfy."""

import numpy as np
import pytest

import audet.tensor as T
from audet.errors import ContractViolation, EmptyBatchError, NumericError
from audet.tensor import Parameter, Tensor

from conftest import gru_cell, weighted_sum


def _param(rng, shape, name, lo=-1.0, hi=1.0):
    return Parameter(rng.uniform(lo, hi, shape), name)


def _check(loss_fn, params, bound=1e-5):
    worst = T.finite_difference_report(loss_fn, params, 1e-3).max_relative_error
    assert worst <= bound, f"max relative error {worst:.3e} > {bound:.0e}"


# ---------------------------------------------------------------------------
# hand cases


def test_conv2d_scalar_kernel_scales_input():
    x = Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]])[..., None])
    k = Tensor(np.full((1, 1, 1, 1), 2.0))
    b = Tensor(np.zeros(1))
    out = T.conv2d(x, k, b, stride=1)
    np.testing.assert_array_equal(out.value[..., 0], [[[2.0, 4.0], [6.0, 8.0]]])


def test_conv2d_zero_kernels_zero_output():
    rng = np.random.default_rng(0)
    x = Tensor(rng.uniform(-1, 1, (1, 6, 6, 3)))
    k = Tensor(np.zeros((2, 3, 3, 3)))
    b = Tensor(np.zeros(2))
    out = T.conv2d(x, k, b, stride=1)
    np.testing.assert_array_equal(out.value, np.zeros((1, 4, 4, 2)))


def test_conv2d_identity_diagonal_kernel():
    x = Tensor(np.arange(1.0, 10.0).reshape(1, 3, 3, 1))
    k = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]).reshape(1, 1, 2, 2))
    b = Tensor(np.zeros(1))
    out = T.conv2d(x, k, b, stride=1)
    np.testing.assert_array_equal(out.value[..., 0], [[[6.0, 8.0], [12.0, 14.0]]])


def _conv_reference(x, k, bias, stride):
    # independent nested-loop cross-correlation of a C x H x W map; F x H' x W' out
    f, c, kh, _ = k.shape
    _, h, w = x.shape
    ho = (h - kh) // stride + 1
    wo = (w - kh) // stride + 1
    out = np.zeros((f, ho, wo))
    for o in range(f):
        for i in range(ho):
            for j in range(wo):
                acc = bias[o]
                for ch in range(c):
                    for u in range(kh):
                        for v in range(kh):
                            acc += x[ch, i * stride + u, j * stride + v] * k[o, ch, u, v]
                out[o, i, j] = acc
    return out


@pytest.mark.parametrize("stride,size,kside", [(1, 5, 3), (2, 7, 3), (2, 8, 5), (3, 9, 2)])
def test_conv2d_matches_nested_loop_reference(stride, size, kside):
    rng = np.random.default_rng(stride * 100 + size)
    x = rng.uniform(-1, 1, (3, size, size))
    k = rng.uniform(-1, 1, (4, 3, kside, kside))
    b = rng.uniform(-1, 1, 4)
    out = T.conv2d(Tensor(x.transpose(1, 2, 0)[None]), Tensor(k), Tensor(b), stride)
    np.testing.assert_allclose(out.value[0].transpose(2, 0, 1), _conv_reference(x, k, b, stride),
                               atol=1e-12)


def _one_step(x, h, cell):
    """One step of a gated cell for a single example: a one-step scan over a batch of one."""
    return T.gru_scan(Tensor(x[None]), Tensor(h[None]), *cell).value[0, 0]


def test_gru_cell_zero_params_halves_state():
    cell = gru_cell(4, 3)
    h = np.array([0.4, -1.0, 0.6])
    out = _one_step(np.array([0.3, -0.8, 0.1, 0.9]), h, cell)
    np.testing.assert_allclose(out, 0.5 * h, atol=1e-15)


def test_gru_cell_zero_params_zero_state():
    cell = gru_cell(2, 3)
    out = _one_step(np.array([1.0, -2.0]), np.zeros(3), cell)
    np.testing.assert_array_equal(out, np.zeros(3))


def _gru_reference(x, h, wi, wh, b):
    # scalar-by-scalar evaluation of the four cell equations
    hd = len(h)
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    out = np.zeros(hd)
    z = np.zeros(hd)
    r = np.zeros(hd)
    for i in range(hd):
        az = b[i] + sum(wi[i][j] * x[j] for j in range(len(x)))
        az += sum(wh[i][j] * h[j] for j in range(hd))
        z[i] = sig(az)
        ar = b[hd + i] + sum(wi[hd + i][j] * x[j] for j in range(len(x)))
        ar += sum(wh[hd + i][j] * h[j] for j in range(hd))
        r[i] = sig(ar)
    for i in range(hd):
        ac = b[2 * hd + i] + sum(wi[2 * hd + i][j] * x[j] for j in range(len(x)))
        ac += sum(wh[2 * hd + i][j] * r[j] * h[j] for j in range(hd))
        out[i] = (1.0 - z[i]) * h[i] + z[i] * np.tanh(ac)
    return out


def test_gru_cell_matches_scalar_reference():
    rng = np.random.default_rng(11)
    cell = (
        _param(rng, (9, 4), "wi"), _param(rng, (9, 3), "wh"), _param(rng, (9,), "b")
    )
    x = rng.uniform(-1, 1, 4)
    h = rng.uniform(-1, 1, 3)
    out = _one_step(x, h, cell)
    ref = _gru_reference(x, h, *(p.value for p in cell))
    np.testing.assert_allclose(out, ref, atol=1e-12)


def _single_label_loss(logits, label):
    """Cross entropy of one 2-way logit pair: a batch of one frame with one known label."""
    return T.masked_cross_entropy(logits, np.array([[label]]), np.ones(1))


def test_softmax_equal_logits_gives_ln2():
    for label in (0, 1):
        loss = _single_label_loss(Tensor(np.zeros((1, 1, 2))), label)
        np.testing.assert_allclose(float(loss.value), np.log(2.0), atol=1e-15)


def test_softmax_shift_invariance():
    # integer-valued inputs keep logits + c exact in floating point
    logits = np.array([3.0, -1.0]).reshape(1, 1, 2)
    for c in (0.0, 5.0, -117.0, 4096.0):
        base, shifted = Parameter(logits, "base"), Parameter(logits + c, "shifted")
        l0, l1 = _single_label_loss(base, 1), _single_label_loss(shifted, 1)
        np.testing.assert_array_equal(l0.value, l1.value)
        T.backward(l0)
        T.backward(l1)
        np.testing.assert_array_equal(base.grad, shifted.grad)


def test_softmax_confident_decision_tiny_loss():
    loss = _single_label_loss(Tensor(np.array([10.0, -10.0]).reshape(1, 1, 2)), 0)
    np.testing.assert_allclose(float(loss.value), 2.061153622e-09, rtol=1e-6)


def test_backprop_linear_gradient_is_input():
    w = Parameter(np.array([[2.0]]), "w")
    out = weighted_sum(T.linear(w, Tensor(np.zeros(1)), Tensor(np.array([3.0]))))
    T.backward(out)
    np.testing.assert_array_equal(w.grad, [[3.0]])


def test_backprop_tanh_gradient_at_zero():
    w = Parameter(np.array([0.0]), "w")
    T.backward(weighted_sum(T.tanh(w)))
    np.testing.assert_array_equal(w.grad, [1.0])


def _square_sum(w):
    """Scalar node sum(w ** 2), with its exact gradient 2w."""

    def push(g):
        T._accum(w, 2.0 * w.value * g)

    return Tensor(np.asarray((w.value ** 2).sum()), (w,), push)


def test_fd_quadratic_estimate_matches_analytic():
    w = Parameter(np.array([1.0]), "w")
    worst = T.finite_difference_report(lambda: _square_sum(w), [w], 1e-3).max_relative_error
    # estimate (1.001^2 - 0.999^2) / 2e-3 = 2.0 exactly; analytic 2.0
    assert worst < 2.5e-7
    up = (1.0 + 1e-3) ** 2
    down = (1.0 - 1e-3) ** 2
    assert abs((up - down) / 2e-3 - 2.0) < 1e-6


def test_fd_constant_loss_zero_error():
    w = Parameter(np.array([0.7]), "w")
    worst = T.finite_difference_report(lambda: weighted_sum(w, 0.0), [w], 1e-3).max_relative_error
    assert worst == 0.0


# ---------------------------------------------------------------------------
# per-primitive gradient checks (isolated, float64, inputs in [-1, 1])


def test_grad_relu():
    rng = np.random.default_rng(22)
    vals = rng.uniform(-1, 1, 40)
    # keep inputs away from the kink, where the true gradient is undefined
    # and a finite step straddles two linear pieces
    vals = np.where(np.abs(vals) < 0.05, 0.25 * np.sign(vals) + vals, vals)
    a = Parameter(vals, "a")
    weights = rng.uniform(-1, 1, 40)
    _check(lambda: weighted_sum(T.relu(a), weights), [a])


def test_grad_tanh():
    rng = np.random.default_rng(23)
    a = _param(rng, (7,), "a")
    _check(lambda: weighted_sum(T.tanh(a)), [a])


def test_grad_concat():
    rng = np.random.default_rng(24)
    a = _param(rng, (3,), "a")
    b = _param(rng, (4,), "b")
    weights = rng.uniform(-1, 1, 7)
    _check(lambda: weighted_sum(T.concat([a, b]), weights), [a, b])


def test_grad_concat_named_axis():
    rng = np.random.default_rng(29)
    a = _param(rng, (2, 3), "a")
    b = _param(rng, (2, 2), "b")
    weights = rng.uniform(-1, 1, (2, 5))
    _check(lambda: weighted_sum(T.concat([a, b]), weights), [a, b])


def test_grad_row_and_spatial_sequence():
    rng = np.random.default_rng(25)
    m = _param(rng, (4, 3), "m")
    weights = rng.uniform(-1, 1, 3)
    _check(lambda: weighted_sum(T.row(m, 2), weights), [m])
    cube = _param(rng, (1, 3, 3, 2), "cube")
    wseq = rng.uniform(-1, 1, (1, 9, 2))
    _check(lambda: weighted_sum(T.spatial_sequence(cube), wseq), [cube])


def test_grad_linear():
    rng = np.random.default_rng(26)
    wv = rng.uniform(-1, 1, 3)
    w = _param(rng, (3, 4), "w")
    bias = _param(rng, (3,), "bias")
    x = _param(rng, (4,), "x")
    _check(lambda: weighted_sum(T.linear(w, bias, x), wv), [w, bias, x])


def test_grad_conv2d():
    rng = np.random.default_rng(27)
    x = _param(rng, (1, 6, 6, 2), "x")
    k = _param(rng, (3, 2, 3, 3), "k")
    b = _param(rng, (3,), "b")
    weights = rng.uniform(-1, 1, (1, 4, 4, 3))
    _check(lambda: weighted_sum(T.conv2d(x, k, b, 1), weights), [x, k, b])


def test_grad_gru_cell_and_chain():
    rng = np.random.default_rng(28)
    cell = (
        _param(rng, (9, 4), "wi"), _param(rng, (9, 3), "wh"), _param(rng, (9,), "b")
    )
    # one step for one example: a 1 x d input shared by a batch of one state
    x = _param(rng, (1, 4), "x")
    h = _param(rng, (1, 3), "h")
    weights = rng.uniform(-1, 1, (1, 1, 3))
    _check(lambda: weighted_sum(T.gru_scan(x, h, *cell), weights),
           [x, h] + list(cell))

    seq = [_param(rng, (1, 4), f"s{t}") for t in range(3)]

    def chain():
        state = Tensor(np.zeros((1, 3)))
        for t in range(3):
            state = T.row(T.gru_scan(seq[t], state, *cell), 0)
        return weighted_sum(state, weights[0])

    _check(chain, seq + list(cell))


# ---------------------------------------------------------------------------
# properties


def test_output_shapes_total_function_of_input_shapes():
    rng = np.random.default_rng(40)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        k = int(rng.integers(1, 9))
        a = Tensor(rng.uniform(-1, 1, (n,)))
        assert T.relu(a).shape == (n,)
        assert T.tanh(a).shape == (n,)
        assert T.concat([a, Tensor(rng.uniform(-1, 1, (m,)))]).shape == (n + m,)
        mat = Tensor(rng.uniform(-1, 1, (n, m)))
        assert T.row(mat, n - 1).shape == (m,)
        assert T.linear(mat, Tensor(rng.uniform(-1, 1, (n,))),
                        Tensor(rng.uniform(-1, 1, (m,)))).shape == (n,)
        cube = Tensor(rng.uniform(-1, 1, (2, n, m, k)))
        assert T.spatial_sequence(cube).shape == (2, n * m, k)
        size = int(rng.integers(3, 10))
        kside = int(rng.integers(1, size + 1))
        stride = int(rng.integers(1, 4))
        x = Tensor(rng.uniform(-1, 1, (k, size, size, 2)))
        kern = Tensor(rng.uniform(-1, 1, (3, 2, kside, kside)))
        out = T.conv2d(x, kern, Tensor(rng.uniform(-1, 1, 3)), stride)
        expect = (size - kside) // stride + 1
        assert out.shape == (k, expect, expect, 3)


def test_shape_mismatch_names_offender():
    with pytest.raises(ContractViolation, match=r"weights \(2, 3\) do not accept input \(4,\)"):
        T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)), Tensor(np.zeros(4)))
    with pytest.raises(ContractViolation, match="kernel channels"):
        T.conv2d(Tensor(np.zeros((1, 5, 5, 2))), Tensor(np.zeros((1, 3, 2, 2))),
                 Tensor(np.zeros(1)), 1)
    with pytest.raises(ContractViolation, match="smaller than kernel"):
        T.conv2d(Tensor(np.zeros((1, 2, 2, 1))), Tensor(np.zeros((1, 1, 3, 3))),
                 Tensor(np.zeros(1)), 1)


def test_softmax_sums_to_one_across_precisions():
    # the loss gradient of one logit pair is p - onehot(label), so its
    # two entries sum to p0 + p1 - 1
    rng = np.random.default_rng(41)
    for _ in range(50):
        v = rng.uniform(-50, 50, 2).reshape(1, 1, 2)
        for dtype, bound in ((np.float64, 1e-12), (np.float32, 1e-6)):
            logits = Parameter(v.astype(dtype), "logits")
            T.backward(_single_label_loss(logits, 0))
            assert logits.grad.dtype == dtype
            assert abs(float(logits.grad.sum())) <= bound


def test_gru_output_bounded_by_state_and_candidate():
    rng = np.random.default_rng(42)
    for trial in range(30):
        cell = (
            _param(rng, (12, 5), "wi"), _param(rng, (12, 4), "wh"), _param(rng, (12,), "b")
        )
        x = rng.uniform(-1, 1, 5)
        h = rng.uniform(-1, 1, 4)
        out = _one_step(x, h, cell)
        # recover the candidate from the same equations
        hd = 4
        wi, wh, b = (p.value for p in cell)
        gi = wi @ x + b
        r = 1.0 / (1.0 + np.exp(-(gi[hd : 2 * hd] + wh[hd : 2 * hd] @ h)))
        cand = np.tanh(gi[2 * hd :] + wh[2 * hd :] @ (r * h))
        lo = np.minimum(h, cand) - 1e-12
        hi = np.maximum(h, cand) + 1e-12
        assert np.all(out >= lo) and np.all(out <= hi)
        assert np.all(np.abs(out) <= 1.0 + 1e-12)


def test_forward_is_bitwise_deterministic():
    rng = np.random.default_rng(43)
    x = rng.uniform(-1, 1, (2, 8, 8, 2))
    k = rng.uniform(-1, 1, (3, 2, 3, 3))
    b = rng.uniform(-1, 1, 3)

    def run():
        h = T.conv2d(Tensor(x.copy()), Tensor(k.copy()), Tensor(b.copy()), 2)
        seq = T.spatial_sequence(T.relu(h))
        cell = (
            Parameter(np.tile(np.linspace(-0.3, 0.3, 9)[:, None], (1, 3)), "wi"),
            Parameter(np.tile(np.linspace(0.2, -0.2, 9)[:, None], (1, 3)), "wh"),
            Parameter(np.linspace(-0.1, 0.1, 9), "b"),
        )
        states = T.gru_scan(seq, Tensor(np.zeros((2, 3))), *cell)
        return T.row(states, states.shape[1] - 1).value

    np.testing.assert_array_equal(run(), run())


def test_backward_rejects_non_scalar_root():
    with pytest.raises(ContractViolation, match="scalar"):
        T.backward(Tensor(np.zeros(3)))


def test_gradients_accumulate_until_reset():
    w = Parameter(np.array([2.0]), "w")
    T.backward(weighted_sum(w, 3.0))
    T.backward(weighted_sum(w, 3.0))
    np.testing.assert_array_equal(w.grad, [6.0])
    T.zero_grads([w])
    assert w.grad is None


def test_fd_check_rejects_nondeterministic_loss():
    rng = np.random.default_rng(44)
    w = Parameter(np.array([1.0]), "w")

    def noisy():
        return weighted_sum(w, rng.uniform())

    with pytest.raises(NumericError, match="not deterministic"):
        T.finite_difference_report(noisy, [w], 1e-3)


def test_fd_check_names_a_parameter_no_backward_pass_reaches():
    w = Parameter(np.array([1.0]), "w")
    unused = Parameter(np.array([2.0]), "unused")
    with pytest.raises(ContractViolation,
                       match="'unused' has no gradient: no backward pass reached it"):
        T.finite_difference_report(lambda: weighted_sum(w), [w, unused], 1e-3)


def test_fd_check_requires_float64():
    w = Parameter(np.array([1.0], dtype=np.float32), "w")
    with pytest.raises(ContractViolation, match="float64"):
        T.finite_difference_report(lambda: weighted_sum(w), [w], 1e-3)


# ---------------------------------------------------------------------------
# batch axis


def test_grad_batched_linear():
    rng = np.random.default_rng(50)
    w = _param(rng, (3, 4), "w")
    bias = _param(rng, (3,), "bias")
    x = _param(rng, (5, 4), "x")
    weights = rng.uniform(-1, 1, (5, 3))
    _check(lambda: weighted_sum(T.linear(w, bias, x), weights), [w, bias, x])
    # rows are independent: each equals the unbatched call
    out = T.linear(w, bias, x).value
    for i in range(5):
        np.testing.assert_allclose(out[i], T.linear(w, bias, Tensor(x.value[i])).value,
                                   rtol=1e-14, atol=1e-15)


def test_grad_batched_conv2d_stride_two():
    rng = np.random.default_rng(51)
    x = _param(rng, (3, 7, 7, 2), "x")
    k = _param(rng, (4, 2, 3, 3), "k")
    b = _param(rng, (4,), "b")
    weights = rng.uniform(-1, 1, (3, 3, 3, 4))
    _check(lambda: weighted_sum(T.conv2d(x, k, b, 2), weights), [x, k, b])
    out = T.conv2d(x, k, b, 2).value
    for i in range(3):
        np.testing.assert_allclose(
            out[i].transpose(2, 0, 1),
            _conv_reference(x.value[i].transpose(2, 0, 1), k.value, b.value, 2), atol=1e-12)


def test_conv2d_skips_gradient_of_constant_input():
    rng = np.random.default_rng(52)
    x = Tensor(rng.uniform(-1, 1, (2, 5, 5, 2)))
    k = _param(rng, (3, 2, 3, 3), "k")
    T.backward(weighted_sum(T.conv2d(x, k, Tensor(np.zeros(3)), 1)))
    assert x.grad is None
    assert np.abs(k.grad).sum() > 0


def _cell(rng, d, h):
    # weights in [-0.5, 0.5], as in the acceptance sweep: over several steps,
    # unit-scale weights let step-1e-3 truncation error pass 1e-5 on the
    # smallest gradients (it shrinks with the step squared)
    return gru_cell(d, h, lambda shape: rng.uniform(-0.5, 0.5, shape))


def test_grad_gru_scan_per_row_inputs():
    rng = np.random.default_rng(53)
    cell = _cell(rng, 4, 3)
    xs = _param(rng, (2, 5, 4), "xs")
    h0 = _param(rng, (2, 3), "h0")
    weights = rng.uniform(-1, 1, (2, 5, 3))
    _check(lambda: weighted_sum(T.gru_scan(xs, h0, *cell), weights),
           [xs, h0] + list(cell))


def test_grad_gru_scan_shared_inputs():
    rng = np.random.default_rng(54)
    cell = _cell(rng, 4, 3)
    xs = _param(rng, (5, 4), "xs")
    h0 = _param(rng, (3, 3), "h0")
    weights = rng.uniform(-1, 1, (3, 5, 3))
    _check(lambda: weighted_sum(T.gru_scan(xs, h0, *cell), weights),
           [xs, h0] + list(cell))


def test_gru_scan_matches_chain_of_cells():
    rng = np.random.default_rng(55)
    cell = _cell(rng, 4, 3)
    xs = rng.uniform(-1, 1, (2, 6, 4))
    h0 = rng.uniform(-1, 1, (2, 3))
    states = T.gru_scan(Tensor(xs), Tensor(h0), *cell).value
    assert states.shape == (2, 6, 3)
    for i in range(2):
        h = Tensor(h0[i : i + 1])
        for t in range(6):
            h = T.row(T.gru_scan(Tensor(xs[i, t : t + 1]), h, *cell), 0)
            ref = _gru_reference(xs[i, t], states[i, t - 1] if t else h0[i],
                                 *(p.value for p in cell))
            np.testing.assert_allclose(states[i, t], h.value[0], rtol=1e-13, atol=1e-14)
            np.testing.assert_allclose(states[i, t], ref, atol=1e-12)
    shared = T.gru_scan(Tensor(xs[0]), Tensor(h0), *cell).value
    np.testing.assert_allclose(shared[0], states[0], rtol=1e-13, atol=1e-14)
    single = T.gru_scan(Tensor(xs[1]), Tensor(h0[1:]), *cell).value
    assert single.shape == (1, 6, 3)
    np.testing.assert_allclose(single[0], states[1], rtol=1e-13, atol=1e-14)


def test_grad_masked_cross_entropy():
    rng = np.random.default_rng(56)
    logits = _param(rng, (4, 3, 2), "logits")
    labels = np.array([[1, 0, -1], [-1, -1, -1], [0, 1, 1], [-1, 1, 0]], dtype=np.int8)
    weights = np.array([2.5, 1.0, 4.0])
    _check(lambda: T.masked_cross_entropy(logits, labels, weights), [logits])


def test_masked_cross_entropy_means_frames_then_batch():
    rng = np.random.default_rng(57)
    raw = rng.normal(size=(3, 8, 2)) * 3.0
    labels = rng.integers(-1, 2, size=(3, 8)).astype(np.int8)
    labels[1] = -1
    labels[0, 0] = 1
    labels[2, 3] = 0
    weights = rng.uniform(1.0, 10.0, size=8)
    loss = T.masked_cross_entropy(Tensor(raw), labels, weights)
    per_frame = []
    for b in (0, 2):
        # float64 log-sum-exp of the pair minus the labelled logit
        terms = [(np.logaddexp(*raw[b, k]) - raw[b, k, labels[b, k]])
                 * (weights[k] if labels[b, k] == 1 else 1.0)
                 for k in range(8) if labels[b, k] != -1]
        per_frame.append(sum(terms) / len(terms))
    np.testing.assert_allclose(float(loss.value), sum(per_frame) / 2, rtol=1e-13)
    with pytest.raises(EmptyBatchError):
        T.masked_cross_entropy(Tensor(raw), np.full((3, 8), -1, np.int8), weights)
    with pytest.raises(ContractViolation, match="outside"):
        T.masked_cross_entropy(Tensor(raw), np.full((3, 8), 2, np.int8), weights)



def test_logistic_is_bitwise_the_two_division_form():
    def two_divisions(v):  # the former formula, one division per side
        e = np.exp(-np.abs(v))
        return np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    rng = np.random.default_rng(61)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e4, -1e4, 1e-45, -1e-45]
    for dtype in (np.float32, np.float64):
        v = np.concatenate([special, rng.uniform(-1e4, 1e4, 40_000),
                            rng.uniform(-100, 100, 30_000), rng.normal(0, 5, 30_000)]).astype(dtype)
        got, want = T.logistic(v), two_divisions(v)
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()


def test_label_check_gives_the_verdict_of_isin_on_every_dtype():
    logits, weights = Tensor(np.zeros((2, 3, 2))), np.ones(3)
    cases = [np.array([[1, 0, -1], [0, 1, 1]], dtype) for dtype in (np.int8, np.int64)]
    cases += [np.array([[1, 0, 2], [0, 1, 1]], np.int8),
              np.array([[1, 0, -2], [0, 1, 1]], np.int64),
              np.array([[1, 0.5, 0], [0, 1, 1]]),
              np.array([[1, np.nan, 0], [0, 1, 1]]),
              np.array([[True, False, True], [False, False, True]])]
    verdicts = []
    for labels in cases:
        try:
            T.masked_cross_entropy(logits, labels, weights)
            verdicts.append(True)
        except ContractViolation as err:
            assert "labels outside {-1, 0, 1}" in str(err)
            verdicts.append(False)
    assert verdicts == [bool(np.isin(labels, (-1, 0, 1)).all()) for labels in cases]
    assert verdicts == [True] * 2 + [False] * 4 + [True]

def test_batch_extents_must_agree():
    rng = np.random.default_rng(58)
    cell = _cell(rng, 4, 3)
    with pytest.raises(ContractViolation, match="batch"):
        T.gru_scan(Tensor(np.zeros((2, 5, 4))), Tensor(np.zeros((3, 3))), *cell)
    with pytest.raises(ContractViolation, match="state must be a B x 3 batch"):
        T.gru_scan(Tensor(np.zeros((2, 5, 4))), Tensor(np.zeros(3)), *cell)
    with pytest.raises(ContractViolation, match="state must be a B x 3 batch"):
        T.gru_scan(Tensor(np.zeros((5, 4))), Tensor(np.zeros(3)), *cell)
    with pytest.raises(ContractViolation, match="labels"):
        T.masked_cross_entropy(Tensor(np.zeros((2, 8, 2))), np.zeros((3, 8), np.int8),
                               np.ones(8))
    with pytest.raises(ContractViolation, match="incompatible"):
        T.concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3)))])
    for shape in ((2, 5, 5), (1, 2, 2, 5, 5)):
        with pytest.raises(ContractViolation, match="conv2d: input must be a B,H,W,C batch"):
            T.conv2d(Tensor(np.zeros(shape)), Tensor(np.zeros((1, 2, 3, 3))),
                     Tensor(np.zeros(1)), 1)
        with pytest.raises(ContractViolation, match="spatial_sequence"):
            T.spatial_sequence(Tensor(np.zeros(shape)))


def test_gru_scan_checks_its_weight_shapes():
    xs, h0 = Tensor(np.zeros((5, 4))), Tensor(np.zeros((2, 3)))
    wi, wh, b = gru_cell(4, 3)
    for cell, message in (
            ((Tensor(np.zeros((8, 4))), wh, b),
             r"gru: input weights must be 3h x d, got \(8, 4\)"),
            ((wi, Tensor(np.zeros((9, 4))), b),
             r"gru: hidden weights must be \(9, 3\), got \(9, 4\)"),
            ((wi, wh, Tensor(np.zeros(3))), r"gru: biases must be \(9,\), got \(3,\)")):
        with pytest.raises(ContractViolation, match=message):
            T.gru_scan(xs, h0, *cell)


def test_batched_shapes():
    rng = np.random.default_rng(59)
    cell = _cell(rng, 4, 3)
    for xs, h0, states in (((6, 4), (2, 3), (2, 6, 3)), ((2, 6, 4), (2, 3), (2, 6, 3)),
                           ((6, 4), (1, 3), (1, 6, 3))):
        assert T.gru_scan(Tensor(np.zeros(xs)), Tensor(np.zeros(h0)), *cell).shape == states
    assert T.spatial_sequence(Tensor(np.zeros((2, 3, 4, 5)))).shape == (2, 12, 5)
    assert T.linear(Tensor(np.zeros((3, 4))), Tensor(np.zeros(3)),
                    Tensor(np.zeros((2, 6, 4)))).shape == (2, 6, 3)
    assert T.row(Tensor(np.zeros((2, 6, 4))), 5).shape == (2, 4)


def test_fd_report_names_worst_component():
    a = Parameter(np.array([0.3, -0.2]), "a")
    b = Parameter(np.array([0.5, 0.7, -0.1]), "b")

    def loss_fn():
        # sum of squares, correct for a; b's gradient is wrong in component 1 only
        def push(g):
            T._accum(a, 2.0 * a.value * g)
            grad = 2.0 * b.value * g
            grad[1] *= 1.5
            T._accum(b, grad)

        value = float((a.value ** 2).sum() + (b.value ** 2).sum())
        return Tensor(np.asarray(value), (a, b), push)

    report = T.finite_difference_report(loss_fn, [a, b], 1e-3)
    assert report.worst_parameter == "b" and report.worst_index == (1,)
    assert report.location() == "b[1]"
    assert report.max_relative_error > 0.1


# ---------------------------------------------------------------------------
# single-use graphs and the forward workspace


def test_second_backward_on_a_consumed_graph_raises():
    w = Parameter(np.array([[2.0]]), "w")
    hidden = T.tanh(T.linear(w, Tensor(np.zeros(1)), Tensor(np.array([3.0]))))
    loss = weighted_sum(hidden)
    T.backward(loss)
    first = w.grad.copy()
    with pytest.raises(ContractViolation, match="consumed"):
        T.backward(loss)
    # a new root over consumed interior nodes is refused as well
    with pytest.raises(ContractViolation, match="consumed"):
        T.backward(weighted_sum(hidden, 2.0))
    np.testing.assert_array_equal(w.grad, first)


def test_a_node_built_with_its_rule_pushes_once():
    w = Parameter(np.array([1.0, -2.0]), "w")
    calls = []

    def push(g):
        calls.append(float(g))
        T._accum(w, np.full_like(w.value, g))

    node = Tensor(np.asarray(float(w.value.sum())), (w,), push)
    assert node._push is push
    T.backward(node)
    assert calls == [1.0]
    np.testing.assert_array_equal(w.grad, [1.0, 1.0])
    with pytest.raises(ContractViolation, match="consumed"):
        T.backward(node)
    assert calls == [1.0]


def test_backward_releases_interior_nodes_but_not_leaves():
    w = Parameter(np.array([0.5, -1.0]), "w")
    x = Tensor(np.array([2.0, 3.0]))
    joined = T.concat([w, x])
    loss = weighted_sum(T.relu(joined), [3.0, 5.0, 7.0, -1.0])
    T.backward(loss)
    for node in (joined, loss):
        assert node.grad is None and node._push is None
    np.testing.assert_array_equal(w.grad, [3.0, 0.0])
    np.testing.assert_array_equal(x.grad, [7.0, -1.0])


def test_conv_and_relu_in_a_workspace_match_fresh_arrays():
    rng = np.random.default_rng(60)
    x = Tensor(rng.uniform(-1, 1, (3, 9, 9, 2)))
    k = Parameter(rng.uniform(-1, 1, (4, 2, 3, 3)), "k")
    b = Parameter(rng.uniform(-1, 1, 4), "b")
    weights = rng.uniform(-1, 1, (3, 4, 4, 4))

    def step():
        T.zero_grads([k, b])
        out = T.relu(T.conv2d(x, k, b, 2))
        T.backward(weighted_sum(out, weights))
        return out.value, k.grad.copy(), b.grad.copy()

    fresh = step()
    ws = T.Workspace()
    for _ in range(3):
        with T.reusing(ws):
            got = step()
        for want, have in zip(fresh, got):
            assert want.tobytes() == have.tobytes()
    # im2col matrix, conv map (the matmul product) and relu map, allocated once
    assert ws.allocations == len(ws.buffers) == 3
    assert any(np.shares_memory(got[0], buf) for buf in ws.buffers)


def test_workspace_reuses_by_request_order_and_drops_the_rest_on_a_new_shape():
    ws = T.Workspace()
    small, large = Tensor(np.ones((2, 3))), Tensor(np.ones((4, 3)))
    with T.reusing(ws):
        first = [T.relu(small).value, T.relu(large).value]
    with T.reusing(ws):
        again = [T.relu(small).value, T.relu(large).value]
    assert all(a is b for a, b in zip(first, again)) and ws.allocations == 2
    with T.reusing(ws):
        swapped = [T.relu(large).value, T.relu(small).value]
    assert ws.allocations == 4
    assert not any(np.shares_memory(a, b) for a in swapped for b in first)
    with T.reusing(ws):
        T.relu(large)
    assert len(ws.buffers) == 1  # cut back to what the last pass used


def test_an_exception_inside_a_pass_leaves_no_workspace_active():
    ws = T.Workspace()
    with pytest.raises(NumericError):
        with T.reusing(ws):
            T.relu(Tensor(np.ones(3)))
            raise NumericError("diverged")
    assert T._active.get() is None
    assert not np.shares_memory(T.relu(Tensor(np.ones(3))).value, ws.buffers[0])
    with T.reusing(T.Workspace()):
        with pytest.raises(ContractViolation, match="already active"):
            with T.reusing(ws):
                pass
    assert T._active.get() is None


def test_conv2d_rejects_mixed_dtypes():
    with pytest.raises(ContractViolation, match="dtype"):
        T.conv2d(Tensor(np.zeros((1, 3, 3, 1), np.float32)), Tensor(np.zeros((1, 1, 2, 2))),
                 Tensor(np.zeros(1)), 1)
