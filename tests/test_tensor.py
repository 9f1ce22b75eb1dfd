"""Engine tests: hand-computed cases, per-primitive gradient checks,
and the structural properties every op must satisfy."""

import numpy as np
import pytest

import audet.tensor as T
from audet.errors import ContractViolation, EmptyBatchError, NumericError
from audet.tensor import GruCellParams, Parameter, Tensor


def _param(rng, shape, name, lo=-1.0, hi=1.0):
    return Parameter(rng.uniform(lo, hi, shape), name)


def _check(loss_fn, params, bound=1e-5):
    worst = T.finite_difference_check(loss_fn, params, 1e-3)
    assert worst <= bound, f"max relative error {worst:.3e} > {bound:.0e}"


# ---------------------------------------------------------------------------
# hand cases


def test_conv2d_scalar_kernel_scales_input():
    x = Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
    k = Tensor(np.full((1, 1, 1, 1), 2.0))
    b = Tensor(np.zeros(1))
    out = T.conv2d(x, k, b, stride=1)
    np.testing.assert_array_equal(out.value, [[[2.0, 4.0], [6.0, 8.0]]])


def test_conv2d_zero_kernels_zero_output():
    rng = np.random.default_rng(0)
    x = Tensor(rng.uniform(-1, 1, (3, 6, 6)))
    k = Tensor(np.zeros((2, 3, 3, 3)))
    b = Tensor(np.zeros(2))
    out = T.conv2d(x, k, b, stride=1)
    np.testing.assert_array_equal(out.value, np.zeros((2, 4, 4)))


def test_conv2d_identity_diagonal_kernel():
    x = Tensor(np.arange(1.0, 10.0).reshape(1, 3, 3))
    k = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]).reshape(1, 1, 2, 2))
    b = Tensor(np.zeros(1))
    out = T.conv2d(x, k, b, stride=1)
    np.testing.assert_array_equal(out.value, [[[6.0, 8.0], [12.0, 14.0]]])


def _conv_reference(x, k, bias, stride):
    # independent nested-loop cross-correlation
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
    out = T.conv2d(Tensor(x), Tensor(k), Tensor(b), stride)
    np.testing.assert_allclose(out.value, _conv_reference(x, k, b, stride), atol=1e-12)


def test_gru_cell_zero_params_halves_state():
    cell = GruCellParams.zeros(4, 3, dtype=np.float64)
    x = Tensor(np.array([0.3, -0.8, 0.1, 0.9]))
    h = Tensor(np.array([0.4, -1.0, 0.6]))
    out = T.gru_cell(x, h, cell)
    np.testing.assert_allclose(out.value, 0.5 * h.value, atol=1e-15)


def test_gru_cell_zero_params_zero_state():
    cell = GruCellParams.zeros(2, 3, dtype=np.float64)
    out = T.gru_cell(Tensor(np.array([1.0, -2.0])), Tensor(np.zeros(3)), cell)
    np.testing.assert_array_equal(out.value, np.zeros(3))


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
    cell = GruCellParams(
        _param(rng, (9, 4), "wi"), _param(rng, (9, 3), "wh"), _param(rng, (9,), "b")
    )
    x = rng.uniform(-1, 1, 4)
    h = rng.uniform(-1, 1, 3)
    out = T.gru_cell(Tensor(x), Tensor(h), cell)
    ref = _gru_reference(
        x, h, cell.input_weights.value, cell.hidden_weights.value, cell.biases.value
    )
    np.testing.assert_allclose(out.value, ref, atol=1e-12)


def test_softmax_equal_logits_gives_ln2():
    probs, loss = T.softmax_cross_entropy(Tensor(np.zeros(2)), 0)
    np.testing.assert_allclose(probs.value, [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(float(loss.value), np.log(2.0), atol=1e-15)


def test_softmax_shift_invariance():
    # integer-valued inputs keep logits + c exact in floating point
    logits = np.array([3.0, -1.0])
    for c in (0.0, 5.0, -117.0, 4096.0):
        p0, l0 = T.softmax_cross_entropy(Tensor(logits), 1)
        p1, l1 = T.softmax_cross_entropy(Tensor(logits + c), 1)
        np.testing.assert_array_equal(p0.value, p1.value)
        np.testing.assert_array_equal(l0.value, l1.value)


def test_softmax_confident_decision_tiny_loss():
    _, loss = T.softmax_cross_entropy(Tensor(np.array([10.0, -10.0])), 0)
    np.testing.assert_allclose(float(loss.value), 2.061153622e-09, rtol=1e-6)


def test_backprop_linear_gradient_is_input():
    w = Parameter(np.array([2.0]), "w")
    out = T.total(T.mul(w, Tensor(np.array([3.0]))))
    T.backward(out)
    np.testing.assert_array_equal(w.grad, [3.0])


def test_backprop_tanh_gradient_at_zero():
    w = Parameter(np.array([0.0]), "w")
    T.backward(T.total(T.tanh(w)))
    np.testing.assert_array_equal(w.grad, [1.0])


def test_fd_quadratic_estimate_matches_analytic():
    w = Parameter(np.array([1.0]), "w")
    worst = T.finite_difference_check(lambda: T.total(T.mul(w, w)), [w], 1e-3)
    # estimate (1.001^2 - 0.999^2) / 2e-3 = 2.0 exactly; analytic 2.0
    assert worst < 2.5e-7
    up = (1.0 + 1e-3) ** 2
    down = (1.0 - 1e-3) ** 2
    assert abs((up - down) / 2e-3 - 2.0) < 1e-6


def test_fd_constant_loss_zero_error():
    w = Parameter(np.array([0.7]), "w")
    worst = T.finite_difference_check(lambda: T.total(T.scale(w, 0.0)), [w], 1e-3)
    assert worst == 0.0


# ---------------------------------------------------------------------------
# per-primitive gradient checks (isolated, float64, inputs in [-1, 1])


def test_grad_add_mul_scale():
    rng = np.random.default_rng(21)
    a = _param(rng, (5,), "a")
    b = _param(rng, (5,), "b")
    _check(lambda: T.total(T.scale(T.mul(T.add(a, b), a), 1.7)), [a, b])


def test_grad_relu():
    rng = np.random.default_rng(22)
    vals = rng.uniform(-1, 1, 40)
    # keep inputs away from the kink, where the true gradient is undefined
    # and a finite step straddles two linear pieces
    vals = np.where(np.abs(vals) < 0.05, 0.25 * np.sign(vals) + vals, vals)
    a = Parameter(vals, "a")
    weights = Tensor(rng.uniform(-1, 1, 40))
    _check(lambda: T.total(T.mul(T.relu(a), weights)), [a])


def test_grad_tanh_sigmoid():
    rng = np.random.default_rng(23)
    a = _param(rng, (7,), "a")
    _check(lambda: T.total(T.tanh(a)), [a])
    _check(lambda: T.total(T.sigmoid(a)), [a])


def test_grad_concat():
    rng = np.random.default_rng(24)
    a = _param(rng, (3,), "a")
    b = _param(rng, (4,), "b")
    weights = Tensor(rng.uniform(-1, 1, 7))
    _check(lambda: T.total(T.mul(T.concat([a, b]), weights)), [a, b])


def test_grad_concat_named_axis():
    rng = np.random.default_rng(29)
    a = _param(rng, (2, 3), "a")
    b = _param(rng, (2, 2), "b")
    weights = Tensor(rng.uniform(-1, 1, (2, 5)))
    _check(lambda: T.total(T.mul(T.concat([a, b], axis=1), weights)), [a, b])


def test_grad_row_and_spatial_sequence():
    rng = np.random.default_rng(25)
    m = _param(rng, (4, 3), "m")
    weights = Tensor(rng.uniform(-1, 1, 3))
    _check(lambda: T.total(T.mul(T.row(m, 2), weights)), [m])
    cube = _param(rng, (2, 3, 3), "cube")
    wseq = Tensor(rng.uniform(-1, 1, (9, 2)))
    _check(lambda: T.total(T.mul(T.spatial_sequence(cube), wseq)), [cube])


def test_grad_linear():
    rng = np.random.default_rng(26)
    wv = Tensor(rng.uniform(-1, 1, 3))
    w = _param(rng, (3, 4), "w")
    bias = _param(rng, (3,), "bias")
    x = _param(rng, (4,), "x")
    _check(lambda: T.total(T.mul(T.linear(w, bias, x), wv)), [w, bias, x])


def test_grad_conv2d():
    rng = np.random.default_rng(27)
    x = _param(rng, (2, 6, 6), "x")
    k = _param(rng, (3, 2, 3, 3), "k")
    b = _param(rng, (3,), "b")
    weights = Tensor(rng.uniform(-1, 1, (3, 2, 2)))
    _check(lambda: T.total(T.mul(T.conv2d(x, k, b, 2), weights)), [x, k, b])


def test_grad_gru_cell_and_chain():
    rng = np.random.default_rng(28)
    cell = GruCellParams(
        _param(rng, (9, 4), "wi"), _param(rng, (9, 3), "wh"), _param(rng, (9,), "b")
    )
    x = _param(rng, (4,), "x")
    h = _param(rng, (3,), "h")
    weights = Tensor(rng.uniform(-1, 1, 3))
    _check(lambda: T.total(T.mul(T.gru_cell(x, h, cell), weights)),
           [x, h] + cell.parameters())

    seq = [_param(rng, (4,), f"s{t}") for t in range(3)]

    def chain():
        state = Tensor(np.zeros(3))
        for t in range(3):
            state = T.gru_cell(seq[t], state, cell)
        return T.total(T.mul(state, weights))

    _check(chain, seq + cell.parameters())


def test_grad_softmax_cross_entropy():
    rng = np.random.default_rng(30)
    logits = _param(rng, (2,), "logits")
    for label in (0, 1):
        _check(lambda: T.softmax_cross_entropy(logits, label)[1], [logits])
    weights = Tensor(rng.uniform(-1, 1, 2))
    _check(lambda: T.total(T.mul(T.softmax_cross_entropy(logits, 0)[0], weights)),
           [logits])


# ---------------------------------------------------------------------------
# properties


def test_output_shapes_total_function_of_input_shapes():
    rng = np.random.default_rng(40)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        k = int(rng.integers(1, 9))
        a = Tensor(rng.uniform(-1, 1, (n,)))
        assert T.add(a, Tensor(rng.uniform(-1, 1, (n,)))).shape == (n,)
        assert T.mul(a, Tensor(rng.uniform(-1, 1, (n,)))).shape == (n,)
        assert T.relu(a).shape == (n,)
        assert T.tanh(a).shape == (n,)
        assert T.sigmoid(a).shape == (n,)
        assert T.concat([a, Tensor(rng.uniform(-1, 1, (m,)))]).shape == (n + m,)
        mat = Tensor(rng.uniform(-1, 1, (n, m)))
        assert T.row(mat, n - 1).shape == (m,)
        assert T.linear(mat, Tensor(rng.uniform(-1, 1, (n,))),
                        Tensor(rng.uniform(-1, 1, (m,)))).shape == (n,)
        cube = Tensor(rng.uniform(-1, 1, (k, n, m)))
        assert T.spatial_sequence(cube).shape == (n * m, k)
        size = int(rng.integers(3, 10))
        kside = int(rng.integers(1, size + 1))
        stride = int(rng.integers(1, 4))
        x = Tensor(rng.uniform(-1, 1, (2, size, size)))
        kern = Tensor(rng.uniform(-1, 1, (3, 2, kside, kside)))
        out = T.conv2d(x, kern, Tensor(rng.uniform(-1, 1, 3)), stride)
        expect = (size - kside) // stride + 1
        assert out.shape == (3, expect, expect)


def test_shape_mismatch_names_offender():
    a = Tensor(np.zeros(3))
    with pytest.raises(ContractViolation, match="shape mismatch"):
        T.add(a, Tensor(np.zeros(4)))
    with pytest.raises(ContractViolation, match="kernel channels"):
        T.conv2d(Tensor(np.zeros((2, 5, 5))), Tensor(np.zeros((1, 3, 2, 2))),
                 Tensor(np.zeros(1)), 1)
    with pytest.raises(ContractViolation, match="smaller than kernel"):
        T.conv2d(Tensor(np.zeros((1, 2, 2))), Tensor(np.zeros((1, 1, 3, 3))),
                 Tensor(np.zeros(1)), 1)


def test_softmax_sums_to_one_across_precisions():
    rng = np.random.default_rng(41)
    for _ in range(50):
        v = rng.uniform(-50, 50, 2)
        p64, _ = T.softmax_cross_entropy(Tensor(v), 0)
        assert abs(float(p64.value.sum()) - 1.0) <= 1e-12
        p32, _ = T.softmax_cross_entropy(Tensor(v.astype(np.float32)), 0)
        assert abs(float(p32.value.sum()) - 1.0) <= 1e-6


def test_gru_output_bounded_by_state_and_candidate():
    rng = np.random.default_rng(42)
    for trial in range(30):
        cell = GruCellParams(
            _param(rng, (12, 5), "wi"), _param(rng, (12, 4), "wh"), _param(rng, (12,), "b")
        )
        x = rng.uniform(-1, 1, 5)
        h = rng.uniform(-1, 1, 4)
        out = T.gru_cell(Tensor(x), Tensor(h), cell)
        # recover the candidate from the same equations
        hd = 4
        gi = cell.input_weights.value @ x + cell.biases.value
        wh = cell.hidden_weights.value
        r = 1.0 / (1.0 + np.exp(-(gi[hd : 2 * hd] + wh[hd : 2 * hd] @ h)))
        cand = np.tanh(gi[2 * hd :] + wh[2 * hd :] @ (r * h))
        lo = np.minimum(h, cand) - 1e-12
        hi = np.maximum(h, cand) + 1e-12
        assert np.all(out.value >= lo) and np.all(out.value <= hi)
        assert np.all(np.abs(out.value) <= 1.0 + 1e-12)


def test_forward_is_bitwise_deterministic():
    rng = np.random.default_rng(43)
    x = rng.uniform(-1, 1, (2, 8, 8))
    k = rng.uniform(-1, 1, (3, 2, 3, 3))
    b = rng.uniform(-1, 1, 3)

    def run():
        h = T.conv2d(Tensor(x.copy()), Tensor(k.copy()), Tensor(b.copy()), 2)
        seq = T.spatial_sequence(T.relu(h))
        cell = GruCellParams(
            Parameter(np.tile(np.linspace(-0.3, 0.3, 9)[:, None], (1, 3)), "wi"),
            Parameter(np.tile(np.linspace(0.2, -0.2, 9)[:, None], (1, 3)), "wh"),
            Parameter(np.linspace(-0.1, 0.1, 9), "b"),
        )
        state = Tensor(np.zeros(3))
        for t in range(seq.value.shape[0]):
            state = T.gru_cell(T.row(seq, t), state, cell)
        return state.value

    np.testing.assert_array_equal(run(), run())


def test_backward_rejects_non_scalar_root():
    with pytest.raises(ContractViolation, match="scalar"):
        T.backward(Tensor(np.zeros(3)))


def test_gradients_accumulate_until_reset():
    w = Parameter(np.array([2.0]), "w")
    x = Tensor(np.array([3.0]))
    T.backward(T.total(T.mul(w, x)))
    T.backward(T.total(T.mul(w, x)))
    np.testing.assert_array_equal(w.grad, [6.0])
    w.reset_grad()
    np.testing.assert_array_equal(w.grad, [0.0])


def test_fd_check_rejects_nondeterministic_loss():
    rng = np.random.default_rng(44)
    w = Parameter(np.array([1.0]), "w")

    def noisy():
        return T.total(T.mul(w, Tensor(np.array([rng.uniform()]))))

    with pytest.raises(NumericError, match="not deterministic"):
        T.finite_difference_check(noisy, [w], 1e-3)


def test_fd_check_requires_float64():
    w = Parameter(np.array([1.0], dtype=np.float32), "w")
    with pytest.raises(ContractViolation, match="float64"):
        T.finite_difference_check(lambda: T.total(w), [w], 1e-3)


# ---------------------------------------------------------------------------
# batch axis


def test_grad_batched_linear():
    rng = np.random.default_rng(50)
    w = _param(rng, (3, 4), "w")
    bias = _param(rng, (3,), "bias")
    x = _param(rng, (5, 4), "x")
    weights = Tensor(rng.uniform(-1, 1, (5, 3)))
    _check(lambda: T.total(T.mul(T.linear(w, bias, x), weights)), [w, bias, x])
    # rows are independent: each equals the unbatched call
    out = T.linear(w, bias, x).value
    for i in range(5):
        np.testing.assert_allclose(out[i], T.linear(w, bias, Tensor(x.value[i])).value,
                                   rtol=1e-14, atol=1e-15)


def test_grad_batched_conv2d_stride_two():
    rng = np.random.default_rng(51)
    x = _param(rng, (3, 2, 7, 7), "x")
    k = _param(rng, (4, 2, 3, 3), "k")
    b = _param(rng, (4,), "b")
    weights = Tensor(rng.uniform(-1, 1, (3, 4, 3, 3)))
    _check(lambda: T.total(T.mul(T.conv2d(x, k, b, 2), weights)), [x, k, b])
    out = T.conv2d(x, k, b, 2).value
    for i in range(3):
        np.testing.assert_allclose(out[i], _conv_reference(x.value[i], k.value, b.value, 2),
                                   atol=1e-12)


def test_conv2d_skips_gradient_of_constant_input():
    rng = np.random.default_rng(52)
    x = Tensor(rng.uniform(-1, 1, (2, 2, 5, 5)))
    k = _param(rng, (3, 2, 3, 3), "k")
    T.backward(T.total(T.conv2d(x, k, Tensor(np.zeros(3)), 1)))
    assert x.grad is None
    assert np.abs(k.grad).sum() > 0


def _cell(rng, d, h):
    # weights in [-0.5, 0.5], as in the acceptance sweep: over several steps,
    # unit-scale weights let step-1e-3 truncation error pass 1e-5 on the
    # smallest gradients (it shrinks with the step squared)
    return GruCellParams(*(_param(rng, shape, name, -0.5, 0.5) for shape, name in
                           (((3 * h, d), "wi"), ((3 * h, h), "wh"), ((3 * h,), "b"))))


def test_grad_gru_scan_per_row_inputs():
    rng = np.random.default_rng(53)
    cell = _cell(rng, 4, 3)
    xs = _param(rng, (2, 5, 4), "xs")
    h0 = _param(rng, (2, 3), "h0")
    weights = Tensor(rng.uniform(-1, 1, (2, 5, 3)))
    _check(lambda: T.total(T.mul(T.gru_scan(xs, h0, cell), weights)),
           [xs, h0] + cell.parameters())


def test_grad_gru_scan_shared_inputs():
    rng = np.random.default_rng(54)
    cell = _cell(rng, 4, 3)
    xs = _param(rng, (5, 4), "xs")
    h0 = _param(rng, (3, 3), "h0")
    weights = Tensor(rng.uniform(-1, 1, (3, 5, 3)))
    _check(lambda: T.total(T.mul(T.gru_scan(xs, h0, cell), weights)),
           [xs, h0] + cell.parameters())


def test_gru_scan_matches_chain_of_cells():
    rng = np.random.default_rng(55)
    cell = _cell(rng, 4, 3)
    xs = rng.uniform(-1, 1, (2, 6, 4))
    h0 = rng.uniform(-1, 1, (2, 3))
    states = T.gru_scan(Tensor(xs), Tensor(h0), cell).value
    assert states.shape == (2, 6, 3)
    for i in range(2):
        h = Tensor(h0[i])
        for t in range(6):
            h = T.gru_cell(Tensor(xs[i, t]), h, cell)
            ref = _gru_reference(xs[i, t], states[i, t - 1] if t else h0[i],
                                 cell.input_weights.value, cell.hidden_weights.value,
                                 cell.biases.value)
            np.testing.assert_allclose(states[i, t], h.value, rtol=1e-13, atol=1e-14)
            np.testing.assert_allclose(states[i, t], ref, atol=1e-12)
    shared = T.gru_scan(Tensor(xs[0]), Tensor(h0), cell).value
    np.testing.assert_allclose(shared[0], states[0], rtol=1e-13, atol=1e-14)
    single = T.gru_scan(Tensor(xs[1]), Tensor(h0[1]), cell).value
    assert single.shape == (6, 3)
    np.testing.assert_allclose(single, states[1], rtol=1e-13, atol=1e-14)


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
        terms = [T.softmax_cross_entropy(Tensor(raw[b, k]), int(labels[b, k]))[1].value
                 * (weights[k] if labels[b, k] == 1 else 1.0)
                 for k in range(8) if labels[b, k] != -1]
        per_frame.append(sum(terms) / len(terms))
    np.testing.assert_allclose(float(loss.value), sum(per_frame) / 2, rtol=1e-13)
    with pytest.raises(EmptyBatchError):
        T.masked_cross_entropy(Tensor(raw), np.full((3, 8), -1, np.int8), weights)
    with pytest.raises(ContractViolation, match="outside"):
        T.masked_cross_entropy(Tensor(raw), np.full((3, 8), 2, np.int8), weights)


def test_batch_extents_must_agree():
    rng = np.random.default_rng(58)
    cell = _cell(rng, 4, 3)
    with pytest.raises(ContractViolation, match="batch"):
        T.gru_scan(Tensor(np.zeros((2, 5, 4))), Tensor(np.zeros((3, 3))), cell)
    with pytest.raises(ContractViolation, match="batch"):
        T.gru_scan(Tensor(np.zeros((2, 5, 4))), Tensor(np.zeros(3)), cell)
    with pytest.raises(ContractViolation, match="gru_cell"):
        T.gru_cell(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 3))), cell)
    with pytest.raises(ContractViolation, match="gru_cell"):
        T.gru_cell(Tensor(np.zeros(4)), Tensor(np.zeros((1, 3))), cell)
    with pytest.raises(ContractViolation, match="labels"):
        T.masked_cross_entropy(Tensor(np.zeros((2, 8, 2))), np.zeros((3, 8), np.int8),
                               np.ones(8))
    with pytest.raises(ContractViolation, match="incompatible"):
        T.concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3)))], axis=-1)
    with pytest.raises(ContractViolation, match="conv2d"):
        T.conv2d(Tensor(np.zeros((1, 2, 2, 5, 5))), Tensor(np.zeros((1, 2, 3, 3))),
                 Tensor(np.zeros(1)), 1)


def test_batched_shapes():
    rng = np.random.default_rng(59)
    cell = _cell(rng, 4, 3)
    for xs, h0, states in (((6, 4), (2, 3), (2, 6, 3)), ((2, 6, 4), (2, 3), (2, 6, 3)),
                           ((6, 4), (3,), (6, 3))):
        assert T.gru_scan(Tensor(np.zeros(xs)), Tensor(np.zeros(h0)), cell).shape == states
    assert T.gru_cell(Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 3))), cell).shape == (2, 3)
    assert T.spatial_sequence(Tensor(np.zeros((2, 5, 3, 4)))).shape == (2, 12, 5)
    assert T.linear(Tensor(np.zeros((3, 4))), Tensor(np.zeros(3)),
                    Tensor(np.zeros((2, 6, 4)))).shape == (2, 6, 3)
    assert T.row(Tensor(np.zeros((2, 6, 4))), 5).shape == (2, 4)


def test_fd_report_names_worst_component():
    a = Parameter(np.array([0.3, -0.2]), "a")
    b = Parameter(np.array([0.5, 0.7, -0.1]), "b")

    def loss_fn():
        # correct for a; b's gradient is wrong in component 1 only
        out = T.total(T.mul(a, a))
        bad = Tensor(np.asarray(float((b.value ** 2).sum())), (b,))

        def push(g):
            grad = 2.0 * b.value * g
            grad[1] *= 1.5
            T._accum(b, grad)

        bad._push = push
        return T.add(out, bad)

    report = T.finite_difference_report(loss_fn, [a, b], 1e-3)
    assert report.worst_parameter == "b" and report.worst_index == (1,)
    assert report.location() == "b[1]"
    assert report.max_relative_error > 0.1
    assert T.finite_difference_check(loss_fn, [a, b], 1e-3) == report.max_relative_error


# ---------------------------------------------------------------------------
# single-use graphs and the forward workspace


def test_second_backward_on_a_consumed_graph_raises():
    w = Parameter(np.array([2.0]), "w")
    hidden = T.tanh(T.mul(w, Tensor(np.array([3.0]))))
    loss = T.total(hidden)
    T.backward(loss)
    first = w.grad.copy()
    with pytest.raises(ContractViolation, match="consumed"):
        T.backward(loss)
    # a new root over consumed interior nodes is refused as well
    with pytest.raises(ContractViolation, match="consumed"):
        T.backward(T.total(T.scale(hidden, 2.0)))
    np.testing.assert_array_equal(w.grad, first)


def test_backward_releases_interior_nodes_but_not_leaves():
    w = Parameter(np.array([0.5, -1.0]), "w")
    x = Tensor(np.array([2.0, 3.0]))
    prod = T.mul(w, x)
    loss = T.total(T.relu(prod))
    T.backward(loss)
    for node in (prod, loss):
        assert node.grad is None and node._push is None
    np.testing.assert_array_equal(w.grad, [2.0, 0.0])
    np.testing.assert_array_equal(x.grad, [0.5, 0.0])


def test_conv_and_relu_in_a_workspace_match_fresh_arrays():
    rng = np.random.default_rng(60)
    x = Tensor(rng.uniform(-1, 1, (3, 2, 9, 9)))
    k = Parameter(rng.uniform(-1, 1, (4, 2, 3, 3)), "k")
    b = Parameter(rng.uniform(-1, 1, 4), "b")
    weights = Tensor(rng.uniform(-1, 1, (3, 4, 4, 4)))

    def step():
        T.zero_grads([k, b])
        out = T.relu(T.conv2d(x, k, b, 2))
        T.backward(T.total(T.mul(out, weights)))
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
        T.conv2d(Tensor(np.zeros((1, 3, 3), np.float32)), Tensor(np.zeros((1, 1, 2, 2))),
                 Tensor(np.zeros(1)), 1)
