"""Model tests: branch shapes, zero-parameter fixed points, decoder
causality, parameter accounting, and the checkpoint container."""

import hashlib
import os
import re
import struct
from dataclasses import replace

import numpy as np
import pytest

from audet.data import AU_ORDER
from audet.errors import ContractViolation, FormatError, NumericError
from audet.model import (
    CHECKPOINT_VERSION,
    ModelConfig,
    ModelParams,
    classify_aus,
    dynamic_forward,
    fuse,
    load_checkpoint,
    model_forward,
    parameter_count,
    parameter_shapes,
    save_checkpoint,
    static_forward,
)
from audet import tensor as T
from audet.tensor import Parameter, Tensor, finite_difference_report

from conftest import TINY_MODEL, probabilities, traced_peak, weighted_sum


def _inputs(config, seed=0, dtype=np.float64):
    """A batch of one frame: 1 x 2 x S x S image and 1 x 146 diff."""
    rng = np.random.default_rng(seed)
    image = rng.uniform(0, 1, (2, config.image_size, config.image_size)).astype(dtype)
    diff = rng.uniform(-1, 1, 146).astype(dtype)
    return image[None], diff[None]


# ---------------------------------------------------------------------------
# configuration


def test_default_config_dimensions():
    cfg = ModelConfig()
    cfg.validate()
    assert cfg.conv_output_shape() == (32, 6, 6)
    assert parameter_count(cfg) == 94066


def test_parameter_count_matches_actual_parameters():
    for cfg in (ModelConfig(), TINY_MODEL):
        params = ModelParams.zeros(cfg)
        actual = sum(p.value.size for p in params.all_parameters())
        assert actual == parameter_count(cfg)


def test_config_validation_errors():
    with pytest.raises(ContractViolation, match="smaller than kernel"):
        ModelConfig(image_size=8).validate()


@pytest.mark.parametrize("changes,message", [
    ({"conv_spec": ()}, "conv_spec is empty"),
    ({"conv_spec": ((8, 0, 1),)}, r"conv layer 0: bad spec \(8, 0, 1\)"),
    ({"conv_spec": ((8, 3, 1), (0, 3, 1))}, "conv layer 1: bad spec"),
    ({"dynamic_hidden": ()}, "dynamic_hidden is empty"),
    ({"dynamic_hidden": (0, 8)}, "dynamic layer width 0 < 1"),
    ({"static_gru_hidden": 0}, "static_gru_hidden must be >= 1"),
    ({"fusion_out": 0}, "fusion_out must be >= 1"),
    ({"au_embedding_dim": 0}, "au_embedding_dim must be >= 1"),
    ({"image_size": 0}, "conv: input extent 0 smaller than kernel 5"),
], ids=["no-conv", "zero-kernel", "zero-filters", "no-dynamic", "zero-width",
        "static-hidden", "fusion", "embedding", "no-image"])
def test_config_validation_names_each_bad_field(changes, message):
    with pytest.raises(ContractViolation, match=message):
        ModelConfig(**changes).validate()


def test_default_config_text_is_pinned():
    # the checkpoint's config block: in channels and activations spelled out
    assert ModelConfig().to_kv() == {
        "image_size": "64",
        "conv_spec": "2:16:5:2,16:32:3:2,32:32:3:2",
        "static_gru_hidden": "64",
        "dynamic_hidden": "128:relu,64:tanh",
        "fusion_out": "64",
        "au_embedding_dim": "64",
    }


def test_config_kv_round_trip():
    for cfg in (ModelConfig(), TINY_MODEL):
        assert ModelConfig.from_kv(cfg.to_kv(), "test") == cfg


@pytest.mark.parametrize("key,text", [
    ("conv_spec", "3:16:5:2,16:32:3:2,32:32:3:2"),
    ("conv_spec", "2:16:5:2,8:32:3:2,32:32:3:2"),
    ("dynamic_hidden", "128:gelu,64:tanh"),
    ("dynamic_hidden", "128:tanh,64:tanh"),
    ("dynamic_hidden", "128:relu,64:relu"),
], ids=["in-channels-3", "in-channels-8", "gelu", "tanh-hidden", "relu-last"])
def test_config_from_kv_rejects_text_its_dimensions_do_not_write(key, text):
    kv = ModelConfig().to_kv()
    expected = kv[key]
    kv[key] = text
    with pytest.raises(FormatError, match=re.escape(
            f"test: bad model config: {key} = {text!r}, expected {expected!r}")):
        ModelConfig.from_kv(kv, "test")


def test_config_from_kv_rejects_garbage():
    kv = ModelConfig().to_kv()
    kv["conv_spec"] = "2:16:5"
    with pytest.raises(FormatError, match="config"):
        ModelConfig.from_kv(kv, "test")
    with pytest.raises(FormatError, match="keys"):
        ModelConfig.from_kv({"image_size": "64"}, "test")


# ---------------------------------------------------------------------------
# forward passes


def test_branch_shapes_and_ranges():
    params = ModelParams.init(TINY_MODEL, seed=1, dtype=np.float64)
    image, diff = _inputs(TINY_MODEL)
    h_static = static_forward(params, image)
    assert h_static.shape == (1, TINY_MODEL.static_gru_hidden)
    assert np.all(np.abs(h_static.value) <= 1.0)
    h_dynamic = dynamic_forward(params, diff)
    assert h_dynamic.shape == (1, TINY_MODEL.dynamic_hidden[-1])
    assert np.all(np.abs(h_dynamic.value) < 1.0)
    fused = fuse(params, h_dynamic, h_static)
    assert fused.shape == (1, TINY_MODEL.fusion_out)
    assert np.all(np.abs(fused.value) < 1.0)

    logits = model_forward(params, image, diff)
    probs = probabilities(logits)
    assert probs.shape == (1, 8)
    assert probs.dtype == np.float64
    assert np.all((probs > 0.0) & (probs < 1.0))
    assert logits.shape == (1, 8, 2)


def test_the_parameters_decide_the_input_dtype():
    # float32 frames widen exactly, so casting them first changes no bit
    params = ModelParams.init(TINY_MODEL, seed=1, dtype=np.float64)
    image, diff = _inputs(TINY_MODEL, seed=3, dtype=np.float32)
    narrow = model_forward(params, image, diff).value
    wide = model_forward(params, image.astype(np.float64), diff.astype(np.float64)).value
    assert narrow.dtype == np.float64
    assert narrow.tobytes() == wide.tobytes()


def test_zero_params_give_indifferent_predictions():
    params = ModelParams.zeros(TINY_MODEL, dtype=np.float64)
    image, diff = _inputs(TINY_MODEL)
    h_static = static_forward(params, image)
    np.testing.assert_array_equal(h_static.value, np.zeros((1, TINY_MODEL.static_gru_hidden)))
    h_dynamic = dynamic_forward(params, diff)
    np.testing.assert_array_equal(h_dynamic.value,
                                  np.zeros((1, TINY_MODEL.dynamic_hidden[-1])))
    np.testing.assert_array_equal(probabilities(model_forward(params, image, diff)),
                                  np.full((1, 8), 0.5))


def test_fusion_concatenates_dynamic_before_static():
    params = ModelParams.zeros(TINY_MODEL, dtype=np.float64)
    d = TINY_MODEL.dynamic_hidden[-1]
    s = TINY_MODEL.static_gru_hidden
    # weights that copy the dynamic half and ignore the static half
    w = np.zeros((TINY_MODEL.fusion_out, d + s))
    w[:d, :d] = np.eye(d)
    params.tensors["fusion.weights"].value[...] = w
    rng = np.random.default_rng(3)
    dynamic = Tensor(rng.uniform(-1, 1, d))
    static = Tensor(rng.uniform(-1, 1, s))
    fused = fuse(params, dynamic, static)
    np.testing.assert_allclose(fused.value[:d], np.tanh(dynamic.value), atol=1e-12)


def test_dynamic_branch_input_gradient():
    # gradient with respect to the branch input, against finite differences
    from audet.tensor import Parameter

    params = ModelParams.init(TINY_MODEL, seed=2, dtype=np.float64)
    rng = np.random.default_rng(4)
    diff = Parameter(rng.uniform(-1, 1, 146), "diff_input")
    weights = rng.uniform(-1, 1, TINY_MODEL.dynamic_hidden[-1])

    def loss_fn():
        t, last = params.tensors, len(TINY_MODEL.dynamic_hidden) - 1
        x = diff
        for i in range(last):
            x = T.relu(T.linear(t[f"dynamic{i}.weights"], t[f"dynamic{i}.bias"], x))
        w, b = t[f"dynamic{last}.weights"], t[f"dynamic{last}.bias"]
        return weighted_sum(T.tanh(T.linear(w, b, x)), weights)

    assert finite_difference_report(loss_fn, [diff], 1e-3).max_relative_error <= 1e-5


def test_decoder_causality():
    params = ModelParams.init(TINY_MODEL, seed=5, dtype=np.float64)
    image, diff = _inputs(TINY_MODEL, seed=6)
    base = probabilities(model_forward(params, image, diff))
    rng = np.random.default_rng(7)
    for j in (1, 4, 7):
        bumped = params.copy()
        bumped.tensors["au_table"].value[j] += rng.uniform(0.5, 1.0, TINY_MODEL.au_embedding_dim)
        probs = probabilities(model_forward(bumped, image, diff))
        np.testing.assert_array_equal(probs[0, :j], base[0, :j])
        assert probs[0, j] != base[0, j]


def test_static_forward_rejects_wrong_image():
    params = ModelParams.zeros(TINY_MODEL)
    size = TINY_MODEL.image_size
    with pytest.raises(ContractViolation, match="image"):
        static_forward(params, np.zeros((1, 2, 8, 8), dtype=np.float32))
    with pytest.raises(ContractViolation, match="diff"):
        dynamic_forward(params, np.zeros((1, 10), dtype=np.float32))
    # a single frame must come as a batch of one
    with pytest.raises(ContractViolation, match="image"):
        static_forward(params, np.zeros((2, size, size), dtype=np.float32))
    with pytest.raises(ContractViolation, match="diff"):
        dynamic_forward(params, np.zeros(146, dtype=np.float32))


def test_init_is_seeded_and_distinct():
    a = ModelParams.init(TINY_MODEL, seed=11)
    b = ModelParams.init(TINY_MODEL, seed=11)
    c = ModelParams.init(TINY_MODEL, seed=12)
    for pa, pb in zip(a.all_parameters(), b.all_parameters()):
        np.testing.assert_array_equal(pa.value, pb.value)
    assert any(
        not np.array_equal(pa.value, pc.value)
        for pa, pc in zip(a.all_parameters(), c.all_parameters())
    )


def test_copy_is_independent():
    params = ModelParams.init(TINY_MODEL, seed=13)
    clone = params.copy()
    clone.tensors["au_table"].value[0, 0] += 1.0
    assert params.tensors["au_table"].value[0, 0] != clone.tensors["au_table"].value[0, 0]


def test_parameters_hold_no_gradient_until_a_backward_pass(tmp_path):
    params = ModelParams.init(TINY_MODEL, seed=14)
    loaded = load_checkpoint(save_checkpoint(params, tmp_path / "m.auck"))
    T.backward(T.masked_cross_entropy(model_forward(params, *_inputs(TINY_MODEL, 15, np.float32)),
                                      np.ones((1, len(AU_ORDER)), int), np.ones(len(AU_ORDER))))
    assert all(p.grad is not None for p in params.all_parameters())
    for built in (ModelParams.init(TINY_MODEL, seed=14), ModelParams.zeros(TINY_MODEL),
                  loaded, params.copy()):
        assert all(p.grad is None for p in built.all_parameters())


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_bitwise(tmp_path):
    params = ModelParams.init(TINY_MODEL, seed=21, dtype=np.float32)
    path = save_checkpoint(params, tmp_path / "m.auck")
    loaded = load_checkpoint(path)
    assert loaded.config == TINY_MODEL
    for pa, pb in zip(params.all_parameters(), loaded.all_parameters()):
        assert pa.name == pb.name
        np.testing.assert_array_equal(pa.value, pb.value)
    image, diff = _inputs(TINY_MODEL, seed=22, dtype=np.float32)
    np.testing.assert_array_equal(
        probabilities(model_forward(params, image, diff)),
        probabilities(model_forward(loaded, image, diff)),
    )


@pytest.mark.parametrize("cfg, pin", [
    (ModelConfig(), "5ea436433a332f480bf01dbd36353ec2f18f007dd3f62b57ae46ac41e6b5a830"),
    (TINY_MODEL, "d38e37ee94f102c3ab60f1e4ae014170183d44e8922664962a4caa259ba1fa3b"),
], ids=["default", "tiny"])
def test_initial_checkpoint_bytes_are_pinned(tmp_path, cfg, pin):
    # init draws from numpy's generator and does no BLAS arithmetic, so the
    # bytes are the same on every host; they change if the parameter table's
    # order, names or shapes, or the order of the init draws, change
    path = save_checkpoint(ModelParams.init(cfg, seed=0), tmp_path / "m.auck")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == pin


def test_failed_checkpoint_write_leaves_the_old_file(tmp_path, monkeypatch):
    path = save_checkpoint(ModelParams.init(TINY_MODEL, seed=25), tmp_path / "m.auck")
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        save_checkpoint(ModelParams.init(TINY_MODEL, seed=26), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.auck"]


def test_checkpoint_rejects_bad_magic(tmp_path):
    params = ModelParams.init(TINY_MODEL, seed=23)
    path = save_checkpoint(params, tmp_path / "m.auck")
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_version_mismatch_names_both_versions(tmp_path):
    params = ModelParams.init(TINY_MODEL, seed=24)
    path = save_checkpoint(params, tmp_path / "m.auck")
    blob = bytearray(path.read_bytes())
    blob[4:6] = (7).to_bytes(2, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert "7" in str(err.value) and str(CHECKPOINT_VERSION) in str(err.value)


def test_checkpoint_rejects_truncation(tmp_path):
    from audet.errors import CorruptionError

    params = ModelParams.init(TINY_MODEL, seed=25)
    path = save_checkpoint(params, tmp_path / "m.auck")
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 30])
    with pytest.raises(CorruptionError):
        load_checkpoint(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    params = ModelParams.init(TINY_MODEL, seed=26)
    path = save_checkpoint(params, tmp_path / "m.auck")
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(FormatError, match="trailing"):
        load_checkpoint(path)


def test_checkpoint_rejects_a_repeated_config_key(tmp_path):
    path = save_checkpoint(ModelParams.init(TINY_MODEL, seed=28), tmp_path / "m.auck")
    blob = path.read_bytes()
    (length,) = struct.unpack("<I", blob[6:10])
    extra = b"image_size=99\n"
    # the repeated key comes first, so a reader keeping the last value would load 24
    path.write_bytes(blob[:6] + struct.pack("<I", length + len(extra)) + extra + blob[10:])
    with pytest.raises(FormatError, match="config key 'image_size' appears twice"):
        load_checkpoint(path)


def _save_with(params, path, named):
    """Save ``params`` with ``named`` in place of its (name, array) list."""
    params.named_arrays = lambda: named
    return save_checkpoint(params, path)


def test_checkpoint_rejects_a_duplicate_tensor(tmp_path):
    params = ModelParams.init(TINY_MODEL, seed=29)
    named = params.named_arrays()
    path = _save_with(params, tmp_path / "m.auck", named + named[:1])
    n = len(named)
    with pytest.raises(FormatError, match=f"the config has {n} tensors, the file stores {n + 1}$"):
        load_checkpoint(path)


def test_checkpoint_rejects_a_duplicate_in_place_of_the_next_tensor(tmp_path):
    params = ModelParams.init(TINY_MODEL, seed=29)
    named = params.named_arrays()
    named[1] = named[0]
    path = _save_with(params, tmp_path / "m.auck", named)
    with pytest.raises(FormatError, match=r"tensor 'conv0.kernels' \(3, 2, 5, 5\) "
                                          r"where the config puts 'conv0.bias' \(3,\)$"):
        load_checkpoint(path)


def test_checkpoint_rejects_tensors_out_of_table_order(tmp_path):
    # both biases are (4,): stored by name they would load, stored out of
    # order they are not the file the writer writes
    params = ModelParams.init(TINY_MODEL, seed=29)
    named = params.named_arrays()
    first, second = (i for i, (name, _) in enumerate(named) if name in ("conv1.bias", "conv2.bias"))
    named[first], named[second] = named[second], named[first]
    path = _save_with(params, tmp_path / "m.auck", named)
    with pytest.raises(FormatError, match=r"tensor 'conv2.bias' \(4,\) "
                                          r"where the config puts 'conv1.bias' \(4,\)$"):
        load_checkpoint(path)


def test_checkpoint_rejects_a_wrong_tensor_shape(tmp_path):
    # same size, so only the stored shape differs
    params = ModelParams.init(TINY_MODEL, seed=30)
    named = params.named_arrays()
    name, value = named[1]
    named[1] = (name, np.zeros((1, value.size), value.dtype))
    path = _save_with(params, tmp_path / "m.auck", named)
    with pytest.raises(FormatError, match=rf"tensor '{name}' \(1, {value.size}\) "
                                          rf"where the config puts '{name}' \({value.size},\)$"):
        load_checkpoint(path)


def test_checkpoint_rejects_a_wrong_parameter_total_before_allocating(tmp_path):
    params = ModelParams.init(TINY_MODEL, seed=30)
    named = params.named_arrays()
    name, value = named[1]
    named[1] = (name, np.zeros(value.size + 1, value.dtype))
    path = _save_with(params, tmp_path / "m.auck", named)
    with pytest.raises(FormatError, match=rf"tensor '{name}' \({value.size + 1},\) "
                                          rf"where the config puts '{name}' \({value.size},\)$"):
        load_checkpoint(path)

    # a config about 280 times the size of the tensors stored: the first
    # tensor whose shape the config changes must fail before anything of
    # the config's size exists, so the failing load holds no more than a
    # few times the file (building the config's parameters would hold
    # about 280 times it)
    params = ModelParams.init(TINY_MODEL, seed=30)
    params.config = replace(TINY_MODEL, fusion_out=512)
    path = save_checkpoint(params, tmp_path / "huge.auck")
    stored = params.tensors["fusion.weights"].value.shape
    claimed = parameter_shapes(params.config)["fusion.weights"]

    def failing_load():
        with pytest.raises(FormatError, match=re.escape(f"tensor 'fusion.weights' {stored} where "
                                                        f"the config puts 'fusion.weights' {claimed}")):
            load_checkpoint(path)

    _, peak = traced_peak(failing_load)
    assert peak < 4 * path.stat().st_size


def test_checkpoint_rejects_another_au_order(tmp_path, monkeypatch):
    from audet import model

    monkeypatch.setattr(model, "AU_ORDER", AU_ORDER[::-1])
    path = save_checkpoint(ModelParams.init(TINY_MODEL, seed=31), tmp_path / "m.auck")
    monkeypatch.undo()
    with pytest.raises(FormatError, match="AU order"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39])
def test_checkpoint_save_refuses_a_non_finite_tensor(tmp_path, value):
    # 1e39 is finite in float64 but overflows the stored float32
    params = ModelParams.init(TINY_MODEL, seed=32, dtype=np.float64)
    params.tensors["fusion.bias"].value[2] = value
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match="tensor 'fusion.bias' holds NaN or Inf"):
            save_checkpoint(params, tmp_path / "m.auck")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_checkpoint_rejects_a_non_finite_tensor(tmp_path, value):
    params = ModelParams.init(TINY_MODEL, seed=33)
    path = save_checkpoint(params, tmp_path / "m.auck")
    blob = bytearray(path.read_bytes())
    # the payload follows the name, the rank byte and the four u32 extents
    start = blob.index(b"conv1.kernels") + len("conv1.kernels") + 1 + 4 * 4
    blob[start + 4 : start + 8] = struct.pack("<f", value)
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="tensor 'conv1.kernels' holds NaN or Inf"):
        load_checkpoint(path)


def test_loading_the_default_checkpoint_holds_its_parameters_once(tmp_path):
    # the file, the float32 parameters and a payload in flight: no gradient arrays
    path = save_checkpoint(ModelParams.init(ModelConfig(), seed=0), tmp_path / "m.auck")
    loaded, peak = traced_peak(load_checkpoint, path)
    assert loaded.config == ModelConfig()
    assert peak < 2.5 * path.stat().st_size


def test_checkpoint_float64_params_stored_as_float32(tmp_path):
    params = ModelParams.init(TINY_MODEL, seed=27, dtype=np.float64)
    path = save_checkpoint(params, tmp_path / "m.auck")
    loaded = load_checkpoint(path)
    assert loaded.dtype == np.float32
    for pa, pb in zip(params.all_parameters(), loaded.all_parameters()):
        np.testing.assert_array_equal(pa.value.astype(np.float32), pb.value)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grad_norm_sums_each_gradient_in_c_order(seed):
    # the pre-clip norm sets the clip factor, so it must not depend on the
    # memory layout a backward rule leaves a gradient in
    rng = np.random.default_rng(seed)
    config = ModelConfig()
    params = ModelParams.init(config, seed=seed)
    images = rng.uniform(0, 1, (4, 2, config.image_size, config.image_size)).astype(np.float32)
    diffs = rng.uniform(-1, 1, (4, 146)).astype(np.float32)
    labels = rng.integers(0, 2, (4, len(AU_ORDER)))
    T.backward(T.masked_cross_entropy(model_forward(params, images, diffs), labels,
                                      np.ones(len(AU_ORDER))))
    grads = [p.grad for p in params.all_parameters()]
    assert all(g.flags.c_contiguous for g in grads)
    c_order = sum(float((np.ascontiguousarray(g, np.float64) ** 2).sum()) for g in grads)
    assert T.global_grad_norm(params.all_parameters()) == float(np.sqrt(c_order))


# ---------------------------------------------------------------------------
# batch axis: one graph per batch against one graph per frame


def _row_matrix(a, i):
    """Row i of a matrix as a 1 x d matrix: one step's input to a one-step scan."""

    def push(g):
        full = np.zeros_like(a.value)
        full[i : i + 1] = g
        T._accum(a, full)

    return Tensor(a.value[i : i + 1].copy(), (a,), push)


def _mean(nodes):
    """Scalar node: the mean of scalar nodes."""

    def push(g):
        for node in nodes:
            T._accum(node, g / len(nodes))

    value = sum(float(node.value) for node in nodes) / len(nodes)
    return Tensor(np.asarray(value), tuple(nodes), push)


def _per_frame_reference(params, image, diff, labels, weights):
    """One frame's probabilities and loss node, built step by step.

    This is the per-frame graph of a one-step gru_scan node per scan step
    and a masked_cross_entropy node per known label, without the
    multi-step scans or the batch loss over several frames and labels.
    Returns (probs, loss node or None).
    """
    cfg, p = params.config, params.tensors
    x = Tensor(image.transpose(1, 2, 0)[None])  # channel-last
    for i, (_, _, stride) in enumerate(cfg.conv_spec):
        x = T.relu(T.conv2d(x, p[f"conv{i}.kernels"], p[f"conv{i}.bias"], stride))
    seq = T.spatial_sequence(x)
    h = Tensor(np.zeros((1, cfg.static_gru_hidden)))
    for t in range(seq.shape[1]):
        h = T.row(T.gru_scan(T.row(seq, t), h, *params.cell("static_gru")), 0)
    d = Tensor(diff[None])
    layers = len(cfg.dynamic_hidden)
    for i in range(layers):
        w, b = p[f"dynamic{i}.weights"], p[f"dynamic{i}.bias"]
        d = (T.tanh if i == layers - 1 else T.relu)(T.linear(w, b, d))
    state = T.tanh(T.linear(p["fusion.weights"], p["fusion.bias"], T.concat([d, h])))
    probs, terms = [], []
    for i in range(len(AU_ORDER)):
        states = T.gru_scan(_row_matrix(p["au_table"], i), state, *params.cell("query_gru"))
        state = T.row(states, 0)
        lg = T.linear(p["classifier.weights"], p["classifier.bias"], states)
        pair = lg.value[0, 0]
        probs.append(float(np.exp(pair[1] - np.logaddexp(*pair))))
        if labels[i] != -1:
            terms.append(T.masked_cross_entropy(lg, np.array([[labels[i]]]), weights[i : i + 1]))
    if not terms:
        return np.array(probs), None
    return np.array(probs), _mean(terms)


def _reference_batch(params, images, diffs, labels, weights):
    probs, losses = [], []
    for image, diff, lab in zip(images, diffs, labels):
        p, loss = _per_frame_reference(params, image, diff, lab, weights)
        probs.append(p)
        if loss is not None:
            losses.append(loss)
    return np.array(probs), _mean(losses)


def _grads(params, loss):
    T.zero_grads(params.all_parameters())
    T.backward(loss)
    return {p.name: p.grad.copy() for p in params.all_parameters()}


@pytest.mark.parametrize("frames", [1, 6])
def test_batched_forward_loss_and_gradients_match_per_frame_graphs(frames):
    from audet.tensor import masked_cross_entropy

    params = ModelParams.init(TINY_MODEL, seed=31, dtype=np.float64)
    rng = np.random.default_rng(32)
    size = TINY_MODEL.image_size
    images = rng.uniform(0, 1, (frames, 2, size, size))
    diffs = rng.uniform(-1, 1, (frames, 146))
    labels = rng.integers(-1, 2, (frames, 8)).astype(np.int8)
    labels[0, :3] = (1, 0, -1)  # partly unknown
    if frames > 1:
        labels[2] = -1  # a frame with no known label drops out of the mean
    weights = np.array([2.0, 1.0, 3.5, 1.0, 10.0, 1.0, 1.5, 4.0])

    batched = model_forward(params, images, diffs)
    batched_probs = probabilities(batched)
    assert batched_probs.shape == (frames, 8)
    assert batched.shape == (frames, 8, 2)
    loss = masked_cross_entropy(batched, labels, weights)
    got = _grads(params, loss)

    ref_probs, ref_loss = _reference_batch(params, images, diffs, labels, weights)
    want = _grads(params, ref_loss)

    np.testing.assert_allclose(batched_probs, ref_probs, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(float(loss.value), float(ref_loss.value), rtol=1e-12)
    for name, g in want.items():
        scale = max(1.0, float(np.abs(g).max()))
        assert np.abs(got[name] - g).max() <= 1e-12 * scale, name

    if frames > 1:
        # removing the all-unknown frame changes neither the loss nor a gradient
        keep = [t for t in range(frames) if t != 2]
        rest = masked_cross_entropy(model_forward(params, images[keep], diffs[keep]),
                                    labels[keep], weights)
        np.testing.assert_allclose(float(rest.value), float(loss.value), rtol=1e-12)
        for name, g in _grads(params, rest).items():
            assert np.abs(got[name] - g).max() <= 1e-12 * max(1.0, float(np.abs(g).max()))


def test_batch_extents_of_images_and_diffs_must_agree():
    params = ModelParams.zeros(TINY_MODEL)
    size = TINY_MODEL.image_size
    with pytest.raises(ContractViolation, match="batch"):
        model_forward(params, np.zeros((3, 2, size, size), np.float32),
                      np.zeros((2, 146), np.float32))
    with pytest.raises(ContractViolation, match="batch"):
        model_forward(params, np.zeros((2, size, size), np.float32),
                      np.zeros((1, 146), np.float32))


def _graph_arrays(root):
    """Values of every computed or input node under root, parameters excluded."""
    arrays, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) in seen or isinstance(node, Parameter):
            continue
        seen.add(id(node))
        arrays.append(node.value)
        stack.extend(node.parents)
    return arrays


def test_forward_results_without_a_workspace_are_independent():
    params = ModelParams.init(TINY_MODEL, seed=39)
    rng = np.random.default_rng(40)
    size = TINY_MODEL.image_size
    batches = [(rng.uniform(0, 1, (3, 2, size, size)).astype(np.float32),
                rng.uniform(-1, 1, (3, 146)).astype(np.float32)) for _ in range(2)]
    a = model_forward(params, *batches[0])
    kept = a.value.copy()
    b = model_forward(params, *batches[1])
    assert a.value.tobytes() == kept.tobytes()
    ours, theirs = _graph_arrays(a), _graph_arrays(b)
    assert len(ours) > 10
    assert not any(np.shares_memory(x, y) for x in ours for y in theirs)
