"""Model tests: branch shapes, zero-parameter fixed points, decoder
causality, parameter accounting, and the checkpoint container."""

import os

import numpy as np
import pytest

from audet.data import AU_ORDER
from audet.errors import ContractViolation, FormatError
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
    save_checkpoint,
    static_forward,
)
from audet import tensor as T
from audet.tensor import Parameter, Tensor, finite_difference_check, total, mul

from conftest import TINY_MODEL


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
    with pytest.raises(ContractViolation, match="2 image planes"):
        ModelConfig(conv_spec=((3, 8, 3, 1),)).validate()
    with pytest.raises(ContractViolation, match="channels"):
        ModelConfig(conv_spec=((2, 8, 3, 1), (4, 8, 3, 1))).validate()
    with pytest.raises(ContractViolation, match="tanh"):
        ModelConfig(dynamic_hidden=((64, "relu"),)).validate()
    with pytest.raises(ContractViolation, match="smaller than kernel"):
        ModelConfig(image_size=8).validate()


def test_config_kv_round_trip():
    for cfg in (ModelConfig(), TINY_MODEL):
        assert ModelConfig.from_kv(cfg.to_kv(), "test") == cfg


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
    assert h_dynamic.shape == (1, TINY_MODEL.dynamic_hidden[-1][0])
    assert np.all(np.abs(h_dynamic.value) < 1.0)
    fused = fuse(params, h_dynamic, h_static)
    assert fused.shape == (1, TINY_MODEL.fusion_out)
    assert np.all(np.abs(fused.value) < 1.0)

    result = model_forward(params, image, diff)
    assert result.probs.shape == (1, 8)
    assert result.probs.dtype == np.float64
    assert np.all((result.probs > 0.0) & (result.probs < 1.0))
    assert result.logits.shape == (1, 8, 2)


def test_zero_params_give_indifferent_predictions():
    params = ModelParams.zeros(TINY_MODEL, dtype=np.float64)
    image, diff = _inputs(TINY_MODEL)
    h_static = static_forward(params, image)
    np.testing.assert_array_equal(h_static.value, np.zeros((1, TINY_MODEL.static_gru_hidden)))
    h_dynamic = dynamic_forward(params, diff)
    np.testing.assert_array_equal(h_dynamic.value,
                                  np.zeros((1, TINY_MODEL.dynamic_hidden[-1][0])))
    result = model_forward(params, image, diff)
    np.testing.assert_array_equal(result.probs, np.full((1, 8), 0.5))


def test_fusion_concatenates_dynamic_before_static():
    params = ModelParams.zeros(TINY_MODEL, dtype=np.float64)
    d = TINY_MODEL.dynamic_hidden[-1][0]
    s = TINY_MODEL.static_gru_hidden
    # weights that copy the dynamic half and ignore the static half
    w = np.zeros((TINY_MODEL.fusion_out, d + s))
    w[:d, :d] = np.eye(d)
    params.fusion_weights.value[...] = w
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
    weights = Tensor(rng.uniform(-1, 1, TINY_MODEL.dynamic_hidden[-1][0]))

    def loss_fn():
        from audet.model import _ACTIVATIONS
        from audet.tensor import linear

        x = diff
        for (w, b), (_, act) in zip(params.dynamic_layers, TINY_MODEL.dynamic_hidden):
            x = _ACTIVATIONS[act](linear(w, b, x))
        return total(mul(x, weights))

    assert finite_difference_check(loss_fn, [diff], 1e-3) <= 1e-5


def test_decoder_causality():
    params = ModelParams.init(TINY_MODEL, seed=5, dtype=np.float64)
    image, diff = _inputs(TINY_MODEL, seed=6)
    base = model_forward(params, image, diff).probs
    rng = np.random.default_rng(7)
    for j in (1, 4, 7):
        bumped = params.copy()
        bumped.au_table.value[j] += rng.uniform(0.5, 1.0, TINY_MODEL.au_embedding_dim)
        probs = model_forward(bumped, image, diff).probs
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
    clone.au_table.value[0, 0] += 1.0
    assert params.au_table.value[0, 0] != clone.au_table.value[0, 0]


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
        model_forward(params, image, diff).probs, model_forward(loaded, image, diff).probs
    )


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


def test_checkpoint_float64_params_stored_as_float32(tmp_path):
    params = ModelParams.init(TINY_MODEL, seed=27, dtype=np.float64)
    path = save_checkpoint(params, tmp_path / "m.auck")
    loaded = load_checkpoint(path)
    assert loaded.dtype == np.float32
    for pa, pb in zip(params.all_parameters(), loaded.all_parameters()):
        np.testing.assert_array_equal(pa.value.astype(np.float32), pb.value)


# ---------------------------------------------------------------------------
# batch axis: one graph per batch against one graph per frame


def _per_frame_reference(params, image, diff, labels, weights):
    """One frame's probabilities and loss node, built step by step.

    This is the per-frame graph of one gru_cell node per scan step and
    one softmax_cross_entropy node per known label, without the batched
    scan or the masked batch loss.  Returns (probs, loss node or None).
    """
    from audet import tensor as T

    cfg = params.config
    x = Tensor(image)
    for (kern, bias), (_, _, _, stride) in zip(params.conv_layers, cfg.conv_spec):
        x = T.relu(T.conv2d(x, kern, bias, stride))
    seq = T.spatial_sequence(x)
    h = Tensor(np.zeros(cfg.static_gru_hidden))
    for t in range(seq.shape[0]):
        h = T.gru_cell(T.row(seq, t), h, params.static_gru)
    d = Tensor(diff)
    for (w, b), (_, act) in zip(params.dynamic_layers, cfg.dynamic_hidden):
        d = (T.relu if act == "relu" else T.tanh)(T.linear(w, b, d))
    state = T.tanh(T.linear(params.fusion_weights, params.fusion_bias, T.concat([d, h])))
    probs, terms = [], []
    for i in range(len(AU_ORDER)):
        state = T.gru_cell(T.row(params.au_table, i), state, params.query_gru)
        lg = T.linear(params.classifier_weights, params.classifier_bias, state)
        p, ce = T.softmax_cross_entropy(lg, int(max(labels[i], 0)))
        probs.append(float(p.value[1]))
        if labels[i] != -1:
            terms.append(T.scale(ce, weights[i]) if labels[i] == 1 else ce)
    if not terms:
        return np.array(probs), None
    node = terms[0]
    for extra in terms[1:]:
        node = T.add(node, extra)
    return np.array(probs), T.scale(node, 1.0 / len(terms))


def _reference_batch(params, images, diffs, labels, weights):
    from audet import tensor as T

    probs, losses = [], []
    for image, diff, lab in zip(images, diffs, labels):
        p, loss = _per_frame_reference(params, image, diff, lab, weights)
        probs.append(p)
        if loss is not None:
            losses.append(loss)
    node = losses[0]
    for extra in losses[1:]:
        node = T.add(node, extra)
    return np.array(probs), T.scale(node, 1.0 / len(losses))


def _grads(params, loss):
    from audet import tensor as T

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
    assert batched.probs.shape == (frames, 8)
    assert batched.logits.shape == (frames, 8, 2)
    loss = masked_cross_entropy(batched.logits, labels, weights)
    got = _grads(params, loss)

    ref_probs, ref_loss = _reference_batch(params, images, diffs, labels, weights)
    want = _grads(params, ref_loss)

    np.testing.assert_allclose(batched.probs, ref_probs, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(float(loss.value), float(ref_loss.value), rtol=1e-12)
    for name, g in want.items():
        scale = max(1.0, float(np.abs(g).max()))
        assert np.abs(got[name] - g).max() <= 1e-12 * scale, name

    if frames > 1:
        # removing the all-unknown frame changes neither the loss nor a gradient
        keep = [t for t in range(frames) if t != 2]
        rest = masked_cross_entropy(model_forward(params, images[keep], diffs[keep]).logits,
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


def test_score_frames_chunks_match_one_batch(monkeypatch):
    import audet.model as M

    params = ModelParams.init(TINY_MODEL, seed=35, dtype=np.float64)
    rng = np.random.default_rng(36)
    size = TINY_MODEL.image_size
    images = rng.uniform(0, 1, (10, 2, size, size))
    diffs = rng.uniform(-1, 1, (10, 146))
    whole = model_forward(params, images, diffs)
    monkeypatch.setattr(M, "SCORING_BATCH", 4)  # chunks of 4, 4 and 2 frames
    probs, logits = M.score_frames(params, images, diffs)
    assert probs.shape == (10, 8) and logits.shape == (10, 8, 2)
    np.testing.assert_allclose(probs, whole.probs, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(logits, whole.logits.value, rtol=1e-12, atol=1e-14)


def test_scores_from_a_workspace_outlive_the_next_video(tiny_corpus):
    import audet.model as M

    params = ModelParams.init(TINY_MODEL, seed=37)
    first, second = (v.model_inputs(np.float32) for v in tiny_corpus[:2])
    assert first[0].shape == second[0].shape
    ws = T.Workspace()
    probs, logits = M.score_frames(params, *first, workspace=ws)
    kept = probs.copy(), logits.copy()
    allocated = ws.allocations
    other, _ = M.score_frames(params, *second, workspace=ws)
    assert ws.allocations == allocated  # the second video reused every buffer
    assert probs.tobytes() == kept[0].tobytes() and logits.tobytes() == kept[1].tobytes()
    assert not np.array_equal(other, probs)
    fresh = M.score_frames(params, *first)
    assert fresh[0].tobytes() == probs.tobytes() and fresh[1].tobytes() == logits.tobytes()


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
    kept = a.probs.copy(), a.logits.value.copy()
    b = model_forward(params, *batches[1])
    assert a.probs.tobytes() == kept[0].tobytes()
    assert a.logits.value.tobytes() == kept[1].tobytes()
    ours, theirs = _graph_arrays(a.logits), _graph_arrays(b.logits)
    assert len(ours) > 10
    assert not any(np.shares_memory(x, y) for x in ours for y in theirs)
