"""Tests for the training loop: loss, weights, clipping, Adam, splits."""

import math

import numpy as np
import pytest

from audet import tensor as T
from audet.data import AU_ORDER, LANDMARK_COUNT, VideoSequence
from audet.errors import ContractViolation, EmptyBatchError, NumericError
from audet.model import ModelParams, load_checkpoint, save_checkpoint
from audet.tensor import Parameter, Tensor
from audet.training import (
    AdamState,
    TrainConfig,
    adam_step,
    clip_gradients,
    compute_class_weights,
    frame_loss,
    split_videos,
    train,
    write_history,
    HISTORY_HEADER,
)

from conftest import TINY_MODEL


def _logit_pair(p_active):
    # logits [0, ln(p/(1-p))] put exactly p_active on the active class
    return Tensor(np.array([0.0, math.log(p_active / (1.0 - p_active))]))


def _labels(*values):
    return np.asarray(values, dtype=np.int8)


def _video(video_id, label_rows, size=24):
    """Minimal valid video with the given per-frame label rows."""
    n = len(label_rows)
    return VideoSequence(
        video_id=video_id,
        planes=np.zeros((n, 2, size, size), dtype=np.uint8),
        landmarks=np.full((n, LANDMARK_COUNT, 2), 0.5, dtype=np.float32),
        labels=np.asarray(label_rows, dtype=np.int8),
    )


# ---------------------------------------------------------------------------
# frame loss


class TestFrameLoss:
    def test_uniform_logits_give_log_two(self):
        logits = [Tensor(np.zeros(2)) for _ in AU_ORDER]
        labels = _labels(0, 0, 0, 0, 0, 0, 0, 0)
        loss = frame_loss(logits, labels, np.ones(8))
        np.testing.assert_allclose(float(loss.value), math.log(2.0), rtol=1e-12)

    def test_weighted_two_au_hand_case(self):
        # AU0: label 1, p_active 0.8, weight 2 -> 2 * (-ln 0.8)
        # AU1: label 0, p_active 0.6 -> -ln 0.4; every other AU unknown
        logits = [_logit_pair(0.8), _logit_pair(0.6)]
        logits += [Tensor(np.zeros(2)) for _ in range(6)]
        labels = _labels(1, 0, -1, -1, -1, -1, -1, -1)
        weights = np.array([2.0, 1.0, 1, 1, 1, 1, 1, 1])
        loss = frame_loss(logits, labels, weights)
        expected = (2.0 * -math.log(0.8) + -math.log(0.4)) / 2.0
        np.testing.assert_allclose(float(loss.value), expected, rtol=1e-9)
        np.testing.assert_allclose(float(loss.value), 0.68129, atol=5e-6)

    def test_confident_correct_prediction_is_tiny(self):
        logits = [Tensor(np.array([0.0, 20.0]))]
        logits += [Tensor(np.zeros(2)) for _ in range(7)]
        labels = _labels(1, -1, -1, -1, -1, -1, -1, -1)
        loss = frame_loss(logits, labels, np.ones(8))
        assert 0.0 <= float(loss.value) <= 1e-6

    def test_all_unknown_returns_none(self):
        logits = [Tensor(np.zeros(2)) for _ in AU_ORDER]
        assert frame_loss(logits, _labels(*[-1] * 8), np.ones(8)) is None

    def test_bad_label_value_rejected(self):
        logits = [Tensor(np.zeros(2)) for _ in AU_ORDER]
        with pytest.raises(ContractViolation):
            frame_loss(logits, _labels(2, 0, 0, 0, 0, 0, 0, 0), np.ones(8))

    def test_wrong_logit_count_rejected(self):
        logits = [Tensor(np.zeros(2)) for _ in range(7)]
        with pytest.raises(ContractViolation):
            frame_loss(logits, _labels(*[0] * 8), np.ones(8))

    def test_loss_is_never_negative(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            logits = [Tensor(rng.normal(size=2) * 5.0) for _ in AU_ORDER]
            labels = rng.integers(-1, 2, size=8).astype(np.int8)
            weights = rng.uniform(1.0, 10.0, size=8)
            loss = frame_loss(logits, labels, weights)
            if loss is None:
                assert (labels == -1).all()
            else:
                assert float(loss.value) >= 0.0


# ---------------------------------------------------------------------------
# class weights


class TestClassWeights:
    def test_ratio_and_clipping(self):
        rows = []
        # AU1: 1 pos, 3 neg -> 3.  AU2: 1 pos, 30+ neg -> capped at 10.
        # AU4: all pos -> ratio 0 floors to 1.  AU6: no pos -> cap 10.
        for t in range(40):
            rows.append(
                [
                    1 if t < 10 else (0 if t < 40 else -1),
                    1 if t == 0 else 0,
                    1,
                    0,
                    1 if t < 20 else 0,
                    0 if t < 20 else 1,
                    1 if t % 2 == 0 else 0,
                    -1,
                ]
            )
        video = _video("w0", rows)
        w = compute_class_weights([video])
        np.testing.assert_allclose(w[0], 3.0)
        np.testing.assert_allclose(w[1], 10.0)
        np.testing.assert_allclose(w[2], 1.0)
        np.testing.assert_allclose(w[3], 10.0)
        np.testing.assert_allclose(w[4], 1.0)
        np.testing.assert_allclose(w[5], 1.0)
        np.testing.assert_allclose(w[6], 1.0)
        np.testing.assert_allclose(w[7], 10.0)

    def test_unknowns_ignored(self):
        rows = [[1, -1, -1, -1, -1, -1, -1, -1]] * 2 + [[0, -1, -1, -1, -1, -1, -1, -1]] * 4
        w = compute_class_weights([_video("w1", rows)])
        np.testing.assert_allclose(w[0], 2.0)

    def test_bounds_hold_for_random_corpora(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            rows = rng.integers(-1, 2, size=(12, 8)).tolist()
            w = compute_class_weights([_video("wr", rows)])
            assert w.shape == (8,)
            assert (w >= 1.0).all() and (w <= 10.0).all()


# ---------------------------------------------------------------------------
# gradient clipping


def _params_with_grads(rng, scale):
    params = []
    for i, shape in enumerate([(4, 3), (7,), (2, 2, 3)]):
        p = Parameter(rng.normal(size=shape), name=f"p{i}")
        p.grad = rng.normal(size=shape) * scale
        params.append(p)
    return params


class TestClipGradients:
    def test_norm_respected_after_clipping(self):
        rng = np.random.default_rng(2)
        for scale in (0.1, 1.0, 25.0, 1e4):
            params = _params_with_grads(rng, scale)
            raw = math.sqrt(sum(float((p.grad**2).sum()) for p in params))
            returned = clip_gradients(params, 5.0)
            np.testing.assert_allclose(returned, raw, rtol=1e-12)
            after = math.sqrt(sum(float((p.grad**2).sum()) for p in params))
            assert after <= 5.0 + 1e-6

    def test_small_gradients_untouched(self):
        rng = np.random.default_rng(3)
        params = _params_with_grads(rng, 1e-3)
        before = [p.grad.copy() for p in params]
        clip_gradients(params, 5.0)
        for p, b in zip(params, before):
            np.testing.assert_array_equal(p.grad, b)

    def test_direction_preserved(self):
        rng = np.random.default_rng(4)
        params = _params_with_grads(rng, 100.0)
        before = [p.grad.copy() for p in params]
        clip_gradients(params, 1.0)
        for p, b in zip(params, before):
            ratio = p.grad / b
            np.testing.assert_allclose(ratio, ratio.flat[0], rtol=1e-9)

    def test_bad_threshold_rejected(self):
        with pytest.raises(ContractViolation):
            clip_gradients([], 0.0)


# ---------------------------------------------------------------------------
# Adam


class TestAdam:
    def test_zero_gradients_leave_parameters_unchanged(self):
        rng = np.random.default_rng(6)
        params = [Parameter(rng.normal(size=(3, 2)), name="a")]
        before = params[0].value.copy()
        state = AdamState.for_params(params)
        adam_step(params, state, TrainConfig())
        np.testing.assert_array_equal(params[0].value, before)

    def test_first_step_moves_by_lr_times_sign(self):
        cfg = TrainConfig(learning_rate=1e-2)
        grads = np.array([3.0, -0.25, 1e-4, -40.0])
        p = Parameter(np.zeros(4), name="b")
        p.grad = grads.copy()
        state = AdamState.for_params([p])
        adam_step([p], state, cfg)
        np.testing.assert_allclose(p.value, -cfg.learning_rate * np.sign(grads), rtol=1e-3)

    def test_quadratic_converges(self):
        # minimise (w - 3)^2 from w = 0 at lr 1e-2
        cfg = TrainConfig(learning_rate=1e-2)
        w = Parameter(np.zeros(()), name="w")
        state = AdamState.for_params([w])
        for _ in range(2000):
            T.zero_grads([w])
            a = T.add(w, Tensor(np.asarray(-3.0)))
            loss = T.mul(a, a)
            T.backward(loss)
            adam_step([w], state, cfg)
            if abs(float(w.value) - 3.0) < 0.01:
                break
        assert abs(float(w.value) - 3.0) < 0.01

    def test_non_finite_gradient_names_parameter(self):
        p = Parameter(np.zeros(3), name="conv1.bias")
        p.grad = np.array([0.0, np.nan, 0.0])
        state = AdamState.for_params([p])
        with pytest.raises(NumericError, match="conv1.bias"):
            adam_step([p], state, TrainConfig())

    def test_steps_are_deterministic(self):
        def run():
            rng = np.random.default_rng(8)
            p = Parameter(rng.normal(size=5), name="c")
            state = AdamState.for_params([p])
            cfg = TrainConfig()
            for _ in range(10):
                p.grad = rng.normal(size=5)
                adam_step([p], state, cfg)
            return p.value

        np.testing.assert_array_equal(run(), run())


# ---------------------------------------------------------------------------
# train/validation split


class TestSplitVideos:
    def test_split_is_disjoint_and_complete(self):
        videos = [_video(f"v{i:03d}", [[0] * 8] * 3, size=8) for i in range(10)]
        all_ids = {v.video_id for v in videos}
        for seed in range(20):
            tr, va = split_videos(videos, seed, 0.2)
            assert set(tr) | set(va) == all_ids
            assert set(tr) & set(va) == set()
            assert len(va) >= 1 and len(tr) >= 1

    def test_fifty_videos_give_ten_validation(self):
        videos = [_video(f"v{i:03d}", [[0] * 8] * 3, size=8) for i in range(50)]
        tr, va = split_videos(videos, 7, 0.2)
        assert len(va) == 10 and len(tr) == 40

    def test_order_independent_and_deterministic(self):
        videos = [_video(f"v{i:03d}", [[0] * 8] * 3, size=8) for i in range(12)]
        a = split_videos(videos, 7, 0.2)
        b = split_videos(list(reversed(videos)), 7, 0.2)
        assert a == b
        assert va_sorted(a[1])

    def test_too_few_videos_rejected(self):
        with pytest.raises(ContractViolation):
            split_videos([_video("only", [[0] * 8] * 3, size=8)], 7, 0.2)

    def test_duplicate_ids_rejected(self):
        v = _video("dup", [[0] * 8] * 3, size=8)
        with pytest.raises(ContractViolation):
            split_videos([v, v], 7, 0.2)


def va_sorted(ids):
    return list(ids) == sorted(ids)


# ---------------------------------------------------------------------------
# full loop


def _tiny_train(corpus, epochs=2, on_epoch_end=None):
    cfg = TrainConfig(epochs=epochs, batch_size=8, seed=7)
    return train(corpus, TINY_MODEL, cfg, on_epoch_end=on_epoch_end)


class TestTrain:
    def test_runs_are_bitwise_identical(self, tiny_corpus):
        a = _tiny_train(tiny_corpus)
        b = _tiny_train(tiny_corpus)
        assert [s.__dict__ for s in a.history] == [s.__dict__ for s in b.history]
        for name, arr in a.final_params.named_arrays():
            np.testing.assert_array_equal(arr, dict(b.final_params.named_arrays())[name])
        for name, arr in a.best_params.named_arrays():
            np.testing.assert_array_equal(arr, dict(b.best_params.named_arrays())[name])

    def test_mid_training_save_load_does_not_perturb(self, tiny_corpus, tmp_path):
        plain = _tiny_train(tiny_corpus, epochs=3)

        path = tmp_path / "mid.ckpt"

        def snapshot(stats, params):
            if stats.epoch == 1:
                save_checkpoint(params, path)
                loaded = load_checkpoint(path)
                for name, arr in params.named_arrays():
                    np.testing.assert_array_equal(arr, dict(loaded.named_arrays())[name])

        saved = _tiny_train(tiny_corpus, epochs=3, on_epoch_end=snapshot)
        assert path.exists()
        for name, arr in plain.final_params.named_arrays():
            np.testing.assert_array_equal(arr, dict(saved.final_params.named_arrays())[name])
        assert [s.__dict__ for s in plain.history] == [s.__dict__ for s in saved.history]

    def test_loss_decreases_on_tiny_corpus(self, tiny_corpus):
        result = _tiny_train(tiny_corpus, epochs=4)
        assert result.history[-1].train_loss < result.history[0].train_loss

    def test_history_and_result_shape(self, tiny_corpus):
        result = _tiny_train(tiny_corpus)
        assert len(result.history) == 2
        assert [s.epoch for s in result.history] == [0, 1]
        assert result.best_epoch in (0, 1)
        assert result.best_metric == max(s.val_metric for s in result.history)
        assert set(result.train_ids) & set(result.val_ids) == set()
        assert result.class_weights.shape == (8,)
        for s in result.history:
            assert s.train_loss >= 0.0 and s.val_loss >= 0.0

    def test_all_unknown_labels_abort(self):
        corpus = [
            _video("u0", [[-1] * 8] * 3),
            _video("u1", [[-1] * 8] * 3),
        ]
        with pytest.raises(EmptyBatchError, match="-1"):
            _tiny_train(corpus, epochs=1)

    def test_unlabelled_validation_split_rejected_before_training(self):
        rows = [[0, 1, 0, 0, 1, 0, 0, 0]] * 3
        ids = [f"v{i}" for i in range(5)]
        _, val_ids = split_videos([_video(i, rows) for i in ids], 7, 0.2)
        corpus = [_video(i, [[-1] * 8] * 3 if i in val_ids else rows) for i in ids]
        epochs = []
        with pytest.raises(ContractViolation, match="validation videos hold no known label"):
            _tiny_train(corpus, epochs=1, on_epoch_end=lambda stats, _: epochs.append(stats))
        assert epochs == []

    def test_double_precision_batched_runs_are_bitwise_identical(self, tiny_corpus):
        cfg = TrainConfig(epochs=1, batch_size=16, seed=3, precision="double")
        a = train(tiny_corpus, TINY_MODEL, cfg)
        b = train(tiny_corpus, TINY_MODEL, cfg)
        assert a.final_params.dtype == np.float64
        for (name, arr), (_, other) in zip(a.final_params.named_arrays(),
                                           b.final_params.named_arrays()):
            assert arr.tobytes() == other.tobytes(), name

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_absurd_learning_rate_diverges_with_location(self, tiny_corpus):
        cfg = TrainConfig(epochs=1, batch_size=8, seed=7, learning_rate=1e150)
        with pytest.raises(NumericError) as err:
            train(tiny_corpus, TINY_MODEL, cfg)
        assert "epoch" in str(err.value) and "batch" in str(err.value)


class TestWriteHistory:
    def test_csv_format(self, tiny_corpus, tmp_path):
        result = _tiny_train(tiny_corpus)
        path = write_history(result.history, tmp_path / "history.csv")
        lines = path.read_text().strip().split("\n")
        assert lines[0] == HISTORY_HEADER
        assert len(lines) == 1 + len(result.history)
        for row, stats in zip(lines[1:], result.history):
            fields = row.split(",")
            assert len(fields) == 6
            assert int(fields[0]) == stats.epoch
            np.testing.assert_allclose(float(fields[1]), stats.train_loss, atol=5e-7)
            for f in fields[1:]:
                assert len(f.split(".")[1]) == 6
