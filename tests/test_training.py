"""Tests for the training loop: loss, weights, clipping, Adam, splits."""

import hashlib
import math
import os

import numpy as np
import pytest

from audet import evaluation as E
from audet import tensor as T
from audet import training as TR
from audet.data import AU_ORDER, LANDMARK_COUNT, SynthConfig, VideoSequence, generate_synthetic
from audet.errors import ContractViolation, EmptyBatchError, NumericError
from audet.model import ModelParams, load_checkpoint, save_checkpoint
from audet.tensor import Parameter, Tensor
from audet.training import (
    AdamState,
    TrainConfig,
    adam_step,
    clip_gradients,
    compute_class_weights,
    split_videos,
    train,
    write_history,
    HISTORY_HEADER,
    _train_step,
)

from conftest import TINY_MODEL


def _logit_pair(p_active):
    # logits [0, ln(p/(1-p))] put exactly p_active on the active class
    return np.array([0.0, math.log(p_active / (1.0 - p_active))])


def _frame_loss(pairs, labels, weights):
    """The training objective on a batch of one frame with these K logit pairs."""
    return T.masked_cross_entropy(Tensor(np.stack(pairs)[None]), labels[None], weights)


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
    """masked_cross_entropy on a batch of one frame."""

    def test_uniform_logits_give_log_two(self):
        labels = _labels(0, 0, 0, 0, 0, 0, 0, 0)
        loss = _frame_loss([np.zeros(2)] * 8, labels, np.ones(8))
        np.testing.assert_allclose(float(loss.value), math.log(2.0), rtol=1e-12)

    def test_weighted_two_au_hand_case(self):
        # AU0: label 1, p_active 0.8, weight 2 -> 2 * (-ln 0.8)
        # AU1: label 0, p_active 0.6 -> -ln 0.4; every other AU unknown
        pairs = [_logit_pair(0.8), _logit_pair(0.6)] + [np.zeros(2)] * 6
        labels = _labels(1, 0, -1, -1, -1, -1, -1, -1)
        weights = np.array([2.0, 1.0, 1, 1, 1, 1, 1, 1])
        loss = _frame_loss(pairs, labels, weights)
        expected = (2.0 * -math.log(0.8) + -math.log(0.4)) / 2.0
        np.testing.assert_allclose(float(loss.value), expected, rtol=1e-9)
        np.testing.assert_allclose(float(loss.value), 0.68129, atol=5e-6)

    def test_confident_correct_prediction_is_tiny(self):
        pairs = [np.array([0.0, 20.0])] + [np.zeros(2)] * 7
        labels = _labels(1, -1, -1, -1, -1, -1, -1, -1)
        loss = _frame_loss(pairs, labels, np.ones(8))
        assert 0.0 <= float(loss.value) <= 1e-6

    def test_all_unknown_raises_empty_batch(self):
        with pytest.raises(EmptyBatchError):
            _frame_loss([np.zeros(2)] * 8, _labels(*[-1] * 8), np.ones(8))

    def test_bad_label_value_rejected(self):
        with pytest.raises(ContractViolation):
            _frame_loss([np.zeros(2)] * 8, _labels(2, 0, 0, 0, 0, 0, 0, 0), np.ones(8))

    def test_wrong_logit_count_rejected(self):
        with pytest.raises(ContractViolation):
            _frame_loss([np.zeros(2)] * 7, _labels(*[0] * 8), np.ones(8))

    def test_loss_is_never_negative(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            pairs = [rng.normal(size=2) * 5.0 for _ in AU_ORDER]
            labels = rng.integers(-1, 2, size=8).astype(np.int8)
            weights = rng.uniform(1.0, 10.0, size=8)
            if (labels == -1).all():
                with pytest.raises(EmptyBatchError):
                    _frame_loss(pairs, labels, weights)
            else:
                assert float(_frame_loss(pairs, labels, weights).value) >= 0.0


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
        w = compute_class_weights(np.array(rows, dtype=np.int8))
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
        w = compute_class_weights(np.array(rows, dtype=np.int8))
        np.testing.assert_allclose(w[0], 2.0)

    def test_bounds_hold_for_random_corpora(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            rows = rng.integers(-1, 2, size=(12, 8)).tolist()
            w = compute_class_weights(np.array(rows, dtype=np.int8))
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

    def test_clipping_rebinds_and_leaves_the_given_array_alone(self):
        rng = np.random.default_rng(5)
        params = _params_with_grads(rng, 100.0)
        given = [p.grad for p in params]
        before = [g.copy() for g in given]
        norm = clip_gradients(params, 1.0)
        assert type(norm) is float and norm > 1.0
        for p, g, b in zip(params, given, before):
            np.testing.assert_array_equal(g, b)
            assert p.grad is not g
            np.testing.assert_array_equal(p.grad, b * (1.0 / norm))

    def test_a_parameter_without_gradient_is_named(self):
        # the norm is above the cap, so clipping would scale every gradient
        params = _params_with_grads(np.random.default_rng(5), 100.0)
        params.append(Parameter(np.zeros(2), name="unused"))
        with pytest.raises(ContractViolation,
                           match="'unused' has no gradient: no backward pass reached it"):
            clip_gradients(params, 1.0)


# ---------------------------------------------------------------------------
# Adam


class TestAdam:
    def test_zero_gradients_leave_parameters_unchanged(self):
        rng = np.random.default_rng(6)
        params = [Parameter(rng.normal(size=(3, 2)), name="a")]
        params[0].grad = np.zeros_like(params[0].value)
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

        def push(g):  # gradient of (w - 3)^2
            T._accum(w, 2.0 * (w.value - 3.0) * g)

        for _ in range(2000):
            T.zero_grads([w])
            T.backward(Tensor((w.value - 3.0) ** 2, (w,), push))
            adam_step([w], state, cfg)
            if abs(float(w.value) - 3.0) < 0.01:
                break
        assert abs(float(w.value) - 3.0) < 0.01

    def test_a_parameter_without_gradient_is_named(self):
        used = Parameter(np.zeros(3), name="used")
        used.grad = np.ones(3)
        unused = Parameter(np.zeros(2), name="unused")
        state = AdamState.for_params([used, unused])
        with pytest.raises(ContractViolation,
                           match="'unused' has no gradient: no backward pass reached it"):
            adam_step([used, unused], state, TrainConfig())

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

    def test_unlabelled_batches_are_skipped(self, monkeypatch):
        # half the videos are unlabelled, so some 2-frame batches hold no known label
        corpus = generate_synthetic(SynthConfig(videos=10, frames_per_video=6, seed=3,
                                                image_size=24))
        for video in corpus[::2]:
            video.labels[...] = -1
        stepped, real = [], TR._train_step

        def recording(params, adam, batch, *args):
            stepped.append(batch[2])
            return real(params, adam, batch, *args)

        monkeypatch.setattr(TR, "_train_step", recording)
        result = train(corpus, TINY_MODEL, TrainConfig(epochs=3, batch_size=2, seed=7))
        frames = sum(len(v) for v in corpus if v.video_id in result.train_ids)
        assert len(result.history) == 3
        assert all((labels != -1).any() for labels in stepped)
        assert sum(r.steps for r in result.telemetry) == len(stepped) < 3 * frames // 2
        assert all(r.steps >= 1 for r in result.telemetry)

    def test_unlabelled_validation_split_rejected_before_training(self):
        rows = [[0, 1, 0, 0, 1, 0, 0, 0]] * 3
        ids = [f"v{i}" for i in range(5)]
        _, val_ids = split_videos([_video(i, rows) for i in ids], 7, 0.2)
        corpus = [_video(i, [[-1] * 8] * 3 if i in val_ids else rows) for i in ids]
        epochs = []
        with pytest.raises(ContractViolation, match="validation videos hold no known label"):
            _tiny_train(corpus, epochs=1, on_epoch_end=lambda stats, _: epochs.append(stats))
        assert epochs == []

    def test_frames_of_another_size_rejected_before_training(self):
        rows = [[0, 1, 0, 0, 1, 0, 0, 0]] * 3
        corpus = [_video(f"v{i}", rows, size=32) for i in range(3)]
        epochs = []
        with pytest.raises(ContractViolation, match="32 x 32 px frames.*image_size is 24"):
            _tiny_train(corpus, epochs=1, on_epoch_end=lambda stats, _: epochs.append(stats))
        assert epochs == []

    def test_class_weighting_off_trains_with_unit_weights(self, tiny_corpus):
        cfg = TrainConfig(epochs=1, batch_size=8, seed=7, class_weighting=False)
        result = train(tiny_corpus, TINY_MODEL, cfg)
        np.testing.assert_array_equal(result.class_weights, np.ones(len(AU_ORDER)))
        assert len(result.history) == 1 and math.isfinite(result.history[0].train_loss)
        # the corpus is imbalanced, so the default run weights some AU above 1
        assert _tiny_train(tiny_corpus, epochs=1).class_weights.max() > 1.0

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_diverged_last_step_fails_at_validation(self, tiny_corpus):
        # one batch per epoch: the step that breaks the weights is the
        # epoch's last, so validation is the first pass to run them
        cfg = TrainConfig(epochs=1, batch_size=64, seed=7, learning_rate=1e150)
        with pytest.raises(NumericError, match="epoch 0 validation: scoring gave a non-finite"):
            train(tiny_corpus, TINY_MODEL, cfg)


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


# ---------------------------------------------------------------------------
# forward workspace and telemetry


def _pin_training(precision):
    """The pinned run: final parameters of a 2-epoch TINY_MODEL training.

    Batch 7 leaves a 1-frame last batch of the 36 training frames.
    """
    corpus = generate_synthetic(SynthConfig(videos=5, frames_per_video=9, seed=11,
                                            image_size=24))
    cfg = TrainConfig(epochs=2, batch_size=7, seed=3, precision=precision)
    return train(corpus, TINY_MODEL, cfg).final_params


# where the float32 digest was taken; another numpy or BLAS kernel rounds
# its matmuls differently and gives another digest
PIN_HOST = "numpy 2.4.6, OpenBLAS 0.3.31 with its SkylakeX kernels"


def test_final_parameters_are_pinned():
    # sha256 of the final float32 parameters, computed before training
    # stored its forward arrays in a reused workspace: the workspace may
    # change where values live, never the values.  At these sizes the
    # digest is the same with one or two BLAS threads.  This is a
    # same-host check; test_double_precision_training_matches_the_reference
    # is the check that holds on every host.
    arrays = [p.value for p in _pin_training("single").all_parameters()]
    assert all(a.dtype == np.float32 for a in arrays)
    digest = hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()
    pin = "3c47fe6aee5d0d548d5a4e7c195a0868fb42fa8c838ef45a0bfcb7b93b8e8e9e"
    assert digest == pin, (
        f"float32 parameter digest {digest} differs from the pin, which was taken with "
        f"{PIN_HOST}; this run has numpy {np.__version__} and OPENBLAS_CORETYPE="
        f"{os.environ.get('OPENBLAS_CORETYPE', '(unset)')}.  On another host that is "
        "expected: the float64 reference test is the portable check.")


# float64 (sum, sum of squares) of each final parameter of the pinned
# run, recorded with the logistic-form gates and the h' = (1 - z) h + z c
# update that gru_scan computed before its tanh-form rewrite
DOUBLE_REFERENCE = {
    "conv0.kernels": (-2.556397256082093, 2.454047157259051),
    "conv0.bias": (-0.0008677580711598811, 1.4575120727832383e-05),
    "conv1.kernels": (-0.741585227615786, 3.1128572248064903),
    "conv1.bias": (0.0031819199056120273, 0.00021559050856904795),
    "conv2.kernels": (1.1472393261839202, 4.01552748881465),
    "conv2.bias": (0.011608261576179578, 6.30492845286174e-05),
    "static_gru.input_weights": (2.218063223733269, 6.082919900955432),
    "static_gru.hidden_weights": (-0.7761065916168204, 12.258603043542958),
    "static_gru.biases": (-0.004302088286425483, 0.000869878215126849),
    "dynamic0.weights": (7.362598671312878, 18.589549767428675),
    "dynamic0.bias": (0.02328636087804768, 0.0002266461423272335),
    "dynamic1.weights": (2.5705458411020876, 9.329843771602784),
    "dynamic1.bias": (-0.03355666143498346, 0.00023292806765603377),
    "fusion.weights": (0.9799911615589512, 9.370059560253468),
    "fusion.bias": (0.0011235654762522182, 0.00022318851772756853),
    "au_table": (-0.028524912214648812, 0.25237280432051395),
    "query_gru.input_weights": (-1.3790924558306035, 12.504648209963287),
    "query_gru.hidden_weights": (-3.566023348644339, 12.974134509782878),
    "query_gru.biases": (0.06345248212543605, 0.0014964160097147377),
    "classifier.weights": (1.430609734013283, 4.085407613988),
    "classifier.bias": (0.0, 0.0001561726056123044),
}
DOUBLE_RTOL = 1e-10


def test_double_precision_training_matches_the_reference():
    # The float64 run of the pinned training, within DOUBLE_RTOL of the
    # recorded reference on any BLAS kernel (the two agreed to 3.1e-15 on
    # SkylakeX and Haswell kernels), each number relative to itself.  The
    # one reference of 0, the sum of classifier.bias = [x, -x], is
    # compared relative to sqrt(n * sum of squares) instead, the largest
    # |sum| that n values with that sum of squares can have.
    named = _pin_training("double").named_arrays()
    assert [name for name, _ in named] == list(DOUBLE_REFERENCE)
    for name, arr in named:
        assert arr.dtype == np.float64
        ref_sum, ref_sq = DOUBLE_REFERENCE[name]
        total, sq = float(arr.sum()), float((arr * arr).sum())
        assert abs(sq - ref_sq) <= DOUBLE_RTOL * ref_sq, (name, sq, ref_sq)
        scale = abs(ref_sum) if ref_sum else math.sqrt(arr.size * ref_sq)
        assert abs(total - ref_sum) <= DOUBLE_RTOL * scale, (name, total, ref_sum)


def test_validation_is_evaluate_without_smoothing(tiny_corpus):
    epochs = []
    result = train(tiny_corpus, TINY_MODEL, TrainConfig(epochs=2, batch_size=8, seed=7),
                   on_epoch_end=lambda stats, params: epochs.append((stats, params.copy())))
    by_id = {v.video_id: v for v in tiny_corpus}
    val_videos = [by_id[i] for i in result.val_ids]
    assert [stats.epoch for stats, _ in epochs] == [0, 1]
    for stats, params in epochs:
        scores = E.evaluate(params, val_videos, 1).unsmoothed
        assert stats.val_accuracy == scores.accuracy
        assert stats.val_f1 == scores.mean_f1
        assert stats.val_metric == scores.metric


def test_validation_neither_smooths_nor_scores_twice(tiny_corpus, monkeypatch):
    calls = []

    def counting(real):
        def call(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(E, "smooth", counting(E.smooth))
    monkeypatch.setattr(E, "challenge_metric", counting(E.challenge_metric))
    train(tiny_corpus, TINY_MODEL, TrainConfig(epochs=1, batch_size=8, seed=7))
    assert calls == ["challenge_metric"]


def _random_batch(rng, frames):
    size = TINY_MODEL.image_size
    return (rng.uniform(0, 1, (frames, 2, size, size)).astype(np.float32),
            rng.uniform(-1, 1, (frames, 2 * LANDMARK_COUNT)).astype(np.float32),
            rng.integers(0, 2, (frames, len(AU_ORDER))).astype(np.int8))


class TestWorkspace:
    def setup_method(self):
        self.params = ModelParams.init(TINY_MODEL, seed=5)
        self.adam = AdamState.for_params(self.params.all_parameters())
        self.rng = np.random.default_rng(9)

    def step(self, batch, workspace):
        return _train_step(self.params, self.adam, batch, np.ones(len(AU_ORDER)),
                           TrainConfig(), "test step", workspace)

    def test_steps_of_one_batch_shape_allocate_no_new_buffers(self):
        ws = T.Workspace()
        self.step(_random_batch(self.rng, 6), ws)
        held, allocated = list(ws.buffers), ws.allocations
        assert allocated > 0
        for _ in range(3):
            self.step(_random_batch(self.rng, 6), ws)
        assert ws.allocations == allocated
        assert all(a is b for a, b in zip(held, ws.buffers)) and len(held) == len(ws.buffers)
        self.step(_random_batch(self.rng, 4), ws)  # a short last batch
        assert ws.allocations > allocated

    def test_steps_in_a_workspace_equal_steps_on_fresh_arrays(self):
        batches = [_random_batch(self.rng, n) for n in (6, 6, 4, 6)]
        start = self.params.copy()
        ws = T.Workspace()
        with_ws = [self.step(b, ws) for b in batches]
        reused = self.params
        self.params = start
        self.adam = AdamState.for_params(start.all_parameters())
        fresh = [self.step(b, T.Workspace()) for b in batches]
        assert with_ws == fresh
        for (name, a), (_, b) in zip(reused.named_arrays(), start.named_arrays()):
            assert a.tobytes() == b.tobytes(), name

    def test_train_passes_one_workspace_to_every_step_and_validation(self, tiny_corpus,
                                                                     monkeypatch):
        seen = []

        def recording(real):
            def call(*args, **kwargs):
                seen.append((real.__name__, kwargs.get("workspace", args[-1])))
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(TR, "_train_step", recording(TR._train_step))
        monkeypatch.setattr(E, "score_frames", recording(E.score_frames))
        train(tiny_corpus, TINY_MODEL, TrainConfig(epochs=2, batch_size=8, seed=7))
        assert {name for name, _ in seen} == {"_train_step", "score_frames"}
        assert len({id(ws) for _, ws in seen}) == 1
        assert isinstance(seen[0][1], T.Workspace)

    def test_scoring_passes_refill_a_default_batch_steps_buffers(self, tiny_corpus):
        assert TrainConfig().batch_size == E.SCORING_BATCH
        ws = T.Workspace()
        self.step(_random_batch(self.rng, E.SCORING_BATCH), ws)
        allocated = ws.allocations
        videos = [VideoSequence(v.video_id, v.planes[:8], v.landmarks[:8], v.labels[:8])
                  for v in tiny_corpus]  # 32 frames: two passes of 16
        E.score_frames(self.params, videos, ws)
        assert ws.allocations == allocated

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_failed_step_leaves_no_workspace_active(self):
        unknown = _random_batch(self.rng, 3)
        unknown[2][...] = -1
        with pytest.raises(EmptyBatchError, match="every label in the batch is -1"):
            self.step(unknown, T.Workspace())
        assert T._active.get() is None
        self.params.tensors["classifier.bias"].value[...] = np.nan
        with pytest.raises(NumericError, match="diverged"):
            self.step(_random_batch(self.rng, 3), T.Workspace())
        assert T._active.get() is None


class TestTelemetry:
    def test_one_record_per_epoch_beside_the_history(self, tiny_corpus):
        order = []
        result = train(tiny_corpus, TINY_MODEL, TrainConfig(epochs=2, batch_size=8, seed=7),
                       on_epoch_end=lambda stats, _: order.append(("stats", stats.epoch)),
                       on_telemetry=lambda record: order.append(("telemetry", record.epoch)))
        assert order == [("stats", 0), ("telemetry", 0), ("stats", 1), ("telemetry", 1)]
        frames = sum(len(v) for v in tiny_corpus if v.video_id in result.train_ids)
        assert [r.epoch for r in result.telemetry] == [0, 1]
        for r in result.telemetry:
            assert r.steps == math.ceil(frames / 8)
            assert 0.0 < r.grad_norm_mean <= r.grad_norm_max
            assert 0.0 <= r.clipped_fraction <= 1.0
            assert r.step_seconds > 0.0 and r.validation_seconds > 0.0
            assert r.summary().startswith(f"epoch {r.epoch}: grad_norm mean ")

    def test_norms_are_those_clip_gradients_returns(self, tiny_corpus, monkeypatch):
        returned = []

        def recording(params, max_norm):
            returned.append(clip_gradients(params, max_norm))
            return returned[-1]

        monkeypatch.setattr(TR, "clip_gradients", recording)
        cfg = TrainConfig(epochs=1, batch_size=8, seed=7, grad_clip_global_norm=0.25)
        record = train(tiny_corpus, TINY_MODEL, cfg).telemetry[0]
        assert record.steps == len(returned)
        assert record.grad_norm_max == max(returned)
        assert record.grad_norm_mean == pytest.approx(sum(returned) / len(returned), rel=1e-12)
        assert record.clipped_fraction == sum(n > 0.25 for n in returned) / len(returned)
        assert 0.0 < record.clipped_fraction < 1.0  # steps on both sides of the threshold
