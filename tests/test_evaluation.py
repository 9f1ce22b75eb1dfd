"""Tests for scoring: binarization, smoothing, F1, challenge metric."""

import numpy as np
import pytest

from audet import evaluation as E
from audet.data import (AU_ORDER, PROTOTYPE_LABELS, FrameStream, SynthConfig, VideoSequence,
                        generate_synthetic)
from audet.errors import ContractViolation, NumericError
from audet.evaluation import (
    PREDICTION_HEADER,
    REPORT_CSV_HEADER,
    PredictionTrack,
    binarize,
    challenge_metric,
    evaluate,
    f1_from_counts,
    predict_video,
    render_report,
    smooth,
    write_binary_csv,
    write_probability_csv,
    write_report_csv,
)
from audet.model import ModelConfig, ModelParams, model_forward

from conftest import TINY_MODEL, probabilities, traced_peak
from naive_scorer import naive_score


def _single_au_case(labels, predictions):
    """Wrap one AU's track; every other AU is unknown everywhere."""
    n = len(labels)
    lab = np.full((n, 8), -1, dtype=np.int8)
    pred = np.zeros((n, 8), dtype=np.int8)
    lab[:, 0] = labels
    pred[:, 0] = predictions
    return {"v": pred}, {"v": lab}


# ---------------------------------------------------------------------------
# binarize


class TestBinarize:
    def test_hand_values(self):
        out = binarize(np.array([0.7, 0.3, 0.5]))
        np.testing.assert_array_equal(out, [1, 0, 1])

    def test_exact_threshold_counts_as_active(self):
        assert binarize(np.array([0.5]))[0] == 1

    def test_shape_and_dtype(self):
        probs = np.random.default_rng(0).uniform(size=(6, 8))
        out = binarize(probs)
        assert out.shape == probs.shape and out.dtype == np.int8
        assert np.isin(out, (0, 1)).all()


# ---------------------------------------------------------------------------
# smoothing


def _majority_reference(track, window):
    half = window // 2
    out = []
    for t in range(len(track)):
        votes = [track[min(max(t + k, 0), len(track) - 1)] for k in range(-half, half + 1)]
        out.append(1 if sum(votes) * 2 > window else 0)
    return out


def _smooth_column(track, window):
    """Majority vote over one 0/1 track: the one-column case of smooth."""
    return smooth(np.asarray(track)[:, None], window)[:, 0]


class TestSmoothing:
    def test_window_one_is_identity(self):
        track = np.array([0, 1, 1, 0, 1], dtype=np.int8)
        np.testing.assert_array_equal(_smooth_column(track, 1), track)

    def test_isolated_spike_removed(self):
        out = _smooth_column(np.array([0, 1, 0, 0, 0]), 3)
        np.testing.assert_array_equal(out, [0, 0, 0, 0, 0])

    def test_boundary_spike_survives_replicate_padding(self):
        # the padded first window sees the first value twice
        out = _smooth_column(np.array([1, 0, 0, 0, 0]), 3)
        np.testing.assert_array_equal(out, [1, 0, 0, 0, 0])

    @pytest.mark.parametrize("window", [1, 3, 5, 9])
    def test_constant_tracks_unchanged(self, window):
        for value in (0, 1):
            track = np.full(7, value, dtype=np.int8)
            np.testing.assert_array_equal(_smooth_column(track, window), track)

    @pytest.mark.parametrize("window", [0, 2, 4, -3])
    def test_even_or_nonpositive_window_rejected(self, window):
        with pytest.raises(ContractViolation):
            _smooth_column(np.array([0, 1, 0]), window)

    def test_matches_reference_vote(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            track = rng.integers(0, 2, size=n)
            for window in (1, 3, 5, 7):
                np.testing.assert_array_equal(
                    _smooth_column(track, window), _majority_reference(track.tolist(), window)
                )

    def test_window_longer_than_track(self):
        # replicate padding repeats the endpoints, so the leading 1 wins
        # its own window: [1,1,1,1,0,0,0] has four active votes of seven
        np.testing.assert_array_equal(_smooth_column(np.array([1, 0, 0]), 7), [1, 0, 0])

    def test_non_binary_rejected(self):
        with pytest.raises(ContractViolation):
            _smooth_column(np.array([0, 2, 0]), 3)

    def test_columns_smoothed_independently(self):
        arr = np.zeros((5, 8), dtype=np.int8)
        arr[1, 3] = 1  # spike in one AU only
        arr[:, 5] = 1
        out = smooth(arr, 3)
        assert out.shape == arr.shape
        np.testing.assert_array_equal(out[:, 3], 0)
        np.testing.assert_array_equal(out[:, 5], 1)

    def test_smooth_requires_2d(self):
        with pytest.raises(ContractViolation):
            smooth(np.array([0, 1, 0]), 3)

    def test_every_column_matches_reference_vote(self):
        rng = np.random.default_rng(19)
        for _ in range(60):
            n = int(rng.integers(1, 81))
            arr = rng.integers(0, 2, size=(n, 8)).astype(np.int8)
            for window in range(1, 14, 2):  # past the track's length for short n
                out = smooth(arr, window)
                assert out.dtype == np.int8 and out.shape == arr.shape
                for j in range(arr.shape[1]):
                    np.testing.assert_array_equal(
                        out[:, j], _majority_reference(arr[:, j].tolist(), window))
                np.testing.assert_array_equal(_smooth_column(arr[:, 0], window), out[:, 0])
        assert smooth(np.zeros((0, 8), np.int8), 5).shape == (0, 8)

    @pytest.mark.parametrize("window", [1, 5])
    def test_value_check_gives_the_verdict_of_isin_on_every_dtype(self, window):
        cases = [np.array([[1, 0], [0, 1], [1, 1]], dtype) for dtype in (np.int8, np.int64)]
        cases += [np.array([[True, False], [False, False], [True, True]]),
                  np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                  np.array([[1, 0], [2, 1], [1, 1]], np.int8),
                  np.array([[1, 0], [0, -1], [1, 1]], np.int64),
                  np.array([[1.0, 0.5], [0.0, 1.0], [1.0, 1.0]]),
                  np.array([[1.0, np.nan], [0.0, 1.0], [1.0, 1.0]])]
        for smoother, prepare in ((smooth, lambda a: a), (_smooth_column, lambda a: a[:, 1])):
            verdicts = []
            for arr in cases:
                try:
                    out = smoother(prepare(arr), window)
                    verdicts.append(True)
                    assert out.dtype == np.int8
                except ContractViolation as err:
                    assert "must be 0/1" in str(err)
                    verdicts.append(False)
            assert verdicts == [bool(np.isin(prepare(arr), (0, 1)).all()) for arr in cases]
        assert [bool(np.isin(arr, (0, 1)).all()) for arr in cases] == [True] * 4 + [False] * 4


# ---------------------------------------------------------------------------
# F1


class TestF1:
    def test_hand_case(self):
        f1, degenerate = f1_from_counts(2, 1, 1)
        np.testing.assert_allclose(f1, 2.0 / 3.0, rtol=1e-15)
        assert not degenerate

    def test_perfect(self):
        assert f1_from_counts(5, 0, 0) == (1.0, False)

    def test_degenerate(self):
        assert f1_from_counts(0, 0, 0) == (0.0, True)

    def test_zero_f1_without_degenerate_flag(self):
        assert f1_from_counts(0, 3, 0) == (0.0, False)

    def test_range(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            tp, fp, fn = (int(x) for x in rng.integers(0, 20, size=3))
            f1, _ = f1_from_counts(tp, fp, fn)
            assert 0.0 <= f1 <= 1.0


# ---------------------------------------------------------------------------
# challenge metric


class TestChallengeMetric:
    def test_hand_case_0775(self):
        predictions, labels = _single_au_case([1, 0, 1, 0], [1, 1, 1, 0])
        report = challenge_metric(predictions, labels)
        assert report.tp[0] == 2 and report.fp[0] == 1
        assert report.fn[0] == 0 and report.tn[0] == 1
        np.testing.assert_allclose(report.accuracy, 0.75, rtol=1e-15)
        np.testing.assert_allclose(report.mean_f1, 0.8, rtol=1e-15)
        np.testing.assert_allclose(report.metric, 0.775, rtol=1e-15)
        assert report.evaluated.tolist() == [True] + [False] * 7

    def test_all_correct_scores_one(self):
        rng = np.random.default_rng(2)
        lab = rng.integers(0, 2, size=(20, 8)).astype(np.int8)
        lab[0] = 1  # every AU gets at least one positive
        report = challenge_metric({"v": lab.copy()}, {"v": lab})
        assert report.accuracy == 1.0 and report.mean_f1 == 1.0 and report.metric == 1.0

    def test_all_wrong_scores_zero(self):
        lab = np.array([[1, 0, 1, 0, 1, 0, 1, 0]] * 4, dtype=np.int8)
        report = challenge_metric({"v": 1 - lab}, {"v": lab})
        assert report.accuracy == 0.0 and report.mean_f1 == 0.0 and report.metric == 0.0

    def test_counts_pool_across_videos(self):
        p1, l1 = _single_au_case([1, 0, 1, 0], [1, 1, 1, 0])
        p2, l2 = _single_au_case([1, 1, 0], [1, 0, 0])
        predictions = {"a": p1["v"], "b": p2["v"]}
        labels = {"a": l1["v"], "b": l2["v"]}
        report = challenge_metric(predictions, labels)
        assert report.tp[0] == 3 and report.fp[0] == 1
        assert report.fn[0] == 1 and report.tn[0] == 2

    def test_id_mismatch_rejected(self):
        pred = np.zeros((3, 8), dtype=np.int8)
        lab = np.zeros((3, 8), dtype=np.int8)
        with pytest.raises(ContractViolation, match="video ids"):
            challenge_metric({"a": pred}, {"b": lab})

    def test_length_mismatch_names_video(self):
        pred = np.zeros((3, 8), dtype=np.int8)
        lab = np.zeros((4, 8), dtype=np.int8)
        with pytest.raises(ContractViolation, match="'clip7'"):
            challenge_metric({"clip7": pred}, {"clip7": lab})

    def test_no_videos_rejected(self):
        with pytest.raises(ContractViolation):
            challenge_metric({}, {})

    def test_all_unknown_rejected(self):
        pred = np.zeros((3, 8), dtype=np.int8)
        lab = np.full((3, 8), -1, dtype=np.int8)
        with pytest.raises(ContractViolation, match="-1"):
            challenge_metric({"v": pred}, {"v": lab})

    def test_a_bad_video_is_named_in_sorted_id_order(self):
        lab = np.zeros((3, 8), dtype=np.int8)
        bad = np.full((3, 8), 2, dtype=np.int8)
        with pytest.raises(ContractViolation, match="^video 'b': predictions must be 0/1$"):
            challenge_metric({"c": bad, "a": lab.copy(), "b": bad}, {"a": lab, "b": lab, "c": lab})
        with pytest.raises(ContractViolation,
                           match="^video 'b': labels must be in {-1, 0, 1}$"):
            challenge_metric({"a": lab, "b": lab, "c": lab}, {"c": bad, "a": lab, "b": bad})
        with pytest.raises(ContractViolation, match=r"^video 'a': predictions \(2, 8\)"):
            challenge_metric({"b": bad, "a": lab[:2]}, {"a": lab, "b": lab})

    def test_counts_are_exact_over_mixed_dtypes(self):
        # the videos' decisions are counted as one concatenated array
        rng = np.random.default_rng(8)
        dtypes = (np.int8, np.int64, bool, np.float64)
        labels, predictions = {}, {}
        for v in range(40):
            n = int(rng.integers(1, 30))
            labels[f"m{v:02d}"] = rng.integers(-1, 2, size=(n, 8)).astype(dtypes[v % 2])
            predictions[f"m{v:02d}"] = rng.integers(0, 2, size=(n, 8)).astype(dtypes[v % 4])
        report = challenge_metric(predictions, labels)
        oracle = naive_score({k: v.tolist() for k, v in predictions.items()},
                             {k: v.tolist() for k, v in labels.items()})
        for field in ("tp", "fp", "fn", "tn"):
            assert getattr(report, field).dtype == np.int64
            assert getattr(report, field).tolist() == oracle[field]
        assert report.metric == oracle["metric"]

    def test_bad_values_rejected(self):
        lab = np.zeros((3, 8), dtype=np.int8)
        with pytest.raises(ContractViolation):
            challenge_metric({"v": np.full((3, 8), 2, dtype=np.int8)}, {"v": lab})
        with pytest.raises(ContractViolation):
            challenge_metric({"v": lab.copy()}, {"v": np.full((3, 8), 3, dtype=np.int8)})

    def test_report_invariants_on_random_scenarios(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            labels = {}
            predictions = {}
            for v in range(int(rng.integers(1, 5))):
                n = int(rng.integers(1, 30))
                labels[f"v{v}"] = rng.integers(-1, 2, size=(n, 8)).astype(np.int8)
                predictions[f"v{v}"] = rng.integers(0, 2, size=(n, 8)).astype(np.int8)
            valid = np.concatenate([lab != -1 for lab in labels.values()]).sum(axis=0)
            if valid.sum() == 0:
                continue
            report = challenge_metric(predictions, labels)
            counts = report.tp + report.fp + report.fn + report.tn
            np.testing.assert_array_equal(counts, valid)
            np.testing.assert_allclose(
                report.metric, 0.5 * report.accuracy + 0.5 * report.mean_f1, rtol=1e-15
            )
            for value in (report.accuracy, report.mean_f1, report.metric):
                assert 0.0 <= value <= 1.0
            assert (report.per_au_f1 >= 0).all() and (report.per_au_f1 <= 1).all()
            np.testing.assert_array_equal(report.evaluated, counts > 0)

    def test_adding_correct_decision_never_lowers_accuracy(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = int(rng.integers(1, 20))
            lab = rng.integers(-1, 2, size=(n, 8)).astype(np.int8)
            lab[0, 0] = 0  # guarantee one valid decision
            pred = rng.integers(0, 2, size=(n, 8)).astype(np.int8)
            before = challenge_metric({"v": pred}, {"v": lab}).accuracy
            extra_label = int(rng.integers(0, 2))
            lab_row = np.full((1, 8), -1, dtype=np.int8)
            pred_row = np.zeros((1, 8), dtype=np.int8)
            au = int(rng.integers(0, 8))
            lab_row[0, au] = extra_label
            pred_row[0, au] = extra_label
            after = challenge_metric(
                {"v": np.vstack([pred, pred_row])}, {"v": np.vstack([lab, lab_row])}
            ).accuracy
            assert after >= before - 1e-15

    def test_frame_order_symmetric_but_smoothing_is_not(self):
        rng = np.random.default_rng(5)
        n = 30
        lab = rng.integers(0, 2, size=(n, 8)).astype(np.int8)
        pred = rng.integers(0, 2, size=(n, 8)).astype(np.int8)
        perm = rng.permutation(n)

        plain = challenge_metric({"v": pred}, {"v": lab})
        shuffled = challenge_metric({"v": pred[perm]}, {"v": lab[perm]})
        np.testing.assert_array_equal(plain.tp, shuffled.tp)
        np.testing.assert_array_equal(plain.tn, shuffled.tn)
        assert plain.metric == shuffled.metric

        smoothed_then_shuffled = challenge_metric({"v": smooth(pred, 5)[perm]}, {"v": lab[perm]})
        shuffled_then_smoothed = challenge_metric(
            {"v": smooth(pred[perm], 5)}, {"v": lab[perm]}
        )
        assert (
            smoothed_then_shuffled.tp.tolist() != shuffled_then_smoothed.tp.tolist()
            or smoothed_then_shuffled.fp.tolist() != shuffled_then_smoothed.fp.tolist()
        )

    def test_matches_naive_scorer_exactly(self):
        rng = np.random.default_rng(6)
        labels = {}
        predictions = {}
        for v in range(100):
            n = int(rng.integers(1, 60))
            lab = rng.integers(-1, 2, size=(n, 8)).astype(np.int8)
            if v % 7 == 0:
                lab[:, v % 8] = np.where(lab[:, v % 8] == 1, 0, lab[:, v % 8])
            if v % 11 == 0:
                lab[:, (v + 3) % 8] = -1
            labels[f"t{v:03d}"] = lab
            predictions[f"t{v:03d}"] = rng.integers(0, 2, size=(n, 8)).astype(np.int8)
        report = challenge_metric(predictions, labels)
        oracle = naive_score(
            {k: v.tolist() for k, v in predictions.items()},
            {k: v.tolist() for k, v in labels.items()},
        )
        assert report.tp.tolist() == oracle["tp"]
        assert report.fp.tolist() == oracle["fp"]
        assert report.fn.tolist() == oracle["fn"]
        assert report.tn.tolist() == oracle["tn"]
        assert report.per_au_f1.tolist() == oracle["f1"]
        assert report.degenerate.tolist() == oracle["degenerate"]
        assert report.evaluated.tolist() == oracle["evaluated"]
        assert report.accuracy == oracle["accuracy"]
        assert report.mean_f1 == oracle["mean_f1"]
        assert report.metric == oracle["metric"]


# ---------------------------------------------------------------------------
# evaluate


class TestEvaluate:
    def test_window_one_equals_unsmoothed(self, tiny_params, tiny_corpus):
        report = evaluate(tiny_params, tiny_corpus, window=1)
        u, s = report.unsmoothed, report.smoothed
        np.testing.assert_array_equal(u.tp, s.tp)
        np.testing.assert_array_equal(u.fp, s.fp)
        np.testing.assert_array_equal(u.fn, s.fn)
        np.testing.assert_array_equal(u.tn, s.tn)
        assert u.accuracy == s.accuracy and u.metric == s.metric

    def test_report_structure(self, tiny_params, tiny_corpus):
        report = evaluate(tiny_params, tiny_corpus, window=5)
        assert report.window == 5
        assert len(report.tracks) == len(tiny_corpus)
        for track, video in zip(report.tracks, tiny_corpus):
            assert track.video_id == video.video_id
            assert track.probs.shape == (len(video), 8)
            assert track.logits.shape == (len(video), 8, 2) and track.logits.dtype == np.float64
            assert (track.probs >= 0).all() and (track.probs <= 1).all()
            assert np.isin(track.binary, (0, 1)).all()
            assert np.isin(track.smoothed, (0, 1)).all()
        for metrics in (report.unsmoothed, report.smoothed):
            for arr in (metrics.tp, metrics.fp, metrics.fn, metrics.tn, metrics.per_au_f1):
                assert arr.shape == (len(AU_ORDER),)

    def test_even_window_rejected(self, tiny_params, tiny_corpus, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return model_forward(*args)

        monkeypatch.setattr(E, "model_forward", counted)
        for window in (4, 2, 0):
            with pytest.raises(ContractViolation, match="window must be odd"):
                evaluate(tiny_params, tiny_corpus, window)
        assert calls == []  # rejected before any scoring pass
        evaluate(tiny_params, tiny_corpus[:1], 3)
        assert len(calls) == 1  # the counter sees the passes that do run

    def test_empty_corpus_rejected(self, tiny_params):
        with pytest.raises(ContractViolation):
            evaluate(tiny_params, [], window=5)

    def test_frames_of_another_size_rejected_before_any_scoring(self, tiny_params, tiny_corpus,
                                                                monkeypatch):
        big = generate_synthetic(SynthConfig(videos=1, frames_per_video=3, seed=2,
                                             image_size=32))
        big[0].video_id = "big0"
        scored = []
        monkeypatch.setattr(E, "score_frames", lambda *args: scored.append(args))
        with pytest.raises(ContractViolation,
                           match="video 'big0' has 32 x 32 px frames, but the model's "
                                 "image_size is 24"):
            evaluate(tiny_params, tiny_corpus + big, window=5)
        assert scored == []


# ---------------------------------------------------------------------------
# scoring passes


def test_scoring_no_videos_is_a_contract_violation(tiny_params):
    with pytest.raises(ContractViolation, match="no videos"):
        E.predict_tracks(tiny_params, [], 1)


def test_a_nan_probability_is_a_numeric_error(tiny_params, tiny_corpus):
    # a 0.5 threshold reads NaN as "inactive", so scoring must not return one
    params = tiny_params.copy()
    params.tensors["classifier.bias"].value[1] = np.nan
    with pytest.raises(NumericError, match="non-finite activation probability"):
        evaluate(params, tiny_corpus, window=1)


def _cut(videos, lengths):
    """The videos cut to the given lengths, as a corpus of mixed lengths."""
    return [VideoSequence(v.video_id, v.planes[:n], v.landmarks[:n], v.labels[:n])
            for v, n in zip(videos, lengths)]


def test_score_frames_chunks_match_one_batch(tiny_corpus, monkeypatch):
    params = ModelParams.init(TINY_MODEL, seed=35, dtype=np.float64)
    videos = _cut(tiny_corpus, (3, 10, 5))
    whole = model_forward(params, *FrameStream(videos).inputs(slice(None)))
    monkeypatch.setattr(E, "SCORING_BATCH", 4)  # passes of 3+1, 4, 4, 1+3 and 2 frames
    scores = E.score_frames(params, videos)
    assert [(p.shape, l.shape) for p, l in scores] == [((n, 8), (n, 8, 2)) for n in (3, 10, 5)]
    np.testing.assert_allclose(np.concatenate([p for p, _ in scores]), probabilities(whole),
                               rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(np.concatenate([l for _, l in scores]), whole.value,
                               rtol=1e-12, atol=1e-14)


def test_predict_video_scores_as_the_corpus_tracks(tiny_params, tiny_corpus):
    for track, video in zip(evaluate(tiny_params, tiny_corpus, 3).tracks, tiny_corpus):
        assert predict_video(tiny_params, video).tobytes() == track.probs.tobytes()


class TestAlwaysInactiveBaseline:
    def test_metric_matches_stationary_rate(self, default_corpus):
        # the label chain is symmetric over the prototype states, so the
        # stationary activation rate is the prototype-table mean
        rate = float(PROTOTYPE_LABELS.mean())
        predictions = {
            v.video_id: np.zeros((len(v), 8), dtype=np.int8) for v in default_corpus
        }
        labels = {v.video_id: v.labels for v in default_corpus}
        report = challenge_metric(predictions, labels)
        assert report.mean_f1 == 0.0
        expected = 0.5 * (1.0 - rate)
        assert abs(report.metric - expected) <= 0.02


# ---------------------------------------------------------------------------
# pooled scoring, default model in float32


@pytest.fixture(scope="module")
def default_params():
    return ModelParams.init(ModelConfig(), seed=4)


@pytest.fixture(scope="module")
def short_videos():
    """40 held-out-sized videos of 4 frames: ten full passes of 16."""
    return generate_synthetic(SynthConfig(videos=40, frames_per_video=4, seed=14))


def test_pooled_scores_match_scores_video_by_video(default_params):
    lengths = (5, 21, 3, 9, 14, 4)  # 56 frames: passes of 16, 16, 16 and 8
    videos = _cut(generate_synthetic(SynthConfig(videos=6, frames_per_video=21, seed=13)),
                  lengths)
    assert max(lengths) > E.SCORING_BATCH
    tracks = E.predict_tracks(default_params, videos, 5)
    for track, video in zip(tracks, videos):
        alone = predict_video(default_params, video)
        assert track.probs.shape == alone.shape == (len(video), 8)
        np.testing.assert_allclose(track.probs, alone, rtol=0, atol=1e-6)
        assert track.binary.tobytes() == binarize(alone).tobytes()
        assert track.smoothed.tobytes() == smooth(binarize(alone), 5).tobytes()


def test_scoring_memory_does_not_grow_with_the_corpus(default_params, short_videos):
    def peak(videos):
        return traced_peak(E.predict_tracks, default_params, videos, 1)[1]

    few, many = peak(short_videos[:4]), peak(short_videos)
    assert many <= 1.1 * few, (few, many)


# ---------------------------------------------------------------------------
# artifacts


def _track(seed=0, n=4):
    rng = np.random.default_rng(seed)
    probs = rng.uniform(size=(n, 8))
    binary = binarize(probs)
    return PredictionTrack("clip0", probs, np.zeros((n, 8, 2)), binary, smooth(binary, 3))


class TestArtifacts:
    def test_probability_csv(self, tmp_path):
        track = _track()
        path = write_probability_csv(track, tmp_path / "p.csv")
        lines = path.read_text().strip().split("\n")
        assert lines[0] == PREDICTION_HEADER == "frame," + ",".join(AU_ORDER)
        assert len(lines) == 1 + track.probs.shape[0]
        first = lines[1].split(",")
        assert first[0] == "0" and len(first) == 9
        for field in first[1:]:
            assert len(field.split(".")[1]) == 6
        np.testing.assert_allclose(
            [float(x) for x in first[1:]], track.probs[0], atol=5e-7
        )

    def test_binary_csv(self, tmp_path):
        track = _track()
        path = write_binary_csv(track, tmp_path / "b.csv")
        lines = path.read_text().strip().split("\n")
        assert lines[0] == PREDICTION_HEADER
        assert [ln.split(",")[0] for ln in lines[1:]] == [str(t) for t in range(len(track.probs))]
        body = np.array([[int(x) for x in ln.split(",")[1:]] for ln in lines[1:]])
        np.testing.assert_array_equal(body, track.smoothed)

    def test_track_csv_bytes_equal_value_by_value_formatting(self, tmp_path):
        # the formatting the one-template writers replaced, kept as the reference
        def reference(rows, cell):
            lines = [PREDICTION_HEADER]
            for t in range(rows.shape[0]):
                lines.append(f"{t}," + ",".join(cell(x) for x in rows[t]))
            return ("\n".join(lines) + "\n").encode()

        rng = np.random.default_rng(20)
        for case in range(60):
            frames = 1 if case % 4 == 0 else int(rng.integers(2, 30))
            probs = rng.uniform(size=(frames, 8))
            # exact and rounding-edge values: 0, 1/2, 1, and halves of the 6th decimal
            mask = rng.uniform(size=probs.shape) < 0.3
            probs[mask] = rng.choice([0.0, 0.5, 1.0, 0.0000005, 0.1234565, 0.9999995],
                                     size=int(mask.sum()))
            binary = binarize(probs)
            smoothed = smooth(binary, 3)
            track = PredictionTrack("clip0", probs, np.zeros((frames, 8, 2)), binary, smoothed)
            got = write_probability_csv(track, tmp_path / "p.csv").read_bytes()
            assert got == reference(probs, lambda p: f"{p:.6f}"), case
            got = write_binary_csv(track, tmp_path / "b.csv").read_bytes()
            assert got == reference(smoothed, lambda x: str(int(x))), case

    def test_report_csv_and_text(self, tiny_params, tiny_corpus, tmp_path):
        report = evaluate(tiny_params, tiny_corpus, window=5)
        path = write_report_csv(report, tmp_path / "report.csv")
        lines = path.read_text().strip().split("\n")
        assert lines[0] == REPORT_CSV_HEADER
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert len(fields) == 7
        assert int(fields[0]) == 5
        np.testing.assert_allclose(float(fields[3]), report.unsmoothed.metric, atol=5e-7)
        np.testing.assert_allclose(float(fields[6]), report.smoothed.metric, atol=5e-7)

        text = render_report(report, videos=len(tiny_corpus))
        assert "window = 5" in text
        assert f"videos = {len(tiny_corpus)}" in text
        assert "unsmoothed.challenge_metric" in text
        assert "smoothed.challenge_metric" in text
        for au in AU_ORDER:
            assert f"unsmoothed.{au}: tp=" in text
            assert f"smoothed.{au}: tp=" in text
