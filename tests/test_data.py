"""Data module tests: motion features, the synthetic generator's
statistics, and the corpus container format."""

import hashlib
import itertools

import numpy as np
import pytest

from audet import binio
from audet.binio import write_atomic
from audet.data import (
    _DRAWN_GROUPS,
    AU_ORDER,
    CORPUS_VERSION,
    EXPRESSION_PROTOTYPES,
    FrameStream,
    EXPRESSION_STATES,
    LANDMARK_TEMPLATE,
    PROTOTYPE_LABELS,
    SynthConfig,
    VideoSequence,
    decode_planes,
    displaced_landmarks,
    encode_planes,
    generate_synthetic,
    landmark_diffs,
    load_corpus,
    render_face,
    store_corpus,
)
from audet.errors import (
    ContractViolation,
    CorruptionError,
    EmptyCorpusError,
    FormatError,
)


# ---------------------------------------------------------------------------
# motion features


def _landmark_diff(landmarks, t):
    """Per-frame reference: 10 * (L[min(t+1, T-1)] - L[max(t-1, 0)]), flattened."""
    n = len(landmarks)
    return (10.0 * (landmarks[min(t + 1, n - 1)] - landmarks[max(t - 1, 0)])).reshape(-1)


def test_landmark_diff_static_is_zero():
    lm = np.tile(LANDMARK_TEMPLATE[None], (5, 1, 1))
    np.testing.assert_array_equal(landmark_diffs(lm), np.zeros((5, 146)))


def test_landmark_diff_uniform_motion():
    v = np.full((73, 2), 0.001)
    lm = np.stack([LANDMARK_TEMPLATE + t * v for t in range(6)])
    diffs = landmark_diffs(lm)
    assert diffs.shape == (6, 146)
    want_interior = 10.0 * 2.0 * v.reshape(-1)
    for t in range(1, 5):
        np.testing.assert_allclose(diffs[t], want_interior, atol=1e-12)
    # clamped endpoints fall back to one-sided differences
    np.testing.assert_allclose(diffs[0], 10.0 * (lm[1] - lm[0]).reshape(-1), atol=1e-12)
    np.testing.assert_allclose(diffs[5], 10.0 * (lm[5] - lm[4]).reshape(-1), atol=1e-12)


def test_landmark_diff_time_reversal_antisymmetry():
    rng = np.random.default_rng(7)
    lm = rng.uniform(0.2, 0.8, (9, 73, 2))
    np.testing.assert_allclose(landmark_diffs(lm[::-1].copy())[::-1], -landmark_diffs(lm),
                               atol=1e-12)


def test_landmark_diffs_equal_per_frame_reference():
    rng = np.random.default_rng(8)
    for n in (1, 2, 3, 7):
        lm = rng.uniform(0.2, 0.8, (n, 73, 2)).astype(np.float32)
        want = np.stack([_landmark_diff(lm, t) for t in range(n)])
        got = landmark_diffs(lm)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, want)


def test_landmark_diff_range_errors():
    with pytest.raises(ContractViolation, match="73"):
        landmark_diffs(np.zeros((4, 70, 2)))
    with pytest.raises(ContractViolation, match="T,73,2"):
        landmark_diffs(np.zeros((73, 2)))


# ---------------------------------------------------------------------------
# geometry


def test_landmarks_bounded_for_every_au_combination():
    for bits in itertools.product((0.0, 1.0), repeat=8):
        lm = displaced_landmarks(np.array(bits))
        assert lm.min() >= 0.0 and lm.max() <= 1.0, f"combo {bits} leaves [0,1]"


def test_prototype_labels_match_state_sets():
    for s, state in enumerate(EXPRESSION_STATES):
        active = {au for au, v in zip(AU_ORDER, PROTOTYPE_LABELS[s]) if v == 1}
        assert active == set(EXPRESSION_PROTOTYPES[state])


# ---------------------------------------------------------------------------
# rendering


def _draw_segment(cov, ax, ay, bx, by):
    """Per-frame reference: one anti-aliased segment, clipped to its bounding box."""
    size = cov.shape[0]
    c0 = max(0, int(np.floor(min(ax, bx) - 2)))
    c1 = min(size - 1, int(np.ceil(max(ax, bx) + 2)))
    r0 = max(0, int(np.floor(min(ay, by) - 2)))
    r1 = min(size - 1, int(np.ceil(max(ay, by) + 2)))
    if c0 > c1 or r0 > r1:
        return
    px = np.arange(c0, c1 + 1)[None, :]
    py = np.arange(r0, r1 + 1)[:, None]
    dx, dy = bx - ax, by - ay
    seg2 = dx * dx + dy * dy
    if seg2 < 1e-12:
        t = np.zeros((r1 - r0 + 1, c1 - c0 + 1))
    else:
        t = np.clip(((px - ax) * dx + (py - ay) * dy) / seg2, 0.0, 1.0)
    dist = np.sqrt((px - (ax + t * dx)) ** 2 + (py - (ay + t * dy)) ** 2)
    region = cov[r0 : r1 + 1, c0 : c1 + 1]
    np.maximum(region, np.clip(1.5 - dist, 0.0, 1.0), out=region)


def _render_frame(landmarks, size):
    """Per-frame reference: one 73 x 2 frame, segment by segment."""
    cov = np.zeros((size, size))
    pts = np.asarray(landmarks, dtype=np.float64) * (size - 1)
    for group, closed in _DRAWN_GROUPS:
        idx = range(group.start, group.stop)
        pairs = list(zip(idx[:-1], idx[1:]))
        if closed:
            pairs.append((group.stop - 1, group.start))
        for a, b in pairs:
            _draw_segment(cov, pts[a, 0], pts[a, 1], pts[b, 0], pts[b, 1])
    return 0.2 + 0.8 * cov


def _reference_frames(n, rng):
    """n jittered faces, one with points at exactly 0.0 and 1.0 and a zero-length segment."""
    lm = LANDMARK_TEMPLATE + rng.normal(0.0, 0.05, (n, 73, 2))
    lm = np.clip(lm, 0.0, 1.0).astype(np.float32)
    lm[0, 17] = (0.0, 0.0)  # left brow starts in the top-left corner
    lm[0, 23] = (1.0, 0.0)
    lm[0, 53] = (1.0, 1.0)  # right eye's closing segment runs to the bottom-right corner
    lm[0, 55] = lm[0, 54]  # coincident points: a zero-length segment
    return lm


@pytest.mark.parametrize("size", [8, 12, 64])
@pytest.mark.parametrize("frames", [1, 7])
def test_render_face_equals_per_frame_reference(size, frames):
    rng = np.random.default_rng(size * 10 + frames)
    lm = _reference_frames(frames, rng)
    want = np.stack([_render_frame(frame, size) for frame in lm])
    got = render_face(lm, size)
    assert got.shape == (frames, size, size) and got.dtype == np.float64
    np.testing.assert_array_equal(got, want)


def test_render_face_near_point_segment_equals_reference():
    # seg2 below 1e-12 but not zero: drawn as a point at its first end.  The
    # right brow's last point ends no other segment, so nothing else covers it.
    lm = np.tile(LANDMARK_TEMPLATE[None], (2, 1, 1))
    along = lm[1, 28] - lm[1, 27]
    lm[1, 28] = lm[1, 27] + 1e-8 * along / np.linalg.norm(along)
    for size in (12, 64):
        want = np.stack([_render_frame(frame, size) for frame in lm])
        np.testing.assert_array_equal(render_face(lm, size), want)


def test_render_face_draws_only_inside_the_image():
    lm = np.tile(LANDMARK_TEMPLATE[None], (2, 1, 1))
    lm[1] += 3.0  # every stroke far outside the frame
    out = render_face(lm, 16)
    np.testing.assert_array_equal(out[0], _render_frame(lm[0], 16))
    np.testing.assert_array_equal(out[1], np.full((16, 16), 0.2))


def test_render_face_rejects_bad_input():
    with pytest.raises(ContractViolation, match="T x 73 x 2"):
        render_face(LANDMARK_TEMPLATE, 16)
    lm = LANDMARK_TEMPLATE[None].copy()
    lm[0, 20, 1] = np.nan
    with pytest.raises(ContractViolation, match="finite"):
        render_face(lm, 16)


# ---------------------------------------------------------------------------
# synthetic generator


def test_happy_frames_carry_exact_prototype_labels():
    videos = generate_synthetic(SynthConfig(videos=6, frames_per_video=30, seed=2))
    happy = PROTOTYPE_LABELS[EXPRESSION_STATES.index("happy")]
    au6 = AU_ORDER.index("AU6")
    hits = 0
    for video in videos:
        for row in video.labels:
            if row[au6] == 1:
                np.testing.assert_array_equal(row, happy)
                hits += 1
    assert hits > 0


def test_au1_stationary_rate():
    # symmetric chain -> uniform over 5 states; AU1 active in 3 of them
    videos = generate_synthetic(
        SynthConfig(videos=24, frames_per_video=500, seed=9, image_size=16)
    )
    labels = np.concatenate([v.labels for v in videos])
    assert labels.shape[0] >= 10000
    rate = float((labels[:, AU_ORDER.index("AU1")] == 1).mean())
    assert abs(rate - 0.6) <= 0.05


def test_generator_is_deterministic():
    cfg = SynthConfig(videos=3, frames_per_video=6, seed=13, image_size=24)
    a = generate_synthetic(cfg)
    b = generate_synthetic(cfg)
    assert len(a) == len(b)
    for va, vb in zip(a, b):
        assert va.video_id == vb.video_id
        np.testing.assert_array_equal(va.planes, vb.planes)
        np.testing.assert_array_equal(va.landmarks, vb.landmarks)
        np.testing.assert_array_equal(va.labels, vb.labels)


def test_video_count_change_keeps_earlier_videos():
    small = generate_synthetic(SynthConfig(videos=2, frames_per_video=5, seed=4, image_size=24))
    big = generate_synthetic(SynthConfig(videos=4, frames_per_video=5, seed=4, image_size=24))
    for va, vb in zip(small, big):
        np.testing.assert_array_equal(va.planes[-1], vb.planes[-1])
        np.testing.assert_array_equal(va.labels[-1], vb.labels[-1])


def test_frames_quantised_to_byte_grid():
    videos = generate_synthetic(SynthConfig(videos=1, frames_per_video=4, seed=5, image_size=24))
    decoded = decode_planes(videos[0].planes)
    assert videos[0].planes.dtype == np.uint8 and decoded.dtype == np.float32
    np.testing.assert_array_equal(decoded, (np.round(decoded * 255.0) / 255.0).astype(np.float32))
    np.testing.assert_array_equal(encode_planes(decoded), videos[0].planes)
    assert decoded.min() >= 0.0 and decoded.max() <= 1.0


def test_label_flip_noise_changes_labels():
    clean = generate_synthetic(SynthConfig(videos=2, frames_per_video=40, seed=6, image_size=24))
    noisy = generate_synthetic(
        SynthConfig(videos=2, frames_per_video=40, seed=6, image_size=24, label_flip_noise=0.5)
    )
    diffs = sum(int(np.any(va.labels != vb.labels, axis=1).sum()) for va, vb in zip(clean, noisy))
    assert diffs > 0


def test_synth_config_validation():
    with pytest.raises(ContractViolation, match="videos"):
        SynthConfig(videos=0).validate()
    with pytest.raises(ContractViolation, match="stay_probability"):
        SynthConfig(stay_probability=1.5).validate()
    with pytest.raises(ContractViolation, match="frames_per_video"):
        SynthConfig(frames_per_video=2).validate()


# ---------------------------------------------------------------------------
# container round trips and failure modes


@pytest.fixture()
def small_corpus():
    return generate_synthetic(SynthConfig(videos=2, frames_per_video=4, seed=11, image_size=16))


def test_corpus_round_trip_is_exact(small_corpus, tmp_path):
    path = store_corpus(small_corpus, tmp_path / "c.auc")
    loaded = load_corpus(path)
    assert [v.video_id for v in loaded] == [v.video_id for v in small_corpus]
    for va, vb in zip(small_corpus, loaded):
        np.testing.assert_array_equal(va.planes, vb.planes)
        np.testing.assert_allclose(va.landmarks, vb.landmarks, atol=1e-7)
        np.testing.assert_array_equal(va.labels, vb.labels)


def test_store_into_directory_and_load_directory(small_corpus, tmp_path):
    store_corpus(small_corpus, tmp_path / "corpusdir")
    loaded = load_corpus(tmp_path / "corpusdir")
    assert len(loaded) == len(small_corpus)


def test_store_rejects_no_videos_and_mixed_frame_sizes(small_corpus, tmp_path):
    with pytest.raises(ContractViolation, match="no videos"):
        store_corpus([], tmp_path / "c.auc")
    big = generate_synthetic(SynthConfig(videos=1, frames_per_video=3, seed=2, image_size=24))
    big[0].video_id = "big0"
    with pytest.raises(ContractViolation,
                       match=r"'big0' frame size \(24, 24\) != corpus size \(16, 16\)"):
        store_corpus(small_corpus + big, tmp_path / "c.auc")
    assert list(tmp_path.iterdir()) == []


def test_store_refuses_an_id_renamed_after_construction(small_corpus, tmp_path):
    small_corpus[1].video_id = "../x"  # the constructor checked the old id
    with pytest.raises(ContractViolation, match="'../x': a video id must not be empty"):
        store_corpus(small_corpus, tmp_path / "c.auc")
    assert list(tmp_path.iterdir()) == []


def test_load_rejects_bad_magic(small_corpus, tmp_path):
    path = store_corpus(small_corpus, tmp_path / "c.auc")
    data = bytearray(path.read_bytes())
    data[:4] = b"WRNG"
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="magic"):
        load_corpus(path)


def test_load_errors_quote_the_bytes_read(small_corpus, tmp_path):
    # the reader slices a memoryview of the file; messages still show bytes
    path = store_corpus(small_corpus, tmp_path / "c.auc")
    data = bytearray(path.read_bytes())
    path.write_bytes(b"XXXX" + bytes(data[4:]))
    with pytest.raises(FormatError, match=r"c\.auc: bad magic b'XXXX', expected b'AUC1'$"):
        load_corpus(path)
    data[14 + 2 + 3] = 0xFF  # inside the first video's id
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError,
                       match=r"c\.auc: invalid UTF-8 at byte 19: invalid start byte$"):
        load_corpus(path)


def test_loaded_videos_own_their_arrays(small_corpus, tmp_path):
    loaded = load_corpus(store_corpus(small_corpus, tmp_path / "c.auc"))
    for video in loaded:
        for arr in (video.planes, video.landmarks, video.labels):
            assert arr.flags.owndata and arr.flags.writeable


def test_byte_reader_payloads_share_the_input():
    data = bytes(range(16))
    reader = binio.ByteReader(data, "mem")
    reader.take(3)
    payload = np.frombuffer(reader.take(8), np.uint8)
    assert payload.tolist() == list(range(3, 11))
    assert np.shares_memory(payload, np.frombuffer(data, np.uint8))


def test_write_atomic_replaces_the_target_and_leaves_no_temporary(tmp_path):
    target = write_atomic(tmp_path / "sub" / "a.txt", "new")
    assert target.read_text() == "new"
    assert sorted(p.name for p in target.parent.iterdir()) == ["a.txt"]


def test_failed_write_atomic_keeps_the_old_file_and_removes_its_temporary(tmp_path,
                                                                         monkeypatch):
    target = tmp_path / "a.txt"
    target.write_bytes(b"old")

    def refuse(src, dst):
        raise OSError("replace refused")

    with monkeypatch.context() as m:
        m.setattr(binio.os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            write_atomic(target, b"new")
    assert target.read_bytes() == b"old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt"]
    # a directory in the target's place makes the real os.replace fail
    (tmp_path / "d").mkdir()
    with pytest.raises(OSError):
        write_atomic(tmp_path / "d", b"new")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "d"]
    assert list((tmp_path / "d").iterdir()) == []


def test_load_rejects_unknown_version(small_corpus, tmp_path):
    path = store_corpus(small_corpus, tmp_path / "c.auc")
    data = bytearray(path.read_bytes())
    # version 1 stored an edge-map plane after each frame's gray plane
    for version in (1, 99):
        data[4:6] = version.to_bytes(2, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=rf"c\.auc: corpus version {version}, "
                                              rf"this reader supports {CORPUS_VERSION}$"):
            load_corpus(path)


def test_load_reports_truncation_offset(small_corpus, tmp_path):
    path = store_corpus(small_corpus, tmp_path / "c.auc")
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(CorruptionError, match="byte"):
        load_corpus(path)


def test_load_rejects_trailing_bytes(small_corpus, tmp_path):
    path = store_corpus(small_corpus, tmp_path / "c.auc")
    path.write_bytes(path.read_bytes() + b"\x00\x01")
    with pytest.raises(FormatError, match="trailing"):
        load_corpus(path)


def test_load_directory_rejects_repeated_video_ids(small_corpus, tmp_path):
    store_corpus(small_corpus, tmp_path / "d" / "a.auc")
    store_corpus(small_corpus[1:], tmp_path / "d" / "b.auc")
    with pytest.raises(FormatError, match=r"b\.auc: video id 'synth0001' repeats one in .*a\.auc"):
        load_corpus(tmp_path / "d")


def test_load_directory_rejects_mixed_image_sizes(tmp_path):
    for name, size, seed in (("a", 24, 1), ("b", 32, 2)):
        videos = generate_synthetic(SynthConfig(videos=1, frames_per_video=3, seed=seed,
                                                image_size=size))
        videos[0].video_id = f"{name}0"  # distinct ids, so only the sizes clash
        store_corpus(videos, tmp_path / "d" / f"{name}.auc")
    with pytest.raises(FormatError, match=r"b\.auc: frames are 32 x 32 px, but .*a\.auc holds "
                                          r"24 x 24 px frames"):
        load_corpus(tmp_path / "d")


def test_load_file_rejects_repeated_video_ids(small_corpus, tmp_path):
    path = store_corpus([small_corpus[0], small_corpus[0]], tmp_path / "c.auc")
    with pytest.raises(FormatError, match="'synth0000'"):
        load_corpus(path)


def test_load_empty_directory_distinct_error(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(EmptyCorpusError):
        load_corpus(tmp_path / "empty")


def test_load_missing_path(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_corpus(tmp_path / "nope.auc")


def test_load_zero_video_file(tmp_path):
    import struct

    path = tmp_path / "z.auc"
    path.write_bytes(b"AUC1" + struct.pack("<HHHI", CORPUS_VERSION, 8, 8, 0))
    with pytest.raises(EmptyCorpusError):
        load_corpus(path)


# corpus bytes of format version 2 (one gray plane per frame).  Each
# version-2 record is the version-1 record with its edge-map plane cut
# out, and the gray planes, landmarks and labels are those that the
# per-frame store loop and per-frame renderer wrote before them, so these
# move only when the format or the generator's output does
PINNED_CORPORA = [
    (SynthConfig(videos=2, frames_per_video=4, seed=11, image_size=16),
     "1f9f37ffcaf01f5f41dee9840e0a24e841618013d0c0385ced96cb72f9b1b948"),
    (SynthConfig(videos=3, frames_per_video=5, seed=3, image_size=12, label_flip_noise=0.3),
     "e607839dd4c849706d665d4157d1bb778337e62bb9009d54b18ef4f65b69d72d"),
    (SynthConfig(videos=2, frames_per_video=12, seed=5),
     "e9d5b561f892d27f5e541b36271426885390902138c889df89a513f6fe445baf"),
]


@pytest.mark.parametrize("config,digest", PINNED_CORPORA, ids=["16px", "12px-flips", "64px"])
def test_stored_corpus_bytes_are_pinned(tmp_path, config, digest):
    path = store_corpus(generate_synthetic(config), tmp_path / "c.auc")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_stock_corpus_bytes_are_pinned(tmp_path, default_corpus):
    # the acceptance gate trains on this corpus; its gray planes predate the batched renderer
    path = store_corpus(default_corpus, tmp_path / "c.auc")
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == "7db03b4ddcfa4c23d8d28383776d3ed87f26c59a7c83e3416859aeec35601650")


def _stored_with(tmp_path, small_corpus, edit):
    """small_corpus stored, with edit(record view of the first video) applied to the bytes."""
    from audet.data import frame_record

    path = store_corpus(small_corpus, tmp_path / "c.auc")
    data = bytearray(path.read_bytes())
    first = 4 + 10 + 2 + len(small_corpus[0].video_id) + 4
    record = frame_record(*small_corpus[0].planes.shape[1:])
    edit(np.frombuffer(data, record, count=len(small_corpus[0]), offset=first))
    path.write_bytes(bytes(data))
    return path


def test_load_rejects_non_finite_landmark(tmp_path, small_corpus):
    def poison(rows):
        rows["landmarks"][2, 5, 1] = np.nan

    path = _stored_with(tmp_path, small_corpus, poison)
    with pytest.raises(FormatError, match=r"c\.auc.*frame 2 has non-finite landmarks"):
        load_corpus(path)


def test_load_rejects_out_of_range_label(tmp_path, small_corpus):
    def corrupt(rows):
        rows["labels"][1, 3] = 2

    path = _stored_with(tmp_path, small_corpus, corrupt)
    with pytest.raises(FormatError, match=r"c\.auc.*frame 1 has labels outside"):
        load_corpus(path)


# ---------------------------------------------------------------------------
# video contracts


def _video(n=3, size=8, **kw):
    base = dict(
        video_id="v",
        planes=np.zeros((n, size, size), dtype=np.uint8),
        landmarks=np.zeros((n, 73, 2), dtype=np.float32),
        labels=np.zeros((n, 8), dtype=np.int8),
    )
    base.update(kw)
    return VideoSequence(**base)


def test_video_sequence_field_validation():
    bad_labels = np.zeros((3, 8), dtype=np.int8)
    bad_labels[1, 2] = 2
    with pytest.raises(ContractViolation, match=r"frame 1 has labels outside"):
        _video(labels=bad_labels)
    with pytest.raises(ContractViolation, match="73"):
        _video(landmarks=np.zeros((3, 70, 2), dtype=np.float32))
    with pytest.raises(ContractViolation, match=r"planes must be T x H x W, got \(3, 1, 8, 8\)"):
        _video(planes=np.zeros((3, 1, 8, 8), dtype=np.uint8))
    with pytest.raises(ContractViolation, match=r"planes must be T x H x W, got \(3, 8\)"):
        _video(planes=np.zeros((3, 8), dtype=np.uint8))
    with pytest.raises(ContractViolation, match="planes must be uint8, got float32"):
        _video(planes=np.zeros((3, 8, 8), dtype=np.float32))
    with pytest.raises(ContractViolation, match="landmarks must be float32, got float64"):
        _video(landmarks=np.zeros((3, 73, 2)))
    with pytest.raises(ContractViolation, match="labels must be int8, got int64"):
        _video(labels=np.zeros((3, 8), dtype=np.int64))
    nan = np.zeros((3, 73, 2), dtype=np.float32)
    nan[2, 0, 0] = np.inf
    with pytest.raises(ContractViolation, match="frame 2 has non-finite"):
        _video(landmarks=nan)


def test_video_sequence_validation():
    assert len(_video(n=3)) == 3
    with pytest.raises(ContractViolation, match=">= 3"):
        _video(n=2)
    with pytest.raises(ContractViolation, match="frame counts differ"):
        _video(labels=np.zeros((4, 8), dtype=np.int8))
    with pytest.raises(ContractViolation, match="frame counts differ"):
        _video(planes=np.zeros((2, 8, 8), dtype=np.uint8))


@pytest.mark.parametrize("video_id", ["", ".", "..", "../escaped/x", "a/b", "a\\b", "/abs",
                                      "tab\there", "nul\x00", "c1\x85"])
def test_video_id_must_be_a_plain_file_name(video_id):
    # the id names the video's prediction files, so it must not reach
    # outside the output directory or hide a control character
    with pytest.raises(ContractViolation, match="a video id must not be empty"):
        _video(video_id=video_id)


@pytest.mark.parametrize("video_id", ["synth0000", "..a", "a.b", "clip 1", "é"])
def test_plain_video_ids_are_accepted(video_id):
    assert _video(video_id=video_id).video_id == video_id


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_frame_stream_inputs_are_the_rows_of_their_videos(dtype):
    # the stream always yields float32; a model whose parameters are in
    # ``dtype`` widens the rows exactly, so they stay the videos' own rows
    corpus = generate_synthetic(SynthConfig(videos=3, frames_per_video=10, seed=4, image_size=12))
    videos = [VideoSequence(v.video_id, v.planes[:n], v.landmarks[:n], v.labels[:n])
              for v, n in zip(corpus, (3, 10, 5))]
    frames = FrameStream(videos)
    owners = [(v, t) for v in videos for t in range(len(v))]
    assert len(frames) == len(owners) and frames.lengths.tolist() == [3, 10, 5]
    rows = np.random.default_rng(6).permutation(len(owners))
    for picks in (rows, slice(2, 15)):
        images, diffs = frames.inputs(picks)
        expected = [owners[i] for i in np.arange(len(owners))[picks]]
        assert images.dtype == np.float32 and diffs.dtype == np.float32
        assert len(images) == len(diffs) == len(expected)
        images, diffs = images.astype(dtype), diffs.astype(dtype)
        for image, diff, label, (video, t) in zip(images, diffs, frames.labels[picks], expected):
            assert image.tobytes() == decode_planes(video.planes[t]).astype(dtype).tobytes()
            assert diff.tobytes() == landmark_diffs(video.landmarks)[t].astype(dtype).tobytes()
            assert label.tobytes() == video.labels[t].tobytes()


def test_a_frame_stream_needs_a_video():
    with pytest.raises(ContractViolation, match="FrameStream: no videos"):
        FrameStream([])


def test_decode_planes_keeps_one_gray_plane_per_frame():
    planes = np.zeros((3, 4, 4), dtype=np.uint8)
    planes[0], planes[1], planes[2] = 64, 191, 255
    images, diffs = FrameStream([_video(planes=planes)]).inputs(slice(None))
    assert images.shape == (3, 4, 4) and images.dtype == np.float32
    assert diffs.shape == (3, 146) and diffs.dtype == np.float32
    for image, value in zip(images, (64, 191, 255)):
        np.testing.assert_array_equal(image, np.float32(value) / np.float32(255))
    every = np.arange(256, dtype=np.uint8)
    np.testing.assert_array_equal(encode_planes(decode_planes(every)), every)
