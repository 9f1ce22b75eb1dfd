"""Acceptance gate: the seven shipping criteria, one verdict line each.

Each test prints exactly one line of the form

    ACCEPTANCE <name>: PASS|FAIL - <measurements>

before asserting, so a bare ``pytest -s tests/test_acceptance.py`` reads
as a checklist.  Tolerances and budgets are stated inline.
"""

import re
import time

import numpy as np

from audet import cli, tensor as T
from audet.data import PROTOTYPE_LABELS, SynthConfig, generate_synthetic
from audet.evaluation import challenge_metric, evaluate, render_report, smooth_track
from audet.model import ModelParams, model_forward
from audet.tensor import GruCellParams, Parameter, Tensor
from audet.training import TrainConfig

from conftest import TINY_MODEL
from naive_scorer import naive_score

# Frozen from the first verified end-to-end run (best validation metric
# 0.9972 at epoch 16, 343s wall) minus a 0.02 margin, rounded down.
E2E_METRIC_THRESHOLD = 0.97


def _verdict(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. gradient gate


def _fd(loss_fn, params):
    return T.finite_difference_check(loss_fn, params, 1e-3)


def _primitive_sweep() -> float:
    """Worst finite-difference error across isolated primitive checks."""
    rng = np.random.default_rng(41)
    worst = 0.0

    def check(loss_fn, params):
        nonlocal worst
        worst = max(worst, _fd(loss_fn, params))

    a = Parameter(rng.uniform(-1, 1, 12), "a")
    b = Parameter(rng.uniform(-1, 1, 12), "b")
    check(lambda: T.total(T.mul(T.add(a, b), b)), [a, b])
    check(lambda: T.total(T.scale(T.tanh(a), 1.7)), [a])
    check(lambda: T.total(T.sigmoid(a)), [a])

    kinked = rng.uniform(-1, 1, 12)
    kinked = np.where(np.abs(kinked) < 0.06, kinked + 0.3 * np.sign(kinked), kinked)
    r = Parameter(kinked, "r")
    check(lambda: T.total(T.relu(r)), [r])

    c1 = Parameter(rng.uniform(-1, 1, 5), "c1")
    c2 = Parameter(rng.uniform(-1, 1, 3), "c2")
    check(lambda: T.total(T.mul(T.concat([c1, c2]), T.concat([c1, c2]))), [c1, c2])

    m = Parameter(rng.uniform(-1, 1, (4, 6)), "m")
    v = Parameter(rng.uniform(-1, 1, 6), "v")
    bias = Parameter(rng.uniform(-1, 1, 4), "bias")
    check(lambda: T.total(T.linear(m, bias, v)), [m, v, bias])

    kern = Parameter(rng.uniform(-1, 1, (3, 2, 3, 3)), "kern")
    cb = Parameter(rng.uniform(-1, 1, 3), "cb")
    img = Parameter(rng.uniform(-1, 1, (2, 6, 6)), "img")
    check(lambda: T.total(T.conv2d(img, kern, cb, stride=1)), [kern, cb, img])

    cell = GruCellParams.zeros(5, 4, np.float64, "g")
    for p in cell.parameters():
        p.value[...] = rng.uniform(-0.5, 0.5, p.value.shape)
    x = Parameter(rng.uniform(-1, 1, 5), "x")
    h = Parameter(rng.uniform(-1, 1, 4), "h")
    check(lambda: T.total(T.gru_cell(x, h, cell)), [*cell.parameters(), x, h])

    logits = Parameter(rng.uniform(-1, 1, 2), "logits")
    for label in (0, 1):
        check(lambda: T.softmax_cross_entropy(logits, label)[1], [logits])
    return worst


def test_gradient_gate(capsys):
    started = time.perf_counter()
    primitive_worst = _primitive_sweep()
    code = cli.main(["gradcheck", "--seed", "7"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    match = re.search(r"max_relative_error = (\S+)", out)
    composed = float(match.group(1)) if match else float("inf")
    with capsys.disabled():
        _verdict(
            "gradient-gate",
            code == 0 and composed <= 1e-4 and primitive_worst <= 1e-5 and elapsed < 60.0,
            f"composed {composed:.3e} <= 1e-4, primitives {primitive_worst:.3e} <= 1e-5, "
            f"{elapsed:.1f}s < 60s",
        )


# ---------------------------------------------------------------------------
# 2. metric oracle


def test_metric_oracle(capsys):
    rng = np.random.default_rng(97)
    started = time.perf_counter()
    labels = {}
    predictions = {}
    for v in range(100):
        n = int(rng.integers(1, 60))
        lab = rng.integers(-1, 2, size=(n, 8)).astype(np.int8)
        if v % 5 == 0:
            lab[:, v % 8] = np.where(lab[:, v % 8] == 1, 0, lab[:, v % 8])  # zero-positive AU
        if v % 9 == 0:
            lab[:, (v + 1) % 8] = -1  # never-evaluated AU
        labels[f"t{v:03d}"] = lab
        predictions[f"t{v:03d}"] = rng.integers(0, 2, size=(n, 8)).astype(np.int8)
    report = challenge_metric(predictions, labels)
    oracle = naive_score(
        {k: arr.tolist() for k, arr in predictions.items()},
        {k: arr.tolist() for k, arr in labels.items()},
    )
    elapsed = time.perf_counter() - started
    exact = (
        report.tp.tolist() == oracle["tp"]
        and report.fp.tolist() == oracle["fp"]
        and report.fn.tolist() == oracle["fn"]
        and report.tn.tolist() == oracle["tn"]
        and report.per_au_f1.tolist() == oracle["f1"]
        and report.degenerate.tolist() == oracle["degenerate"]
        and report.evaluated.tolist() == oracle["evaluated"]
        and report.accuracy == oracle["accuracy"]
        and report.mean_f1 == oracle["mean_f1"]
        and report.metric == oracle["metric"]
    )
    with capsys.disabled():
        _verdict(
            "metric-oracle",
            exact and elapsed < 10.0,
            f"100 tracks exact={exact}, {elapsed:.2f}s < 10s",
        )


# ---------------------------------------------------------------------------
# 3. hand-case suite


def test_hand_cases(capsys):
    checks = []

    image = Tensor(np.arange(1.0, 10.0).reshape(1, 3, 3))
    kernels = Tensor(np.array([[[[1.0, 0.0], [0.0, 1.0]]]]))
    out = T.conv2d(image, kernels, Tensor(np.zeros(1)), stride=1)
    checks.append(("conv2d", np.array_equal(out.value[0], [[6.0, 8.0], [12.0, 14.0]])))

    cell = GruCellParams.zeros(3, 4, np.float64, "g")
    h = Tensor(np.array([0.4, -0.6, 1.0, 0.0]))
    hp = T.gru_cell(Tensor(np.zeros(3)), h, cell)
    checks.append(("gru-half-state", np.array_equal(hp.value, 0.5 * h.value)))

    _, loss = T.softmax_cross_entropy(Tensor(np.zeros(2)), 0)
    checks.append(("loss-ln2", abs(float(loss.value) - np.log(2.0)) < 1e-12))

    lab = np.full((4, 8), -1, dtype=np.int8)
    pred = np.zeros((4, 8), dtype=np.int8)
    lab[:, 0] = [1, 0, 1, 0]
    pred[:, 0] = [1, 1, 1, 0]
    report = challenge_metric({"v": pred}, {"v": lab})
    checks.append(("metric-0.775", abs(report.metric - 0.775) < 1e-12))

    smoothed = smooth_track(np.array([0, 1, 0, 0, 0]), 3)
    checks.append(("smoothing-spike", np.array_equal(smoothed, [0, 0, 0, 0, 0])))

    failed = [name for name, ok in checks if not ok]
    with capsys.disabled():
        _verdict(
            "hand-cases",
            not failed,
            f"{len(checks)} cases exact" if not failed else f"failed: {failed}",
        )


# ---------------------------------------------------------------------------
# 4. end-to-end learning


def test_end_to_end_learning(e2e_result, capsys):
    result, seconds = e2e_result
    baseline = 0.5 * (1.0 - float(PROTOTYPE_LABELS.mean()))
    ok = (
        result.best_metric >= E2E_METRIC_THRESHOLD
        and result.best_epoch < 20
        and result.best_metric > baseline
        and result.history[-1].train_loss < result.history[0].train_loss
        and seconds < 600.0
    )
    with capsys.disabled():
        _verdict(
            "end-to-end-learning",
            ok,
            f"metric {result.best_metric:.4f} >= {E2E_METRIC_THRESHOLD} at epoch "
            f"{result.best_epoch} (< 20), baseline {baseline:.4f}, {seconds:.0f}s < 600s",
        )


# ---------------------------------------------------------------------------
# 5. determinism


def test_training_determinism(tmp_path, capsys):
    import hashlib

    corpus = tmp_path / "corpus.auc"
    assert (
        cli.main(
            ["synth", "--videos", "4", "--frames", "8", "--image-size", "24",
             "--seed", "5", "--out", str(corpus)]
        )
        == 0
    )
    digests = []
    for run in ("a", "b"):
        out = tmp_path / run
        code = cli.main(
            ["train", "--corpus", str(corpus), "--out", str(out),
             "--image-size", "24", "--epochs", "2", "--batch-size", "8", "--seed", "7"]
        )
        assert code == 0
        digests.append(
            (
                hashlib.sha256((out / "checkpoint.auck").read_bytes()).hexdigest(),
                hashlib.sha256((out / "history.csv").read_bytes()).hexdigest(),
            )
        )
    capsys.readouterr()
    identical = digests[0] == digests[1]
    with capsys.disabled():
        _verdict(
            "determinism",
            identical,
            f"checkpoint sha256 {digests[0][0][:12]}.. and history "
            f"{digests[0][1][:12]}.. reproduced bitwise"
            if identical
            else f"digests differ: {digests}",
        )


# ---------------------------------------------------------------------------
# 6. causality


def test_causality_property(capsys):
    rng = np.random.default_rng(3001)
    size = TINY_MODEL.image_size
    trials = 0
    violations = []
    for trial in range(100):
        params = ModelParams.init(TINY_MODEL, seed=int(rng.integers(1 << 31)), dtype=np.float64)
        image = rng.uniform(0.0, 1.0, (2, size, size))
        diff = rng.uniform(-1.0, 1.0, 146)
        base = model_forward(params, image[None], diff[None]).probs
        j = int(rng.integers(1, 8))
        params.au_table.value[j] += rng.normal(size=params.au_table.value[j].shape)
        bumped = model_forward(params, image[None], diff[None]).probs
        trials += 1
        if not np.array_equal(base[0, :j], bumped[0, :j]):
            violations.append((trial, j))
    with capsys.disabled():
        _verdict(
            "causality",
            trials == 100 and not violations,
            f"{trials} trials, earlier-AU predictions bitwise unchanged"
            if not violations
            else f"violated at {violations[:3]}",
        )


# ---------------------------------------------------------------------------
# 7. smoothing effect


def test_smoothing_effect(e2e_result, default_corpus, capsys):
    result, _ = e2e_result
    val_videos = [v for v in default_corpus if v.video_id in set(result.val_ids)]
    report = evaluate(result.best_params, val_videos, window=5)
    raw = report.unsmoothed.metric
    smoothed = report.smoothed.metric
    text = render_report(report, len(val_videos))
    both_reported = (
        "unsmoothed.challenge_metric" in text and "smoothed.challenge_metric" in text
    )
    with capsys.disabled():
        _verdict(
            "smoothing-effect",
            both_reported and np.isfinite(raw) and np.isfinite(smoothed),
            f"window 5: unsmoothed {raw:.4f}, smoothed {smoothed:.4f}, "
            f"delta {smoothed - raw:+.4f}",
        )
