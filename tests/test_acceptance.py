"""Acceptance gate: the seven shipping criteria, one verdict line each.

Each test prints exactly one line of the form

    ACCEPTANCE <name>: PASS|FAIL - <measurements>

before asserting, so a bare ``pytest -s tests/test_acceptance.py`` reads
as a checklist.  Tolerances and budgets are stated inline.  One more
test, without a verdict line, holds the gradient gate's per-primitive
sweep to the ops of a training step.
"""

import re
import time

import numpy as np

from audet import cli, tensor as T
from audet.data import PROTOTYPE_LABELS, SynthConfig, generate_synthetic
from audet.evaluation import challenge_metric, evaluate, render_report, smooth
from audet.model import ModelConfig, ModelParams, model_forward
from audet.tensor import Parameter, Tensor
from audet.training import TrainConfig

from conftest import TINY_MODEL, gru_cell, probabilities, weighted_sum
from naive_scorer import naive_score

# Frozen from the first verified end-to-end run (best validation metric
# 0.9972 at epoch 16, 343s wall) minus a 0.02 margin, rounded down.
E2E_METRIC_THRESHOLD = 0.97


def _verdict(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. gradient gate


def _sweep_cases() -> list:
    """(loss_fn, params) pairs: every op of a training step, in the forms it runs.

    Each loss reduces one op's output with a test-local weighted sum, so
    the op is checked alone; float64 inputs lie in [-1, 1].
    """
    rng = np.random.default_rng(41)
    cases = []

    def param(shape, name):
        return Parameter(rng.uniform(-1, 1, shape), name)

    def case(op, *params):
        weights = rng.uniform(-1, 1, op().shape)
        cases.append((lambda: weighted_sum(op(), weights), list(params)))

    kinked = rng.uniform(-1, 1, (3, 4))
    kinked = np.where(np.abs(kinked) < 0.06, kinked + 0.3 * np.sign(kinked), kinked)
    r = Parameter(kinked, "r")
    case(lambda: T.relu(r), r)
    a = param((3, 4), "a")
    case(lambda: T.tanh(a), a)

    c1, c2 = param((2, 5), "c1"), param((2, 3), "c2")
    case(lambda: T.concat([c1, c2]), c1, c2)

    m, bias = param((4, 6), "m"), param(4, "bias")
    rows, seqs = param((3, 6), "rows"), param((2, 3, 6), "seqs")
    case(lambda: T.linear(m, bias, rows), m, bias, rows)
    case(lambda: T.linear(m, bias, seqs), m, bias, seqs)

    # stride 2 over a batch, with the input gradient of an inner layer
    img, kern, cb = param((2, 7, 7, 2), "img"), param((3, 2, 3, 3), "kern"), param(3, "cb")
    case(lambda: T.conv2d(img, kern, cb, stride=2), kern, cb, img)
    maps = param((2, 2, 3, 3), "maps")
    case(lambda: T.spatial_sequence(maps), maps)
    states = param((2, 4, 3), "states")
    case(lambda: T.row(states, 3), states)

    cell = gru_cell(5, 4, lambda shape: rng.uniform(-0.5, 0.5, shape))
    per_row, shared, h0 = param((2, 3, 5), "per_row"), param((3, 5), "shared"), param((2, 4), "h0")
    case(lambda: T.gru_scan(per_row, h0, *cell), *cell, per_row, h0)
    case(lambda: T.gru_scan(shared, h0, *cell), *cell, shared, h0)

    logits = param((3, 4, 2), "logits")
    labels = np.array([[1, 0, -1, 1], [-1, -1, -1, -1], [0, 1, 1, -1]], dtype=np.int8)
    class_weights = np.array([2.5, 1.0, 4.0, 1.5])
    cases.append((lambda: T.masked_cross_entropy(logits, labels, class_weights), [logits]))
    return cases


def _primitive_sweep() -> float:
    """Worst finite-difference error across isolated primitive checks."""
    return max(T.finite_difference_report(loss_fn, params, 1e-3).max_relative_error
               for loss_fn, params in _sweep_cases())


def _engine_ops(root) -> set:
    """Backward rules of the engine's ops in the graph under root."""
    return {node._push.__qualname__ for node in T._topo_order(root)
            if node._push is not None and node._push.__module__ == T.__name__}


def test_sweep_checks_exactly_the_ops_of_a_training_step():
    params = ModelParams.init(ModelConfig(), seed=0)
    rng = np.random.default_rng(43)
    size = params.config.image_size
    images = rng.uniform(0, 1, (3, 2, size, size)).astype(np.float32)
    diffs = rng.uniform(-1, 1, (3, 146)).astype(np.float32)
    labels = rng.integers(-1, 2, (3, 8)).astype(np.int8)
    labels[0, 0] = 1
    logits = model_forward(params, images, diffs)
    step = _engine_ops(T.masked_cross_entropy(logits, labels, np.ones(8)))
    swept = set().union(*(_engine_ops(loss_fn()) for loss_fn, _ in _sweep_cases()))
    assert swept == step, f"unchecked: {sorted(step - swept)}, unused: {sorted(swept - step)}"


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

    image = Tensor(np.arange(1.0, 10.0).reshape(1, 3, 3, 1))
    kernels = Tensor(np.array([[[[1.0, 0.0], [0.0, 1.0]]]]))
    out = T.conv2d(image, kernels, Tensor(np.zeros(1)), stride=1)
    checks.append(("conv2d", np.array_equal(out.value[0, ..., 0], [[6.0, 8.0], [12.0, 14.0]])))

    # one step of a zero-parameter cell over a batch of one
    cell = gru_cell(3, 4)
    h = Tensor(np.array([[0.4, -0.6, 1.0, 0.0]]))
    hp = T.gru_scan(Tensor(np.zeros((1, 3))), h, *cell)
    checks.append(("gru-half-state", np.array_equal(hp.value[:, 0], 0.5 * h.value)))

    # one frame, one known label
    loss = T.masked_cross_entropy(Tensor(np.zeros((1, 1, 2))), np.array([[0]]), np.ones(1))
    checks.append(("loss-ln2", abs(float(loss.value) - np.log(2.0)) < 1e-12))

    lab = np.full((4, 8), -1, dtype=np.int8)
    pred = np.zeros((4, 8), dtype=np.int8)
    lab[:, 0] = [1, 0, 1, 0]
    pred[:, 0] = [1, 1, 1, 0]
    report = challenge_metric({"v": pred}, {"v": lab})
    checks.append(("metric-0.775", abs(report.metric - 0.775) < 1e-12))

    smoothed = smooth(np.array([0, 1, 0, 0, 0])[:, None], 3)[:, 0]
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
        base = probabilities(model_forward(params, image[None], diff[None]))
        j = int(rng.integers(1, 8))
        table = params.tensors["au_table"].value
        table[j] += rng.normal(size=table[j].shape)
        bumped = probabilities(model_forward(params, image[None], diff[None]))
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
