"""Command line interface.

Subcommands: synth, train, eval, predict, gradcheck.  Settings resolve
in three layers: built-in defaults, then a key=value config file given
with --config ('#' starts a comment), then explicit flags.  Every run
echoes the settings it resolved.

Exit codes: 0 success, 1 usage or configuration problem, 2 data or
file-format problem, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .binio import write_atomic
from .data import SynthConfig, generate_synthetic, load_corpus, store_corpus
from .errors import (
    ConfigError,
    ContractViolation,
    EmptyBatchError,
    EmptyCorpusError,
    FormatError,
    NumericError,
)
from .evaluation import (
    evaluate,
    predict_tracks,
    render_report,
    write_binary_csv,
    write_probability_csv,
    write_report_csv,
)
from .model import (
    ModelConfig,
    ModelParams,
    load_checkpoint,
    model_forward,
    parameter_count,
    save_checkpoint,
)
from .tensor import Tensor, conv2d, finite_difference_report, masked_cross_entropy
from .training import TrainConfig, train, write_history

# Narrow variant of the default architecture: same layer types and wiring,
# sized so the exhaustive finite-difference sweep finishes in seconds.
GRADCHECK_CONFIG = ModelConfig(
    conv_spec=((2, 4, 5, 2), (4, 8, 3, 2), (8, 8, 3, 2)),
    static_gru_hidden=16,
    dynamic_hidden=((16, "relu"), (16, "tanh")),
    fusion_out=16,
    au_embedding_dim=16,
)


# ---------------------------------------------------------------------------
# config keys


def _int_min(lo):
    def parse(raw: str) -> int:
        v = int(raw)
        if v < lo:
            raise ValueError(f"must be >= {lo}, got {v}")
        return v

    return parse


def _float_min(lo, inclusive=True):
    def parse(raw: str) -> float:
        v = float(raw)
        if not np.isfinite(v):
            raise ValueError(f"must be finite, got {v}")
        if v < lo or (not inclusive and v == lo):
            op = ">=" if inclusive else ">"
            raise ValueError(f"must be {op} {lo}, got {v}")
        return v

    return parse


def _unit_closed(raw: str) -> float:
    v = float(raw)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"out of range [0, 1]: {v}")
    return v


def _unit_open(raw: str) -> float:
    v = float(raw)
    if not 0.0 < v < 1.0:
        raise ValueError(f"out of range (0, 1): {v}")
    return v


def _beta(raw: str) -> float:
    v = float(raw)
    if not 0.0 <= v < 1.0:
        raise ValueError(f"out of range [0, 1): {v}")
    return v


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("on", "true", "1", "yes"):
        return True
    if low in ("off", "false", "0", "no"):
        return False
    raise ValueError(f"expected on/off, got {raw!r}")


def _precision(raw: str) -> str:
    if raw not in ("single", "double"):
        raise ValueError(f"expected single or double, got {raw!r}")
    return raw


def _odd_window(raw: str) -> int:
    v = int(raw)
    if v < 1 or v % 2 == 0:
        raise ValueError(f"must be odd and >= 1, got {v}")
    return v


KEY_PARSERS = {
    "videos": _int_min(1),
    "frames_per_video": _int_min(3),
    "seed": int,
    "image_size": _int_min(8),
    "stay_probability": _unit_closed,
    "label_flip_noise": _unit_closed,
    "landmark_jitter_sigma": _float_min(0.0),
    "pixel_noise_sigma": _float_min(0.0),
    "learning_rate": _float_min(0.0, inclusive=False),
    "adam_beta1": _beta,
    "adam_beta2": _beta,
    "adam_epsilon": _float_min(0.0, inclusive=False),
    "batch_size": _int_min(1),
    "epochs": _int_min(1),
    "grad_clip_global_norm": _float_min(0.0, inclusive=False),
    "class_weighting": _bool,
    "precision": _precision,
    "val_fraction": _unit_open,
    "window": _odd_window,
    "step": _float_min(0.0, inclusive=False),
    "threshold": _float_min(0.0, inclusive=False),
    "corpus": str,
    "checkpoint": str,
    "out": str,
}

# flag spellings that differ from the config key
FLAG_ALIASES = {"frames_per_video": "frames"}

SYNTH_KEYS = tuple(f.name for f in fields(SynthConfig))
TRAIN_KEYS = (
    "seed",
    "image_size",
    "epochs",
    "batch_size",
    "learning_rate",
    "adam_beta1",
    "adam_beta2",
    "adam_epsilon",
    "grad_clip_global_norm",
    "class_weighting",
    "precision",
    "val_fraction",
)
EVAL_KEYS = ("window",)
GRADCHECK_KEYS = ("seed", "step", "threshold")


def _defaults() -> dict:
    return {
        **asdict(SynthConfig()),
        **asdict(TrainConfig()),
        "window": 5,
        "step": 1e-3,
        "threshold": 1e-4,
        "corpus": None,
        "checkpoint": None,
        "out": None,
    }


def parse_config_file(path) -> dict:
    """Typed settings from a key=value file; errors carry the line number."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    out = {}
    for lineno, raw in enumerate(p.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{p}: line {lineno}: expected key=value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KEY_PARSERS:
            raise ConfigError(f"{p}: line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"{p}: line {lineno}: duplicate key {key!r}")
        try:
            out[key] = KEY_PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"{p}: line {lineno}: {key}: {exc}") from None
    return out


def _flag_name(key: str) -> str:
    return "--" + FLAG_ALIASES.get(key, key).replace("_", "-")


def _resolve(ns) -> dict:
    cfg = _defaults()
    if getattr(ns, "config", None):
        cfg.update(parse_config_file(ns.config))
    for key in KEY_PARSERS:
        raw = getattr(ns, key, None)
        if raw is None:
            continue
        try:
            cfg[key] = KEY_PARSERS[key](raw)
        except ValueError as exc:
            raise ConfigError(f"{_flag_name(key)}: {exc}") from None
    return cfg


def _need(cfg: dict, key: str) -> str:
    value = cfg[key]
    if value is None:
        raise ConfigError(f"missing {key!r}: pass {_flag_name(key)} or set it in the config file")
    return value


def _echo(cfg: dict, keys):
    print("resolved config:")
    for k in keys:
        v = cfg[k]
        if isinstance(v, bool):
            v = "on" if v else "off"
        print(f"  {k} = {v}")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_synth(ns) -> int:
    cfg = _resolve(ns)
    out = _need(cfg, "out")
    _echo(cfg, SYNTH_KEYS + ("out",))
    sconf = SynthConfig(**{k: cfg[k] for k in SYNTH_KEYS})
    started = time.perf_counter()
    videos = generate_synthetic(sconf)
    seconds = time.perf_counter() - started
    path = store_corpus(videos, out)
    total = sum(len(v) for v in videos)
    print(f"wrote {len(videos)} videos, {total} frames: {path}")
    print(f"synthesis: {seconds:.3f} s, {total / seconds:.0f} frames/s")
    return 0


def _cmd_train(ns) -> int:
    cfg = _resolve(ns)
    corpus_path = _need(cfg, "corpus")
    out = Path(_need(cfg, "out"))
    _echo(cfg, TRAIN_KEYS + ("corpus", "out"))
    corpus = load_corpus(corpus_path)
    mconf = ModelConfig(image_size=cfg["image_size"])
    tconf = TrainConfig(**{f.name: cfg[f.name] for f in fields(TrainConfig)})

    def progress(stats, _params):
        print(
            f"epoch {stats.epoch}: train_loss {stats.train_loss:.4f} "
            f"val_loss {stats.val_loss:.4f} val_metric {stats.val_metric:.4f}"
        )

    result = train(corpus, mconf, tconf, on_epoch_end=progress)
    ckpt = save_checkpoint(result.best_params, out / "checkpoint.auck")
    hist = write_history(result.history, out / "history.csv")
    print(f"best epoch {result.best_epoch}, validation metric {result.best_metric:.6f}")
    print(f"checkpoint: {ckpt}")
    print(f"history: {hist}")
    return 0


def _cmd_eval(ns) -> int:
    cfg = _resolve(ns)
    ckpt_path = _need(cfg, "checkpoint")
    corpus_path = _need(cfg, "corpus")
    out = Path(_need(cfg, "out"))
    _echo(cfg, EVAL_KEYS + ("checkpoint", "corpus", "out"))
    params = load_checkpoint(ckpt_path)
    corpus = load_corpus(corpus_path)
    report = evaluate(params, corpus, cfg["window"])
    text = render_report(report, len(corpus))
    write_atomic(out / "report.txt", text)
    write_report_csv(report, out / "report.csv")
    print(text, end="")
    return 0


def _cmd_predict(ns) -> int:
    cfg = _resolve(ns)
    ckpt_path = _need(cfg, "checkpoint")
    corpus_path = _need(cfg, "corpus")
    out = Path(_need(cfg, "out"))
    _echo(cfg, EVAL_KEYS + ("checkpoint", "corpus", "out"))
    params = load_checkpoint(ckpt_path)
    corpus = load_corpus(corpus_path)
    tracks = predict_tracks(params, corpus, cfg["window"])
    for track in tracks:
        write_probability_csv(track, out / f"{track.video_id}.probs.csv")
        write_binary_csv(track, out / f"{track.video_id}.binary.csv")
    print(f"wrote probability and decision tracks for {len(tracks)} videos: {out}")
    return 0


def _gap_shift(values: np.ndarray, margin: float, cap: float) -> float:
    """Uniform shift (|shift| <= cap) maximising the smallest |value + shift|."""
    values = np.sort(values)
    best_delta = 0.0
    best = float(np.min(np.abs(values)))
    if best >= margin:
        return 0.0
    candidates = np.clip(-(values[:-1] + values[1:]) / 2.0, -cap, cap)
    for delta in np.concatenate([candidates, (-cap, cap)]):
        m = float(np.min(np.abs(values + delta)))
        if m > best + 1e-12 or (abs(m - best) <= 1e-12 and abs(delta) < abs(best_delta)):
            best_delta, best = float(delta), m
    return best_delta


def clear_relu_margins(params: ModelParams, image: np.ndarray, diff: np.ndarray,
                       margin: float, cap: float = 0.25):
    """Nudge relu-layer biases away from pre-activation sign changes.

    The finite-difference sweep probes every parameter by +-step.  A relu
    input within the probe's reach of zero switches branch mid-probe, so
    the difference quotient measures a point where the analytic gradient
    is not differentiable and the comparison fails spuriously.  A shared
    bias shift per filter (or per hidden row) moves that layer's
    pre-activation values together into the widest gap away from zero; the
    wiring under test is unchanged and both gradients are then compared at
    the same, shifted point.
    """
    x = image
    for (kern, bias), (_, _, _, stride) in zip(params.conv_layers, params.config.conv_spec):
        pre = conv2d(Tensor(x), Tensor(kern.value), Tensor(bias.value), stride).value.copy()
        for f in range(pre.shape[0]):
            delta = _gap_shift(pre[f].ravel(), margin, cap)
            bias.value[f] += delta
            pre[f] += delta
        x = np.maximum(pre, 0.0)
    h = np.asarray(diff, dtype=params.dtype)
    for (w, b), (_, act) in zip(params.dynamic_layers, params.config.dynamic_hidden):
        pre = w.value @ h + b.value
        if act == "relu":
            for i, v in enumerate(pre):
                if abs(v) < margin:
                    target = margin if v >= 0 else -margin
                    b.value[i] += target - v
                    pre[i] = target
            h = np.maximum(pre, 0.0)
        else:
            h = np.tanh(pre)


def _cmd_gradcheck(ns) -> int:
    cfg = _resolve(ns)
    _echo(cfg, GRADCHECK_KEYS)
    config = ModelConfig() if ns.full_dims else GRADCHECK_CONFIG
    started = time.monotonic()
    video = generate_synthetic(
        SynthConfig(
            videos=1, frames_per_video=3, seed=cfg["seed"], image_size=config.image_size
        )
    )[0]
    frame_t = 1
    images, diffs = video.model_inputs(np.float64)
    image, diff = images[frame_t], diffs[frame_t]
    labels = video.labels[frame_t]
    weights = np.ones(labels.shape[0])
    params = ModelParams.init(config, cfg["seed"], np.float64)
    clear_relu_margins(params, image, diff, margin=max(0.05, 50.0 * cfg["step"]))

    def loss_fn():
        # the training graph on a batch of this one frame
        logits = model_forward(params, image[None], diff[None]).logits
        return masked_cross_entropy(logits, labels[None], weights)

    report = finite_difference_report(loss_fn, params.all_parameters(), cfg["step"])
    worst = report.max_relative_error
    elapsed = time.monotonic() - started
    print(f"parameters = {parameter_count(config)}")
    print(f"max_relative_error = {worst:.3e}")
    print(f"worst_parameter = {report.location()}")
    print(f"threshold = {cfg['threshold']:.3e}")
    print(f"elapsed_seconds = {elapsed:.1f}")
    if worst <= cfg["threshold"]:
        print("gradient check passed")
        return 0
    print("gradient check FAILED", file=sys.stderr)
    return 3


# ---------------------------------------------------------------------------
# parser and dispatch


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _add_key_flags(sub, keys):
    for key in keys:
        sub.add_argument(_flag_name(key), dest=key, metavar="V")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="audet", description="Action unit detection pipeline.")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    synth = subs.add_parser("synth", help="generate a synthetic corpus")
    synth.add_argument("--out", help="corpus file (.auc) or directory")
    synth.add_argument("--config", help="key=value settings file")
    _add_key_flags(synth, SYNTH_KEYS)
    synth.set_defaults(func=_cmd_synth)

    tr = subs.add_parser("train", help="train a detector on a corpus")
    tr.add_argument("--corpus", help="corpus file or directory")
    tr.add_argument("--out", help="output directory")
    tr.add_argument("--config", help="key=value settings file")
    _add_key_flags(tr, TRAIN_KEYS)
    tr.set_defaults(func=_cmd_train)

    ev = subs.add_parser("eval", help="score a checkpoint against labelled videos")
    ev.add_argument("--checkpoint")
    ev.add_argument("--corpus")
    ev.add_argument("--out", help="output directory")
    ev.add_argument("--config", help="key=value settings file")
    _add_key_flags(ev, EVAL_KEYS)
    ev.set_defaults(func=_cmd_eval)

    pr = subs.add_parser("predict", help="write per-video probability and decision CSVs")
    pr.add_argument("--checkpoint")
    pr.add_argument("--corpus")
    pr.add_argument("--out", help="output directory")
    pr.add_argument("--config", help="key=value settings file")
    _add_key_flags(pr, EVAL_KEYS)
    pr.set_defaults(func=_cmd_predict)

    gc = subs.add_parser("gradcheck", help="finite-difference check of the composed model")
    gc.add_argument("--config", help="key=value settings file")
    gc.add_argument(
        "--full-dims",
        action="store_true",
        help="sweep the default architecture instead of the narrow one (slow)",
    )
    _add_key_flags(gc, GRADCHECK_KEYS)
    gc.set_defaults(func=_cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # --help
        code = exc.code
        return code if isinstance(code, int) else 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return ns.func(ns)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, FormatError, EmptyCorpusError, EmptyBatchError, ContractViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
