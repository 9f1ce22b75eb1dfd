"""Command line interface.

Subcommands: synth, train, eval, predict, gradcheck, each declared once
in :data:`COMMANDS` with its handler, help line and settings.  Settings
resolve in three layers: built-in defaults, then a key=value config
file given with --config ('#' starts a comment), then explicit flags.
Every run echoes the settings it resolved, in its declared order.

Exit codes: 0 success, 1 usage or configuration problem, 2 data or
file-format problem, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import tensor as T
from .binio import write_atomic
from .data import FrameStream, SynthConfig, generate_synthetic, load_corpus, store_corpus
from .errors import (
    ConfigError,
    ContractViolation,
    EmptyBatchError,
    EmptyCorpusError,
    FormatError,
    NumericError,
)
from .evaluation import (
    check_window,
    evaluate,
    predict_tracks,
    render_report,
    write_binary_csv,
    write_probability_csv,
    write_report_csv,
)
from .model import (
    GRADCHECK_CONFIG,
    ModelConfig,
    ModelParams,
    load_checkpoint,
    model_forward,
    parameter_count,
    save_checkpoint,
)
from .tensor import finite_difference_report, masked_cross_entropy
from .training import TrainConfig, train, write_history


# ---------------------------------------------------------------------------
# config keys

# dataclasses whose fields are config keys
_CONFIGS = (SynthConfig, TrainConfig)


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("on", "true", "1", "yes"):
        return True
    if low in ("off", "false", "0", "no"):
        return False
    raise ValueError(f"expected on/off, got {raw!r}")


def _validated(key: str):
    """Parser of a dataclass setting: the type of its default, then validate().

    The ranges live only in the dataclasses' validate(); a value is
    accepted exactly when every dataclass holding ``key`` accepts it.
    """
    owners = [c for c in _CONFIGS if key in {f.name for f in fields(c)}]
    kind = type(getattr(owners[0](), key))
    convert = _bool if kind is bool else kind

    def parse(raw: str):
        value = convert(raw)
        for config in owners:
            replace(config(), **{key: value}).validate()
        return value

    return parse


def _positive_float(raw: str) -> float:
    v = float(raw)
    if not (np.isfinite(v) and v > 0.0):
        raise ValueError(f"must be finite and > 0, got {v}")
    return v


# path keys and the help of their flags; a command that takes one requires it
PATH_HELP = {
    "corpus": "corpus file (.auc) or directory",
    "checkpoint": "checkpoint file (.auck)",
    "out": "output: corpus file or directory for synth, directory otherwise",
}

# a parser raises ValueError or ContractViolation on a bad value
KEY_PARSERS = {
    **{f.name: _validated(f.name) for config in _CONFIGS for f in fields(config)},
    "window": lambda raw: check_window(int(raw)),
    "step": _positive_float,
    "threshold": _positive_float,
    **dict.fromkeys(PATH_HELP, str),
}

# flag spellings that differ from the config key
FLAG_ALIASES = {"frames_per_video": "frames"}

SYNTH_KEYS = tuple(f.name for f in fields(SynthConfig))
# image_size is the model's, the rest TrainConfig's
TRAIN_KEYS = ("image_size",) + tuple(f.name for f in fields(TrainConfig))


def _defaults() -> dict:
    return {
        **asdict(SynthConfig()),
        **asdict(TrainConfig()),
        "window": 5,
        "step": 1e-3,
        "threshold": 1e-4,
        **dict.fromkeys(PATH_HELP),
    }


def parse_config_file(path) -> dict:
    """Typed settings from a key=value file; errors carry the line number."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        data = p.read_bytes()
        text = data.decode("utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {p}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{p}: line {line}: byte 0x{data[exc.start]:02x} is not UTF-8") from None
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
        except (ValueError, ContractViolation) as exc:
            raise ConfigError(f"{p}: line {lineno}: {key}: {exc}") from None
    return out


def _flag_name(key: str) -> str:
    return "--" + FLAG_ALIASES.get(key, key).replace("_", "-")


def _resolve(ns, command: "Command") -> dict:
    """Defaults, then config file, then flags; every path key must be set."""
    cfg = _defaults()
    if ns.config:
        cfg.update(parse_config_file(ns.config))
    for key in command.keys:  # path keys come last, after every flag that can fail
        raw = getattr(ns, key)
        if raw is not None:
            try:
                cfg[key] = KEY_PARSERS[key](raw)
            except (ValueError, ContractViolation) as exc:
                raise ConfigError(f"{_flag_name(key)}: {exc}") from None
        if key in PATH_HELP and cfg[key] is None:
            raise ConfigError(
                f"missing {key!r}: pass {_flag_name(key)} or set it in the config file")
    for name, _ in command.switches:
        cfg[name] = getattr(ns, name)
    return cfg


def _echo(cfg: dict, keys):
    print("resolved config:")
    for k in keys:
        v = cfg[k]
        if isinstance(v, bool):
            v = "on" if v else "off"
        print(f"  {k} = {v}")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_synth(cfg: dict) -> int:
    sconf = SynthConfig(**{k: cfg[k] for k in SYNTH_KEYS})
    started = time.perf_counter()
    videos = generate_synthetic(sconf)
    seconds = time.perf_counter() - started
    path = store_corpus(videos, cfg["out"])
    total = sum(len(v) for v in videos)
    print(f"wrote {len(videos)} videos, {total} frames: {path}")
    print(f"synthesis: {seconds:.3f} s, {total / seconds:.0f} frames/s")
    return 0


def _cmd_train(cfg: dict) -> int:
    mconf = ModelConfig(image_size=cfg["image_size"])
    try:
        mconf.validate()
    except ContractViolation as exc:
        raise ConfigError(f"image_size = {mconf.image_size} is too small: {exc}") from None
    corpus = load_corpus(cfg["corpus"])
    tconf = TrainConfig(**{f.name: cfg[f.name] for f in fields(TrainConfig)})

    def progress(stats, _params):
        print(
            f"epoch {stats.epoch}: train_loss {stats.train_loss:.4f} "
            f"val_loss {stats.val_loss:.4f} val_metric {stats.val_metric:.4f}"
        )

    result = train(corpus, mconf, tconf, on_epoch_end=progress,
                   on_telemetry=lambda record: print(record.summary()))
    out = Path(cfg["out"])
    ckpt = save_checkpoint(result.best_params, out / "checkpoint.auck")
    hist = write_history(result.history, out / "history.csv")
    # timings differ run to run, so they stay out of the hashed artifacts
    run = {"epochs": [asdict(record) for record in result.telemetry]}
    telemetry = write_atomic(out / "run.json", json.dumps(run, indent=1) + "\n")
    print(f"best epoch {result.best_epoch}, validation metric {result.best_metric:.6f}")
    print(f"checkpoint: {ckpt}")
    print(f"history: {hist}")
    print(f"telemetry: {telemetry}")
    return 0


def _scoring_inputs(cfg: dict):
    """Parameters, corpus and output directory of eval and predict."""
    return load_checkpoint(cfg["checkpoint"]), load_corpus(cfg["corpus"]), Path(cfg["out"])


def _cmd_eval(cfg: dict) -> int:
    params, corpus, out = _scoring_inputs(cfg)
    report = evaluate(params, corpus, cfg["window"])
    text = render_report(report, len(corpus))
    write_atomic(out / "report.txt", text)
    write_report_csv(report, out / "report.csv")
    print(text, end="")
    return 0


def _cmd_predict(cfg: dict) -> int:
    params, corpus, out = _scoring_inputs(cfg)
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


def _relu_layers(params: ModelParams, images: np.ndarray, diffs: np.ndarray) -> list:
    """(bias, pre-activation values) of each relu in the graph that
    model_forward builds, in graph order.  A relu reads a conv2d or linear
    node with its units on the last axis; their bias is the node's 1-d
    Parameter parent."""
    found = []
    for node in T._topo_order(model_forward(params, images, diffs)):
        if node._push is not None and node._push.__qualname__ == "relu.<locals>.push":
            pre = node.parents[0]
            bias = next(p for p in pre.parents
                        if isinstance(p, T.Parameter) and p.value.ndim == 1)
            found.append((bias, pre.value))
    return found


def clear_relu_margins(params: ModelParams, images: np.ndarray, diffs: np.ndarray,
                       margin: float, cap: float = 0.25):
    """Shift relu-layer biases away from pre-activation sign changes.

    The finite-difference sweep probes every parameter by +-step; a relu
    input within the probe's reach of zero would switch branch mid-probe,
    where the analytic gradient is not defined, and fail spuriously.  One
    bias shift per conv filter or dynamic unit moves that unit's values
    over the whole batch into the widest gap away from zero, and both
    gradients are compared at the same, shifted point.  Each relu layer is
    cleared on a graph rebuilt after the layers before it were.
    """
    for layer in range(len(_relu_layers(params, images, diffs))):
        bias, pre = _relu_layers(params, images, diffs)[layer]
        for unit in range(pre.shape[-1]):
            bias.value[unit] += _gap_shift(pre[..., unit].ravel(), margin, cap)


def _cmd_gradcheck(cfg: dict) -> int:
    config = ModelConfig() if cfg["full_dims"] else GRADCHECK_CONFIG
    started = time.monotonic()
    video = generate_synthetic(
        SynthConfig(
            videos=1, frames_per_video=3, seed=cfg["seed"], image_size=config.image_size
        )
    )[0]
    images, diffs = FrameStream([video]).inputs(slice(None))
    weights = np.ones(video.labels.shape[1])
    params = ModelParams.init(config, cfg["seed"], np.float64)
    clear_relu_margins(params, images, diffs, margin=max(0.05, 50.0 * cfg["step"]))

    def loss_fn():
        # the graph of a training step, with the whole video as its batch
        return masked_cross_entropy(model_forward(params, images, diffs), video.labels, weights)

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
# command table, parser and dispatch


@dataclass(frozen=True)
class Command:
    """One subcommand: its handler, help line and settings.

    ``keys`` are config keys, each with its own flag, in echo order; the
    path keys among them are required.  ``switches`` are (name, help)
    on/off flags of this command alone, handed to ``run`` beside the keys.
    """

    run: Callable[[dict], int]
    help: str
    keys: tuple[str, ...]
    switches: tuple[tuple[str, str], ...] = ()


_SCORING_KEYS = ("window", "checkpoint", "corpus", "out")

COMMANDS = {
    "synth": Command(_cmd_synth, "generate a synthetic corpus", SYNTH_KEYS + ("out",)),
    "train": Command(_cmd_train, "train a detector on a corpus",
                     TRAIN_KEYS + ("corpus", "out")),
    "eval": Command(_cmd_eval, "score a checkpoint against labelled videos", _SCORING_KEYS),
    "predict": Command(_cmd_predict, "write per-video probability and decision CSVs",
                       _SCORING_KEYS),
    "gradcheck": Command(
        _cmd_gradcheck, "finite-difference check of the composed model",
        ("seed", "step", "threshold"),
        switches=(("full_dims",
                   "sweep the default architecture instead of the narrow one (slow)"),)),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="audet", description="Action unit detection pipeline.")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, command in COMMANDS.items():
        sub = subs.add_parser(name, help=command.help)
        sub.add_argument("--config", help="key=value settings file")
        for key in command.keys:
            sub.add_argument(_flag_name(key), dest=key, metavar="V", help=PATH_HELP.get(key))
        for switch, text in command.switches:
            sub.add_argument(_flag_name(switch), dest=switch, action="store_true", help=text)
    return parser


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        command = COMMANDS[ns.command]
        cfg = _resolve(ns, command)
        _echo(cfg, command.keys)
        return command.run(cfg)
    except SystemExit as exc:  # --help
        code = exc.code
        return code if isinstance(code, int) else 0
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
