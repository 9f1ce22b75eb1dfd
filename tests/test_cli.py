"""End-to-end command line tests, run in-process via cli.main."""

import argparse
import hashlib
import json
import math
import re
import struct
from dataclasses import fields, replace

import numpy as np
import pytest

from audet import cli, tensor as T
from audet.data import (FrameStream, SynthConfig, frame_record, generate_synthetic,
                        store_corpus)
from audet.errors import ConfigError, ContractViolation
from audet.model import (CHECKPOINT_VERSION, ModelParams, load_checkpoint, model_forward,
                         parameter_shapes)
from audet.tensor import Parameter
from audet.training import TrainConfig

from conftest import TINY_MODEL, traced_peak


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    """One synthesised corpus plus one trained run, shared read-only."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.auc"
    run_dir = root / "run"
    assert (
        cli.main(
            [
                "synth",
                "--videos", "3",
                "--frames", "6",
                "--image-size", "24",
                "--seed", "3",
                "--out", str(corpus),
            ]
        )
        == 0
    )
    assert (
        cli.main(
            [
                "train",
                "--corpus", str(corpus),
                "--out", str(run_dir),
                "--image-size", "24",
                "--epochs", "2",
                "--batch-size", "8",
                "--seed", "7",
            ]
        )
        == 0
    )
    return {
        "root": root,
        "corpus": corpus,
        "run": run_dir,
        "checkpoint": run_dir / "checkpoint.auck",
        "history": run_dir / "history.csv",
    }


# ---------------------------------------------------------------------------
# happy paths


class TestFlow:
    def test_train_artifacts_exist(self, cli_env):
        assert cli_env["checkpoint"].exists()
        lines = cli_env["history"].read_text().strip().split("\n")
        assert lines[0].startswith("epoch,train_loss")
        assert len(lines) == 3  # header + 2 epochs

    def test_train_reports_telemetry_outside_the_hashed_artifacts(self, cli_env, capsys,
                                                                   tmp_path):
        code, out, _ = run(
            capsys,
            "train",
            "--corpus", str(cli_env["corpus"]),
            "--out", str(tmp_path),
            "--image-size", "24",
            "--epochs", "2",
            "--batch-size", "8",
            "--seed", "7",
        )
        assert code == 0
        lines = [line for line in out.splitlines() if "grad_norm mean" in line]
        assert [line.split(":")[0] for line in lines] == ["epoch 0", "epoch 1"]
        assert f"telemetry: {tmp_path / 'run.json'}" in out
        epochs = json.loads((tmp_path / "run.json").read_text())["epochs"]
        assert [e["epoch"] for e in epochs] == [0, 1]
        assert set(epochs[0]) == {"epoch", "steps", "grad_norm_mean", "grad_norm_max",
                                  "clipped_fraction", "step_seconds", "validation_seconds"}
        assert not list(tmp_path.glob("*.tmp"))
        # timings vary run to run, so the checkpoint and history carry none
        assert _sha256(tmp_path / "history.csv") == _sha256(cli_env["history"])
        assert _sha256(tmp_path / "checkpoint.auck") == _sha256(cli_env["checkpoint"])

    def test_eval_writes_reports(self, cli_env, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "eval",
            "--checkpoint", str(cli_env["checkpoint"]),
            "--corpus", str(cli_env["corpus"]),
            "--out", str(tmp_path),
            "--window", "3",
        )
        assert code == 0
        assert "window = 3" in out
        report = (tmp_path / "report.txt").read_text()
        assert "unsmoothed.challenge_metric" in report
        csv_lines = (tmp_path / "report.csv").read_text().strip().split("\n")
        assert csv_lines[0].startswith("window,accuracy")
        assert len(csv_lines) == 2
        assert csv_lines[1].split(",")[0] == "3"

    def test_predict_writes_per_video_tracks(self, cli_env, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "predict",
            "--checkpoint", str(cli_env["checkpoint"]),
            "--corpus", str(cli_env["corpus"]),
            "--out", str(tmp_path),
        )
        assert code == 0
        probs = sorted(tmp_path.glob("*.probs.csv"))
        binary = sorted(tmp_path.glob("*.binary.csv"))
        assert len(probs) == 3 and len(binary) == 3
        header = probs[0].read_text().split("\n")[0]
        assert header == "frame,AU1,AU2,AU4,AU6,AU12,AU15,AU20,AU25"
        body = binary[0].read_text().strip().split("\n")[1:]
        assert len(body) == 6
        assert set("".join(ln.split(",", 1)[1] for ln in body)) <= {"0", "1", ","}

    def test_runs_echo_resolved_config(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "synth",
            "--videos", "1",
            "--frames", "3",
            "--image-size", "8",
            "--out", str(tmp_path / "c.auc"),
        )
        assert code == 0
        assert "resolved config:" in out
        assert "videos = 1" in out
        assert "stay_probability = 0.92" in out  # defaults echoed too

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "synth" in out and "gradcheck" in out


# ---------------------------------------------------------------------------
# config resolution


class TestConfigResolution:
    def test_flags_override_file_over_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text(
            "videos = 5\n"
            "frames_per_video = 6  # flag spelling is --frames\n"
            "image_size = 8\n"
        )
        code, out, _ = run(
            capsys,
            "synth",
            "--config", str(cfg),
            "--videos", "2",
            "--out", str(tmp_path / "c.auc"),
        )
        assert code == 0
        assert "videos = 2" in out  # flag beat the file
        assert "frames_per_video = 6" in out  # file beat the default
        assert "wrote 2 videos, 12 frames" in out
        assert re.search(r"^synthesis: \d+\.\d{3} s, \d+ frames/s$", out, re.M)

    def test_paths_can_come_from_config_file(self, capsys, tmp_path, cli_env):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text(
            f"corpus = {cli_env['corpus']}\n"
            f"checkpoint = {cli_env['checkpoint']}\n"
            f"out = {tmp_path / 'scored'}\n"
        )
        code, out, _ = run(capsys, "eval", "--config", str(cfg))
        assert code == 0
        assert (tmp_path / "scored" / "report.txt").exists()

    def test_defaults_cover_every_key_and_match_the_dataclasses(self):
        from dataclasses import asdict

        from audet.data import SynthConfig
        from audet.training import TrainConfig

        defaults = cli._defaults()
        assert set(defaults) == set(cli.KEY_PARSERS)
        for config in (SynthConfig(), TrainConfig()):
            assert {k: defaults[k] for k in asdict(config)} == asdict(config)

    def test_bool_keys_accept_onoff(self, tmp_path):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("class_weighting = off\n")
        assert cli.parse_config_file(cfg) == {"class_weighting": False}

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("# a comment\n\nseed = 9  # trailing\n")
        assert cli.parse_config_file(cfg) == {"seed": 9}


# ---------------------------------------------------------------------------
# configuration errors (exit 1)


class TestConfigErrors:
    def test_unknown_key_names_it(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("seed = 1\nlerning_rate = 0.1\n")
        code, _, err = run(capsys, "synth", "--config", str(cfg), "--out", "x")
        assert code == 1
        assert "line 2" in err and "lerning_rate" in err

    def test_out_of_range_value_names_key_and_line(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("videos = 2\nstay_probability = 1.5\n")
        code, _, err = run(capsys, "synth", "--config", str(cfg), "--out", "x")
        assert code == 1
        assert "stay_probability" in err and "line 2" in err and "1.5" in err

    def test_duplicate_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("seed = 1\nseed = 2\n")
        with pytest.raises(ConfigError, match="line 2.*duplicate"):
            cli.parse_config_file(cfg)

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("seed: 1\n")
        with pytest.raises(ConfigError, match="line 1"):
            cli.parse_config_file(cfg)

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "synth", "--config", "/no/such/file.cfg", "--out", "x")
        assert code == 1
        assert "not found" in err

    def test_config_that_is_a_directory(self, capsys, tmp_path):
        code, _, err = run(capsys, "synth", "--config", str(tmp_path), "--out", "x")
        assert code == 1
        assert f"cannot read config file {tmp_path}: Is a directory" in err

    def test_config_with_a_non_utf8_byte_names_file_and_line(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"seed = 1\nvideos = 2 # caf\xe9\n")
        code, _, err = run(capsys, "synth", "--config", str(cfg), "--out", "x")
        assert code == 1
        assert f"{cfg}: line 2: byte 0xe9 is not UTF-8" in err

    def test_bad_flag_value_names_flag(self, capsys):
        code, _, err = run(capsys, "synth", "--videos", "0", "--out", "x")
        assert code == 1
        assert "--videos" in err

    def test_even_window_flag_rejected(self, capsys, cli_env):
        code, _, err = run(
            capsys,
            "eval",
            "--checkpoint", str(cli_env["checkpoint"]),
            "--corpus", str(cli_env["corpus"]),
            "--out", "x",
            "--window", "4",
        )
        assert code == 1
        assert "--window" in err and "odd" in err

    def test_missing_required_path_says_how_to_pass_it(self, capsys):
        code, _, err = run(capsys, "synth", "--videos", "1")
        assert code == 1
        assert "out" in err and "--out" in err

    def test_unrecognized_flag(self, capsys):
        code, _, err = run(capsys, "synth", "--nonsense", "3")
        assert code == 1

    def test_train_image_size_too_small_for_the_model(self, capsys, tmp_path):
        # checked before the corpus is read, so the absent corpus is never reached
        code, _, err = run(
            capsys,
            "train",
            "--corpus", str(tmp_path / "absent.auc"),
            "--out", str(tmp_path),
            "--image-size", "12",
        )
        assert code == 1
        assert "image_size = 12" in err and "smaller than kernel" in err

    def test_gradcheck_bad_step(self, capsys):
        code, _, err = run(capsys, "gradcheck", "--step", "0")
        assert code == 1
        assert "--step" in err


# ---------------------------------------------------------------------------
# the command table

# every subcommand's key flags in echo order, as the CLI has always spelled them
ECHOED_FLAGS = {
    "synth": ["--videos", "--frames", "--seed", "--image-size", "--stay-probability",
              "--label-flip-noise", "--landmark-jitter-sigma", "--pixel-noise-sigma", "--out"],
    "train": ["--image-size", "--learning-rate", "--adam-beta1", "--adam-beta2",
              "--adam-epsilon", "--batch-size", "--epochs", "--grad-clip-global-norm",
              "--class-weighting", "--precision", "--val-fraction", "--seed", "--corpus",
              "--out"],
    "eval": ["--window", "--checkpoint", "--corpus", "--out"],
    "predict": ["--window", "--checkpoint", "--corpus", "--out"],
    "gradcheck": ["--seed", "--step", "--threshold"],
}
SWITCHES = {"gradcheck": {"--full-dims"}}


def _subparsers():
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_flags_are_the_commands_keys_plus_config(name):
    sub = _subparsers()[name]
    flags = {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
    keys = cli.COMMANDS[name].keys
    assert [cli._flag_name(k) for k in keys] == ECHOED_FLAGS[name]
    assert flags == {"--config", *ECHOED_FLAGS[name], *SWITCHES.get(name, ())}


def test_every_config_key_belongs_to_a_command():
    assert list(cli.COMMANDS) == list(_subparsers()) == list(ECHOED_FLAGS)
    assert set(cli.KEY_PARSERS) == {k for c in cli.COMMANDS.values() for k in c.keys}


def test_echo_follows_the_declared_order(capsys, tmp_path):
    code, out, _ = run(capsys, "synth", "--videos", "1", "--frames", "3", "--image-size", "8",
                       "--out", str(tmp_path / "c.auc"))
    keys = cli.COMMANDS["synth"].keys
    assert code == 0 and out.splitlines()[0] == "resolved config:"
    assert [line.split(" = ")[0].strip() for line in out.splitlines()[1:1 + len(keys)]] == list(keys)


PATH_CASES = [(name, key) for name, c in cli.COMMANDS.items() for key in c.keys
              if key in cli.PATH_HELP]


@pytest.mark.parametrize("name,key", PATH_CASES, ids=[f"{n}-{k}" for n, k in PATH_CASES])
def test_each_missing_path_exits_1_naming_its_flag(capsys, tmp_path, name, key):
    given = [arg for n, k in PATH_CASES if n == name and k != key
             for arg in (f"--{k}", str(tmp_path / k))]
    code, out, err = run(capsys, name, *given)
    assert code == 1
    assert f"missing '{key}': pass --{key} or set it in the config file" in err
    assert "resolved config" not in out


# ---------------------------------------------------------------------------
# one source of truth: the dataclasses' validate()

CONFIGS = (SynthConfig, TrainConfig)
FLOAT_FIELDS = [(c, f.name) for c in CONFIGS for f in fields(c)
                if isinstance(getattr(c(), f.name), float)]
# raw values per setting type, each inside and outside some range of validate()
CANDIDATES = {
    int: ["-1", "0", "1", "2", "3", "7", "8", "9", "64"],
    float: ["-1", "-0.5", "0", "1e-9", "0.5", "0.999", "1", "1.5", "1e150",
            "nan", "inf", "-inf"],
    bool: ["on", "off"],
    str: ["single", "double", "half", "Single"],
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("config,name", FLOAT_FIELDS,
                         ids=[f"{c.__name__}.{n}" for c, n in FLOAT_FIELDS])
def test_validate_rejects_non_finite_floats(config, name, value):
    with pytest.raises(ContractViolation, match=f"{name} must be finite"):
        replace(config(), **{name: value}).validate()


@pytest.mark.parametrize("key", sorted({f.name for c in CONFIGS for f in fields(c)}))
def test_config_file_rejects_exactly_what_validate_rejects(key, tmp_path):
    owners = [c for c in CONFIGS if key in {f.name for f in fields(c)}]
    kind = type(getattr(owners[0](), key))
    cfg = tmp_path / "settings.cfg"
    verdicts = set()
    for raw in CANDIDATES[kind]:
        value = raw == "on" if kind is bool else kind(raw)
        try:
            for config in owners:
                replace(config(), **{key: value}).validate()
            valid = True
        except ContractViolation:
            valid = False
        verdicts.add(valid)
        cfg.write_text(f"# settings\n{key} = {raw}\n")
        if valid:
            assert cli.parse_config_file(cfg) == {key: value}, raw
        else:
            with pytest.raises(ConfigError, match=f"line 2: {key}: "):
                cli.parse_config_file(cfg)
    assert True in verdicts  # every key has an accepted candidate


# ---------------------------------------------------------------------------
# data and numeric errors (exit 2 and 3)


class TestRuntimeErrors:
    def test_missing_corpus_is_a_data_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "train",
            "--corpus", str(tmp_path / "absent.auc"),
            "--out", str(tmp_path),
        )
        assert code == 2

    def test_checkpoint_version_mismatch_reports_both(self, capsys, cli_env, tmp_path):
        stale = tmp_path / "stale.auck"
        blob = bytearray(cli_env["checkpoint"].read_bytes())
        blob[4:6] = struct.pack("<H", 7)
        stale.write_bytes(bytes(blob))
        code, _, err = run(
            capsys,
            "eval",
            "--checkpoint", str(stale),
            "--corpus", str(cli_env["corpus"]),
            "--out", str(tmp_path),
        )
        assert code == 2
        assert "7" in err and str(CHECKPOINT_VERSION) in err

    def test_checkpoint_whose_config_text_its_dimensions_do_not_write(
            self, capsys, cli_env, tmp_path):
        mutated = tmp_path / "mutated.auck"
        blob = cli_env["checkpoint"].read_bytes()
        assert blob.count(b"128:relu") == 1
        mutated.write_bytes(blob.replace(b"128:relu", b"128:tanh"))  # same length
        code, _, err = run(
            capsys,
            "eval",
            "--checkpoint", str(mutated),
            "--corpus", str(cli_env["corpus"]),
            "--out", str(tmp_path / "scores"),
        )
        assert code == 2
        assert "dynamic_hidden = '128:tanh,64:tanh', expected '128:relu,64:tanh'" in err
        assert not (tmp_path / "scores").exists()

    def test_oversized_checkpoint_config_fails_before_allocating(
            self, capsys, cli_env, tmp_path):
        # a config about 38 times the size of the tensors stored must fail
        # without its parameters being built: building them and their
        # gradients would hold about 75 times the file
        blob = cli_env["checkpoint"].read_bytes()
        (length,) = struct.unpack("<I", blob[6:10])
        text = blob[10 : 10 + length]
        assert text.count(b"fusion_out=64") == 1
        text = text.replace(b"fusion_out=64", b"fusion_out=1024")
        mutated = tmp_path / "huge.auck"
        mutated.write_bytes(blob[:6] + struct.pack("<I", len(text)) + text + blob[10 + length:])
        (code, _, err), peak = traced_peak(
            run,
            capsys,
            "eval",
            "--checkpoint", str(mutated),
            "--corpus", str(cli_env["corpus"]),
            "--out", str(tmp_path / "scores"),
        )
        assert code == 2
        assert peak < 4 * len(blob)
        assert ("tensor 'fusion.weights' (64, 128) "
                "where the config puts 'fusion.weights' (1024, 128)") in err
        assert not (tmp_path / "scores").exists()

    def test_checkpoint_with_bad_utf8_config_is_a_data_error(self, capsys, cli_env, tmp_path):
        mutated = tmp_path / "mutated.auck"
        blob = bytearray(cli_env["checkpoint"].read_bytes())
        blob[12] = 0xFF  # inside the config block, which starts at byte 10
        mutated.write_bytes(bytes(blob))
        code, _, err = run(
            capsys,
            "eval",
            "--checkpoint", str(mutated),
            "--corpus", str(cli_env["corpus"]),
            "--out", str(tmp_path / "scores"),
        )
        assert code == 2
        assert "UTF-8" in err

    def test_truncated_corpus_is_a_data_error(self, capsys, cli_env, tmp_path):
        clipped = tmp_path / "clipped.auc"
        blob = cli_env["corpus"].read_bytes()
        clipped.write_bytes(blob[: len(blob) // 2])
        code, _, err = run(
            capsys,
            "train",
            "--corpus", str(clipped),
            "--out", str(tmp_path),
        )
        assert code == 2

    def test_non_finite_landmark_is_a_data_error(self, capsys, cli_env, tmp_path):
        poisoned = tmp_path / "nan.auc"
        blob = bytearray(cli_env["corpus"].read_bytes())
        first = 4 + 10 + 2 + len("synth0000") + 4  # header, then the first video's id and count
        rows = np.frombuffer(blob, frame_record(24, 24), count=6, offset=first)
        rows["landmarks"][3, 10, 0] = np.nan
        poisoned.write_bytes(bytes(blob))
        code, _, err = run(
            capsys,
            "eval",
            "--checkpoint", str(cli_env["checkpoint"]),
            "--corpus", str(poisoned),
            "--out", str(tmp_path / "scores"),
        )
        assert code == 2
        assert str(poisoned) in err and "frame 3 has non-finite landmarks" in err

    @pytest.fixture(scope="class")
    def repeated_ids(self, tmp_path_factory):
        """Two synth runs into one directory: both files hold synth0000 and synth0001."""
        root = tmp_path_factory.mktemp("repeated")
        for seed in ("1", "2"):
            out = root / f"seed{seed}.auc"
            args = ["synth", "--videos", "2", "--frames", "4", "--image-size", "24",
                    "--seed", seed, "--out", str(out)]
            assert cli.main(args) == 0
        return root

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_repeated_video_ids_are_a_data_error(self, capsys, cli_env, repeated_ids,
                                                 tmp_path, command):
        out = tmp_path / "scores"
        code, _, err = run(
            capsys,
            command,
            "--checkpoint", str(cli_env["checkpoint"]),
            "--corpus", str(repeated_ids),
            "--out", str(out),
        )
        assert code == 2
        assert "seed2.auc: video id 'synth0000' repeats one in" in err and "seed1.auc" in err
        assert not list(out.glob("*.csv"))  # no report.csv, no track CSVs

    @pytest.fixture(scope="class")
    def mixed_sizes(self, tmp_path_factory):
        """A 24-px a.auc and a 32-px b.auc whose video ids differ."""
        root = tmp_path_factory.mktemp("mixed")
        for name, size in (("a", 24), ("b", 32)):
            videos = generate_synthetic(SynthConfig(videos=3, frames_per_video=4, seed=1,
                                                    image_size=size))
            for i, video in enumerate(videos):
                video.video_id = f"{name}{i}"
            store_corpus(videos, root / f"{name}.auc")
        return root

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_mixed_image_sizes_are_a_data_error(self, capsys, cli_env, mixed_sizes,
                                                tmp_path, command):
        args = ["--corpus", str(mixed_sizes), "--out", str(tmp_path / "out")]
        if command == "eval":
            args += ["--checkpoint", str(cli_env["checkpoint"])]
        code, _, err = run(capsys, command, *args)
        assert code == 2
        assert "b.auc: frames are 32 x 32 px" in err and "a.auc holds 24 x 24 px" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_scoring_frames_of_another_size_is_a_data_error(self, capsys, cli_env, mixed_sizes,
                                                            tmp_path, command):
        # the checkpoint is 24 px; b.auc holds 32-px frames
        out = tmp_path / "scores"
        code, _, err = run(
            capsys,
            command,
            "--checkpoint", str(cli_env["checkpoint"]),
            "--corpus", str(mixed_sizes / "b.auc"),
            "--out", str(out),
        )
        assert code == 2
        assert "32 x 32 px frames" in err and "image_size is 24" in err
        assert not list(out.glob("*"))  # no report.* and no track CSVs

    def test_train_on_frames_of_another_size_is_a_data_error(self, capsys, cli_env, tmp_path):
        # the default image_size is 64; the corpus is 24 px
        code, out, err = run(
            capsys,
            "train",
            "--corpus", str(cli_env["corpus"]),
            "--out", str(tmp_path),
        )
        assert code == 2
        assert "24 x 24 px frames" in err and "image_size is 64" in err
        assert "epoch 0" not in out

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_nan_checkpoint_is_a_data_error(self, capsys, cli_env, tmp_path, command):
        poisoned = tmp_path / "nan.auck"
        blob = bytearray(cli_env["checkpoint"].read_bytes())
        # first value of the classifier bias: after its name, rank byte and one extent
        at = blob.index(b"classifier.bias") + len("classifier.bias") + 1 + 4
        blob[at : at + 4] = struct.pack("<f", np.nan)
        poisoned.write_bytes(bytes(blob))
        out = tmp_path / "scores"
        code, _, err = run(
            capsys,
            command,
            "--checkpoint", str(poisoned),
            "--corpus", str(cli_env["corpus"]),
            "--out", str(out),
        )
        assert code == 2
        assert "tensor 'classifier.bias' holds NaN or Inf" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_nan_scores_are_a_numeric_error(self, capsys, cli_env, tmp_path, monkeypatch,
                                            command):
        # parameters that hold NaN without passing through the reader's check
        def poisoned(path):
            params = load_checkpoint(path)
            params.tensors["classifier.bias"].value[1] = np.nan
            return params

        monkeypatch.setattr(cli, "load_checkpoint", poisoned)
        out = tmp_path / "scores"
        code, _, err = run(
            capsys,
            command,
            "--checkpoint", str(cli_env["checkpoint"]),
            "--corpus", str(cli_env["corpus"]),
            "--out", str(out),
        )
        assert code == 3
        assert "non-finite activation probability" in err
        assert not out.exists()  # no report, no track CSVs

    def test_train_refuses_to_save_nan_weights(self, capsys, cli_env, tmp_path, monkeypatch):
        real_train = cli.train

        def poisoned(*args, **kwargs):
            result = real_train(*args, **kwargs)
            result.best_params.tensors["fusion.weights"].value[0, 0] = np.nan
            return result

        monkeypatch.setattr(cli, "train", poisoned)
        out = tmp_path / "run"
        code, _, err = run(
            capsys,
            "train",
            "--corpus", str(cli_env["corpus"]),
            "--out", str(out),
            "--image-size", "24",
            "--epochs", "1",
        )
        assert code == 3
        assert "tensor 'fusion.weights' holds NaN or Inf" in err
        assert not out.exists()  # no checkpoint, history or telemetry

    def test_video_id_outside_out_is_a_data_error(self, capsys, cli_env, tmp_path):
        videos = generate_synthetic(SynthConfig(videos=2, frames_per_video=4, seed=1,
                                                image_size=24))
        # store_corpus refuses the id too, so a same-length safe id is
        # swapped for it in the stored bytes: this tests the loader
        videos[1].video_id = "placeholder1"
        corpus = store_corpus(videos, tmp_path / "escape.auc")
        data = corpus.read_bytes()
        assert data.count(b"placeholder1") == 1
        corpus.write_bytes(data.replace(b"placeholder1", b"../escaped/x"))
        out = tmp_path / "run" / "out"
        code, _, err = run(
            capsys,
            "predict",
            "--checkpoint", str(cli_env["checkpoint"]),
            "--corpus", str(corpus),
            "--out", str(out),
        )
        assert code == 2
        assert "video '../escaped/x'" in err and "a video id must not be empty" in err
        assert not (tmp_path / "run").exists()  # neither out/ nor run/escaped/

    def test_divergent_training_is_a_numeric_error(self, capsys, cli_env, tmp_path):
        np_err = np.seterr(all="ignore")
        try:
            code, _, err = run(
                capsys,
                "train",
                "--corpus", str(cli_env["corpus"]),
                "--out", str(tmp_path),
                "--image-size", "24",
                "--epochs", "1",
                "--batch-size", "4",  # several batches, so one sees the blow-up
                "--learning-rate", "1e150",
            )
        finally:
            np.seterr(**np_err)
        assert code == 3
        assert "epoch" in err


# ---------------------------------------------------------------------------
# determinism of artifacts


class TestGradcheck:
    def test_error_above_threshold_exits_3(self, capsys, monkeypatch):
        from audet.tensor import GradientCheckReport

        monkeypatch.setattr(cli, "GRADCHECK_CONFIG", TINY_MODEL)
        monkeypatch.setattr(cli, "finite_difference_report",
                            lambda *args: GradientCheckReport(2e-4, "conv0.bias", (1,)))
        code, out, err = run(capsys, "gradcheck", "--threshold", "1e-4")
        assert code == 3
        assert "max_relative_error = 2.000e-04" in out
        assert "worst_parameter = conv0.bias[1]" in out
        assert "gradient check FAILED" in err

    def test_differentiates_the_whole_video_as_one_batch(self, capsys, monkeypatch):
        from audet.tensor import GradientCheckReport

        batches = []  # (images, diffs) extents of every model_forward call
        loss_batches = []

        def spy_forward(params, images, diffs):
            batches.append((len(images), len(diffs)))
            return model_forward(params, images, diffs)

        def one_loss(loss_fn, params, step):
            before = len(batches)
            assert loss_fn().value.shape == ()
            loss_batches.extend(batches[before:])
            return GradientCheckReport(0.0, "conv0.bias", (0,))

        monkeypatch.setattr(cli, "GRADCHECK_CONFIG", TINY_MODEL)
        monkeypatch.setattr(cli, "model_forward", spy_forward)
        monkeypatch.setattr(cli, "finite_difference_report", one_loss)
        code, _, _ = run(capsys, "gradcheck")
        assert code == 0
        assert loss_batches == [(3, 3)]  # the 3-frame video, one forward pass
        clearing = batches[:-1]  # relu clearing runs before the sweep
        assert clearing and all(b == (3, 3) for b in clearing)

    def test_reports_worst_parameter(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "GRADCHECK_CONFIG", TINY_MODEL)
        code, out, _ = run(capsys, "gradcheck", "--seed", "7")
        assert code == 0
        line = next(x for x in out.splitlines() if x.startswith("worst_parameter = "))
        name, _, index = line.split(" = ")[1].partition("[")
        assert name in parameter_shapes(TINY_MODEL)
        assert index.endswith("]") and all(i.isdigit() for i in index[:-1].split(","))


def _relu_inputs(params, images, diffs):
    """(bias, unit-major pre-activations) of every relu in the model's own graph."""
    found = []
    for node in T._topo_order(model_forward(params, images, diffs)):
        if node._push is not None and node._push.__qualname__ == "relu.<locals>.push":
            pre = node.parents[0]  # a conv2d or linear node, its units on the last axis
            bias = next(p for p in pre.parents
                        if isinstance(p, Parameter) and p.name.endswith("bias"))
            found.append((bias, np.moveaxis(pre.value, -1, 0)))
    return found


class TestReluClearing:
    MARGIN, CAP = 0.05, 0.25

    def test_every_relu_unit_is_cleared_and_nothing_else_moves(self):
        video = generate_synthetic(SynthConfig(videos=1, frames_per_video=3, seed=7,
                                               image_size=TINY_MODEL.image_size))[0]
        images, diffs = FrameStream([video]).inputs(slice(None))
        params = ModelParams.init(TINY_MODEL, 7, np.float64)
        before = {name: value.copy() for name, value in params.named_arrays()}
        cli.clear_relu_margins(params, images, diffs, self.MARGIN, self.CAP)

        relus = _relu_inputs(params, images, diffs)
        # every conv layer, and every dynamic layer but the tanh one
        relu_layers = len(TINY_MODEL.conv_spec) + len(TINY_MODEL.dynamic_hidden) - 1
        assert len(relus) == relu_layers
        grid = np.linspace(-self.CAP, self.CAP, 2001)
        moved = 0
        for bias, units in relus:
            shift = bias.value - before[bias.name]
            for unit, values in enumerate(units):
                assert abs(shift[unit]) <= self.CAP
                # margin reached, or no shift within cap gets further from zero
                flat = values.ravel() - shift[unit]
                reachable = np.abs(flat[None] + grid[:, None]).min(axis=1).max()
                assert np.abs(values).min() >= min(self.MARGIN, reachable), (bias.name, unit)
            moved += int(np.count_nonzero(shift))
        assert moved > 0  # the batch had relu inputs near zero to clear

        biases = {bias.name for bias, _ in relus}
        for name, value in params.named_arrays():
            if name not in biases:
                assert value.tobytes() == before[name].tobytes(), name

    def test_gap_shift_leaves_clear_values_and_stays_within_cap(self):
        assert cli._gap_shift(np.array([-0.3, 0.2, 0.5]), self.MARGIN, self.CAP) == 0.0
        near = np.array([-0.02, 0.03, 0.4])
        delta = cli._gap_shift(near, self.MARGIN, self.CAP)
        assert np.abs(near + delta).min() >= self.MARGIN
        rng = np.random.default_rng(0)
        for _ in range(200):
            values = rng.normal(0.0, rng.uniform(0.01, 2.0), rng.integers(1, 40))
            delta = cli._gap_shift(values, self.MARGIN, self.CAP)
            assert abs(delta) <= self.CAP
            assert np.abs(values + delta).min() >= min(np.abs(values).min(), self.MARGIN)


class TestArtifactDeterminism:
    def test_same_config_synth_runs_hash_identically(self, capsys, tmp_path):
        args = ["synth", "--videos", "2", "--frames", "5", "--image-size", "16", "--seed", "11"]
        a = tmp_path / "a.auc"
        b = tmp_path / "b.auc"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert _sha256(a) == _sha256(b)

    def test_different_seed_changes_the_corpus(self, capsys, tmp_path):
        base = ["synth", "--videos", "2", "--frames", "5", "--image-size", "16"]
        a = tmp_path / "a.auc"
        b = tmp_path / "b.auc"
        assert cli.main(base + ["--seed", "1", "--out", str(a)]) == 0
        assert cli.main(base + ["--seed", "2", "--out", str(b)]) == 0
        capsys.readouterr()
        assert _sha256(a) != _sha256(b)
