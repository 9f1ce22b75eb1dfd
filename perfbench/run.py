#!/usr/bin/env python3
"""audet benchmark: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload train --seed 1 --seconds 36 --trace 0

Every workload runs the whole pipeline on inputs made from ``--seed``:
synthesis, a corpus and checkpoint store/load round trip, training,
``audet eval`` + ``audet predict`` through ``cli.main``, and a closed loop
that scores one held-out video per call.  Workloads differ in the shape
of those inputs and in the share of ``--seconds`` each stage gets (see
WORKLOADS).  Stages take turns, the one furthest behind its share going
next, so each stage's samples spread over the whole run and a slow
spell of the machine does not land on one stage only.  Every metric is
the median of its samples; outputs are checked after each repetition,
outside the timed region.  A sixth stage, calib, times fixed work that
calls no audet code; the short stages' timings are scaled by how slow it
ran nearby (see end_to_end) and the unscaled values are printed too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` wraps the
layer functions listed in tracer.TRACED, alternates untraced and traced
repetitions of each stage, and prints per-layer metrics per repetition
plus the tracing overhead.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from benchlib import Tally, beyond, environment, percentile, reportable  # noqa: E402
from tracer import TRACED, Tracer, span_totals  # noqa: E402

clock = time.perf_counter

SETUP_REPS = 3
STAGES = ("synth", "io", "train", "infer", "loop", "calib")  # first round runs in this order
STOCK_FRAMES = 60
# Training corpus of every workload.  Many short videos, half of them held
# out for validation, keep val_metric from hinging on a few videos: its
# quartile spread over ten seeds was 0.09 at 24 x 20 and 0.22 at 40 x 12,
# and about 0.2 at 8 x 60 over six.
TRAIN_CORPUS = (24, 20)
TRAIN_EPOCHS = 2
VAL_FRACTION = 0.5
BATCH_SIZE = 16
LOOP_CHUNK = 20  # videos per loop repetition, so latency samples spread over the run
LEAST_REPS = {"loop": 100 // LOOP_CHUNK}  # p90 needs 100 samples for 10 beyond it
# Median time of one calib repetition on the 2-vCPU Xeon host the benchmark
# was defined on.  Each repetition's timings are scaled by the median of the
# CALIB_NEAREST calib times taken closest to it, over this reference, which
# takes out most of that host's speed swings (up to 30% within minutes).
CALIB_REFERENCE_S = 0.004
CALIB_NEAREST = 9
# Repetitions longer than this are not scaled: the calib times near them do
# not cover their span (training's 6 s and the infer workload's 3 s CLI
# repetitions drifted further when scaled).
CALIB_SPAN_S = 1.5


@dataclass(frozen=True)
class Workload:
    synth_videos: int  # stock-shape videos per synth repetition; io round-trips them
    heldout: tuple[int, int]  # videos, frames scored by eval, predict and the loop
    shares: dict  # stage -> share of --seconds


WORKLOADS = {
    # Every workload trains for half its run: train_frames_per_s needs three
    # 6 s training repetitions to be steady.  The other half differs.
    # train: the rest is spread over every other stage
    "train": Workload(1, (40, 3), {"synth": 0.1, "io": 0.08, "train": 0.5, "infer": 0.16,
                                   "loop": 0.16, "calib": 0.05}),
    # infer: the rest scores 100 short videos, through the CLI and one per call
    "infer": Workload(1, (100, 4), {"synth": 0.04, "io": 0.02, "train": 0.5, "infer": 0.22,
                                    "loop": 0.22, "calib": 0.05}),
    # synth_io: the rest synthesises stock-shape videos and round-trips them
    "synth_io": Workload(3, (40, 3), {"synth": 0.2, "io": 0.14, "train": 0.5, "infer": 0.08,
                                      "loop": 0.06, "calib": 0.05}),
}


def import_audet():
    """Import audet from this checkout's src/, or exit 2 if it is not there."""
    src = ROOT / "src"
    if not (src / "audet" / "__init__.py").is_file():
        print(f"perfbench: no audet sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import audet
    import audet.cli  # noqa: F401  (loads every module the tracer wraps)

    if Path(audet.__file__).resolve().parent != (src / "audet").resolve():
        print(f"perfbench: imported audet from {audet.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return audet


# ---------------------------------------------------------------------------
# output checks


def corpus_bytes(data, videos, path: Path) -> bytes:
    """A corpus as store_corpus writes it: every plane, landmark and label.

    Comparing these bytes, rather than in-memory frames, keeps the checks
    independent of how audet holds a video in memory.
    """
    return data.store_corpus(videos, path).read_bytes()


def params_mismatches(expected, actual) -> list[str]:
    got = dict(actual.named_arrays())
    return [f"tensor {name} differs" for name, value in expected.named_arrays()
            if name not in got or got[name].shape != value.shape
            or got[name].tobytes() != value.tobytes()]


def csv_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


# ---------------------------------------------------------------------------
# stages


class Run:
    """Inputs and stage units of one workload run.

    Each stage has ``<stage>_work``, timed and traced, returning
    (samples, extra, payload), and ``<stage>_check``, which inspects the
    payload untimed.  ``samples`` maps end-to-end metric names to lists of
    measurements; ``extra`` holds what the traced run reads.
    """

    def __init__(self, workload: Workload, seed: int, work: Path, tally: Tally):
        import numpy as np
        from audet import cli, data, evaluation, model, training

        self.np = np
        self.cli, self.data, self.evaluation = cli, data, evaluation
        self.model, self.training = model, training
        self.w, self.seed, self.work, self.tally = workload, seed, work, tally
        self.synthesized = None  # first synth repetition's corpus, round-tripped by io
        self.synthesized_bytes = None
        self.checkpoint = None  # first training repetition's best parameters
        self.params = None
        self.val_metric = None
        self.loop_next = 0
        rng = np.random.default_rng(0)
        self.calib_inputs = (rng.standard_normal((192, 32)).astype(np.float32) * 0.1,
                             rng.standard_normal((192, 64)).astype(np.float32) * 0.1,
                             rng.standard_normal((36, 32)).astype(np.float32))

    def corpus(self, videos: int, frames: int, salt: int):
        config = self.data.SynthConfig(videos=videos, frames_per_video=frames,
                                       seed=self.seed * 16 + salt)
        return self.data.generate_synthetic(config)

    def setup(self):
        """Make the training corpus and the stored held-out corpus."""
        self.train_corpus = self.corpus(*TRAIN_CORPUS, salt=1)
        self.heldout = self.corpus(*self.w.heldout, salt=2)
        self.heldout_path = self.data.store_corpus(self.heldout, self.work / "heldout.auc")
        self.heldout_frames = sum(len(v) for v in self.heldout)

    def synth_work(self):
        t = clock()
        videos = self.corpus(self.w.synth_videos, STOCK_FRAMES, salt=3)
        dt = clock() - t
        return {"synth_frames_per_s": [sum(len(v) for v in videos) / dt]}, {}, videos

    def synth_check(self, videos):
        stored = corpus_bytes(self.data, videos, self.work / "synth_check.auc")
        if self.synthesized is None:
            self.synthesized, self.synthesized_bytes = videos, stored
        self.tally.check(stored == self.synthesized_bytes, "synth repetition differs from the first")

    def io_work(self):
        corpus = self.synthesized
        frames = sum(len(v) for v in corpus)
        t0 = clock()
        path = self.data.store_corpus(corpus, self.work / "io.auc")
        t1 = clock()
        loaded = self.data.load_corpus(path)
        t2 = clock()
        params = self.model.ModelParams.init(self.model.ModelConfig(), self.seed)
        back = self.model.load_checkpoint(self.model.save_checkpoint(params, self.work / "io.auck"))
        samples = {"write_frames_per_s": [frames / (t1 - t0)],
                   "read_frames_per_s": [frames / (t2 - t1)]}
        return samples, {"bytes": path.stat().st_size}, (loaded, params, back)

    def io_check(self, out):
        loaded, params, back = out
        stored = corpus_bytes(self.data, loaded, self.work / "io_check.auc")
        self.tally.check(stored == self.synthesized_bytes, "store/load round trip changed the corpus")
        bad = params_mismatches(params, back)
        self.tally.check(not bad, f"checkpoint round trip: {bad[:3]}")

    def train_work(self):
        ends = []
        tconf = self.training.TrainConfig(epochs=TRAIN_EPOCHS, batch_size=BATCH_SIZE,
                                          val_fraction=VAL_FRACTION)
        start = clock()
        result = self.training.train(self.train_corpus, self.model.ModelConfig(), tconf,
                                     on_epoch_end=lambda stats, params: ends.append(clock()))
        lengths = {v.video_id: len(v) for v in self.train_corpus}
        frames = sum(lengths[i] for i in result.train_ids)
        epochs = [b - a for a, b in zip([start] + ends[:-1], ends)]
        samples = {"train_frames_per_s": [frames / dt for dt in epochs],
                   "val_metric": [result.history[-1].val_metric]}
        return samples, {"epoch_ends": ends}, result

    def train_check(self, result):
        baseline = 0.5 * (1.0 - float(self.data.PROTOTYPE_LABELS.mean()))
        val = result.history[-1].val_metric
        self.tally.check(val > baseline, f"val_metric {val} <= always-inactive {baseline}")
        if self.val_metric is None:
            self.val_metric = val
            self.checkpoint = self.model.save_checkpoint(result.best_params,
                                                         self.work / "model.auck")
            self.params = self.model.load_checkpoint(self.checkpoint)
        self.tally.check(val == self.val_metric, f"val_metric {val} != first run's {self.val_metric}")

    def infer_work(self):
        args = ["--checkpoint", str(self.checkpoint), "--corpus", str(self.heldout_path)]
        ev, pr = self.work / "eval", self.work / "predict"
        t = clock()
        with contextlib.redirect_stdout(io.StringIO()):
            codes = (self.cli.main(["eval", *args, "--out", str(ev)]),
                     self.cli.main(["predict", *args, "--out", str(pr)]))
        dt = clock() - t
        return {"infer_frames_per_s": [2 * self.heldout_frames / dt]}, {}, (codes, ev, pr)

    def infer_check(self, out):
        """report.csv's metric equals the one recomputed from predict's decisions."""
        codes, ev, pr = out
        if not self.tally.check(codes == (0, 0), f"eval/predict exit codes {codes}"):
            return
        header, row = (ev / "report.csv").read_text().splitlines()[:2]
        reported = dict(zip(header.split(","), row.split(",")))["smoothed_challenge_metric"]
        decisions, in_range = {}, True
        for video in self.heldout:
            rows = csv_rows(pr / f"{video.video_id}.binary.csv")
            decisions[video.video_id] = self.np.array([r[1:] for r in rows], dtype=self.np.int8)
            for r in csv_rows(pr / f"{video.video_id}.probs.csv"):
                in_range &= all(math.isfinite(p) and 0.0 <= p <= 1.0 for p in map(float, r[1:]))
        labels = {v.video_id: v.labels_array() for v in self.heldout}
        recomputed = self.evaluation.challenge_metric(decisions, labels).metric
        self.tally.check(f"{recomputed:.6f}" == reported,
                         f"report.csv metric {reported} != recomputed {recomputed:.6f}")
        self.tally.check(in_range, "predict wrote probabilities outside [0, 1]")

    def loop_work(self):
        """Score the next LOOP_CHUNK held-out videos, one call each, cycling."""
        start = self.loop_next
        chunk = self.heldout[start:start + LOOP_CHUNK]
        self.loop_next = (start + LOOP_CHUNK) % len(self.heldout)
        latencies, tracks = [], []
        for video in chunk:
            t = clock()
            tracks.append(self.evaluation.predict_video(self.params, video))
            latencies.append(1000.0 * (clock() - t))
        return {"video_ms": latencies}, {}, tracks

    def loop_check(self, tracks):
        np = self.np
        ok = all(np.isfinite(p).all() and p.min() >= 0.0 and p.max() <= 1.0 for p in tracks)
        self.tally.check(ok, "predict_video returned probabilities outside [0, 1]")

    def calib_work(self):
        """Fixed work that calls no audet code, timed to gauge the host's speed now.

        A 36-step gated recurrence on 64-vectors: the model's mix of
        interpreter overhead and small numpy calls, without allocating
        objects the garbage collector tracks.
        """
        np, (w, u, xs) = self.np, self.calib_inputs
        t = clock()
        for _ in range(4):
            h = np.zeros(64, np.float32)
            for x in xs:
                z = w @ x + u @ h
                r = 1.0 / (1.0 + np.exp(-z[:64]))
                gate = 1.0 / (1.0 + np.exp(-z[64:128]))
                h = (1.0 - gate) * np.tanh(z[128:] * r) + gate * h
                np.outer(h, x)
        return {"calib_s": [clock() - t]}, {}, None


def run_stages(run: Run, shares: dict, seconds: float, tracer: Tracer | None) -> dict:
    """Run stage repetitions for `seconds`; returns stage -> list of repetition records.

    The first round runs every stage once, in STAGES order.  After that
    the stage with the least time used relative to its share goes next,
    while its last repetition's duration still fits in the run; then
    stages below LEAST_REPS catch up.  With a tracer, each stage
    alternates untraced and traced repetitions, starting untraced, until
    it has two of each.
    """
    reps = {s: [] for s in STAGES}
    used = dict.fromkeys(STAGES, 0.0)
    start = clock()
    while True:
        if tracer:
            stage = next((s for s in STAGES if len(reps[s]) < 4), None)
        else:
            stage = next((s for s in STAGES if not reps[s]), None)
            if stage is None:
                stage = min(STAGES, key=lambda s: used[s] / shares[s])
                if clock() - start + reps[stage][-1]["wall"] > seconds:
                    stage = next((s for s in STAGES if len(reps[s]) < LEAST_REPS.get(s, 1)),
                                 None)
        if stage is None:
            return reps
        traced = tracer is not None and len(reps[stage]) % 2 == 1
        record = run_once(run, stage, tracer if traced else None)
        if record is None:
            return reps
        used[stage] += record["wall"]
        reps[stage].append(record)


def run_once(run: Run, stage: str, tracer: Tracer | None):
    if tracer:
        tracer.reset()
        tracer.install()
    t = clock()
    try:
        out = run.tally.run(f"{stage} repetition", getattr(run, f"{stage}_work"))
    finally:
        wall = clock() - t
        if tracer:
            tracer.uninstall()
    if out is None:
        return None
    samples, extra, payload = out
    check = getattr(run, f"{stage}_check", None)
    if check:
        run.tally.run(f"{stage} check", lambda: check(payload))
    record = {"samples": samples, "extra": extra, "wall": wall, "mid": t + wall / 2,
              "traced": tracer is not None}
    if tracer:
        record["spans"] = tracer.spans
        record["results"] = dict(tracer.results)
    return record


# ---------------------------------------------------------------------------
# reduction


def pooled(reps: dict, key: str, scale=None) -> list:
    """Untraced samples of `key`, each divided by scale(record) when given."""
    return [x / (scale(r) if scale else 1.0) for stage in reps.values() for r in stage
            if not r["traced"] for x in r["samples"].get(key, ())]


def slowness_near(reps: dict):
    """record -> host slowness from the calib repetitions nearest to it in time."""
    calib = [(r["mid"], r["samples"]["calib_s"][0]) for r in reps["calib"] if not r["traced"]]

    def slowness(record):
        if not calib or record["wall"] > CALIB_SPAN_S:
            return 1.0
        near = sorted(calib, key=lambda c: abs(c[0] - record["mid"]))[:CALIB_NEAREST]
        return statistics.median(c[1] for c in near) / CALIB_REFERENCE_S

    return slowness


def end_to_end(reps: dict, setup_s: float) -> tuple[dict, dict, int]:
    """Host-scaled metrics, the unscaled ones, and the latency sample count.

    Throughputs are multiplied, and the median latency divided, by the
    host slowness near each repetition up to CALIB_SPAN_S long (see
    CALIB_REFERENCE_S).  video_ms_p90 is not scaled: the tail follows
    short spikes, and its spread over seeds grew when scaled.  setup_s
    and peak_rss_mb are not scaled either.
    """
    slowness = slowness_near(reps)

    def median(key, scale=None):
        values = pooled(reps, key, scale)
        return statistics.median(values) if values else 0.0

    def latency(q, scale=None):
        values = pooled(reps, "video_ms", scale)
        return percentile(values, q) if values else 0.0

    def faster(record):
        return 1.0 / slowness(record)

    scaled = {
        "setup_s": (setup_s, "s"),
        "train_frames_per_s": (median("train_frames_per_s", faster), "frames/s"),
        "val_metric": (median("val_metric"), "1"),
        "infer_frames_per_s": (median("infer_frames_per_s", faster), "frames/s"),
        "video_ms_p50": (latency(50, slowness), "ms"),
        "video_ms_p90": (latency(90), "ms"),
        "synth_frames_per_s": (median("synth_frames_per_s", faster), "frames/s"),
        "write_frames_per_s": (median("write_frames_per_s", faster), "frames/s"),
        "read_frames_per_s": (median("read_frames_per_s", faster), "frames/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = {k: (median(k), "frames/s") for k in
           ("infer_frames_per_s", "synth_frames_per_s", "write_frames_per_s", "read_frames_per_s")}
    raw["video_ms_p50"] = (latency(50), "ms")
    raw["host_slowness"] = (median("calib_s") / CALIB_REFERENCE_S, "1")
    return scaled, raw, len(pooled(reps, "video_ms"))


def layer_names() -> list[str]:
    names = [f"{m}.{f}" for m, fns in TRACED.items() for f in fns if (m, f) != ("cli", "main")]
    return names + ["cli.main.eval", "cli.main.predict"]


def per_layer(reps: dict, tracer: Tracer, tally: Tally, clip_norm: float) -> dict:
    """Per-repetition totals of each traced function, summed over the stages."""
    out = {f"{n}.{k}": [0.0, "count" if k == "calls" else "s"]
           for n in layer_names() for k in ("s", "self_s", "calls")}
    traced_wall = plain_wall = validation_s = 0.0
    norms, store_bytes = [], 0
    for stage, records in reps.items():
        traced = [r for r in records if r["traced"]]
        plain = [r for r in records if not r["traced"]]
        if not traced or not plain:
            continue
        totals = [span_totals(r["spans"]) for r in traced]
        calls = [{name: row["calls"] for name, row in t.items()} for t in totals]
        tally.check(all(c == calls[0] for c in calls),
                    f"{stage}: call counts differ between traced repetitions")
        if stage == "train":
            vals = {v for r in records for v in r["samples"]["val_metric"]}
            tally.check(len(vals) == 1, f"val_metric differs traced vs untraced: {vals}")
        for name in set().union(*totals):
            for key in ("s", "self_s", "calls"):
                slot = out.setdefault(f"{name}.{key}", [0.0, "count" if key == "calls" else "s"])
                slot[0] += sum(t.get(name, {}).get(key, 0) for t in totals) / len(totals)
        traced_wall += statistics.median(r["wall"] for r in traced)
        plain_wall += statistics.median(r["wall"] for r in plain)
        first = traced[0]
        if stage == "train":
            adam_ends = sorted(s[2] for s in first["spans"] if s[0] == "training.adam_step")
            for epoch_end in first["extra"]["epoch_ends"]:
                before = [e for e in adam_ends if e < epoch_end]
                validation_s += epoch_end - before[-1] if before else 0.0
            norms = [float(n) for n in first["results"].get("training.clip_gradients", [])]
        if stage == "io":
            store_bytes = first["extra"]["bytes"]
    out["data.store_corpus.bytes"] = [store_bytes, "bytes"]
    out["training.validation_s"] = [validation_s, "s"]
    out["training.clip_rate"] = [sum(n > clip_norm for n in norms) / len(norms) if norms else 0.0,
                                 "1"]
    out["training.grad_norm_p50"] = [statistics.median(norms) if norms else 0.0, "1"]
    out["trace.overhead"] = [traced_wall / plain_wall - 1.0 if plain_wall else 0.0, "1"]
    out["trace.absent"] = [len(tracer.absent), "count"]
    return {k: tuple(v) for k, v in out.items()}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    workload = WORKLOADS[ns.workload]

    audet = import_audet()
    import_s = clock() - PROCESS_START

    work = ROOT / ".perfbench_work" / f"{ns.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    tracer = Tracer() if ns.trace else None
    try:
        run = Run(workload, ns.seed, work, tally)
        setups = []
        for _ in range(SETUP_REPS):
            t = clock()
            tally.run("setup", run.setup)
            setups.append(clock() - t)
        setup_s = import_s + statistics.median(setups)
        reps = run_stages(run, workload.shares, ns.seconds, tracer)
        if ns.trace:
            clip = audet.training.TrainConfig().grad_clip_global_norm
            metrics = per_layer(reps, tracer, tally, clip)
            raw, samples = {}, 0
        else:
            metrics, raw, samples = end_to_end(reps, setup_s)
            tally.check(reportable(samples, 90),
                        f"video_ms_p90 from {samples} samples has < 10 beyond it")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    print("env " + json.dumps(environment(ns.seed, ns.workload), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for name in tracer.absent if tracer else ():
        print(f"metric {name} absent")
    for name, (value, unit) in raw.items():
        print(f"unscaled {name} = {value:.6g} {unit}")
    if ns.trace:
        print(f"val_metric = {run.val_metric!r} (traced and untraced repetitions agree)")
    else:
        print(f"video latency samples = {samples} (p90 has {beyond(samples, 90)} beyond it)")
    for stage, records in reps.items():
        print(f"stage {stage}: {len(records)} repetitions, {sum(r['wall'] for r in records):.2f} s")
    print(f"error_rate = {tally.error_rate:.6g} ({tally.failed} of {tally.attempted})")
    for failure in tally.failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
