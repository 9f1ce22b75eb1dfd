#!/usr/bin/env python3
"""Checks of the benchmark's own arithmetic; exits 1 on the first failure.

    python3 perfbench/selftest.py

Covers the nearest-rank percentile and its sample count, self time from
nested spans, the tracer's handling of absent names, and that a failing
output check raises error_rate above 0.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from benchlib import Tally, beyond, percentile, quartile_spread, reportable  # noqa: E402
from tracer import Tracer, covered, span_totals  # noqa: E402


def check(cond, what):
    if not cond:
        print(f"FAIL {what}")
        sys.exit(1)
    print(f"ok   {what}")


def test_percentile():
    hundred = list(range(1, 101))
    check(percentile(hundred, 50) == 50, "p50 of 1..100 is 50")
    check(percentile(hundred, 90) == 90, "p90 of 1..100 is 90")
    check(percentile(reversed(hundred), 90) == 90, "percentile sorts its input")
    check(beyond(100, 90) == 10 and reportable(100, 90), "p90 of 100 samples has 10 beyond it")
    check(beyond(99, 90) == 9 and not reportable(99, 90), "p90 of 99 samples is not reportable")
    check(percentile([7.0], 90) == 7.0, "one sample is every percentile")
    check(abs(quartile_spread([1, 2, 3, 4, 5]) - 3.0 / 3.0) < 1e-12, "quartile spread of 1..5")


def test_self_time():
    check(covered(0, 10, [(1, 3), (2, 5), (8, 12)]) == 6, "covered merges overlap and clips")
    spans = [
        ["outer", 0.0, 10.0, -1],
        ["inner", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["inner", 5.0, 7.0, 0],
    ]
    totals = span_totals(spans)
    check(totals["outer"] == {"calls": 1, "s": 10.0, "self_s": 5.0}, "outer self = 10 - (3 + 2)")
    check(totals["inner"] == {"calls": 2, "s": 5.0, "self_s": 4.0}, "inner self = 5 - leaf 1")
    check(totals["leaf"]["self_s"] == 1.0, "leaf self time is its duration")


def test_tracer_spans():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    leaf = tracer.wrap("m.leaf", lambda: 1)
    outer = tracer.wrap("m.outer", lambda: leaf() + leaf())
    check(outer() == 2, "wrapping keeps results")
    totals = span_totals(tracer.spans)
    # ticks: outer 0, leaf 1-2, leaf 3-4, outer ends 5
    check(totals["m.outer"] == {"calls": 1, "s": 5.0, "self_s": 3.0}, "traced outer self time")
    check(totals["m.leaf"]["calls"] == 2, "traced leaf calls")


def test_absent_names():
    import tracer as tracer_mod

    saved = tracer_mod.TRACED
    tracer_mod.TRACED = {"nosuchmodule": ("f",)}
    try:
        t = Tracer()
        t.install()
        t.uninstall()
    finally:
        tracer_mod.TRACED = saved
    check(t.absent == ["nosuchmodule.f"], "a missing function is reported absent")


def test_error_rate():
    tally = Tally()
    tally.check(True, "passes")
    check(tally.error_rate == 0.0, "no failures, error_rate 0")
    tally.check(False, "forced failure")
    tally.run("raises", lambda: 1 / 0)
    check(tally.failed == 2 and tally.attempted == 3, "failed checks and exceptions counted")
    check(tally.error_rate > 0, "forced failing check raises error_rate above 0")


def test_forced_round_trip_failure():
    """A corpus that does not survive a round trip fails the real output check."""
    import tempfile

    sys.path.insert(0, str(HERE.parent / "src"))
    from audet import data

    from run import corpus_bytes

    config = data.SynthConfig(videos=1, frames_per_video=3, image_size=8, seed=3)
    a, b = data.generate_synthetic(config), data.generate_synthetic(config)
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        first = corpus_bytes(data, a, Path(tmp) / "a.auc")
        check(corpus_bytes(data, b, Path(tmp) / "b.auc") == first, "identical corpora match")
        b[0].frames[1].labels[2] ^= 1
        tally = Tally()
        tally.check(corpus_bytes(data, b, Path(tmp) / "b.auc") == first, "round trip")
    check(tally.error_rate > 0, "a flipped label bit raises error_rate above 0")


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
    print("selftest passed")
