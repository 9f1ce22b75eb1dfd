"""Spans around calls into audet's public functions, wrapped at run time.

Nothing in ``src/`` is edited: :func:`Tracer.install` replaces each named
function in every loaded ``audet`` module that holds a reference to it
(``from .model import model_forward`` makes a second binding in the
importing module) and :func:`Tracer.uninstall` puts the originals back.
A name that no longer exists is reported as absent instead of failing,
so a refactor that renames or batches engine functions still runs.

Spans are kept in memory as ``[name, start, end, parent]`` and reduced
once the run ends; a span's self time is its duration minus the part of
it that its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# Layer functions whose calls the traced run times, by module.
TRACED = {
    "tensor": ("backward", "conv2d", "gru_cell"),
    "model": ("static_forward", "dynamic_forward", "fuse", "classify_aus", "model_forward",
              "save_checkpoint", "load_checkpoint"),
    "training": ("frame_loss", "clip_gradients", "adam_step"),
    "evaluation": ("predict_video", "smooth", "challenge_metric", "write_probability_csv",
                   "write_binary_csv"),
    "data": ("generate_synthetic", "render_face", "sobel_edge", "store_corpus", "load_corpus",
             "landmark_diffs"),
    "cli": ("main",),
}

# Functions whose return values the workloads read after a traced run.
KEEP_RESULTS = {"training.clip_gradients"}


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0.0
    reach = start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def span_totals(spans) -> dict:
    """Per span name: calls, inclusive seconds and self seconds."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for idx, (name, start, end, _) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += (end - start) - covered(start, end, children.get(idx, ()))
    return dict(out)


def _cli_span_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return "cli.main." + (argv[0] if argv else "none")


class Tracer:
    """Records one span per call of each installed function."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.results: dict[str, list] = defaultdict(list)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[dict, str, object]] = []

    def reset(self):
        self.spans = []
        self.results = defaultdict(list)

    def wrap(self, name, fn):
        keep = name in KEEP_RESULTS
        naming = _cli_span_name if name == "cli.main" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([naming(args, kwargs) if naming else name, 0.0, 0.0,
                               self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                span = self.spans[idx]
                span[1], span[2] = start, end
            if keep:
                self.results[name].append(result)
            return result

        return traced

    def install(self):
        """Wrap every function in TRACED that exists; record the rest as absent."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "audet" or n.startswith("audet."))]
        self.absent = []
        for mod_name, fns in TRACED.items():
            home = sys.modules.get(f"audet.{mod_name}")
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                original = getattr(home, fn_name, None) if home else None
                if not callable(original):
                    self.absent.append(name)
                    continue
                wrapped = self.wrap(name, original)
                for mod in modules:
                    ns = vars(mod)
                    for attr, value in list(ns.items()):
                        if value is original:
                            self._patches.append((ns, attr, original))
                            ns[attr] = wrapped

    def uninstall(self):
        for ns, attr, original in reversed(self._patches):
            ns[attr] = original
        self._patches = []
