"""Arithmetic and bookkeeping shared by the benchmark's scripts."""

from __future__ import annotations

import ctypes
import math
import os
import platform
import statistics

MIN_BEYOND = 10  # samples a reported percentile must have above it


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with q% of samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, q: float) -> int:
    """Samples strictly above the nearest-rank q-th percentile of `count` samples."""
    return count - max(1, math.ceil(q / 100.0 * count))


def reportable(count: int, q: float) -> bool:
    """Whether q has at least MIN_BEYOND samples beyond it."""
    return beyond(count, q) >= MIN_BEYOND


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


class Tally:
    """Counts attempted operations and output checks, and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def run(self, what: str, fn):
        """Call fn(); an exception counts as a failed operation and returns None."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # one failed operation must not end the run
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            return None

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def error_rate(self) -> float:
        return self.failed / max(self.attempted, 1)


# ---------------------------------------------------------------------------
# environment record


def _openblas():
    """The OpenBLAS library numpy loaded, with its symbol prefix and suffix."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None, ""
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                if hasattr(lib, f"{prefix}_get_num_threads{suffix}"):
                    return lib, (prefix, suffix)
    return None, ""


def blas_threads_and_config() -> tuple[str, str]:
    lib, names = _openblas()
    if lib is None:
        return "unknown", "unknown"
    prefix, suffix = names
    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
    threads.restype = ctypes.c_int
    config = getattr(lib, f"{prefix}_get_config{suffix}", None)
    text = "unknown"
    if config is not None:
        config.restype = ctypes.c_char_p
        text = config().decode("ascii", "replace").strip()
    return str(threads()), text


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, workload: str) -> dict:
    """What must match for two results to be comparable (seed and workload aside)."""
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads, config = blas_threads_and_config()
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "workload": workload,
        "seed": seed,
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_config": config,
        "blas_threads": threads,
        "nproc": nproc,
        "cpu": _cpu_model(),
        "python": platform.python_version(),
    }


# keys whose difference makes two sides of a comparison not comparable
ENV_KEYS = ("numpy", "blas", "blas_config", "blas_threads", "nproc", "cpu", "python")
