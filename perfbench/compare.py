#!/usr/bin/env python3
"""Compare two sets of saved benchmark outputs, workload by workload.

    python3 perfbench/compare.py --a parent/*.out --b change/*.out

Each file is the stdout of one ``run.py`` run.  For every workload and
metric this prints each side's median, quartiles and quartile spread
(Q3 - Q1 over the median), and the change in the median.  Results are
flagged NOT COMPARABLE when the environment records (numpy, BLAS build
and threads, nproc, CPU, Python) differ between the sides, or when the
sides ran different seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from benchlib import ENV_KEYS, quartile_spread  # noqa: E402


def load(paths):
    """workload -> {"env": [records], "metrics": {name: [values]}, "unit": {name: unit}}"""
    out = defaultdict(lambda: {"env": [], "metrics": defaultdict(list), "unit": {}})
    for path in paths:
        lines = Path(path).read_text().splitlines()
        env = next(json.loads(x[4:]) for x in lines if x.startswith("env "))
        result = json.loads(lines[-1])
        side = out[env["workload"]]
        side["env"].append(env)
        for name, m in result["metrics"].items():
            side["metrics"][name].append(m["value"])
            side["unit"][name] = m["unit"]
    return out


def differences(envs_a, envs_b) -> list[str]:
    notes = []
    for key in ENV_KEYS:
        a = {str(e.get(key)) for e in envs_a}
        b = {str(e.get(key)) for e in envs_b}
        if a != b:
            notes.append(f"{key}: {sorted(a)} vs {sorted(b)}")
    seeds_a = sorted(e["seed"] for e in envs_a)
    seeds_b = sorted(e["seed"] for e in envs_b)
    if seeds_a != seeds_b:
        notes.append(f"seeds: {seeds_a} vs {seeds_b}")
    return notes


def summary(values) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g}"
    q1, med, q3 = statistics.quantiles(values, n=4)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] spread {quartile_spread(values):.3f} n={len(values)}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--a", nargs="+", required=True, help="outputs of the base side")
    ap.add_argument("--b", nargs="+", required=True, help="outputs of the changed side")
    ns = ap.parse_args(argv)
    a, b = load(ns.a), load(ns.b)
    comparable = True
    for workload in sorted(set(a) | set(b)):
        print(f"== {workload}")
        if workload not in a or workload not in b:
            print("   only on one side")
            comparable = False
            continue
        notes = differences(a[workload]["env"], b[workload]["env"])
        for note in notes:
            print(f"   NOT COMPARABLE {note}")
        comparable &= not notes
        for name in sorted(a[workload]["metrics"]):
            va, vb = a[workload]["metrics"][name], b[workload]["metrics"].get(name)
            if not vb:
                print(f"   {name}: missing on side b")
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            change = f"{(mb - ma) / ma:+.1%}" if ma else "n/a"
            print(f"   {name} ({a[workload]['unit'][name]}): {summary(va)} -> {summary(vb)} "
                  f"({change})")
    return 0 if comparable else 1


if __name__ == "__main__":
    sys.exit(main())
