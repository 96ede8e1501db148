"""Steadiness evidence: two interleaved sets of runs of every workload.

    python3 perfbench/run.py --steadiness 10 [--workload W] [--seconds S]

Runs seeds 1..N twice, alternating the two sets run by run, and prints
for every end-to-end metric each set's median and quartiles, each set's
spread (interquartile distance over the median, as the benchmark's
acceptance uses it) and whether the sets agree within the metric's
bound.  Each run's probe time is listed too, and for time metrics the
spread of the raw values, before rescaling to the reference speed, so a
slow phase of the box shows and the rescaling can be judged.
Exits non-zero when any metric's sets disagree.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

from common import ROOT

WORKLOADS = ("pc-study", "rec-large", "served")


def _spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _run(workload: str, seed: int, seconds: float):
    """One run: its result, probe median and raw time metrics."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} failed ({done.returncode}):\n"
            f"{done.stderr[-2000:]}"
        )
    probe = re.search(r"bench\.probe_ms=([\d.]+)", done.stdout)
    raw = re.search(r"^  raw (\{.*\})$", done.stdout, re.M)
    return (
        json.loads(lines[-1]), float(probe.group(1)), json.loads(raw.group(1))
    )


def main(count: int, seconds: float, only: str | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {entry["name"]: entry for entry in spec["end_to_end"]}
    seeds = list(range(1, count + 1))
    agree_all = True
    for workload in [only] if only else WORKLOADS:
        sets: dict[str, list] = {"A": [], "B": []}
        for seed in seeds:
            for name in ("A", "B"):
                result, probe, raw = _run(workload, seed, seconds)
                sets[name].append((result, raw))
                print(
                    f"{workload} seed {seed} set {name}: probe {probe:.2f} ms "
                    + " ".join(
                        f"{key}={entry['value']:.4g}"
                        for key, entry in result["metrics"].items()
                    ),
                    flush=True,
                )
        print(f"\n== {workload}: {count} seeds x 2 interleaved sets")
        print(
            f"{'metric':18s} {'set':3s} {'median':>11s} {'q1':>11s} "
            f"{'q3':>11s} {'spread':>7s} {'raw':>7s} {'bound':>6s}  verdict"
        )
        for name, entry in metrics.items():
            bound = entry["bound"]
            medians = {}
            for label, runs in sets.items():
                values = [run["metrics"][name]["value"] for run, _ in runs]
                q1, median, q3 = statistics.quantiles(values, n=4)
                medians[label] = median
                raw = "-"
                if name in runs[0][1]:
                    raw = f"{_spread([measured[name] for _, measured in runs]):.3f}"
                spread = _spread(values)
                steady = "steady" if spread <= bound / 3 else (
                    "within bound" if spread <= bound else "TOO WIDE")
                print(
                    f"{name:18s} {label:3s} {median:11.5g} {q1:11.5g} "
                    f"{q3:11.5g} {spread:7.3f} {raw:>7s} "
                    f"{bound:6.3f}  {steady}"
                )
            worse = (medians["B"] - medians["A"]) / medians["A"]
            if entry["better"] == "higher":
                worse = -worse
            agree = abs(worse) <= bound
            agree_all &= agree
            print(
                f"{'':18s} B vs A median {worse:+.3f} -> "
                f"{'agree' if agree else 'DISAGREE'}"
            )
    return 0 if agree_all else 1
