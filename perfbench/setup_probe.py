"""Set-up time of the in-process workloads.

Set-up is what a user pays before the first job: package import, input
generation and a warm-up, timed from the first line of the script (so
interpreter start-up, the same in every process, is left out).  Each run
sets up :data:`REPEATS` times: once in the benchmark process itself and
the rest in fresh interpreters running this file, which prints its phase
times, one before each chunk of the jobs so the set-ups are spread over
the run.  The median is reported.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

_BEGAN = time.perf_counter()

from common import require_source  # noqa: E402

REPEATS = 4
#: Probe samples taken before and after each set-up.
PROBES = 3

#: Small loops scheduled once before timing, so lazy set-up is done.
WARMUP_LOOPS = 12
WARMUP_SEED = 7


def warm_up() -> None:
    import repro.experiments.stats as stats
    from repro.machine.configs import perfect_club_machine
    from repro.workloads.perfectclub import perfect_club_suite

    machine = perfect_club_machine()
    for loop in perfect_club_suite(n_loops=WARMUP_LOOPS, seed=WARMUP_SEED):
        analysis = stats.compute_mii(loop.graph, machine)
        for name in stats.registry.DEFAULT_BATCH_SCHEDULERS:
            stats.max_live(
                stats.make_scheduler(name).schedule(
                    loop.graph, machine, analysis
                )
            )


def set_up(workload: str, seed: int, seconds: float, began: float):
    """Import, generate the inputs and warm up; returns (inputs, phases)
    with phase times counted from *began*."""
    import inputs
    import repro.experiments.stats  # noqa: F401  (the package import)

    imported = time.perf_counter()
    graphs = inputs.IN_PROCESS[workload](seed, seconds)
    generated = time.perf_counter()
    warm_up()
    warmed = time.perf_counter()
    return graphs, {
        "total_s": warmed - began,
        "import_s": imported - began,
        "inputs_s": generated - imported,
        "warm_s": warmed - generated,
    }


def measure(workload: str, seed: int, seconds: float, clock, count: int):
    """Run *count* set-ups in fresh interpreters, probing the box's speed
    around each one on *clock*."""
    runs = []
    for _ in range(count):
        clock.sample(PROBES)
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, __file__, workload, str(seed), str(seconds)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        end = time.perf_counter()
        clock.sample(PROBES)
        phases = json.loads(done.stdout.strip().splitlines()[-1])
        phases["ref_s"] = clock.rescale(phases["total_s"], start, end)
        runs.append(phases)
    return runs


def layer_metrics(runs: list[dict]) -> dict[str, tuple[float, str]]:
    def median(key):
        return statistics.median(run.get(key, 0.0) for run in runs)

    return {
        "setup.import_s": (median("import_s"), "s"),
        "setup.inputs_s": (median("inputs_s"), "s"),
        "setup.server_ready_s": (median("server_ready_s"), "s"),
    }


def main(argv: list[str]) -> None:
    workload, seed, seconds = argv[0], int(argv[1]), float(argv[2])
    require_source()
    _, phases = set_up(workload, seed, seconds, _BEGAN)
    print(json.dumps(phases))


if __name__ == "__main__":
    main(sys.argv[1:])
