#!/usr/bin/env python
"""cProfile harness for one scheduling cell.

Profiles ``scheduler.schedule(graph, machine)`` for a chosen kernel (or
a seeded synthetic loop), scheduler, and machine, and prints the top
functions by cumulative time — the quickest way to see where a search
actually spends its cycles (Floyd–Warshall solves vs placement vs
ordering) before and after an engine change.

Usage::

    PYTHONPATH=src python scripts/profile_schedule.py                  # defaults
    PYTHONPATH=src python scripts/profile_schedule.py --size 160 --scheduler frlc
    PYTHONPATH=src python scripts/profile_schedule.py --kernel daxpy --scheduler sms
    PYTHONPATH=src python scripts/profile_schedule.py --no-sweep      # fresh per-II solves
    PYTHONPATH=src python scripts/profile_schedule.py --sort tottime --top 30
    PYTHONPATH=src python scripts/profile_schedule.py --out profile.pstats

``--out`` saves the raw stats for ``snakeviz``/``pstats`` digging; the
printed report is always emitted, preceded by one per-phase line: the
cumulative seconds of ordering (the scheduler's ``prepare``), MinDist
(``SchedulingSession.mindist``), bounds (``StartBounds.place``) and the
MRT (``ModuloReservationTable.scan_place``), read from the same profile.
``--no-sweep`` disables the incremental II-sweep (every II a fresh
Floyd–Warshall), which is the interesting A/B when profiling the engine
itself.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import random
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.engine.session import SchedulingSession  # noqa: E402
from repro.engine.windows import StartBounds  # noqa: E402
from repro.machine.configs import machine_from_config  # noqa: E402
from repro.machine.mrt import ModuloReservationTable  # noqa: E402
from repro.mii.analysis import compute_mii  # noqa: E402
from repro.schedulers.registry import (  # noqa: E402
    available_schedulers,
    make_scheduler,
)
from repro.workloads.synthetic import random_ddg  # noqa: E402

#: Default synthetic cell: the same seeded 160-op loop the perf tiers
#: use (seed offset 1 — a deep, ~45-attempt II search).
DEFAULT_SIZE = 160
DEFAULT_SEED_OFFSET = 1


def phase_seconds(stats: pstats.Stats, scheduler) -> dict[str, float]:
    """Cumulative profiled seconds of each placement-search phase."""
    phases = {
        "ordering": type(scheduler).prepare,
        "mindist": SchedulingSession.mindist,
        "bounds": StartBounds.place,
        "mrt": ModuloReservationTable.scan_place,
    }
    seconds = {}
    for phase, function in phases.items():
        code = function.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        entry = stats.stats.get(key)
        seconds[phase] = entry[3] if entry is not None else 0.0
    return seconds


def resolve_graph(args: argparse.Namespace):
    if args.kernel is not None:
        from repro.frontend.kernels import kernel_names, kernel_source
        from repro.frontend.pipeline import compile_source, profile_by_name

        if args.kernel not in kernel_names():
            raise SystemExit(
                f"profile_schedule: unknown kernel {args.kernel!r}; "
                f"available: {', '.join(kernel_names())}"
            )
        loop = compile_source(
            kernel_source(args.kernel),
            name=args.kernel,
            profile=profile_by_name(args.profile),
        )
        return loop.graph
    return random_ddg(
        random.Random(args.size + args.seed_offset),
        args.size,
        name=f"profile{args.size}",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="profile_schedule",
        description=__doc__.splitlines()[1],
    )
    parser.add_argument(
        "--kernel", default=None,
        help="profile a bundled front-end kernel instead of a "
             "synthetic loop (e.g. daxpy)",
    )
    parser.add_argument(
        "--profile", default=None,
        help="lowering profile for --kernel (perfect_club | "
             "govindarajan)",
    )
    parser.add_argument(
        "--size", type=int, default=DEFAULT_SIZE,
        help="synthetic loop size in operations (default: %(default)s)",
    )
    parser.add_argument(
        "--seed-offset", type=int, default=DEFAULT_SEED_OFFSET,
        help="seed offset of the synthetic loop (default: %(default)s, "
             "a deep multi-attempt II search at 160 ops)",
    )
    parser.add_argument(
        "--scheduler", default="hrms", choices=available_schedulers(),
        help="scheduler to profile (default: %(default)s)",
    )
    parser.add_argument(
        "--machine", default="perfect-club",
        help="machine config name (default: %(default)s)",
    )
    parser.add_argument(
        "--no-sweep", action="store_true",
        help="disable the incremental II-sweep (every II a fresh "
             "Floyd–Warshall solve) — the A/B for engine profiling",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="schedule the cell N times inside the profile "
             "(default: %(default)s; raise it to drown out one-time "
             "costs)",
    )
    parser.add_argument(
        "--sort", default="cumulative",
        choices=("cumulative", "tottime", "calls"),
        help="pstats sort key (default: %(default)s)",
    )
    parser.add_argument(
        "--top", type=int, default=20,
        help="rows to print (default: %(default)s)",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="also dump raw stats to this file (snakeviz/pstats input)",
    )
    args = parser.parse_args(argv)

    graph = resolve_graph(args)
    machine = machine_from_config(args.machine)
    # The MII analysis is deliberately *outside* the profiled region:
    # it is II-independent setup work shared by every mode, and the
    # interesting deltas live in the per-II search.
    analysis = compute_mii(graph, machine)
    scheduler = make_scheduler(args.scheduler)

    def cell() -> None:
        for _ in range(args.repeat):
            session = SchedulingSession(
                graph, machine, analysis,
                incremental=not args.no_sweep,
            )
            scheduler.schedule(graph, machine, analysis, session=session)

    profiler = cProfile.Profile()
    profiler.enable()
    cell()
    profiler.disable()

    # One un-profiled run to report the search shape alongside the
    # numbers (cProfile inflates wall time; the shape does not change).
    session = SchedulingSession(
        graph, machine, analysis, incremental=not args.no_sweep
    )
    schedule = scheduler.schedule(graph, machine, analysis, session=session)
    print(
        f"profile_schedule: {graph.name} ({len(graph)} ops) x "
        f"{args.scheduler} on {args.machine}: II {schedule.ii} "
        f"(MII {analysis.mii}), {schedule.stats.attempts} attempts, "
        f"sweep {'off' if args.no_sweep else 'on'} "
        f"{session.sweep_stats()}"
    )
    stats = pstats.Stats(profiler)
    print(
        "profile_schedule: phases (cumulative s): "
        + ", ".join(
            f"{phase} {seconds:.3f}"
            for phase, seconds in phase_seconds(stats, scheduler).items()
        )
    )
    if args.out is not None:
        stats.dump_stats(args.out)
        print(f"profile_schedule: raw stats -> {args.out}")
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
