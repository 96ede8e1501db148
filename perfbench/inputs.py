"""Input generation for every workload, from the workload seed alone.

Every workload sends the same work on every seed; the seed draws only
its order.  The in-process workloads run a pinned set of loops (the
Perfect-Club population at its paper seed; the rec-large pool from
``random.Random(19951128)``) in an order drawn from the seed; the
default seed keeps the generators' order.  The served stream is a
pinned multiset of requests (see :func:`served_stream`) whose order
within each phase the seed draws.

Fixing the work is what makes run-to-run spread measure the program and
the box.  Drawing a fresh population per seed moved pc-study throughput
by about 15% and rec-large by about 25% between seeds; drawing a fresh
legal program order of every loop per seed still doubled the spread of
pc-study's time metrics (``jobs_per_s`` 0.125 across five seeds against
0.047 over five runs of one seed) and made II and MaxLive differ
between seeds.  With the work fixed, the quality sums and every count
repeat exactly on every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from common import DEFAULT_SEED, scaled

#: Loops in the paper's Perfect-Club population.
PC_LOOPS = 1258
#: Large recurrence loops per rec-large run (about 0.55 s each).
REC_LOOPS = 48
#: Size range of rec-large loops, the planned ``large`` QA profile.
REC_SIZES = (100, 256)

#: Open-loop request rate, a quarter or less of the service's drain rate
#: (75/s let a slow spell of the box build a queue: p50 rose tenfold).
SERVED_RATE = 50.0
#: Open-loop requests at the nominal run length (15 s at SERVED_RATE).
SERVED_OPEN = 750
#: Share of the stream that repeats an earlier request verbatim: the
#: store hit ratio (about 0.44) a prototype of this workload measured.
#: Nothing else in the repository fixes it, so it is an assumption.
SERVED_REPEAT = 0.44
#: Largest Perfect-Club loop sent as a graph request, which keeps a
#: request's compute near 2.5 ms so the service layers dominate.
SERVED_GRAPH_OPS = 40

def _ordered(items: list, seed: int) -> list:
    """*items* in an order drawn from *seed* (as given on the default)."""
    items = list(items)
    if seed != DEFAULT_SEED:
        random.Random(seed).shuffle(items)
    return items


def pc_study_loops(seed: int, seconds: float) -> list:
    """The Perfect-Club population (pinned to the paper's seed)."""
    from repro.workloads.perfectclub import DEFAULT_SEED as PC_SEED
    from repro.workloads.perfectclub import perfect_club_suite

    loops = perfect_club_suite(seed=PC_SEED)
    graphs = _ordered([loop.graph for loop in loops], seed)
    return graphs[: scaled(PC_LOOPS, seconds)]


def rec_large_loops(seed: int, seconds: float) -> list:
    """Large loops that all carry 1-3 recurrences (pinned)."""
    from repro.workloads.synthetic import GeneratorProfile, random_ddg

    rng = random.Random(DEFAULT_SEED)
    profile = GeneratorProfile(recurrence_probability=1.0)
    graphs = []
    for index in range(REC_LOOPS):
        size = rng.randint(*REC_SIZES)
        graphs.append(
            random_ddg(rng, size, name=f"rec{index:03d}", profile=profile)
        )
    return _ordered(graphs, seed)[: scaled(REC_LOOPS, seconds)]


@dataclass
class Request:
    """One served request and what the benchmark needs to check it."""

    wire: dict
    #: Identity of the request: equal keys are verbatim repeats.
    key: tuple
    graph: object
    machine: str
    scheduler: str


@dataclass
class ServedStream:
    open_loop: list[Request]
    burst: list[Request]
    rate: float


def _kernel_cells():
    """(kernel, machine, profile, graph) for every runnable source cell.

    Follows the conformance plan: each canonical machine gets its own
    lowering profile, and a cell whose compiled loop needs a unit class
    the machine lacks is left out (the service would reject it as an
    invalid request, not fail on it).
    """
    from repro.frontend.kernels import kernel_names, kernel_source
    from repro.frontend.pipeline import compile_source, profile_by_name
    from repro.machine.configs import canonical_machines
    from repro.qa.conformance import MACHINE_PROFILES

    cells = []
    for machine_name, machine in canonical_machines().items():
        profile = MACHINE_PROFILES[machine_name]
        classes = {unit.name for unit in machine.unit_classes()}
        for kernel in kernel_names():
            graph = compile_source(
                kernel_source(kernel),
                name=kernel,
                profile=profile_by_name(profile),
            ).graph
            if not machine.is_generic and any(
                op.opclass not in classes for op in graph.operations()
            ):
                continue
            cells.append((kernel, machine_name, profile, graph))
    return cells


def served_stream(seed: int, seconds: float) -> ServedStream:
    """Every distinct request once plus pinned verbatim repeats, in an
    order drawn from the seed.

    The distinct requests are fixed by the repository, not chosen here:

    * source text: every runnable conformance cell (32 kernels x 3
      canonical machines) under each scheduler of
      ``DEFAULT_BATCH_SCHEDULERS`` (``hrms``, ``topdown``), 192 requests;
    * graphs: every loop of the paper's Perfect-Club population with at
      most :data:`SERVED_GRAPH_OPS` operations (1048 of 1258), naming no
      scheduler, so the service uses its default (``hrms``).

    That makes 15% of the distinct requests source text and 92% of them
    ``hrms``.  Repeats, drawn from the distinct requests with a pinned
    generator, make up :data:`SERVED_REPEAT` of the stream.  A pinned
    shuffle splits the stream into the open loop (its first
    :data:`SERVED_OPEN` requests) and the burst, so each phase computes
    the same schedules on every seed; the seed draws the order within
    each phase, so a seed changes which requests queue behind which.
    """
    from repro.frontend.kernels import kernel_source
    from repro.graph.serialization import graph_to_dict
    from repro.schedulers.registry import DEFAULT_BATCH_SCHEDULERS
    from repro.service.executor import DEFAULT_SCHEDULER
    from repro.workloads.perfectclub import DEFAULT_SEED as PC_SEED
    from repro.workloads.perfectclub import perfect_club_suite

    distinct: list[Request] = []
    for kernel, machine, profile, graph in _kernel_cells():
        for scheduler in DEFAULT_BATCH_SCHEDULERS:
            wire = {
                "kind": "schedule",
                "source": kernel_source(kernel),
                "name": kernel,
                "profile": profile,
                "machine": machine,
                "scheduler": scheduler,
            }
            key = ("source", kernel, machine, scheduler)
            distinct.append(Request(wire, key, graph, machine, scheduler))
    machine = "perfect-club"
    for loop in perfect_club_suite(seed=PC_SEED):
        if len(loop.graph) > SERVED_GRAPH_OPS:
            continue
        wire = {
            "kind": "schedule",
            "graph": graph_to_dict(loop.graph),
            "machine": machine,
        }
        key = ("graph", loop.graph.name, machine, DEFAULT_SCHEDULER)
        distinct.append(
            Request(wire, key, loop.graph, machine, DEFAULT_SCHEDULER)
        )

    pinned = random.Random(DEFAULT_SEED)
    repeats = round(len(distinct) * SERVED_REPEAT / (1 - SERVED_REPEAT))
    stream = distinct + [
        distinct[pinned.randrange(len(distinct))] for _ in range(repeats)
    ]
    pinned.shuffle(stream)
    open_loop, burst = stream[:SERVED_OPEN], stream[SERVED_OPEN:]
    rng = random.Random(seed)
    rng.shuffle(open_loop)
    rng.shuffle(burst)
    return ServedStream(
        open_loop[: scaled(len(open_loop), seconds)],
        burst[: scaled(len(burst), seconds)],
        SERVED_RATE,
    )

#: Input loaders of the in-process workloads.
IN_PROCESS = {
    "pc-study": pc_study_loops,
    "rec-large": rec_large_loops,
}
