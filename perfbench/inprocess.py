"""The in-process workloads: ``pc-study`` and ``rec-large``.

A job is one loop and gets exactly the per-loop body of
``repro.experiments.stats.run_study``: one ``compute_mii``, then every
scheduler of ``DEFAULT_BATCH_SCHEDULERS`` on the Perfect-Club machine,
then ``max_live`` of each schedule.  Jobs run serially in this process.
Outputs are checked after the timed region.
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import dataclass

import setup_probe
from common import (
    WORK,
    ProbeClock,
    metric,
    own_peak_rss_mb,
    percentile,
    print_raw,
    tail_quantile,
)

#: Share of jobs re-run untraced to price the tracing overhead.
OVERHEAD_STRIDE = 8


def run_job(stats, machine, graph):
    """The per-loop body of ``run_study``; names are looked up on the
    ``stats`` module at call time so traced wrappers apply."""
    analysis = stats.compute_mii(graph, machine)
    schedules = []
    for name in stats.registry.DEFAULT_BATCH_SCHEDULERS:
        schedule = stats.make_scheduler(name).schedule(
            graph, machine, analysis
        )
        schedules.append((schedule, stats.max_live(schedule)))
    return analysis, schedules


@dataclass
class Outcome:
    graph: object
    result: tuple | None
    error: Exception | None
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


def run_jobs(graphs, machine, clock: ProbeClock) -> list[Outcome]:
    """Run every job, timing each; failures are kept, never skipped.

    The probe runs between jobs, at most every quarter second."""
    import repro.experiments.stats as stats

    outcomes = []
    for graph in graphs:
        clock.tick()
        start = time.perf_counter()
        try:
            result, error = run_job(stats, machine, graph), None
        except Exception as exc:  # every failure counts against the run
            result, error = None, exc
        outcomes.append(
            Outcome(graph, result, error, start, time.perf_counter())
        )
    clock.sample()
    return outcomes


def check(outcomes, report: bool = True) -> tuple[int, list[str], dict]:
    """Verify every schedule; returns (ok jobs, problems, quality sums).
    With *report*, failed jobs are counted by kind on standard output."""
    from repro.errors import ReproError
    from repro.graph.circuits import CircuitLimitExceeded
    from repro.schedule.verify import verify_schedule

    ok = 0
    problems: list[str] = []
    failures: dict[str, int] = {}
    quality = {"ii": 0, "mii": 0, "maxlive": 0}
    for outcome in outcomes:
        graph, result, error = outcome.graph, outcome.result, outcome.error
        if error is not None:
            kind = type(error).__name__
            failures[kind] = failures.get(kind, 0) + 1
            if not isinstance(error, (CircuitLimitExceeded, ReproError)):
                problems.append(f"{graph.name}: {kind}: {error}")
            continue
        analysis, schedules = result
        good = True
        for schedule, maxlive in schedules:
            try:
                verify_schedule(schedule)
            except ReproError as exc:
                problems.append(f"{graph.name}: {exc}")
                good = False
                continue
            if schedule.ii < analysis.mii:
                problems.append(
                    f"{graph.name}: II {schedule.ii} < MII {analysis.mii}"
                )
                good = False
        if good:
            ok += 1
            for schedule, maxlive in schedules:
                quality["ii"] += schedule.ii
                quality["mii"] += analysis.mii
                quality["maxlive"] += maxlive
    for kind, count in sorted(failures.items()) if report else ():
        print(f"  failed jobs: {count} x {kind}")
    return ok, problems, quality


def run(workload: str, seed: int, seconds: float, trace: bool, began: float):
    """One run; *began* is when the benchmark script started."""
    clock = ProbeClock()
    graphs, own = setup_probe.set_up(workload, seed, seconds, began)
    ready = time.perf_counter()
    clock.sample(setup_probe.PROBES)
    own["ref_s"] = clock.rescale(own["total_s"], began, ready)
    setups = [own]
    from repro.machine.configs import perfect_club_machine

    machine = perfect_club_machine()

    def run_with_setups(graphs):
        """Run the jobs in chunks with a fresh-interpreter set-up before
        each, so the set-ups sample the whole run, not one moment."""
        outcomes = []
        chunks = setup_probe.REPEATS - 1
        for index in range(chunks):
            setups.extend(
                setup_probe.measure(workload, seed, seconds, clock, 1)
            )
            chunk = graphs[
                index * len(graphs) // chunks:
                (index + 1) * len(graphs) // chunks
            ]
            outcomes += run_jobs(chunk, machine, clock)
        return outcomes

    problems: list[str] = []
    if not trace:
        outcomes = run_with_setups(graphs)
        rss = own_peak_rss_mb()
    else:
        import tracer

        plain = run_jobs(graphs[::OVERHEAD_STRIDE], machine, clock)
        problems += check(plain, report=False)[1]
        spans = tracer.install()
        try:
            outcomes = run_with_setups(graphs)
        finally:
            spans.uninstall()
        spans.save(WORK / f"trace-{workload}-{seed}.npz")

    ok, found, quality = check(outcomes)
    problems += found
    for problem in problems[:20]:
        print(f"  CHECK FAILED {problem}", file=sys.stderr)
    attempted = len(outcomes)
    print(
        f"{workload}: {attempted} jobs, {ok} verified"
        f"\n  bench.probe_ms={clock.median():.4f}"
    )

    if trace:
        traced = sum(o.seconds for o in outcomes[::OVERHEAD_STRIDE])
        untraced = sum(o.seconds for o in plain)
        per_layer = tracer.layer_metrics(spans.summary())
        per_layer.update(
            {name: (0.0, unit) for name, unit in tracer.SERVICE_UNITS.items()}
        )
        per_layer.update(setup_probe.layer_metrics(setups))
        per_layer.update(
            {
                "bench.probe_ms": (clock.median(), "ms"),
                "bench.late_ms_p99": (0.0, "ms"),
                "bench.trace_overhead": (traced / untraced, "ratio"),
            }
        )
        metrics = {name: metric(v, u) for name, (v, u) in per_layer.items()}
        return not problems, attempted, attempted - ok, metrics

    tail = tail_quantile(attempted)
    print(f"  latency tail = p{tail:.1f} of {attempted} jobs")
    raw_ms = [o.seconds * 1e3 for o in outcomes]
    ref_ms = [
        o.seconds * 1e3 * clock.speed(o.start, o.end) for o in outcomes
    ]
    print_raw(
        {
            "setup_s": statistics.median(s["total_s"] for s in setups),
            "jobs_per_s": ok * 1e3 / sum(raw_ms),
            "latency_ms_p50": percentile(raw_ms, 50),
            "latency_ms_tail": percentile(raw_ms, tail),
        }
    )
    metrics = {
        "setup_s": metric(statistics.median(s["ref_s"] for s in setups), "s"),
        "jobs_per_s": metric(ok * 1e3 / sum(ref_ms), "1/s"),
        "latency_ms_p50": metric(percentile(ref_ms, 50), "ms"),
        "latency_ms_tail": metric(percentile(ref_ms, tail), "ms"),
        "ok_ratio": metric(ok / attempted, "ratio"),
        "ii_over_mii": metric(
            quality["ii"] / quality["mii"] if quality["mii"] else 0.0,
            "ratio",
        ),
        "maxlive_sum": metric(quality["maxlive"], "count"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    return not problems, attempted, attempted - ok, metrics
