"""The ``served`` workload: an ``hrms-serve`` process under a seeded stream.

Phase 1 is an open loop: one client thread sends each request when it
is due, at a fixed rate well below the drain rate, in segments with an
idle gap between them, and each request is timed from its due time to
the ``finished_at`` of its job record, so neither a late send nor the
poll interval hides waiting.  Phase 2 is a burst: one ``POST /v1/batch``
whose drain rate is read from the job records.  Every ``done`` job's
artifact is then fetched and verified, and its II and MaxLive must equal
an in-process schedule of the same request.
"""

from __future__ import annotations

import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs
from common import (
    REFERENCE_SERVICE_PROBE_MS,
    WORK,
    ProbeClock,
    metric,
    percentile,
    pid_peak_rss_mb,
    print_raw,
    service_probe_ms,
)

#: Server starts per run; set-up time is their median.
STARTS = 5
#: Open-loop jobs whose server-side spans are read (the service keeps
#: the most recent 256 traces).
TRACE_SAMPLE = 200
#: Percentile of the open-loop latencies reported as the tail.  Not p99:
#: about 1% of the requests queue behind a 50-100 ms server stall, and
#: how many stalls a run meets moved p99 by 40% between runs.
TAIL = 90
#: Probe samples taken while the server is idle: before and after each
#: server start, between open-loop segments and after the burst.  The
#: probe never runs while the server works, so the server's own CPU use
#: cannot slow it.
PROBES = 4
#: Open-loop requests per segment (3 s at the nominal rate).  After each
#: segment the client waits for its last job and probes the idle box, so
#: the probes sample the whole run.
SEGMENT = 150


class Server:
    """One launcher process serving on an ephemeral port."""

    def __init__(self, store: Path, trace_file: Path | None = None):
        shutil.rmtree(store, ignore_errors=True)
        self.store = store
        command = [sys.executable, str(Path(__file__).with_name("launcher.py")),
                   str(store)]
        if trace_file is not None:
            command.append(str(trace_file))
        began = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            self.url = self._read_url()
            from repro.service.client import ServiceClient

            self.client = ServiceClient(self.url)
            while not self.client.health():
                if self.process.poll() is not None:
                    raise RuntimeError("hrms-serve exited during start-up")
                time.sleep(0.002)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - began

    def _read_url(self) -> str:
        for line in self.process.stdout:
            if "listening on " in line:
                return line.split("listening on ", 1)[1].split()[0]
        raise RuntimeError("hrms-serve exited before listening")

    def stop(self, graceful: bool = True) -> None:
        """Stop the server and wait for it; a server that only measured
        set-up time is killed, which skips its ordered shutdown."""
        if self.process.poll() is None:
            self.process.send_signal(
                signal.SIGTERM if graceful else signal.SIGKILL
            )
        try:
            self.process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
        shutil.rmtree(self.store, ignore_errors=True)


@dataclass
class Drive:
    """What one pass of the stream through a server produced."""

    open_records: list[dict] = field(default_factory=list)
    burst_records: list[dict] = field(default_factory=list)
    latencies_ms: list[float] = field(default_factory=list)
    late_ms: list[float] = field(default_factory=list)
    drain_per_s: float = 0.0
    burst_wall_s: float = 0.0
    backlog_grew: bool = False
    spans: list[list[dict]] = field(default_factory=list)


def _settle(client, ids: list[str]) -> list[dict]:
    """Final job records of *ids*, waiting for the last one first."""
    from repro.service.jobs import JobStatus

    if ids:
        client.wait(ids[-1], timeout=120, poll=0.02)
    records = []
    for job_id in ids:
        record = client.job(job_id)
        if record["status"] not in JobStatus.SETTLED:
            record = client.wait(job_id, timeout=120, poll=0.02)
        records.append(record)
    return records


def _backlog_grew(records: list[dict]) -> bool:
    """True when jobs pile up faster than they drain in the open loop.

    Compares the outstanding-job count seen at each submission in the
    last quarter of the phase with the first quarter."""
    submitted = [r["submitted_at"] for r in records]
    finished = sorted(r["finished_at"] or float("inf") for r in records)
    import bisect

    outstanding = [
        index + 1 - bisect.bisect_right(finished, at)
        for index, at in enumerate(submitted)
    ]
    quarter = max(1, len(outstanding) // 4)
    first = statistics.mean(outstanding[:quarter])
    last = statistics.mean(outstanding[-quarter:])
    return last > 2 * first + 4


def drive(server: Server, stream, clock: ProbeClock, trace: bool) -> Drive:
    """Send the stream through *server*, probing only while it is idle."""
    from repro.service.jobs import JobStatus

    client = server.client
    out = Drive()
    # Job records carry wall-clock stamps; the client uses perf_counter.
    offset = time.time() - time.perf_counter()

    # Phase 1: open loop at a fixed rate, in segments with idle gaps.
    ids, due_at = [], []
    spacing = 1.0 / stream.rate
    for first in range(0, len(stream.open_loop), SEGMENT):
        clock.sample(PROBES)
        start = time.perf_counter() + 0.02
        segment = stream.open_loop[first: first + SEGMENT]
        for index, request in enumerate(segment):
            due = start + index * spacing
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            out.late_ms.append(max(0.0, time.perf_counter() - due) * 1e3)
            ids.append(client.submit_record(request.wire))
            due_at.append(due)
        client.wait(ids[-1]["id"], timeout=120, poll=0.005)
    clock.sample(PROBES)
    out.open_records = _settle(client, [record["id"] for record in ids])
    out.backlog_grew = _backlog_grew(out.open_records)
    for record, due in zip(out.open_records, due_at):
        if record["finished_at"] is not None:
            end = record["finished_at"] - offset
            out.latencies_ms.append((end - due) * 1e3)
    if trace:
        for record in ids[-TRACE_SAMPLE:]:
            out.spans.append(client.trace(record["trace"]))

    # Phase 2: one batch, drained as fast as the service can.
    began = time.perf_counter()
    burst_ids = client.submit_batch([request.wire for request in stream.burst])
    while client.job(burst_ids[-1])["status"] not in JobStatus.SETTLED:
        time.sleep(0.02)
    out.burst_records = _settle(client, burst_ids)
    clock.sample(PROBES)
    end = max(
        record["finished_at"] - offset
        for record in out.burst_records
        if record["finished_at"] is not None
    )
    out.burst_wall_s = end - began
    out.drain_per_s = len(burst_ids) / out.burst_wall_s
    return out


@dataclass
class Reference:
    ii: int
    maxlive: int
    seconds: float


def _graph_of(request):
    from repro.graph.serialization import graph_from_dict

    if "graph" in request.wire:
        return graph_from_dict(request.wire["graph"])
    return request.graph


def reference(request) -> Reference:
    """The same request computed in-process (compile, schedule, MaxLive)."""
    from repro.frontend.pipeline import compile_source, profile_by_name
    from repro.machine.configs import machine_from_config
    from repro.schedule.maxlive import max_live
    from repro.schedulers.registry import make_scheduler

    began = time.perf_counter()
    wire = request.wire
    if "source" in wire:
        graph = compile_source(
            wire["source"], name=wire["name"],
            profile=profile_by_name(wire["profile"]),
        ).graph
    else:
        graph = _graph_of(request)
    schedule = make_scheduler(request.scheduler).schedule(
        graph, machine_from_config(request.machine)
    )
    maxlive = max_live(schedule)
    return Reference(schedule.ii, maxlive, time.perf_counter() - began)


def check(server: Server, requests, records, refs: dict) -> tuple:
    """Fetch and verify every done job's artifact against the in-process
    reference of its request (computed once into *refs*).  Returns which
    jobs passed, the problems found and the quality sums."""
    from repro.errors import ReproError
    from repro.machine.configs import machine_from_config
    from repro.schedule.verify import verify_schedule
    from repro.service.executor import schedule_from_payload

    verified: dict[str, str | None] = {}
    problems: list[str] = []
    passed: list[bool] = []
    quality = {"ii": 0, "mii": 0, "maxlive": 0}
    for request, record in zip(requests, records):
        if record["status"] != "done":
            error = record.get("error") or {}
            problems.append(
                f"job {record['id']} {record['status']}: "
                f"{error.get('type')}: {error.get('message')}"
            )
            passed.append(False)
            continue
        result = record["result"]
        if request.key not in refs:
            refs[request.key] = reference(request)
        ref = refs[request.key]
        key = result["artifact"]
        if key not in verified:
            try:
                payload = server.client.artifact(key)["payload"]
                schedule = schedule_from_payload(
                    payload, _graph_of(request),
                    machine_from_config(request.machine),
                )
                verify_schedule(schedule)
                verified[key] = None
                if schedule.ii < payload["mii"]:
                    verified[key] = f"II {schedule.ii} < MII {payload['mii']}"
                elif (schedule.ii, payload["maxlive"]) != (ref.ii, ref.maxlive):
                    verified[key] = (
                        f"served II/MaxLive {schedule.ii}/{payload['maxlive']}"
                        f" != in-process {ref.ii}/{ref.maxlive}"
                    )
            except ReproError as exc:
                verified[key] = str(exc)
        problem = verified[key]
        if problem is None and (result["ii"], result["maxlive"]) != (
            ref.ii, ref.maxlive
        ):
            problem = "job result differs from its artifact"
        if problem is not None:
            problems.append(f"{request.key}: {problem}")
            passed.append(False)
            continue
        passed.append(True)
        quality["ii"] += result["ii"]
        quality["mii"] += result["mii"]
        quality["maxlive"] += result["maxlive"]
    return passed, problems, quality


def _span_ms(drive_out: Drive, name: str) -> list[float]:
    return [
        span["duration"] * 1e3
        for spans in drive_out.spans
        for span in spans
        if span["name"] == name and span["duration"] is not None
    ]


def hit_ratio(out: Drive) -> float:
    """Done jobs whose result came from the store, over done jobs."""
    records = out.open_records + out.burst_records
    done = [r for r in records if r["status"] == "done"]
    hits = sum(1 for r in done if r["result"].get("cached"))
    return hits / len(done) if done else 0.0


def service_metrics(out: Drive, stream, refs, submit_ms) -> dict:
    # Served executor time over in-process time, on sampled open-loop
    # jobs that computed their schedule (store hits are not compared).
    sampled = stream.open_loop[-len(out.spans):] if out.spans else []
    served_s = inproc_s = 0.0
    for request, spans in zip(sampled, out.spans):
        executor = [s for s in spans if s["name"] == "executor"]
        computed = any(s["name"] == "schedule.compute" for s in spans)
        if executor and computed and request.key in refs:
            served_s += executor[0]["duration"]
            inproc_s += refs[request.key].seconds
    return {
        "service.http_submit_ms_p50": (percentile(submit_ms, 50), "ms"),
        "service.queue_wait_ms_p50": (
            percentile(_span_ms(out, "queue.wait"), 50), "ms"),
        "service.executor_ms_p50": (
            percentile(_span_ms(out, "executor"), 50), "ms"),
        "service.compute_ms_p50": (
            percentile(_span_ms(out, "schedule.compute"), 50), "ms"),
        "service.store_get_ms_p50": (
            percentile(_span_ms(out, "store.get"), 50), "ms"),
        "service.store_put_ms_p50": (
            percentile(_span_ms(out, "store.put"), 50), "ms"),
        "service.store_hit_ratio": (hit_ratio(out), "ratio"),
        "service.served_over_inprocess": (
            served_s / inproc_s if inproc_s else 0.0, "ratio"),
    }


def run(seed: int, seconds: float, trace: bool):
    import tracer

    WORK.mkdir(parents=True, exist_ok=True)
    stream = inputs.served_stream(seed, seconds)
    requests = stream.open_loop + stream.burst
    clock = ProbeClock()
    served_clock = ProbeClock(
        probe=service_probe_ms, reference_ms=REFERENCE_SERVICE_PROBE_MS
    )

    starts, ref_starts = [], []
    for index in range(STARTS):
        clock.sample(PROBES)
        began = time.perf_counter()
        server = Server(WORK / f"served-store-{index}")
        ended = time.perf_counter()
        clock.sample(PROBES)
        starts.append(server.ready_s)
        ref_starts.append(clock.rescale(server.ready_s, began, ended))
        if index < STARTS - 1:
            server.stop(graceful=False)
    refs: dict[tuple, Reference] = {}
    try:
        out = drive(server, stream, served_clock, trace=False)
        rss = pid_peak_rss_mb(server.process.pid)
        passed, problems, quality = check(
            server, requests, out.open_records + out.burst_records, refs
        )
    finally:
        server.stop()

    traced_out = None
    if trace:
        trace_file = WORK / f"trace-served-{seed}.npz"
        traced_server = Server(WORK / "served-store-traced", trace_file)
        try:
            spans = tracer.install()
            try:
                traced_out = drive(
                    traced_server, stream, served_clock, trace=True
                )
            finally:
                spans.uninstall()
            # The traced pass is checked too; a problem in either pass
            # makes the run incorrect.
            traced_passed, traced_problems, _ = check(
                traced_server, requests,
                traced_out.open_records + traced_out.burst_records, refs,
            )
            passed = [a and b for a, b in zip(passed, traced_passed)]
            problems += traced_problems
        finally:
            traced_server.stop()

    attempted = len(requests)
    ok = sum(passed)
    repeat_share = 1 - len({request.key for request in requests}) / attempted
    for problem in problems[:20]:
        print(f"  CHECK FAILED {problem}", file=sys.stderr)
    final = traced_out or out
    print(
        f"served: {attempted} requests, {ok} verified, open loop "
        f"{len(stream.open_loop)} at {stream.rate:g}/s, burst "
        f"{len(stream.burst)} drained in {final.burst_wall_s:.2f} s"
        f"\n  verbatim repeats {repeat_share:.3f} of the stream, store hit "
        f"ratio {hit_ratio(final):.3f}"
        f"\n  bench.probe_ms={clock.median():.4f}"
    )
    if final.backlog_grew:
        print(
            "served: INVALID RUN - the open-loop backlog grew, so the "
            "offered rate was not below the drain rate on this box",
            file=sys.stderr,
        )
        raise SystemExit(3)

    if trace:
        summary = json.loads(trace_file.with_suffix(".json").read_text())
        per_layer = tracer.layer_metrics(summary)
        per_layer.update(
            service_metrics(
                traced_out, stream, refs,
                [d * 1e3 for d in spans.durations("service.submit")],
            )
        )
        per_layer.update(
            {
                "setup.import_s": (0.0, "s"),
                "setup.inputs_s": (0.0, "s"),
                "setup.server_ready_s": (statistics.median(starts), "s"),
                "bench.probe_ms": (clock.median(), "ms"),
                "bench.late_ms_p99": (percentile(traced_out.late_ms, 99), "ms"),
                "bench.trace_overhead": (
                    traced_out.burst_wall_s / out.burst_wall_s, "ratio"),
            }
        )
        metrics = {name: metric(v, u) for name, (v, u) in per_layer.items()}
        return not problems, attempted, attempted - ok, metrics

    print(
        f"  latency tail = p{TAIL:g} of {len(out.latencies_ms)} requests; "
        f"generator late p99 {percentile(out.late_ms, 99):.2f} ms; "
        f"served probe {served_clock.median():.2f} ms"
    )
    print_raw(
        {
            "setup_s": statistics.median(starts),
            "jobs_per_s": out.drain_per_s,
            "latency_ms_p50": percentile(out.latencies_ms, 50),
            "latency_ms_tail": percentile(out.latencies_ms, TAIL),
        }
    )
    # Serving times are rescaled by the median of all the run's served
    # probes, every one taken while the server was idle.
    speed = REFERENCE_SERVICE_PROBE_MS / served_clock.median()
    metrics = {
        "setup_s": metric(statistics.median(ref_starts), "s"),
        "jobs_per_s": metric(out.drain_per_s / speed, "1/s"),
        "latency_ms_p50": metric(
            percentile(out.latencies_ms, 50) * speed, "ms"),
        "latency_ms_tail": metric(
            percentile(out.latencies_ms, TAIL) * speed, "ms"),
        "ok_ratio": metric(ok / attempted, "ratio"),
        "ii_over_mii": metric(quality["ii"] / quality["mii"], "ratio"),
        "maxlive_sum": metric(quality["maxlive"], "count"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    return not problems, attempted, attempted - ok, metrics
