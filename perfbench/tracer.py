"""Benchmark-owned tracing: wrappers around each layer's entry points.

:func:`install` patches every traced name where its caller looks it up
and returns a :class:`Tracer`.  Each wrapped call records one span
(name, start, end, parent) in compact in-memory arrays; counters are
taken at the same boundaries.  Nothing is written until :meth:`save`.
A span's self time is its duration minus the time its child spans
cover, so the layers' self times partition the traced work.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from array import array
from pathlib import Path

#: (layer, qualified owner, attribute, other modules that bound the name)
#: Free functions are patched in every module that imported them by
#: name; methods are patched on their class.
TRACED = [
    ("machine.scan", "repro.machine.mrt:ModuloReservationTable",
     "scan_place", ()),
    ("engine.mindist", "repro.engine.session:SchedulingSession",
     "mindist", ()),
    ("engine.bounds", "repro.engine.windows:StartBounds", "place", ()),
    ("schedulers.search", "repro.schedulers.base:ModuloScheduler",
     "schedule", ()),
    ("schedulers.bidir", "repro.schedulers.base", "bidirectional_attempt",
     ("repro.core.scheduler", "repro.schedulers.sms")),
    ("schedulers.neighbor", "repro.schedulers.base",
     "neighbor_directed_attempt",
     ("repro.core.scheduler", "repro.schedulers.sms")),
    ("schedulers.seq_fallback", "repro.schedulers.base",
     "sequential_fallback_schedule", ()),
    ("mii.compute", "repro.mii.analysis", "compute_mii",
     ("repro.experiments.stats",)),
    ("mii.circuits", "repro.mii.analysis", "elementary_circuits", ()),
    ("core.order", "repro.core.scheduler:HRMSScheduler", "prepare", ()),
    ("schedule.maxlive", "repro.schedule.maxlive", "max_live",
     ("repro.experiments.stats", "repro.service.executor")),
    ("frontend.compile", "repro.frontend.pipeline", "compile_source", ()),
    ("service.submit", "repro.service.client:ServiceClient",
     "submit_record", ()),
]

#: Span names grouped into the layers the benchmark reports.
LAYERS = {
    "machine": ("machine.scan",),
    "engine": ("engine.mindist", "engine.bounds"),
    "schedulers": (
        "schedulers.search", "schedulers.bidir", "schedulers.neighbor",
        "schedulers.seq_fallback",
    ),
    "mii": ("mii.compute", "mii.circuits"),
    "core": ("core.order",),
    "schedule": ("schedule.maxlive",),
    "frontend": ("frontend.compile",),
}


#: Per-layer metrics of the service path; in-process runs report them as 0.
SERVICE_UNITS = {
    "service.http_submit_ms_p50": "ms",
    "service.queue_wait_ms_p50": "ms",
    "service.executor_ms_p50": "ms",
    "service.compute_ms_p50": "ms",
    "service.store_get_ms_p50": "ms",
    "service.store_put_ms_p50": "ms",
    "service.store_hit_ratio": "ratio",
    "service.served_over_inprocess": "ratio",
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self.span_id = array("q")
        self.parent = array("q")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = {}
        self._restore: list[tuple[object, str, object]] = []

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, fn, label: str, on_result=None, on_error=None):
        nid = len(self.names)
        self.names.append(label)
        local = self._local
        ids = self._ids
        lock = self._lock
        clock = time.perf_counter
        record = (self.span_id, self.parent, self.name, self.start, self.end)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = [-1]
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            began = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                ended = clock()
                stack.pop()
                with lock:
                    for column, value in zip(
                        record, (sid, parent, nid, began, ended)
                    ):
                        column.append(value)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------------
    def layer_seconds(self) -> dict[str, dict]:
        """Per span name: calls, inclusive and self seconds."""
        import numpy as np

        ids = np.frombuffer(self.span_id, dtype=np.int64)
        parents = np.frombuffer(self.parent, dtype=np.int64)
        names = np.frombuffer(self.name, dtype=np.uint16)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        order = np.argsort(ids)
        position = np.searchsorted(ids[order], parents)
        has_parent = parents >= 0
        child = np.zeros(len(ids))
        np.add.at(
            child,
            order[position[has_parent]],
            duration[has_parent],
        )
        own = duration - child
        out = {}
        for nid, label in enumerate(self.names):
            mask = names == nid
            out[label] = {
                "calls": int(mask.sum()),
                "s": float(duration[mask].sum()),
                "self_s": float(own[mask].sum()),
            }
        return out

    def durations(self, label: str) -> list[float]:
        """Durations in seconds of every span named *label*."""
        nid = self.names.index(label)
        return [
            end - start
            for name, start, end in zip(self.name, self.start, self.end)
            if name == nid
        ]

    def summary(self) -> dict:
        return {"layers": self.layer_seconds(), "counts": dict(self.counts)}

    def save(self, path: Path) -> None:
        """Write the spans and counters once, at the end of a run."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            span_id=np.frombuffer(self.span_id, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
        path.with_suffix(".json").write_text(json.dumps(self.summary()))


def _resolve(spec: str):
    import importlib

    module_name, _, qualname = spec.partition(":")
    target = importlib.import_module(module_name)
    for part in filter(None, qualname.split(".")):
        target = getattr(target, part)
    return target


def install() -> Tracer:
    """Wrap every traced entry point and return the collecting tracer."""
    import importlib

    from repro.graph.circuits import CircuitLimitExceeded

    tracer = Tracer()

    def on_scan(result):
        tracer.count("machine.scan_hits", result is not None)

    def on_schedule(schedule):
        tracer.count("schedulers.schedules")
        tracer.count("schedulers.attempts", schedule.stats.attempts)

    def on_circuits(circuits):
        tracer.count("mii.circuits", len(circuits))

    def on_circuit_error(exc):
        if isinstance(exc, CircuitLimitExceeded):
            tracer.count("mii.cap_hits")

    hooks = {
        "machine.scan": (on_scan, None),
        "schedulers.search": (on_schedule, None),
        "mii.circuits": (on_circuits, on_circuit_error),
    }
    for label, spec, attr, rebound in TRACED:
        owner = _resolve(spec)
        original = owner.__dict__[attr]
        on_result, on_error = hooks.get(label, (None, None))
        wrapped = tracer.wrap(original, label, on_result, on_error)
        tracer.patch(owner, attr, wrapped)
        for module_name in rebound:
            module = importlib.import_module(module_name)
            if module.__dict__.get(attr) is original:
                tracer.patch(module, attr, wrapped)
    return tracer


def layer_metrics(summary: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of the compute layers, from a trace summary."""
    layers = summary["layers"]
    counts = summary["counts"]

    def self_s(label):
        return layers.get(label, {}).get("self_s", 0.0)

    def calls(label):
        return layers.get(label, {}).get("calls", 0)

    scans = calls("machine.scan")
    attempts = counts.get("schedulers.attempts", 0)
    out = {
        "machine.scan_s": (self_s("machine.scan"), "s"),
        "machine.scan_calls": (scans, "count"),
        "machine.scan_hit_ratio": (
            counts.get("machine.scan_hits", 0) / scans if scans else 0.0,
            "ratio",
        ),
        "engine.mindist_s": (self_s("engine.mindist"), "s"),
        "engine.mindist_calls": (calls("engine.mindist"), "count"),
        "engine.bounds_s": (self_s("engine.bounds"), "s"),
        "engine.bounds_calls": (calls("engine.bounds"), "count"),
        "schedulers.search_s": (self_s("schedulers.search"), "s"),
        "schedulers.attempts": (attempts, "count"),
        "schedulers.jobs_per_attempt": (
            counts.get("schedulers.schedules", 0) / attempts
            if attempts else 0.0,
            "ratio",
        ),
        "schedulers.bidir_calls": (calls("schedulers.bidir"), "count"),
        "schedulers.neighbor_calls": (calls("schedulers.neighbor"), "count"),
        "schedulers.neighbor_s": (self_s("schedulers.neighbor"), "s"),
        "schedulers.seq_fallbacks": (
            calls("schedulers.seq_fallback"), "count"
        ),
        "mii.s": (self_s("mii.compute") + self_s("mii.circuits"), "s"),
        "mii.calls": (calls("mii.compute"), "count"),
        "mii.circuits": (counts.get("mii.circuits", 0), "count"),
        "mii.cap_hits": (counts.get("mii.cap_hits", 0), "count"),
        "core.order_s": (self_s("core.order"), "s"),
        "core.order_calls": (calls("core.order"), "count"),
        "schedule.maxlive_s": (self_s("schedule.maxlive"), "s"),
        "schedule.maxlive_calls": (calls("schedule.maxlive"), "count"),
        "frontend.compile_s": (self_s("frontend.compile"), "s"),
        "frontend.calls": (calls("frontend.compile"), "count"),
    }
    traced = sum(
        self_s(label) for group in LAYERS.values() for label in group
    )
    for layer, group in LAYERS.items():
        share = sum(self_s(label) for label in group)
        out[f"{layer}.share"] = (share / traced if traced else 0.0, "ratio")
    return out
