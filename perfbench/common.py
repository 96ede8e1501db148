"""Shared helpers: the speed probe, percentiles, memory and result lines.

Nothing here imports the repro package, so the probe stays independent
of the code under test.
"""

from __future__ import annotations

import bisect
import json
import resource
import statistics
import sys
import time
from pathlib import Path

#: Root of the checkout the benchmark runs from (the parent of perfbench/).
ROOT = Path(__file__).resolve().parent.parent

#: Scratch space inside the checkout (listed in .gitignore).
WORK = ROOT / ".bench_build" / "perfbench"

#: The paper-pinned seed: MICRO-28's proceedings date.  It is the default
#: workload seed, and the seed that pins the in-process loop structures.
DEFAULT_SEED = 19951128

#: A seed never used while the benchmark or a change is tuned.  A gain
#: claimed on the default seed must also hold here.
HELD_OUT_SEED = 27182818

#: Nominal measured seconds; every workload sizes its work to this length.
NOMINAL_SECONDS = 30


#: Probe time that defines the reference speed.  Time metrics are
#: reported as if the box ran at the speed where one probe takes this
#: long: a measured time is multiplied by REFERENCE_PROBE_MS over the
#: median probe time around it (see ProbeClock.speed).  The box this
#: benchmark was built on drifts by up to 40% within minutes, and the
#: probe, sampled through the timed region, tracks that drift.  Changing
#: the probe or this constant changes the unit of every time metric.
REFERENCE_PROBE_MS = 5.0
#: The same for :func:`service_probe_ms`, which rescales served times.
REFERENCE_SERVICE_PROBE_MS = 30.0
#: Probe samples within this many seconds of an interval rescale it ...
LOCAL_WINDOW = 2.0
#: ... widened to at least this many samples.
LOCAL_SAMPLES = 8


def require_source() -> None:
    """Put the checkout's ``src`` on the path, or exit if it is missing."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro package under {src} - run from the root "
            "of a full checkout",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def scaled(count: int, seconds: float) -> int:
    """*count* units of work at the nominal length, scaled to *seconds*."""
    return max(1, round(count * min(1.0, seconds / NOMINAL_SECONDS)))


def probe_ms() -> float:
    """One run of a fixed CPU probe (pure-Python relaxation plus NumPy).

    It does the same work every call, so its time tracks how fast this
    box runs right now.  It shares no code with the program under test.
    """
    import numpy as np

    start = time.perf_counter()
    n = 60
    dist = [[(i * 7 + j * 13) % 17 for j in range(n)] for i in range(n)]
    for k in range(0, n, 3):
        row_k = dist[k]
        for i in range(n):
            row_i = dist[i]
            via = row_i[k]
            for j in range(n):
                cand = via + row_k[j]
                if cand < row_i[j]:
                    row_i[j] = cand
    grid = np.arange(40000, dtype=np.float64).reshape(200, 200)
    for _ in range(20):
        grid = np.minimum(grid, grid[:, :1] + grid[:1, :])
    return (time.perf_counter() - start) * 1e3


_PROBE_SERVER = None


def _probe_server():
    """The threaded HTTP server :func:`service_probe_ms` talks to, started
    on first use so that importing this module starts nothing."""
    global _PROBE_SERVER
    if _PROBE_SERVER is None:
        import http.server
        import threading

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):  # noqa: N802 - http.server API
                length = int(self.headers["Content-Length"])
                body = json.loads(self.rfile.read(length))
                total = 0
                for row in body["rows"]:
                    for value in row:
                        total = (total * 31 + value) % 1000003
                text = json.dumps({"total": total, **body}, indent=2)
                WORK.mkdir(parents=True, exist_ok=True)
                tmp = WORK / "probe.json.tmp"
                tmp.write_text(text)
                tmp.replace(WORK / "probe.json")
                reply = json.dumps({"total": total}).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(reply)))
                self.end_headers()
                self.wfile.write(reply)

            def log_message(self, *args):
                pass

        _PROBE_SERVER = http.server.ThreadingHTTPServer(
            ("127.0.0.1", 0), Handler
        )
        threading.Thread(
            target=_PROBE_SERVER.serve_forever, daemon=True
        ).start()
    return _PROBE_SERVER


def service_probe_ms() -> float:
    """One fixed served-shaped round trip set, sharing no code with the
    program: eight HTTP POSTs of a JSON body to a threaded server in this
    process, whose handler parses it, computes over it, writes it
    pretty-printed and renames the file into place."""
    import http.client

    server = _probe_server()
    body = json.dumps(
        {"rows": [[(i * 7 + j) % 97 for j in range(40)] for i in range(40)]}
    )
    start = time.perf_counter()
    for _ in range(8):
        conn = http.client.HTTPConnection(*server.server_address)
        conn.request("POST", "/", body, {"Content-Type": "application/json"})
        conn.getresponse().read()
        conn.close()
    return (time.perf_counter() - start) * 1e3


class ProbeClock:
    """Samples the probe through a timed region and rescales times by it.

    A time measured over ``[start, end]`` is rescaled by the median probe
    time within :data:`LOCAL_WINDOW` seconds of that interval, so a slow
    phase of the box is matched with the jobs it slowed.  The time spent
    probing is kept apart, so it can be taken out of the measured time.
    """

    def __init__(
        self,
        interval: float = 0.25,
        probe=probe_ms,
        reference_ms: float | None = None,
    ) -> None:
        self.probe = probe
        self.reference_ms = reference_ms or REFERENCE_PROBE_MS
        self.interval = interval
        self.times: list[float] = []
        self.samples: list[float] = []
        self.spent = 0.0
        self._next = 0.0

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            began = time.perf_counter()
            self.samples.append(self.probe())
            ended = time.perf_counter()
            self.times.append((began + ended) / 2)
            self.spent += ended - began
        self._next = time.perf_counter() + self.interval

    def tick(self) -> None:
        """Sample once if the interval has passed since the last sample."""
        if time.perf_counter() >= self._next:
            self.sample()

    def median(self) -> float:
        return statistics.median(self.samples) if self.samples else 0.0

    def speed(self, start: float, end: float) -> float:
        """Reference probe time over the local median probe time."""
        lo = bisect.bisect_left(self.times, start - LOCAL_WINDOW)
        hi = bisect.bisect_right(self.times, end + LOCAL_WINDOW)
        while hi - lo < LOCAL_SAMPLES and (lo > 0 or hi < len(self.times)):
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        return self.reference_ms / statistics.median(self.samples[lo:hi])

    def rescale(self, seconds: float, start: float, end: float) -> float:
        """*seconds* measured over [start, end], at the reference speed."""
        return seconds * self.speed(start, end)


def percentile(values: list[float], q: float) -> float:
    """The Harrell-Davis estimate of the *q*-th percentile (0-100).

    A Beta-weighted mean of all order statistics rather than one or two
    of them: with a few dozen heterogeneous jobs (rec-large) a plain
    order statistic jumps across the gaps between loop costs from run to
    run, while this estimate moves smoothly.
    """
    import numpy as np
    from scipy.special import betainc

    if not values:
        return 0.0
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    p = q / 100.0
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), ordered))


def tail_quantile(count: int) -> float:
    """Highest percentile (at most 99) with ten samples beyond it."""
    if count <= 10:
        return 50.0
    return max(50.0, min(99.0, 100.0 * (1.0 - 10.0 / count)))


def own_peak_rss_mb() -> float:
    """High-water RSS of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """High-water RSS (VmHWM) of a live process."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def print_raw(measured: dict) -> None:
    """Print the measured values of the time metrics before rescaling."""
    print("  raw " + json.dumps(measured))


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the human-readable table, then the result as the last line."""
    for name, entry in metrics.items():
        print(f"  {name:32s} {entry['value']:>14.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
