"""Job queue ordering, worker-pool retry, and failure capture."""

import threading

import pytest

from repro.errors import GraphError
from repro.graph.circuits import CircuitLimitExceeded
from repro.service.jobs import Job, JobQueue, JobStatus, WorkerPool


def make_job(tag, priority=0, max_attempts=2):
    return Job(kind="schedule", request={"tag": tag}, priority=priority,
               max_attempts=max_attempts)


class TestJobQueue:
    def test_priority_order(self):
        queue = JobQueue()
        for tag, priority in (("low", 0), ("high", 5), ("mid", 2)):
            queue.push(make_job(tag, priority))
        popped = [queue.pop().request["tag"] for _ in range(3)]
        assert popped == ["high", "mid", "low"]

    def test_fifo_within_priority(self):
        queue = JobQueue()
        for tag in "abc":
            queue.push(make_job(tag))
        assert [queue.pop().request["tag"] for _ in range(3)] == ["a", "b", "c"]

    def test_pop_timeout(self):
        assert JobQueue().pop(timeout=0.01) is None

    def test_close_wakes_blocked_pop(self):
        queue = JobQueue()
        results = []
        thread = threading.Thread(target=lambda: results.append(queue.pop()))
        thread.start()
        queue.close()
        thread.join(timeout=5)
        assert results == [None]

    def test_push_after_close_rejected(self):
        queue = JobQueue()
        queue.close()
        with pytest.raises(RuntimeError):
            queue.push(make_job("late"))

    def test_depth(self):
        queue = JobQueue()
        queue.push(make_job("a"))
        queue.push(make_job("b"))
        assert queue.depth == 2


class TestWorkerPool:
    def _drain(self, execute, jobs, workers=2):
        queue = JobQueue()
        done = threading.Event()
        remaining = [len(jobs)]
        lock = threading.Lock()
        finished = []

        def count(job):
            with lock:
                finished.append(job)
                remaining[0] -= 1
                if remaining[0] == 0:
                    done.set()

        pool = WorkerPool(queue, execute, workers=workers, on_finish=count)
        for job in jobs:
            queue.push(job)
        pool.start()
        assert done.wait(timeout=10), "jobs did not drain"
        pool.stop()
        return finished

    def test_success_path(self):
        jobs = [make_job(str(i)) for i in range(5)]
        self._drain(lambda job: {"tag": job.request["tag"]}, jobs)
        assert all(job.status == JobStatus.DONE for job in jobs)
        assert all(job.result == {"tag": job.request["tag"]} for job in jobs)
        assert all(job.latency is not None and job.latency >= 0 for job in jobs)

    def test_transient_failure_retries(self):
        attempts = {}
        lock = threading.Lock()

        def flaky(job):
            with lock:
                attempts[job.id] = attempts.get(job.id, 0) + 1
                if attempts[job.id] == 1:
                    raise RuntimeError("transient")
            return {"ok": True}

        job = make_job("flaky", max_attempts=3)
        self._drain(flaky, [job])
        assert job.status == JobStatus.DONE
        assert job.attempts == 2

    def test_transient_failure_exhausts_attempts(self):
        def always_fails(job):
            raise RuntimeError("still down")

        job = make_job("doomed", max_attempts=2)
        self._drain(always_fails, [job])
        assert job.status == JobStatus.FAILED
        assert job.error == {
            "type": "RuntimeError",
            "message": "still down",
            "attempts": 2,
        }

    def test_domain_error_fails_without_retry(self):
        def domain(job):
            raise GraphError("malformed forever")

        job = make_job("bad", max_attempts=5)
        self._drain(domain, [job])
        assert job.status == JobStatus.FAILED
        assert job.attempts == 1, "deterministic failures must not retry"
        assert job.error["type"] == "GraphError"

    def test_circuit_cap_fails_without_retry(self):
        def capped(job):
            raise CircuitLimitExceeded("more than 50000 elementary circuits")

        job = make_job("dense", max_attempts=5)
        self._drain(capped, [job])
        assert job.status == JobStatus.FAILED
        assert job.attempts == 1, "the cap hit repeats on every attempt"
        assert job.error["type"] == "CircuitLimitExceeded"

    def test_to_dict_shape(self):
        job = make_job("x", priority=3)
        view = job.to_dict()
        assert view["status"] == JobStatus.QUEUED
        assert view["priority"] == 3
        assert view["result"] is None and view["error"] is None


class TestQueueDrain:
    def test_drain_returns_jobs_in_pop_order(self):
        queue = JobQueue()
        for tag, priority in (("low", 0), ("high", 5), ("mid", 2)):
            queue.push(make_job(tag, priority))
        drained = queue.drain()
        assert [job.request["tag"] for job in drained] == [
            "high", "mid", "low",
        ]
        # drain closes: consumers wake, producers are rejected.
        assert queue.pop(timeout=0.01) is None
        with pytest.raises(RuntimeError):
            queue.push(make_job("late"))

    def test_drain_empty_queue(self):
        queue = JobQueue()
        assert queue.drain() == []


class TestAbortStop:
    def test_abort_settles_queued_jobs_as_failed(self):
        """Ctrl-C semantics: jobs that never started must settle as
        failed (with the shutdown captured), not linger queued."""
        release = threading.Event()
        started = threading.Event()

        def execute(job):
            started.set()
            assert release.wait(timeout=10)
            return {}

        queue = JobQueue()
        finished = []
        pool = WorkerPool(
            queue, execute, workers=1, on_finish=finished.append
        )
        in_flight = make_job("in-flight")
        queued = [make_job("q1"), make_job("q2")]
        for job in (in_flight, *queued):
            queue.push(job)
        pool.start()
        assert started.wait(timeout=10)

        stopper = threading.Thread(
            target=lambda: pool.stop(wait=True, abort=True)
        )
        stopper.start()
        # The queued jobs settle immediately, before the in-flight one
        # is even released.
        deadline = threading.Event()
        for job in queued:
            for _ in range(1000):
                if job.status == JobStatus.FAILED:
                    break
                deadline.wait(0.01)
            assert job.status == JobStatus.FAILED
            assert "stopped before job" in job.error["message"]
            assert job.error["type"] == "ServiceError"
            assert job.finished_at is not None
        release.set()
        stopper.join(timeout=10)
        assert not stopper.is_alive()
        assert in_flight.status == JobStatus.DONE
        assert len(finished) == 3  # on_finish fired for aborted jobs too
