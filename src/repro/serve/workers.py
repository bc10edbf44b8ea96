"""Leased workers that execute queued jobs with retry and quarantine.

The pool is the bridge between the durable queue and the simulator:
``jobs`` worker threads repeatedly lease the oldest eligible job from
the :class:`~repro.serve.jobs.JobStore`, execute it, and journal the
outcome.  Execution goes through one injectable callable
(``execute(spec) -> RunStats``); the default, :func:`execute_spec`,
reuses the exact worker entry of the batch harness
(:func:`repro.harness.parallel._simulate_point`), so a job run by the
service is bit-identical to the same point run by ``ParallelRunner``
or a plain ``ExperimentRunner`` — and failures arrive as the same
context-carrying :class:`~repro.harness.parallel.SimulationJobError`.

Failure policy:

* **per-job timeout** — each execution runs on a disposable daemon
  thread joined with ``timeout``; a job that exceeds it is abandoned
  (the thread cannot be killed, but it can no longer touch the queue)
  and treated as a failed attempt;
* **bounded retry with jittered backoff** — a failed attempt requeues
  the job with ``not_before = now + base * 2^(attempt-1) * jitter``
  (capped), until ``max_attempts`` lease grants have been consumed;
* **quarantine** — a job that exhausts its attempts is journalled
  FAILED and its key is quarantined for ``quarantine_ttl`` seconds:
  resubmitting the identical point during that window fails fast with
  the recorded error instead of burning workers on a deterministic
  crash.

Lease expiry is the orthogonal safety net: a worker that dies
mid-execution simply never completes its lease, and the store hands
the job to a healthy worker once the deadline passes.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, Dict, Optional, Tuple

from repro.config import Consistency, Protocol
from repro.harness.parallel import _simulate_point
from repro.serve.jobs import Job, JobStore
from repro.stats.collector import RunStats
from repro.stats.histogram import HistogramSet


class JobTimeout(RuntimeError):
    """An execution that exceeded the pool's per-job timeout."""


def execute_spec(spec: Dict) -> RunStats:
    """Simulate one validated spec, exactly as the batch harness would."""
    point = (spec["workload"], Protocol(spec["protocol"]),
             Consistency(spec["consistency"]),
             tuple(sorted(spec["overrides"].items())))
    payload = _simulate_point(spec["preset"], spec["scale"],
                              spec["seed"], (), point)
    return RunStats.from_dict(payload)


class WorkerPool:
    """``jobs`` threads leasing from one store.

    ``on_result(job, stats)`` / ``on_failure(job, message)`` fire on
    terminal outcomes only (retries are internal); the scheduler uses
    them to resolve waiter futures and populate the run cache.
    ``clock``/``sleep``/``rng`` are injectable for deterministic
    tests.

    ``jobs=0`` is the pure-dispatcher configuration: no local worker
    threads lease anything, but the pool still owns the pieces the
    *remote* fleet shares — the retry/backoff/quarantine policy
    (:meth:`record_failure`), the latency histograms and executed
    counters (:meth:`note_executed`), and the quarantine lookups the
    scheduler consults on every submit.
    """

    def __init__(self, store: JobStore, jobs: int = 1,
                 execute: Callable[[Dict], RunStats] = execute_spec,
                 *, timeout: Optional[float] = None,
                 max_attempts: int = 3,
                 backoff_base: float = 0.5,
                 backoff_cap: float = 30.0,
                 lease_duration: float = 300.0,
                 quarantine_ttl: float = 60.0,
                 poll_interval: float = 0.05,
                 clock: Callable[[], float] = time.time,
                 rng: Optional[random.Random] = None,
                 on_result: Optional[Callable[[Job, RunStats], None]]
                 = None,
                 on_failure: Optional[Callable[[Job, str], None]]
                 = None) -> None:
        if jobs < 0:
            raise ValueError("jobs must be >= 0")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.store = store
        self.jobs = jobs
        self.execute = execute
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.lease_duration = lease_duration
        self.quarantine_ttl = quarantine_ttl
        self.poll_interval = poll_interval
        self.on_result = on_result
        self.on_failure = on_failure
        self._clock = clock
        self._rng = rng if rng is not None else random.Random()
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._threads: list = []
        self._lock = threading.Lock()
        #: key -> (expires_at, error) of terminally failed points
        self._quarantine: Dict[str, Tuple[float, str]] = {}
        #: executions finished / retried / terminally failed / timed out
        self.executed = 0
        self.retried = 0
        self.failed = 0
        self.timeouts = 0
        #: per-job latency distributions (milliseconds): how long a
        #: job waited in the queue (``job_queue_wait_ms``) and how
        #: long its simulation ran (``job_simulate_ms``)
        self.latency = HistogramSet()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._threads:
            raise RuntimeError("pool already started")
        self._stop.clear()
        for index in range(self.jobs):
            thread = threading.Thread(
                target=self._loop, args=(f"worker-{index}",),
                name=f"repro-serve-{index}", daemon=True)
            thread.start()
            self._threads.append(thread)

    def stop(self, wait: bool = True) -> None:
        """Stop leasing new jobs; optionally join the workers.

        In-flight executions finish their current job first (that is
        the graceful-drain half of SIGTERM handling); jobs still
        PENDING stay journalled for the next process.
        """
        self._stop.set()
        self._wake.set()
        if wait:
            for thread in self._threads:
                thread.join()
        self._threads = []

    def notify(self) -> None:
        """Wake idle workers — called by the scheduler after a submit."""
        self._wake.set()

    def quarantined(self, key: str) -> Optional[str]:
        """The recorded error if ``key`` is quarantined, else None."""
        with self._lock:
            entry = self._quarantine.get(key)
            if entry is None:
                return None
            expires, error = entry
            if expires <= self._clock():
                del self._quarantine[key]
                return None
            return error

    # ------------------------------------------------------------------
    # the worker loop
    # ------------------------------------------------------------------
    def _loop(self, name: str) -> None:
        while not self._stop.is_set():
            job = self.store.lease(name, self.lease_duration)
            if job is None:
                self._wake.wait(self.poll_interval)
                self._wake.clear()
                continue
            self._run_one(job)

    def _run_one(self, job: Job) -> None:
        queue_wait = max(0.0, self._clock() - job.submitted_at)
        started = time.perf_counter()
        try:
            stats = self._call_with_timeout(job.spec)
        except Exception as error:
            self._handle_failure(job, error)
            return
        wall_time = time.perf_counter() - started
        self.note_executed(queue_wait, wall_time)
        self.store.complete(job.id)
        # stamp the measured wall time onto the job so downstream
        # consumers (scheduler -> results DB) get it without widening
        # the on_result(job, stats) callback signature
        job.wall_time_s = wall_time
        if self.on_result is not None:
            self.on_result(job, stats)

    def note_executed(self, queue_wait: float,
                      wall_time: float) -> None:
        """Count one finished execution into the pool's telemetry.

        Shared by the local worker loop and the remote ``complete``
        op, so fleet-wide latency histograms and the ``executed``
        counter mean the same thing whichever kind of worker ran the
        job.
        """
        self.executed += 1
        with self._lock:
            self.latency.add("job_queue_wait_ms",
                             int(round(queue_wait * 1000)))
            self.latency.add("job_simulate_ms",
                             int(round(wall_time * 1000)))

    def latency_summary(self) -> Dict:
        """Count/mean/p50/p95/p99/max (ms) per latency histogram.

        A percentile is its bucket's upper bound capped at the largest
        sample seen, so no quantile ever reads above ``max_ms``.
        """
        out: Dict[str, Dict] = {}
        with self._lock:
            for name in self.latency.names():
                histogram = self.latency.get(name)
                top = histogram.max_value
                out[name] = {
                    "count": histogram.count,
                    "sum_ms": histogram.total,
                    "mean_ms": round(histogram.mean, 3),
                    "p50_ms": min(histogram.percentile(0.50), top),
                    "p95_ms": min(histogram.percentile(0.95), top),
                    "p99_ms": min(histogram.percentile(0.99), top),
                    "max_ms": top,
                }
        return out

    def _call_with_timeout(self, spec: Dict) -> RunStats:
        if self.timeout is None:
            return self.execute(spec)
        holder: list = []

        def target() -> None:
            try:
                holder.append(("ok", self.execute(spec)))
            except Exception as error:        # delivered to the joiner
                holder.append(("err", error))

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        thread.join(self.timeout)
        if thread.is_alive():
            self.timeouts += 1
            raise JobTimeout(f"execution exceeded {self.timeout}s")
        kind, value = holder[0]
        if kind == "err":
            raise value
        return value

    def _handle_failure(self, job: Job, error: Exception) -> None:
        self.record_failure(job, f"{type(error).__name__}: {error}")

    def record_failure(self, job: Job, message: str) -> None:
        """Apply the retry policy to one failed LEASED attempt.

        The single authority on what a failure means — requeue with
        jittered backoff while attempts remain, terminal FAILED plus
        key quarantine once they run out — used by local worker
        threads and by the server's remote ``fail`` op alike.
        """
        if job.attempts < self.max_attempts:
            self.retried += 1
            self.store.requeue(job.id,
                               not_before=self._clock() +
                               self._backoff(job.attempts))
            self._wake.set()
            return
        self.failed += 1
        self.store.fail(job.id, message)
        with self._lock:
            self._quarantine[job.key] = (
                self._clock() + self.quarantine_ttl, message)
        if self.on_failure is not None:
            self.on_failure(job, message)

    def _backoff(self, attempt: int) -> float:
        """Exponential backoff with full jitter in [0.5x, 1.0x]."""
        base = min(self.backoff_cap,
                   self.backoff_base * (2 ** (attempt - 1)))
        return base * (0.5 + self._rng.random() / 2)
