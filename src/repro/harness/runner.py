"""Shared machinery for running experiment sweeps.

An :class:`ExperimentRunner` owns the machine preset, workload scale
and seed, and memoises finished runs, so experiments that share
baselines (every figure normalises against the no-L1 BL run) reuse
them instead of re-simulating.  Its optional on-disk cache
(``cache_dir=...``, see :mod:`repro.harness.cache`) survives across
processes, and with ``jobs > 1`` :meth:`~ExperimentRunner.prefetch`
simulates a batch's missing points over a process pool.

:func:`_simulate_point` is the one entry that simulates a point
outside a caller's runner: the pool workers and the serve workers
(:func:`repro.serve.fleet.execute_spec`) both call it.
"""

from __future__ import annotations

import os
import sys
import threading
import time
import warnings
from collections import OrderedDict
from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.config import Consistency, GPUConfig, Protocol
from repro.gpu.gpu import make_gpu
from repro.harness.cache import RunCache, _canonical, run_key
from repro.harness.progress import RateEstimator
from repro.stats.collector import RunStats
from repro.trace.compiled import CompiledKernel, compile_kernel
from repro.workloads import build_workload

# one simulation point: (workload, protocol, consistency, overrides)
Point = Tuple[str, Protocol, Consistency, Tuple]

#: compiled traces this process built, keyed by (workload, scale,
#: seed, trace cache dir), least recently used first.  A serve worker
#: runs many configs of few traces; bounded so a long service with
#: many distinct traces does not grow without limit.  The trace cache
#: dir is part of the key so a trace built without one never skips a
#: later runner's on-disk trace cache.
_KERNELS: "OrderedDict[tuple, CompiledKernel]" = OrderedDict()
_KERNELS_MAX = 32
_KERNELS_LOCK = threading.Lock()


def point_of(workload: str, protocol: Protocol,
             consistency: Consistency, **overrides) -> Point:
    """Normalise one simulation point into a hashable key."""
    return (workload, protocol, consistency,
            tuple(sorted(overrides.items())))


class SimulationJobError(RuntimeError):
    """A worker failure annotated with the point that caused it.

    A bare traceback out of a process pool says *what* broke but not
    *which of the 40 submitted points* broke it; this wrapper pins the
    workload, protocol/consistency, scale, seed and preset to the
    failure so a sweep can be re-narrowed to the offending point.

    Built from two positional arguments (message, context dict) only,
    so the default ``Exception`` pickling round-trips it intact across
    the ``fork``/``spawn`` process boundary.
    """

    def __init__(self, message: str, context: Dict) -> None:
        super().__init__(message, context)
        self.context = dict(context)

    def __str__(self) -> str:
        detail = ", ".join(f"{k}={v}" for k, v in
                           sorted(self.context.items()))
        return f"{self.args[0]} [{detail}]"


def _kernel(workload: str, scale: float, seed: int,
            trace_cache_dir: Optional[str]) -> CompiledKernel:
    """The compiled trace for one workload, built at most once here.

    Two threads missing the same key both build it; the traces are
    identical and read-only, so either copy may be kept.
    """
    key = (workload, scale, seed, trace_cache_dir)
    with _KERNELS_LOCK:
        kernel = _KERNELS.get(key)
        if kernel is not None:
            _KERNELS.move_to_end(key)
            return kernel
    kernel = build_workload(workload, scale=scale, seed=seed,
                            cache_dir=trace_cache_dir)
    if not isinstance(kernel, CompiledKernel):
        kernel = compile_kernel(kernel)
    with _KERNELS_LOCK:
        _KERNELS[key] = kernel
        if len(_KERNELS) > _KERNELS_MAX:
            _KERNELS.popitem(last=False)
    return kernel


def _simulate_point(preset: str, scale: float, seed: int,
                    config_overrides: Tuple, point: Point,
                    trace_cache_dir: Optional[str] = None) -> Dict:
    """Worker entry: simulate one point, return a picklable payload.

    Top-level (not a closure/method) so it pickles under both the
    ``fork`` and ``spawn`` start methods.  It simulates through a
    plain :class:`ExperimentRunner`, so worker and batch agree on
    every config parameter.  ``trace_cache_dir`` lets workers share
    the parent's on-disk compiled-trace cache instead of each
    re-generating the workload.

    Any failure is re-raised as :class:`SimulationJobError` carrying
    the point's identity, chained to the original exception.
    """
    workload, protocol, consistency, overrides = point
    try:
        runner = ExperimentRunner(preset=preset, scale=scale, seed=seed,
                                  **dict(config_overrides))
        runner.trace_cache_dir = trace_cache_dir
        config = runner.base_config(protocol, consistency,
                                    **dict(overrides))
        return runner._simulate(workload, config).to_dict()
    except Exception as error:
        context = {
            "workload": workload,
            "protocol": getattr(protocol, "value", protocol),
            "consistency": getattr(consistency, "value", consistency),
            "preset": preset,
            "scale": scale,
            "seed": seed,
        }
        if overrides:
            context["overrides"] = dict(overrides)
        raise SimulationJobError(
            f"{type(error).__name__}: {error}", context) from error


class ExperimentRunner:
    """Runs (workload x configuration) points with memoisation.

    ``jobs`` worker processes simulate the missing points of each
    :meth:`prefetch` batch (``matrix``, ``sweep`` and the figure
    functions pass their full point sets); single points and
    ``jobs=1`` run in-process.
    """

    def __init__(self, preset: str = "small", scale: float = 0.5,
                 seed: int = 2018, cache_dir: Optional[str] = None,
                 progress: bool = False, db=None, jobs: int = 1,
                 **config_overrides) -> None:
        if preset not in ("small", "paper", "tiny"):
            raise ValueError(f"unknown preset {preset!r}")
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        cores = os.cpu_count() or 1
        if jobs > cores:
            # oversubscription is a measured loss on this workload
            # (0.73x at jobs=4 on a 1-core box), not just a no-op
            warnings.warn(
                f"jobs={jobs} exceeds the {cores} available CPU "
                f"core(s); clamping to {cores}",
                RuntimeWarning, stacklevel=2)
            jobs = cores
        self.jobs = jobs
        self.preset = preset
        self.scale = scale
        self.seed = seed
        self.config_overrides = dict(config_overrides)
        self._cache: Dict[Point, RunStats] = {}
        # the same results keyed by run key: points spelled differently
        # (a default-valued override) that configure the same machine
        # share one simulation
        self._by_key: Dict[str, RunStats] = {}
        self.disk_cache = RunCache(cache_dir) if cache_dir else None
        # results database: a ResultsDB handle or a path to open one.
        # Every point this runner resolves (fresh simulation or disk
        # cache) is upserted with full spec + provenance.
        if isinstance(db, str):
            from repro.db.store import ResultsDB
            db = ResultsDB(db)
        self.results_db = db
        # compiled workload traces: generated (or read from the trace
        # cache under <cache_dir>/traces) once, shared by every config
        # that runs the same workload at this runner's scale and seed
        self.trace_cache_dir = (os.path.join(cache_dir, "traces")
                                if cache_dir else None)
        self._kernels: Dict[str, CompiledKernel] = {}
        #: actual simulations performed (cache hits don't count)
        self.simulations_run = 0
        #: engine hot-loop counters summed over in-process simulations
        #: (engine_* names; cached and pool points contribute nothing)
        self.engine_counters: Dict[str, int] = {}
        #: emit live heartbeat lines to stderr during batch prefetches
        self.progress = progress

    def _heartbeat(self, message: str) -> None:
        """One live progress line (stderr, so stdout stays parseable)."""
        if self.progress:
            print(f"[repro] {message}", file=sys.stderr, flush=True)

    @staticmethod
    def _describe_point(point: Point) -> str:
        workload, protocol, consistency, overrides = point
        text = f"{workload} {protocol.value}-{consistency.value}"
        if overrides:
            text += " " + ",".join(f"{k}={v}" for k, v in overrides)
        return text

    # ------------------------------------------------------------------
    def base_config(self, protocol: Protocol, consistency: Consistency,
                    **overrides) -> GPUConfig:
        """The runner's machine with one protocol/consistency choice."""
        factory = getattr(GPUConfig, self.preset)
        merged = dict(self.config_overrides)
        merged.update(overrides)
        return factory(protocol=protocol, consistency=consistency,
                       **merged)

    def _disk_key(self, workload: str, config: GPUConfig) -> str:
        return run_key(config, workload, self.scale, self.seed)

    def _simulate(self, workload: str, config: GPUConfig) -> RunStats:
        kernel = self._kernels.get(workload)
        if kernel is None:
            kernel = self._kernels[workload] = _kernel(
                workload, self.scale, self.seed, self.trace_cache_dir)
        self.simulations_run += 1
        gpu = make_gpu(config, record_accesses=False)
        stats = gpu.run(kernel)
        totals = self.engine_counters
        for name, value in gpu.machine.engine.counters().items():
            totals[name] = totals.get(name, 0) + value
        return stats

    def _stored(self, digest: str) -> Optional[RunStats]:
        """A finished result for one run key, from memory or disk."""
        stats = self._by_key.get(digest)
        if stats is None and self.disk_cache is not None:
            stats = self.disk_cache.get(digest)
        return stats

    def run(self, workload: str, protocol: Protocol,
            consistency: Consistency, **overrides) -> RunStats:
        """Simulate one point, memoised on its parameters and run key."""
        key = point_of(workload, protocol, consistency, **overrides)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        config = self.base_config(protocol, consistency, **overrides)
        digest = self._disk_key(workload, config)
        stats = self._stored(digest)
        if stats is not None:
            self._keep(key, digest, stats, config, "runner-cache")
            return stats
        started = time.perf_counter()
        stats = self._simulate(workload, config)
        self._keep(key, digest, stats, config, "runner",
                   time.perf_counter() - started)
        return stats

    def _keep(self, point: Point, digest: str, stats: RunStats,
              config: GPUConfig, source: str,
              wall_time_s: Optional[float] = None) -> None:
        """Memoise one resolved point, store it, and record its row.

        A fresh result (``runner``, ``runner-pool``) is written to the
        disk cache; a memory or disk hit (``runner-cache``) is not.
        Database trouble (read-only disk, concurrent schema upgrade)
        warns and continues: persistence of provenance must never
        fail the experiment that produced the result.
        """
        self._cache[point] = stats
        self._by_key[digest] = stats
        if source != "runner-cache" and self.disk_cache is not None:
            self.disk_cache.put(digest, stats)
        if self.results_db is None:
            return
        try:
            self.results_db.record(
                digest, stats, spec=self.point_spec(point),
                config=config, source=source,
                wall_time_s=wall_time_s)
        except Exception as error:
            warnings.warn(
                f"results-db record failed for {digest[:12]}…: "
                f"{type(error).__name__}: {error}",
                RuntimeWarning, stacklevel=2)

    # ------------------------------------------------------------------
    # results database
    # ------------------------------------------------------------------
    def point_spec(self, point: Point) -> Dict:
        """The canonical request spec one point denormalises to.

        Matches the serve-protocol spec shape
        (:func:`repro.serve.schema.make_spec`), so a row written by a
        runner and a row written by a serve worker for the same run
        key carry comparable specs.
        """
        workload, protocol, consistency, overrides = point
        merged = dict(self.config_overrides)
        merged.update(dict(overrides))
        return {
            "workload": workload,
            "protocol": protocol.value,
            "consistency": consistency.value,
            "preset": self.preset,
            "scale": float(self.scale),
            "seed": self.seed,
            "overrides": {k: _canonical(merged[k])
                          for k in sorted(merged)},
        }

    # ------------------------------------------------------------------
    # batches
    # ------------------------------------------------------------------
    def _missing(self, points: Iterable[Point]) -> Dict:
        """The points not satisfiable from any cache, one per run key,
        each mapped to its ``(config, run key)``."""
        missing: Dict[Point, Tuple[GPUConfig, str]] = {}
        queued = set()
        for point in points:
            if point in self._cache:
                continue
            workload, protocol, consistency, overrides = point
            config = self.base_config(protocol, consistency,
                                      **dict(overrides))
            digest = self._disk_key(workload, config)
            if digest in queued:
                continue
            stats = self._stored(digest)
            if stats is not None:
                self._keep(point, digest, stats, config, "runner-cache")
                continue
            queued.add(digest)
            missing[point] = (config, digest)
        return missing

    def _run_missing(self, missing: Dict) -> Iterator[RunStats]:
        """Simulate uncached points, yielding results in point order."""
        if self.jobs == 1 or len(missing) == 1:
            for workload, protocol, consistency, overrides in missing:
                yield self.run(workload, protocol, consistency,
                               **dict(overrides))
            return

        from concurrent.futures import ProcessPoolExecutor

        self._heartbeat(f"simulating {len(missing)} point(s) over "
                        f"{self.jobs} worker process(es)")
        overrides_key = tuple(sorted(self.config_overrides.items()))
        with ProcessPoolExecutor(max_workers=self.jobs) as pool:
            futures = [
                pool.submit(_simulate_point, self.preset, self.scale,
                            self.seed, overrides_key, point,
                            self.trace_cache_dir)
                for point in missing
            ]
            # submission order, not completion order: results land
            # deterministically
            for (point, (config, digest)), future in zip(
                    missing.items(), futures):
                stats = RunStats.from_dict(future.result())
                self.simulations_run += 1
                # per-point wall time stays in the worker process; the
                # row still records which pool run produced it
                self._keep(point, digest, stats, config, "runner-pool")
                yield stats

    def prefetch(self, points: Iterable[Point]) -> None:
        """Warm the memo for a batch of points.

        Points a cache already holds are resolved first; the rest (one
        per run key) run in-process when ``jobs == 1`` or only one is
        missing, and over a pool of ``jobs`` processes otherwise.
        Callers that know their full set of points up front (matrix,
        sweep, figure functions) route it through here.
        """
        points = list(points)
        missing = self._missing(points)
        cached = len(points) - len(missing)
        if cached:
            self._heartbeat(f"{cached} of {len(points)} point(s) "
                            f"already cached")
        total = len(missing)
        started = time.monotonic()
        estimator = RateEstimator()
        for index, (point, stats) in enumerate(
                zip(missing, self._run_missing(missing)), start=1):
            estimator.tick()
            self._heartbeat(
                f"{index}/{total} {self._describe_point(point)} "
                f"(cycles={stats.cycles}, "
                f"{time.monotonic() - started:.1f}s elapsed"
                f"{estimator.suffix(total - index)})")

    # -- the runs every figure needs -------------------------------------------
    def baseline(self, workload: str) -> RunStats:
        """The no-L1 coherent baseline (BL) all figures normalise to.

        BL turns the L1 off, so the consistency model reduces to the
        issue rules; the paper runs it once per benchmark.  RC issue
        rules are used (matching TC-Weak's baseline in the original TC
        work).
        """
        return self.run(workload, Protocol.DISABLED, Consistency.RC)

    def matrix(self, workload: str) -> Dict[str, RunStats]:
        """The four protocol/consistency bars of Figures 12-16."""
        self.prefetch(self.matrix_points([workload]))
        return {
            "TC-SC": self.run(workload, Protocol.TC, Consistency.SC),
            "TC-RC": self.run(workload, Protocol.TC, Consistency.RC),
            "G-TSC-SC": self.run(workload, Protocol.GTSC, Consistency.SC),
            "G-TSC-RC": self.run(workload, Protocol.GTSC, Consistency.RC),
        }

    @staticmethod
    def matrix_points(workloads: Iterable[str],
                      baseline: bool = False) -> list:
        """The matrix points (optionally + baseline) for workloads."""
        points = []
        for workload in workloads:
            if baseline:
                points.append(point_of(workload, Protocol.DISABLED,
                                       Consistency.RC))
            for protocol in (Protocol.TC, Protocol.GTSC):
                for consistency in (Consistency.SC, Consistency.RC):
                    points.append(point_of(workload, protocol,
                                           consistency))
        return points

    def with_l1(self, workload: str) -> RunStats:
        """The non-coherent "Baseline W/L1" bar (second group only)."""
        return self.run(workload, Protocol.NONCOHERENT, Consistency.RC)
