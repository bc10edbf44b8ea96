"""One pass of a simulator workload, in a fresh interpreter.

Usage::

    python perfbench/sim_child.py --out PASS.json [--profile]
        [--setup-only] -- CLI-ARGS...

Runs ``repro.cli.main(CLI-ARGS)`` exactly as ``gtsc-repro CLI-ARGS``
would, with its stdout captured, and times the calls the benchmark
attributes from outside ``src/``: ``ExperimentRunner.run`` and
``_simulate`` (fresh points), ``build_workload``, ``ResultsDB.record``
and ``format_result``.  Writes one JSON record to PASS.json and the
captured CLI output next to it (``PASS.json.stdout``).

``t_ready`` is the wall-clock time at which ``repro.cli`` is imported
and the runner is built; the parent subtracts its own spawn time.
With ``--setup-only`` the pass stops there.  With ``--profile`` the
work after ``t_ready`` runs under :class:`LayerProfile`.

Unprofiled, the pass runs :func:`hostprobe.probe` after a runner call
once ``PROBE_EVERY_S`` have passed since the last probe (and
``SETUP_PROBES`` times after a setup-only pass), and records the
probes' CPU and wall seconds, so the parent can scale the pass's times
to a host of constant speed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
import traceback

from hostprobe import PROBE_EVERY_S, SETUP_PROBES, probe


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--profile", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_argv = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    import repro.cli
    from repro.db.store import ResultsDB
    from repro.harness import runner as runner_mod
    from repro.harness.runner import ExperimentRunner

    rec = {"points": 0, "sim_s": 0.0, "latencies_ms": [],
           "counters": {}, "warp_failures": [], "trace_build_ms": 0.0,
           "trace_instructions": 0, "db_record_ms": 0.0,
           "render_ms": 0.0, "probes": 0, "probe_s": 0.0,
           "probe_wall_s": 0.0, "error": None}
    profile = None
    runners = []
    last_probe = [time.perf_counter()]

    def make_runner(namespace):
        runner = original_make(namespace)
        runners.append(runner)
        rec["t_ready"] = time.time()
        if profile is not None:
            profile.start()
        return runner

    def run(self, workload, protocol, consistency, **overrides):
        before = self.simulations_run
        started = time.perf_counter()
        stats = original_run(self, workload, protocol, consistency,
                             **overrides)
        finished = time.perf_counter()
        if self.simulations_run > before:
            rec["latencies_ms"].append((finished - started) * 1e3)
        if profile is None and finished - last_probe[0] >= PROBE_EVERY_S:
            take_probe()
        return stats

    def take_probe():
        started = time.perf_counter()
        rec["probe_s"] += probe()
        rec["probes"] += 1
        last_probe[0] = time.perf_counter()
        rec["probe_wall_s"] += last_probe[0] - started

    def simulate(self, workload, config):
        started = time.perf_counter()
        stats = original_simulate(self, workload, config)
        rec["sim_s"] += time.perf_counter() - started
        rec["points"] += 1
        counters = rec["counters"]
        counters["cycles"] = counters.get("cycles", 0) + stats.cycles
        for name, value in stats.counters.items():
            if name != "cycles":
                counters[name] = counters.get(name, 0) + value
        launched = self._kernels[workload].num_warps
        retired = stats.counters.get("warps_retired", 0)
        if retired != launched:
            rec["warp_failures"].append(
                f"{workload} {config.describe()}: "
                f"{retired}/{launched} warps retired")
        return stats

    def build(name, **kwargs):
        started = time.perf_counter()
        kernel = original_build(name, **kwargs)
        rec["trace_build_ms"] += (time.perf_counter() - started) * 1e3
        rec["trace_instructions"] += kernel.total_instructions
        return kernel

    def record(self, *a, **kw):
        started = time.perf_counter()
        try:
            return original_record(self, *a, **kw)
        finally:
            rec["db_record_ms"] += (time.perf_counter() - started) * 1e3

    def render(result):
        started = time.perf_counter()
        text = original_render(result)
        rec["render_ms"] += (time.perf_counter() - started) * 1e3
        return text

    original_make, repro.cli._make_runner = repro.cli._make_runner, \
        make_runner
    original_run, ExperimentRunner.run = ExperimentRunner.run, run
    original_simulate, ExperimentRunner._simulate = \
        ExperimentRunner._simulate, simulate
    original_build, runner_mod.build_workload = \
        runner_mod.build_workload, build
    original_record, ResultsDB.record = ResultsDB.record, record
    original_render, repro.cli.format_result = \
        repro.cli.format_result, render

    if args.setup_only:
        repro.cli._make_runner(repro.cli.make_parser().parse_args(cli_argv))
        for _ in range(SETUP_PROBES):
            take_probe()
        _write(args.out, rec)
        return 0

    if args.profile:
        from layerprof import LayerProfile
        profile = LayerProfile()

    captured = io.StringIO()
    code = 1
    try:
        with contextlib.redirect_stdout(captured):
            code = repro.cli.main(cli_argv)
    except Exception:
        rec["error"] = traceback.format_exc()
    rec["t_done"] = time.time()
    if profile is not None:
        profile.stop()
        rec["profile"] = profile.summary()
    rec["exit_code"] = code
    if runners:
        runner = runners[0]
        rec["engine"] = dict(runner.engine_counters)
        if runner.disk_cache is not None:
            rec["disk_cache"] = runner.disk_cache.stats()
        if runner.results_db is not None:
            runner.results_db.close()
    with open(args.out + ".stdout", "w") as handle:
        handle.write(captured.getvalue())
    _write(args.out, rec)
    return 0 if rec["error"] is None and code == 0 else 1


def _write(path: str, rec: dict) -> None:
    with open(path, "w") as handle:
        json.dump(rec, handle)


if __name__ == "__main__":
    sys.exit(main())
