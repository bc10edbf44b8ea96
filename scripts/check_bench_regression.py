#!/usr/bin/env python
"""Compare a pytest-benchmark JSON result against the committed baseline.

Usage:
    python scripts/check_bench_regression.py RESULT.json [BASELINE.json]

Exits non-zero when any benchmark's best (min) time regressed by more
than its tolerance over the baseline's best time.  Tolerances are
per-benchmark (``TOLERANCES`` below): long, simulation-dominated
benchmarks have stable minima and get a tight bound, while
wall-clock-sensitive ones (the serve benchmarks cross a real TCP
socket) get slack proportional to their observed jitter.  Names not
listed use ``REPRO_BENCH_TOLERANCE`` (a fraction, default 30%); the
environment variable also serves as an emergency loosening knob for
known-noisy runners, but never *tightens* a listed bound.

Minimum-of-rounds is compared rather than the mean because it is the
most noise-robust statistic a short benchmark produces; the
tolerances absorb the remaining machine-to-machine variance between
the host that produced ``benchmarks/BENCH_baseline.json`` and CI
runners.  Benchmarks present in only one file are reported but do not
fail the check, so adding or retiring a benchmark does not require a
lockstep baseline update.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / \
    "benchmarks" / "BENCH_baseline.json"

#: Per-benchmark regression tolerance (fraction over baseline min).
TOLERANCES = {
    # matrix sweep: ~150 ms of pure simulation, the most stable min in
    # the suite and the headline number perf PRs are judged on
    "test_matrix_sweep_throughput": 0.20,
    # single-simulation points: one tiny-preset run per round
    "test_simulation_throughput[Protocol.GTSC]": 0.25,
    "test_simulation_throughput[Protocol.TC]": 0.25,
    "test_simulation_throughput[Protocol.DISABLED]": 0.25,
    # engine microbenchmarks: short but allocation-free and steady
    "test_event_engine_throughput": 0.25,
    "test_engine_schedule_cancel_churn": 0.25,
    # packed-state microbenchmark: a pure-Python inner loop over
    # preallocated arrays, very steady minima
    "test_scheduler_ready_mask": 0.25,
    # multi-GPU cluster points: same simulation-dominated profile as
    # the single-GPU points above, just over the interlinked machine
    "test_multigpu_simulation_throughput[2gpu]": 0.25,
    "test_multigpu_simulation_throughput[4gpu]": 0.25,
    "test_multigpu_interlink_traffic": 0.25,
    # serve path: crosses a real TCP socket, scheduler-sensitive
    "test_submit_latency_cold": 0.50,
    "test_submit_latency_cached": 0.60,
    "test_submit_latency_coalesced": 0.50,
    # fleet load benchmarks: whole-fleet wall clock across worker
    # *subprocesses* — process scheduling and core count dominate the
    # jitter, so these get the loosest bounds in the suite
    "test_fleet_cold_throughput[1w]": 0.60,
    "test_fleet_cold_throughput[2w]": 0.60,
    "test_fleet_cold_throughput[4w]": 0.60,
    "test_fleet_zipf_load": 0.60,
}


def load_mins(path: Path) -> dict[str, float]:
    with open(path) as handle:
        data = json.load(handle)
    return {bench["name"]: bench["stats"]["min"]
            for bench in data["benchmarks"]}


def main(argv: list[str]) -> int:
    if len(argv) < 2 or len(argv) > 3:
        print(__doc__)
        return 2
    result_path = Path(argv[1])
    baseline_path = Path(argv[2]) if len(argv) == 3 else DEFAULT_BASELINE
    override = os.environ.get("REPRO_BENCH_TOLERANCE")
    fallback = float(override) if override is not None else 0.30

    result = load_mins(result_path)
    baseline = load_mins(baseline_path)

    failed = []
    for name in sorted(set(result) | set(baseline)):
        new = result.get(name)
        old = baseline.get(name)
        if new is None or old is None:
            side = "baseline" if new is None else "result"
            print(f"  SKIP {name}: only in {side}")
            continue
        tolerance = TOLERANCES.get(name, fallback)
        if override is not None:
            # explicit env knob loosens any bound, never tightens one
            tolerance = max(tolerance, fallback)
        ratio = new / old
        status = "ok"
        if ratio > 1.0 + tolerance:
            status = "REGRESSED"
            failed.append(name)
        print(f"  {status:>9} {name}: {old * 1e3:.2f} ms -> "
              f"{new * 1e3:.2f} ms ({ratio:.2f}x, "
              f"tol {tolerance:.0%})")

    if failed:
        print(f"\n{len(failed)} benchmark(s) regressed past their "
              f"tolerance: {', '.join(failed)}")
        return 1
    print("\nAll shared benchmarks within tolerance of the baseline.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
