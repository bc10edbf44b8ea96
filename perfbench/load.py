"""Closed-loop load process for the ``serve-zipf`` workload.

Usage::

    python perfbench/load.py --seed N --preset P --scale S

Talks line-JSON with the parent over stdin/stdout:

* it prints ``{"ready": true}`` once imported;
* for every port the parent writes on stdin it runs one session: the
  seeded request sequence goes over one persistent
  :class:`ServeClient` connection, each submit sent only when the
  previous reply arrived.  Submit-to-result latency is timed here, at
  the client.  Between two submits, once ``PROBE_EVERY_S`` have passed
  since the last probe, it runs :func:`hostprobe.probe` and tallies
  its CPU and wall seconds; the load time it reports leaves the probes
  out.  After the sequence it reads the server's ``metrics`` op and
  prints one line;
* on end of input it checks every reply (see :func:`check`) and
  prints the final line.

The pool is 12 workloads x {gtsc, tc} x {sc, rc} x 2 workload seeds at
the given preset and scale.  The sequence asks for every pool point
once (the cold set) plus ``6 x pool`` draws from a zipf(1.1)
popularity over a seeded ranking of the pool, shuffled together.
Requesting every point once pins the cold set: the simulated work, and
so ``sim_cycles``, is the whole pool on every seed, and the cold share
is the pool over the submits.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import Dict, List, Tuple

from repro.config import Consistency, Protocol
from repro.gpu.gpu import run_kernel
from repro.serve import ServeClient, ServeError, ServeUnavailable
from repro.serve.schema import make_spec, spec_config
from repro.stats.collector import RunStats
from repro.workloads import ALL_NAMES, build_workload

from hostprobe import PROBE_EVERY_S, probe

ZIPF_S = 1.1
DRAWS_PER_POINT = 6
WORKLOAD_SEEDS = 2
CHECK_SAMPLE = 8


def make_pool(seed: int, preset: str, scale: float) -> List[Dict]:
    return [make_spec(name, protocol=protocol.value,
                      consistency=consistency.value, preset=preset,
                      scale=scale, seed=seed + offset)
            for offset in range(WORKLOAD_SEEDS)
            for name in ALL_NAMES
            for protocol in (Protocol.GTSC, Protocol.TC)
            for consistency in (Consistency.SC, Consistency.RC)]


def make_sequence(pool: List[Dict], rng: random.Random) -> List[int]:
    ranking = list(range(len(pool)))
    rng.shuffle(ranking)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(pool))]
    draws = rng.choices(ranking, weights=weights,
                        k=DRAWS_PER_POINT * len(pool))
    sequence = list(range(len(pool))) + draws
    rng.shuffle(sequence)
    return sequence


def same_stats(a: Dict, b: Dict) -> bool:
    """Whether two replies carry the same ``RunStats``.

    Compared as rebuilt objects, not as envelopes: the envelope's
    derived ``total_energy_j`` sums the energy dict in its stored
    order, which a round trip through the sorted-JSON result store
    changes, so it can differ in the last bits between a fresh result
    and a cache hit of the same run.
    """
    return a["stats"] == b["stats"] or \
        RunStats.from_dict(a["stats"]) == RunStats.from_dict(b["stats"])


def session(port: int, pool: List[Dict],
            sequence: List[int]) -> Tuple[Dict, Dict[str, Dict]]:
    """Drive one server through the whole sequence; return the tallies."""
    latencies: List[float] = []
    replies: Dict[str, Dict] = {}
    outcome = {"ok": 0, "failed": 0, "mismatched": 0, "errors": [],
               "probes": 0, "probe_s": 0.0, "probe_wall_s": 0.0}
    started = last_probe = time.perf_counter()
    with ServeClient(port=port, timeout=60.0, retries=5) as client:
        for index in sequence:
            now = time.perf_counter()
            if now - last_probe >= PROBE_EVERY_S:
                outcome["probe_s"] += probe()
                outcome["probes"] += 1
                last_probe = time.perf_counter()
                outcome["probe_wall_s"] += last_probe - now
            spec = pool[index]
            submitted = time.perf_counter()
            try:
                reply = client.submit(spec)
            except (ServeError, ServeUnavailable) as error:
                outcome["failed"] += 1
                outcome["errors"].append(str(error))
                continue
            latencies.append((time.perf_counter() - submitted) * 1e3)
            outcome["ok"] += 1
            first = replies.setdefault(reply["key"], reply)
            if reply["spec"] != spec or not same_stats(first, reply):
                outcome["mismatched"] += 1
            elif reply.get("cached"):
                # keep a reused reply for the spot check
                replies[reply["key"]] = reply
        load_s = time.perf_counter() - started - outcome["probe_wall_s"]
        outcome["retries"] = client.retries_used
        metrics = client.metrics()
    outcome.update(load_s=load_s, latencies_ms=latencies,
                   metrics={"snapshot": metrics["snapshot"],
                            "latency": metrics["latency"]})
    return outcome, replies


def check(pool: List[Dict], sessions: List[Dict[str, Dict]],
          rng: random.Random) -> Dict:
    """Exactness checks over every reply of every session.

    * the same key answers the same stats in every session;
    * every point retires all the warps its kernel launches;
    * a seeded sample of replies (cache hits where the key had one),
      rebuilt with ``RunStats.from_dict``, equals a local
      ``run_kernel`` of the same spec.
    """
    failures: List[str] = []
    attempted = 0
    merged: Dict[str, Dict] = {}
    for replies in sessions:
        for key, reply in replies.items():
            attempted += 1
            first = merged.setdefault(key, reply)
            if not same_stats(first, reply):
                failures.append(f"{key[:12]}: stats differ across "
                                f"sessions")
    kernels = {}
    totals: Dict[str, int] = {"trace_instructions": 0}
    for key, reply in sorted(merged.items()):
        spec = reply["spec"]
        ident = (spec["workload"], spec["seed"])
        if ident not in kernels:
            kernels[ident] = build_workload(spec["workload"],
                                            scale=spec["scale"],
                                            seed=spec["seed"])
            totals["trace_instructions"] += \
                kernels[ident].total_instructions
        stats = reply["stats"]
        attempted += 1
        launched = kernels[ident].num_warps
        retired = stats["counters"].get("warps_retired", 0)
        if retired != launched:
            failures.append(f"{spec['workload']} seed {spec['seed']}: "
                            f"{retired}/{launched} warps retired")
        totals["cycles"] = totals.get("cycles", 0) + stats["cycles"]
        for name, value in stats["counters"].items():
            if name != "cycles":
                totals[name] = totals.get(name, 0) + value
    sample = rng.sample(sorted(merged), min(CHECK_SAMPLE, len(merged)))
    for key in sample:
        reply = merged[key]
        spec = reply["spec"]
        attempted += 1
        kernel = kernels[(spec["workload"], spec["seed"])]
        local = run_kernel(spec_config(spec), kernel,
                           record_accesses=False)
        if RunStats.from_dict(reply["stats"]) != local:
            failures.append(f"{spec['workload']} {spec['protocol']}-"
                            f"{spec['consistency']} seed {spec['seed']}: "
                            f"served stats differ from a local run")
    expected = len(pool)
    attempted += 1
    if len(merged) != expected:
        failures.append(f"{len(merged)} distinct keys answered, "
                        f"pool has {expected}")
    return {"attempted": attempted, "failures": failures,
            "distinct": len(merged), "totals": totals}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--preset", required=True)
    parser.add_argument("--scale", type=float, required=True)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    pool = make_pool(args.seed, args.preset, args.scale)
    sequence = make_sequence(pool, rng)
    print(json.dumps({"ready": True, "pool": len(pool),
                      "submits": len(sequence)}), flush=True)
    sessions = []
    for line in sys.stdin:
        port = int(line)
        outcome, replies = session(port, pool, sequence)
        sessions.append(replies)
        print(json.dumps(outcome), flush=True)
    print(json.dumps(check(pool, sessions, rng)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
