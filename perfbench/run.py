#!/usr/bin/env python3
"""Benchmark of the G-TSC reproduction, end to end and layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-figures --seed 2018 \\
        --seconds 50 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen, and
why ``multigpu-cluster`` is not in ``BENCHMARK.json``):

* ``paper-figures``: ``gtsc-repro run --all`` at preset ``small``,
  scale 0.4, from an empty run cache and results db;
* ``multigpu-cluster``: ``gtsc-repro multigpu --gpus 2 4`` (PCX, ARX,
  NZP x G-TSC, TC, MESI) at preset ``small``, scale 1.0, empty cache
  and db;
* ``serve-zipf``: ``gtsc-repro serve --jobs 2`` on an ephemeral port
  with empty state, driven by one closed-loop load process with one
  client connection over a seeded zipf(1.1) mix; the server and the
  load process share one CPU.

Every process under test is a fresh interpreter started here, and all
of its state lives in a temporary directory under
``.perfbench_state/`` in the repository root.  ``--trace 0`` measures
the end-to-end metrics; ``--trace 1`` runs once untraced and once
under a per-thread profiler and reports the per-layer metrics.

The host is a share of a machine whose speed drifts by tens of percent
over minutes.  The process under test runs a fixed probe
(``hostprobe.py``) between its own steps, and every reported time is
scaled by ``PROBE_NOMINAL_S / probe time``: it reads as on a host of
constant speed.  The raw median wall time is printed beside it.  The
last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it repeat
every number with its unit, plus provenance.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import queue
import re
import shutil
import signal
import socket
import sqlite3
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Tuple

from hostprobe import PROBE_NOMINAL_S, SETUP_PROBES, probe

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
PYTHON = sys.executable

#: every run must end well inside the 180 s the harness allows
DEADLINE_S = 165.0
#: setup is sampled at least this many times per run (median reported)
SETUP_SAMPLES = 7
#: repeated passes per untraced run, at least (more if time allows)
MIN_PASSES = 2

SIM_WORKLOADS = {
    "paper-figures": {"argv": ["run", "--all"], "preset": "small",
                      "scale": 0.4},
    "multigpu-cluster": {"argv": ["multigpu", "--gpus", "2", "4"],
                         "preset": "small", "scale": 1.0},
}
WORKLOADS = list(SIM_WORKLOADS) + ["serve-zipf"]
SERVE = {"preset": "small", "scale": 0.4, "jobs": 2}

#: (name, unit) in the order printed; see BENCHMARK.json for bounds
END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("sim_instr_per_s", "1/s"),
    ("sim_cycles", "count"), ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

_SELF = ["sim.engine", "gpu.sm", "gpu.warp", "gpu.coalescer",
         "gpu.machine", "core.l1", "core.l2", "core.timestamps",
         "core.messages", "protocols.base", "protocols.tc",
         "protocols.plain", "protocols.mesi", "protocols.xgpu",
         "mem.cache", "mem.mshr", "mem.noc", "mem.dram",
         "multigpu.interlink", "multigpu.home", "multigpu.machine",
         "trace", "workloads", "stats", "energy", "validate", "obs",
         "harness", "db", "serve", "cli", "config", "lib", "wait"]
#: directories whose files split into several layers; the package
#: ``__init__`` and unlisted files go to the named default
_SPLIT_DEFAULT = {"sim": "sim.engine", "gpu": "gpu.machine",
                  "core": "core.messages", "protocols": "protocols.base",
                  "mem": "mem.cache", "multigpu": "multigpu.machine"}

PER_LAYER = (
    [("cli.import_ms", "ms"), ("cli.import_numpy_ms", "ms"),
     ("trace.build_ms", "ms"), ("trace.instructions", "count"),
     ("trace.overhead_pct", "%"),
     ("sim.engine.ns_per_event", "ns"), ("sim.events_fired", "count"),
     ("sim.events_scheduled", "count"),
     ("sim.events_cancelled", "count"),
     ("sim.events_per_instr", "ratio"),
     ("gpu.instructions", "count"), ("gpu.stall_mem_cycles", "count"),
     ("core.l1.hit_ratio", "ratio"), ("core.l1.renewals", "count"),
     ("core.l1.expired_misses", "count"),
     ("core.l2.hit_ratio", "ratio"),
     ("mem.noc.messages", "count"), ("mem.noc.bytes", "bytes"),
     ("mem.dram.accesses", "count"), ("mem.mshr.stalls", "count"),
     ("multigpu.interlink.bytes", "bytes"),
     ("multigpu.interlink.messages", "count"),
     ("multigpu.home.summarizations", "count"),
     ("harness.cache.hits", "count"), ("harness.cache.misses", "count"),
     ("harness.render_ms", "ms"), ("db.record_ms", "ms"),
     ("db.rows", "count"),
     ("serve.queue_wait_ms_mean", "ms"),
     ("serve.simulate_ms_mean", "ms"),
     ("serve.cache_hit_ratio", "ratio"), ("serve.cold_share", "ratio"),
     ("serve.coalesced", "count"), ("serve.executed", "count"),
     ("serve.rejected", "count"), ("serve.client_retries", "count")]
    + [(f"{layer}.self_ms", "ms") for layer in _SELF])


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a failed check)."""


def layer_of(key: str) -> str:
    """The layer a profiled file key (``gpu/sm.py``, ``lib``) belongs to."""
    if key == "wait":
        return "wait"
    if key in ("lib", "bench"):
        return "lib"
    head, _, tail = key.partition("/")
    if not tail:
        return {"cli.py": "cli", "config.py": "config"}.get(key, "cli")
    if head in _SPLIT_DEFAULT:
        name = f"{head}.{tail[:-3]}"
        if name == "protocols.factory":
            return "protocols.base"
        return name if name in _SELF else _SPLIT_DEFAULT[head]
    return head if head in _SELF else "lib"


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
class Bench:
    """Owns the run's temp state, its child processes and its deadline."""

    def __init__(self) -> None:
        self.state_dir = os.path.join(ROOT, ".perfbench_state")
        os.makedirs(self.state_dir, exist_ok=True)
        self.tmp_root = tempfile.mkdtemp(prefix="run-",
                                         dir=self.state_dir)
        self.procs: List[subprocess.Popen] = []
        self.deadline = time.monotonic() + DEADLINE_S
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, TMPDIR=self.tmp_root,
                        PYTHONPATH=SRC + (os.pathsep + path if path
                                          else ""))

    def tmpdir(self) -> str:
        return tempfile.mkdtemp(dir=self.tmp_root)

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run deadline exceeded")
        return left

    def spawn(self, cmd: List[str], cwd: str, **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(cmd, cwd=cwd, env=self.env, **kwargs)
        self.procs.append(proc)
        return proc

    def wait(self, proc: subprocess.Popen,
             timeout: Optional[float] = None) -> Tuple[int, float]:
        """Reap ``proc``; return (exit code, peak RSS in MB)."""
        limit = time.monotonic() + min(timeout or 1e9, self.remaining())
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage.ru_maxrss / 1024.0
            if time.monotonic() > limit:
                proc.kill()
                raise BenchError(f"{proc.args[1:3]} did not exit in time")
            time.sleep(0.01)

    def close(self) -> None:
        for proc in self.procs:
            if proc.returncode is None and proc.poll() is None:
                proc.kill()
                proc.wait()
        shutil.rmtree(self.tmp_root, ignore_errors=True)


# ----------------------------------------------------------------------
# provenance and cross-run work-count memory
# ----------------------------------------------------------------------
def source_fingerprint() -> str:
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _git(*args: str) -> Optional[str]:
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(workload: str, seed: int, trace: int) -> Dict:
    if workload in SIM_WORKLOADS:
        preset = SIM_WORKLOADS[workload]["preset"]
        scale = SIM_WORKLOADS[workload]["scale"]
    else:
        preset, scale = SERVE["preset"], SERVE["scale"]
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--", "src")
    return {"workload": workload, "seed": seed, "trace": trace,
            "preset": preset, "scale": scale, "commit": commit,
            "dirty": None if status is None else bool(status),
            "src_sha256": source_fingerprint(),
            "python": platform.python_version(),
            "nproc": os.cpu_count()}


def results_digest() -> Dict[str, str]:
    """sha256 of every committed ``results/*.txt`` (never written here)."""
    out = {}
    directory = os.path.join(ROOT, "results")
    if not os.path.isdir(directory):
        return out
    for name in sorted(os.listdir(directory)):
        if name.endswith(".txt"):
            with open(os.path.join(directory, name), "rb") as handle:
                out[name] = hashlib.sha256(handle.read()).hexdigest()
    return out


def remember_counts(bench: Bench, prov: Dict,
                    counts: Dict[str, int]) -> List[str]:
    """Compare work counts with every earlier run of this source+seed.

    Runs of one source tree and seed, traced or not, must count
    exactly the same simulated work; any drift is a failure.
    """
    path = os.path.join(bench.state_dir, "counts.json")
    try:
        with open(path) as handle:
            memory = json.load(handle)
    except (OSError, ValueError):
        memory = {}
    key = f"{prov['src_sha256']}|{prov['workload']}|{prov['seed']}"
    earlier = memory.get(key)
    if earlier is None:
        memory[key] = counts
        scratch = path + f".{os.getpid()}"
        with open(scratch, "w") as handle:
            json.dump(memory, handle, sort_keys=True)
        os.replace(scratch, path)
        return []
    return [f"work count {name}: {earlier.get(name)} in an earlier run, "
            f"{counts.get(name)} now"
            for name in sorted(set(earlier) | set(counts))
            if earlier.get(name) != counts.get(name)]


def import_times(bench: Bench) -> Tuple[float, float]:
    """Median ms to import ``repro.cli``, and its numpy share."""
    totals, numpys = [], []
    for _ in range(3):
        run = subprocess.run(
            [PYTHON, "-X", "importtime", "-c", "import repro.cli"],
            cwd=bench.tmpdir(), env=bench.env, capture_output=True,
            text=True, timeout=bench.remaining())
        total = numpy = 0
        for line in run.stderr.splitlines():
            fields = line.split("|")
            if len(fields) != 3 or not fields[1].strip().isdigit():
                continue
            name = fields[2]
            depth = (len(name) - len(name.lstrip()) - 1) // 2
            name = name.strip()
            if depth == 0 and (name == "repro"
                               or name.startswith("repro.")):
                total += int(fields[1])
            if name == "numpy" and not numpy:
                numpy = int(fields[1])
        totals.append(total / 1e3)
        numpys.append(numpy / 1e3)
    return statistics.median(totals), statistics.median(numpys)


def percentile(values: List[float], q: int) -> float:
    """The q-th percentile; 0 when a failed run left too few samples."""
    if len(values) < 2:
        return 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def host_factor(probe_s: float, probes: int) -> float:
    """How much slower than nominal the host ran; 1 without probes."""
    return probe_s / probes / PROBE_NOMINAL_S if probes else 1.0


def count_runs(db_path: str) -> int:
    """Rows in a results db; 0 if the process under test left none."""
    try:
        with sqlite3.connect(f"file:{db_path}?mode=ro", uri=True) as conn:
            return conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0]
    except sqlite3.Error:
        return 0


def more_passes(done: List[Dict], started: float, seconds: float) -> bool:
    """Start another pass only if it should end near the time budget."""
    if len(done) < MIN_PASSES:
        return True
    elapsed = time.monotonic() - started
    return elapsed + 0.5 * elapsed / len(done) < seconds


# ----------------------------------------------------------------------
# simulator workloads
# ----------------------------------------------------------------------
def sim_pass(bench: Bench, workload: str, seed: int,
             profile: bool = False, setup_only: bool = False) -> Dict:
    spec = SIM_WORKLOADS[workload]
    tmp = bench.tmpdir()
    out = os.path.join(tmp, "pass.json")
    cmd = [PYTHON, os.path.join(BENCH_DIR, "sim_child.py"), "--out", out]
    if profile:
        cmd.append("--profile")
    if setup_only:
        cmd.append("--setup-only")
    db_path = os.path.join(tmp, "repro.db")
    cmd += ["--", *spec["argv"], "--preset", spec["preset"],
            "--scale", str(spec["scale"]), "--seed", str(seed),
            "--cache-dir", os.path.join(tmp, "cache"), "--db", db_path]
    with open(os.path.join(tmp, "stderr.txt"), "w") as err:
        started = time.time()
        proc = bench.spawn(cmd, cwd=tmp, stdout=subprocess.DEVNULL,
                           stderr=err)
        code, rss = bench.wait(proc)
        wall = time.time() - started
    try:
        with open(out) as handle:
            rec = json.load(handle)
    except (OSError, ValueError):
        with open(os.path.join(tmp, "stderr.txt")) as handle:
            raise BenchError(f"{workload} pass wrote no record "
                             f"(exit {code}):\n{handle.read()[-2000:]}")
    if "t_ready" not in rec:
        raise BenchError(f"{workload} pass never built its runner: "
                         f"{(rec['error'] or '').strip()[-2000:]}")
    # every time is scaled to a host of constant speed (hostprobe.py);
    # a profiled pass does not probe and keeps its raw times
    host = host_factor(rec["probe_s"], rec["probes"])
    rec["latencies_ms"] = [ms / host for ms in rec["latencies_ms"]]
    rec.update(exit_code=code, rss_mb=rss, host=host,
               raw_wall_s=wall - rec["probe_wall_s"],
               wall_s=(wall - rec["probe_wall_s"]) / host,
               setup_s=(rec["t_ready"] - started) / host,
               sim_s=rec["sim_s"] / host)
    if not setup_only:
        with open(out + ".stdout") as handle:
            rec["stdout"] = handle.read()
        rec["db_rows"] = count_runs(db_path)
        rec["work_s"] = (rec["t_done"] - rec["t_ready"]
                         - rec["probe_wall_s"]) / host
    shutil.rmtree(tmp, ignore_errors=True)
    return rec


def sim_counts(rec: Dict) -> Dict[str, int]:
    """The pass's deterministic work counts (exactly repeatable)."""
    counts = dict(rec["counters"])
    counts.update(rec.get("engine", {}))
    counts.update(points=rec["points"], db_rows=rec["db_rows"],
                  trace_instructions=rec["trace_instructions"])
    return counts


def paper_gap_pp(text: str) -> Optional[float]:
    """Mean |reproduced - paper| of the headline table, in points."""
    block = text.split("== headline:", 1)
    if len(block) < 2:
        return None
    parts = block[1].split("\n\n", 2)
    if len(parts) < 2:
        return None
    gaps = []
    for line in parts[1].splitlines():
        tokens = line.split()
        try:
            paper, reproduced = float(tokens[-2]), float(tokens[-1])
        except (ValueError, IndexError):
            continue
        gaps.append(abs(reproduced - paper) * 100.0)
    return sum(gaps) / len(gaps) if gaps else None


def check_sim_passes(workload: str, seed: int,
                     passes: List[Dict]) -> Tuple[int, List[str]]:
    """Per-point and per-pass checks; returns (attempted, failures)."""
    failures: List[str] = []
    attempted = 0
    first = passes[0]
    for index, rec in enumerate(passes):
        attempted += rec["points"]
        failures += rec["warp_failures"]
        if rec["error"] or rec["exit_code"] != 0:
            failures.append(f"pass {index} failed: "
                            f"{(rec['error'] or '').strip()[-400:]}")
        attempted += 2
        if rec["stdout"] != first["stdout"]:
            failures.append(f"pass {index} printed different tables")
        counts, reference = sim_counts(rec), sim_counts(first)
        if counts != reference:
            failures += [f"pass {index} work count {name}: "
                         f"{reference.get(name)} vs {counts.get(name)}"
                         for name in sorted(set(counts) | set(reference))
                         if counts.get(name) != reference.get(name)]
    if workload == "paper-figures" and seed == 2018:
        # the committed tables were produced at seed 2018
        directory = os.path.join(ROOT, "results")
        for name in sorted(os.listdir(directory)):
            if not name.endswith(".txt"):
                continue
            attempted += 1
            with open(os.path.join(directory, name)) as handle:
                if handle.read() not in first["stdout"]:
                    failures.append(f"results/{name} not reproduced "
                                    f"verbatim")
    return attempted, failures


def point_latencies(passes: List[Dict]) -> List[float]:
    """Each fresh point's median latency over the run's passes.

    Every pass of one seed simulates the same points in the same order.
    Percentiles are taken across points of these per-point medians:
    pooling the raw samples instead puts the median on the edge between
    two groups of similar points, where it jumps from one to the other.
    """
    runs = [rec["latencies_ms"] for rec in passes]
    if len({len(run) for run in runs}) != 1:
        return [ms for run in runs for ms in run]
    return [statistics.median(samples) for samples in zip(*runs)]


def sim_layers(rec: Dict) -> Dict[str, float]:
    """Per-layer counts of one pass (no timings)."""
    c, e = rec["counters"], rec.get("engine", {})
    fired = e.get("engine_events_fired", 0)
    cache = rec.get("disk_cache", {})
    return {
        "trace.build_ms": rec["trace_build_ms"],
        "trace.instructions": rec["trace_instructions"],
        "sim.events_fired": fired,
        "sim.events_scheduled": e.get("engine_events_scheduled", 0),
        "sim.events_cancelled": e.get("engine_cancelled", 0),
        "sim.events_per_instr": ratio(fired, c.get("instructions", 0)),
        "harness.cache.hits": cache.get("hits", 0),
        "harness.cache.misses": cache.get("misses", 0),
        "harness.render_ms": rec["render_ms"],
        "db.record_ms": rec["db_record_ms"],
        "db.rows": rec["db_rows"],
        **counter_layers(c),
    }


def counter_layers(c: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics read from summed ``RunStats`` counters."""
    return {
        "gpu.instructions": c.get("instructions", 0),
        "gpu.stall_mem_cycles": c.get("stall_mem_cycles", 0),
        "core.l1.hit_ratio": ratio(c.get("l1_hit", 0),
                                   c.get("l1_access", 0)),
        "core.l1.renewals": c.get("l1_renewals", 0),
        "core.l1.expired_misses": c.get("l1_expired_miss", 0),
        "core.l2.hit_ratio": ratio(c.get("l2_hit", 0),
                                   c.get("l2_access", 0)),
        "mem.noc.messages": c.get("noc_messages", 0),
        "mem.noc.bytes": c.get("noc_bytes", 0),
        "mem.dram.accesses": c.get("dram_reads", 0)
        + c.get("dram_writes", 0),
        "mem.mshr.stalls": c.get("l1_mshr_stall", 0)
        + c.get("l2_mshr_stall", 0),
        "multigpu.interlink.bytes": c.get("interlink_bytes", 0),
        "multigpu.interlink.messages": c.get("interlink_messages", 0),
        "multigpu.home.summarizations":
            c.get("home_ts_summarizations", 0),
    }


def self_times(summary: Dict) -> Dict[str, float]:
    out = {f"{layer}.self_ms": 0.0 for layer in _SELF}
    for key, seconds in summary["files"].items():
        out[f"{layer_of(key)}.self_ms"] += seconds * 1e3
    return out


def run_sim(bench: Bench, workload: str, seed: int, seconds: float,
            trace: int) -> Dict:
    passes: List[Dict] = []
    started = time.monotonic()
    while not passes or (not trace
                         and more_passes(passes, started, seconds)):
        passes.append(sim_pass(bench, workload, seed))
    traced = sim_pass(bench, workload, seed, profile=True) if trace \
        else None
    setups = [rec["setup_s"] for rec in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(sim_pass(bench, workload, seed,
                               setup_only=True)["setup_s"])

    attempted, failures = check_sim_passes(
        workload, seed, passes + ([traced] if traced else []))
    first = passes[0]
    latencies = point_latencies(passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in passes),
        "sim_instr_per_s": statistics.median(
            ratio(r["counters"].get("instructions", 0), r["sim_s"])
            for r in passes),
        "sim_cycles": first["counters"].get("cycles", 0),
        "jobs_per_s": statistics.median(
            ratio(r["points"], r["work_s"]) for r in passes),
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p90_ms": percentile(latencies, 90),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in passes),
    }
    extra = {"passes": len(passes), "points": first["points"],
             "latency_points": len(latencies),
             "raw_wall_s": statistics.median(r["raw_wall_s"]
                                             for r in passes),
             "host_factor": statistics.median(r["host"] for r in passes)}
    gap = paper_gap_pp(first["stdout"])
    if gap is not None:
        extra["paper_gap_pp"] = gap
    layers = {}
    if traced:
        layers = sim_layers(first)
        layers.update(self_times(traced["profile"]))
        layers["sim.engine.ns_per_event"] = ratio(
            layers["sim.engine.self_ms"] * 1e6, layers["sim.events_fired"])
        layers["trace.overhead_pct"] = (
            traced["raw_wall_s"] / first["raw_wall_s"] - 1.0) * 100.0
        extra["traced_wall_s"] = traced["raw_wall_s"]
    return {"metrics": metrics, "layers": layers, "extra": extra,
            "attempted": attempted, "failures": failures,
            "counts": sim_counts(first)}


# ----------------------------------------------------------------------
# serve-zipf
# ----------------------------------------------------------------------
class LineReader:
    """Lines of a child's stdout, readable with a timeout."""

    def __init__(self, stream) -> None:
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.thread = threading.Thread(target=self._pump, args=(stream,),
                                       daemon=True)
        self.thread.start()

    def _pump(self, stream) -> None:
        for line in stream:
            self.lines.put(line)
        self.lines.put(None)

    def json(self, bench: Bench) -> Dict:
        try:
            line = self.lines.get(timeout=bench.remaining())
        except queue.Empty:
            raise BenchError("load process stalled") from None
        if line is None:
            raise BenchError("load process exited early")
        return json.loads(line)


def _request(port: int, payload: Dict, timeout: float = 2.0) -> Dict:
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=timeout) as sock:
        sock.sendall(json.dumps(payload).encode() + b"\n")
        with sock.makefile("rb") as stream:
            return json.loads(stream.readline())


def start_server(bench: Bench, tmp: str,
                 profile_out: Optional[str] = None):
    """Spawn ``repro serve`` with empty state; return it once healthy."""
    cmd = [PYTHON]
    if profile_out:
        cmd += [os.path.join(BENCH_DIR, "profiled.py"), profile_out]
    cmd += ["-m", "repro.cli", "serve", "--host", "127.0.0.1",
            "--port", "0", "--jobs", str(SERVE["jobs"]),
            "--state-dir", os.path.join(tmp, "state"),
            "--cache-dir", os.path.join(tmp, "cache"),
            "--db", os.path.join(tmp, "repro.db")]
    log_path = os.path.join(tmp, "server.log")
    log = open(log_path, "w")
    started = time.time()
    proc = bench.spawn(cmd, cwd=tmp, stdout=subprocess.DEVNULL,
                       stderr=log)
    log.close()
    port = None
    while port is None:
        bench.remaining()
        if proc.poll() is not None:
            with open(log_path) as handle:
                raise BenchError(f"server exited:\n{handle.read()}")
        with open(log_path) as handle:
            found = re.search(r"listening on [\d.]+:(\d+)", handle.read())
        if found:
            port = int(found.group(1))
        else:
            time.sleep(0.005)
    while True:
        bench.remaining()
        try:
            if _request(port, {"v": 1, "op": "healthz"}).get("ok"):
                break
        except (OSError, ValueError):
            time.sleep(0.005)
    return proc, port, started, time.time() - started


def stop_server(bench: Bench, proc, started: float) -> Tuple[float, float]:
    proc.send_signal(signal.SIGTERM)
    code, rss = bench.wait(proc, timeout=30)
    if code != 0:
        raise BenchError(f"server exited {code} after SIGTERM")
    return time.time() - started, rss


def serve_session(bench: Bench, load, reader: LineReader,
                  profile: bool = False) -> Dict:
    tmp = bench.tmpdir()
    profile_out = os.path.join(tmp, "profile.json") if profile else None
    proc, port, started, setup = start_server(bench, tmp, profile_out)
    load.stdin.write(f"{port}\n")
    load.stdin.flush()
    outcome = reader.json(bench)
    wall, rss = stop_server(bench, proc, started)
    # the client probes the host between its submits (load.py)
    host = host_factor(outcome["probe_s"], outcome["probes"])
    wall -= outcome["probe_wall_s"]
    outcome["db_rows"] = count_runs(os.path.join(tmp, "repro.db"))
    if profile_out:
        with open(profile_out) as handle:
            outcome["profile"] = json.load(handle)
    shutil.rmtree(tmp, ignore_errors=True)
    outcome.update(setup_s=setup / host, wall_s=wall / host,
                   raw_wall_s=wall, load_s=outcome["load_s"] / host,
                   latencies_ms=[ms / host
                                 for ms in outcome["latencies_ms"]],
                   host=host, rss_mb=rss)
    return outcome


def run_serve(bench: Bench, seed: int, seconds: float,
              trace: int) -> Dict:
    # the server and its client share one CPU: a reply wakes its
    # reader on the CPU it was sent from, and the client's probes see
    # the CPU the server ran on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    load = bench.spawn(
        [PYTHON, os.path.join(BENCH_DIR, "load.py"), "--seed", str(seed),
         "--preset", SERVE["preset"], "--scale", str(SERVE["scale"])],
        cwd=bench.tmpdir(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        text=True)
    reader = LineReader(load.stdout)
    plan = reader.json(bench)
    sessions: List[Dict] = []
    started = time.monotonic()
    while not sessions or (not trace
                           and more_passes(sessions, started, seconds)):
        sessions.append(serve_session(bench, load, reader))
    traced = serve_session(bench, load, reader, profile=True) if trace \
        else None
    load.stdin.close()
    checked = reader.json(bench)
    code, _ = bench.wait(load, timeout=60)
    if code != 0:
        raise BenchError(f"load process exited {code}")
    setups = [s["setup_s"] for s in sessions]
    while len(setups) < SETUP_SAMPLES:
        proc, _port, began, setup = start_server(bench, bench.tmpdir())
        host = host_factor(sum(probe() for _ in range(SETUP_PROBES)),
                           SETUP_PROBES)
        stop_server(bench, proc, began)
        setups.append(setup / host)

    failures = list(checked["failures"])
    attempted = checked["attempted"]
    everything = sessions + ([traced] if traced else [])
    for index, s in enumerate(everything):
        snap = s["metrics"]["snapshot"]
        attempted += s["ok"] + s["failed"] + 1
        failures += [f"session {index}: {e}" for e in s["errors"]]
        # one failure per reply, one line per session
        failures += [f"session {index}: a reply differs from the first "
                     f"reply of its key"] * s["mismatched"]
        if snap["executed"] != plan["pool"]:
            failures.append(f"session {index}: {snap['executed']} "
                            f"simulations for {plan['pool']} distinct "
                            f"points")
    totals = checked["totals"]
    latencies = [ms for s in sessions for ms in s["latencies_ms"]]

    def histogram(s: Dict, name: str) -> Dict:
        return s["metrics"]["latency"].get(name, {})

    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(s["wall_s"] for s in sessions),
        "sim_instr_per_s": statistics.median(
            ratio(totals.get("instructions", 0),
                  histogram(s, "job_simulate_ms").get("sum_ms", 0)
                  / 1e3 / s["host"])
            for s in sessions),
        "sim_cycles": totals.get("cycles", 0),
        "jobs_per_s": statistics.median(
            ratio(s["ok"], s["load_s"]) for s in sessions),
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p90_ms": percentile(latencies, 90),
        "peak_rss_mb": statistics.median(s["rss_mb"] for s in sessions),
    }
    first = sessions[0]
    snap = first["metrics"]["snapshot"]
    extra = {"sessions": len(sessions), "pool": plan["pool"],
             "submits_per_session": plan["submits"],
             "latency_samples": len(latencies),
             "raw_wall_s": statistics.median(s["raw_wall_s"]
                                             for s in sessions),
             "host_factor": statistics.median(s["host"] for s in sessions),
             "cold_share": ratio(snap["executed"], snap["submits"])}
    counts = dict(totals, distinct=checked["distinct"],
                  executed=snap["executed"])
    layers = {}
    if traced:
        layers = counter_layers(totals)
        layers.update(self_times(traced["profile"]))
        cumulative = traced["profile"]["cumulative"]
        layers.update({
            "trace.instructions": totals["trace_instructions"],
            "trace.build_ms": cumulative.get(
                "workloads/__init__.py:build_workload", 0.0) * 1e3,
            "trace.overhead_pct":
                (traced["raw_wall_s"] / first["raw_wall_s"] - 1.0) * 100.0,
            "harness.cache.hits": snap.get("cache_hits", 0),
            "harness.cache.misses": snap.get("cache_misses", 0),
            "db.record_ms": sum(
                cumulative.get(f"db/store.py:{name}", 0.0)
                for name in ("record", "flush", "close")) * 1e3,
            "db.rows": first["db_rows"],
            "serve.queue_wait_ms_mean":
                histogram(first, "job_queue_wait_ms").get("mean_ms", 0.0),
            "serve.simulate_ms_mean":
                histogram(first, "job_simulate_ms").get("mean_ms", 0.0),
            "serve.cache_hit_ratio": ratio(snap["cache_hits"],
                                           snap["submits"]),
            "serve.cold_share": extra["cold_share"],
            "serve.coalesced": snap["coalesced"],
            "serve.executed": snap["executed"],
            "serve.rejected": snap["rejected"],
            "serve.client_retries": first["retries"],
        })
        extra["traced_wall_s"] = traced["raw_wall_s"]
    return {"metrics": metrics, "layers": layers, "extra": extra,
            "attempted": attempted, "failures": failures,
            "counts": counts}


# ----------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"no program to measure: {SRC}/repro/cli.py is missing",
              file=sys.stderr)
        return 2

    # a SIGTERM unwinds through bench.close(), which stops every child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    prov = provenance(args.workload, args.seed, args.trace)
    before = results_digest()
    bench = Bench()
    try:
        # compile bytecode once, so no measured setup pays for it
        subprocess.run([PYTHON, "-c", "import repro.cli, repro.serve"],
                       cwd=bench.tmpdir(), env=bench.env, check=True,
                       timeout=bench.remaining())
        if args.workload == "serve-zipf":
            out = run_serve(bench, args.seed, args.seconds, args.trace)
        else:
            out = run_sim(bench, args.workload, args.seed, args.seconds,
                          args.trace)
        if args.trace:
            out["layers"]["cli.import_ms"], \
                out["layers"]["cli.import_numpy_ms"] = import_times(bench)
    except (BenchError, subprocess.SubprocessError, OSError) as error:
        print(f"benchmark could not run: {error}", file=sys.stderr)
        return 1
    finally:
        bench.close()

    failures = out["failures"]
    failures += remember_counts(bench, prov, out["counts"])
    attempted = out["attempted"] + 1
    if results_digest() != before:
        failures.append("results/*.txt changed during the run")

    if args.trace:
        names = PER_LAYER
        values = {name: out["layers"].get(name, 0.0) for name, _ in names}
    else:
        names = END_TO_END
        values = out["metrics"]
    failed = min(len(failures), attempted)
    failed_frac = failed / attempted
    report = {"provenance": prov, "metrics": values, "extra": out["extra"],
              "failed_frac": failed_frac, "failures": failures,
              "counts": out["counts"]}
    reports = os.path.join(bench.state_dir, "reports")
    os.makedirs(reports, exist_ok=True)
    with open(os.path.join(reports, f"{args.workload}-seed{args.seed}-"
                                    f"trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    print("provenance: " + " ".join(f"{k}={v}" for k, v in prov.items()))
    for failure, count in collections.Counter(failures).items():
        print(f"FAILED: {failure}" + (f" (x{count})" if count > 1 else ""))
    for name, unit in names:
        print(f"{name:32s} {values[name]:>16.6g} {unit}")
    for name, value in sorted(out["extra"].items()):
        print(f"{name:32s} {value:>16.6g}")
    print(f"{'failed_frac':32s} {failed_frac:>16.6g} ratio")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in names}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
