"""Tests for run-result persistence and the on-disk run cache.

A cached run is only usable if (a) the RunStats<->JSON round trip is
exact, (b) the key covers every parameter that changes the result, and
(c) damaged files degrade to re-simulation, never to wrong data.
"""

import dataclasses
import enum
import io
import json
import os

import pytest

import repro
from repro.config import Consistency, GPUConfig, Protocol
from repro.gpu.gpu import GPU
from repro.harness.cache import RunCache, run_key
from repro.harness.runner import ExperimentRunner
from repro.stats.collector import RunStats
from repro.stats.histogram import Histogram
from repro.trace.instr import Kernel, fence, load, store


def small_run() -> RunStats:
    """A real simulation small enough for a unit test, with at least
    one populated histogram."""
    config = GPUConfig.tiny()
    kernel = Kernel("rt", [
        [load(0), store(1), load(2), fence()],
        [load(1), store(0), fence()],
    ])
    return GPU(config).run(kernel)


# ---------------------------------------------------------------------------
# serialisation round trip
# ---------------------------------------------------------------------------

def test_histogram_round_trip_is_exact():
    histogram = Histogram("lat")
    for value in (0, 1, 3, 9, 100, 100, 5000):
        histogram.add(value)
    data = json.loads(json.dumps(histogram.to_dict()))
    rebuilt = Histogram.from_dict("lat", data)
    assert rebuilt == histogram
    assert rebuilt.mean == histogram.mean
    assert rebuilt.percentile(0.99) == histogram.percentile(0.99)
    assert list(rebuilt.buckets()) == list(histogram.buckets())


def test_runstats_round_trip_is_exact():
    stats = small_run()
    assert stats.histograms, "test run should populate histograms"
    data = json.loads(json.dumps(stats.to_dict()))
    rebuilt = RunStats.from_dict(data)
    assert rebuilt == stats            # dataclass equality, all fields
    assert rebuilt.total_energy == stats.total_energy


# ---------------------------------------------------------------------------
# key construction
# ---------------------------------------------------------------------------

def _perturb(value):
    """A different-but-valid value for any config field."""
    if isinstance(value, enum.Enum):
        members = list(type(value))
        return members[(members.index(value) + 1) % len(members)]
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        # doubling keeps the size-multiple invariants valid
        return value * 2 if value else 1
    if isinstance(value, float):
        return value * 2 + 1
    raise TypeError(f"unhandled field type {type(value)!r}")


def test_key_changes_when_any_config_field_changes():
    config = GPUConfig.tiny()
    base = run_key(config, "BFS", 0.5, 2018)
    for field in dataclasses.fields(config):
        old = getattr(config, field.name)
        changed = config.with_changes(**{field.name: _perturb(old)})
        assert run_key(changed, "BFS", 0.5, 2018) != base, field.name


def test_key_changes_with_workload_scale_seed_and_version(monkeypatch):
    config = GPUConfig.tiny()
    base = run_key(config, "BFS", 0.5, 2018)
    assert run_key(config, "STN", 0.5, 2018) != base
    assert run_key(config, "BFS", 0.4, 2018) != base
    assert run_key(config, "BFS", 0.5, 2019) != base
    monkeypatch.setattr(repro, "__version__",
                        repro.__version__ + "+dev")
    assert run_key(config, "BFS", 0.5, 2018) != base


# ---------------------------------------------------------------------------
# cache behaviour
# ---------------------------------------------------------------------------

def test_cache_hit_returns_identical_stats(tmp_path):
    cache = RunCache(str(tmp_path))
    stats = small_run()
    cache.put("k1", stats)
    restored = cache.get("k1")
    assert restored == stats
    report = cache.stats()
    assert report["hits"] == 1 and report["misses"] == 0
    assert report["entries"] == 1 and report["bytes"] > 0


def test_entry_file_is_one_sorted_json_dumps_of_the_payload(tmp_path):
    cache = RunCache(str(tmp_path))
    stats = small_run()
    cache.put("k1", stats)
    with open(tmp_path / "k1.json", encoding="utf-8") as handle:
        written = handle.read()
    assert written == json.dumps(stats.to_dict(), sort_keys=True)
    # the same bytes the streaming json.dump would have produced
    streamed = io.StringIO()
    json.dump(stats.to_dict(), streamed, sort_keys=True)
    assert written == streamed.getvalue()


def test_cache_hit_totals_the_same_energy_as_the_fresh_run(tmp_path):
    """Stores do not keep the energy dict's order (the run cache writes
    key-sorted JSON, the results db reads rows back in its own order)
    and float addition is not associative: a stored result must sum
    its energy in the fresh run's order."""
    from repro.db.store import ResultsDB
    from repro.workloads import ALL_NAMES

    runner = ExperimentRunner(preset="tiny", scale=0.2, seed=7)
    cache = RunCache(str(tmp_path / "cache"))
    db = ResultsDB(str(tmp_path / "repro.db"))
    for workload in ALL_NAMES:
        for protocol in (Protocol.GTSC, Protocol.TC, Protocol.DISABLED):
            fresh = runner.run(workload, protocol, Consistency.RC)
            key = f"{workload}-{protocol.value}"
            cache.put(key, fresh)
            db.record(key, fresh, spec={"workload": workload},
                      source="runner")
            for stored in (cache.get(key), db.get_stats(key)):
                assert list(stored.energy) == list(fresh.energy), key
                assert stored.total_energy == fresh.total_energy, key
    db.close()


def test_corrupted_cache_file_is_a_miss(tmp_path):
    cache = RunCache(str(tmp_path))
    cache.put("k1", small_run())
    with open(cache._path("k1"), "w") as handle:
        handle.write("{not json at all")
    assert cache.get("k1") is None
    assert cache.misses == 1


def test_missing_directory_is_a_miss_not_an_error(tmp_path):
    cache = RunCache(str(tmp_path / "never-created"))
    assert cache.get("whatever") is None


# ---------------------------------------------------------------------------
# runner integration
# ---------------------------------------------------------------------------

def test_runner_reuses_disk_cache_across_instances(tmp_path):
    cache_dir = str(tmp_path / "runcache")
    first = ExperimentRunner(preset="tiny", scale=0.3, seed=7,
                             cache_dir=cache_dir)
    cold = first.run("BFS", Protocol.GTSC, Consistency.RC)
    assert first.simulations_run == 1

    second = ExperimentRunner(preset="tiny", scale=0.3, seed=7,
                              cache_dir=cache_dir)
    warm = second.run("BFS", Protocol.GTSC, Consistency.RC)
    assert second.simulations_run == 0      # zero simulations on hit
    assert warm == cold


def test_warm_sweep_performs_zero_simulations(tmp_path):
    from repro.harness.sweeps import sweep
    cache_dir = str(tmp_path / "runcache")

    def run_sweep(runner):
        return sweep(runner, workloads=["BFS"], parameter="lease",
                     values=[8, 12], protocol=Protocol.GTSC,
                     consistency=Consistency.RC)

    first = ExperimentRunner(preset="tiny", scale=0.3, seed=7,
                             cache_dir=cache_dir)
    cold = run_sweep(first)
    assert first.simulations_run == 2

    second = ExperimentRunner(preset="tiny", scale=0.3, seed=7,
                              cache_dir=cache_dir)
    warm = run_sweep(second)
    assert second.simulations_run == 0
    assert warm.data == cold.data


def test_corrupt_entry_causes_resimulation(tmp_path):
    cache_dir = str(tmp_path / "runcache")
    first = ExperimentRunner(preset="tiny", scale=0.3, seed=7,
                             cache_dir=cache_dir)
    cold = first.run("BFS", Protocol.GTSC, Consistency.RC)
    # the dir also holds the traces/ subcache; corrupt the run entry
    entries = [e for e in os.listdir(cache_dir) if e.endswith(".json")]
    assert len(entries) == 1
    with open(os.path.join(cache_dir, entries[0]), "w") as handle:
        handle.write("garbage")

    second = ExperimentRunner(preset="tiny", scale=0.3, seed=7,
                              cache_dir=cache_dir)
    again = second.run("BFS", Protocol.GTSC, Consistency.RC)
    assert second.simulations_run == 1      # quietly re-simulated
    assert again == cold

    # ... and the fresh result repaired the cache entry
    third = ExperimentRunner(preset="tiny", scale=0.3, seed=7,
                             cache_dir=cache_dir)
    third.run("BFS", Protocol.GTSC, Consistency.RC)
    assert third.simulations_run == 0


def test_cacheless_runner_still_memoises_in_memory():
    runner = ExperimentRunner(preset="tiny", scale=0.3, seed=7)
    first = runner.run("BFS", Protocol.GTSC, Consistency.RC)
    second = runner.run("BFS", Protocol.GTSC, Consistency.RC)
    assert first is second
    assert runner.simulations_run == 1


def test_corrupt_entry_warns_with_the_offending_path(tmp_path):
    cache = RunCache(str(tmp_path))
    cache.put("k1", small_run())
    path = cache._path("k1")
    with open(path, "w") as handle:
        handle.write("{not json at all")
    with pytest.warns(RuntimeWarning,
                      match=r"corrupt run-cache entry .*k1"):
        assert cache.get("k1") is None


def test_truncated_entry_warns_too(tmp_path):
    cache = RunCache(str(tmp_path))
    cache.put("k1", small_run())
    with open(cache._path("k1"), "w") as handle:
        handle.write('{"cycles": 5}')      # valid JSON, not a RunStats
    with pytest.warns(RuntimeWarning, match="re-simulating"):
        assert cache.get("k1") is None
    report = cache.stats()
    assert report["hits"] == 0 and report["misses"] == 1


def test_ordinary_miss_does_not_warn(tmp_path, recwarn):
    cache = RunCache(str(tmp_path))
    assert cache.get("never-written") is None
    assert not [w for w in recwarn.list
                if issubclass(w.category, RuntimeWarning)]
