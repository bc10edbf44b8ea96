"""What the harness simulates, and what it reuses instead.

* every point an experiment prefetches is one its tables read;
* a runner never simulates one run key twice in a process;
* a serve worker builds each workload trace once, not once per job;
* importing the CLI and the service pulls in no numpy.
"""

import os
import subprocess
import sys
import threading

import pytest

from repro.cli import EXPERIMENT_FNS
from repro.config import CombiningPolicy, Consistency, GPUConfig, Protocol
from repro.gpu.gpu import run_kernel
from repro.harness import runner as runner_mod
from repro.harness.experiments import ablation_tc_lease
from repro.harness.runner import ExperimentRunner, point_of
from repro.serve.schema import make_spec
from repro.serve.fleet import execute_spec
from repro.trace.compiled import compile_kernel
from repro.workloads import build_workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class RecordingRunner(ExperimentRunner):
    """Records the points it prefetches and the points it reads."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.prefetched = set()
        self.read = set()
        self.simulated_keys = []
        self._prefetching = False

    def prefetch(self, points) -> None:
        points = list(points)
        self.prefetched.update(points)
        self._prefetching = True
        try:
            super().prefetch(points)
        finally:
            self._prefetching = False

    def run(self, workload, protocol, consistency, **overrides):
        if not self._prefetching:
            self.read.add(point_of(workload, protocol, consistency,
                                   **overrides))
        return super().run(workload, protocol, consistency, **overrides)

    def _simulate(self, workload, config):
        self.simulated_keys.append(self._disk_key(workload, config))
        return super()._simulate(workload, config)


@pytest.mark.parametrize("experiment", sorted(EXPERIMENT_FNS))
def test_every_prefetched_point_is_read(experiment):
    runner = RecordingRunner(preset="tiny", scale=0.1)
    EXPERIMENT_FNS[experiment](runner)
    unread = runner.prefetched - runner.read
    assert not unread, sorted(map(runner._describe_point, unread))


def test_ablation_tc_lease_simulates_only_its_table():
    runner = RecordingRunner(preset="tiny", scale=0.1)
    result = ablation_tc_lease(runner)
    assert runner.simulations_run == len(result.rows) * 6
    assert {point[1] for point in runner.read} == {Protocol.TC}


def test_run_key_memo_simulates_each_key_once():
    runner = RecordingRunner(preset="tiny", scale=0.1)
    plain = runner.run("HS", Protocol.GTSC, Consistency.RC)
    spelled = runner.run("HS", Protocol.GTSC, Consistency.RC,
                         combining=CombiningPolicy.MSHR)
    assert spelled is plain
    assert runner.simulations_run == 1


def test_run_key_memo_records_a_runner_cache_row():
    rows = []

    class FakeDB:
        def record(self, digest, stats, **kwargs):
            rows.append((digest, kwargs["source"]))

    runner = ExperimentRunner(preset="tiny", scale=0.1, db=FakeDB())
    runner.run("HS", Protocol.GTSC, Consistency.RC)
    runner.run("HS", Protocol.GTSC, Consistency.RC,
               combining=CombiningPolicy.MSHR)
    assert [source for _, source in rows] == ["runner", "runner-cache"]
    assert rows[0][0] == rows[1][0]


def test_all_experiments_simulate_each_run_key_once():
    runner = RecordingRunner(preset="tiny", scale=0.1)
    for fn in EXPERIMENT_FNS.values():
        fn(runner)
    assert runner.simulations_run == len(set(runner.simulated_keys))


@pytest.mark.parametrize("jobs", [1, 2])
def test_parallel_prefetch_simulates_each_run_key_once(jobs):
    runner = ExperimentRunner(jobs=jobs, preset="tiny", scale=0.1)
    points = [point_of("HS", Protocol.GTSC, Consistency.RC),
              point_of("HS", Protocol.GTSC, Consistency.RC,
                       combining=CombiningPolicy.MSHR),
              point_of("HS", Protocol.TC, Consistency.RC)]
    runner.prefetch(points)
    assert runner.simulations_run == 2
    assert (runner.run("HS", Protocol.GTSC, Consistency.RC,
                       combining=CombiningPolicy.MSHR)
            is runner.run("HS", Protocol.GTSC, Consistency.RC))
    assert runner.simulations_run == 2


def test_serve_jobs_share_one_trace_build(monkeypatch):
    builds = []

    def counting_build(name, **kwargs):
        builds.append(name)
        return build_workload(name, **kwargs)

    monkeypatch.setattr(runner_mod, "build_workload", counting_build)
    monkeypatch.setattr(runner_mod, "_KERNELS",
                        type(runner_mod._KERNELS)())
    specs = [make_spec("HS", protocol=protocol, preset="tiny", scale=0.1,
                       seed=11)
             for protocol in ("gtsc", "tc")]
    served = [execute_spec(spec) for spec in specs]
    assert builds == ["HS"]
    kernel = build_workload("HS", scale=0.1, seed=11)
    for spec, stats in zip(specs, served):
        config = GPUConfig.tiny(protocol=Protocol(spec["protocol"]),
                                consistency=Consistency.RC)
        local = run_kernel(config, kernel, record_accesses=False)
        assert stats.to_dict() == local.to_dict()


def test_kernel_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(runner_mod, "_KERNELS",
                        type(runner_mod._KERNELS)())
    monkeypatch.setattr(runner_mod, "_KERNELS_MAX", 2)
    for seed in (1, 2, 3):
        runner_mod._kernel("HS", 0.1, seed, None)
    assert list(runner_mod._KERNELS) == [("HS", 0.1, 2, None),
                                         ("HS", 0.1, 3, None)]


def test_kernel_memo_under_thread_contention(monkeypatch):
    kernels = {seed: compile_kernel(build_workload("HS", scale=0.1,
                                                   seed=seed))
               for seed in range(6)}
    monkeypatch.setattr(runner_mod, "build_workload",
                        lambda name, scale, seed, cache_dir: kernels[seed])
    monkeypatch.setattr(runner_mod, "_KERNELS",
                        type(runner_mod._KERNELS)())
    monkeypatch.setattr(runner_mod, "_KERNELS_MAX", 3)
    errors = []

    def worker(offset):
        try:
            for step in range(2000):
                seed = (offset + step) % 6
                assert runner_mod._kernel("HS", 0.1, seed, None) \
                    is kernels[seed]
        except Exception as error:  # reported by the main thread
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,))
                   for n in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(runner_mod._KERNELS) <= 3


def test_cli_and_serve_import_without_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    code = ("import sys, repro.cli, repro.serve; "
            "print('numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
