"""The hot-path overhaul changed no simulated outcome.

``tests/golden/runstats_tiny.json`` holds ``RunStats.to_dict()``
payloads captured from the simulator *before* the packed-trace /
closure-free-callback / incremental-scheduling rewrite: all four
protocols, two consistency models, both schedulers, three workloads
on the tiny preset.  Every case must still reproduce byte-identically
— serialized with ``json.dumps(..., sort_keys=True)`` — proving the
optimizations are pure perf work.

If a future PR *intends* to change simulated behaviour, regenerate
the fixture (run this file's ``_simulate`` for every key and dump the
results) and say so in the commit message.
"""

import json
import os

import pytest

from repro.config import Consistency, GPUConfig, Protocol, SchedulerPolicy
from repro.gpu.gpu import GPU
from repro.workloads import build_workload

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "runstats_tiny.json")

with open(GOLDEN_PATH) as handle:
    GOLDEN = json.load(handle)


def _simulate(key: str) -> dict:
    workload, protocol, consistency, scheduler = key.split("|")
    config = GPUConfig.tiny(protocol=Protocol(protocol),
                            consistency=Consistency(consistency),
                            scheduler=SchedulerPolicy(scheduler))
    kernel = build_workload(workload, scale=0.3, seed=2018)
    return GPU(config, record_accesses=False).run(kernel).to_dict()


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_runstats_bit_identical_to_pre_overhaul_golden(key):
    expected = json.dumps(GOLDEN[key], sort_keys=True)
    actual = json.dumps(_simulate(key), sort_keys=True)
    assert actual == expected, f"simulated outcome changed for {key}"


def test_golden_covers_every_protocol_and_two_workloads():
    """Guard the fixture itself against accidental truncation."""
    protocols = {key.split("|")[1] for key in GOLDEN}
    workloads = {key.split("|")[0] for key in GOLDEN}
    assert protocols == {p.value for p in
                         (Protocol.GTSC, Protocol.TC, Protocol.MESI,
                          Protocol.DISABLED)}
    assert len(workloads) >= 2


# ---------------------------------------------------------------------------
# cross-backend equivalence: pure vs fast x obs on/off x every protocol
# ---------------------------------------------------------------------------
# The fast backend (repro.sim._fast) is the same algorithm whether it
# imports interpreted or as a mypyc extension, so running it here —
# with or without the compiled artifact present — proves the twin
# module stays bit-identical to the pure engine.  One golden key per
# protocol keeps the matrix (4 protocols x 2 backends x obs on/off)
# affordable.

from repro.obs import Observability, replay_audit  # noqa: E402
from repro.sim.backend import backend_name, select_backend  # noqa: E402

BACKEND_KEYS = sorted(
    {key.split("|")[1]: key for key in sorted(GOLDEN)}.values())


def _simulate_backend(key: str, backend: str, with_obs: bool):
    workload, protocol, consistency, scheduler = key.split("|")
    config = GPUConfig.tiny(protocol=Protocol(protocol),
                            consistency=Consistency(consistency),
                            scheduler=SchedulerPolicy(scheduler))
    kernel = build_workload(workload, scale=0.3, seed=2018)
    obs = Observability.full() if with_obs else None
    select_backend(backend)
    try:
        assert backend_name() == backend
        gpu = GPU(config, record_accesses=False, obs=obs)
        stats = gpu.run(kernel)
    finally:
        select_backend("auto")
    return gpu, stats, obs, config


@pytest.mark.parametrize("with_obs", [False, True],
                         ids=["obs-off", "obs-on"])
@pytest.mark.parametrize("key", BACKEND_KEYS)
def test_fast_backend_bit_identical(key, with_obs):
    """pure and fast produce the same RunStats, audit, and goldens."""
    pure_gpu, pure_stats, pure_obs, config = \
        _simulate_backend(key, "pure", with_obs)
    fast_gpu, fast_stats, fast_obs, _ = \
        _simulate_backend(key, "fast", with_obs)
    assert pure_gpu.machine.sim_backend == "pure"
    assert fast_gpu.machine.sim_backend == "fast"
    assert json.dumps(fast_stats.to_dict(), sort_keys=True) == \
        json.dumps(pure_stats.to_dict(), sort_keys=True), \
        f"backends diverge for {key} (obs={with_obs})"
    if not with_obs:
        # both must also still match the committed golden
        assert json.dumps(pure_stats.to_dict(), sort_keys=True) == \
            json.dumps(GOLDEN[key], sort_keys=True)
    protocol = key.split("|")[1]
    if with_obs and protocol == "gtsc":
        # the G-TSC audit replay sees the identical event stream
        checked_pure = replay_audit(pure_obs.audit.records, config.lease)
        checked_fast = replay_audit(fast_obs.audit.records, config.lease)
        assert checked_pure == checked_fast > 0
    if protocol in ("gtsc", "tc"):
        # packed cache columns stayed in lockstep with the line records
        for gpu in (pure_gpu, fast_gpu):
            for l1 in gpu.machine.l1s:
                assert l1.cache.check_packed() == []
            for bank in gpu.machine.l2_banks:
                assert bank.cache.check_packed() == []


def test_backend_selection_resolution_order():
    """Flag beats environment beats the auto default."""
    import os
    select_backend("pure")
    try:
        os.environ["REPRO_BACKEND"] = "fast"
        try:
            assert backend_name() == "pure"  # flag wins
        finally:
            del os.environ["REPRO_BACKEND"]
    finally:
        select_backend("auto")
    assert backend_name() in ("pure", "fast")


# ---------------------------------------------------------------------------
# ready-mask property: the SM's scan equals the compiled twin's copy
# ---------------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# a packed warp classification: -1 (dirty), a bare state (0..4), or a
# wake-timer entry ((wake + 1) << 3 | state)
_cls_entry = st.one_of(
    st.just(-1),
    st.integers(min_value=0, max_value=4),
    st.builds(lambda wake, state: ((wake + 1) << 3) | state,
              st.integers(min_value=0, max_value=100_000),
              st.integers(min_value=0, max_value=4)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_cls_entry, max_size=64),
       st.integers(min_value=0, max_value=200_000))
def test_ready_mask_implementations_agree(cls_values, now):
    from repro.gpu.sm import ready_mask
    from repro.sim import _fast

    assert (_fast.ready_mask_loop(cls_values, now)
            == ready_mask(cls_values, now))
