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
# ready-mask property: the SM's scan equals a decode of each entry
# ---------------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.gpu import sm  # noqa: E402

# a packed warp classification: -1 (dirty), a bare state (0..4), or a
# wake-timer entry ((wake + 1) << 3 | state)
_cls_entry = st.one_of(
    st.just(-1),
    st.integers(min_value=0, max_value=4),
    st.builds(lambda wake, state: ((wake + 1) << 3) | state,
              st.integers(min_value=0, max_value=100_000),
              st.integers(min_value=0, max_value=4)),
)


def _reference_candidate(cls: int, now: int) -> bool:
    """Decode one classification entry: may this warp issue at ``now``?"""
    if cls == -1:
        return True                 # dirty: the scan must reclassify it
    state = cls & 7
    if cls >= 8:
        wake = (cls >> 3) - 1
        return now >= wake          # timed entry: candidate once woken
    return state == sm._READY


@settings(max_examples=200, deadline=None)
@given(st.lists(_cls_entry, max_size=64),
       st.integers(min_value=0, max_value=200_000))
def test_ready_mask_matches_classification(cls_values, now):
    expected = 0
    for slot, cls in enumerate(cls_values):
        if _reference_candidate(cls, now):
            expected |= 1 << slot
    assert sm.ready_mask(cls_values, now) == expected
