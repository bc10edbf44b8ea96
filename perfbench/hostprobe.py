"""A fixed unit of pure-Python work that gauges the host's speed.

The benchmark's host is a share of a machine used by others, and its
speed drifts by tens of percent over minutes.  Processes under test
run :func:`probe` between their own steps, on the same CPU and close in
time to the work they do, and report how long it took.  The probe
never changes: it imports nothing from ``src/`` and does the same work
on every commit, so the ratio of a step's time to the probe's time is a
measure of the program alone, and a time scaled by
``PROBE_NOMINAL_S / probe time`` reads as on a host of constant speed.

The work mimics the simulator's inner loop (attribute updates on
``__slots__`` objects, dict and list lookups, small-int arithmetic,
method calls) on a fixed, preallocated working set, and allocates no
container objects, so it never triggers the cyclic garbage collector of
the process it runs in.  Time is the calling thread's CPU time, so a
probe in a process that shares the CPUs with other processes under test
is not charged for waiting on them.
"""

from __future__ import annotations

import time

#: nominal CPU seconds of one probe, a round figure near its time on a
#: 2-vCPU Intel Xeon VM with Python 3.11; it only scales the results
PROBE_NOMINAL_S = 0.002
#: a process under test probes between two of its steps once this much
#: time has passed since its last probe: about a tenth of its run
PROBE_EVERY_S = 0.02
#: probes right after each setup-only sample, to scale its time
SETUP_PROBES = 15

_SIZE = 2048
_STEPS = 4000


class _Line:
    __slots__ = ("tag", "stamp", "hits", "next")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.stamp = 0
        self.hits = 0
        self.next: "_Line" = self

    def touch(self, now: int) -> int:
        self.hits += 1
        if now > self.stamp:
            self.stamp = now
        return self.tag


_LINES = [_Line(i) for i in range(_SIZE)]
for _i, _line in enumerate(_LINES):
    _line.next = _LINES[(_i * 613 + 97) % _SIZE]
_TABLE = {i * 7: i for i in range(_SIZE)}
_ORDER = [(i * 389 + 11) % _SIZE for i in range(_SIZE)]


def _work(steps: int) -> int:
    lines, table, order = _LINES, _TABLE, _ORDER
    acc = 0
    slot = 0
    for step in range(steps):
        line = lines[order[slot]]
        tag = line.touch(step)
        other = line.next
        acc += table.get((tag + other.tag) % _SIZE * 7, 0)
        other.stamp = (other.stamp + acc) & 1023
        slot = (slot + other.hits + 1) % _SIZE
    return acc


def probe() -> float:
    """Run the fixed unit of work once; its CPU seconds."""
    started = time.thread_time()
    _work(_STEPS)
    return time.thread_time() - started
