"""Compilable twin of :mod:`repro.sim.engine` (the ``fast`` backend).

This module is byte-for-byte the same algorithm as ``engine.py`` —
same calendar/bucket queue, same heap overflow, same lazy-cancel
accounting — kept in a separate module so ``setup.py`` can compile it
with mypyc (``REPRO_BUILD_FAST=1 pip install -e .``) without touching
the always-interpreted reference engine.  It must stay semantically
identical: the golden-equivalence suite runs every protocol under
both backends and diffs the results bit-for-bit, interpreted or not.

Interpreted, this module is just a second pure-Python engine (that is
the silent-fallback path when the extension was never built);
compiled, ``__file__`` loses its ``.py`` suffix, which is how
:mod:`repro.sim.backend` detects a real extension.  It also carries a
typed copy of the scheduler ready-scan (:func:`ready_mask_loop`) so
the SM's candidate-mask rebuild rides the compiled module too.

The external attribute surface (``_seq``, ``_buckets``, ``_mask``,
``_limit``, ``_heap``, ``_filled``, ``heap_deferred``, ``hook``,
``now``, ``events_fired``) is load-bearing: the NoC and protocol
controllers inline :meth:`Engine.post` at their hottest call sites,
so both engines must expose exactly these names.

Every timing component in the reproduction (SMs, NoC links, L2 banks,
DRAM partitions) advances time by scheduling callbacks on a single
shared :class:`Engine`.  The engine is strictly deterministic: events
scheduled for the same cycle fire in scheduling order (a monotone
sequence number breaks ties), so repeated runs of the same workload
produce bit-identical statistics.

There is deliberately no per-cycle ``tick()`` loop — idle cycles are
skipped entirely by jumping the clock to the next scheduled event.
This is what makes a pure-Python cycle-level GPU model tractable.

The queue is a calendar (bucket) queue with a heap overflow, not a
plain heap.  Events landing within ``horizon`` cycles of the current
drain point go into per-cycle FIFO buckets — a ring of plain lists
indexed by ``cycle & mask`` — and :meth:`run` drains a whole cycle's
bucket in one tight loop without re-entering the heap.  Only events
beyond the horizon touch the heap; they migrate into their bucket the
moment the drain window slides over their cycle, which happens before
any later schedule can land in that cycle, so per-cycle FIFO order is
exactly what the pure-heap engine produced.

Heap/bucket entries are plain ``[time, seq, callback, args]`` lists,
so both allocation and ordering comparisons stay entirely in C
(list-of-int comparison; ``seq`` is unique, so ``callback`` never
participates).  :meth:`Engine.schedule` returns the entry itself as an
opaque handle; cancel through :meth:`Engine.cancel`, which nulls the
callback slot in place.  A cancelled bucket entry is reclaimed for
free when its cycle drains; cancelled heap entries are counted and the
heap is compacted once they dominate it, so long runs with many
cancellations cannot grow either structure without bound.

Alongside the ring lives ``_filled``, a packed per-bucket occupancy
byte array: every bucket append sets its byte, so locating the next
occupied cycle is a C-level ``bytearray.find`` (memchr) instead of a
Python loop over empty buckets.  Bytes are cleared when a drained
bucket proves empty; a stale byte (bucket emptied by a cold path) is
harmless — the locate checks the bucket and clears it in passing.
The occupancy index never affects firing order, only how fast the
drain finds the next cycle.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional

# The opaque handle returned by Engine.schedule: a queue entry of the
# form [time, seq, callback, args].  A cancelled (or already-fired)
# entry has callback None.
EventHandle = List[Any]

# Default bucket-ring size.  Power of two; covers every fixed latency
# in the model (DRAM base latency is the largest at ~160 cycles), so
# in steady state only congestion-delayed completions and long timers
# take the heap detour.
DEFAULT_HORIZON = 512


class Engine:
    """A deterministic calendar/heap event queue with an integer clock."""

    # compact only once this many cancelled entries have accumulated
    # in the heap *and* they make up at least half of it (see cancel)
    COMPACT_THRESHOLD = 256

    def __init__(self, horizon: int = DEFAULT_HORIZON) -> None:
        if horizon < 2 or horizon & (horizon - 1):
            raise ValueError(
                f"horizon must be a power of two >= 2, got {horizon}")
        self._horizon = horizon
        self._mask = horizon - 1
        # ring of per-cycle FIFO buckets; bucket cycles live in
        # [now, _limit) which is never wider than horizon, so
        # ``cycle & mask`` is collision-free
        self._buckets: List[List[EventHandle]] = \
            [[] for _ in range(horizon)]
        # packed bucket-occupancy index: _filled[i] is nonzero when
        # bucket i may hold entries (set on every append, cleared when
        # a drain finds the bucket empty), so the next occupied cycle
        # is one C-level find() instead of a ring walk
        self._filled = bytearray(horizon)
        self._limit = horizon       # heap entries all have time >= this
        self._heap: List[EventHandle] = []
        self._seq = 0               # also the total ever scheduled
        self.now = 0
        self.events_fired = 0
        self._cancelled = 0         # total ever cancelled
        self._stale = 0             # cancelled entries still in the heap
        self._stale_buckets = 0     # cancelled entries still in buckets
        # hot-loop observability (read by `repro profile` and the
        # engine_* metrics gauges; plain ints so the hot paths stay
        # attribute increments)
        self.heap_deferred = 0      # events scheduled beyond the window
        self.heap_migrated = 0      # heap events slid into a bucket
        self.stale_reclaimed = 0    # cancelled entries reclaimed
        self.compactions = 0        # heap compaction passes
        # observability: called as hook(time, callback) for every event
        # fired.  Must not schedule or cancel anything — it observes the
        # dispatch stream (metrics sampling, engine tracing) without
        # perturbing it.
        self.hook: Optional[Callable[[int, Callable], None]] = None

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callable[..., None],
                 *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to fire ``delay`` cycles from now.

        ``delay`` must be non-negative; a zero delay fires later in the
        current cycle, after all previously scheduled current-cycle
        events.  Returns a handle accepted by :meth:`cancel`; the
        handle's ``[0]`` element is the absolute fire time.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        seq = self._seq
        self._seq = seq + 1
        time = self.now + delay
        event = [time, seq, callback, args]
        if time < self._limit:
            slot = time & self._mask
            self._buckets[slot].append(event)
            self._filled[slot] = 1
        else:
            heappush(self._heap, event)
            self.heap_deferred += 1
        return event

    def at(self, time: int, callback: Callable[..., None],
           *args: Any) -> EventHandle:
        """Schedule ``callback`` at an absolute cycle (>= now)."""
        if time < self.now:
            raise ValueError(f"negative delay: {time - self.now}")
        seq = self._seq
        self._seq = seq + 1
        event = [time, seq, callback, args]
        if time < self._limit:
            slot = time & self._mask
            self._buckets[slot].append(event)
            self._filled[slot] = 1
        else:
            heappush(self._heap, event)
            self.heap_deferred += 1
        return event

    def post(self, time: int, callback: Callable[..., None],
             args: tuple = ()) -> EventHandle:
        """Fast-path :meth:`at` for hot internal callers.

        Takes the argument tuple directly (no varargs repacking) and
        trusts the caller that ``time >= now`` — the NoC, DRAM and L2
        pipelines compute arrival times from ``now`` plus non-negative
        latencies, so the guard in :meth:`at` would never fire there.
        """
        seq = self._seq
        self._seq = seq + 1
        event = [time, seq, callback, args]
        if time < self._limit:
            slot = time & self._mask
            self._buckets[slot].append(event)
            self._filled[slot] = 1
        else:
            heappush(self._heap, event)
            self.heap_deferred += 1
        return event

    # ------------------------------------------------------------------
    # cancellation
    # ------------------------------------------------------------------
    def cancel(self, event: EventHandle) -> None:
        """Prevent a scheduled event from firing.

        Safe to call more than once, and safe after the event has
        fired (both are no-ops).  The handle must come from this
        engine's :meth:`schedule`/:meth:`at`.  Bucketed entries (fire
        time inside the drain window) are reclaimed for free when
        their cycle drains — cancelling is a pure slot overwrite; only
        heap entries ever need a compaction pass.
        """
        if event[2] is not None:
            event[2] = None
            self._cancelled += 1
            if event[0] < self._limit:
                self._stale_buckets += 1
            else:
                stale = self._stale = self._stale + 1
                if (stale >= self.COMPACT_THRESHOLD
                        and stale * 2 >= len(self._heap)):
                    self.compact()

    @staticmethod
    def cancelled(event: EventHandle) -> bool:
        """Whether this event will no longer fire (cancelled or fired)."""
        return event[2] is None

    # ------------------------------------------------------------------
    # window maintenance
    # ------------------------------------------------------------------
    def _advance_window(self, t: int) -> None:
        """Slide the bucket window to cover ``[t, t + horizon)``.

        Pops every heap event whose cycle the new window covers into
        its bucket.  Must run before any event at cycle ``t`` fires:
        heap entries for a cycle were all scheduled before the window
        reached it, so migrating them first keeps each bucket in
        global sequence order.
        """
        new_limit = t + self._horizon
        if new_limit <= self._limit:
            return
        heap = self._heap
        if heap:
            buckets = self._buckets
            filled = self._filled
            mask = self._mask
            migrated = 0
            while heap and heap[0][0] < new_limit:
                event = heappop(heap)
                if event[2] is None:
                    self._stale -= 1
                    self.stale_reclaimed += 1
                    continue
                slot = event[0] & mask
                buckets[slot].append(event)
                filled[slot] = 1
                migrated += 1
            self.heap_migrated += migrated
        self._limit = new_limit

    def _locate(self, c: int) -> int:
        """Next cycle >= ``c`` whose bucket is non-empty, else -1.

        Pure occupancy-index navigation: two ``find`` calls cover the
        ring split at the wrap point, and stale bytes (buckets emptied
        by a path that didn't clear them) are cleared in passing.  Only
        cycles in ``[c, _limit)`` can hold entries, so any byte that
        survives the bucket check maps to a window cycle.
        """
        filled = self._filled
        buckets = self._buckets
        horizon = self._horizon
        b = c & self._mask
        if buckets[b]:
            return c
        filled[b] = 0
        while True:
            nb = filled.find(1, b)
            if nb >= 0:
                nc = c + (nb - b)
            else:
                nb = filled.find(1, 0, b)
                if nb < 0:
                    return -1
                nc = c + (horizon - b) + nb
            if buckets[nb]:
                return nc
            filled[nb] = 0

    def _next_cycle(self) -> int:
        """The next cycle holding queued entries, advancing the window.

        Returns -1 when nothing (live or stale) is queued.  The
        returned cycle's bucket is non-empty but may hold only stale
        entries; callers drain it either way.  The occupancy index
        makes the ring probe one find() (the hot unbounded :meth:`run`
        keeps its own cursor and never comes through here).
        """
        c = self._locate(self.now)
        if c >= 0:
            self._advance_window(c)
            return c
        heap = self._heap
        while heap and heap[0][2] is None:
            heappop(heap)
            self._stale -= 1
            self.stale_reclaimed += 1
        if not heap:
            return -1
        t = heap[0][0]
        self._advance_window(t)
        return t

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def peek(self) -> Optional[int]:
        """Return the time of the next pending event, or None if empty."""
        buckets = self._buckets
        mask = self._mask
        c = self.now
        while True:
            c = self._locate(c)
            if c < 0:
                break
            bucket = buckets[c & mask]
            if any(entry[2] is not None for entry in bucket):
                return c
            # all-stale cycle: reclaim it on the way past
            count = len(bucket)
            self._stale_buckets -= count
            self.stale_reclaimed += count
            del bucket[:]
            self._filled[c & mask] = 0
            c += 1
        heap = self._heap
        while heap and heap[0][2] is None:
            heappop(heap)
            self._stale -= 1
            self.stale_reclaimed += 1
        return heap[0][0] if heap else None

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1)."""
        return self._seq - self.events_fired - self._cancelled

    def counters(self) -> dict:
        """Hot-loop counters under their canonical ``engine_*`` names.

        Deliberately *not* part of ``RunStats.counters``: these
        describe the queue implementation, not the simulated machine,
        and the golden fixtures prove simulated outcomes are
        independent of them.  ``repro profile`` aggregates them across
        fresh simulations, and the observability gauges sample them
        live (see ``repro.stats.names.ENGINE_COUNTERS``).
        """
        scheduled = self._seq
        deferred = self.heap_deferred
        return {
            "engine_events_scheduled": scheduled,
            "engine_events_fired": self.events_fired,
            "engine_bucket_direct": scheduled - deferred,
            "engine_heap_deferred": deferred,
            "engine_heap_migrated": self.heap_migrated,
            "engine_cancelled": self._cancelled,
            "engine_stale_reclaimed": self.stale_reclaimed,
            "engine_compactions": self.compactions,
        }

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next event.  Returns False when the queue is empty."""
        while True:
            t = self._next_cycle()
            if t < 0:
                return False
            bucket = self._buckets[t & self._mask]
            index = 0
            count = len(bucket)
            while index < count and bucket[index][2] is None:
                index += 1
            if index:
                self._stale_buckets -= index
                self.stale_reclaimed += index
                del bucket[:index]
            if not bucket:
                self._filled[t & self._mask] = 0
                continue        # the whole cycle was cancelled
            event = bucket[0]
            del bucket[0]
            if not bucket:
                self._filled[t & self._mask] = 0
            event[2], callback = None, event[2]
            self.now = t
            self.events_fired += 1
            if self.hook is not None:
                self.hook(t, callback)
            callback(*event[3])
            return True

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        """Drain the event queue.

        Stops when the queue is empty, when the clock would pass
        ``until``, or after ``max_events`` events (a safety valve for
        tests against livelock).  Returns the final clock value.
        """
        if until is not None or max_events is not None:
            return self._run_bounded(until, max_events)
        hook = self.hook
        buckets = self._buckets
        filled = self._filled
        mask = self._mask
        horizon = self._horizon
        half = horizon >> 1
        limit = self._limit
        c = self.now
        fired_total = 0
        while True:
            # ---- locate the next occupied cycle ----
            # All bucketed entries live in [c, limit), so the occupancy
            # index (split at the ring wrap point) answers "next
            # occupied cycle" with at most two C-level finds; an empty
            # index proves the ring is drained and the next event (if
            # any) is in the heap.  Stale bytes left by cold paths are
            # cleared as the probe passes them.
            b = c & mask
            bucket = buckets[b]
            if not bucket:
                filled[b] = 0
                while True:
                    nb = filled.find(1, b)
                    if nb >= 0:
                        nc = c + (nb - b)
                    else:
                        nb = filled.find(1, 0, b)
                        if nb < 0:
                            nc = -1
                        else:
                            nc = c + (horizon - b) + nb
                    if nc < 0 or buckets[nb]:
                        break
                    filled[nb] = 0
                if nc < 0:
                    heap = self._heap
                    while heap and heap[0][2] is None:
                        heappop(heap)
                        self._stale -= 1
                        self.stale_reclaimed += 1
                    if not heap:
                        break
                    # jump the window to the next heap event and pull
                    # everything it now covers into buckets (heap-pop
                    # order is (time, seq) order, so each bucket fills
                    # in global scheduling order)
                    c = heap[0][0]
                    limit = c + horizon
                    migrated = 0
                    while heap and heap[0][0] < limit:
                        event = heappop(heap)
                        if event[2] is None:
                            self._stale -= 1
                            self.stale_reclaimed += 1
                            continue
                        slot = event[0] & mask
                        buckets[slot].append(event)
                        filled[slot] = 1
                        migrated += 1
                    self.heap_migrated += migrated
                    self._limit = limit
                    b = c & mask
                    bucket = buckets[b]
                else:
                    c = nc
                    b = nb
                    bucket = buckets[b]
            # ---- keep the window comfortably ahead of the clock ----
            # Sliding in half-horizon blocks amortises the heap check;
            # migration happens the instant the window covers a cycle,
            # before anything can be scheduled into it, which is what
            # keeps each bucket in global FIFO order.
            if limit - c <= half:
                limit = c + horizon
                heap = self._heap
                if heap and heap[0][0] < limit:
                    migrated = 0
                    while heap and heap[0][0] < limit:
                        event = heappop(heap)
                        if event[2] is None:
                            self._stale -= 1
                            self.stale_reclaimed += 1
                            continue
                        slot = event[0] & mask
                        buckets[slot].append(event)
                        filled[slot] = 1
                        migrated += 1
                    self.heap_migrated += migrated
                self._limit = limit
            # ---- drain cycle c ----
            if len(bucket) == 1 and bucket[0][2] is not None:
                # singleton fast path: sparse stretches look like the
                # old heap engine, one event per cycle (pop() avoids
                # the del-from-front memmove setup)
                event = bucket.pop()
                callback = event[2]
                event[2] = None
                self.now = c
                if hook is None:
                    fired_total += 1
                    callback(*event[3])
                else:
                    self.events_fired += 1
                    hook(c, callback)
                    callback(*event[3])
                if not bucket:
                    # no zero-delay follow-ons: this cycle is done
                    filled[b] = 0
                    c += 1
                continue
            if bucket[0][2] is None and not any(
                    entry[2] is not None for entry in bucket):
                # fully-cancelled cycle: reclaim it without touching
                # the clock, exactly as the heap engine's lazy pops
                # never advanced `now`
                count = len(bucket)
                del bucket[:]
                filled[b] = 0
                self._stale_buckets -= count
                self.stale_reclaimed += count
                c += 1
                continue
            self.now = c
            stale = 0
            if hook is None:
                # batch drain: the whole cycle in one tight loop.  A
                # plain list iterator re-checks the length on every
                # step, so zero-delay events appended by the callbacks
                # themselves are picked up in FIFO order — same
                # semantics as an index loop, without the per-event
                # len() call.
                for event in bucket:
                    callback = event[2]
                    if callback is None:
                        stale += 1
                        continue
                    event[2] = None
                    fired_total += 1
                    callback(*event[3])
            else:
                for event in bucket:
                    callback = event[2]
                    if callback is None:
                        stale += 1
                        continue
                    event[2] = None
                    self.events_fired += 1
                    hook(c, callback)
                    callback(*event[3])
            count = len(bucket)
            del bucket[:]
            filled[b] = 0
            if stale:
                self._stale_buckets -= stale
                self.stale_reclaimed += stale
            c += 1
        if hook is None:
            # events_fired accumulates in a local and flushes once per
            # drain — only the observability hook path reads it
            # mid-run, and that path updates it per event above.
            self.events_fired += fired_total
        return self.now

    def _run_bounded(self, until: Optional[int],
                     max_events: Optional[int]) -> int:
        hook = self.hook
        buckets = self._buckets
        mask = self._mask
        fired = 0
        while True:
            t = self._next_cycle()
            if t < 0:
                break
            if until is not None and t > until:
                self.now = until
                # keep the window invariant (`limit > now`) so hot
                # in-window schedulers stay correct after a long jump
                self._advance_window(until)
                break
            bucket = buckets[t & mask]
            index = 0
            count = len(bucket)
            while index < count and bucket[index][2] is None:
                index += 1
            if index == count:
                # fully-cancelled cycle: reclaim the drained stale
                # entries (they must keep the stale bookkeeping exact —
                # bounded runs historically leaked them) and leave the
                # clock untouched
                self._stale_buckets -= count
                self.stale_reclaimed += count
                del bucket[:]
                self._filled[t & mask] = 0
                continue
            self.now = t
            stale = index
            while index < len(bucket):
                event = bucket[index]
                callback = event[2]
                if callback is None:
                    index += 1
                    stale += 1
                    continue
                if max_events is not None and fired >= max_events:
                    # leave the rest queued; reclaim the drained prefix
                    del bucket[:index]
                    self._stale_buckets -= stale
                    self.stale_reclaimed += stale
                    raise RuntimeError(
                        f"engine exceeded {max_events} events "
                        f"at cycle {self.now}"
                    )
                index += 1
                event[2] = None
                self.events_fired += 1
                fired += 1
                if hook is not None:
                    hook(t, callback)
                callback(*event[3])
            count = len(bucket)
            self._stale_buckets -= stale
            self.stale_reclaimed += stale
            del bucket[:]
            self._filled[t & mask] = 0
        return self.now

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def compact(self) -> None:
        """Drop cancelled entries from the heap and re-heapify.

        Called automatically once cancelled entries make up at least
        half of a large heap; exposed for tests and explicit trimming.
        Bucketed stale entries are untouched — their cycles reclaim
        them in O(1) as the drain passes.
        """
        heap = self._heap
        live = [entry for entry in heap if entry[2] is not None]
        removed = len(heap) - len(live)
        if removed:
            self._stale -= removed
            self.stale_reclaimed += removed
        heapify(live)
        self._heap = live
        self.compactions += 1


# ---------------------------------------------------------------------------
# scheduler ready-scan (compiled copy of repro.gpu.sm.ready_mask)
# ---------------------------------------------------------------------------
def ready_mask_loop(cls_values: List[int], now: int) -> int:
    """Candidate bitmask over a packed warp-classification array.

    Must compute exactly the mask of :func:`repro.gpu.sm.ready_mask`:
    a slot is a candidate when dirty (-1), ready (0), or blocked with
    a wake time the clock has reached.  The SM resolves which copy to
    call once per construction via :mod:`repro.sim.backend`.
    """
    mask = 0
    bit = 1
    for cls in cls_values:
        if cls <= 0 or (cls >= 8 and now >= (cls >> 3) - 1):
            mask |= bit
        bit <<= 1
    return mask
