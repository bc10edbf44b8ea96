"""A conventional invalidation-based directory protocol (Section II-C).

The paper motivates time-based coherence by arguing that conventional
directory protocols are ill-suited to GPUs: they pay invalidation and
acknowledgment traffic on every write to shared data, recall traffic
when directory entries are evicted, and per-line sharer storage.  This
module implements exactly such a protocol — a full-map MSI directory —
so that claim can be *measured* against G-TSC instead of cited.

Design (kept deliberately conventional):

* **L1**: write-back, write-allocate, states M/S/I.  Stores hit
  locally once the line is in M — the one advantage an invalidation
  protocol has over the write-through designs.
* **Directory (per L2 bank)**: full sharer bitmap plus owner.  GetS
  forwards from a modified owner (writeback + downgrade) or supplies
  data; GetM invalidates every sharer, collects acks, then grants
  ownership.  While a transaction is collecting acks the line is
  blocked and later requests park behind it.
* **Silent S eviction** (GPU L1s send no PutS), so the sharer map is
  conservative and stale sharers receive harmless invalidations —
  precisely the over-invalidation cost the paper describes.
* **Recall**: evicting a directory entry invalidates/recalls every
  cached copy first (the §II-C "recall traffic").
* **Atomics** execute at the directory after a global invalidation.

The protocol targets SC (stores block until ownership); under RC
stores are fire-and-forget and fences drain them, as elsewhere.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Set

from repro.config import CombiningPolicy
from repro.mem.cache import CacheArray, CacheLine
from repro.mem.mshr import MSHRFullError
from repro.protocols.base import (
    L1ControllerBase,
    L2BankBase,
    LoadWaiter,
    Message,
    PendingAtomic,
    PendingStore,
    pop_pending,
)
from repro.validate.versions import AtomicRecord, LoadRecord, StoreRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.machine import Machine
    from repro.gpu.warp import Warp

# L1 line states, stored in CacheLine.expiry (unused by this protocol)
_INVALID, _SHARED, _MODIFIED = 0, 1, 2


# ---------------------------------------------------------------------------
# messages
# ---------------------------------------------------------------------------

class GetS(Message):
    kind = "ctrl"
    __slots__ = ()


class GetM(Message):
    kind = "ctrl"
    __slots__ = ()


class PutM(Message):
    """Dirty writeback of an evicted modified line."""

    kind = "data"
    __slots__ = ("version",)

    def __init__(self, addr: int, sm: int, version: int) -> None:
        super().__init__(addr, sm)
        self.version = version

    def payload_bytes(self, config) -> int:
        return config.line_size


class DataS(Message):
    """Shared data grant."""

    kind = "data"
    __slots__ = ("version",)

    def __init__(self, addr: int, sm: int, version: int) -> None:
        super().__init__(addr, sm)
        self.version = version

    def payload_bytes(self, config) -> int:
        return config.line_size


class DataM(Message):
    """Exclusive-ownership grant."""

    kind = "data"
    __slots__ = ("version",)

    def __init__(self, addr: int, sm: int, version: int) -> None:
        super().__init__(addr, sm)
        self.version = version

    def payload_bytes(self, config) -> int:
        return config.line_size


class Inv(Message):
    """Invalidate request from the directory to one L1."""

    kind = "ctrl"
    __slots__ = ()


class InvAck(Message):
    """Invalidation acknowledgment (carries data when it was M)."""

    uniform_size = False
    __slots__ = ("version", "had_data")

    def __init__(self, addr: int, sm: int, version: int = 0,
                 had_data: bool = False) -> None:
        super().__init__(addr, sm)
        self.version = version
        self.had_data = had_data

    @property
    def kind(self) -> str:  # type: ignore[override]
        return "data" if self.had_data else "ctrl"

    def payload_bytes(self, config) -> int:
        return config.line_size if self.had_data else 0


class MemAtmD(Message):
    """Atomic RMW at the directory."""

    kind = "data"
    __slots__ = ("version",)

    def __init__(self, addr: int, sm: int, version: int) -> None:
        super().__init__(addr, sm)
        self.version = version

    def payload_bytes(self, config) -> int:
        return 8


class AtmAckD(Message):
    kind = "ctrl"
    __slots__ = ("old_version", "version")

    def __init__(self, addr: int, sm: int, old_version: int,
                 version: int = None) -> None:
        super().__init__(addr, sm)
        self.old_version = old_version
        self.version = version

    def payload_bytes(self, config) -> int:
        return 8


# ---------------------------------------------------------------------------
# L1 controller
# ---------------------------------------------------------------------------

class MESIL1Controller(L1ControllerBase):
    """Write-back MSI private cache."""

    def __init__(self, sm_id: int, machine: "Machine") -> None:
        super().__init__(sm_id, machine)
        config = machine.config
        self.cache = CacheArray(config.l1_sets, config.l1_assoc)
        # stores waiting for ownership, FIFO per line
        self._pending_stores: Dict[int, Deque[PendingStore]] = {}
        self._pending_atomics: Dict[int, Deque[PendingAtomic]] = {}
        # lines with a GetM in flight (avoid duplicate requests)
        self._m_requested: Set[int] = set()
        # loads merged into an in-flight GetM: issuing a GetS while our
        # own GetM races would let the directory downgrade the
        # ownership it is about to grant us, so these loads wait for
        # the DataM instead (classic MSHR read-after-write merging)
        self._loads_after_getm: Dict[int, List[LoadWaiter]] = {}

    # -- SM interface ------------------------------------------------------------
    def load(self, warp: "Warp", addr: int,
             on_done: Callable[[], None]) -> bool:
        self._counters["l1_access"] += 1
        line = self.cache.lookup(addr)
        if line is not None and line.expiry != _INVALID:
            self._counters["l1_hit"] += 1
            self._record_load(warp, addr, line.version, self.engine.now,
                              hit=True)
            self._complete(on_done, self.config.l1_latency)
            return True
        self._counters["l1_miss"] += 1
        waiter = LoadWaiter(warp, on_done, self.engine.now)
        if addr in self._m_requested:
            # merge into the outstanding write miss; the ownership
            # grant will satisfy this read with the newest data
            self._loads_after_getm.setdefault(addr, []).append(waiter)
            return True
        entry = self.mshr.get(addr)
        if entry is not None and \
                self.config.combining is CombiningPolicy.MSHR:
            entry.waiters.append(waiter)
            return True
        if entry is None:
            if self.mshr.full:
                self._counters["l1_mshr_stall"] += 1
                return False
            entry = self.mshr.allocate(addr)
        entry.waiters.append(waiter)
        self._send(GetS(addr, self.sm_id))
        entry.issued = True
        return True

    def store(self, warp: "Warp", addr: int,
              on_done: Callable[[], None]) -> bool:
        self._counters["l1_access"] += 1
        self._counters["l1_store"] += 1
        version = self.machine.versions.new_version(addr)
        line = self.cache.lookup(addr)
        if line is not None and line.expiry == _MODIFIED:
            # write hit in M: no coherence traffic at all
            self._counters["l1_store_hit_m"] += 1
            line.version = version
            line.dirty = True
            self.machine.versions.record_wts(addr, version,
                                             self.engine.now)
            self._record_store(warp, addr, version, self.engine.now,
                               self.engine.now)
            self._complete(on_done, self.config.l1_latency)
            return True
        pending = PendingStore(warp, addr, version, on_done,
                               self.engine.now)
        self._pending_stores.setdefault(addr, deque()).append(pending)
        if addr not in self._m_requested:
            self._m_requested.add(addr)
            self._send(GetM(addr, self.sm_id))
        return True

    def atomic(self, warp: "Warp", addr: int,
               on_done: Callable[[], None]) -> bool:
        self._counters["l1_access"] += 1
        self._counters["l1_atomic"] += 1
        version = self.machine.versions.new_version(addr)
        # atomics are performed at the directory; drop the local copy
        self._invalidate_local(addr)
        pending = PendingAtomic(warp, addr, version, on_done,
                                self.engine.now)
        self._pending_atomics.setdefault(addr, deque()).append(pending)
        self._send(MemAtmD(addr, self.sm_id, version))
        return True

    # -- responses --------------------------------------------------------------
    def receive(self, msg: Message) -> None:
        if isinstance(msg, DataS):
            line = self.cache.lookup(msg.addr)
            if line is not None and line.expiry == _MODIFIED:
                # a racing GetM was granted first: our M data is newer
                # than this shared grant — serve the waiters locally
                version = line.version
            else:
                self._install(msg.addr, msg.version, _SHARED)
                version = msg.version
            for waiter in self.mshr.drain(msg.addr):
                self._record_load(waiter.warp, msg.addr, version,
                                  waiter.issue_cycle, hit=False)
                self._complete(waiter.on_done)
        elif isinstance(msg, DataM):
            self._on_ownership(msg)
        elif isinstance(msg, Inv):
            self._on_invalidate(msg)
        elif isinstance(msg, AtmAckD):
            self._on_atomic_ack(msg)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unexpected message at MESI L1: {msg!r}")

    def _on_ownership(self, msg: DataM) -> None:
        self._m_requested.discard(msg.addr)
        line = self._install(msg.addr, msg.version, _MODIFIED)
        queue = self._pending_stores.get(msg.addr)
        if not queue:  # pragma: no cover - defensive
            raise RuntimeError(f"ownership grant with no store: {msg!r}")
        # perform every queued store locally, in order
        newest = msg.version
        while queue:
            pending = queue.popleft()
            newest = pending.version
            if line is not None:
                line.version = pending.version
                line.dirty = True
            self.machine.versions.record_wts(msg.addr, pending.version,
                                             self.engine.now)
            self._record_store(pending.warp, msg.addr, pending.version,
                               pending.issue_cycle, self.engine.now)
            self._complete(pending.on_done)
        self._pending_stores.pop(msg.addr, None)
        # serve the loads that merged into this write miss: they read
        # the freshly written value
        for waiter in self._loads_after_getm.pop(msg.addr, []):
            self._record_load(waiter.warp, msg.addr, newest,
                              waiter.issue_cycle, hit=False)
            self._complete(waiter.on_done)
        if line is None:
            # could not cache the granted line (all ways busy): push
            # the data straight back to the directory
            self._send(PutM(msg.addr, self.sm_id, newest))

    def _on_invalidate(self, msg: Inv) -> None:
        line = self.cache.lookup(msg.addr, touch=False)
        if line is None or line.expiry == _INVALID:
            # silently-evicted sharer: harmless over-invalidation
            self._counters["l1_stale_invalidations"] += 1
            self._send(InvAck(msg.addr, self.sm_id))
            return
        had_data = line.expiry == _MODIFIED and line.dirty
        version = line.version
        self.cache.invalidate(msg.addr)
        self._counters["l1_invalidations_received"] += 1
        self._send(InvAck(msg.addr, self.sm_id, version, had_data))

    def _on_atomic_ack(self, msg: AtmAckD) -> None:
        pending = pop_pending(self._pending_atomics[msg.addr], msg.version)
        log = self.machine.log
        if log.enabled:    # don't even build the record when disabled
            log.atomics.append(AtomicRecord(
                warp_uid=pending.warp.uid, addr=msg.addr,
                old_version=msg.old_version, new_version=pending.version,
                logical_ts=0, epoch=0, issue_cycle=pending.issue_cycle,
                complete_cycle=self.engine.now))
        self._complete(pending.on_done)

    # -- local cache management -----------------------------------------------
    def _install(self, addr: int, version: int,
                 state: int) -> Optional[CacheLine]:
        line, evicted = self.cache.allocate(addr)
        if evicted is not None:
            self._writeback_if_modified(evicted)
        if line is None:
            return None
        line.version = version
        line.expiry = state
        line.dirty = False
        return line

    def _invalidate_local(self, addr: int) -> None:
        line = self.cache.lookup(addr, touch=False)
        if line is not None:
            self._writeback_if_modified(line)
            self.cache.invalidate(addr)

    def _writeback_if_modified(self, line: CacheLine) -> None:
        if line.expiry == _MODIFIED and line.dirty:
            self._send(PutM(line.addr, self.sm_id, line.version))

    def flush(self) -> None:
        for line in list(self.cache.lines()):
            self._writeback_if_modified(line)
        self.cache.flush()

    # -- records -----------------------------------------------------------------
    def _record_load(self, warp, addr, version, issue_cycle, hit):
        self.stats.hist.add("load_latency",
                            self.engine.now - issue_cycle)
        log = self.machine.log
        if log.enabled:
            log.loads.append(LoadRecord(
                warp_uid=warp.uid, addr=addr, version=version, logical_ts=0,
                epoch=0, issue_cycle=issue_cycle,
                complete_cycle=self.engine.now, l1_hit=hit))

    def _record_store(self, warp, addr, version, issue_cycle, done):
        self.stats.hist.add("store_latency", done - issue_cycle)
        log = self.machine.log
        if log.enabled:
            log.stores.append(StoreRecord(
                warp_uid=warp.uid, addr=addr, version=version, logical_ts=0,
                epoch=0, issue_cycle=issue_cycle, complete_cycle=done))


# ---------------------------------------------------------------------------
# directory / L2 bank
# ---------------------------------------------------------------------------

class _DirEntry:
    """Directory transaction state for one line."""

    __slots__ = ("sharers", "owner", "pending_acks", "parked",
                 "grant", "await_owner_data")

    def __init__(self) -> None:
        self.sharers: Set[int] = set()
        self.owner: Optional[int] = None
        self.pending_acks = 0
        # requests parked while a transaction completes
        self.parked: Deque[Message] = deque()
        # the message to satisfy once acks are in
        self.grant: Optional[Message] = None
        self.await_owner_data = False

    @property
    def busy(self) -> bool:
        return self.pending_acks > 0 or self.await_owner_data


class MESIL2Bank(L2BankBase):
    """L2 bank with a full-map MSI directory."""

    def __init__(self, bank_id: int, machine: "Machine") -> None:
        super().__init__(bank_id, machine)
        self._dir: Dict[int, _DirEntry] = {}
        # acks still owed to fire-and-forget eviction recalls; they
        # must not be mistaken for a live transaction's acks
        self._stray_acks: Dict[int, int] = {}
        # prebound eviction predicate (no closure per fill attempt)
        self._dir_free = self._dir_line_idle

    def _dir_line_idle(self, line: CacheLine) -> bool:
        return not self._entry_busy(line.addr)

    def _entry(self, addr: int) -> _DirEntry:
        entry = self._dir.get(addr)
        if entry is None:
            entry = _DirEntry()
            self._dir[addr] = entry
        return entry

    # -- dispatch ------------------------------------------------------------
    def _process(self, msg: Message) -> None:
        if isinstance(msg, InvAck):
            self._on_inv_ack(msg)
            return
        if isinstance(msg, PutM):
            self._on_putm(msg)
            return
        entry = self._entry(msg.addr)
        if entry.busy:
            entry.parked.append(msg)
            self._counters["dir_blocked_requests"] += 1
            return
        line = self.cache.lookup(msg.addr)
        if line is None:
            self._miss(msg)
            return
        self._counters["l2_hit"] += 1
        if isinstance(msg, GetS):
            self._gets(msg, entry, line)
        elif isinstance(msg, GetM):
            self._getm(msg, entry, line)
        elif isinstance(msg, MemAtmD):
            self._atomic(msg, entry, line)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unexpected message at directory: {msg!r}")

    # -- reads ----------------------------------------------------------------
    def _gets(self, msg: GetS, entry: _DirEntry, line: CacheLine) -> None:
        if entry.owner is not None and entry.owner != msg.sm:
            # recall the modified copy first (owner downgrades to S)
            self._recall_owner(entry, msg)
            return
        entry.sharers.add(msg.sm)
        entry.owner = None
        self._reply(msg.sm, DataS(msg.addr, msg.sm, line.version))

    # -- writes ---------------------------------------------------------------
    def _getm(self, msg: GetM, entry: _DirEntry, line: CacheLine) -> None:
        targets = set(entry.sharers)
        if entry.owner is not None:
            targets.add(entry.owner)
        targets.discard(msg.sm)
        if targets:
            self._counters["dir_invalidations"] += len(targets)
            if self.trace is not None:
                self.trace.instant(self.engine.now, self.track,
                                   "invalidate",
                                   {"addr": msg.addr,
                                    "sharers": len(targets)})
            entry.pending_acks = len(targets)
            entry.grant = msg
            for sm in targets:
                self._reply(sm, Inv(msg.addr, sm))
            return
        self._grant_ownership(msg, entry, line)

    def _grant_ownership(self, msg: GetM, entry: _DirEntry,
                         line: CacheLine) -> None:
        entry.sharers = set()
        entry.owner = msg.sm
        if self.trace is not None:
            self.trace.instant(self.engine.now, self.track,
                               "grant_ownership",
                               {"addr": msg.addr, "owner": msg.sm})
        # ownership hands the current data to the writer; the L2 copy
        # is stale from here until the writeback
        self._reply(msg.sm, DataM(msg.addr, msg.sm, line.version))
        self._unpark(entry)

    def _recall_owner(self, entry: _DirEntry, msg: Message) -> None:
        self._counters["dir_recalls"] += 1
        if self.trace is not None:
            self.trace.instant(self.engine.now, self.track, "recall",
                               {"addr": msg.addr,
                                "owner": entry.owner})
        entry.await_owner_data = True
        entry.grant = msg
        self._reply(entry.owner, Inv(msg.addr, entry.owner))
        entry.pending_acks = 1

    # -- acknowledgments ----------------------------------------------------------
    def _on_inv_ack(self, msg: InvAck) -> None:
        line = self.cache.lookup(msg.addr)
        if msg.had_data:
            if line is not None:
                line.version = msg.version
                line.dirty = True
            else:
                # recalled data with no resident line: write through
                self.machine.memory_image[msg.addr] = msg.version
                self.dram.write(msg.addr)
        stray = self._stray_acks.get(msg.addr, 0)
        if stray > 0:
            # answer to an eviction recall, not to a live transaction
            if stray == 1:
                self._stray_acks.pop(msg.addr, None)
            else:
                self._stray_acks[msg.addr] = stray - 1
            return
        entry = self._entry(msg.addr)
        if entry.pending_acks > 0:
            entry.pending_acks -= 1
        if entry.pending_acks > 0:
            return
        entry.await_owner_data = False
        grant = entry.grant
        entry.grant = None
        if grant is None:
            self._unpark(entry)
            return
        if line is None:  # pragma: no cover - entry pinned while busy
            raise RuntimeError("directory line lost mid-transaction")
        if isinstance(grant, GetM):
            self._grant_ownership(grant, entry, line)
        elif isinstance(grant, GetS):
            entry.owner = None
            entry.sharers.add(grant.sm)
            self._reply(grant.sm, DataS(grant.addr, grant.sm,
                                        line.version))
            self._unpark(entry)
        elif isinstance(grant, MemAtmD):
            self._perform_atomic(grant, entry, line)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unexpected grant: {grant!r}")

    def _on_putm(self, msg: PutM) -> None:
        entry = self._entry(msg.addr)
        line = self.cache.lookup(msg.addr)
        if line is not None:
            line.version = msg.version
            line.dirty = True
        else:
            self.machine.memory_image[msg.addr] = msg.version
            self.dram.write(msg.addr)
        if entry.owner == msg.sm:
            entry.owner = None
        if entry.await_owner_data:
            # the writeback satisfies an outstanding recall
            self._on_inv_ack(InvAck(msg.addr, msg.sm, msg.version,
                                    had_data=False))

    # -- atomics ---------------------------------------------------------------
    def _atomic(self, msg: MemAtmD, entry: _DirEntry,
                line: CacheLine) -> None:
        targets = set(entry.sharers)
        targets.discard(msg.sm)
        if entry.owner is not None:
            # recall the owner's copy even when the owner is the
            # requesting SM: its DataM may have raced past this atomic
            # and the newest data then sits modified in its L1 (the
            # Inv ack carries the data back before the RMW executes)
            targets.add(entry.owner)
        if targets:
            self._counters["dir_invalidations"] += len(targets)
            entry.pending_acks = len(targets)
            entry.grant = msg
            for sm in targets:
                self._reply(sm, Inv(msg.addr, sm))
            return
        self._perform_atomic(msg, entry, line)

    def _perform_atomic(self, msg: MemAtmD, entry: _DirEntry,
                        line: CacheLine) -> None:
        self._counters["l2_atomics"] += 1
        old_version = line.version
        line.version = msg.version
        line.dirty = True
        entry.sharers = set()
        entry.owner = None
        self.machine.versions.record_wts(msg.addr, msg.version,
                                         self.engine.now)
        self._reply(msg.sm, AtmAckD(msg.addr, msg.sm, old_version,
                                    version=msg.version))
        self._unpark(entry)

    def _unpark(self, entry: _DirEntry) -> None:
        while entry.parked and not entry.busy:
            self._process(entry.parked.popleft())

    # -- fills / directory eviction ------------------------------------------------
    def _install_fill(self, addr: int) -> Optional[CacheLine]:
        line, evicted = self.cache.allocate(addr, self._dir_free)
        if line is None:
            return None
        if evicted is not None:
            self._evict_directory_entry(evicted)
        line.version = self._memory_version(addr)
        line.dirty = False
        return line

    def _entry_busy(self, addr: int) -> bool:
        entry = self._dir.get(addr)
        return entry is not None and entry.busy

    def _evict_directory_entry(self, evicted: CacheLine) -> None:
        """Recall every cached copy before dropping the entry (§II-C's
        recall traffic); the stale-sharer acks are fire-and-forget."""
        self._counters["l2_evictions"] += 1
        entry = self._dir.pop(evicted.addr, None)
        if entry is not None:
            targets = set(entry.sharers)
            if entry.owner is not None:
                targets.add(entry.owner)
            if targets:
                self._counters["dir_recall_invalidations"] += len(targets)
                self._stray_acks[evicted.addr] = (
                    self._stray_acks.get(evicted.addr, 0) + len(targets))
                for sm in targets:
                    self._reply(sm, Inv(evicted.addr, sm))
        self._writeback(evicted)
