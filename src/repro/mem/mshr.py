"""Miss Status Holding Registers.

GPUs merge all outstanding accesses to the same line into one MSHR
entry and send a single request down the hierarchy (Section II-A).
For G-TSC the entry additionally keeps each waiter's identity so that,
when the response's lease does not cover a waiting warp's timestamp, a
renewal can be issued for the stragglers (Section V-B, Figure 11).
"""

from __future__ import annotations

from typing import Any, Callable, Optional


class MSHRFullError(Exception):
    """Raised when an allocation is attempted on a full MSHR table."""


class MSHREntry:
    """Book-keeping for one outstanding miss."""

    __slots__ = ("addr", "waiters", "issued")

    def __init__(self, addr: int) -> None:
        self.addr = addr
        # each waiter is an opaque record owned by the controller
        self.waiters: list[Any] = []
        # True once a request has actually been sent to the next level
        self.issued = False


class MSHRTable:
    """A fixed-capacity table of :class:`MSHREntry`, keyed by line address."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("MSHR capacity must be positive")
        self.capacity = capacity
        self._entries: dict[int, MSHREntry] = {}
        self.peak_occupancy = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, addr: int) -> bool:
        return addr in self._entries

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def get(self, addr: int) -> Optional[MSHREntry]:
        """The entry tracking ``addr``, or None."""
        return self._entries.get(addr)

    def allocate(self, addr: int) -> MSHREntry:
        """Create (or return the existing) entry for ``addr``.

        Raises :class:`MSHRFullError` when a new entry is needed but
        the table is full — the controller is expected to retry the
        access after ``mshr_retry_interval`` cycles, which models the
        structural-stall back-pressure of a real MSHR file.
        """
        entries = self._entries
        entry = entries.get(addr)
        if entry is not None:
            return entry
        if len(entries) >= self.capacity:
            raise MSHRFullError(f"MSHR full ({self.capacity}) for {addr:#x}")
        entry = MSHREntry(addr)
        entries[addr] = entry
        occupancy = len(entries)
        if occupancy > self.peak_occupancy:
            self.peak_occupancy = occupancy
        return entry

    def release(self, addr: int) -> MSHREntry:
        """Remove and return the entry for ``addr``."""
        try:
            return self._entries.pop(addr)
        except KeyError:
            raise KeyError(f"no MSHR entry for line {addr:#x}") from None

    def drain(self, addr: int,
              keep: Optional[Callable[[Any], bool]] = None) -> list[Any]:
        """Pop waiters for ``addr`` that are now serviceable.

        Waiters for which ``keep`` returns True stay in the entry (they
        still need a renewal); the rest are returned for completion.
        When the entry empties, it is released.  Missing entries yield
        an empty list, which makes response handling idempotent.
        """
        entry = self._entries.get(addr)
        if entry is None:
            return []
        if keep is None:
            done = entry.waiters
            entry.waiters = []
        else:
            done = [w for w in entry.waiters if not keep(w)]
            entry.waiters = [w for w in entry.waiters if keep(w)]
        if not entry.waiters:
            self._entries.pop(addr, None)
        return done

    def entries(self) -> list[MSHREntry]:
        """Snapshot of all live entries (for tests and flush checks)."""
        return list(self._entries.values())
