"""Property-based tests (hypothesis) on the core data structures."""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.timestamps import TimestampDomain
from repro.mem.cache import CacheArray
from repro.mem.mshr import MSHRFullError, MSHRTable
from repro.sim.engine import Engine


# ---------------------------------------------------------------------------
# engine: scheduling order is a stable sort by time
# ---------------------------------------------------------------------------

@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1,
                max_size=60))
def test_engine_fires_in_stable_time_order(delays):
    engine = Engine()
    fired = []
    for index, delay in enumerate(delays):
        engine.schedule(delay, fired.append, (delay, index))
    engine.run()
    assert fired == sorted(fired)  # (time, seq) lexicographic


@given(st.lists(st.tuples(st.integers(0, 30), st.booleans()), min_size=1,
                max_size=40))
def test_engine_cancellation_only_removes_cancelled(jobs):
    engine = Engine()
    fired = []
    events = []
    for delay, cancel in jobs:
        events.append((engine.schedule(delay, fired.append, len(events)),
                       cancel))
    for event, cancel in events:
        if cancel:
            engine.cancel(event)
    engine.run()
    expected = {i for i, (e, c) in enumerate(events) if not c}
    assert set(fired) == expected


# ---------------------------------------------------------------------------
# cache: model-based comparison against per-set LRU OrderedDicts
# ---------------------------------------------------------------------------

@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=4),     # sets (power not needed)
    st.integers(min_value=1, max_value=4),     # assoc
    st.lists(st.tuples(st.booleans(), st.integers(0, 30)), max_size=120),
)
def test_cache_matches_reference_lru_model(num_sets, assoc, ops):
    cache = CacheArray(num_sets, assoc)
    model = [OrderedDict() for _ in range(num_sets)]

    def model_set(addr):
        return model[addr % num_sets]

    for is_alloc, addr in ops:
        mset = model_set(addr)
        if is_alloc:
            line, evicted = cache.allocate(addr)
            if addr in mset:
                assert evicted is None
                mset.move_to_end(addr)
            else:
                if len(mset) >= assoc:
                    victim, _ = mset.popitem(last=False)
                    assert evicted is not None and evicted.addr == victim
                else:
                    assert evicted is None
                mset[addr] = True
            assert line.addr == addr
        else:
            hit = cache.lookup(addr) is not None
            assert hit == (addr in mset)
            if hit:
                mset.move_to_end(addr)
    # final contents agree
    for s in range(num_sets):
        expected = set(model[s])
        actual = {l.addr for l in cache.lines() if l.addr % num_sets == s}
        assert actual == expected


@settings(max_examples=80)
@given(
    st.integers(min_value=1, max_value=4),     # sets
    st.integers(min_value=1, max_value=4),     # assoc
    st.lists(st.tuples(st.sampled_from(["alloc", "alloc_pinned", "lookup",
                                        "invalidate", "flush"]),
                       st.integers(0, 30)), max_size=120),
)
def test_cache_slots_match_reference_slot_model(num_sets, assoc, ops):
    """Slot-exact model of the array: first invalid way, else the LRU
    evictable way; lines are built on a slot's first install only."""
    cache = CacheArray(num_sets, assoc)
    size = num_sets * assoc
    tags = [None] * size
    ages = [0] * size
    versions = [0] * size
    installed = set()
    tick = 0

    def pinned(addr):
        return addr % 3 == 0

    def evictable(line):
        return not pinned(line.addr)

    for step, (op, addr) in enumerate(ops, start=1):
        base = (addr % num_sets) * assoc
        ways = range(base, base + assoc)
        held = next((s for s in ways if tags[s] == addr), None)
        if op in ("alloc", "alloc_pinned"):
            line, evicted = cache.allocate(
                addr, evictable if op == "alloc_pinned" else None)
            free = [s for s in ways if tags[s] is None]
            slot = free[0] if free else min(
                (s for s in ways if op == "alloc" or not pinned(tags[s])),
                key=ages.__getitem__, default=None)
            if held is not None:
                tick += 1
                ages[held] = tick
                assert evicted is None
                assert (line.addr, line.version) == (addr, versions[held])
            elif slot is None:
                assert (line, evicted) == (None, None)
            else:
                if free:
                    assert evicted is None
                else:
                    assert (evicted.addr, evicted.version, evicted.valid) \
                        == (tags[slot], versions[slot], True)
                tick += 1
                tags[slot] = addr
                ages[slot] = tick
                installed.add(slot)
                assert line.valid and (line.addr, line.version) == (addr, 0)
                line.version = versions[slot] = step
        elif op == "lookup":
            line = cache.lookup(addr)
            if held is None:
                assert line is None
            else:
                tick += 1
                ages[held] = tick
                assert (line.addr, line.version) == (addr, versions[held])
        elif op == "invalidate":
            assert cache.invalidate(addr) == (held is not None)
            if held is not None:
                tags[held] = None
        else:
            assert cache.flush() == size - tags.count(None)
            tags = [None] * size
        assert [(l.addr, l.version) for l in cache.lines()] == \
            [(tags[s], versions[s]) for s in range(size)
             if tags[s] is not None]
        assert cache.occupancy() == size - tags.count(None)
        built = sum(line is not None for line in cache._lines)
        assert built == len(installed)


# ---------------------------------------------------------------------------
# MSHR: occupancy never exceeds capacity; drain conserves waiters
# ---------------------------------------------------------------------------

@given(st.lists(st.tuples(st.sampled_from(["alloc", "drain"]),
                          st.integers(0, 8)), max_size=80),
       st.integers(min_value=1, max_value=6))
def test_mshr_capacity_and_waiter_conservation(ops, capacity):
    table = MSHRTable(capacity)
    parked = 0
    completed = 0
    for op, addr in ops:
        if op == "alloc":
            try:
                entry = table.allocate(addr)
            except MSHRFullError:
                assert len(table) == capacity
                continue
            entry.waiters.append(object())
            parked += 1
        else:
            completed += len(table.drain(addr))
        assert len(table) <= capacity
    remaining = sum(len(e.waiters) for e in table.entries())
    assert completed + remaining == parked


# ---------------------------------------------------------------------------
# timestamp domain: clamp never lets a timestamp exceed ts_max
# ---------------------------------------------------------------------------

@given(st.lists(st.integers(min_value=0, max_value=1000), max_size=60))
def test_domain_clamp_never_exceeds_max(values):
    domain = TimestampDomain(ts_max=200, lease=10)
    epochs_seen = 0
    for value in values:
        out = domain.clamp(value)
        if out == -1:
            epochs_seen += 1
            assert domain.epoch == epochs_seen
        else:
            assert out == value <= 200


@given(st.integers(min_value=1, max_value=100))
def test_domain_epoch_monotone(resets):
    domain = TimestampDomain(ts_max=1000, lease=5)
    for expected in range(1, resets + 1):
        domain.overflow_reset()
        assert domain.epoch == expected
