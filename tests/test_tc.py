"""Tests for the Temporal Coherence baseline (Section II-D)."""

from repro.config import Consistency, GPUConfig, Protocol
from repro.gpu.gpu import GPU
from repro.gpu.machine import Machine
from repro.gpu.warp import Warp
from repro.protocols.factory import build_protocol
from repro.protocols.tc import TCFill, TCRd, TCWr, TCWrAck
from repro.trace.instr import Kernel, compute, fence, load, store


def make_machine(consistency=Consistency.SC, **overrides):
    config = GPUConfig.tiny(protocol=Protocol.TC, consistency=consistency,
                            **overrides)
    machine = Machine(config)
    build_protocol(machine)
    return machine


def tracker():
    done = []
    return done, lambda: done.append(True)


# ---------------------------------------------------------------------------
# L1 behaviour
# ---------------------------------------------------------------------------

def test_fill_grants_physical_lease():
    machine = make_machine()
    l1 = machine.l1s[0]
    warp = Warp(0, [])
    done, cb = tracker()
    l1.load(warp, 0, cb)
    machine.engine.run()
    line = l1.cache.lookup(0)
    assert line is not None
    assert line.expiry > machine.engine.now
    assert done == [True]


def test_hit_within_lease_miss_after_expiry():
    machine = make_machine()
    l1 = machine.l1s[0]
    warp = Warp(0, [])
    done, cb = tracker()
    l1.load(warp, 0, cb)
    machine.engine.run()
    l1.load(warp, 0, cb)      # inside the lease: hit
    machine.engine.run()
    assert machine.stats.get("l1_hit") == 1
    # jump physical time past the lease: self-invalidation
    expiry = l1.cache.lookup(0).expiry
    machine.engine.schedule(expiry + 1, lambda: l1.load(warp, 0, cb))
    machine.engine.run()
    assert machine.stats.get("l1_expired_miss") == 1
    assert done == [True] * 3


def test_store_invalidates_local_copy():
    machine = make_machine()
    l1 = machine.l1s[0]
    warp = Warp(0, [])
    done, cb = tracker()
    l1.load(warp, 0, cb)
    machine.engine.run()
    l1.store(warp, 0, cb)
    assert l1.cache.lookup(0) is None  # write-through, no-allocate
    machine.engine.run()
    assert done == [True, True]


# ---------------------------------------------------------------------------
# TC-Strong: write stalls
# ---------------------------------------------------------------------------

def test_strong_write_waits_for_lease_expiry():
    machine = make_machine(Consistency.SC)
    l1_a, l1_b = machine.l1s[0], machine.l1s[1]
    reader, writer = Warp(0, []), Warp(1, [])
    done_r, cb_r = tracker()
    done_w, cb_w = tracker()
    # SM0 takes a lease on line 0
    l1_a.load(reader, 0, cb_r)
    machine.engine.run()
    lease_end = machine.l2_banks[0].cache.lookup(0).expiry
    # SM1 writes: must wait for SM0's lease
    l1_b.store(writer, 0, cb_w)
    machine.engine.run()
    assert done_w == [True]
    assert machine.engine.now >= lease_end
    assert machine.stats.get("l2_write_stalls") == 1
    assert machine.stats.get("l2_write_stall_cycles") > 0


def test_strong_reads_queue_behind_waiting_write():
    """Section II-D3: a delayed write delays all subsequent reads."""
    machine = make_machine(Consistency.SC)
    l1_a, l1_b = machine.l1s[0], machine.l1s[1]
    reader, writer, late = Warp(0, []), Warp(1, []), Warp(2, [])
    l1_a.load(reader, 0, lambda: None)
    machine.engine.run()
    lease_end = machine.l2_banks[0].cache.lookup(0).expiry
    late_done = []
    l1_b.store(writer, 0, lambda: None)
    # give the write a head start so it is parked before the read
    machine.engine.run(until=machine.engine.now + 15)
    l1_b.load(late, 0, lambda: late_done.append(machine.engine.now))
    machine.engine.run()
    assert late_done and late_done[0] >= lease_end
    assert machine.stats.get("l2_blocked_requests") >= 1
    # the queued read returned the *new* version (it ordered after)
    assert machine.log.loads[-1].version == 1


def test_weak_write_completes_immediately_with_gwct():
    machine = make_machine(Consistency.RC)
    l1_a, l1_b = machine.l1s[0], machine.l1s[1]
    reader, writer = Warp(0, []), Warp(1, [])
    l1_a.load(reader, 0, lambda: None)
    machine.engine.run()
    lease_end = machine.l2_banks[0].cache.lookup(0).expiry
    done_w, cb_w = tracker()
    start = machine.engine.now
    l1_b.store(writer, 0, cb_w)
    machine.engine.run()
    assert done_w == [True]
    # no lease stall: completed in a NoC round trip
    assert machine.engine.now < lease_end
    # but the GWCT records when the write becomes globally visible
    assert writer.gwct == lease_end
    assert machine.stats.get("l2_write_stalls") == 0


# ---------------------------------------------------------------------------
# system level
# ---------------------------------------------------------------------------

def test_tc_weak_fence_waits_for_gwct():
    config = GPUConfig.tiny(protocol=Protocol.TC, consistency=Consistency.RC)
    # SM0 reads line 0 (long lease); SM1 writes it and fences
    kernel = Kernel("gwct", [
        [load(0), compute(2), fence()],
        [compute(10), store(0), fence(), load(1), fence()],
    ])
    gpu = GPU(config)
    stats = gpu.run(kernel)
    assert stats.counter("fence_wait_cycles") > 0
    # the fence completed only after the writer's GWCT passed
    assert stats.cycles >= config.tc_lease


def test_tc_strong_inclusion_stalls_replacement():
    """Section II-D2: lease-pinned L2 lines block eviction."""
    config = GPUConfig.tiny(protocol=Protocol.TC, consistency=Consistency.SC,
                            tc_lease=100_000)
    machine = Machine(config)
    build_protocol(machine)
    l1 = machine.l1s[0]
    sets = config.l2_sets
    stride = sets * config.num_l2_banks
    warp = Warp(0, [])
    # lease-pin every way of one L2 set, then fetch one more line
    for k in range(config.l2_assoc):
        l1.load(warp, k * stride, lambda: None)
        machine.engine.run()
    done, cb = tracker()
    l1.load(warp, config.l2_assoc * stride, cb)
    machine.engine.run(until=machine.engine.now + 200)
    assert machine.stats.get("l2_evict_stall") > 0
    assert done == []  # still stalled behind the pinned set


def test_tc_lease_stall_probe_waits_for_the_first_expired_way():
    """The raw probe in ``_retry_fill`` takes the pinned branch while
    every way of the full set is leased (caching the exact minimum
    expiry), then the expired-way scan installs over the first way
    whose lease ran out."""
    config = GPUConfig.tiny(protocol=Protocol.TC, consistency=Consistency.SC,
                            tc_lease=2_000)
    machine = Machine(config)
    build_protocol(machine)
    l1 = machine.l1s[0]
    bank = machine.l2_banks[0]
    stride = config.l2_sets * config.num_l2_banks
    warp = Warp(0, [])
    ways = [k * stride for k in range(config.l2_assoc)]
    for addr in ways:
        l1.load(warp, addr, lambda: None)
        machine.engine.run()
    leases = {addr: bank.cache.lookup(addr, touch=False).expiry
              for addr in ways}
    first = min(leases, key=leases.get)
    lease_min = leases[first]
    assert lease_min > machine.engine.now
    done, cb = tracker()
    extra = config.l2_assoc * stride
    l1.load(warp, extra, cb)
    machine.engine.run(until=lease_min - 1)
    stalls = machine.stats.get("l2_evict_stall")
    assert stalls > 1 and done == []
    assert bank._set_min[0] == lease_min      # pinned branch's exact min
    machine.engine.run(max_events=10_000)
    assert done == [True]
    # no retry at or after the first expiry stalled: the scan found it
    assert machine.stats.get("l2_evict_stall") == stalls
    assert bank.cache.lookup(first, touch=False) is None
    assert bank.cache.lookup(extra, touch=False) is not None
    assert all(bank.cache.lookup(a, touch=False) is not None
               for a in ways if a != first)


def test_tc_end_to_end_mixed_kernel_completes():
    for consistency in (Consistency.SC, Consistency.RC):
        config = GPUConfig.tiny(protocol=Protocol.TC,
                                consistency=consistency)
        kernel = Kernel("mix", [
            [load(0), store(1), fence(), load(1), fence()],
            [load(1), store(0), fence(), load(0), fence()],
        ])
        stats = GPU(config).run(kernel)
        assert stats.cycles > 0


def test_tc_message_sizes_reflect_32bit_times():
    config = GPUConfig.tiny()
    rd = TCRd(0, 0)
    fill = TCFill(0, 0, version=1, expiry=50)
    ack = TCWrAck(0, 0, gwct=99)
    wr = TCWr(0, 0, version=1)
    assert rd.size(config) == config.noc_header_bytes
    assert fill.size(config) == (config.noc_header_bytes
                                 + config.tc_timestamp_bytes
                                 + config.line_size)
    assert ack.size(config) == (config.noc_header_bytes
                                + config.tc_timestamp_bytes)
    assert wr.size(config) == config.noc_header_bytes + config.line_size
