"""One function per table/figure of the paper's evaluation.

Every function takes an :class:`ExperimentRunner` and returns an
:class:`ExperimentResult` whose rows mirror the paper's presentation:

=================  ========================================================
``table2``         Table II — absolute execution cycles of BL and TC
``fig12``          Fig. 12 — performance normalised to the no-L1 baseline
``fig13``          Fig. 13 — memory-induced pipeline stalls, normalised
``fig14``          Fig. 14 — G-TSC-RC performance across lease values
``fig15``          Fig. 15 — NoC traffic, normalised
``fig16``          Fig. 16 — total energy, normalised
``fig17``          Fig. 17 — L1 cache energy (absolute joules)
``expiration``     §VI-E — lease-expiration miss reduction
``headline``       the abstract's three headline claims
``ablation_*``     §V design-choice ablations (see DESIGN.md)
=================  ========================================================

The paper normalises *performance* as ``baseline_cycles / cycles``
(bars above 1 are faster than the no-L1 baseline) and traffic/energy
as plain ratios to the baseline (bars below 1 are better).
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import (
    CombiningPolicy,
    Consistency,
    LeasePolicy,
    Protocol,
    VisibilityPolicy,
)
from repro.harness.runner import ExperimentRunner, point_of
from repro.harness.tables import ExperimentResult, geomean
from repro.workloads import (
    ALL_NAMES,
    COHERENT_NAMES,
    INDEPENDENT_NAMES,
    MULTIGPU_NAMES,
)

_BARS = ["TC-SC", "TC-RC", "G-TSC-SC", "G-TSC-RC"]


def _group(name: str) -> str:
    return "coherent" if name in COHERENT_NAMES else "no-coh"


def _prefetch_standard(runner: ExperimentRunner, names,
                       with_l1: bool = False) -> None:
    """Batch the baseline+matrix points every figure loop needs.

    Handing the full point set to the runner up front lets a parallel
    runner simulate them concurrently; a sequential runner just warms
    its memo in the same order the loop would have.
    """
    points = ExperimentRunner.matrix_points(names, baseline=True)
    if with_l1:
        points += [point_of(n, Protocol.NONCOHERENT, Consistency.RC)
                   for n in names if n in INDEPENDENT_NAMES]
    runner.prefetch(points)


# ---------------------------------------------------------------------------
# Table II
# ---------------------------------------------------------------------------

def table2(runner: ExperimentRunner) -> ExperimentResult:
    """Absolute execution cycles of the baseline and TC per benchmark.

    The paper's Table II validates its TC re-implementation against
    the original TC simulator; that comparator is closed to us, so the
    regenerated table reports our BL and TC cycle counts (TC under the
    consistency the paper's TC rows use: TC-Weak/RC).
    """
    result = ExperimentResult(
        "table2",
        "Absolute execution cycles of TC and Baseline (BL)",
        ["benchmark", "group", "BL_cycles", "TC_cycles", "TC/BL"],
        notes=(
            "the paper's 'original simulator' columns require the "
            "closed-source TC/Ruby setup and are not reproducible; "
            "see DESIGN.md"
        ),
    )
    runner.prefetch(
        [point_of(n, Protocol.DISABLED, Consistency.RC)
         for n in ALL_NAMES]
        + [point_of(n, Protocol.TC, Consistency.RC) for n in ALL_NAMES])
    for name in ALL_NAMES:
        bl = runner.baseline(name)
        tc = runner.run(name, Protocol.TC, Consistency.RC)
        result.rows.append([
            name, _group(name), bl.cycles, tc.cycles,
            tc.cycles / bl.cycles,
        ])
    return result


# ---------------------------------------------------------------------------
# Figure 12 — performance
# ---------------------------------------------------------------------------

def fig12(runner: ExperimentRunner) -> ExperimentResult:
    """Normalised performance of every protocol/consistency pair."""
    result = ExperimentResult(
        "fig12",
        "Performance normalised to coherent GPU with L1 disabled "
        "(higher is better)",
        ["benchmark", "group", "W/L1"] + _BARS,
    )
    _prefetch_standard(runner, ALL_NAMES, with_l1=True)
    per_bar: dict = {bar: {} for bar in _BARS}
    for name in ALL_NAMES:
        bl = runner.baseline(name)
        bars = runner.matrix(name)
        row: List = [name, _group(name)]
        if name in INDEPENDENT_NAMES:
            row.append(bl.cycles / runner.with_l1(name).cycles)
        else:
            # W/L1 is incorrect for coherence-requiring benchmarks
            row.append("-")
        for bar in _BARS:
            speedup = bl.cycles / bars[bar].cycles
            per_bar[bar][name] = speedup
            row.append(speedup)
        result.rows.append(row)

    coh = COHERENT_NAMES
    result.summary = {
        "G-TSC-RC over TC-RC (coherent, geomean)": geomean(
            [per_bar["G-TSC-RC"][n] / per_bar["TC-RC"][n] for n in coh]),
        "G-TSC-SC over TC-RC (coherent, geomean)": geomean(
            [per_bar["G-TSC-SC"][n] / per_bar["TC-RC"][n] for n in coh]),
        "G-TSC-RC over TC-SC (coherent, geomean)": geomean(
            [per_bar["G-TSC-RC"][n] / per_bar["TC-SC"][n] for n in coh]),
        "G-TSC RC over SC (coherent, geomean)": geomean(
            [per_bar["G-TSC-RC"][n] / per_bar["G-TSC-SC"][n] for n in coh]),
        "G-TSC RC over SC (all, geomean)": geomean(
            [per_bar["G-TSC-RC"][n] / per_bar["G-TSC-SC"][n]
             for n in ALL_NAMES]),
        "G-TSC-RC overhead vs W/L1 (no-coh, geomean)": geomean(
            [(runner.baseline(n).cycles / runner.with_l1(n).cycles)
             / per_bar["G-TSC-RC"][n] for n in INDEPENDENT_NAMES]),
    }
    return result


# ---------------------------------------------------------------------------
# Figure 13 — memory stalls
# ---------------------------------------------------------------------------

def fig13(runner: ExperimentRunner) -> ExperimentResult:
    """Pipeline stalls due to memory delay, normalised to no-L1."""
    result = ExperimentResult(
        "fig13",
        "Memory-induced pipeline stalls normalised to no-L1 baseline "
        "(lower is better)",
        ["benchmark", "group"] + _BARS,
    )
    _prefetch_standard(runner, ALL_NAMES)
    ratios: dict = {bar: [] for bar in _BARS}
    coh_ratios: dict = {bar: [] for bar in _BARS}
    for name in ALL_NAMES:
        base = max(1, runner.baseline(name).stall_mem_cycles)
        bars = runner.matrix(name)
        row: List = [name, _group(name)]
        for bar in _BARS:
            ratio = bars[bar].stall_mem_cycles / base
            row.append(ratio)
            ratios[bar].append(ratio)
            if name in COHERENT_NAMES:
                coh_ratios[bar].append(ratio)
        result.rows.append(row)
    result.summary = {
        "TC-RC stalls / G-TSC-RC stalls (coherent, geomean)": geomean(
            [t / max(g, 1e-9) for t, g in
             zip(coh_ratios["TC-RC"], coh_ratios["G-TSC-RC"])]),
        "TC-SC stalls / G-TSC-SC stalls (coherent, geomean)": geomean(
            [t / max(g, 1e-9) for t, g in
             zip(coh_ratios["TC-SC"], coh_ratios["G-TSC-SC"])]),
    }
    return result


# ---------------------------------------------------------------------------
# Figure 14 — lease sensitivity of G-TSC
# ---------------------------------------------------------------------------

def fig14(runner: ExperimentRunner,
          leases: Optional[List[int]] = None) -> ExperimentResult:
    """G-TSC-RC performance across the paper's lease range (8-20)."""
    leases = leases or [8, 12, 16, 20]
    result = ExperimentResult(
        "fig14",
        "G-TSC-RC performance with different lease values "
        "(normalised to no-L1; flat = insensitive)",
        ["benchmark"] + [f"lease={v}" for v in leases],
    )
    runner.prefetch(
        [point_of(n, Protocol.DISABLED, Consistency.RC)
         for n in COHERENT_NAMES]
        + [point_of(n, Protocol.GTSC, Consistency.RC, lease=lease)
           for n in COHERENT_NAMES for lease in leases])
    spreads = []
    for name in COHERENT_NAMES:
        bl = runner.baseline(name)
        row: List = [name]
        values = []
        for lease in leases:
            stats = runner.run(name, Protocol.GTSC, Consistency.RC,
                               lease=lease)
            values.append(bl.cycles / stats.cycles)
        row.extend(values)
        spreads.append(max(values) / min(values) - 1.0)
        result.rows.append(row)
    result.summary = {
        "max relative spread across leases": max(spreads),
        "mean relative spread across leases": sum(spreads) / len(spreads),
    }
    return result


# ---------------------------------------------------------------------------
# Figure 15 — NoC traffic
# ---------------------------------------------------------------------------

def fig15(runner: ExperimentRunner) -> ExperimentResult:
    """NoC traffic normalised to the no-L1 baseline."""
    result = ExperimentResult(
        "fig15",
        "NoC traffic normalised to no-L1 baseline (lower is better)",
        ["benchmark", "group"] + _BARS,
    )
    _prefetch_standard(runner, ALL_NAMES)
    coh: dict = {bar: [] for bar in _BARS}
    for name in ALL_NAMES:
        base = max(1, runner.baseline(name).noc_bytes)
        bars = runner.matrix(name)
        row: List = [name, _group(name)]
        for bar in _BARS:
            ratio = bars[bar].noc_bytes / base
            row.append(ratio)
            if name in COHERENT_NAMES:
                coh[bar].append(ratio)
        result.rows.append(row)
    result.summary = {
        "G-TSC-RC traffic reduction vs TC-RC (coherent)":
            1.0 - geomean(coh["G-TSC-RC"]) / geomean(coh["TC-RC"]),
        "G-TSC-SC traffic reduction vs TC-SC (coherent)":
            1.0 - geomean(coh["G-TSC-SC"]) / geomean(coh["TC-SC"]),
    }
    return result


# ---------------------------------------------------------------------------
# Figures 16 & 17 — energy
# ---------------------------------------------------------------------------

def fig16(runner: ExperimentRunner) -> ExperimentResult:
    """Total energy normalised to the no-L1 baseline."""
    result = ExperimentResult(
        "fig16",
        "Total energy normalised to no-L1 baseline (lower is better)",
        ["benchmark", "group"] + _BARS,
    )
    _prefetch_standard(runner, ALL_NAMES)
    coh: dict = {bar: [] for bar in _BARS}
    for name in ALL_NAMES:
        base = runner.baseline(name).total_energy
        bars = runner.matrix(name)
        row: List = [name, _group(name)]
        for bar in _BARS:
            ratio = bars[bar].total_energy / base
            row.append(ratio)
            if name in COHERENT_NAMES:
                coh[bar].append(ratio)
        result.rows.append(row)
    result.summary = {
        "G-TSC-RC energy saving vs TC-RC (coherent)":
            1.0 - geomean(coh["G-TSC-RC"]) / geomean(coh["TC-RC"]),
        "G-TSC-RC energy saving vs baseline (coherent)":
            1.0 - geomean(coh["G-TSC-RC"]),
    }
    return result


def fig16_components(runner: ExperimentRunner) -> ExperimentResult:
    """Section VI-D's component breakdown of the energy saving.

    The paper reports G-TSC saving energy in the L2 (~2%), the NoC
    (~4%) and the rest of the GPU (~5%) versus the baseline, and
    additional margins over TC.  This experiment reports, per
    component, the coherent-set geomean of G-TSC-RC's energy relative
    to the no-L1 baseline and to TC-RC.
    """
    components = ["l1", "l2", "noc", "dram", "core", "static"]
    result = ExperimentResult(
        "fig16-components",
        "Per-component energy of G-TSC-RC relative to BL and TC-RC "
        "(coherent set, geomean; <1 is a saving)",
        ["component", "vs_baseline", "vs_TC-RC"],
    )
    vs_bl: dict = {c: [] for c in components}
    vs_tc: dict = {c: [] for c in components}
    for name in COHERENT_NAMES:
        bl = runner.baseline(name)
        tc = runner.run(name, Protocol.TC, Consistency.RC)
        gtsc = runner.run(name, Protocol.GTSC, Consistency.RC)
        for component in components:
            g = gtsc.energy[component]
            b = bl.energy[component]
            t = tc.energy[component]
            if b > 0:
                vs_bl[component].append(g / b)
            if t > 0:
                vs_tc[component].append(g / t)
    for component in components:
        row = [component]
        # the no-L1 baseline has no L1 energy to compare against
        row.append(geomean(vs_bl[component]) if vs_bl[component]
                   else "-")
        row.append(geomean(vs_tc[component]) if vs_tc[component]
                   else "-")
        result.rows.append(row)
    result.summary = {
        "total energy vs TC-RC (geomean)": geomean([
            runner.run(n, Protocol.GTSC, Consistency.RC).total_energy
            / runner.run(n, Protocol.TC, Consistency.RC).total_energy
            for n in COHERENT_NAMES
        ]),
    }
    return result


def fig17(runner: ExperimentRunner) -> ExperimentResult:
    """Absolute L1 cache energy per protocol (joules).

    The paper reports TC consuming slightly less L1 energy than G-TSC
    (G-TSC probes L1 tags on renewals and keeps lines alive longer).
    """
    result = ExperimentResult(
        "fig17",
        "L1 cache energy in joules (BL has no L1 and is zero)",
        ["benchmark", "group"] + _BARS,
    )
    runner.prefetch(ExperimentRunner.matrix_points(ALL_NAMES))
    for name in ALL_NAMES:
        bars = runner.matrix(name)
        row: List = [name, _group(name)]
        for bar in _BARS:
            row.append(bars[bar].energy["l1"])
        result.rows.append(row)
    return result


# ---------------------------------------------------------------------------
# §VI-E — expiration misses
# ---------------------------------------------------------------------------

def expiration(runner: ExperimentRunner) -> ExperimentResult:
    """Misses due to lease expiration: G-TSC vs TC (paper: ~48% fewer).

    Logical time rolls slower than physical time for read-mostly data,
    so G-TSC sees far fewer tag-match-but-expired misses.
    """
    result = ExperimentResult(
        "expiration",
        "L1 misses due to lease expiration (coherent benchmarks)",
        ["benchmark", "TC-RC", "G-TSC-RC", "reduction"],
        notes=(
            "the paper's ~48% reduction is about kernels with more "
            "loads than stores (its own framing): logical time only "
            "advances on writes, so the read-mostly subset is where "
            "the mechanism applies; store-heavy kernels roll logical "
            "time as fast as physical"
        ),
    )
    runner.prefetch(
        [point_of(n, p, Consistency.RC) for n in COHERENT_NAMES
         for p in (Protocol.TC, Protocol.GTSC)])
    read_mostly = {"BH", "VPR", "BFS"}
    reductions = []
    rm_reductions = []
    for name in COHERENT_NAMES:
        tc = runner.run(name, Protocol.TC, Consistency.RC)
        gtsc = runner.run(name, Protocol.GTSC, Consistency.RC)
        tc_misses = tc.counter("l1_expired_miss")
        g_misses = gtsc.counter("l1_expired_miss")
        reduction = 1.0 - g_misses / max(1, tc_misses)
        reductions.append(reduction)
        if name in read_mostly:
            rm_reductions.append(reduction)
        result.rows.append([name, tc_misses, g_misses, reduction])
    result.summary = {
        "mean expiration-miss reduction": sum(reductions) / len(reductions),
        "mean reduction, read-mostly (BH/VPR/BFS)":
            sum(rm_reductions) / len(rm_reductions),
    }
    return result


# ---------------------------------------------------------------------------
# headline claims
# ---------------------------------------------------------------------------

def headline(runner: ExperimentRunner) -> ExperimentResult:
    """The abstract's three claims, computed from the Fig. 12/15 runs.

    Paper values: +38% (G-TSC-RC over TC-RC), +26% (G-TSC-SC over
    TC-RC, coherent set), -20% memory traffic.  The reproduction
    targets the *direction and rough magnitude*, not the exact
    percentages (see EXPERIMENTS.md).
    """
    perf = fig12(runner)
    traffic = fig15(runner)
    result = ExperimentResult(
        "headline",
        "Headline claims (paper: +38%, +26%, -20%)",
        ["claim", "paper", "reproduced"],
    )
    result.rows.append([
        "G-TSC-RC speedup over TC-RC (coherent)", 0.38,
        perf.summary["G-TSC-RC over TC-RC (coherent, geomean)"] - 1.0,
    ])
    result.rows.append([
        "G-TSC-SC speedup over TC-RC (coherent)", 0.26,
        perf.summary["G-TSC-SC over TC-RC (coherent, geomean)"] - 1.0,
    ])
    result.rows.append([
        "traffic reduction vs TC-RC (coherent)", 0.20,
        traffic.summary["G-TSC-RC traffic reduction vs TC-RC (coherent)"],
    ])
    return result


# ---------------------------------------------------------------------------
# §V ablations
# ---------------------------------------------------------------------------

def ablation_visibility(runner: ExperimentRunner) -> ExperimentResult:
    """Update visibility (§V-A): delay-until-ack vs old-copy buffer.

    The paper found option 1 (delay) costs almost nothing, removing
    the justification for option 2's extra hardware.
    """
    result = ExperimentResult(
        "ablation-visibility",
        "G-TSC-RC cycles: delay-until-ack vs old-copy buffer",
        ["benchmark", "delay", "old_copy", "old_copy/delay"],
    )
    ratios = []
    for name in COHERENT_NAMES:
        delay = runner.run(name, Protocol.GTSC, Consistency.RC,
                           visibility=VisibilityPolicy.DELAY)
        old = runner.run(name, Protocol.GTSC, Consistency.RC,
                         visibility=VisibilityPolicy.OLD_COPY)
        ratio = old.cycles / delay.cycles
        ratios.append(ratio)
        result.rows.append([name, delay.cycles, old.cycles, ratio])
    result.summary = {"geomean old_copy/delay": geomean(ratios)}
    return result


def ablation_combining(runner: ExperimentRunner) -> ExperimentResult:
    """Request combining (§V-B): MSHR-combine vs forward-all.

    Forward-all raises request counts 12-35% in the paper; combining
    saves bandwidth at the cost of occasional extra renewals.
    """
    result = ExperimentResult(
        "ablation-combining",
        "G-TSC-RC: MSHR combining vs forwarding all requests",
        ["benchmark", "mshr_cycles", "fwd_cycles",
         "mshr_msgs", "fwd_msgs", "msg_increase"],
    )
    increases = []
    for name in COHERENT_NAMES:
        mshr = runner.run(name, Protocol.GTSC, Consistency.RC,
                          combining=CombiningPolicy.MSHR)
        fwd = runner.run(name, Protocol.GTSC, Consistency.RC,
                         combining=CombiningPolicy.FORWARD_ALL)
        m_msgs = mshr.counter("noc_messages")
        f_msgs = fwd.counter("noc_messages")
        increase = f_msgs / max(1, m_msgs) - 1.0
        increases.append(increase)
        result.rows.append([name, mshr.cycles, fwd.cycles,
                            m_msgs, f_msgs, increase])
    result.summary = {
        "mean request increase with forward-all":
            sum(increases) / len(increases),
    }
    return result


def ablation_inclusion(runner: ExperimentRunner) -> ExperimentResult:
    """Cache inclusion (§V-C): G-TSC with and without inclusive L2.

    G-TSC does not need inclusion; forcing it adds recall traffic and
    L1 back-invalidations for no benefit.
    """
    result = ExperimentResult(
        "ablation-inclusion",
        "G-TSC-RC: non-inclusive vs inclusive L2",
        ["benchmark", "noninc_cycles", "inc_cycles",
         "noninc_bytes", "inc_bytes", "recalls"],
    )
    for name in COHERENT_NAMES:
        noninc = runner.run(name, Protocol.GTSC, Consistency.RC,
                            l2_inclusive=False)
        inc = runner.run(name, Protocol.GTSC, Consistency.RC,
                         l2_inclusive=True)
        result.rows.append([
            name, noninc.cycles, inc.cycles,
            noninc.noc_bytes, inc.noc_bytes,
            inc.counter("l1_back_invalidations"),
        ])
    return result


def mesi_motivation(runner: ExperimentRunner) -> ExperimentResult:
    """Section II-C, measured: a conventional MSI directory vs G-TSC.

    The paper *argues* that invalidation-based directory protocols are
    ill-suited for GPUs (invalidation/ack traffic on shared writes,
    recall traffic on directory evictions, sharer storage); this
    experiment runs exactly such a protocol and reports its
    invalidation counts and traffic next to G-TSC's on the coherent
    benchmarks.
    """
    result = ExperimentResult(
        "mesi-motivation",
        "Conventional directory (MSI) vs G-TSC on the coherent set "
        "(performance normalised to no-L1, higher is better)",
        ["benchmark", "MSI_perf", "G-TSC_perf", "MSI_bytes/GTSC_bytes",
         "invalidations", "recalls"],
        notes=(
            "MSI keeps one real advantage — repeated private writes "
            "hit locally in M — so write-local benchmarks can favour "
            "it; the sharing-heavy ones pay the §II-C costs"
        ),
    )
    runner.prefetch(
        [point_of(n, p, Consistency.RC) for n in COHERENT_NAMES
         for p in (Protocol.DISABLED, Protocol.MESI, Protocol.GTSC)])
    perf_ratios = []
    byte_ratios = []
    for name in COHERENT_NAMES:
        bl = runner.baseline(name)
        mesi = runner.run(name, Protocol.MESI, Consistency.RC)
        gtsc = runner.run(name, Protocol.GTSC, Consistency.RC)
        mesi_perf = bl.cycles / mesi.cycles
        gtsc_perf = bl.cycles / gtsc.cycles
        byte_ratio = mesi.noc_bytes / max(1, gtsc.noc_bytes)
        perf_ratios.append(gtsc_perf / mesi_perf)
        byte_ratios.append(byte_ratio)
        result.rows.append([
            name, mesi_perf, gtsc_perf, byte_ratio,
            mesi.counter("dir_invalidations")
            + mesi.counter("dir_recall_invalidations"),
            mesi.counter("dir_recalls"),
        ])
    config = runner.base_config(Protocol.MESI, Consistency.RC)
    result.summary = {
        "G-TSC over MSI (coherent, geomean)": geomean(perf_ratios),
        "MSI/G-TSC traffic (geomean)": geomean(byte_ratios),
        # §II-C's storage argument: a full-map directory needs one
        # sharer bit per SM per L2 line (plus owner/state), versus
        # G-TSC's two 16-bit timestamps — and the directory also needs
        # transaction buffering the paper sizes at up to 28% of L2
        "MSI sharer bits per L2 line": float(config.num_sms + 8),
        "G-TSC timestamp bits per L2 line": 32.0,
    }
    return result


def cc_congestion(runner: ExperimentRunner) -> ExperimentResult:
    """The Section VI-B CC anomaly: why SC can rival RC under G-TSC.

    SC's one-outstanding-request-per-warp rule throttles injection, so
    the NoC sees a lower request rate and lower per-message latency
    (the paper measured 29% lower latency from a 14% lower request
    rate on CC, enough to make SC win outright there).
    """
    result = ExperimentResult(
        "cc-congestion",
        "G-TSC on memory-intensive benchmarks: SC throttling vs RC "
        "congestion",
        ["benchmark", "sc_cycles", "rc_cycles", "sc_msg_rate",
         "rc_msg_rate", "sc_noc_latency", "rc_noc_latency"],
        notes=(
            "the paper's full-size NoC saturates harder than this "
            "model's, where the throttling effect shows in rate and "
            "latency but rarely flips the overall winner"
        ),
    )
    for name in ("CC", "DLP", "VPR"):
        sc = runner.run(name, Protocol.GTSC, Consistency.SC)
        rc = runner.run(name, Protocol.GTSC, Consistency.RC)

        def rate(stats):
            return stats.counter("noc_messages") / max(1, stats.cycles)

        def latency(stats):
            return (stats.counter("noc_latency_sum")
                    / max(1, stats.counter("noc_messages")))

        result.rows.append([name, sc.cycles, rc.cycles, rate(sc),
                            rate(rc), latency(sc), latency(rc)])
    sc_lat = [row[5] for row in result.rows]
    rc_lat = [row[6] for row in result.rows]
    result.summary = {
        "mean SC/RC NoC-latency ratio":
            sum(s / r for s, r in zip(sc_lat, rc_lat)) / len(sc_lat),
    }
    return result


def traffic_breakdown(runner: ExperimentRunner) -> ExperimentResult:
    """NoC bytes by message class — the mechanism behind Figure 15.

    G-TSC's renewal responses carry no data, so its control share of
    traffic rises while total bytes fall relative to TC, whose every
    refetch ships a full line.
    """
    result = ExperimentResult(
        "traffic-breakdown",
        "NoC bytes by class (RC): G-TSC vs TC",
        ["benchmark", "gtsc_ctrl", "gtsc_data", "gtsc_renewals",
         "tc_ctrl", "tc_data", "gtsc/tc bytes"],
    )
    runner.prefetch(
        [point_of(n, p, Consistency.RC) for n in COHERENT_NAMES
         for p in (Protocol.GTSC, Protocol.TC)])
    for name in COHERENT_NAMES:
        gtsc = runner.run(name, Protocol.GTSC, Consistency.RC)
        tc = runner.run(name, Protocol.TC, Consistency.RC)
        result.rows.append([
            name,
            gtsc.counter("noc_bytes_ctrl"),
            gtsc.counter("noc_bytes_data"),
            gtsc.counter("l2_renewals"),
            tc.counter("noc_bytes_ctrl"),
            tc.counter("noc_bytes_data"),
            gtsc.noc_bytes / max(1, tc.noc_bytes),
        ])
    total_g = sum(row[6] for row in result.rows) / len(result.rows)
    result.summary = {"mean G-TSC/TC byte ratio": total_g}
    return result


def ablation_adaptive_lease(runner: ExperimentRunner) -> ExperimentResult:
    """Extension: Tardis-2.0-style adaptive leases vs the paper's
    fixed lease.

    Renewal streaks earn exponentially longer leases (capped), so
    read-mostly lines stop paying renewal round trips; a store resets
    the streak, keeping write latency unchanged.
    """
    result = ExperimentResult(
        "ablation-adaptive-lease",
        "G-TSC-RC: fixed vs adaptive lease (extension)",
        ["benchmark", "fixed_cycles", "adaptive_cycles",
         "fixed_renewals", "adaptive_renewals", "renewal_reduction"],
    )
    reductions = []
    for name in COHERENT_NAMES:
        fixed = runner.run(name, Protocol.GTSC, Consistency.RC,
                           lease_policy=LeasePolicy.FIXED)
        adaptive = runner.run(name, Protocol.GTSC, Consistency.RC,
                              lease_policy=LeasePolicy.ADAPTIVE)
        f_renewals = fixed.counter("l2_renewals")
        a_renewals = adaptive.counter("l2_renewals")
        reduction = 1.0 - a_renewals / max(1, f_renewals)
        reductions.append(reduction)
        result.rows.append([name, fixed.cycles, adaptive.cycles,
                            f_renewals, a_renewals, reduction])
    result.summary = {
        "mean renewal reduction": sum(reductions) / len(reductions),
    }
    return result


def ablation_tc_lease(runner: ExperimentRunner,
                      leases: Optional[List[int]] = None,
                      workloads: Optional[List[str]] = None,
                      ) -> ExperimentResult:
    """TC lease sensitivity (§II-D3) contrasted with G-TSC's flatness.

    TC's physical lease trades expiration misses (short leases)
    against write stalls (long leases); G-TSC's logical lease has no
    such physical meaning and stays flat (Fig. 14).
    """
    leases = leases or [25, 50, 100, 200, 400, 800]
    workloads = workloads or ["DLP", "STN"]
    result = ExperimentResult(
        "ablation-tc-lease",
        "TC-RC cycles across physical lease values (normalised to "
        "the best lease per benchmark)",
        ["benchmark"] + [f"lease={v}" for v in leases],
    )
    # normalised to the best lease, not to BL: only TC-RC points
    runner.prefetch(
        [point_of(n, Protocol.TC, Consistency.RC, tc_lease=lease)
         for n in workloads for lease in leases])
    spreads = []
    for name in workloads:
        cycles = [
            runner.run(name, Protocol.TC, Consistency.RC,
                       tc_lease=lease).cycles
            for lease in leases
        ]
        best = min(cycles)
        result.rows.append([name] + [c / best for c in cycles])
        spreads.append(max(cycles) / best - 1.0)
    result.summary = {"max TC slowdown from a bad lease": max(spreads)}
    return result


# ---------------------------------------------------------------------------
# Multi-GPU scale-out (repro.multigpu; HALCONE-style comparison)
# ---------------------------------------------------------------------------

def multigpu(runner: ExperimentRunner,
             gpu_counts: Optional[List[int]] = None,
             workloads: Optional[List[str]] = None,
             ) -> ExperimentResult:
    """Cross-GPU coherence comparison: G-TSC vs TC vs MESI at scale.

    Not a figure of the paper — the scale-out question HALCONE
    (arXiv 2007.04292) asks of timestamp coherence, answered with this
    repo's protocols on the inter-GPU sharing workloads
    (:mod:`repro.workloads.multigpu`).  Every protocol runs the same
    trace at 1/2/4/8 GPUs over the shared mem_ts home directory; the
    table reports absolute cycles per GPU count plus the inter-GPU
    link traffic at the largest count, where the protocols' remote
    re-validation strategies (data-less renewals vs full refills vs
    invalidation chatter) diverge hardest.
    """
    gpu_counts = list(gpu_counts or [1, 2, 4, 8])
    workloads = list(workloads or MULTIGPU_NAMES)
    protos = [("G-TSC", Protocol.GTSC), ("TC", Protocol.TC),
              ("MESI", Protocol.MESI)]
    result = ExperimentResult(
        "multigpu",
        "Execution cycles by GPU count (RC issue rules) and interlink "
        "bytes at the largest count",
        (["benchmark", "config"] + [f"{n}GPU" for n in gpu_counts]
         + ["interlink_KB"]),
        notes=(
            "n_gpus=1 is the paper's single-GPU machine (no interlink); "
            "larger counts interleave L2 homes across GPUs so every "
            "neighbour-sharing access crosses the link"
        ),
    )
    runner.prefetch(
        [point_of(n, proto, Consistency.RC, n_gpus=g)
         for n in workloads for _, proto in protos for g in gpu_counts])
    top = max(gpu_counts)
    per_proto: dict = {label: {} for label, _ in protos}
    link: dict = {label: {} for label, _ in protos}
    for name in workloads:
        for label, proto in protos:
            cycles = []
            for count in gpu_counts:
                stats = runner.run(name, proto, Consistency.RC,
                                   n_gpus=count)
                cycles.append(stats.cycles)
                if count == top:
                    per_proto[label][name] = stats.cycles
                    link[label][name] = stats.counter("interlink_bytes")
            result.rows.append(
                [name, label] + cycles
                + [link[label][name] / 1024.0])
    result.summary = {
        f"G-TSC cycles vs TC at {top} GPUs (geomean)": geomean(
            [per_proto["G-TSC"][n] / per_proto["TC"][n]
             for n in workloads]),
        f"G-TSC cycles vs MESI at {top} GPUs (geomean)": geomean(
            [per_proto["G-TSC"][n] / per_proto["MESI"][n]
             for n in workloads]),
        f"G-TSC interlink bytes vs TC at {top} GPUs (geomean)": geomean(
            [(link["G-TSC"][n] or 1) / (link["TC"][n] or 1)
             for n in workloads]),
    }
    return result
