//! The shared simulation hot loop.
//!
//! [`ClusterSim::run`](crate::ClusterSim::run) and
//! [`ChipSim::run`](crate::ChipSim::run) used to carry two copies of the
//! same per-cycle loop (tick every core, advance the uncore, apply
//! coherence invalidations). Both now delegate to [`run_lanes`], so the
//! loop exists in exactly one place, and it ticks every cycle.
//!
//! # Clock domains
//!
//! Each [`Lane`] (one cluster) carries its own core-clock period, cycle
//! counter and window bound, so a heterogeneous chip runs its clusters as
//! independent clock domains against the one shared DRAM. Lane ticks are
//! processed one at a time, ordered globally by the *end* of each tick —
//! the instant that lane's uncore catches up to — lowest lane index
//! first on ties, so the shared DRAM's clock (which only ever advances to
//! tick-end boundaries) moves monotonically while clusters at different
//! frequencies interleave as their clocks dictate. A lane that reaches
//! its own `end` freezes (its cores and uncore stop ticking) while the
//! others run on.
//!
//! When every lane shares one period and cycle counter — a
//! [`ClusterSim`](crate::ClusterSim), or a homogeneous chip — every
//! pending tick ends at the same instant, so the tie order ticks lanes
//! `0..n` at cycle `c`, then lanes `0..n` at `c + 1`: the classic "tick
//! all lanes each cycle" order of a single-clock engine.

use crate::core::Core;
use crate::instr::InstructionStream;
use crate::llc::Invalidation;
use crate::memsys::MemorySystem;
use crate::probe::{Probe, ProbeSample, PROBE_EPOCH_CYCLES};

/// One cluster's mutable view for the shared loop: its cores, their
/// instruction streams, the cluster's private uncore (which may share a
/// DRAM system with other lanes), and its clock domain for this window.
pub(crate) struct Lane<'a, S> {
    pub cores: &'a mut [Core],
    pub streams: &'a mut [S],
    pub mem: &'a mut MemorySystem,
    /// This lane's core-clock period — its clock domain.
    pub period_ps: u64,
    /// This lane's current core cycle; advanced by the loop, read back by
    /// the caller after [`run_lanes`] returns.
    pub cycle: u64,
    /// This lane's cycle bound for the window (exclusive).
    pub end: u64,
}

/// Advances every lane to its own `end` cycle, each on its own clock.
///
/// An attached `hook` is sampled on entry, every [`PROBE_EPOCH_CYCLES`]
/// cycles of lane 0 — the chip's reference clock — and on exit, so
/// windowed probes (the energy plane) partition the run exactly;
/// same-cycle duplicates across adjacent windows are the probe's to
/// thin. Probes observe only, so they can never change simulated state.
pub(crate) fn run_lanes<S: InstructionStream>(
    lanes: &mut [Lane<'_, S>],
    inv_buf: &mut Vec<Invalidation>,
    mut hook: Option<&mut Box<dyn Probe>>,
) {
    if let Some(hook) = hook.as_deref_mut() {
        hook.sample(collect_sample(lanes));
    }
    loop {
        // The pending lane tick with the earliest end, lowest index first.
        let mut key = u64::MAX;
        let mut i = usize::MAX;
        for (l, lane) in lanes.iter().enumerate() {
            if lane.cycle >= lane.end {
                continue;
            }
            let t = (lane.cycle + 1) * lane.period_ps;
            if t < key {
                key = t;
                i = l;
            }
        }
        if i == usize::MAX {
            break;
        }
        tick_lane(&mut lanes[i], inv_buf);
        if i == 0 && lanes[0].cycle % PROBE_EPOCH_CYCLES == 0 {
            if let Some(hook) = hook.as_deref_mut() {
                hook.sample(collect_sample(lanes));
            }
        }
    }
    if let Some(hook) = hook {
        hook.sample(collect_sample(lanes));
    }
}

/// Builds one probe sample from the lanes' current state, at lane 0's
/// cycle and clock. The DRAM counters come from lane 0's memory system —
/// for [`ChipSim`] the DRAM is shared, so any lane sees the chip-wide
/// system; for [`ClusterSim`] there is exactly one lane.
///
/// [`ChipSim`]: crate::ChipSim
/// [`ClusterSim`]: crate::ClusterSim
fn collect_sample<S>(lanes: &[Lane<'_, S>]) -> ProbeSample {
    let mut rob = 0u64;
    let (mut user_instrs, mut instrs, mut rob_full_cycles) = (0u64, 0u64, 0u64);
    let (mut llc_hits, mut llc_misses, mut xbar_transfers) = (0u64, 0u64, 0u64);
    for lane in lanes.iter() {
        for core in lane.cores.iter() {
            rob += core.rob_occupancy() as u64;
            let cs = core.stats();
            user_instrs += cs.user_instrs;
            instrs += cs.instrs();
            rob_full_cycles += cs.rob_full_cycles;
        }
        // Each lane (cluster) owns its LLC and crossbar; sum them for the
        // chip-wide activity view.
        let llc = lane.mem.llc_stats();
        llc_hits += llc.hits;
        llc_misses += llc.misses;
        xbar_transfers += lane.mem.xbar_transfers();
    }
    let (cycle, period_ps) = (lanes[0].cycle, lanes[0].period_ps);
    let mem = &lanes[0].mem;
    let dram = mem.dram_stats();
    ProbeSample {
        cycle,
        now_ps: cycle * period_ps,
        mshr_occupancy: in_flight_data(lanes),
        rob_occupancy: rob,
        dram_pending: mem.dram_pending() as u64,
        dram_channel_depths: mem.dram_channel_depths(),
        dram_row_hits: dram.row_hits,
        dram_row_misses: dram.row_misses,
        user_instrs,
        instrs,
        rob_full_cycles,
        llc_hits,
        llc_misses,
        xbar_transfers,
        dram_reads: dram.reads,
        dram_writes: dram.writes,
    }
}

/// Total data misses in flight across all lanes (summed MSHR occupancy).
fn in_flight_data<S>(lanes: &[Lane<'_, S>]) -> u64 {
    lanes
        .iter()
        .flat_map(|lane| lane.cores.iter())
        .map(|c| u64::from(c.in_flight_data()))
        .sum()
}

/// One cycle for one lane: tick the cores, let the uncore catch up to the
/// end of the cycle, then apply coherence invalidations to L1s (posting
/// write-backs for dirty copies), and advance the lane's cycle counter.
/// `inv_buf` is reused across cycles so the drain never allocates in
/// steady state.
fn tick_lane<S: InstructionStream>(lane: &mut Lane<'_, S>, inv_buf: &mut Vec<Invalidation>) {
    let (cycle, period_ps) = (lane.cycle, lane.period_ps);
    let now = cycle * period_ps;
    for (core, stream) in lane.cores.iter_mut().zip(lane.streams.iter_mut()) {
        core.tick(stream, lane.mem, cycle, now, period_ps);
    }
    lane.mem.tick(now + period_ps);
    lane.mem.drain_invalidations_into(inv_buf);
    for inv in inv_buf.drain(..) {
        for c in 0..lane.cores.len() {
            if inv.cores & (1 << c as u32) != 0 && lane.cores[c].invalidate_l1d(inv.line_addr) {
                lane.mem.writeback(c as u32, inv.line_addr, now + period_ps);
            }
        }
    }
    lane.cycle += 1;
}
