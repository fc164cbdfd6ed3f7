//! The shared simulation hot loop, with the stall-aware cycle-skip fast
//! path.
//!
//! [`ClusterSim::run`](crate::ClusterSim::run) and
//! [`ChipSim::run`](crate::ChipSim::run) used to carry two copies of the
//! same per-cycle loop (tick every core, advance the uncore, apply
//! coherence invalidations). Both now delegate to [`run_lanes`], so the
//! loop — and its fast path — exist in exactly one place.
//!
//! # Clock domains
//!
//! Each [`Lane`] (one cluster) carries its own core-clock period, cycle
//! counter and window bound, so a heterogeneous chip runs its clusters as
//! independent clock domains against the one shared DRAM. Lane ticks are
//! processed in global `(tick time, lane index)` order; when every lane
//! shares the same period and window — the homogeneous case, detected on
//! entry — the loop degenerates to the classic "tick all lanes each
//! cycle" order, byte-for-byte identical to the single-clock engine it
//! replaces.
//!
//! # The cycle-skip fast path
//!
//! Scale-out workloads at low frequency spend most cycles with every ROB
//! blocked on outstanding DRAM misses; ticking each of those cycles does
//! nothing but burn host time. Before each cycle, the engine probes every
//! core ([`Core::quiescent_until`]) and the uncore
//! ([`MemorySystem::next_issue_ps`]). A skip from the current cycle to a
//! target cycle is legal only when *all* of the following hold, which the
//! probe establishes:
//!
//! * every core is quiescent — no commit, issue, dispatch, or pollable
//!   memory fill strictly before the target (ready-to-issue instructions,
//!   including MSHR-blocked ones, count as activity);
//! * no coherence invalidations are pending delivery to L1s;
//! * no queued DRAM command's *fill* can be polled before the target
//!   ([`MemorySystem::next_fill_wake_ps`]: earliest possible issue plus
//!   the minimum read turnaround). Commands may still *issue* inside the
//!   window — the skip replays the uncore's per-cycle `tick` boundaries
//!   (or elides them when provably no-ops), so the DRAM scheduler makes
//!   exactly the decisions it would have made naively.
//!
//! In a heterogeneous chip the bounds are compared in **picoseconds**: the
//! skip target is the earliest event time across every clock domain, and
//! each lane jumps to its own first cycle at or past that instant — no
//! lane ever skips over one of its own ticks that could have observed the
//! event.
//!
//! The skipped core ticks would then be no-ops except for two per-tick
//! statistics — `stats.cycles` and `rob_full_cycles` — which
//! [`Core::skip_to`] batch-applies. The result is **bit-identical**
//! `SimStats` between the fast path and the naive loop; a differential
//! test (`tests/cycle_skip.rs`) enforces this across compute-bound,
//! memory-bound and mixed streams at several frequencies.
//!
//! Probing costs an O(window) scan per core, so the engine only probes
//! when the previous tick made no visible progress (a cheap counter
//! fingerprint) or launched a new data miss (MSHR occupancy rose — the
//! core is likely about to block on the fill); active stretches pay
//! nothing for the fast path.
//!
//! Probing is additionally *adaptive* (see [`SkipGovernor`]): when the
//! realized payoff — cycles actually elided per probe paid — drops below
//! break-even over a window of probes, the engine stops probing for a
//! fixed number of naive ticks before re-sampling. At low core frequency
//! a DRAM miss spans few core cycles, so the elidable stretches are short
//! and the probes plus replayed uncore boundaries cost more host time
//! than the cheap event-driven core ticks they save; the governor detects
//! exactly that regime and self-disables. The governor gates only
//! *whether* a skip is looked for — never the legality or effect of one —
//! and is driven by deterministic counters, so `SimStats` remain
//! bit-identical whichever decisions it takes.

use crate::core::Core;
use crate::instr::InstructionStream;
use crate::llc::Invalidation;
use crate::memsys::MemorySystem;
use crate::probe::{Probe, ProbeSample, PROBE_EPOCH_CYCLES};

/// Probes per payoff-evaluation window of the adaptive gate.
const GOV_WINDOW_PROBES: u32 = 64;
/// Minimum average payoff per probe, in replayed-skip-cycle units (an
/// elided cycle counts [`GOV_ELIDED_WEIGHT`]× — the uncore boundaries
/// were never ticked), for probing to keep paying for itself. A probe is
/// an O(window) scan per core and a replayed skip still ticks the uncore
/// every boundary, so short stretches must clear this bar or the governor
/// suspends. Calibrated on the BENCH_sim.json memory-bound cells: the
/// realized payoff is ~18/probe at the 2 GHz nominal clock (where skip
/// wins 1.3×) and ~8.5 / ~3.5 at 1 GHz / 500 MHz (where it loses), so 12
/// separates the regimes with margin on both sides.
const GOV_MIN_PAYOFF: u64 = 12;
/// How much more an elided skip cycle is worth than a replayed one: the
/// replay still pays one uncore `tick` per boundary, so a replayed skip
/// only saves the (cheap, event-driven) core ticks.
const GOV_ELIDED_WEIGHT: u64 = 8;
/// Naive ticks a suspended governor waits before re-arming. Long enough
/// that a workload stuck in the short-stall regime pays a probe tax only
/// once per ~16k ticks; short enough that a phase change toward long
/// stalls (e.g. the clock dropping, a stream turning memory-bound) is
/// picked back up quickly.
const GOV_REARM_TICKS: u64 = 16_384;

/// Adaptive gating for the cycle-skip fast path.
///
/// The event-driven core rewrite (see BENCH_sim.json) made naive ticks
/// ~10× cheaper, which inverted the skip economics at low frequency:
/// misses span few core cycles there, so each probe buys a short skip
/// whose uncore boundaries are usually replayed anyway — the fast path
/// was *losing* to naive below ~1 GHz. The governor meters realized
/// payoff (credit per probe over fixed windows) and suspends probing when
/// a window comes in under break-even. Counters only — no host clocks —
/// so every run replays its decisions identically.
struct SkipGovernor {
    /// Probes paid in the current evaluation window.
    probes: u32,
    /// Payoff earned this window, in replayed-skip-cycle units (see
    /// [`GOV_MIN_PAYOFF`]): a fully elided skip credits
    /// [`GOV_ELIDED_WEIGHT`]× its length, a replayed skip (the uncore
    /// still ticked every boundary) only 1× — the core-tick sliver.
    credit: u64,
    /// When nonzero the governor is suspended: this many naive ticks
    /// remain before it re-arms and re-samples the payoff. While
    /// suspended the engine also elides the per-tick activity-signature
    /// scans — a suspended tick costs one branch and a decrement over the
    /// skip-off loop.
    rearm: u64,
}

impl SkipGovernor {
    fn new() -> SkipGovernor {
        SkipGovernor {
            probes: 0,
            credit: 0,
            rearm: 0,
        }
    }

    /// Whether the governor is armed (probing and paying for signatures).
    fn probing(&self) -> bool {
        self.rearm == 0
    }

    /// One suspended naive tick; returns `true` when the suspension just
    /// ended (the caller re-seeds its signature fingerprints — they went
    /// stale while elided — and probes again).
    fn tick_suspended(&mut self) -> bool {
        self.rearm -= 1;
        if self.rearm == 0 {
            self.probes = 0;
            self.credit = 0;
            return true;
        }
        false
    }

    /// Records one paid probe and its payoff; suspends on a bad window.
    fn record(&mut self, credit: u64) {
        self.probes += 1;
        self.credit += credit;
        if self.probes >= GOV_WINDOW_PROBES {
            if self.credit < u64::from(self.probes) * GOV_MIN_PAYOFF {
                self.rearm = GOV_REARM_TICKS;
            }
            self.probes = 0;
            self.credit = 0;
        }
    }

    /// Payoff credit for a skip of `cycles`: weighted up when the uncore
    /// replay was elided, 1× per cycle when every boundary was still
    /// ticked (the saved core ticks are cheap post-event-driven-rewrite).
    fn credit_for(cycles: u64, replay_elided: bool) -> u64 {
        if replay_elided {
            cycles * GOV_ELIDED_WEIGHT
        } else {
            cycles
        }
    }
}

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

/// Loop controls for [`run_lanes`]: the fast-path switch plus the
/// optional telemetry probe hook.
pub(crate) struct RunCtl<'p> {
    /// Jump quiescent stretches instead of ticking them.
    pub cycle_skip: bool,
    /// Cycles already skipped in earlier windows of the same simulation,
    /// so probe samples report whole-run skip counts.
    pub skipped_base: u64,
    /// Sampled on engine epochs when attached; observation-only, so it
    /// can never change simulated state. `None` costs one branch per
    /// epoch boundary.
    pub hook: Option<&'p mut Box<dyn Probe>>,
}

/// Advances every lane to its own `end` cycle, each on its own clock.
///
/// With `ctl.cycle_skip` enabled, quiescent stretches are jumped in one
/// step; otherwise every cycle is ticked naively (the reference
/// behaviour the differential tests compare against). Returns the number
/// of lane-0 cycles skipped (never ticked) — lane 0 is the chip's
/// reference clock for diagnostics; in the homogeneous case every lane
/// skips the same stretches.
pub(crate) fn run_lanes<S: InstructionStream>(
    lanes: &mut [Lane<'_, S>],
    inv_buf: &mut Vec<Invalidation>,
    ctl: RunCtl<'_>,
) -> u64 {
    let synced = lanes.windows(2).all(|w| {
        w[0].period_ps == w[1].period_ps && w[0].cycle == w[1].cycle && w[0].end == w[1].end
    });
    if synced {
        run_lanes_synced(lanes, inv_buf, ctl)
    } else {
        run_lanes_multiclock(lanes, inv_buf, ctl)
    }
}

/// The single-clock loop: every lane shares one period, cycle counter and
/// bound, so all lanes tick together each cycle. This is the homogeneous
/// fast path — and the reference order the multi-clock loop reduces to
/// when periods are equal.
fn run_lanes_synced<S: InstructionStream>(
    lanes: &mut [Lane<'_, S>],
    inv_buf: &mut Vec<Invalidation>,
    mut ctl: RunCtl<'_>,
) -> u64 {
    let period_ps = lanes[0].period_ps;
    let end = lanes[0].end;
    let mut cycle = lanes[0].cycle;
    let cycle_skip = ctl.cycle_skip;
    let mut skipped = 0;
    // Probe on entry (a run window may open mid-stall), then after any
    // tick that made no visible progress (an idle tick marks the start of
    // a stall stretch), or that launched a new data miss (the core that
    // issued it is likely about to block on the fill). A tick that did
    // ordinary work almost always means the next cycle does work too, so
    // probing it would be pure overhead. Wrong hints only waste one cheap
    // probe — legality is established by the probe itself, never here.
    let mut probe = cycle_skip;
    let mut gov = SkipGovernor::new();
    let (mut sig, mut mshrs) = if cycle_skip {
        (activity_signature(lanes), in_flight_data(lanes))
    } else {
        (0, 0)
    };
    // Boundary samples bracket every run window so windowed probes (the
    // energy plane) partition the run exactly; same-cycle duplicates
    // across adjacent windows are the probe's to thin.
    if let Some(hook) = ctl.hook.as_deref_mut() {
        let sample = collect_sample(lanes, cycle, period_ps, ctl.skipped_base);
        hook.sample(sample);
    }
    while cycle < end {
        if probe && gov.probing() {
            let mut credit = 0;
            let jumped = next_event_cycle(lanes, cycle, period_ps).is_some_and(|target| {
                let target = target.min(end);
                if target <= cycle {
                    return false;
                }
                let elided = skip(lanes, cycle, target, period_ps);
                credit = SkipGovernor::credit_for(target - cycle, elided);
                skipped += target - cycle;
                cycle = target;
                true
            });
            gov.record(credit);
            if jumped {
                // A skip landing is an engine epoch: simulated state just
                // moved across a stall, so sample it.
                if let Some(hook) = ctl.hook.as_deref_mut() {
                    let sample =
                        collect_sample(lanes, cycle, period_ps, ctl.skipped_base + skipped);
                    hook.sample(sample);
                }
                // An event is due at `target`: tick it directly.
                probe = false;
                continue;
            }
        }
        let now = cycle * period_ps;
        for lane in lanes.iter_mut() {
            tick_lane(lane, inv_buf, cycle, now, period_ps);
        }
        cycle += 1;
        if let Some(hook) = ctl.hook.as_deref_mut() {
            if cycle % PROBE_EPOCH_CYCLES == 0 {
                let sample = collect_sample(lanes, cycle, period_ps, ctl.skipped_base + skipped);
                hook.sample(sample);
            }
        }
        if cycle_skip {
            if gov.probing() {
                let (sig2, mshrs2) = (activity_signature(lanes), in_flight_data(lanes));
                probe = sig2 == sig || mshrs2 > mshrs;
                sig = sig2;
                mshrs = mshrs2;
            } else if gov.tick_suspended() {
                sig = activity_signature(lanes);
                mshrs = in_flight_data(lanes);
                probe = true;
            }
        }
    }
    if let Some(hook) = ctl.hook.as_deref_mut() {
        let sample = collect_sample(lanes, cycle, period_ps, ctl.skipped_base + skipped);
        hook.sample(sample);
    }
    for lane in lanes.iter_mut() {
        lane.cycle = cycle;
    }
    skipped
}

/// The multi-clock loop: lane ticks are processed one at a time, ordered
/// globally by the *end* of each tick — the instant that lane's uncore
/// catches up to — lowest lane index first on ties, so the shared DRAM's
/// clock (which only ever advances to tick-end boundaries) moves
/// monotonically while clusters at different frequencies interleave as
/// their clocks dictate. A lane that reaches its own `end` freezes (its
/// cores and uncore stop ticking) while the others run on.
///
/// A cycle-skip in this loop jumps the *cores* immediately
/// ([`Core::skip_to`] is exact for quiescent stretches) but streams the
/// skipped uncore `tick` boundaries through the same event loop as
/// mem-only replay ticks, so DRAM decisions and clock monotonicity are
/// identical to the naive interleaving (the replay is elided when no
/// queued command can issue before the target).
fn run_lanes_multiclock<S: InstructionStream>(
    lanes: &mut [Lane<'_, S>],
    inv_buf: &mut Vec<Invalidation>,
    mut ctl: RunCtl<'_>,
) -> u64 {
    let cycle_skip = ctl.cycle_skip;
    let mut skipped0 = 0;
    let mut probe = cycle_skip;
    let mut gov = SkipGovernor::new();
    // Per-lane activity fingerprints, updated incrementally for the lane
    // that just ticked (rescanning every lane per tick would be O(lanes²)
    // per round).
    let (mut sigs, mut mshrs): (Vec<u64>, Vec<u64>) = if cycle_skip {
        lanes
            .iter()
            .map(|l| (lane_signature(l), lane_in_flight(l)))
            .unzip()
    } else {
        (Vec::new(), Vec::new())
    };
    let mut sig: u64 = sigs.iter().fold(0, |a, s| a.wrapping_add(*s));
    let mut mshr_total: u64 = mshrs.iter().sum();
    // Lanes with `cycle < replay[i]` are inside a skipped stretch: their
    // cores have already jumped, but their uncore boundaries still stream
    // through the loop as mem-only ticks.
    let mut replay: Vec<u64> = lanes.iter().map(|l| l.cycle).collect();
    let mut replaying = 0usize;
    // Boundary sample on entry (see the synced loop): lane 0 is the
    // reference clock.
    if let Some(hook) = ctl.hook.as_deref_mut() {
        let sample = collect_sample(lanes, lanes[0].cycle, lanes[0].period_ps, ctl.skipped_base);
        hook.sample(sample);
    }
    loop {
        // The pending lane tick with the earliest end boundary.
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
        if lanes[i].cycle < replay[i] {
            // Skipped-window replay: the cores already jumped; only the
            // uncore sees the boundary.
            lanes[i].mem.tick(key);
            lanes[i].cycle += 1;
            if lanes[i].cycle >= replay[i] {
                replaying -= 1;
            }
            continue;
        }
        if probe && replaying == 0 && gov.probing() {
            if let Some(target_ps) = next_event_ps(lanes) {
                // Every lane is quiescent until the target: jump all
                // clock domains across the stall.
                let jump = begin_skip(lanes, target_ps, &mut replay);
                skipped0 += jump.skipped0;
                replaying = jump.replaying;
                gov.record(SkipGovernor::credit_for(jump.total, jump.elided));
                if let Some(hook) = ctl.hook.as_deref_mut() {
                    let sample = collect_sample(
                        lanes,
                        lanes[0].cycle.max(replay[0]),
                        lanes[0].period_ps,
                        ctl.skipped_base + skipped0,
                    );
                    hook.sample(sample);
                }
                // An event is due at the target: tick it directly.
                probe = false;
                continue;
            }
            gov.record(0);
        }
        let cycle = lanes[i].cycle;
        let now = cycle * lanes[i].period_ps;
        let period_ps = lanes[i].period_ps;
        tick_lane(&mut lanes[i], inv_buf, cycle, now, period_ps);
        lanes[i].cycle += 1;
        // Epoch probing follows lane 0's clock — the chip's reference
        // domain — mirroring the homogeneous engine's sample points.
        if i == 0 {
            if let Some(hook) = ctl.hook.as_deref_mut() {
                if lanes[0].cycle % PROBE_EPOCH_CYCLES == 0 {
                    let sample = collect_sample(
                        lanes,
                        lanes[0].cycle,
                        lanes[0].period_ps,
                        ctl.skipped_base + skipped0,
                    );
                    hook.sample(sample);
                }
            }
        }
        if cycle_skip {
            if gov.probing() {
                let (s2, m2) = (lane_signature(&lanes[i]), lane_in_flight(&lanes[i]));
                let sig2 = sig.wrapping_sub(sigs[i]).wrapping_add(s2);
                let mshr2 = mshr_total - mshrs[i] + m2;
                probe = sig2 == sig || mshr2 > mshr_total;
                sigs[i] = s2;
                mshrs[i] = m2;
                sig = sig2;
                mshr_total = mshr2;
            } else if gov.tick_suspended() {
                for (l, lane) in lanes.iter().enumerate() {
                    sigs[l] = lane_signature(lane);
                    mshrs[l] = lane_in_flight(lane);
                }
                sig = sigs.iter().fold(0, |a, s| a.wrapping_add(*s));
                mshr_total = mshrs.iter().sum();
                probe = true;
            }
        }
    }
    if let Some(hook) = ctl.hook.as_deref_mut() {
        let sample = collect_sample(
            lanes,
            lanes[0].cycle,
            lanes[0].period_ps,
            ctl.skipped_base + skipped0,
        );
        hook.sample(sample);
    }
    skipped0
}

/// Builds one probe sample from the lanes' current state. The DRAM
/// counters come from lane 0's memory system — for [`ChipSim`] the DRAM
/// is shared, so any lane sees the chip-wide system; for [`ClusterSim`]
/// there is exactly one lane.
///
/// [`ChipSim`]: crate::ChipSim
/// [`ClusterSim`]: crate::ClusterSim
fn collect_sample<S>(
    lanes: &[Lane<'_, S>],
    cycle: u64,
    period_ps: u64,
    skipped_cycles: u64,
) -> ProbeSample {
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
        skipped_cycles,
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

/// One lane's data misses in flight (summed MSHR occupancy).
fn lane_in_flight<S>(lane: &Lane<'_, S>) -> u64 {
    lane.cores
        .iter()
        .map(|c| u64::from(c.in_flight_data()))
        .sum()
}

/// Total data misses in flight across all lanes.
fn in_flight_data<S>(lanes: &[Lane<'_, S>]) -> u64 {
    lanes.iter().map(lane_in_flight).sum()
}

/// One lane's progress fingerprint (see [`Core::activity_signature`]).
fn lane_signature<S>(lane: &Lane<'_, S>) -> u64 {
    let mut sig = 0u64;
    for core in lane.cores.iter() {
        sig = sig.wrapping_add(core.activity_signature());
    }
    sig
}

/// The lanes' combined progress fingerprint. Uncore counters are
/// deliberately left out: DRAM commands issuing while every core is
/// stalled are exactly the regime the fast path wants to probe (and skip
/// across), not treat as activity.
fn activity_signature<S>(lanes: &[Lane<'_, S>]) -> u64 {
    let mut sig = 0u64;
    for lane in lanes.iter() {
        sig = sig.wrapping_add(lane_signature(lane));
    }
    sig
}

/// Applies a legal skip from `from` to `to`: cores jump via
/// [`Core::skip_to`]; the uncore — which, unlike the cores, may have
/// commands issuing inside the window — still sees every per-cycle
/// `tick` boundary it would have seen naively, so its FR-FCFS decisions
/// (and hence all completion times) are identical to the naive loop's.
/// When no queued command can issue inside the window the replay is
/// elided entirely: every skipped `tick` would be a no-op, and the resume
/// tick's window covers them. Returns whether the replay was elided (the
/// governor credits elided skips at full value).
fn skip<S: InstructionStream>(
    lanes: &mut [Lane<'_, S>],
    from: u64,
    to: u64,
    period_ps: u64,
) -> bool {
    for lane in lanes.iter_mut() {
        for core in lane.cores.iter_mut() {
            core.skip_to(from, to);
        }
    }
    let until = to * period_ps;
    if lanes
        .iter()
        .any(|l| l.mem.next_issue_ps().is_some_and(|s| s < until))
    {
        for c in from..to {
            let t = (c + 1) * period_ps;
            for lane in lanes.iter_mut() {
                lane.mem.tick(t);
            }
        }
        false
    } else {
        // Even when no command can issue inside the window, a completion
        // already recorded at the shared DRAM (issued by another lane's
        // tick) is only delivered to this lane at its own `tick`. The
        // landing cycle's cores poll *before* its memory tick, so catch
        // each lane's drains up to the landing boundary first — exactly
        // the boundaries the naive loop would have ticked by then.
        for lane in lanes.iter_mut() {
            lane.mem.tick(until);
        }
        true
    }
}

/// What [`begin_skip`] did, for the loop's bookkeeping and the governor.
struct SkipJump {
    /// Cycles lane 0 skipped (the chip's diagnostic reference clock).
    skipped0: u64,
    /// Total cycles skipped across all lanes (the governor's payoff).
    total: u64,
    /// Lanes that entered replay.
    replaying: usize,
    /// Whether the intermediate uncore boundaries were elided.
    elided: bool,
}

/// Starts a multi-clock skip to `target_ps`: every unfinished lane's
/// cores jump to the lane's first cycle at or past the target (capped by
/// its own window bound) via [`Core::skip_to`], `replay[i]` marks each
/// lane's landing cycle, and the main loop streams the remaining uncore
/// boundaries through as mem-only ticks in the exact naive order. When
/// the shared DRAM queue is empty and every unfinished lane jumps, the
/// intermediate boundaries are provably no-ops and each lane's counter
/// advances straight to the landing boundary (`to - 1`), leaving just
/// one replay tick per lane.
fn begin_skip<S: InstructionStream>(
    lanes: &mut [Lane<'_, S>],
    target_ps: u64,
    replay: &mut [u64],
) -> SkipJump {
    // Eliding the skipped uncore boundaries is only provably a no-op when
    // nothing at all is queued at the shared DRAM (no command can issue
    // at any skipped boundary, no matter how far ahead other clusters
    // have dragged the shared clock) AND every unfinished lane jumps, so
    // no core tick — and hence no new request whose arrival could change
    // an FR-FCFS pick — interleaves with the skipped window. Anything
    // else streams the boundaries through the main loop as mem-only
    // replay ticks, reproducing the naive interleave exactly. The
    // memory systems share one DRAM, so lane 0's pending count is the
    // chip-wide one.
    let elide = lanes[0].mem.dram_pending() == 0
        && lanes
            .iter()
            .all(|l| l.cycle >= l.end || target_ps.div_ceil(l.period_ps).min(l.end) > l.cycle);
    let mut skipped0 = 0;
    let mut total = 0;
    let mut replaying = 0;
    for (i, lane) in lanes.iter_mut().enumerate() {
        if lane.cycle >= lane.end {
            continue;
        }
        let to = target_ps
            .div_ceil(lane.period_ps)
            .min(lane.end)
            .max(lane.cycle);
        if to == lane.cycle {
            continue;
        }
        for core in lane.cores.iter_mut() {
            core.skip_to(lane.cycle, to);
        }
        if i == 0 {
            skipped0 = to - lane.cycle;
        }
        total += to - lane.cycle;
        // Even a fully elided lane still owes its *landing* boundary a
        // memory tick: completions sitting undrained at the shared DRAM
        // are delivered only by this lane's own `tick`, and the landing
        // cycle's cores poll before that tick runs. The landing boundary
        // must also order correctly against *other* lanes' post-landing
        // core ticks with earlier keys (a faster lane's landing tick can
        // enqueue a request that the naive loop pops at this lane's next
        // boundary) — so it is never ticked eagerly here; both modes
        // stream their boundaries through the main loop, an elided lane
        // just enters it at `to - 1` (one boundary) instead of at its
        // current cycle (all of them).
        lane.cycle = if elide { to - 1 } else { lane.cycle };
        replay[i] = to;
        replaying += 1;
    }
    SkipJump {
        skipped0,
        total,
        replaying,
        elided: elide,
    }
}

/// One naive cycle for one lane: tick the cores, let the uncore catch up
/// to the end of the cycle, then apply coherence invalidations to L1s
/// (posting write-backs for dirty copies). `inv_buf` is reused across
/// cycles so the drain never allocates in steady state.
fn tick_lane<S: InstructionStream>(
    lane: &mut Lane<'_, S>,
    inv_buf: &mut Vec<Invalidation>,
    cycle: u64,
    now: u64,
    period_ps: u64,
) {
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
}

/// The earliest cycle at which *any* lane has work, or `None` if some
/// lane is active right now (or nothing is scheduled at all — never skip
/// blindly to the horizon). Single-clock variant: all lanes share
/// `cycle` and `period_ps`.
fn next_event_cycle<S: InstructionStream>(
    lanes: &[Lane<'_, S>],
    cycle: u64,
    period_ps: u64,
) -> Option<u64> {
    let mut next = u64::MAX;
    for lane in lanes.iter() {
        // Queued invalidations are applied at the end of every naive tick.
        if lane.mem.has_pending_invalidations() {
            return None;
        }
        for core in lane.cores.iter() {
            next = next.min(core.quiescent_until(lane.mem, cycle, period_ps)?);
        }
        // Queued DRAM commands may issue inside a skipped window (the
        // skip replays the uncore's cycle boundaries), but no fill can be
        // *polled* before the fill-wake bound; the first cycle whose poll
        // could see it caps the skip.
        if let Some(wake_ps) = lane.mem.next_fill_wake_ps() {
            let c = wake_ps.div_ceil(period_ps);
            if c <= cycle {
                return None;
            }
            next = next.min(c);
        }
    }
    if next == u64::MAX {
        None
    } else {
        Some(next)
    }
}

/// The earliest instant at which *any* lane has work, in picoseconds, or
/// `None` if some unfinished lane is active at its current cycle (or
/// nothing is scheduled at all). Multi-clock variant of
/// [`next_event_cycle`]: each lane's bounds are converted to absolute
/// time on its own clock before being combined. Finished lanes are
/// ignored — their cores are frozen and their fills are never polled
/// again.
fn next_event_ps<S: InstructionStream>(lanes: &[Lane<'_, S>]) -> Option<u64> {
    let mut next = u64::MAX;
    for lane in lanes.iter() {
        if lane.cycle >= lane.end {
            continue;
        }
        if lane.mem.has_pending_invalidations() {
            return None;
        }
        for core in lane.cores.iter() {
            let c = core.quiescent_until(lane.mem, lane.cycle, lane.period_ps)?;
            if c != u64::MAX {
                next = next.min(c.saturating_mul(lane.period_ps));
            }
        }
        if let Some(wake_ps) = lane.mem.next_fill_wake_ps() {
            let c = wake_ps.div_ceil(lane.period_ps);
            if c <= lane.cycle {
                return None;
            }
            next = next.min(c.saturating_mul(lane.period_ps));
        }
    }
    if next == u64::MAX {
        None
    } else {
        Some(next)
    }
}
