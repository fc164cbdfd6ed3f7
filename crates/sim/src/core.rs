//! Out-of-order core timing model.
//!
//! A 3-way, 128-entry-window core in the style of the Cortex-A57 (paper
//! Sec. IV). The model captures the mechanisms that shape UIPC versus
//! frequency:
//!
//! * **window-limited memory-level parallelism** — independent loads issue
//!   while an older miss is outstanding, until the ROB or the MSHRs fill;
//! * **dependency-limited ILP** — instructions wait for producers named by
//!   the stream's dependency distances;
//! * **front-end stalls** — L1-I misses and branch-mispredict redirects
//!   starve dispatch;
//! * **clock-domain scaling** — memory completion times arrive in
//!   picoseconds and are converted to core cycles at the current period, so
//!   a slower core sees fewer stall cycles per miss.
//!
//! The core is execution-driven by an [`InstructionStream`]; it does not
//! interpret values, only timing.

use crate::bpred::{BranchPredictor, SyntheticBranchBehaviour};
use crate::cache::{AccessOutcome, SetAssocArray};
use crate::config::CoreConfig;
use crate::instr::{InstructionStream, OpClass};
use crate::memsys::{MemRequestKind, MemTicket, MemorySystem};
use crate::stats::CoreStats;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Stage {
    /// Waiting for operands (producer sequence number, if any).
    Waiting,
    /// Executing; completes at the given core cycle.
    ///
    /// The stage is **not** rewritten to [`Stage::Done`] when `done_cycle`
    /// passes — that transition used to cost a full window scan per cycle.
    /// Consumers treat `Executing { done_cycle }` with `done_cycle` in the
    /// past exactly as the scan would have left it: ready as a producer
    /// from `done_cycle`, committable from `done_cycle + 1` (the scan ran
    /// one stage after commit, so the old explicit transition landed
    /// between the two).
    Executing { done_cycle: u64 },
    /// Waiting for a memory fill.
    Memory { ticket: MemTicket },
    /// Result available at the given cycle; commit when it reaches the head.
    Done { done_cycle: u64 },
}

#[derive(Debug, Clone, Copy)]
struct RobEntry {
    op: OpClass,
    addr: u64,
    is_user: bool,
    stage: Stage,
}

/// End of an intrusive wake list.
const NO_SLOT: u32 = u32::MAX;

/// No instruction line fetched since the last L1-I install.
const NO_LINE: u64 = u64::MAX;

/// Cycles the issue scheduler's timing wheel spans, one bucket each.
const WHEEL: u64 = 64;

/// Per-slot scheduler state (see [`IssueSched`]).
#[derive(Debug, Clone, Copy)]
struct SlotSched {
    /// Cycle from which an entry parked in `far` becomes issue-eligible.
    eligible: u64,
    /// First consumer waiting on this slot's result, or [`NO_SLOT`].
    wake_head: u32,
    /// The next consumer in the wake list this slot waits in.
    wake_next: u32,
}

/// The issue scheduler, indexed by ROB slot: `seq & mask` with
/// `mask = rob_entries.next_power_of_two() - 1`.
///
/// The window holds at most `rob_entries` contiguous sequence numbers, so
/// no two in-window entries share a slot, and everything tracked here is
/// in the window: waiting entries (which cannot commit), and producers
/// with waiting consumers (which cannot commit before their completion
/// cycle is known, the moment their wake list empties).
///
/// A waiting entry whose producer's completion cycle is known is deferred
/// to that cycle on a timing wheel of [`WHEEL`] one-cycle buckets that
/// spans `drained..drained + WHEEL`, where `drained` is the cycle of the
/// last drain; entries due later wait in the `far` set. A drain moves the
/// buckets of the cycles it reaches to `ready`, so no deferred entry is ever
/// looked at before its cycle unless it sits in `far`, which is scanned
/// only once its earliest entry is due.
#[derive(Debug)]
struct IssueSched {
    mask: u64,
    /// Bitset words per slot set.
    words: usize,
    /// Issue-eligible [`Stage::Waiting`] entries, one bit per slot.
    /// Scanning from the ROB head's slot visits them in sequence order.
    ready: Vec<u64>,
    /// Bucket `c % WHEEL` (`words` words each) holds the entries eligible
    /// from cycle `c`, for `c` in `drained..drained + WHEEL`.
    wheel: Vec<u64>,
    /// Which buckets are non-empty, one bit per bucket.
    wheel_busy: u64,
    /// Entries eligible after the wheel's span, each from its slot's
    /// `eligible` cycle.
    far: Vec<u64>,
    /// Earliest `eligible` cycle in `far` (`u64::MAX` when empty).
    far_min: u64,
    /// The cycle of the last drain.
    drained: u64,
    slots: Vec<SlotSched>,
}

impl IssueSched {
    fn new(rob_entries: u32) -> Self {
        let slots = (rob_entries as usize).next_power_of_two();
        let words = slots.div_ceil(64);
        IssueSched {
            mask: slots as u64 - 1,
            words,
            ready: vec![0; words],
            wheel: vec![0; WHEEL as usize * words],
            wheel_busy: 0,
            far: vec![0; words],
            far_min: u64::MAX,
            drained: 0,
            slots: vec![
                SlotSched {
                    eligible: 0,
                    wake_head: NO_SLOT,
                    wake_next: NO_SLOT,
                };
                slots
            ],
        }
    }

    fn slot(&self, seq: u64) -> usize {
        (seq & self.mask) as usize
    }

    fn set_ready(&mut self, seq: u64) {
        let s = self.slot(seq);
        self.ready[s >> 6] |= 1 << (s & 63);
    }

    fn clear_ready(&mut self, seq: u64) {
        let s = self.slot(seq);
        self.ready[s >> 6] &= !(1 << (s & 63));
    }

    /// Makes the entry in slot `s` eligible from `cycle`.
    ///
    /// A cycle before the last drained one is past, so the entry is ready
    /// at once. One deferred to the drained cycle itself (a zero-latency
    /// result during that cycle's issue) waits in its bucket for the next
    /// drain, so the issue pass in progress does not see it.
    fn defer_slot(&mut self, s: usize, cycle: u64) {
        let (w, bit) = (s >> 6, 1 << (s & 63));
        if cycle < self.drained {
            self.ready[w] |= bit;
        } else if cycle - self.drained < WHEEL {
            let b = (cycle % WHEEL) as usize;
            self.wheel[b * self.words + w] |= bit;
            self.wheel_busy |= 1 << b;
        } else {
            self.far[w] |= bit;
            self.slots[s].eligible = cycle;
            self.far_min = self.far_min.min(cycle);
        }
    }

    /// Makes `seq` eligible from `cycle` (its producer's completion).
    fn defer(&mut self, seq: u64, cycle: u64) {
        self.defer_slot(self.slot(seq), cycle);
    }

    /// Parks `consumer` until `producer`'s completion cycle is known. A
    /// consumer names one producer, so it sits in at most one list and
    /// one link per slot suffices.
    fn wait_on(&mut self, producer: u64, consumer: u64) {
        let (p, c) = (self.slot(producer), self.slot(consumer));
        self.slots[c].wake_next = self.slots[p].wake_head;
        self.slots[p].wake_head = c as u32;
    }

    /// Defers `producer`'s waiting consumers to `cycle`, the cycle its
    /// result is ready.
    fn wake(&mut self, producer: u64, cycle: u64) {
        let p = self.slot(producer);
        let mut c = std::mem::replace(&mut self.slots[p].wake_head, NO_SLOT);
        while c != NO_SLOT {
            let next = self.slots[c as usize].wake_next;
            self.defer_slot(c as usize, cycle);
            c = next;
        }
    }

    /// Moves every deferred entry eligible by `cycle` to `ready`: the
    /// buckets of cycles `drained` and `cycle`, then `far` if its earliest
    /// entry is due. [`Core::issue`] drains every cycle the core ticks, so
    /// `cycle` is `drained` (the first tick) or the cycle after it. Issue
    /// order comes from the sequence-order scan of `ready`, so the order
    /// entries become ready in never matters.
    fn drain_due(&mut self, cycle: u64) {
        debug_assert!(
            (self.drained..=self.drained + 1).contains(&cycle),
            "drains run every cycle, in order ({cycle} after {})",
            self.drained
        );
        let due = 1 << (self.drained % WHEEL) | 1 << (cycle % WHEEL);
        let mut buckets = self.wheel_busy & due;
        self.wheel_busy &= !due;
        while buckets != 0 {
            let b = buckets.trailing_zeros() as usize;
            buckets &= buckets - 1;
            let bucket = &mut self.wheel[b * self.words..(b + 1) * self.words];
            for (r, w) in self.ready.iter_mut().zip(bucket) {
                *r |= std::mem::take(w);
            }
        }
        self.drained = cycle;
        if self.far_min <= cycle {
            self.drain_far(cycle);
        }
    }

    /// Moves the due entries of `far` to `ready` and those now within the
    /// wheel's span to their buckets.
    fn drain_far(&mut self, cycle: u64) {
        self.far_min = u64::MAX;
        for w in 0..self.words {
            let mut bits = std::mem::take(&mut self.far[w]);
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let s = w * 64 + b;
                let eligible = self.slots[s].eligible;
                if eligible <= cycle {
                    self.ready[w] |= 1 << b;
                } else {
                    self.defer_slot(s, eligible);
                }
            }
        }
    }

    /// The smallest window offset in `from..len` whose entry is ready,
    /// where offset `o` is sequence number `head + o`.
    fn next_ready(&self, head: u64, from: usize, len: usize) -> Option<usize> {
        let mut off = from;
        while off < len {
            let s = self.slot(head + off as u64);
            // Offsets `off..off + run` are contiguous slots of one word.
            let run = (64 - (s & 63)).min(self.slots.len() - s).min(len - off);
            let bits = (self.ready[s >> 6] >> (s & 63)) & (u64::MAX >> (64 - run));
            if bits != 0 {
                return Some(off + bits.trailing_zeros() as usize);
            }
            off += run;
        }
        None
    }
}

/// One out-of-order core.
#[derive(Debug)]
pub struct Core {
    id: u32,
    cfg: CoreConfig,
    l1i: SetAssocArray,
    l1d: SetAssocArray,
    /// The reorder window: a ring indexed by the scheduler's slot of a
    /// sequence number, holding `rob_head..next_seq`.
    rob: Vec<RobEntry>,
    /// Sequence number of the oldest in-window instruction.
    rob_head: u64,
    /// Sequence number of the next fetched instruction.
    next_seq: u64,
    /// Fetch is stalled until this cycle (branch redirect).
    fetch_stall_until: u64,
    /// Fetch is blocked on this instruction-fetch miss.
    ifetch_miss: Option<MemTicket>,
    /// Branch whose resolution will restart fetch.
    redirect_on: Option<u64>,
    /// Outstanding data misses (MSHR occupancy).
    outstanding_data: u32,
    /// Sequence numbers of ROB entries in [`Stage::Memory`], so completion
    /// polling touches only in-flight loads instead of scanning the window.
    in_flight_loads: Vec<u64>,
    /// Which waiting entries may issue, and from when.
    sched: IssueSched,
    /// The L1-I line the previous fetch touched ([`NO_LINE`] after an
    /// install). Only fetch and [`Core::install_l1i`] touch the L1-I, so
    /// that line is still resident and most recent in its set: fetching
    /// from it again hits and leaves every set's LRU order unchanged.
    last_iline: u64,
    /// Background store (read-for-ownership) fills in flight.
    pending_stores: Vec<MemTicket>,
    /// Sequence number of the next instruction to issue under the
    /// in-order discipline ([`CoreConfig::in_order`]); unused (stays 0 or
    /// trails) on out-of-order cores.
    inorder_next: u64,
    /// Optional learning branch predictor (with its synthetic ground
    /// truth); `None` uses the stream's calibrated flags.
    bpred: Option<(BranchPredictor, SyntheticBranchBehaviour)>,
    stats: CoreStats,
}

impl Core {
    /// Builds an idle core.
    pub fn new(id: u32, cfg: CoreConfig) -> Self {
        let empty = RobEntry {
            op: OpClass::IntAlu,
            addr: 0,
            is_user: true,
            stage: Stage::Waiting,
        };
        Core {
            id,
            cfg,
            l1i: SetAssocArray::new(cfg.l1i),
            l1d: SetAssocArray::new(cfg.l1d),
            rob: vec![empty; (cfg.rob_entries as usize).next_power_of_two()],
            rob_head: 0,
            next_seq: 0,
            fetch_stall_until: 0,
            ifetch_miss: None,
            redirect_on: None,
            outstanding_data: 0,
            in_flight_loads: Vec::new(),
            sched: IssueSched::new(cfg.rob_entries),
            last_iline: NO_LINE,
            pending_stores: Vec::new(),
            inorder_next: 0,
            bpred: cfg
                .branch_predictor
                .map(|k| (BranchPredictor::new(k), SyntheticBranchBehaviour::new())),
            stats: CoreStats::default(),
        }
    }

    /// The core's id within the cluster.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Installs a line in the L1-D without timing or statistics
    /// (checkpoint-style warming).
    pub fn install_l1d(&mut self, line_addr: u64) {
        let _ = self.l1d.access(line_addr, false);
    }

    /// Installs a line in the L1-I without timing or statistics
    /// (checkpoint-style warming).
    pub fn install_l1i(&mut self, line_addr: u64) {
        let _ = self.l1i.access(line_addr, false);
        self.last_iline = NO_LINE;
    }

    /// Applies a coherence invalidation to the L1-D; returns the dirty flag
    /// if the line was present and modified (the cluster posts the
    /// write-back).
    pub fn invalidate_l1d(&mut self, line_addr: u64) -> bool {
        self.l1d.invalidate(line_addr).unwrap_or(false)
    }

    /// Runs one core cycle: commit → complete → issue → fetch/dispatch.
    ///
    /// `cycle` is the core-clock cycle index; `now_ps` its absolute time;
    /// `period_ps` the current clock period.
    pub fn tick<S: InstructionStream>(
        &mut self,
        stream: &mut S,
        mem: &mut MemorySystem,
        cycle: u64,
        now_ps: u64,
        period_ps: u64,
    ) {
        self.commit(cycle);
        self.complete_memory(mem, cycle, now_ps, period_ps);
        self.issue(mem, cycle, now_ps);
        self.fetch(stream, mem, cycle, now_ps);
        self.stats.cycles = cycle + 1;
    }

    fn commit(&mut self, cycle: u64) {
        for _ in 0..self.cfg.width {
            let Some(e) = self.rob_entry(self.rob_head) else {
                break;
            };
            // `Executing` commits one cycle after its `Done` equivalent:
            // the old per-cycle scan rewrote it to `Done` *after* commit
            // ran, so commit first saw the result a cycle past
            // `done_cycle`.
            let committable = match e.stage {
                Stage::Done { done_cycle } => done_cycle <= cycle,
                Stage::Executing { done_cycle } => done_cycle < cycle,
                _ => false,
            };
            if !committable {
                break;
            }
            if e.is_user {
                self.stats.user_instrs += 1;
            } else {
                self.stats.os_instrs += 1;
            }
            self.rob_head += 1;
        }
    }

    fn complete_memory(&mut self, mem: &mut MemorySystem, cycle: u64, now_ps: u64, period_ps: u64) {
        // Poll only the loads actually in flight (no window scan; stale
        // `Executing` stages are interpreted lazily — see [`Stage`]).
        if !self.in_flight_loads.is_empty() {
            let mut loads = std::mem::take(&mut self.in_flight_loads);
            loads.retain(|&seq| {
                let Some(e) = self.rob_entry_mut(seq) else {
                    return false;
                };
                let Stage::Memory { ticket } = e.stage else {
                    return false;
                };
                match mem.poll(ticket, now_ps) {
                    Some(done_ps) => {
                        // Convert to core cycles (round up to the next edge).
                        let extra = done_ps.saturating_sub(now_ps);
                        let done_cycle = (cycle + extra.div_ceil(period_ps) + 1).max(cycle);
                        e.stage = Stage::Done { done_cycle };
                        self.outstanding_data = self.outstanding_data.saturating_sub(1);
                        self.sched.wake(seq, done_cycle);
                        false
                    }
                    None => true,
                }
            });
            self.in_flight_loads = loads;
        }
        // Restart fetch after an I-miss fill.
        if let Some(t) = self.ifetch_miss {
            if let Some(done_ps) = mem.poll(t, now_ps) {
                let extra = done_ps.saturating_sub(now_ps);
                self.fetch_stall_until = cycle + extra.div_ceil(period_ps) + 1;
                self.ifetch_miss = None;
            }
        }
    }

    /// Data misses currently in flight (MSHR occupancy) — a
    /// telemetry-probe diagnostic.
    pub(crate) fn in_flight_data(&self) -> u32 {
        self.outstanding_data
    }

    /// Instructions currently in the reorder window — a telemetry-probe
    /// diagnostic for how window-limited the workload's MLP is.
    pub fn rob_occupancy(&self) -> usize {
        self.rob_len()
    }

    /// Instructions in the window.
    fn rob_len(&self) -> usize {
        (self.next_seq - self.rob_head) as usize
    }

    /// Whether `seq` is in the window, `rob_head..next_seq`.
    fn in_window(&self, seq: u64) -> bool {
        seq.wrapping_sub(self.rob_head) < self.next_seq - self.rob_head
    }

    /// Finds an in-window entry by sequence number: the window holds at
    /// most `rob_entries` contiguous sequence numbers, so each has its own
    /// ring slot.
    fn rob_entry(&self, seq: u64) -> Option<&RobEntry> {
        self.in_window(seq).then(|| &self.rob[self.sched.slot(seq)])
    }

    /// Mutable [`Core::rob_entry`].
    fn rob_entry_mut(&mut self, seq: u64) -> Option<&mut RobEntry> {
        let s = self.sched.slot(seq);
        self.in_window(seq).then(|| &mut self.rob[s])
    }

    /// Issues up to `width` eligible instructions in sequence order.
    ///
    /// Eligibility is event-driven: an entry becomes ready when dispatched
    /// with a satisfied (or absent) dependency, or when its producer's
    /// completion cycle passes. The scan from the ROB head walks exactly
    /// the entries whose operands are available, oldest first.
    fn issue(&mut self, mem: &mut MemorySystem, cycle: u64, now_ps: u64) {
        // Producers completing by this cycle unblock their dependents.
        self.sched.drain_due(cycle);

        let mut issued = 0;
        let width = self.cfg.width;
        let l1_latency = u64::from(self.cfg.l1_latency);
        let long_lat = u64::from(self.cfg.long_op_latency);
        let mshrs = self.cfg.mshrs;
        let core_id = self.id;

        let mut resolved_redirect: Option<u64> = None;
        let head = self.rob_head;
        let len = self.rob_len();
        let mut from = 0;
        while issued < width {
            let Some(idx) = self.sched.next_ready(head, from, len) else {
                break;
            };
            from = idx + 1;
            let seq = head + idx as u64;
            if self.cfg.in_order {
                // Blocking loads: an outstanding load miss stalls issue
                // entirely (no miss-under-miss).
                if !self.in_flight_loads.is_empty() {
                    break;
                }
                // Strict program-order issue: the scan yields the oldest
                // *eligible* entry, but an in-order core may not slip past
                // an older instruction that has not issued yet.
                if seq != self.inorder_next {
                    break;
                }
            }
            let slot = self.sched.slot(seq);
            let (op, addr) = {
                let e = &self.rob[slot];
                debug_assert_eq!(e.stage, Stage::Waiting, "ready entries are waiting");
                (e.op, e.addr)
            };
            let new_stage = match op {
                OpClass::IntAlu => Stage::Executing {
                    done_cycle: cycle + 1,
                },
                OpClass::IntLong | OpClass::Fp => Stage::Executing {
                    done_cycle: cycle + long_lat,
                },
                OpClass::Branch { mispredicted } => {
                    if mispredicted && self.redirect_on == Some(seq) {
                        resolved_redirect = Some(cycle + 1);
                    }
                    Stage::Executing {
                        done_cycle: cycle + 1,
                    }
                }
                OpClass::Load => {
                    let line = SetAssocArray::align(addr);
                    match self.l1d.access(line, false) {
                        AccessOutcome::Hit => Stage::Executing {
                            done_cycle: cycle + l1_latency,
                        },
                        AccessOutcome::Miss { victim } => {
                            if self.outstanding_data >= mshrs {
                                // No MSHR: un-allocate pressure by retrying.
                                // (The line was allocated; treat as a hit
                                // next time — minor inaccuracy, bounded by
                                // MSHR stalls being rare.) Stays eligible:
                                // the entry keeps its ready bit.
                                continue;
                            }
                            if let Some(v) = victim {
                                if v.dirty {
                                    mem.writeback(core_id, v.line_addr, now_ps);
                                    self.stats.l1d_writebacks += 1;
                                }
                            }
                            self.stats.l1d_misses += 1;
                            self.outstanding_data += 1;
                            self.in_flight_loads.push(seq);
                            let t = mem.submit(core_id, line, MemRequestKind::Load, now_ps);
                            for d in 1..=self.cfg.prefetch_degree {
                                mem.submit_prefetch(
                                    core_id,
                                    line + u64::from(d) * crate::LINE_BYTES,
                                    now_ps,
                                );
                            }
                            Stage::Memory { ticket: t }
                        }
                    }
                }
                OpClass::Store => {
                    let line = SetAssocArray::align(addr);
                    match self.l1d.access(line, true) {
                        AccessOutcome::Hit => Stage::Executing {
                            done_cycle: cycle + 1,
                        },
                        AccessOutcome::Miss { victim } => {
                            if let Some(v) = victim {
                                if v.dirty {
                                    mem.writeback(core_id, v.line_addr, now_ps);
                                    self.stats.l1d_writebacks += 1;
                                }
                            }
                            self.stats.l1d_misses += 1;
                            // Read-for-ownership in the background; the
                            // store retires into the store buffer without
                            // blocking commit, but it does consume memory
                            // bandwidth and an MSHR if available.
                            if self.outstanding_data < mshrs {
                                self.outstanding_data += 1;
                                let t = mem.submit(core_id, line, MemRequestKind::Store, now_ps);
                                self.pending_stores.push(t);
                            }
                            Stage::Executing {
                                done_cycle: cycle + 1,
                            }
                        }
                    }
                }
            };
            self.sched.clear_ready(seq);
            self.rob[slot].stage = new_stage;
            // The entry's completion cycle is now known (unless it went to
            // memory, where the fill completion wakes dependents instead).
            if let Stage::Executing { done_cycle } = new_stage {
                self.sched.wake(seq, done_cycle);
            }
            if op.is_memory() {
                self.stats.l1d_accesses += 1;
            }
            if self.cfg.in_order {
                self.inorder_next = seq + 1;
            }
            issued += 1;
        }
        // Retire background store fills.
        let mut freed = 0u32;
        self.pending_stores.retain(|&t| {
            if mem.poll(t, now_ps).is_some() {
                freed += 1;
                false
            } else {
                true
            }
        });
        self.outstanding_data = self.outstanding_data.saturating_sub(freed);
        if let Some(resolve_cycle) = resolved_redirect {
            self.fetch_stall_until = resolve_cycle + u64::from(self.cfg.branch_penalty);
            self.redirect_on = None;
            self.stats.branch_redirects += 1;
        }
    }

    fn fetch<S: InstructionStream>(
        &mut self,
        stream: &mut S,
        mem: &mut MemorySystem,
        cycle: u64,
        now_ps: u64,
    ) {
        if self.ifetch_miss.is_some()
            || self.redirect_on.is_some()
            || cycle < self.fetch_stall_until
        {
            return;
        }
        for _ in 0..self.cfg.width {
            if self.rob_len() >= self.cfg.rob_entries as usize {
                self.stats.rob_full_cycles += 1;
                break;
            }
            let instr = stream.next_instr();
            // Instruction fetch: touch the L1-I at line granularity (a
            // repeat of the previous fetch's line is a hit; see
            // `last_iline`).
            let iline = SetAssocArray::align(instr.pc);
            if iline != self.last_iline {
                self.last_iline = iline;
                if let AccessOutcome::Miss { .. } = self.l1i.access(iline, false) {
                    self.stats.l1i_misses += 1;
                    let t = mem.submit(self.id, iline, MemRequestKind::IFetch, now_ps);
                    self.ifetch_miss = Some(t);
                    // The missing instruction still dispatches (it is in
                    // the fetch group that triggered the fill).
                }
            }
            let seq = self.next_seq;
            let dep_seq = if instr.dep_dist > 0 {
                seq.checked_sub(u64::from(instr.dep_dist))
            } else {
                None
            };
            // With a learning predictor configured, the redirect decision
            // comes from predicting the synthetic ground truth instead of
            // the stream's calibrated flag.
            let op = if let (OpClass::Branch { .. }, Some((pred, truth))) =
                (instr.op, self.bpred.as_mut())
            {
                let taken = truth.outcome(instr.pc);
                let wrong = pred.update(instr.pc, taken);
                OpClass::Branch {
                    mispredicted: wrong,
                }
            } else {
                instr.op
            };
            let mispredicted = matches!(op, OpClass::Branch { mispredicted: true });
            self.rob[self.sched.slot(seq)] = RobEntry {
                op,
                addr: instr.addr,
                is_user: instr.is_user,
                stage: Stage::Waiting,
            };
            self.next_seq += 1;
            // Register for issue scheduling: eligible immediately when the
            // producer is absent or already committed, at the producer's
            // completion cycle when it is known, and via the producer's
            // wake list otherwise.
            match dep_seq {
                None => self.sched.set_ready(seq),
                Some(d) => match self.rob_entry(d).map(|p| p.stage) {
                    None => self.sched.set_ready(seq),
                    Some(Stage::Done { done_cycle }) | Some(Stage::Executing { done_cycle }) => {
                        self.sched.defer(seq, done_cycle);
                    }
                    Some(Stage::Waiting) | Some(Stage::Memory { .. }) => {
                        self.sched.wait_on(d, seq);
                    }
                },
            }
            self.stats.dispatched += 1;
            if mispredicted {
                // Fetch goes down the wrong path: stall until this branch
                // resolves, then pay the redirect penalty.
                self.redirect_on = Some(seq);
                break;
            }
            if self.ifetch_miss.is_some() {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CoreConfig, SimConfig};
    use crate::instr::Instr;

    struct AluStream;
    impl InstructionStream for AluStream {
        fn next_instr(&mut self) -> Instr {
            Instr::alu(0x1000)
        }
    }

    struct DepChainStream;
    impl InstructionStream for DepChainStream {
        fn next_instr(&mut self) -> Instr {
            Instr::alu(0x1000).with_dep(1)
        }
    }

    /// [`DepChainStream`] with each instruction's address set to its
    /// sequence number, so a ROB entry names the instruction it holds.
    struct NumberedChainStream(u64);
    impl InstructionStream for NumberedChainStream {
        fn next_instr(&mut self) -> Instr {
            self.0 += 1;
            Instr {
                addr: self.0 - 1,
                ..Instr::alu(0x1000).with_dep(1)
            }
        }
    }

    fn run<S: InstructionStream>(stream: &mut S, cycles: u64) -> CoreStats {
        let cfg = SimConfig::paper_cluster(1000.0);
        let mut mem = MemorySystem::new(&cfg);
        let mut core = Core::new(0, cfg.core);
        let period = cfg.core_period_ps();
        for c in 0..cycles {
            let now = c * period;
            core.tick(stream, &mut mem, c, now, period);
            mem.tick(now + period);
        }
        core.stats().clone()
    }

    #[test]
    fn ready_scan_follows_sequence_order_across_the_ring_wrap() {
        // 12 entries → 16 slots; a window of 10 starting at seq 30 (slot
        // 14) wraps to slot 7.
        let mut sched = IssueSched::new(12);
        for seq in [39, 31, 34] {
            sched.set_ready(seq);
        }
        let (head, len) = (30, 10);
        assert_eq!(sched.next_ready(head, 0, len), Some(1));
        assert_eq!(sched.next_ready(head, 2, len), Some(4));
        assert_eq!(sched.next_ready(head, 5, len), Some(9));
        // The scan ends with the window: seq 31, passed over but still
        // ready, sits further round the ring and is not revisited.
        sched.clear_ready(39);
        assert_eq!(sched.next_ready(head, 5, len), None);
    }

    /// Whether `seq` is ready, for a scheduler whose window covers
    /// sequence numbers `0..128`.
    fn is_ready(sched: &IssueSched, seq: u64) -> bool {
        sched
            .next_ready(0, seq as usize, seq as usize + 1)
            .is_some()
    }

    /// Drains cycle by cycle up to `cycle`, as the core does.
    fn drain_to(sched: &mut IssueSched, cycle: u64) {
        for c in sched.drained + 1..=cycle {
            sched.drain_due(c);
        }
    }

    /// Drains cycle by cycle up to `until`, asserting `seq` turns ready at
    /// exactly `due` and not before.
    fn assert_ready_at(sched: &mut IssueSched, seq: u64, due: u64, until: u64) {
        for cycle in sched.drained + 1..=until {
            sched.drain_due(cycle);
            assert_eq!(
                is_ready(sched, seq),
                cycle >= due,
                "seq {seq} at cycle {cycle}"
            );
        }
    }

    #[test]
    fn woken_consumers_become_ready_at_the_producer_cycle() {
        let mut sched = IssueSched::new(8);
        sched.wait_on(3, 4);
        sched.wait_on(3, 6);
        sched.defer(5, 12);
        sched.wake(3, 10);
        drain_to(&mut sched, 9);
        assert_eq!(sched.next_ready(3, 0, 4), None);
        sched.drain_due(10);
        assert_eq!(sched.next_ready(3, 0, 4), Some(1));
        assert_eq!(sched.next_ready(3, 2, 4), Some(3));
        sched.drain_due(11);
        assert_eq!(sched.next_ready(3, 2, 3), None);
        sched.drain_due(12);
        assert_eq!(sched.next_ready(3, 2, 4), Some(2));
        assert_eq!(sched.wheel_busy, 0);
    }

    #[test]
    fn an_entry_deferred_to_a_drained_cycle_is_ready_by_the_next_issue() {
        let mut sched = IssueSched::new(128);
        drain_to(&mut sched, 100);
        // Before the drained cycle: ready at once.
        sched.defer(1, 99);
        assert!(is_ready(&sched, 1));
        // The drained cycle itself (a zero-latency result during its
        // issue): hidden from that issue pass, ready at the next drain.
        sched.defer(2, 100);
        assert!(!is_ready(&sched, 2));
        sched.drain_due(101);
        assert!(is_ready(&sched, 2));
    }

    #[test]
    fn wheel_edge_and_far_entries_become_ready_at_their_own_cycle() {
        let mut sched = IssueSched::new(128);
        drain_to(&mut sched, 1_000);
        sched.defer(1, 1_063); // the wheel's last bucket
        sched.defer(2, 1_064); // exactly one span ahead: far
        sched.defer(3, 1_300); // far, and still far after 2's scan
        assert_eq!(sched.far_min, 1_064);
        assert_ready_at(&mut sched, 1, 1_063, 1_063);
        assert_ready_at(&mut sched, 2, 1_064, 1_064);
        assert_eq!(sched.far_min, 1_300, "the far scan keeps 3");
        assert_ready_at(&mut sched, 3, 1_300, 1_310);
        assert_eq!((sched.wheel_busy, sched.far_min), (0, u64::MAX));
    }

    #[test]
    fn far_entries_move_onto_the_wheel_when_a_scan_reaches_them() {
        let mut sched = IssueSched::new(128);
        drain_to(&mut sched, 10);
        sched.defer(1, 80);
        sched.defer(2, 100);
        assert_ready_at(&mut sched, 1, 80, 80);
        assert_eq!(sched.far_min, u64::MAX, "2 is within the span of 80");
        assert_ready_at(&mut sched, 2, 100, 120);
    }

    #[test]
    fn ring_lookups_follow_the_window_across_the_wrap() {
        let cfg = CoreConfig {
            rob_entries: 12,
            ..SimConfig::paper_cluster(1000.0).core
        };
        let mut mem = MemorySystem::new(&SimConfig::paper_cluster(1000.0));
        let mut core = Core::new(0, cfg);
        assert_eq!(core.rob.len(), 16);
        // A serial chain keeps the 12-entry window full while the head
        // walks round the 16-slot ring several times.
        let mut stream = NumberedChainStream(0);
        let period = 1_000;
        for c in 0..200 {
            core.tick(&mut stream, &mut mem, c, c * period, period);
            mem.tick((c + 1) * period);
            let (head, next) = (core.rob_head, core.next_seq);
            assert!(next - head <= 12);
            assert!(core.rob_entry(head.wrapping_sub(1)).is_none());
            assert!(core.rob_entry(next).is_none());
            for seq in head..next {
                let e = core.rob_entry(seq).expect("in-window entry");
                assert_eq!(e.addr, seq, "the slot holds its own entry");
            }
        }
        assert!(core.rob_head > 3 * 16, "the head wrapped the ring");
    }

    #[test]
    fn independent_alu_stream_approaches_full_width() {
        let s = run(&mut AluStream, 3000);
        let ipc = s.ipc();
        assert!(
            ipc > 2.5,
            "independent ALU ops should sustain near 3-wide, got {ipc}"
        );
    }

    #[test]
    fn serial_dependency_chain_limits_ipc_to_one() {
        let s = run(&mut DepChainStream, 3000);
        let ipc = s.ipc();
        assert!(
            ipc < 1.2 && ipc > 0.5,
            "a serial chain must bound IPC near 1, got {ipc}"
        );
    }

    #[test]
    fn mispredicted_branches_cost_redirects() {
        struct Branchy(u32);
        impl InstructionStream for Branchy {
            fn next_instr(&mut self) -> Instr {
                self.0 = self.0.wrapping_add(1);
                if self.0 % 20 == 0 {
                    Instr {
                        op: OpClass::Branch { mispredicted: true },
                        pc: 0x1000,
                        addr: 0,
                        dep_dist: 0,
                        is_user: true,
                    }
                } else {
                    Instr::alu(0x1000)
                }
            }
        }
        let s = run(&mut Branchy(0), 3000);
        assert!(s.branch_redirects > 10);
        assert!(
            s.ipc() < 2.0,
            "redirect stalls must depress IPC, got {}",
            s.ipc()
        );
    }

    #[test]
    fn loads_hitting_l1_barely_slow_the_core() {
        struct HotLoads(u64);
        impl InstructionStream for HotLoads {
            fn next_instr(&mut self) -> Instr {
                self.0 += 1;
                if self.0 % 4 == 0 {
                    // 16 hot lines, always hitting after warm-up.
                    Instr::load(0x1000, (self.0 % 16) * 64)
                } else {
                    Instr::alu(0x1000)
                }
            }
        }
        let s = run(&mut HotLoads(0), 3000);
        assert!(
            s.ipc() > 2.0,
            "L1-resident loads are cheap, got {}",
            s.ipc()
        );
        assert!(s.l1d_misses <= 16);
    }

    #[test]
    fn cache_missing_loads_crush_ipc_at_high_frequency() {
        struct ColdLoads(u64);
        impl InstructionStream for ColdLoads {
            fn next_instr(&mut self) -> Instr {
                self.0 += 1;
                if self.0 % 4 == 0 {
                    // Every load a fresh line, serially dependent so MLP=1.
                    Instr::load(0x1000, self.0 * 64 * 4096).with_dep(4)
                } else {
                    Instr::alu(0x1000)
                }
            }
        }
        let s = run(&mut ColdLoads(0), 5000);
        assert!(
            s.ipc() < 0.6,
            "serial DRAM misses must crush IPC, got {}",
            s.ipc()
        );
    }

    #[test]
    fn slow_clock_hides_memory_latency() {
        struct ColdLoads(u64);
        impl InstructionStream for ColdLoads {
            fn next_instr(&mut self) -> Instr {
                self.0 += 1;
                if self.0 % 4 == 0 {
                    Instr::load(0x1000, self.0 * 64 * 4096).with_dep(4)
                } else {
                    Instr::alu(0x1000)
                }
            }
        }
        let run_at = |mhz: f64| {
            let cfg = SimConfig::paper_cluster(mhz);
            let mut mem = MemorySystem::new(&cfg);
            let mut core = Core::new(0, cfg.core);
            let mut s = ColdLoads(0);
            let period = cfg.core_period_ps();
            for c in 0..5000u64 {
                let now = c * period;
                core.tick(&mut s, &mut mem, c, now, period);
                mem.tick(now + period);
            }
            core.stats().ipc()
        };
        let ipc_fast = run_at(2000.0);
        let ipc_slow = run_at(200.0);
        assert!(
            ipc_slow > ipc_fast * 1.5,
            "at 200 MHz DRAM latency shrinks in cycles: {ipc_slow} vs {ipc_fast}"
        );
    }

    #[test]
    fn os_instructions_count_separately() {
        struct Mixed(u64);
        impl InstructionStream for Mixed {
            fn next_instr(&mut self) -> Instr {
                self.0 += 1;
                if self.0 % 5 == 0 {
                    Instr::alu(0x9000).as_os()
                } else {
                    Instr::alu(0x1000)
                }
            }
        }
        let s = run(&mut Mixed(0), 2000);
        assert!(s.os_instrs > 0);
        let frac = s.os_instrs as f64 / (s.user_instrs + s.os_instrs) as f64;
        assert!(
            (frac - 0.2).abs() < 0.02,
            "OS fraction should be ~20%, got {frac}"
        );
    }
}
