//! DDR4 timing model in the spirit of DRAMSim2.
//!
//! Models what dominates DRAM latency and bandwidth under load:
//!
//! * per-bank row-buffer state — row hits pay only CAS latency, conflicts
//!   pay precharge + activate + CAS;
//! * JEDEC timing windows: `tRCD`, `tRP`, `tRAS`, `tWR`, `tCCD`, `tRRD` and
//!   the four-activate window `tFAW`;
//! * data-bus serialization per channel (BL8 bursts);
//! * **FR-FCFS scheduling**: among queued requests, row hits go first,
//!   then the oldest request — the policy the paper configures in DRAMSim2.
//!
//! Time is continuous picoseconds; the cluster calls
//! [`DramSystem::tick`] every core cycle and the scheduler catches up to the
//! current time, issuing as many commands as the windows allow. Refresh is
//! not modelled in timing (its ~2-3 % bandwidth tax is folded into the power
//! model's background term); this is the one deliberate simplification
//! relative to DRAMSim2, noted in DESIGN.md.
//!
//! # The indexed scheduler
//!
//! FR-FCFS picks "the oldest row hit, else the oldest request" per
//! channel. The naive implementation re-scanned the whole channel queue —
//! re-decoding every address — for every issued command, an O(queue²)
//! cost per tick that dominated deep-queue workloads (a 36-core chip keeps
//! hundreds of requests in flight). The scheduler is now *indexed* while
//! making **bit-identical decisions**:
//!
//! * [`DramAddress`] is decoded once at enqueue and stored in the request;
//! * each channel keeps its requests in a slab, with per-`(bank, row)`
//!   min-heaps ordered by sequence number — "oldest hit in bank *b*" is a
//!   heap peek at the bank's open row, "oldest overall" a peek of one
//!   channel-wide heap, so a pick costs O(active banks + log n) instead of
//!   O(n);
//! * requests whose `arrive_ps` lies beyond the current tick wait in a
//!   per-channel deferred heap and enter the pick structures only once
//!   they arrive (ticks must be time-monotone, which the engine
//!   guarantees; debug builds assert it);
//! * removed requests are deleted *lazily*: heap entries are validated
//!   against the slab (by unique sequence number) at peek time.
//!
//! The pre-index scan-everything scheduler is retained as a **reference
//! oracle** ([`DramSystem::set_reference_scheduler`]); differential tests
//! drive both against identical traffic and require identical statistics,
//! completions and completion times.

use crate::config::DramTimingConfig;
use crate::fxhash::FxHashMap;
use crate::LINE_BYTES;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Ticket identifying an outstanding read.
pub type DramTicket = u64;

/// Physical location of a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramAddress {
    /// Channel index.
    pub channel: u32,
    /// Flat bank index within the channel (rank-major).
    pub bank: u32,
    /// Rank index within the channel.
    pub rank: u32,
    /// Row within the bank.
    pub row: u64,
}

/// Aggregate DRAM statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramStats {
    /// Completed read bursts.
    pub reads: u64,
    /// Completed write bursts.
    pub writes: u64,
    /// Accesses that hit an open row.
    pub row_hits: u64,
    /// Accesses that required activate (closed or conflicting row).
    pub row_misses: u64,
}

impl DramStats {
    /// Bytes read from DRAM.
    pub fn bytes_read(&self) -> u64 {
        self.reads * LINE_BYTES
    }

    /// Bytes written to DRAM.
    pub fn bytes_written(&self) -> u64 {
        self.writes * LINE_BYTES
    }

    /// Row-buffer hit rate over all accesses.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Counter deltas since `before` (window statistics).
    pub fn delta_since(&self, before: &DramStats) -> DramStats {
        DramStats {
            reads: self.reads - before.reads,
            writes: self.writes - before.writes,
            row_hits: self.row_hits - before.row_hits,
            row_misses: self.row_misses - before.row_misses,
        }
    }
}

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct Bank {
    open_row: Option<u64>,
    /// Earliest time the next column command (RD/WR) may issue.
    cas_ready: u64,
    /// Earliest time a precharge may issue (tRAS from last ACT, tWR after
    /// writes).
    pre_ready: u64,
    /// Earliest time an activate may issue (tRP after precharge).
    act_ready: u64,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    ticket: Option<DramTicket>,
    owner: u32,
    write: bool,
    arrive_ps: u64,
    seq: u64,
    /// Physical location, decoded once at enqueue.
    addr: DramAddress,
}

/// "Long ago" sentinel for activate history: far enough in the past that no
/// timing window constrains the first commands, without risking overflow.
const NEVER: i64 = i64::MIN / 4;

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Rank {
    /// Times of the last four activates (for tFAW), oldest first.
    act_history: [i64; 4],
    /// Time of the most recent activate (for tRRD).
    last_act: i64,
}

impl Default for Rank {
    fn default() -> Self {
        Rank {
            act_history: [NEVER; 4],
            last_act: NEVER,
        }
    }
}

/// Clamps an i64 timing bound to the u64 time line.
fn bound(t: i64) -> u64 {
    t.max(0) as u64
}

/// Per-`(bank, row)` queue: the FR-FCFS pick structure. Heap entries are
/// validated lazily against the slab — an issued request's entries are
/// dropped the next time they surface at a peek.
#[derive(Debug, Default)]
struct RowQ {
    /// Arrived requests of this row by sequence number — the "oldest row
    /// hit" candidate when the row is open.
    ready_by_seq: BinaryHeap<Reverse<(u64, u32)>>,
    /// Exact live request count (the heap may carry stale entries).
    queued: u32,
}

/// Per-bank index: the bank's live rows.
#[derive(Debug, Default)]
struct BankIndex {
    rows: FxHashMap<u64, RowQ>,
    /// Live requests queued at this bank.
    queued: u32,
}

#[derive(Debug)]
struct Channel {
    banks: Vec<Bank>,
    ranks: Vec<Rank>,
    /// Data-bus free time.
    bus_free: u64,
    /// Request slab; freed slots are recycled through `free_slots`.
    slots: Vec<Option<Pending>>,
    free_slots: Vec<u32>,
    /// Requests whose `arrive_ps` is beyond the last tick: `(arrive, seq,
    /// slot)`, entering the pick structures once they arrive.
    deferred: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Arrived requests channel-wide by sequence number — the "oldest
    /// overall" FR-FCFS candidate.
    ready_by_seq: BinaryHeap<Reverse<(u64, u32)>>,
    bank_ix: Vec<BankIndex>,
    /// Banks with at least one live request (`active_pos` is the reverse
    /// map; `u32::MAX` = absent).
    active_banks: Vec<u32>,
    active_pos: Vec<u32>,
    /// Live requests queued on this channel.
    queued: u32,
    /// Deepest the channel queue has been.
    high_water: u32,
    /// Monotonicity guard for `tick` (debug builds only).
    #[cfg(debug_assertions)]
    last_until: u64,
}

impl Channel {
    fn new(cfg: &DramTimingConfig) -> Self {
        let banks = cfg.banks_per_channel() as usize;
        Channel {
            banks: vec![Bank::default(); banks],
            ranks: vec![Rank::default(); cfg.ranks as usize],
            bus_free: 0,
            slots: Vec::new(),
            free_slots: Vec::new(),
            deferred: BinaryHeap::new(),
            ready_by_seq: BinaryHeap::new(),
            bank_ix: (0..banks).map(|_| BankIndex::default()).collect(),
            active_banks: Vec::new(),
            active_pos: vec![u32::MAX; banks],
            queued: 0,
            high_water: 0,
            #[cfg(debug_assertions)]
            last_until: 0,
        }
    }

    /// Allocates a slab slot for `p`.
    fn alloc_slot(&mut self, p: Pending) -> u32 {
        match self.free_slots.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(p);
                s
            }
            None => {
                self.slots.push(Some(p));
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Removes a live request from the slab and all exact bookkeeping
    /// (heap entries die lazily). Returns the request.
    fn remove_slot(&mut self, slot: u32) -> Pending {
        let p = self.slots[slot as usize]
            .take()
            .expect("removing a live request");
        self.free_slots.push(slot);
        let bank = p.addr.bank as usize;
        let bix = &mut self.bank_ix[bank];
        bix.queued -= 1;
        let rq = bix.rows.get_mut(&p.addr.row).expect("row of live request");
        rq.queued -= 1;
        if rq.queued == 0 {
            bix.rows.remove(&p.addr.row);
        }
        if bix.queued == 0 {
            // Swap-remove from the active-bank list.
            let pos = self.active_pos[bank] as usize;
            let last = *self.active_banks.last().expect("bank was active");
            self.active_banks.swap_remove(pos);
            self.active_pos[last as usize] = pos as u32;
            self.active_pos[bank] = u32::MAX;
            if pos < self.active_banks.len() {
                self.active_pos[self.active_banks[pos] as usize] = pos as u32;
            }
        }
        self.queued -= 1;
        p
    }

    /// Moves deferred requests whose arrival time has been reached into
    /// the pick structures.
    fn activate_arrivals(&mut self, until_ps: u64) {
        while let Some(&Reverse((arrive, seq, slot))) = self.deferred.peek() {
            if arrive > until_ps {
                break;
            }
            self.deferred.pop();
            if !slot_live(&self.slots, seq, slot) {
                continue; // issued by the reference path before arrival
            }
            self.ready_by_seq.push(Reverse((seq, slot)));
            let p = self.slots[slot as usize].as_ref().expect("live");
            self.bank_ix[p.addr.bank as usize]
                .rows
                .get_mut(&p.addr.row)
                .expect("row of live request")
                .ready_by_seq
                .push(Reverse((seq, slot)));
        }
    }

    /// The FR-FCFS pick among arrived requests: the oldest row hit if any
    /// bank's open row has one, else the oldest request overall.
    fn best_candidate(&mut self) -> Option<u32> {
        let Channel {
            banks,
            bank_ix,
            slots,
            ready_by_seq,
            active_banks,
            ..
        } = self;
        let mut best_hit: Option<(u64, u32)> = None;
        for &b in active_banks.iter() {
            let Some(open) = banks[b as usize].open_row else {
                continue;
            };
            let Some(rq) = bank_ix[b as usize].rows.get_mut(&open) else {
                continue;
            };
            if let Some((seq, slot)) = peek_seq(&mut rq.ready_by_seq, slots) {
                if best_hit.is_none_or(|(s, _)| seq < s) {
                    best_hit = Some((seq, slot));
                }
            }
        }
        if let Some((_, slot)) = best_hit {
            return Some(slot);
        }
        peek_seq(ready_by_seq, slots).map(|(_, slot)| slot)
    }
}

#[inline]
fn slot_live(slots: &[Option<Pending>], seq: u64, slot: u32) -> bool {
    slots[slot as usize].as_ref().is_some_and(|p| p.seq == seq)
}

/// Lazy peek of a `(seq, slot)` heap: stale entries (issued requests) are
/// popped and dropped.
fn peek_seq(
    heap: &mut BinaryHeap<Reverse<(u64, u32)>>,
    slots: &[Option<Pending>],
) -> Option<(u64, u32)> {
    while let Some(&Reverse((seq, slot))) = heap.peek() {
        if slot_live(slots, seq, slot) {
            return Some((seq, slot));
        }
        heap.pop();
    }
    None
}

/// Earliest time the *first command* of a request can issue.
fn earliest_start(
    cfg: &DramTimingConfig,
    chan: &Channel,
    addr: DramAddress,
    arrive_ps: u64,
) -> u64 {
    let bank = &chan.banks[addr.bank as usize];
    match bank.open_row {
        Some(row) if row == addr.row => arrive_ps.max(bank.cas_ready),
        Some(_) => arrive_ps.max(bank.pre_ready),
        None => arrive_ps
            .max(bank.act_ready)
            .max(act_window(cfg, &chan.ranks[addr.rank as usize])),
    }
}

/// Earliest activate permitted by the rank's tFAW/tRRD windows.
fn act_window(cfg: &DramTimingConfig, rank: &Rank) -> u64 {
    let faw = rank.act_history[0] + (u64::from(cfg.tfaw) * cfg.tck_ps) as i64;
    let rrd = rank.last_act + (u64::from(cfg.trrd) * cfg.tck_ps) as i64;
    bound(faw.max(rrd))
}

/// The memory system: channels, ranks, banks and their schedulers.
#[derive(Debug)]
pub struct DramSystem {
    cfg: DramTimingConfig,
    channels: Vec<Channel>,
    next_ticket: DramTicket,
    next_seq: u64,
    /// Completions per owner, delivered through
    /// [`DramSystem::drain_completed_for_into`]; owner ids are small dense
    /// indices (cluster numbers), so a vector replaces the former map and
    /// drained buffers keep their capacity.
    completed: Vec<Vec<(DramTicket, u64)>>,
    stats: DramStats,
    /// Live requests across all channels ([`DramSystem::pending`] is O(1)).
    queued: usize,
    /// Deepest the total queue has been.
    high_water: usize,
    /// Use the scan-everything reference scheduler instead of the indexed
    /// one (differential-test oracle).
    reference: bool,
    /// Harness-validation fault: the indexed scheduler drops its row-hit
    /// preference (see [`DramSystem::set_scheduler_mutation`]).
    mutate_scheduler: bool,
    /// High-water mark of executed [`DramSystem::tick`] arguments. The
    /// scheduler's clock never rewinds: a heterogeneous chip advances
    /// each cluster by a count of its *own* cycles per window, so at a
    /// window boundary a short-period cluster sits at an earlier
    /// absolute time than the shared DRAM has reached — its memory
    /// system clamps against this (see [`DramSystem::now_ps`]).
    now_ps: u64,
    /// The `until_ps` of the last tick that walked the channels, until a
    /// request is enqueued or a scheduler setting changes. That walk
    /// stopped where its scheduler could start nothing more before this
    /// time, and nothing has changed since, so another tick to it has
    /// nothing to do.
    walked_to: Option<u64>,
}

impl DramSystem {
    /// Builds an idle memory system.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is structurally invalid (zero channel/bank
    /// counts, a sub-line row size, an overflowing bank product — see
    /// [`DramTimingConfig::validate`]): the address decode would otherwise
    /// divide by zero or silently truncate.
    pub fn new(cfg: DramTimingConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid DRAM configuration: {e}");
        }
        let channels = (0..cfg.channels).map(|_| Channel::new(&cfg)).collect();
        DramSystem {
            cfg,
            channels,
            next_ticket: 1,
            next_seq: 0,
            completed: Vec::new(),
            stats: DramStats::default(),
            queued: 0,
            high_water: 0,
            reference: false,
            mutate_scheduler: false,
            now_ps: 0,
            walked_to: None,
        }
    }

    /// The latest instant the scheduler has executed a tick to — the
    /// shared clock's high-water mark. Ticks that found an empty queue
    /// don't count: no scheduling decision was made, so replaying the
    /// interval later is exact.
    pub fn now_ps(&self) -> u64 {
        self.now_ps
    }

    /// The timing configuration.
    pub fn config(&self) -> &DramTimingConfig {
        &self.cfg
    }

    /// Switches between the indexed scheduler (default) and the
    /// scan-everything reference implementation.
    ///
    /// Both make bit-identical FR-FCFS decisions; the reference exists as
    /// the oracle for differential tests and for debugging suspected index
    /// corruption. Switching is legal at any point — both paths maintain
    /// the same underlying structures.
    pub fn set_reference_scheduler(&mut self, reference: bool) {
        self.reference = reference;
        self.walked_to = None;
    }

    /// Injects a deliberate scheduling bug into the **indexed** path: it
    /// always picks the oldest request, ignoring the row-hit preference,
    /// while the reference oracle keeps full FR-FCFS.
    ///
    /// This exists solely so the differential-verification harness
    /// (`ntc-diffcheck --mutate`) can prove it detects and shrinks real
    /// scheduler divergences; it must never be enabled in a measurement.
    #[doc(hidden)]
    pub fn set_scheduler_mutation(&mut self, enabled: bool) {
        self.mutate_scheduler = enabled;
        self.walked_to = None;
    }

    /// Maps a line address to its channel/rank/bank/row.
    ///
    /// Channel-interleaved at line granularity with 128 consecutive
    /// per-channel lines per row, so streaming access patterns enjoy row
    /// hits while spreading across channels.
    pub fn map(&self, line_addr: u64) -> DramAddress {
        let block = line_addr / LINE_BYTES;
        let channel = (block % u64::from(self.cfg.channels)) as u32;
        let x = block / u64::from(self.cfg.channels);
        let lines_per_row = self.cfg.row_bytes / LINE_BYTES;
        let y = x / lines_per_row;
        let banks = u64::from(self.cfg.banks_per_channel());
        let bank = (y % banks) as u32;
        let row = y / banks;
        let banks_per_rank = u64::from(self.cfg.bank_groups * self.cfg.banks_per_group);
        let rank = (u64::from(bank) / banks_per_rank) as u32;
        DramAddress {
            channel,
            bank,
            rank,
            row,
        }
    }

    /// Enqueues a read; returns a ticket to poll for completion.
    pub fn read(&mut self, line_addr: u64, arrive_ps: u64) -> DramTicket {
        self.read_for(0, line_addr, arrive_ps)
    }

    /// Enqueues a read on behalf of `owner` (one memory controller client,
    /// e.g. a cluster); its completion is delivered through
    /// [`DramSystem::drain_completed_for`] with the same owner.
    pub fn read_for(&mut self, owner: u32, line_addr: u64, arrive_ps: u64) -> DramTicket {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.enqueue(Some(ticket), owner, line_addr, false, arrive_ps);
        ticket
    }

    /// Enqueues a write (fire-and-forget: LLC write-backs do not block
    /// anyone).
    pub fn write(&mut self, line_addr: u64, arrive_ps: u64) {
        self.enqueue(None, 0, line_addr, true, arrive_ps);
    }

    fn enqueue(
        &mut self,
        ticket: Option<DramTicket>,
        owner: u32,
        line_addr: u64,
        write: bool,
        arrive: u64,
    ) {
        self.walked_to = None;
        let addr = self.map(line_addr);
        let seq = self.next_seq;
        self.next_seq += 1;
        let chan = &mut self.channels[addr.channel as usize];
        let slot = chan.alloc_slot(Pending {
            ticket,
            owner,
            write,
            arrive_ps: arrive,
            seq,
            addr,
        });
        chan.deferred.push(Reverse((arrive, seq, slot)));
        let bank = addr.bank as usize;
        let bix = &mut chan.bank_ix[bank];
        bix.rows.entry(addr.row).or_default().queued += 1;
        bix.queued += 1;
        if bix.queued == 1 {
            chan.active_pos[bank] = chan.active_banks.len() as u32;
            chan.active_banks.push(bank as u32);
        }
        chan.queued += 1;
        chan.high_water = chan.high_water.max(chan.queued);
        self.queued += 1;
        self.high_water = self.high_water.max(self.queued);
    }

    /// Number of requests still queued across all channels. O(1): the
    /// count is maintained at enqueue/issue.
    pub fn pending(&self) -> usize {
        self.queued
    }

    /// The deepest the total request queue has been — a scheduler
    /// diagnostic. Kept out of [`DramStats`] (whose fields are windowed
    /// deltas — a high-water mark doesn't difference); the sims surface
    /// it as `SimStats::dram_queue_high_water` instead.
    pub fn queue_depth_high_water(&self) -> usize {
        self.high_water
    }

    /// Per-channel queue-depth high-water marks (diagnostics).
    pub fn channel_queue_high_water(&self) -> Vec<u32> {
        self.channels.iter().map(|c| c.high_water).collect()
    }

    /// Current per-channel queue depths (telemetry probes).
    pub fn channel_queue_depths(&self) -> Vec<u32> {
        self.channels.iter().map(|c| c.queued).collect()
    }

    /// Drains completions for the default owner: `(ticket, done_ps)` pairs.
    pub fn drain_completed(&mut self) -> Vec<(DramTicket, u64)> {
        self.drain_completed_for(0)
    }

    /// Drains completions recorded for a specific owner.
    pub fn drain_completed_for(&mut self, owner: u32) -> Vec<(DramTicket, u64)> {
        let mut out = Vec::new();
        self.drain_completed_for_into(owner, &mut out);
        out
    }

    /// Drains completions for `owner` into a caller-owned buffer — the
    /// hot loop's allocation-free variant of
    /// [`DramSystem::drain_completed_for`]. Both the internal per-owner
    /// buffer and `buf` keep their capacity across drains.
    pub fn drain_completed_for_into(&mut self, owner: u32, buf: &mut Vec<(DramTicket, u64)>) {
        if let Some(done) = self.completed.get_mut(owner as usize) {
            buf.append(done);
        }
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Advances every channel's scheduler up to `until_ps`, issuing all
    /// commands whose timing windows open before then. `until_ps` must be
    /// monotone across calls (the engine's clock always is).
    ///
    /// The indexed scheduler returns at once from a tick to the time the
    /// last walk over the channels reached, if nothing was enqueued since:
    /// every lane of a chip ticks the shared DRAM at each boundary, and
    /// the lanes after the first find nothing new to issue. The reference
    /// scheduler always walks every channel.
    pub fn tick(&mut self, until_ps: u64) {
        if self.queued == 0 {
            return;
        }
        self.now_ps = self.now_ps.max(until_ps);
        if !self.reference && self.walked_to == Some(until_ps) {
            return;
        }
        self.walked_to = Some(until_ps);
        for ch in 0..self.channels.len() {
            #[cfg(debug_assertions)]
            {
                let chan = &mut self.channels[ch];
                debug_assert!(
                    until_ps >= chan.last_until,
                    "DramSystem::tick must advance monotonically \
                     ({until_ps} < {})",
                    chan.last_until
                );
                chan.last_until = until_ps;
            }
            self.channels[ch].activate_arrivals(until_ps);
            if self.reference {
                self.tick_channel_reference(ch, until_ps);
            } else {
                self.tick_channel_indexed(ch, until_ps);
            }
        }
    }

    /// Indexed FR-FCFS: O(active banks + log n) per pick, bit-identical
    /// decisions to [`DramSystem::tick_channel_reference`].
    fn tick_channel_indexed(&mut self, ch: usize, until_ps: u64) {
        let mutate = self.mutate_scheduler;
        loop {
            let chan = &mut self.channels[ch];
            let candidate = if mutate {
                // Injected fault (`set_scheduler_mutation`): oldest-first
                // only, no row-hit preference.
                peek_seq(&mut chan.ready_by_seq, &chan.slots).map(|(_, slot)| slot)
            } else {
                chan.best_candidate()
            };
            let Some(slot) = candidate else {
                break;
            };
            let p = chan.slots[slot as usize].as_ref().expect("candidate live");
            let start = earliest_start(&self.cfg, chan, p.addr, p.arrive_ps);
            if start >= until_ps {
                break;
            }
            let p = self.channels[ch].remove_slot(slot);
            self.queued -= 1;
            self.issue(ch, p, start);
        }
    }

    /// The pre-index scheduler: re-scan every queued request per issued
    /// command. Kept as the differential-test oracle.
    fn tick_channel_reference(&mut self, ch: usize, until_ps: u64) {
        loop {
            // FR-FCFS: choose among arrived requests — row hits first
            // (oldest row hit), then the oldest request overall.
            let (best_slot, start) = {
                let chan = &self.channels[ch];
                let mut best: Option<(u32, bool, u64)> = None; // slot, hit, seq
                for (i, s) in chan.slots.iter().enumerate() {
                    let Some(p) = s else { continue };
                    if p.arrive_ps > until_ps {
                        continue;
                    }
                    let hit = chan.banks[p.addr.bank as usize].open_row == Some(p.addr.row);
                    let cand = (i as u32, hit, p.seq);
                    best = Some(match best {
                        None => cand,
                        Some(b) => {
                            // Prefer row hits; among equals prefer age.
                            let better = match (hit, b.1) {
                                (true, false) => true,
                                (false, true) => false,
                                _ => p.seq < b.2,
                            };
                            if better {
                                cand
                            } else {
                                b
                            }
                        }
                    });
                }
                match best {
                    Some((slot, _, _)) => {
                        let p = chan.slots[slot as usize].as_ref().expect("live");
                        let s = earliest_start(&self.cfg, chan, p.addr, p.arrive_ps);
                        if s < until_ps {
                            (slot, s)
                        } else {
                            break;
                        }
                    }
                    None => break,
                }
            };
            let p = self.channels[ch].remove_slot(best_slot);
            self.queued -= 1;
            self.issue(ch, p, start);
        }
    }

    fn issue(&mut self, ch: usize, p: Pending, start: u64) {
        let cfg = self.cfg;
        let tck = cfg.tck_ps;
        let addr = p.addr;
        let chan = &mut self.channels[ch];

        // Resolve the row: possibly PRE + ACT before the column command.
        let bank = &mut chan.banks[addr.bank as usize];
        let mut t = start;
        let hit = bank.open_row == Some(addr.row);
        if !hit {
            if bank.open_row.is_some() {
                // Precharge the conflicting row.
                let pre = t.max(bank.pre_ready);
                bank.act_ready = pre + u64::from(cfg.trp) * tck;
                t = bank.act_ready;
            }
            // Activate (respect tRRD/tFAW through the rank history).
            let rank = &mut chan.ranks[addr.rank as usize];
            let act = t
                .max(bank.act_ready)
                .max(bound(
                    rank.act_history[0] + (u64::from(cfg.tfaw) * tck) as i64,
                ))
                .max(bound(rank.last_act + (u64::from(cfg.trrd) * tck) as i64));
            rank.act_history.rotate_left(1);
            rank.act_history[3] = act as i64;
            rank.last_act = act as i64;
            bank.open_row = Some(addr.row);
            bank.cas_ready = act + u64::from(cfg.trcd) * tck;
            bank.pre_ready = act + u64::from(cfg.tras) * tck;
            t = bank.cas_ready;
            self.stats.row_misses += 1;
        } else {
            t = t.max(bank.cas_ready);
            self.stats.row_hits += 1;
        }
        let bank = &mut chan.banks[addr.bank as usize];

        // Column command: wait for the data bus slot.
        let (lat_clocks, recovery) = if p.write {
            (u64::from(cfg.cwl), u64::from(cfg.twr) * tck)
        } else {
            (u64::from(cfg.cl), 0)
        };
        let data_start_min = chan.bus_free.max(t + lat_clocks * tck);
        let cas_at = data_start_min - lat_clocks * tck;
        let data_start = cas_at + lat_clocks * tck;
        let data_end = data_start + cfg.burst_ps();
        chan.bus_free = data_end;
        bank.cas_ready = cas_at + u64::from(cfg.tccd) * tck;
        if p.write {
            bank.pre_ready = bank.pre_ready.max(data_end + recovery);
            self.stats.writes += 1;
        } else {
            bank.pre_ready = bank.pre_ready.max(cas_at + u64::from(cfg.tras / 2) * tck);
            self.stats.reads += 1;
        }

        if let Some(ticket) = p.ticket {
            let owner = p.owner as usize;
            if owner >= self.completed.len() {
                self.completed.resize_with(owner + 1, Vec::new);
            }
            self.completed[owner].push((ticket, data_end));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system() -> DramSystem {
        DramSystem::new(DramTimingConfig::ddr4_1600_paper())
    }

    fn complete_one(sys: &mut DramSystem, ticket: DramTicket) -> u64 {
        sys.tick(u64::MAX / 2);
        let done = sys.drain_completed();
        done.into_iter()
            .find(|(t, _)| *t == ticket)
            .map(|(_, d)| d)
            .expect("request should complete")
    }

    #[test]
    #[should_panic(expected = "invalid DRAM configuration")]
    fn zero_channel_geometry_is_rejected_at_construction() {
        // Regression: `map()` divided by `channels`, so a zero-channel
        // config reached a divide-by-zero at the first access instead of
        // failing construction with a clear message.
        let mut cfg = DramTimingConfig::ddr4_1600_paper();
        cfg.channels = 0;
        let _ = DramSystem::new(cfg);
    }

    #[test]
    #[should_panic(expected = "invalid DRAM configuration")]
    fn zero_bank_geometry_is_rejected_at_construction() {
        let mut cfg = DramTimingConfig::ddr4_1600_paper();
        cfg.banks_per_group = 0;
        let _ = DramSystem::new(cfg);
    }

    #[test]
    fn cold_read_pays_act_plus_cas() {
        let mut sys = system();
        let t = sys.read(0, 0);
        let done = complete_one(&mut sys, t);
        let cfg = DramTimingConfig::ddr4_1600_paper();
        let expect = (u64::from(cfg.trcd) + u64::from(cfg.cl)) * cfg.tck_ps + cfg.burst_ps();
        assert_eq!(done, expect, "ACT+RCD+CL+burst");
    }

    #[test]
    fn row_hit_is_much_faster_than_conflict() {
        let mut sys = system();
        // Same row, consecutive per-channel lines: addr and addr + 64*channels.
        let a = sys.read(0, 0);
        let done_a = complete_one(&mut sys, a);
        let b = sys.read(64 * 4, done_a);
        let done_b = complete_one(&mut sys, b) - done_a;
        // Conflict: same bank, different row.
        let cfg = DramTimingConfig::ddr4_1600_paper();
        let lines_per_row = cfg.row_bytes / 64;
        let banks = u64::from(cfg.banks_per_channel());
        let conflict_addr = 64 * 4 * lines_per_row * banks; // same bank, next row
        assert_eq!(sys.map(conflict_addr).bank, sys.map(0).bank);
        assert_ne!(sys.map(conflict_addr).row, sys.map(0).row);
        let c = sys.read(conflict_addr, done_a);
        let done_c = complete_one(&mut sys, c) - done_a;
        assert!(
            done_b < done_c,
            "row hit ({done_b} ps) must beat row conflict ({done_c} ps)"
        );
        assert!(sys.stats().row_hits >= 1);
        assert!(sys.stats().row_misses >= 2);
    }

    #[test]
    fn channel_interleaving_spreads_lines() {
        let sys = system();
        let chans: Vec<u32> = (0..4).map(|i| sys.map(i * 64).channel).collect();
        assert_eq!(chans, vec![0, 1, 2, 3]);
    }

    #[test]
    fn bus_serializes_bursts_on_one_channel() {
        let mut sys = system();
        // Two reads to different banks, same channel: second data burst may
        // not overlap the first.
        let cfg = *sys.config();
        let lines_per_row = cfg.row_bytes / 64;
        let a = sys.read(0, 0);
        let b = sys.read(64 * 4 * lines_per_row, 0); // next bank, same channel
        assert_eq!(sys.map(64 * 4 * lines_per_row).channel, 0);
        assert_ne!(sys.map(64 * 4 * lines_per_row).bank, sys.map(0).bank);
        sys.tick(u64::MAX / 2);
        let mut done: Vec<u64> = sys.drain_completed().into_iter().map(|(_, d)| d).collect();
        done.sort_unstable();
        assert!(done[1] >= done[0] + cfg.burst_ps());
        let _ = (a, b);
    }

    #[test]
    fn different_channels_are_independent() {
        let mut sys = system();
        let a = sys.read(0, 0);
        let b = sys.read(64, 0); // channel 1
        sys.tick(u64::MAX / 2);
        let done = sys.drain_completed();
        let da = done.iter().find(|(t, _)| *t == a).unwrap().1;
        let db = done.iter().find(|(t, _)| *t == b).unwrap().1;
        assert_eq!(da, db, "parallel channels complete simultaneously");
    }

    #[test]
    fn fr_fcfs_prefers_row_hits() {
        let mut sys = system();
        let cfg = *sys.config();
        let lines_per_row = cfg.row_bytes / 64;
        let banks = u64::from(cfg.banks_per_channel());
        // Open row 0 of bank 0.
        let warm = sys.read(0, 0);
        let t0 = complete_one(&mut sys, warm);
        // Queue a conflict (older) and a row hit (younger) together.
        let conflict = sys.read(64 * 4 * lines_per_row * banks, t0);
        let hit = sys.read(64 * 4, t0 + 1);
        sys.tick(u64::MAX / 2);
        let done = sys.drain_completed();
        let d_conf = done.iter().find(|(t, _)| *t == conflict).unwrap().1;
        let d_hit = done.iter().find(|(t, _)| *t == hit).unwrap().1;
        assert!(
            d_hit < d_conf,
            "younger row hit ({d_hit}) should be served before older conflict ({d_conf})"
        );
    }

    #[test]
    fn writes_are_fire_and_forget_but_counted() {
        let mut sys = system();
        sys.write(0, 0);
        sys.write(4096, 0);
        sys.tick(u64::MAX / 2);
        assert_eq!(sys.stats().writes, 2);
        assert_eq!(sys.stats().bytes_written(), 128);
        assert!(sys.drain_completed().is_empty());
    }

    #[test]
    fn pending_drains_to_zero() {
        let mut sys = system();
        for i in 0..32 {
            sys.read(i * 64, 0);
        }
        assert_eq!(sys.pending(), 32);
        assert_eq!(sys.queue_depth_high_water(), 32);
        sys.tick(u64::MAX / 2);
        assert_eq!(sys.pending(), 0);
        assert_eq!(sys.stats().reads, 32);
        assert_eq!(
            sys.queue_depth_high_water(),
            32,
            "high water survives the drain"
        );
    }

    #[test]
    fn requests_do_not_start_before_arrival() {
        let mut sys = system();
        let t = sys.read(0, 1_000_000);
        let done = complete_one(&mut sys, t);
        assert!(done > 1_000_000);
    }

    // --- indexed-scheduler specific tests -------------------------------

    /// Xorshift generator for reproducible random traffic.
    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    /// Drives `sys` with a mixed random read/write stream (25 % writes,
    /// occasional same-line reuse for row locality) and returns all read
    /// completions in ticket order.
    fn drive_mixed(sys: &mut DramSystem, seed: u64, n: u64) -> Vec<(DramTicket, u64)> {
        let mut x = seed;
        let mut completions = Vec::new();
        let mut last_addr = 0u64;
        for i in 0..n {
            let r = xorshift(&mut x);
            // 1/4 reuse the previous line's row neighbourhood (row hits and
            // same-bank hazards), else a fresh random line.
            let addr = if r % 4 == 0 {
                last_addr + 64 * 4
            } else {
                (r % (1 << 30)) & !63
            };
            last_addr = addr;
            if r % 5 == 0 {
                sys.write(addr, i * 700);
            } else {
                sys.read(addr, i * 700);
            }
            if i % 32 == 31 {
                sys.tick(i * 700);
                completions.append(&mut sys.drain_completed());
            }
        }
        sys.tick(u64::MAX / 2);
        completions.append(&mut sys.drain_completed());
        completions.sort_unstable();
        completions
    }

    #[test]
    fn indexed_matches_reference_on_random_mixed_traffic() {
        for seed in [1u64, 0x9E3779B97F4A7C15, 0xDEADBEEF] {
            let mut fast = system();
            let mut oracle = system();
            oracle.set_reference_scheduler(true);
            let fast_done = drive_mixed(&mut fast, seed, 2_000);
            let oracle_done = drive_mixed(&mut oracle, seed, 2_000);
            assert_eq!(fast.stats(), oracle.stats(), "stats diverged, seed {seed}");
            assert_eq!(
                fast_done, oracle_done,
                "completion stream diverged, seed {seed}"
            );
            assert_eq!(fast.pending(), 0);
            assert_eq!(oracle.pending(), 0);
        }
    }

    /// Drives `sys` with mixed random traffic, some of it arriving after
    /// the boundary it is submitted at. After each request the current
    /// boundary and up to three more, each ticked 1 to `max_repeats`
    /// times, pass as the lanes of a chip tick their shared DRAM. Returns
    /// the completions in drain order, the clock before the final flush,
    /// and the statistics.
    fn drive_repeated_boundaries(
        sys: &mut DramSystem,
        seed: u64,
        n: u64,
        max_repeats: u64,
    ) -> (Vec<(DramTicket, u64)>, u64, DramStats) {
        let mut x = seed;
        let mut completions = Vec::new();
        let mut last_addr = 0u64;
        let mut boundary = 2_000;
        for _ in 0..n {
            let r = xorshift(&mut x);
            let addr = if r % 4 == 0 {
                last_addr + 64 * 4
            } else {
                (r % (1 << 30)) & !63
            };
            last_addr = addr;
            let arrive = boundary - 2_000 + (r >> 40) % 3_000;
            if r % 5 == 0 {
                sys.write(addr, arrive);
            } else {
                sys.read(addr, arrive);
            }
            for b in 0..1 + (r >> 30) % 4 {
                if b > 0 {
                    boundary += 1_000;
                }
                for _ in 0..1 + (r >> (20 + 4 * b)) % max_repeats {
                    sys.tick(boundary);
                }
                completions.append(&mut sys.drain_completed());
            }
        }
        let now = sys.now_ps();
        sys.tick(u64::MAX / 2);
        completions.append(&mut sys.drain_completed());
        (completions, now, sys.stats())
    }

    #[test]
    fn repeated_ticks_of_a_boundary_change_nothing() {
        for seed in [1u64, 0x9E3779B97F4A7C15, 0xDEADBEEF] {
            let mut repeated = system();
            let mut single = system();
            let mut oracle = system();
            oracle.set_reference_scheduler(true);
            let got = drive_repeated_boundaries(&mut repeated, seed, 2_000, 9);
            assert!(got.0.len() > 1_000, "seed {seed}: reads complete");
            assert_eq!(
                got,
                drive_repeated_boundaries(&mut single, seed, 2_000, 1),
                "repeated vs single ticks, seed {seed}"
            );
            assert_eq!(
                got,
                drive_repeated_boundaries(&mut oracle, seed, 2_000, 1),
                "indexed vs reference scheduler, seed {seed}"
            );
            assert_eq!(repeated.pending(), 0);
        }
    }

    #[test]
    fn owner_buffers_keep_capacity_across_drains() {
        let mut sys = system();
        let mut buf = Vec::new();
        for round in 0..3u64 {
            for i in 0..8 {
                sys.read_for(2, (round * 8 + i) * 64, round * 1_000_000);
            }
            sys.tick(u64::MAX / 2);
            buf.clear();
            sys.drain_completed_for_into(2, &mut buf);
            assert_eq!(buf.len(), 8, "round {round}");
        }
        // Unknown owners simply deliver nothing.
        buf.clear();
        sys.drain_completed_for_into(7, &mut buf);
        assert!(buf.is_empty());
    }
}
