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
//! # The scheduler
//!
//! Each channel keeps its queued requests in one vector in enqueue order,
//! with each [`DramAddress`] decoded once at enqueue. A pick walks the
//! vector for the first arrived row hit, else the first arrived request,
//! and removes it. The walk is linear in the queue's depth, which the
//! benchmark workloads keep small: at most 66 requests across a 9-cluster
//! chip's four channels. An indexed scheduler with per-bank row heaps
//! made the same decisions in O(log n) and was removed because no
//! workload ran deep enough for it to pay (see DESIGN.md).

use crate::config::DramTimingConfig;
use crate::LINE_BYTES;
use serde::{Deserialize, Serialize};

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

#[derive(Debug)]
struct Channel {
    banks: Vec<Bank>,
    ranks: Vec<Rank>,
    /// Data-bus free time.
    bus_free: u64,
    /// Queued requests in enqueue order, oldest first.
    queue: Vec<Pending>,
    /// Deepest the channel queue has been.
    high_water: u32,
    /// Monotonicity guard for `tick` (debug builds only).
    #[cfg(debug_assertions)]
    last_until: u64,
}

impl Channel {
    fn new(cfg: &DramTimingConfig) -> Self {
        Channel {
            banks: vec![Bank::default(); cfg.banks_per_channel() as usize],
            ranks: vec![Rank::default(); cfg.ranks as usize],
            bus_free: 0,
            queue: Vec::new(),
            high_water: 0,
            #[cfg(debug_assertions)]
            last_until: 0,
        }
    }

    /// The FR-FCFS pick among the requests arrived by `until_ps` (the
    /// oldest row hit, else the oldest request) as its queue index and
    /// the time its first command can issue, if that is before
    /// `until_ps`.
    fn next_issue(&self, cfg: &DramTimingConfig, until_ps: u64) -> Option<(usize, u64)> {
        let mut pick = None;
        for (i, p) in self.queue.iter().enumerate() {
            if p.arrive_ps > until_ps {
                continue;
            }
            if self.banks[p.addr.bank as usize].open_row == Some(p.addr.row) {
                pick = Some(i);
                break;
            }
            pick.get_or_insert(i);
        }
        let i = pick?;
        let p = &self.queue[i];
        let start = earliest_start(cfg, self, p.addr, p.arrive_ps);
        (start < until_ps).then_some((i, start))
    }
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
    /// High-water mark of executed [`DramSystem::tick`] arguments. The
    /// scheduler's clock never rewinds: a heterogeneous chip advances
    /// each cluster by a count of its *own* cycles per window, so at a
    /// window boundary a short-period cluster sits at an earlier
    /// absolute time than the shared DRAM has reached — its memory
    /// system clamps against this (see [`DramSystem::now_ps`]).
    now_ps: u64,
    /// The `until_ps` of the last tick that walked the channels, until a
    /// request is enqueued. That walk stopped where the scheduler could
    /// start nothing more before this time, and nothing has changed
    /// since, so another tick to it has nothing to do.
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
            completed: Vec::new(),
            stats: DramStats::default(),
            queued: 0,
            high_water: 0,
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
        let chan = &mut self.channels[addr.channel as usize];
        chan.queue.push(Pending {
            ticket,
            owner,
            write,
            arrive_ps: arrive,
            addr,
        });
        chan.high_water = chan.high_water.max(chan.queue.len() as u32);
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
        self.channels.iter().map(|c| c.queue.len() as u32).collect()
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
    /// A tick to the time the last walk over the channels reached returns
    /// at once if nothing was enqueued since: every lane of a chip ticks
    /// the shared DRAM at each boundary, and the lanes after the first
    /// find nothing new to issue.
    pub fn tick(&mut self, until_ps: u64) {
        if self.queued == 0 {
            return;
        }
        self.now_ps = self.now_ps.max(until_ps);
        if self.walked_to == Some(until_ps) {
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
            while let Some((i, start)) = self.channels[ch].next_issue(&self.cfg, until_ps) {
                let p = self.channels[ch].queue.remove(i);
                self.queued -= 1;
                self.issue(ch, p, start);
            }
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

    /// Xorshift generator for reproducible random traffic.
    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
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
            let got = drive_repeated_boundaries(&mut repeated, seed, 2_000, 9);
            assert!(got.0.len() > 1_000, "seed {seed}: reads complete");
            assert_eq!(
                got,
                drive_repeated_boundaries(&mut single, seed, 2_000, 1),
                "repeated vs single ticks, seed {seed}"
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

    /// xorshift64*: the generator of the deep-queue traffic.
    fn xorshift_star(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// FNV-1a, folded over successive byte slices.
    fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        hash
    }

    /// Folds the completions drained from `sys` into `digest`, in drain
    /// order.
    fn fold_completions(mut digest: u64, sys: &mut DramSystem) -> u64 {
        for (ticket, done_ps) in sys.drain_completed() {
            digest = fnv1a(digest, &ticket.to_le_bytes());
            digest = fnv1a(digest, &done_ps.to_le_bytes());
        }
        digest
    }

    /// Sends `ops` requests to `sys` in bursts of `burst`, one burst
    /// every 2.5 ns with a tick after each, then ticks until the queue
    /// drains, folding every completion and the final statistics into
    /// `digest`. The lines fall on eight rows of sixteen lines each and a
    /// quarter of them are writes, so same-bank row conflicts are
    /// frequent and service falls behind the bursts.
    fn fold_burst_traffic(
        mut digest: u64,
        sys: &mut DramSystem,
        seed: u64,
        ops: u64,
        burst: u64,
    ) -> u64 {
        let mut state = seed;
        let mut now_ps = 0;
        let mut sent = 0;
        while sent < ops {
            for _ in 0..burst.min(ops - sent) {
                let r = xorshift_star(&mut state);
                let line = ((r >> 8) % 8) * (1 << 20) + (r % 16) * 64;
                if r % 4 == 0 {
                    sys.write(line, now_ps);
                } else {
                    sys.read(line, now_ps);
                }
                sent += 1;
            }
            now_ps += 2_500;
            sys.tick(now_ps);
            digest = fold_completions(digest, sys);
        }
        while sys.pending() > 0 {
            now_ps += 50_000;
            sys.tick(now_ps);
            digest = fold_completions(digest, sys);
        }
        let s = sys.stats();
        assert_eq!(
            s.reads + s.writes,
            ops,
            "seed {seed}: every request completes"
        );
        for count in [s.reads, s.writes, s.row_hits, s.row_misses] {
            digest = fnv1a(digest, &count.to_le_bytes());
        }
        digest
    }

    /// The digest of [`deep_queue_traffic_matches_the_golden_digest`]'s
    /// completions and statistics. Only a deliberate change to the DRAM
    /// timing model or the FR-FCFS policy may re-pin it.
    const DEEP_QUEUE_DIGEST: u64 = 0xa8f9_d05c_055f_2f9f;

    /// Pins the scheduler's exact decisions with queues thousands deep
    /// (2,905 to 2,908 requests for the three 3,000-request runs, 200 for
    /// the trickle of pairs), far past the 66 any benchmark workload
    /// reaches, where every pick walks a long queue.
    #[test]
    fn deep_queue_traffic_matches_the_golden_digest() {
        let mut digest = 0xCBF2_9CE4_8422_2325;
        for (seed, ops, burst) in [
            (1, 3_000, 48),
            (0xDEAD_BEEF, 3_000, 48),
            (0x1234_5678_9ABC_DEF0, 3_000, 48),
            (7, 400, 2),
        ] {
            let mut sys = system();
            digest = fold_burst_traffic(digest, &mut sys, seed, ops, burst);
            assert!(
                sys.queue_depth_high_water() >= 200,
                "seed {seed}: the queue peaked at {}",
                sys.queue_depth_high_water()
            );
        }
        assert_eq!(
            digest, DEEP_QUEUE_DIGEST,
            "deep-queue scheduling moved: digest {digest:#018x}, pinned {DEEP_QUEUE_DIGEST:#018x}"
        );
    }
}
