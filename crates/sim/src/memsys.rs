//! The uncore: request lifecycle from L1 miss to data return.
//!
//! A core's L1 miss traverses the crossbar, queues at an LLC bank, and on an
//! LLC miss descends into the DDR4 system; the fill returns over the
//! crossbar. [`MemorySystem`] owns the crossbar, LLC and DRAM models, tracks
//! outstanding requests by ticket, merges requests to the same line
//! (MSHR-style), and surfaces the coherence invalidations the cluster must
//! apply to L1s.

use crate::cache::SetAssocArray;
use crate::config::{ClusterConfig, SimConfig};
use crate::dram::{DramStats, DramSystem, DramTicket};
use crate::fxhash::FxHashMap;
use crate::llc::{Invalidation, LlcStats, SharedLlc, SharerMask};
use crate::xbar::Crossbar;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};

/// A DRAM system shared by several memory controllers (clusters on one
/// chip). The lock is uncontended: the engine advances one cluster at a
/// time on one thread.
pub type SharedDram = Arc<Mutex<DramSystem>>;

/// Ticket identifying an outstanding memory request: an index into the
/// uncore's request slab, reused once [`MemorySystem::poll`] retires it.
pub type MemTicket = u64;

/// Why a request entered the memory system (for statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemRequestKind {
    /// L1-D load miss.
    Load,
    /// L1-D store miss (read-for-ownership).
    Store,
    /// L1-I fetch miss.
    IFetch,
    /// Hardware prefetch (fire-and-forget LLC fill).
    Prefetch,
}

#[derive(Debug, Clone, Copy)]
enum ReqState {
    /// Waiting on a DRAM fill (resolved through the by-line index).
    InDram,
    /// Done at the given picosecond.
    Done(u64),
    /// Retired by [`MemorySystem::poll`]; the slot awaits reuse.
    Free,
}

/// The cluster's uncore.
#[derive(Debug)]
pub struct MemorySystem {
    xbar: Crossbar,
    llc: SharedLlc,
    dram: SharedDram,
    /// This cluster's owner id on the shared DRAM.
    dram_owner: u32,
    xbar_return_ps: u64,
    /// Request slab, indexed by ticket. A slot joins `free_tickets` only
    /// when `poll` retires it, so a ticket a caller still holds is never
    /// reissued.
    requests: Vec<ReqState>,
    free_tickets: Vec<MemTicket>,
    /// Outstanding line fills: later requests to the same line merge.
    by_line: FxHashMap<u64, Vec<MemTicket>>,
    dram_to_line: FxHashMap<DramTicket, u64>,
    /// Reused per-tick DRAM completion buffer (allocation-free drain).
    completion_buf: Vec<(DramTicket, u64)>,
    /// Recycled waiter lists for `by_line` (a fill completes → its list
    /// returns here → the next miss reuses it).
    waiter_pool: Vec<Vec<MemTicket>>,
}

impl MemorySystem {
    /// Builds the uncore from the simulator configuration, with its own
    /// private DRAM system.
    pub fn new(cfg: &SimConfig) -> Self {
        Self::with_shared_dram(
            &cfg.cluster(),
            Arc::new(Mutex::new(DramSystem::new(cfg.dram))),
            0,
        )
    }

    /// Builds the uncore for one cluster as client `dram_owner` of a DRAM
    /// system shared with other clusters (the multi-cluster chip
    /// configuration). Each cluster brings its own crossbar and LLC
    /// geometry — only the DRAM behind them is common.
    pub fn with_shared_dram(cluster: &ClusterConfig, dram: SharedDram, dram_owner: u32) -> Self {
        MemorySystem {
            xbar: Crossbar::new(cluster.xbar, cluster.cores),
            llc: SharedLlc::new(cluster.llc, cluster.cores),
            dram,
            dram_owner,
            xbar_return_ps: cluster.xbar.traversal_ps,
            requests: Vec::new(),
            free_tickets: Vec::new(),
            by_line: FxHashMap::default(),
            dram_to_line: FxHashMap::default(),
            completion_buf: Vec::new(),
            waiter_pool: Vec::new(),
        }
    }

    /// Posts a DRAM read fill and binds its ticket to the line for the
    /// completion drain.
    fn dram_read(&mut self, line_addr: u64, arrive_ps: u64) {
        let dram_ticket = self
            .dram
            .lock()
            .unwrap()
            .read_for(self.dram_owner, line_addr, arrive_ps);
        self.dram_to_line.insert(dram_ticket, line_addr);
    }

    /// A waiter list for a new outstanding fill, recycled when possible.
    fn new_waiters(&mut self) -> Vec<MemTicket> {
        self.waiter_pool.pop().unwrap_or_default()
    }

    /// Allocates a ticket in `state`, reusing a retired slot if any.
    fn new_ticket(&mut self, state: ReqState) -> MemTicket {
        match self.free_tickets.pop() {
            Some(t) => {
                self.requests[t as usize] = state;
                t
            }
            None => {
                self.requests.push(state);
                self.requests.len() as MemTicket - 1
            }
        }
    }

    /// Submits an L1 miss for `core` at absolute time `now_ps`.
    ///
    /// Returns a ticket to poll with [`MemorySystem::poll`]. Requests to a
    /// line already being filled merge onto the outstanding fill.
    pub fn submit(
        &mut self,
        core: u32,
        line_addr: u64,
        kind: MemRequestKind,
        now_ps: u64,
    ) -> MemTicket {
        let line_addr = SetAssocArray::align(line_addr);
        let ticket = self.new_ticket(ReqState::InDram);

        // MSHR merge: the line is already on its way.
        if let Some(waiters) = self.by_line.get_mut(&line_addr) {
            waiters.push(ticket);
            return ticket;
        }

        let write = matches!(kind, MemRequestKind::Store);
        let at_llc = self.xbar.traverse(core as usize, now_ps);
        let access = self.llc.access(line_addr, write, core, at_llc);
        if let Some(victim) = access.writeback {
            self.dram.lock().unwrap().write(victim, access.ready_ps);
        }
        if access.hit {
            self.requests[ticket as usize] = ReqState::Done(access.ready_ps + self.xbar_return_ps);
        } else {
            self.dram_read(line_addr, access.ready_ps);
            let mut waiters = self.new_waiters();
            waiters.push(ticket);
            self.by_line.insert(line_addr, waiters);
        }
        ticket
    }

    /// Posts a fire-and-forget prefetch: the line is brought into the LLC
    /// (consuming crossbar, bank and DRAM bandwidth like any fill) but no
    /// one waits on it. A later demand miss to the same line merges onto
    /// the in-flight fill.
    pub fn submit_prefetch(&mut self, core: u32, line_addr: u64, now_ps: u64) {
        let line_addr = SetAssocArray::align(line_addr);
        if self.by_line.contains_key(&line_addr) {
            return; // already in flight
        }
        let at_llc = self.xbar.traverse(core as usize, now_ps);
        let access = self.llc.access(line_addr, false, core, at_llc);
        if access.hit {
            return; // already resident
        }
        if let Some(victim) = access.writeback {
            self.dram.lock().unwrap().write(victim, access.ready_ps);
        }
        self.dram_read(line_addr, access.ready_ps);
        // Open a merge point with no waiters of its own.
        let waiters = self.new_waiters();
        self.by_line.insert(line_addr, waiters);
    }

    /// Posts a dirty-line write-back from an L1 (non-blocking).
    pub fn writeback(&mut self, core: u32, line_addr: u64, now_ps: u64) {
        let line_addr = SetAssocArray::align(line_addr);
        let at_llc = self.xbar.traverse(core as usize, now_ps);
        if let Some(victim) = self.llc.writeback_from_l1(line_addr, at_llc) {
            self.dram.lock().unwrap().write(victim, at_llc);
        }
    }

    /// Installs a line in the LLC without timing (checkpoint warming).
    ///
    /// # Panics
    ///
    /// Panics if `sharers` names a core the cluster does not have.
    pub fn install_llc(&mut self, line_addr: u64, sharers: SharerMask) {
        self.llc.install(SetAssocArray::align(line_addr), sharers);
    }

    /// Advances DRAM scheduling up to `until_ps` and resolves completed
    /// fills.
    pub fn tick(&mut self, until_ps: u64) {
        let mut completed = std::mem::take(&mut self.completion_buf);
        completed.clear();
        {
            let mut dram = self.dram.lock().unwrap();
            // The shared scheduler's clock never rewinds: after a
            // heterogeneous advance window a short-period cluster sits at
            // an earlier absolute time than the DRAM has reached, and its
            // late-timestamped arrivals simply become eligible now.
            let until_ps = until_ps.max(dram.now_ps());
            dram.tick(until_ps);
            dram.drain_completed_for_into(self.dram_owner, &mut completed);
        }
        for &(dram_ticket, done_ps) in &completed {
            let line = match self.dram_to_line.remove(&dram_ticket) {
                Some(l) => l,
                None => continue,
            };
            let done = done_ps + self.xbar_return_ps;
            if let Some(mut waiters) = self.by_line.remove(&line) {
                for &t in &waiters {
                    self.requests[t as usize] = ReqState::Done(done);
                }
                waiters.clear();
                self.waiter_pool.push(waiters);
            }
        }
        self.completion_buf = completed;
    }

    /// Polls a ticket: `Some(done_ps)` once the data is back at the core
    /// and `now_ps >= done_ps`. Completed tickets are retired on return.
    pub fn poll(&mut self, ticket: MemTicket, now_ps: u64) -> Option<u64> {
        let slot = &mut self.requests[ticket as usize];
        match *slot {
            ReqState::Done(d) if d <= now_ps => {
                *slot = ReqState::Free;
                self.free_tickets.push(ticket);
                Some(d)
            }
            _ => None,
        }
    }

    /// Invalidations the cluster must apply to core L1s.
    pub fn drain_invalidations(&mut self) -> Vec<Invalidation> {
        self.llc.drain_invalidations()
    }

    /// Drains invalidations into a caller-owned buffer — the hot loop's
    /// allocation-free variant of [`MemorySystem::drain_invalidations`].
    pub fn drain_invalidations_into(&mut self, buf: &mut Vec<Invalidation>) {
        self.llc.drain_invalidations_into(buf);
    }

    /// LLC statistics.
    pub fn llc_stats(&self) -> LlcStats {
        self.llc.stats()
    }

    /// DRAM statistics (chip-wide when the DRAM is shared).
    pub fn dram_stats(&self) -> DramStats {
        self.dram.lock().unwrap().stats()
    }

    /// Deepest the DRAM request queue has been (scheduler diagnostic).
    pub fn dram_queue_high_water(&self) -> usize {
        self.dram.lock().unwrap().queue_depth_high_water()
    }

    /// Per-channel DRAM queue high-water marks since construction.
    pub fn dram_channel_queue_high_water(&self) -> Vec<u32> {
        self.dram.lock().unwrap().channel_queue_high_water()
    }

    /// Requests queued at the DRAM scheduler right now (telemetry probes).
    pub fn dram_pending(&self) -> usize {
        self.dram.lock().unwrap().pending()
    }

    /// Current per-channel DRAM queue depths (telemetry probes).
    pub fn dram_channel_depths(&self) -> Vec<u32> {
        self.dram.lock().unwrap().channel_queue_depths()
    }

    /// Crossbar transfers so far.
    pub fn xbar_transfers(&self) -> u64 {
        self.xbar.transfers()
    }

    /// Outstanding request count (diagnostics).
    pub fn outstanding(&self) -> usize {
        self.requests.len() - self.free_tickets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn memsys() -> MemorySystem {
        MemorySystem::new(&SimConfig::paper_cluster(1000.0))
    }

    fn wait_done(m: &mut MemorySystem, t: MemTicket) -> u64 {
        for step in 1..10_000u64 {
            let now = step * 1_000;
            m.tick(now);
            if let Some(d) = m.poll(t, now) {
                return d;
            }
        }
        panic!("request never completed");
    }

    #[test]
    fn llc_hit_is_fast_llc_miss_is_slow() {
        let mut m = memsys();
        let t1 = wait_done_submit(&mut m, 0, 0x1000, 0);
        // Second access to the same line: LLC hit.
        let start = 1_000_000;
        let t2 = m.submit(0, 0x1000, MemRequestKind::Load, start);
        let d2 = wait_done(&mut m, t2) - start;
        assert!(
            d2 < 10_000,
            "llc hit should be a handful of ns, got {d2} ps"
        );
        assert!(t1 > 25_000, "cold miss goes to DRAM, got {t1} ps");
    }

    fn wait_done_submit(m: &mut MemorySystem, core: u32, addr: u64, now: u64) -> u64 {
        let t = m.submit(core, addr, MemRequestKind::Load, now);
        wait_done(m, t) - now
    }

    #[test]
    fn same_line_requests_merge() {
        let mut m = memsys();
        let a = m.submit(0, 0x2000, MemRequestKind::Load, 0);
        let b = m.submit(1, 0x2010, MemRequestKind::Load, 0);
        let da = wait_done(&mut m, a);
        let db = wait_done(&mut m, b);
        assert_eq!(da, db, "merged requests complete together");
        assert_eq!(m.dram_stats().reads, 1, "only one DRAM read issued");
    }

    #[test]
    fn store_miss_takes_ownership() {
        let mut m = memsys();
        let a = m.submit(0, 0x3000, MemRequestKind::Load, 0);
        wait_done(&mut m, a);
        let b = m.submit(1, 0x3000, MemRequestKind::Store, 2_000_000);
        wait_done(&mut m, b);
        let inv = m.drain_invalidations();
        assert!(
            inv.iter().any(|i| i.cores & 1 != 0),
            "core 0 must be invalidated by core 1's store"
        );
    }

    #[test]
    fn poll_before_completion_returns_none() {
        let mut m = memsys();
        let t = m.submit(0, 0x4000, MemRequestKind::Load, 0);
        assert!(m.poll(t, 1).is_none());
        wait_done(&mut m, t);
        assert_eq!(m.outstanding(), 0);
    }

    #[test]
    fn writebacks_flow_to_dram_only_on_llc_eviction() {
        let mut m = memsys();
        m.writeback(0, 0x5000, 0);
        m.tick(1_000_000);
        // The dirty line sits in the LLC; no DRAM write yet.
        assert_eq!(m.dram_stats().writes, 0);
    }
}
