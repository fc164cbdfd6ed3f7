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
/// chip). The lock is uncontended in practice: the serial engine advances
/// one cluster at a time, and the epoch-parallel chip engine detaches
/// every cluster from the DRAM before fanning out (worker threads only
/// *read* frozen scheduler state; all mutation happens at the serial
/// barrier replay).
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

/// One DRAM operation a *detached* cluster recorded instead of applying
/// (see [`MemorySystem::detach_dram`]). The chip's epoch barrier replays
/// these against the shared DRAM in canonical `(boundary, lane)` order —
/// the same global order the serial multi-clock engine interleaves lane
/// ticks in — so the scheduler sees byte-identical traffic.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DeferredDramOp {
    /// The uncore tick boundary this op orders against, in picoseconds:
    /// the `(cycle + 1) * period` key of the lane tick that produced it.
    pub key_ps: u64,
    /// Ops posted by the invalidation drain (L1 write-backs) happen
    /// *after* the boundary's own uncore tick; core-tick submits before.
    pub after_tick: bool,
    /// DRAM write (LLC victim / write-back) vs read fill.
    pub write: bool,
    pub line_addr: u64,
    pub arrive_ps: u64,
}

/// Detached-mode state: while a cluster runs inside a parallel epoch it
/// must not touch the shared DRAM, so its would-be calls are recorded
/// here for the barrier to replay.
#[derive(Debug)]
struct DetachedDram {
    /// The cluster's clock period — turns a submit's `now_ps` into the
    /// tick-boundary key it orders against.
    period_ps: u64,
    /// The epoch horizon in ps. No outstanding fill can become pollable
    /// before it (that is what made the epoch legal), so it doubles as a
    /// conservative stand-in for the fill-wake bound while detached.
    horizon_ps: u64,
    ops: Vec<DeferredDramOp>,
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
    prefetches: u64,
    /// Reused per-tick DRAM completion buffer (allocation-free drain).
    completion_buf: Vec<(DramTicket, u64)>,
    /// Recycled waiter lists for `by_line` (a fill completes → its list
    /// returns here → the next miss reuses it).
    waiter_pool: Vec<Vec<MemTicket>>,
    /// `Some` while this cluster runs inside a parallel epoch: DRAM calls
    /// are recorded, not applied (see [`MemorySystem::detach_dram`]).
    detached: Option<DetachedDram>,
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
            llc: SharedLlc::new(cluster.llc),
            dram,
            dram_owner,
            xbar_return_ps: cluster.xbar.traversal_ps,
            requests: Vec::new(),
            free_tickets: Vec::new(),
            by_line: FxHashMap::default(),
            dram_to_line: FxHashMap::default(),
            prefetches: 0,
            completion_buf: Vec::new(),
            waiter_pool: Vec::new(),
            detached: None,
        }
    }

    /// Detaches this cluster from the shared DRAM for one parallel epoch:
    /// until [`MemorySystem::reattach_dram`], every DRAM mutation this
    /// uncore would perform is recorded as a [`DeferredDramOp`] instead,
    /// and the probe bounds answer from `horizon_ps` (the epoch's legality
    /// guarantee: no outstanding fill becomes pollable before it, so the
    /// horizon is a valid — and maximal — fill-wake stand-in).
    ///
    /// While detached the cluster's cores, L1s, crossbar and LLC evolve
    /// exactly as they would in the serial interleaving: all cross-cluster
    /// coupling flows through the DRAM, and within the epoch no DRAM event
    /// is observable.
    pub(crate) fn detach_dram(&mut self, period_ps: u64, horizon_ps: u64) {
        debug_assert!(self.detached.is_none(), "detach_dram while detached");
        self.detached = Some(DetachedDram {
            period_ps,
            horizon_ps,
            ops: Vec::new(),
        });
    }

    /// Ends detached mode, returning the recorded DRAM ops for the barrier
    /// to replay (empty and harmless if the cluster was never detached).
    pub(crate) fn reattach_dram(&mut self) -> Vec<DeferredDramOp> {
        self.detached.take().map(|d| d.ops).unwrap_or_default()
    }

    /// Barrier replay of a recorded read: allocates the real DRAM ticket
    /// (in canonical order, so ticket numbering matches the serial engine)
    /// and binds it to the line for the eventual completion drain.
    pub(crate) fn replay_dram_read(&mut self, line_addr: u64, arrive_ps: u64) {
        let dram_ticket = self
            .dram
            .lock()
            .unwrap()
            .read_for(self.dram_owner, line_addr, arrive_ps);
        self.dram_to_line.insert(dram_ticket, line_addr);
    }

    /// Barrier replay of a recorded write.
    pub(crate) fn replay_dram_write(&mut self, line_addr: u64, arrive_ps: u64) {
        self.dram.lock().unwrap().write(line_addr, arrive_ps);
    }

    /// Posts a DRAM write, or records it when detached.
    fn dram_write(&mut self, line_addr: u64, arrive_ps: u64, key_ps: u64, after_tick: bool) {
        if let Some(d) = &mut self.detached {
            d.ops.push(DeferredDramOp {
                key_ps,
                after_tick,
                write: true,
                line_addr,
                arrive_ps,
            });
        } else {
            self.dram.lock().unwrap().write(line_addr, arrive_ps);
        }
    }

    /// Posts a DRAM read, or records it when detached (the ticket binding
    /// then happens at barrier replay, keeping global ticket order).
    fn dram_read(&mut self, line_addr: u64, arrive_ps: u64, key_ps: u64) {
        if let Some(d) = &mut self.detached {
            d.ops.push(DeferredDramOp {
                key_ps,
                after_tick: false,
                write: false,
                line_addr,
                arrive_ps,
            });
        } else {
            self.replay_dram_read(line_addr, arrive_ps);
        }
    }

    /// The tick-boundary key a submit at `now_ps` orders against (the next
    /// boundary strictly after `now_ps`; core ticks run at exact cycle
    /// starts, so this is `(cycle + 1) * period`). Zero when attached —
    /// the key is only meaningful for recorded ops.
    fn submit_key(&self, now_ps: u64) -> u64 {
        match &self.detached {
            Some(d) => now_ps - now_ps % d.period_ps + d.period_ps,
            None => 0,
        }
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
        let line_addr = SetAssocArray::<()>::align(line_addr);
        let ticket = self.new_ticket(ReqState::InDram);

        // MSHR merge: the line is already on its way.
        if let Some(waiters) = self.by_line.get_mut(&line_addr) {
            waiters.push(ticket);
            return ticket;
        }

        let write = matches!(kind, MemRequestKind::Store);
        let key = self.submit_key(now_ps);
        let at_llc = self.xbar.traverse(core as usize, now_ps);
        let access = self.llc.access(line_addr, write, core, at_llc);
        if let Some(victim) = access.writeback {
            self.dram_write(victim, access.ready_ps, key, false);
        }
        if access.hit {
            self.requests[ticket as usize] = ReqState::Done(access.ready_ps + self.xbar_return_ps);
        } else {
            self.dram_read(line_addr, access.ready_ps, key);
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
        let line_addr = SetAssocArray::<()>::align(line_addr);
        if self.by_line.contains_key(&line_addr) {
            return; // already in flight
        }
        let key = self.submit_key(now_ps);
        let at_llc = self.xbar.traverse(core as usize, now_ps);
        let access = self.llc.access(line_addr, false, core, at_llc);
        if access.hit {
            return; // already resident
        }
        if let Some(victim) = access.writeback {
            self.dram_write(victim, access.ready_ps, key, false);
        }
        self.dram_read(line_addr, access.ready_ps, key);
        // Open a merge point with no waiters of its own.
        let waiters = self.new_waiters();
        self.by_line.insert(line_addr, waiters);
        self.prefetches += 1;
    }

    /// Posts a dirty-line write-back from an L1 (non-blocking). Called by
    /// cores mid-cycle (L1 victim evictions), so when detached it orders
    /// like a submit: before the next tick boundary.
    pub fn writeback(&mut self, core: u32, line_addr: u64, now_ps: u64) {
        let key = self.submit_key(now_ps);
        self.writeback_keyed(core, line_addr, now_ps, key, false);
    }

    /// The engine's invalidation-drain write-back: posted right *after*
    /// the uncore tick at boundary `now_ps`, so a recorded victim write
    /// replays after that boundary's tick — unlike core-tick submits.
    pub(crate) fn drain_writeback(&mut self, core: u32, line_addr: u64, now_ps: u64) {
        debug_assert!(
            self.detached
                .as_ref()
                .is_none_or(|d| now_ps.is_multiple_of(d.period_ps)),
            "invalidation drains happen exactly at tick boundaries"
        );
        self.writeback_keyed(core, line_addr, now_ps, now_ps, true);
    }

    fn writeback_keyed(
        &mut self,
        core: u32,
        line_addr: u64,
        now_ps: u64,
        key_ps: u64,
        after_tick: bool,
    ) {
        let line_addr = SetAssocArray::<()>::align(line_addr);
        let at_llc = self.xbar.traverse(core as usize, now_ps);
        if let Some(victim) = self.llc.writeback_from_l1(line_addr, at_llc) {
            self.dram_write(victim, at_llc, key_ps, after_tick);
        }
    }

    /// Installs a line in the LLC without timing (checkpoint warming).
    pub fn install_llc(&mut self, line_addr: u64, sharers: SharerMask) {
        self.llc
            .install(SetAssocArray::<()>::align(line_addr), sharers);
    }

    /// Advances DRAM scheduling up to `until_ps` and resolves completed
    /// fills.
    pub fn tick(&mut self, until_ps: u64) {
        // Detached clusters never advance the shared scheduler: the epoch
        // barrier replays every boundary against the real DRAM, and the
        // epoch's legality bound guarantees nothing could resolve for this
        // cluster mid-epoch anyway.
        if self.detached.is_some() {
            return;
        }
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

    /// Peeks a ticket's completion time without retiring it: `Some(done_ps)`
    /// once the fill's arrival time is known (the time may still be in the
    /// future), `None` while the request waits on DRAM scheduling.
    ///
    /// This is the cycle-skip probe's view of a ticket; unlike
    /// [`MemorySystem::poll`] it never mutates state.
    pub fn ticket_done_ps(&self, ticket: MemTicket) -> Option<u64> {
        match self.requests[ticket as usize] {
            ReqState::Done(d) => Some(d),
            _ => None,
        }
    }

    /// Earliest time DRAM could issue any queued command, or `None` when
    /// the queues are empty (see [`DramSystem::next_issue_ps`]).
    pub fn next_issue_ps(&self) -> Option<u64> {
        // Detached: DRAM boundaries are regenerated wholesale at the
        // barrier (tick is a no-op here), so there is nothing to replay
        // locally and the issue bound is irrelevant within the epoch.
        if self.detached.is_some() {
            return None;
        }
        self.dram.lock().unwrap().next_issue_ps()
    }

    /// Earliest time any outstanding DRAM read's fill could be back at a
    /// core: the minimum of the queued-read completion bound
    /// ([`DramSystem::next_read_completion_ps`]) and the earliest
    /// *issued-but-undrained* completion for this cluster
    /// ([`DramSystem::next_undrained_completion_ps`]), plus the crossbar
    /// return hop. `None` when neither exists — pending writes alone
    /// never wake a core.
    ///
    /// The undrained term matters on heterogeneous chips: another
    /// cluster's ticks can advance the shared scheduler and issue this
    /// cluster's read between two of its own [`MemorySystem::tick`]s, at
    /// which point the read is neither queued (invisible to the
    /// completion bound) nor resolved (its ticket still reads as
    /// in-DRAM). Without the term the skip target can overshoot the
    /// fill's poll cycle and drop core work.
    ///
    /// No fill can be polled before this time, so the cycle-skip fast
    /// path may jump up to this bound even across DRAM command issues,
    /// provided the skip replays the uncore's per-cycle
    /// [`MemorySystem::tick`] boundaries.
    pub fn next_fill_wake_ps(&self) -> Option<u64> {
        // Detached: the epoch horizon *is* the legality guarantee that no
        // fill becomes pollable before it, so it stands in for the real
        // bound and lets stalled clusters skip straight to their epoch end.
        if let Some(d) = &self.detached {
            return Some(d.horizon_ps);
        }
        let mut dram = self.dram.lock().unwrap();
        let queued = dram.next_read_completion_ps();
        let undrained = dram.next_undrained_completion_ps(self.dram_owner);
        let earliest = match (queued, undrained) {
            (Some(q), Some(u)) => Some(q.min(u)),
            (q, u) => q.or(u),
        };
        earliest.map(|d| d + self.xbar_return_ps)
    }

    /// Whether coherence invalidations are queued for the cluster to apply.
    pub fn has_pending_invalidations(&self) -> bool {
        self.llc.has_pending_invalidations()
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

    /// Switches the DRAM scheduler between the indexed implementation and
    /// the scan-everything reference oracle (differential testing; see
    /// [`DramSystem::set_reference_scheduler`]).
    pub fn set_reference_dram_scheduler(&mut self, reference: bool) {
        self.dram.lock().unwrap().set_reference_scheduler(reference);
    }

    /// Injects the harness-validation scheduler fault (see
    /// [`DramSystem::set_scheduler_mutation`]).
    #[doc(hidden)]
    pub fn set_dram_scheduler_mutation(&mut self, enabled: bool) {
        self.dram.lock().unwrap().set_scheduler_mutation(enabled);
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

    /// Prefetches issued so far.
    pub fn prefetches(&self) -> u64 {
        self.prefetches
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
