//! Shared, banked, inclusive last-level cache with sharer tracking.
//!
//! The paper's cluster hosts a unified 4 MB 16-way LLC with 4 banks behind a
//! cache-coherent crossbar. This model provides:
//!
//! * address-interleaved banks with per-bank service occupancy (bank
//!   conflicts queue);
//! * an inclusive directory: each line carries a bitmask of cores holding
//!   it in their L1s, so a write hitting a shared line generates
//!   invalidations (MESI-style ownership transfer) and an LLC eviction
//!   recalls the line from every sharer's L1. The masks are packed at
//!   `cores.next_power_of_two()` bits a line, beside the tag array;
//! * hit/miss/writeback statistics feeding the power models.

use crate::cache::{AccessOutcome, EvictedLine, PackedBits, SetAssocArray};
use crate::config::LlcConfig;
use serde::{Deserialize, Serialize};

/// Bitmask of cores sharing a line (bit per core, up to
/// [`crate::config::SimConfig::MAX_CORES`] cores per cluster).
///
/// Widened from `u8`: `SimConfig.cores` is a `u32`, and `1 << core` on a
/// `u8` mask silently wrapped (release) or panicked (debug) for clusters
/// of eight cores or more.
pub type SharerMask = u32;

/// Statistics of the shared LLC.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LlcStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed (and allocated).
    pub misses: u64,
    /// Dirty victims written back toward DRAM.
    pub writebacks: u64,
    /// Coherence invalidations sent to L1s.
    pub invalidations: u64,
}

impl LlcStats {
    /// Total lookups.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio over lookups.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }

    /// Counter deltas accumulated since `before` was snapshotted.
    pub fn delta_since(&self, before: &LlcStats) -> LlcStats {
        LlcStats {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            writebacks: self.writebacks - before.writebacks,
            invalidations: self.invalidations - before.invalidations,
        }
    }
}

/// An L1 invalidation the cluster must apply (inclusive-victim recall or
/// ownership transfer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Invalidation {
    /// Line to drop from L1s.
    pub line_addr: u64,
    /// Cores that must drop it.
    pub cores: SharerMask,
}

/// Result of an LLC lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcAccess {
    /// Whether the line was present.
    pub hit: bool,
    /// Time the bank finishes serving this access (data available).
    pub ready_ps: u64,
    /// Dirty victim to write back to DRAM, if the allocation displaced one.
    pub writeback: Option<u64>,
}

/// The shared LLC.
#[derive(Debug)]
pub struct SharedLlc {
    cfg: LlcConfig,
    array: SetAssocArray,
    /// The sharer directory: one mask per way of `array`, at the same
    /// index, `cores.next_power_of_two()` bits wide. A mask names only the
    /// cluster's cores, so the width holds it exactly.
    sharers: PackedBits,
    /// The cluster's core count.
    cores: u32,
    bank_free_ps: Vec<u64>,
    stats: LlcStats,
    pending_invalidations: Vec<Invalidation>,
}

impl SharedLlc {
    /// Builds an empty LLC shared by a cluster of `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is outside `1..=`[`crate::config::ClusterConfig::MAX_CORES`]
    /// (the simulator's configuration checks reject such clusters first),
    /// or on an invalid cache geometry (see [`SetAssocArray::new`]).
    pub fn new(cfg: LlcConfig, cores: u32) -> Self {
        assert!(
            (1..=SharerMask::BITS).contains(&cores),
            "an LLC is shared by 1..={} cores, got {cores}",
            SharerMask::BITS
        );
        let lines = (cfg.cache.sets() * u64::from(cfg.cache.ways)) as usize;
        SharedLlc {
            array: SetAssocArray::new(cfg.cache),
            sharers: PackedBits::new(lines, cores.next_power_of_two()),
            cores,
            bank_free_ps: vec![0; cfg.banks as usize],
            cfg,
            stats: LlcStats::default(),
            pending_invalidations: Vec::new(),
        }
    }

    /// The bank an address maps to.
    pub fn bank_of(&self, line_addr: u64) -> u32 {
        ((line_addr / crate::LINE_BYTES) % u64::from(self.cfg.banks)) as u32
    }

    /// The sharers recorded at way `way`.
    fn sharers_at(&self, way: usize) -> SharerMask {
        self.sharers.get(way) as SharerMask
    }

    /// Queues invalidations of `line_addr` in the L1s of `cores`.
    fn invalidate_sharers(&mut self, line_addr: u64, cores: SharerMask) {
        self.stats.invalidations += u64::from(cores.count_ones());
        self.pending_invalidations
            .push(Invalidation { line_addr, cores });
    }

    /// Evicts the line a fill displaced from `way`: recalls it from its
    /// sharers' L1s (inclusion) and returns its address if it needs a
    /// write-back. Reads the victim's sharers before the fill overwrites
    /// them.
    fn evict(&mut self, victim: Option<EvictedLine>, way: usize) -> Option<u64> {
        let v = victim?;
        let sharers = self.sharers_at(way);
        if sharers != 0 {
            self.invalidate_sharers(v.line_addr, sharers);
        }
        v.dirty.then(|| {
            self.stats.writebacks += 1;
            v.line_addr
        })
    }

    /// Looks up `line_addr` for `core` at `arrive_ps`.
    ///
    /// `write` requests ownership: other sharers are invalidated (the
    /// invalidations are queued for the cluster to apply and the access
    /// pays the coherence round-trip).
    ///
    /// # Panics
    ///
    /// Panics if `core` is not one of the cluster's cores.
    pub fn access(&mut self, line_addr: u64, write: bool, core: u32, arrive_ps: u64) -> LlcAccess {
        assert!(
            core < self.cores,
            "core {core} is outside this {}-core cluster",
            self.cores
        );
        let bank = self.bank_of(line_addr) as usize;
        let start = arrive_ps.max(self.bank_free_ps[bank]);
        let mut ready = start + self.cfg.bank_service_ps;
        self.bank_free_ps[bank] = ready;

        let me: SharerMask = 1 << core;
        let (outcome, way) = self.array.access_way(line_addr, write);
        let mut writeback = None;
        let sharers = match outcome {
            AccessOutcome::Hit => {
                self.stats.hits += 1;
                let sharers = self.sharers_at(way);
                if write {
                    let others = sharers & !me;
                    if others != 0 {
                        self.invalidate_sharers(line_addr, others);
                        ready += self.cfg.invalidate_ps;
                    }
                    me
                } else {
                    sharers | me
                }
            }
            AccessOutcome::Miss { victim } => {
                self.stats.misses += 1;
                writeback = self.evict(victim, way);
                me
            }
        };
        self.sharers.set(way, u64::from(sharers));

        LlcAccess {
            hit: outcome == AccessOutcome::Hit,
            ready_ps: ready,
            writeback,
        }
    }

    /// Records a write-back from an L1 (marks the line dirty; allocates on
    /// the rare case the line was already evicted). Occupies the bank.
    pub fn writeback_from_l1(&mut self, line_addr: u64, arrive_ps: u64) -> Option<u64> {
        let bank = self.bank_of(line_addr) as usize;
        let start = arrive_ps.max(self.bank_free_ps[bank]);
        self.bank_free_ps[bank] = start + self.cfg.bank_service_ps;
        match self.array.access_way(line_addr, true) {
            (AccessOutcome::Hit, _) => None,
            (AccessOutcome::Miss { victim }, way) => {
                let writeback = self.evict(victim, way);
                self.sharers.set(way, 0);
                writeback
            }
        }
    }

    /// Installs a line without timing or statistics — checkpoint-style
    /// cache warming (the paper launches simulations from checkpoints with
    /// warmed caches).
    ///
    /// # Panics
    ///
    /// Panics if `sharers` names a core the cluster does not have.
    pub fn install(&mut self, line_addr: u64, sharers: SharerMask) {
        let all_cores = SharerMask::MAX >> (SharerMask::BITS - self.cores);
        assert!(
            sharers & !all_cores == 0,
            "sharer mask {sharers:#b} names a core outside this {}-core cluster",
            self.cores
        );
        let (_, way) = self.array.access_way(line_addr, false);
        self.sharers.set(way, u64::from(sharers));
        // Warming must not perturb measurements or pending work.
        self.stats = LlcStats::default();
        self.pending_invalidations.clear();
    }

    /// Drains invalidations the cluster must apply to L1s.
    pub fn drain_invalidations(&mut self) -> Vec<Invalidation> {
        std::mem::take(&mut self.pending_invalidations)
    }

    /// Drains invalidations into a caller-owned buffer, keeping both
    /// allocations alive — the simulator hot loop calls this every cycle
    /// and must not allocate when nothing is pending.
    pub fn drain_invalidations_into(&mut self, buf: &mut Vec<Invalidation>) {
        buf.append(&mut self.pending_invalidations);
    }

    /// Statistics so far.
    pub fn stats(&self) -> LlcStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn llc() -> SharedLlc {
        SharedLlc::new(LlcConfig::paper_cluster(), 4)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = llc();
        let a = c.access(0x1000, false, 0, 0);
        assert!(!a.hit);
        let b = c.access(0x1000, false, 0, a.ready_ps);
        assert!(b.hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn bank_conflicts_serialize() {
        let mut c = llc();
        // Same bank: line stride = banks * 64.
        let a = c.access(0, false, 0, 0);
        let b = c.access(4 * 64, false, 1, 0);
        assert_eq!(c.bank_of(0), c.bank_of(4 * 64));
        assert!(b.ready_ps >= a.ready_ps + 2_000);
        // Different banks proceed in parallel.
        let d = c.access(64, false, 2, 0);
        assert_eq!(d.ready_ps, 2_000);
    }

    #[test]
    fn write_to_shared_line_invalidates_other_sharers() {
        let mut c = llc();
        c.access(0x40, false, 0, 0);
        c.access(0x40, false, 1, 0);
        c.access(0x40, false, 2, 0);
        let w = c.access(0x40, true, 0, 10_000);
        assert!(w.hit);
        let inv = c.drain_invalidations();
        assert_eq!(inv.len(), 1);
        assert_eq!(inv[0].line_addr, 0x40);
        assert_eq!(inv[0].cores, 0b110, "cores 1 and 2 lose the line");
        assert_eq!(c.stats().invalidations, 2);
        // The write paid the coherence round trip.
        assert!(w.ready_ps >= 10_000 + 2_000 + 4_000);
    }

    #[test]
    fn write_by_sole_sharer_is_silent() {
        let mut c = llc();
        c.access(0x40, false, 0, 0);
        let w = c.access(0x40, true, 0, 10_000);
        assert!(w.hit);
        assert!(c.drain_invalidations().is_empty());
    }

    #[test]
    fn dirty_eviction_requests_writeback_and_recall() {
        let mut c = llc();
        // Fill one set (16 ways) with writes, then one more to evict.
        // Set stride: sets=4096, banks interleave by line; same set needs
        // addr stride of sets*64 = 256 KiB.
        let stride = 4096 * 64;
        for i in 0..16 {
            c.access(i * stride, true, 0, 0);
        }
        let a = c.access(16 * stride, false, 1, 0);
        assert!(!a.hit);
        assert_eq!(a.writeback, Some(0), "LRU dirty victim written back");
        let inv = c.drain_invalidations();
        assert!(inv.iter().any(|i| i.line_addr == 0 && i.cores == 1));
    }

    #[test]
    fn l1_writeback_marks_dirty() {
        let mut c = llc();
        c.access(0x80, false, 0, 0);
        assert!(c.writeback_from_l1(0x80, 5_000).is_none());
        // Now evict it: it must come out dirty.
        let stride = 4096 * 64;
        let base = 0x80;
        for i in 1..=16 {
            c.access(base + i * stride, false, 0, 0);
        }
        assert!(c.stats().writebacks >= 1);
    }

    #[test]
    fn miss_rate() {
        let mut c = llc();
        c.access(0, false, 0, 0);
        c.access(0, false, 0, 0);
        c.access(64, false, 0, 0);
        assert!((c.stats().miss_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "names a core outside this 4-core cluster")]
    fn install_rejects_a_mask_naming_an_absent_core() {
        let mut c = llc();
        c.install(0x40, 0b1111);
        c.install(0x80, 0b1_0000);
    }

    #[test]
    #[should_panic(expected = "core 4 is outside this 4-core cluster")]
    fn access_rejects_a_core_outside_the_cluster() {
        llc().access(0x40, false, 4, 0);
    }
}
