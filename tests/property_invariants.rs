//! Property-based tests over the workspace's core invariants.

use ntserver::power::{CoreActivity, CorePowerModel, DramPowerModel, DramTraffic};
use ntserver::sim::cache::{AccessOutcome, EvictedLine, SetAssocArray};
use ntserver::sim::config::{CacheConfig, DramTimingConfig, LlcConfig};
use ntserver::sim::dram::DramSystem;
use ntserver::sim::llc::{Invalidation, LlcAccess, LlcStats, SharedLlc, SharerMask};
use ntserver::tech::{
    BodyBias, CoreModel, Kelvin, MegaHertz, OperatingPoint, Technology, TechnologyKind, Volts,
};
use proptest::prelude::*;

proptest! {
    /// `vdd_min` really is the inverse of `fmax`: the returned voltage
    /// sustains the frequency, and (off the SRAM floor) 10 mV less does not.
    #[test]
    fn vdd_min_inverts_fmax(mhz in 50.0f64..2200.0) {
        let core = CoreModel::cortex_a57(Technology::preset(TechnologyKind::FdSoi28));
        let v = core.vdd_min(MegaHertz(mhz), BodyBias::ZERO).unwrap();
        let f_at_v = core.fmax(v, BodyBias::ZERO).unwrap();
        prop_assert!(f_at_v.0 >= mhz * 0.999);
        if v > core.vmin_functional() + Volts(0.01) {
            let f_below = core.fmax(v - Volts(0.01), BodyBias::ZERO).unwrap();
            prop_assert!(f_below.0 < mhz);
        }
    }

    /// More forward bias never slows the core at fixed voltage.
    #[test]
    fn fbb_is_monotone_in_speed(
        mv in 500u32..1300,
        bias_a in 0.0f64..3.0,
        bias_b in 0.0f64..3.0,
    ) {
        let core = CoreModel::cortex_a57(Technology::preset(TechnologyKind::FdSoi28));
        let v = Volts(f64::from(mv) / 1000.0);
        let (lo, hi) = if bias_a <= bias_b { (bias_a, bias_b) } else { (bias_b, bias_a) };
        let f_lo = core.fmax(v, BodyBias::forward(Volts(lo)).unwrap()).unwrap();
        let f_hi = core.fmax(v, BodyBias::forward(Volts(hi)).unwrap()).unwrap();
        prop_assert!(f_hi >= f_lo);
    }

    /// Core power is positive, finite and monotone in frequency for any
    /// legal operating condition (frequencies drawn within the die's
    /// temperature-dependent reach).
    #[test]
    fn core_power_is_physical(
        f_frac in 0.05f64..0.8,
        activity in 0.05f64..1.0,
        temp in 280.0f64..360.0,
    ) {
        let timing = CoreModel::cortex_a57(Technology::preset(TechnologyKind::FdSoi28))
            .with_temperature(Kelvin(temp));
        let fmax = timing.fmax_at_vmax(BodyBias::ZERO).unwrap();
        let model = CorePowerModel::cortex_a57(timing).unwrap();
        let act = CoreActivity::new(activity, 1.0);
        let mhz = fmax.0 * f_frac;
        let p1 = model.power_at(MegaHertz(mhz), BodyBias::ZERO, act).unwrap();
        prop_assert!(p1.0.is_finite() && p1.0 > 0.0);
        let p2 = model
            .power_at(MegaHertz(mhz * 1.2), BodyBias::ZERO, act)
            .unwrap();
        prop_assert!(p2 >= p1);
    }

    /// DRAM power decomposes exactly into background + dynamic, and
    /// dynamic power is linear in traffic.
    #[test]
    fn dram_power_decomposes(read in 0.0f64..50e9, write in 0.0f64..20e9) {
        let dram = DramPowerModel::paper_server();
        let t = DramTraffic::new(read, write);
        let p = dram.power(t);
        prop_assert!((p.0 - (dram.background_power().0 + dram.dynamic_power(t).0)).abs() < 1e-9);
        let t2 = DramTraffic::new(read * 2.0, write * 2.0);
        prop_assert!((dram.dynamic_power(t2).0 - 2.0 * dram.dynamic_power(t).0).abs() < 1e-9);
    }

    /// Cache arrays never exceed their capacity and a just-inserted line
    /// always probes present.
    #[test]
    fn cache_capacity_invariant(addrs in prop::collection::vec(0u64..1u64<<20, 1..300)) {
        let config = CacheConfig::new(8 * 1024, 4); // 32 sets x 4 ways
        let mut cache: SetAssocArray = SetAssocArray::new(config);
        for addr in addrs {
            let line = SetAssocArray::align(addr);
            let _ = cache.access(line, false);
            prop_assert!(cache.probe(line), "line just inserted must be present");
            prop_assert!(cache.resident_lines() <= 128);
        }
    }

    /// Evicted victims are real: a victim reported by an access was
    /// previously resident and is gone afterwards.
    #[test]
    fn eviction_reports_are_accurate(addrs in prop::collection::vec(0u64..1u64<<16, 1..200)) {
        let config = CacheConfig::new(2 * 1024, 2); // 16 sets x 2 ways
        let mut cache: SetAssocArray = SetAssocArray::new(config);
        for addr in addrs {
            let line = SetAssocArray::align(addr);
            if let AccessOutcome::Miss { victim: Some(v) } = cache.access(line, false) {
                prop_assert!(!cache.probe(v.line_addr), "victim must be gone");
                prop_assert_ne!(v.line_addr, line);
            }
        }
    }

    /// The split-array cache behaves exactly like a plain array-of-structs
    /// LRU model: same hits, victims (line and dirty flag), ways, probes,
    /// invalidations, occupancy and counters, for 1–16 ways and 1–64 sets.
    #[test]
    fn cache_matches_its_reference_model(
        ways in 1u32..17,
        set_bits in 0u32..7,
        ops in prop::collection::vec(0u64..u64::MAX, 1..400),
    ) {
        drive_against_model(1 << set_bits, ways, &ops);
    }

    /// The same comparison over runs long enough that every set's one-byte
    /// LRU clock passes 255 and renumbers its stamps at least once (most
    /// sets many times), at the widest supported associativity too.
    #[test]
    fn cache_matches_its_reference_model_across_renumbering(
        ways in 0usize..4,
        set_bits in 0u32..3,
        ops in prop::collection::vec(0u64..u64::MAX, 2000..6001),
    ) {
        let ways = [1, 2, 16, CacheConfig::MAX_WAYS][ways];
        let touches = drive_against_model(1 << set_bits, ways, &ops);
        prop_assert!(
            touches.iter().all(|&t| t > u64::from(u8::MAX)),
            "every set's clock must wrap: {touches:?}"
        );
    }

    /// The shared LLC, whose sharer directory packs
    /// `cores.next_power_of_two()` bits a line beside its tag array,
    /// behaves exactly like a model that keeps a full `SharerMask` per
    /// resident line: same hits, ready times, write-backs, ordered
    /// invalidations and counters under random reads, writes, L1
    /// write-backs and installs, for 1–64 sets, 1–16 ways and clusters of
    /// 1–32 cores.
    #[test]
    fn llc_directory_matches_its_reference_model(
        ways in 1u32..17,
        set_bits in 0u32..7,
        cores in 1u32..33,
        ops in prop::collection::vec(0u64..u64::MAX, 1..400),
    ) {
        for cores in [1, 3, 5, 6, 17, 32, cores] {
            drive_llc_against_model(1 << set_bits, ways, cores, &ops);
        }
    }

    /// Every DRAM read completes, after its arrival, with at least the
    /// row-hit minimum latency, and statistics balance.
    #[test]
    fn dram_requests_complete_with_legal_latency(
        addrs in prop::collection::vec(0u64..1u64<<28, 1..100),
        base in 0u64..1_000_000u64,
    ) {
        let cfg = DramTimingConfig::ddr4_1600_paper();
        let min_latency = cfg.burst_ps(); // data transfer alone
        let mut sys = DramSystem::new(cfg);
        let mut tickets = Vec::new();
        for (i, addr) in addrs.iter().enumerate() {
            let arrive = base + (i as u64) * 700;
            tickets.push((sys.read(addr & !63, arrive), arrive));
        }
        sys.tick(u64::MAX / 2);
        let done: std::collections::HashMap<_, _> =
            sys.drain_completed().into_iter().collect();
        for (t, arrive) in tickets {
            let d = done.get(&t).copied().expect("every read completes");
            prop_assert!(d >= arrive + min_latency);
        }
        prop_assert_eq!(sys.stats().reads, addrs.len() as u64);
        prop_assert_eq!(sys.pending(), 0);
    }

    /// Operating points round-trip through serde (the study serializes
    /// sweeps to JSON for EXPERIMENTS.md).
    #[test]
    fn operating_points_serialize(mhz in 100.0f64..2000.0) {
        let core = CoreModel::cortex_a57(Technology::preset(TechnologyKind::FdSoi28));
        let op = OperatingPoint::at(&core, MegaHertz(mhz), BodyBias::ZERO).unwrap();
        let json = serde_json::to_string(&op).unwrap();
        let back: OperatingPoint = serde_json::from_str(&json).unwrap();
        // Round-trips within text-float precision.
        prop_assert!((back.frequency.0 - op.frequency.0).abs() < 1e-9 * op.frequency.0);
        prop_assert!((back.vdd.0 - op.vdd.0).abs() < 1e-12);
        prop_assert_eq!(back.bias, op.bias);
    }
}

/// The number of lines the model tests draw from for a `sets` × `ways`
/// array: twice its capacity, so sets fill and evict, and two more.
fn line_pool(sets: u64, ways: u32) -> u64 {
    2 * sets * u64::from(ways) + 2
}

/// Line `index` of a pool of `pool` lines: the low lines, then a line
/// whose tag needs more than 16 bits but fewer than 32 in any array of up
/// to 64 sets, then the highest line in the address space, whose tag needs
/// more than 32 bits. So a run crosses each step of the tag width.
fn pool_line(index: u64, pool: u64) -> u64 {
    match pool - index {
        2 => 1 << 32,
        1 => !63,
        _ => index * 64,
    }
}

/// Drives a `sets` × `ways` [`SetAssocArray`] and a [`ModelCache`] with the
/// same reads, writes, invalidations and probes decoded from `ops`, and
/// asserts that every outcome matches. Returns the number of reads and
/// writes each set received.
fn drive_against_model(sets: u64, ways: u32, ops: &[u64]) -> Vec<u64> {
    let config = CacheConfig::new(sets * u64::from(ways) * 64, ways);
    let mut cache = SetAssocArray::new(config);
    let mut model = ModelCache::new(sets, ways as usize);
    let mut touches = vec![0; sets as usize];
    let pool = line_pool(sets, ways);
    for &op in ops {
        let line = pool_line((op >> 8) % pool, pool);
        match op % 8 {
            0..=5 => {
                touches[((line / 64) % sets) as usize] += 1;
                let write = op % 8 >= 4;
                assert_eq!(cache.access_way(line, write), model.access(line, write));
            }
            6 => assert_eq!(cache.invalidate(line), model.invalidate(line)),
            _ => assert_eq!(cache.probe(line), model.probe(line)),
        }
        assert_eq!(cache.probe(line), model.probe(line));
        assert_eq!(cache.resident_lines(), model.resident_lines());
        assert_eq!((cache.hits(), cache.misses()), (model.hits, model.misses));
    }
    touches
}

/// Drives a [`SharedLlc`] of `sets` × `ways` lines shared by `cores` cores
/// and a [`ModelLlc`] with the same reads, writes, L1 write-backs, installs
/// and invalidation drains decoded from `ops`, and asserts that every
/// outcome matches.
fn drive_llc_against_model(sets: u64, ways: u32, cores: u32, ops: &[u64]) {
    let cfg = LlcConfig {
        cache: CacheConfig::new(sets * u64::from(ways) * 64, ways),
        ..LlcConfig::paper_cluster()
    };
    let mut llc = SharedLlc::new(cfg, cores);
    let mut model = ModelLlc::new(cfg, sets, ways);
    let all_cores = SharerMask::MAX >> (SharerMask::BITS - cores);
    let pool = line_pool(sets, ways);
    let mut now = 0;
    for &op in ops {
        let line = pool_line((op >> 8) % pool, pool);
        let core = ((op >> 40) % u64::from(cores)) as u32;
        now += (op >> 48) % 3_000;
        match op % 8 {
            0..=3 => {
                let write = op % 8 >= 2;
                let got = llc.access(line, write, core, now);
                assert_eq!(got, model.access(line, write, core, now));
            }
            4 | 5 => assert_eq!(
                llc.writeback_from_l1(line, now),
                model.writeback_from_l1(line, now)
            ),
            6 => {
                let sharers = (op >> 16) as SharerMask & all_cores;
                llc.install(line, sharers);
                model.install(line, sharers);
            }
            _ => assert_eq!(
                llc.drain_invalidations(),
                std::mem::take(&mut model.invalidations)
            ),
        }
        assert_eq!(llc.stats(), model.stats);
    }
    assert_eq!(llc.drain_invalidations(), model.invalidations);
}

/// One way of [`ModelCache`].
#[derive(Debug, Clone, Copy, Default)]
struct ModelWay {
    valid: bool,
    tag: u64,
    dirty: bool,
    stamp: u64,
}

/// The reference LRU cache: one struct per way, sets and tags by division,
/// victims by the first invalid way, else the first smallest stamp.
struct ModelCache {
    sets: u64,
    ways: usize,
    lines: Vec<ModelWay>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl ModelCache {
    fn new(sets: u64, ways: usize) -> Self {
        ModelCache {
            sets,
            ways,
            lines: vec![ModelWay::default(); sets as usize * ways],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The set's first way index, and the tag.
    fn locate(&self, line_addr: u64) -> (usize, u64) {
        let line = line_addr / 64;
        ((line % self.sets) as usize * self.ways, line / self.sets)
    }

    fn find(&self, line_addr: u64) -> Option<usize> {
        let (base, tag) = self.locate(line_addr);
        (base..base + self.ways).find(|&i| self.lines[i].valid && self.lines[i].tag == tag)
    }

    /// The outcome, and the way the line hit or was filled into.
    fn access(&mut self, line_addr: u64, write: bool) -> (AccessOutcome, usize) {
        self.tick += 1;
        if let Some(i) = self.find(line_addr) {
            self.hits += 1;
            let way = &mut self.lines[i];
            way.stamp = self.tick;
            way.dirty |= write;
            return (AccessOutcome::Hit, i);
        }
        self.misses += 1;
        let (base, tag) = self.locate(line_addr);
        let set = (base / self.ways) as u64;
        let victim = match (base..base + self.ways).find(|&i| !self.lines[i].valid) {
            Some(i) => i,
            None => {
                let mut lru = base;
                for i in base + 1..base + self.ways {
                    if self.lines[i].stamp < self.lines[lru].stamp {
                        lru = i;
                    }
                }
                lru
            }
        };
        let old = self.lines[victim];
        let evicted = old.valid.then_some(EvictedLine {
            line_addr: (old.tag * self.sets + set) * 64,
            dirty: old.dirty,
        });
        self.lines[victim] = ModelWay {
            valid: true,
            tag,
            dirty: write,
            stamp: self.tick,
        };
        (AccessOutcome::Miss { victim: evicted }, victim)
    }

    fn invalidate(&mut self, line_addr: u64) -> Option<bool> {
        let i = self.find(line_addr)?;
        self.lines[i].valid = false;
        Some(std::mem::take(&mut self.lines[i].dirty))
    }

    fn probe(&self, line_addr: u64) -> bool {
        self.find(line_addr).is_some()
    }

    fn resident_lines(&self) -> usize {
        self.lines.iter().filter(|w| w.valid).count()
    }
}

/// The reference shared LLC: a [`ModelCache`] for presence and victims,
/// the same bank timing, and a full [`SharerMask`] per resident line, kept
/// by line address.
struct ModelLlc {
    cfg: LlcConfig,
    cache: ModelCache,
    sharers: std::collections::HashMap<u64, SharerMask>,
    bank_free_ps: Vec<u64>,
    stats: LlcStats,
    invalidations: Vec<Invalidation>,
}

impl ModelLlc {
    fn new(cfg: LlcConfig, sets: u64, ways: u32) -> Self {
        ModelLlc {
            cfg,
            cache: ModelCache::new(sets, ways as usize),
            sharers: std::collections::HashMap::new(),
            bank_free_ps: vec![0; cfg.banks as usize],
            stats: LlcStats::default(),
            invalidations: Vec::new(),
        }
    }

    /// Serves `line_addr` at its bank; returns when the bank is done.
    fn occupy_bank(&mut self, line_addr: u64, arrive_ps: u64) -> u64 {
        let bank = ((line_addr / 64) % u64::from(self.cfg.banks)) as usize;
        let ready = arrive_ps.max(self.bank_free_ps[bank]) + self.cfg.bank_service_ps;
        self.bank_free_ps[bank] = ready;
        ready
    }

    fn invalidate(&mut self, line_addr: u64, cores: SharerMask) {
        self.stats.invalidations += u64::from(cores.count_ones());
        self.invalidations.push(Invalidation { line_addr, cores });
    }

    /// Looks `line_addr` up in the cache, allocating it on a miss and
    /// recalling a victim from its sharers. Returns whether it hit and the
    /// victim's address if it needs a write-back.
    fn fill(&mut self, line_addr: u64, write: bool) -> (bool, Option<u64>) {
        let AccessOutcome::Miss { victim } = self.cache.access(line_addr, write).0 else {
            return (true, None);
        };
        let Some(v) = victim else {
            return (false, None);
        };
        let sharers = self
            .sharers
            .remove(&v.line_addr)
            .expect("a resident line has a directory entry");
        if sharers != 0 {
            self.invalidate(v.line_addr, sharers);
        }
        if v.dirty {
            self.stats.writebacks += 1;
        }
        (false, v.dirty.then_some(v.line_addr))
    }

    fn access(&mut self, line_addr: u64, write: bool, core: u32, arrive_ps: u64) -> LlcAccess {
        let mut ready_ps = self.occupy_bank(line_addr, arrive_ps);
        let me: SharerMask = 1 << core;
        let (hit, writeback) = self.fill(line_addr, write);
        if hit {
            self.stats.hits += 1;
            let sharers = self.sharers[&line_addr];
            let others = sharers & !me;
            if write && others != 0 {
                self.invalidate(line_addr, others);
                ready_ps += self.cfg.invalidate_ps;
            }
            self.sharers
                .insert(line_addr, if write { me } else { sharers | me });
        } else {
            self.stats.misses += 1;
            self.sharers.insert(line_addr, me);
        }
        LlcAccess {
            hit,
            ready_ps,
            writeback,
        }
    }

    fn writeback_from_l1(&mut self, line_addr: u64, arrive_ps: u64) -> Option<u64> {
        self.occupy_bank(line_addr, arrive_ps);
        let (hit, writeback) = self.fill(line_addr, true);
        if !hit {
            self.sharers.insert(line_addr, 0);
        }
        writeback
    }

    fn install(&mut self, line_addr: u64, sharers: SharerMask) {
        self.fill(line_addr, false);
        self.sharers.insert(line_addr, sharers);
        self.stats = LlcStats::default();
        self.invalidations.clear();
    }
}
