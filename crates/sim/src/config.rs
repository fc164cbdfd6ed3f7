//! Simulator configuration, with presets matching the paper's Section IV.

use crate::bpred::PredictorKind;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Core microarchitecture parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Fetch/dispatch/issue/commit width.
    pub width: u32,
    /// Reorder-buffer (instruction window) entries.
    pub rob_entries: u32,
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// L1 load-to-use latency in core cycles.
    pub l1_latency: u32,
    /// Maximum outstanding L1-D misses (MSHRs).
    pub mshrs: u32,
    /// Branch redirect penalty in core cycles (front-end refill after a
    /// mispredicted branch resolves).
    pub branch_penalty: u32,
    /// Integer multiply / FP operation latency in cycles.
    pub long_op_latency: u32,
    /// Store-buffer entries (stores retire without blocking commit until
    /// the buffer fills).
    pub store_buffer: u32,
    /// Next-line prefetch degree on an L1-D miss (0 disables — the
    /// baseline; scale-out workloads' scattered accesses barely benefit,
    /// streaming ones do: see the prefetch ablation).
    pub prefetch_degree: u32,
    /// Learning branch predictor. `None` (the default) uses the workload
    /// profile's calibrated misprediction flags; `Some(kind)` replaces
    /// them with a real predictor over synthetic per-PC behaviour.
    pub branch_predictor: Option<PredictorKind>,
    /// In-order issue discipline: instructions issue strictly in program
    /// order and loads block issue until their data returns (no
    /// miss-under-miss). The `rob_entries` window then acts only as a
    /// fetch buffer — there is no reordering to exploit it.
    pub in_order: bool,
}

impl CoreConfig {
    /// The paper's Cortex-A57-class core: 3-way OoO, 128-entry window,
    /// 32 KB 2-way L1-I and L1-D.
    pub fn cortex_a57() -> Self {
        CoreConfig {
            width: 3,
            rob_entries: 128,
            l1i: CacheConfig::new(32 * 1024, 2),
            l1d: CacheConfig::new(32 * 1024, 2),
            l1_latency: 3,
            mshrs: 10,
            branch_penalty: 14,
            long_op_latency: 5,
            store_buffer: 16,
            prefetch_degree: 0,
            branch_predictor: None,
            in_order: false,
        }
    }

    /// A near-threshold "little" core in the style of Gautschi et al.'s
    /// in-order RISC-V design: 2-wide strictly in-order issue, blocking
    /// loads (a single MSHR), a shallow 8-entry fetch buffer instead of a
    /// reorder window, and halved 16 KB L1s. Cheap, slow, and the
    /// heterogeneous sweeps' trade against [`CoreConfig::cortex_a57`].
    pub fn little_inorder() -> Self {
        CoreConfig {
            width: 2,
            rob_entries: 8,
            l1i: CacheConfig::new(16 * 1024, 2),
            l1d: CacheConfig::new(16 * 1024, 2),
            l1_latency: 2,
            mshrs: 1,
            branch_penalty: 8,
            long_op_latency: 6,
            store_buffer: 4,
            prefetch_degree: 0,
            branch_predictor: None,
            in_order: true,
        }
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::cortex_a57()
    }
}

/// A set-associative cache's geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u32,
}

impl CacheConfig {
    /// Widest supported cache: a set's one-byte LRU clock must fit a
    /// renumbered full set plus one more touch (see
    /// [`crate::cache::SetAssocArray`]).
    pub const MAX_WAYS: u32 = 254;

    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics if the way count is outside `1..=`[`Self::MAX_WAYS`], the
    /// size is not a positive multiple of `ways * `[`crate::LINE_BYTES`]
    /// or the set count is not a power of two.
    pub fn new(size_bytes: u64, ways: u32) -> Self {
        assert!(
            (1..=Self::MAX_WAYS).contains(&ways),
            "cache must have 1..={} ways, got {ways}",
            Self::MAX_WAYS
        );
        assert!(size_bytes > 0, "degenerate cache geometry");
        let sets = size_bytes / (u64::from(ways) * crate::LINE_BYTES);
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "cache must have a power-of-two number of sets, got {sets}"
        );
        CacheConfig { size_bytes, ways }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (u64::from(self.ways) * crate::LINE_BYTES)
    }
}

/// Shared LLC parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LlcConfig {
    /// Geometry of the whole LLC.
    pub cache: CacheConfig,
    /// Number of independent banks (address-interleaved).
    pub banks: u32,
    /// Bank access (service) time in picoseconds.
    pub bank_service_ps: u64,
    /// Invalidation round-trip latency in picoseconds (coherence).
    pub invalidate_ps: u64,
}

impl LlcConfig {
    /// The paper's per-cluster LLC: 4 MB, 16-way, 4 banks; ≈2 ns bank
    /// access on the fixed uncore clock.
    pub fn paper_cluster() -> Self {
        LlcConfig {
            cache: CacheConfig::new(4 * 1024 * 1024, 16),
            banks: 4,
            bank_service_ps: 2_000,
            invalidate_ps: 4_000,
        }
    }
}

impl Default for LlcConfig {
    fn default() -> Self {
        Self::paper_cluster()
    }
}

/// Crossbar parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct XbarConfig {
    /// One-way traversal latency in picoseconds.
    pub traversal_ps: u64,
    /// Port occupancy per 64-byte transfer in picoseconds (serialization).
    pub port_occupancy_ps: u64,
}

impl XbarConfig {
    /// The paper's cluster crossbar on the fixed uncore clock: ≈1 ns
    /// traversal, ≈0.5 ns port occupancy per line.
    pub fn paper_cluster() -> Self {
        XbarConfig {
            traversal_ps: 1_000,
            port_occupancy_ps: 500,
        }
    }
}

impl Default for XbarConfig {
    fn default() -> Self {
        Self::paper_cluster()
    }
}

/// DDR4 timing parameters, in DRAM clock cycles (tCK).
///
/// Names follow the JEDEC spec; values default to a DDR4-1600 grade as
/// configured in the paper's DRAMSim2 setup.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramTimingConfig {
    /// DRAM clock period in picoseconds (DDR4-1600: 1250 ps, 800 MHz clock,
    /// 1600 MT/s).
    pub tck_ps: u64,
    /// CAS latency (READ to data).
    pub cl: u32,
    /// RAS-to-CAS delay (ACT to READ/WRITE).
    pub trcd: u32,
    /// Row precharge time.
    pub trp: u32,
    /// Minimum row-active time (ACT to PRE).
    pub tras: u32,
    /// Write recovery time (end of write data to PRE).
    pub twr: u32,
    /// CAS-to-CAS delay, same bank group.
    pub tccd: u32,
    /// ACT-to-ACT delay, different banks.
    pub trrd: u32,
    /// Four-activate window.
    pub tfaw: u32,
    /// Write latency (WRITE to data).
    pub cwl: u32,
    /// Burst length in beats (BL8 for DDR4).
    pub burst_beats: u32,
    /// Channels in the memory system.
    pub channels: u32,
    /// Ranks per channel.
    pub ranks: u32,
    /// Bank groups per rank.
    pub bank_groups: u32,
    /// Banks per bank group.
    pub banks_per_group: u32,
    /// Row-buffer (page) size in bytes per rank.
    pub row_bytes: u64,
}

impl DramTimingConfig {
    /// The paper's memory: 4 channels of DDR4-1600, 4 ranks per channel,
    /// Micron 4 Gbit parts (4 bank groups × 4 banks, 8 KB page per rank).
    pub fn ddr4_1600_paper() -> Self {
        DramTimingConfig {
            tck_ps: 1_250,
            cl: 11,
            trcd: 11,
            trp: 11,
            tras: 28,
            twr: 12,
            tccd: 5,
            trrd: 5,
            tfaw: 24,
            cwl: 9,
            burst_beats: 8,
            channels: 4,
            ranks: 4,
            bank_groups: 4,
            banks_per_group: 4,
            row_bytes: 8 * 1024,
        }
    }

    /// Burst transfer time on the data bus in picoseconds: BL8 moves in
    /// `burst_beats / 2` clocks (double data rate).
    pub fn burst_ps(&self) -> u64 {
        u64::from(self.burst_beats / 2) * self.tck_ps
    }

    /// Total banks per channel.
    pub fn banks_per_channel(&self) -> u32 {
        self.ranks * self.bank_groups * self.banks_per_group
    }

    /// Idle (open-row hit) read latency in picoseconds: CL + burst.
    pub fn row_hit_read_ps(&self) -> u64 {
        u64::from(self.cl) * self.tck_ps + self.burst_ps()
    }

    /// Largest channel count the address decode supports.
    pub const MAX_CHANNELS: u32 = 4096;
    /// Largest per-channel bank count (ranks × groups × banks/group).
    pub const MAX_BANKS_PER_CHANNEL: u32 = 65_536;

    /// Checks the geometry invariants the address decode and the channel
    /// state arrays rely on.
    ///
    /// Without these checks a zero channel/rank/bank-group count divides
    /// by zero inside [`crate::dram::DramSystem::map`], a sub-line
    /// `row_bytes` makes `lines_per_row` zero (another division by zero),
    /// and an oversized geometry overflows the `u32` bank arithmetic
    /// silently in release builds.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), DramConfigError> {
        if self.channels == 0 || self.channels > Self::MAX_CHANNELS {
            return Err(DramConfigError::Channels {
                channels: self.channels,
            });
        }
        if self.ranks == 0 || self.bank_groups == 0 || self.banks_per_group == 0 {
            return Err(DramConfigError::ZeroBanks {
                ranks: self.ranks,
                bank_groups: self.bank_groups,
                banks_per_group: self.banks_per_group,
            });
        }
        let banks = self
            .ranks
            .checked_mul(self.bank_groups)
            .and_then(|b| b.checked_mul(self.banks_per_group));
        match banks {
            Some(b) if b <= Self::MAX_BANKS_PER_CHANNEL => {}
            _ => {
                return Err(DramConfigError::TooManyBanks {
                    ranks: self.ranks,
                    bank_groups: self.bank_groups,
                    banks_per_group: self.banks_per_group,
                })
            }
        }
        if self.row_bytes < crate::LINE_BYTES || self.row_bytes % crate::LINE_BYTES != 0 {
            return Err(DramConfigError::RowBytes {
                row_bytes: self.row_bytes,
            });
        }
        if self.tck_ps == 0 {
            return Err(DramConfigError::ZeroClock);
        }
        if self.burst_beats < 2 || self.burst_beats % 2 != 0 {
            return Err(DramConfigError::BurstBeats {
                burst_beats: self.burst_beats,
            });
        }
        Ok(())
    }
}

/// A structurally invalid [`DramTimingConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DramConfigError {
    /// Channel count outside `1..=`[`DramTimingConfig::MAX_CHANNELS`].
    Channels {
        /// The rejected channel count.
        channels: u32,
    },
    /// A zero rank, bank-group or banks-per-group count.
    ZeroBanks {
        /// Ranks per channel.
        ranks: u32,
        /// Bank groups per rank.
        bank_groups: u32,
        /// Banks per bank group.
        banks_per_group: u32,
    },
    /// `ranks × bank_groups × banks_per_group` overflows or exceeds
    /// [`DramTimingConfig::MAX_BANKS_PER_CHANNEL`].
    TooManyBanks {
        /// Ranks per channel.
        ranks: u32,
        /// Bank groups per rank.
        bank_groups: u32,
        /// Banks per bank group.
        banks_per_group: u32,
    },
    /// Row size below one cache line or not line-aligned.
    RowBytes {
        /// The rejected row size.
        row_bytes: u64,
    },
    /// A zero DRAM clock period.
    ZeroClock,
    /// Burst length zero or odd (bursts move `beats / 2` DDR clocks).
    BurstBeats {
        /// The rejected burst length.
        burst_beats: u32,
    },
}

impl fmt::Display for DramConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DramConfigError::Channels { channels } => write!(
                f,
                "DRAM channels must be 1..={}, got {channels}",
                DramTimingConfig::MAX_CHANNELS
            ),
            DramConfigError::ZeroBanks {
                ranks,
                bank_groups,
                banks_per_group,
            } => write!(
                f,
                "DRAM geometry needs at least one rank, bank group and bank \
                 (got {ranks} ranks x {bank_groups} groups x {banks_per_group} banks)"
            ),
            DramConfigError::TooManyBanks {
                ranks,
                bank_groups,
                banks_per_group,
            } => write!(
                f,
                "{ranks} ranks x {bank_groups} groups x {banks_per_group} banks \
                 exceeds {} banks per channel",
                DramTimingConfig::MAX_BANKS_PER_CHANNEL
            ),
            DramConfigError::RowBytes { row_bytes } => write!(
                f,
                "DRAM row size must be a positive multiple of {} bytes, got {row_bytes}",
                crate::LINE_BYTES
            ),
            DramConfigError::ZeroClock => write!(f, "DRAM clock period must be positive"),
            DramConfigError::BurstBeats { burst_beats } => write!(
                f,
                "DRAM burst length must be a positive even beat count, got {burst_beats}"
            ),
        }
    }
}

impl std::error::Error for DramConfigError {}

impl Default for DramTimingConfig {
    fn default() -> Self {
        Self::ddr4_1600_paper()
    }
}

/// Per-cluster simulator configuration: everything about one cluster
/// *except* the chip-shared DRAM and seed.
///
/// Clusters are independent clock domains — each carries its own
/// `core_mhz` — and may use different core classes
/// ([`CoreConfig::cortex_a57`] vs [`CoreConfig::little_inorder`]), LLC
/// geometries and crossbars. A [`ChipConfig`] is a vector of these over
/// one shared memory system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of cores in the cluster.
    pub cores: u32,
    /// Core clock frequency in MHz (the swept knob).
    pub core_mhz: f64,
    /// Core microarchitecture.
    pub core: CoreConfig,
    /// Shared LLC.
    pub llc: LlcConfig,
    /// Crossbar.
    pub xbar: XbarConfig,
}

impl ClusterConfig {
    /// Largest supported cluster: one bit per core in
    /// [`crate::llc::SharerMask`].
    pub const MAX_CORES: u32 = 32;

    /// The paper's cluster: 4 Cortex-A57 cores, 4 MB LLC, crossbar.
    pub fn paper_cluster(core_mhz: f64) -> Self {
        ClusterConfig {
            cores: 4,
            core_mhz,
            core: CoreConfig::cortex_a57(),
            llc: LlcConfig::paper_cluster(),
            xbar: XbarConfig::paper_cluster(),
        }
    }

    /// A little-core cluster: 4 in-order cores (see
    /// [`CoreConfig::little_inorder`]) behind the same LLC/crossbar
    /// organization as the paper's cluster.
    pub fn little_cluster(core_mhz: f64) -> Self {
        ClusterConfig {
            core: CoreConfig::little_inorder(),
            ..Self::paper_cluster(core_mhz)
        }
    }

    /// Checks this cluster's structural invariants, reporting violations
    /// against cluster index `cluster` (for chip-level error messages).
    ///
    /// # Errors
    ///
    /// Returns [`SimConfigError::Cores`] when the core count is zero or
    /// exceeds [`Self::MAX_CORES`] (the sharer-mask width — `1 << core`
    /// on the directory mask would otherwise overflow silently in release
    /// builds), [`SimConfigError::Frequency`] when `core_mhz` is not
    /// positive and finite, [`SimConfigError::ZeroCoreParameter`] for a
    /// zero width, ROB size or MSHR count, [`SimConfigError::CacheWays`] /
    /// [`SimConfigError::CacheSets`] for an L1 or LLC geometry with a way
    /// count outside `1..=`[`CacheConfig::MAX_WAYS`] or a set count that is
    /// not a power of two, and [`SimConfigError::LlcBanks`] for an LLC with
    /// no banks.
    pub fn validate_at(&self, cluster: usize) -> Result<(), SimConfigError> {
        if self.cores < 1 || self.cores > Self::MAX_CORES {
            return Err(SimConfigError::Cores {
                cluster,
                cores: self.cores,
            });
        }
        if !self.core_mhz.is_finite() || self.core_mhz <= 0.0 {
            return Err(SimConfigError::Frequency {
                cluster,
                core_mhz: self.core_mhz,
            });
        }
        let core = &self.core;
        for (field, value) in [
            ("core.width", core.width),
            ("core.rob_entries", core.rob_entries),
            ("core.mshrs", core.mshrs),
        ] {
            if value == 0 {
                return Err(SimConfigError::ZeroCoreParameter { cluster, field });
            }
        }
        for (cache, geometry) in [
            ("core.l1i", core.l1i),
            ("core.l1d", core.l1d),
            ("llc.cache", self.llc.cache),
        ] {
            if !(1..=CacheConfig::MAX_WAYS).contains(&geometry.ways) {
                return Err(SimConfigError::CacheWays {
                    cluster,
                    cache,
                    ways: geometry.ways,
                });
            }
            let sets = geometry.sets();
            if !sets.is_power_of_two() {
                return Err(SimConfigError::CacheSets {
                    cluster,
                    cache,
                    sets,
                });
            }
        }
        if self.llc.banks == 0 {
            return Err(SimConfigError::LlcBanks { cluster });
        }
        Ok(())
    }

    /// Core clock period in picoseconds.
    pub fn core_period_ps(&self) -> u64 {
        crate::period_ps(self.core_mhz)
    }
}

/// A whole chip: per-instance cluster configurations over one shared
/// DRAM. The homogeneous special case is [`ChipConfig::homogeneous`] /
/// [`SimConfig`]; heterogeneous chips mix core classes and frequencies
/// freely — each cluster is its own clock domain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChipConfig {
    /// Per-cluster configurations (one entry per cluster instance).
    pub clusters: Vec<ClusterConfig>,
    /// Chip-shared DRAM timing.
    pub dram: DramTimingConfig,
    /// RNG seed for any stochastic stream driving the simulation.
    pub seed: u64,
}

impl ChipConfig {
    /// A chip of `clusters` identical copies of `config`'s cluster — the
    /// pre-refactor chip-wide-config behaviour.
    pub fn homogeneous(config: &SimConfig, clusters: u32) -> Self {
        ChipConfig {
            clusters: vec![config.cluster(); clusters as usize],
            dram: config.dram,
            seed: config.seed,
        }
    }

    /// Checks all structural invariants the simulators rely on.
    ///
    /// # Errors
    ///
    /// Returns [`SimConfigError::NoClusters`] for an empty cluster
    /// vector, the first per-cluster violation with its cluster index
    /// (see [`ClusterConfig::validate_at`]), or the DRAM geometry error.
    pub fn validate(&self) -> Result<(), SimConfigError> {
        if self.clusters.is_empty() {
            return Err(SimConfigError::NoClusters);
        }
        for (i, cluster) in self.clusters.iter().enumerate() {
            cluster.validate_at(i)?;
        }
        self.dram.validate().map_err(SimConfigError::Dram)
    }

    /// Whether every cluster has the same configuration (one clock
    /// domain): the fast homogeneous engine invariants apply.
    pub fn is_homogeneous(&self) -> bool {
        self.clusters.windows(2).all(|w| w[0] == w[1])
    }
}

/// Top-level single-cluster simulator configuration.
///
/// Kept as the 1-cluster special case of the per-instance configuration
/// plane: [`SimConfig::cluster`] extracts the [`ClusterConfig`] and
/// [`ChipConfig::homogeneous`] replicates it chip-wide.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of cores in the cluster.
    pub cores: u32,
    /// Core clock frequency in MHz (the swept knob).
    pub core_mhz: f64,
    /// Core microarchitecture.
    pub core: CoreConfig,
    /// Shared LLC.
    pub llc: LlcConfig,
    /// Crossbar.
    pub xbar: XbarConfig,
    /// DRAM timing.
    pub dram: DramTimingConfig,
    /// RNG seed for any stochastic stream driving the simulation.
    pub seed: u64,
}

impl SimConfig {
    /// Largest supported cluster: one bit per core in
    /// [`crate::llc::SharerMask`].
    pub const MAX_CORES: u32 = ClusterConfig::MAX_CORES;

    /// The paper's simulated unit: a 4-core Cortex-A57 cluster with a 4 MB
    /// LLC over a crossbar and 4 channels of DDR4-1600, at the given core
    /// frequency.
    ///
    /// An out-of-range frequency is *not* rejected here; it is reported
    /// by [`SimConfig::validate`] (which every simulator constructor
    /// runs) as [`SimConfigError::Frequency`].
    pub fn paper_cluster(core_mhz: f64) -> Self {
        SimConfig {
            cores: 4,
            core_mhz,
            core: CoreConfig::cortex_a57(),
            llc: LlcConfig::paper_cluster(),
            xbar: XbarConfig::paper_cluster(),
            dram: DramTimingConfig::ddr4_1600_paper(),
            seed: 0x5EED,
        }
    }

    /// Overrides the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The per-cluster part of this configuration (everything but the
    /// chip-shared DRAM and seed).
    pub fn cluster(&self) -> ClusterConfig {
        ClusterConfig {
            cores: self.cores,
            core_mhz: self.core_mhz,
            core: self.core,
            llc: self.llc,
            xbar: self.xbar,
        }
    }

    /// Rebuilds a single-cluster configuration from its parts.
    pub fn from_cluster(cluster: ClusterConfig, dram: DramTimingConfig, seed: u64) -> Self {
        SimConfig {
            cores: cluster.cores,
            core_mhz: cluster.core_mhz,
            core: cluster.core,
            llc: cluster.llc,
            xbar: cluster.xbar,
            dram,
            seed,
        }
    }

    /// Checks structural invariants the simulators rely on.
    ///
    /// # Errors
    ///
    /// Returns [`SimConfigError::Cores`] / [`SimConfigError::Frequency`]
    /// for per-cluster violations (cluster index 0 — this is the
    /// 1-cluster special case) and [`SimConfigError::Dram`] for an
    /// invalid DRAM geometry (see [`DramTimingConfig::validate`]).
    pub fn validate(&self) -> Result<(), SimConfigError> {
        self.cluster().validate_at(0)?;
        self.dram.validate().map_err(SimConfigError::Dram)
    }

    /// Core clock period in picoseconds.
    pub fn core_period_ps(&self) -> u64 {
        crate::period_ps(self.core_mhz)
    }
}

/// A structurally invalid [`SimConfig`] / [`ChipConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum SimConfigError {
    /// A chip with no clusters at all.
    NoClusters,
    /// A cluster's core count outside `1..=`[`ClusterConfig::MAX_CORES`].
    Cores {
        /// Index of the offending cluster.
        cluster: usize,
        /// The rejected core count.
        cores: u32,
    },
    /// A cluster's core frequency that is not positive and finite.
    Frequency {
        /// Index of the offending cluster.
        cluster: usize,
        /// The rejected frequency in MHz.
        core_mhz: f64,
    },
    /// A zero core width, ROB size or MSHR count: the core could never
    /// issue, hold or miss on anything.
    ZeroCoreParameter {
        /// Index of the offending cluster.
        cluster: usize,
        /// The zero field, e.g. `"core.width"`.
        field: &'static str,
    },
    /// A cache whose way count is outside `1..=`[`CacheConfig::MAX_WAYS`].
    CacheWays {
        /// Index of the offending cluster.
        cluster: usize,
        /// The cache, e.g. `"core.l1d"` or `"llc.cache"`.
        cache: &'static str,
        /// The rejected way count.
        ways: u32,
    },
    /// A cache whose set count (`size_bytes / (ways × line)`) is zero or
    /// not a power of two.
    CacheSets {
        /// Index of the offending cluster.
        cluster: usize,
        /// The cache, e.g. `"core.l1d"` or `"llc.cache"`.
        cache: &'static str,
        /// The rejected set count.
        sets: u64,
    },
    /// An LLC with zero banks.
    LlcBanks {
        /// Index of the offending cluster.
        cluster: usize,
    },
    /// Invalid chip-shared DRAM geometry.
    Dram(DramConfigError),
}

impl fmt::Display for SimConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimConfigError::NoClusters => write!(f, "chip must have at least one cluster"),
            SimConfigError::Cores { cluster, cores } => write!(
                f,
                "cluster {cluster}: must have 1..={} cores, got {cores}",
                ClusterConfig::MAX_CORES
            ),
            SimConfigError::Frequency { cluster, core_mhz } => write!(
                f,
                "cluster {cluster}: core frequency must be positive and finite, got {core_mhz}"
            ),
            SimConfigError::ZeroCoreParameter { cluster, field } => {
                write!(f, "cluster {cluster}: {field} must be at least 1")
            }
            SimConfigError::CacheWays {
                cluster,
                cache,
                ways,
            } => write!(
                f,
                "cluster {cluster}: {cache} must have 1..={} ways, got {ways}",
                CacheConfig::MAX_WAYS
            ),
            SimConfigError::CacheSets {
                cluster,
                cache,
                sets,
            } => write!(
                f,
                "cluster {cluster}: {cache} must have a power-of-two number of sets, got {sets}"
            ),
            SimConfigError::LlcBanks { cluster } => {
                write!(f, "cluster {cluster}: llc.banks must be at least 1")
            }
            SimConfigError::Dram(e) => write!(f, "invalid DRAM configuration: {e}"),
        }
    }
}

impl std::error::Error for SimConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimConfigError::Dram(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DramConfigError> for SimConfigError {
    fn from(e: DramConfigError) -> Self {
        SimConfigError::Dram(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cluster_matches_section_iv() {
        let c = SimConfig::paper_cluster(2000.0);
        assert_eq!(c.cores, 4);
        assert_eq!(c.core.width, 3);
        assert_eq!(c.core.rob_entries, 128);
        assert_eq!(c.core.l1d.size_bytes, 32 * 1024);
        assert_eq!(c.core.l1d.ways, 2);
        assert_eq!(c.llc.cache.size_bytes, 4 * 1024 * 1024);
        assert_eq!(c.llc.cache.ways, 16);
        assert_eq!(c.llc.banks, 4);
        assert_eq!(c.dram.channels, 4);
        assert_eq!(c.dram.ranks, 4);
    }

    #[test]
    fn cache_geometry() {
        let c = CacheConfig::new(32 * 1024, 2);
        assert_eq!(c.sets(), 256);
        let llc = CacheConfig::new(4 * 1024 * 1024, 16);
        assert_eq!(llc.sets(), 4096);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_sets_rejected() {
        let _ = CacheConfig::new(48 * 1024, 2);
    }

    #[test]
    fn ddr4_1600_derived_times() {
        let d = DramTimingConfig::ddr4_1600_paper();
        assert_eq!(d.burst_ps(), 5_000); // 4 clocks at 1.25 ns
        assert_eq!(d.row_hit_read_ps(), 11 * 1250 + 5000);
        assert_eq!(d.banks_per_channel(), 64);
    }

    #[test]
    fn validate_rejects_bad_frequency() {
        for bad in [-1.0, 0.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                SimConfig::paper_cluster(bad).validate(),
                Err(SimConfigError::Frequency { cluster: 0, .. })
            ));
        }
    }

    #[test]
    fn validate_accepts_supported_core_counts() {
        let mut c = SimConfig::paper_cluster(1000.0);
        for cores in [1, 4, 8, 16, SimConfig::MAX_CORES] {
            c.cores = cores;
            assert_eq!(c.validate(), Ok(()));
        }
    }

    #[test]
    fn validate_rejects_oversized_cluster() {
        let mut c = SimConfig::paper_cluster(1000.0);
        c.cores = SimConfig::MAX_CORES + 1;
        assert!(matches!(
            c.validate(),
            Err(SimConfigError::Cores { cluster: 0, cores }) if cores == SimConfig::MAX_CORES + 1
        ));
    }

    #[test]
    fn validate_rejects_empty_cluster() {
        let mut c = SimConfig::paper_cluster(1000.0);
        c.cores = 0;
        assert!(matches!(
            c.validate(),
            Err(SimConfigError::Cores {
                cluster: 0,
                cores: 0
            })
        ));
    }

    #[test]
    fn validate_rejects_zero_core_parameters() {
        let base = SimConfig::paper_cluster(1000.0);
        for field in ["core.width", "core.rob_entries", "core.mshrs"] {
            let mut c = base;
            match field {
                "core.width" => c.core.width = 0,
                "core.rob_entries" => c.core.rob_entries = 0,
                _ => c.core.mshrs = 0,
            }
            assert_eq!(
                c.validate(),
                Err(SimConfigError::ZeroCoreParameter { cluster: 0, field })
            );
        }
    }

    /// Sets the way count of the cache `geometry` picks to 0, one past
    /// [`CacheConfig::MAX_WAYS`] and `u32::MAX` (public fields bypass
    /// `CacheConfig::new`, and `CacheConfig::sets` divides by the way
    /// count), expecting a typed rejection naming `cache` and the range,
    /// then checks that the widest supported geometry validates.
    fn check_way_bounds(cache: &'static str, geometry: fn(&mut SimConfig) -> &mut CacheConfig) {
        for ways in [0, CacheConfig::MAX_WAYS + 1, u32::MAX] {
            let mut c = SimConfig::paper_cluster(1000.0);
            geometry(&mut c).ways = ways;
            let err = c.validate().unwrap_err();
            assert_eq!(
                err,
                SimConfigError::CacheWays {
                    cluster: 0,
                    cache,
                    ways
                }
            );
            let msg = err.to_string();
            assert!(
                msg.contains(cache)
                    && msg.contains("1..=254 ways")
                    && msg.contains(&ways.to_string()),
                "{msg}"
            );
        }
        let mut c = SimConfig::paper_cluster(1000.0);
        *geometry(&mut c) = CacheConfig::new(16 * 254 * 64, CacheConfig::MAX_WAYS);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validate_bounds_l1i_ways() {
        check_way_bounds("core.l1i", |c| &mut c.core.l1i);
    }

    #[test]
    fn validate_bounds_l1d_ways() {
        check_way_bounds("core.l1d", |c| &mut c.core.l1d);
    }

    #[test]
    fn validate_bounds_llc_ways() {
        check_way_bounds("llc.cache", |c| &mut c.llc.cache);
    }

    #[test]
    #[should_panic(expected = "1..=254 ways, got 255")]
    fn caches_wider_than_254_ways_are_rejected() {
        let _ = CacheConfig::new(255 * 64, 255);
    }

    #[test]
    fn validate_rejects_bad_set_counts() {
        let mut c = SimConfig::paper_cluster(1000.0);
        c.llc.cache.size_bytes = 48 * 1024;
        assert_eq!(
            c.validate(),
            Err(SimConfigError::CacheSets {
                cluster: 0,
                cache: "llc.cache",
                sets: 48
            })
        );
        let mut c = SimConfig::paper_cluster(1000.0);
        c.core.l1i.size_bytes = 64;
        assert_eq!(
            c.validate(),
            Err(SimConfigError::CacheSets {
                cluster: 0,
                cache: "core.l1i",
                sets: 0
            })
        );
    }

    #[test]
    fn validate_rejects_bankless_llc() {
        let big = SimConfig::paper_cluster(1000.0);
        let mut chip = ChipConfig::homogeneous(&big, 2);
        chip.clusters[1].llc.banks = 0;
        assert_eq!(
            chip.validate(),
            Err(SimConfigError::LlcBanks { cluster: 1 })
        );
        let msg = chip.validate().unwrap_err().to_string();
        assert!(
            msg.contains("cluster 1") && msg.contains("llc.banks"),
            "{msg}"
        );
    }

    #[test]
    fn little_core_is_narrow_in_order_and_blocking() {
        let little = CoreConfig::little_inorder();
        let big = CoreConfig::cortex_a57();
        assert!(little.in_order && !big.in_order);
        assert!(little.width < big.width);
        assert!(little.rob_entries < big.rob_entries);
        assert_eq!(little.mshrs, 1, "blocking loads: a single MSHR");
        assert!(little.l1d.size_bytes < big.l1d.size_bytes);
    }

    #[test]
    fn homogeneous_chip_replicates_the_cluster() {
        let c = SimConfig::paper_cluster(1500.0).with_seed(7);
        let chip = ChipConfig::homogeneous(&c, 3);
        assert_eq!(chip.clusters.len(), 3);
        assert!(chip.clusters.iter().all(|cl| *cl == c.cluster()));
        assert_eq!(chip.seed, 7);
        assert_eq!(chip.dram, c.dram);
        assert!(chip.is_homogeneous());
        assert_eq!(chip.validate(), Ok(()));
    }

    #[test]
    fn heterogeneous_chip_is_detected_and_validated_per_cluster() {
        let big = SimConfig::paper_cluster(1000.0);
        let mut chip = ChipConfig::homogeneous(&big, 2);
        chip.clusters.push(ClusterConfig::little_cluster(400.0));
        assert!(!chip.is_homogeneous());
        assert_eq!(chip.validate(), Ok(()));

        chip.clusters[2].cores = 0;
        assert!(matches!(
            chip.validate(),
            Err(SimConfigError::Cores {
                cluster: 2,
                cores: 0
            })
        ));
        chip.clusters[2].cores = 4;
        chip.clusters[1].core_mhz = f64::NAN;
        let msg = chip.validate().unwrap_err().to_string();
        assert!(msg.contains("cluster 1"), "message must index: {msg}");
    }

    #[test]
    fn empty_chip_rejected() {
        let chip = ChipConfig {
            clusters: Vec::new(),
            dram: DramTimingConfig::ddr4_1600_paper(),
            seed: 0,
        };
        assert_eq!(chip.validate(), Err(SimConfigError::NoClusters));
    }

    #[test]
    fn cluster_round_trips_through_parts() {
        let c = SimConfig::paper_cluster(800.0).with_seed(99);
        let back = SimConfig::from_cluster(c.cluster(), c.dram, c.seed);
        assert_eq!(back, c);
    }

    #[test]
    fn dram_validate_accepts_the_paper_geometry() {
        assert_eq!(DramTimingConfig::ddr4_1600_paper().validate(), Ok(()));
    }

    #[test]
    fn dram_validate_rejects_degenerate_geometries() {
        let base = DramTimingConfig::ddr4_1600_paper();

        let mut d = base;
        d.channels = 0;
        assert!(matches!(
            d.validate(),
            Err(DramConfigError::Channels { channels: 0 })
        ));

        let mut d = base;
        d.bank_groups = 0;
        assert!(matches!(
            d.validate(),
            Err(DramConfigError::ZeroBanks { .. })
        ));

        let mut d = base;
        d.ranks = 0;
        assert!(matches!(
            d.validate(),
            Err(DramConfigError::ZeroBanks { .. })
        ));

        // The bank product must not truncate through `u32` arithmetic.
        let mut d = base;
        d.ranks = 1 << 12;
        d.bank_groups = 1 << 12;
        d.banks_per_group = 1 << 12;
        assert!(matches!(
            d.validate(),
            Err(DramConfigError::TooManyBanks { .. })
        ));

        // A sub-line row would zero `lines_per_row` in the decode.
        let mut d = base;
        d.row_bytes = 32;
        assert!(matches!(
            d.validate(),
            Err(DramConfigError::RowBytes { row_bytes: 32 })
        ));

        let mut d = base;
        d.tck_ps = 0;
        assert_eq!(d.validate(), Err(DramConfigError::ZeroClock));

        let mut d = base;
        d.burst_beats = 3;
        assert!(matches!(
            d.validate(),
            Err(DramConfigError::BurstBeats { burst_beats: 3 })
        ));
    }

    #[test]
    fn sim_validate_rejects_zero_channel_dram() {
        let mut c = SimConfig::paper_cluster(1000.0);
        c.dram.channels = 0;
        assert!(matches!(
            c.validate(),
            Err(SimConfigError::Dram(DramConfigError::Channels {
                channels: 0
            }))
        ));
        let msg = c.validate().unwrap_err().to_string();
        assert!(msg.contains("invalid DRAM configuration"), "{msg}");
    }

    #[test]
    fn error_messages_name_the_violated_invariant() {
        let mut d = DramTimingConfig::ddr4_1600_paper();
        d.channels = 0;
        let msg = d.validate().unwrap_err().to_string();
        assert!(msg.contains("channels"), "unhelpful message: {msg}");
    }
}
