//! Cluster throughput measurement.
//!
//! The sweep engine needs, per frequency point, the cluster's UIPS and its
//! uncore/memory traffic rates. [`SimMeasurer`] obtains them by running the
//! `ntc-sim` cluster under a workload profile with checkpoint-warmed caches
//! and SMARTS-style warm-up/measure windows — the paper's methodology.
//! [`TableMeasurer`] replays pre-computed curves (interpolated in
//! log-frequency) for fast analytic studies and tests.
//!
//! Measurers are shared-state: [`ClusterMeasurer::measure`] takes `&self`,
//! so one measurer can serve many sweep worker threads at once. Expensive
//! simulation results are memoized by [`MeasurementCache`], which wraps any
//! measurer and keys results by [`MeasurementKey`] — a content fingerprint
//! of everything that determines the measurement (profile, frequency,
//! window, seed, prefetch degree). Caches can share one
//! [`MeasurementStore`] across measurers and persist it as JSON (the bench
//! layer keeps it under `results/cache/`), so repeated sweeps across
//! figures and across process runs skip the simulator entirely.

use ntc_sampling::SampleWindow;
use ntc_sim::{ChipConfig, ClusterConfig, ClusterSim, DramTimingConfig, SimConfig, SimStats};
use ntc_telemetry::LazyCounter;
use ntc_workloads::{prewarm_cluster, ProfileStream, WorkloadProfile};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What the sweep needs to know about one cluster at one frequency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterMeasurement {
    /// Core frequency of the measurement (MHz).
    pub mhz: f64,
    /// User instructions per second, one cluster.
    pub uips: f64,
    /// Aggregate UIPC across the cluster's cores.
    pub uipc: f64,
    /// LLC accesses per second (64-byte), one cluster.
    pub llc_accesses_per_sec: f64,
    /// Crossbar transfers per second, one cluster.
    pub xbar_flits_per_sec: f64,
    /// DRAM read bandwidth in bytes/second, one cluster.
    pub dram_read_bps: f64,
    /// DRAM write bandwidth in bytes/second, one cluster.
    pub dram_write_bps: f64,
}

impl ClusterMeasurement {
    /// Builds a measurement from simulator statistics.
    pub fn from_stats(stats: &SimStats) -> Self {
        ClusterMeasurement {
            mhz: stats.core_mhz,
            uips: stats.uips(),
            uipc: stats.uipc(),
            llc_accesses_per_sec: stats.llc_access_rate(),
            xbar_flits_per_sec: stats.xbar_rate(),
            dram_read_bps: stats.dram_read_bw(),
            dram_write_bps: stats.dram_write_bw(),
        }
    }
}

/// A measurement failure.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MeasureError {
    /// The requested frequency is non-positive or not finite.
    InvalidFrequency {
        /// The offending frequency (MHz).
        mhz: f64,
    },
    /// The measurement backend failed.
    Failed {
        /// Human-readable description.
        detail: String,
    },
}

impl fmt::Display for MeasureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeasureError::InvalidFrequency { mhz } => {
                write!(
                    f,
                    "cannot measure at {mhz} MHz: frequency must be positive and finite"
                )
            }
            MeasureError::Failed { detail } => write!(f, "measurement failed: {detail}"),
        }
    }
}

impl Error for MeasureError {}

/// Source of per-frequency cluster measurements.
///
/// `measure` takes `&self` so implementations can be shared across sweep
/// worker threads; stateful backends must manage interior mutability
/// themselves (see [`MeasurementCache`]).
pub trait ClusterMeasurer {
    /// Measures the cluster at `mhz`.
    ///
    /// # Errors
    ///
    /// [`MeasureError::InvalidFrequency`] for non-positive or non-finite
    /// frequencies; [`MeasureError::Failed`] when the backend cannot
    /// produce a measurement.
    fn measure(&self, mhz: f64) -> Result<ClusterMeasurement, MeasureError>;

    /// The content key identifying `measure(mhz)`'s result, or `None` if
    /// this measurer's results are too cheap or too ambiguous to cache
    /// (the default). [`MeasurementCache`] consults this.
    fn key(&self, mhz: f64) -> Option<MeasurementKey> {
        let _ = mhz;
        None
    }
}

fn check_frequency(mhz: f64) -> Result<(), MeasureError> {
    if mhz.is_finite() && mhz > 0.0 {
        Ok(())
    } else {
        Err(MeasureError::InvalidFrequency { mhz })
    }
}

/// Identifies one simulated measurement by content: everything that
/// determines the result, and nothing else. Two sweeps that agree on all
/// fields will receive identical measurements, so their results are safe
/// to share through a [`MeasurementStore`] — within a process and, via
/// JSON persistence, across processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MeasurementKey {
    /// FNV-1a fingerprint of the workload profile's canonical JSON.
    pub profile: u64,
    /// Frequency in milli-MHz (exact for any ladder step down to 1 kHz).
    pub mhz_millis: u64,
    /// Detailed warm-up cycles.
    pub warmup_cycles: u64,
    /// Measured cycles.
    pub measure_cycles: u64,
    /// Stream seed.
    pub seed: u64,
    /// Next-line prefetch degree of the measured configuration.
    pub prefetch_degree: u32,
    /// Canonical fingerprint of the simulated machine (per-cluster config
    /// vector plus DRAM timing) — see [`config_fingerprint`]. Two chips
    /// that differ in any one cluster's configuration get distinct keys;
    /// two orderings of the same clusters get the same one.
    pub config: u64,
}

impl MeasurementKey {
    /// Builds the key for a simulated measurement of `config`.
    pub fn new(
        profile: &WorkloadProfile,
        mhz: f64,
        window: SampleWindow,
        seed: u64,
        config: &SimConfig,
    ) -> Self {
        MeasurementKey {
            profile: profile_fingerprint(profile),
            mhz_millis: (mhz * 1000.0).round() as u64,
            warmup_cycles: window.warmup_cycles,
            measure_cycles: window.measure_cycles,
            seed,
            prefetch_degree: config.core.prefetch_degree,
            config: config_fingerprint(std::slice::from_ref(&config.cluster()), &config.dram),
        }
    }

    /// Builds the key for a whole-chip measurement: the frequency and
    /// prefetch fields live inside each cluster's config, so they are
    /// carried (canonically) by the `config` fingerprint.
    pub fn for_chip(profile: &WorkloadProfile, config: &ChipConfig, window: SampleWindow) -> Self {
        MeasurementKey {
            profile: profile_fingerprint(profile),
            mhz_millis: 0,
            warmup_cycles: window.warmup_cycles,
            measure_cycles: window.measure_cycles,
            seed: config.seed,
            prefetch_degree: 0,
            config: config_fingerprint(&config.clusters, &config.dram),
        }
    }
}

fn fnv1a(mut hash: u64, bytes: impl Iterator<Item = u8>) -> u64 {
    for byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Stable content fingerprint of a workload profile: FNV-1a 64 over its
/// canonical (compact) JSON. Unlike `std::hash`, the result is identical
/// across processes and builds, which persistence relies on.
pub fn profile_fingerprint(profile: &WorkloadProfile) -> u64 {
    let json = serde_json::to_string(profile).expect("profiles serialize infallibly");
    fnv1a(FNV_OFFSET, json.bytes())
}

/// Canonical content fingerprint of a simulated machine: FNV-1a 64 over
/// the *sorted* per-cluster config JSONs plus the shared DRAM timing.
/// Sorting makes the fingerprint insensitive to cluster order — two
/// homogeneous chips listing the same clusters differently hash alike,
/// so they share cache entries — while any real per-cluster difference
/// (core class, frequency, cache geometry) lands in the JSON and yields
/// a distinct fingerprint. Seeds are deliberately excluded: the stream
/// seed is its own [`MeasurementKey`] field.
pub fn config_fingerprint(clusters: &[ClusterConfig], dram: &DramTimingConfig) -> u64 {
    let mut parts: Vec<String> = clusters
        .iter()
        .map(|c| serde_json::to_string(c).expect("cluster configs serialize infallibly"))
        .collect();
    parts.sort();
    let mut hash = FNV_OFFSET;
    for part in &parts {
        // JSON never contains a raw newline, so it is a safe separator.
        hash = fnv1a(hash, part.bytes().chain(std::iter::once(b'\n')));
    }
    let dram = serde_json::to_string(dram).expect("DRAM timing serializes infallibly");
    fnv1a(hash, dram.bytes())
}

/// [`config_fingerprint`] of a [`ChipConfig`] (the seed field is
/// excluded, as documented there).
pub fn chip_fingerprint(config: &ChipConfig) -> u64 {
    config_fingerprint(&config.clusters, &config.dram)
}

/// Process-wide cache counters, registered with the telemetry metrics
/// registry on first use. They aggregate over every [`MeasurementStore`]
/// in the process (per-store counts stay on the store itself); the sweep
/// engine snapshots them around each sweep to log per-sweep cache use.
pub(crate) static CACHE_HITS: LazyCounter = LazyCounter::new("measure.cache.hits");
pub(crate) static CACHE_MISSES: LazyCounter = LazyCounter::new("measure.cache.misses");

/// Shared, thread-safe memo of keyed measurements with hit/miss counters
/// and optional JSON persistence. One store is typically shared by every
/// figure in a process (wrapped in an [`Arc`]), so e.g. Figure 3 reuses
/// the CloudSuite ladders Figure 2 already simulated.
#[derive(Debug, Default)]
pub struct MeasurementStore {
    map: RwLock<HashMap<MeasurementKey, ClusterMeasurement>>,
    hits: AtomicU64,
    misses: AtomicU64,
    path: Option<PathBuf>,
}

impl MeasurementStore {
    /// An empty in-memory store.
    pub fn new() -> Self {
        Self::default()
    }

    /// A store that loads `path` now (if it exists and parses) and writes
    /// back there on [`MeasurementStore::save`]. A missing or corrupt file
    /// just means a cold start; it is never an error.
    pub fn with_persistence(path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        let map = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| {
                serde_json::from_str::<Vec<(MeasurementKey, ClusterMeasurement)>>(&text).ok()
            })
            .map(|entries| entries.into_iter().collect())
            .unwrap_or_default();
        MeasurementStore {
            map: RwLock::new(map),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            path: Some(path),
        }
    }

    /// Looks up a measurement, counting a hit or a miss (both on this
    /// store's own counters and, when metrics are enabled, on the
    /// process-wide registry counters the sweep engine logs at sweep
    /// end).
    pub fn lookup(&self, key: &MeasurementKey) -> Option<ClusterMeasurement> {
        let found = self.map.read().get(key).copied();
        match found {
            Some(_) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                CACHE_HITS.inc();
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                CACHE_MISSES.inc();
            }
        };
        found
    }

    /// Records a measurement.
    pub fn insert(&self, key: MeasurementKey, measurement: ClusterMeasurement) {
        self.map.write().insert(key, measurement);
    }

    /// Cache hits since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of memoized measurements.
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.map.read().is_empty()
    }

    /// Writes the memo to the persistence file (no-op without one).
    /// Entries are sorted by key so the file is byte-stable for a given
    /// content set.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (unwritable directory, full disk).
    pub fn save(&self) -> std::io::Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let mut entries: Vec<(MeasurementKey, ClusterMeasurement)> =
            self.map.read().iter().map(|(k, v)| (*k, *v)).collect();
        entries.sort_by_key(|(k, _)| *k);
        let json = serde_json::to_string_pretty(&entries).expect("measurements serialize");
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, json)
    }
}

/// A wrapper measurer that memoizes its inner measurer's results in a
/// [`MeasurementStore`]. Uncacheable measurers (those whose
/// [`ClusterMeasurer::key`] is `None`, like [`TableMeasurer`]) pass
/// through untouched, with no counter traffic.
#[derive(Debug)]
pub struct MeasurementCache<M> {
    inner: M,
    store: Arc<MeasurementStore>,
}

impl<M: ClusterMeasurer> MeasurementCache<M> {
    /// Wraps `inner` with a fresh private store.
    pub fn new(inner: M) -> Self {
        MeasurementCache {
            inner,
            store: Arc::new(MeasurementStore::new()),
        }
    }

    /// Wraps `inner` with a shared store (the cross-figure / cross-process
    /// configuration).
    pub fn shared(inner: M, store: Arc<MeasurementStore>) -> Self {
        MeasurementCache { inner, store }
    }

    /// The backing store.
    pub fn store(&self) -> &Arc<MeasurementStore> {
        &self.store
    }

    /// Cache hits recorded by the backing store.
    pub fn hits(&self) -> u64 {
        self.store.hits()
    }

    /// Cache misses recorded by the backing store.
    pub fn misses(&self) -> u64 {
        self.store.misses()
    }
}

impl<M: ClusterMeasurer> ClusterMeasurer for MeasurementCache<M> {
    fn measure(&self, mhz: f64) -> Result<ClusterMeasurement, MeasureError> {
        let Some(key) = self.inner.key(mhz) else {
            return self.inner.measure(mhz);
        };
        if let Some(cached) = self.store.lookup(&key) {
            return Ok(cached);
        }
        let measurement = self.inner.measure(mhz)?;
        self.store.insert(key, measurement);
        Ok(measurement)
    }

    fn key(&self, mhz: f64) -> Option<MeasurementKey> {
        self.inner.key(mhz)
    }
}

/// Execution-driven measurement via the `ntc-sim` cluster simulator.
#[derive(Debug, Clone)]
pub struct SimMeasurer {
    profile: WorkloadProfile,
    window: SampleWindow,
    seed: u64,
    prefetch_degree: u32,
    cluster: Option<ClusterConfig>,
}

impl SimMeasurer {
    /// A measurer using the paper's standard window (100 K warm-up / 50 K
    /// measured cycles; use [`SampleWindow::paper_data_serving`] via
    /// [`SimMeasurer::with_window`] for Data Serving).
    pub fn new(profile: WorkloadProfile) -> Self {
        SimMeasurer {
            profile,
            window: SampleWindow::paper_default(),
            seed: 0,
            prefetch_degree: 0,
            cluster: None,
        }
    }

    /// A fast variant for tests and examples: shorter windows (16 K / 16 K
    /// cycles) that still capture the UIPC-vs-frequency shape.
    pub fn fast(profile: WorkloadProfile) -> Self {
        SimMeasurer {
            profile,
            window: SampleWindow {
                warmup_cycles: 16_000,
                measure_cycles: 16_000,
            },
            seed: 0,
            prefetch_degree: 0,
            cluster: None,
        }
    }

    /// Overrides the warm-up/measure window (builder style).
    pub fn with_window(mut self, window: SampleWindow) -> Self {
        self.window = window;
        self
    }

    /// Overrides the stream seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables next-line prefetching at the given degree (builder style).
    /// Ignored when a full cluster config is supplied via
    /// [`SimMeasurer::with_cluster`] — that config's own degree wins.
    pub fn with_prefetch(mut self, degree: u32) -> Self {
        self.prefetch_degree = degree;
        self
    }

    /// Measures `cluster` instead of the paper cluster (builder style):
    /// the heterogeneous path, e.g. an in-order little cluster. The
    /// config's `core_mhz` is overridden by each measurement's frequency;
    /// everything else — core class, cache geometry, crossbar — is taken
    /// as given and fingerprinted into the cache key.
    pub fn with_cluster(mut self, cluster: ClusterConfig) -> Self {
        self.cluster = Some(cluster);
        self
    }

    /// The driving profile.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// The exact configuration a measurement at `mhz` simulates.
    fn effective_config(&self, mhz: f64) -> SimConfig {
        let mut config = SimConfig::paper_cluster(mhz);
        match self.cluster {
            Some(mut cluster) => {
                cluster.core_mhz = mhz;
                SimConfig::from_cluster(cluster, config.dram, config.seed)
            }
            None => {
                config.core.prefetch_degree = self.prefetch_degree;
                config
            }
        }
    }
}

impl ClusterMeasurer for SimMeasurer {
    fn measure(&self, mhz: f64) -> Result<ClusterMeasurement, MeasureError> {
        let _span = ntc_telemetry::trace::span_with("measure", || format!("measure {mhz} MHz"));
        check_frequency(mhz)?;
        let seed = self.seed;
        let profile = self.profile.clone();
        let config = self.effective_config(mhz);
        let mut sim = ClusterSim::new(config, |core| {
            ProfileStream::new(profile.clone(), seed.wrapping_mul(64) + u64::from(core))
        });
        prewarm_cluster(&mut sim, &self.profile);
        sim.warm_up(self.window.warmup_cycles);
        // The energy plane: attach the window probe *after* warm-up so
        // its boundary baseline lands on the measured region's entry.
        // Probes observe only — the armed path is bit-identical to the
        // plain one (the `energy-probe` diffcheck oracle enforces it).
        let energy = crate::observe::energy_armed().then(|| {
            let probe = ntc_sim::EnergyProbe::with_window(crate::observe::energy_window_cycles());
            let handle = probe.handle();
            sim.attach_probe(Box::new(probe));
            handle
        });
        let stats = sim.run_measured(self.window.measure_cycles);
        let measurement = ClusterMeasurement::from_stats(&stats);
        if let Some(handle) = energy {
            sim.detach_probe();
            crate::observe::record_run(crate::observe::RunActivity {
                mhz,
                total: measurement,
                cycles: stats.cycles,
                wall_ps: stats.wall_ps,
                windows: handle.finish(),
                coalesced: handle.coalesced(),
            });
        }
        Ok(measurement)
    }

    fn key(&self, mhz: f64) -> Option<MeasurementKey> {
        if !(mhz.is_finite() && mhz > 0.0) {
            return None;
        }
        Some(MeasurementKey::new(
            &self.profile,
            mhz,
            self.window,
            self.seed,
            &self.effective_config(mhz),
        ))
    }
}

/// Interpolating measurer over pre-computed `(mhz, measurement)` points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableMeasurer {
    points: Vec<ClusterMeasurement>,
}

impl TableMeasurer {
    /// Builds from measurement points (sorted by frequency internally).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two points are given.
    pub fn new(mut points: Vec<ClusterMeasurement>) -> Self {
        assert!(points.len() >= 2, "interpolation needs at least two points");
        points.sort_by(|a, b| a.mhz.partial_cmp(&b.mhz).expect("finite frequencies"));
        TableMeasurer { points }
    }

    /// A synthetic sub-linear throughput curve: UIPC falls from
    /// `uipc_low_f` at 100 MHz to `uipc_high_f` at 2 GHz with a smooth
    /// memory-stall shape — handy for analytic studies.
    ///
    /// # Panics
    ///
    /// Panics unless `uipc_low_f >= uipc_high_f > 0`.
    pub fn synthetic(uipc_low_f: f64, uipc_high_f: f64) -> Self {
        assert!(
            uipc_low_f >= uipc_high_f && uipc_high_f > 0.0,
            "UIPC must not increase with frequency"
        );
        // uipc(f) = a / (1 + b f); fit at 100 and 2000 MHz.
        let ratio = uipc_low_f / uipc_high_f;
        let b = (ratio - 1.0) / (2000.0 - ratio * 100.0);
        let a = uipc_low_f * (1.0 + b * 100.0);
        let points = (1..=20)
            .map(|i| {
                let mhz = 100.0 * f64::from(i);
                let uipc = a / (1.0 + b * mhz);
                let uips = uipc * mhz * 1e6;
                ClusterMeasurement {
                    mhz,
                    uips,
                    uipc,
                    llc_accesses_per_sec: uips * 0.03,
                    xbar_flits_per_sec: uips * 0.03,
                    dram_read_bps: uips * 0.008 * 64.0,
                    dram_write_bps: uips * 0.003 * 64.0,
                }
            })
            .collect();
        TableMeasurer { points }
    }

    fn blend(a: &ClusterMeasurement, b: &ClusterMeasurement, t: f64) -> ClusterMeasurement {
        let l = |x: f64, y: f64| x + (y - x) * t;
        ClusterMeasurement {
            mhz: l(a.mhz, b.mhz),
            uips: l(a.uips, b.uips),
            uipc: l(a.uipc, b.uipc),
            llc_accesses_per_sec: l(a.llc_accesses_per_sec, b.llc_accesses_per_sec),
            xbar_flits_per_sec: l(a.xbar_flits_per_sec, b.xbar_flits_per_sec),
            dram_read_bps: l(a.dram_read_bps, b.dram_read_bps),
            dram_write_bps: l(a.dram_write_bps, b.dram_write_bps),
        }
    }
}

impl ClusterMeasurer for TableMeasurer {
    fn measure(&self, mhz: f64) -> Result<ClusterMeasurement, MeasureError> {
        check_frequency(mhz)?;
        let pts = &self.points;
        if mhz <= pts[0].mhz {
            let mut m = pts[0];
            // Extrapolate throughput proportionally below the table.
            m.uips *= mhz / m.mhz;
            m.mhz = mhz;
            return Ok(m);
        }
        if mhz >= pts[pts.len() - 1].mhz {
            let mut m = pts[pts.len() - 1];
            m.uips *= mhz / m.mhz;
            m.mhz = mhz;
            return Ok(m);
        }
        let i = pts.partition_point(|p| p.mhz < mhz);
        let (a, b) = (&pts[i - 1], &pts[i]);
        // Geometric (log-frequency) interpolation: frequency ladders are
        // ratio-spaced, so equal ratios — not equal differences — should
        // land midway between table nodes.
        let t = (mhz.ln() - a.mhz.ln()) / (b.mhz.ln() - a.mhz.ln());
        Ok(Self::blend(a, b, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntc_workloads::CloudSuiteApp;

    #[test]
    fn sim_measurer_produces_consistent_rates() {
        let p = WorkloadProfile::cloudsuite(CloudSuiteApp::WebSearch);
        let m = SimMeasurer::fast(p);
        let x = m.measure(1000.0).unwrap();
        assert!(x.uips > 0.0);
        assert!((x.uips / (x.uipc * 1000.0 * 1e6) - 1.0).abs() < 1e-9);
        assert!(x.llc_accesses_per_sec > 0.0);
    }

    #[test]
    fn sim_measurer_shows_the_uipc_frequency_effect() {
        let p = WorkloadProfile::cloudsuite(CloudSuiteApp::DataServing);
        let m = SimMeasurer::fast(p);
        let hi = m.measure(2000.0).unwrap();
        let lo = m.measure(200.0).unwrap();
        assert!(lo.uipc > hi.uipc, "UIPC rises as the clock slows");
        assert!(hi.uips > lo.uips, "UIPS still grows with frequency");
    }

    #[test]
    fn measurers_reject_unphysical_frequencies() {
        let t = TableMeasurer::synthetic(3.0, 1.5);
        for mhz in [0.0, -100.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                t.measure(mhz),
                Err(MeasureError::InvalidFrequency { .. })
            ));
        }
    }

    #[test]
    fn table_measurer_interpolates_and_extrapolates() {
        let t = TableMeasurer::synthetic(3.0, 1.5);
        let m500 = t.measure(500.0).unwrap();
        let m550 = t.measure(550.0).unwrap();
        let m600 = t.measure(600.0).unwrap();
        assert!(m500.uips < m550.uips && m550.uips < m600.uips);
        let m50 = t.measure(50.0).unwrap();
        assert!(m50.uips < m500.uips && m50.uips > 0.0);
    }

    #[test]
    fn interpolation_is_geometric_in_frequency() {
        // Nodes at 100 and 400 MHz; 200 MHz is their geometric midpoint
        // (t = ln2 / ln4 = 0.5), so every field lands halfway. Linear
        // interpolation in mhz would give t = 1/3 instead.
        let node = |mhz: f64, uipc: f64| ClusterMeasurement {
            mhz,
            uips: uipc * mhz * 1e6,
            uipc,
            llc_accesses_per_sec: uipc,
            xbar_flits_per_sec: uipc,
            dram_read_bps: uipc,
            dram_write_bps: uipc,
        };
        let t = TableMeasurer::new(vec![node(100.0, 1.0), node(400.0, 3.0)]);
        let mid = t.measure(200.0).unwrap();
        assert!((mid.uipc - 2.0).abs() < 1e-12, "got {}", mid.uipc);
        assert!((mid.dram_read_bps - 2.0).abs() < 1e-12);
        // Table nodes themselves are returned exactly (t = 0 and t = 1).
        assert!((t.measure(400.0).unwrap().uipc - 3.0).abs() < 1e-12);
    }

    #[test]
    fn synthetic_curve_hits_its_anchors() {
        let t = TableMeasurer::synthetic(3.0, 1.5);
        assert!((t.measure(100.0).unwrap().uipc - 3.0).abs() < 1e-6);
        assert!((t.measure(2000.0).unwrap().uipc - 1.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "must not increase")]
    fn synthetic_rejects_rising_uipc() {
        let _ = TableMeasurer::synthetic(1.0, 2.0);
    }

    #[test]
    fn cache_hits_after_first_measurement() {
        let p = WorkloadProfile::cloudsuite(CloudSuiteApp::WebSearch);
        let cached = MeasurementCache::new(SimMeasurer::fast(p));
        let a = cached.measure(500.0).unwrap();
        assert_eq!((cached.hits(), cached.misses()), (0, 1));
        let b = cached.measure(500.0).unwrap();
        assert_eq!((cached.hits(), cached.misses()), (1, 1));
        assert_eq!(a, b);
        // A different frequency is a different key.
        let _ = cached.measure(600.0).unwrap();
        assert_eq!((cached.hits(), cached.misses()), (1, 2));
    }

    #[test]
    fn cache_keys_distinguish_measurement_inputs() {
        let p = WorkloadProfile::cloudsuite(CloudSuiteApp::WebSearch);
        let base = SimMeasurer::fast(p.clone());
        let k = |m: &SimMeasurer| m.key(1000.0).unwrap();
        assert_eq!(k(&base), k(&SimMeasurer::fast(p.clone())));
        assert_ne!(k(&base), k(&SimMeasurer::fast(p.clone()).with_seed(7)));
        assert_ne!(k(&base), k(&SimMeasurer::fast(p.clone()).with_prefetch(2)));
        assert_ne!(k(&base), k(&SimMeasurer::new(p.clone())));
        let other = WorkloadProfile::cloudsuite(CloudSuiteApp::DataServing);
        assert_ne!(k(&base), k(&SimMeasurer::fast(other)));
        assert_ne!(base.key(1000.0), base.key(1000.001));
    }

    #[test]
    fn table_measurers_bypass_the_cache() {
        let cached = MeasurementCache::new(TableMeasurer::synthetic(3.0, 1.5));
        assert!(cached.key(500.0).is_none());
        let _ = cached.measure(500.0).unwrap();
        let _ = cached.measure(500.0).unwrap();
        assert_eq!((cached.hits(), cached.misses()), (0, 0));
        assert!(cached.store().is_empty());
    }

    #[test]
    fn store_persists_and_reloads() {
        let dir = std::env::temp_dir().join(format!("ntc-cache-test-{}", std::process::id()));
        let path = dir.join("measurements.json");
        let _ = std::fs::remove_file(&path);

        let store = MeasurementStore::with_persistence(&path);
        let key = MeasurementKey::new(
            &WorkloadProfile::cloudsuite(CloudSuiteApp::WebSearch),
            700.0,
            SampleWindow::paper_default(),
            0,
            &SimConfig::paper_cluster(700.0),
        );
        let m = TableMeasurer::synthetic(3.0, 1.5).measure(700.0).unwrap();
        store.insert(key, m);
        store.save().unwrap();

        let reloaded = MeasurementStore::with_persistence(&path);
        assert_eq!(reloaded.len(), 1);
        assert_eq!(reloaded.lookup(&key), Some(m));
        assert_eq!(reloaded.hits(), 1);

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn corrupt_persistence_files_mean_a_cold_start() {
        let dir = std::env::temp_dir().join(format!("ntc-cache-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("measurements.json");
        std::fs::write(&path, "not json at all {{{").unwrap();
        let store = MeasurementStore::with_persistence(&path);
        assert!(store.is_empty());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn chip_keys_never_alias_across_cluster_configs() {
        // Chips differing in any one cluster's configuration must get
        // distinct keys — a heterogeneous sweep caching under a chip-wide
        // key would otherwise serve big-cluster numbers for little mixes.
        let profile = WorkloadProfile::cloudsuite(CloudSuiteApp::WebSearch);
        let window = SampleWindow::paper_default();
        let base = ChipConfig::homogeneous(&SimConfig::paper_cluster(1000.0), 3);
        let k = |c: &ChipConfig| MeasurementKey::for_chip(&profile, c, window);

        let mut one_little = base.clone();
        one_little.clusters[2] = ClusterConfig::little_cluster(1000.0);
        assert_ne!(k(&base), k(&one_little));

        let mut one_slower = base.clone();
        one_slower.clusters[1].core_mhz = 900.0;
        assert_ne!(k(&base), k(&one_slower));

        let mut bigger_llc = base.clone();
        bigger_llc.clusters[0].llc.cache.size_bytes *= 2;
        assert_ne!(k(&base), k(&bigger_llc));
    }

    #[test]
    fn chip_keys_canonicalize_cluster_order() {
        // The same set of clusters in any order is the same machine: a
        // reordered-but-identical config must hit the cache.
        let profile = WorkloadProfile::cloudsuite(CloudSuiteApp::WebSearch);
        let window = SampleWindow::paper_default();
        let mut mixed = ChipConfig::homogeneous(&SimConfig::paper_cluster(1000.0), 3);
        mixed.clusters[2] = ClusterConfig::little_cluster(600.0);
        let mut reordered = mixed.clone();
        reordered.clusters.swap(0, 2);
        assert_ne!(mixed.clusters, reordered.clusters);
        assert_eq!(
            MeasurementKey::for_chip(&profile, &mixed, window),
            MeasurementKey::for_chip(&profile, &reordered, window)
        );
        assert_eq!(chip_fingerprint(&mixed), chip_fingerprint(&reordered));
    }

    #[test]
    fn cluster_override_is_fingerprinted_into_the_key() {
        let p = WorkloadProfile::cloudsuite(CloudSuiteApp::WebSearch);
        let base = SimMeasurer::fast(p.clone());
        let little =
            SimMeasurer::fast(p.clone()).with_cluster(ClusterConfig::little_cluster(1000.0));
        assert_ne!(base.key(1000.0), little.key(1000.0));
        // The override's core_mhz is replaced per measurement, so the
        // paper cluster handed back explicitly is the default machine —
        // same key, cache shared.
        let explicit = SimMeasurer::fast(p).with_cluster(SimConfig::paper_cluster(123.0).cluster());
        assert_eq!(base.key(1000.0), explicit.key(1000.0));
    }

    #[test]
    fn little_cluster_measures_slower_than_big_at_equal_frequency() {
        let p = WorkloadProfile::cloudsuite(CloudSuiteApp::WebSearch);
        let big = SimMeasurer::fast(p.clone()).measure(1000.0).unwrap();
        let little = SimMeasurer::fast(p)
            .with_cluster(ClusterConfig::little_cluster(1000.0))
            .measure(1000.0)
            .unwrap();
        assert!(
            little.uips < big.uips,
            "an in-order narrow cluster must trail the A57 cluster: {} vs {}",
            little.uips,
            big.uips
        );
        assert!(little.uips > 0.0);
    }

    #[test]
    fn profile_fingerprint_is_content_keyed() {
        let a = WorkloadProfile::cloudsuite(CloudSuiteApp::WebSearch);
        let b = WorkloadProfile::cloudsuite(CloudSuiteApp::WebSearch);
        assert_eq!(profile_fingerprint(&a), profile_fingerprint(&b));
        let mut c = WorkloadProfile::cloudsuite(CloudSuiteApp::WebSearch);
        c.hot_fraction *= 0.99;
        assert_ne!(profile_fingerprint(&a), profile_fingerprint(&c));
    }
}
