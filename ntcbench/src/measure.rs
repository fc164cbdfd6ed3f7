//! The benchmark's own cluster measurer and the simulator tallies of the
//! traced pass.
//!
//! In the traced pass the benchmark drives `ClusterSim` itself, with the
//! inputs `SimMeasurer` would use, so that it can time each layer call
//! (`ClusterSim::new`, `prewarm_cluster`, `warm_up`, `run_measured`).
//! Its cache key is `SimMeasurer`'s own, so results land in the shared
//! store under the keys the figure functions look up.

use crate::trace;
use ntc_core::{ClusterMeasurement, ClusterMeasurer, MeasureError, MeasurementKey, SimMeasurer};
use ntc_sampling::SampleWindow;
use ntc_sim::dram::DramStats;
use ntc_sim::llc::LlcStats;
use ntc_sim::{ClusterConfig, ClusterSim, InstructionStream, SimConfig};
use ntc_workloads::{prewarm_cluster, ProfileStream, WorkloadProfile};
use std::sync::Mutex;
use std::time::Instant;

/// Which simulator loop ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `ClusterSim`: one cluster.
    Cluster,
    /// `ChipSim` with one clock domain (the synced loop).
    Chip,
    /// `ChipSim` with several clock domains (the multiclock loop).
    ChipMulticlock,
}

impl Engine {
    pub const ALL: [Engine; 3] = [Engine::Cluster, Engine::Chip, Engine::ChipMulticlock];

    pub fn name(self) -> &'static str {
        match self {
            Engine::Cluster => "cluster",
            Engine::Chip => "chip",
            Engine::ChipMulticlock => "chip_multiclock",
        }
    }
}

/// Simulator counters gathered in the traced pass.
#[derive(Debug, Default, Clone)]
pub struct SimTally {
    /// Per engine, indexed by `Engine as usize`: (warm-up + measured
    /// seconds, warm-up + measured cluster-cycles).
    pub engine: [(f64, u64); 3],
    pub new_s: f64,
    pub warm_up_s: f64,
    pub run_measured_s: f64,
    /// Skipped cycles and the cycles they are counted against (the
    /// reference clock of each simulator instance).
    pub skipped: u64,
    pub reference_cycles: u64,
    pub llc_hits: u64,
    pub llc_misses: u64,
    pub dram_reads: u64,
    pub dram_writes: u64,
    pub dram_row_hits: u64,
    pub dram_row_misses: u64,
    /// Measured-window cluster-cycles (the base of the per-kcycle rates).
    pub measured_cluster_cycles: u64,
    pub dram_queue_high_water: u64,
}

static TALLY: Mutex<Option<SimTally>> = Mutex::new(None);

/// One simulator instance's contribution to the tally.
pub struct SimRun<'a> {
    pub engine: Engine,
    pub new_s: f64,
    pub warm_up_s: f64,
    pub run_measured_s: f64,
    pub clusters: u64,
    pub cycles: u64,
    pub skipped: u64,
    pub llc: &'a LlcStats,
    pub dram: &'a DramStats,
    pub measured_cluster_cycles: u64,
    pub dram_queue_high_water: u64,
}

/// Adds one simulator run to the tally (traced pass only).
pub fn record(run: SimRun<'_>) {
    let mut guard = TALLY.lock().expect("tally poisoned");
    let t = guard.get_or_insert_with(SimTally::default);
    let slot = &mut t.engine[run.engine as usize];
    slot.0 += run.warm_up_s + run.run_measured_s;
    slot.1 += run.cycles * run.clusters;
    t.new_s += run.new_s;
    t.warm_up_s += run.warm_up_s;
    t.run_measured_s += run.run_measured_s;
    t.skipped += run.skipped;
    t.reference_cycles += run.cycles;
    t.llc_hits += run.llc.hits;
    t.llc_misses += run.llc.misses;
    t.dram_reads += run.dram.reads;
    t.dram_writes += run.dram.writes;
    t.dram_row_hits += run.dram.row_hits;
    t.dram_row_misses += run.dram.row_misses;
    t.measured_cluster_cycles += run.measured_cluster_cycles;
    t.dram_queue_high_water = t.dram_queue_high_water.max(run.dram_queue_high_water);
}

pub fn tally() -> SimTally {
    TALLY
        .lock()
        .expect("tally poisoned")
        .clone()
        .unwrap_or_default()
}

/// A cluster measurer with `SimMeasurer`'s inputs and key. Untraced it
/// is `SimMeasurer` itself; traced it runs the same simulation step by
/// step, timing each layer.
#[derive(Debug, Clone)]
pub struct BenchMeasurer {
    inner: SimMeasurer,
    /// Whether `inner` measures the little in-order cluster
    /// (`SimMeasurer::with_cluster(ClusterConfig::little_cluster(..))`).
    little: bool,
}

impl BenchMeasurer {
    pub fn big(inner: SimMeasurer) -> Self {
        BenchMeasurer {
            inner,
            little: false,
        }
    }

    pub fn little(inner: SimMeasurer) -> Self {
        BenchMeasurer {
            inner: inner.with_cluster(ClusterConfig::little_cluster(100.0)),
            little: true,
        }
    }

    pub fn sim_measurer(&self) -> &SimMeasurer {
        &self.inner
    }

    /// The configuration `SimMeasurer` simulates at `mhz`.
    fn config(&self, mhz: f64, prefetch_degree: u32) -> SimConfig {
        let paper = SimConfig::paper_cluster(mhz);
        if self.little {
            SimConfig::from_cluster(ClusterConfig::little_cluster(mhz), paper.dram, paper.seed)
        } else {
            let mut config = paper;
            config.core.prefetch_degree = prefetch_degree;
            config
        }
    }

    fn measure_traced(&self, mhz: f64) -> Result<ClusterMeasurement, MeasureError> {
        let key = self
            .inner
            .key(mhz)
            .ok_or(MeasureError::InvalidFrequency { mhz })?;
        let config = self.config(mhz, key.prefetch_degree);
        let window = SampleWindow {
            warmup_cycles: key.warmup_cycles,
            measure_cycles: key.measure_cycles,
        };
        let profile = self.inner.profile();
        // The key fingerprints everything the simulation depends on, so
        // equal keys mean this run simulates exactly what SimMeasurer would.
        if MeasurementKey::new(profile, mhz, window, key.seed, &config) != key {
            return Err(MeasureError::Failed {
                detail: format!(
                    "the benchmark's cluster configuration at {mhz} MHz no longer matches \
                     SimMeasurer's; update ntcbench/src/measure.rs"
                ),
            });
        }

        let _point = trace::point_span("measure", || format!("measure {mhz} MHz"));
        let span = trace::span("sim", || "sim.new".to_owned());
        let mut sim = ClusterSim::new(config, |core| {
            ProfileStream::new(profile.clone(), key.seed.wrapping_mul(64) + u64::from(core))
        });
        let new_s = span.end();
        let span = trace::span("workloads", || "prewarm".to_owned());
        prewarm_cluster(&mut sim, profile);
        span.end();
        let span = trace::span("sim", || "sim.warm_up".to_owned());
        sim.warm_up(key.warmup_cycles);
        let warm_up_s = span.end();
        let span = trace::span("sim", || "sim.run_measured".to_owned());
        let stats = sim.run_measured(key.measure_cycles);
        let run_measured_s = span.end();

        record(SimRun {
            engine: Engine::Cluster,
            new_s,
            warm_up_s,
            run_measured_s,
            clusters: 1,
            cycles: key.warmup_cycles + key.measure_cycles,
            skipped: sim.skipped_cycles(),
            llc: &stats.llc,
            dram: &stats.dram,
            measured_cluster_cycles: stats.cycles,
            dram_queue_high_water: stats.dram_queue_high_water,
        });
        Ok(ClusterMeasurement::from_stats(&stats))
    }
}

impl ClusterMeasurer for BenchMeasurer {
    fn measure(&self, mhz: f64) -> Result<ClusterMeasurement, MeasureError> {
        if trace::enabled() {
            self.measure_traced(mhz)
        } else {
            self.inner.measure(mhz)
        }
    }

    fn key(&self, mhz: f64) -> Option<MeasurementKey> {
        self.inner.key(mhz)
    }
}

/// Instructions replayed per profile when timing `ProfileStream`.
const STREAM_REPLAY: u64 = 1_000_000;

/// Host nanoseconds per `ProfileStream::next_instr` call, replaying each
/// profile's stream on its own (outside the simulator, so its caches are
/// warmer than in situ).
pub fn stream_ns_per_instr(profiles: &[WorkloadProfile]) -> f64 {
    if profiles.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    for profile in profiles {
        let mut stream = ProfileStream::new(profile.clone(), 0);
        for _ in 0..STREAM_REPLAY {
            std::hint::black_box(stream.next_instr());
        }
    }
    start.elapsed().as_nanos() as f64 / (STREAM_REPLAY * profiles.len() as u64) as f64
}
