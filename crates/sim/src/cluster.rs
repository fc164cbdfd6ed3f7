//! Top-level cluster simulator.
//!
//! Wires the per-core OoO models to the shared uncore and advances the
//! whole cluster in core-clock steps. This is the unit the paper simulates
//! (4 cores + 4 MB LLC); chip-level UIPS is the cluster's UIPS times the
//! cluster count, a scaling the paper verifies does not alter trends.

use crate::config::SimConfig;
use crate::core::Core;
use crate::engine::{self, Lane};
use crate::instr::InstructionStream;
use crate::llc::{Invalidation, SharerMask};
use crate::memsys::MemorySystem;
use crate::probe::Probe;
use crate::stats::SimStats;
use ntc_telemetry::{LazyCounter, LazyHistogram};

// Windowed simulator diagnostics, registered lazily (and compiled away
// entirely without the telemetry feature). Counters accumulate window
// deltas across every measured run in the process; the histogram records
// one high-water observation per window.
static SIM_DRAM_ROW_HITS: LazyCounter = LazyCounter::new("sim.dram.row_hits");
static SIM_DRAM_ROW_MISSES: LazyCounter = LazyCounter::new("sim.dram.row_misses");
static SIM_LLC_HITS: LazyCounter = LazyCounter::new("sim.llc.hits");
static SIM_LLC_MISSES: LazyCounter = LazyCounter::new("sim.llc.misses");
static SIM_DRAM_QUEUE_HIGH_WATER: LazyHistogram = LazyHistogram::new("sim.dram.queue_high_water");

/// Records the `sim.*` metrics for one measured window (no-op unless the
/// telemetry runtime is compiled in and armed). Shared by
/// [`ClusterSim::run_measured`] and [`crate::ChipSim::run_measured`].
pub(crate) fn record_window_metrics(stats: &SimStats) {
    SIM_DRAM_ROW_HITS.add(stats.dram.row_hits);
    SIM_DRAM_ROW_MISSES.add(stats.dram.row_misses);
    SIM_LLC_HITS.add(stats.llc.hits);
    SIM_LLC_MISSES.add(stats.llc.misses);
    SIM_DRAM_QUEUE_HIGH_WATER.record(stats.dram_queue_high_water);
}

/// A running cluster simulation: `N` cores, each driven by its own
/// instruction stream, sharing an LLC, crossbar and DRAM.
pub struct ClusterSim<S> {
    config: SimConfig,
    cores: Vec<Core>,
    streams: Vec<S>,
    mem: MemorySystem,
    cycle: u64,
    inv_buf: Vec<Invalidation>,
    probe: Option<Box<dyn Probe>>,
}

impl<S: InstructionStream> ClusterSim<S> {
    /// Builds a cluster; `make_stream(core_id)` supplies each core's
    /// workload.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is structurally invalid (see
    /// [`SimConfig::validate`], which callers can use to get the typed
    /// [`crate::SimConfigError`] instead).
    pub fn new(config: SimConfig, mut make_stream: impl FnMut(u32) -> S) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid simulator configuration: {e}");
        }
        // The LLC's tag array (128 KiB for the paper's 4 MB LLC) is a
        // point's largest block, and peak RSS on the sweeps follows it.
        // The LLC is built before the cores' buffers so its arrays can
        // reuse the space the previous point's left in this thread's
        // malloc arena: cores first measured 9.6 MB of peak RSS on
        // `figures-fast` against 7.9 MB on a 2-vCPU host (see DESIGN.md
        // "Allocation order").
        let mem = MemorySystem::new(&config);
        let cores = (0..config.cores)
            .map(|i| Core::new(i, config.core))
            .collect();
        let streams = (0..config.cores).map(&mut make_stream).collect();
        ClusterSim {
            mem,
            config,
            cores,
            streams,
            cycle: 0,
            inv_buf: Vec::new(),
            probe: None,
        }
    }

    /// Attaches a telemetry probe, sampled at run-window boundaries and
    /// every [`crate::probe::PROBE_EPOCH_CYCLES`] cycles. Probes observe
    /// only — statistics are bit-identical with or without one attached.
    /// Replaces any previous probe.
    pub fn attach_probe(&mut self, probe: Box<dyn Probe>) {
        self.probe = Some(probe);
    }

    /// Detaches the probe (if any), returning it.
    pub fn detach_probe(&mut self) -> Option<Box<dyn Probe>> {
        self.probe.take()
    }

    /// The configuration in effect.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Cycles simulated so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Always 0: the engine ticks every cycle. Kept only because the
    /// end-to-end benchmark (`ntcbench`) still reads it for its
    /// `sim.skipped_cycle_ratio` metric; it goes when that metric does.
    pub fn skipped_cycles(&self) -> u64 {
        0
    }

    /// Installs data lines into one core's L1-D and the shared LLC —
    /// checkpoint-style cache warming, mirroring the paper's practice of
    /// launching measurements from checkpoints with warmed caches.
    pub fn prewarm_data(&mut self, core: u32, lines: impl IntoIterator<Item = u64>) {
        for line in lines {
            self.cores[core as usize].install_l1d(line);
            self.mem.install_llc(line, 1 << core);
        }
    }

    /// Installs instruction lines into one core's L1-I and the shared LLC.
    pub fn prewarm_code(&mut self, core: u32, lines: impl IntoIterator<Item = u64>) {
        for line in lines {
            self.cores[core as usize].install_l1i(line);
            self.mem.install_llc(line, 1 << core);
        }
    }

    /// Installs shared lines into the LLC only (warm data too big for L1s).
    ///
    /// # Panics
    ///
    /// Panics if `sharers` names a core the cluster does not have.
    pub fn prewarm_llc(&mut self, lines: impl IntoIterator<Item = u64>, sharers: SharerMask) {
        for line in lines {
            self.mem.install_llc(line, sharers);
        }
    }

    /// Deepest the DRAM request queue, summed over its channels, has
    /// been since construction.
    pub fn dram_queue_high_water(&self) -> usize {
        self.mem.dram_queue_high_water()
    }

    /// Advances the simulation by `cycles` core cycles.
    fn advance(&mut self, cycles: u64) {
        let mut lane = Lane {
            cores: &mut self.cores,
            streams: &mut self.streams,
            mem: &mut self.mem,
            period_ps: self.config.core_period_ps(),
            cycle: self.cycle,
            end: self.cycle + cycles,
        };
        engine::run_lanes(
            std::slice::from_mut(&mut lane),
            &mut self.inv_buf,
            self.probe.as_mut(),
        );
        self.cycle = lane.cycle;
    }

    /// Runs `cycles` core cycles and returns cumulative statistics.
    pub fn run(&mut self, cycles: u64) -> SimStats {
        let _span = ntc_telemetry::trace::span_cat("sim", "sim.run");
        self.advance(cycles);
        self.stats()
    }

    /// Runs a warm-up window (caches and predictors fill; counters keep
    /// accumulating — callers measure via [`ClusterSim::run_measured`]).
    pub fn warm_up(&mut self, cycles: u64) {
        let _span = ntc_telemetry::trace::span_cat("sim", "sim.warm_up");
        self.advance(cycles);
    }

    /// Runs a measurement window and returns statistics for *that window
    /// only* (deltas against the pre-window counters) — the
    /// warm-then-measure discipline of the SMARTS methodology.
    ///
    /// One snapshot is taken before the window; the deltas are computed
    /// straight off the live counters afterwards, rather than cloning the
    /// full cumulative statistics a second time and subtracting.
    pub fn run_measured(&mut self, cycles: u64) -> SimStats {
        let _span = ntc_telemetry::trace::span_cat("sim", "sim.run_measured");
        let before = self.stats();
        self.advance(cycles);
        let window = SimStats {
            cores: self
                .cores
                .iter()
                .zip(before.cores.iter())
                .map(|(c, b)| c.stats().delta_since(b))
                .collect(),
            llc: self.mem.llc_stats().delta_since(&before.llc),
            dram: self.mem.dram_stats().delta_since(&before.dram),
            xbar_transfers: self.mem.xbar_transfers() - before.xbar_transfers,
            dram_queue_high_water: self.mem.dram_queue_high_water() as u64,
            dram_channel_queue_high_water: self.mem.dram_channel_queue_high_water(),
            core_mhz: self.config.core_mhz,
            cycles: self.cycle - before.cycles,
            wall_ps: (self.cycle - before.cycles) * self.config.core_period_ps(),
        };
        record_window_metrics(&window);
        window
    }

    /// Cumulative statistics since construction.
    pub fn stats(&self) -> SimStats {
        SimStats {
            cores: self.cores.iter().map(|c| c.stats().clone()).collect(),
            llc: self.mem.llc_stats(),
            dram: self.mem.dram_stats(),
            xbar_transfers: self.mem.xbar_transfers(),
            dram_queue_high_water: self.mem.dram_queue_high_water() as u64,
            dram_channel_queue_high_water: self.mem.dram_channel_queue_high_water(),
            core_mhz: self.config.core_mhz,
            cycles: self.cycle,
            wall_ps: self.cycle * self.config.core_period_ps(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streams::{ComputeStream, RandomAccessStream, StrideStream};

    #[test]
    fn compute_bound_cluster_sustains_high_uipc() {
        let mut sim = ClusterSim::new(SimConfig::paper_cluster(1000.0), |_| {
            ComputeStream::new(0.002)
        });
        let stats = sim.run(8_000);
        assert!(
            stats.uipc() > 6.0,
            "4 nearly-ideal cores should exceed 6 aggregate UIPC, got {}",
            stats.uipc()
        );
    }

    #[test]
    fn memory_bound_uipc_improves_at_low_frequency() {
        let uipc_at = |mhz: f64, period_ps: u64| {
            let mut sim = ClusterSim::new(SimConfig::paper_cluster(mhz), |i| {
                RandomAccessStream::new(256 << 20, 0.30, 6, 100 + u64::from(i))
            });
            sim.warm_up(3_000);
            let window = sim.run_measured(10_000);
            // The window reports its own clock and wall time (cycles x period).
            assert_eq!(window.core_mhz, mhz);
            assert_eq!(window.wall_ps, 10_000 * period_ps);
            window.uipc()
        };
        let fast = uipc_at(2000.0, 500); // 500 ps at 2 GHz
        let slow = uipc_at(200.0, 5_000); // 5 ns at 200 MHz
        assert!(
            slow > fast * 1.3,
            "UIPC must rise as the clock slows: {slow:.3} vs {fast:.3}"
        );
    }

    #[test]
    fn uips_still_grows_with_frequency() {
        // UIPC rises at low f, but never enough to invert throughput.
        let uips_at = |mhz: f64| {
            let mut sim = ClusterSim::new(SimConfig::paper_cluster(mhz), |i| {
                RandomAccessStream::new(256 << 20, 0.30, 6, 100 + u64::from(i))
            });
            sim.warm_up(3_000);
            sim.run_measured(10_000).uips()
        };
        assert!(uips_at(2000.0) > uips_at(500.0));
        assert!(uips_at(500.0) > uips_at(100.0));
    }

    #[test]
    fn streaming_traffic_reaches_dram_with_row_hits() {
        let mut sim = ClusterSim::new(SimConfig::paper_cluster(2000.0), |i| {
            StrideStream::new(64, 512 << 20, 0.3 + 0.01 * f64::from(i))
        });
        sim.warm_up(2_000);
        let stats = sim.run_measured(20_000);
        assert!(stats.dram.reads > 100, "streams must miss to DRAM");
        assert!(
            stats.dram.row_hit_rate() > 0.5,
            "sequential strides should hit open rows, got {:.2}",
            stats.dram.row_hit_rate()
        );
        assert!(stats.dram_read_bw() > 1e8);
    }

    #[test]
    fn measured_window_excludes_warmup_counts() {
        let mut sim = ClusterSim::new(SimConfig::paper_cluster(1000.0), |_| {
            ComputeStream::new(0.002)
        });
        sim.warm_up(1_000);
        let w = sim.run_measured(1_000);
        assert_eq!(w.cycles, 1_000);
        assert!(w.user_instrs() < sim.stats().user_instrs());
    }

    #[test]
    fn next_line_prefetch_helps_latency_bound_streams() {
        // Stride of 8 bytes: eight dependent-ish loads per line, so the
        // stream is latency-bound (one miss per line) rather than
        // bandwidth-bound — the case prefetching exists for.
        let run = |prefetch: u32| {
            let mut cfg = SimConfig::paper_cluster(2000.0);
            cfg.core.prefetch_degree = prefetch;
            let mut sim = ClusterSim::new(cfg, |i| {
                StrideStream::new(8, 256 << 20, 0.3 + 0.01 * f64::from(i))
            });
            sim.warm_up(2_000);
            sim.run_measured(15_000).uipc()
        };
        let base = run(0);
        let pf = run(2);
        assert!(
            pf > base * 1.02,
            "next-line prefetch must help a latency-bound stream: {pf:.3} vs {base:.3}"
        );
    }

    #[test]
    fn naive_prefetch_wastes_bandwidth_on_random_access() {
        // A degree-2 next-line prefetcher triples DRAM traffic on a
        // random-access stream for zero hits — the textbook reason
        // scale-out deployments gate or stride-filter their prefetchers.
        let run = |prefetch: u32| {
            let mut cfg = SimConfig::paper_cluster(2000.0);
            cfg.core.prefetch_degree = prefetch;
            let mut sim = ClusterSim::new(cfg, |i| {
                RandomAccessStream::new(512 << 20, 0.3, 6, u64::from(i))
            });
            sim.warm_up(2_000);
            let s = sim.run_measured(15_000);
            (s.uipc(), s.dram.reads)
        };
        let (base, base_reads) = run(0);
        let (pf, pf_reads) = run(2);
        assert!(
            pf_reads > base_reads,
            "useless prefetches add DRAM reads: {pf_reads} vs {base_reads}"
        );
        assert!(
            pf < base,
            "and the wasted bandwidth costs real throughput: {pf:.3} vs {base:.3}"
        );
    }

    /// Write-sharing stream: stores walk a small shared region so ownership
    /// transfers generate invalidations naming high core indices.
    struct SharedWriter {
        count: u64,
        core: u64,
    }

    impl InstructionStream for SharedWriter {
        fn next_instr(&mut self) -> crate::Instr {
            self.count += 1;
            let pc = 0x50_000 + (self.count % 64) * 4;
            if self.count % 3 == 0 {
                // 64 shared lines, offset per core so every core both owns
                // and loses lines.
                crate::Instr::store(pc, ((self.count + self.core * 7) % 64) * 64)
            } else {
                crate::Instr::alu(pc)
            }
        }
    }

    #[test]
    fn sixteen_core_cluster_does_not_overflow_sharer_mask() {
        // Regression: SharerMask was u8, so `1 << core` panicked (debug) or
        // silently wrapped (release) for cores >= 8.
        let mut cfg = SimConfig::paper_cluster(1000.0);
        cfg.cores = 16;
        let mut sim = ClusterSim::new(cfg, |i| SharedWriter {
            count: 0,
            core: u64::from(i),
        });
        // Mark a line shared by the highest cores, then run write traffic
        // that invalidates it and transfers ownership among all 16 cores.
        sim.prewarm_llc([0, 64, 128], 0xFFFF); // shared by all 16 cores
        sim.prewarm_llc([192], 1 << 15); // owned by core 15 alone
        let stats = sim.run(4_000);
        assert_eq!(stats.cores.len(), 16);
        assert!(
            stats.llc.invalidations > 0,
            "write sharing must generate invalidations"
        );
        assert!(stats.user_instrs() > 0);
    }

    #[test]
    fn cluster_is_deterministic() {
        let run = || {
            let mut sim = ClusterSim::new(SimConfig::paper_cluster(1500.0), |i| {
                RandomAccessStream::new(64 << 20, 0.25, 3, u64::from(i))
            });
            sim.run(5_000).user_instrs()
        };
        assert_eq!(run(), run());
    }
}
