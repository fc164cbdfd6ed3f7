//! Multi-cluster chip simulation with genuinely shared DRAM channels.
//!
//! The paper simulates one cluster and multiplies by the cluster count,
//! verifying that this preserves trends; the sweep engine additionally caps
//! chip traffic at the channels' peak bandwidth. [`ChipSim`] closes the
//! loop by actually simulating several clusters contending for **one**
//! DDR4 system: each cluster keeps its private LLC and crossbar, but every
//! LLC miss queues at the same four channels, so cross-cluster FR-FCFS
//! interference, bank conflicts and bus serialization are real rather than
//! modelled.
//!
//! Clusters are configured **per instance** via [`ChipConfig`]: each
//! cluster carries its own core class, core count, frequency, LLC and
//! crossbar, so a chip can mix big out-of-order clusters with little
//! in-order ones running in independent clock domains (the engine ticks
//! each lane on its own period against the shared DRAM). The
//! [`ChipSim::new`] constructor keeps the old chip-wide-[`SimConfig`]
//! surface as the homogeneous special case.

use crate::config::{ChipConfig, ClusterConfig, SimConfig};
use crate::core::Core;
use crate::dram::DramSystem;
use crate::engine::{self, Lane};
use crate::instr::InstructionStream;
use crate::llc::{Invalidation, SharerMask};
use crate::memsys::{MemorySystem, SharedDram};
use crate::probe::Probe;
use crate::stats::SimStats;
use std::sync::{Arc, Mutex};

struct ChipCluster<S> {
    config: ClusterConfig,
    cores: Vec<Core>,
    streams: Vec<S>,
    mem: MemorySystem,
    /// This cluster's cycle counter — clusters at different frequencies
    /// advance different cycle counts over the same wall-clock window.
    cycle: u64,
}

/// A chip of `N` (possibly heterogeneous) clusters sharing one DRAM
/// system.
pub struct ChipSim<S> {
    config: ChipConfig,
    clusters: Vec<ChipCluster<S>>,
    dram: SharedDram,
    inv_buf: Vec<Invalidation>,
    probe: Option<Box<dyn Probe>>,
}

impl<S: InstructionStream> ChipSim<S> {
    /// Builds a homogeneous chip of `clusters` identical clusters from a
    /// chip-wide [`SimConfig`]; `make_stream(cluster, core)` supplies each
    /// core's workload.
    ///
    /// # Panics
    ///
    /// Panics if `clusters` is zero or the configuration is structurally
    /// invalid (see [`SimConfig::validate`]).
    pub fn new(config: SimConfig, clusters: u32, make_stream: impl FnMut(u32, u32) -> S) -> Self {
        assert!(clusters > 0, "a chip needs at least one cluster");
        Self::new_chip(ChipConfig::homogeneous(&config, clusters), make_stream)
    }

    /// Builds a chip from a per-cluster [`ChipConfig`];
    /// `make_stream(cluster, core)` supplies each core's workload.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is structurally invalid (see
    /// [`ChipConfig::validate`], which callers can use to get the typed
    /// [`crate::SimConfigError`] instead).
    pub fn new_chip(config: ChipConfig, mut make_stream: impl FnMut(u32, u32) -> S) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid simulator configuration: {e}");
        }
        let dram: SharedDram = Arc::new(Mutex::new(DramSystem::new(config.dram)));
        let clusters = config
            .clusters
            .iter()
            .enumerate()
            .map(|(cl, cc)| ChipCluster {
                config: *cc,
                cores: (0..cc.cores).map(|i| Core::new(i, cc.core)).collect(),
                streams: (0..cc.cores).map(|i| make_stream(cl as u32, i)).collect(),
                mem: MemorySystem::with_shared_dram(cc, Arc::clone(&dram), cl as u32),
                cycle: 0,
            })
            .collect();
        ChipSim {
            config,
            clusters,
            dram,
            inv_buf: Vec::new(),
            probe: None,
        }
    }

    /// Attaches a telemetry probe, sampled at run-window boundaries and
    /// every [`crate::probe::PROBE_EPOCH_CYCLES`] cycles of cluster 0 (the
    /// chip's reference clock). Probes observe only — statistics are
    /// bit-identical with or without one attached. Replaces any previous
    /// probe.
    pub fn attach_probe(&mut self, probe: Box<dyn Probe>) {
        self.probe = Some(probe);
    }

    /// Detaches the probe (if any), returning it.
    pub fn detach_probe(&mut self) -> Option<Box<dyn Probe>> {
        self.probe.take()
    }

    /// The per-cluster configuration in effect.
    pub fn config(&self) -> &ChipConfig {
        &self.config
    }

    /// Number of clusters on the chip.
    pub fn clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Always 0: the engine ticks every cycle. Kept only because the
    /// end-to-end benchmark (`ntcbench`) still reads it for its
    /// `sim.skipped_cycle_ratio` metric; it goes when that metric does.
    pub fn skipped_cycles(&self) -> u64 {
        0
    }

    /// Installs data lines into one cluster-core's L1-D and that cluster's
    /// LLC (checkpoint warming).
    pub fn prewarm_data(&mut self, cluster: u32, core: u32, lines: impl IntoIterator<Item = u64>) {
        let cl = &mut self.clusters[cluster as usize];
        for line in lines {
            cl.cores[core as usize].install_l1d(line);
            cl.mem.install_llc(line, 1 << core);
        }
    }

    /// Installs instruction lines into one cluster-core's L1-I and LLC.
    pub fn prewarm_code(&mut self, cluster: u32, core: u32, lines: impl IntoIterator<Item = u64>) {
        let cl = &mut self.clusters[cluster as usize];
        for line in lines {
            cl.cores[core as usize].install_l1i(line);
            cl.mem.install_llc(line, 1 << core);
        }
    }

    /// Installs shared lines into one cluster's LLC.
    ///
    /// # Panics
    ///
    /// Panics if `sharers` names a core the cluster does not have.
    pub fn prewarm_llc(
        &mut self,
        cluster: u32,
        lines: impl IntoIterator<Item = u64>,
        sharers: SharerMask,
    ) {
        let cl = &mut self.clusters[cluster as usize];
        for line in lines {
            cl.mem.install_llc(line, sharers);
        }
    }

    /// Advances every cluster by `cycles` of *its own* core cycles. On a
    /// homogeneous chip all clusters cover the same wall-clock window; on
    /// a heterogeneous one slower clusters run longer in wall-clock terms
    /// (frequency sweeps measure fixed cycle windows per cluster, matching
    /// the per-cluster measurement discipline). All clusters interleave on
    /// one thread inside [`engine::run_lanes`].
    fn advance(&mut self, cycles: u64) {
        let mut lanes: Vec<Lane<'_, S>> = self
            .clusters
            .iter_mut()
            .map(|cl| Lane {
                cores: &mut cl.cores,
                streams: &mut cl.streams,
                mem: &mut cl.mem,
                period_ps: cl.config.core_period_ps(),
                cycle: cl.cycle,
                end: cl.cycle + cycles,
            })
            .collect();
        engine::run_lanes(&mut lanes, &mut self.inv_buf, self.probe.as_mut());
        let cycles_after: Vec<u64> = lanes.iter().map(|l| l.cycle).collect();
        drop(lanes);
        for (cl, c) in self.clusters.iter_mut().zip(cycles_after) {
            cl.cycle = c;
        }
    }

    /// Runs `cycles` core cycles on every cluster (each on its own clock)
    /// and returns cumulative chip statistics.
    pub fn run(&mut self, cycles: u64) -> SimStats {
        let _span = ntc_telemetry::trace::span_cat("sim", "sim.run");
        self.advance(cycles);
        self.stats()
    }

    /// Runs a measurement window, returning that window's deltas. As in
    /// [`crate::ClusterSim::run_measured`], one snapshot is taken before
    /// the window and the deltas come straight off the live counters.
    pub fn run_measured(&mut self, cycles: u64) -> SimStats {
        let _span = ntc_telemetry::trace::span_cat("sim", "sim.run_measured");
        let before = self.stats();
        self.advance(cycles);
        let cycle0 = self.clusters[0].cycle;
        // One lock for all three DRAM reads: guards born inside a struct
        // literal live to the end of the whole expression, so repeated
        // `lock()` calls there would self-deadlock.
        let (dram, dram_hw, dram_chan_hw) = {
            let d = self.dram.lock().unwrap();
            (
                d.stats(),
                d.queue_depth_high_water() as u64,
                d.channel_queue_high_water(),
            )
        };
        let window = SimStats {
            cores: self
                .clusters
                .iter()
                .flat_map(|cl| cl.cores.iter())
                .zip(before.cores.iter())
                .map(|(c, b)| c.stats().delta_since(b))
                .collect(),
            llc: self.llc_stats().delta_since(&before.llc),
            dram: dram.delta_since(&before.dram),
            xbar_transfers: self.xbar_transfers() - before.xbar_transfers,
            dram_queue_high_water: dram_hw,
            dram_channel_queue_high_water: dram_chan_hw,
            core_mhz: self.clusters[0].config.core_mhz,
            cycles: cycle0 - before.cycles,
            wall_ps: (cycle0 - before.cycles) * self.clusters[0].config.core_period_ps(),
        };
        crate::cluster::record_window_metrics(&window);
        window
    }

    /// Runs a measurement window and returns each cluster's deltas
    /// separately — the heterogeneous sweep's unit of measurement, since
    /// chip-wide UIPC is meaningless across clock domains. Each entry
    /// carries that cluster's cores, LLC, crossbar, frequency and
    /// wall-clock window; the DRAM counters are chip-wide (the channels
    /// are shared) and repeated in every entry.
    pub fn run_measured_clusters(&mut self, cycles: u64) -> Vec<SimStats> {
        let _span = ntc_telemetry::trace::span_cat("sim", "sim.run_measured");
        let before: Vec<SimStats> = (0..self.clusters.len())
            .map(|i| self.cluster_stats(i))
            .collect();
        self.advance(cycles);
        (0..self.clusters.len())
            .map(|i| {
                let b = &before[i];
                let cl = &self.clusters[i];
                let after = self.cluster_stats(i);
                SimStats {
                    cores: after
                        .cores
                        .iter()
                        .zip(b.cores.iter())
                        .map(|(c, pre)| c.delta_since(pre))
                        .collect(),
                    llc: after.llc.delta_since(&b.llc),
                    dram: after.dram.delta_since(&b.dram),
                    xbar_transfers: after.xbar_transfers - b.xbar_transfers,
                    dram_queue_high_water: after.dram_queue_high_water,
                    dram_channel_queue_high_water: after.dram_channel_queue_high_water.clone(),
                    core_mhz: cl.config.core_mhz,
                    cycles: after.cycles - b.cycles,
                    wall_ps: (after.cycles - b.cycles) * cl.config.core_period_ps(),
                }
            })
            .collect()
    }

    /// Chip-wide LLC counters summed across the clusters' private LLCs.
    fn llc_stats(&self) -> crate::llc::LlcStats {
        let mut llc = crate::llc::LlcStats::default();
        for cl in &self.clusters {
            let s = cl.mem.llc_stats();
            llc.hits += s.hits;
            llc.misses += s.misses;
            llc.writebacks += s.writebacks;
            llc.invalidations += s.invalidations;
        }
        llc
    }

    /// Crossbar transfers summed across clusters.
    fn xbar_transfers(&self) -> u64 {
        self.clusters.iter().map(|cl| cl.mem.xbar_transfers()).sum()
    }

    /// Cumulative statistics for one cluster: its cores, LLC and crossbar,
    /// on its own clock. The DRAM counters are the shared chip-wide system
    /// (per-cluster attribution does not exist at the channel level).
    pub fn cluster_stats(&self, cluster: usize) -> SimStats {
        let cl = &self.clusters[cluster];
        let (dram, dram_hw, dram_chan_hw) = {
            let d = self.dram.lock().unwrap();
            (
                d.stats(),
                d.queue_depth_high_water() as u64,
                d.channel_queue_high_water(),
            )
        };
        SimStats {
            cores: cl.cores.iter().map(|c| c.stats().clone()).collect(),
            llc: cl.mem.llc_stats(),
            dram,
            xbar_transfers: cl.mem.xbar_transfers(),
            dram_queue_high_water: dram_hw,
            dram_channel_queue_high_water: dram_chan_hw,
            core_mhz: cl.config.core_mhz,
            cycles: cl.cycle,
            wall_ps: cl.cycle * cl.config.core_period_ps(),
        }
    }

    /// Cumulative chip statistics: all cores across all clusters, with the
    /// shared DRAM counted once. The clock-derived fields (`core_mhz`,
    /// `cycles`, `wall_ps`) report cluster 0 — exact for homogeneous
    /// chips; heterogeneous callers should use
    /// [`ChipSim::cluster_stats`] / [`ChipSim::run_measured_clusters`]
    /// for per-domain rates.
    pub fn stats(&self) -> SimStats {
        let cores = self
            .clusters
            .iter()
            .flat_map(|cl| cl.cores.iter().map(|c| c.stats().clone()))
            .collect();
        let (dram, dram_hw, dram_chan_hw) = {
            let d = self.dram.lock().unwrap();
            (
                d.stats(),
                d.queue_depth_high_water() as u64,
                d.channel_queue_high_water(),
            )
        };
        SimStats {
            cores,
            llc: self.llc_stats(),
            dram,
            xbar_transfers: self.xbar_transfers(),
            dram_queue_high_water: dram_hw,
            dram_channel_queue_high_water: dram_chan_hw,
            core_mhz: self.clusters[0].config.core_mhz,
            cycles: self.clusters[0].cycle,
            wall_ps: self.clusters[0].cycle * self.clusters[0].config.core_period_ps(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streams::{RandomAccessStream, StrideStream};

    #[test]
    fn chip_stats_cover_all_cores_and_one_dram() {
        let mut chip = ChipSim::new(SimConfig::paper_cluster(1000.0), 3, |cl, c| {
            RandomAccessStream::new(64 << 20, 0.3, 4, u64::from(cl) * 8 + u64::from(c))
        });
        let s = chip.run(4_000);
        assert_eq!(s.cores.len(), 12, "3 clusters x 4 cores");
        assert!(s.uipc() > 1.0);
        assert!(s.dram.reads > 0);
    }

    #[test]
    fn channel_sharing_degrades_per_cluster_throughput_under_bandwidth_pressure() {
        // Bandwidth-hungry streams: one cluster alone vs nine sharing the
        // same four channels.
        let per_cluster_uipc = |clusters: u32| {
            let mut chip = ChipSim::new(SimConfig::paper_cluster(2000.0), clusters, |cl, c| {
                StrideStream::new(64, 512 << 20, 0.25 + 0.01 * f64::from(cl * 4 + c))
            });
            chip.run(2_000);
            let s = chip.run_measured(12_000);
            s.uipc() / f64::from(clusters)
        };
        let solo = per_cluster_uipc(1);
        let shared = per_cluster_uipc(9);
        assert!(
            shared < solo * 0.8,
            "nine clusters on four channels must feel the contention: \
             {shared:.3} vs {solo:.3} per cluster"
        );
    }

    #[test]
    fn cache_resident_work_scales_linearly_across_clusters() {
        // L1-resident work doesn't touch DRAM: per-cluster throughput must
        // be unaffected by the cluster count — the regime behind the
        // paper's x9 scaling.
        let per_cluster_uipc = |clusters: u32| {
            let mut chip = ChipSim::new(SimConfig::paper_cluster(2000.0), clusters, |_, c| {
                RandomAccessStream::new(8 << 10, 0.3, 4, u64::from(c))
            });
            // Generous warm-up: all clusters' compulsory misses queue at
            // the same channels at t=0.
            chip.run(30_000);
            chip.run_measured(8_000).uipc() / f64::from(clusters)
        };
        let solo = per_cluster_uipc(1);
        let many = per_cluster_uipc(6);
        assert!(
            (many / solo - 1.0).abs() < 0.05,
            "cache-resident scaling should be linear: {many:.3} vs {solo:.3}"
        );
    }

    #[test]
    fn heterogeneous_clusters_tick_their_own_clocks() {
        // A big 2 GHz cluster and a little 500 MHz one: over the same
        // per-cluster cycle window the big cluster covers a quarter of the
        // wall-clock time and retires far more work per wall-second.
        let mut config = ChipConfig::homogeneous(&SimConfig::paper_cluster(2000.0), 2);
        config.clusters[1] = ClusterConfig::little_cluster(500.0);
        let mut chip = ChipSim::new_chip(config, |cl, c| {
            RandomAccessStream::new(64 << 20, 0.3, 4, u64::from(cl) * 8 + u64::from(c))
        });
        chip.run(6_000);
        let big = chip.cluster_stats(0);
        let little = chip.cluster_stats(1);
        assert_eq!(big.cycles, 6_000);
        assert_eq!(little.cycles, 6_000);
        assert_eq!(big.wall_ps * 4, little.wall_ps);
        assert!(
            big.uips() > 2.0 * little.uips(),
            "a 2 GHz OoO cluster must out-run a 500 MHz in-order one: {} vs {}",
            big.uips(),
            little.uips()
        );
    }

    #[test]
    fn per_cluster_measurement_windows_are_disjoint_deltas() {
        let mut config = ChipConfig::homogeneous(&SimConfig::paper_cluster(1000.0), 2);
        config.clusters[1] = ClusterConfig::little_cluster(700.0);
        let mut chip = ChipSim::new_chip(config, |cl, c| {
            RandomAccessStream::new(64 << 20, 0.3, 4, u64::from(cl) * 8 + u64::from(c))
        });
        chip.run(2_000);
        let windows = chip.run_measured_clusters(3_000);
        assert_eq!(windows.len(), 2);
        for w in &windows {
            assert_eq!(w.cycles, 3_000);
            assert!(w.user_instrs() > 0);
            assert!(w.user_instrs() < chip.stats().user_instrs());
        }
        assert_eq!(windows[0].core_mhz, 1000.0);
        assert_eq!(windows[1].core_mhz, 700.0);
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn zero_clusters_rejected() {
        let _ = ChipSim::new(SimConfig::paper_cluster(1000.0), 0, |_, _| {
            RandomAccessStream::new(1 << 20, 0.3, 4, 0)
        });
    }

    #[test]
    #[should_panic(expected = "cluster 1")]
    fn invalid_cluster_named_in_panic() {
        let mut config = ChipConfig::homogeneous(&SimConfig::paper_cluster(1000.0), 2);
        config.clusters[1].cores = 0;
        let _ = ChipSim::new_chip(config, |_, _| RandomAccessStream::new(1 << 20, 0.3, 4, 0));
    }
}
