//! Refactor-equivalence tests for the per-cluster configuration plane.
//!
//! The `ChipConfig` refactor must be invisible to homogeneous chips: a
//! chip built from N hand-written identical [`ClusterConfig`] entries
//! must produce *bit-identical* [`SimStats`] to the pre-refactor
//! chip-wide-[`SimConfig`] path, and a standalone [`ClusterSim`] must
//! match a 1-cluster [`ChipSim`] built through the new plane — across
//! stream classes and frequencies.

use ntc_sim::streams::{RandomAccessStream, StrideStream};
use ntc_sim::{ChipConfig, ChipSim, ClusterSim, Instr, InstructionStream, SimConfig, SimStats};

/// Two workload classes with very different uncore behaviour: scattered
/// DRAM reads (row misses, long stalls) and dense streaming (row hits,
/// bandwidth bound).
enum TestStream {
    Random(RandomAccessStream),
    Stride(StrideStream),
}

impl InstructionStream for TestStream {
    fn next_instr(&mut self) -> Instr {
        match self {
            TestStream::Random(s) => s.next_instr(),
            TestStream::Stride(s) => s.next_instr(),
        }
    }
}

fn memory_bound(core: u64) -> TestStream {
    TestStream::Random(RandomAccessStream::new(256 << 20, 0.30, 6, 100 + core))
}

fn streaming(core: u64) -> TestStream {
    TestStream::Stride(StrideStream::new(64, 512 << 20, 0.25 + 0.01 * core as f64))
}

type StreamCtor = fn(u64) -> TestStream;
const STREAMS: [(&str, StreamCtor); 2] = [("memory-bound", memory_bound), ("streaming", streaming)];
const FREQS_MHZ: [f64; 2] = [800.0, 2000.0];

/// A `ChipConfig` written out cluster by cluster, *not* built through the
/// `homogeneous` helper — this is the path a heterogeneous caller takes.
fn explicit_chip_config(config: &SimConfig, clusters: u32) -> ChipConfig {
    ChipConfig {
        clusters: (0..clusters).map(|_| config.cluster()).collect(),
        dram: config.dram,
        seed: config.seed,
    }
}

#[test]
fn per_cluster_config_plane_is_invisible_for_homogeneous_chips() {
    for mhz in FREQS_MHZ {
        for (class, make) in STREAMS {
            let config = SimConfig::paper_cluster(mhz);
            let run = |mut chip: ChipSim<TestStream>| -> (SimStats, SimStats) {
                chip.run(2_000);
                let window = chip.run_measured(6_000);
                (window, chip.stats())
            };
            let old = run(ChipSim::new(config, 3, |cl, c| {
                make(u64::from(cl) * 8 + u64::from(c))
            }));
            let new = run(ChipSim::new_chip(
                explicit_chip_config(&config, 3),
                |cl, c| make(u64::from(cl) * 8 + u64::from(c)),
            ));
            assert_eq!(
                old, new,
                "per-cluster config plane changed {class} stats at {mhz} MHz"
            );
        }
    }
}

#[test]
fn cluster_sim_matches_one_cluster_chip_config() {
    for mhz in FREQS_MHZ {
        for (class, make) in STREAMS {
            let config = SimConfig::paper_cluster(mhz);
            let mut cluster = ClusterSim::new(config, |c| make(u64::from(c)));
            let mut chip =
                ChipSim::new_chip(explicit_chip_config(&config, 1), |_, c| make(u64::from(c)));
            cluster.warm_up(2_000);
            chip.run(2_000);
            let cw = cluster.run_measured(6_000);
            let hw = chip.run_measured(6_000);
            assert_eq!(
                cw, hw,
                "1-cluster chip window diverged from cluster for {class} at {mhz} MHz"
            );
            assert_eq!(
                cluster.stats(),
                chip.stats(),
                "1-cluster chip totals diverged from cluster for {class} at {mhz} MHz"
            );
        }
    }
}
