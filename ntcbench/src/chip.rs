//! The `whole-chip` workload: `ChipSim` on the paper's 9-cluster chip,
//! each point beside the estimate the figures compose from one simulated
//! cluster. Homogeneous chips run the synced loop; the big/little mixes
//! of `fig_hetero` run the multiclock loop and are read per clock domain.
//! Stream seeds derive from the benchmark's seed.

use crate::measure::{self, BenchMeasurer, Engine, SimRun};
use crate::pass::Ctx;
use crate::trace;
use ntc_core::{HeteroSweep, SimMeasurer};
use ntc_sim::llc::{LlcStats, SharerMask};
use ntc_sim::{ChipConfig, ChipSim, ClusterConfig, SimConfig, SimStats};
use ntc_workloads::stream::{COLD_CODE_BASE, HOT_BYTES, HOT_CODE_BASE, HOT_CODE_LINES, WARM_BASE};
use ntc_workloads::{CloudSuiteApp, ProfileStream, WorkloadProfile};

/// Warm-up and measured cycles per point, as at fast fidelity.
const WARMUP_CYCLES: u64 = 16_000;
const MEASURE_CYCLES: u64 = 16_000;

#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Every cluster big, at one frequency.
    Homogeneous(f64),
    /// All big clusters but one little one, each class at its frequency.
    Mix { big_mhz: f64, little_mhz: f64 },
}

struct Point {
    app: CloudSuiteApp,
    shape: Shape,
}

fn points() -> Vec<Point> {
    let mut points = Vec::new();
    for app in [CloudSuiteApp::DataServing, CloudSuiteApp::MediaStreaming] {
        for mhz in [300.0, 1000.0, 2000.0] {
            points.push(Point {
                app,
                shape: Shape::Homogeneous(mhz),
            });
        }
    }
    for (big_mhz, little_mhz) in [(1100.0, 1000.0), (500.0, 1900.0)] {
        points.push(Point {
            app: CloudSuiteApp::WebSearch,
            shape: Shape::Mix {
                big_mhz,
                little_mhz,
            },
        });
    }
    points
}

fn label(p: &Point, clusters: u32) -> String {
    match p.shape {
        Shape::Homogeneous(mhz) => format!("{} {clusters}B@{mhz}", p.app),
        Shape::Mix {
            big_mhz,
            little_mhz,
        } => format!("{} {}B@{big_mhz}+1L@{little_mhz}", p.app, clusters - 1),
    }
}

/// One operation per chip point.
pub fn run(ctx: &mut Ctx) {
    let clusters = ctx.server.clusters();
    for p in points() {
        let label = label(&p, clusters);
        ctx.artifact(&[label.as_str()], |ctx| vec![point(ctx, &p, &label)]);
    }
}

fn point(ctx: &mut Ctx, p: &Point, label: &str) -> bool {
    let _span = trace::point_span("bench", || format!("chip {label}"));
    let profile = WorkloadProfile::cloudsuite(p.app);
    let clusters = ctx.server.clusters();
    let (config, engine) = match p.shape {
        Shape::Homogeneous(mhz) => (
            ChipConfig::homogeneous(&SimConfig::paper_cluster(mhz), clusters),
            Engine::Chip,
        ),
        Shape::Mix {
            big_mhz,
            little_mhz,
        } => {
            let mut config = ChipConfig::homogeneous(&SimConfig::paper_cluster(big_mhz), clusters);
            *config.clusters.last_mut().expect("a chip has clusters") =
                ClusterConfig::little_cluster(little_mhz);
            (config, Engine::ChipMulticlock)
        }
    };
    let stats = simulate(ctx.seed, &profile, config, engine);
    let chip_uips: f64 = stats.iter().map(SimStats::uips).sum();

    let big = BenchMeasurer::big(SimMeasurer::fast(profile.clone()).with_seed(ctx.seed));
    let composed = match p.shape {
        Shape::Homogeneous(mhz) => {
            let m = ctx.measure(&big, mhz);
            ctx.evaluate(m).uips
        }
        Shape::Mix {
            big_mhz,
            little_mhz,
        } => {
            let little =
                BenchMeasurer::little(SimMeasurer::fast(profile.clone()).with_seed(ctx.seed));
            ctx.plan(&big);
            ctx.plan(&little);
            let sweep = HeteroSweep::new(vec![big_mhz], vec![little_mhz], vec![(clusters - 1, 1)]);
            match ctx.hetero(sweep, &big, &little)[..] {
                [ref only] => only.uips,
                _ => panic!("one plan composes one point"),
            }
        }
    };

    ctx.digest_lines.push(format!(
        "chip {label} {}",
        serde_json::to_string(&stats).expect("stats serialize")
    ));
    ctx.chip_cluster_cycles += u64::from(clusters) * (WARMUP_CYCLES + MEASURE_CYCLES);
    ctx.notes.push(format!(
        "accuracy: {label}: chip/composed UIPS {:.3} (chip {chip_uips:.4e}, composed {composed:.4e})",
        chip_uips / composed
    ));

    let positive = |x: f64| x.is_finite() && x > 0.0;
    let dram_books_close = stats
        .iter()
        .all(|s| s.dram.row_hits + s.dram.row_misses == s.dram.reads + s.dram.writes);
    positive(chip_uips) && positive(composed) && dram_books_close
}

/// Builds, warms and measures the chip. Returns the measured window:
/// one chip-wide entry for a homogeneous chip, one per cluster otherwise
/// (whose DRAM counters are the shared chip-wide ones, repeated).
fn simulate(
    seed: u64,
    profile: &WorkloadProfile,
    config: ChipConfig,
    engine: Engine,
) -> Vec<SimStats> {
    let clusters = config.clusters.len() as u64;
    let cores: Vec<u32> = config.clusters.iter().map(|c| c.cores).collect();
    let span = trace::span("sim", || "sim.new".to_owned());
    let mut chip = ChipSim::new_chip(config, |cluster, core| {
        ProfileStream::new(
            profile.clone(),
            seed.wrapping_mul(1 << 12) + u64::from(cluster) * 64 + u64::from(core),
        )
    });
    let new_s = span.end();

    // Checkpoint-style warming per cluster, as `prewarm_cluster` does
    // for one cluster.
    let span = trace::span("workloads", || "chip.prewarm".to_owned());
    for (cluster, &n) in cores.iter().enumerate() {
        let cluster = cluster as u32;
        let all_cores: SharerMask = (1 << n) - 1;
        for core in 0..n {
            let hot = ProfileStream::hot_base_for(u64::from(core));
            chip.prewarm_data(cluster, core, (0..HOT_BYTES / 64).map(|i| hot + i * 64));
            chip.prewarm_code(
                cluster,
                core,
                (0..HOT_CODE_LINES).map(|i| HOT_CODE_BASE + i * 64),
            );
        }
        chip.prewarm_llc(
            cluster,
            (0..profile.code_bytes / 64).map(|i| COLD_CODE_BASE + i * 64),
            all_cores,
        );
        chip.prewarm_llc(
            cluster,
            (0..profile.warm_bytes / 64).map(|i| WARM_BASE + i * 64),
            0,
        );
    }
    span.end();

    let span = trace::span("sim", || "sim.warm_up".to_owned());
    chip.run(WARMUP_CYCLES);
    let warm_up_s = span.end();
    let span = trace::span("sim", || "sim.run_measured".to_owned());
    let stats = match engine {
        Engine::Chip => vec![chip.run_measured(MEASURE_CYCLES)],
        _ => chip.run_measured_clusters(MEASURE_CYCLES),
    };
    let run_measured_s = span.end();

    if trace::enabled() {
        let llc = stats.iter().fold(LlcStats::default(), |acc, s| LlcStats {
            hits: acc.hits + s.llc.hits,
            misses: acc.misses + s.llc.misses,
            writebacks: acc.writebacks + s.llc.writebacks,
            invalidations: acc.invalidations + s.llc.invalidations,
        });
        let measured_cluster_cycles = match engine {
            Engine::Chip => stats[0].cycles * clusters,
            _ => stats.iter().map(|s| s.cycles).sum(),
        };
        measure::record(SimRun {
            engine,
            new_s,
            warm_up_s,
            run_measured_s,
            clusters,
            cycles: WARMUP_CYCLES + MEASURE_CYCLES,
            skipped: chip.skipped_cycles(),
            llc: &llc,
            dram: &stats[0].dram,
            measured_cluster_cycles,
            dram_queue_high_water: stats[0].dram_queue_high_water,
        });
    }
    stats
}
