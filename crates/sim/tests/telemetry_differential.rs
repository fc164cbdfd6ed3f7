//! Telemetry must be observation-only: a probed (and, when the
//! `telemetry` feature is on, traced) run produces **bit-identical**
//! `SimStats` to a plain run — across ≥2 stream classes × 2 frequencies,
//! for both the cluster and the chip simulator.

use ntc_sim::streams::{RandomAccessStream, StrideStream};
use ntc_sim::{
    ChipConfig, ChipSim, ClusterConfig, ClusterSim, EnergyProbe, SimConfig, SimStats,
    TimeSeriesProbe,
};

const WARM: u64 = 2_000;
const MEASURE: u64 = 10_000;

#[derive(Clone, Copy)]
enum StreamClass {
    Random,
    Stride,
}

fn cluster_stats(class: StreamClass, mhz: f64, probed: bool) -> (SimStats, usize) {
    // When the harness runs with the telemetry feature + NTC_TRACE=1,
    // the probed runs are also span-traced — the differential then
    // covers tracing too. Stats must not care either way.
    let mut sim = match class {
        StreamClass::Random => ClusterSim::new(SimConfig::paper_cluster(mhz), |i| {
            Box::new(RandomAccessStream::new(
                256 << 20,
                0.30,
                6,
                100 + u64::from(i),
            )) as Box<dyn ntc_sim::InstructionStream>
        }),
        StreamClass::Stride => ClusterSim::new(SimConfig::paper_cluster(mhz), |i| {
            Box::new(StrideStream::new(64, 512 << 20, 0.3 + 0.01 * f64::from(i)))
                as Box<dyn ntc_sim::InstructionStream>
        }),
    };
    let samples = if probed {
        let probe = TimeSeriesProbe::new();
        let handle = probe.samples();
        sim.attach_probe(Box::new(probe));
        Some(handle)
    } else {
        None
    };
    sim.warm_up(WARM);
    let stats = sim.run_measured(MEASURE);
    let n = samples.map_or(0, |s| s.borrow().len());
    (stats, n)
}

#[test]
fn probed_cluster_stats_are_bit_identical() {
    for class in [StreamClass::Random, StreamClass::Stride] {
        for mhz in [500.0, 2000.0] {
            let (plain, _) = cluster_stats(class, mhz, false);
            let (probed, samples) = cluster_stats(class, mhz, true);
            assert_eq!(
                plain, probed,
                "probed run must not perturb stats ({mhz} MHz)"
            );
            assert!(
                samples > 0,
                "the probe must actually collect samples ({mhz} MHz)"
            );
        }
    }
}

#[test]
fn probe_samples_are_ordered_and_consistent() {
    let (_, _) = cluster_stats(StreamClass::Random, 1000.0, false);
    let mut sim = ClusterSim::new(SimConfig::paper_cluster(1000.0), |i| {
        RandomAccessStream::new(256 << 20, 0.30, 6, 100 + u64::from(i))
    });
    let probe = TimeSeriesProbe::new();
    let samples = probe.samples();
    sim.attach_probe(Box::new(probe));
    sim.run(12_000);
    let final_stats = sim.stats();
    let samples = samples.borrow();
    assert!(!samples.is_empty());
    for pair in samples.windows(2) {
        assert!(
            pair[0].cycle < pair[1].cycle,
            "samples must advance in time"
        );
    }
    for s in samples.iter() {
        assert!(s.cycle <= 12_000);
        assert_eq!(s.now_ps, s.cycle * 1000, "1 GHz -> 1000 ps per cycle");
        assert!(s.dram_row_hits <= final_stats.dram.row_hits);
        assert!(s.dram_row_misses <= final_stats.dram.row_misses);
        assert!(
            u64::from(s.dram_channel_depths.iter().copied().sum::<u32>()) == s.dram_pending,
            "per-channel depths must sum to the total pending count"
        );
        assert!((0.0..=1.0).contains(&s.row_hit_rate()));
    }
    assert_eq!(
        final_stats.dram_queue_high_water,
        sim.dram_queue_high_water() as u64,
        "serialized high-water mark must match the accessor"
    );
}

#[test]
fn probed_chip_stats_are_bit_identical() {
    let run = |probed: bool| {
        let mut chip = ChipSim::new(SimConfig::paper_cluster(1000.0), 3, |cl, c| {
            RandomAccessStream::new(64 << 20, 0.3, 4, u64::from(cl) * 8 + u64::from(c))
        });
        let samples = if probed {
            let probe = TimeSeriesProbe::new();
            let handle = probe.samples();
            chip.attach_probe(Box::new(probe));
            Some(handle)
        } else {
            None
        };
        let stats = chip.run(6_000);
        (stats, samples.map_or(0, |s| s.borrow().len()))
    };
    let (plain, _) = run(false);
    let (probed, samples) = run(true);
    assert_eq!(plain, probed, "chip stats must not see the probe");
    assert!(samples > 0);
}

/// A big/little chip — 2 GHz paper cluster beside a 500 MHz little
/// cluster — exercising the multiclock engine loop, with warm-up and a
/// measurement window so probes see run-window boundaries too.
fn hetero_chip_stats(probed: bool) -> (SimStats, SimStats, usize) {
    let mut config = ChipConfig::homogeneous(&SimConfig::paper_cluster(2000.0), 2);
    config.clusters[1] = ClusterConfig::little_cluster(500.0);
    let mut chip = ChipSim::new_chip(config, |cl, c| {
        RandomAccessStream::new(64 << 20, 0.3, 4, u64::from(cl) * 8 + u64::from(c))
    });
    let samples = if probed {
        let probe = TimeSeriesProbe::new();
        let handle = probe.samples();
        chip.attach_probe(Box::new(probe));
        Some(handle)
    } else {
        None
    };
    chip.run(WARM);
    let window = chip.run_measured(MEASURE);
    let totals = chip.stats();
    (window, totals, samples.map_or(0, |s| s.borrow().len()))
}

#[test]
fn probed_hetero_chip_stats_are_bit_identical() {
    let (plain_window, plain_totals, _) = hetero_chip_stats(false);
    let (probed_window, probed_totals, samples) = hetero_chip_stats(true);
    assert_eq!(
        plain_window, probed_window,
        "probed mixed-frequency window must match plain"
    );
    assert_eq!(
        plain_totals, probed_totals,
        "probed mixed-frequency totals must match plain"
    );
    assert!(samples > 0, "the probe must collect samples");
}

// The energy probe's closure guarantee on the multiclock loop: windows
// partition the reference-lane cycle axis exactly, and every activity
// counter sums back to the cumulative chip totals — including the little
// cluster's commits after the reference lane freezes at its window end.
#[test]
fn hetero_chip_energy_windows_close_over_the_run() {
    let mut config = ChipConfig::homogeneous(&SimConfig::paper_cluster(2000.0), 2);
    config.clusters[1] = ClusterConfig::little_cluster(500.0);
    let mut chip = ChipSim::new_chip(config, |cl, c| {
        RandomAccessStream::new(64 << 20, 0.3, 4, u64::from(cl) * 8 + u64::from(c))
    });
    let probe = EnergyProbe::with_window(MEASURE / 8);
    let handle = probe.handle();
    chip.attach_probe(Box::new(probe));
    chip.run(WARM);
    chip.run_measured(MEASURE);
    let totals = chip.stats();
    let windows = handle.finish();
    assert!(windows.len() > 2, "expected several windows");
    let mut cursor = 0;
    for w in &windows {
        assert_eq!(w.start_cycle, cursor, "windows must tile contiguously");
        cursor = w.end_cycle;
    }
    assert_eq!(cursor, totals.cycles, "windows must span the whole run");
    let sum = |field: fn(&ntc_sim::ActivityWindow) -> u64| windows.iter().map(field).sum::<u64>();
    assert_eq!(sum(|w| w.user_instrs), totals.user_instrs());
    assert_eq!(sum(|w| w.instrs), totals.instrs());
    assert_eq!(sum(|w| w.llc_hits), totals.llc.hits);
    assert_eq!(sum(|w| w.llc_misses), totals.llc.misses);
    assert_eq!(sum(|w| w.xbar_transfers), totals.xbar_transfers);
    assert_eq!(sum(|w| w.dram_reads), totals.dram.reads);
    assert_eq!(sum(|w| w.dram_writes), totals.dram.writes);
}

// With the telemetry feature compiled in, force tracing on around a
// probed run and prove stats still match a plain run — the strongest
// form of the differential (spans + probe + metrics machinery all live).
#[cfg(feature = "telemetry")]
#[test]
fn traced_cluster_stats_are_bit_identical() {
    let (plain, _) = cluster_stats(StreamClass::Random, 2000.0, false);
    ntc_telemetry::set_tracing(true);
    ntc_telemetry::set_metrics(true);
    let (traced, samples) = cluster_stats(StreamClass::Random, 2000.0, true);
    ntc_telemetry::set_tracing(false);
    ntc_telemetry::set_metrics(false);
    assert_eq!(plain, traced, "tracing must not perturb simulation stats");
    assert!(samples > 0);
}
