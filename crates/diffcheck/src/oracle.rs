//! The four fast/reference oracle pairs.
//!
//! Each pair runs the same [`CaseShape`] through an optimised path and a
//! simple reference path and demands identical results — bit-identical
//! [`SimStats`] for the simulator pairs, point-identical sweeps, and the
//! structural bucket identity (plus the 2× error bound) for histogram
//! percentiles. The energy-probe pair additionally demands that the
//! probe's activity windows partition the run exactly: every windowed
//! counter must sum back to the cumulative [`SimStats`] total, integer
//! for integer. Any mismatch comes back as a [`Divergence`] whose detail
//! names the first differing counters.

use crate::case::CaseShape;
use ntc_core::{FrequencySweep, ServerConfig, TableMeasurer};
use ntc_sim::{
    ActivityWindow, ChipSim, ClusterSim, EnergyProbe, InstructionStream, Probe, SimStats,
    TimeSeriesProbe,
};
use ntc_telemetry::metrics::{bucket_index, bucket_upper_bound};
use ntc_telemetry::Histogram;
use serde::{Deserialize, Serialize};

/// One fast/reference implementation pair under differential test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OraclePair {
    /// Probed/traced simulation vs a plain run (telemetry must be inert).
    Telemetry,
    /// Parallel frequency sweep vs the serial baseline.
    Sweep,
    /// Histogram p50/p90/p99 vs exact sorted percentiles.
    Percentile,
    /// Energy-probed simulation vs a plain run (bit-identity), plus the
    /// windowed-activity closure: summed window deltas must equal the
    /// cumulative counters exactly.
    EnergyProbe,
}

impl OraclePair {
    /// Every pair, in round-robin order.
    pub const ALL: [OraclePair; 4] = [
        OraclePair::Telemetry,
        OraclePair::Sweep,
        OraclePair::Percentile,
        OraclePair::EnergyProbe,
    ];

    /// The CLI name (`--pair` value).
    pub fn name(self) -> &'static str {
        match self {
            OraclePair::Telemetry => "telemetry",
            OraclePair::Sweep => "sweep",
            OraclePair::Percentile => "percentile",
            OraclePair::EnergyProbe => "energy-probe",
        }
    }

    /// Parses a CLI name back to a pair.
    pub fn parse(s: &str) -> Option<OraclePair> {
        OraclePair::ALL.into_iter().find(|p| p.name() == s)
    }
}

/// A detected fast/reference mismatch.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// The pair that disagreed.
    pub pair: OraclePair,
    /// Human-readable description of the first difference.
    pub detail: String,
}

fn drive<S>(sim: &mut S, shape: &CaseShape) -> (SimStats, SimStats)
where
    S: SimDriver,
{
    if shape.warm_cycles > 0 {
        sim.warm(shape.warm_cycles);
    }
    let window = sim.measure(shape.measure_cycles);
    let total = sim.totals();
    (window, total)
}

/// The tiny common surface of [`ClusterSim`] and [`ChipSim`] the harness
/// needs, so one `drive` loop serves both engines.
trait SimDriver {
    fn warm(&mut self, cycles: u64);
    fn measure(&mut self, cycles: u64) -> SimStats;
    fn totals(&self) -> SimStats;
}

impl<S: InstructionStream> SimDriver for ClusterSim<S> {
    fn warm(&mut self, cycles: u64) {
        self.warm_up(cycles);
    }
    fn measure(&mut self, cycles: u64) -> SimStats {
        self.run_measured(cycles)
    }
    fn totals(&self) -> SimStats {
        self.stats()
    }
}

impl<S: InstructionStream> SimDriver for ChipSim<S> {
    fn warm(&mut self, cycles: u64) {
        self.run(cycles);
    }
    fn measure(&mut self, cycles: u64) -> SimStats {
        self.run_measured(cycles)
    }
    fn totals(&self) -> SimStats {
        self.stats()
    }
}

/// Runs the shape once with `probe` (or none) attached before the
/// warm-up, so windowed probes observe the entire run.
fn run_shape(shape: &CaseShape, probe: Option<Box<dyn Probe>>) -> (SimStats, SimStats) {
    if shape.use_chip {
        let mut sim = ChipSim::new_chip(shape.chip_config(), |cl, c| shape.stream(cl, c));
        if let Some(probe) = probe {
            sim.attach_probe(probe);
        }
        drive(&mut sim, shape)
    } else {
        let mut sim = ClusterSim::new(shape.config, |c| shape.stream(0, c));
        if let Some(probe) = probe {
            sim.attach_probe(probe);
        }
        drive(&mut sim, shape)
    }
}

/// Describes the first difference between two `(window, final)` stat
/// pairs — enough to see *which* counter family diverged without dumping
/// two full structs.
fn describe(a: &(SimStats, SimStats), b: &(SimStats, SimStats)) -> String {
    for (scope, x, y) in [("window", &a.0, &b.0), ("final", &a.1, &b.1)] {
        if x == y {
            continue;
        }
        let mut parts = Vec::new();
        if x.cycles != y.cycles {
            parts.push(format!("cycles {} vs {}", x.cycles, y.cycles));
        }
        if x.wall_ps != y.wall_ps {
            parts.push(format!("wall_ps {} vs {}", x.wall_ps, y.wall_ps));
        }
        if x.user_instrs() != y.user_instrs() {
            parts.push(format!(
                "user_instrs {} vs {}",
                x.user_instrs(),
                y.user_instrs()
            ));
        }
        if x.xbar_transfers != y.xbar_transfers {
            parts.push(format!(
                "xbar_transfers {} vs {}",
                x.xbar_transfers, y.xbar_transfers
            ));
        }
        if x.dram_queue_high_water != y.dram_queue_high_water {
            parts.push(format!(
                "dram_queue_high_water {} vs {}",
                x.dram_queue_high_water, y.dram_queue_high_water
            ));
        }
        if x.dram_channel_queue_high_water != y.dram_channel_queue_high_water {
            parts.push(format!(
                "dram_channel_queue_high_water {:?} vs {:?}",
                x.dram_channel_queue_high_water, y.dram_channel_queue_high_water
            ));
        }
        if x.llc != y.llc {
            parts.push(format!("llc {:?} vs {:?}", x.llc, y.llc));
        }
        if x.dram != y.dram {
            parts.push(format!("dram {:?} vs {:?}", x.dram, y.dram));
        }
        if x.cores != y.cores {
            parts.push("per-core counters differ".to_string());
        }
        return format!("{scope} stats diverge: {}", parts.join("; "));
    }
    "stats diverge".to_string()
}

/// The telemetry oracle: a run with a [`TimeSeriesProbe`] attached must
/// be bit-identical to a plain run. `mutate` plants the harness
/// self-test's fault on the probed side only: its DRAM CAS latency is one
/// clock longer than the case's, which moves the statistics of any case
/// whose misses reach DRAM.
fn check_telemetry(shape: &CaseShape, mutate: bool) -> Option<Divergence> {
    let probe = Some(Box::new(TimeSeriesProbe::new()) as Box<dyn Probe>);
    let probed = if mutate {
        let mut faulty = shape.clone();
        faulty.config.dram.cl += 1;
        run_shape(&faulty, probe)
    } else {
        run_shape(shape, probe)
    };
    let plain = run_shape(shape, None);
    (probed != plain).then(|| Divergence {
        pair: OraclePair::Telemetry,
        detail: describe(&probed, &plain),
    })
}

fn check_sweep(shape: &CaseShape) -> Option<Divergence> {
    let spec = &shape.sweep;
    let server = ServerConfig::paper().build().expect("paper server model");
    let measurer = TableMeasurer::synthetic(spec.uipc_low, spec.uipc_high);
    let sweep = FrequencySweep::over(spec.ladder.clone());
    let parallel = sweep.run(&server, &measurer);
    let serial = sweep.run_serial(&server, &measurer);
    let detail = match (parallel, serial) {
        (Ok(p), Ok(s)) => {
            if p.points() == s.points() {
                return None;
            }
            let first = p
                .points()
                .iter()
                .zip(s.points())
                .find(|(a, b)| a != b)
                .map(|(a, b)| format!("first differing point: {a:?} vs {b:?}"))
                .unwrap_or_else(|| {
                    format!("point counts {} vs {}", p.points().len(), s.points().len())
                });
            format!("parallel and serial sweeps disagree: {first}")
        }
        (Err(a), Err(b)) => {
            if a == b {
                return None;
            }
            format!("sweep errors disagree: {a:?} vs {b:?}")
        }
        (Ok(_), Err(e)) => format!("parallel succeeded but serial failed: {e:?}"),
        (Err(e), Ok(_)) => format!("serial succeeded but parallel failed: {e:?}"),
    };
    Some(Divergence {
        pair: OraclePair::Sweep,
        detail,
    })
}

fn check_percentile(shape: &CaseShape) -> Option<Divergence> {
    let samples = shape.percentile.samples();
    let hist = Histogram::new();
    for &v in &samples {
        hist.record(v);
    }
    let snap = hist.snapshot();
    let mut sorted = samples;
    sorted.sort_unstable();
    let n = sorted.len() as f64;
    for p in [0.50, 0.90, 0.99] {
        let rank = ((p * n).ceil() as u64).max(1) as usize;
        let exact = sorted[rank - 1];
        let got = snap.percentile(p);
        // Structural identity: the histogram must answer with the upper
        // bound of the bucket the exact percentile falls in (clamped to
        // the recorded max) — same rank convention, bucketed value.
        let want = bucket_upper_bound(bucket_index(exact)).min(snap.max);
        if got != want {
            return Some(Divergence {
                pair: OraclePair::Percentile,
                detail: format!(
                    "p{:02} bucket identity broken: histogram {got}, expected {want} \
                     (exact {exact}, bucket {})",
                    (p * 100.0) as u32,
                    bucket_index(exact)
                ),
            });
        }
        // Error bound: power-of-two buckets overestimate by at most 2×
        // and never underestimate.
        if got < exact || (exact > 0 && got > exact.saturating_mul(2)) {
            return Some(Divergence {
                pair: OraclePair::Percentile,
                detail: format!(
                    "p{:02} outside the 2x bound: histogram {got}, exact {exact}",
                    (p * 100.0) as u32
                ),
            });
        }
    }
    None
}

/// The integer activity counters every [`ActivityWindow`] must close
/// over: `(name, summed over windows, cumulative total)` triples.
fn closure_counters(
    windows: &[ActivityWindow],
    totals: &SimStats,
) -> [(&'static str, u64, u64); 7] {
    let sum = |field: fn(&ActivityWindow) -> u64| windows.iter().map(field).sum::<u64>();
    [
        ("user_instrs", sum(|w| w.user_instrs), totals.user_instrs()),
        ("instrs", sum(|w| w.instrs), totals.instrs()),
        ("llc_hits", sum(|w| w.llc_hits), totals.llc.hits),
        ("llc_misses", sum(|w| w.llc_misses), totals.llc.misses),
        (
            "xbar_transfers",
            sum(|w| w.xbar_transfers),
            totals.xbar_transfers,
        ),
        ("dram_reads", sum(|w| w.dram_reads), totals.dram.reads),
        ("dram_writes", sum(|w| w.dram_writes), totals.dram.writes),
    ]
}

/// The energy-probe oracle: a run with an [`EnergyProbe`] attached must
/// be bit-identical to a plain run, and the probe's windows must
/// partition the run — contiguous on the cycle axis from zero to the
/// final cycle, with every activity counter summing back to the
/// cumulative total exactly (integers, no tolerance).
fn check_energy_probe(shape: &CaseShape) -> Option<Divergence> {
    let pair = OraclePair::EnergyProbe;
    // A case-derived width that leaves boundaries mid-run, so the check
    // exercises multi-window folding rather than one giant window.
    let window_cycles = (shape.measure_cycles / 7).max(1);
    let probe = EnergyProbe::with_window(window_cycles);
    let handle = probe.handle();
    let probed = run_shape(shape, Some(Box::new(probe)));
    let plain = run_shape(shape, None);
    if probed != plain {
        return Some(Divergence {
            pair,
            detail: format!(
                "probed run not bit-identical: {}",
                describe(&probed, &plain)
            ),
        });
    }
    let windows = handle.finish();
    let totals = &probed.1;
    let mut cursor = 0u64;
    for (i, w) in windows.iter().enumerate() {
        if w.start_cycle != cursor {
            return Some(Divergence {
                pair,
                detail: format!(
                    "window {i} starts at cycle {} but the previous ended at {cursor}",
                    w.start_cycle
                ),
            });
        }
        cursor = w.end_cycle;
    }
    if cursor != totals.cycles {
        return Some(Divergence {
            pair,
            detail: format!(
                "windows cover cycles 0..{cursor} but the run spans 0..{}",
                totals.cycles
            ),
        });
    }
    for (name, windowed, cumulative) in closure_counters(&windows, totals) {
        if windowed != cumulative {
            return Some(Divergence {
                pair,
                detail: format!(
                    "activity closure broken: windows sum {name} to {windowed}, \
                     cumulative stats say {cumulative}"
                ),
            });
        }
    }
    None
}

/// Checks one oracle pair on one case. `mutate` plants the harness
/// self-test's fault, a DRAM CAS latency one clock longer, on the probed
/// side of the [`OraclePair::Telemetry`] pair only, so only that pair
/// should trip; the other pairs ignore it, keeping mutation detection
/// cleanly attributable.
pub fn check(pair: OraclePair, shape: &CaseShape, mutate: bool) -> Option<Divergence> {
    match pair {
        OraclePair::Telemetry => check_telemetry(shape, mutate),
        OraclePair::Sweep => check_sweep(shape),
        OraclePair::Percentile => check_percentile(shape),
        OraclePair::EnergyProbe => check_energy_probe(shape),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_names_round_trip() {
        for pair in OraclePair::ALL {
            assert_eq!(OraclePair::parse(pair.name()), Some(pair));
        }
        assert_eq!(OraclePair::parse("nonsense"), None);
    }

    #[test]
    fn a_small_case_passes_every_pair() {
        let shape = CaseShape::generate(0xACCE55, 0);
        for pair in OraclePair::ALL {
            assert!(
                check(pair, &shape, false).is_none(),
                "pair {} diverged on a clean tree",
                pair.name()
            );
        }
    }

    #[test]
    fn describe_names_the_differing_counter() {
        let shape = CaseShape::generate(0xACCE55, 1);
        let a = run_shape(&shape, None);
        let mut b = a.clone();
        b.0.xbar_transfers += 1;
        let msg = describe(&a, &b);
        assert!(msg.contains("xbar_transfers"), "{msg}");
        assert!(msg.contains("window"), "{msg}");
    }
}
