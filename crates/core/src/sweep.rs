//! The frequency-sweep engine.
//!
//! For each frequency on the ladder: find the minimum supply voltage,
//! measure the cluster's throughput and traffic, scale to the full chip,
//! and assemble the per-component power breakdown. The result feeds the
//! three-scope efficiency analysis of Figures 3 and 4.
//!
//! Ladder points are independent, so [`FrequencySweep::run`] fans the
//! measurements out over scoped worker threads and reassembles the points
//! in ladder order — results are bit-identical to [`FrequencySweep::run_serial`]
//! regardless of thread timing.

use crate::config::ServerModel;
use crate::efficiency::SweepResult;
use crate::measure::{ClusterMeasurement, ClusterMeasurer, MeasureError};
use ntc_power::{CoreActivity, DramTraffic, PowerBreakdown};
use ntc_tech::{BodyBias, MegaHertz, OperatingPoint, TechError};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One evaluated frequency point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Core frequency in MHz.
    pub mhz: f64,
    /// The DVFS operating point (voltage, bias).
    pub op: OperatingPoint,
    /// Chip-level user instructions per second (cluster UIPS × clusters).
    pub uips: f64,
    /// The cluster measurement behind this point.
    pub cluster: ClusterMeasurement,
    /// Per-component power at this point.
    pub power: PowerBreakdown,
}

/// Errors from a sweep.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SweepError {
    /// No frequency on the ladder was reachable.
    NoReachablePoints,
    /// A technology-model error at a specific frequency.
    Tech {
        /// The frequency being evaluated.
        mhz: f64,
        /// The underlying error.
        source: TechError,
    },
    /// A measurement failure at a specific frequency.
    Measure {
        /// The frequency being measured.
        mhz: f64,
        /// The underlying error.
        source: MeasureError,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::NoReachablePoints => write!(f, "no ladder frequency was reachable"),
            SweepError::Tech { mhz, source } => {
                write!(f, "technology model failed at {mhz} MHz: {source}")
            }
            SweepError::Measure { mhz, source } => {
                write!(f, "measurement failed at {mhz} MHz: {source}")
            }
        }
    }
}

impl Error for SweepError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SweepError::Tech { source, .. } => Some(source),
            SweepError::Measure { source, .. } => Some(source),
            SweepError::NoReachablePoints => None,
        }
    }
}

/// The sweep driver: a frequency ladder plus evaluation policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrequencySweep {
    frequencies: Vec<f64>,
    bias: BodyBias,
}

impl FrequencySweep {
    /// The paper's ladder: 100 MHz to 2 GHz in 100 MHz steps, no body
    /// bias.
    pub fn paper_ladder() -> Self {
        FrequencySweep {
            frequencies: (1..=20).map(|i| f64::from(i) * 100.0).collect(),
            bias: BodyBias::ZERO,
        }
    }

    /// A sweep over explicit frequencies (MHz).
    ///
    /// # Panics
    ///
    /// Panics if `frequencies` is empty or contains non-positive values.
    pub fn over(frequencies: Vec<f64>) -> Self {
        assert!(!frequencies.is_empty(), "empty frequency ladder");
        assert!(
            frequencies.iter().all(|f| f.is_finite() && *f > 0.0),
            "frequencies must be positive"
        );
        FrequencySweep {
            frequencies,
            bias: BodyBias::ZERO,
        }
    }

    /// The ladder.
    pub fn frequencies(&self) -> &[f64] {
        &self.frequencies
    }

    /// The body bias applied at every point.
    pub fn bias(&self) -> BodyBias {
        self.bias
    }

    /// Runs the sweep: measure each reachable frequency and assemble its
    /// power breakdown. Unreachable frequencies (beyond the rated voltage
    /// or below the SRAM floor) are skipped, mirroring the silicon.
    ///
    /// Measurements fan out over scoped worker threads (one per available
    /// core, capped by the ladder length); points are collected back in
    /// ladder order, so the result is identical to
    /// [`FrequencySweep::run_serial`] for any deterministic measurer.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::NoReachablePoints`] if nothing on the ladder
    /// was functional, [`SweepError::Tech`] for unexpected model failures,
    /// or [`SweepError::Measure`] if the measurer failed (the lowest
    /// failing ladder frequency is reported).
    pub fn run<M: ClusterMeasurer + Sync>(
        &self,
        server: &ServerModel,
        measurer: &M,
    ) -> Result<SweepResult, SweepError> {
        let _span = ntc_telemetry::trace::span_cat("sweep", "sweep.run");
        let cache_before = cache_counts();
        let ops = self.reachable_ops(server)?;
        let workers = worker_count(ops.len());
        if workers <= 1 {
            let result = self.finish(server, measurer, ops);
            log_cache_use(cache_before);
            return result;
        }

        // Work-stealing fan-out: each worker pulls the next unclaimed
        // ladder index, so slow points (low frequencies simulate more
        // wall-clock per cycle) don't serialize behind a static split.
        let next = AtomicUsize::new(0);
        let measured: Mutex<Vec<(usize, Result<ClusterMeasurement, MeasureError>)>> =
            Mutex::new(Vec::with_capacity(ops.len()));
        crossbeam::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(mhz, _)) = ops.get(i) else { break };
                    let result = {
                        let _span = ntc_telemetry::trace::span_with("sweep", || {
                            format!("ladder {mhz} MHz")
                        });
                        measurer.measure(mhz)
                    };
                    measured.lock().push((i, result));
                });
            }
        })
        .expect("sweep worker threads");

        let mut measured = measured.into_inner();
        measured.sort_unstable_by_key(|&(i, _)| i);
        let mut points = Vec::with_capacity(ops.len());
        for (i, result) in measured {
            let (mhz, op) = ops[i];
            let cluster = result.map_err(|source| SweepError::Measure { mhz, source })?;
            points.push(self.evaluate(server, op, cluster));
        }
        log_cache_use(cache_before);
        Ok(SweepResult::new(points))
    }

    /// Runs the sweep on the calling thread only. Same contract and same
    /// result as [`FrequencySweep::run`]; useful as a determinism baseline
    /// and for measurers that are not [`Sync`].
    ///
    /// # Errors
    ///
    /// As for [`FrequencySweep::run`].
    pub fn run_serial<M: ClusterMeasurer>(
        &self,
        server: &ServerModel,
        measurer: &M,
    ) -> Result<SweepResult, SweepError> {
        let _span = ntc_telemetry::trace::span_cat("sweep", "sweep.run");
        let cache_before = cache_counts();
        let ops = self.reachable_ops(server)?;
        let result = self.finish(server, measurer, ops);
        log_cache_use(cache_before);
        result
    }

    /// Resolves the DVFS operating point for every reachable ladder
    /// frequency, preserving ladder order.
    fn reachable_ops(
        &self,
        server: &ServerModel,
    ) -> Result<Vec<(f64, OperatingPoint)>, SweepError> {
        let mut ops = Vec::with_capacity(self.frequencies.len());
        for &mhz in &self.frequencies {
            match OperatingPoint::at(server.core_power().timing(), MegaHertz(mhz), self.bias) {
                Ok(op) => ops.push((mhz, op)),
                Err(TechError::FrequencyUnreachable { .. })
                | Err(TechError::FrequencyTooLow { .. }) => {}
                Err(source) => return Err(SweepError::Tech { mhz, source }),
            }
        }
        if ops.is_empty() {
            return Err(SweepError::NoReachablePoints);
        }
        Ok(ops)
    }

    fn finish<M: ClusterMeasurer>(
        &self,
        server: &ServerModel,
        measurer: &M,
        ops: Vec<(f64, OperatingPoint)>,
    ) -> Result<SweepResult, SweepError> {
        let mut points = Vec::with_capacity(ops.len());
        for (mhz, op) in ops {
            let cluster = {
                let _span =
                    ntc_telemetry::trace::span_with("sweep", || format!("ladder {mhz} MHz"));
                measurer.measure(mhz)
            }
            .map_err(|source| SweepError::Measure { mhz, source })?;
            points.push(self.evaluate(server, op, cluster));
        }
        Ok(SweepResult::new(points))
    }

    /// Assembles one sweep point from an operating point and a cluster
    /// measurement, with every core busy (exposed for custom drivers and
    /// ablations).
    pub fn evaluate(
        &self,
        server: &ServerModel,
        op: OperatingPoint,
        cluster: ClusterMeasurement,
    ) -> SweepPoint {
        let n_clusters = f64::from(server.clusters());
        let n_cores = f64::from(server.cores());

        // Chip-level traffic: every cluster contributes; aggregate DRAM
        // bandwidth saturates at the channels' peak.
        let peak = server.dram().config().peak_bandwidth();
        let total_traffic = (cluster.dram_read_bps + cluster.dram_write_bps) * n_clusters;
        let scale = if total_traffic > peak {
            peak / total_traffic
        } else {
            1.0
        };
        let traffic = DramTraffic::new(
            cluster.dram_read_bps * n_clusters * scale,
            cluster.dram_write_bps * n_clusters * scale,
        );
        // If DRAM saturates, chip throughput saturates with it.
        let uips = cluster.uips * n_clusters * scale;

        let power = PowerBreakdown {
            cores_dynamic: server.core_power().dynamic_power(op, CoreActivity::BUSY) * n_cores,
            cores_static: server.core_power().static_power(op, CoreActivity::BUSY) * n_cores,
            llc: server.llc().static_power() * n_clusters
                + server.llc().dynamic_power(cluster.llc_accesses_per_sec) * n_clusters * scale,
            xbar: server.xbar().static_power() * n_clusters
                + server.xbar().dynamic_power(cluster.xbar_flits_per_sec) * n_clusters * scale,
            io: server.io().power(),
            dram_background: server.dram().background_power(),
            dram_dynamic: server.dram().dynamic_power(traffic),
        };
        debug_assert!(power.is_physical(), "unphysical power at {op}");
        SweepPoint {
            mhz: op.frequency.0,
            op,
            uips,
            cluster,
            power,
        }
    }
}

/// Worker threads for a ladder of `jobs` points: one per available core
/// (at least two, so the parallel path is exercised even on constrained
/// machines), never more than there are points.
fn worker_count(jobs: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    jobs.min(cores.max(2))
}

/// Snapshot of the process-wide measurement-cache counters
/// `(hits, misses)`.
fn cache_counts() -> (u64, u64) {
    (
        crate::measure::CACHE_HITS.get(),
        crate::measure::CACHE_MISSES.get(),
    )
}

/// Logs this sweep's measurement-cache use (the counter deltas since
/// `before`) when metrics are enabled and the sweep actually consulted a
/// cache. Sweeps over cacheless measurers stay silent.
fn log_cache_use(before: (u64, u64)) {
    if !ntc_telemetry::metrics_enabled() {
        return;
    }
    let (hits, misses) = cache_counts();
    let (hits, misses) = (hits - before.0, misses - before.1);
    if hits + misses > 0 {
        eprintln!("telemetry: sweep measurement cache: {hits} hits, {misses} misses");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerConfig;
    use crate::measure::TableMeasurer;
    use ntc_power::Scope;
    use ntc_tech::Volts;

    fn server() -> ServerModel {
        ServerConfig::paper().build().unwrap()
    }

    fn run_synthetic() -> SweepResult {
        let m = TableMeasurer::synthetic(3.2, 1.6);
        FrequencySweep::paper_ladder().run(&server(), &m).unwrap()
    }

    #[test]
    fn full_ladder_is_reachable_in_fdsoi() {
        let r = run_synthetic();
        assert_eq!(r.points().len(), 20);
        assert!((r.points()[0].mhz - 100.0).abs() < 1e-9);
        assert!((r.points()[19].mhz - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn voltage_and_power_are_monotone_in_frequency() {
        let r = run_synthetic();
        for w in r.points().windows(2) {
            assert!(w[0].op.vdd <= w[1].op.vdd);
            assert!(w[0].power.cores() < w[1].power.cores());
        }
    }

    #[test]
    fn uncore_power_is_frequency_invariant() {
        let r = run_synthetic();
        let lo = r.points()[0].power;
        let hi = r.points()[19].power;
        assert!((lo.io.0 - hi.io.0).abs() < 1e-12);
        assert!((lo.dram_background.0 - hi.dram_background.0).abs() < 1e-12);
        // LLC/xbar change only through (small) dynamic traffic.
        assert!((lo.llc.0 - hi.llc.0).abs() < lo.llc.0 * 0.2);
    }

    #[test]
    fn chip_power_stays_on_the_100w_scale_at_the_top() {
        let r = run_synthetic();
        let top = r.points().last().unwrap();
        assert!(
            top.power.server().0 > 50.0 && top.power.server().0 < 200.0,
            "server power at 2 GHz: {}",
            top.power.server()
        );
        // At 100 MHz the floor is the frequency-invariant uncore + DRAM
        // background (~38 W) — the paper's energy-proportionality problem.
        let bottom = &r.points()[0];
        assert!(
            bottom.power.server().0 < 45.0,
            "server power at 100 MHz: {}",
            bottom.power.server()
        );
        assert!(
            bottom.power.uncore().0 + bottom.power.dram_background.0
                > bottom.power.server().0 * 0.8,
            "the NT floor must be uncore + memory background"
        );
    }

    #[test]
    fn paper_shape_cores_peak_low_soc_and_server_peak_higher() {
        let r = run_synthetic();
        let (core_best, _) = r.optimum(Scope::Cores).unwrap();
        let (soc_best, _) = r.optimum(Scope::Soc).unwrap();
        let (server_best, _) = r.optimum(Scope::Server).unwrap();
        assert!(
            core_best.mhz <= 300.0,
            "cores-only optimum at the bottom, got {}",
            core_best.mhz
        );
        assert!(
            (600.0..=1400.0).contains(&soc_best.mhz),
            "SoC optimum should be near 1 GHz, got {}",
            soc_best.mhz
        );
        assert!(
            server_best.mhz >= soc_best.mhz,
            "server optimum moves right of the SoC optimum: {} vs {}",
            server_best.mhz,
            soc_best.mhz
        );
        assert!(
            (800.0..=1600.0).contains(&server_best.mhz),
            "server optimum should be 1-1.2 GHz class, got {}",
            server_best.mhz
        );
    }

    #[test]
    fn bulk_ladder_drops_unreachable_points() {
        let mut cfg = ServerConfig::paper();
        cfg.technology = ntc_tech::TechnologyKind::Bulk28;
        let server = cfg.build().unwrap();
        let m = TableMeasurer::synthetic(3.2, 1.6);
        let r = FrequencySweep::paper_ladder().run(&server, &m).unwrap();
        assert!(r.points().len() < 20, "bulk cannot cover the full ladder");
        // Bulk's SRAM floor (0.7 V) also prunes the very bottom.
        assert!(r.points()[0].op.vdd >= Volts(0.69));
    }

    #[test]
    fn parallel_run_matches_serial_exactly() {
        let server = server();
        let m = TableMeasurer::synthetic(3.2, 1.6);
        let sweep = FrequencySweep::paper_ladder();
        let parallel = sweep.run(&server, &m).unwrap();
        let serial = sweep.run_serial(&server, &m).unwrap();
        assert_eq!(parallel.points().len(), serial.points().len());
        for (p, s) in parallel.points().iter().zip(serial.points()) {
            assert_eq!(p, s, "parallel and serial diverge at {} MHz", s.mhz);
        }
    }

    #[test]
    fn measurement_errors_report_the_lowest_failing_frequency() {
        struct FailsAbove(f64);
        impl ClusterMeasurer for FailsAbove {
            fn measure(&self, mhz: f64) -> Result<ClusterMeasurement, MeasureError> {
                if mhz > self.0 {
                    Err(MeasureError::Failed {
                        detail: format!("no data beyond {} MHz", self.0),
                    })
                } else {
                    TableMeasurer::synthetic(3.2, 1.6).measure(mhz)
                }
            }
        }
        let server = server();
        let err = FrequencySweep::paper_ladder()
            .run(&server, &FailsAbove(450.0))
            .unwrap_err();
        match err {
            SweepError::Measure { mhz, .. } => assert!((mhz - 500.0).abs() < 1e-9),
            other => panic!("expected a Measure error, got {other:?}"),
        }
    }

    #[test]
    fn dram_saturation_caps_uips() {
        // A measurer with absurd DRAM traffic must saturate at peak BW.
        let server = server();
        let base = TableMeasurer::synthetic(3.2, 1.6);
        let mut m = base.measure(2000.0).unwrap();
        m.dram_read_bps = 1e12;
        let sweep = FrequencySweep::paper_ladder();
        let op = OperatingPoint::at(
            server.core_power().timing(),
            MegaHertz(2000.0),
            BodyBias::ZERO,
        )
        .unwrap();
        let pt = sweep.evaluate(&server, op, m);
        let peak = server.dram().config().peak_bandwidth();
        let total = pt.power.dram_dynamic.0 / 0.2566e-9; // approx bytes/s
        assert!(total <= peak * 1.05, "traffic capped at channel peak");
        assert!(pt.uips < m.uips * f64::from(server.clusters()));
    }
}
