//! The energy observability plane: windowed energy attribution.
//!
//! The sweep answers the paper's steady-state question (UIPS/W per
//! frequency); operators also want to watch **where the joules go over
//! time** — per window, per component, while a run is in flight. This
//! module bridges the simulator's [`EnergyProbe`](ntc_sim::EnergyProbe)
//! (raw activity deltas, model-free) and the power models: each
//! [`ActivityWindow`] becomes a [`ClusterMeasurement`], is folded through
//! [`FrequencySweep::evaluate`] into a per-component
//! [`PowerBreakdown`](ntc_power::PowerBreakdown), and integrates into an
//! [`EnergyAccount`] — yielding UIPS and watts time series plus windowed
//! energy attribution (dynamic vs static, cores/LLC/xbar/DRAM/IO).
//!
//! Because every power component is linear in its activity *rate* and the
//! windows partition the run exactly (the engine emits boundary samples),
//! the windowed energy sums back to the end-of-run analytic energy — the
//! closure [`RunEnergy::closure_error`] reports and the differential
//! tests enforce. The one intentional exception: the chip-level DRAM
//! bandwidth cap engages per window, so runs that saturate DRAM in bursts
//! may attribute slightly *less* windowed energy than the whole-run
//! average suggests. That is a fidelity gain, not an error; the closure
//! tolerance (0.1 %) absorbs it for the paper's workloads.
//!
//! Collection is opt-in through a process-wide sink: [`arm_energy`] makes
//! every subsequent [`SimMeasurer`](crate::SimMeasurer) measurement
//! attach an `EnergyProbe` and deposit a [`RunActivity`]; [`take_runs`]
//! drains them. Probes observe only, so armed runs stay bit-identical to
//! plain ones (`ntc-diffcheck`'s `energy-probe` oracle pair).

use crate::config::ServerModel;
use crate::measure::ClusterMeasurement;
use crate::sweep::{FrequencySweep, SweepError};
use ntc_power::{EnergyAccount, PowerWindow, Scope};
use ntc_sim::probe::ENERGY_WINDOW_CYCLES;
use ntc_sim::ActivityWindow;
use ntc_tech::{MegaHertz, OperatingPoint, Seconds};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// The raw activity record of one probed measurement run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunActivity {
    /// Core frequency the run executed at (MHz).
    pub mhz: f64,
    /// The whole-run measurement (the analytic reference).
    pub total: ClusterMeasurement,
    /// Cycles in the measured region.
    pub cycles: u64,
    /// Simulated wall-clock of the measured region, picoseconds.
    pub wall_ps: u64,
    /// The per-window activity deltas, in time order.
    pub windows: Vec<ActivityWindow>,
    /// Samples folded into the last window because the preallocated
    /// buffer filled (resolution loss only; totals are preserved).
    pub coalesced: u64,
}

// The process-wide energy sink. Armed measurements deposit their
// RunActivity here; the sweep fans measurements out over worker threads,
// so the buffer is a mutex, and runs land in completion order (sort by
// `mhz` for deterministic presentation).
static SINK_ARMED: AtomicBool = AtomicBool::new(false);
static SINK_WINDOW_CYCLES: AtomicU64 = AtomicU64::new(ENERGY_WINDOW_CYCLES);

fn sink_runs() -> &'static Mutex<Vec<RunActivity>> {
    static RUNS: OnceLock<Mutex<Vec<RunActivity>>> = OnceLock::new();
    RUNS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Arms the energy sink: every subsequent [`SimMeasurer`](crate::SimMeasurer)
/// run attaches an [`EnergyProbe`](ntc_sim::EnergyProbe) with the given
/// window width (cycles; clamped to ≥ 1) and records a [`RunActivity`].
/// Cached measurements never rerun the simulator, so they deposit
/// nothing — arm the sink *before* warming any cache you care about.
pub fn arm_energy(window_cycles: u64) {
    SINK_WINDOW_CYCLES.store(window_cycles.max(1), Ordering::Relaxed);
    SINK_ARMED.store(true, Ordering::Release);
}

/// Disarms the sink and discards any undrained runs.
pub fn disarm_energy() {
    SINK_ARMED.store(false, Ordering::Release);
    sink_runs().lock().clear();
}

/// Whether the sink is currently armed.
pub fn energy_armed() -> bool {
    SINK_ARMED.load(Ordering::Acquire)
}

/// The armed window width in cycles.
pub fn energy_window_cycles() -> u64 {
    SINK_WINDOW_CYCLES.load(Ordering::Relaxed)
}

/// Deposits one probed run into the sink (no-op when disarmed — the
/// check-then-run race on disarm only ever drops a record, never panics).
pub fn record_run(run: RunActivity) {
    if energy_armed() {
        sink_runs().lock().push(run);
    }
}

/// Drains every recorded run, sorted by frequency then start order.
pub fn take_runs() -> Vec<RunActivity> {
    let mut runs = std::mem::take(&mut *sink_runs().lock());
    runs.sort_by(|a, b| a.mhz.total_cmp(&b.mhz));
    runs
}

/// Converts one activity window into the measurement the sweep's power
/// evaluation consumes: counts become rates over the window's simulated
/// duration, mirroring [`ClusterMeasurement::from_stats`].
pub fn window_measurement(window: &ActivityWindow, mhz: f64) -> ClusterMeasurement {
    let secs = window.duration_ps() as f64 * 1e-12;
    let rate = |count: u64| {
        if secs > 0.0 {
            count as f64 / secs
        } else {
            0.0
        }
    };
    let uipc = if window.cycles() == 0 {
        0.0
    } else {
        window.user_instrs as f64 / window.cycles() as f64
    };
    ClusterMeasurement {
        mhz,
        // `SimStats::uips` derives from UIPC and the nominal frequency
        // (not the rounded-period wall clock); mirror it exactly so a
        // single-window run reproduces `from_stats` bit for bit.
        uips: uipc * mhz * 1e6,
        uipc,
        llc_accesses_per_sec: rate(window.llc_accesses()),
        xbar_flits_per_sec: rate(window.xbar_transfers),
        dram_read_bps: rate(window.dram_reads * ntc_sim::LINE_BYTES),
        dram_write_bps: rate(window.dram_writes * ntc_sim::LINE_BYTES),
    }
}

/// One window of the folded energy time series: attribution plus the
/// activity the attribution came from.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindowEnergy {
    /// The per-component power and UIPS across the window (start/end in
    /// seconds from the run origin).
    pub window: PowerWindow,
    /// Window width in reference-clock cycles.
    pub cycles: u64,
    /// Server-scope energy of this window, joules.
    pub server_j: f64,
}

/// The folded energy record of one run: the windowed time series, its
/// integrated account, and the end-of-run analytic reference.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunEnergy {
    /// Core frequency (MHz).
    pub mhz: f64,
    /// Cycles in the measured region.
    pub cycles: u64,
    /// Windows coalesced at the probe's buffer capacity.
    pub coalesced: u64,
    /// The windowed power/UIPS time series.
    pub windows: Vec<WindowEnergy>,
    /// Energy integrated window by window.
    pub windowed: EnergyAccount,
    /// Energy from the whole-run measurement held for the whole run —
    /// what the sweep's steady-state math would report.
    pub analytic: EnergyAccount,
}

impl RunEnergy {
    /// Relative server-scope disagreement between the windowed sum and
    /// the analytic total (0 when both are zero).
    pub fn closure_error(&self) -> f64 {
        let w = self.windowed.total(Scope::Server).0;
        let a = self.analytic.total(Scope::Server).0;
        if a == 0.0 {
            if w == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            ((w - a) / a).abs()
        }
    }

    /// Per-component `(name, windowed J, analytic J)` rows, in
    /// [`PowerBreakdown`](ntc_power::PowerBreakdown) field order.
    pub fn component_energy(&self) -> [(&'static str, f64, f64); 7] {
        let w = &self.windowed;
        let a = &self.analytic;
        [
            ("cores_dynamic", w.cores_dynamic.0, a.cores_dynamic.0),
            ("cores_static", w.cores_static.0, a.cores_static.0),
            ("llc", w.llc.0, a.llc.0),
            ("xbar", w.xbar.0, a.xbar.0),
            ("io", w.io.0, a.io.0),
            ("dram_background", w.dram_background.0, a.dram_background.0),
            ("dram_dynamic", w.dram_dynamic.0, a.dram_dynamic.0),
        ]
    }
}

/// Folds one probed run through the sweep's power evaluation: every
/// activity window becomes a [`PowerWindow`], integrates into the
/// windowed [`EnergyAccount`], and the whole-run measurement provides
/// the analytic reference.
///
/// # Errors
///
/// [`SweepError::Tech`] if the run's frequency has no reachable
/// operating point under `sweep`'s bias on this server.
pub fn fold_run(
    sweep: &FrequencySweep,
    server: &ServerModel,
    run: &RunActivity,
) -> Result<RunEnergy, SweepError> {
    let op = OperatingPoint::at(
        server.core_power().timing(),
        MegaHertz(run.mhz),
        sweep.bias(),
    )
    .map_err(|source| SweepError::Tech {
        mhz: run.mhz,
        source,
    })?;

    let origin_ps = run.windows.first().map_or(0, |w| w.start_ps);
    let mut windows = Vec::with_capacity(run.windows.len());
    let mut windowed = EnergyAccount::new();
    for w in &run.windows {
        let point = sweep.evaluate(server, op, window_measurement(w, run.mhz));
        let window = PowerWindow {
            start: Seconds((w.start_ps - origin_ps) as f64 * 1e-12),
            end: Seconds((w.end_ps - origin_ps) as f64 * 1e-12),
            power: point.power,
            uips: point.uips,
        };
        windowed.add_window(&window);
        windows.push(WindowEnergy {
            window,
            cycles: w.cycles(),
            server_j: window.energy(Scope::Server).0,
        });
    }

    let reference = sweep.evaluate(server, op, run.total);
    let mut analytic = EnergyAccount::new();
    analytic.add_epoch(
        &reference.power,
        Seconds(run.wall_ps as f64 * 1e-12),
        reference.uips,
    );

    Ok(RunEnergy {
        mhz: run.mhz,
        cycles: run.cycles,
        coalesced: run.coalesced,
        windows,
        windowed,
        analytic,
    })
}

/// Folds a batch of runs (e.g. a drained sink), in ascending frequency.
///
/// # Errors
///
/// As for [`fold_run`].
pub fn fold_runs(
    sweep: &FrequencySweep,
    server: &ServerModel,
    runs: &[RunActivity],
) -> Result<Vec<RunEnergy>, SweepError> {
    let mut folded = runs
        .iter()
        .map(|run| fold_run(sweep, server, run))
        .collect::<Result<Vec<_>, _>>()?;
    folded.sort_by(|a, b| a.mhz.total_cmp(&b.mhz));
    Ok(folded)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The sink is process-global; tests that touch it take this lock so
    // the harness's parallel test threads cannot interleave arm/drain.
    fn sink_lock() -> &'static Mutex<()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
    }

    fn synthetic_window(start_cycle: u64, cycles: u64, per_cycle: u64) -> ActivityWindow {
        ActivityWindow {
            start_cycle,
            end_cycle: start_cycle + cycles,
            start_ps: start_cycle * 1000,
            end_ps: (start_cycle + cycles) * 1000,
            user_instrs: cycles * per_cycle,
            instrs: cycles * per_cycle,
            rob_full_cycles: 0,
            llc_hits: cycles / 8,
            llc_misses: cycles / 64,
            xbar_transfers: cycles / 8,
            dram_reads: cycles / 64,
            dram_writes: cycles / 256,
        }
    }

    fn server() -> ServerModel {
        crate::config::ServerConfig::paper().build().unwrap()
    }

    #[test]
    fn sink_round_trips_and_disarm_clears() {
        let _guard = sink_lock().lock();
        disarm_energy();
        assert!(!energy_armed());
        arm_energy(0);
        assert!(energy_armed());
        assert_eq!(energy_window_cycles(), 1, "width clamps to >= 1");
        arm_energy(2048);
        assert_eq!(energy_window_cycles(), 2048);
        let run = RunActivity {
            mhz: 1000.0,
            total: window_measurement(&synthetic_window(0, 4096, 2), 1000.0),
            cycles: 4096,
            wall_ps: 4096 * 1000,
            windows: vec![synthetic_window(0, 4096, 2)],
            coalesced: 0,
        };
        record_run(run.clone());
        let drained = take_runs();
        assert_eq!(drained, vec![run]);
        assert!(take_runs().is_empty(), "drained means drained");
        record_run(RunActivity {
            mhz: 500.0,
            ..drained.into_iter().next().unwrap()
        });
        disarm_energy();
        assert!(take_runs().is_empty(), "disarm discards undrained runs");
    }

    #[test]
    fn take_runs_sorts_by_frequency() {
        let _guard = sink_lock().lock();
        disarm_energy();
        arm_energy(1024);
        for mhz in [1500.0, 500.0, 1000.0] {
            record_run(RunActivity {
                mhz,
                total: window_measurement(&synthetic_window(0, 1024, 2), mhz),
                cycles: 1024,
                wall_ps: 1024 * 1000,
                windows: vec![synthetic_window(0, 1024, 2)],
                coalesced: 0,
            });
        }
        let runs = take_runs();
        disarm_energy();
        let freqs: Vec<f64> = runs.iter().map(|r| r.mhz).collect();
        assert_eq!(freqs, vec![500.0, 1000.0, 1500.0]);
    }

    #[test]
    fn single_window_measurement_matches_from_stats_shape() {
        let w = synthetic_window(0, 4096, 2);
        let m = window_measurement(&w, 1000.0);
        assert!((m.uipc - 2.0).abs() < 1e-12);
        assert!((m.uips - 2.0e9).abs() < 1.0);
        let secs = 4096.0 * 1000.0 * 1e-12;
        assert!((m.dram_read_bps - (4096.0 / 64.0) * 64.0 / secs).abs() < 1e-3);
        assert!((m.llc_accesses_per_sec - (512.0 + 64.0) / secs).abs() < 1e-3);
    }

    #[test]
    fn windowed_energy_closes_against_analytic_for_uniform_activity() {
        // Uniform per-cycle activity: every window measures the same
        // rates as the whole run, so linearity makes the windowed sum
        // exactly the analytic total (no DRAM-cap differential).
        let server = server();
        let sweep = FrequencySweep::paper_ladder();
        let windows: Vec<ActivityWindow> = (0..8)
            .map(|i| synthetic_window(i * 4096, 4096, 2))
            .collect();
        let total_w = {
            let mut all = synthetic_window(0, 8 * 4096, 2);
            all.end_ps = 8 * 4096 * 1000;
            all
        };
        let run = RunActivity {
            mhz: 1000.0,
            total: window_measurement(&total_w, 1000.0),
            cycles: 8 * 4096,
            wall_ps: 8 * 4096 * 1000,
            windows,
            coalesced: 0,
        };
        let folded = fold_run(&sweep, &server, &run).unwrap();
        assert_eq!(folded.windows.len(), 8);
        assert!(
            folded.closure_error() < 1e-9,
            "uniform activity must close exactly, got {}",
            folded.closure_error()
        );
        for (name, w, a) in folded.component_energy() {
            assert!(
                (w - a).abs() <= a.abs() * 1e-9 + 1e-12,
                "component {name}: windowed {w} J vs analytic {a} J"
            );
        }
        // The UIPS series is flat at the run's throughput.
        for we in &folded.windows {
            assert!((we.window.uips - folded.windows[0].window.uips).abs() < 1.0);
            assert!(we.server_j > 0.0);
        }
    }

    #[test]
    fn unreachable_frequency_reports_a_tech_error() {
        let server = server();
        let sweep = FrequencySweep::paper_ladder();
        let run = RunActivity {
            mhz: 10_000.0,
            total: window_measurement(&synthetic_window(0, 1024, 2), 10_000.0),
            cycles: 1024,
            wall_ps: 1024 * 100,
            windows: vec![synthetic_window(0, 1024, 2)],
            coalesced: 0,
        };
        match fold_run(&sweep, &server, &run) {
            Err(SweepError::Tech { mhz, .. }) => assert!((mhz - 10_000.0).abs() < 1e-9),
            other => panic!("expected a Tech error, got {other:?}"),
        }
    }
}
