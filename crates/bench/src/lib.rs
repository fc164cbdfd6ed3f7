//! Regenerators for every table and figure in the paper's evaluation.
//!
//! Each `fig*`/`table*` function computes the corresponding artifact as
//! [`ntc_core::report::Figure`] data; the `src/bin/*` binaries print the
//! tables (and emit JSON under `results/`), and the `ntcbench` benchmark
//! times the same computations end to end.
//!
//! | artifact | function | binary |
//! |---|---|---|
//! | Figure 1 (Vdd & power vs f, 3 technologies) | [`fig1_curves`] | `fig1` |
//! | Figure 2 (normalized L99 vs f, 4 apps) | [`fig2_qos`] | `fig2` |
//! | Figure 3a/b/c (scale-out efficiency) | [`fig3_efficiency`] | `fig3` |
//! | Figure 4a/b/c (VM efficiency) | [`fig4_efficiency`] | `fig4` |
//! | Table I (DDR4 chip energy) | [`table1_dram`] | `table1` |
//! | LPDDR4 ablation | [`ablation_lpddr4`] | `ablation_lpddr4` |
//! | Body-bias ablation | [`ablation_bias`] | `ablation_bias` |
//! | Uncore-proportionality ablation | [`ablation_uncore`] | `ablation_uncore` |
//! | Consolidation ablation | [`ablation_consolidation`] | `ablation_consolidation` |

use ntc_core::report::{Figure, Series};
use ntc_core::{
    iso_power, iso_qos, pareto_frontier, ClusterMeasurer, ConsolidationPlan, Consolidator,
    FrequencySweep, HeteroPoint, HeteroSweep, MeasurementCache, MeasurementStore, ServerConfig,
    ServerModel, SimMeasurer, SweepResult,
};
use ntc_power::{
    BiasOptimizer, CoreActivity, CorePowerModel, DramConfig, DramPowerModel, DramTechnology,
    LlcLeakageMode, LlcPowerModel, Scope,
};
use ntc_qos::QosCurve;
use ntc_sampling::SampleWindow;
use ntc_sim::ClusterConfig;
use ntc_tech::{BodyBias, CoreClass, CoreModel, MegaHertz, Technology, TechnologyKind};
use ntc_workloads::{BitbrainsSynthesizer, CloudSuiteApp, WorkloadProfile};
use std::sync::{Arc, OnceLock};

/// Measurement fidelity for the simulator-backed figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Short windows (16 K/16 K cycles): seconds per figure; the shape is
    /// already stable.
    Fast,
    /// The paper's SMARTS windows (100 K/50 K; 2 M/400 K for Data
    /// Serving): minutes per figure.
    Paper,
}

impl Fidelity {
    /// Reads `NTC_FIDELITY` from the environment: `paper` or `fast`
    /// (the default when unset). An unrecognized value warns on stderr
    /// (once per process, via [`ntc_telemetry::env`]) and falls back to
    /// fast rather than silently running the wrong windows.
    pub fn from_env() -> Self {
        ntc_telemetry::env::parse_or("NTC_FIDELITY", Fidelity::Fast, |value| {
            Self::parse(value).map_err(|err| format!("{err}; defaulting to fast fidelity"))
        })
    }

    /// Parses a fidelity name.
    ///
    /// # Errors
    ///
    /// Describes the accepted values when `value` is neither `fast` nor
    /// `paper`.
    pub fn parse(value: &str) -> Result<Self, String> {
        match value {
            "fast" => Ok(Fidelity::Fast),
            "paper" => Ok(Fidelity::Paper),
            other => Err(format!(
                "unknown NTC_FIDELITY value {other:?} (expected \"fast\" or \"paper\")"
            )),
        }
    }

    fn measurer(self, profile: WorkloadProfile) -> SimMeasurer {
        match self {
            Fidelity::Fast => SimMeasurer::fast(profile),
            Fidelity::Paper => {
                let window = if profile.name == "Data Serving" {
                    SampleWindow::paper_data_serving()
                } else {
                    SampleWindow::paper_default()
                };
                SimMeasurer::new(profile).with_window(window)
            }
        }
    }
}

/// The paper's server model.
pub fn paper_server() -> ServerModel {
    ServerConfig::paper()
        .build()
        .expect("the paper configuration is valid")
}

/// Where the shared store persists when `NTC_CACHE=1`.
pub const CACHE_PATH: &str = "results/cache/measurements.json";

/// The process-wide measurement store. Every figure and ablation routes
/// its simulated sweeps through this one store, so e.g. Figure 3 reuses
/// the CloudSuite ladders Figure 2 already simulated instead of
/// re-running the cluster simulator.
///
/// In-memory by default; set `NTC_CACHE=1` (or any truthy spelling —
/// see [`ntc_telemetry::env::flag`]) to also load/save [`CACHE_PATH`]
/// (see [`save_shared_store`]), which carries sweeps across process
/// runs. The key fingerprints the measurement inputs
/// (profile, window, seed, prefetch degree, frequency) but not the
/// simulator itself — delete the file after changing `ntc-sim`.
pub fn shared_store() -> Arc<MeasurementStore> {
    static STORE: OnceLock<Arc<MeasurementStore>> = OnceLock::new();
    STORE
        .get_or_init(|| {
            let persist = ntc_telemetry::env::flag("NTC_CACHE");
            Arc::new(if persist {
                MeasurementStore::with_persistence(CACHE_PATH)
            } else {
                MeasurementStore::new()
            })
        })
        .clone()
}

/// Writes the shared store back to [`CACHE_PATH`] (no-op unless
/// `NTC_CACHE=1`) and reports its hit/miss counters. The binaries call
/// this after emitting their artifacts.
pub fn save_shared_store() {
    let store = shared_store();
    if let Err(err) = store.save() {
        eprintln!("warning: could not save the measurement cache: {err}");
    }
    let (hits, misses) = (store.hits(), store.misses());
    if hits + misses > 0 {
        eprintln!("measurement cache: {hits} hits, {misses} misses");
    }
}

// --------------------------------------------------------------- Telemetry

/// Where the figure binaries write telemetry artifacts
/// (`<name>.trace.json` Chrome traces, `<name>.metrics.jsonl` metric
/// snapshots, `<name>.energy.jsonl` windowed energy attribution).
pub const TELEMETRY_DIR: &str = "results/telemetry";

/// Per-binary telemetry driver: parses `--trace` / `--metrics` /
/// `--energy` from the command line, arms the runtime switches, and on
/// [`TelemetryRun::finish`] exports whatever was collected.
///
/// `--trace` and `--metrics` are sugar for `NTC_TRACE=1` / `NTC_METRICS=1`
/// — either spelling works, and [`TelemetryRun::finish`] exports whenever
/// the corresponding switch ended up on. Without the `telemetry` cargo
/// feature both are compile-time no-ops; requesting them then earns a
/// warning instead of silently dropping data.
///
/// `--energy` (or `NTC_ENERGY=1`) arms the energy observability plane —
/// it rides the probe machinery, not the telemetry switches, so it works
/// in every build. Window width comes from `NTC_ENERGY_WINDOW` (cycles).
/// When tracing is also on, the folded power rails additionally land in
/// the Chrome trace as counter tracks.
pub struct TelemetryRun {
    name: &'static str,
    energy: bool,
}

impl TelemetryRun {
    /// Parses the process arguments for `--trace` / `--metrics` /
    /// `--energy` and arms telemetry accordingly; `name` stems the
    /// artifact file names. Unknown arguments warn and are ignored (the
    /// figure binaries take no other arguments).
    pub fn from_args(name: &'static str) -> Self {
        let mut requested = false;
        let mut energy = ntc_telemetry::env::flag("NTC_ENERGY");
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--trace" => {
                    requested = true;
                    ntc_telemetry::set_tracing(true);
                }
                "--metrics" => {
                    requested = true;
                    ntc_telemetry::set_metrics(true);
                }
                "--energy" => energy = true,
                other => eprintln!(
                    "warning: unknown argument {other:?} \
                     (expected --trace, --metrics or --energy)"
                ),
            }
        }
        if requested && !ntc_telemetry::compiled() {
            eprintln!(
                "warning: telemetry requested but compiled out; \
                 rebuild with `--features ntc-bench/telemetry`"
            );
        }
        if energy {
            ntc_core::arm_energy(ntc_telemetry::env::parse_or(
                "NTC_ENERGY_WINDOW",
                ntc_sim::probe::ENERGY_WINDOW_CYCLES,
                |v| {
                    v.trim()
                        .parse::<u64>()
                        .map_err(|e| format!("NTC_ENERGY_WINDOW {v:?}: {e}"))
                        .and_then(|w| {
                            if w == 0 {
                                Err("NTC_ENERGY_WINDOW must be positive".to_owned())
                            } else {
                                Ok(w)
                            }
                        })
                },
            ));
        }
        TelemetryRun { name, energy }
    }

    /// Exports collected telemetry under [`TELEMETRY_DIR`]: the Chrome
    /// trace (open in Perfetto or about:tracing) if tracing is on, and
    /// the metrics JSONL plus a stderr summary table if metrics are on.
    pub fn finish(&self) {
        if ntc_telemetry::tracing_enabled() {
            let path = format!("{TELEMETRY_DIR}/{}.trace.json", self.name);
            match ntc_telemetry::trace::write_chrome_trace(&path) {
                Ok(n) => eprintln!(
                    "telemetry: wrote {n} trace events to {path} \
                     (load in Perfetto or chrome://tracing)"
                ),
                Err(err) => eprintln!("warning: could not write {path}: {err}"),
            }
        }
        if ntc_telemetry::metrics_enabled() {
            let snapshots = ntc_telemetry::Registry::global().snapshot();
            let path = format!("{TELEMETRY_DIR}/{}.metrics.jsonl", self.name);
            match ntc_telemetry::metrics::write_jsonl(&path) {
                Ok(n) => eprintln!("telemetry: wrote {n} metric snapshots to {path}"),
                Err(err) => eprintln!("warning: could not write {path}: {err}"),
            }
            if !snapshots.is_empty() {
                eprint!("{}", ntc_telemetry::metrics::summary_table(&snapshots));
            }
        }
        if self.energy {
            self.export_energy();
        }
    }

    /// Drains the energy sink, folds every probed run through the paper
    /// server's power models, and writes `<name>.energy.jsonl`: one
    /// `"run"` summary line per simulated measurement (windowed vs
    /// analytic energy and their closure) followed by its `"window"`
    /// time-series lines. With tracing also on, the power/UIPS rails
    /// additionally land in the Chrome trace as counter ("C") tracks.
    fn export_energy(&self) {
        let runs = ntc_core::take_runs();
        ntc_core::disarm_energy();
        if runs.is_empty() {
            eprintln!(
                "telemetry: energy was armed but no run activity was recorded \
                 (every measurement came from the cache?)"
            );
            return;
        }
        let server = paper_server();
        let sweep = FrequencySweep::paper_ladder();
        let folded = match ntc_core::fold_runs(&sweep, &server, &runs) {
            Ok(folded) => folded,
            Err(err) => {
                eprintln!("warning: could not fold energy windows: {err}");
                return;
            }
        };

        let mut lines = Vec::new();
        let mut rails = Vec::new();
        for run in &folded {
            let windowed = run.windowed.total(Scope::Server).0;
            let analytic = run.analytic.total(Scope::Server).0;
            let mut line = format!(
                "{{\"kind\":\"run\",\"mhz\":{},\"cycles\":{},\"windows\":{},\
                 \"coalesced\":{},\"windowed_server_j\":{:e},\"analytic_server_j\":{:e},\
                 \"closure_error\":{:e},\"mean_server_w\":{},\"uips\":{:e}",
                run.mhz,
                run.cycles,
                run.windows.len(),
                run.coalesced,
                windowed,
                analytic,
                run.closure_error(),
                run.windowed.mean_power(Scope::Server).0,
                run.windowed.user_instructions / run.windowed.elapsed.0.max(f64::MIN_POSITIVE),
            );
            for (component, windowed_j, _) in run.component_energy() {
                line.push_str(&format!(",\"{component}_j\":{windowed_j:e}"));
            }
            line.push('}');
            lines.push(line);
            for w in &run.windows {
                let p = &w.window.power;
                lines.push(format!(
                    "{{\"kind\":\"window\",\"mhz\":{},\"start_s\":{:e},\"end_s\":{:e},\
                     \"cycles\":{},\"uips\":{:e},\
                     \"cores_w\":{},\"llc_w\":{},\"xbar_w\":{},\"io_w\":{},\"dram_w\":{},\
                     \"server_w\":{},\"server_j\":{:e}}}",
                    run.mhz,
                    w.window.start.0,
                    w.window.end.0,
                    w.cycles,
                    w.window.uips,
                    p.cores().0,
                    p.llc.0,
                    p.xbar.0,
                    p.io.0,
                    p.dram().0,
                    p.server().0,
                    w.server_j,
                ));
                if ntc_telemetry::tracing_enabled() {
                    // Counter timestamps are *simulated* seconds (as µs);
                    // a dedicated pid keeps them off the wall-clock span
                    // tracks, and one counter name per frequency keeps
                    // the per-run time axes (each starts at 0) apart.
                    rails.push(ntc_telemetry::TraceEvent::counter(
                        format!("power {:.0} MHz (W)", run.mhz),
                        "energy",
                        w.window.start.0 * 1e6,
                        ENERGY_COUNTER_PID,
                        ntc_telemetry::counter_args(&[
                            ("cores", p.cores().0),
                            ("llc", p.llc.0),
                            ("xbar", p.xbar.0),
                            ("io", p.io.0),
                            ("dram", p.dram().0),
                        ]),
                    ));
                    rails.push(ntc_telemetry::TraceEvent::counter(
                        format!("uips {:.0} MHz", run.mhz),
                        "energy",
                        w.window.start.0 * 1e6,
                        ENERGY_COUNTER_PID,
                        ntc_telemetry::counter_args(&[("uips", w.window.uips)]),
                    ));
                }
            }
            eprintln!(
                "telemetry: energy {:.0} MHz: {} windows, {:.3} J windowed vs {:.3} J analytic \
                 (closure {:.2e})",
                run.mhz,
                run.windows.len(),
                windowed,
                analytic,
                run.closure_error(),
            );
        }
        ntc_telemetry::push_events(rails);

        let path = format!("{TELEMETRY_DIR}/{}.energy.jsonl", self.name);
        let write = || -> std::io::Result<()> {
            std::fs::create_dir_all(TELEMETRY_DIR)?;
            std::fs::write(&path, lines.join("\n") + "\n")
        };
        match write() {
            Ok(()) => eprintln!("telemetry: wrote {} energy records to {path}", lines.len()),
            Err(err) => eprintln!("warning: could not write {path}: {err}"),
        }
    }
}

/// The `pid` energy counter tracks are filed under in Chrome traces —
/// their timestamps are simulated time, not wall-clock, so they get a
/// track group of their own.
pub const ENERGY_COUNTER_PID: u64 = 424_242;

/// Runs the 100 MHz–2 GHz sweep for one workload profile. Each frequency
/// is simulated independently and memoized in the [`shared_store`].
pub fn sweep_profile(
    server: &ServerModel,
    profile: &WorkloadProfile,
    fidelity: Fidelity,
) -> SweepResult {
    let measurer = MeasurementCache::shared(fidelity.measurer(profile.clone()), shared_store());
    FrequencySweep::paper_ladder()
        .run(server, &measurer)
        .expect("the FD-SOI ladder is fully reachable")
}

// ---------------------------------------------------------------- Figure 1

/// The paper's Figure 1 power axis tops out at 175 W; points beyond it are
/// not plotted (deep-FBB points at the far right of the frequency range
/// carry a leakage cost our device model makes explicit).
pub const FIG1_POWER_AXIS_W: f64 = 175.0;

/// Figure 1: `Vdd(f)` and 36-core chip power for bulk, FD-SOI and
/// FD-SOI+FBB (power-optimal forward bias), 100 MHz – 3.5 GHz.
///
/// Returns `(vdd_figure, power_figure)`; the power figure is clipped at
/// [`FIG1_POWER_AXIS_W`] like the paper's axis.
pub fn fig1_curves() -> (Figure, Figure) {
    let freqs: Vec<f64> = (1..=35).map(|i| f64::from(i) * 100.0).collect();
    let mut vdd_fig = Figure::new("Figure 1 (Vdd)", "MHz", "Vdd (V)");
    let mut pow_fig = Figure::new("Figure 1 (power)", "MHz", "chip power (W)");

    let variants: [(&str, TechnologyKind, bool); 3] = [
        ("Bulk", TechnologyKind::Bulk28, false),
        ("FD-SOI", TechnologyKind::FdSoi28, false),
        ("FD-SOI+FBB", TechnologyKind::FdSoi28, true),
    ];
    for (label, kind, fbb) in variants {
        let timing = CoreModel::cortex_a57(Technology::preset(kind));
        let power = CorePowerModel::cortex_a57(timing).expect("preset calibrates");
        let opt = BiasOptimizer::new(&power, CoreActivity::BUSY);
        let mut vdd_pts = Vec::new();
        let mut pow_pts = Vec::new();
        for &mhz in &freqs {
            let point = if fbb {
                opt.optimal_fbb(MegaHertz(mhz)).ok()
            } else {
                opt.power_at(MegaHertz(mhz), BodyBias::ZERO).ok()
            };
            if let Some(p) = point {
                vdd_pts.push((mhz, p.op.vdd.0));
                let chip_watts = p.power.0 * 36.0;
                if chip_watts <= FIG1_POWER_AXIS_W {
                    pow_pts.push((mhz, chip_watts));
                }
            }
        }
        vdd_fig = vdd_fig.with_series(Series::new(label, vdd_pts));
        pow_fig = pow_fig.with_series(Series::new(label, pow_pts));
    }
    (vdd_fig, pow_fig)
}

// ---------------------------------------------------------------- Figure 2

/// Figure 2: 99th-percentile latency normalized to each application's QoS
/// budget versus core frequency, plus the VM degradation curves from the
/// same sweeps. Returns `(figure, per-app QoS floor MHz)`.
pub fn fig2_qos(fidelity: Fidelity) -> (Figure, Vec<(String, f64)>) {
    let server = paper_server();
    let mut fig = Figure::new("Figure 2", "MHz", "normalized 99th-pct latency");
    let mut floors = Vec::new();
    for app in CloudSuiteApp::ALL {
        let profile = WorkloadProfile::cloudsuite(app);
        let sweep = sweep_profile(&server, &profile, fidelity);
        let curve = QosCurve::build(&profile, &sweep.uips_samples());
        let pts = curve
            .points()
            .iter()
            .map(|p| (p.mhz, p.normalized_l99))
            .collect();
        fig = fig.with_series(Series::new(app.to_string(), pts));
        floors.push((
            app.to_string(),
            curve.min_qos_frequency().unwrap_or(f64::NAN),
        ));
    }
    (fig, floors)
}

/// The Sec. V-A VM result: minimum frequencies under the 2× and 4×
/// degradation bounds. Returns `((f_4x, f_2x), sweep)`.
pub fn vm_degradation_floors(fidelity: Fidelity) -> ((f64, f64), SweepResult) {
    let server = paper_server();
    let profile = WorkloadProfile::banking_low_mem(4.0);
    let sweep = sweep_profile(&server, &profile, fidelity);
    let samples = sweep.uips_samples();
    let base = samples.last().expect("non-empty sweep").1;
    let model = ntc_qos::DegradationModel::new(base);
    let f4 = model.min_frequency(&samples, 4.0).unwrap_or(f64::NAN);
    let f2 = model.min_frequency(&samples, 2.0).unwrap_or(f64::NAN);
    ((f4, f2), sweep)
}

// ------------------------------------------------------------ Figures 3/4

/// Figure 3 (scale-out apps) or Figure 4 (VMs): efficiency (UIPS/W) at the
/// three scopes. Returns `[panel_a_cores, panel_b_soc, panel_c_server]`.
pub fn efficiency_panels(
    id_prefix: &str,
    profiles: &[WorkloadProfile],
    fidelity: Fidelity,
) -> [Figure; 3] {
    let server = paper_server();
    let mut panels = [
        Figure::new(format!("{id_prefix}a (cores)"), "MHz", "UIPS/W (cores)"),
        Figure::new(format!("{id_prefix}b (SoC)"), "MHz", "UIPS/W (SoC)"),
        Figure::new(format!("{id_prefix}c (server)"), "MHz", "UIPS/W (server)"),
    ];
    for profile in profiles {
        let sweep = sweep_profile(&server, profile, fidelity);
        let eff = sweep.efficiency();
        let series = [
            eff.iter().map(|e| (e.mhz, e.cores)).collect::<Vec<_>>(),
            eff.iter().map(|e| (e.mhz, e.soc)).collect::<Vec<_>>(),
            eff.iter().map(|e| (e.mhz, e.server)).collect::<Vec<_>>(),
        ];
        for (panel, pts) in panels.iter_mut().zip(series) {
            panel.series.push(Series::new(profile.name.clone(), pts));
        }
    }
    panels
}

/// Figure 3: the four CloudSuite applications.
pub fn fig3_efficiency(fidelity: Fidelity) -> [Figure; 3] {
    let profiles: Vec<WorkloadProfile> = CloudSuiteApp::ALL
        .iter()
        .map(|&a| WorkloadProfile::cloudsuite(a))
        .collect();
    efficiency_panels("Figure 3", &profiles, fidelity)
}

/// Figure 4: the two VM classes.
pub fn fig4_efficiency(fidelity: Fidelity) -> [Figure; 3] {
    let profiles = vec![
        WorkloadProfile::banking_low_mem(4.0),
        WorkloadProfile::banking_high_mem(4.0),
    ];
    efficiency_panels("Figure 4", &profiles, fidelity)
}

// ----------------------------------------------------------------- Table I

/// One row of Table I.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct Table1Row {
    /// Quantity name.
    pub quantity: String,
    /// Modelled value.
    pub value_nj: f64,
    /// The paper's published value.
    pub paper_nj: f64,
}

/// Table I: energy constants of an 8×4 Gbit DDR4 chip at 1.6 GHz.
pub fn table1_dram() -> Vec<Table1Row> {
    let chip = ntc_power::dram::DramChipParams::ddr4_micron_4gb();
    vec![
        Table1Row {
            quantity: "EIDLE [nJ/cycle]".to_owned(),
            value_nj: chip.idle_energy_per_cycle.0,
            paper_nj: 0.0728,
        },
        Table1Row {
            quantity: "EREAD [nJ/byte]".to_owned(),
            value_nj: chip.read_energy_per_byte.0,
            paper_nj: 0.2566,
        },
        Table1Row {
            quantity: "EWRITE [nJ/byte]".to_owned(),
            value_nj: chip.write_energy_per_byte.0,
            paper_nj: 0.2495,
        },
    ]
}

// --------------------------------------------------------------- Ablations

/// LPDDR4 ablation: server-scope efficiency with DDR4 vs LPDDR4 memory.
pub fn ablation_lpddr4(fidelity: Fidelity) -> Figure {
    let profile = WorkloadProfile::cloudsuite(CloudSuiteApp::WebSearch);
    let ddr4 = paper_server();
    let lp = paper_server().with_dram(DramPowerModel::new(
        DramTechnology::Lpddr4,
        DramConfig::paper_server(),
    ));
    let mut fig = Figure::new("Ablation A (LPDDR4)", "MHz", "UIPS/W (server)");
    for (label, server) in [("DDR4", &ddr4), ("LPDDR4", &lp)] {
        let sweep = sweep_profile(server, &profile, fidelity);
        let pts = sweep
            .efficiency()
            .iter()
            .map(|e| (e.mhz, e.server))
            .collect();
        fig = fig.with_series(Series::new(label, pts));
    }
    fig
}

/// Uncore-proportionality ablation: server efficiency with the LLC in
/// nominal, drowsy and half-way-gated modes.
pub fn ablation_uncore(fidelity: Fidelity) -> Figure {
    let profile = WorkloadProfile::cloudsuite(CloudSuiteApp::WebSearch);
    let mut fig = Figure::new("Ablation D (uncore)", "MHz", "UIPS/W (server)");
    let modes = [
        ("nominal LLC", LlcLeakageMode::Nominal),
        ("drowsy LLC", LlcLeakageMode::Drowsy { residual: 0.25 }),
        (
            "half ways gated",
            LlcLeakageMode::WayGated { live_fraction: 0.5 },
        ),
    ];
    for (label, mode) in modes {
        let server = paper_server().with_llc(LlcPowerModel::paper_cluster().with_mode(mode));
        let sweep = sweep_profile(&server, &profile, fidelity);
        let pts = sweep
            .efficiency()
            .iter()
            .map(|e| (e.mhz, e.server))
            .collect();
        fig = fig.with_series(Series::new(label, pts));
    }
    fig
}

/// Body-bias ablation: power-optimal FBB per frequency versus zero bias
/// (one core), plus the optimal bias magnitude chosen.
pub fn ablation_bias() -> Figure {
    let timing = CoreModel::cortex_a57(Technology::preset(TechnologyKind::FdSoi28));
    let power = CorePowerModel::cortex_a57(timing).expect("preset calibrates");
    let opt = BiasOptimizer::new(&power, CoreActivity::BUSY);
    let freqs: Vec<f64> = (1..=20).map(|i| f64::from(i) * 100.0).collect();
    let mut zero = Vec::new();
    let mut best = Vec::new();
    let mut bias = Vec::new();
    for &mhz in &freqs {
        if let Ok(p0) = opt.power_at(MegaHertz(mhz), BodyBias::ZERO) {
            zero.push((mhz, p0.power.0));
        }
        if let Ok(pb) = opt.optimal_fbb(MegaHertz(mhz)) {
            best.push((mhz, pb.power.0));
            bias.push((mhz, pb.op.bias.signed().0));
        }
    }
    Figure::new("Ablation B (body bias)", "MHz", "core power (W)")
        .with_series(Series::new("no bias", zero))
        .with_series(Series::new("optimal FBB", best))
        .with_series(Series::new("chosen FBB (V)", bias))
}

/// Prefetch ablation: server efficiency for Media Streaming with next-line
/// prefetch degrees 0/1/2/4 — streams benefit, but the gain must pay for
/// its DRAM bandwidth.
pub fn ablation_prefetch(fidelity: Fidelity) -> Figure {
    let profile = WorkloadProfile::cloudsuite(CloudSuiteApp::MediaStreaming);
    let server = paper_server();
    let mut fig = Figure::new("Ablation E (prefetch)", "MHz", "UIPS/W (server)");
    for degree in [0u32, 1, 2, 4] {
        let measurer = MeasurementCache::shared(
            fidelity.measurer(profile.clone()).with_prefetch(degree),
            shared_store(),
        );
        let sweep = FrequencySweep::paper_ladder()
            .run(&server, &measurer)
            .expect("ladder is reachable");
        let pts = sweep
            .efficiency()
            .iter()
            .map(|e| (e.mhz, e.server))
            .collect();
        fig = fig.with_series(Series::new(format!("degree {degree}"), pts));
    }
    fig
}

/// Governor ablation: mean server power of the three policies over a
/// 24-hour diurnal Web Search trace. Returns `(policy_name, mean_watts,
/// violations, saturated)` rows.
pub fn ablation_governor(fidelity: Fidelity) -> Vec<(String, f64, u32, u32)> {
    use ntc_core::{GovernorPolicy, QosGovernor};
    use ntc_workloads::DiurnalLoad;
    let server = paper_server();
    let profile = WorkloadProfile::cloudsuite(CloudSuiteApp::WebSearch);
    let sweep = sweep_profile(&server, &profile, fidelity);
    let governor = QosGovernor::new(&sweep, &profile);
    let trace = DiurnalLoad::interactive_service(7).trace(24.0, 288);
    [
        ("static max", GovernorPolicy::StaticMax),
        ("load-proportional", GovernorPolicy::LoadProportional),
        ("QoS-aware", GovernorPolicy::QosAware),
    ]
    .into_iter()
    .map(|(name, policy)| {
        let r = governor.run(policy, &trace);
        (name.to_owned(), r.mean_watts, r.violations, r.saturated)
    })
    .collect()
}

/// Consolidation ablation: packing the Bitbrains population at three
/// (frequency, degradation) service classes.
pub fn ablation_consolidation(fidelity: Fidelity) -> Vec<ConsolidationPlan> {
    let server = paper_server();
    let profile = WorkloadProfile::banking_low_mem(4.0);
    let sweep = sweep_profile(&server, &profile, fidelity);
    let population = BitbrainsSynthesizer::new(42).trace_population();
    let consolidator = Consolidator::paper_server();
    [(2000.0, 1.0), (1000.0, 2.0), (500.0, 4.0)]
        .into_iter()
        .map(|(mhz, slow)| consolidator.pack(&sweep, mhz, slow, &population))
        .collect()
}

// ------------------------------------------------- Heterogeneous chips

/// The iso-power budget of the heterogeneous study: the paper server's
/// 100 W provisioning.
pub const HETERO_BUDGET_W: f64 = 100.0;

/// The frequency anchoring the iso-QoS floor: whatever per-core rate the
/// homogeneous big chip delivers at the paper's scale-out QoS bound
/// (≈500 MHz) is what every core of a candidate chip must sustain.
pub const HETERO_QOS_ANCHOR_MHZ: f64 = 500.0;

/// One chip configuration of the heterogeneous study, flattened for the
/// JSON artifact.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct HeteroSummary {
    /// Compact mix label, e.g. `"3B@1600+6L@600"`.
    pub label: String,
    /// Big-cluster count.
    pub n_big: u32,
    /// Little-cluster count.
    pub n_little: u32,
    /// Big-cluster frequency (MHz; 0 when no big clusters).
    pub big_mhz: f64,
    /// Little-cluster frequency (MHz; 0 when no little clusters).
    pub little_mhz: f64,
    /// Big-cluster supply voltage (V; 0 when no big clusters).
    pub big_vdd: f64,
    /// Little-cluster supply voltage (V; 0 when no little clusters).
    pub little_vdd: f64,
    /// Chip throughput (user instructions per second).
    pub uips: f64,
    /// Server power (W).
    pub watts: f64,
    /// Server-scope efficiency.
    pub uips_per_watt: f64,
    /// The slowest core's UIPS (the QoS-critical rate).
    pub min_core_uips: f64,
}

impl HeteroSummary {
    fn from_point(p: &HeteroPoint) -> Self {
        let (n_big, n_little) = p.plan.counts();
        let of_class = |class: CoreClass| {
            p.plan
                .clusters
                .iter()
                .position(|c| c.class == class)
                .map_or((0.0, 0.0), |i| (p.plan.clusters[i].mhz, p.ops[i].vdd.0))
        };
        let (big_mhz, big_vdd) = of_class(CoreClass::Big);
        let (little_mhz, little_vdd) = of_class(CoreClass::Little);
        HeteroSummary {
            label: p.plan.label(),
            n_big,
            n_little,
            big_mhz,
            little_mhz,
            big_vdd,
            little_vdd,
            uips: p.uips,
            watts: p.watts().0,
            uips_per_watt: p.uips_per_watt(),
            min_core_uips: p.min_core_uips,
        }
    }
}

/// The heterogeneous study's JSON artifact: the iso-power Pareto
/// frontier, its iso-QoS refinement, the homogeneous baselines, and the
/// dominance verdict.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct HeteroReport {
    /// Workload driving the measurements.
    pub profile: String,
    /// Clusters on the chip.
    pub clusters: u32,
    /// Iso-power budget (W).
    pub budget_w: f64,
    /// Iso-QoS per-core UIPS floor (see [`HETERO_QOS_ANCHOR_MHZ`]).
    pub qos_floor_uips: f64,
    /// Total chip configurations evaluated before filtering.
    pub points_evaluated: usize,
    /// Pareto frontier (max UIPS, min W) of the within-budget cloud.
    pub frontier: Vec<HeteroSummary>,
    /// Frontier after additionally imposing the iso-QoS floor.
    pub qos_frontier: Vec<HeteroSummary>,
    /// Every homogeneous (all-big or all-little) point within budget.
    pub homogeneous: Vec<HeteroSummary>,
    /// Best within-budget homogeneous point by UIPS/W.
    pub best_homogeneous: Option<HeteroSummary>,
    /// Best within-budget mixed point by UIPS/W.
    pub best_mixed: Option<HeteroSummary>,
    /// Whether some mixed point Pareto-dominates (≥ UIPS at ≤ W, one
    /// strict) *every* homogeneous within-budget point.
    pub mixed_dominates_every_homogeneous: bool,
}

impl HeteroReport {
    /// Pretty JSON for the `results/` artifact.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("hetero report serializes")
    }
}

/// The heterogeneous big/little study: sweep every big/little split of
/// the paper chip's clusters over per-class frequency ladders, then carve
/// the iso-power (100 W) Pareto frontier and its iso-QoS refinement.
///
/// Each distinct `(class, frequency)` cluster is simulated once (through
/// the [`shared_store`], so repeated runs and the homogeneous figures
/// share ladders); chips are composed per [`HeteroSweep::run`].
pub fn fig_hetero(fidelity: Fidelity) -> HeteroReport {
    let server = paper_server();
    let profile = WorkloadProfile::cloudsuite(CloudSuiteApp::WebSearch);
    let big = MeasurementCache::shared(fidelity.measurer(profile.clone()), shared_store());
    // The little measurer pins the in-order cluster config; the swept
    // frequency overrides its `core_mhz` per measurement.
    let little = MeasurementCache::shared(
        fidelity
            .measurer(profile.clone())
            .with_cluster(ClusterConfig::little_cluster(100.0)),
        shared_store(),
    );
    let points = HeteroSweep::paper(server.clusters())
        .run(&server, |class, mhz| match class {
            CoreClass::Big => big.measure(mhz),
            CoreClass::Little => little.measure(mhz),
        })
        .expect("the FD-SOI hetero ladder has reachable points");

    let budget = ntc_tech::Watts(HETERO_BUDGET_W);
    let within = iso_power(&points, budget);
    // QoS floor: what a big core delivers at the paper's scale-out bound.
    let qos_floor_uips = points
        .iter()
        .filter(|p| p.plan.counts().1 == 0)
        .filter(|p| (p.plan.clusters[0].mhz - HETERO_QOS_ANCHOR_MHZ).abs() < 1e-9)
        .map(|p| p.min_core_uips)
        .next()
        .unwrap_or(0.0);
    let frontier = pareto_frontier(&within);
    let qos_frontier = pareto_frontier(&iso_qos(&within, qos_floor_uips));

    let is_mixed = |p: &HeteroPoint| {
        let (b, l) = p.plan.counts();
        b > 0 && l > 0
    };
    let mut homogeneous: Vec<&HeteroPoint> = within.iter().filter(|p| !is_mixed(p)).collect();
    homogeneous.sort_by(|a, b| {
        (a.plan.counts(), a.plan.clusters[0].mhz)
            .partial_cmp(&(b.plan.counts(), b.plan.clusters[0].mhz))
            .expect("finite frequencies")
    });
    let mixed: Vec<&HeteroPoint> = within.iter().filter(|p| is_mixed(p)).collect();
    let best_of = |set: &[&HeteroPoint]| {
        set.iter()
            .max_by(|a, b| {
                a.uips_per_watt()
                    .partial_cmp(&b.uips_per_watt())
                    .expect("finite efficiency")
            })
            .map(|p| HeteroSummary::from_point(p))
    };
    let dominates = |m: &HeteroPoint, h: &HeteroPoint| {
        m.uips >= h.uips
            && m.watts().0 <= h.watts().0
            && (m.uips > h.uips || m.watts().0 < h.watts().0)
    };
    let mixed_dominates_every_homogeneous = !homogeneous.is_empty()
        && homogeneous
            .iter()
            .all(|h| mixed.iter().any(|m| dominates(m, h)));

    HeteroReport {
        profile: profile.name.clone(),
        clusters: server.clusters(),
        budget_w: HETERO_BUDGET_W,
        qos_floor_uips,
        points_evaluated: points.len(),
        frontier: frontier.iter().map(HeteroSummary::from_point).collect(),
        qos_frontier: qos_frontier.iter().map(HeteroSummary::from_point).collect(),
        best_homogeneous: best_of(&homogeneous),
        best_mixed: best_of(&mixed),
        homogeneous: homogeneous
            .iter()
            .map(|p| HeteroSummary::from_point(p))
            .collect(),
        mixed_dominates_every_homogeneous,
    }
}

/// Writes a JSON artifact under `results/` (best effort, for diffing).
pub fn write_json(name: &str, json: &str) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = std::fs::write(dir.join(name), json);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_the_paper_exactly() {
        for row in table1_dram() {
            assert!(
                (row.value_nj - row.paper_nj).abs() < 1e-12,
                "{}: {} vs {}",
                row.quantity,
                row.value_nj,
                row.paper_nj
            );
        }
    }

    #[test]
    fn fig1_reproduces_the_anchor_points() {
        let (vdd, power) = fig1_curves();
        // Bulk reaches fewer frequencies than FD-SOI; FBB reaches the most.
        let lens: Vec<usize> = vdd.series.iter().map(|s| s.points.len()).collect();
        assert!(lens[0] < lens[1], "bulk tops out before fd-soi");
        assert!(lens[1] < lens[2], "fbb extends beyond plain fd-soi");
        // FD-SOI+FBB reaches ~3.5 GHz.
        let fbb_max = vdd.series[2].points.last().unwrap().0;
        assert!(
            fbb_max >= 3000.0,
            "fbb should reach beyond 3 GHz, got {fbb_max}"
        );
        // At every shared frequency FD-SOI needs less voltage than bulk and
        // burns less power.
        for (b, f) in vdd.series[0].points.iter().zip(&vdd.series[1].points) {
            assert!(f.1 < b.1, "fd-soi vdd below bulk at {} MHz", b.0);
        }
        for (b, f) in power.series[0].points.iter().zip(&power.series[1].points) {
            assert!(f.1 < b.1, "fd-soi power below bulk at {} MHz", b.0);
        }
    }

    #[test]
    fn unknown_fidelity_values_warn_and_default_to_fast() {
        assert_eq!(Fidelity::parse("fast"), Ok(Fidelity::Fast));
        assert_eq!(Fidelity::parse("paper"), Ok(Fidelity::Paper));
        let err = Fidelity::parse("quick").unwrap_err();
        assert!(err.contains("quick") && err.contains("fast") && err.contains("paper"));
        std::env::set_var("NTC_FIDELITY", "quick");
        assert_eq!(Fidelity::from_env(), Fidelity::Fast);
        std::env::set_var("NTC_FIDELITY", "paper");
        assert_eq!(Fidelity::from_env(), Fidelity::Paper);
        std::env::remove_var("NTC_FIDELITY");
        assert_eq!(Fidelity::from_env(), Fidelity::Fast);
    }

    #[test]
    fn fig3_reuses_fig2_cloudsuite_sweeps() {
        // The shared store must make the CloudSuite ladders free the
        // second time around: Figure 2 and Figure 3 sweep the same four
        // profiles, so fig3 after fig2 simulates nothing new.
        let store = shared_store();
        let _ = fig2_qos(Fidelity::Fast);
        let misses_after_fig2 = store.misses();
        let hits_after_fig2 = store.hits();
        let _ = fig3_efficiency(Fidelity::Fast);
        assert_eq!(
            store.misses(),
            misses_after_fig2,
            "fig3 re-simulated points fig2 already measured"
        );
        assert!(
            store.hits() >= hits_after_fig2 + 80,
            "all four 20-point CloudSuite ladders should hit ({} -> {})",
            hits_after_fig2,
            store.hits()
        );
    }

    #[test]
    fn fig1_fbb_never_exceeds_plain_power() {
        let (_, power) = fig1_curves();
        for (plain, fbb) in power.series[1].points.iter().zip(&power.series[2].points) {
            assert!(
                fbb.1 <= plain.1 * 1.0001,
                "optimal fbb can never be worse than zero bias at {} MHz",
                plain.0
            );
        }
    }
}
