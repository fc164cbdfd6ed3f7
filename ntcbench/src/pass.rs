//! One pass of a workload in a fresh process: set up, run, check every
//! output, and report to the parent process as `key value` lines on stdout.

use crate::measure::{self, BenchMeasurer, Engine};
use crate::trace;
use crate::{chip, figures};
use ntc_core::{
    ClusterMeasurement, ClusterMeasurer, FrequencySweep, HeteroPoint, HeteroSweep,
    MeasurementCache, MeasurementStore, ServerModel, SimMeasurer, SweepPoint,
};
use ntc_qos::QosCurve;
use ntc_tech::{CoreClass, MegaHertz, OperatingPoint};
use ntc_workloads::WorkloadProfile;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FiguresFast,
    Fig2Paper,
    WholeChip,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::FiguresFast,
        Workload::Fig2Paper,
        Workload::WholeChip,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FiguresFast => "figures-fast",
            Workload::Fig2Paper => "fig2-paper",
            Workload::WholeChip => "whole-chip",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Passes a run starts side by side. `whole-chip` is serial, so it
    /// runs as many passes at once as the sweep workloads run workers:
    /// every workload keeps the same CPUs busy, and a run measures that
    /// many times the work.
    pub fn passes_at_once(self) -> usize {
        match self {
            Workload::WholeChip => sweep_workers(),
            Workload::FiguresFast | Workload::Fig2Paper => 1,
        }
    }
}

/// What a pass process does.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PassKind {
    /// Set up, then exit: one more `setup_s` sample.
    Setup,
    /// The timed run, tracing off.
    #[default]
    Plain,
    /// The same run with the benchmark's spans on.
    Traced,
}

impl PassKind {
    pub fn name(self) -> &'static str {
        match self {
            PassKind::Setup => "setup",
            PassKind::Plain => "plain",
            PassKind::Traced => "traced",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        [PassKind::Setup, PassKind::Plain, PassKind::Traced]
            .into_iter()
            .find(|k| k.name() == name)
    }
}

/// The repository root (the benchmark package's parent directory).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The 13 simulator-backed artifacts `figures-fast` regenerates and
/// compares with the committed `results/` files.
const REFERENCE_ARTIFACTS: [&str; 13] = [
    "fig2.json",
    "fig3a.json",
    "fig3b.json",
    "fig3c.json",
    "fig4a.json",
    "fig4b.json",
    "fig4c.json",
    "ablation_lpddr4.json",
    "ablation_uncore.json",
    "ablation_prefetch.json",
    "ablation_governor.json",
    "ablation_consolidation.json",
    "fig_hetero.json",
];

/// A sweep a figure function performs, as the traced pass replays it.
#[allow(clippy::large_enum_variant)] // a few per figure call
pub enum Sweep {
    /// `FrequencySweep::paper_ladder().run` over one measurer; `qos`
    /// marks sweeps whose figure also builds a `QosCurve`.
    Ladder { measurer: BenchMeasurer, qos: bool },
    /// `HeteroSweep::paper(clusters).run` over a big and a little measurer.
    Hetero {
        big: BenchMeasurer,
        little: BenchMeasurer,
    },
}

/// Per-pass state: the set-up inputs, the operation results, and what
/// the traced pass measures beside its spans.
pub struct Ctx {
    pub seed: u64,
    pub server: ServerModel,
    pub store: Arc<MeasurementStore>,
    references: BTreeMap<&'static str, String>,
    ops: Vec<(String, bool)>,
    pub notes: Vec<String>,
    /// Measurers whose ladder keys may hold this pass's simulated points.
    planned: Vec<SimMeasurer>,
    /// Simulated statistics produced outside the store (chip runs).
    pub digest_lines: Vec<String>,
    /// Cluster-cycles simulated outside the store (chip runs).
    pub chip_cluster_cycles: u64,
    /// Profiles simulated, for the stream replay.
    profiles: Vec<WorkloadProfile>,
    // Traced pass only.
    bench_s: BTreeMap<&'static str, f64>,
    serialize_s: f64,
    /// Store hits of the figure calls that follow a replay.
    figure_hits: u64,
    model_s: f64,
    model_points: u64,
}

impl Ctx {
    /// The set-up `setup_s` times: the server model, the reference
    /// artifacts (`figures-fast` only) and the shared measurement store.
    pub fn new(workload: Workload, seed: u64) -> Result<Self, String> {
        let server = ntc_bench::paper_server();
        let mut references = BTreeMap::new();
        if workload == Workload::FiguresFast {
            let dir = repo_root().join("results");
            for name in REFERENCE_ARTIFACTS {
                let path = dir.join(name);
                let text = std::fs::read_to_string(&path).map_err(|e| {
                    format!("cannot read reference artifact {}: {e}", path.display())
                })?;
                references.insert(name, text);
            }
        }
        Ok(Ctx {
            seed,
            server,
            store: ntc_bench::shared_store(),
            references,
            ops: Vec::new(),
            notes: Vec::new(),
            planned: Vec::new(),
            digest_lines: Vec::new(),
            chip_cluster_cycles: 0,
            profiles: Vec::new(),
            bench_s: BTreeMap::new(),
            serialize_s: 0.0,
            figure_hits: 0,
            model_s: 0.0,
            model_points: 0,
        })
    }

    /// Runs one operation group; `f` returns one verdict per name in
    /// `ops`. A panic fails every operation of the group.
    pub fn artifact(&mut self, ops: &[&str], f: impl FnOnce(&mut Ctx) -> Vec<bool>) {
        let verdicts = catch_unwind(AssertUnwindSafe(|| f(self))).unwrap_or_default();
        for (i, op) in ops.iter().enumerate() {
            let ok = verdicts.get(i).copied().unwrap_or(false);
            self.ops.push(((*op).to_owned(), ok));
        }
    }

    /// Calls one figure function of `ntc-bench`. The traced pass first
    /// replays the function's `sweeps` through the benchmark's measurer,
    /// so the function itself then finds every point in the store.
    pub fn figure<T>(
        &mut self,
        func: &'static str,
        sweeps: Vec<Sweep>,
        call: impl FnOnce() -> T,
    ) -> T {
        let span = trace::span("bench", || func.to_owned());
        for sweep in &sweeps {
            match sweep {
                Sweep::Ladder { measurer, .. } => self.plan(measurer),
                Sweep::Hetero { big, little } => {
                    self.plan(big);
                    self.plan(little);
                }
            }
            if trace::enabled() {
                self.replay(sweep);
            }
        }
        let hits = self.store.hits();
        let out = call();
        self.figure_hits += self.store.hits() - hits;
        *self.bench_s.entry(func).or_insert(0.0) += span.end();
        out
    }

    /// Records a measurer whose ladder keys may hold simulated points.
    pub fn plan(&mut self, measurer: &BenchMeasurer) {
        self.planned.push(measurer.sim_measurer().clone());
        let profile = measurer.sim_measurer().profile();
        if !self.profiles.contains(profile) {
            self.profiles.push(profile.clone());
        }
    }

    fn replay(&mut self, sweep: &Sweep) {
        match sweep {
            Sweep::Ladder { measurer, qos } => {
                let profile = measurer.sim_measurer().profile().clone();
                let cached = MeasurementCache::shared(measurer.clone(), self.store.clone());
                let span = trace::fanout_span("sweep", || format!("sweep.run {}", profile.name));
                let result = FrequencySweep::paper_ladder().run(&self.server, &cached);
                span.end();
                let result = result.expect("the FD-SOI ladder is fully reachable");
                for p in result.points() {
                    std::hint::black_box(self.evaluate(p.cluster));
                }
                if *qos {
                    let span = trace::span("model", || "QosCurve::build".to_owned());
                    std::hint::black_box(QosCurve::build(&profile, &result.uips_samples()));
                    self.model_s += span.end();
                }
            }
            Sweep::Hetero { big, little } => {
                let sweep = HeteroSweep::paper(self.server.clusters());
                std::hint::black_box(self.hetero(sweep, big, little));
            }
        }
    }

    /// Measures `mhz` through the shared store, as a figure would.
    pub fn measure(&mut self, measurer: &BenchMeasurer, mhz: f64) -> ClusterMeasurement {
        self.plan(measurer);
        MeasurementCache::shared(measurer.clone(), self.store.clone())
            .measure(mhz)
            .expect("the point is measurable")
    }

    /// `FrequencySweep::evaluate` at `m`'s frequency: the chip point the
    /// figures compose from one cluster (×clusters under the bandwidth
    /// cap), timed as the model layer.
    pub fn evaluate(&mut self, m: ClusterMeasurement) -> SweepPoint {
        let span = trace::span("model", || "FrequencySweep::evaluate".to_owned());
        let ladder = FrequencySweep::paper_ladder();
        let op = OperatingPoint::at(
            self.server.core_power().timing(),
            MegaHertz(m.mhz),
            ladder.bias(),
        )
        .expect("measured points are reachable");
        let point = ladder.evaluate(&self.server, op, m);
        self.model_s += span.end();
        self.model_points += 1;
        point
    }

    /// Runs a big/little sweep through the shared store.
    pub fn hetero(
        &mut self,
        sweep: HeteroSweep,
        big: &BenchMeasurer,
        little: &BenchMeasurer,
    ) -> Vec<HeteroPoint> {
        let big = MeasurementCache::shared(big.clone(), self.store.clone());
        let little = MeasurementCache::shared(little.clone(), self.store.clone());
        let span = trace::span("sweep", || "hetero.run".to_owned());
        let points = sweep.run(&self.server, |class, mhz| match class {
            CoreClass::Big => big.measure(mhz),
            CoreClass::Little => little.measure(mhz),
        });
        span.end();
        points.expect("the hetero sweep has reachable points")
    }

    /// Serializes an output, timed as `bench.serialize_ms`.
    pub fn serialize(&mut self, f: impl FnOnce() -> String) -> String {
        let span = trace::span("bench", || "serialize".to_owned());
        let json = f();
        self.serialize_s += span.end();
        json
    }

    /// Whether `json` is byte-identical to the committed `results/<name>`.
    pub fn matches_reference(&mut self, name: &str, json: &str) -> bool {
        let same = self.references.get(name).map(String::as_str) == Some(json);
        if !same {
            self.notes
                .push(format!("{name} differs from the committed results/{name}"));
        }
        same
    }

    /// Looks up every planned point in the store: the digest of all
    /// simulated results, the cluster-cycles they took, and an error if
    /// the store holds points the plan does not account for.
    fn digest(&self) -> (String, u64, Option<String>) {
        let ladder = FrequencySweep::paper_ladder();
        let keys: BTreeSet<_> = self
            .planned
            .iter()
            .flat_map(|m| ladder.frequencies().iter().filter_map(|&mhz| m.key(mhz)))
            .collect();
        let mut lines = self.digest_lines.clone();
        let mut cycles = self.chip_cluster_cycles;
        let mut found = 0;
        for key in &keys {
            if let Some(m) = self.store.lookup(key) {
                found += 1;
                cycles += key.warmup_cycles + key.measure_cycles;
                lines.push(format!(
                    "{} {}",
                    serde_json::to_string(key).expect("keys serialize"),
                    serde_json::to_string(&m).expect("measurements serialize")
                ));
            }
        }
        let error = (found != self.store.len()).then(|| {
            format!(
                "the store holds {} measurements but the benchmark's plan accounts for {found}; \
                 a figure's sweeps changed, so update ntcbench/src/figures.rs",
                self.store.len()
            )
        });
        (
            format!("{:016x}", fnv1a(lines.join("\n").as_bytes())),
            cycles,
            error,
        )
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn since_ns(spawned_at_ns: u128) -> f64 {
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    now.saturating_sub(spawned_at_ns) as f64 * 1e-9
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// Runs one pass and prints its report.
pub fn run(
    workload: Workload,
    seed: u64,
    kind: PassKind,
    spawned_at_ns: u128,
) -> Result<(), String> {
    let mut ctx = Ctx::new(workload, seed)?;
    println!("setup_s {}", since_ns(spawned_at_ns));
    if kind == PassKind::Setup {
        return Ok(());
    }
    if kind == PassKind::Traced {
        trace::enable();
    }

    let root = trace::span("workload", || workload.name().to_owned());
    let start = Instant::now();
    match workload {
        Workload::FiguresFast => figures::fast(&mut ctx),
        Workload::Fig2Paper => figures::paper(&mut ctx),
        Workload::WholeChip => chip::run(&mut ctx),
    }
    let wall_s = start.elapsed().as_secs_f64();
    root.end();

    let (hits, misses) = (ctx.store.hits(), ctx.store.misses());
    let (digest, cycles, plan_error) = ctx.digest();
    println!("wall_s {wall_s}");
    println!("cycles {cycles}");
    println!("rss_mb {}", peak_rss_mb()?);
    println!("ops {}", ctx.ops.len());
    println!("failed {}", ctx.ops.iter().filter(|(_, ok)| !ok).count());
    println!("digest {digest}");
    for (op, ok) in &ctx.ops {
        if !ok {
            println!("failure {op}");
        }
    }
    if let Some(error) = plan_error {
        println!("error {error}");
    }
    if kind == PassKind::Plain {
        println!(
            "note measure cache: {hits} hits, {misses} misses, {} points in the store",
            ctx.store.len()
        );
    }
    for note in &ctx.notes {
        println!("note {note}");
    }
    if kind == PassKind::Traced {
        for (name, value) in layer_metrics(&ctx, (hits, misses)) {
            println!("layer {name} {value}");
        }
        let spans = trace::spans();
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{}.trace.json", workload.name()));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, trace::chrome_trace(&spans)))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}

/// The figure functions timed as `bench.<function>_s`.
const FIGURE_FUNCTIONS: [&str; 10] = [
    "fig2_qos",
    "vm_degradation_floors",
    "fig3_efficiency",
    "fig4_efficiency",
    "ablation_lpddr4",
    "ablation_uncore",
    "ablation_prefetch",
    "ablation_governor",
    "ablation_consolidation",
    "fig_hetero",
];

/// Layers whose self time the traced pass reports.
const LAYERS: [&str; 6] = ["bench", "sweep", "measure", "workloads", "sim", "model"];

/// Sweep worker threads: `FrequencySweep::run` uses one per available
/// core, at least two, at most one per ladder point.
pub fn sweep_workers() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    FrequencySweep::paper_ladder()
        .frequencies()
        .len()
        .min(cores.max(2))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Nearest-rank percentile `p` of ascending, non-empty `sorted`.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    sorted[((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1]
}

/// The highest of p99/p95/p90 with at least ten of `n` samples beyond
/// it, else p50.
fn tail_percentile(n: usize) -> f64 {
    [99.0, 95.0, 90.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
        .unwrap_or(50.0)
}

fn layer_metrics(ctx: &Ctx, (hits, misses): (u64, u64)) -> Vec<(String, f64)> {
    let spans = trace::spans();
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| out.push((name.to_owned(), value));

    for func in FIGURE_FUNCTIONS {
        put(
            &format!("bench.{func}_s"),
            ctx.bench_s.get(func).copied().unwrap_or(0.0),
        );
    }
    put("bench.serialize_ms", ctx.serialize_s * 1e3);

    let children_s = |id: u64| -> f64 {
        spans
            .iter()
            .filter(|s| s.parent == id && s.layer == "measure")
            .map(|s| s.duration_s())
            .sum()
    };
    let sweeps: Vec<_> = spans.iter().filter(|s| s.layer == "sweep").collect();
    let workers = sweep_workers() as f64;
    put("sweep.wall_s", sweeps.iter().map(|s| s.duration_s()).sum());
    put(
        "sweep.worker_busy_ratio",
        ratio(
            sweeps.iter().map(|s| children_s(s.id)).sum(),
            sweeps.iter().map(|s| workers * s.duration_s()).sum(),
        ),
    );
    put(
        "hetero.compose_ms",
        sweeps
            .iter()
            .filter(|s| s.name == "hetero.run")
            .map(|s| s.duration_s() - children_s(s.id))
            .sum::<f64>()
            * 1e3,
    );

    // The figure calls after a replay only repeat its lookups.
    let hits = hits - ctx.figure_hits;
    put("measure.calls", (hits + misses) as f64);
    put(
        "measure.cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    let mut miss_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.layer == "measure")
        .map(|s| s.duration_s() * 1e3)
        .collect();
    miss_ms.sort_by(f64::total_cmp);
    let tail_pct = tail_percentile(miss_ms.len());
    let (p50, tail_ms) = if miss_ms.is_empty() {
        (0.0, 0.0)
    } else {
        (percentile(&miss_ms, 50.0), percentile(&miss_ms, tail_pct))
    };
    put("measure.miss_ms_p50", p50);
    put("measure.miss_ms_tail", tail_ms);
    put("measure.miss_tail_pct", tail_pct);
    put("measure.miss_samples", miss_ms.len() as f64);

    let measure_s: f64 = spans
        .iter()
        .filter(|s| s.layer == "measure")
        .map(|s| s.duration_s())
        .sum();
    let prewarm_s: f64 = spans
        .iter()
        .filter(|s| s.name == "prewarm")
        .map(|s| s.duration_s())
        .sum();
    put("workloads.prewarm_share", ratio(prewarm_s, measure_s));
    put(
        "workloads.stream_ns_per_instr",
        measure::stream_ns_per_instr(&ctx.profiles),
    );

    let t = measure::tally();
    put("sim.new_ms", t.new_s * 1e3);
    put("sim.warm_up_s", t.warm_up_s);
    put("sim.run_measured_s", t.run_measured_s);
    for (engine, (secs, cycles)) in Engine::ALL.iter().zip(t.engine) {
        put(
            &format!("sim.ns_per_cluster_cycle.{}", engine.name()),
            ratio(secs * 1e9, cycles as f64),
        );
    }
    put(
        "sim.skipped_cycle_ratio",
        ratio(t.skipped as f64, t.reference_cycles as f64),
    );
    put(
        "sim.llc_hit_ratio",
        ratio(t.llc_hits as f64, (t.llc_hits + t.llc_misses) as f64),
    );
    let kcycles = t.measured_cluster_cycles as f64 / 1e3;
    put(
        "sim.dram_reads_per_kcycle",
        ratio(t.dram_reads as f64, kcycles),
    );
    put(
        "sim.dram_writes_per_kcycle",
        ratio(t.dram_writes as f64, kcycles),
    );
    put(
        "sim.dram_row_hit_ratio",
        ratio(
            t.dram_row_hits as f64,
            (t.dram_row_hits + t.dram_row_misses) as f64,
        ),
    );
    put("sim.dram_queue_high_water", t.dram_queue_high_water as f64);
    put(
        "model.evaluate_us",
        ratio(ctx.model_s * 1e6, ctx.model_points as f64),
    );

    let self_s = trace::self_time_by_layer(&spans);
    for layer in LAYERS {
        put(
            &format!("layer.{layer}.self_s"),
            self_s.get(layer).copied().unwrap_or(0.0),
        );
    }
    put(
        "trace.unattributed_s",
        self_s.get("workload").copied().unwrap_or(0.0),
    );
    out
}
