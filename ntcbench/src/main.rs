//! `ntcbench`: the end-to-end benchmark of the ntserver figure pipeline.
//!
//! ```text
//! cargo run --release --manifest-path ntcbench/Cargo.toml -- \
//!     --workload <figures-fast|fig2-paper|whole-chip> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The parent process runs the workload in fresh child processes
//! ("passes") until `--seconds` is spent, since users pay for set-up and
//! simulation in every process (the measurement store starts empty).
//! Passes of the serial `whole-chip` workload run side by side, one per
//! sweep worker. With `--trace 0` it prints the end-to-end metrics; with
//! `--trace 1` it alternates traced and plain passes and prints the
//! per-layer metrics. The last stdout line is the JSON result. See
//! `ntcbench/README.md`.

mod chip;
mod figures;
mod measure;
mod pass;
mod trace;

use pass::{PassKind, Workload};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

const USAGE: &str = "usage: ntcbench --workload <figures-fast|fig2-paper|whole-chip> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// A run never starts a pass that would end after this many seconds,
/// so that even a traced `fig2-paper` run ends within three minutes.
const RUN_LIMIT_S: f64 = 150.0;

/// `setup_s` is the median of at least this many set-ups per run.
const MIN_SETUPS: usize = 11;

/// End-to-end metrics: name, unit.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_kcycles_per_s", "kcycles/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: name, unit. A workload that does not reach a
/// layer reports 0 for it.
const PER_LAYER: [(&str, &str); 43] = [
    ("bench.fig2_qos_s", "s"),
    ("bench.vm_degradation_floors_s", "s"),
    ("bench.fig3_efficiency_s", "s"),
    ("bench.fig4_efficiency_s", "s"),
    ("bench.ablation_lpddr4_s", "s"),
    ("bench.ablation_uncore_s", "s"),
    ("bench.ablation_prefetch_s", "s"),
    ("bench.ablation_governor_s", "s"),
    ("bench.ablation_consolidation_s", "s"),
    ("bench.fig_hetero_s", "s"),
    ("bench.serialize_ms", "ms"),
    ("sweep.wall_s", "s"),
    ("sweep.worker_busy_ratio", "ratio"),
    ("hetero.compose_ms", "ms"),
    ("measure.calls", "count"),
    ("measure.cache_hit_ratio", "ratio"),
    ("measure.miss_ms_p50", "ms"),
    ("measure.miss_ms_tail", "ms"),
    ("measure.miss_tail_pct", "%"),
    ("measure.miss_samples", "count"),
    ("workloads.prewarm_share", "ratio"),
    ("workloads.stream_ns_per_instr", "ns"),
    ("sim.new_ms", "ms"),
    ("sim.warm_up_s", "s"),
    ("sim.run_measured_s", "s"),
    ("sim.ns_per_cluster_cycle.cluster", "ns"),
    ("sim.ns_per_cluster_cycle.chip", "ns"),
    ("sim.ns_per_cluster_cycle.chip_multiclock", "ns"),
    ("sim.skipped_cycle_ratio", "ratio"),
    ("sim.llc_hit_ratio", "ratio"),
    ("sim.dram_reads_per_kcycle", "1/kcycle"),
    ("sim.dram_writes_per_kcycle", "1/kcycle"),
    ("sim.dram_row_hit_ratio", "ratio"),
    ("sim.dram_queue_high_water", "count"),
    ("model.evaluate_us", "us"),
    ("layer.bench.self_s", "s"),
    ("layer.sweep.self_s", "s"),
    ("layer.measure.self_s", "s"),
    ("layer.workloads.self_s", "s"),
    ("layer.sim.self_s", "s"),
    ("layer.model.self_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    pass: Option<PassKind>,
    spawned_at_ns: u128,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |flag: &str| flags.remove(flag);
    let workload = take("--workload").ok_or("--workload is required")?;
    let workload =
        Workload::parse(&workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let number = |flag: &str, value: Option<String>| -> Result<Option<u128>, String> {
        value
            .map(|v| v.parse::<u128>().map_err(|e| format!("{flag} {v:?}: {e}")))
            .transpose()
    };
    let seed = number("--seed", take("--seed"))?.ok_or("--seed is required")?;
    let seed = u64::try_from(seed).map_err(|_| "--seed must fit in 64 bits".to_owned())?;
    let pass = match take("--pass") {
        Some(kind) => Some(PassKind::parse(&kind).ok_or_else(|| format!("unknown pass {kind:?}"))?),
        None => None,
    };
    let spawned_at_ns = number("--spawned-at-ns", take("--spawned-at-ns"))?.unwrap_or(0);
    let (seconds, trace) = if pass.is_some() {
        (0, false)
    } else {
        let seconds = number("--seconds", take("--seconds"))?.ok_or("--seconds is required")?;
        let seconds = u64::try_from(seconds)
            .ok()
            .filter(|s| *s >= 1)
            .ok_or("--seconds must be a positive whole number")?;
        let trace = match take("--trace").as_deref() {
            Some("0") => false,
            Some("1") => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        };
        (seconds, trace)
    };
    if let Some(flag) = flags.keys().next() {
        return Err(format!("unknown argument {flag}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        pass,
        spawned_at_ns,
    })
}

/// What one pass reported.
#[derive(Debug, Default)]
struct Report {
    kind: PassKind,
    took_s: f64,
    setup_s: f64,
    wall_s: f64,
    cycles: f64,
    rss_mb: f64,
    ops: u64,
    failed: u64,
    digest: String,
    notes: Vec<String>,
    failures: Vec<String>,
    errors: Vec<String>,
    layers: BTreeMap<String, f64>,
}

fn spawn_pass(args: &Args, kind: PassKind) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this program: {e}"))?;
    let started = Instant::now();
    let spawned_at_ns = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_err(|e| format!("system clock before 1970: {e}"))?
        .as_nanos();
    let output = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--pass", kind.name()])
        .args(["--spawned-at-ns", &spawned_at_ns.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a {} pass: {e}", kind.name()))?;
    if !output.status.success() {
        return Err(format!(
            "the {} pass failed ({})",
            kind.name(),
            output.status
        ));
    }
    let mut report = Report {
        kind,
        took_s: started.elapsed().as_secs_f64(),
        ..Report::default()
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines() {
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        let num = || {
            rest.parse::<f64>()
                .map_err(|e| format!("bad pass output line {line:?}: {e}"))
        };
        match key {
            "setup_s" => report.setup_s = num()?,
            "wall_s" => report.wall_s = num()?,
            "cycles" => report.cycles = num()?,
            "rss_mb" => report.rss_mb = num()?,
            "ops" => report.ops = num()? as u64,
            "failed" => report.failed = num()? as u64,
            "digest" => report.digest = rest.to_owned(),
            "note" => report.notes.push(rest.to_owned()),
            "failure" => report.failures.push(rest.to_owned()),
            "error" => report.errors.push(rest.to_owned()),
            "layer" => {
                let (name, value) = rest
                    .split_once(' ')
                    .ok_or_else(|| format!("bad pass output line {line:?}"))?;
                let value = value
                    .parse::<f64>()
                    .map_err(|e| format!("bad pass output line {line:?}: {e}"))?;
                report.layers.insert(name.to_owned(), value);
            }
            _ => return Err(format!("unexpected pass output line {line:?}")),
        }
    }
    Ok(report)
}

/// Runs one pass of each kind in `kinds` side by side and waits for
/// every one of them, even when another fails.
fn spawn_batch(args: &Args, kinds: &[PassKind]) -> Result<Vec<Report>, String> {
    let finished: Vec<Result<Report, String>> = std::thread::scope(|s| {
        let running: Vec<_> = kinds
            .iter()
            .map(|&kind| s.spawn(move || spawn_pass(args, kind)))
            .collect();
        running
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a pass watcher panicked".to_owned()))
            })
            .collect()
    });
    finished.into_iter().collect()
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The checkout's commit, read from `.git` directly (the benchmark may
/// run where there is no git repository).
fn commit() -> String {
    let git = pass::repo_root().join(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown (no .git)".to_owned();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn run_passes(args: &Args) -> Result<(), String> {
    let start = Instant::now();
    let mut passes: Vec<Report> = Vec::new();
    loop {
        // A traced run alternates traced and plain passes. At most one
        // pass of a batch is traced, since each writes the same trace file.
        let traced = passes.iter().filter(|r| r.kind == PassKind::Traced).count();
        let kinds: Vec<PassKind> = (0..args.workload.passes_at_once())
            .map(|slot| {
                if args.trace && slot == 0 && traced * 2 <= passes.len() {
                    PassKind::Traced
                } else {
                    PassKind::Plain
                }
            })
            .collect();
        let batch = spawn_batch(args, &kinds)?;
        let took_s = batch.iter().map(|r| r.took_s).fold(0.0, f64::max);
        let next_end = start.elapsed().as_secs_f64() + took_s;
        passes.extend(batch);
        let kinds_done = !args.trace || passes.iter().any(|r| r.kind == PassKind::Plain);
        if next_end > RUN_LIMIT_S || (kinds_done && next_end > args.seconds as f64) {
            break;
        }
    }
    let mut setups: Vec<f64> = passes.iter().map(|r| r.setup_s).collect();
    while setups.len() < MIN_SETUPS {
        setups.push(spawn_pass(args, PassKind::Setup)?.setup_s);
    }

    let of =
        |kind: PassKind| -> Vec<&Report> { passes.iter().filter(|r| r.kind == kind).collect() };
    let (plain, traced) = (of(PassKind::Plain), of(PassKind::Traced));
    let attempted: u64 = passes.iter().map(|r| r.ops).sum();
    let failed: u64 = passes.iter().map(|r| r.failed).sum();
    let digest = &passes[0].digest;
    let same_digest = passes.iter().all(|r| &r.digest == digest);
    let errors: Vec<&String> = passes.iter().flat_map(|r| &r.errors).collect();
    let correct = failed == 0 && same_digest && errors.is_empty();

    println!(
        "ntcbench: workload={} seed={} commit={} nproc={} sweep_workers={} \
         passes={} plain + {} traced, setups={}",
        args.workload.name(),
        args.seed,
        commit(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        pass::sweep_workers(),
        plain.len(),
        traced.len(),
        setups.len(),
    );
    for (i, r) in passes.iter().enumerate() {
        println!(
            "pass {i} ({}): wall_s {:.4} setup_s {:.4} ops {} failed {} digest {}",
            r.kind.name(),
            r.wall_s,
            r.setup_s,
            r.ops,
            r.failed,
            r.digest
        );
    }
    if same_digest {
        println!("sim_digest {digest}");
    } else {
        println!("sim_digest differs between passes: simulated results are not deterministic");
    }
    let first_plain = plain.first().copied().unwrap_or(&passes[0]);
    for note in &first_plain.notes {
        println!("{note}");
    }
    for failure in passes.iter().flat_map(|r| &r.failures) {
        println!("failed operation: {failure}");
    }
    for error in &errors {
        println!("error: {error}");
    }

    let wall = |rs: &[&Report]| median(&rs.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let overhead = if plain.is_empty() {
            println!("trace.overhead_ratio: no plain pass fitted in the run, reported as 0");
            0.0
        } else {
            wall(&traced) / wall(&plain) - 1.0
        };
        for (name, unit) in PER_LAYER {
            let value = match name {
                "trace.overhead_ratio" => overhead,
                _ => median(
                    &traced
                        .iter()
                        .map(|r| r.layers.get(name).copied().unwrap_or(0.0))
                        .collect::<Vec<_>>(),
                ),
            };
            metrics.push((name, value, unit));
        }
    } else {
        let rate: Vec<f64> = plain.iter().map(|r| r.cycles / r.wall_s / 1e3).collect();
        let rss: Vec<f64> = plain.iter().map(|r| r.rss_mb).collect();
        let values = [wall(&plain), median(&setups), median(&rate), median(&rss)];
        for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
            metrics.push((name, value, unit));
        }
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // `+ 0.0` turns an empty sum's -0 into 0.
            let value = if value.is_finite() { *value + 0.0 } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(())
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!("ntcbench: refusing to time a debug build; build with --release");
        std::process::exit(2);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ntcbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match args.pass {
        Some(kind) => pass::run(args.workload, args.seed, kind, args.spawned_at_ns),
        None => run_passes(&args),
    };
    if let Err(e) = result {
        eprintln!("ntcbench: {e}");
        std::process::exit(1);
    }
}
