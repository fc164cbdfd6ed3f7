//! `bench-trajectory`: appends one machine-readable perf entry to
//! `BENCH_sim.json`.
//!
//! Times the simulator's kernel groups — cluster cycles per workload
//! class and the DRAM scheduler under a random read stream — with an
//! `Instant` harness that runs every kernel [`REPS`] times, round-robin
//! across the kernels so that host drift hits them all alike, then appends
//! `{commit, date, reps, groups}` to the `trajectory` array (creating it
//! when absent). Each kernel's cell is `{"median": ms, "quartiles": [q1,
//! q3]}`. The existing top-level baseline fields are left untouched, so
//! the file keeps its curated commentary while the trajectory grows one
//! entry per recorded run.
//!
//! Run from the repository root with `cargo run --release -p ntc-bench
//! --bin bench-trajectory`. Debug-build timings would be meaningless;
//! the binary refuses to record them.
//!
//! ```text
//! bench-trajectory [--file PATH] [--dry-run]
//! ```

use ntc_sim::{ClusterSim, SimConfig};
use ntc_workloads::{prewarm_cluster, CloudSuiteApp, ProfileStream, WorkloadProfile};
use serde_json::Value;
use std::hint::black_box;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Timing repetitions per kernel.
const REPS: usize = 9;

fn cluster_kernel(app: CloudSuiteApp) -> impl FnMut() {
    let profile = WorkloadProfile::cloudsuite(app);
    move || {
        let p = profile.clone();
        let mut sim = ClusterSim::new(SimConfig::paper_cluster(1000.0), |core| {
            ProfileStream::new(p.clone(), u64::from(core))
        });
        prewarm_cluster(&mut sim, &profile);
        black_box(sim.run(20_000));
    }
}

fn dram_kernel() -> impl FnMut() {
    use ntc_sim::config::DramTimingConfig;
    use ntc_sim::dram::DramSystem;
    move || {
        let mut sys = DramSystem::new(DramTimingConfig::ddr4_1600_paper());
        let mut x = 0x9E3779B97F4A7C15u64;
        for i in 0..10_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            sys.read((x % (1 << 30)) & !63, i * 500);
            if i % 64 == 63 {
                sys.tick(i * 500);
            }
        }
        sys.tick(u64::MAX / 2);
        black_box(sys.stats());
    }
}

/// One timed kernel: its group, its name in the group, and its body.
type Kernel = (&'static str, &'static str, Box<dyn FnMut()>);

fn kernels() -> Vec<Kernel> {
    vec![
        (
            "cluster_sim",
            "websearch_20k_cycles_ms",
            Box::new(cluster_kernel(CloudSuiteApp::WebSearch)),
        ),
        (
            "cluster_sim",
            "data_serving_20k_cycles_ms",
            Box::new(cluster_kernel(CloudSuiteApp::DataServing)),
        ),
        (
            "dram_scheduler",
            "fr_fcfs_random_10k_reads_ms",
            Box::new(dram_kernel()),
        ),
    ]
}

/// The `p`-quantile of ascending `sorted`, interpolating between ranks.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let pos = (sorted.len() - 1) as f64 * p;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn ms(x: f64) -> Value {
    Value::F64((x * 100.0).round() / 100.0)
}

/// Runs every kernel [`REPS`] times, one round over all kernels at a
/// time, and returns the groups of `{median, quartiles}` cells in kernel
/// order.
fn time_kernels() -> Value {
    let mut kernels = kernels();
    let mut samples = vec![Vec::with_capacity(REPS); kernels.len()];
    for _ in 0..REPS {
        for ((_, _, run), times) in kernels.iter_mut().zip(&mut samples) {
            let t = Instant::now();
            run();
            times.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    let mut groups: Vec<(String, Value)> = Vec::new();
    for ((group, name, _), mut times) in kernels.into_iter().zip(samples) {
        times.sort_by(f64::total_cmp);
        let cell = map(vec![
            ("median", ms(quantile(&times, 0.5))),
            (
                "quartiles",
                Value::Seq(vec![ms(quantile(&times, 0.25)), ms(quantile(&times, 0.75))]),
            ),
        ]);
        match groups.last_mut() {
            Some((g, Value::Map(cells))) if g == group => cells.push((name.to_owned(), cell)),
            _ => groups.push((group.to_owned(), map(vec![(name, cell)]))),
        }
    }
    Value::Map(groups)
}

fn map(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let line = String::from_utf8(out.stdout).ok()?;
    let line = line.trim();
    (!line.is_empty()).then(|| line.to_owned())
}

fn main() -> ExitCode {
    let mut file = "BENCH_sim.json".to_owned();
    let mut dry_run = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--file" => match args.next() {
                Some(v) => file = v,
                None => {
                    eprintln!("bench-trajectory: --file needs a value");
                    return ExitCode::from(2);
                }
            },
            "--dry-run" => dry_run = true,
            other => {
                eprintln!("bench-trajectory: unknown flag {other:?}");
                eprintln!("usage: bench-trajectory [--file PATH] [--dry-run]");
                return ExitCode::from(2);
            }
        }
    }
    if cfg!(debug_assertions) {
        eprintln!("bench-trajectory: refusing to record debug-build timings; use --release");
        return ExitCode::from(2);
    }

    let commit = command_line("git", &["rev-parse", "--short", "HEAD"])
        .unwrap_or_else(|| "unknown".to_owned());
    let date = command_line("date", &["+%F"]).unwrap_or_else(|| "unknown".to_owned());

    eprintln!("bench-trajectory: timing kernel groups ({REPS} round-robin runs each)...");
    let groups = time_kernels();
    let entry = map(vec![
        ("commit", Value::Str(commit)),
        ("date", Value::Str(date)),
        ("reps", Value::U64(REPS as u64)),
        ("groups", groups),
    ]);

    let text = match std::fs::read_to_string(&file) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("bench-trajectory: cannot read {file}: {e} (run from the repo root)");
            return ExitCode::FAILURE;
        }
    };
    let mut root: Value = match serde_json::from_str(&text) {
        Ok(root) => root,
        Err(e) => {
            eprintln!("bench-trajectory: {file} is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Value::Map(fields) = &mut root else {
        eprintln!("bench-trajectory: {file} is not a JSON object");
        return ExitCode::FAILURE;
    };
    match fields.iter_mut().find(|(k, _)| k == "trajectory") {
        Some((_, Value::Seq(entries))) => entries.push(entry),
        Some(slot) => slot.1 = Value::Seq(vec![entry]),
        None => fields.push(("trajectory".to_owned(), Value::Seq(vec![entry]))),
    }

    let rendered = match serde_json::to_string_pretty(&root) {
        Ok(rendered) => rendered,
        Err(e) => {
            eprintln!("bench-trajectory: could not serialize: {e}");
            return ExitCode::FAILURE;
        }
    };
    if dry_run {
        println!("{rendered}");
        return ExitCode::SUCCESS;
    }
    if let Err(e) = std::fs::write(&file, rendered + "\n") {
        eprintln!("bench-trajectory: could not write {file}: {e}");
        return ExitCode::FAILURE;
    }
    println!("bench-trajectory: appended one entry to {file}");
    ExitCode::SUCCESS
}
