//! `ntc-report`: renders one figure run's telemetry artifacts as a
//! human-readable report.
//!
//! Ingests the `<name>.metrics.jsonl` and `<name>.energy.jsonl` files a
//! figure binary run with `--metrics` / `--energy` left under
//! `results/telemetry/`, and prints:
//!
//! * the top line — peak UIPS and total server energy;
//! * the per-component energy breakdown (windowed vs analytic, with the
//!   closure error per frequency);
//! * measurement-cache and LLC hit/miss counters.
//!
//! Exits non-zero when any run's windowed-vs-analytic energy closure
//! exceeds the tolerance (default 0.1 %), which makes the report double
//! as the CI assertion that the energy plane stays sound.
//!
//! ```text
//! ntc-report <name> [--dir DIR] [--tolerance FRAC]
//! ```

use serde_json::Value;
use std::process::ExitCode;

struct Options {
    name: String,
    dir: String,
    tolerance: f64,
}

fn parse_args() -> Result<Options, String> {
    let mut name = None;
    let mut dir = ntc_bench::TELEMETRY_DIR.to_owned();
    let mut tolerance = 1e-3;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--dir" => dir = args.next().ok_or("--dir needs a value")?,
            "--tolerance" => {
                let v = args.next().ok_or("--tolerance needs a value")?;
                tolerance = v
                    .parse()
                    .map_err(|e| format!("bad --tolerance {v:?}: {e}"))?;
            }
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => return Err(format!("unknown flag {other:?}")),
            other => {
                if name.replace(other.to_owned()).is_some() {
                    return Err("expected exactly one run name".to_owned());
                }
            }
        }
    }
    Ok(Options {
        name: name.ok_or("expected a run name (e.g. `ntc-report fig2`)")?,
        dir,
        tolerance,
    })
}

/// Parses a JSONL file into one `Value` per non-empty line. `None` when
/// the file does not exist; malformed lines are reported and skipped.
fn read_jsonl(path: &str) -> Option<Vec<Value>> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str(line) {
            Ok(v) => records.push(v),
            Err(err) => eprintln!("warning: {path}:{}: {err}", i + 1),
        }
    }
    Some(records)
}

fn f(v: &Value, key: &str) -> f64 {
    v[key].as_f64().unwrap_or(0.0)
}

fn find_metric<'a>(metrics: &'a [Value], name: &str) -> Option<&'a Value> {
    metrics.iter().find(|m| m["name"] == name)
}

fn counter(metrics: &[Value], name: &str) -> Option<u64> {
    find_metric(metrics, name).and_then(|m| m["value"].as_u64())
}

fn print_energy(runs: &[&Value], windows: &[&Value], tolerance: f64) -> bool {
    let mut ok = true;

    println!("\nEnergy attribution (windowed vs analytic, server scope)");
    println!(
        "  {:>8}  {:>8}  {:>12}  {:>12}  {:>10}",
        "MHz", "windows", "windowed J", "analytic J", "closure"
    );
    for run in runs {
        let err = f(run, "closure_error");
        let within = err <= tolerance;
        ok &= within;
        println!(
            "  {:>8.0}  {:>8.0}  {:>12.4}  {:>12.4}  {:>9.2e}{}",
            f(run, "mhz"),
            f(run, "windows"),
            f(run, "windowed_server_j"),
            f(run, "analytic_server_j"),
            err,
            if within {
                ""
            } else {
                "  <-- EXCEEDS TOLERANCE"
            },
        );
    }

    println!("\nPer-component energy (windowed J, summed over runs)");
    let components = [
        ("cores_dynamic_j", "cores dynamic"),
        ("cores_static_j", "cores static"),
        ("llc_j", "LLC"),
        ("xbar_j", "crossbar"),
        ("io_j", "I/O"),
        ("dram_background_j", "DRAM background"),
        ("dram_dynamic_j", "DRAM dynamic"),
    ];
    let total: f64 = components
        .iter()
        .map(|(key, _)| runs.iter().map(|r| f(r, key)).sum::<f64>())
        .sum();
    for (key, label) in components {
        let j: f64 = runs.iter().map(|r| f(r, key)).sum();
        let share = if total > 0.0 { 100.0 * j / total } else { 0.0 };
        println!("  {label:>15}  {j:>12.4} J  {share:>5.1} %");
    }
    println!("  {:>15}  {total:>12.4} J", "total");

    if !windows.is_empty() {
        let peak = windows.iter().map(|w| f(w, "server_w")).fold(0.0, f64::max);
        let lowest = windows
            .iter()
            .map(|w| f(w, "server_w"))
            .fold(f64::INFINITY, f64::min);
        println!(
            "\n  {} windows across {} runs; server power rail spans {:.2} – {:.2} W",
            windows.len(),
            runs.len(),
            lowest,
            peak
        );
    }
    ok
}

fn print_metrics(metrics: &[Value]) {
    let pairs = [
        (
            "measurement cache",
            "measure.cache.hits",
            "measure.cache.misses",
        ),
        ("simulated LLC", "sim.llc.hits", "sim.llc.misses"),
        (
            "DRAM row buffer",
            "sim.dram.row_hits",
            "sim.dram.row_misses",
        ),
    ];
    let mut printed_header = false;
    for (label, hits_name, misses_name) in pairs {
        let (hits, misses) = (counter(metrics, hits_name), counter(metrics, misses_name));
        if hits.is_none() && misses.is_none() {
            continue;
        }
        // A never-touched lazy counter stays unregistered, so an absent
        // half of a present pair means zero, not "unknown".
        let (hits, misses) = (hits.unwrap_or(0), misses.unwrap_or(0));
        if !printed_header {
            println!("\nHit/miss counters");
            printed_header = true;
        }
        let total = hits + misses;
        let rate = if total > 0 {
            100.0 * hits as f64 / total as f64
        } else {
            0.0
        };
        println!("  {label:>17}: {hits} hits / {misses} misses ({rate:.1} % hit rate)");
    }
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}");
            }
            eprintln!("usage: ntc-report <name> [--dir DIR] [--tolerance FRAC]");
            return ExitCode::from(2);
        }
    };

    let energy_path = format!("{}/{}.energy.jsonl", options.dir, options.name);
    let metrics_path = format!("{}/{}.metrics.jsonl", options.dir, options.name);
    let energy = read_jsonl(&energy_path);
    let metrics = read_jsonl(&metrics_path);
    if energy.is_none() && metrics.is_none() {
        eprintln!(
            "error: neither {energy_path} nor {metrics_path} exists; \
             run the figure with --energy and/or --metrics first"
        );
        return ExitCode::from(2);
    }

    println!("ntc-report: {}", options.name);

    let energy = energy.unwrap_or_default();
    let runs: Vec<&Value> = energy.iter().filter(|r| r["kind"] == "run").collect();
    let windows: Vec<&Value> = energy.iter().filter(|r| r["kind"] == "window").collect();

    // Top line: work and energy — the report's headline.
    let total_j: f64 = runs.iter().map(|r| f(r, "windowed_server_j")).sum();
    let peak_uips = runs.iter().map(|r| f(r, "uips")).fold(0.0, f64::max);
    let metrics = metrics.unwrap_or_default();
    println!(
        "  peak UIPS {:.3e} | server energy {:.3} J over {} simulated runs",
        peak_uips,
        total_j,
        runs.len()
    );

    let mut ok = true;
    if !runs.is_empty() {
        ok = print_energy(&runs, &windows, options.tolerance);
    }
    if !metrics.is_empty() {
        print_metrics(&metrics);
    }

    if !ok {
        eprintln!(
            "error: windowed energy attribution failed to close within {:.1e}",
            options.tolerance
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
