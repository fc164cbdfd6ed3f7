//! Differential fuzz harness CLI.
//!
//! ```text
//! ntc-diffcheck [--seed N] [--case M] [--pair NAME]... [--budget 30s|10m]
//!               [--cases K] [--mutate] [--no-shrink] [--artifact PATH]
//! ```
//!
//! Exit status: 0 when every case agreed with its reference, 1 on any
//! divergence (a JSON artifact with the shrunk case is written for CI to
//! upload), 2 on a usage error.

use ntc_diffcheck::{run, DiffcheckOptions, OraclePair};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
ntc-diffcheck — differential fuzz harness for the sim fast paths

USAGE:
    ntc-diffcheck [OPTIONS]

OPTIONS:
    --seed N         Master seed (decimal or 0x-hex). Default 0x5EED0001.
    --case M         Check only case index M (the repro path).
    --pair NAME      Restrict to one oracle pair; repeatable. Names:
                     telemetry, sweep, percentile, energy-probe.
    --budget DUR     Wall-clock budget: 500ms, 30s, 10m. Default 30s.
    --cases K        Stop after K cases (overrides the default budget).
    --mutate         Plant a fault in the harness (self-test): the
                     telemetry pair's probed side runs with a DRAM CAS
                     latency one clock longer and the pair must catch it.
    --no-shrink      Report divergences without shrinking them.
    --artifact PATH  Where to write the failing-case JSON.
                     Default diffcheck-failure.json.
    --help           This text.
";

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn parse_budget(s: &str) -> Option<Duration> {
    if let Some(ms) = s.strip_suffix("ms") {
        return ms.parse().ok().map(Duration::from_millis);
    }
    if let Some(secs) = s.strip_suffix('s') {
        return secs.parse().ok().map(Duration::from_secs);
    }
    if let Some(mins) = s.strip_suffix('m') {
        return mins
            .parse::<u64>()
            .ok()
            .map(|m| Duration::from_secs(m * 60));
    }
    s.parse().ok().map(Duration::from_secs)
}

struct Cli {
    opts: DiffcheckOptions,
    artifact: String,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut opts = DiffcheckOptions::default();
    let mut artifact = "diffcheck-failure.json".to_string();
    let mut budget: Option<Duration> = None;
    let mut cases: Option<u64> = None;
    let mut only_case: Option<u64> = None;
    let mut i = 0;
    let next = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                let v = next(&mut i, "--seed")?;
                opts.seed = parse_u64(&v).ok_or_else(|| format!("bad seed: {v}"))?;
            }
            "--case" => {
                let v = next(&mut i, "--case")?;
                only_case = Some(parse_u64(&v).ok_or_else(|| format!("bad case index: {v}"))?);
            }
            "--pair" => {
                let v = next(&mut i, "--pair")?;
                let pair = OraclePair::parse(&v).ok_or_else(|| format!("unknown pair: {v}"))?;
                opts.pairs.push(pair);
            }
            "--budget" => {
                let v = next(&mut i, "--budget")?;
                budget = Some(parse_budget(&v).ok_or_else(|| format!("bad budget: {v}"))?);
            }
            "--cases" => {
                let v = next(&mut i, "--cases")?;
                cases = Some(parse_u64(&v).ok_or_else(|| format!("bad case count: {v}"))?);
            }
            "--mutate" => opts.mutate = true,
            "--no-shrink" => opts.shrink = false,
            "--artifact" => artifact = next(&mut i, "--artifact")?,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag: {other}")),
        }
        i += 1;
    }
    if let Some(case) = only_case {
        opts.start_case = case;
        opts.max_cases = Some(cases.unwrap_or(1));
    } else {
        opts.max_cases = cases;
    }
    // Default to a 30 s smoke budget unless the caller bounded the run
    // some other way.
    opts.budget = budget.or(if opts.max_cases.is_none() {
        Some(Duration::from_secs(30))
    } else {
        None
    });
    Ok(Cli { opts, artifact })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("ntc-diffcheck: {msg}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&cli.opts);
    println!("{}", report.summary());
    if report.clean() {
        return ExitCode::SUCCESS;
    }
    for d in &report.divergences {
        let (shrink_note, shape_label) = match d.shrink_runs {
            Some(runs) => (format!("shrunk in {runs} re-runs"), "shrunk"),
            None => ("not shrunk".to_string(), "case"),
        };
        println!();
        println!(
            "DIVERGENCE: pair {} at case {} ({shrink_note})",
            d.pair.name(),
            d.case_index,
        );
        println!("  {}", d.detail);
        println!(
            "  {shape_label}: {} cluster(s) x {} core(s), {} DRAM channel(s) x {} bank(s), {} cycles",
            d.shrunk.clusters,
            d.shrunk.config.cores,
            d.shrunk.config.dram.channels,
            d.shrunk.config.dram.banks_per_channel(),
            d.shrunk.measure_cycles
        );
        println!("  repro: {}", d.repro_command());
    }
    match serde_json::to_string(&report.divergences) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&cli.artifact, json) {
                eprintln!("ntc-diffcheck: could not write {}: {e}", cli.artifact);
            } else {
                println!();
                println!("failing cases written to {}", cli.artifact);
            }
        }
        Err(e) => eprintln!("ntc-diffcheck: could not serialize divergences: {e}"),
    }
    ExitCode::FAILURE
}
