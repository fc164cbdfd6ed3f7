//! The budgeted differential-check loop.
//!
//! [`run`] walks case indices from a single seed, round-robins them over
//! the selected oracle pairs, and stops on a time budget, a case cap, or
//! after collecting enough divergences. Each divergence is shrunk (see
//! [`crate::shrink`](mod@crate::shrink)) unless shrinking is off, and reported with a
//! one-line repro command.

use crate::case::CaseShape;
use crate::oracle::{check, OraclePair};
use crate::shrink::shrink;
use serde::Serialize;
use std::time::{Duration, Instant};

/// Cases to run when neither a budget nor a case cap is given.
pub const DEFAULT_CASES: u64 = 200;

/// Oracle re-runs the shrinker may spend per divergence. Shrunk cases
/// are small (the first accepted candidates slash the cycle counts), so
/// individual re-runs are cheap and a generous cap buys minimality.
pub const SHRINK_BUDGET_RUNS: u32 = 600;

/// Knobs for one harness invocation.
#[derive(Debug, Clone)]
pub struct DiffcheckOptions {
    /// Master seed; every case derives from `(seed, index)`.
    pub seed: u64,
    /// First case index (the repro path sets this to the failing case).
    pub start_case: u64,
    /// Stop after this many cases (`None` = unbounded).
    pub max_cases: Option<u64>,
    /// Stop once this much wall-clock has elapsed (`None` = unbounded).
    pub budget: Option<Duration>,
    /// Pairs to exercise; empty means all four.
    pub pairs: Vec<OraclePair>,
    /// Plant the harness self-test's fault: the telemetry pair's probed
    /// side runs with a DRAM CAS latency one clock longer.
    pub mutate: bool,
    /// Shrink divergences before reporting.
    pub shrink: bool,
    /// Stop after this many divergences (shrinking is expensive).
    pub max_divergences: usize,
}

impl Default for DiffcheckOptions {
    fn default() -> Self {
        DiffcheckOptions {
            seed: 0x5EED_0001,
            start_case: 0,
            max_cases: None,
            budget: None,
            pairs: Vec::new(),
            mutate: false,
            shrink: true,
            max_divergences: 3,
        }
    }
}

/// Per-pair case/divergence counts.
#[derive(Debug, Clone, Serialize)]
pub struct PairTally {
    /// The oracle pair.
    pub pair: OraclePair,
    /// Cases routed to it.
    pub cases: u64,
    /// Divergences it reported.
    pub divergences: u64,
}

/// One reportable divergence, shrunk unless shrinking was off.
#[derive(Debug, Clone, Serialize)]
pub struct DivergenceReport {
    /// Harness seed.
    pub seed: u64,
    /// Index of the originally failing case.
    pub case_index: u64,
    /// The pair that disagreed.
    pub pair: OraclePair,
    /// First-difference description (from the reported shape).
    pub detail: String,
    /// The minimal still-failing shape, or the failing case as generated
    /// when shrinking was off.
    pub shrunk: CaseShape,
    /// Oracle re-runs the shrinker spent; `None` when shrinking was off.
    pub shrink_runs: Option<u32>,
}

impl DivergenceReport {
    /// The one-line command that regenerates and re-checks this case.
    pub fn repro_command(&self) -> String {
        format!(
            "ntc-diffcheck --seed {} --case {} --pair {}",
            self.seed,
            self.case_index,
            self.pair.name()
        )
    }
}

/// The outcome of one harness invocation.
#[derive(Debug, Clone)]
pub struct Report {
    /// Harness seed.
    pub seed: u64,
    /// Total cases checked.
    pub cases: u64,
    /// Wall-clock spent.
    pub elapsed: Duration,
    /// Per-pair counts (one entry per selected pair).
    pub tallies: Vec<PairTally>,
    /// Shrunk divergences, in discovery order.
    pub divergences: Vec<DivergenceReport>,
}

impl Report {
    /// Whether every case agreed with its reference.
    pub fn clean(&self) -> bool {
        self.divergences.is_empty()
    }

    /// A terminal-friendly multi-line summary.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "seed {:#x}: {} cases in {:.1}s across {} oracle pair(s)\n",
            self.seed,
            self.cases,
            self.elapsed.as_secs_f64(),
            self.tallies.len()
        );
        for t in &self.tallies {
            out.push_str(&format!(
                "  {:<11} {:>6} cases  {}\n",
                t.pair.name(),
                t.cases,
                if t.divergences == 0 {
                    "ok".to_string()
                } else {
                    format!("{} DIVERGENCE(S)", t.divergences)
                }
            ));
        }
        out.push_str(&format!("{} divergence(s)", self.divergences.len()));
        out
    }
}

/// Runs the differential harness to its budget.
pub fn run(opts: &DiffcheckOptions) -> Report {
    let start = Instant::now();
    let pairs: Vec<OraclePair> = if opts.pairs.is_empty() {
        OraclePair::ALL.to_vec()
    } else {
        opts.pairs.clone()
    };
    // With no explicit bound at all, fall back to a fixed case count so
    // a bare `run` always terminates.
    let case_cap = match (opts.max_cases, opts.budget) {
        (None, None) => Some(DEFAULT_CASES),
        (cap, _) => cap,
    };
    let mut tallies: Vec<PairTally> = pairs
        .iter()
        .map(|&pair| PairTally {
            pair,
            cases: 0,
            divergences: 0,
        })
        .collect();
    let mut divergences = Vec::new();
    let mut cases = 0u64;
    loop {
        if let Some(cap) = case_cap {
            if cases >= cap {
                break;
            }
        }
        if let Some(budget) = opts.budget {
            // Always run at least one case so a tiny budget still checks
            // something (and the repro path always re-runs its case).
            if cases > 0 && start.elapsed() >= budget {
                break;
            }
        }
        let index = opts.start_case + cases;
        let slot = (cases % pairs.len() as u64) as usize;
        let pair = pairs[slot];
        let shape = CaseShape::generate(opts.seed, index);
        cases += 1;
        tallies[slot].cases += 1;
        let Some(found) = check(pair, &shape, opts.mutate) else {
            continue;
        };
        tallies[slot].divergences += 1;
        let (shrunk, shrink_runs) = if opts.shrink {
            let (shrunk, runs) = shrink(&shape, pair, opts.mutate, SHRINK_BUDGET_RUNS);
            (shrunk, Some(runs))
        } else {
            (shape.clone(), None)
        };
        // Re-describe on the shrunk case so the detail matches the shape
        // the report carries; fall back to the original description if
        // shrinking somehow lost the divergence.
        let detail = check(pair, &shrunk, opts.mutate)
            .map(|d| d.detail)
            .unwrap_or(found.detail);
        divergences.push(DivergenceReport {
            seed: opts.seed,
            case_index: index,
            pair,
            detail,
            shrunk,
            shrink_runs,
        });
        if divergences.len() >= opts.max_divergences {
            break;
        }
    }
    Report {
        seed: opts.seed,
        cases,
        elapsed: start.elapsed(),
        tallies,
        divergences,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_bare_run_terminates_at_the_default_case_cap() {
        let opts = DiffcheckOptions {
            max_cases: Some(10),
            shrink: false,
            ..DiffcheckOptions::default()
        };
        let report = run(&opts);
        assert_eq!(report.cases, 10);
        assert_eq!(report.tallies.len(), OraclePair::ALL.len());
        assert_eq!(report.tallies.iter().map(|t| t.cases).sum::<u64>(), 10);
    }

    #[test]
    fn a_time_budget_runs_at_least_one_case() {
        let opts = DiffcheckOptions {
            budget: Some(Duration::ZERO),
            pairs: vec![OraclePair::Percentile],
            ..DiffcheckOptions::default()
        };
        let report = run(&opts);
        assert_eq!(report.cases, 1);
    }

    #[test]
    fn repro_commands_name_seed_case_and_pair() {
        let r = DivergenceReport {
            seed: 7,
            case_index: 12,
            pair: OraclePair::Telemetry,
            detail: String::new(),
            shrunk: CaseShape::generate(7, 12),
            shrink_runs: Some(0),
        };
        assert_eq!(
            r.repro_command(),
            "ntc-diffcheck --seed 7 --case 12 --pair telemetry"
        );
    }

    #[test]
    fn an_unshrunk_divergence_reports_the_case_as_generated() {
        let opts = DiffcheckOptions {
            seed: 0xBAD_5EF0,
            max_cases: Some(40),
            pairs: vec![OraclePair::Telemetry],
            mutate: true,
            shrink: false,
            max_divergences: 1,
            ..DiffcheckOptions::default()
        };
        let report = run(&opts);
        let d = report
            .divergences
            .first()
            .expect("the planted CAS-latency fault diverges");
        assert_eq!(d.shrink_runs, None);
        assert_eq!(d.shrunk, CaseShape::generate(opts.seed, d.case_index));
    }
}
