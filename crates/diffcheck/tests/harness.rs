//! End-to-end harness checks: a clean tree must be divergence-free, and
//! a deliberately injected scheduler bug must be caught *and* shrunk to
//! a tiny repro (the mutation check — if the harness ever stops seeing
//! the planted bug, the harness itself has regressed).

use ntc_diffcheck::{run, DiffcheckOptions, OraclePair};

#[test]
fn clean_tree_is_divergence_free_across_all_pairs() {
    let cases = 3 * OraclePair::ALL.len() as u64;
    let opts = DiffcheckOptions {
        seed: 0xD1FF_C0DE,
        max_cases: Some(cases),
        shrink: false,
        ..DiffcheckOptions::default()
    };
    let report = run(&opts);
    assert_eq!(report.cases, cases);
    assert!(
        report.clean(),
        "fast/reference divergences on a clean tree: {:#?}",
        report
            .divergences
            .iter()
            .map(|d| (d.pair, &d.detail))
            .collect::<Vec<_>>()
    );
    // Round-robin routing: every pair saw its three cases.
    assert_eq!(report.tallies.len(), OraclePair::ALL.len());
    assert!(report.tallies.iter().all(|t| t.cases == 3));
}

#[test]
fn injected_scheduler_bug_is_caught_and_shrunk_small() {
    // Seed picked so the first diverging case has a single-cluster
    // minimal repro: the planted row-hit fault needs concurrent requests
    // to surface, and some cases only exhibit it with several clusters'
    // worth of traffic — those shrink to small multi-cluster repros.
    let opts = DiffcheckOptions {
        seed: 0xBAD_5EF0,
        max_cases: Some(40),
        pairs: vec![OraclePair::DramSched],
        mutate: true,
        shrink: true,
        max_divergences: 1,
        ..DiffcheckOptions::default()
    };
    let report = run(&opts);
    assert!(
        !report.clean(),
        "the planted FR-FCFS mutation went undetected across {} cases",
        report.cases
    );
    let d = &report.divergences[0];
    assert_eq!(d.pair, OraclePair::DramSched);
    assert!(!d.detail.is_empty());
    assert!(d.repro_command().contains("--pair dram-sched"));
    // Acceptance bar: the shrinker reduces the planted bug to a repro of
    // at most 2 cores over at most 2 DRAM banks.
    let shrunk = &d.shrunk;
    let banks = shrunk.config.dram.channels * shrunk.config.dram.banks_per_channel();
    assert!(
        shrunk.config.cores <= 2,
        "shrunk repro still uses {} cores",
        shrunk.config.cores
    );
    assert!(banks <= 2, "shrunk repro still uses {banks} banks");
    assert_eq!(
        shrunk.clusters, 1,
        "shrunk repro still uses multiple clusters"
    );
}

#[test]
fn mutation_leaves_the_other_sim_pairs_identical() {
    // The fault is applied to *both* sides of the telemetry and
    // energy-probe pairs, so divergence stays attributable to dram-sched.
    let opts = DiffcheckOptions {
        seed: 0xBAD_5EED,
        max_cases: Some(10),
        pairs: vec![OraclePair::Telemetry, OraclePair::EnergyProbe],
        mutate: true,
        shrink: false,
        ..DiffcheckOptions::default()
    };
    let report = run(&opts);
    assert!(
        report.clean(),
        "mutation leaked into a pair that should self-cancel: {:#?}",
        report
            .divergences
            .iter()
            .map(|d| (d.pair, &d.detail))
            .collect::<Vec<_>>()
    );
}
