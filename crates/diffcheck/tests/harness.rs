//! End-to-end harness checks: a clean tree must be divergence-free, and
//! a deliberately planted fault must be caught *and* shrunk to a tiny
//! repro (the mutation check — if the harness ever stops seeing the
//! planted fault, the harness itself has regressed). `--mutate` plants
//! it inside the harness: the telemetry pair's probed side runs with a
//! DRAM CAS latency one clock longer than the case's.

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
fn injected_cas_latency_fault_is_caught_and_shrunk_small() {
    // Seed picked so the first diverging case has a single-cluster
    // minimal repro: the one-clock CAS fault moves the statistics only
    // when a later DRAM completion crosses a core-clock edge, and some
    // cases show it only with several clusters' worth of traffic; those
    // shrink to small multi-cluster repros.
    let opts = DiffcheckOptions {
        seed: 0xBAD_5EF1,
        max_cases: Some(40),
        pairs: vec![OraclePair::Telemetry],
        mutate: true,
        shrink: true,
        max_divergences: 1,
        ..DiffcheckOptions::default()
    };
    let report = run(&opts);
    assert!(
        !report.clean(),
        "the planted CAS-latency fault went undetected across {} cases",
        report.cases
    );
    let d = &report.divergences[0];
    assert_eq!(d.pair, OraclePair::Telemetry);
    assert!(!d.detail.is_empty());
    assert!(d.repro_command().contains("--pair telemetry"));
    // Acceptance bar: the shrinker reduces the planted fault to a repro of
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
    // The fault is planted in the telemetry pair only, so the
    // energy-probe pair, which also compares a probed run with a plain
    // one, stays clean and divergence stays attributable.
    let opts = DiffcheckOptions {
        seed: 0xBAD_5EED,
        max_cases: Some(10),
        pairs: vec![OraclePair::EnergyProbe],
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
