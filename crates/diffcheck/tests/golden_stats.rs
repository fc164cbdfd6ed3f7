//! Golden pin of the simulator's exact output.
//!
//! The differential pairs prove fast paths equal their reference twins,
//! but a change to the engine that both twins share (the core's issue
//! scheduler, the uncore's ticket bookkeeping, the stream generators)
//! passes every pair while moving every number. This test pins the
//! numbers themselves: the first [`CASES`] diffcheck shapes are simulated
//! plainly — warm-up, then the measured window, on `ClusterSim` or
//! `ChipSim` as the shape says — and one FNV-1a digest over every case's
//! window and cumulative [`SimStats`] must equal [`GOLDEN_DIGEST`].
//!
//! The shapes reach corners the figures never do: 16–160-entry ROBs
//! (mostly not powers of two), issue width 1–4, 1–12 MSHRs (MSHR-full
//! load retries), in-order cores, prefetching, learning branch
//! predictors, coherence traffic from shared stores and mixed-clock
//! chips. A legitimate change to the simulator's timing model moves the
//! digest; a pure speed-up must not.

use ntc_diffcheck::CaseShape;
use ntc_sim::{ChipSim, ClusterSim, SimStats};

/// Harness seed the pinned cases derive from.
const SEED: u64 = 0x5EED_0001;

/// Number of pinned cases.
const CASES: u64 = 200;

/// The pinned cases' digest. Only a deliberate change to the timing model
/// may re-pin it.
const GOLDEN_DIGEST: u64 = 0x2f22_16e9_083a_1935;

/// FNV-1a, folded over successive byte slices.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Warm-up then the measured window: `(window, cumulative)` statistics.
fn simulate(shape: &CaseShape) -> (SimStats, SimStats) {
    if shape.use_chip {
        let mut sim = ChipSim::new_chip(shape.chip_config(), |cl, c| shape.stream(cl, c));
        if shape.warm_cycles > 0 {
            sim.run(shape.warm_cycles);
        }
        let window = sim.run_measured(shape.measure_cycles);
        (window, sim.stats())
    } else {
        let mut sim = ClusterSim::new(shape.config, |c| shape.stream(0, c));
        if shape.warm_cycles > 0 {
            sim.warm_up(shape.warm_cycles);
        }
        let window = sim.run_measured(shape.measure_cycles);
        (window, sim.stats())
    }
}

#[test]
fn simulator_output_matches_the_golden_digest() {
    let mut digest = 0xCBF2_9CE4_8422_2325;
    for index in 0..CASES {
        let shape = CaseShape::generate(SEED, index);
        let (window, total) = simulate(&shape);
        for stats in [&window, &total] {
            let json = serde_json::to_string(stats).expect("SimStats serializes");
            digest = fnv1a(digest, json.as_bytes());
        }
    }
    assert_eq!(
        digest, GOLDEN_DIGEST,
        "simulated statistics moved: digest {digest:#018x}, pinned {GOLDEN_DIGEST:#018x}"
    );
}
