//! Differential fuzz harness for the simulator's fast paths.
//!
//! Every fast or observing path in this workspace is shadowed by a
//! simple reference implementation: the probed simulator by a plain run,
//! the parallel sweep by its serial twin, the power-of-two histogram by
//! exact sorted percentiles, and the energy probe's windowed attribution
//! by the cumulative run counters. These four oracle pairs are what
//! [`oracle::check`] runs.
//! This crate turns that redundancy into a randomized checker:
//!
//! 1. [`CaseShape::generate`] derives an arbitrary-but-valid simulator
//!    configuration and instruction-stream mix from `(seed, index)` —
//!    cluster and chip shapes, cache geometries, DRAM channel/bank
//!    layouts, frequencies from 100 MHz to 2 GHz.
//! 2. [`oracle::check`] runs the case through one fast/reference pair
//!    and demands bit-identical [`ntc_sim::SimStats`] (bounded error for
//!    percentiles, which are lossy by design).
//! 3. On divergence, [`shrink::shrink`] greedily reduces the case to a
//!    minimal still-failing shape, and the report carries a one-line
//!    repro command (`ntc-diffcheck --seed N --case M --pair P`).
//!
//! The `ntc-diffcheck` binary wraps [`runner::run`] with a time/case
//! budget for CI: a short PR-gated smoke run and a long nightly soak.
//! The harness validates itself with a mutation check: `--mutate` runs
//! the probed side of the telemetry pair with a DRAM CAS latency one
//! clock longer than the case's, a fault the pair must catch and shrink
//! (see `DESIGN.md`, Verification). The fault lives in this crate: no
//! simulator API carries it.

#![warn(missing_docs)]

pub mod case;
pub mod oracle;
pub mod runner;
pub mod shrink;

pub use case::{CaseShape, PercentileSpec, SampleKind, StreamSpec, SweepSpec};
pub use oracle::{check, Divergence, OraclePair};
pub use runner::{run, DiffcheckOptions, DivergenceReport, PairTally, Report};
pub use shrink::shrink;
