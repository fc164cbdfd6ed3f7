//! Quality-of-service models (paper Sec. V-A, Fig. 2).
//!
//! The paper's QoS methodology has three parts, all implemented here:
//!
//! 1. **Baseline tail latency** — the minimum 99th-percentile latency of
//!    each scale-out application is measured once on real hardware at
//!    2 GHz in a near-zero-contention setup. We take that scalar from the
//!    workload profile's calibrated `baseline_l99_norm`.
//! 2. **Latency scaling** — since the number of user instructions per
//!    request is constant across contention points, request latency scales
//!    as the inverse of simulated UIPS:
//!    `L99(f) = L99(2 GHz) · UIPS(2 GHz) / UIPS(f)` ([`scaling`]).
//! 3. **QoS checking** — scale-out apps must keep normalized 99th-
//!    percentile latency ≤ 1 (budgets: 20/200/200/100 ms); virtualized
//!    batch VMs must keep execution-time degradation under the industrial
//!    2× / 4× bounds ([`degradation`]).

pub mod degradation;
pub mod scaling;

pub use degradation::DegradationModel;
pub use scaling::{LatencyScaler, QosCurve, QosPoint};
