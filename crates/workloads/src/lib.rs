//! Workload models for the near-threshold server study (paper Sec. III).
//!
//! Two families:
//!
//! * **Scale-out applications** from CloudSuite — *Data Serving* (a NoSQL
//!   store driven YCSB-style), *Web Search*, *Web Serving* and *Media
//!   Streaming* — each represented by a [`WorkloadProfile`] carrying its
//!   published microarchitectural characterization (instruction mix, cache
//!   behaviour, memory-level parallelism, OS time) plus its QoS target
//!   (20/200/200/100 ms tail-latency budgets, Sec. V-A).
//! * **Virtualized banking applications**: batch financial analysis
//!   dominated by matrix multiplication, in two memory-provisioning
//!   classes — 100 MB *low-mem* and 700 MB *high-mem* — derived from the
//!   Bitbrains trace characterization ([`bitbrains`]).
//!
//! A profile turns into an executable [`ntc_sim::InstructionStream`] via
//! [`ProfileStream`], driving the `ntc-sim` cluster simulator.
//!
//! ```
//! use ntc_sim::{ClusterSim, SimConfig};
//! use ntc_workloads::{CloudSuiteApp, ProfileStream, WorkloadProfile};
//!
//! let profile = WorkloadProfile::cloudsuite(CloudSuiteApp::WebSearch);
//! let mut sim = ClusterSim::new(SimConfig::paper_cluster(2000.0), |core| {
//!     ProfileStream::new(profile.clone(), u64::from(core))
//! });
//! sim.warm_up(2_000);
//! let stats = sim.run_measured(5_000);
//! assert!(stats.uipc() > 0.1);
//! ```

pub mod banking;
pub mod bitbrains;
pub mod diurnal;
pub mod prewarm;
pub mod profile;
pub mod stream;

pub use banking::BankingWorkload;
pub use bitbrains::{BitbrainsSynthesizer, VmClass, VmRecord};
pub use diurnal::DiurnalLoad;
pub use prewarm::prewarm_cluster;
pub use profile::{CloudSuiteApp, QosTarget, WorkloadKind, WorkloadProfile};
pub use stream::ProfileStream;
