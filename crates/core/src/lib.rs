//! The near-threshold server study — the paper's primary contribution.
//!
//! `ntc-core` assembles the substrates (device models from [`ntc_tech`],
//! power models from [`ntc_power`], the cluster simulator from [`ntc_sim`]
//! driven by [`ntc_workloads`], SMARTS sampling from [`ntc_sampling`], QoS
//! models from [`ntc_qos`]) into the paper's experiment: sweep the core
//! frequency of a 36-core FD-SOI scale-out server from 100 MHz to 2 GHz
//! and find the energy-efficiency optimum (UIPS/Watt) at three accounting
//! scopes — cores, SoC and server — under QoS constraints.
//!
//! The paper's headline findings, all reproducible from this crate:
//!
//! * cores-only efficiency keeps rising down to the SRAM-limited 0.5 V
//!   floor (Fig. 3a/4a);
//! * adding the frequency-invariant uncore moves the optimum to ≈1 GHz
//!   (Fig. 3b/4b);
//! * adding DRAM background power moves it to ≈1–1.2 GHz (Fig. 3c/4c);
//! * scale-out QoS admits 200–500 MHz operation; VM degradation bounds
//!   admit 500 MHz (4×) / 1 GHz (2×) (Fig. 2).
//!
//! Extension modules implement the discussion section: body-bias
//! boost/sleep management ([`manager`]) and workload consolidation
//! ([`consolidation`]).
//!
//! # Quickstart
//!
//! ```no_run
//! use ntc_core::{FrequencySweep, MeasurementCache, ServerConfig, SimMeasurer};
//! use ntc_power::Scope;
//! use ntc_workloads::{CloudSuiteApp, WorkloadProfile};
//!
//! let server = ServerConfig::paper().build().unwrap();
//! let profile = WorkloadProfile::cloudsuite(CloudSuiteApp::WebSearch);
//! let measurer = MeasurementCache::new(SimMeasurer::fast(profile));
//! let sweep = FrequencySweep::paper_ladder();
//! let result = sweep.run(&server, &measurer).unwrap();
//! let (best, _) = result.optimum(Scope::Server).unwrap();
//! println!("server-scope optimum: {:.0} MHz", best.mhz);
//! ```

pub mod binning;
pub mod config;
pub mod consolidation;
pub mod efficiency;
pub mod governor;
pub mod hetero;
pub mod manager;
pub mod measure;
pub mod observe;
pub mod optimum;
pub mod report;
pub mod sweep;

pub use binning::{magnification, BinningStats, VariationStudy};
pub use config::{ServerConfig, ServerModel};
pub use consolidation::{ConsolidationPlan, Consolidator};
pub use efficiency::{EfficiencyPoint, SweepResult};
pub use governor::{GovernorPolicy, GovernorReport, QosGovernor};
pub use hetero::{
    iso_power, iso_qos, little_core_power, pareto_frontier, ChipPlan, ClusterPlan, HeteroPoint,
    HeteroSweep,
};
pub use manager::{BiasManager, ManagedPhase, ManagerPolicy};
pub use measure::{
    chip_fingerprint, config_fingerprint, profile_fingerprint, ClusterMeasurement, ClusterMeasurer,
    MeasureError, MeasurementCache, MeasurementKey, MeasurementStore, SimMeasurer, TableMeasurer,
};
pub use observe::{
    arm_energy, disarm_energy, energy_armed, fold_run, fold_runs, take_runs, RunActivity,
    RunEnergy, WindowEnergy,
};
pub use optimum::ConstrainedOptimum;
pub use sweep::{FrequencySweep, SweepError, SweepPoint};
