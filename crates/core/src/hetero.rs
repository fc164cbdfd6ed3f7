//! Heterogeneous chip sweeps: big/little cluster mixes under iso-power
//! and iso-QoS constraints.
//!
//! The paper's sweep is homogeneous — every cluster runs the same
//! Cortex-A57 cores at the same frequency. The per-cluster configuration
//! plane lifts that restriction: each cluster is its own clock domain and
//! may use a different core class. This module plans and evaluates such
//! chips *compositionally*: each distinct `(class, frequency)` cluster
//! configuration is measured once (the measurement cache makes repeats
//! free), then chip throughput and power are assembled from per-class
//! power models at per-cluster operating points, sharing one DRAM
//! bandwidth budget — the same composition
//! [`FrequencySweep::evaluate`](crate::FrequencySweep::evaluate) uses for
//! the homogeneous chip, generalised to a mixed cluster vector.
//!
//! The output of [`HeteroSweep::run`] is a cloud of [`HeteroPoint`]s;
//! [`pareto_frontier`], [`iso_power`] and [`iso_qos`] carve out the
//! frontier the paper's discussion section asks about: does a big/little
//! mix dominate every homogeneous point on throughput-per-watt at equal
//! power?

use crate::config::ServerModel;
use crate::measure::{ClusterMeasurement, MeasureError};
use crate::sweep::SweepError;
use ntc_power::{CoreActivity, CorePowerModel, DramTraffic, PowerBreakdown};
use ntc_tech::{BodyBias, CoreClass, OperatingPoint, TechError, Technology, Watts};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Effective switched capacitance of a little (Cortex-A53-class) core
/// relative to the big (Cortex-A57-class) core.
///
/// The A53 core occupies roughly a third of the A57's area in the same
/// 28 nm node, and switched capacitance tracks device width, so the
/// little core's `Ceff` is modelled at 35 % of
/// [`ntc_power::core::A57_CEFF_FARADS`].
pub const LITTLE_CEFF_RATIO: f64 = 0.35;

/// One cluster of a planned heterogeneous chip: which core class it
/// uses, the frequency its clock domain runs at, and the body bias its
/// V/f point is resolved under.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterPlan {
    /// Core microarchitecture class.
    pub class: CoreClass,
    /// Cluster clock frequency in MHz.
    pub mhz: f64,
    /// Body bias for this cluster's operating point.
    pub bias: BodyBias,
}

/// A whole planned chip: one [`ClusterPlan`] per cluster instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChipPlan {
    /// Per-cluster plans.
    pub clusters: Vec<ClusterPlan>,
}

impl ChipPlan {
    /// A big.LITTLE mix: `n_big` big clusters at `big_mhz` followed by
    /// `n_little` little clusters at `little_mhz`, all unbiased.
    pub fn big_little(n_big: u32, big_mhz: f64, n_little: u32, little_mhz: f64) -> Self {
        let big = ClusterPlan {
            class: CoreClass::Big,
            mhz: big_mhz,
            bias: BodyBias::ZERO,
        };
        let little = ClusterPlan {
            class: CoreClass::Little,
            mhz: little_mhz,
            bias: BodyBias::ZERO,
        };
        ChipPlan {
            clusters: (0..n_big)
                .map(|_| big)
                .chain((0..n_little).map(|_| little))
                .collect(),
        }
    }

    /// `(big, little)` cluster counts.
    pub fn counts(&self) -> (u32, u32) {
        let big = self
            .clusters
            .iter()
            .filter(|c| c.class == CoreClass::Big)
            .count() as u32;
        (big, self.clusters.len() as u32 - big)
    }

    /// A compact human-readable label, e.g. `"3B@1600+6L@600"`.
    pub fn label(&self) -> String {
        let (n_big, n_little) = self.counts();
        let freq_of = |class: CoreClass| {
            self.clusters
                .iter()
                .find(|c| c.class == class)
                .map_or(0.0, |c| c.mhz)
        };
        match (n_big, n_little) {
            (_, 0) => format!("{n_big}B@{:.0}", freq_of(CoreClass::Big)),
            (0, _) => format!("{n_little}L@{:.0}", freq_of(CoreClass::Little)),
            _ => format!(
                "{n_big}B@{:.0}+{n_little}L@{:.0}",
                freq_of(CoreClass::Big),
                freq_of(CoreClass::Little)
            ),
        }
    }
}

/// One evaluated heterogeneous chip configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeteroPoint {
    /// The plan this point evaluates.
    pub plan: ChipPlan,
    /// Resolved operating point of each cluster (aligned with
    /// `plan.clusters`).
    pub ops: Vec<OperatingPoint>,
    /// Chip-level user instructions per second (DRAM saturation applied).
    pub uips: f64,
    /// The slowest cluster's per-core UIPS — the QoS-critical rate a
    /// request pinned to the weakest core sees.
    pub min_core_uips: f64,
    /// Per-component power.
    pub power: PowerBreakdown,
}

impl HeteroPoint {
    /// Total server power.
    pub fn watts(&self) -> Watts {
        self.power.server()
    }

    /// Server-scope efficiency, UIPS per watt.
    pub fn uips_per_watt(&self) -> f64 {
        self.uips / self.watts().0
    }
}

/// The heterogeneous sweep driver: per-class frequency ladders and the
/// big/little mix ratios to enumerate. Every cluster runs unbiased with
/// busy cores.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeteroSweep {
    big_ladder: Vec<f64>,
    little_ladder: Vec<f64>,
    mixes: Vec<(u32, u32)>,
}

impl HeteroSweep {
    /// A sweep over explicit per-class ladders (MHz) and `(big, little)`
    /// cluster-count mixes.
    ///
    /// # Panics
    ///
    /// Panics if either ladder contains non-positive frequencies, if both
    /// ladders are empty, if `mixes` is empty, or if any mix is `(0, 0)`.
    pub fn new(big_ladder: Vec<f64>, little_ladder: Vec<f64>, mixes: Vec<(u32, u32)>) -> Self {
        let ok = |l: &[f64]| l.iter().all(|f| f.is_finite() && *f > 0.0);
        assert!(
            ok(&big_ladder) && ok(&little_ladder),
            "frequencies must be positive"
        );
        assert!(
            !big_ladder.is_empty() || !little_ladder.is_empty(),
            "both ladders are empty"
        );
        assert!(!mixes.is_empty(), "no mixes to sweep");
        assert!(
            mixes.iter().all(|&(b, l)| b + l > 0),
            "a mix must have at least one cluster"
        );
        HeteroSweep {
            big_ladder,
            little_ladder,
            mixes,
        }
    }

    /// The paper-chip sweep: every big/little split of `clusters`
    /// clusters, both classes on the paper's 100 MHz – 2 GHz ladder.
    pub fn paper(clusters: u32) -> Self {
        let ladder: Vec<f64> = (1..=20).map(|i| f64::from(i) * 100.0).collect();
        Self::new(
            ladder.clone(),
            ladder,
            (0..=clusters).map(|b| (b, clusters - b)).collect(),
        )
    }

    /// Runs the sweep: for every mix and every per-class ladder pairing,
    /// resolve each cluster's V/f point, measure each distinct
    /// `(class, frequency)` cluster once via `measure`, and compose the
    /// chip. Plans with any unreachable cluster frequency are skipped,
    /// mirroring the silicon (and
    /// [`FrequencySweep::run`](crate::FrequencySweep::run)).
    ///
    /// `measure` is typically a [`crate::SimMeasurer`] per class behind a
    /// shared [`crate::MeasurementCache`]; results are additionally
    /// memoized here so each `(class, frequency)` simulates at most once
    /// per sweep even with a cacheless measurer. The memo stays in front
    /// of a cache because a lookup is not free: `HeteroSweep::paper(9)`
    /// composes 3,240 plans over 29,160 cluster slots from 40 distinct
    /// measurements, and each lookup serializes and FNV-hashes the profile
    /// and cluster config into its key (8–16 µs a call in a release build
    /// on a 2-vCPU host), so serving every slot from the cache would add
    /// about 0.25–0.45 s to a fast-fidelity pass over every figure.
    ///
    /// # Errors
    ///
    /// [`SweepError::NoReachablePoints`] if every plan was skipped,
    /// [`SweepError::Tech`] for unexpected model failures, or
    /// [`SweepError::Measure`] if `measure` failed.
    pub fn run<F>(
        &self,
        server: &ServerModel,
        mut measure: F,
    ) -> Result<Vec<HeteroPoint>, SweepError>
    where
        F: FnMut(CoreClass, f64) -> Result<ClusterMeasurement, MeasureError>,
    {
        let _span = ntc_telemetry::trace::span_cat("sweep", "hetero.run");
        let tech = server.core_power().timing().technology().clone();
        let big_power = server.core_power().clone();
        let little_power =
            little_core_power(server).map_err(|source| SweepError::Tech { mhz: 0.0, source })?;

        let mut memo: HashMap<(CoreClass, u64), ClusterMeasurement> = HashMap::new();
        let mut points = Vec::new();
        for &(n_big, n_little) in &self.mixes {
            // A class with zero clusters contributes nothing; collapse its
            // ladder to a single placeholder so the pairing loop stays
            // rectangular without duplicating plans.
            let big_freqs = ladder_for(n_big, &self.big_ladder);
            let little_freqs = ladder_for(n_little, &self.little_ladder);
            for &big_mhz in big_freqs {
                for &little_mhz in little_freqs {
                    let plan = ChipPlan::big_little(n_big, big_mhz, n_little, little_mhz);
                    let Some(ops) = resolve_ops(&plan, &tech)? else {
                        continue;
                    };
                    let point = Self::evaluate(
                        server,
                        plan,
                        ops,
                        (&big_power, &little_power),
                        &mut memo,
                        &mut measure,
                    )?;
                    points.push(point);
                }
            }
        }
        if points.is_empty() {
            return Err(SweepError::NoReachablePoints);
        }
        Ok(points)
    }

    /// Assembles one heterogeneous point from resolved per-cluster
    /// operating points and per-cluster measurements — the mixed-vector
    /// generalisation of
    /// [`FrequencySweep::evaluate`](crate::FrequencySweep::evaluate).
    fn evaluate<F>(
        server: &ServerModel,
        plan: ChipPlan,
        ops: Vec<OperatingPoint>,
        (big_power, little_power): (&CorePowerModel, &CorePowerModel),
        memo: &mut HashMap<(CoreClass, u64), ClusterMeasurement>,
        measure: &mut F,
    ) -> Result<HeteroPoint, SweepError>
    where
        F: FnMut(CoreClass, f64) -> Result<ClusterMeasurement, MeasureError>,
    {
        let cores_per_cluster = f64::from(server.config().cores_per_cluster);
        let mut measurements = Vec::with_capacity(plan.clusters.len());
        for cluster in &plan.clusters {
            let key = (cluster.class, cluster.mhz.to_bits());
            let m = match memo.get(&key) {
                Some(m) => *m,
                None => {
                    let m = measure(cluster.class, cluster.mhz).map_err(|source| {
                        SweepError::Measure {
                            mhz: cluster.mhz,
                            source,
                        }
                    })?;
                    memo.insert(key, m);
                    m
                }
            };
            measurements.push(m);
        }

        // Chip-level traffic: every cluster contributes; aggregate DRAM
        // bandwidth saturates at the channels' peak, and throughput
        // saturates with it.
        let peak = server.dram().config().peak_bandwidth();
        let total_traffic: f64 = measurements
            .iter()
            .map(|m| m.dram_read_bps + m.dram_write_bps)
            .sum();
        let scale = if total_traffic > peak {
            peak / total_traffic
        } else {
            1.0
        };
        let traffic = DramTraffic::new(
            measurements.iter().map(|m| m.dram_read_bps).sum::<f64>() * scale,
            measurements.iter().map(|m| m.dram_write_bps).sum::<f64>() * scale,
        );
        let uips: f64 = measurements.iter().map(|m| m.uips).sum::<f64>() * scale;
        let min_core_uips = measurements
            .iter()
            .map(|m| m.uips * scale / cores_per_cluster)
            .fold(f64::INFINITY, f64::min);

        let mut cores_dynamic = Watts(0.0);
        let mut cores_static = Watts(0.0);
        let mut llc = Watts(0.0);
        let mut xbar = Watts(0.0);
        for (cluster, (op, m)) in plan.clusters.iter().zip(ops.iter().zip(&measurements)) {
            let core = match cluster.class {
                CoreClass::Big => big_power,
                CoreClass::Little => little_power,
            };
            cores_dynamic += core.dynamic_power(*op, CoreActivity::BUSY) * cores_per_cluster;
            cores_static += core.static_power(*op, CoreActivity::BUSY) * cores_per_cluster;
            llc += server.llc().static_power()
                + server.llc().dynamic_power(m.llc_accesses_per_sec) * scale;
            xbar += server.xbar().static_power()
                + server.xbar().dynamic_power(m.xbar_flits_per_sec) * scale;
        }
        let power = PowerBreakdown {
            cores_dynamic,
            cores_static,
            llc,
            xbar,
            io: server.io().power(),
            dram_background: server.dram().background_power(),
            dram_dynamic: server.dram().dynamic_power(traffic),
        };
        debug_assert!(power.is_physical(), "unphysical power for {}", plan.label());
        Ok(HeteroPoint {
            plan,
            ops,
            uips,
            min_core_uips,
            power,
        })
    }
}

/// The little-core power model derived from the server's configuration:
/// Cortex-A53-class timing in the same technology at the same die
/// temperature, with [`LITTLE_CEFF_RATIO`] of the big core's switched
/// capacitance.
///
/// # Errors
///
/// As for [`CorePowerModel::cortex_a57`].
pub fn little_core_power(server: &ServerModel) -> Result<CorePowerModel, TechError> {
    let tech = Technology::preset(server.config().technology);
    let timing = CoreClass::Little.timing(tech);
    Ok(CorePowerModel::cortex_a57(timing)?
        .with_ceff(server.core_power().ceff() * LITTLE_CEFF_RATIO)
        .with_temperature(server.config().temperature))
}

/// The ladder a class with `n` clusters actually sweeps: its full ladder
/// when present, a single placeholder frequency when absent (the plan
/// contains no such cluster, so the value never reaches evaluation).
fn ladder_for(n: u32, ladder: &[f64]) -> &[f64] {
    const UNUSED: &[f64] = &[100.0];
    if n == 0 || ladder.is_empty() {
        UNUSED
    } else {
        ladder
    }
}

/// Resolves every cluster's operating point, or `None` if any cluster's
/// frequency is unreachable for its class (the plan is skipped, like an
/// unreachable ladder point in
/// [`FrequencySweep::run`](crate::FrequencySweep::run)).
fn resolve_ops(
    plan: &ChipPlan,
    tech: &Technology,
) -> Result<Option<Vec<OperatingPoint>>, SweepError> {
    let mut ops = Vec::with_capacity(plan.clusters.len());
    for cluster in &plan.clusters {
        match cluster.class.operating_point(
            tech.clone(),
            ntc_tech::MegaHertz(cluster.mhz),
            cluster.bias,
        ) {
            Ok(op) => ops.push(op),
            Err(TechError::FrequencyUnreachable { .. })
            | Err(TechError::FrequencyTooLow { .. }) => return Ok(None),
            Err(source) => {
                return Err(SweepError::Tech {
                    mhz: cluster.mhz,
                    source,
                })
            }
        }
    }
    Ok(Some(ops))
}

/// The Pareto frontier of `points`: maximize UIPS, minimize server
/// watts. A point survives iff no other point has at least its
/// throughput at no more power (with one of the two strict). Returned in
/// ascending power order.
pub fn pareto_frontier(points: &[HeteroPoint]) -> Vec<HeteroPoint> {
    let mut sorted: Vec<&HeteroPoint> = points.iter().collect();
    // Cheapest first; at equal power the fastest first, so the scan
    // below keeps exactly one of each power level.
    sorted.sort_by(|a, b| {
        (a.watts().0, b.uips)
            .partial_cmp(&(b.watts().0, a.uips))
            .expect("finite power and throughput")
    });
    let mut frontier = Vec::new();
    let mut best_uips = f64::NEG_INFINITY;
    for p in sorted {
        if p.uips > best_uips {
            best_uips = p.uips;
            frontier.push(p.clone());
        }
    }
    frontier
}

/// Iso-power filter: the points within a server power budget.
pub fn iso_power(points: &[HeteroPoint], budget: Watts) -> Vec<HeteroPoint> {
    points
        .iter()
        .filter(|p| p.watts().0 <= budget.0)
        .cloned()
        .collect()
}

/// Iso-QoS filter: the points whose *slowest* core still sustains
/// `floor_uips` user instructions per second — a latency-critical
/// request pinned anywhere on the chip meets its service rate.
pub fn iso_qos(points: &[HeteroPoint], floor_uips: f64) -> Vec<HeteroPoint> {
    points
        .iter()
        .filter(|p| p.min_core_uips >= floor_uips)
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerConfig;
    use crate::measure::{ClusterMeasurer, TableMeasurer};
    use crate::sweep::FrequencySweep;

    fn server() -> ServerModel {
        ServerConfig::paper().build().unwrap()
    }

    /// Big and little classes replay different synthetic curves; little
    /// is slower at equal frequency, like the real in-order core.
    fn synthetic_measure(class: CoreClass, mhz: f64) -> Result<ClusterMeasurement, MeasureError> {
        match class {
            CoreClass::Big => TableMeasurer::synthetic(3.2, 1.6).measure(mhz),
            CoreClass::Little => TableMeasurer::synthetic(1.8, 1.1).measure(mhz),
        }
    }

    #[test]
    fn homogeneous_big_plan_matches_the_frequency_sweep() {
        // A (clusters, 0) mix at one frequency must compose to exactly
        // the homogeneous sweep's point: same uips, same breakdown.
        let server = server();
        let n = server.clusters();
        let sweep = FrequencySweep::over(vec![1000.0]);
        let homog = sweep
            .run_serial(&server, &TableMeasurer::synthetic(3.2, 1.6))
            .unwrap();
        let expected = &homog.points()[0];

        let hetero = HeteroSweep::new(vec![1000.0], vec![], vec![(n, 0)]);
        let points = hetero.run(&server, synthetic_measure).unwrap();
        assert_eq!(points.len(), 1);
        let got = &points[0];
        assert!((got.uips - expected.uips).abs() < expected.uips * 1e-12);
        // Accumulation order differs (per-cluster sums vs one multiply),
        // so compare each component to relative precision, not bits.
        let close = |a: Watts, b: Watts| (a.0 - b.0).abs() <= b.0.abs() * 1e-12 + 1e-15;
        assert!(close(got.power.cores_dynamic, expected.power.cores_dynamic));
        assert!(close(got.power.cores_static, expected.power.cores_static));
        assert!(close(got.power.llc, expected.power.llc));
        assert!(close(got.power.xbar, expected.power.xbar));
        assert!(close(got.power.io, expected.power.io));
        assert!(close(
            got.power.dram_background,
            expected.power.dram_background
        ));
        assert!(close(got.power.dram_dynamic, expected.power.dram_dynamic));
        assert_eq!(got.ops[0], expected.op);
        assert_eq!(got.plan.counts(), (n, 0));
    }

    #[test]
    fn little_clusters_draw_less_core_power_at_equal_frequency() {
        let server = server();
        let n = server.clusters();
        let mixes = vec![(n, 0), (0, n)];
        let points = HeteroSweep::new(vec![800.0], vec![800.0], mixes)
            .run(&server, synthetic_measure)
            .unwrap();
        let all_big = points.iter().find(|p| p.plan.counts() == (n, 0)).unwrap();
        let all_little = points.iter().find(|p| p.plan.counts() == (0, n)).unwrap();
        assert!(
            all_little.power.cores().0 < all_big.power.cores().0 * 0.6,
            "little cores at 35% Ceff and higher vdd should still draw far less: {} vs {}",
            all_little.power.cores(),
            all_big.power.cores()
        );
        assert!(all_little.uips < all_big.uips, "little is slower");
    }

    #[test]
    fn mixes_enumerate_every_split_and_skip_unreachable_plans() {
        let server = server();
        // 3000 MHz is beyond both classes' rated range; those plans drop.
        let points = HeteroSweep::new(vec![1000.0, 3000.0], vec![600.0], vec![(2, 1), (1, 2)])
            .run(&server, synthetic_measure)
            .unwrap();
        assert_eq!(points.len(), 2, "one reachable big frequency x two mixes");
        assert!(points.iter().any(|p| p.plan.counts() == (2, 1)));
        assert!(points.iter().any(|p| p.plan.counts() == (1, 2)));
        for p in &points {
            assert_eq!(p.ops.len(), p.plan.clusters.len());
            assert!(p.min_core_uips > 0.0);
            assert!(p.min_core_uips <= p.uips);
        }
    }

    #[test]
    fn pareto_frontier_keeps_only_undominated_points() {
        let server = server();
        let points = HeteroSweep::paper(3)
            .run(&server, synthetic_measure)
            .unwrap();
        let frontier = pareto_frontier(&points);
        assert!(!frontier.is_empty() && frontier.len() < points.len());
        // Ascending power, strictly ascending throughput.
        for w in frontier.windows(2) {
            assert!(w[0].watts().0 <= w[1].watts().0);
            assert!(w[0].uips < w[1].uips);
        }
        // No frontier point is dominated by any cloud point.
        for f in &frontier {
            assert!(!points.iter().any(|p| {
                (p.uips >= f.uips && p.watts().0 < f.watts().0)
                    || (p.uips > f.uips && p.watts().0 <= f.watts().0)
            }));
        }
    }

    #[test]
    fn iso_filters_respect_their_thresholds() {
        let server = server();
        let points = HeteroSweep::new(
            vec![400.0, 1600.0],
            vec![400.0, 1600.0],
            vec![(9, 0), (5, 4), (0, 9)],
        )
        .run(&server, synthetic_measure)
        .unwrap();
        let budget = Watts(60.0);
        let within = iso_power(&points, budget);
        assert!(!within.is_empty() && within.len() < points.len());
        assert!(within.iter().all(|p| p.watts().0 <= budget.0));

        let floor = points
            .iter()
            .map(|p| p.min_core_uips)
            .fold(f64::NEG_INFINITY, f64::max)
            * 0.5;
        let qos = iso_qos(&points, floor);
        assert!(!qos.is_empty() && qos.len() < points.len());
        assert!(qos.iter().all(|p| p.min_core_uips >= floor));
    }

    #[test]
    fn measurements_are_memoized_per_class_and_frequency() {
        use std::cell::Cell;
        let server = server();
        let calls = Cell::new(0u32);
        // 3 mixes x 1 big freq x 1 little freq, but only 2 distinct
        // (class, frequency) cluster configurations exist.
        HeteroSweep::new(vec![800.0], vec![800.0], vec![(9, 0), (5, 4), (0, 9)])
            .run(&server, |class, mhz| {
                calls.set(calls.get() + 1);
                synthetic_measure(class, mhz)
            })
            .unwrap();
        assert_eq!(calls.get(), 2);
    }

    #[test]
    fn plan_labels_are_compact() {
        assert_eq!(
            ChipPlan::big_little(3, 1600.0, 6, 600.0).label(),
            "3B@1600+6L@600"
        );
        assert_eq!(ChipPlan::big_little(9, 1000.0, 0, 0.0).label(), "9B@1000");
        assert_eq!(ChipPlan::big_little(0, 0.0, 9, 500.0).label(), "9L@500");
    }
}
