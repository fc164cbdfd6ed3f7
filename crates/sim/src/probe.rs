//! Engine probe hooks: time-series sampling of the simulator's internal
//! occupancies.
//!
//! A [`Probe`] attached to [`ClusterSim`](crate::ClusterSim) or
//! [`ChipSim`](crate::ChipSim) is sampled by the shared engine loop on
//! *epochs* — at the start and end of every run window and every
//! [`PROBE_EPOCH_CYCLES`] cycles of the reference clock (lane 0, the
//! chip's cluster 0). Each sample captures the quantities the paper's
//! analysis turns on: MSHR occupancy (the window-limited MLP), ROB
//! occupancy, DRAM queue depth per channel (LLC/DRAM queuing) and
//! row-hit locality.
//!
//! Probes observe only; they can never perturb simulated state, so a
//! probed run produces bit-identical [`SimStats`](crate::SimStats) to an
//! unprobed one (`tests/telemetry_differential.rs` enforces this). The
//! module is deliberately independent of the `ntc-telemetry` switches: a
//! probe costs nothing unless one is attached, which is itself an
//! explicit opt-in.

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::rc::Rc;

/// How many reference-clock cycles pass between probe samples (run-window
/// boundaries are sampled additionally).
pub const PROBE_EPOCH_CYCLES: u64 = 1024;

/// One engine-epoch observation of the simulator's internal state.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ProbeSample {
    /// Core cycle the sample was taken at.
    pub cycle: u64,
    /// Simulated time at that cycle, picoseconds.
    pub now_ps: u64,
    /// Data misses in flight across all cores (summed MSHR occupancy).
    pub mshr_occupancy: u64,
    /// Instructions in flight across all cores (summed ROB occupancy).
    pub rob_occupancy: u64,
    /// Requests queued at the DRAM scheduler right now (all channels).
    pub dram_pending: u64,
    /// Per-channel DRAM queue depths right now.
    pub dram_channel_depths: Vec<u32>,
    /// Cumulative DRAM row-buffer hits so far.
    pub dram_row_hits: u64,
    /// Cumulative DRAM row-buffer misses so far.
    pub dram_row_misses: u64,
    /// Cumulative user (non-OS) instructions committed across all cores.
    pub user_instrs: u64,
    /// Cumulative instructions (user + OS) committed across all cores.
    pub instrs: u64,
    /// Cumulative cycles any core spent with a full ROB (stalled).
    pub rob_full_cycles: u64,
    /// Cumulative LLC hits across all clusters.
    pub llc_hits: u64,
    /// Cumulative LLC misses across all clusters.
    pub llc_misses: u64,
    /// Cumulative crossbar transfers across all clusters.
    pub xbar_transfers: u64,
    /// Cumulative DRAM line reads (shared across clusters on a chip).
    pub dram_reads: u64,
    /// Cumulative DRAM line writes.
    pub dram_writes: u64,
}

impl ProbeSample {
    /// Cumulative DRAM row-buffer hit rate at this sample (0 when no
    /// row activity yet).
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.dram_row_hits + self.dram_row_misses;
        if total == 0 {
            0.0
        } else {
            self.dram_row_hits as f64 / total as f64
        }
    }
}

/// An observer the engine samples on its epochs.
pub trait Probe {
    /// Called by the engine with a freshly-taken sample. Implementations
    /// must not assume any particular cadence: run-window boundaries fall
    /// between epochs, and may repeat a cycle.
    fn sample(&mut self, sample: ProbeSample);
}

/// The stock [`Probe`]: collects every sample (optionally thinned to a
/// minimum cycle gap) into a shared vector.
///
/// The sample vector is handed out as `Rc<RefCell<…>>` so callers keep
/// access after the probe is boxed into the simulator — the sims are
/// single-threaded (`!Send` already), so `Rc` is the right tool:
///
/// ```
/// use ntc_sim::streams::ComputeStream;
/// use ntc_sim::{ClusterSim, SimConfig, TimeSeriesProbe};
///
/// let probe = TimeSeriesProbe::new();
/// let samples = probe.samples();
/// let mut sim = ClusterSim::new(SimConfig::paper_cluster(1000.0), |_| ComputeStream::new(0.002));
/// sim.attach_probe(Box::new(probe));
/// sim.run(4_000);
/// assert!(!samples.borrow().is_empty());
/// ```
#[derive(Debug, Default)]
pub struct TimeSeriesProbe {
    min_gap: u64,
    last_cycle: Option<u64>,
    samples: Rc<RefCell<Vec<ProbeSample>>>,
}

impl TimeSeriesProbe {
    /// A probe that keeps every engine epoch.
    pub fn new() -> Self {
        Self::every(0)
    }

    /// A probe that keeps at most one sample per `min_gap_cycles` —
    /// bounds memory on long runs.
    pub fn every(min_gap_cycles: u64) -> Self {
        TimeSeriesProbe {
            min_gap: min_gap_cycles,
            last_cycle: None,
            samples: Rc::new(RefCell::new(Vec::new())),
        }
    }

    /// Shared handle to the collected samples (in cycle order).
    pub fn samples(&self) -> Rc<RefCell<Vec<ProbeSample>>> {
        Rc::clone(&self.samples)
    }
}

impl Probe for TimeSeriesProbe {
    fn sample(&mut self, sample: ProbeSample) {
        if let Some(last) = self.last_cycle {
            // `max(1)` dedupes same-cycle samples even at gap 0: the
            // engine emits a boundary sample at the end of one run window
            // and another at the start of the next, on the same cycle.
            if sample.cycle < last.saturating_add(self.min_gap.max(1)) {
                return;
            }
        }
        self.last_cycle = Some(sample.cycle);
        self.samples.borrow_mut().push(sample);
    }
}

/// One closed attribution window: the *delta* of every activity counter
/// between two engine-epoch samples, plus the window bounds on both the
/// cycle and the simulated-time axes.
///
/// Windows partition a probed run exactly — the engine emits boundary
/// samples at the start and end of every run window — so summing any
/// field over all windows reproduces the run's cumulative count, bit for
/// bit. That closure is what lets the energy plane prove its windowed
/// attribution against the end-of-run analytic totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActivityWindow {
    /// First cycle of the window (inclusive).
    pub start_cycle: u64,
    /// Last cycle of the window (exclusive).
    pub end_cycle: u64,
    /// Simulated time at `start_cycle`, picoseconds.
    pub start_ps: u64,
    /// Simulated time at `end_cycle`, picoseconds.
    pub end_ps: u64,
    /// User instructions committed inside the window.
    pub user_instrs: u64,
    /// Instructions (user + OS) committed inside the window.
    pub instrs: u64,
    /// Core-cycles spent with a full ROB inside the window.
    pub rob_full_cycles: u64,
    /// LLC hits inside the window.
    pub llc_hits: u64,
    /// LLC misses inside the window.
    pub llc_misses: u64,
    /// Crossbar transfers inside the window.
    pub xbar_transfers: u64,
    /// DRAM line reads inside the window.
    pub dram_reads: u64,
    /// DRAM line writes inside the window.
    pub dram_writes: u64,
}

impl ActivityWindow {
    fn delta(start: &ProbeSample, end: &ProbeSample) -> Self {
        ActivityWindow {
            start_cycle: start.cycle,
            end_cycle: end.cycle,
            start_ps: start.now_ps,
            end_ps: end.now_ps,
            user_instrs: end.user_instrs - start.user_instrs,
            instrs: end.instrs - start.instrs,
            rob_full_cycles: end.rob_full_cycles - start.rob_full_cycles,
            llc_hits: end.llc_hits - start.llc_hits,
            llc_misses: end.llc_misses - start.llc_misses,
            xbar_transfers: end.xbar_transfers - start.xbar_transfers,
            dram_reads: end.dram_reads - start.dram_reads,
            dram_writes: end.dram_writes - start.dram_writes,
        }
    }

    fn absorb(&mut self, other: &ActivityWindow) {
        self.end_cycle = other.end_cycle;
        self.end_ps = other.end_ps;
        self.user_instrs += other.user_instrs;
        self.instrs += other.instrs;
        self.rob_full_cycles += other.rob_full_cycles;
        self.llc_hits += other.llc_hits;
        self.llc_misses += other.llc_misses;
        self.xbar_transfers += other.xbar_transfers;
        self.dram_reads += other.dram_reads;
        self.dram_writes += other.dram_writes;
    }

    /// Window width in cycles.
    pub fn cycles(&self) -> u64 {
        self.end_cycle - self.start_cycle
    }

    /// Window width in simulated time (picoseconds).
    pub fn duration_ps(&self) -> u64 {
        self.end_ps - self.start_ps
    }

    /// LLC accesses (hits + misses) inside the window.
    pub fn llc_accesses(&self) -> u64 {
        self.llc_hits + self.llc_misses
    }

    /// Whether any activity counter moved inside the window.
    fn has_activity(&self) -> bool {
        self.user_instrs != 0
            || self.instrs != 0
            || self.rob_full_cycles != 0
            || self.llc_hits != 0
            || self.llc_misses != 0
            || self.xbar_transfers != 0
            || self.dram_reads != 0
            || self.dram_writes != 0
    }
}

/// The default [`EnergyProbe`] window width, in cycles of the probed
/// simulator's reference clock (lane 0).
pub const ENERGY_WINDOW_CYCLES: u64 = 4096;

/// How many windows an [`EnergyProbe`] preallocates. Samples beyond the
/// capacity *coalesce into the final window* instead of allocating or
/// dropping: totals (and hence energy closure) are preserved exactly,
/// only time resolution degrades at the tail of very long runs.
pub const ENERGY_WINDOW_CAPACITY: usize = 4096;

#[derive(Debug)]
struct EnergyInner {
    window_cycles: u64,
    baseline: Option<ProbeSample>,
    last: Option<ProbeSample>,
    windows: Vec<ActivityWindow>,
    coalesced: u64,
}

impl EnergyInner {
    fn push(&mut self, window: ActivityWindow) {
        if window.cycles() == 0 && !window.has_activity() {
            return;
        }
        if self.windows.len() == self.windows.capacity() {
            self.coalesced += 1;
            self.windows
                .last_mut()
                .expect("capacity > 0, so a full buffer is non-empty")
                .absorb(&window);
        } else {
            self.windows.push(window);
        }
    }

    fn flush_tail(&mut self) {
        let tail = match (self.baseline.as_ref(), self.last.as_ref()) {
            (Some(base), Some(last)) => ActivityWindow::delta(base, last),
            _ => return,
        };
        if tail.cycles() == 0 && !tail.has_activity() {
            return;
        }
        self.baseline = self.last.clone();
        if tail.cycles() == 0 {
            // On a heterogeneous chip the reference lane (lane 0, the
            // window clock) freezes at its end while slower lanes keep
            // committing, so residual activity lands on the reference
            // lane's final cycle. Fold it into the last closed window:
            // counter closure stays exact, only time resolution at the
            // tail degrades (the same trade as capacity coalescing).
            if let Some(w) = self.windows.last_mut() {
                w.absorb(&tail);
                return;
            }
        }
        self.push(tail);
    }
}

/// A [`Probe`] that folds the engine's epoch samples into fixed-width
/// [`ActivityWindow`]s in a preallocated (allocation-free in steady
/// state) ring of windows — the sensor of the energy observability
/// plane.
///
/// The probe itself knows nothing about power models; it emits raw
/// activity deltas. Folding windows through the V/f-dependent power
/// models happens above the simulator (in `ntc-core`), keeping the sim
/// crate model-free. Like every probe it is observation-only: attaching
/// one cannot perturb `SimStats` (differential-tested).
///
/// Keep the [`EnergyProbeHandle`] from [`EnergyProbe::handle`] to read
/// the windows back after the probe is boxed into the simulator.
#[derive(Debug)]
pub struct EnergyProbe {
    inner: Rc<RefCell<EnergyInner>>,
}

/// Caller-side handle to an [`EnergyProbe`]'s collected windows.
#[derive(Debug, Clone)]
pub struct EnergyProbeHandle {
    inner: Rc<RefCell<EnergyInner>>,
}

impl Default for EnergyProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl EnergyProbe {
    /// A probe with the default window width ([`ENERGY_WINDOW_CYCLES`]).
    pub fn new() -> Self {
        Self::with_window(ENERGY_WINDOW_CYCLES)
    }

    /// A probe closing a window every `window_cycles` reference-clock
    /// cycles (clamped to ≥1). Actual window edges land on engine epochs,
    /// so widths are approximate — but windows always partition the run.
    pub fn with_window(window_cycles: u64) -> Self {
        EnergyProbe {
            inner: Rc::new(RefCell::new(EnergyInner {
                window_cycles: window_cycles.max(1),
                baseline: None,
                last: None,
                windows: Vec::with_capacity(ENERGY_WINDOW_CAPACITY),
                coalesced: 0,
            })),
        }
    }

    /// Shared handle to read the windows back after
    /// [`attach_probe`](crate::ClusterSim::attach_probe) boxes the probe.
    pub fn handle(&self) -> EnergyProbeHandle {
        EnergyProbeHandle {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl Probe for EnergyProbe {
    fn sample(&mut self, sample: ProbeSample) {
        let mut inner = self.inner.borrow_mut();
        let Some(base) = inner.baseline.as_ref() else {
            inner.baseline = Some(sample.clone());
            inner.last = Some(sample);
            return;
        };
        if sample.cycle < base.cycle {
            // A new run window restarted the engine behind our baseline
            // (never happens for monotone sims; be defensive).
            inner.baseline = Some(sample.clone());
            inner.last = Some(sample);
            return;
        }
        let due = sample.cycle - base.cycle >= inner.window_cycles;
        inner.last = Some(sample.clone());
        if due {
            let window = ActivityWindow::delta(
                inner.baseline.as_ref().expect("baseline set above"),
                &sample,
            );
            inner.baseline = Some(sample);
            inner.push(window);
        }
    }
}

impl EnergyProbeHandle {
    /// Closes the partial tail window (if any) and returns every window
    /// collected so far, in time order. Windows partition the probed
    /// region exactly: consecutive windows share their boundary cycle.
    pub fn finish(&self) -> Vec<ActivityWindow> {
        let mut inner = self.inner.borrow_mut();
        inner.flush_tail();
        inner.windows.clone()
    }

    /// How many samples were folded into the last window because the
    /// preallocated buffer was full (0 in the common case).
    pub fn coalesced(&self) -> u64 {
        self.inner.borrow().coalesced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_at(cycle: u64) -> ProbeSample {
        ProbeSample {
            cycle,
            ..Default::default()
        }
    }

    #[test]
    fn time_series_probe_thins_by_gap() {
        let mut probe = TimeSeriesProbe::every(100);
        let samples = probe.samples();
        for c in [0, 10, 99, 100, 150, 250] {
            probe.sample(sample_at(c));
        }
        let kept: Vec<u64> = samples.borrow().iter().map(|s| s.cycle).collect();
        assert_eq!(kept, vec![0, 100, 250]);
    }

    #[test]
    fn derived_ratios() {
        let mut s = sample_at(1000);
        s.dram_row_hits = 30;
        s.dram_row_misses = 10;
        assert!((s.row_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(sample_at(0).row_hit_rate(), 0.0);
    }
}
