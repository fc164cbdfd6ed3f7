//! End-to-end closure of the energy observability plane: arm the sink,
//! run real `SimMeasurer` measurements, fold the windowed activity
//! through the power models, and prove the windowed energy sum matches
//! the end-of-run analytic energy within the plane's 0.1 % budget.
//!
//! Everything lives in ONE test function: the sink is process-global,
//! and integration-test binaries run their tests on parallel threads.

use ntc_core::measure::ClusterMeasurer;
use ntc_core::{
    arm_energy, disarm_energy, fold_runs, take_runs, FrequencySweep, ServerConfig, SimMeasurer,
};
use ntc_power::Scope;
use ntc_workloads::{CloudSuiteApp, WorkloadProfile};

#[test]
fn windowed_energy_closes_against_analytic_on_real_runs() {
    let server = ServerConfig::paper().build().unwrap();
    let sweep = FrequencySweep::paper_ladder();
    let profile = WorkloadProfile::cloudsuite(CloudSuiteApp::WebSearch);
    let measurer = SimMeasurer::fast(profile);

    // Plain reference first, then the probed runs — armed measurements
    // must return the exact same numbers (probes observe only).
    let plain_1000 = measurer.measure(1000.0).unwrap();

    arm_energy(2048);
    let probed_1000 = measurer.measure(1000.0).unwrap();
    let probed_300 = measurer.measure(300.0).unwrap();
    let runs = take_runs();
    disarm_energy();

    assert_eq!(
        plain_1000, probed_1000,
        "an armed energy sink must not perturb the measurement"
    );

    assert_eq!(runs.len(), 2, "one RunActivity per simulated measurement");
    assert!((runs[0].mhz - 300.0).abs() < 1e-9, "runs sorted by MHz");
    assert!((runs[1].mhz - 1000.0).abs() < 1e-9);
    assert_eq!(
        runs[0].total, probed_300,
        "the recorded analytic reference is the returned measurement"
    );

    let folded = fold_runs(&sweep, &server, &runs).unwrap();
    for run in &folded {
        assert!(
            run.windows.len() > 1,
            "fast-fidelity 16K cycles at 2K windows must split, got {}",
            run.windows.len()
        );
        assert_eq!(run.coalesced, 0, "short runs never hit the window cap");
        let err = run.closure_error();
        assert!(
            err < 1e-3,
            "windowed vs analytic server energy at {} MHz: {:.4e} relative error",
            run.mhz,
            err
        );
        for (name, windowed_j, analytic_j) in run.component_energy() {
            assert!(
                (windowed_j - analytic_j).abs() <= analytic_j.abs() * 1e-3 + 1e-12,
                "component {name} at {} MHz: windowed {windowed_j} J vs analytic {analytic_j} J",
                run.mhz
            );
        }
        // The windows partition the run: cycle and time axes both close.
        let cycles: u64 = run.windows.iter().map(|w| w.cycles).sum();
        assert_eq!(cycles, run.cycles);
        assert!(run.windowed.elapsed.0 > 0.0);
        assert!(
            (run.windowed.elapsed.0 - run.analytic.elapsed.0).abs()
                <= run.analytic.elapsed.0 * 1e-12,
            "windowed time must partition the run exactly"
        );
        assert!(run.windowed.total(Scope::Server).0 > 0.0);
    }

    // The derived series are physically sensible: the 1 GHz run does
    // more work and burns more power per second than the 300 MHz run.
    let (lo, hi) = (&folded[0], &folded[1]);
    assert!(hi.windowed.mean_power(Scope::Server).0 > lo.windowed.mean_power(Scope::Server).0);
    let mean_uips = |r: &ntc_core::RunEnergy| {
        r.windows.iter().map(|w| w.window.uips).sum::<f64>() / r.windows.len() as f64
    };
    assert!(mean_uips(hi) > mean_uips(lo));
}
