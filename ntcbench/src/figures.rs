//! The figure workloads: `figures-fast` regenerates the 13 simulator-
//! backed artifacts at fast fidelity and compares each byte for byte
//! with `results/`; `fig2-paper` runs Figure 2 and the VM floors at the
//! paper's windows and checks the bands `tests/paper_reproduction.rs`
//! asserts.
//!
//! Each figure call lists the sweeps the `ntc-bench` function performs.
//! The traced pass replays them through the benchmark's measurer (see
//! [`Ctx::figure`]); every pass uses them to find its points in the store.
//! The figure functions fix stream seed 0, the committed artifacts' seed.

use crate::measure::BenchMeasurer;
use crate::pass::{Ctx, Sweep};
use ntc_bench::Fidelity;
use ntc_core::SimMeasurer;
use ntc_sampling::SampleWindow;
use ntc_workloads::{CloudSuiteApp, WorkloadProfile};

/// The measurer `ntc_bench` builds for `profile` at `fidelity`.
fn measurer(fidelity: Fidelity, profile: WorkloadProfile) -> SimMeasurer {
    match fidelity {
        Fidelity::Fast => SimMeasurer::fast(profile),
        Fidelity::Paper => {
            let window = if profile.name == "Data Serving" {
                SampleWindow::paper_data_serving()
            } else {
                SampleWindow::paper_default()
            };
            SimMeasurer::new(profile).with_window(window)
        }
    }
}

fn ladder(fidelity: Fidelity, profile: WorkloadProfile) -> Sweep {
    Sweep::Ladder {
        measurer: BenchMeasurer::big(measurer(fidelity, profile)),
        qos: false,
    }
}

fn cloudsuite(fidelity: Fidelity, qos: bool) -> Vec<Sweep> {
    CloudSuiteApp::ALL
        .iter()
        .map(|&app| Sweep::Ladder {
            measurer: BenchMeasurer::big(measurer(fidelity, WorkloadProfile::cloudsuite(app))),
            qos,
        })
        .collect()
}

fn web_search() -> WorkloadProfile {
    WorkloadProfile::cloudsuite(CloudSuiteApp::WebSearch)
}

fn low_mem() -> WorkloadProfile {
    WorkloadProfile::banking_low_mem(4.0)
}

/// `figures-fast`: one operation per artifact.
pub fn fast(ctx: &mut Ctx) {
    let f = Fidelity::Fast;
    ctx.artifact(&["fig2.json"], |ctx| {
        let (fig, _floors) = ctx.figure("fig2_qos", cloudsuite(f, true), || ntc_bench::fig2_qos(f));
        let ((f4, f2), _) = ctx.figure("vm_degradation_floors", vec![ladder(f, low_mem())], || {
            ntc_bench::vm_degradation_floors(f)
        });
        let json = ctx.serialize(|| fig.to_json());
        vec![ctx.matches_reference("fig2.json", &json) && f4.is_finite() && f2.is_finite()]
    });

    let panels = ["fig3a.json", "fig3b.json", "fig3c.json"];
    ctx.artifact(&panels, |ctx| {
        let figs = ctx.figure("fig3_efficiency", cloudsuite(f, false), || {
            ntc_bench::fig3_efficiency(f)
        });
        compare_panels(ctx, &figs, panels)
    });

    let panels = ["fig4a.json", "fig4b.json", "fig4c.json"];
    ctx.artifact(&panels, |ctx| {
        let sweeps = vec![
            ladder(f, low_mem()),
            ladder(f, WorkloadProfile::banking_high_mem(4.0)),
        ];
        let figs = ctx.figure("fig4_efficiency", sweeps, || ntc_bench::fig4_efficiency(f));
        compare_panels(ctx, &figs, panels)
    });

    ctx.artifact(&["ablation_lpddr4.json"], |ctx| {
        let sweeps = vec![ladder(f, web_search()), ladder(f, web_search())];
        let fig = ctx.figure("ablation_lpddr4", sweeps, || ntc_bench::ablation_lpddr4(f));
        let json = ctx.serialize(|| fig.to_json());
        vec![ctx.matches_reference("ablation_lpddr4.json", &json)]
    });

    ctx.artifact(&["ablation_uncore.json"], |ctx| {
        let sweeps = (0..3).map(|_| ladder(f, web_search())).collect();
        let fig = ctx.figure("ablation_uncore", sweeps, || ntc_bench::ablation_uncore(f));
        let json = ctx.serialize(|| fig.to_json());
        vec![ctx.matches_reference("ablation_uncore.json", &json)]
    });

    ctx.artifact(&["ablation_prefetch.json"], |ctx| {
        let streaming = WorkloadProfile::cloudsuite(CloudSuiteApp::MediaStreaming);
        let sweeps = [0, 1, 2, 4]
            .into_iter()
            .map(|degree| Sweep::Ladder {
                measurer: BenchMeasurer::big(measurer(f, streaming.clone()).with_prefetch(degree)),
                qos: false,
            })
            .collect();
        let fig = ctx.figure("ablation_prefetch", sweeps, || {
            ntc_bench::ablation_prefetch(f)
        });
        let json = ctx.serialize(|| fig.to_json());
        vec![ctx.matches_reference("ablation_prefetch.json", &json)]
    });

    ctx.artifact(&["ablation_governor.json"], |ctx| {
        let rows = ctx.figure("ablation_governor", vec![ladder(f, web_search())], || {
            ntc_bench::ablation_governor(f)
        });
        let json = ctx.serialize(|| serde_json::to_string_pretty(&rows).expect("rows serialize"));
        vec![ctx.matches_reference("ablation_governor.json", &json)]
    });

    ctx.artifact(&["ablation_consolidation.json"], |ctx| {
        let plans = ctx.figure("ablation_consolidation", vec![ladder(f, low_mem())], || {
            ntc_bench::ablation_consolidation(f)
        });
        let json = ctx.serialize(|| serde_json::to_string_pretty(&plans).expect("plans serialize"));
        vec![ctx.matches_reference("ablation_consolidation.json", &json)]
    });

    ctx.artifact(&["fig_hetero.json"], |ctx| {
        let sweeps = vec![Sweep::Hetero {
            big: BenchMeasurer::big(measurer(f, web_search())),
            little: BenchMeasurer::little(measurer(f, web_search())),
        }];
        let report = ctx.figure("fig_hetero", sweeps, || ntc_bench::fig_hetero(f));
        let json = ctx.serialize(|| report.to_json());
        vec![ctx.matches_reference("fig_hetero.json", &json)]
    });
}

fn compare_panels(
    ctx: &mut Ctx,
    figs: &[ntc_core::report::Figure; 3],
    names: [&str; 3],
) -> Vec<bool> {
    figs.iter()
        .zip(names)
        .map(|(fig, name)| {
            let json = ctx.serialize(|| fig.to_json());
            ctx.matches_reference(name, &json)
        })
        .collect()
}

/// The QoS floor band `tests/paper_reproduction.rs` asserts per app
/// (the paper reports 200–500 MHz).
const QOS_FLOOR_MHZ: (f64, f64) = (100.0, 600.0);
/// The VM floor bands (paper: 500 MHz under 4×, 1000 MHz under 2×).
const VM_4X_MHZ: (f64, f64) = (400.0, 700.0);
const VM_2X_MHZ: (f64, f64) = (800.0, 1200.0);

fn within(value: f64, (lo, hi): (f64, f64)) -> bool {
    (lo..=hi).contains(&value)
}

/// `fig2-paper`: two operations, Figure 2's QoS floors and the VM floors.
pub fn paper(ctx: &mut Ctx) {
    let f = Fidelity::Paper;
    ctx.artifact(&["fig2 QoS floors"], |ctx| {
        let (fig, floors) = ctx.figure("fig2_qos", cloudsuite(f, true), || ntc_bench::fig2_qos(f));
        let json = ctx.serialize(|| fig.to_json());
        let mut ok = !json.is_empty() && floors.len() == CloudSuiteApp::ALL.len();
        for (app, floor) in &floors {
            ok &= within(*floor, QOS_FLOOR_MHZ);
            ctx.notes.push(format!(
                "accuracy: {app} QoS floor {floor} MHz (paper: 200-500 MHz; checked band {}-{} MHz)",
                QOS_FLOOR_MHZ.0, QOS_FLOOR_MHZ.1
            ));
        }
        vec![ok]
    });
    ctx.artifact(&["VM degradation floors"], |ctx| {
        let ((f4, f2), _) = ctx.figure("vm_degradation_floors", vec![ladder(f, low_mem())], || {
            ntc_bench::vm_degradation_floors(f)
        });
        for (bound, floor, paper, band) in [("4x", f4, 500.0, VM_4X_MHZ), ("2x", f2, 1000.0, VM_2X_MHZ)] {
            ctx.notes.push(format!(
                "accuracy: VM {bound} floor {floor} MHz (paper: {paper} MHz, {:+.0}%; checked band {}-{} MHz)",
                (floor / paper - 1.0) * 100.0,
                band.0,
                band.1
            ));
        }
        vec![within(f4, VM_4X_MHZ) && within(f2, VM_2X_MHZ)]
    });
}
