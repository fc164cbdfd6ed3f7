//! Criterion bench: the simulator's hot kernels — cluster cycles under
//! each workload class and the DRAM scheduler under load. These are not
//! paper figures; they guard the harness's own performance.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ntc_sim::{ClusterSim, SimConfig};
use ntc_workloads::{prewarm_cluster, CloudSuiteApp, ProfileStream, WorkloadProfile};
use std::hint::black_box;

fn bench_cluster(c: &mut Criterion) {
    let mut g = c.benchmark_group("cluster_sim");
    g.sample_size(10);
    const CYCLES: u64 = 20_000;
    g.throughput(Throughput::Elements(CYCLES));
    for app in [CloudSuiteApp::WebSearch, CloudSuiteApp::DataServing] {
        let profile = WorkloadProfile::cloudsuite(app);
        g.bench_function(format!("{app}_20k_cycles"), |b| {
            b.iter(|| {
                let p = profile.clone();
                let mut sim = ClusterSim::new(SimConfig::paper_cluster(1000.0), |core| {
                    ProfileStream::new(p.clone(), u64::from(core))
                });
                prewarm_cluster(&mut sim, &profile);
                black_box(sim.run(CYCLES))
            })
        });
    }
    g.finish();
}

fn bench_dram(c: &mut Criterion) {
    use ntc_sim::config::DramTimingConfig;
    use ntc_sim::dram::DramSystem;

    let mut g = c.benchmark_group("dram_scheduler");
    const REQUESTS: u64 = 10_000;
    g.throughput(Throughput::Elements(REQUESTS));
    g.bench_function("fr_fcfs_random_10k_reads", |b| {
        b.iter(|| {
            let mut sys = DramSystem::new(DramTimingConfig::ddr4_1600_paper());
            let mut x = 0x9E3779B97F4A7C15u64;
            for i in 0..REQUESTS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                sys.read((x % (1 << 30)) & !63, i * 500);
                if i % 64 == 63 {
                    sys.tick(i * 500);
                }
            }
            sys.tick(u64::MAX / 2);
            black_box(sys.stats())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_cluster, bench_dram);
criterion_main!(benches);
