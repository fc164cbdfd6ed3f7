//! Memory footprint of the simulator's cache state.
//!
//! A counting global allocator measures the bytes a piece of code leaves
//! allocated, on the calling thread only, so tests running beside it on
//! other threads do not disturb the count.

use ntserver::sim::cache::SetAssocArray;
use ntserver::sim::config::{CoreConfig, LlcConfig};
use ntserver::sim::llc::{SharedLlc, SharerMask};
use ntserver::sim::{ChipConfig, ChipSim, SimConfig};
use ntserver::workloads::stream::{
    COLD_CODE_BASE, HOT_BYTES, HOT_CODE_BASE, HOT_CODE_LINES, WARM_BASE,
};
use ntserver::workloads::{CloudSuiteApp, ProfileStream, WorkloadProfile};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// [`System`], counting the net bytes allocated by a thread while it has
/// armed the count.
struct ThreadCounting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn count(bytes: isize) {
    // `try_with`: a thread's allocations after its locals are torn down go
    // uncounted instead of panicking inside the allocator.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            LIVE.set(LIVE.get() + bytes);
        }
    });
}

// SAFETY: every call is forwarded to `System` unchanged; the counting only
// touches this thread's `Cell`s, whose const initializers allocate nothing.
unsafe impl GlobalAlloc for ThreadCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            count(layout.size() as isize);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            count(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: ThreadCounting = ThreadCounting;

/// Runs `f` and returns what it built with the bytes it left allocated on
/// this thread.
fn live_bytes<T>(f: impl FnOnce() -> T) -> (T, isize) {
    LIVE.set(0);
    ARMED.set(true);
    let built = f();
    ARMED.set(false);
    (built, LIVE.get())
}

#[test]
fn the_paper_llc_and_l1_hold_their_packed_arrays() {
    let (_llc, bytes) = live_bytes(|| SharedLlc::new(LlcConfig::paper_cluster(), 4));
    // 65,536 lines in 4,096 sets: 32-bit tags, one-byte LRU stamps, a
    // one-byte clock per set, one dirty bit and a 4-bit sharer mask per
    // line; then the four banks' free times.
    let arrays = 65_536 * 4 + 65_536 + 4_096 + 65_536 / 8 + 65_536 * 4 / 8;
    assert_eq!(arrays, 372_736);
    assert_eq!(bytes, arrays + 4 * 8);

    let l1 = CoreConfig::cortex_a57().l1d;
    assert_eq!((l1.size_bytes, l1.ways), (32 * 1024, 2));
    let (_l1, bytes) = live_bytes(|| SetAssocArray::new(l1));
    // 512 lines in 256 sets.
    assert_eq!(bytes, 512 * 4 + 512 + 256 + 512 / 8);
    assert_eq!(bytes, 2_880);
}

#[test]
fn a_prewarmed_nine_cluster_chip_stays_small() {
    let profile = WorkloadProfile::cloudsuite(CloudSuiteApp::DataServing);
    let config = ChipConfig::homogeneous(&SimConfig::paper_cluster(1000.0), 9);
    // Built and warmed as the benchmark's `whole-chip` workload does.
    let (_chip, bytes) = live_bytes(|| {
        let cores: Vec<u32> = config.clusters.iter().map(|c| c.cores).collect();
        let mut chip = ChipSim::new_chip(config, |cluster, core| {
            ProfileStream::new(
                profile.clone(),
                (1 << 12) + u64::from(cluster) * 64 + u64::from(core),
            )
        });
        for (cluster, &n) in cores.iter().enumerate() {
            let cluster = cluster as u32;
            let all_cores: SharerMask = (1 << n) - 1;
            for core in 0..n {
                let hot = ProfileStream::hot_base_for(u64::from(core));
                chip.prewarm_data(cluster, core, (0..HOT_BYTES / 64).map(|i| hot + i * 64));
                chip.prewarm_code(
                    cluster,
                    core,
                    (0..HOT_CODE_LINES).map(|i| HOT_CODE_BASE + i * 64),
                );
            }
            chip.prewarm_llc(
                cluster,
                (0..profile.code_bytes / 64).map(|i| COLD_CODE_BASE + i * 64),
                all_cores,
            );
            chip.prewarm_llc(
                cluster,
                (0..profile.warm_bytes / 64).map(|i| WARM_BASE + i * 64),
                0,
            );
        }
        chip
    });
    // Nine LLCs and 72 L1s hold 3,561,984 bytes of array state; the
    // cores, streams and DRAM bring the chip to 3,805 KiB. The bound is
    // 15 % above that (the chip held 8,884 KiB with 64-bit tags, a byte
    // per dirty flag and a 32-bit sharer mask per LLC line).
    assert!(bytes > 3_561_984, "{bytes} bytes");
    assert!(bytes < 4_376 * 1024, "{} KiB live", bytes / 1024);
}
