//! Turning a [`WorkloadProfile`] into an executable instruction stream.
//!
//! [`ProfileStream`] synthesizes a dynamic instruction sequence whose
//! statistics match the profile: instruction mix, dependency tightness,
//! three-level data locality (hot / warm / cold), sequential-vs-scattered
//! cold traffic, a large code footprint that misses in the L1-I, and bursty
//! operating-system execution that dilutes the user-instruction count
//! exactly the way the paper's UIPC metric expects.

use crate::profile::WorkloadProfile;
use ntc_sim::{Instr, InstructionStream, OpClass};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// Bytes of per-core hot data (comfortably L1-resident).
pub const HOT_BYTES: u64 = 16 << 10;

/// Base address of the per-core hot data regions.
pub const HOT_DATA_BASE: u64 = 0x4000_0000;

/// Base address of the cluster-shared warm region.
pub const WARM_BASE: u64 = 0x8000_0000;

/// Base address of the cold dataset.
pub const COLD_BASE: u64 = 0x1_0000_0000;

/// Base address of the hot code loop.
pub const HOT_CODE_BASE: u64 = 0x7000_0000;

/// Base address of the cold code footprint.
pub const COLD_CODE_BASE: u64 = 0x9000_0000;

/// Instructions per OS burst (syscall/softirq scale).
const OS_BURST: u64 = 300;

/// Instructions fetched from a cold code line before returning to the hot
/// loop (one 64-byte line of 4-byte instructions).
const COLD_CODE_BURST: u64 = 16;

/// Hot code loop size in lines (fits a 32 KB L1-I with room to spare).
pub const HOT_CODE_LINES: u64 = 256;

/// The integer form of a probability test.
///
/// `gen_bool(p)` and `gen::<f64>() < p` both take the draw
/// `k = next_u64() >> 11` and compare `k · 2⁻⁵³` with `p`. That product is
/// exact, so the test holds exactly when `k < p · 2⁵³` (also exact), and
/// for an integer `k` exactly when `k < ceil(p · 2⁵³)`. The cast saturates,
/// which keeps `p ≤ 0` (and NaN) never true and `p ≥ 1` always true.
fn threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// Executable synthetic stream for one core.
#[derive(Debug)]
pub struct ProfileStream {
    profile: WorkloadProfile,
    rng: SmallRng,
    /// Base of this core's private hot region.
    hot_base: u64,
    /// Base of the cluster-shared warm region.
    warm_base: u64,
    /// Base of the cold dataset.
    cold_base: u64,
    /// Streaming cursor within the cold dataset.
    cold_cursor: u64,
    /// Hot-loop program counter (line index).
    hot_pc_line: u64,
    /// Remaining instructions in a cold-code burst, and the burst's line.
    cold_code_left: u64,
    cold_code_line: u64,
    /// Remaining instructions in an OS burst.
    os_left: u64,
    /// Whether the previous instruction was a load (consumer chaining).
    prev_was_load: bool,
    count: u64,
    /// [`threshold`] of the per-instruction probability of entering an OS
    /// burst, `None` when the profile has no OS time (and no draw is made).
    os_entry: Option<u64>,
    /// [`threshold`] of the cold-code burst rate.
    code_cold: u64,
    /// [`threshold`]s of the cumulative op mix: load, store, branch, FP.
    mix: [u64; 4],
    /// [`threshold`] of the branch misprediction rate.
    mispredict: u64,
    /// [`threshold`]s of the hot and hot + warm data fractions.
    locality: [u64; 2],
    /// [`threshold`] of the 0.7 dependency draws.
    dep_draw: u64,
    /// Largest dependency distance drawn.
    dep_hi: u16,
}

impl ProfileStream {
    /// Builds the stream for one core; `seed` differentiates cores (pass
    /// the core id) and seeds the generator.
    pub fn new(profile: WorkloadProfile, seed: u64) -> Self {
        profile.validate();
        let slot = seed % 64;
        let os = profile.os_fraction;
        let os_entry =
            (os > 0.0).then(|| threshold((os / OS_BURST as f64 / (1.0 - os).max(1e-9)).min(1.0)));
        let store = profile.loads + profile.stores;
        let branch = store + profile.branches;
        let mix = [profile.loads, store, branch, branch + profile.fp].map(threshold);
        let hot = profile.hot_fraction;
        let locality = [hot, hot + profile.warm_fraction].map(threshold);
        let dep_hi = (profile.dep_dist_mean * 2.0).max(2.0) as u16;
        ProfileStream {
            rng: SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC0FFEE),
            hot_base: HOT_DATA_BASE + slot * HOT_BYTES,
            warm_base: WARM_BASE,
            cold_base: COLD_BASE,
            cold_cursor: (profile.cold_bytes / 64) * slot / 64 * 64,
            hot_pc_line: 0,
            cold_code_left: 0,
            cold_code_line: 0,
            os_left: 0,
            prev_was_load: false,
            count: 0,
            os_entry,
            code_cold: threshold(profile.code_cold_rate),
            mix,
            mispredict: threshold(profile.branch_mispredict),
            locality,
            dep_draw: threshold(0.7),
            dep_hi,
            profile,
        }
    }

    /// The profile driving this stream.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Base address of the hot region for the core using `seed`.
    pub fn hot_base_for(seed: u64) -> u64 {
        HOT_DATA_BASE + (seed % 64) * HOT_BYTES
    }

    /// The 53-bit draw behind `gen_bool` and `gen::<f64>()`, for comparing
    /// with a [`threshold`].
    fn draw(&mut self) -> u64 {
        self.rng.next_u64() >> 11
    }

    fn next_pc(&mut self) -> u64 {
        // Cold-code burst in progress: walk the cold line.
        if self.cold_code_left > 0 {
            self.cold_code_left -= 1;
            let offset = (COLD_CODE_BURST - 1 - self.cold_code_left) * 4;
            return COLD_CODE_BASE + self.cold_code_line * 64 + offset;
        }
        // Enter a cold-code burst?
        if self.draw() < self.code_cold {
            let lines = self.profile.code_bytes / 64;
            self.cold_code_line = self.rng.gen_range(0..lines);
            self.cold_code_left = COLD_CODE_BURST - 1;
            return COLD_CODE_BASE + self.cold_code_line * 64;
        }
        // Hot loop: sequential lines, wrapping.
        self.hot_pc_line = (self.hot_pc_line + 1) % (HOT_CODE_LINES * 16);
        HOT_CODE_BASE + self.hot_pc_line * 4
    }

    fn data_addr(&mut self) -> u64 {
        let u = self.draw();
        let [hot, warm] = self.locality;
        if u < hot {
            self.hot_base + self.rng.gen_range(0..HOT_BYTES / 8) * 8
        } else if u < warm {
            self.warm_base + self.rng.gen_range(0..self.profile.warm_bytes / 64) * 64
        } else if self.profile.cold_streaming {
            let addr = self.cold_base + self.cold_cursor;
            self.cold_cursor = (self.cold_cursor + 64) % self.profile.cold_bytes;
            addr
        } else {
            self.cold_base + self.rng.gen_range(0..self.profile.cold_bytes / 64) * 64
        }
    }

    fn dep(&mut self) -> u16 {
        // Loads are usually followed by a consumer of their data — the
        // pointer-rich, low-ILP character of server code. Otherwise ~70% of
        // instructions read a recent producer at a distance set by the
        // profile's ILP.
        if self.prev_was_load && self.draw() < self.dep_draw {
            return 1;
        }
        if self.draw() < self.dep_draw {
            self.rng.gen_range(1..=self.dep_hi)
        } else {
            0
        }
    }
}

impl InstructionStream for ProfileStream {
    fn next_instr(&mut self) -> Instr {
        self.count += 1;

        // OS burst bookkeeping: enter bursts so the long-run OS fraction
        // matches the profile.
        let is_user = if self.os_left > 0 {
            self.os_left -= 1;
            false
        } else if self.os_entry.is_some_and(|t| self.draw() < t) {
            self.os_left = OS_BURST - 1;
            false
        } else {
            true
        };

        let pc = self.next_pc();
        let u = self.draw();
        let [load, store, branch, fp] = self.mix;
        let op = if u < load {
            OpClass::Load
        } else if u < store {
            OpClass::Store
        } else if u < branch {
            OpClass::Branch {
                mispredicted: self.draw() < self.mispredict,
            }
        } else if u < fp {
            OpClass::Fp
        } else {
            OpClass::IntAlu
        };

        let addr = if op.is_memory() { self.data_addr() } else { 0 };
        let dep_dist = self.dep();
        self.prev_was_load = op == OpClass::Load;
        Instr {
            op,
            pc,
            addr,
            dep_dist,
            is_user,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::CloudSuiteApp;

    fn pull(s: &mut ProfileStream, n: usize) -> Vec<Instr> {
        (0..n).map(|_| s.next_instr()).collect()
    }

    fn stream(app: CloudSuiteApp) -> ProfileStream {
        ProfileStream::new(WorkloadProfile::cloudsuite(app), 0)
    }

    #[test]
    fn instruction_mix_matches_profile() {
        let mut s = stream(CloudSuiteApp::WebSearch);
        let v = pull(&mut s, 100_000);
        let loads = v.iter().filter(|i| i.op == OpClass::Load).count() as f64 / v.len() as f64;
        let stores = v.iter().filter(|i| i.op == OpClass::Store).count() as f64 / v.len() as f64;
        assert!((loads - 0.30).abs() < 0.01, "load share {loads}");
        assert!((stores - 0.05).abs() < 0.005, "store share {stores}");
    }

    #[test]
    fn os_fraction_converges() {
        let mut s = stream(CloudSuiteApp::WebServing);
        let v = pull(&mut s, 400_000);
        let os = v.iter().filter(|i| !i.is_user).count() as f64 / v.len() as f64;
        assert!((os - 0.35).abs() < 0.05, "OS share {os}");
    }

    #[test]
    fn os_time_comes_in_bursts() {
        let mut s = stream(CloudSuiteApp::WebServing);
        let v = pull(&mut s, 50_000);
        // Transitions user->os should be far rarer than os instructions.
        let os_count = v.iter().filter(|i| !i.is_user).count();
        let transitions = v
            .windows(2)
            .filter(|w| w[0].is_user && !w[1].is_user)
            .count();
        assert!(os_count > transitions * 50, "OS must be bursty");
    }

    #[test]
    fn addresses_respect_locality_classes() {
        let mut s = stream(CloudSuiteApp::DataServing);
        let expected = s.profile().hot_fraction;
        let v = pull(&mut s, 200_000);
        let mem: Vec<&Instr> = v.iter().filter(|i| i.op.is_memory()).collect();
        let hot = mem
            .iter()
            .filter(|i| i.addr >= HOT_DATA_BASE && i.addr < HOT_DATA_BASE + 64 * HOT_BYTES)
            .count() as f64;
        let frac = hot / mem.len() as f64;
        assert!(
            (frac - expected).abs() < 0.02,
            "hot share {frac} vs {expected}"
        );
    }

    #[test]
    fn streaming_profiles_emit_sequential_cold_traffic() {
        let mut s = stream(CloudSuiteApp::MediaStreaming);
        let v = pull(&mut s, 200_000);
        let cold: Vec<u64> = v
            .iter()
            .filter(|i| i.op.is_memory() && i.addr >= 0x1_0000_0000)
            .map(|i| i.addr)
            .collect();
        assert!(cold.len() > 100);
        let sequential = cold.windows(2).filter(|w| w[1] == w[0] + 64).count();
        assert!(
            sequential as f64 / (cold.len() - 1) as f64 > 0.9,
            "cold accesses should stream"
        );
    }

    #[test]
    fn cold_code_bursts_walk_one_line() {
        let mut s = stream(CloudSuiteApp::WebServing);
        let v = pull(&mut s, 20_000);
        let cold_pcs: Vec<u64> = v
            .iter()
            .map(|i| i.pc)
            .filter(|&pc| pc >= 0x9000_0000)
            .collect();
        assert!(!cold_pcs.is_empty(), "web serving has cold code");
        // Within a burst, PCs advance by 4 within one line.
        let in_line_steps = cold_pcs.windows(2).filter(|w| w[1] == w[0] + 4).count();
        assert!(in_line_steps > cold_pcs.len() / 2);
    }

    #[test]
    fn different_seeds_use_disjoint_hot_regions() {
        let p = WorkloadProfile::cloudsuite(CloudSuiteApp::WebSearch);
        let a = ProfileStream::new(p.clone(), 0);
        let b = ProfileStream::new(p, 1);
        assert_ne!(a.hot_base, b.hot_base);
    }

    #[test]
    fn thresholds_decide_exactly_like_the_float_draws() {
        let unit = |k: u64| k as f64 * (1.0 / (1u64 << 53) as f64);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut probabilities = vec![0.0, -0.0, -0.5, 0.5, 0.7, 1.0, 1.5, f64::NAN, 1e-300];
        // Uniform draws are multiples of 2⁻⁵³; dividing them gives
        // probabilities whose scaled value has a fraction to round up.
        probabilities.extend((0..2_000).map(|i| rng.gen::<f64>() / f64::from(1 + i % 7)));
        for p in probabilities {
            let t = threshold(p);
            let near = [t.saturating_sub(1), t, t.saturating_add(1)];
            let draws = [0, 1, (1 << 53) - 1]
                .into_iter()
                .chain(near)
                .chain((0..16).map(|_| rng.next_u64() >> 11));
            for k in draws.filter(|&k| k < 1 << 53) {
                assert_eq!(k < t, unit(k) < p, "p = {p}, k = {k}");
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let p = WorkloadProfile::cloudsuite(CloudSuiteApp::DataServing);
        let a = pull(&mut ProfileStream::new(p.clone(), 3), 1000);
        let b = pull(&mut ProfileStream::new(p, 3), 1000);
        assert_eq!(a, b);
    }
}
