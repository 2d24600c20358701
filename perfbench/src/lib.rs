//! doebench-perf: the end-to-end and per-layer benchmark of `doebench`.
//!
//! Four workloads (`campaign`, `daemon`, `storm`, `lint`) drive the
//! repository's crates through their public functions only. Every
//! workload checks every output it times and counts wrong answers as
//! failures; with tracing on it also records spans around each layer
//! call and derives the per-layer metrics from them. See `README.md` in
//! this directory for why each workload and metric exists.

pub mod campaign;
pub mod check;
pub mod daemon;
pub mod lint;
pub mod probes;
pub mod prov;
pub mod stats;
pub mod storm;
pub mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub use check::Tally;
pub use trace::Tracer;

/// What a run is given: the workload seed, the measuring time, and where
/// its pinned inputs and trace output live.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// Workload seed; every generated input derives from it.
    pub seed: u64,
    /// How long the timed part of the run lasts.
    pub seconds: f64,
    /// Worker count the program runs with (`nproc`).
    pub jobs: usize,
    /// Extracted pinned lint tree (`crates/*/src`, fixtures, `dessan.toml`).
    pub pinned: PathBuf,
}

impl Ctx {
    /// Deadline `share` of the run's seconds from now.
    pub fn deadline(&self, share: f64) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds * share)
    }
}

/// Per-layer metrics: name → (value, unit).
pub type Layers = BTreeMap<String, (f64, &'static str)>;

/// Host-time samples and counters one workload pass produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Set-up samples, seconds.
    pub setup_s: Vec<f64>,
    /// The workload's main operation, milliseconds per sample.
    pub op_ms: Vec<f64>,
    /// The workload's second operation, milliseconds per sample.
    pub op2_ms: Vec<f64>,
    /// Units of work per host second of the main operation.
    pub ops_per_s: f64,
    /// Outputs checked and outputs found wrong.
    pub tally: Tally,
    /// Per-layer metrics (traced passes only).
    pub layers: Layers,
    /// `name value unit` lines under the workload-specific metric names.
    pub summary: Vec<String>,
    /// Provenance facts the workload resolved (shard count, jobs, …).
    pub provenance: Vec<(String, String)>,
}

/// Mix a seed with a stream label into an independent 64-bit value
/// (SplitMix64 finalizer over an FNV-1a fold of the label).
pub fn mix(seed: u64, label: &str, n: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in label.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut z = h ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Resident set size of this process, in MB (`VmRSS`), after the
/// allocator has returned its free pages: live memory, not the slack
/// that per-thread malloc arenas keep after a burst of threads.
pub fn rss_mb() -> Result<f64, String> {
    release_free_heap();
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmRSS line")?;
    Ok(kb / 1024.0)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers and only hands
    // free heap pages back to the kernel; any thread may call it at any
    // time.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}
