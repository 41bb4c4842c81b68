//! Small shared pieces: order statistics, the result line, child-process
//! memory accounting and file helpers.

use std::fmt::Write as _;
use std::path::Path;

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between closest ranks; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// How many of `values` lie strictly above `threshold`.
pub fn count_above(values: &[f64], threshold: f64) -> usize {
    values.iter().filter(|&&v| v > threshold).count()
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects metrics and check outcomes and renders the result line.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable check failures, printed before the result line.
    pub problems: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Records one checked operation; a mismatch counts as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// Records a harness-level problem that makes the run incorrect
    /// without being a failed operation (for example drifting counts).
    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// The final JSON line.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set size, in KiB, of the largest terminated and
/// reaped child of this process (`getrusage(RUSAGE_CHILDREN)`). The
/// harness only ever spawns `nanobound` processes, so this is the
/// maximum over every `nanobound` process of the run.
pub fn children_peak_rss_kib() -> u64 {
    // struct rusage on 64-bit Linux: two timevals (4 × i64), then 14
    // longs starting with ru_maxrss (KiB).
    #[repr(C)]
    struct RUsage {
        fields: [i64; 18],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = RUsage { fields: [0; 18] };
    // SAFETY: `usage` is a writable buffer of the size of the kernel's
    // 64-bit `struct rusage`.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        u64::try_from(usage.fields[4]).unwrap_or(0)
    } else {
        0
    }
}

pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Creates `path` afresh (removing whatever was there).
pub fn fresh_dir(path: &Path) -> Result<(), String> {
    if path.exists() {
        std::fs::remove_dir_all(path)
            .map_err(|e| format!("cannot clear {}: {e}", path.display()))?;
    }
    std::fs::create_dir_all(path).map_err(|e| format!("cannot create {}: {e}", path.display()))
}

/// SplitMix64 step: a deterministic stream for shuffles and choices.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher–Yates shuffle driven by [`splitmix`].
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}
