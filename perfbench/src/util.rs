//! Seeded hashing, output digests, percentiles and process statistics.

use crate::calib::Calib;
use qnn::tensor::Tensor3;

/// The `splitmix64` finalizer, bit for bit the mixer `ristretto_sim::fault`
/// uses (it is crate-private there).
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Site hash for one `(a, b)` decision of a seeded stream; `salt`
/// separates independent streams (think time, routing, input, jitter).
pub fn site(seed: u64, a: u64, b: u64, salt: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(seed ^ salt) ^ a) ^ b)
}

/// The serving layer's per-request output digest, rebuilt from
/// `fault::splitmix64`: the value the server folds into
/// `ServerStats::request_digests` for a served output.
pub fn tensor_digest(t: &Tensor3) -> u64 {
    let mut h = splitmix64(0x7E45_0E5E);
    for &v in t.as_slice() {
        h = splitmix64(h ^ (v as u32 as u64));
    }
    h
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`; `0.0` when
/// empty. The rank is `⌈p/100 · n⌉`, so p50 of three values is the middle
/// one and p95 of 200 values leaves ten samples above it.
pub fn nearest_rank(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    nearest_rank(values, 50.0)
}

/// Whether `name` is a valid metric name: it starts with a letter or a
/// digit and uses at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `0.0`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nanoseconds as milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Nanoseconds as microseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// `num / den`, or `0.0` when the denominator is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One window of the timed phase: operations completed, host time, the
/// host time of each dispatch in it, and the calibration slices run
/// alongside.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Window {
    /// Operations completed.
    pub ops: u64,
    /// Host ns of the window's work (calibration slices excluded).
    pub ns: u64,
    /// Host ns of each dispatch.
    pub dispatch_ns: Vec<u64>,
    /// Calibration slices run during the window.
    pub calib: Calib,
}

/// Sets `ops_per_s`, `dispatch_ms_p50`, `dispatch_ms_p95` and
/// `bench.dispatch_samples` from the timed windows. Host times are scaled
/// to the reference speed by each window's calibration. Each figure is the
/// median over windows of that window's own figure, so a slowdown that
/// covers fewer than half of the windows does not move it.
pub fn report_windows(windows: &[Window], out: &mut crate::metrics::Outcome) {
    let per = |f: &dyn Fn(&Window) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
    let pct = |w: &Window, p: f64| {
        let scale = w.calib.scale();
        nearest_rank(
            &w.dispatch_ns
                .iter()
                .map(|&ns| ms(ns) * scale)
                .collect::<Vec<_>>(),
            p,
        )
    };
    out.set(
        "ops_per_s",
        per(&|w| w.ops as f64 / (w.ns as f64 * w.calib.scale() / 1e9)),
    );
    out.set("dispatch_ms_p50", per(&|w| pct(w, 50.0)));
    out.set("dispatch_ms_p95", per(&|w| pct(w, 95.0)));
    out.set(
        "bench.dispatch_samples",
        windows.iter().map(|w| w.dispatch_ns.len()).sum::<usize>() as f64,
    );
    let slices: Calib = windows.iter().fold(Calib::default(), |a, w| Calib {
        slices: a.slices + w.calib.slices,
        ns: a.ns + w.calib.ns,
    });
    out.set(
        "bench.slice_us",
        ratio(slices.ns as f64, slices.slices as f64) / 1e3,
    );
}
