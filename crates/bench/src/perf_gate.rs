//! Same-host A/B perf gate over the repository benchmark
//! (`repro perf-check`).
//!
//! Runs two prebuilt perfbench binaries, a baseline (typically built at
//! the merge-base) and a candidate (HEAD), on every workload of
//! `BENCHMARK.json`. Each workload gets [`PAIRS`] pairs whose order
//! alternates; both sides of a pair run with seed [`SEED`], `--trace 0`
//! and [`SECONDS`] seconds. The gate builds nothing.
//!
//! For each end-to-end metric the verdict is the median of the per-pair
//! candidate/baseline ratios, judged against that metric's `bound` and
//! `better` fields in `BENCHMARK.json` (compiled in, so there is no
//! tolerance to set). A metric fails only when the median ratio is worse
//! than its bound *and* the candidate's median lies further from the
//! baseline's median, in the worse direction, than the distance between
//! the baseline runs' quartiles: host drift the baseline shows against
//! itself cannot fail the gate alone. A run that exits non-zero, reports
//! `correct: false` or lacks a metric fails the gate outright, and so does
//! a candidate whose failed share rose above its baseline's in any pair.
//!
//! Both binaries run on one host, close together in time, so no number
//! measured on another machine enters the verdict.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// Pairs per workload. One baseline + candidate round over the four
/// workloads at [`SECONDS`] takes about 85 s of wall time on a 2-CPU host
/// (set-up and output checks run outside the timed phase), so the whole
/// gate takes about seven minutes.
pub const PAIRS: usize = 5;

/// `--seconds` of every run. At 2 s the A/A spread of `ops_per_s` on a
/// 2-CPU host is about ±8%, inside its 0.2 bound.
pub const SECONDS: u64 = 2;

/// `--seed` of every run: both sides of every pair see the same inputs,
/// so the exact `sim_*` metrics must agree.
pub const SEED: u64 = 1;

/// The benchmark declaration: workloads and end-to-end metric bounds.
const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// The part of `BENCHMARK.json` the gate reads.
#[derive(Debug, Deserialize)]
pub(crate) struct Spec {
    /// Workloads, in declaration order.
    pub(crate) workloads: Vec<Workload>,
    /// End-to-end metrics with their bounds.
    pub(crate) end_to_end: Vec<Metric>,
}

/// One benchmark workload.
#[derive(Debug, Deserialize)]
pub(crate) struct Workload {
    /// The perfbench `--workload` name.
    pub(crate) name: String,
}

/// One end-to-end metric and the bound by which it may worsen.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub(crate) struct Metric {
    /// Metric name as perfbench prints it.
    pub(crate) name: String,
    /// `"higher"` or `"lower"`: the direction that is better.
    pub(crate) better: String,
    /// Largest tolerated relative worsening of the median ratio.
    pub(crate) bound: f64,
}

/// Reads the compiled-in `BENCHMARK.json`.
///
/// # Errors
/// Names the field that is missing or malformed.
pub(crate) fn spec() -> Result<Spec, String> {
    serde_json::from_str(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))
}

/// One perfbench result line: `{"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Run {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or failed their output check.
    pub failed: u64,
    /// Metric readings by name.
    pub metrics: BTreeMap<String, Reading>,
}

/// One metric reading of a [`Run`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Reading {
    /// The metric's value in its unit.
    pub value: f64,
}

impl Run {
    /// `failed / attempted` (0 when nothing was attempted).
    fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One (workload, metric) verdict.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Check {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Lower quartile, median and upper quartile of the baseline runs.
    pub base: [f64; 3],
    /// Median of the candidate runs.
    pub head_median: f64,
    /// Median of the per-pair candidate/baseline ratios.
    pub ratio: f64,
    /// The metric's bound from `BENCHMARK.json`.
    pub bound: f64,
    /// Whether the metric stayed within its bound or the baseline's spread.
    pub pass: bool,
}

/// Linear-interpolated `q`-quantile (`q` in `0..=1`) of non-empty `v`.
fn quantile(v: &[f64], q: f64) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (v[pos.floor() as usize], v[pos.ceil() as usize]);
    // Equal ends return as they are: `inf - inf` would be NaN.
    if lo == hi {
        lo
    } else {
        lo + (hi - lo) * pos.fract()
    }
}

/// Judges one workload's pairs, each `(baseline, candidate)`: the
/// per-metric checks, and the hard failures (`correct: false`, a rise in
/// the failed share).
///
/// # Errors
/// A structural error: no pairs, or a metric missing from a run.
pub(crate) fn compare(
    workload: &str,
    metrics: &[Metric],
    pairs: &[(Run, Run)],
) -> Result<(Vec<Check>, Vec<String>), String> {
    if pairs.is_empty() {
        return Err(format!("{workload}: no pairs to compare"));
    }
    let mut failures = Vec::new();
    for (pair, (base, head)) in (1..).zip(pairs) {
        for (side, run) in [("baseline", base), ("candidate", head)] {
            if !run.correct {
                failures.push(format!(
                    "{workload} pair {pair}: {side} reports correct: false"
                ));
            }
        }
        if head.failed_share() > base.failed_share() {
            failures.push(format!(
                "{workload} pair {pair}: failed operations rose from {}/{} to {}/{}",
                base.failed, base.attempted, head.failed, head.attempted
            ));
        }
    }
    let mut checks = Vec::with_capacity(metrics.len());
    for m in metrics {
        let value = |run: &Run, side: &str| {
            run.metrics
                .get(&m.name)
                .map(|r| r.value)
                .ok_or(format!("{workload}: {side} run has no metric `{}`", m.name))
        };
        let (mut base, mut head, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
        for (b, h) in pairs {
            let (bv, hv) = (value(b, "baseline")?, value(h, "candidate")?);
            ratios.push(match (bv == 0.0, hv == 0.0) {
                (true, true) => 1.0,
                (true, false) => f64::INFINITY,
                _ => hv / bv,
            });
            base.push(bv);
            head.push(hv);
        }
        let base = [0.25, 0.5, 0.75].map(|q| quantile(&base, q));
        let (head_median, ratio) = (quantile(&head, 0.5), quantile(&ratios, 0.5));
        // Relative worsening of the ratio, and the lag of the candidate's
        // median behind the baseline's: both positive when worse.
        let (worse_by, lag) = if m.better == "higher" {
            (1.0 - ratio, base[1] - head_median)
        } else {
            (ratio - 1.0, head_median - base[1])
        };
        checks.push(Check {
            workload: workload.to_string(),
            metric: m.name.clone(),
            base,
            head_median,
            ratio,
            bound: m.bound,
            pass: !(worse_by > m.bound && lag > base[2] - base[0]),
        });
    }
    Ok((checks, failures))
}

/// The gate's full result (the `--json` report).
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct Report {
    /// Every (workload, metric) verdict.
    pub checks: Vec<Check>,
    /// Hard failures; any one fails the gate.
    pub failures: Vec<String>,
    /// The raw `(baseline, candidate)` pairs behind the verdicts, by
    /// workload.
    pub runs: BTreeMap<String, Vec<(Run, Run)>>,
}

impl Report {
    /// Whether the gate passes: no hard failure and every check passed.
    #[must_use]
    pub fn pass(&self) -> bool {
        self.failures.is_empty() && self.checks.iter().all(|c| c.pass)
    }

    /// The verdict table, then the hard failures.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "perf-check: {PAIRS} alternating pairs per workload, seed {SEED}, {SECONDS} s per run\n\
             {:<14} {:<22} {:>12} {:>28} {:>12} {:>6} {:>5}\n",
            "workload", "metric", "baseline", "[q1, q3]", "candidate", "ratio", "bound"
        );
        for c in &self.checks {
            out.push_str(&format!(
                "{:<14} {:<22} {:>12.4} [{:>12.4}, {:>12.4}] {:>12.4} {:>6.3} {:>5.2}  {}\n",
                c.workload,
                c.metric,
                c.base[1],
                c.base[0],
                c.base[2],
                c.head_median,
                c.ratio,
                c.bound,
                if c.pass { "ok" } else { "FAIL" }
            ));
        }
        for f in &self.failures {
            out.push_str(&format!("FAIL {f}\n"));
        }
        out
    }
}

/// Runs one perfbench workload in `dir` and parses its last stdout line.
///
/// # Errors
/// The binary did not start, exited non-zero, or printed no result line.
fn run_once(bin: &Path, dir: &Path, workload: &str) -> Result<Run, String> {
    let what = format!("{} --workload {workload}", bin.display());
    let out = Command::new(bin)
        .current_dir(dir)
        .args(["--workload", workload, "--seed", &SEED.to_string()])
        .args(["--seconds", &SECONDS.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("cannot run {what}: {e}"))?;
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        let tail: Vec<&str> = stderr.lines().rev().take(3).collect();
        return Err(format!("{what} exited with {}: {tail:?}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(line).map_err(|e| format!("{what}: no result line ({e}): {line:?}"))
}

/// Runs the full A/B over every workload of `BENCHMARK.json`. Each side
/// runs in its own scratch directory (perfbench keeps its model cache
/// there), removed afterwards. `progress` hears each pair before it runs.
///
/// # Errors
/// A hard failure that stops the gate: a binary that cannot run or exits
/// non-zero, an unparsable result line, or a missing metric.
pub fn run(
    baseline: &Path,
    candidate: &Path,
    progress: &mut dyn FnMut(&str),
) -> Result<Report, String> {
    let spec = spec()?;
    // The runs change directory, so resolve the binaries first.
    let resolve = |b: &Path| std::fs::canonicalize(b).map_err(|e| format!("{}: {e}", b.display()));
    let bins = [resolve(baseline)?, resolve(candidate)?];
    let work = std::env::temp_dir().join(format!("repro-perf-check-{}", std::process::id()));
    let dirs = [work.join("baseline"), work.join("candidate")];
    let result = (|| {
        for d in &dirs {
            std::fs::create_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))?;
        }
        let mut report = Report::default();
        for Workload { name } in &spec.workloads {
            let mut pairs = Vec::with_capacity(PAIRS);
            for pair in 0..PAIRS {
                progress(&format!("perf-check {name} pair {}/{PAIRS}", pair + 1));
                let side = |s: usize| run_once(&bins[s], &dirs[s], name);
                // Alternating which side runs first cancels a steady drift
                // in host speed over the pairs.
                pairs.push(if pair % 2 == 0 {
                    let base = side(0)?;
                    (base, side(1)?)
                } else {
                    let head = side(1)?;
                    (side(0)?, head)
                });
            }
            let (checks, failures) = compare(name, &spec.end_to_end, &pairs)?;
            report.checks.extend(checks);
            report.failures.extend(failures);
            report.runs.insert(name.clone(), pairs);
        }
        Ok(report)
    })();
    // Best effort: a leftover scratch directory is no reason to fail.
    let _ = std::fs::remove_dir_all(&work);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> Vec<Metric> {
        let metric = |name: &str, better: &str, bound| Metric {
            name: name.to_string(),
            better: better.to_string(),
            bound,
        };
        vec![
            metric("setup_s", "lower", 0.25),
            metric("ops_per_s", "higher", 0.2),
        ]
    }

    /// A run as perfbench prints it, parsed back.
    fn run_of(setup_s: f64, ops_per_s: f64) -> Run {
        serde_json::from_str(&format!(
            "{{\"correct\": true, \"attempted\": 100, \"failed\": 0, \"metrics\": \
             {{\"setup_s\": {{\"value\": {setup_s}, \"unit\": \"s\"}}, \
             \"ops_per_s\": {{\"value\": {ops_per_s}, \"unit\": \"1/s\"}}}}}}"
        ))
        .unwrap()
    }

    /// Five pairs whose host figures wobble by `noise` either way around
    /// one centre, the candidate's throughput divided by `slow`.
    fn pairs(noise: f64, slow: f64) -> Vec<(Run, Run)> {
        [0.0, 1.0, -1.0, 0.5, -0.5]
            .map(|k| {
                let (up, down) = (1.0 + k * noise, 1.0 - k * noise);
                (
                    run_of(0.4 * up, 1e3 * down),
                    run_of(0.4 * down, 1e3 * up / slow),
                )
            })
            .to_vec()
    }

    fn judge(workload: &str, pairs: &[(Run, Run)]) -> (Vec<Check>, Vec<String>) {
        compare(workload, &metrics(), pairs).unwrap()
    }

    #[test]
    fn benchmark_json_declares_the_gated_workloads_and_bounds() {
        let spec = spec().unwrap();
        let names: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "serve-steady",
                "serve-chaos",
                "offline-shard",
                "paper-sweep"
            ]
        );
        assert!(metrics().iter().all(|m| spec.end_to_end.contains(m)));
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| ["higher", "lower"].contains(&m.better.as_str()) && m.bound > 0.0));
    }

    #[test]
    fn identical_sides_pass() {
        let (checks, failures) = judge("serve-steady", &pairs(0.0, 1.0));
        assert!(failures.is_empty());
        assert_eq!(checks.len(), 2);
        assert!(checks.iter().all(|c| c.pass && c.ratio == 1.0));
    }

    #[test]
    fn in_band_noise_passes() {
        // ±8% per run either way, as an A/A at 2 s reads.
        let (checks, failures) = judge("serve-steady", &pairs(0.08, 1.0));
        assert!(failures.is_empty());
        assert!(checks.iter().all(|c| c.pass), "{checks:?}");
        // A real but in-bound 10% slowdown passes too.
        let (checks, _) = judge("serve-steady", &pairs(0.02, 1.1));
        assert!(checks.iter().all(|c| c.pass), "{checks:?}");
    }

    #[test]
    fn a_2x_slower_throughput_fails_only_that_metric_and_workload() {
        let mut report = Report::default();
        for (workload, slow) in [("serve-steady", 2.0), ("paper-sweep", 1.0)] {
            let (checks, failures) = judge(workload, &pairs(0.03, slow));
            report.checks.extend(checks);
            report.failures.extend(failures);
        }
        let failed: Vec<(&str, &str)> = report
            .checks
            .iter()
            .filter(|c| !c.pass)
            .map(|c| (c.workload.as_str(), c.metric.as_str()))
            .collect();
        assert_eq!(failed, [("serve-steady", "ops_per_s")]);
        assert!(!report.pass());
        let text = report.render();
        assert_eq!(text.matches("FAIL").count(), 1, "{text}");
    }

    #[test]
    fn a_shift_inside_the_baselines_own_spread_passes() {
        // The baseline alone spans 600..1400: a median ratio past the
        // bound that the baseline's quartiles cover is noise, not a fault.
        let p: Vec<(Run, Run)> = [600.0, 1400.0, 700.0, 1300.0, 1000.0]
            .into_iter()
            .zip([700.0, 1000.0, 540.0, 800.0, 900.0])
            .map(|(b, h)| (run_of(0.4, b), run_of(0.4, h)))
            .collect();
        let (checks, _) = judge("serve-chaos", &p);
        assert!(checks[1].ratio < 0.8 && checks[1].pass, "{:?}", checks[1]);
    }

    #[test]
    fn incorrect_output_or_more_failures_fail_hard() {
        let mut p = pairs(0.0, 1.0);
        p[2].1.correct = false;
        let (checks, failures) = judge("offline-shard", &p);
        assert!(checks.iter().all(|c| c.pass));
        assert_eq!(
            failures,
            ["offline-shard pair 3: candidate reports correct: false"]
        );

        let mut p = pairs(0.0, 1.0);
        p[0].1.failed = 1;
        assert_eq!(
            judge("serve-chaos", &p).1,
            ["serve-chaos pair 1: failed operations rose from 0/100 to 1/100"]
        );
        // Fewer failures than the baseline is no fault.
        let mut p = pairs(0.0, 1.0);
        p[0].0.failed = 1;
        assert!(judge("serve-chaos", &p).1.is_empty());
    }

    #[test]
    fn a_missing_metric_is_a_structural_error() {
        let mut p = pairs(0.0, 1.0);
        p[4].1.metrics.remove("ops_per_s");
        let err = compare("paper-sweep", &metrics(), &p).unwrap_err();
        assert_eq!(err, "paper-sweep: candidate run has no metric `ops_per_s`");
        assert!(compare("paper-sweep", &metrics(), &[]).is_err());
        // A line without its counts does not parse at all.
        assert!(serde_json::from_str::<Run>("{\"correct\": true, \"metrics\": {}}").is_err());
    }

    #[test]
    fn zero_baselines_compare_without_dividing_by_zero() {
        let zeros = vec![(run_of(0.0, 0.0), run_of(0.0, 0.0)); 3];
        assert!(judge("paper-sweep", &zeros)
            .0
            .iter()
            .all(|c| c.pass && c.ratio == 1.0));
        // A lower-is-better metric rising from 0 is worse than any bound.
        let rising = vec![(run_of(0.0, 1.0), run_of(0.5, 1.0)); 3];
        assert!(!judge("paper-sweep", &rising).0[0].pass);
    }
}
