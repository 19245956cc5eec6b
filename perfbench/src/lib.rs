//! The repository benchmark: four workloads, host-time end-to-end
//! metrics, and a traced run for per-layer metrics. See `README.md`.

pub mod calib;
pub mod metrics;
pub mod offline;
pub mod probe;
pub mod serve;
pub mod sweep;
pub mod trace;
pub mod util;

use metrics::Outcome;
use std::path::Path;
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// The workloads, by name.
pub const WORKLOADS: [&str; 4] = [
    "serve-steady",
    "serve-chaos",
    "offline-shard",
    "paper-sweep",
];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed every input derives from.
    pub seed: u64,
    /// Length of the timed phase in seconds (whole units run until it is
    /// spent).
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// Usage line for errors.
pub const USAGE: &str =
    "usage: perfbench --workload <serve-steady|serve-chaos|offline-shard|paper-sweep> --seed <u64> --seconds <1..=600> --trace <0|1>";

/// Parses `--workload`, `--seed`, `--seconds` and `--trace` (all
/// required, each once).
///
/// # Errors
/// Names the offending flag or value.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let dup = |set: bool| {
            if set {
                Err(format!("{flag} given twice"))
            } else {
                Ok(())
            }
        };
        match flag.as_str() {
            "--workload" => {
                dup(workload.is_some())?;
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload `{value}`"));
                }
                workload = Some(value.clone());
            }
            "--seed" => {
                dup(seed.is_some())?;
                seed = Some(
                    value
                        .parse()
                        .map_err(|_| format!("--seed `{value}` is not a u64"))?,
                );
            }
            "--seconds" => {
                dup(seconds.is_some())?;
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("--seconds `{value}` is not a whole number"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                dup(trace.is_some())?;
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace `{value}` is not 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Runs one workload; `work_dir` holds the model cache of offline-shard.
///
/// # Errors
/// Set-up and execution failures, rendered.
pub fn run(args: &Args, work_dir: &Path, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "serve-steady" => serve::run(
            &serve::ServeSpec::steady(),
            args.seed,
            args.seconds,
            tracer,
            &mut out,
        )?,
        "serve-chaos" => serve::run(
            &serve::ServeSpec::chaos(),
            args.seed,
            args.seconds,
            tracer,
            &mut out,
        )?,
        "offline-shard" => offline::run(args.seed, args.seconds, work_dir, tracer, &mut out)?,
        "paper-sweep" => sweep::run(args.seed, args.seconds, tracer, &mut out)?,
        other => return Err(format!("unknown workload `{other}`")),
    }
    Ok(out)
}
