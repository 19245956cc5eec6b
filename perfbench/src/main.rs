//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! runs one workload in its own process and prints one JSON result line
//! last on stdout. Exits 2 on a usage error, 1 when the run fails or an
//! output check does not pass.

use perfbench::metrics::{end_to_end, per_layer};
use perfbench::trace::Tracer;
use perfbench::util::peak_rss_mb;
use perfbench::{parse_args, run, USAGE};
use std::path::Path;
use std::process::ExitCode;

/// Kernel threads the benchmark pins. The vendored rayon shim spawns
/// scoped threads on every parallel call, which on the mini networks costs
/// more than it saves: on a 2-CPU host serve-steady ran 1.6x slower at two
/// threads than at one.
const THREADS: usize = 1;

/// Scratch directory (relative to the checkout root) for the model cache
/// and the span file.
const WORK_DIR: &str = "perfbench-out";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(THREADS);
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global()
        .expect("the rayon shim never fails to build");
    let work_dir = Path::new(WORK_DIR);
    if let Err(e) = std::fs::create_dir_all(work_dir) {
        eprintln!("perfbench: creating {WORK_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let mut tracer = Tracer::new(args.trace);
    let mut out = match run(&args, work_dir, &mut tracer) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("bench.threads", threads as f64);
    if args.trace {
        let path = work_dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "perfbench: {} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
    }
    if let Some(name) = out.unknown_metric() {
        eprintln!("perfbench: internal error: metric `{name}` is not in the catalogue");
        return ExitCode::FAILURE;
    }
    let catalogue = if args.trace {
        per_layer()
    } else {
        end_to_end()
    };
    let line = match out.render(&catalogue) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "perfbench: {} seed {} threads {threads}: {} dispatch samples, {} attempted, {} failed checks",
        args.workload,
        args.seed,
        out.values.get("bench.dispatch_samples").copied().unwrap_or(0.0),
        out.attempted,
        out.failed,
    );
    println!("{line}");
    if out.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: output checks failed");
        ExitCode::FAILURE
    }
}
