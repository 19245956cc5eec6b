//! The paper-sweep workload: the Fig 12/13 point set (six networks × four
//! precision policies, 2-bit atoms). Each point generates its statistics
//! with `NetworkStats::generate` and simulates Ristretto, Bit Fusion,
//! Laconic and SparTen on them. The engine does not run here.

use crate::calib::{between_slices, Calib};
use crate::metrics::Outcome;
use crate::trace::{timed, Tracer};
use crate::util::{median, ms, nearest_rank, ratio, us};
use baselines::bitfusion::BitFusion;
use baselines::laconic::Laconic;
use baselines::report::Backend;
use baselines::sparten::SparTen;
use bench::{area_norm_speedup, benchmark_policies};
use qnn::models::NetworkId;
use qnn::workload::{NetworkStats, PrecisionPolicy};
use ristretto_sim::analytic::RistrettoSim;
use ristretto_sim::config::RistrettoConfig;
use std::time::{Duration, Instant};

/// Atom granularity of the sweep.
pub const ATOM_BITS: u8 = 2;

/// The paper's average area-normalised speedups over Bit Fusion at
/// 8b / 4b / 2b / mixed 2/4b (Fig 12).
pub const PAPER_FIG12: [f64; 4] = [8.2, 7.47, 7.13, 6.73];

/// Every point of the sweep, in order: networks outer, policies inner.
pub fn points() -> Vec<(NetworkId, PrecisionPolicy)> {
    NetworkId::ALL
        .iter()
        .flat_map(|&n| benchmark_policies().into_iter().map(move |p| (n, p)))
        .collect()
}

/// Simulated totals of one point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointResult {
    /// Ristretto cycles.
    pub ristretto: u64,
    /// Bit Fusion cycles.
    pub bitfusion: u64,
    /// Laconic cycles.
    pub laconic: u64,
    /// SparTen cycles.
    pub sparten: u64,
}

struct Machines {
    ristretto: RistrettoSim,
    bitfusion: BitFusion,
    laconic: Laconic,
    sparten: SparTen,
}

impl Machines {
    fn new() -> Self {
        Self {
            ristretto: RistrettoSim::new(RistrettoConfig::paper_default()),
            bitfusion: BitFusion::paper_default(),
            laconic: Laconic::paper_default(),
            sparten: SparTen::paper_default(),
        }
    }

    fn point(
        &self,
        net: NetworkId,
        policy: PrecisionPolicy,
        seed: u64,
        tracer: &mut Tracer,
    ) -> PointResult {
        let stats = timed(tracer, "workload.generate", None, || {
            NetworkStats::generate(net, policy, ATOM_BITS, seed)
        });
        let r = timed(tracer, "analytic.simulate", None, || {
            self.ristretto.simulate_network(&stats)
        });
        let b = timed(tracer, "baselines.simulate/bitfusion", None, || {
            self.bitfusion.simulate_network(&stats)
        });
        let l = timed(tracer, "baselines.simulate/laconic", None, || {
            self.laconic.simulate_network(&stats)
        });
        let s = timed(tracer, "baselines.simulate/sparten", None, || {
            self.sparten.simulate_network(&stats)
        });
        PointResult {
            ristretto: r.total_cycles(),
            bitfusion: b.total_cycles(),
            laconic: l.total_cycles(),
            sparten: s.total_cycles(),
        }
    }
}

/// Mean absolute error (%) of the per-precision average area-normalised
/// speedup over Bit Fusion against [`PAPER_FIG12`]; `results` follows
/// [`points`] order.
pub fn fig12_error_pct(results: &[PointResult]) -> f64 {
    let m = Machines::new();
    let (r_area, bf_area) = (Backend::area_mm2(&m.ristretto), m.bitfusion.area_mm2());
    let policies = benchmark_policies().len();
    let nets = results.len() / policies;
    let errs: Vec<f64> = PAPER_FIG12
        .iter()
        .enumerate()
        .map(|(p, &paper)| {
            let avg = (0..nets)
                .map(|n| {
                    let r = results[n * policies + p];
                    area_norm_speedup(r.ristretto, r_area, r.bitfusion, bf_area)
                })
                .sum::<f64>()
                / nets as f64;
            (avg - paper).abs() / paper * 100.0
        })
        .collect();
    errs.iter().sum::<f64>() / errs.len() as f64
}

/// Runs the paper-sweep workload.
///
/// # Errors
/// A point whose simulated totals are not positive or not reproducible.
pub fn run(seed: u64, seconds: u64, tracer: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let pts = points();
    // Set-up builds the four machines and runs one warm-up point, so lazy
    // initialisation is paid before timing.
    let mut setups = Vec::new();
    let mut off = Tracer::new(false);
    let mut machines = None;
    for _ in 0..crate::SETUPS {
        let (m, secs, calib) = between_slices(|| {
            let m = Machines::new();
            let (n, p) = pts[0];
            m.point(n, p, seed, &mut off);
            m
        });
        setups.push(secs * calib.scale());
        machines = Some(m);
    }
    let m = machines.expect("at least one set-up");
    out.set("setup_s", median(&setups));

    // Timed phase: whole sweeps until the budget is spent, so every run
    // times the same mix of points. Each point's host time is the median
    // over its repeats.
    let budget = Duration::from_secs(seconds);
    let mut results: Vec<Option<PointResult>> = vec![None; pts.len()];
    let mut point_ms: Vec<Vec<f64>> = vec![Vec::new(); pts.len()];
    let mut slices = Calib::default();
    let mut raw_secs = 0.0f64;
    let mut bad = 0u64;
    let t0 = Instant::now();
    let mut sweeps = 0usize;
    while sweeps == 0 || t0.elapsed() < budget {
        for (k, &(n, p)) in pts.iter().enumerate() {
            let (r, secs, calib) = between_slices(|| m.point(n, p, seed, &mut off));
            raw_secs += secs;
            point_ms[k].push(secs * 1e3 * calib.scale());
            slices.slices += calib.slices;
            slices.ns += calib.ns;
            match results[k] {
                None => results[k] = Some(r),
                Some(first) if first != r => bad += 1,
                Some(_) => {}
            }
        }
        sweeps += 1;
    }
    let i = sweeps * pts.len();
    let results: Vec<PointResult> = results.into_iter().map(|r| r.expect("ran")).collect();
    let per_point: Vec<f64> = point_ms.iter().map(|v| median(v)).collect();
    out.set(
        "ops_per_s",
        pts.len() as f64 / (per_point.iter().sum::<f64>() / 1e3),
    );
    out.set("dispatch_ms_p50", nearest_rank(&per_point, 50.0));
    out.set("dispatch_ms_p95", nearest_rank(&per_point, 95.0));
    out.set("bench.dispatch_samples", i as f64);
    out.set(
        "bench.slice_us",
        ratio(slices.ns as f64, slices.slices as f64) / 1e3,
    );

    // Output checks: every machine reports positive cycles, repeated
    // points reproduce their totals exactly, and Ristretto beats Bit
    // Fusion at equal area on every point (the Fig 12 claim).
    let r_area = Backend::area_mm2(&m.ristretto);
    let bf_area = m.bitfusion.area_mm2();
    for r in &results {
        let positive = r.ristretto > 0 && r.bitfusion > 0 && r.laconic > 0 && r.sparten > 0;
        if !positive || area_norm_speedup(r.ristretto, r_area, r.bitfusion, bf_area) <= 1.0 {
            bad += 1;
        }
    }
    out.attempted = i as u64;
    out.failed = bad;
    out.correct = bad == 0;
    out.set("ok_share", 1.0 - bad as f64 / i as f64);
    out.set("bench.checked_outputs", i as f64);

    let cycles: Vec<f64> = results.iter().map(|r| r.ristretto as f64).collect();
    let total: f64 = cycles.iter().sum();
    out.set("sim_p99_ticks", nearest_rank(&cycles, 99.0));
    out.set("sim_makespan_cycles", total);
    out.set(
        "sim_goodput_per_mtick",
        ratio(pts.len() as f64 * 1e6, total),
    );
    out.set("analytic.fig12_err_pct", fig12_error_pct(&results));

    if tracer.on() {
        let t0 = Instant::now();
        for &(n, p) in &pts {
            let span = tracer.enter("sweep.point", None);
            m.point(n, p, seed, tracer);
            tracer.exit(span);
        }
        let traced_ns = t0.elapsed().as_nanos() as u64;
        out.set(
            "trace.overhead",
            ratio(
                traced_ns as f64 / pts.len() as f64,
                raw_secs * 1e9 / i as f64,
            ),
        );
        let by = tracer.durations_by_name();
        let med = |k: &str, f: fn(u64) -> f64| {
            by.get(k).map_or(0.0, |v| {
                median(&v.iter().map(|&ns| f(ns)).collect::<Vec<_>>())
            })
        };
        out.set("workload.generate_ms", med("workload.generate", ms));
        out.set("analytic.simulate_us", med("analytic.simulate", us));
        let base: Vec<f64> = by
            .iter()
            .filter(|(k, _)| k.starts_with("baselines.simulate/"))
            .flat_map(|(_, v)| v.iter().map(|&ns| us(ns)))
            .collect();
        out.set("baselines.simulate_us", median(&base));
    }
    Ok(())
}
