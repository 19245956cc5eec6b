//! The offline-shard workload: batches of images through
//! `Fleet::run_with` with output-channel sharding on four cores, over all
//! six mini networks, with artifacts loaded from a warmed model cache.

use crate::calib::{between_slices, Calibrator};
use crate::metrics::Outcome;
use crate::probe::LayerProbe;
use crate::trace::Tracer;
use crate::util::{median, ms, nearest_rank, ratio, report_windows, site, us, Window};
use bench::experiments::engine_batch::benchmark_models;
use qnn::quant::BitWidth;
use qnn::tensor::Tensor3;
use qnn::workload::{ActivationProfile, WorkloadGen};
use ristretto_sim::config::{FleetConfig, RistrettoConfig};
use ristretto_sim::engine::{CompiledNetwork, NetworkModel, Session};
use ristretto_sim::fleet::{Fleet, FleetRun, ShardStrategy};
use ristretto_sim::modelcache::{CacheKey, ModelCache};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Images per `Fleet::run_with` call.
pub const BATCH: usize = 8;
/// Distinct input sets per network; pass `k` uses set `k % SETS`.
pub const SETS: usize = 4;
/// Cores of the sharded fleet.
pub const CORES: usize = 4;
/// Passes per timed window (every input set four times).
pub const WINDOW_PASSES: usize = 4 * SETS;

const SALT_IMAGE: u64 = 0x1A6E;

/// The input images of `(network, set)`, generated from the seed; also
/// returns the host ns spent per tensor.
///
/// # Errors
/// Input generation failures, rendered.
pub fn images(
    seed: u64,
    net: usize,
    set: usize,
    shape: (usize, usize, usize),
) -> Result<(Vec<Tensor3>, Vec<u64>), String> {
    let (c, h, w) = shape;
    let profile = ActivationProfile::new(BitWidth::W8);
    let mut ns = Vec::with_capacity(BATCH);
    let imgs = (0..BATCH)
        .map(|i| {
            let t0 = Instant::now();
            let key = ((set * BATCH + i) as u64) << 8 | net as u64;
            let img = WorkloadGen::new(site(seed, net as u64, key, SALT_IMAGE))
                .activations(c, h, w, &profile)
                .map_err(|e| format!("image ({net}, {set}, {i}): {e}"));
            ns.push(t0.elapsed().as_nanos() as u64);
            img
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((imgs, ns))
}

struct Setup {
    nets: Vec<Arc<CompiledNetwork>>,
    fleets: Vec<Fleet>,
    /// `inputs[net][set]`.
    inputs: Vec<Vec<Vec<Tensor3>>>,
    activation_ns: Vec<u64>,
    load_ns: u64,
    artifact_bytes: u64,
}

/// Loads every artifact from the warmed cache, shards it over the fleet
/// and generates the inputs.
fn setup(
    cache: &ModelCache,
    models: &[(String, NetworkModel)],
    cfg: &RistrettoConfig,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<Setup, String> {
    let (mut load_ns, mut artifact_bytes) = (0u64, 0u64);
    let mut nets = Vec::new();
    let mut fleets = Vec::new();
    let mut inputs = Vec::new();
    let mut activation_ns = Vec::new();
    for (idx, (name, model)) in models.iter().enumerate() {
        let path = cache.dir().join(CacheKey::derive(model, cfg).file_name());
        artifact_bytes += std::fs::metadata(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .len();
        let span = tracer.enter(&format!("cache.load/{name}"), None);
        let t = Instant::now();
        let net = Arc::new(
            cache
                .load(&path)
                .map_err(|e| format!("loading {name}: {e}"))?,
        );
        load_ns += t.elapsed().as_nanos() as u64;
        tracer.exit(span);
        fleets.push(
            Fleet::try_new(
                net.clone(),
                FleetConfig::new(CORES, ShardStrategy::OutputChannel),
            )
            .map_err(|e| format!("sharding {name}: {e}"))?,
        );
        let sets = (0..SETS)
            .map(|set| {
                let (imgs, ns) = images(seed, idx, set, net.input())?;
                activation_ns.extend(ns);
                Ok(imgs)
            })
            .collect::<Result<Vec<_>, String>>()?;
        inputs.push(sets);
        nets.push(net);
    }
    Ok(Setup {
        nets,
        fleets,
        inputs,
        activation_ns,
        load_ns,
        artifact_bytes,
    })
}

/// Runs the offline-shard workload.
///
/// # Errors
/// Cache, set-up and execution failures, rendered.
pub fn run(
    seed: u64,
    seconds: u64,
    work_dir: &Path,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let cfg = RistrettoConfig::paper_default();
    let models = benchmark_models(false);
    let dir = work_dir.join(format!("cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ModelCache::new(&dir);
    // Warm the cache once, outside set-up: set-up measures artifact load.
    for (name, model) in &models {
        cache
            .compile_cached(model, &cfg)
            .map_err(|e| format!("warming the cache for {name}: {e}"))?;
    }
    let result = run_warm(&cache, &models, &cfg, seed, seconds, tracer, out);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

#[allow(clippy::too_many_arguments)]
fn run_warm(
    cache: &ModelCache,
    models: &[(String, NetworkModel)],
    cfg: &RistrettoConfig,
    seed: u64,
    seconds: u64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut last = None;
    let mut off = Tracer::new(false);
    for k in 0..crate::SETUPS {
        // Only the last set-up is traced, so spans describe one load.
        let t = if k + 1 == crate::SETUPS {
            &mut *tracer
        } else {
            &mut off
        };
        let (s, secs, calib) = between_slices(|| setup(cache, models, cfg, seed, t));
        setups.push(secs * calib.scale());
        last = Some(s?);
    }
    let s = last.expect("at least one set-up");
    out.set("setup_s", median(&setups));
    out.set("cache.load_ms", ms(s.load_ns));
    out.set("cache.artifact_kb", s.artifact_bytes as f64 / 1024.0);
    out.set(
        "workload.activations_us",
        median(&s.activation_ns.iter().map(|&ns| us(ns)).collect::<Vec<_>>()),
    );

    // Timed phase: whole windows of passes (one batch per network per
    // pass) until the budget is spent.
    let budget = Duration::from_secs(seconds);
    let mut first_runs: Vec<Vec<Option<FleetRun>>> =
        (0..s.nets.len()).map(|_| vec![None; SETS]).collect();
    let mut digest_mismatch = 0u64;
    let mut windows: Vec<Window> = Vec::new();
    let t0 = Instant::now();
    while windows.is_empty() || t0.elapsed() < budget {
        let mut w = Window::default();
        let mut cal = Calibrator::new();
        let mut slices_ns = 0u64;
        let tw = Instant::now();
        for pass in 0..WINDOW_PASSES {
            let set = pass % SETS;
            for (n, fleet) in s.fleets.iter().enumerate() {
                slices_ns += cal.tick();
                let refs: Vec<&Tensor3> = s.inputs[n][set].iter().collect();
                let t = Instant::now();
                let run = fleet
                    .run_with(&refs, None)
                    .map_err(|e| format!("{} set {set}: {e}", s.nets[n].name()))?;
                w.dispatch_ns.push(t.elapsed().as_nanos() as u64);
                w.ops += refs.len() as u64;
                match &first_runs[n][set] {
                    None => first_runs[n][set] = Some(run),
                    Some(first) if first.report.output_digest != run.report.output_digest => {
                        digest_mismatch += 1;
                    }
                    Some(_) => {}
                }
            }
        }
        w.ns = tw.elapsed().as_nanos() as u64 - slices_ns;
        w.calib = cal.calib;
        windows.push(w);
    }
    let images_done: u64 = windows.iter().map(|w| w.ops).sum();
    let wall_ns: u64 = windows.iter().map(|w| w.ns).sum();
    report_windows(&windows, out);

    // Simulated results over the first run of every (network, set).
    let firsts: Vec<&FleetRun> = first_runs.iter().flatten().flatten().collect();
    let makespans: Vec<f64> = firsts
        .iter()
        .map(|r| r.report.makespan_cycles as f64)
        .collect();
    let total: f64 = makespans.iter().sum();
    let imgs: u64 = firsts.iter().map(|r| r.report.inputs).sum();
    out.set("sim_p99_ticks", nearest_rank(&makespans, 99.0));
    out.set("sim_makespan_cycles", total);
    out.set("sim_goodput_per_mtick", ratio(imgs as f64 * 1e6, total));
    let (busy, idle): (u64, u64) = firsts.iter().fold((0, 0), |(b, i), r| {
        (b + r.report.busy_cycles, i + r.report.idle_cycles)
    });
    out.set(
        "fleet.link_bits",
        firsts.iter().map(|r| r.report.link_bits).sum::<u64>() as f64,
    );
    out.set("fleet.idle_cycles", idle as f64);
    out.set(
        "fleet.utilization_permille",
        ratio(busy as f64 * 1000.0, (busy + idle) as f64),
    );

    // Output checks (untimed): fleet outputs byte-for-byte against a
    // 1-core `Session::run` of the same image.
    let mut mismatched = 0u64;
    let mut checked = 0u64;
    for (n, net) in s.nets.iter().enumerate() {
        let session = Session::new(net.clone());
        for (set, run) in first_runs[n].iter().enumerate() {
            let run = run.as_ref().expect("every set ran");
            for (img, got) in s.inputs[n][set].iter().zip(&run.outputs) {
                let want = session
                    .run(img)
                    .map_err(|e| format!("{} reference: {e}", net.name()))?;
                checked += 1;
                if want.output != *got {
                    mismatched += 1;
                }
            }
        }
    }
    out.set("bench.checked_outputs", checked as f64);
    out.attempted = images_done;
    out.failed = mismatched + digest_mismatch * BATCH as u64;
    out.correct = out.failed == 0;
    out.set(
        "ok_share",
        1.0 - out.failed as f64 / images_done.max(1) as f64,
    );

    if tracer.on() {
        traced(models, &s, wall_ns, images_done, tracer, out)?;
    }
    Ok(())
}

/// The traced part: one traced pass with spans around every
/// `Fleet::run_with`, a layer-by-layer replay of every image, and ×4 over
/// ×1 sharding cost on the same inputs.
fn traced(
    models: &[(String, NetworkModel)],
    s: &Setup,
    untraced_ns: u64,
    untraced_images: u64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let pairs: Vec<_> = s
        .nets
        .iter()
        .zip(models)
        .map(|(n, (_, m))| (n.clone(), m))
        .collect();
    let mut probe = LayerProbe::new(&pairs);
    let one_core: Vec<Fleet> = s
        .nets
        .iter()
        .map(|n| {
            Fleet::try_new(n.clone(), FleetConfig::new(1, ShardStrategy::OutputChannel))
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let (mut ns4, mut ns1) = (0u64, 0u64);
    let mut traced_images = 0u64;
    let t0 = Instant::now();
    for set in 0..SETS {
        for (n, fleet) in s.fleets.iter().enumerate() {
            let refs: Vec<&Tensor3> = s.inputs[n][set].iter().collect();
            let name = s.nets[n].name();
            let span = tracer.enter(&format!("fleet.run_with/{name}"), None);
            let t = Instant::now();
            fleet.run_with(&refs, None).map_err(|e| e.to_string())?;
            ns4 += t.elapsed().as_nanos() as u64;
            tracer.exit(span);
            traced_images += refs.len() as u64;
            let r0 = Instant::now();
            let span = tracer.enter(&format!("fleet.run_with.oc1/{name}"), None);
            let t = Instant::now();
            one_core[n]
                .run_with(&refs, None)
                .map_err(|e| e.to_string())?;
            ns1 += t.elapsed().as_nanos() as u64;
            tracer.exit(span);
            probe.replay_ns += r0.elapsed().as_nanos() as u64;
            for (i, img) in refs.iter().enumerate() {
                probe.replay(n, img, Some((set * BATCH + i) as u64), tracer)?;
            }
        }
    }
    let traced_ns = (t0.elapsed().as_nanos() as u64).saturating_sub(probe.replay_ns);
    // Steady state: every image once more, after the arenas have seen the
    // whole working set.
    probe.mark_warm();
    for set in 0..SETS {
        for n in 0..s.nets.len() {
            for img in &s.inputs[n][set] {
                probe.replay(n, img, None, tracer)?;
            }
        }
    }
    out.set(
        "trace.overhead",
        ratio(
            traced_ns as f64 / traced_images as f64,
            untraced_ns as f64 / untraced_images as f64,
        ),
    );
    out.set("fleet.oc4_over_oc1", ratio(ns4 as f64, ns1 as f64));
    let by = tracer.durations_by_name();
    let runs: Vec<f64> = by
        .iter()
        .filter(|(k, _)| k.starts_with("fleet.run_with/"))
        .flat_map(|(_, v)| v.iter().map(|&ns| ms(ns)))
        .collect();
    out.set("fleet.run_ms", median(&runs));
    probe.report(tracer, out);
    if probe.kernel_mismatches > 0 || probe.steady_allocs() > 0 {
        out.correct = false;
    }
    Ok(())
}
