//! Byte-determinism sweep of the sharded fleet simulator: every
//! `(cores, threads)` combination must produce the same bytes — outputs
//! *and* the full integer [`FleetReport`] — and the scaling efficiencies
//! derived from those reports must respect their theoretical bounds.
//! A core-death chaos case closes the loop: a fleet losing cores mid-run
//! reshards deterministically and still reproduces the fault-free bytes.
//! Sharded outputs are also checked against an inline dense reference,
//! which shares no code with the CSC kernel.

use qnn::conv::conv2d;
use qnn::mini::MiniNetwork;
use qnn::models::NetworkId;
use qnn::pool::pool2d;
use qnn::quant::BitWidth;
use qnn::tensor::Tensor3;
use qnn::workload::{ActivationProfile, WeightProfile, WorkloadGen};
use ristretto_sim::config::{FleetConfig, RistrettoConfig};
use ristretto_sim::engine::{compile, CompiledNetwork, NetworkModel, Session};
use ristretto_sim::fault::CoreDeathConfig;
use ristretto_sim::fleet::{Fleet, FleetRun, ShardStrategy};
use std::sync::Arc;

const CORE_COUNTS: [usize; 4] = [1, 2, 4, 8];
const THREAD_COUNTS: [usize; 2] = [1, 4];

fn compiled_and_inputs(seed: u64, inputs: usize) -> (Arc<CompiledNetwork>, Vec<Tensor3>) {
    let mini = MiniNetwork::try_new(NetworkId::GoogLeNet).unwrap();
    let mut gen = WorkloadGen::new(seed);
    let wp = WeightProfile::benchmark(BitWidth::W4);
    let model = NetworkModel::from_mini(&mini, &mut gen, &wp).unwrap();
    let (c, h, w) = model.input;
    let images = (0..inputs)
        .map(|_| {
            gen.activations(c, h, w, &ActivationProfile::new(BitWidth::W8))
                .unwrap()
        })
        .collect();
    let net = compile(&model, &RistrettoConfig::paper_default()).unwrap();
    (net, images)
}

/// Runs `cfg` over `inputs` inside a dedicated `threads`-wide pool.
fn run_pooled(
    net: &Arc<CompiledNetwork>,
    cfg: FleetConfig,
    inputs: &[Tensor3],
    threads: usize,
) -> FleetRun {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap();
    let fleet = Fleet::try_new(net.clone(), cfg).unwrap();
    pool.install(|| fleet.run(inputs).unwrap())
}

/// The full `(cores, threads)` matrix: per `(strategy, cores)` point the
/// 1-thread and 4-thread runs must agree on every byte, and per strategy
/// the outputs must be byte-identical across core counts.
#[test]
fn cores_by_threads_sweep_is_byte_identical() {
    let (net, inputs) = compiled_and_inputs(41, 2);
    let session_out: Vec<Tensor3> = {
        let session = Session::new(net.clone());
        inputs
            .iter()
            .map(|i| session.run(i).unwrap().output)
            .collect()
    };
    for strategy in [ShardStrategy::Batch, ShardStrategy::OutputChannel] {
        for cores in CORE_COUNTS {
            let runs: Vec<FleetRun> = THREAD_COUNTS
                .iter()
                .map(|&t| run_pooled(&net, FleetConfig::new(cores, strategy), &inputs, t))
                .collect();
            assert_eq!(
                runs[0].report, runs[1].report,
                "{strategy} x{cores}: thread count leaked into the report"
            );
            assert_eq!(
                runs[0].outputs, runs[1].outputs,
                "{strategy} x{cores}: thread count leaked into the outputs"
            );
            assert_eq!(runs[0].noc, runs[1].noc);
            // Sharding must never change the numerics.
            assert_eq!(
                runs[0].outputs, session_out,
                "{strategy} x{cores}: fleet diverges from the single-core session"
            );
        }
    }
}

/// Strong scaling (output-channel, one input): efficiency
/// `t1 / (N · tN)` stays in `(0, 1]` and latency never increases as cores
/// are added.
#[test]
fn strong_scaling_efficiency_is_bounded() {
    let (net, inputs) = compiled_and_inputs(43, 1);
    let mut makespans = Vec::new();
    for cores in CORE_COUNTS {
        let run = run_pooled(
            &net,
            FleetConfig::new(cores, ShardStrategy::OutputChannel),
            &inputs,
            4,
        );
        makespans.push(run.report.makespan_cycles);
    }
    let t1 = makespans[0];
    for (i, &cores) in CORE_COUNTS.iter().enumerate() {
        let eff = t1 as f64 / (cores as f64 * makespans[i] as f64);
        assert!(
            eff > 0.0 && eff <= 1.0,
            "strong efficiency {eff} at {cores} cores (t1 {t1}, tN {})",
            makespans[i]
        );
    }
    assert!(
        makespans.windows(2).all(|p| p[1] <= p[0]),
        "latency must not grow with cores: {makespans:?}"
    );
}

/// Weak scaling (batch, one input per core): the makespan is bounded below
/// by the 1-core single-input baseline (core 0 always serves input 0) and
/// above by the slowest input's full single-core time.
#[test]
fn weak_scaling_stays_within_bounds() {
    let (net, all_inputs) = compiled_and_inputs(47, 8);
    let t1 = run_pooled(
        &net,
        FleetConfig::new(1, ShardStrategy::Batch),
        &all_inputs[..1],
        4,
    )
    .report
    .makespan_cycles;
    // The per-input ceiling: every input served alone on one core.
    let worst: u64 = all_inputs
        .iter()
        .map(|input| {
            run_pooled(
                &net,
                FleetConfig::new(1, ShardStrategy::Batch),
                std::slice::from_ref(input),
                4,
            )
            .report
            .makespan_cycles
        })
        .max()
        .unwrap();
    for cores in CORE_COUNTS {
        let run = run_pooled(
            &net,
            FleetConfig::new(cores, ShardStrategy::Batch),
            &all_inputs[..cores],
            4,
        );
        let tn = run.report.makespan_cycles;
        let eff = t1 as f64 / tn as f64;
        assert!(
            tn >= t1 && tn <= worst,
            "{cores} cores: makespan {tn} outside [{t1}, {worst}]"
        );
        assert!(eff > 0.0 && eff <= 1.0, "weak efficiency {eff}");
        assert_eq!(run.report.link_bits, 0, "batch sharding moves no traffic");
    }
}

/// Core-death chaos: a hot campaign kills cores mid-run; the fleet
/// reshards deterministically and reproduces the fault-free bytes at any
/// thread count.
#[test]
fn core_death_chaos_reproduces_fault_free_bytes_at_any_thread_count() {
    let (net, inputs) = compiled_and_inputs(53, 2);
    let clean = run_pooled(
        &net,
        FleetConfig::new(4, ShardStrategy::OutputChannel),
        &inputs,
        4,
    );
    let chaos_cfg = FleetConfig::new(4, ShardStrategy::OutputChannel)
        .with_core_deaths(Some(CoreDeathConfig::new(61, 200_000)));
    let runs: Vec<FleetRun> = THREAD_COUNTS
        .iter()
        .map(|&t| run_pooled(&net, chaos_cfg, &inputs, t))
        .collect();
    assert!(runs[0].report.core_deaths > 0, "campaign must fire");
    assert!(runs[0].report.reshards > 0);
    assert_eq!(runs[0].report, runs[1].report);
    assert_eq!(runs[0].outputs, runs[1].outputs);
    assert_eq!(
        runs[0].outputs, clean.outputs,
        "recovery must be byte-exact against the fault-free fleet"
    );
    assert_eq!(runs[0].report.output_digest, clean.report.output_digest);
    assert!(runs[0].report.latency_cycles > clean.report.latency_cycles);
}

/// The dense reference of a whole network: per layer the dense
/// convolution, the PPU's requantize + ReLU, then the optional pool.
fn dense_reference(model: &NetworkModel, input: &Tensor3) -> Tensor3 {
    model.layers.iter().fold(input.clone(), |act, l| {
        let out = conv2d(&act, &l.kernels, l.geom)
            .unwrap()
            .requantize_relu(l.requant_shift, l.out_bits);
        match l.pool {
            Some((kind, window, stride, padding)) => {
                pool2d(&out, kind, window, stride, padding).unwrap()
            }
            None => out,
        }
    })
}

/// Output-channel and hybrid sharding against the dense reference on all
/// six mini networks. Comparing `Fleet` with `Session` alone would miss a
/// kernel bug, since both run the same kernel.
#[test]
fn sharded_fleets_match_the_dense_reference_on_every_mini_network() {
    for (i, id) in NetworkId::ALL.into_iter().enumerate() {
        let mini = MiniNetwork::try_new(id).unwrap();
        let mut gen = WorkloadGen::new(70 + i as u64);
        let wp = WeightProfile::benchmark(BitWidth::W4);
        let model = NetworkModel::from_mini(&mini, &mut gen, &wp).unwrap();
        let (c, h, w) = model.input;
        let inputs: Vec<Tensor3> = (0..2)
            .map(|_| {
                gen.activations(c, h, w, &ActivationProfile::new(BitWidth::W8))
                    .unwrap()
            })
            .collect();
        let want: Vec<Tensor3> = inputs.iter().map(|x| dense_reference(&model, x)).collect();
        let net = compile(&model, &RistrettoConfig::paper_default()).unwrap();
        for strategy in [ShardStrategy::OutputChannel, ShardStrategy::Hybrid(2)] {
            let fleet = Fleet::try_new(net.clone(), FleetConfig::new(4, strategy)).unwrap();
            // Twice, so the second pass runs on warm arenas.
            for pass in 0..2 {
                let run = fleet.run(&inputs).unwrap();
                assert_eq!(run.outputs, want, "{} {strategy} pass {pass}", net.name());
            }
        }
    }
}
