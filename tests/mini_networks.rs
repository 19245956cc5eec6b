//! End-to-end functional inference of the six miniature benchmark networks
//! through the condensed streaming computation, checked bit-exactly
//! against the dense reference at every precision policy.

use ristretto::qnn::mini::MiniNetwork;
use ristretto::qnn::models::NetworkId;
use ristretto::qnn::quant::BitWidth;
use ristretto::qnn::tensor::Tensor3;
use ristretto::qnn::workload::{ActivationProfile, WeightProfile, WorkloadGen};
use ristretto::ristretto_sim::config::RistrettoConfig;
use ristretto::ristretto_sim::engine::{compile, NetworkModel, Session, SessionRun};
use ristretto::ristretto_sim::pipeline::{dense_reference, PipelineLayer};

fn build_model(
    mini: &MiniNetwork,
    w_bits: BitWidth,
    a_bits: BitWidth,
    gen: &mut WorkloadGen,
) -> NetworkModel {
    let wp = WeightProfile::benchmark(w_bits);
    let layers = mini
        .stages
        .iter()
        .map(|stage| {
            let l = &stage.layer;
            PipelineLayer {
                name: l.name.clone(),
                kernels: gen
                    .weights(l.out_channels, l.in_channels, l.kernel, l.kernel, &wp)
                    .expect("valid kernel shape"),
                geom: l.geometry(),
                w_bits,
                a_bits,
                requant_shift: 5,
                out_bits: a_bits.bits(),
                pool: stage.pool,
            }
        })
        .collect();
    NetworkModel::new(mini.id.name(), mini.input, layers)
}

/// Compiles `model` with 4×4 tiles and runs one session over `input`.
fn run_csc(model: &NetworkModel, input: &Tensor3) -> SessionRun {
    let cfg = RistrettoConfig {
        tile_h: 4,
        tile_w: 4,
        ..RistrettoConfig::paper_default()
    };
    Session::new(compile(model, &cfg).expect("compile"))
        .run(input)
        .expect("CSC inference")
}

#[test]
fn all_six_minis_run_csc_inference_exactly() {
    for id in NetworkId::ALL {
        let mini = MiniNetwork::new(id);
        mini.validate_chaining().unwrap();
        let mut gen = WorkloadGen::new(7000 + id as u64);
        let (c, h, w) = mini.input;
        let input = gen
            .activations(c, h, w, &ActivationProfile::new(BitWidth::W8))
            .unwrap();
        let model = build_model(&mini, BitWidth::W4, BitWidth::W8, &mut gen);
        let run = run_csc(&model, &input);
        let dense_out = dense_reference(&model.layers, &input).expect("dense inference");
        assert_eq!(run.output, dense_out, "{id}");
        assert_eq!(run.traces.len(), mini.stages.len(), "{id}");
        // The classifier output has 10 channels at 1x1... or small spatial.
        assert_eq!(run.output.channels(), 10, "{id}");
    }
}

#[test]
fn minis_run_at_low_precision_too() {
    for (w_bits, a_bits) in [(BitWidth::W2, BitWidth::W2), (BitWidth::W2, BitWidth::W4)] {
        let mini = MiniNetwork::new(NetworkId::ResNet18);
        let mut gen = WorkloadGen::new(8100 + w_bits.bits() as u64);
        let (c, h, w) = mini.input;
        let input = gen
            .activations(c, h, w, &ActivationProfile::new(a_bits))
            .unwrap();
        let model = build_model(&mini, w_bits, a_bits, &mut gen);
        let dense_out = dense_reference(&model.layers, &input).unwrap();
        assert_eq!(
            run_csc(&model, &input).output,
            dense_out,
            "{w_bits}/{a_bits}"
        );
    }
}

#[test]
fn mini_traces_feed_balancer_statistics() {
    use ristretto::ristretto_sim::balance::{balance, BalanceStrategy, ChannelWorkload};
    let mini = MiniNetwork::new(NetworkId::Vgg16);
    let mut gen = WorkloadGen::new(8200);
    let (c, h, w) = mini.input;
    let input = gen
        .activations(c, h, w, &ActivationProfile::new(BitWidth::W8))
        .unwrap();
    let model = build_model(&mini, BitWidth::W4, BitWidth::W8, &mut gen);
    let traces = run_csc(&model, &input).traces;
    // Use a mid-layer's PPU statistics as the next layer's balancer input,
    // exactly the §IV-E flow.
    let trace = &traces[2];
    let workloads: Vec<ChannelWorkload> = trace
        .out_atoms_per_channel
        .iter()
        .enumerate()
        .map(|(channel, &atoms)| ChannelWorkload {
            channel,
            act_atoms: atoms,
            weight_atoms: 64,
        })
        .collect();
    let a = balance(&workloads, 4, 16, BalanceStrategy::WeightActivation);
    assert_eq!(a.groups.len(), 4);
    assert!(a.utilization() > 0.8);
}
