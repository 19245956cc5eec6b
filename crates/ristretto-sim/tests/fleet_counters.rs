//! A clean sharded pass prepares each layer's activation once and lets
//! every shard intersect it; a pass under a quiescent fault campaign still
//! runs every shard independently through the fault-aware path, which
//! compresses the activation per shard. Both must give the same outputs and
//! the same `compress.*` / `intersect.*` counters.
//!
//! The counters are process-global, so this binary holds a single test.

use qnn::mini::MiniNetwork;
use qnn::models::NetworkId;
use qnn::quant::BitWidth;
use qnn::tensor::Tensor3;
use qnn::workload::{ActivationProfile, WeightProfile, WorkloadGen};
use ristretto_sim::config::{FleetConfig, RistrettoConfig};
use ristretto_sim::engine::{compile, NetworkModel};
use ristretto_sim::fault::FaultConfig;
use ristretto_sim::fleet::{Fleet, FleetRun, ShardStrategy};

/// Runs `f` and returns its result with the deltas of every
/// `compress.*` and `intersect.*` counter it caused.
fn measured(f: impl FnOnce() -> FleetRun) -> (FleetRun, Vec<(&'static str, u64)>) {
    let before = obs::snapshot();
    let run = f();
    let after = obs::snapshot();
    let deltas = obs::Event::ALL
        .iter()
        .filter(|e| e.name().starts_with("compress.") || e.name().starts_with("intersect."))
        .map(|&e| (e.name(), after.get(e) - before.get(e)))
        .collect();
    (run, deltas)
}

#[test]
fn shared_preparation_counts_like_independent_shards() {
    obs::enable(true);
    let mini = MiniNetwork::try_new(NetworkId::ResNet18).unwrap();
    let mut gen = WorkloadGen::new(83);
    let model =
        NetworkModel::from_mini(&mini, &mut gen, &WeightProfile::benchmark(BitWidth::W4)).unwrap();
    let (c, h, w) = model.input;
    let inputs: Vec<Tensor3> = (0..2)
        .map(|_| {
            gen.activations(c, h, w, &ActivationProfile::new(BitWidth::W8))
                .unwrap()
        })
        .collect();
    let refs: Vec<&Tensor3> = inputs.iter().collect();
    let net = compile(&model, &RistrettoConfig::paper_default()).unwrap();
    for strategy in [ShardStrategy::OutputChannel, ShardStrategy::Hybrid(2)] {
        let fleet = Fleet::try_new(net.clone(), FleetConfig::new(4, strategy)).unwrap();
        let (independent, want) = measured(|| {
            fleet
                .run_with(&refs, Some(FaultConfig::quiescent(3)))
                .unwrap()
        });
        let (shared, got) = measured(|| fleet.run_with(&refs, None).unwrap());
        assert_eq!(shared.outputs, independent.outputs, "{strategy}");
        assert_eq!(shared.report, independent.report, "{strategy}");
        assert_eq!(got, want, "{strategy}: counters");
        let atoms = got
            .iter()
            .find(|(name, _)| *name == "compress.act_atoms")
            .map(|&(_, n)| n);
        assert!(atoms > Some(0), "{strategy}: the kernel ran");
    }
}
