//! Fault tolerance: inject deterministic bit flips into a running layer,
//! watch the online monitors contain them, and verify the recovered output
//! is byte-identical to the fault-free run.
//!
//! ```text
//! cargo run --example fault_tolerance
//! ```

use ristretto::qnn::conv::ConvGeometry;
use ristretto::qnn::prelude::*;
use ristretto::qnn::workload::{ActivationProfile, WeightProfile, WorkloadGen};
use ristretto::ristretto_sim::config::RistrettoConfig;
use ristretto::ristretto_sim::engine::{compile, EngineError, NetworkModel, Session};
use ristretto::ristretto_sim::fault::FaultConfig;
use ristretto::ristretto_sim::pipeline::PipelineLayer;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A synthetic quantized layer: 8-bit activations, 4-bit weights.
    let mut gen = WorkloadGen::new(7);
    let fmap = gen.activations(4, 12, 12, &ActivationProfile::new(BitWidth::W8))?;
    let kernels = gen.weights(8, 4, 3, 3, &WeightProfile::benchmark(BitWidth::W4))?;
    let model = NetworkModel::new(
        "fault_tolerance",
        fmap.shape(),
        vec![PipelineLayer {
            name: "conv".to_string(),
            kernels,
            geom: ConvGeometry::unit_stride(1),
            w_bits: BitWidth::W4,
            a_bits: BitWidth::W8,
            requant_shift: 6,
            out_bits: 8,
            pool: None,
        }],
    );

    // --- 1. The fault-free baseline.
    let clean_cfg = RistrettoConfig::paper_default();
    let baseline = Session::new(compile(&model, &clean_cfg)?).run(&fmap)?;
    println!("baseline: clean run, {} traces", baseline.traces.len());

    // --- 2. Same layer under a seeded campaign: bit flips in every
    // injectable structure, monitors + tile-level recovery on.
    let campaign = FaultConfig::uniform(2022, 400);
    let faulty_cfg = RistrettoConfig::paper_default().with_faults(Some(campaign));
    let run = Session::new(compile(&model, &faulty_cfg)?).run(&fmap)?;
    println!(
        "campaign: {} injected, {} detected, {} tile retries, {} recovered, {} layer fallbacks",
        run.faults.injected_total(),
        run.faults.detected_total(),
        run.faults.retries,
        run.faults.recovered_tiles,
        run.faults.layer_fallbacks,
    );
    assert!(run.faults.injected_total() > 0, "campaign injected nothing");
    assert_eq!(
        run.output, baseline.output,
        "recovery must restore the fault-free output byte-for-byte"
    );
    println!("recovered output is byte-identical to the baseline");

    // --- 3. Recovery off: the same faults surface as a typed error naming
    // the structure and tile instead of a corrupted tensor.
    let brittle_cfg =
        RistrettoConfig::paper_default().with_faults(Some(campaign.with_recover(false)));
    match Session::new(compile(&model, &brittle_cfg)?).run(&fmap) {
        Err(EngineError::Fault(f)) => println!("without recovery: {f}"),
        Ok(_) => println!("without recovery: this seed's faults were all retried away"),
        Err(e) => return Err(e.into()),
    }

    // --- 4. Determinism: replaying the campaign reproduces the exact same
    // faults and counters at any thread count.
    let replay = Session::new(compile(&model, &faulty_cfg)?).run(&fmap)?;
    assert_eq!(replay.faults, run.faults, "campaigns must replay exactly");
    println!("replayed campaign: identical fault counters");
    Ok(())
}
