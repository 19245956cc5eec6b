//! The layer plan of functional multi-layer inference, and its dense
//! reference.
//!
//! A [`PipelineLayer`] is one CSC convolution plus the PPU work after it
//! (ReLU, requantize, compress, count statistics) and optional pooling —
//! the full §IV workflow at the functional level. [`crate::engine::compile`]
//! turns a list of them into static artifacts and [`crate::engine::Session`]
//! runs them, recording one [`LayerTrace`] per layer with exactly the
//! statistics the hardware's balancer would see. [`dense_reference`] runs
//! the same math through [`qnn::conv::conv2d`]; the test suite checks every
//! CSC path against it.

use atomstream::conv_csc::CscStats;
use atomstream::error::AtomError;
use qnn::conv::ConvGeometry;
use qnn::pool::{pool2d, PoolKind};
use qnn::quant::BitWidth;
use qnn::tensor::{Tensor3, Tensor4};
use serde::{Deserialize, Serialize};

/// One pipeline stage: a convolution plus its post-processing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineLayer {
    /// Layer name for reporting.
    pub name: String,
    /// The (quantized) kernels.
    pub kernels: Tensor4,
    /// Stride/padding.
    pub geom: ConvGeometry,
    /// Weight bit-width.
    pub w_bits: BitWidth,
    /// Input activation bit-width.
    pub a_bits: BitWidth,
    /// Requantization shift applied by the PPU.
    pub requant_shift: u32,
    /// Output activation bit-width after the PPU.
    pub out_bits: u8,
    /// Optional pooling after the PPU: `(kind, window, stride, padding)`.
    pub pool: Option<(PoolKind, usize, usize, usize)>,
}

/// Per-layer execution record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerTrace {
    /// Layer name.
    pub name: String,
    /// CSC work counters.
    pub stats: CscStats,
    /// Output non-zero values per channel (PPU statistic).
    pub out_values_per_channel: Vec<u64>,
    /// Output non-zero atoms per channel (PPU statistic — next layer's
    /// balancing input).
    pub out_atoms_per_channel: Vec<u64>,
}

/// The dense reference of a layer plan: per layer the dense convolution
/// ([`qnn::conv::conv2d`]), the PPU's requantize + ReLU, then the optional
/// pool. Used to verify every CSC execution path.
///
/// # Errors
/// Propagates geometry errors.
pub fn dense_reference(layers: &[PipelineLayer], input: &Tensor3) -> Result<Tensor3, AtomError> {
    let mut act = input.clone();
    for layer in layers {
        let acc = qnn::conv::conv2d(&act, &layer.kernels, layer.geom)?;
        let requant = acc.requantize_relu(layer.requant_shift, layer.out_bits);
        act = match layer.pool {
            Some((kind, window, stride, padding)) => {
                pool2d(&requant, kind, window, stride, padding)?
            }
            None => requant,
        };
    }
    Ok(act)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RistrettoConfig;
    use crate::engine::{compile, NetworkModel, Session, SessionRun};
    use qnn::workload::{ActivationProfile, WeightProfile, WorkloadGen};

    /// Compiles `layers` and runs one session over `input`.
    fn session_run(layers: &[PipelineLayer], cfg: &RistrettoConfig, input: &Tensor3) -> SessionRun {
        let model = NetworkModel::new("test", input.shape(), layers.to_vec());
        Session::new(compile(&model, cfg).unwrap())
            .run(input)
            .unwrap()
    }

    fn three_layer_pipeline(seed: u64) -> (Vec<PipelineLayer>, Tensor3) {
        let mut gen = WorkloadGen::new(seed);
        let input = gen
            .activations(3, 16, 16, &ActivationProfile::new(BitWidth::W8))
            .unwrap();
        let wp = WeightProfile::benchmark(BitWidth::W4);
        let layers = vec![
            PipelineLayer {
                name: "conv1".into(),
                kernels: gen.weights(8, 3, 3, 3, &wp).unwrap(),
                geom: ConvGeometry::unit_stride(1),
                w_bits: BitWidth::W4,
                a_bits: BitWidth::W8,
                requant_shift: 4,
                out_bits: 8,
                pool: Some((PoolKind::Max, 2, 2, 0)),
            },
            PipelineLayer {
                name: "conv2".into(),
                kernels: gen.weights(12, 8, 3, 3, &wp).unwrap(),
                geom: ConvGeometry::unit_stride(1),
                w_bits: BitWidth::W4,
                a_bits: BitWidth::W8,
                requant_shift: 5,
                out_bits: 8,
                pool: None,
            },
            PipelineLayer {
                name: "conv3".into(),
                kernels: gen.weights(4, 12, 1, 1, &wp).unwrap(),
                geom: ConvGeometry::default(),
                w_bits: BitWidth::W4,
                a_bits: BitWidth::W8,
                requant_shift: 3,
                out_bits: 8,
                pool: None,
            },
        ];
        (layers, input)
    }

    #[test]
    fn csc_pipeline_matches_dense_reference_end_to_end() {
        let cfg = RistrettoConfig::paper_default();
        for seed in [1u64, 2, 3] {
            let (layers, input) = three_layer_pipeline(seed);
            let run = session_run(&layers, &cfg, &input);
            let dense_out = dense_reference(&layers, &input).unwrap();
            assert_eq!(run.output, dense_out, "seed {seed}");
            assert_eq!(run.traces.len(), 3);
            assert!(run.traces.iter().all(|t| t.stats.intersect.atom_mults > 0));
        }
    }

    #[test]
    fn ppu_statistics_describe_next_layer_input() {
        let (layers, input) = three_layer_pipeline(7);
        let traces = session_run(&layers, &RistrettoConfig::paper_default(), &input).traces;
        // conv2's input is conv1's pooled output; without pooling the PPU
        // counts would match the next layer's measured input exactly. For
        // conv3 (no pool on conv2) they must match.
        let conv2_trace = &traces[1];
        assert_eq!(conv2_trace.out_values_per_channel.len(), 12);
        let conv2_out = conv2_trace.out_values_per_channel.iter().sum::<u64>();
        // conv3 streams at most that many values; channels whose pruned
        // kernels are entirely zero are skipped outright.
        let conv3_acts = traces[2].stats.act_values;
        assert!(conv3_acts <= conv2_out, "{conv3_acts} > {conv2_out}");
        assert!(
            conv3_acts as f64 >= conv2_out as f64 * 0.7,
            "{conv3_acts} vs {conv2_out}"
        );
    }

    #[test]
    fn deeper_pipeline_stays_exact() {
        // Five chained 1x1/3x3 layers at mixed precisions.
        let mut gen = WorkloadGen::new(99);
        let input = gen
            .activations(4, 10, 10, &ActivationProfile::new(BitWidth::W4))
            .unwrap();
        let mut layers = Vec::new();
        let mut in_c = 4;
        for (i, (&k, &bits)) in [1usize, 3, 1, 3, 1]
            .iter()
            .zip(&[
                BitWidth::W2,
                BitWidth::W4,
                BitWidth::W8,
                BitWidth::W2,
                BitWidth::W4,
            ])
            .enumerate()
        {
            let out_c = 4 + i;
            layers.push(PipelineLayer {
                name: format!("l{i}"),
                kernels: gen
                    .weights(out_c, in_c, k, k, &WeightProfile::benchmark(bits))
                    .unwrap(),
                geom: ConvGeometry::unit_stride(k / 2),
                w_bits: bits,
                a_bits: BitWidth::W8,
                requant_shift: 3,
                out_bits: 8,
                pool: None,
            });
            in_c = out_c;
        }
        // First layer consumes 4-bit input; widths still declared W8-safe.
        let cfg = RistrettoConfig {
            tile_h: 4,
            tile_w: 4,
            ..RistrettoConfig::paper_default()
        };
        let run = session_run(&layers, &cfg, &input);
        assert_eq!(run.output, dense_reference(&layers, &input).unwrap());
    }
}
