//! Differential oracle for the synthetic statistics generator.
//!
//! `reference_layer` is the direct form of `LayerStats::generate`: one
//! `SeededRng::laplace` per weight, a fresh `Vec` per channel, and
//! `magnitude_prune` on every channel. The library draws weights through a
//! bin table and prunes most channels from a histogram; both must give the
//! same `LayerStats`, `weight_sample` included, for every layer, profile
//! and seed.

use proptest::prelude::*;
use qnn::layers::{ConvLayer, LayerKind};
use qnn::models::{Network, NetworkId};
use qnn::prune::magnitude_prune;
use qnn::quant::{activation_clip_multiplier, weight_clip_multiplier, BitWidth, Quantizer};
use qnn::rng::SeededRng;
use qnn::sparsity::{nonzero_atoms, SparsityStats};
use qnn::workload::{
    network_flavor, ActivationProfile, LayerStats, NetworkStats, PrecisionPolicy, WeightProfile,
    WeightTable,
};

const CHANNEL_SAMPLE_CAP: usize = 768;
const STATS_SAMPLE_CAP: usize = 8192;
/// The seed every `repro` experiment uses (`bench::SEED`).
const BENCH_SEED: u64 = 20220101;

fn reference_layer(
    layer: &ConvLayer,
    wp: &WeightProfile,
    ap: &ActivationProfile,
    atom_bits: u8,
    rng: &mut SeededRng,
) -> LayerStats {
    let in_c = layer.in_channels;
    let acts_per_ch = layer.in_h * layer.in_w;
    let weights_per_ch = layer.out_channels * layer.kernel * layer.kernel;

    let clip = weight_clip_multiplier(wp.bits) * wp.clip_scale as f32;
    let wq = Quantizer::symmetric(wp.bits.bits(), clip.max(1e-3));
    let aq = Quantizer::unsigned(ap.bits.bits(), activation_clip_multiplier(ap.bits));
    let shift = ap.effective_shift();

    let mut act_atoms = Vec::with_capacity(in_c);
    let mut w_atoms = Vec::with_capacity(in_c);
    let mut act_vals = Vec::with_capacity(in_c);
    let mut w_vals = Vec::with_capacity(in_c);
    let mut w_sample = Vec::new();
    let mut a_sample = Vec::new();
    let (mut a_nnz, mut a_atom_total) = (0u64, 0u64);
    let (mut w_nnz, mut w_atom_total) = (0u64, 0u64);

    for _ in 0..in_c {
        let ch_shift = shift + 0.25 * rng.normal();

        let n_s = acts_per_ch.min(CHANNEL_SAMPLE_CAP);
        let scale = acts_per_ch as f64 / n_s as f64;
        let (mut nnz, mut atoms) = (0u64, 0u64);
        for _ in 0..n_s {
            let pre = rng.normal() - ch_shift;
            let v = if pre <= 0.0 {
                0
            } else {
                aq.quantize(pre as f32)
            };
            if a_sample.len() < STATS_SAMPLE_CAP {
                a_sample.push(v);
            }
            if v != 0 {
                nnz += 1;
                atoms += nonzero_atoms(v, atom_bits) as u64;
            }
        }
        let (nnz, atoms) = ((nnz as f64 * scale) as u64, (atoms as f64 * scale) as u64);
        act_vals.push(nnz);
        act_atoms.push(atoms);
        a_nnz += nnz;
        a_atom_total += atoms;

        let n_s = weights_per_ch.min(CHANNEL_SAMPLE_CAP);
        let scale = weights_per_ch as f64 / n_s as f64;
        let mut vals: Vec<i32> = (0..n_s)
            .map(|_| wq.quantize(rng.laplace(std::f64::consts::FRAC_1_SQRT_2) as f32))
            .collect();
        if wp.prune_sparsity > 0.0 {
            magnitude_prune(&mut vals, wp.prune_sparsity);
        }
        let (mut nnz, mut atoms) = (0u64, 0u64);
        for &v in &vals {
            if w_sample.len() < STATS_SAMPLE_CAP {
                w_sample.push(v);
            }
            if v != 0 {
                nnz += 1;
                atoms += nonzero_atoms(v, atom_bits) as u64;
            }
        }
        let (nnz, atoms) = ((nnz as f64 * scale) as u64, (atoms as f64 * scale) as u64);
        w_vals.push(nnz);
        w_atoms.push(atoms);
        w_nnz += nnz;
        w_atom_total += atoms;
    }

    let a_total = layer.activation_count();
    let w_total = layer.weight_count();
    let a_slots = ap.bits.bits().div_ceil(atom_bits) as f64;
    let w_slots = wp.bits.bits().div_ceil(atom_bits) as f64;
    let density = |nnz: u64, atoms: u64, slots: f64| {
        if nnz == 0 {
            0.0
        } else {
            atoms as f64 / (nnz as f64 * slots)
        }
    };
    LayerStats {
        layer: layer.clone(),
        w_bits: wp.bits,
        a_bits: ap.bits,
        atom_bits,
        weight: SparsityStats {
            len: w_total,
            nonzero_values: w_nnz as usize,
            nonzero_atoms: w_atom_total,
            value_density: w_nnz as f64 / w_total as f64,
            atom_density: density(w_nnz, w_atom_total, w_slots),
        },
        activation: SparsityStats {
            len: a_total,
            nonzero_values: a_nnz as usize,
            nonzero_atoms: a_atom_total,
            value_density: a_nnz as f64 / a_total as f64,
            atom_density: density(a_nnz, a_atom_total, a_slots),
        },
        act_atoms_per_channel: act_atoms,
        weight_atoms_per_channel: w_atoms,
        act_values_per_channel: act_vals,
        weight_values_per_channel: w_vals,
        weight_sample: w_sample,
        activation_sample: a_sample,
    }
}

fn reference_network(
    id: NetworkId,
    policy: PrecisionPolicy,
    atom_bits: u8,
    seed: u64,
) -> NetworkStats {
    let net = Network::new(id);
    let (shift, clip, prune) = network_flavor(id);
    let mut rng = SeededRng::new(seed ^ (id as u64) << 32);
    let mut layers = Vec::with_capacity(net.layers().len());
    for layer in net.layers() {
        let (wb, ab) = match policy {
            PrecisionPolicy::Uniform(b) => (b, b),
            PrecisionPolicy::Mixed24 => {
                let mut pick = || {
                    if rng.bernoulli(0.5) {
                        BitWidth::W2
                    } else {
                        BitWidth::W4
                    }
                };
                (pick(), pick())
            }
        };
        let layer_prune = if layer.kind == LayerKind::FullyConnected {
            prune.max(0.90)
        } else {
            prune
        };
        let wp = WeightProfile {
            bits: wb,
            prune_sparsity: layer_prune,
            clip_scale: clip,
        };
        let ap = ActivationProfile {
            bits: ab,
            relu_shift: shift,
        };
        let mut lrng = rng.fork(layers.len() as u64);
        layers.push(reference_layer(layer, &wp, &ap, atom_bits, &mut lrng));
    }
    NetworkStats { id, policy, layers }
}

/// The Fig 12/13 sweep's precision policies (`bench::benchmark_policies`).
const POLICIES: [PrecisionPolicy; 4] = [
    PrecisionPolicy::Uniform(BitWidth::W8),
    PrecisionPolicy::Uniform(BitWidth::W4),
    PrecisionPolicy::Uniform(BitWidth::W2),
    PrecisionPolicy::Mixed24,
];

/// One network's four sweep points (of the 24: six networks × four
/// policies, 2-bit atoms) at five seeds.
fn sweep_points_match(id: NetworkId) {
    for seed in [1, BENCH_SEED, 6, 7, 11] {
        for policy in POLICIES {
            let got = NetworkStats::generate(id, policy, 2, seed);
            let want = reference_network(id, policy, 2, seed);
            assert!(
                got == want,
                "{} {} seed {seed}: generated stats differ from the reference",
                id.name(),
                policy.label()
            );
        }
    }
}

#[test]
fn alexnet_sweep_points_match_the_reference() {
    sweep_points_match(NetworkId::AlexNet);
}

#[test]
fn vgg16_sweep_points_match_the_reference() {
    sweep_points_match(NetworkId::Vgg16);
}

#[test]
fn googlenet_sweep_points_match_the_reference() {
    sweep_points_match(NetworkId::GoogLeNet);
}

#[test]
fn inception_v2_sweep_points_match_the_reference() {
    sweep_points_match(NetworkId::InceptionV2);
}

#[test]
fn resnet18_sweep_points_match_the_reference() {
    sweep_points_match(NetworkId::ResNet18);
}

#[test]
fn resnet50_sweep_points_match_the_reference() {
    sweep_points_match(NetworkId::ResNet50);
}

fn layer_matches(
    layer: &ConvLayer,
    wp: &WeightProfile,
    ap: &ActivationProfile,
    atom_bits: u8,
    seed: u64,
) -> bool {
    let got = LayerStats::generate(layer, wp, ap, atom_bits, &mut SeededRng::new(seed));
    let want = reference_layer(layer, wp, ap, atom_bits, &mut SeededRng::new(seed));
    got == want
}

#[test]
fn sample_cap_falling_mid_channel_matches_the_reference() {
    // 450 weights per channel: the 8,192-value sample fills part-way
    // through channel 18, and channels 19.. take the histogram path.
    let layer = ConvLayer::conv("mid", 24, 50, 3, 1, 1, 20, 20).unwrap();
    assert_ne!(STATS_SAMPLE_CAP % 450, 0);
    for prune in [0.0, 0.45, 0.9, 1.0] {
        let wp = WeightProfile {
            bits: BitWidth::W8,
            prune_sparsity: prune,
            clip_scale: 1.0,
        };
        let ap = ActivationProfile::new(BitWidth::W8);
        assert!(layer_matches(&layer, &wp, &ap, 2, 3), "prune {prune}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_layers_match_the_reference(
        in_c in 1usize..=28,
        out_c in 1usize..=96,
        k in 0usize..3,
        hw in 1usize..=36,
        width in 0usize..3,
        clip_scale in 0.9f64..1.1,
        prune in 0usize..4,
        atom_bits in 1u8..=8,
        shift in -0.2f64..0.3,
        seed in 0u64..1_000_000,
    ) {
        let kernel = [1, 3, 5][k];
        let layer = ConvLayer::conv("p", in_c, out_c, kernel, 1, kernel / 2, hw, hw).unwrap();
        let bits = [BitWidth::W2, BitWidth::W4, BitWidth::W8][width];
        let wp = WeightProfile {
            bits,
            prune_sparsity: [0.0, 0.45, 0.9, 1.0][prune],
            clip_scale,
        };
        let ap = ActivationProfile { bits, relu_shift: shift };
        prop_assert!(layer_matches(&layer, &wp, &ap, atom_bits, seed));
    }
}

/// One weight drawn the direct way from the raw 53-bit draw `k`: the body
/// of `SeededRng::laplace` (`uniform_f64() - 0.5`, then the inverse CDF)
/// followed by the quantizer.
fn direct_weight(q: &Quantizer, k: u64) -> i32 {
    let u = k as f64 * (1.0 / (1u64 << 53) as f64) - 0.5;
    let x = -std::f64::consts::FRAC_1_SQRT_2 * u.signum() * (1.0 - 2.0 * u.abs()).ln();
    q.quantize(x as f32)
}

#[test]
fn weight_table_matches_direct_draws_at_every_edge() {
    // Random draws almost never land on an edge, so check both sides of
    // every edge explicitly, plus the extremes, the centre and a spread.
    let mut rng = SeededRng::new(99);
    for bits in [BitWidth::W2, BitWidth::W4, BitWidth::W6, BitWidth::W8] {
        for clip_scale in [0.9, 1.0, 1.1] {
            let wp = WeightProfile {
                clip_scale,
                ..WeightProfile::unpruned(bits)
            };
            let clip = weight_clip_multiplier(bits) * clip_scale as f32;
            let q = Quantizer::symmetric(bits.bits(), clip.max(1e-3));
            let table = WeightTable::new(&wp);
            assert_eq!(table.edges().len(), 2 * bits.signed_max() as usize);
            let edge_sides = table
                .edges()
                .iter()
                .flat_map(|&e| e.saturating_sub(2)..(e + 3).min(1 << 53));
            let fixed = [0, 1, 1 << 52, (1 << 53) - 1];
            let spread: Vec<u64> = (0..20_000).map(|_| rng.next_u64() >> 11).collect();
            for k in edge_sides.chain(fixed).chain(spread) {
                assert_eq!(
                    table.weight(k),
                    direct_weight(&q, k),
                    "{bits} clip ×{clip_scale}, draw {k}"
                );
            }
        }
    }
}
