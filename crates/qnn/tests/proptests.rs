//! Property-based tests for the quantized-CNN substrate.

use proptest::prelude::*;
use qnn::conv::{conv2d, ConvGeometry};
use qnn::formats::{bitmap::BitmapVec, coo::BlockCoo2d, csr::CsrMatrix};
use qnn::im2col::conv2d_im2col;
use qnn::prune::magnitude_prune;
use qnn::quant::{BitWidth, Quantizer};
use qnn::sparsity::{nonzero_atoms, value_density, SparsityStats};
use qnn::tensor::{Tensor3, Tensor4};

fn sparse_values(n: usize) -> impl Strategy<Value = Vec<i32>> {
    proptest::collection::vec(prop_oneof![3 => Just(0i32), 2 => -127i32..=127], n..=n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bitmap_roundtrips(dense in sparse_values(150)) {
        let c = BitmapVec::from_dense(&dense);
        prop_assert_eq!(c.to_dense(), dense.clone());
        prop_assert_eq!(c.count_nonzero(), dense.iter().filter(|&&v| v != 0).count());
    }

    #[test]
    fn bitmap_matches_commute(a in sparse_values(96), b in sparse_values(96)) {
        let ca = BitmapVec::from_dense(&a);
        let cb = BitmapVec::from_dense(&b);
        prop_assert_eq!(ca.match_count(&cb), cb.match_count(&ca));
        let ab = ca.matching_pairs(&cb);
        let ba = cb.matching_pairs(&ca);
        prop_assert_eq!(ab.len(), ba.len());
        for (x, y) in ab.iter().zip(&ba) {
            prop_assert_eq!((x.0, x.1), (y.1, y.0));
        }
        // Dot product via pairs equals dense dot product.
        let dot: i64 = ab.iter().map(|&(x, y)| x as i64 * y as i64).sum();
        let dense_dot: i64 = a.iter().zip(&b).map(|(&x, &y)| x as i64 * y as i64).sum();
        prop_assert_eq!(dot, dense_dot);
    }

    #[test]
    fn coo_roundtrips(dense in sparse_values(48)) {
        let c = BlockCoo2d::from_dense(&dense, 6, 8).unwrap();
        prop_assert_eq!(c.to_dense(), dense);
    }

    #[test]
    fn csr_roundtrips(dense in sparse_values(60)) {
        let m = CsrMatrix::from_dense(&dense, 5, 12).unwrap();
        prop_assert_eq!(m.to_dense(), dense.clone());
        let nnz: usize = (0..5).map(|r| m.row_nnz(r)).sum();
        prop_assert_eq!(nnz, dense.iter().filter(|&&v| v != 0).count());
    }

    #[test]
    fn quantizer_is_idempotent_on_grid(bits in 2u8..=8, clip in 0.5f32..4.0, x in -5.0f32..5.0) {
        let q = Quantizer::symmetric(bits, clip);
        let once = q.quantize(x);
        let twice = q.quantize(q.dequantize(once));
        prop_assert_eq!(once, twice);
        prop_assert!(once.abs() <= BitWidth::new(bits).unwrap().signed_max());
    }

    #[test]
    fn prune_reaches_target_and_keeps_largest(mut vals in sparse_values(200), pct in 0u32..=100) {
        let target = pct as f64 / 100.0;
        let before: Vec<i32> = vals.clone();
        magnitude_prune(&mut vals, target);
        let zeros = vals.iter().filter(|&&v| v == 0).count();
        prop_assert!(zeros as f64 >= (target * 200.0).floor());
        // Survivors are a subset of the original non-zeros with magnitudes
        // at least as large as any pruned value.
        let max_pruned = before
            .iter()
            .zip(&vals)
            .filter(|(_, &after)| after == 0)
            .map(|(&b, _)| b.unsigned_abs())
            .max()
            .unwrap_or(0);
        let min_kept =
            vals.iter().filter(|&&v| v != 0).map(|v| v.unsigned_abs()).min().unwrap_or(u32::MAX);
        prop_assert!(min_kept >= max_pruned || min_kept == u32::MAX);
    }

    #[test]
    fn direct_and_im2col_convs_agree(
        seed in 0u64..5_000,
        c in 1usize..=3,
        o in 1usize..=3,
        k in 1usize..=3,
        hw in 3usize..=7,
        stride in 1usize..=2,
        pad in 0usize..=1,
    ) {
        let mut rng = qnn::rng::SeededRng::new(seed);
        let fmap = Tensor3::from_fn(c, hw, hw, |_, _, _| {
            if rng.bernoulli(0.7) { rng.below(256) as i32 } else { 0 }
        }).unwrap();
        let kernels = Tensor4::from_fn(o, c, k, k, |_, _, _, _| rng.below(255) as i32 - 127).unwrap();
        let geom = ConvGeometry::new(stride, pad).unwrap();
        prop_assert_eq!(
            conv2d(&fmap, &kernels, geom).unwrap(),
            conv2d_im2col(&fmap, &kernels, geom).unwrap()
        );
    }

    #[test]
    fn sparsity_stats_bounds(vals in sparse_values(128)) {
        let s = SparsityStats::from_values(&vals, 8, 2);
        prop_assert!((0.0..=1.0).contains(&s.value_density));
        prop_assert!((0.0..=1.0).contains(&s.atom_density));
        prop_assert!((s.value_density - value_density(&vals)).abs() < 1e-12);
        let manual: u64 = vals.iter().map(|&v| nonzero_atoms(v, 2) as u64).sum();
        prop_assert_eq!(s.nonzero_atoms, manual);
    }

    #[test]
    fn atoms_recombine_to_magnitude(v in -255i32..=255, g in 1u8..=8) {
        // nonzero_atoms never exceeds the slot count for the magnitude.
        let atoms = nonzero_atoms(v, g);
        let mag_bits = 32 - v.unsigned_abs().leading_zeros();
        prop_assert!(atoms <= mag_bits.div_ceil(g as u32).max(1));
    }
}

proptest! {
    // The dense oracle itself, against an independent GEMM formulation, over
    // the geometry corners the direct loop special-cases: kernels wider than
    // the unpadded input, strides above 1, and half-zero kernels.
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn weight_stationary_conv_matches_im2col_on_wide_kernels(
        seed in 0u64..1_000_000,
        c in 1usize..=3,
        o in 1usize..=3,
        k in 1usize..=7,
        h in 1usize..=8,
        dw in 1usize..=4,
        wide_first in 0u8..=1,
        stride in 1usize..=3,
        pad in 0usize..=3,
    ) {
        // Non-square maps, either orientation.
        let (h, w) = if wide_first == 1 { (h, h + dw) } else { (h + dw, h) };
        // Kernels may exceed the unpadded input but must fit the padded one.
        prop_assume!(k <= h.min(w) + 2 * pad);
        let mut rng = qnn::rng::SeededRng::new(seed);
        let fmap = Tensor3::from_fn(c, h, w, |_, _, _| rng.below(256) as i32).unwrap();
        let kernels = Tensor4::from_fn(o, c, k, k, |_, _, _, _| {
            if rng.bernoulli(0.5) { 0 } else { rng.below(255) as i32 - 127 }
        }).unwrap();
        let geom = ConvGeometry::new(stride, pad).unwrap();
        prop_assert_eq!(
            conv2d(&fmap, &kernels, geom).unwrap(),
            conv2d_im2col(&fmap, &kernels, geom).unwrap(),
            "c{} o{} k{} {}x{} s{} p{}", c, o, k, h, w, stride, pad
        );
    }
}
