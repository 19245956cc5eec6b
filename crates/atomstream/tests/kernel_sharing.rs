//! The production run phase against the value-major reference kernel at
//! every worker-pool width, and one prepared activation shared by several
//! weight sets against independent one-step calls. Every check compares
//! outputs, `CscStats` and the `compress.*` / `intersect.*` counter deltas.
//!
//! Counters are process-global, so every test in this binary holds
//! `OBS_LOCK` while it measures: no other test records concurrently.

use atomstream::conv_csc::{
    conv2d_csc_prepared, conv2d_csc_streams_reference, conv2d_csc_streams_with,
    prepare_activations, CscConfig, CscOutput, WeightStreamSet,
};
use atomstream::error::AtomError;
use atomstream::kernel::CscScratch;
use qnn::conv::ConvGeometry;
use qnn::quant::BitWidth;
use qnn::tensor::{Tensor3, Tensor4};
use std::sync::{Mutex, MutexGuard, PoisonError};

static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Takes `OBS_LOCK`; a test that failed while holding it leaves no state
/// behind, so its poison is ignored and the others still run.
fn obs_lock() -> MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

const POOL_WIDTHS: [usize; 5] = [1, 2, 3, 4, 8];

/// Runs `f` and returns its result with the deltas of every
/// `compress.*` and `intersect.*` counter it caused.
fn measured<T>(f: impl FnOnce() -> T) -> (T, Vec<(&'static str, u64)>) {
    let before = obs::snapshot();
    let out = f();
    let after = obs::snapshot();
    let deltas = obs::Event::ALL
        .iter()
        .filter(|e| e.name().starts_with("compress.") || e.name().starts_with("intersect."))
        .map(|&e| (e.name(), after.get(e) - before.get(e)))
        .collect();
    (out, deltas)
}

fn pooled<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(f)
}

/// A sparse `c × 9 × 11` feature map with one all-zero channel when
/// `c > 2`, and values across the whole 8-bit range.
fn fmap(c: usize) -> Tensor3 {
    Tensor3::from_fn(c, 9, 11, |ci, y, x| {
        if c > 2 && ci == 2 || (ci + 2 * y + 3 * x) % 4 == 0 {
            0
        } else {
            ((ci * 53 + y * 29 + x * 17) % 256) as i32
        }
    })
    .unwrap()
}

/// `o × c × 3 × 3` 4-bit kernels; input channel 1's slice is all zero (an
/// empty weight stream) when `c > 1`.
fn kernels(o: usize, c: usize) -> Tensor4 {
    Tensor4::from_fn(o, c, 3, 3, |oc, ci, ky, kx| {
        if c > 1 && ci == 1 {
            return 0;
        }
        let v = ((oc * 7 + ci * 5 + ky * 3 + kx) % 15) as i32 - 7;
        if v % 3 == 0 {
            0
        } else {
            v
        }
    })
    .unwrap()
}

fn cfg() -> CscConfig {
    CscConfig {
        tile_h: 4,
        tile_w: 3,
        ..CscConfig::default()
    }
}

#[test]
fn chunked_accumulation_matches_reference_at_every_pool_width() {
    let _lock = obs_lock();
    obs::enable(true);
    let geom = ConvGeometry::new(1, 1).unwrap();
    // One output channel makes every input channel of a chunk write the
    // same plane; five keeps the plane sets overlapping but uneven.
    for out_c in [1, 5] {
        for in_c in [1, 5, 7, 16] {
            let (fmap, weights) = (
                fmap(in_c),
                WeightStreamSet::compile(&kernels(out_c, in_c), BitWidth::W4, cfg().atom_bits)
                    .unwrap(),
            );
            let (want, want_deltas) = measured(|| {
                conv2d_csc_streams_reference(&fmap, &weights, geom, BitWidth::W8, &cfg()).unwrap()
            });
            for threads in POOL_WIDTHS {
                let scratch = CscScratch::new();
                // Cold arena, then the same arena warm: both must match.
                for pass in ["cold", "warm"] {
                    let (got, deltas) = measured(|| {
                        pooled(threads, || {
                            conv2d_csc_streams_with(
                                &fmap,
                                &weights,
                                geom,
                                BitWidth::W8,
                                &cfg(),
                                &scratch,
                            )
                            .unwrap()
                        })
                    });
                    let at = format!("{out_c}x{in_c} channels, {threads} threads, {pass}");
                    assert_eq!(got.output, want.output, "{at}: output");
                    assert_eq!(got.stats, want.stats, "{at}: stats");
                    assert_eq!(deltas, want_deltas, "{at}: counters");
                }
                // At most one accumulator per worker, reused when warm.
                assert!(scratch.plane_allocations() as usize <= threads.min(in_c));
            }
        }
    }
}

#[test]
fn compression_errors_surface_like_the_reference() {
    let _lock = obs_lock();
    let geom = ConvGeometry::default();
    let weights = WeightStreamSet::compile(&kernels(3, 7), BitWidth::W4, cfg().atom_bits).unwrap();
    // A 9-bit value in channel 5 does not fit 8-bit activations.
    let mut bad = fmap(7);
    bad.set(5, 4, 4, 300);
    let want = conv2d_csc_streams_reference(&bad, &weights, geom, BitWidth::W8, &cfg());
    assert!(matches!(
        want,
        Err(AtomError::ValueTooWide { value: 300, .. })
    ));
    for threads in POOL_WIDTHS {
        let scratch = CscScratch::new();
        let got = pooled(threads, || {
            conv2d_csc_streams_with(&bad, &weights, geom, BitWidth::W8, &cfg(), &scratch)
        });
        assert_eq!(got, want, "{threads} threads");
        // The failed call left the pool clean: a good input still matches.
        let good = fmap(7);
        let got = pooled(threads, || {
            conv2d_csc_streams_with(&good, &weights, geom, BitWidth::W8, &cfg(), &scratch)
        });
        let want = conv2d_csc_streams_reference(&good, &weights, geom, BitWidth::W8, &cfg());
        assert_eq!(got, want, "{threads} threads, after the error");
    }
}

#[test]
fn one_prepared_activation_serves_four_shards() {
    let _lock = obs_lock();
    obs::enable(true);
    let geom = ConvGeometry::new(2, 1).unwrap();
    let in_c = 7;
    let fmap = fmap(in_c);
    let full = kernels(8, in_c);
    // Output-channel shards, as a fleet's shard plan slices a layer. The
    // last shard's channel-3 slice is zero, so the shards need different
    // channels; channel 1 is needed by none.
    let shards: Vec<WeightStreamSet> = [[0, 4], [1, 5], [2, 6], [3, 7]]
        .iter()
        .map(|group| {
            let k = Tensor4::from_fn(2, in_c, 3, 3, |o, i, y, x| {
                if group[0] == 3 && i == 3 {
                    0
                } else {
                    full.get(group[o], i, y, x)
                }
            })
            .unwrap();
            WeightStreamSet::compile(&k, BitWidth::W4, cfg().atom_bits).unwrap()
        })
        .collect();
    assert!(shards[3].stream(3).is_empty() && !shards[0].stream(3).is_empty());

    let (want, want_deltas): (Vec<CscOutput>, _) = measured(|| {
        shards
            .iter()
            .map(|w| {
                conv2d_csc_streams_with(&fmap, w, geom, BitWidth::W8, &cfg(), &CscScratch::new())
                    .unwrap()
            })
            .collect()
    });
    for threads in [1, 3] {
        let prepare_scratch = CscScratch::new();
        let slot_scratch: Vec<CscScratch> = shards.iter().map(|_| CscScratch::new()).collect();
        for pass in ["cold", "warm"] {
            let (got, deltas): (Vec<CscOutput>, _) = measured(|| {
                pooled(threads, || {
                    let prepared =
                        prepare_activations(&fmap, BitWidth::W8, &cfg(), &prepare_scratch, |ci| {
                            shards.iter().any(|w| !w.stream(ci).is_empty())
                        })
                        .unwrap();
                    assert_eq!(prepared.shape(), fmap.shape());
                    shards
                        .iter()
                        .zip(&slot_scratch)
                        .map(|(w, scratch)| {
                            conv2d_csc_prepared(&prepared, w, geom, &cfg(), scratch).unwrap()
                        })
                        .collect()
                })
            });
            assert_eq!(got, want, "{threads} threads, {pass}: outputs and stats");
            assert_eq!(deltas, want_deltas, "{threads} threads, {pass}: counters");
        }
    }
}
