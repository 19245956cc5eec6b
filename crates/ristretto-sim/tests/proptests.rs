//! Property-based tests for the Ristretto simulator: balancing invariants,
//! cycle-level tile behaviour and the fault-site hash.

use atomstream::atom::AtomBits;
use atomstream::compress::{compress_activations, compress_weights};
use atomstream::cycles::ideal_steps;
use atomstream::flatten::{FlatActivation, FlatWeight};
use proptest::prelude::*;
use qnn::rng::SeededRng;
use ristretto_sim::balance::{balance, BalanceStrategy, ChannelWorkload};
use ristretto_sim::config::RistrettoConfig;
use ristretto_sim::fault::{FaultConfig, FaultInjector, FaultSite, FaultStructure, PPM};
use ristretto_sim::tile::TileSim;

fn workloads(n: usize, seed: u64) -> Vec<ChannelWorkload> {
    let mut rng = SeededRng::new(seed);
    (0..n)
        .map(|channel| ChannelWorkload {
            channel,
            act_atoms: 1 + rng.below(2000) as u64,
            weight_atoms: 1 + rng.below(800) as u64,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn balancing_is_a_partition(
        n_channels in 1usize..200,
        tiles in 1usize..=64,
        seed in 0u64..10_000,
    ) {
        let w = workloads(n_channels, seed);
        for strategy in [BalanceStrategy::None, BalanceStrategy::WeightOnly, BalanceStrategy::WeightActivation] {
            let a = balance(&w, tiles, 16, strategy);
            prop_assert_eq!(a.groups.len(), tiles);
            let mut all: Vec<usize> = a.groups.iter().flatten().copied().collect();
            all.sort_unstable();
            prop_assert_eq!(all, (0..n_channels).collect::<Vec<_>>());
            // Total work is strategy-invariant.
            let expected: u64 = w.iter().map(|c| c.cycles(16)).sum();
            prop_assert_eq!(a.total_cycles(), expected);
            prop_assert!(a.utilization() <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn wa_never_loses_to_cyclic(
        n_channels in 2usize..150,
        tiles in 2usize..=32,
        seed in 0u64..10_000,
    ) {
        let w = workloads(n_channels, seed);
        let none = balance(&w, tiles, 16, BalanceStrategy::None);
        let wa = balance(&w, tiles, 16, BalanceStrategy::WeightActivation);
        prop_assert!(wa.makespan() <= none.makespan());
        // LPT is within 4/3 of optimal; the optimum is at least both the
        // mean load and the largest indivisible channel.
        let mean = wa.total_cycles().div_ceil(tiles as u64);
        let biggest = w.iter().map(|c| c.cycles(16)).max().unwrap_or(0);
        let lower = mean.max(biggest).max(1);
        prop_assert!(
            wa.makespan() * 3 <= lower * 4 + 3,
            "makespan {} vs lower bound {lower}",
            wa.makespan()
        );
    }

    #[test]
    fn tile_sim_counters_are_exact(
        seed in 0u64..10_000,
        n_acts in 1usize..40,
        n_weights in 1usize..60,
        mults in 1usize..=32,
    ) {
        let mut rng = SeededRng::new(seed);
        let fa: Vec<FlatActivation> = (0..n_acts)
            .map(|i| FlatActivation {
                value: 1 + rng.below(255) as i32,
                x: (i % 8) as u16,
                y: (i / 8) as u16,
            })
            .collect();
        let fw: Vec<FlatWeight> = (0..n_weights)
            .map(|i| {
                let m = 1 + rng.below(127) as i32;
                FlatWeight {
                    value: if rng.bernoulli(0.5) { -m } else { m },
                    x: rng.below(3) as u16,
                    y: rng.below(3) as u16,
                    out_ch: (i % 37) as u16,
                }
            })
            .collect();
        let acts = compress_activations(&fa, 8, AtomBits::B2).unwrap();
        let weights = compress_weights(&fw, 8, AtomBits::B2).unwrap();
        let cfg = RistrettoConfig { multipliers: mults, ..RistrettoConfig::paper_default() };
        let sim = TileSim::new(&cfg);
        let r = sim.run(&weights, &acts);
        // Counters are exact regardless of scheduling.
        prop_assert_eq!(r.atom_mults, acts.len() as u64 * weights.len() as u64);
        prop_assert_eq!(r.deliveries, acts.value_count() as u64 * weights.len() as u64);
        // Cycles bounded below by Eq 3 and above by Eq 3 + residue + stalls.
        let ideal = ideal_steps(acts.len() as u64, weights.len() as u64, mults as u64);
        prop_assert!(r.ideal_cycles() >= ideal);
        prop_assert!(r.ideal_cycles() <= ideal + mults as u64);
        prop_assert_eq!(r.cycles, r.ideal_cycles() + r.stall_cycles);
    }

    #[test]
    fn utilization_perfect_when_uniform(
        tiles in 1usize..=16,
        per_tile in 1usize..=8,
    ) {
        // Identical channels spread perfectly.
        let n = tiles * per_tile;
        let w: Vec<ChannelWorkload> = (0..n)
            .map(|channel| ChannelWorkload { channel, act_atoms: 100, weight_atoms: 64 })
            .collect();
        let a = balance(&w, tiles, 16, BalanceStrategy::WeightActivation);
        prop_assert!((a.utilization() - 1.0).abs() < 1e-9);
    }
}

/// The fault-site hash written out in full: six `splitmix64` rounds over
/// `(seed ^ discriminant, layer, channel, tile, attempt, item)`, a rate
/// test on the last, and one more round for the entropy word. Every
/// recorded campaign was rolled with exactly this function.
fn reference_decide(seed: u64, structure_idx: usize, rate: u32, site: FaultSite) -> Option<u64> {
    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
    if rate == 0 {
        return None;
    }
    let discriminant = [0x11u64, 0x22, 0x33, 0x44, 0x55][structure_idx];
    let mut h = splitmix64(seed ^ discriminant);
    for coord in [
        site.layer as u64,
        site.channel as u64,
        site.tile as u64,
        site.attempt as u64,
        site.item as u64,
    ] {
        h = splitmix64(h ^ coord);
    }
    (h % u64::from(PPM) < u64::from(rate)).then(|| splitmix64(h))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn site_roll_matches_decide_and_the_reference_hash(
        seed in 0u64..u64::MAX,
        rate_idx in 0usize..4,
        layer in 0usize..64,
        channel in 0usize..1024,
        tile in 0usize..4096,
        attempt in 0u32..8,
        first_item in 0usize..1_000_000,
    ) {
        let rate = [0, 1, 120_000, PPM][rate_idx];
        let injector = FaultInjector::new(FaultConfig::uniform(seed, rate));
        let site = FaultSite { layer, channel, tile, attempt, item: first_item };
        for (si, &structure) in FaultStructure::ALL.iter().enumerate() {
            // The item index is not part of the rolled prefix.
            let roll = injector.roll(structure, FaultSite { item: usize::MAX, ..site });
            for item in first_item..first_item + 64 {
                let at = FaultSite { item, ..site };
                let fired = roll.fires(item);
                prop_assert_eq!(fired, injector.decide(structure, at), "{} item {}", structure, item);
                prop_assert_eq!(fired, reference_decide(seed, si, rate, at), "{} item {}", structure, item);
            }
        }
    }
}
