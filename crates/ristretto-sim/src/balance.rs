//! Load balancing across compute tiles (paper §IV-E).
//!
//! Input feature maps (channels) are partitioned into `M` groups, one per
//! compute tile. Because the condensed streaming computation's latency is
//! the closed form `C_T = T·⌈S/N⌉` (Eq 5), the workload of a channel is
//! known *before* computation starts — unlike SparTen, whose inner-join
//! discovers matches on the fly — so Ristretto can balance on the joint
//! weight *and* activation statistics.
//!
//! Three strategies are modelled, matching Fig 18:
//! * `None` — cyclic assignment, ignoring statistics;
//! * `WeightOnly` — greedy on non-zero weight atoms only (SparTen-style);
//! * `WeightActivation` — greedy on the full `C_T` metric.

use serde::{Deserialize, Serialize};

/// Which statistics drive the balancer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BalanceStrategy {
    /// Cyclic assignment ("no balancing").
    None,
    /// Greedy on weight statistics only ("w balancing").
    WeightOnly,
    /// Greedy on the joint weight/activation metric of Eq 5
    /// ("w/a balancing", Ristretto's approach).
    WeightActivation,
}

impl std::fmt::Display for BalanceStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BalanceStrategy::None => "no balancing",
            BalanceStrategy::WeightOnly => "w balancing",
            BalanceStrategy::WeightActivation => "w/a balancing",
        })
    }
}

/// Per-channel workload statistics the balancer consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelWorkload {
    /// Input-channel index.
    pub channel: usize,
    /// Non-zero activation atoms in this channel's feature map (`T_i`).
    pub act_atoms: u64,
    /// Non-zero weight atoms in this channel's kernel slices (`S_i`).
    pub weight_atoms: u64,
}

impl ChannelWorkload {
    /// The cycle metric of Eq 5 for `n` multipliers: `T_i · ⌈S_i/N⌉`.
    pub fn cycles(&self, n: u64) -> u64 {
        atomstream::cycles::tile_cycles(self.act_atoms, self.weight_atoms, n)
    }
}

/// The balancer's output: channel groups (one per tile) plus the per-tile
/// cycle estimate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    /// Channel indices per tile; may contain empty groups when there are
    /// fewer channels than tiles.
    pub groups: Vec<Vec<usize>>,
    /// Estimated cycles per tile (Eq 5 summed over the group's channels).
    pub tile_cycles: Vec<u64>,
}

impl Assignment {
    /// Layer latency: the slowest tile (compute tiles synchronize per layer).
    pub fn makespan(&self) -> u64 {
        self.tile_cycles.iter().copied().max().unwrap_or(0)
    }

    /// Total work across tiles.
    pub fn total_cycles(&self) -> u64 {
        self.tile_cycles.iter().sum()
    }

    /// Compute utilization in `[0, 1]`: mean tile work over makespan.
    pub fn utilization(&self) -> f64 {
        let span = self.makespan();
        if span == 0 || self.tile_cycles.is_empty() {
            return 1.0;
        }
        self.total_cycles() as f64 / (span as f64 * self.tile_cycles.len() as f64)
    }

    /// All channel indices in this assignment, sorted ascending.
    pub fn assigned_channels(&self) -> Vec<usize> {
        let mut all: Vec<usize> = self.groups.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    }
}

/// Checks that a family of groupings — e.g. the per-shard balancer groups
/// of a fleet plan — exactly partitions `0..channels`: every channel
/// appears in exactly one group across all groupings, none is dropped and
/// none duplicated. The fleet layer relies on this invariant for
/// byte-identical reconstruction of the unsharded output.
#[must_use]
pub fn is_exact_partition<'a>(
    groups: impl IntoIterator<Item = &'a [usize]>,
    channels: usize,
) -> bool {
    let mut seen = vec![false; channels];
    for group in groups {
        for &c in group {
            if c >= channels || seen[c] {
                return false;
            }
            seen[c] = true;
        }
    }
    seen.into_iter().all(|s| s)
}

/// Partitions channels into `tiles` groups under the given strategy.
/// `n` is the per-tile multiplier count (needed by the `C_T` metric).
///
/// # Panics
/// Panics if `tiles == 0` or `n == 0`.
pub fn balance(
    workloads: &[ChannelWorkload],
    tiles: usize,
    n: u64,
    strategy: BalanceStrategy,
) -> Assignment {
    assert!(tiles > 0, "tile count must be non-zero");
    assert!(n > 0, "multiplier count must be non-zero");
    let assignment = match strategy {
        BalanceStrategy::None => cyclic(workloads, tiles, n),
        BalanceStrategy::WeightOnly => greedy(workloads, tiles, n, |w| w.weight_atoms),
        BalanceStrategy::WeightActivation => greedy(workloads, tiles, n, |w| w.cycles(n)),
    };
    // Observability: residual imbalance is the per-layer stall budget of
    // Fig 18 — tiles finishing early idle until the slowest tile's Eq 5
    // makespan.
    let makespan = assignment.makespan();
    let total = assignment.total_cycles();
    obs::record(obs::Event::BalanceInvocations, 1);
    obs::record(obs::Event::BalanceMakespanCycles, makespan);
    obs::record(obs::Event::BalanceTotalCycles, total);
    obs::record(
        obs::Event::BalanceIdleCycles,
        (makespan * tiles as u64).saturating_sub(total),
    );
    assignment
}

fn cyclic(workloads: &[ChannelWorkload], tiles: usize, n: u64) -> Assignment {
    let mut groups = vec![Vec::new(); tiles];
    let mut tile_cycles = vec![0u64; tiles];
    for (i, w) in workloads.iter().enumerate() {
        groups[i % tiles].push(w.channel);
        tile_cycles[i % tiles] += w.cycles(n);
    }
    Assignment {
        groups,
        tile_cycles,
    }
}

/// The greedy of §IV-E: channels sorted by the metric, each placed where
/// it keeps groups "as close as possible". Implemented as
/// longest-processing-time (LPT) placement: descending metric order, each
/// channel into the currently lightest group — on the paper's examples
/// (2^k channels per tile) this produces exactly the "largest-smallest,
/// second largest-second smallest" pairings the text describes, and it is
/// 4/3-optimal in general.
fn greedy(
    workloads: &[ChannelWorkload],
    tiles: usize,
    n: u64,
    metric: impl Fn(&ChannelWorkload) -> u64,
) -> Assignment {
    let mut order: Vec<&ChannelWorkload> = workloads.iter().collect();
    order.sort_by(|a, b| metric(b).cmp(&metric(a)).then(a.channel.cmp(&b.channel)));
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); tiles];
    let mut loads = vec![0u64; tiles];
    let mut tile_cycles = vec![0u64; tiles];
    for w in order {
        let slot = loads
            .iter()
            .enumerate()
            .min_by_key(|&(i, &l)| (l, i))
            .map(|(i, _)| i)
            .expect("tiles > 0");
        loads[slot] += metric(w);
        groups[slot].push(w.channel);
        tile_cycles[slot] += w.cycles(n);
    }
    Assignment {
        groups,
        tile_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(channel: usize, act: u64, weight: u64) -> ChannelWorkload {
        ChannelWorkload {
            channel,
            act_atoms: act,
            weight_atoms: weight,
        }
    }

    fn uneven_workloads(m: usize) -> Vec<ChannelWorkload> {
        (0..m)
            .map(|i| mk(i, 100 + (i as u64 * 97) % 900, 64 + (i as u64 * 53) % 512))
            .collect()
    }

    #[test]
    fn partition_preserves_all_channels() {
        let w = uneven_workloads(128);
        for strategy in [
            BalanceStrategy::None,
            BalanceStrategy::WeightOnly,
            BalanceStrategy::WeightActivation,
        ] {
            let a = balance(&w, 32, 16, strategy);
            assert_eq!(a.groups.len(), 32);
            let mut all: Vec<usize> = a.groups.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..128).collect::<Vec<_>>(), "{strategy}");
        }
    }

    #[test]
    fn wa_balancing_beats_no_balancing() {
        let w = uneven_workloads(128);
        let none = balance(&w, 32, 16, BalanceStrategy::None);
        let wa = balance(&w, 32, 16, BalanceStrategy::WeightActivation);
        assert!(wa.makespan() <= none.makespan());
        assert!(wa.utilization() >= none.utilization());
        // Total work is conserved.
        assert_eq!(wa.total_cycles(), none.total_cycles());
    }

    #[test]
    fn wa_balancing_is_near_optimal_on_uniform_pairs() {
        // Workloads {1..2k} pair up to equal sums under folding.
        let w: Vec<ChannelWorkload> = (0..64).map(|i| mk(i, (i as u64 + 1) * 10, 16)).collect();
        let a = balance(&w, 32, 16, BalanceStrategy::WeightActivation);
        let max = a.makespan();
        let min = a.tile_cycles.iter().copied().min().unwrap();
        assert_eq!(max, min, "folding should equalize an arithmetic sequence");
    }

    #[test]
    fn weight_only_uses_weight_metric() {
        // Two heavy-activation channels that weight-only cannot see.
        let w = vec![mk(0, 1000, 10), mk(1, 1000, 10), mk(2, 1, 10), mk(3, 1, 10)];
        let wo = balance(&w, 2, 16, BalanceStrategy::WeightOnly);
        let wa = balance(&w, 2, 16, BalanceStrategy::WeightActivation);
        // w/a separates the two heavy channels; weight-only may not.
        assert!(wa.makespan() <= wo.makespan());
        assert_eq!(wa.makespan(), 1001);
    }

    #[test]
    fn fewer_channels_than_tiles_leaves_idle_tiles() {
        let w = uneven_workloads(8);
        let a = balance(&w, 32, 16, BalanceStrategy::WeightActivation);
        assert_eq!(a.groups.len(), 32);
        assert_eq!(a.groups.iter().filter(|g| g.is_empty()).count(), 24);
        assert!(a.utilization() < 1.0);
    }

    #[test]
    fn makespan_zero_for_empty() {
        let a = balance(&[], 4, 16, BalanceStrategy::WeightActivation);
        assert_eq!(a.makespan(), 0);
        assert_eq!(a.utilization(), 1.0);
    }

    #[test]
    fn channel_cycles_match_eq5() {
        let w = mk(0, 100, 33);
        assert_eq!(w.cycles(16), 100 * 3);
    }

    /// The balancer as it was before per-tile cycles were summed during
    /// placement: place channels, then sum each group's Eq 5 cycles
    /// through a per-channel map.
    fn balance_via_channel_map(
        workloads: &[ChannelWorkload],
        tiles: usize,
        n: u64,
        strategy: BalanceStrategy,
    ) -> Assignment {
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); tiles];
        if strategy == BalanceStrategy::None {
            for (i, w) in workloads.iter().enumerate() {
                groups[i % tiles].push(w.channel);
            }
        } else {
            let metric = |w: &ChannelWorkload| match strategy {
                BalanceStrategy::WeightOnly => w.weight_atoms,
                _ => w.cycles(n),
            };
            let mut order: Vec<&ChannelWorkload> = workloads.iter().collect();
            order.sort_by(|a, b| metric(b).cmp(&metric(a)).then(a.channel.cmp(&b.channel)));
            let mut loads = vec![0u64; tiles];
            for w in order {
                let slot = (0..tiles).min_by_key(|&i| (loads[i], i)).unwrap();
                loads[slot] += metric(w);
                groups[slot].push(w.channel);
            }
        }
        let by_channel: std::collections::HashMap<usize, &ChannelWorkload> =
            workloads.iter().map(|w| (w.channel, w)).collect();
        let tile_cycles = groups
            .iter()
            .map(|g| g.iter().map(|c| by_channel[c].cycles(n)).sum())
            .collect();
        Assignment {
            groups,
            tile_cycles,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        #[test]
        fn placement_sums_equal_the_channel_map_sums(
            raw in proptest::collection::vec(0u64..15_000_000, 0..80),
            tiles in 1usize..40,
            n in 1u64..33,
            shares in 1usize..5,
        ) {
            // `shares > 1` is the analytic model's spatial split view: each
            // channel becomes `shares` pieces with ids `c·shares + s`.
            let workloads: Vec<ChannelWorkload> = raw
                .iter()
                .enumerate()
                .flat_map(|(c, &r)| {
                    let (act, weight) = (r % 5_000, r / 5_000);
                    (0..shares).map(move |s| mk(c * shares + s, act / shares as u64, weight))
                })
                .collect();
            for strategy in [
                BalanceStrategy::None,
                BalanceStrategy::WeightOnly,
                BalanceStrategy::WeightActivation,
            ] {
                proptest::prop_assert_eq!(
                    balance(&workloads, tiles, n, strategy),
                    balance_via_channel_map(&workloads, tiles, n, strategy)
                );
            }
        }
    }

    #[test]
    fn exact_partition_detects_drops_and_duplicates() {
        let a: &[usize] = &[0, 2];
        let b: &[usize] = &[1, 3];
        assert!(is_exact_partition([a, b], 4));
        // Dropped channel.
        assert!(!is_exact_partition([a, b], 5));
        // Duplicate across groups.
        let dup: &[usize] = &[2, 3];
        assert!(!is_exact_partition([a, dup], 4));
        // Out-of-range channel.
        assert!(!is_exact_partition([a, b], 3));
        // Balancer output partitions by construction.
        let w = uneven_workloads(16);
        let asg = balance(&w, 4, 16, BalanceStrategy::WeightActivation);
        assert!(is_exact_partition(asg.groups.iter().map(Vec::as_slice), 16));
        assert_eq!(asg.assigned_channels(), (0..16).collect::<Vec<_>>());
    }
}
