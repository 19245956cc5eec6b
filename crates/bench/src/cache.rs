//! Caching of generated network statistics so `repro all` builds each
//! `(network, policy, granularity, seed)` workload once.

use qnn::models::NetworkId;
use qnn::workload::{NetworkStats, PrecisionPolicy};
use rayon::prelude::*;
use std::collections::HashMap;

/// What [`NetworkStats::generate`] is a function of.
type Key = (NetworkId, PrecisionPolicy, u8, u64);

/// Keyed cache of [`NetworkStats`].
#[derive(Debug, Default)]
pub struct StatsCache {
    map: HashMap<Key, NetworkStats>,
}

impl StatsCache {
    /// A fresh cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns (generating on miss) the stats for a workload.
    pub fn get(
        &mut self,
        id: NetworkId,
        policy: PrecisionPolicy,
        atom_bits: u8,
        seed: u64,
    ) -> &NetworkStats {
        self.map
            .entry((id, policy, atom_bits, seed))
            .or_insert_with(|| NetworkStats::generate(id, policy, atom_bits, seed))
    }

    /// Generates every missing workload in `keys` in parallel and inserts
    /// the results. Generation is keyed only by `(id, policy, atom_bits,
    /// seed)` — never by thread scheduling — so the cache contents are
    /// identical to a sequence of [`StatsCache::get`] calls. After a
    /// prefill, experiments can read the cache through a shared reference
    /// with [`StatsCache::peek`], which is what makes their own parallel
    /// fan-outs borrow-checkable.
    pub fn prefill(&mut self, keys: &[(NetworkId, PrecisionPolicy, u8)], seed: u64) {
        let _span = obs::span("cache.prefill");
        let mut missing: Vec<Key> = Vec::new();
        for &(id, policy, atom_bits) in keys {
            let key = (id, policy, atom_bits, seed);
            if !self.map.contains_key(&key) && !missing.contains(&key) {
                missing.push(key);
            }
        }
        let generated: Vec<(Key, NetworkStats)> = missing
            .into_par_iter()
            .map(|key @ (id, policy, atom_bits, seed)| {
                (key, NetworkStats::generate(id, policy, atom_bits, seed))
            })
            .collect();
        self.map.extend(generated);
    }

    /// Returns the stats for an already-generated workload. Unlike
    /// [`StatsCache::get`] this takes `&self`, so parallel experiment loops
    /// can read a prefilled cache concurrently.
    ///
    /// # Panics
    /// Panics if the workload was never generated — experiments must
    /// [`StatsCache::prefill`] before fanning out.
    pub fn peek(
        &self,
        id: NetworkId,
        policy: PrecisionPolicy,
        atom_bits: u8,
        seed: u64,
    ) -> &NetworkStats {
        self.map
            .get(&(id, policy, atom_bits, seed))
            .unwrap_or_else(|| {
                panic!(
                    "workload ({}, {}, {atom_bits}-bit atoms, seed {seed}) was not prefilled",
                    id.name(),
                    policy.label()
                )
            })
    }

    /// Number of cached workloads.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qnn::quant::BitWidth;

    #[test]
    fn caches_by_key() {
        let mut c = StatsCache::new();
        let p = PrecisionPolicy::Uniform(BitWidth::W4);
        let _ = c.get(NetworkId::AlexNet, p, 2, 1);
        let _ = c.get(NetworkId::AlexNet, p, 2, 1);
        assert_eq!(c.len(), 1);
        let _ = c.get(NetworkId::AlexNet, p, 3, 1);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }

    #[test]
    fn a_second_seed_gets_its_own_stats() {
        let mut c = StatsCache::new();
        let p = PrecisionPolicy::Uniform(BitWidth::W4);
        let first = c.get(NetworkId::AlexNet, p, 2, 1).clone();
        let second = c.get(NetworkId::AlexNet, p, 2, 2).clone();
        assert_eq!(second, NetworkStats::generate(NetworkId::AlexNet, p, 2, 2));
        assert_ne!(first, second);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn prefill_matches_get() {
        let p = PrecisionPolicy::Uniform(BitWidth::W4);
        let mut on_demand = StatsCache::new();
        let expected = on_demand.get(NetworkId::AlexNet, p, 2, 1).clone();

        let mut prefilled = StatsCache::new();
        // Duplicate keys collapse to one generation.
        prefilled.prefill(&[(NetworkId::AlexNet, p, 2), (NetworkId::AlexNet, p, 2)], 1);
        assert_eq!(prefilled.len(), 1);
        assert_eq!(*prefilled.peek(NetworkId::AlexNet, p, 2, 1), expected);
    }

    #[test]
    #[should_panic(expected = "not prefilled")]
    fn peek_panics_on_missing_workload() {
        let c = StatsCache::new();
        let _ = c.peek(
            NetworkId::AlexNet,
            PrecisionPolicy::Uniform(BitWidth::W4),
            2,
            1,
        );
    }
}
