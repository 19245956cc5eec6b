//! Figure 19: impact of atom granularity.
//!
//! (a) area and power of the compute units for 1/2/3-bit atoms at equal
//! BitOps/cycle (64/16/7 multipliers per tile) — the paper measures the
//! 1-bit variant at 3.34× the area and 3.51× the power of the 2-bit one;
//! (b) average area-normalized performance on the DNN benchmark — 2-bit
//! comes out best overall.

use crate::cache::StatsCache;
use crate::{benchmark_networks, benchmark_policies, table, SEED};
use hwmodel::{ComponentLib, TechNode};
use rayon::prelude::*;
use ristretto_sim::analytic::RistrettoSim;
use ristretto_sim::area::{compute_unit_power_mw, AreaBreakdown};
use ristretto_sim::config::RistrettoConfig;
use serde::{Deserialize, Serialize};

/// Fig 19a: one granularity's compute-unit cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostRow {
    /// Atom granularity in bits.
    pub atom_bits: u8,
    /// Multipliers per tile at equal BitOps/cycle.
    pub multipliers: usize,
    /// Compute-unit area (mm²).
    pub area_mm2: f64,
    /// Compute-unit power (mW).
    pub power_mw: f64,
}

/// Fig 19b: one (granularity, precision) performance point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfRow {
    /// Atom granularity in bits.
    pub atom_bits: u8,
    /// Precision label.
    pub precision: String,
    /// Mean area-normalized performance across the benchmark: inverse
    /// cycles per mm² of *compute units* (the Fig 19a quantity — all three
    /// designs share the same buffers), normalized to the 2-bit design per
    /// precision by [`render`].
    pub perf: f64,
}

/// Runs Fig 19a.
pub fn run_cost() -> Vec<CostRow> {
    let lib = ComponentLib::n28();
    [1u8, 2, 3]
        .into_iter()
        .map(|bits| {
            let cfg = RistrettoConfig::try_granularity(bits).expect("Fig 19 granularity");
            CostRow {
                atom_bits: bits,
                multipliers: cfg.multipliers,
                area_mm2: AreaBreakdown::from_config(&cfg, &lib).compute_units(),
                power_mw: compute_unit_power_mw(&cfg, &lib, TechNode::N28),
            }
        })
        .collect()
}

/// Runs Fig 19b.
pub fn run_perf(quick: bool, cache: &mut StatsCache) -> Vec<PerfRow> {
    let lib = ComponentLib::n28();
    let nets = benchmark_networks(quick);
    // Each (granularity, precision) point averages over the same networks;
    // prefill every workload, then fan the points out. The inner sum stays
    // sequential in network order, so each point's float accumulation is
    // identical to the serial version.
    let items: Vec<(u8, _)> = [1u8, 2, 3]
        .into_iter()
        .flat_map(|bits| benchmark_policies().into_iter().map(move |p| (bits, p)))
        .collect();
    let keys: Vec<_> = items
        .iter()
        .flat_map(|&(bits, p)| nets.iter().map(move |&net| (net, p, bits)))
        .collect();
    cache.prefill(&keys, SEED);
    let cache = &*cache;
    items
        .into_par_iter()
        .map(|(bits, policy)| {
            let cfg = RistrettoConfig::try_granularity(bits).expect("Fig 19 granularity");
            let sim = RistrettoSim::try_new(cfg).expect("Fig 19 configuration");
            let area = AreaBreakdown::from_config(&cfg, &lib).compute_units();
            let mut inv_cycles_sum = 0.0;
            let mut n = 0.0;
            for &net in nets {
                let stats = cache.peek(net, policy, bits, SEED);
                let r = sim.simulate_network(stats);
                inv_cycles_sum += 1.0 / r.total_cycles().max(1) as f64;
                n += 1.0;
            }
            PerfRow {
                atom_bits: bits,
                precision: policy.label(),
                perf: inv_cycles_sum / n / area,
            }
        })
        .collect()
}

/// Renders Fig 19a + 19b.
pub fn render(cost: &[CostRow], perf: &[PerfRow]) -> String {
    let mut t = vec![vec![
        "atom".to_string(),
        "mults/tile".to_string(),
        "CU area (mm2)".to_string(),
        "CU power (mW)".to_string(),
        "area vs 2b".to_string(),
        "power vs 2b".to_string(),
    ]];
    let base = cost.iter().find(|c| c.atom_bits == 2).expect("2-bit point");
    for c in cost {
        t.push(vec![
            format!("{}b", c.atom_bits),
            c.multipliers.to_string(),
            format!("{:.4}", c.area_mm2),
            format!("{:.1}", c.power_mw),
            table::speedup(c.area_mm2 / base.area_mm2),
            table::speedup(c.power_mw / base.power_mw),
        ]);
    }
    let mut s = table::render(
        "Fig 19a: compute-unit cost vs atom granularity (paper: 1b = 3.34x area, 3.51x power of 2b)",
        &t,
    );

    let mut t2 = vec![vec![
        "precision".to_string(),
        "1b perf".to_string(),
        "2b perf".to_string(),
        "3b perf".to_string(),
    ]];
    let get = |bits: u8, p: &str| {
        perf.iter()
            .find(|r| r.atom_bits == bits && r.precision == p)
    };
    for policy in crate::benchmark_policies() {
        let p = policy.label();
        if let (Some(p1), Some(p2), Some(p3)) = (get(1, &p), get(2, &p), get(3, &p)) {
            t2.push(vec![
                p.clone(),
                table::f2(p1.perf / p2.perf),
                "1.00".to_string(),
                table::f2(p3.perf / p2.perf),
            ]);
        }
    }
    s.push_str(&table::render(
        "Fig 19b: mean area-normalized performance (normalized to the 2-bit design)",
        &t2,
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_bit_costs_more_three_bit_less() {
        let cost = run_cost();
        let get = |b: u8| cost.iter().find(|c| c.atom_bits == b).unwrap();
        let (c1, c2, c3) = (get(1), get(2), get(3));
        let area_ratio = c1.area_mm2 / c2.area_mm2;
        let power_ratio = c1.power_mw / c2.power_mw;
        assert!(
            (2.0..5.5).contains(&area_ratio),
            "1b/2b area {area_ratio} (paper 3.34)"
        );
        assert!(
            (1.5..5.5).contains(&power_ratio),
            "1b/2b power {power_ratio} (paper 3.51)"
        );
        assert!(c3.area_mm2 < c2.area_mm2);
        assert!(c3.power_mw < c2.power_mw);
    }

    #[test]
    fn two_bit_granularity_beats_one_bit_and_tracks_three_bit() {
        let mut cache = StatsCache::new();
        let perf = run_perf(true, &mut cache);
        let mean = |bits: u8| {
            let sel: Vec<&PerfRow> = perf.iter().filter(|r| r.atom_bits == bits).collect();
            sel.iter().map(|r| r.perf).sum::<f64>() / sel.len() as f64
        };
        let (m1, m2, m3) = (mean(1), mean(2), mean(3));
        // The paper finds 2-bit best overall. In our model 2-bit clearly
        // beats 1-bit; 2-bit and 3-bit are within ~25% of each other, with
        // the winner sensitive to the magnitude distribution of the
        // synthetic quantized values (recorded in EXPERIMENTS.md).
        assert!(m2 > m1, "2b {m2} vs 1b {m1}");
        assert!(
            (m2 / m3 - 1.0).abs() < 0.30,
            "2b {m2} and 3b {m3} should be close (ratio {})",
            m2 / m3
        );
    }
}
