//! # bench — the Ristretto evaluation harness
//!
//! One module per table/figure of the paper's evaluation (§V), each
//! producing structured rows plus a rendered text table. The `repro`
//! binary drives them (`repro all`, `repro fig12`, …). Host-time
//! performance is measured by the separate `perfbench` package;
//! [`perf_gate`] (`repro perf-check`) compares two perfbench builds on one
//! host.
//!
//! Every experiment is deterministic given the shared [`SEED`]. `quick`
//! mode trims the network list and sweep resolution so the whole suite
//! runs in seconds (used by tests and CI); full mode reproduces the
//! complete DNN benchmark.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod chaos;
pub mod diffcheck;
pub mod experiments;
pub mod perf_gate;
pub mod serve_cli;
pub mod stats_gate;
pub mod table;

/// The global experiment seed; change it to re-roll every synthetic model.
pub const SEED: u64 = 20220101;

use qnn::models::NetworkId;
use qnn::quant::BitWidth;
use qnn::workload::PrecisionPolicy;

/// The networks evaluated (paper §V-A2). Quick mode keeps three.
pub fn benchmark_networks(quick: bool) -> &'static [NetworkId] {
    if quick {
        &[
            NetworkId::AlexNet,
            NetworkId::GoogLeNet,
            NetworkId::ResNet18,
        ]
    } else {
        &NetworkId::ALL
    }
}

/// The precision policies of the evaluation: 8/4/2-bit uniform plus EdMIPS
/// mixed 2/4-bit.
pub fn benchmark_policies() -> [PrecisionPolicy; 4] {
    [
        PrecisionPolicy::Uniform(BitWidth::W8),
        PrecisionPolicy::Uniform(BitWidth::W4),
        PrecisionPolicy::Uniform(BitWidth::W2),
        PrecisionPolicy::Mixed24,
    ]
}

/// Area-normalized speedup of X over a baseline:
/// `(cycles_base / cycles_x) · (area_base / area_x)`.
pub fn area_norm_speedup(cycles_x: u64, area_x: f64, cycles_base: u64, area_base: f64) -> f64 {
    if cycles_x == 0 || area_x == 0.0 {
        return f64::INFINITY;
    }
    (cycles_base as f64 / cycles_x as f64) * (area_base / area_x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_math() {
        assert!((area_norm_speedup(100, 1.0, 800, 0.5) - 4.0).abs() < 1e-12);
        assert!(area_norm_speedup(0, 1.0, 800, 0.5).is_infinite());
    }

    #[test]
    fn policy_and_network_lists() {
        assert_eq!(benchmark_networks(false).len(), 6);
        assert_eq!(benchmark_networks(true).len(), 3);
        assert_eq!(benchmark_policies().len(), 4);
    }
}
