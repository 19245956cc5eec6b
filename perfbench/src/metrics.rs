//! The benchmark's metric catalogue and its one-line JSON result.
//!
//! Every workload prints every metric of the catalogue it was asked for
//! (end-to-end without `--trace`, per-layer with it). A per-layer metric
//! of a layer the workload does not exercise reads `0`: the layer did no
//! work there.

use crate::util::valid_metric_name;
use qnn::mini::MiniNetwork;
use qnn::models::NetworkId;
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("dispatch_ms_p50", "ms"),
    ("dispatch_ms_p95", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ok_share", "share"),
    ("sim_p99_ticks", "ticks"),
    ("sim_goodput_per_mtick", "1/Mtick"),
    ("sim_makespan_cycles", "cycles"),
];

/// Per-layer metrics that do not depend on the network tables.
const FIXED_PER_LAYER: [(&str, &str); 36] = [
    ("server.submit_us_p50", "us"),
    ("server.step_self_ms", "ms"),
    ("server.dispatches", "count"),
    ("server.batch_fill", "ratio"),
    ("server.fleet_share", "ratio"),
    ("server.rejected", "count"),
    ("server.shed", "count"),
    ("server.retries", "count"),
    ("server.breaker_trips", "count"),
    ("registry.register_ms", "ms"),
    ("engine.compile_ms", "ms"),
    ("cache.load_ms", "ms"),
    ("cache.artifact_kb", "KiB"),
    ("fleet.run_ms", "ms"),
    ("fleet.oc4_over_oc1", "ratio"),
    ("fleet.link_bits", "bits"),
    ("fleet.utilization_permille", "permille"),
    ("fleet.idle_cycles", "cycles"),
    ("engine.warmup_plane_allocs", "count"),
    ("engine.steady_plane_allocs", "count"),
    ("fault.injected", "count"),
    ("fault.detected", "count"),
    ("fault.penalty_ticks", "ticks"),
    ("fault.host_overhead", "ratio"),
    ("workload.generate_ms", "ms"),
    ("workload.activations_us", "us"),
    ("analytic.simulate_us", "us"),
    ("analytic.fig12_err_pct", "%"),
    ("baselines.simulate_us", "us"),
    ("twin.true_mismatches", "count"),
    ("twin.seq_key_mismatches", "count"),
    ("trace.overhead", "ratio"),
    ("bench.dispatch_samples", "count"),
    ("bench.threads", "count"),
    ("bench.slice_us", "us"),
    ("bench.checked_outputs", "count"),
];

/// The six mini networks with their layer names, in table order.
pub fn network_layers() -> Vec<(String, Vec<String>)> {
    NetworkId::ALL
        .iter()
        .map(|&id| {
            let mini = MiniNetwork::new(id);
            (
                id.name().to_string(),
                mini.stages.iter().map(|s| s.layer.name.clone()).collect(),
            )
        })
        .collect()
}

/// Every per-layer metric: `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = FIXED_PER_LAYER
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    let nets = network_layers();
    for (net, layers) in &nets {
        for layer in layers {
            out.push((format!("engine.layer_us.{net}.{layer}"), "us"));
        }
    }
    for (net, layers) in &nets {
        for layer in layers {
            out.push((format!("kernel.us.{net}.{layer}"), "us"));
        }
    }
    for (net, _) in &nets {
        out.push((format!("engine.ns_per_step.{net}"), "ns"));
    }
    for (net, _) in &nets {
        out.push((format!("engine.nonkernel_share.{net}"), "ratio"));
    }
    out
}

/// What one run measured: the correctness verdict, operation counts and
/// metric values by name.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted (fresh requests, images or sweep points).
    pub attempted: u64,
    /// Operations whose output check failed or that errored.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
}

impl Outcome {
    /// Records one metric value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Names a metric that is in neither catalogue (a typo would
    /// otherwise silently read `0`).
    pub fn unknown_metric(&self) -> Option<&str> {
        let known: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|(n, _)| n)
            .collect();
        self.values
            .keys()
            .find(|k| !known.contains(k))
            .map(String::as_str)
    }

    /// Renders the result line over `catalogue`; metrics the workload did
    /// not set read `0`, metrics outside the catalogue are left out.
    ///
    /// # Errors
    /// Names an invalid metric name or a non-finite value.
    pub fn render(&self, catalogue: &[(String, &str)]) -> Result<String, String> {
        let mut fields = Vec::with_capacity(catalogue.len());
        for (name, unit) in catalogue {
            if !valid_metric_name(name) {
                return Err(format!("invalid metric name `{name}`"));
            }
            let v = self.values.get(name).copied().unwrap_or(0.0);
            if !v.is_finite() {
                return Err(format!("metric `{name}` is not finite: {v}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

/// The end-to-end catalogue in the owned form [`Outcome::render`] takes.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect()
}
