//! Layer-by-layer replay for the traced run: one input at a time through
//! `Session::run_layer`, with the CSC kernel (`conv2d_csc_streams_with`)
//! timed on the same activations against `CompiledLayer::weights()`.

use crate::metrics::Outcome;
use crate::trace::{timed, Tracer};
use crate::util::{median, ratio, us};
use atomstream::conv_csc::conv2d_csc_streams_with;
use atomstream::kernel::CscScratch;
use qnn::conv::ConvGeometry;
use qnn::quant::BitWidth;
use qnn::tensor::Tensor3;
use ristretto_sim::engine::{CompiledNetwork, NetworkModel, Session};
use std::sync::Arc;
use std::time::Instant;

struct ProbeNet {
    name: String,
    session: Session,
    kernel_scratch: Vec<CscScratch>,
    /// Layer name, geometry and activation width, from the model's
    /// public layer plan (built from the `qnn::mini` stage table).
    layers: Vec<(String, ConvGeometry, BitWidth)>,
    steps: u64,
    /// Session scratch allocations after the first replay.
    first_allocs: Option<u64>,
    /// Session scratch allocations once every input was replayed once.
    warm_allocs: Option<u64>,
}

/// Replays inputs layer by layer and turns the spans into per-layer
/// metrics.
pub struct LayerProbe {
    nets: Vec<ProbeNet>,
    /// Host time spent replaying (excluded from the traced end-to-end
    /// time).
    pub replay_ns: u64,
    /// Layers whose kernel counters disagreed with `Session::run_layer`.
    pub kernel_mismatches: u64,
}

impl LayerProbe {
    /// One session and one kernel arena per network.
    pub fn new(nets: &[(Arc<CompiledNetwork>, &NetworkModel)]) -> Self {
        let nets = nets
            .iter()
            .map(|(net, model)| ProbeNet {
                name: net.name().to_string(),
                session: Session::new(net.clone()),
                kernel_scratch: (0..net.layers().len()).map(|_| CscScratch::new()).collect(),
                layers: model
                    .layers
                    .iter()
                    .map(|l| (l.name.clone(), l.geom, l.a_bits))
                    .collect(),
                steps: 0,
                first_allocs: None,
                warm_allocs: None,
            })
            .collect();
        Self {
            nets,
            replay_ns: 0,
            kernel_mismatches: 0,
        }
    }

    /// Replays `input` through network `m`, returning its output.
    ///
    /// # Errors
    /// Engine and kernel failures, rendered.
    pub fn replay(
        &mut self,
        m: usize,
        input: &Tensor3,
        req: Option<u64>,
        tracer: &mut Tracer,
    ) -> Result<Tensor3, String> {
        let t0 = Instant::now();
        let p = &mut self.nets[m];
        let net = p.session.network();
        let clean = net.config().faults.is_none();
        let run = tracer.enter(&format!("engine.run/{}", p.name), req);
        let mut act = input.clone();
        for (li, (layer, geom, a_bits)) in p.layers.iter().enumerate() {
            let (next, trace, _) = timed(
                tracer,
                &format!("engine.run_layer/{}/{layer}", p.name),
                req,
                || p.session.run_layer(li, &act),
            )
            .map_err(|e| format!("{} {layer}: {e}", p.name))?;
            let kernel = timed(
                tracer,
                &format!("kernel.conv2d/{}/{layer}", p.name),
                req,
                || {
                    conv2d_csc_streams_with(
                        &act,
                        net.layers()[li].weights(),
                        *geom,
                        *a_bits,
                        net.csc_config(),
                        &p.kernel_scratch[li],
                    )
                },
            )
            .map_err(|e| format!("{} {layer} kernel: {e}", p.name))?;
            if clean && kernel.stats != trace.stats {
                self.kernel_mismatches += 1;
            }
            p.steps += trace.stats.intersect.steps;
            act = next;
        }
        tracer.exit(run);
        if p.first_allocs.is_none() {
            p.first_allocs = Some(p.session.scratch_plane_allocations());
        }
        self.replay_ns += t0.elapsed().as_nanos() as u64;
        Ok(act)
    }

    /// Marks the end of the warm-up pass: every input of the run has been
    /// replayed once, so each arena has seen the working set.
    pub fn mark_warm(&mut self) {
        for p in &mut self.nets {
            p.warm_allocs = Some(p.session.scratch_plane_allocations());
        }
    }

    /// Session scratch-plane allocations between each network's first
    /// replay and the end of the warm-up pass. The pool holds one plane
    /// per active input channel, so an input with more active channels
    /// than any before it still allocates.
    pub fn warmup_allocs(&self) -> u64 {
        self.nets
            .iter()
            .filter_map(|p| Some(p.warm_allocs? - p.first_allocs?))
            .sum()
    }

    /// Session scratch-plane allocations after the warm-up pass; the
    /// steady state must allocate none.
    pub fn steady_allocs(&self) -> u64 {
        self.nets
            .iter()
            .filter_map(|p| Some(p.session.scratch_plane_allocations() - p.warm_allocs?))
            .sum()
    }

    /// Per-layer engine and kernel metrics from the recorded spans.
    pub fn report(&self, tracer: &Tracer, out: &mut Outcome) {
        let by = tracer.durations_by_name();
        let sum = |name: &str| by.get(name).map_or(0, |v| v.iter().sum::<u64>());
        for p in &self.nets {
            let (mut layer_ns, mut kernel_ns) = (0u64, 0u64);
            for (layer, _, _) in &p.layers {
                let lname = format!("engine.run_layer/{}/{layer}", p.name);
                let kname = format!("kernel.conv2d/{}/{layer}", p.name);
                let med = |name: &str| {
                    by.get(name).map_or(0.0, |v| {
                        median(&v.iter().map(|&ns| us(ns)).collect::<Vec<_>>())
                    })
                };
                out.set(format!("engine.layer_us.{}.{layer}", p.name), med(&lname));
                out.set(format!("kernel.us.{}.{layer}", p.name), med(&kname));
                layer_ns += sum(&lname);
                kernel_ns += sum(&kname);
            }
            if layer_ns > 0 {
                out.set(
                    format!("engine.ns_per_step.{}", p.name),
                    ratio(layer_ns as f64, p.steps as f64),
                );
                out.set(
                    format!("engine.nonkernel_share.{}", p.name),
                    1.0 - kernel_ns as f64 / layer_ns as f64,
                );
            }
        }
        out.set("engine.warmup_plane_allocs", self.warmup_allocs() as f64);
        out.set("engine.steady_plane_allocs", self.steady_allocs() as f64);
    }
}
