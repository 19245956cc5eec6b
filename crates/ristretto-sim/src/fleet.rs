//! Sharded fleet-scale simulation of the Fig 7 multi-core organization.
//!
//! The fleet *executes* the paper's core array rather than scaling the
//! Eq 3–5 closed form: it shards a **compiled** network
//! ([`crate::engine::compile`]) across N cores under explicit strategies,
//! drives every shard through the same execution path a single-core
//! [`Session`] uses, and routes inter-core activation traffic through the
//! deterministic [`crate::noc`] queueing model. The per-layer cross-core
//! makespan — `max(per-core Eq 5 compute) + exchange makespan` —
//! generalizes the §IV-E balancer counters from tiles to cores.
//!
//! Three sharding strategies:
//!
//! * [`ShardStrategy::Batch`] — data parallelism: every core holds the
//!   full network and processes its own inputs; no inter-core traffic.
//! * [`ShardStrategy::OutputChannel`] — model parallelism: each layer's
//!   output channels are LPT-partitioned across cores by static weight
//!   atoms (the same greedy the §IV-E balancer uses across tiles);
//!   every layer boundary is an all-gather of the produced slices.
//! * [`ShardStrategy::Hybrid`] — `replicas` batch-parallel groups, each
//!   output-channel-sharded internally.
//!
//! **Byte-determinism is the invariant**: shard execution reuses the
//! channel-ordered engine kernels, slots run in slot order, the NoC is
//! pure integer arithmetic, and core deaths ([`crate::fault::CoreDeathConfig`]) are pure
//! site hashes followed by deterministic resharding — so fleet output is
//! byte-identical at any `(cores, threads)` combination, and a 1-core
//! fleet reproduces the single-core [`Session`] bytes exactly (enforced by
//! a diffcheck oracle family).

use crate::balance::{balance, is_exact_partition, BalanceStrategy, ChannelWorkload};
use crate::config::{FleetConfig, RistrettoConfig};
use crate::energy::COO_META_BITS;
use crate::engine::{CompiledLayer, CompiledNetwork, EngineError, Session, ShardView};
use crate::fault::{splitmix64, FaultStats};
use crate::noc::{Noc, NocReport};
use atomstream::atom::AtomBits;
use atomstream::conv_csc::prepare_activations;
use atomstream::kernel::CscScratch;
use qnn::tensor::Tensor3;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// How a fleet partitions work across its cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ShardStrategy {
    /// Data parallelism: whole-network replicas, one input per core.
    Batch,
    /// Model parallelism: output channels partitioned across all cores,
    /// all-gather at every layer boundary.
    OutputChannel,
    /// N batch-parallel replica groups (the payload; must divide the core
    /// count), output-channel-sharded inside each group.
    Hybrid(usize),
}

impl fmt::Display for ShardStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardStrategy::Batch => f.write_str("batch"),
            ShardStrategy::OutputChannel => f.write_str("output-channel"),
            ShardStrategy::Hybrid(replicas) => write!(f, "hybrid/{replicas}"),
        }
    }
}

/// LPT partition of one layer's output channels over `slots` shard slots,
/// balanced on static weight atoms; each group ascending, groups in slot
/// order. Exactly partitions `0..atoms.len()` (checked by the fleet's
/// constructor via [`is_exact_partition`]).
fn partition_out_channels(atoms: &[u64], slots: usize) -> Vec<Vec<usize>> {
    let workloads: Vec<ChannelWorkload> = atoms
        .iter()
        .enumerate()
        .map(|(channel, &weight_atoms)| ChannelWorkload {
            channel,
            act_atoms: 1,
            weight_atoms,
        })
        .collect();
    let mut groups = balance(&workloads, slots, 1, BalanceStrategy::WeightOnly).groups;
    for g in &mut groups {
        g.sort_unstable();
    }
    groups
}

/// A fleet's static sharding decision: for every layer, which output
/// channels each shard slot owns. Produced by LPT over per-out-channel
/// static weight atoms; serialized alongside compiled networks through
/// [`crate::artifact::encode_shard_plan`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardPlan {
    /// Shard slots the plan partitions over (cores per replica group).
    pub group_size: usize,
    /// `layers[li][slot]` = ascending output channels of layer `li` owned
    /// by `slot`; may be empty when the layer has fewer output channels
    /// than the group has slots.
    pub layers: Vec<Vec<Vec<usize>>>,
}

impl ShardPlan {
    /// Plans `group_size` shards of a compiled network.
    pub fn compute(net: &CompiledNetwork, group_size: usize) -> Self {
        let layers = net
            .layers()
            .iter()
            .map(|l| partition_out_channels(&l.weight_atoms_per_out_channel(), group_size))
            .collect();
        Self { group_size, layers }
    }

    /// Per-layer channel sets of one slot (the input to
    /// [`CompiledNetwork::shard_view`]).
    pub fn slot_channels(&self, slot: usize) -> Vec<Vec<usize>> {
        self.layers.iter().map(|l| l[slot].clone()).collect()
    }

    /// Whether every layer's groups exactly partition that layer's output
    /// channels.
    pub fn verify(&self, net: &CompiledNetwork) -> bool {
        self.layers.len() == net.layers().len()
            && self.layers.iter().zip(net.layers()).all(|(groups, layer)| {
                groups.len() == self.group_size
                    && is_exact_partition(
                        groups.iter().map(Vec::as_slice),
                        layer.weights().out_channels(),
                    )
            })
    }

    /// Order-sensitive digest of the whole plan (artifact round-trip
    /// witness).
    pub fn digest(&self) -> u64 {
        let mut h = splitmix64(0x5A4D ^ self.group_size as u64);
        for groups in &self.layers {
            for g in groups {
                h = splitmix64(h ^ g.len() as u64);
                for &c in g {
                    h = splitmix64(h ^ c as u64);
                }
            }
        }
        h
    }
}

/// Integer-only result of one fleet pass, serialized byte-stably
/// cross-platform (ratios are derived at display time — see
/// [`FleetReport::throughput_per_mcycle`] and
/// [`FleetReport::utilization_permille`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Network name.
    pub network: String,
    /// Strategy label (`batch`, `output-channel`, `hybrid/R`).
    pub strategy: String,
    /// Fleet core count.
    pub cores: usize,
    /// Inputs processed.
    pub inputs: u64,
    /// Cycles from first input in to last output out.
    pub makespan_cycles: u64,
    /// Single-input latency (the first input's cycles through all layers).
    pub latency_cycles: u64,
    /// Per-core compute cycles summed over cores and layers.
    pub busy_cycles: u64,
    /// Cycles cores waited on slower shards or on the NoC.
    pub idle_cycles: u64,
    /// Compressed activation bits moved over inter-core links.
    pub link_bits: u64,
    /// Cycles links spent serializing flits.
    pub link_busy_cycles: u64,
    /// Deepest NoC ingress-FIFO occupancy observed.
    pub queue_highwater: u64,
    /// Fold of the per-port NoC FIFO digests (determinism witness).
    pub noc_digest: u64,
    /// Fold over every output tensor's bytes (byte-identity witness).
    pub output_digest: u64,
    /// Core deaths taken.
    pub core_deaths: u64,
    /// Resharding passes performed after deaths.
    pub reshards: u64,
}

impl FleetReport {
    /// Inputs per million cycles — derived, never serialized.
    pub fn throughput_per_mcycle(&self) -> f64 {
        if self.makespan_cycles == 0 {
            return 0.0;
        }
        self.inputs as f64 * 1e6 / self.makespan_cycles as f64
    }

    /// Core utilization in permille: `busy / (busy + idle)` — integer,
    /// display-friendly, byte-stable.
    pub fn utilization_permille(&self) -> u64 {
        let denom = self.busy_cycles + self.idle_cycles;
        if denom == 0 {
            return 1000;
        }
        self.busy_cycles * 1000 / denom
    }
}

/// Everything one [`Fleet::run`] produces: the per-input output tensors
/// (in input order, byte-identical to unsharded [`Session::run`] outputs),
/// merged fault counters, the NoC's lifetime report and the integer fleet
/// report.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRun {
    /// Final activation tensor per input, in input order.
    pub outputs: Vec<Tensor3>,
    /// Fault-campaign counters merged across cores and inputs.
    pub faults: FaultStats,
    /// The interconnect's lifetime counters for this pass.
    pub noc: NocReport,
    /// The integer fleet report.
    pub report: FleetReport,
}

/// Non-zero atoms per input channel of an activation tensor at the given
/// value/atom granularity — the measured `T_i` the per-shard Eq 5 cycle
/// model consumes. Zero-atom squeezing means a value contributes one atom
/// per non-zero `atom_bits` chunk of its magnitude.
pub fn act_atoms_per_channel(act: &Tensor3, a_bits: u8, atom_bits: AtomBits) -> Vec<u64> {
    let g = atom_bits.bits() as u32;
    let slots = atom_bits.slots(a_bits) as u32;
    let mask = (1u32 << g) - 1;
    let atoms_of = |v: i32| {
        let v = v.unsigned_abs();
        (0..slots).filter(|s| (v >> (s * g)) & mask != 0).count() as u64
    };
    (0..act.channels())
        .map(|ci| {
            act.channel(ci)
                .iter()
                .filter(|&&v| v != 0)
                .map(|&v| atoms_of(v))
                .sum()
        })
        .collect()
}

/// Order-sensitive digest over a tensor's values.
pub(crate) fn tensor_digest(h: u64, t: &Tensor3) -> u64 {
    let mut h = splitmix64(h ^ 0x7E45_0E5E);
    for &v in t.as_slice() {
        h = splitmix64(h ^ (v as u32 as u64));
    }
    h
}

/// Mutable per-run shard state of one replica group: which slots are
/// alive, and reshard overrides layered over the static plan/views.
struct GroupState {
    /// Global core id of each slot.
    cores: Vec<usize>,
    alive: Vec<bool>,
    /// `(slot, layer)` → resharded layer artifact (`None` = idles now).
    overrides: HashMap<(usize, usize), Option<Arc<CompiledLayer>>>,
    /// `layer` → post-reshard channel groups (slot-indexed).
    channel_overrides: HashMap<usize, Vec<Vec<usize>>>,
}

impl GroupState {
    fn alive_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }
}

/// The sharded fleet simulator: a compiled network, a validated
/// [`FleetConfig`], the static [`ShardPlan`] and per-slot shard views.
///
/// Like a [`Session`], a fleet owns its scratch arenas, so weight plans
/// compile once and accumulator planes are reused across runs: one arena
/// per (shard slot, layer) for the static shards, and one per layer for
/// the activation that every shard of the layer consumes.
#[derive(Debug)]
pub struct Fleet {
    net: Arc<CompiledNetwork>,
    cfg: FleetConfig,
    plan: ShardPlan,
    /// One view per shard slot within a replica group; slots hold
    /// `Arc<CompiledLayer>` so per-run reshard state can share them.
    shards: Vec<Vec<Option<Arc<CompiledLayer>>>>,
    /// `shard_scratch[slot][layer]`: the static shard's arena, shared by
    /// the replica groups (which run one input at a time). Empty when
    /// `group_size == 1`. Resharded layers use a transient arena instead.
    shard_scratch: Vec<Vec<CscScratch>>,
    /// Per layer: the arena holding the prepared activation every shard of
    /// the layer intersects. Empty when `group_size == 1`.
    prepare_scratch: Vec<CscScratch>,
    /// Unsharded session driving `group_size == 1` groups through the
    /// plain engine path.
    session: Session,
}

impl Fleet {
    /// Shards a compiled network per the fleet configuration.
    ///
    /// # Errors
    /// Returns [`EngineError::Config`] for invalid fleet configurations
    /// and propagates shard recompilation failures.
    pub fn try_new(net: Arc<CompiledNetwork>, cfg: FleetConfig) -> Result<Self, EngineError> {
        cfg.validate()?;
        let group_size = cfg.group_size();
        let plan = ShardPlan::compute(&net, group_size);
        assert!(
            plan.verify(&net),
            "shard plan must partition every layer's output channels"
        );
        let shards = (0..group_size)
            .map(|slot| {
                let view: ShardView = net.shard_view(&plan.slot_channels(slot))?;
                Ok(view
                    .layers()
                    .iter()
                    .cloned()
                    .map(|l| l.map(Arc::new))
                    .collect())
            })
            .collect::<Result<Vec<_>, EngineError>>()?;
        let arenas = || -> Vec<CscScratch> {
            if group_size > 1 {
                net.layers().iter().map(|_| CscScratch::new()).collect()
            } else {
                Vec::new()
            }
        };
        let shard_scratch = (0..group_size).map(|_| arenas()).collect();
        let prepare_scratch = arenas();
        let session = Session::new(net.clone());
        Ok(Self {
            net,
            cfg,
            plan,
            shards,
            shard_scratch,
            prepare_scratch,
            session,
        })
    }

    /// Total accumulator-plane allocations performed by this fleet's
    /// retained arenas (the unsharded session's and every static shard's)
    /// since creation — the fleet twin of
    /// [`Session::scratch_plane_allocations`]. After the first run at a
    /// given thread count, further runs leave it unchanged.
    pub fn scratch_plane_allocations(&self) -> u64 {
        self.session.scratch_plane_allocations()
            + self
                .shard_scratch
                .iter()
                .flatten()
                .map(CscScratch::plane_allocations)
                .sum::<u64>()
    }

    /// The compiled network the fleet serves.
    pub fn network(&self) -> &CompiledNetwork {
        &self.net
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// The static shard plan.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The current shard layer of `slot` at `layer`, after any reshard.
    fn shard_layer<'a>(
        &'a self,
        state: &'a GroupState,
        slot: usize,
        li: usize,
    ) -> Option<&'a CompiledLayer> {
        match state.overrides.get(&(slot, li)) {
            Some(over) => over.as_deref(),
            None => self.shards[slot][li].as_deref(),
        }
    }

    /// Eq 5 compute cycles of one shard layer on the measured activation
    /// atom counts (`None` shard → 0). `workloads` is a reused buffer.
    fn shard_cycles(
        &self,
        layer: Option<&CompiledLayer>,
        act_atoms: &[u64],
        input_layer: bool,
        workloads: &mut Vec<ChannelWorkload>,
    ) -> u64 {
        let Some(layer) = layer else { return 0 };
        workloads.clear();
        workloads.extend(
            layer
                .weight_atoms_per_channel()
                .iter()
                .zip(act_atoms)
                .enumerate()
                .map(|(channel, (&weight_atoms, &act_atoms))| ChannelWorkload {
                    channel,
                    act_atoms,
                    weight_atoms,
                }),
        );
        let strategy = if input_layer {
            BalanceStrategy::None
        } else {
            self.net.config().balancing
        };
        balance(
            workloads,
            self.net.config().tiles,
            self.net.config().multipliers as u64,
            strategy,
        )
        .makespan()
    }

    /// Deterministic resharding after deaths at layer `li`: layers
    /// `li..` repartition over the group's remaining alive slots.
    fn reshard(&self, state: &mut GroupState, li: usize) -> Result<(), EngineError> {
        let alive_slots: Vec<usize> = (0..state.alive.len()).filter(|&s| state.alive[s]).collect();
        let cfg: RistrettoConfig = *self.net.config();
        for lj in li..self.net.layers().len() {
            let atoms = self.net.layers()[lj].weight_atoms_per_out_channel();
            let parts = partition_out_channels(&atoms, alive_slots.len());
            let mut groups: Vec<Vec<usize>> = vec![Vec::new(); state.alive.len()];
            for (i, &slot) in alive_slots.iter().enumerate() {
                groups[slot] = parts[i].clone();
            }
            for (slot, group) in groups.iter().enumerate() {
                let layer = if group.is_empty() {
                    None
                } else {
                    Some(Arc::new(self.net.layers()[lj].shard(group, &cfg)?))
                };
                state.overrides.insert((slot, lj), layer);
            }
            state.channel_overrides.insert(lj, groups);
        }
        Ok(())
    }

    /// Runs one input through a sharded replica group, returning the
    /// output tensor and the input's latency in cycles.
    #[allow(clippy::too_many_arguments)]
    fn run_sharded_input(
        &self,
        input: &Tensor3,
        campaign: Option<crate::fault::FaultConfig>,
        state: &mut GroupState,
        noc: &mut Noc,
        faults: &mut FaultStats,
        busy: &mut u64,
        idle: &mut u64,
        deaths: &mut u64,
        reshards: &mut u64,
    ) -> Result<(Tensor3, u64), EngineError> {
        let cfg = self.net.config();
        let csc = self.net.csc_config();
        let mut act = input.clone();
        let mut latency = 0u64;
        let mut workloads = Vec::new();
        for li in 0..self.net.layers().len() {
            let a_bits = self.net.layers()[li].a_bits;
            let atoms = act_atoms_per_channel(&act, a_bits.bits(), cfg.atom_bits);
            // Core deaths fire mid-layer: the aborted attempt's makespan is
            // paid, the group reshards, and the layer re-executes.
            if let Some(campaign) = self.cfg.core_deaths {
                let new_dead: Vec<usize> = (0..state.alive.len())
                    .filter(|&s| state.alive[s] && campaign.decide(li, state.cores[s]))
                    .collect();
                if !new_dead.is_empty() && new_dead.len() < state.alive_count() {
                    let aborted = (0..state.alive.len())
                        .filter(|&s| state.alive[s])
                        .map(|s| {
                            let layer = self.shard_layer(state, s, li);
                            self.shard_cycles(layer, &atoms, li == 0, &mut workloads)
                        })
                        .max()
                        .unwrap_or(0);
                    latency += aborted;
                    *idle += aborted * state.alive_count() as u64;
                    for &s in &new_dead {
                        state.alive[s] = false;
                        *deaths += 1;
                        obs::record(obs::Event::FleetCoreDeaths, 1);
                    }
                    self.reshard(state, li)?;
                    *reshards += 1;
                    obs::record(obs::Event::FleetReshards, 1);
                }
            }

            // Every alive shard consumes the same all-gathered activation,
            // so a clean pass flattens and compresses it once, for the
            // input channels some shard's weights need.
            let prepared = match campaign {
                Some(_) => None,
                None => Some(prepare_activations(
                    &act,
                    a_bits,
                    csc,
                    &self.prepare_scratch[li],
                    |ci| {
                        (0..state.alive.len())
                            .filter(|&s| state.alive[s])
                            .filter_map(|s| self.shard_layer(state, s, li))
                            .any(|l| l.weights().streams().get(ci).is_some_and(|w| !w.is_empty()))
                    },
                )?),
            };

            // Execute every alive slot's shard, in slot order (each shard
            // parallelizes internally over channels).
            let mut slot_out: Vec<Option<Tensor3>> = vec![None; state.alive.len()];
            let mut compute: Vec<u64> = vec![0; state.alive.len()];
            for slot in 0..state.alive.len() {
                if !state.alive[slot] {
                    continue;
                }
                let Some(layer) = self.shard_layer(state, slot, li) else {
                    continue;
                };
                let (out, layer_faults) = match campaign {
                    None => {
                        let prepared = prepared.as_ref().expect("a clean pass prepares");
                        // A resharded layer runs in a transient arena: the
                        // path is rare, and memory stays flat.
                        let transient = CscScratch::new();
                        let scratch = if state.overrides.contains_key(&(slot, li)) {
                            &transient
                        } else {
                            &self.shard_scratch[slot][li]
                        };
                        let (out, _trace) = layer.execute_prepared(csc, prepared, scratch)?;
                        (out, FaultStats::default())
                    }
                    Some(campaign) => {
                        let inj = crate::fault::FaultInjector::new(campaign);
                        let (out, _trace, layer_faults) =
                            layer.execute_with_faults(csc, &act, &inj, li, cfg.acc_bits)?;
                        (out, layer_faults)
                    }
                };
                faults.merge(&layer_faults);
                compute[slot] = self.shard_cycles(Some(layer), &atoms, li == 0, &mut workloads);
                slot_out[slot] = Some(out);
                obs::record(obs::Event::FleetShards, 1);
            }

            // Reassemble the full activation in global channel order.
            let channels: Vec<Vec<usize>> = match state.channel_overrides.get(&li) {
                Some(groups) => groups.clone(),
                None => self.plan.layers[li].clone(),
            };
            let (next, slice_bits) =
                assemble(&slot_out, &channels, self.net.layers()[li].out_bits as u64)?;

            // Exchange: every alive slot broadcasts its slice, on its
            // *global* NoC port (hybrid groups occupy a sub-range of the
            // ring).
            let mut global_bits = vec![0u64; self.cfg.cores];
            let mut global_alive = vec![false; self.cfg.cores];
            for slot in 0..state.alive.len() {
                global_bits[state.cores[slot]] = slice_bits[slot];
                global_alive[state.cores[slot]] = state.alive[slot];
            }
            let comm = noc.all_gather(&global_bits, &global_alive);
            let compute_max = compute.iter().copied().max().unwrap_or(0);
            let layer_span = compute_max + comm;
            latency += layer_span;
            for (slot, &cycles) in compute.iter().enumerate() {
                if state.alive[slot] {
                    *busy += cycles;
                    *idle += layer_span - cycles;
                }
            }
            obs::record(obs::Event::FleetBusyCycles, compute.iter().sum());
            obs::record(obs::Event::FleetMakespanCycles, layer_span);
            act = next;
        }
        Ok((act, latency))
    }

    /// Runs one input on a single unsharded core (Batch groups) through
    /// the plain [`Session`] path, layer by layer so core deaths can
    /// migrate the input to another core.
    #[allow(clippy::too_many_arguments)]
    fn run_unsharded_input(
        &self,
        input: &Tensor3,
        campaign: Option<crate::fault::FaultConfig>,
        core: usize,
        alive: &mut [bool],
        noc: &mut Noc,
        faults: &mut FaultStats,
        busy: &mut u64,
        core_load: &mut [u64],
        deaths: &mut u64,
        reshards: &mut u64,
    ) -> Result<(Tensor3, u64), EngineError> {
        let cfg = self.net.config();
        let mut act = input.clone();
        let mut latency = 0u64;
        let mut owner = core;
        let mut workloads = Vec::new();
        for li in 0..self.net.layers().len() {
            if let Some(campaign) = self.cfg.core_deaths {
                if alive[owner]
                    && campaign.decide(li, owner)
                    && alive.iter().filter(|&&a| a).count() > 1
                {
                    alive[owner] = false;
                    *deaths += 1;
                    obs::record(obs::Event::FleetCoreDeaths, 1);
                    // Migrate to the next alive core: the in-flight
                    // activation crosses the NoC once.
                    let adopter = (owner + 1..owner + alive.len())
                        .map(|c| c % alive.len())
                        .find(|&c| alive[c])
                        .expect("at least one alive core remains");
                    let bits = act.count_nonzero() as u64
                        * (self.net.layers()[li].a_bits.bits() as u64 + COO_META_BITS);
                    let mut slice = vec![0u64; alive.len()];
                    slice[owner] = bits;
                    let mut reach = vec![false; alive.len()];
                    reach[owner] = true;
                    reach[adopter] = true;
                    latency += noc.all_gather(&slice, &reach);
                    owner = adopter;
                    *reshards += 1;
                    obs::record(obs::Event::FleetReshards, 1);
                }
            }
            let atoms =
                act_atoms_per_channel(&act, self.net.layers()[li].a_bits.bits(), cfg.atom_bits);
            let (next, _trace, layer_faults) = self.session.run_layer_with(li, &act, campaign)?;
            faults.merge(&layer_faults);
            let cycles = self.shard_cycles(
                Some(&self.net.layers()[li]),
                &atoms,
                li == 0,
                &mut workloads,
            );
            latency += cycles;
            *busy += cycles;
            core_load[owner] += cycles;
            obs::record(obs::Event::FleetBusyCycles, cycles);
            obs::record(obs::Event::FleetShards, 1);
            act = next;
        }
        obs::record(obs::Event::FleetMakespanCycles, latency);
        Ok((act, latency))
    }

    /// Runs a batch of inputs through the fleet.
    ///
    /// # Errors
    /// Same surface as [`Session::run`], plus shard recompilation errors
    /// from deterministic resharding after a core death.
    pub fn run(&self, inputs: &[Tensor3]) -> Result<FleetRun, EngineError> {
        let refs: Vec<&Tensor3> = inputs.iter().collect();
        self.run_with(&refs, self.net.config().faults)
    }

    /// [`Fleet::run`] over borrowed inputs and an explicit fault campaign.
    ///
    /// The serving scheduler dispatches through this surface: batches
    /// borrow their queued input tensors instead of cloning them, and a
    /// tripped circuit breaker substitutes
    /// [`FaultConfig::forced_recovery`](crate::fault::FaultConfig::forced_recovery)
    /// for the compiled campaign. Passing the compiled campaign reproduces
    /// [`Fleet::run`] byte-exactly.
    ///
    /// # Errors
    /// Same surface as [`Fleet::run`].
    pub fn run_with(
        &self,
        inputs: &[&Tensor3],
        campaign: Option<crate::fault::FaultConfig>,
    ) -> Result<FleetRun, EngineError> {
        let _span = obs::span("fleet.run");
        obs::record(obs::Event::FleetRuns, 1);
        obs::record(obs::Event::FleetCores, self.cfg.cores as u64);
        let group_size = self.cfg.group_size();
        let groups = self.cfg.groups();
        let mut noc = Noc::new(self.cfg.cores, self.cfg.noc);
        let mut faults = FaultStats::default();
        let (mut busy, mut idle) = (0u64, 0u64);
        let (mut deaths, mut reshards) = (0u64, 0u64);
        let mut outputs: Vec<Tensor3> = Vec::with_capacity(inputs.len());
        let mut latency_first = 0u64;
        let makespan;

        if group_size == 1 {
            // Batch strategy: independent cores, round-robin dispatch.
            let mut alive = vec![true; self.cfg.cores];
            let mut core_load = vec![0u64; self.cfg.cores];
            for (i, input) in inputs.iter().enumerate() {
                let dispatch: Vec<usize> = (0..self.cfg.cores).filter(|&c| alive[c]).collect();
                let core = dispatch[i % dispatch.len()];
                let (out, latency) = self.run_unsharded_input(
                    input,
                    campaign,
                    core,
                    &mut alive,
                    &mut noc,
                    &mut faults,
                    &mut busy,
                    &mut core_load,
                    &mut deaths,
                    &mut reshards,
                )?;
                if i == 0 {
                    latency_first = latency;
                }
                outputs.push(out);
            }
            makespan = core_load.iter().copied().max().unwrap_or(0);
            let total: u64 = core_load.iter().sum();
            let fleet_idle =
                (makespan * alive.iter().filter(|&&a| a).count() as u64).saturating_sub(total);
            idle += fleet_idle;
        } else {
            // Sharded groups: round-robin inputs over replica groups;
            // groups accumulate independent timelines.
            let mut states: Vec<GroupState> = (0..groups)
                .map(|g| GroupState {
                    cores: (g * group_size..(g + 1) * group_size).collect(),
                    alive: vec![true; group_size],
                    overrides: HashMap::new(),
                    channel_overrides: HashMap::new(),
                })
                .collect();
            let mut group_time = vec![0u64; groups];
            for (i, input) in inputs.iter().enumerate() {
                let g = i % groups;
                let (out, latency) = self.run_sharded_input(
                    input,
                    campaign,
                    &mut states[g],
                    &mut noc,
                    &mut faults,
                    &mut busy,
                    &mut idle,
                    &mut deaths,
                    &mut reshards,
                )?;
                if i == 0 {
                    latency_first = latency;
                }
                group_time[g] += latency;
                outputs.push(out);
            }
            makespan = group_time.iter().copied().max().unwrap_or(0);
        }

        obs::record(obs::Event::FleetIdleCycles, idle);
        let noc_report = noc.report().clone();
        obs::record(obs::Event::FleetLinkBits, noc_report.link_bits);
        obs::record(obs::Event::FleetLinkBusyCycles, noc_report.link_busy_cycles);
        obs::record(obs::Event::FleetQueueHighwater, noc_report.queue_highwater);

        let mut output_digest = 0x00D1_6E57u64;
        for out in &outputs {
            output_digest = tensor_digest(output_digest, out);
        }
        let report = FleetReport {
            network: self.net.name().to_string(),
            strategy: self.cfg.strategy.to_string(),
            cores: self.cfg.cores,
            inputs: inputs.len() as u64,
            makespan_cycles: makespan,
            latency_cycles: latency_first,
            busy_cycles: busy,
            idle_cycles: idle,
            link_bits: noc_report.link_bits,
            link_busy_cycles: noc_report.link_busy_cycles,
            queue_highwater: noc_report.queue_highwater,
            noc_digest: noc_report.digest(),
            output_digest,
            core_deaths: deaths,
            reshards,
        };
        Ok(FleetRun {
            outputs,
            faults,
            noc: noc_report,
            report,
        })
    }
}

/// Concatenates per-slot output slices back into the full activation
/// (global channel order) and measures each slot's compressed slice bits
/// for the exchange.
fn assemble(
    slot_out: &[Option<Tensor3>],
    channels: &[Vec<usize>],
    value_bits: u64,
) -> Result<(Tensor3, Vec<u64>), EngineError> {
    let (h, w) = slot_out
        .iter()
        .flatten()
        .next()
        .map(|t| {
            let (_, h, w) = t.shape();
            (h, w)
        })
        .expect("at least one slot produced output");
    let total_c: usize = channels.iter().map(Vec::len).sum();
    let mut next = Tensor3::zeros(total_c, h, w).map_err(atomstream::error::AtomError::from)?;
    let plane = h * w;
    let mut slice_bits = vec![0u64; slot_out.len()];
    for (slot, out) in slot_out.iter().enumerate() {
        let Some(out) = out else { continue };
        for (local, &global) in channels[slot].iter().enumerate() {
            let src = out.channel(local);
            next.as_mut_slice()[global * plane..(global + 1) * plane].copy_from_slice(src);
            let nonzero = src.iter().filter(|&&v| v != 0).count() as u64;
            slice_bits[slot] += nonzero * (value_bits + COO_META_BITS);
        }
    }
    Ok((next, slice_bits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{compile, NetworkModel};
    use qnn::mini::MiniNetwork;
    use qnn::models::NetworkId;
    use qnn::quant::BitWidth;
    use qnn::workload::{ActivationProfile, WeightProfile, WorkloadGen};

    fn compiled_and_input(seed: u64) -> (Arc<CompiledNetwork>, Tensor3) {
        let mini = MiniNetwork::try_new(NetworkId::GoogLeNet).unwrap();
        let mut gen = WorkloadGen::new(seed);
        let wp = WeightProfile::benchmark(BitWidth::W4);
        let model = NetworkModel::from_mini(&mini, &mut gen, &wp).unwrap();
        let (c, h, w) = model.input;
        let input = gen
            .activations(c, h, w, &ActivationProfile::new(BitWidth::W8))
            .unwrap();
        let net = compile(&model, &RistrettoConfig::paper_default()).unwrap();
        (net, input)
    }

    #[test]
    fn plan_partitions_every_layer() {
        let (net, _) = compiled_and_input(3);
        for cores in [1, 2, 4, 8] {
            let plan = ShardPlan::compute(&net, cores);
            assert!(plan.verify(&net), "{cores} cores");
            assert_eq!(plan.group_size, cores);
            // Digest is stable and sensitive.
            assert_eq!(plan.digest(), ShardPlan::compute(&net, cores).digest());
        }
        assert_ne!(
            ShardPlan::compute(&net, 2).digest(),
            ShardPlan::compute(&net, 4).digest()
        );
    }

    #[test]
    fn one_core_fleet_matches_session_bytes() {
        let (net, input) = compiled_and_input(5);
        let session_out = Session::new(net.clone()).run(&input).unwrap().output;
        for strategy in [ShardStrategy::Batch, ShardStrategy::OutputChannel] {
            let fleet = Fleet::try_new(net.clone(), FleetConfig::new(1, strategy)).unwrap();
            let run = fleet.run(std::slice::from_ref(&input)).unwrap();
            assert_eq!(run.outputs[0], session_out, "{strategy}");
            assert_eq!(run.report.link_bits, 0, "{strategy}");
        }
    }

    #[test]
    fn output_channel_sharding_is_invariant_across_core_counts() {
        let (net, input) = compiled_and_input(7);
        let reference = Session::new(net.clone()).run(&input).unwrap().output;
        let mut latencies = Vec::new();
        for cores in [2, 4] {
            let fleet = Fleet::try_new(
                net.clone(),
                FleetConfig::new(cores, ShardStrategy::OutputChannel),
            )
            .unwrap();
            let run = fleet.run(std::slice::from_ref(&input)).unwrap();
            assert_eq!(run.outputs[0], reference, "{cores} cores");
            assert!(run.report.link_bits > 0);
            assert!(run.report.queue_highwater >= 1);
            latencies.push(run.report.latency_cycles);
        }
        // More cores cut single-input compute latency (comm may offset
        // some of it, but on GoogLeNet mini the win dominates).
        assert!(latencies[1] < latencies[0] * 2);
    }

    #[test]
    fn batch_strategy_scales_throughput() {
        let (net, input) = compiled_and_input(9);
        let inputs: Vec<Tensor3> = (0..4).map(|_| input.clone()).collect();
        let one = Fleet::try_new(net.clone(), FleetConfig::new(1, ShardStrategy::Batch))
            .unwrap()
            .run(&inputs)
            .unwrap();
        let four = Fleet::try_new(net.clone(), FleetConfig::new(4, ShardStrategy::Batch))
            .unwrap()
            .run(&inputs)
            .unwrap();
        assert_eq!(one.outputs, four.outputs);
        assert_eq!(four.report.makespan_cycles * 4, one.report.makespan_cycles);
        assert_eq!(one.report.link_bits, 0);
        // Integer throughput ratio: 4 cores do 4x the inputs per cycle.
        assert!(four.report.throughput_per_mcycle() > 3.9 * one.report.throughput_per_mcycle());
    }

    #[test]
    fn hybrid_combines_both_axes() {
        let (net, input) = compiled_and_input(11);
        let inputs: Vec<Tensor3> = (0..2).map(|_| input.clone()).collect();
        let cfg = FleetConfig::new(4, ShardStrategy::Hybrid(2));
        assert_eq!(cfg.group_size(), 2);
        assert_eq!(cfg.groups(), 2);
        let run = Fleet::try_new(net.clone(), cfg)
            .unwrap()
            .run(&inputs)
            .unwrap();
        let reference = Session::new(net).run(&input).unwrap().output;
        assert_eq!(run.outputs[0], reference);
        assert_eq!(run.outputs[1], reference);
        assert!(run.report.link_bits > 0);
    }

    #[test]
    fn core_death_reshards_and_reproduces_fault_free_bytes() {
        let (net, input) = compiled_and_input(13);
        let clean = Fleet::try_new(
            net.clone(),
            FleetConfig::new(4, ShardStrategy::OutputChannel),
        )
        .unwrap()
        .run(std::slice::from_ref(&input))
        .unwrap();
        // A hot campaign: every (layer, core) site rolls at 20%.
        let cfg = FleetConfig::new(4, ShardStrategy::OutputChannel)
            .with_core_deaths(Some(crate::fault::CoreDeathConfig::new(21, 200_000)));
        let chaotic = Fleet::try_new(net, cfg).unwrap();
        let run = chaotic.run(std::slice::from_ref(&input)).unwrap();
        assert!(run.report.core_deaths > 0, "campaign must fire");
        assert!(run.report.reshards > 0);
        assert_eq!(run.outputs, clean.outputs, "recovery must be byte-exact");
        assert_eq!(run.report.output_digest, clean.report.output_digest);
        assert!(run.report.latency_cycles > clean.report.latency_cycles);
        // Determinism: same campaign, same bytes and counters.
        let again = chaotic.run(std::slice::from_ref(&input)).unwrap();
        assert_eq!(run.report, again.report);
    }

    #[test]
    fn act_atom_counts_match_compression() {
        use atomstream::compress::compress_activations;
        use atomstream::flatten::FlatActivation;
        let (_, input) = compiled_and_input(17);
        let atoms = act_atoms_per_channel(&input, 8, AtomBits::B2);
        let (_, h, w) = input.shape();
        for (ci, &expected) in atoms.iter().enumerate() {
            let flat: Vec<FlatActivation> = (0..h)
                .flat_map(|y| (0..w).map(move |x| (y, x)))
                .filter_map(|(y, x)| {
                    let value = input.get(ci, y, x);
                    (value != 0).then_some(FlatActivation {
                        value,
                        x: x as u16,
                        y: y as u16,
                    })
                })
                .collect();
            let stream = compress_activations(&flat, 8, AtomBits::B2).unwrap();
            assert_eq!(expected, stream.len() as u64, "channel {ci}");
        }
    }

    #[test]
    fn retained_arenas_reach_a_zero_allocation_steady_state() {
        let (net, first) = compiled_and_input(31);
        let (_, second) = compiled_and_input(37);
        let session = Session::new(net.clone());
        let reference = |input: &Tensor3| session.run(input).unwrap().output;
        for strategy in [ShardStrategy::OutputChannel, ShardStrategy::Hybrid(2)] {
            for threads in [1, 3] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let fleet = Fleet::try_new(net.clone(), FleetConfig::new(4, strategy)).unwrap();
                assert_eq!(fleet.scratch_plane_allocations(), 0);
                let inputs = vec![first.clone(), second.clone()];
                let run = pool.install(|| fleet.run(&inputs).unwrap());
                let warm = fleet.scratch_plane_allocations();
                assert!(warm > 0, "{strategy}: the shard arenas are in use");
                // New inputs through warm arenas: no plane is allocated.
                let swapped = vec![second.clone(), first.clone()];
                let again = pool.install(|| fleet.run(&swapped).unwrap());
                assert_eq!(
                    fleet.scratch_plane_allocations(),
                    warm,
                    "{strategy} at {threads} threads"
                );
                assert_eq!(run.outputs, [reference(&first), reference(&second)]);
                assert_eq!(again.outputs, [reference(&second), reference(&first)]);
            }
        }
    }

    /// The element-wise reassembly `assemble` replaced, kept as its oracle.
    fn assemble_elementwise(
        slot_out: &[Option<Tensor3>],
        channels: &[Vec<usize>],
        value_bits: u64,
    ) -> (Tensor3, Vec<u64>) {
        let (_, h, w) = slot_out.iter().flatten().next().unwrap().shape();
        let total_c: usize = channels.iter().map(Vec::len).sum();
        let mut next = Tensor3::zeros(total_c, h, w).unwrap();
        let mut slice_bits = vec![0u64; slot_out.len()];
        for (slot, out) in slot_out.iter().enumerate() {
            let Some(out) = out else { continue };
            for (local, &global) in channels[slot].iter().enumerate() {
                for y in 0..h {
                    for x in 0..w {
                        let v = out.get(local, y, x);
                        if v != 0 {
                            next.set(global, y, x, v);
                            slice_bits[slot] += value_bits + COO_META_BITS;
                        }
                    }
                }
            }
        }
        (next, slice_bits)
    }

    #[test]
    fn assemble_matches_elementwise_reassembly() {
        // Four slots over seven channels; slot 2 idles (more slots than
        // channels in its share), slot 3 is dead.
        let channels = vec![vec![0, 4], vec![1, 3, 6], vec![], vec![2, 5]];
        let slot_out: Vec<Option<Tensor3>> = channels
            .iter()
            .enumerate()
            .map(|(slot, group)| {
                (!group.is_empty()).then(|| {
                    Tensor3::from_fn(group.len(), 3, 5, |c, y, x| {
                        ((slot * 11 + c * 7 + y * 3 + x) % 5) as i32 * 13
                    })
                    .unwrap()
                })
            })
            .collect();
        let mut dead = slot_out.clone();
        dead[3] = None;
        for outs in [&slot_out, &dead] {
            let (next, bits) = assemble(outs, &channels, 8).unwrap();
            assert_eq!((next, bits), assemble_elementwise(outs, &channels, 8));
        }
    }

    #[test]
    fn invalid_fleet_configs_are_typed_errors() {
        use crate::config::ConfigError;
        let (net, _) = compiled_and_input(19);
        let err =
            Fleet::try_new(net.clone(), FleetConfig::new(0, ShardStrategy::Batch)).unwrap_err();
        assert_eq!(err, EngineError::Config(ConfigError::ZeroCores));
        let err = Fleet::try_new(net, FleetConfig::new(4, ShardStrategy::Hybrid(3))).unwrap_err();
        assert_eq!(
            err,
            EngineError::Config(ConfigError::InvalidReplicas {
                replicas: 3,
                cores: 4
            })
        );
    }

    #[test]
    fn hybrid_with_more_replicas_than_cores_is_a_typed_error() {
        use crate::config::ConfigError;
        let (net, _) = compiled_and_input(23);
        // R > cores can never divide the core count, so the degenerate
        // "replica groups with zero cores" plan is unreachable: validation
        // rejects it up front with a typed error naming both numbers.
        for replicas in [5, 8, 1000] {
            let err = Fleet::try_new(
                net.clone(),
                FleetConfig::new(4, ShardStrategy::Hybrid(replicas)),
            )
            .unwrap_err();
            assert_eq!(
                err,
                EngineError::Config(ConfigError::InvalidReplicas { replicas, cores: 4 }),
                "Hybrid({replicas}) on 4 cores"
            );
        }
        // R == cores is the legal degenerate end of the axis: group size 1,
        // i.e. plain batch parallelism.
        let (net, _) = compiled_and_input(23);
        let cfg = FleetConfig::new(4, ShardStrategy::Hybrid(4));
        assert_eq!(cfg.group_size(), 1);
        assert!(Fleet::try_new(net, cfg).is_ok());
    }

    /// A network whose middle layer has a single output channel — fewer
    /// channels than any multi-core fleet has slots.
    fn one_channel_model(seed: u64) -> (NetworkModel, Tensor3) {
        let mut gen = WorkloadGen::new(seed);
        let wp = WeightProfile::benchmark(BitWidth::W4);
        let geom = qnn::conv::ConvGeometry {
            stride: 1,
            padding: 1,
        };
        let mk = |name: &str, out_c: usize, in_c: usize, gen: &mut WorkloadGen| {
            crate::pipeline::PipelineLayer {
                name: name.to_string(),
                kernels: gen.weights(out_c, in_c, 3, 3, &wp).unwrap(),
                geom,
                w_bits: wp.bits,
                a_bits: BitWidth::W8,
                requant_shift: 5,
                out_bits: 8,
                pool: None,
            }
        };
        let layers = vec![
            mk("wide", 6, 3, &mut gen),
            mk("bottleneck", 1, 6, &mut gen),
            mk("head", 4, 1, &mut gen),
        ];
        let model = NetworkModel::new("one-channel", (3, 8, 8), layers);
        let input = gen
            .activations(3, 8, 8, &ActivationProfile::new(BitWidth::W8))
            .unwrap();
        (model, input)
    }

    #[test]
    fn more_cores_than_output_channels_degrades_deterministically() {
        // A 1-output-channel layer sharded across 4 (and 8) cores: the LPT
        // partition leaves most slots empty. That must not panic or
        // produce a degenerate plan — empty slots idle through the layer
        // and the assembled bytes stay identical to the single-core
        // session.
        let (model, input) = one_channel_model(29);
        let net = compile(&model, &RistrettoConfig::paper_default()).unwrap();
        let reference = Session::new(net.clone()).run(&input).unwrap().output;
        for cores in [2, 4, 8] {
            let fleet = Fleet::try_new(
                net.clone(),
                FleetConfig::new(cores, ShardStrategy::OutputChannel),
            )
            .unwrap();
            // The plan still exactly partitions every layer; the
            // bottleneck layer's single channel lands in exactly one slot.
            assert!(fleet.plan().verify(&net), "{cores} cores");
            let occupied: usize = fleet.plan().layers[1]
                .iter()
                .filter(|g| !g.is_empty())
                .count();
            assert_eq!(occupied, 1, "{cores} cores");
            let run = fleet.run(std::slice::from_ref(&input)).unwrap();
            assert_eq!(run.outputs[0], reference, "{cores} cores");
            // Determinism: a second pass reproduces the report bytes.
            let again = fleet.run(std::slice::from_ref(&input)).unwrap();
            assert_eq!(run.report, again.report, "{cores} cores");
        }
    }
}
