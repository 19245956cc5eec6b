//! The serve-steady and serve-chaos workloads: a seeded closed loop in
//! virtual time driven through `Server::{submit, step, next_event}`.
//!
//! The benchmark runs its own closed loop (the program's load generator
//! hides the host time of each step). Every input tensor, model pick,
//! think time and retry jitter is generated from `--seed` before the timed
//! phase. Each fresh request is identified by the benchmark's own
//! `(client, attempt)`; the program keys served outputs by `(client, seq)`
//! where `seq` counts admissions, so every admission records which
//! attempt it carried and outputs are checked under the benchmark's key.

use crate::calib::{between_slices, Calibrator};
use crate::metrics::Outcome;
use crate::probe::LayerProbe;
use crate::trace::Tracer;
use crate::util::{
    median, ms, nearest_rank, ratio, report_windows, site, tensor_digest, us, Window,
};
use bench::experiments::engine_batch::benchmark_models;
use bench::serve_cli::{CHAOS_CORE_DEATH_PPM, CHAOS_PPM, RETRY_BASE_TICKS};
use qnn::quant::BitWidth;
use qnn::tensor::Tensor3;
use qnn::workload::{ActivationProfile, WorkloadGen};
use ristretto_sim::config::RistrettoConfig;
use ristretto_sim::engine::{compile, NetworkModel, Session};
use ristretto_sim::fault::{CoreDeathConfig, FaultConfig};
use ristretto_sim::serve::{
    Completion, Disposition, ModelId, ModelRegistry, ServeConfig, ServeError, Server, ServerStats,
    SloClass,
};
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// Per-client arrival rate in requests per million ticks (`repro serve`
/// default).
pub const LAMBDA_PER_MTICK: u64 = 50;
/// Most requests one dispatch coalesces (`repro serve` default).
pub const MAX_BATCH: usize = 8;
/// Longest an undersized batch waits, in ticks (`repro serve` default).
pub const MAX_WAIT_TICKS: u64 = 10_000;

const SALT_THINK: u64 = 0x7417;
const SALT_MODEL: u64 = 0x40D1;
const SALT_INPUT: u64 = 0x1A9D;
const SALT_JITTER: u64 = 0x52E7;
const SALT_SCHEDULE: u64 = 0x5C4E;

/// Load and policy of one serving workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSpec {
    /// Attach the fault campaign, core deaths and the quiescent twin.
    pub chaos: bool,
    /// Closed-loop clients; client `c` belongs to tenant `c % tenants`.
    pub clients: usize,
    /// Fresh requests per client per session.
    pub requests: usize,
    /// Bound on admitted-but-not-dispatched requests.
    pub queue_cap: usize,
    /// Relative deadline per request, in ticks.
    pub deadline: Option<u64>,
    /// SLO class per tenant.
    pub classes: Vec<SloClass>,
    /// Brownout high-water mark, permille of the queue bound.
    pub brownout: u16,
    /// Retries per request after a rejection.
    pub retry_budget: u32,
    /// Distinct schedules a run cycles through; the simulated metrics
    /// cover one session of each, so they average over this many draws
    /// of the seeded load.
    pub schedules: usize,
}

impl ServeSpec {
    /// The happy path: `repro serve` defaults with the queue sized to the
    /// client count, so a closed loop can never be rejected.
    pub fn steady() -> Self {
        Self {
            chaos: false,
            clients: 64,
            requests: 40,
            queue_cap: 64,
            deadline: None,
            classes: vec![SloClass::Interactive, SloClass::Batch],
            brownout: 1000,
            retry_budget: 0,
            schedules: 4,
        }
    }

    /// Overload under chaos: the `repro serve --clients 96 --requests 20
    /// --queue-cap 32 --deadline 60000 --slo-class
    /// interactive,batch,best-effort --brownout 500 --retry-budget 3
    /// --chaos` load.
    pub fn chaos() -> Self {
        Self {
            chaos: true,
            clients: 96,
            requests: 20,
            queue_cap: 32,
            deadline: Some(60_000),
            classes: vec![SloClass::Interactive, SloClass::Batch, SloClass::BestEffort],
            brownout: 500,
            retry_budget: 3,
            schedules: 3,
        }
    }

    /// The serving policy (the `repro serve` defaults for everything the
    /// spec does not set).
    pub fn serve_config(&self, seed: u64, chaos: bool) -> ServeConfig {
        ServeConfig {
            max_batch: MAX_BATCH,
            max_wait_ticks: MAX_WAIT_TICKS,
            queue_capacity: self.queue_cap,
            tenant_weights: vec![1; self.classes.len()],
            tenant_classes: self.classes.clone(),
            brownout_permille: self.brownout,
            fleet_cores: 4,
            fleet_batch_threshold: 4,
            breaker_threshold: 2,
            breaker_cooldown_ticks: 50_000,
            core_deaths: chaos.then(|| CoreDeathConfig::new(seed ^ 0xD1E5, CHAOS_CORE_DEATH_PPM)),
        }
    }

    /// The architecture configuration: clean, or with the `--chaos`
    /// uniform campaign (detect and recover on).
    pub fn ristretto_config(&self, seed: u64, chaos: bool) -> RistrettoConfig {
        let cfg = RistrettoConfig::paper_default();
        if chaos {
            cfg.with_faults(Some(
                FaultConfig::uniform(seed ^ 0xC4A05, CHAOS_PPM)
                    .with_detect(true)
                    .with_recover(true),
            ))
        } else {
            cfg
        }
    }
}

/// One fresh request of one client: its model, the think time before it
/// is offered and its input.
#[derive(Debug, Clone, PartialEq)]
pub struct Attempt {
    /// Index into the registered models.
    pub model: usize,
    /// Ticks between the client's previous completion and this offer.
    pub think: u64,
    /// The input tensor.
    pub input: Tensor3,
}

/// Every client's requests, generated from the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Seed the schedule derives from.
    pub seed: u64,
    /// `clients[c][a]` is attempt `a` of client `c`.
    pub clients: Vec<Vec<Attempt>>,
    /// Host ns spent generating each input tensor.
    pub activation_ns: Vec<u64>,
}

impl Schedule {
    /// Generates the schedule for `spec` over models with the given input
    /// shapes.
    ///
    /// # Errors
    /// Input generation failures, rendered.
    pub fn generate(
        seed: u64,
        spec: &ServeSpec,
        shapes: &[(usize, usize, usize)],
    ) -> Result<Self, String> {
        let mean_think = 1_000_000 / LAMBDA_PER_MTICK;
        let profile = ActivationProfile::new(BitWidth::W8);
        let mut activation_ns = Vec::new();
        let mut clients = Vec::with_capacity(spec.clients);
        for c in 0..spec.clients as u64 {
            let mut attempts = Vec::with_capacity(spec.requests);
            for a in 0..spec.requests as u64 {
                let model = (site(seed, c, a, SALT_MODEL) % shapes.len() as u64) as usize;
                let think = 1 + site(seed, c, a, SALT_THINK) % (2 * mean_think.max(1));
                let (ch, h, w) = shapes[model];
                let t0 = Instant::now();
                let input = WorkloadGen::new(site(seed, c, a, SALT_INPUT))
                    .activations(ch, h, w, &profile)
                    .map_err(|e| format!("input ({c}, {a}): {e}"))?;
                activation_ns.push(t0.elapsed().as_nanos() as u64);
                attempts.push(Attempt {
                    model,
                    think,
                    input,
                });
            }
            clients.push(attempts);
        }
        Ok(Self {
            seed,
            clients,
            activation_ns,
        })
    }

    /// Backoff before retry `k` (1-based) of attempt `a` of client `c`,
    /// offered at `now` with the server's `retry_after` hint: the
    /// load generator's rule (`base << (k−1)` plus jitter in `[0, base)`,
    /// floored at the hint, at least one tick).
    pub fn backoff(&self, c: usize, a: usize, k: u32, now: u64, after: u64) -> u64 {
        let base = RETRY_BASE_TICKS.max(1);
        let jitter = site(
            self.seed,
            c as u64,
            ((a as u64) << 8) | k as u64,
            SALT_JITTER,
        ) % base;
        (base << k.saturating_sub(1).min(16))
            .saturating_add(jitter)
            .max(after.saturating_sub(now))
            .max(1)
    }
}

/// What one closed-loop session did, under the benchmark's own request
/// identity.
#[derive(Debug, Default, Clone)]
pub struct SessionLog {
    /// Client tags of this session are `tag_base + c`.
    pub tag_base: u64,
    /// Index of the schedule the session ran.
    pub schedule: usize,
    /// `(client tag, seq)` → `(client, attempt)` for every admission: the
    /// program's `seq` counts admissions, the benchmark's key is the
    /// attempt.
    pub admitted: HashMap<(u64, u64), (usize, usize)>,
    /// Request id → `(client, attempt)` (batch membership for replays).
    pub by_request: HashMap<u64, (usize, usize)>,
    /// Fresh requests offered.
    pub fresh: u64,
    /// Requests served.
    pub served: u64,
    /// Requests shed at dispatch.
    pub shed: u64,
    /// Requests abandoned after their last rejection.
    pub exhausted: u64,
    /// Rejections (each offer refused, retried or not).
    pub rejected: u64,
    /// Client retries.
    pub retries: u64,
    /// Host ns of each `Server::step` that dispatched a batch.
    pub dispatch_ns: Vec<u64>,
    /// Host ns of the whole session.
    pub wall_ns: u64,
}

impl SessionLog {
    /// Records an admission: `seq` is the client's admission count before
    /// this one, exactly as the server assigns it.
    pub fn admit(&mut self, tag: u64, seq: u64, id: u64, client: usize, attempt: usize) {
        self.admitted.insert((tag, seq), (client, attempt));
        self.by_request.insert(id, (client, attempt));
    }

    /// Served output digests of this session keyed by `(client,
    /// attempt)`, read off the server's `(client, seq, digest)` records.
    pub fn digests_by_attempt(&self, stats: &ServerStats) -> BTreeMap<(usize, usize), u64> {
        stats
            .request_digests
            .iter()
            .filter_map(|&(tag, seq, d)| self.admitted.get(&(tag, seq)).map(|&k| (k, d)))
            .collect()
    }
}

#[derive(Debug, Clone)]
struct Client {
    next: Option<u64>,
    attempt: usize,
    retry_idx: u32,
    retries_left: u32,
    seq: u64,
}

/// Called after each step with its completions.
pub type StepHook<'h> =
    dyn FnMut(&Server, &[Completion], &SessionLog, &mut Tracer) -> Result<(), String> + 'h;

/// Runs one closed-loop session on `server` until every client retires
/// and the server drains. Client `c` submits under tag `tag_base + c`.
///
/// # Errors
/// Execution failures underneath the server, rendered.
pub fn run_session(
    server: &mut Server,
    sched: &Schedule,
    spec: &ServeSpec,
    ids: &[ModelId],
    tag_base: u64,
    tracer: &mut Tracer,
    hook: &mut StepHook<'_>,
) -> Result<SessionLog, String> {
    let wall = Instant::now();
    let tenants = spec.classes.len();
    let start = server.stats().last_finish;
    let mut log = SessionLog {
        tag_base,
        ..SessionLog::default()
    };
    let mut clients: Vec<Client> = sched
        .clients
        .iter()
        .map(|atts| Client {
            next: atts.first().map(|a| start + a.think),
            attempt: 0,
            retry_idx: 0,
            retries_left: spec.retry_budget,
            seq: 0,
        })
        .collect();
    let retire = |st: &mut Client, c: usize, at: u64| {
        st.attempt += 1;
        st.retry_idx = 0;
        st.retries_left = spec.retry_budget;
        st.next = sched.clients[c].get(st.attempt).map(|a| at + a.think);
    };
    loop {
        let next_submit = clients
            .iter()
            .enumerate()
            .filter_map(|(c, st)| st.next.map(|t| (t, c)))
            .min();
        let span = tracer.enter("server.next_event", None);
        let next_server = server.next_event();
        tracer.exit(span);
        match (next_submit, next_server) {
            (None, None) => break,
            // Server events run first on ties: completions free lanes and
            // wake clients before new arrivals.
            (submit, Some(ts)) if submit.is_none_or(|(t, _)| ts <= t) => {
                let before = server.stats().batches;
                let span = tracer.enter("server.step", None);
                let t0 = Instant::now();
                let done = server.step().map_err(|e| format!("step: {e}"))?;
                let dt = t0.elapsed().as_nanos() as u64;
                tracer.exit(span);
                if server.stats().batches > before {
                    log.dispatch_ns.push(dt);
                    tracer.rename(span, "server.step.dispatch");
                }
                for comp in &done {
                    let c = (comp.client - tag_base) as usize;
                    match comp.disposition {
                        Disposition::Served => log.served += 1,
                        Disposition::DeadlineExceeded { .. } => log.shed += 1,
                    }
                    retire(&mut clients[c], c, comp.finish);
                }
                hook(server, &done, &log, tracer)?;
            }
            (Some((t, c)), _) => {
                let st = &mut clients[c];
                if st.retry_idx == 0 {
                    log.fresh += 1;
                }
                let a = st.attempt;
                st.next = None;
                let att = &sched.clients[c][a];
                let tag = tag_base + c as u64;
                let deadline = spec.deadline.map(|d| t.saturating_add(d));
                let input = att.input.clone();
                let span = tracer.enter("server.submit", Some(tag << 32 | a as u64));
                let res = server.submit(t, ids[att.model], c % tenants, tag, input, deadline);
                tracer.exit(span);
                match res {
                    Ok(id) => {
                        log.admit(tag, st.seq, id, c, a);
                        st.seq += 1;
                    }
                    Err(
                        ServeError::Rejected { retry_after, .. }
                        | ServeError::BrownedOut { retry_after, .. },
                    ) => {
                        log.rejected += 1;
                        if st.retries_left > 0 {
                            st.retries_left -= 1;
                            st.retry_idx += 1;
                            log.retries += 1;
                            st.next = Some(t + sched.backoff(c, a, st.retry_idx, t, retry_after));
                        } else {
                            log.exhausted += 1;
                            retire(st, c, t);
                        }
                    }
                    Err(e) => return Err(format!("submit: {e}")),
                }
            }
            (None, Some(_)) => unreachable!("covered by the server-event arm"),
        }
    }
    log.wall_ns = wall.elapsed().as_nanos() as u64;
    Ok(log)
}

/// A registered server plus its schedules and set-up timings.
struct Setup {
    server: Server,
    ids: Vec<ModelId>,
    scheds: Vec<Schedule>,
    models: Vec<(String, NetworkModel)>,
    register_ns: u64,
}

fn setup(spec: &ServeSpec, seed: u64, chaos: bool) -> Result<Setup, String> {
    let models = benchmark_models(true);
    let cfg = spec.ristretto_config(seed, chaos);
    let scfg = spec.serve_config(seed, chaos);
    let mut registry = ModelRegistry::new(None);
    let t_reg = Instant::now();
    let ids = models
        .iter()
        .map(|(name, m)| {
            registry
                .register(m, &cfg, &scfg)
                .map_err(|e| format!("registering {name}: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let register_ns = t_reg.elapsed().as_nanos() as u64;
    let shapes: Vec<_> = models.iter().map(|(_, m)| m.input).collect();
    let server = Server::new(registry, scfg).map_err(|e| format!("serve config: {e}"))?;
    let scheds = (0..spec.schedules as u64)
        .map(|k| Schedule::generate(site(seed, k, 0, SALT_SCHEDULE), spec, &shapes))
        .collect::<Result<_, _>>()?;
    Ok(Setup {
        server,
        ids,
        scheds,
        models,
        register_ns,
    })
}

/// Runs a serving workload: `SETUPS` set-ups, the timed sessions, then the
/// untimed output checks (and, in a traced run, the traced session).
///
/// # Errors
/// Set-up and execution failures, rendered.
pub fn run(
    spec: &ServeSpec,
    seed: u64,
    seconds: u64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..crate::SETUPS {
        let (s, secs, calib) = between_slices(|| setup(spec, seed, spec.chaos));
        setups.push(secs * calib.scale());
        last = Some(s?);
    }
    let Setup {
        mut server,
        ids,
        scheds,
        models,
        register_ns,
        ..
    } = last.expect("at least one set-up");
    out.set("setup_s", median(&setups));

    // Timed phase: whole sessions until the budget is spent, at least one
    // per schedule. The first `schedules` sessions run from a fresh server,
    // so their simulated results depend on the seed alone; later sessions
    // add host-time samples.
    let mut noop = |_: &Server, _: &[Completion], _: &SessionLog, _: &mut Tracer| Ok(());
    let mut off = Tracer::new(false);
    let budget = Duration::from_secs(seconds);
    let t0 = Instant::now();
    let mut logs = Vec::new();
    let mut windows = Vec::new();
    let mut first: Option<ServerStats> = None;
    while logs.len() < spec.schedules || t0.elapsed() < budget {
        let k = logs.len() % spec.schedules;
        let tag_base = (logs.len() * spec.clients) as u64;
        // Calibration slices run between steps; their time is taken out
        // of the session's.
        let mut cal = Calibrator::new();
        let mut slices_ns = 0u64;
        let mut calibrate = |_: &Server, _: &[Completion], _: &SessionLog, _: &mut Tracer| {
            slices_ns += cal.tick();
            Ok(())
        };
        let mut log = run_session(
            &mut server,
            &scheds[k],
            spec,
            &ids,
            tag_base,
            &mut off,
            &mut calibrate,
        )?;
        log.schedule = k;
        windows.push(Window {
            ops: log.served,
            ns: log.wall_ns - slices_ns,
            dispatch_ns: log.dispatch_ns.clone(),
            calib: cal.calib,
        });
        logs.push(log);
        if logs.len() == spec.schedules {
            first = Some(server.stats().clone());
        }
    }
    let first = first.expect("every schedule ran");
    let served: u64 = logs.iter().map(|l| l.served).sum();
    report_windows(&windows, out);
    let lat: Vec<f64> = first.latencies.iter().map(|&t| t as f64).collect();
    out.set("sim_p99_ticks", nearest_rank(&lat, 99.0));
    out.set("sim_makespan_cycles", first.last_finish as f64);
    out.set(
        "sim_goodput_per_mtick",
        ratio(first.served as f64 * 1e6, first.last_finish as f64),
    );

    // Output checks (untimed): every served output of every session
    // against a 1-core `Session::run` of the same input on the clean
    // network, keyed by the benchmark's `(schedule, client, attempt)`.
    let clean_cfg = spec.ristretto_config(seed, false);
    let sessions: Vec<Session> = models
        .iter()
        .map(|(name, m)| {
            compile(m, &clean_cfg)
                .map(Session::new)
                .map_err(|e| format!("compiling {name}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let mut reference: HashMap<(usize, usize, usize), u64> = HashMap::new();
    let mut reference_digest = |k: usize, c: usize, a: usize| -> Result<u64, String> {
        if let Some(&d) = reference.get(&(k, c, a)) {
            return Ok(d);
        }
        let att = &scheds[k].clients[c][a];
        let run = sessions[att.model]
            .run(&att.input)
            .map_err(|e| format!("reference ({k}, {c}, {a}): {e}"))?;
        let d = tensor_digest(&run.output);
        reference.insert((k, c, a), d);
        Ok(d)
    };
    let stats = server.stats();
    let mut mismatched = 0u64;
    let mut checked = 0u64;
    for (i, log) in logs.iter().enumerate() {
        let tags = log.tag_base..log.tag_base + spec.clients as u64;
        let mut mine = 0u64;
        for &(tag, seq, d) in &stats.request_digests {
            if !tags.contains(&tag) {
                continue;
            }
            mine += 1;
            let Some(&(c, a)) = log.admitted.get(&(tag, seq)) else {
                return Err(format!(
                    "session {i}: served (client {tag}, seq {seq}) was never admitted"
                ));
            };
            checked += 1;
            if reference_digest(log.schedule, c, a)? != d {
                mismatched += 1;
            }
        }
        if mine != log.served {
            return Err(format!(
                "session {i}: {mine} served digests for {} completions",
                log.served
            ));
        }
    }
    out.set("bench.checked_outputs", checked as f64);

    // The quiescent twin (chaos only): the same schedule on clean models,
    // compared per `(client, attempt)` served by both. The program's own
    // witness keys by `(client, seq)`; how often that key pairs different
    // requests is reported alongside.
    let (mut true_mismatch, mut seq_mismatch) = (0u64, 0u64);
    if spec.chaos {
        let mut twin = setup(spec, seed, false)?;
        let twin_log = run_session(
            &mut twin.server,
            &twin.scheds[0],
            spec,
            &twin.ids,
            0,
            &mut off,
            &mut noop,
        )?;
        let twin_by_attempt = twin_log.digests_by_attempt(twin.server.stats());
        let chaos_by_attempt = logs[0].digests_by_attempt(&first);
        let session0 = spec.clients as u64;
        for (k, d) in &chaos_by_attempt {
            if twin_by_attempt.get(k).is_some_and(|t| t != d) {
                true_mismatch += 1;
            }
        }
        let twin_by_seq: HashMap<(u64, u64), u64> = twin
            .server
            .stats()
            .request_digests
            .iter()
            .map(|&(c, s, d)| ((c, s), d))
            .collect();
        for &(c, s, d) in first.request_digests.iter().filter(|r| r.0 < session0) {
            if twin_by_seq.get(&(c, s)).is_some_and(|&t| t != d) {
                seq_mismatch += 1;
            }
        }
    }
    out.set("twin.true_mismatches", true_mismatch as f64);
    out.set("twin.seq_key_mismatches", seq_mismatch as f64);

    let fresh: u64 = logs.iter().map(|l| l.fresh).sum();
    let not_served: u64 = logs.iter().map(|l| l.shed + l.exhausted).sum();
    let failed_ops = not_served + mismatched + true_mismatch;
    out.attempted = fresh;
    out.failed = mismatched + true_mismatch;
    out.correct = out.failed == 0 && fresh == served + not_served;
    out.set("ok_share", 1.0 - failed_ops as f64 / fresh.max(1) as f64);

    // Per-layer counters from the first session of every schedule
    // (returned structs only).
    let firsts = &logs[..spec.schedules];
    let batches = first.batches.max(1) as f64;
    let filled: u64 = first
        .batch_histogram
        .iter()
        .enumerate()
        .map(|(k, &n)| (k as u64 + 1) * n)
        .sum();
    out.set("server.dispatches", first.batches as f64);
    out.set(
        "server.batch_fill",
        filled as f64 / batches / MAX_BATCH as f64,
    );
    out.set("server.fleet_share", first.fleet_batches as f64 / batches);
    out.set(
        "server.rejected",
        firsts.iter().map(|l| l.rejected).sum::<u64>() as f64,
    );
    out.set(
        "server.shed",
        firsts.iter().map(|l| l.shed).sum::<u64>() as f64,
    );
    out.set(
        "server.retries",
        firsts.iter().map(|l| l.retries).sum::<u64>() as f64,
    );
    out.set("server.breaker_trips", first.breaker_trips as f64);
    out.set("fault.injected", first.faults_injected as f64);
    out.set("fault.detected", first.faults_detected as f64);
    out.set("fault.penalty_ticks", first.fault_penalty_ticks as f64);
    out.set("registry.register_ms", ms(register_ns));
    out.set(
        "workload.activations_us",
        median(
            &scheds
                .iter()
                .flat_map(|s| s.activation_ns.iter().map(|&ns| us(ns)))
                .collect::<Vec<_>>(),
        ),
    );

    if tracer.on() {
        traced(
            spec,
            seed,
            &mut server,
            &scheds[0],
            &ids,
            &models,
            &sessions,
            logs.len(),
            tracer,
            out,
        )?;
    }
    Ok(())
}

/// The traced part of a serving run: compile timing, one untraced and one
/// traced session on the warm server, layer-by-layer replay of every
/// dispatched batch, and the chaos-over-clean `Session::run` cost.
#[allow(clippy::too_many_arguments)]
fn traced(
    spec: &ServeSpec,
    seed: u64,
    server: &mut Server,
    sched: &Schedule,
    ids: &[ModelId],
    models: &[(String, NetworkModel)],
    clean: &[Session],
    sessions_done: usize,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let cfg = spec.ristretto_config(seed, spec.chaos);
    let t0 = Instant::now();
    for (name, m) in models {
        let span = tracer.enter(&format!("engine.compile/{name}"), None);
        compile(m, &cfg).map_err(|e| format!("compiling {name}: {e}"))?;
        tracer.exit(span);
    }
    out.set("engine.compile_ms", ms(t0.elapsed().as_nanos() as u64));

    let mut noop = |_: &Server, _: &[Completion], _: &SessionLog, _: &mut Tracer| Ok(());
    let mut off = Tracer::new(false);
    let mut tag_base = (sessions_done * spec.clients) as u64;
    let t0 = Instant::now();
    let base = run_session(server, sched, spec, ids, tag_base, &mut off, &mut noop)?;
    let untraced_ns = t0.elapsed().as_nanos() as u64;
    tag_base += spec.clients as u64;

    let nets: Vec<_> = ids
        .iter()
        .zip(models)
        .map(|(&id, (_, m))| {
            server
                .registry()
                .get(id)
                .map(|e| (e.net.clone(), m))
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let mut probe = LayerProbe::new(&nets);
    let threshold = server.config().fleet_batch_threshold;
    let (mut link_bits, mut idle, mut busy) = (0u64, 0u64, 0u64);
    let mut replay = |srv: &Server,
                      done: &[Completion],
                      log: &SessionLog,
                      tracer: &mut Tracer|
     -> Result<(), String> {
        // A batch is the served completions of one model finishing on one
        // tick (a lane runs one batch at a time).
        let mut batches: BTreeMap<(usize, u64), Vec<u64>> = BTreeMap::new();
        for c in done.iter().filter(|c| c.disposition == Disposition::Served) {
            batches
                .entry((c.model.0, c.finish))
                .or_default()
                .push(c.request);
        }
        for ((m, _), reqs) in batches {
            let r0 = Instant::now();
            let entry = srv.registry().get(ModelId(m)).map_err(|e| e.to_string())?;
            let keys: Vec<(usize, usize)> = reqs.iter().map(|r| log.by_request[r]).collect();
            let inputs: Vec<&Tensor3> = keys
                .iter()
                .map(|&(c, a)| &sched.clients[c][a].input)
                .collect();
            let lane = match &entry.fleet {
                Some(f) if inputs.len() >= threshold => f,
                _ => &entry.lane,
            };
            let span = tracer.enter("fleet.run_with", None);
            let run = lane
                .run_with(&inputs, entry.net.config().faults)
                .map_err(|e| format!("replay: {e}"))?;
            tracer.exit(span);
            link_bits += run.report.link_bits;
            idle += run.report.idle_cycles;
            busy += run.report.busy_cycles;
            let model = ids
                .iter()
                .position(|id| id.0 == m)
                .expect("registered model");
            probe.replay_ns += r0.elapsed().as_nanos() as u64;
            for (&req, input) in reqs.iter().zip(&inputs) {
                probe.replay(model, input, Some(req), tracer)?;
            }
        }
        Ok(())
    };
    let t0 = Instant::now();
    let traced_log = run_session(server, sched, spec, ids, tag_base, tracer, &mut replay)?;
    let traced_total_ns = t0.elapsed().as_nanos() as u64;
    let traced_ns = traced_total_ns.saturating_sub(probe.replay_ns);
    // Steady state: every served input once more, after the arenas have
    // seen the whole working set.
    probe.mark_warm();
    for &(c, a) in traced_log.digests_by_attempt(server.stats()).keys() {
        let att = &sched.clients[c][a];
        probe.replay(att.model, &att.input, None, tracer)?;
    }

    let per_op = |ns: u64, ops: u64| ns as f64 / ops.max(1) as f64;
    out.set(
        "trace.overhead",
        ratio(
            per_op(traced_ns, traced_log.served),
            per_op(untraced_ns, base.served),
        ),
    );
    let by = tracer.durations_by_name();
    let self_by = tracer.self_by_name();
    let us_of = |v: Option<&Vec<u64>>| {
        v.map_or(0.0, |v| {
            median(&v.iter().map(|&ns| us(ns)).collect::<Vec<_>>())
        })
    };
    out.set("server.submit_us_p50", us_of(by.get("server.submit")));
    out.set(
        "server.step_self_ms",
        us_of(self_by.get("server.step.dispatch")) / 1e3,
    );
    out.set("fleet.run_ms", us_of(by.get("fleet.run_with")) / 1e3);
    out.set("fleet.link_bits", link_bits as f64);
    out.set("fleet.idle_cycles", idle as f64);
    out.set(
        "fleet.utilization_permille",
        ratio(busy as f64 * 1000.0, (busy + idle) as f64),
    );
    probe.report(tracer, out);
    if probe.kernel_mismatches > 0 || probe.steady_allocs() > 0 {
        out.correct = false;
    }

    // Fault campaign cost: chaos over clean `Session::run`, same inputs.
    if spec.chaos {
        let chaos_sessions: Vec<Session> =
            nets.iter().map(|(n, _)| Session::new(n.clone())).collect();
        let (mut chaos_ns, mut clean_ns) = (0u64, 0u64);
        for atts in sched.clients.iter().take(16) {
            for att in atts.iter().take(4) {
                let span = tracer.enter("engine.run.chaos", None);
                let t = Instant::now();
                let a = chaos_sessions[att.model]
                    .run(&att.input)
                    .map_err(|e| e.to_string())?;
                chaos_ns += t.elapsed().as_nanos() as u64;
                tracer.exit(span);
                let span = tracer.enter("engine.run.clean", None);
                let t = Instant::now();
                let b = clean[att.model]
                    .run(&att.input)
                    .map_err(|e| e.to_string())?;
                clean_ns += t.elapsed().as_nanos() as u64;
                tracer.exit(span);
                if a.output != b.output {
                    out.correct = false;
                }
            }
        }
        out.set(
            "fault.host_overhead",
            ratio(chaos_ns as f64, clean_ns as f64),
        );
    }
    Ok(())
}
