//! The benchmark's own invariants: seeded inputs, the seq→attempt
//! mapping, the percentile helper, the span self times and the metric
//! catalogue.

use perfbench::metrics::{end_to_end, per_layer, Outcome};
use perfbench::offline;
use perfbench::serve::{run_session, Schedule, ServeSpec, SessionLog};
use perfbench::trace::Tracer;
use perfbench::util::{nearest_rank, tensor_digest, valid_metric_name};
use perfbench::{parse_args, WORKLOADS};
use ristretto_sim::engine::{compile, Session};
use ristretto_sim::serve::{Completion, ModelRegistry, Server, ServerStats};
use std::collections::BTreeSet;

fn small_spec() -> ServeSpec {
    ServeSpec {
        clients: 6,
        requests: 3,
        ..ServeSpec::chaos()
    }
}

const SHAPES: [(usize, usize, usize); 2] = [(3, 31, 31), (3, 16, 16)];

#[test]
fn same_seed_same_inputs_and_schedule() {
    let spec = small_spec();
    let a = Schedule::generate(7, &spec, &SHAPES).unwrap();
    let b = Schedule::generate(7, &spec, &SHAPES).unwrap();
    assert_eq!(a.clients, b.clients);
    assert_eq!(a.backoff(2, 1, 3, 100, 0), b.backoff(2, 1, 3, 100, 0));
    let c = Schedule::generate(8, &spec, &SHAPES).unwrap();
    assert_ne!(a.clients, c.clients);
    // Think times follow the rate: uniform on [1, 2·mean].
    let mean = 1_000_000 / perfbench::serve::LAMBDA_PER_MTICK;
    assert!(a
        .clients
        .iter()
        .flatten()
        .all(|t| (1..=2 * mean).contains(&t.think)));

    let (x, _) = offline::images(7, 2, 1, (3, 16, 16)).unwrap();
    let (y, _) = offline::images(7, 2, 1, (3, 16, 16)).unwrap();
    let (z, _) = offline::images(7, 2, 2, (3, 16, 16)).unwrap();
    assert_eq!(x, y);
    assert_ne!(x, z);
}

#[test]
fn admissions_map_seq_to_attempt() {
    // Client 0's attempt 0 is admitted as seq 0; attempt 1 is rejected
    // (no seq); attempt 2 is admitted as seq 1.
    let mut log = SessionLog::default();
    log.admit(0, 0, 10, 0, 0);
    log.admit(0, 1, 11, 0, 2);
    log.admit(1, 0, 12, 1, 0);
    let stats = ServerStats {
        request_digests: vec![(0, 1, 0xB), (0, 0, 0xA), (1, 0, 0xC), (9, 0, 0xD)],
        ..ServerStats::default()
    };
    let by = log.digests_by_attempt(&stats);
    let keys: Vec<(usize, usize)> = by.keys().copied().collect();
    assert_eq!(keys, vec![(0, 0), (0, 2), (1, 0)]);
    assert_eq!(by[&(0, 2)], 0xB);
    assert_eq!(log.by_request[&11], (0, 2));
}

#[test]
fn served_outputs_match_session_under_the_attempt_key() {
    // A small overloaded session without retries: every abandoned
    // attempt makes `seq` and the attempt index drift apart.
    let spec = ServeSpec {
        clients: 8,
        requests: 3,
        queue_cap: 2,
        retry_budget: 0,
        schedules: 1,
        ..ServeSpec::chaos()
    };
    let models = bench::experiments::engine_batch::benchmark_models(true);
    let cfg = spec.ristretto_config(3, true);
    let scfg = spec.serve_config(3, true);
    let mut registry = ModelRegistry::new(None);
    let ids: Vec<_> = models
        .iter()
        .map(|(_, m)| registry.register(m, &cfg, &scfg).unwrap())
        .collect();
    let shapes: Vec<_> = models.iter().map(|(_, m)| m.input).collect();
    let sched = Schedule::generate(3, &spec, &shapes).unwrap();
    let mut server = Server::new(registry, scfg).unwrap();
    let mut off = Tracer::new(false);
    let mut noop = |_: &Server, _: &[Completion], _: &SessionLog, _: &mut Tracer| Ok(());
    let log = run_session(&mut server, &sched, &spec, &ids, 0, &mut off, &mut noop).unwrap();
    assert!(log.exhausted > 0, "the load must overflow the queue");
    assert_eq!(log.fresh, (spec.clients * spec.requests) as u64);
    assert_eq!(log.fresh, log.served + log.shed + log.exhausted);

    let clean = spec.ristretto_config(3, false);
    let sessions: Vec<Session> = models
        .iter()
        .map(|(_, m)| Session::new(compile(m, &clean).unwrap()))
        .collect();
    let by = log.digests_by_attempt(server.stats());
    assert_eq!(by.len() as u64, log.served);
    for (&(c, a), &d) in &by {
        let att = &sched.clients[c][a];
        let want = tensor_digest(&sessions[att.model].run(&att.input).unwrap().output);
        assert_eq!(d, want, "client {c} attempt {a}");
    }
    assert!(
        log.admitted
            .iter()
            .any(|(&(_, seq), &(_, a))| seq != a as u64),
        "some admission's seq differs from its attempt"
    );
}

#[test]
fn nearest_rank_percentiles() {
    let v: Vec<f64> = (1..=200).map(f64::from).collect();
    assert_eq!(nearest_rank(&v, 95.0), 190.0, "ten samples lie beyond p95");
    assert_eq!(nearest_rank(&v, 50.0), 100.0);
    assert_eq!(nearest_rank(&v, 100.0), 200.0);
    assert_eq!(nearest_rank(&v, 0.1), 1.0);
    assert_eq!(nearest_rank(&[3.0, 1.0, 2.0], 50.0), 2.0);
    assert_eq!(nearest_rank(&[5.0, 4.0], 50.0), 4.0);
    assert_eq!(nearest_rank(&[], 50.0), 0.0);
}

#[test]
fn self_time_subtracts_children() {
    let mut t = Tracer::new(true);
    let outer = t.enter("outer", Some(1));
    let inner = t.enter("inner", Some(1));
    std::thread::sleep(std::time::Duration::from_millis(2));
    t.exit(inner);
    t.exit(outer);
    let own = t.self_ns();
    let spans = t.spans();
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(own[0] + spans[1].dur_ns(), spans[0].dur_ns());
    assert_eq!(own[1], spans[1].dur_ns());
    let mut off = Tracer::new(false);
    let id = off.enter("x", None);
    off.exit(id);
    assert!(off.spans().is_empty());
}

#[test]
fn metric_names_are_valid_unique_and_declared() {
    let all: Vec<(String, &str)> = end_to_end().into_iter().chain(per_layer()).collect();
    let mut seen = BTreeSet::new();
    for (name, unit) in &all {
        assert!(valid_metric_name(name), "{name}");
        assert!(seen.insert(name.clone()), "{name} twice");
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{unit}"
        );
    }
    assert!(per_layer().len() <= 128);
    assert!(!valid_metric_name("a b") && !valid_metric_name("_x") && !valid_metric_name(""));
    assert!(!valid_metric_name(&"x".repeat(65)));

    // BENCHMARK.json declares exactly these metrics and workloads.
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(manifest).unwrap();
    for name in seen.iter().map(String::as_str).chain(WORKLOADS) {
        assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name}");
    }
    assert_eq!(
        json.matches("\"name\":").count(),
        all.len() + WORKLOADS.len()
    );
}

#[test]
fn result_line_has_every_catalogue_metric() {
    let mut out = Outcome {
        correct: true,
        attempted: 3,
        ..Outcome::default()
    };
    out.set("ops_per_s", 1.5);
    let line = out.render(&end_to_end()).unwrap();
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
    assert!(line.contains("\"ops_per_s\": {\"value\": 1.5, \"unit\": \"1/s\"}"));
    assert_eq!(line.matches("\"value\"").count(), end_to_end().len());
    out.set("no.such.metric", 1.0);
    assert_eq!(out.unknown_metric(), Some("no.such.metric"));
    out.set("setup_s", f64::NAN);
    assert!(out.render(&end_to_end()).is_err());
}

#[test]
fn arguments_are_checked() {
    let args = |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
    let ok = args("--workload paper-sweep --seed 4 --seconds 10 --trace 1").unwrap();
    assert_eq!((ok.seed, ok.seconds, ok.trace), (4, 10, true));
    for bad in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload paper-sweep --seed x --seconds 1 --trace 0",
        "--workload paper-sweep --seed 1 --seconds 0 --trace 0",
        "--workload paper-sweep --seed 1 --seconds 1 --trace 2",
        "--workload paper-sweep --seed 1 --seconds 1",
        "--workload paper-sweep --seed 1 --seed 2 --seconds 1 --trace 0",
        "--workload paper-sweep --seed 1 --seconds 1 --trace 0 --extra 1",
        "--seed",
    ] {
        assert!(args(bad).is_err(), "{bad}");
    }
}
