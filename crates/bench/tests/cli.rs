//! Integration tests for the `repro` binary: argument handling, JSON
//! output, and determinism of the quick experiments.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let out = repro(&[]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn unknown_experiment_fails() {
    let out = repro(&["fig99"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment"));
}

#[test]
fn table6_prints_the_area_breakdown() {
    let out = repro(&["table6"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Table VI"));
    assert!(text.contains("Atomputer"));
    assert!(text.contains("1.296"));
}

#[test]
fn json_output_is_written_and_parses() {
    let dir = std::env::temp_dir().join(format!("repro_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t6.json");
    let out = repro(&["table6", "--json", path.to_str().unwrap()]);
    assert!(out.status.success());
    let json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let rows = json
        .get("table6")
        .and_then(|v| v.as_array())
        .expect("table6 rows");
    assert_eq!(rows.len(), 10);
    assert!(rows.iter().any(|r| r["block"] == "Atomizer"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quick_fig18_is_deterministic() {
    let a = repro(&["fig18", "--quick"]);
    let b = repro(&["fig18", "--quick"]);
    assert!(a.status.success() && b.status.success());
    assert_eq!(a.stdout, b.stdout);
    let text = String::from_utf8_lossy(&a.stdout);
    assert!(text.contains("w/a balancing"));
}

#[test]
fn fig15_runs_quick() {
    let out = repro(&["fig15", "--quick"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("atom sparsity"));
    assert!(text.contains("speedup"));
}

#[test]
fn thread_count_does_not_change_any_output_byte() {
    // The tentpole determinism guarantee: `repro all --quick` emits
    // byte-identical stdout, JSON and metrics at any worker-thread count —
    // every parallel fan-out collects results in input order, and the
    // observability counters use only commutative integer accumulation.
    let dir = std::env::temp_dir().join(format!("repro_threads_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p1 = dir.join("t1.json");
    let p4 = dir.join("t4.json");
    let m1 = dir.join("m1.json");
    let m4 = dir.join("m4.json");
    let serial = repro(&[
        "all",
        "--quick",
        "--threads",
        "1",
        "--json",
        p1.to_str().unwrap(),
        "--metrics",
        m1.to_str().unwrap(),
    ]);
    let parallel = repro(&[
        "all",
        "--quick",
        "--threads",
        "4",
        "--json",
        p4.to_str().unwrap(),
        "--metrics",
        m4.to_str().unwrap(),
    ]);
    assert!(serial.status.success(), "serial run failed");
    assert!(parallel.status.success(), "parallel run failed");
    assert_eq!(
        serial.stdout, parallel.stdout,
        "stdout differs by thread count"
    );
    let j1 = std::fs::read(&p1).unwrap();
    let j4 = std::fs::read(&p4).unwrap();
    assert_eq!(j1, j4, "JSON results differ by thread count");
    let b1 = std::fs::read(&m1).unwrap();
    let b4 = std::fs::read(&m4).unwrap();
    assert_eq!(b1, b4, "metrics differ by thread count");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_schema_is_stable_and_counters_populate() {
    // Any single experiment writes the full sorted counter schema, with
    // the counters its simulators touch non-zero and everything else zero.
    let dir = std::env::temp_dir().join(format!("repro_metrics_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fig15.json");
    let out = repro(&["fig15", "--quick", "--metrics", path.to_str().unwrap()]);
    assert!(out.status.success());
    let parsed: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let counters = parsed
        .get("counters")
        .and_then(|v| v.as_object())
        .expect("counters object");
    assert_eq!(counters.len(), obs::Event::COUNT);
    let keys: Vec<&String> = counters.keys().collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "counters must be emitted in sorted order");
    // fig15 sweeps the cycle-level tile simulator.
    assert!(
        counters
            .get("atomputer.atom_mults")
            .unwrap()
            .as_u64()
            .unwrap()
            > 0
    );
    assert!(
        counters
            .get("atomulator.deliveries")
            .unwrap()
            .as_u64()
            .unwrap()
            > 0
    );
    // ...and never touches the analytic model.
    assert_eq!(counters.get("analytic.layers").unwrap().as_u64(), Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

/// The golden file checked into the repository root.
const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../golden_stats.json");

#[test]
fn stats_check_passes_against_checked_in_golden() {
    let dir = std::env::temp_dir().join(format!("repro_gate_ok_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("live.json");
    let out = repro(&[
        "stats-check",
        "--golden",
        GOLDEN,
        "--metrics",
        metrics.to_str().unwrap(),
        "--threads",
        "4",
    ]);
    assert!(
        out.status.success(),
        "stats-check failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("stats-check OK"));
    // The live metrics must agree with the golden's counters exactly where
    // tolerance is zero; spot-check one counter.
    let live: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    let golden: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(GOLDEN).unwrap()).unwrap();
    assert_eq!(
        live["counters"]["intersect.calls"],
        golden["counters"]["intersect.calls"]
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_check_fails_on_perturbed_golden() {
    // Copy the checked-in golden, bump one zero-tolerance counter by one,
    // and confirm the gate exits non-zero naming the drifted counter.
    let dir = std::env::temp_dir().join(format!("repro_gate_bad_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let text = std::fs::read_to_string(GOLDEN).unwrap();
    let mut root: serde_json::Value = serde_json::from_str(&text).unwrap();
    let serde_json::Value::Object(ref mut obj) = root else {
        panic!("golden root is not an object")
    };
    let serde_json::Value::Object(mut counters) = obj.remove("counters").unwrap() else {
        panic!("counters is not an object")
    };
    let old = counters.get("intersect.calls").unwrap().as_u64().unwrap();
    counters.insert(
        "intersect.calls".to_string(),
        serde_json::Value::Number(serde_json::Number::PosInt(old + 1)),
    );
    obj.insert("counters".to_string(), serde_json::Value::Object(counters));
    let bad = dir.join("bad_golden.json");
    std::fs::write(&bad, serde_json::to_string_pretty(&root).unwrap()).unwrap();

    let out = repro(&[
        "stats-check",
        "--golden",
        bad.to_str().unwrap(),
        "--threads",
        "4",
    ]);
    assert!(!out.status.success(), "perturbed golden must fail the gate");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("stats-check FAILED"), "{err}");
    assert!(err.contains("intersect.calls"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gate_options_are_validated() {
    let out = repro(&["stats-check"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("requires --golden"));
    let out = repro(&["table6", "--golden", "x.json"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("only applies to `stats-check`"));
    let out = repro(&["table6", "--update"]);
    assert!(!out.status.success());
    let out = repro(&["table6", "--metrics"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--metrics requires a path"));
}

#[test]
fn diffcheck_quick_budget_finds_no_divergences() {
    let dir = std::env::temp_dir().join(format!("repro_diffcheck_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let repros = dir.join("repros");
    let out = repro(&[
        "diffcheck",
        "--cases",
        "60",
        "--seed",
        "1",
        "--repro-dir",
        repros.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "diffcheck found divergences:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("60 cases, 0 divergences (seed 1)"), "{text}");
    // No divergences means no repro directory is created.
    assert!(!repros.exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn diffcheck_is_deterministic_across_runs() {
    let a = repro(&["diffcheck", "--cases", "25", "--seed", "7"]);
    let b = repro(&["diffcheck", "--cases", "25", "--seed", "7"]);
    assert!(a.status.success() && b.status.success());
    assert_eq!(a.stdout, b.stdout);
}

#[test]
fn diffcheck_options_are_validated() {
    let out = repro(&["table6", "--cases", "10"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("only applies to `diffcheck`"));
    let out = repro(&["table6", "--shrink"]);
    assert!(!out.status.success());
    let out = repro(&["diffcheck", "--cases"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--cases requires a count"));
    let out = repro(&["diffcheck", "--cases", "zero"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid case count"));
}

#[test]
fn invalid_thread_counts_are_rejected() {
    let out = repro(&["table6", "--threads", "0"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--threads"));
    let out = repro(&["table6", "--threads", "many"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid thread count"));
    // The option value must not be mistaken for an experiment name.
    let out = repro(&["--threads", "2", "table6"]);
    assert!(out.status.success());
}

#[test]
fn stats_check_rejects_truncated_golden_before_running() {
    // A truncated golden file is a typed error in milliseconds — the gate
    // must not burn the full quick suite before noticing.
    let dir = std::env::temp_dir().join(format!("repro_gate_trunc_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trunc = dir.join("trunc.json");
    std::fs::write(&trunc, r#"{"counters": {"#).unwrap();
    let start = std::time::Instant::now();
    let out = repro(&["stats-check", "--golden", trunc.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("malformed golden file"), "{err}");
    assert!(
        err.contains("trunc.json"),
        "error must name the path: {err}"
    );
    assert!(
        start.elapsed().as_secs() < 20,
        "truncated golden should fail fast, took {:?}",
        start.elapsed()
    );
    // Invalid (non-JSON) content takes the same path.
    let garbage = dir.join("garbage.json");
    std::fs::write(&garbage, "not json at all").unwrap();
    let out = repro(&["stats-check", "--golden", garbage.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("malformed golden file"));
    // A missing golden is a typed error too.
    let missing = dir.join("missing.json");
    let out = repro(&["stats-check", "--golden", missing.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read golden file"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn diffcheck_unwritable_repro_dir_fails_before_the_sweep() {
    // `--repro-dir` pointing under a regular file can never hold repros;
    // the probe must reject it up front with a typed error naming the path.
    let dir = std::env::temp_dir().join(format!("repro_dc_probe_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, "a regular file").unwrap();
    let bad = blocker.join("repros");
    let out = repro(&[
        "diffcheck",
        "--cases",
        "1",
        "--repro-dir",
        bad.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("is not writable"), "{err}");
    assert!(err.contains("repros"), "error must name the path: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_campaign_passes_and_is_thread_invariant() {
    let one = repro(&["chaos", "--campaign", "4", "--seed", "3", "--threads", "1"]);
    let four = repro(&["chaos", "--campaign", "4", "--seed", "3", "--threads", "4"]);
    assert!(
        one.status.success(),
        "chaos failed:\n{}",
        String::from_utf8_lossy(&one.stderr)
    );
    assert!(four.status.success());
    assert_eq!(
        one.stdout, four.stdout,
        "chaos report differs by thread count"
    );
    let text = String::from_utf8_lossy(&one.stdout);
    assert!(text.contains("chaos: PASS"), "{text}");
    assert!(text.contains("0 silent with detection on"), "{text}");
}

#[test]
fn chaos_json_report_is_written_and_parses() {
    let dir = std::env::temp_dir().join(format!("repro_chaos_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("chaos.json");
    let out = repro(&[
        "chaos",
        "--campaign",
        "3",
        "--seed",
        "5",
        "--json",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(json["seed"], 5u64);
    assert_eq!(json["campaign"], 3u64);
    assert_eq!(json["silent_with_detection"], 0u64);
    let structures = json["structures"].as_array().expect("structures array");
    assert_eq!(structures.len(), 5);
    assert!(structures.iter().any(|s| s["structure"] == "weight_buffer"));
    assert!(json["injected_total"].as_u64().unwrap() > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_options_are_validated() {
    let out = repro(&["table6", "--campaign", "10"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("only applies to `chaos`"));
    let out = repro(&["chaos", "--campaign", "0"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--campaign must be at least 1"));
    let out = repro(&["chaos", "--campaign", "many"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid campaign size"));
}

#[test]
fn watchdog_aborts_hung_steps_and_spares_fast_ones() {
    // A campaign far larger than one second of work trips the watchdog,
    // which exits 124 naming the hung step.
    let out = repro(&["chaos", "--campaign", "1000000", "--timeout-secs", "1"]);
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(124));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("[watchdog]"), "{err}");
    assert!(err.contains("chaos campaign"), "{err}");
    // A fast experiment under a generous budget is untouched.
    let out = repro(&["table6", "--timeout-secs", "120"]);
    assert!(out.status.success());
    // The flag's value is validated.
    let out = repro(&["table6", "--timeout-secs", "0"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--timeout-secs must be at least 1"));
}

#[test]
fn serve_report_is_byte_identical_across_thread_counts() {
    let dir = std::env::temp_dir().join(format!("repro_serve_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    const COMMON: [&str; 10] = [
        "serve",
        "--quick",
        "--clients",
        "5",
        "--requests",
        "3",
        "--lambda",
        "80",
        "--mix",
        "AlexNet=3,GoogLeNet=1",
    ];
    let p1 = dir.join("serve1.json");
    let p4 = dir.join("serve4.json");
    let mut args1: Vec<&str> = COMMON.to_vec();
    args1.extend(["--threads", "1", "--json", p1.to_str().unwrap()]);
    let mut args4: Vec<&str> = COMMON.to_vec();
    args4.extend(["--threads", "4", "--json", p4.to_str().unwrap()]);
    let a = repro(&args1);
    let b = repro(&args4);
    assert!(a.status.success() && b.status.success());
    assert_eq!(a.stdout, b.stdout, "thread count leaked into stdout");
    assert_eq!(
        std::fs::read(&p1).unwrap(),
        std::fs::read(&p4).unwrap(),
        "thread count leaked into the JSON report"
    );
    let json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&p1).unwrap()).unwrap();
    let submitted = json["submitted"].as_u64().unwrap();
    let served = json["served"].as_u64().unwrap();
    let rejected = json["rejected"].as_u64().unwrap();
    let shed = json["shed"].as_u64().unwrap();
    assert_eq!(submitted, 15);
    assert_eq!(shed, 0, "no deadlines, nothing sheds");
    assert_eq!(submitted, served + rejected + shed, "conservation at drain");
    assert!(json["batches"].as_u64().unwrap() > 0);
    assert!(json["output_digest"].as_u64().unwrap() > 0);
    // Only AlexNet and GoogLeNet are in the mix, but all quick networks
    // are registered.
    assert_eq!(json["models"].as_array().unwrap().len(), 3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_chaos_is_deterministic_and_conserves() {
    let dir = std::env::temp_dir().join(format!("repro_serve_chaos_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("chaos.json");
    let args = [
        "serve",
        "--quick",
        "--chaos",
        "--clients",
        "4",
        "--requests",
        "2",
        "--seed",
        "7",
        "--json",
    ];
    let mut argv: Vec<&str> = args.to_vec();
    argv.push(path.to_str().unwrap());
    let a = repro(&argv);
    let b = repro(&argv);
    assert!(
        a.status.success(),
        "chaos run failed:\n{}",
        String::from_utf8_lossy(&a.stderr)
    );
    assert!(b.status.success());
    assert_eq!(a.stdout, b.stdout, "chaos run must be reproducible");
    let text = String::from_utf8_lossy(&a.stdout);
    assert!(text.contains("faults injected"));
    // The campaign fires on every quick network at the baked-in rate.
    assert!(
        !text.contains("faults injected                              0"),
        "{text}"
    );
    // The quiescent twin rides along: every request both runs served must
    // have produced byte-identical output under faults and core deaths.
    let json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let twin = &json["chaos_twin"];
    assert!(
        twin["survivors"]
            .as_u64()
            .expect("--chaos attaches the twin")
            > 0,
        "{twin:?}"
    );
    assert_eq!(
        twin["survivor_digest"], twin["twin_survivor_digest"],
        "chaos survivors diverged from the quiescent twin: {json:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_options_are_validated() {
    // Serve-only flags are rejected elsewhere, naming the flag.
    for (args, msg) in [
        (
            vec!["table6", "--clients", "3"],
            "--clients only applies to `serve`",
        ),
        (vec!["fig1", "--chaos"], "--chaos only applies to `serve`"),
        (
            vec!["fig4", "--mix", "AlexNet=1"],
            "--mix only applies to `serve`",
        ),
        (
            vec!["serve", "--clients", "0"],
            "--clients must be at least 1",
        ),
        (
            vec!["serve", "--max-batch", "0"],
            "--max-batch must be at least 1",
        ),
        (
            vec!["serve", "--queue-cap", "0"],
            "--queue-cap must be at least 1",
        ),
        (
            vec!["serve", "--lambda", "0"],
            "--lambda must be at least 1",
        ),
        (
            vec!["serve", "--fleet-cores", "0"],
            "--fleet-cores must be at least 1",
        ),
    ] {
        let out = repro(&args);
        assert!(!out.status.success(), "{args:?} should fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(msg), "{args:?}: {err}");
    }
    // A bad mix fails with an actionable message naming the networks.
    let out = repro(&["serve", "--quick", "--mix", "VGG16=1"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("VGG16") && err.contains("AlexNet"), "{err}");
}

#[test]
fn serve_admission_pressure_rejects_but_conserves() {
    let dir = std::env::temp_dir().join(format!("repro_serve_adm_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("adm.json");
    // A tiny queue under many fast clients must reject some arrivals.
    let out = repro(&[
        "serve",
        "--quick",
        "--clients",
        "12",
        "--requests",
        "4",
        "--lambda",
        "400",
        "--queue-cap",
        "2",
        "--max-batch",
        "2",
        "--json",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let submitted = json["submitted"].as_u64().unwrap();
    let served = json["served"].as_u64().unwrap();
    let rejected = json["rejected"].as_u64().unwrap();
    let shed = json["shed"].as_u64().unwrap();
    assert_eq!(submitted, 48);
    assert!(rejected > 0, "pressure must trigger admission control");
    assert_eq!(submitted, served + rejected + shed);
    // Per-tenant conservation too.
    for t in json["per_tenant"].as_array().unwrap() {
        assert_eq!(
            t["submitted"].as_u64().unwrap(),
            t["served"].as_u64().unwrap()
                + t["rejected"].as_u64().unwrap()
                + t["shed"].as_u64().unwrap()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_slo_flags_are_validated() {
    // The SLO flags are serve-only, range-checked at parse time, and
    // cross-checked against each other — every error names the flag.
    for (args, msg) in [
        (
            vec!["table6", "--deadline", "5"],
            "--deadline only applies to `serve`",
        ),
        (
            vec!["fig1", "--slo-class", "batch"],
            "--slo-class only applies to `serve`",
        ),
        (
            vec!["fig4", "--brownout", "500"],
            "--brownout only applies to `serve`",
        ),
        (
            vec!["chaos", "--retry-budget", "2"],
            "--retry-budget only applies to `serve`",
        ),
        (
            vec!["serve", "--deadline", "0"],
            "--deadline must be at least 1 microtick",
        ),
        (vec!["serve", "--deadline", "soon"], "invalid deadline"),
        (
            vec!["serve", "--brownout", "0"],
            "--brownout must be within 1..=1000 permille (got 0)",
        ),
        (
            vec!["serve", "--brownout", "1500"],
            "--brownout must be within 1..=1000 permille (got 1500)",
        ),
        (
            vec!["serve", "--retry-budget", "17"],
            "--retry-budget must be at most 16 retries per request (got 17)",
        ),
        (
            vec!["serve", "--slo-class", "interactive,gold"],
            "--slo-class clause `gold`: unknown class (have: interactive, batch, best-effort)",
        ),
        // Well-formed flags that conflict: brownout can never fire
        // without a best-effort tenant to shed.
        (
            vec!["serve", "--brownout", "500"],
            "--brownout below 1000 needs at least one best-effort tenant (see --slo-class)",
        ),
        // ...and a model cache is only exercised by the chaos pass.
        (
            vec!["serve", "--model-cache", "/tmp/x"],
            "--model-cache under `serve` only applies with --chaos",
        ),
    ] {
        let out = repro(&args);
        assert!(!out.status.success(), "{args:?} should fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(msg), "{args:?}: {err}");
    }
}

#[test]
fn serve_overload_sheds_and_conserves_per_class() {
    let dir = std::env::temp_dir().join(format!("repro_serve_slo_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("slo.json");
    // Hot arrivals against a tight deadline with a retry budget: some
    // requests expire in queue, rejected ones are retried, and the books
    // must still balance at every level.
    let args = [
        "serve",
        "--quick",
        "--clients",
        "6",
        "--requests",
        "3",
        "--lambda",
        "2000",
        "--max-wait",
        "1000",
        "--deadline",
        "1500",
        "--retry-budget",
        "2",
        "--slo-class",
        "interactive,best-effort",
        "--brownout",
        "750",
        "--json",
    ];
    let mut argv: Vec<&str> = args.to_vec();
    argv.push(path.to_str().unwrap());
    let a = repro(&argv);
    assert!(
        a.status.success(),
        "overload run failed:\n{}",
        String::from_utf8_lossy(&a.stderr)
    );
    let b = repro(&argv);
    assert_eq!(a.stdout, b.stdout, "overload run must be reproducible");
    let json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let submitted = json["submitted"].as_u64().unwrap();
    let served = json["served"].as_u64().unwrap();
    let rejected = json["rejected"].as_u64().unwrap();
    let shed = json["shed"].as_u64().unwrap();
    assert!(shed > 0, "tight deadlines must shed: {json:?}");
    assert!(served > 0, "overload must not shed everything: {json:?}");
    assert_eq!(submitted, served + rejected + shed);
    // Per-class accounting covers all three classes and sums to the
    // global ledger.
    let classes = json["per_class"].as_array().unwrap();
    assert_eq!(classes.len(), 3);
    let mut sum = (0, 0, 0, 0);
    for c in classes {
        let (s, v, r, d) = (
            c["submitted"].as_u64().unwrap(),
            c["served"].as_u64().unwrap(),
            c["rejected"].as_u64().unwrap(),
            c["shed"].as_u64().unwrap(),
        );
        assert_eq!(s, v + r + d, "class ledger must balance: {c:?}");
        sum = (sum.0 + s, sum.1 + v, sum.2 + r, sum.3 + d);
    }
    assert_eq!(sum, (submitted, served, rejected, shed));
    std::fs::remove_dir_all(&dir).ok();
}
