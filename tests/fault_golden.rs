//! Golden gate for the fault-aware layer path: `Session::run` on the six
//! mini networks under uniform fault campaigns must keep producing the
//! exact same outputs, traces and `FaultStats` — or the exact same typed
//! `FaultDetected` error when recovery is off, and the exact same silently
//! corrupted outputs when the monitors are off. Any change to the site
//! hashes, the retry loop, the monitors or the dense fallback that moves a
//! single injected fault, counter or output byte fails here.
//!
//! Each line of `tests/golden/fault_campaigns.txt` is
//! `<network> <ppm> <mode> ok <fnv1a of the run's JSON> retries=<n>
//! fallbacks=<n>` or `<network> <ppm> <mode> fault <FaultDetected display>`,
//! where `<mode>` is `recover`, `detect-only` or `unmonitored`. To
//! regenerate after an *intentional* change to the fault model:
//!
//! ```text
//! cargo test --release --test fault_golden -- --ignored regenerate_fault_golden
//! ```

use atomstream::wire::fnv1a_bytes;
use qnn::mini::MiniNetwork;
use qnn::models::NetworkId;
use qnn::quant::BitWidth;
use qnn::workload::{ActivationProfile, WeightProfile, WorkloadGen};
use ristretto_sim::config::RistrettoConfig;
use ristretto_sim::engine::{compile, EngineError, NetworkModel, Session};
use ristretto_sim::fault::FaultConfig;
use std::path::PathBuf;

/// Uniform campaign rates: sparse faults that tile retries absorb (20 and
/// 200 ppm commit most layers on the sparse path), and dense ones up to the
/// serving `--chaos` rate, at which every layer exhausts a retry budget and
/// falls back to the dense reference.
const RATES_PPM: [u32; 5] = [20, 200, 4_000, 20_000, 120_000];

/// `(name, detect, recover)`: the full recovery path, the typed error a
/// detect-only campaign surfaces, and the unmonitored exposure run whose
/// corrupted output pins every injection site.
const MODES: [(&str, bool, bool); 3] = [
    ("recover", true, true),
    ("detect-only", true, false),
    ("unmonitored", false, true),
];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("fault_campaigns.txt")
}

/// One line per (network, rate, recovery mode), in a fixed order.
fn campaign_lines() -> String {
    let mut out = String::new();
    for id in NetworkId::ALL {
        let mini = MiniNetwork::new(id);
        let mut gen = WorkloadGen::new(4_200 + id as u64);
        let model =
            NetworkModel::from_mini(&mini, &mut gen, &WeightProfile::benchmark(BitWidth::W4))
                .expect("mini network materializes");
        let (c, h, w) = model.input;
        let input = gen
            .activations(c, h, w, &ActivationProfile::new(BitWidth::W8))
            .expect("input materializes");
        for ppm in RATES_PPM {
            for (mode, detect, recover) in MODES {
                let campaign = FaultConfig::uniform(0xFA17 ^ id as u64 ^ ppm as u64, ppm)
                    .with_detect(detect)
                    .with_recover(recover);
                let cfg = RistrettoConfig::paper_default().with_faults(Some(campaign));
                let session = Session::new(compile(&model, &cfg).expect("compile"));
                let outcome = match session.run(&input) {
                    Ok(run) => {
                        let json = serde_json::to_string(&(&run.output, &run.traces, &run.faults))
                            .expect("run serializes");
                        format!(
                            "ok {:016x} retries={} fallbacks={}",
                            fnv1a_bytes(json.as_bytes()),
                            run.faults.retries,
                            run.faults.layer_fallbacks
                        )
                    }
                    Err(EngineError::Fault(f)) => format!("fault {f}"),
                    Err(e) => panic!("{}: unexpected error: {e}", id.name()),
                };
                out.push_str(&format!("{} {ppm} {mode} {outcome}\n", id.name()));
            }
        }
    }
    out
}

#[test]
fn fault_campaigns_match_the_golden_digests() {
    let golden = std::fs::read_to_string(golden_path()).expect(
        "tests/golden/fault_campaigns.txt is missing — regenerate it with \
         `cargo test --release --test fault_golden -- --ignored regenerate_fault_golden`",
    );
    let actual = campaign_lines();
    for (want, got) in golden.lines().zip(actual.lines()) {
        assert_eq!(got, want, "fault campaign drifted from the golden");
    }
    assert_eq!(actual.lines().count(), golden.lines().count());
}

#[test]
#[ignore = "writes tests/golden/fault_campaigns.txt; run only after an intentional fault-model change"]
fn regenerate_fault_golden() {
    std::fs::write(golden_path(), campaign_lines()).expect("write golden");
}
