//! Self-test of the benchmark at a tiny scale: every workload emits every
//! metric named in `BENCHMARK.json` with its unit, and every output check
//! fails when given a deliberately wrong expectation, so no check can
//! pass without looking at the output.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use crate::report::{Outcome, END_TO_END, PER_LAYER};
use crate::{mixed, search, study, RunArgs};
use sensorsafe_core::jsonlib::parse;
use sensorsafe_core::types::ContextKind;
use sensorsafe_core::Value;
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn args(traced: bool) -> RunArgs {
    RunArgs {
        seed: 7,
        seconds: 0.6,
        traced,
        spans_file: repo_root()
            .join(".perfbench_out")
            .join("spans-selftest.jsonl"),
    }
}

const MIXED: mixed::Scale = mixed::Scale { contributors: 8 };
const STUDY: study::Scale = study::Scale { contributors: 2 };
const SEARCH: search::Scale = search::Scale { contributors: 40 };

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(manifest: &Value, list: &str) -> Vec<(String, String)> {
    manifest[list]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m["name"].as_str().unwrap().to_string(),
                m["unit"].as_str().unwrap().to_string(),
            )
        })
        .collect()
}

/// The run is correct and its result line carries exactly the declared
/// metrics, each with its unit and a finite value.
fn assert_emits(outcome: &Outcome, traced: bool, declared: &[(String, String)], what: &str) {
    assert!(outcome.correct(), "{what}: {:?}", outcome.wrong);
    assert_eq!(outcome.failed, 0, "{what}: failed ops");
    let result = parse(&outcome.result_json(traced)).expect("result line is JSON");
    assert_eq!(result["correct"].as_bool(), Some(true));
    assert!(result["attempted"].as_u64().unwrap() >= 1);
    let metrics = result["metrics"].as_object().expect("metrics object");
    assert_eq!(metrics.len(), declared.len(), "{what}: metric count");
    for (name, unit) in declared {
        let metric = &metrics
            .get(name)
            .unwrap_or_else(|| panic!("{what}: {name} missing"));
        assert_eq!(
            metric["unit"].as_str(),
            Some(unit.as_str()),
            "{what}: {name}"
        );
        let value = metric["value"].as_f64().expect("numeric value");
        assert!(value.is_finite(), "{what}: {name} = {value}");
        if !traced {
            assert!(value > 0.0, "{what}: end-to-end {name} must never be 0");
        }
    }
}

/// The run fails its checks, and one failure names `needle`.
fn assert_caught(outcome: Outcome, needle: &str) {
    assert!(!outcome.correct(), "wrong expectation not caught: {needle}");
    assert!(
        outcome.wrong.iter().any(|w| w.contains(needle)),
        "expected a failure mentioning {needle:?}, got {:?}",
        outcome.wrong
    );
}

#[test]
fn tiny_scale_metrics_and_checks() {
    let scratch = repo_root()
        .join(".perfbench_tmp")
        .join(format!("selftest-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).unwrap();
    std::env::set_var("TMPDIR", &scratch);

    let manifest_text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    let manifest = parse(&manifest_text).expect("BENCHMARK.json parses");
    let e2e = declared(&manifest, "end_to_end");
    let per_layer = declared(&manifest, "per_layer");
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(
        e2e,
        table(END_TO_END),
        "BENCHMARK.json end_to_end matches the code"
    );
    assert_eq!(
        per_layer,
        table(PER_LAYER),
        "BENCHMARK.json per_layer matches the code"
    );

    // Every metric, traced and untraced, on every workload.
    for traced in [false, true] {
        let declared = if traced { &per_layer } else { &e2e };
        let outcome = mixed::run(&args(traced), &MIXED, &mixed::Expect::default());
        assert_emits(&outcome, traced, declared, "mixed");
        let outcome = study::run(&args(traced), &STUDY, &study::Expect::default());
        assert_emits(&outcome, traced, declared, "study");
        let outcome = search::run(&args(traced), &SEARCH, &search::Expect::for_scale(&SEARCH));
        assert_emits(&outcome, traced, declared, "search");
    }

    // Each check, fed one wrong expectation, must fail.
    let run_mixed = |expect: mixed::Expect| mixed::run(&args(false), &MIXED, &expect);
    let good = mixed::Expect::default();
    assert_caught(
        run_mixed(mixed::Expect {
            stored_segments: 2,
            ..good.clone()
        }),
        "upload ack",
    );
    assert_caught(
        run_mixed(mixed::Expect {
            query_samples: good.query_samples + 1,
            ..good.clone()
        }),
        "raw samples",
    );
    assert_caught(
        run_mixed(mixed::Expect {
            packet_samples: good.packet_samples + 1,
            ..good.clone()
        }),
        "across the reopen",
    );
    assert_caught(
        run_mixed(mixed::Expect {
            ledger_extra: 1,
            ..good.clone()
        }),
        "ledger holds",
    );

    let run_study = |expect: study::Expect| study::run(&args(false), &STUDY, &expect);
    let good = study::Expect::default();
    assert_caught(
        run_study(study::Expect {
            raw_denied_place: "home",
            ..good.clone()
        }),
        "raw samples shared from a home episode",
    );
    assert_caught(
        run_study(study::Expect {
            ecg_denied_context: ContextKind::Still,
            ..good.clone()
        }),
        "raw ECG shared",
    );
    assert_caught(
        run_study(study::Expect {
            corrupt_references: true,
            ..good.clone()
        }),
        "differs from the set-up capture",
    );

    let run_search = |expect: search::Expect| search::run(&args(false), &SEARCH, &expect);
    let good = search::Expect::for_scale(&SEARCH);
    assert_caught(
        run_search(search::Expect {
            work_hours_hits: good.work_hours_hits + 1,
            ..good.clone()
        }),
        "work-hours search matched",
    );
    assert_caught(
        run_search(search::Expect {
            driving_hits: good.driving_hits - 1,
            ..good.clone()
        }),
        "driving-stress search matched",
    );
    assert_caught(
        run_search(search::Expect {
            sync_accepted: false,
            ..good.clone()
        }),
        "sync answered",
    );

    let _ = std::fs::remove_dir_all(&scratch);
}
