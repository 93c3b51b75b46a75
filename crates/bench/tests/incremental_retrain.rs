//! `incremental_retrain` end to end at Tiny: the binary runs, writes a
//! report with every field, one row per step, and the warm-vs-cold EIS
//! inside the recorded tolerance. The speedup floor is left to the Small
//! run (`--min-speedup 0` here), where counting dominates as it does at
//! paper scale.

use std::fs;
use std::process::{Command, Stdio};

use embedstab_pipeline::cache::scratch_dir;
use embedstab_stream::WARM_SVD_EIS_TOLERANCE;
use serde::Value;

const REPORT_KEYS: [&str; 14] = [
    "scale",
    "vocab_size",
    "window",
    "dim",
    "base_tokens",
    "delta_frac",
    "steps",
    "min_speedup",
    "warm_svd_eis_tolerance",
    "min_observed_speedup",
    "max_warm_vs_cold_eis",
    "max_submit_ratio",
    "max_observed_submit_ratio",
    "per_step",
];

const STEP_KEYS: [&str; 12] = [
    "step",
    "delta_docs",
    "delta_tokens",
    "incremental_seconds",
    "incremental_submit_seconds",
    "from_scratch_seconds",
    "from_scratch_submit_seconds",
    "speedup",
    "warm_vs_cold_eis",
    "warm_vs_cold_knn_dist",
    "incremental_predicted_instability",
    "from_scratch_predicted_instability",
];

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

fn field(v: &Value, key: &str) -> f64 {
    v.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("{key} is not a number"))
}

#[test]
fn tiny_run_writes_the_full_report_within_tolerance() {
    let dir = scratch_dir("incremental_retrain_tiny");
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).expect("scratch dir");
    let out = dir.join("bench.json");
    let child = Command::new(env!("CARGO_BIN_EXE_incremental_retrain"))
        .args([
            "--scale",
            "tiny",
            "--steps",
            "3",
            "--min-speedup",
            "0",
            "--out",
        ])
        .arg(&out)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("incremental_retrain spawns");
    // The binary's snapshot stores live in its own scratch directory.
    let stores = std::env::temp_dir().join(format!("embedstab_incremental_retrain_{}", child.id()));
    let run = child.wait_with_output().expect("incremental_retrain runs");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "exit {:?}:\n{stderr}", run.status);
    assert!(!stores.exists(), "{} left behind", stores.display());

    let text = fs::read_to_string(&out).expect("report written");
    let report: Value = serde_json::from_str(&text).expect("report is JSON");
    assert_eq!(keys(&report), REPORT_KEYS);
    assert_eq!(report.get("scale"), Some(&Value::Str("tiny".into())));
    let Some(Value::Array(steps)) = report.get("per_step") else {
        panic!("per_step is not an array");
    };
    assert_eq!(steps.len(), 3);
    for (k, step) in steps.iter().enumerate() {
        assert_eq!(keys(step), STEP_KEYS);
        assert_eq!(field(step, "step"), (k + 1) as f64);
        assert!(field(step, "incremental_seconds") > 0.0);
        assert!(field(step, "from_scratch_seconds") > 0.0);
    }
    let max_eis = field(&report, "max_warm_vs_cold_eis");
    assert!(
        max_eis <= WARM_SVD_EIS_TOLERANCE,
        "warm-vs-cold EIS {max_eis} above {WARM_SVD_EIS_TOLERANCE}"
    );
    assert_eq!(
        field(&report, "warm_svd_eis_tolerance"),
        WARM_SVD_EIS_TOLERANCE
    );
    fs::remove_dir_all(&dir).ok();
}
