//! Runs every workload on a tiny trace, untraced and traced, and checks
//! that every metric `BENCHMARK.json` names is printed with its unit.
//!
//! Needs the release binaries of `iotax-cli` and `iotax-report`:
//! `python3 perfbench/run.py --self-test` builds them and points
//! `IOTAX_BIN_DIR` at them.

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("perfbench has a parent").to_path_buf()
}

fn bin_dir() -> PathBuf {
    let dir = std::env::var_os("IOTAX_BIN_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| repo_root().join(".bench_build").join("release"));
    assert!(
        dir.join("iotax-analyze").is_file(),
        "no iotax binaries in {}; run `python3 perfbench/run.py --self-test`",
        dir.display()
    );
    dir
}

fn benchmark() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// The names and units a metric list of `BENCHMARK.json` declares.
fn declared(list: &str) -> Vec<(String, String)> {
    benchmark()
        .get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field =
                |k: &str| m.get(k).and_then(Value::as_str).expect("name and unit").to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

fn run_tiny(workload: &str, trace: u8) -> Value {
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("tiny-{workload}-{trace}"));
    let out = Command::new(env!("CARGO_BIN_EXE_iotax-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0",
            "--trace",
            &trace.to_string(),
        ])
        .arg("--bin-dir")
        .arg(bin_dir())
        .arg("--work-dir")
        .arg(&work)
        .arg("--tiny")
        .output()
        .expect("run the harness");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload}: {stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(!work.exists(), "the run left {} behind", work.display());
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line is JSON")
}

fn check_result(workload: &str, trace: u8, list: &str) {
    let result = run_tiny(workload, trace);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{workload}: {result:?}");
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
    let metrics = result.get("metrics").expect("metrics");
    let declared = declared(list);
    for (name, unit) in &declared {
        let m = metrics.get(name).unwrap_or_else(|| panic!("{workload}: {name} missing"));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()), "{name}");
        let v = m.get("value").and_then(Value::as_f64);
        assert!(v.is_some_and(f64::is_finite), "{workload}: {name} = {v:?}");
    }
    let printed = match metrics {
        Value::Object(fields) => fields.len(),
        _ => 0,
    };
    assert_eq!(printed, declared.len(), "{workload}: exactly the declared metrics");
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let names: Vec<String> = benchmark()
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_owned))
        .collect();
    assert_eq!(names.len(), 2);
    for name in &names {
        check_result(name, 0, "end_to_end");
        check_result(name, 1, "per_layer");
    }
}
