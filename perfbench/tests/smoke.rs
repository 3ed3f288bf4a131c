//! Self-test: every workload, run tiny in both modes, is correct and
//! prints exactly the metrics `BENCHMARK.json` declares, with their
//! units. Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use ocr_obs::json::{parse, Value};
use std::process::Command;

fn benchmark() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(list: &Value) -> Vec<(String, String)> {
    list.as_array()
        .expect("a metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: u8) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    parse(last).expect("the result line is JSON")
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    let bench = benchmark();
    let workloads: Vec<String> = bench
        .get("workloads")
        .and_then(|w| w.as_array())
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(|n| n.as_str())
                .expect("name")
                .to_string()
        })
        .collect();
    for (trace, key) in [(0u8, "end_to_end"), (1, "per_layer")] {
        let declared = names_and_units(bench.get(key).expect(key));
        for workload in &workloads {
            let result = run(workload, trace);
            assert!(
                matches!(result.get("correct"), Some(Value::Bool(true))),
                "{workload} --trace {trace} is not correct"
            );
            assert!(result.get("attempted").and_then(|v| v.as_u64()) >= Some(1));
            assert_eq!(result.get("failed").and_then(|v| v.as_u64()), Some(0));
            let Some(Value::Obj(metrics)) = result.get("metrics") else {
                panic!("{workload}: no metrics object");
            };
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").and_then(|v| v.as_f64()).is_some(), "{name}");
                    let unit = m.get("unit").and_then(|u| u.as_str()).unwrap_or("");
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(printed, declared, "{workload} --trace {trace}");
        }
    }
}
