//! The benchmark's own tests: the smoke size of every workload, untraced
//! and traced, prints every metric of `BENCHMARK.json` with its unit,
//! passes every check, repeats its exact counts, and exits nonzero when a
//! check fails; `BENCHMARK.json` records the serve traffic that runs.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use sfq_serve::Json;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
        .to_path_buf()
}

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(root())
        .args(args)
        .output()
        .expect("perfbench runs")
}

fn smoke(workload: &str, seed: &str, trace: &str, extra: &[&str]) -> (Output, String) {
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "30",
        "--trace",
        trace,
        "--smoke",
    ];
    args.extend_from_slice(extra);
    let out = perfbench(&args);
    let stdout = String::from_utf8(out.stdout.clone()).expect("UTF-8 output");
    (out, stdout)
}

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` table.
fn declared(table: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(table)
        .and_then(Json::as_arr)
        .expect("metric table")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Parses the result line and checks it against the declared table.
fn result(stdout: &str, table: &str) -> Json {
    let last = stdout.lines().last().expect("some output");
    let doc = Json::parse(last).expect("last line is JSON");
    let keys: Vec<&str> = match &doc {
        Json::Obj(kv) => kv.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("result is not an object"),
    };
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let metrics = doc.get("metrics").expect("metrics");
    let Json::Obj(measured) = metrics else {
        panic!("metrics is not an object")
    };
    let want = declared(table);
    assert_eq!(measured.len(), want.len(), "{stdout}");
    for (name, unit) in &want {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
        assert!(
            m.get("value").and_then(Json::as_f64).is_some(),
            "{name} has no value"
        );
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(&format!("metric {name} "))
                    && l.ends_with(&format!(" {unit}"))),
            "{name} not printed with its unit"
        );
    }
    assert!(doc.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    doc
}

fn assert_passed(out: &Output, stdout: &str) {
    assert!(
        out.status.success(),
        "exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!stdout.contains("check FAILED"), "{stdout}");
}

/// The value of a `metric` or `note` line, as printed.
fn printed<'a>(stdout: &'a str, kind: &str, name: &str) -> &'a str {
    let prefix = format!("{kind} {name} ");
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .and_then(|rest| rest.split(' ').next())
        .unwrap_or_else(|| panic!("no {kind} {name}\n{stdout}"))
}

/// Exact-repeat figures of a traced run: golden counts and count metrics.
fn repeat_figures(stdout: &str) -> Vec<String> {
    stdout
        .lines()
        .filter(|l| {
            l.starts_with("count ")
                || (l.starts_with("metric ") && l.ends_with(" count") && !l.contains("serve."))
        })
        .map(str::to_string)
        .collect()
}

/// Runs the smoke checks of one workload; returns the untraced output.
fn check_workload(workload: &str) -> String {
    let (out, stdout) = smoke(workload, "11", "0", &[]);
    assert_passed(&out, &stdout);
    let doc = result(&stdout, "end_to_end");
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
    assert!(stdout.lines().any(|l| l.starts_with("# tag {")));

    let (out, first) = smoke(workload, "11", "1", &[]);
    assert_passed(&out, &first);
    result(&first, "per_layer");
    // `elab.cells` counts each elaborated netlist once.
    let cells: u64 = first
        .lines()
        .filter_map(|l| l.strip_prefix("count cells."))
        .map(|rest| {
            let value = rest.split(' ').nth(1).expect("count value");
            value.parse::<u64>().expect("a count")
        })
        .sum();
    let elab: f64 = printed(&first, "metric", "elab.cells")
        .parse()
        .expect("a number");
    assert_eq!(elab, cells as f64, "{first}");
    let (out, second) = smoke(workload, "11", "1", &[]);
    assert_passed(&out, &second);
    let figures = repeat_figures(&first);
    assert!(!figures.is_empty());
    assert_eq!(
        figures,
        repeat_figures(&second),
        "counts differ between runs"
    );
    stdout
}

#[test]
fn soak_smoke() {
    check_workload("soak-256x64");
}

#[test]
fn cosim_smoke() {
    check_workload("cosim-fig14");
}

#[test]
fn serve_smoke() {
    let stdout = check_workload("serve-yield");
    // BENCHMARK.json records the poll interval and client count that run.
    let doc = benchmark_json();
    let why = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some("serve-yield"))
        .and_then(|w| w.get("why"))
        .and_then(Json::as_str)
        .expect("serve-yield why")
        .to_string();
    let poll = printed(&stdout, "note", "poll_ms");
    let clients = printed(&stdout, "note", "clients");
    assert!(why.contains(&format!(" {clients} connections ")), "{why}");
    assert!(why.contains(&format!("polling every {poll} ms")), "{why}");
}

#[test]
fn a_wrong_golden_count_fails_the_run() {
    let golden = std::fs::read_to_string(root().join("perfbench/golden.json")).expect("golden");
    let entry = golden
        .find("\"cosim-fig14/smoke\"")
        .expect("cosim smoke entry");
    let key = "\"cells.ndro\": ";
    let at = entry + golden[entry..].find(key).expect("entry has cells.ndro") + key.len();
    let end = at
        + golden[at..]
            .find(|c: char| !c.is_ascii_digit())
            .expect("a number");
    let value: u64 = golden[at..end].parse().expect("a count");
    let wrong = format!("{}{}{}", &golden[..at], value + 1, &golden[end..]);
    let dir = root().join("perfbench/out");
    std::fs::create_dir_all(&dir).expect("out dir");
    let path = dir.join(format!("golden-wrong-{}.json", std::process::id()));
    std::fs::write(&path, wrong).expect("write");
    let (out, stdout) = smoke(
        "cosim-fig14",
        "3",
        "0",
        &["--golden", path.to_str().expect("UTF-8 path")],
    );
    std::fs::remove_file(&path).expect("remove");
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(
        stdout.contains("check FAILED: count cells.ndro"),
        "{stdout}"
    );
    let doc = result(&stdout, "end_to_end");
    assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
}

#[test]
fn bad_arguments_exit_2() {
    for args in [
        &["--workload", "soak-256x64"][..],
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "soak-256x64",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
    ] {
        let out = perfbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            out.stdout.is_empty() || !String::from_utf8_lossy(&out.stdout).contains("\"correct\"")
        );
    }
}
