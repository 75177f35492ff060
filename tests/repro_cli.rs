//! CLI contract of the `repro` binary: exit codes and the `--json`
//! machine-readable summary — what CI parses instead of scraping tables.

use std::process::Command;

use sfq_serve::json::Json;

fn repro(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The summary is the last stdout line when `--json` is passed.
fn summary(stdout: &str) -> Json {
    let line = stdout
        .lines()
        .rev()
        .find(|l| l.starts_with('{'))
        .expect("a JSON summary line");
    Json::parse(line).expect("summary parses")
}

#[test]
fn passing_section_exits_zero_with_ok_summary() {
    let (code, stdout, _) = repro(&["lint", "--smoke", "--json"]);
    assert_eq!(code, Some(0));
    let doc = summary(&stdout);
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
    let sections = doc
        .get("sections")
        .and_then(Json::as_arr)
        .expect("sections");
    assert_eq!(sections.len(), 1);
    assert_eq!(sections[0].get("name").and_then(Json::as_str), Some("lint"));
    assert_eq!(sections[0].get("ok").and_then(Json::as_bool), Some(true));
    assert!(sections[0].get("ms").and_then(Json::as_u64).is_some());
}

#[test]
fn failing_section_is_contained_and_exits_nonzero() {
    let (code, stdout, stderr) = repro(&["selfcheck-fail", "--json"]);
    // Contained, reported, exit 1 — not an abort, not a silent pass.
    assert_eq!(code, Some(1), "stderr: {stderr}");
    let doc = summary(&stdout);
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    let sections = doc
        .get("sections")
        .and_then(Json::as_arr)
        .expect("sections");
    assert_eq!(sections[0].get("ok").and_then(Json::as_bool), Some(false));
    assert!(
        sections[0]
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("injected")),
        "summary must carry the failure message"
    );
    assert!(stderr.contains("failed self-assertions"));
}

#[test]
fn unknown_section_exits_with_usage_error() {
    // `perf` is not a section: perfbench is the one perf harness.
    for section in ["nosuchsection", "perf"] {
        let (code, _, stderr) = repro(&[section]);
        assert_eq!(code, Some(2));
        assert!(
            stderr.contains(&format!("unknown section `{section}`")),
            "{stderr}"
        );
    }
}

#[test]
fn threads_flag_consumes_its_value_before_the_section() {
    let (code, stdout, stderr) = repro(&["--threads", "2", "table3", "--json"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let doc = summary(&stdout);
    let sections = doc
        .get("sections")
        .and_then(Json::as_arr)
        .expect("sections");
    assert_eq!(sections.len(), 1);
    assert_eq!(
        sections[0].get("name").and_then(Json::as_str),
        Some("table3")
    );
}

#[test]
fn unknown_flags_and_extra_sections_exit_with_usage_error() {
    for args in [&["lint", "--smok"][..], &["lint", "cosim"][..]] {
        let (code, stdout, stderr) = repro(args);
        assert_eq!(code, Some(2), "{args:?}: stderr {stderr}");
        assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} must run nothing: {stdout}");
    }
}
