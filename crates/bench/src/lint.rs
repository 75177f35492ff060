//! `repro lint` — the static-analysis matrix: every registered design,
//! linted with its own port context, one row per (design, geometry) and
//! one column per lint rule.
//!
//! The report is self-asserting: any error-severity finding on a registry
//! design aborts the run, so `repro lint --smoke` doubles as the CI gate
//! that keeps every shipped netlist DRC- and timing-clean.

use std::fmt::Write as _;

use hiperrf::config::RfGeometry;
use hiperrf::designs::registry;
use hiperrf::hashing::{design_digest, digest_hex};
use hiperrf::lint::lint_design;
use sfq_lint::{RuleId, Severity};

/// Column width for a rule: wide enough for its kebab-case id.
fn col(rule: RuleId) -> usize {
    rule.id().len().max(4)
}

/// Renders the per-design rule matrix, asserting every design is clean.
pub fn lint_matrix(smoke: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Static lint matrix: netlist DRC + min/max-path timing =="
    );
    let sizes: &[RfGeometry] = if smoke {
        &[RfGeometry::paper_4x4()]
    } else {
        &[RfGeometry::paper_4x4(), RfGeometry::paper_16x16()]
    };

    let _ = write!(out, "{:<16} {:>12}", "design", "size");
    for rule in RuleId::ALL {
        let _ = write!(out, " {:>w$}", rule.id(), w = col(rule));
    }
    let _ = writeln!(
        out,
        " {:>7} {:>12} {:>16} {:>7}",
        "JJs", "worst slack", "digest", "status"
    );

    for design in registry() {
        for &g in sizes {
            let report = lint_design(design, g);
            assert!(
                report.is_clean(),
                "{design} at {g} must lint clean:\n{report}"
            );
            let _ = write!(out, "{:<16} {:>12}", design.label(), format!("{g}"));
            for rule in RuleId::ALL {
                let _ = write!(out, " {:>w$}", report.count(rule), w = col(rule));
            }
            let worst = report.timing.as_ref().and_then(|t| t.worst_slack_ps);
            let _ = writeln!(
                out,
                " {:>7} {:>12} {:>16} {:>7}",
                report.census.jj_total(),
                worst.map_or_else(|| "-".to_string(), |s| format!("{s:+.1} ps")),
                digest_hex(design_digest(design, g)),
                "clean"
            );
        }
    }
    let _ = writeln!(
        out,
        "non-zero cycle / timing-slack counts are info-severity findings: clocked\n\
         feedback loops (HiPerRF loopback, shift rings) and pulse-train pins whose\n\
         within-operation spacing the dynamic checkers guard. Errors would abort\n\
         this report; the budget column cross-checks the lint census against\n\
         budget::structural_budget, and the digest column is the netlist digest\n\
         the job server keys its cache on (pinned in tests/typed_differential.rs)."
    );
    out
}

/// Worst info-severity detail lines for the full report: the actual
/// feedback witnesses and train pins on the flagship design.
pub fn lint_detail() -> String {
    let mut out = String::new();
    let report = lint_design(hiperrf::designs::Design::HiPerRf, RfGeometry::paper_4x4());
    let _ = writeln!(out, "-- HiPerRF 4x4, info-severity findings --");
    for finding in report
        .findings
        .iter()
        .filter(|f| f.severity == Severity::Info)
        .take(6)
    {
        let _ = writeln!(out, "  {finding}");
    }
    let infos = report.count_severity(Severity::Info);
    if infos > 6 {
        let _ = writeln!(out, "  ... and {} more", infos - 6);
    }
    out
}
