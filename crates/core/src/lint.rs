//! Design-level static analysis: every registered design, linted with its
//! own port context and cross-checked against its closed-form budget.
//!
//! [`lint_design`] is the one-stop entry the `repro lint` report and the
//! FailFast gate build on: it elaborates the design, runs every structural
//! and timing rule of `sfq-lint` over the netlist, and appends the
//! `budget` cross-check comparing the lint walk's census against
//! [`crate::budget::structural_budget`] of the same netlist. A clean report
//! means the netlist is structurally legal SFQ (explicit splitters for all
//! fan-out, no dangling or double-driven pins, no free-running loops) *and*
//! its guarded re-arm/separation windows have non-negative static slack at
//! the driver's issue period.

use sfq_lint::LintReport;

use crate::budget::structural_budget_of;
use crate::config::RfGeometry;
use crate::designs::Design;

/// Builds `design` at `geometry`, lints it with the design's own port
/// context, and appends the budget cross-check (over the same build).
pub fn lint_design(design: Design, geometry: RfGeometry) -> LintReport {
    let rf = design.build(geometry);
    let mut report = rf.lint();
    let budget = structural_budget_of(design, geometry, rf.netlist());
    sfq_lint::budget_check(&mut report, budget.jj_total(), budget.static_power_uw());
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::registry;
    use crate::harness::RegisterFile;
    use sfq_cells::CellKind;
    use sfq_lint::{RuleId, Severity};
    use sfq_sim::time::Duration;
    use sfq_sim::violation::ViolationPolicy;

    #[test]
    fn every_design_lints_clean() {
        for design in registry() {
            for g in [RfGeometry::paper_4x4(), RfGeometry::paper_16x16()] {
                let report = lint_design(design, g);
                assert!(
                    report.is_clean(),
                    "{design} at {g} has lint errors:\n{report}"
                );
                assert_eq!(report.count(RuleId::Budget), 0, "{design} at {g}");
                let timing = report.timing.as_ref().expect("timing spec supplied");
                let worst = timing.worst_slack_ps.expect("guarded pins reachable");
                assert!(
                    worst >= 0.0,
                    "{design} at {g}: negative static slack {worst} at {}",
                    timing.worst_pin
                );
            }
        }
    }

    #[test]
    fn clocked_feedback_is_reported_as_info_not_error() {
        // The HiPerRF loopback and the shift rings are structural cycles,
        // but they break at clocked data pins — the lint must classify
        // them as informational, not free-running errors.
        for design in [Design::HiPerRf, Design::ShiftRegister] {
            let report = lint_design(design, RfGeometry::paper_4x4());
            assert!(report.count(RuleId::Cycle) > 0, "{design} has feedback");
            assert!(
                report
                    .findings
                    .iter()
                    .filter(|f| f.rule == RuleId::Cycle)
                    .all(|f| f.severity == Severity::Info),
                "{design}: feedback must be informational:\n{report}"
            );
        }
    }

    #[test]
    fn failfast_gate_accepts_clean_designs() {
        for design in registry() {
            let mut rf = design.build(RfGeometry::paper_4x4());
            rf.set_violation_policy(ViolationPolicy::FailFast);
            rf.write(1, 0b11);
            assert_eq!(rf.read(1), 0b11, "{design}");
        }
    }

    #[test]
    #[should_panic(expected = "lint gate: refusing to simulate")]
    fn failfast_gate_rejects_a_mutated_netlist() {
        let mut rf = crate::ndro_rf::NdroRf::new(RfGeometry::paper_4x4());
        // Illegal SFQ fan-out: tap a storage cell's output into a second
        // sink without a splitter.
        let netlist = rf.harness_mut().sim_mut().netlist_mut();
        let ndros: Vec<_> = netlist
            .iter()
            .filter(|(_, _, c)| c.kind() == CellKind::Ndro)
            .map(|(id, _, _)| id)
            .collect();
        assert!(ndros.len() >= 2, "design contains storage cells");
        netlist.connect(
            sfq_sim::netlist::Pin::new(ndros[0], 0),
            sfq_sim::netlist::Pin::new(ndros[1], 2),
            Duration::from_ps(2.0),
        );
        rf.set_violation_policy(ViolationPolicy::FailFast);
    }
}
