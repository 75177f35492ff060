//! Robustness reports: per-design margin tables, Monte Carlo yield
//! curves, and fault-injection demonstrations.
//!
//! These back the `repro margins` and `repro faults` subcommands. Every
//! report embeds its shape assertions so regenerating it *is* the check:
//!
//! * the clock-less HiPerRF write port shows a wider usable skew window
//!   than the clocked sampling reference (paper §II-D);
//! * behavioural bisection recovers the calibrated 53 ps NDROC re-arm and
//!   the HC-DRO separation constants;
//! * Monte Carlo yield is monotone non-increasing in σ for every design;
//! * fault injection is reproducible — the same seed renders the same
//!   report, byte for byte.

use std::fmt::Write as _;

use hiperrf::config::RfGeometry;
use hiperrf::demux::{elaborate_demux, sel_head_start};
use hiperrf::designs::Design;
use hiperrf::harness::RegisterFile;
use hiperrf::hiperrf_rf::HiPerRf;
use hiperrf::margins::{
    clocked_reference_window, critical_sigma, design_skew_window, min_enable_spacing_ps,
    min_hc_clean_sep_ps, min_hc_train_sep_ps, soak_passes, yield_curve,
};
use sfq_cells::timing::{HCDRO_HARD_SEP_PS, HCDRO_PULSE_SEP_PS, NDROC_REARM_PS, SYNC_TRACK_PS};
use sfq_sim::prelude::*;

/// Seed used by the deterministic margin/fault reports.
pub const REPORT_SEED: u64 = 0xC0FF_EE00;

/// Per-design margin table plus yield curves.
///
/// `smoke` trades sweep resolution and Monte Carlo depth for speed — the
/// CI fast path (`repro margins --smoke`).
///
/// # Panics
///
/// Panics if a paper-shape assertion fails (e.g. the clock-less port no
/// longer beats the clocked reference) — a regenerated report that prints
/// is a report that passed.
pub fn margins_table(smoke: bool) -> String {
    let g = RfGeometry::paper_4x4();
    let step = if smoke { 2.0 } else { 1.0 };
    let trials = if smoke { 3 } else { 8 };
    let sigmas: &[f64] = if smoke {
        &[0.0, 0.02, 0.05, 0.10]
    } else {
        &[0.0, 0.01, 0.02, 0.05, 0.10, 0.20, 0.30]
    };
    let levels: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 3] };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Variation-aware margins (4x4, seed {REPORT_SEED:#x}) =="
    );

    // 1. Write-path skew windows, clock-less designs vs clocked reference.
    let _ = writeln!(
        out,
        "\n-- data-vs-enable skew windows (step {step:.0} ps) --"
    );
    let _ = writeln!(
        out,
        "{:<18} {:>9} {:>9} {:>9}",
        "write port", "min ps", "max ps", "width"
    );
    let mut windows = Vec::new();
    for design in Design::ALL {
        let w = design_skew_window(design, g, 12.0, step);
        let _ = writeln!(
            out,
            "{:<18} {:>+9.0} {:>+9.0} {:>9.0}",
            design.label(),
            w.min_ok_ps,
            w.max_ok_ps,
            w.width_ps()
        );
        windows.push((design, w));
    }
    let clocked = clocked_reference_window(12.0, step);
    let _ = writeln!(
        out,
        "{:<18} {:>+9.0} {:>+9.0} {:>9.0}   (SyncSampler aperture {:.0} ps)",
        "clocked reference",
        clocked.min_ok_ps,
        clocked.max_ok_ps,
        clocked.width_ps(),
        SYNC_TRACK_PS
    );
    let hiperrf_w = &windows
        .iter()
        .find(|(d, _)| *d == Design::HiPerRf)
        .expect("present")
        .1;
    assert!(
        hiperrf_w.width_ps() > clocked.width_ps(),
        "§II-D shape violated: clock-less HiPerRF window {hiperrf_w:?} \
         not wider than clocked reference {clocked:?}"
    );
    let _ = writeln!(
        out,
        "shape check: clock-less HiPerRF window {:.0} ps > clocked {:.0} ps (§II-D)",
        hiperrf_w.width_ps(),
        clocked.width_ps()
    );

    // 2. Behavioural recovery of the calibrated timing constants.
    let _ = writeln!(out, "\n-- calibrated constants recovered by bisection --");
    for &lv in levels {
        let m = min_enable_spacing_ps(lv);
        assert!(
            (m - NDROC_REARM_PS).abs() < 0.1,
            "NDROC re-arm mismatch at {lv} levels: {m} ps"
        );
        let _ = writeln!(
            out,
            "demux enable spacing, {lv} level(s): {m:>6.1} ps  (calibrated {NDROC_REARM_PS} ps)"
        );
    }
    let hard = min_hc_train_sep_ps();
    let clean = min_hc_clean_sep_ps();
    assert!(
        (hard - HCDRO_HARD_SEP_PS).abs() < 0.1,
        "HC hard threshold mismatch: {hard} ps"
    );
    assert!(
        (clean - HCDRO_PULSE_SEP_PS).abs() < 0.1,
        "HC design rule mismatch: {clean} ps"
    );
    let _ = writeln!(
        out,
        "hc-dro pulse loss below:     {hard:>6.1} ps  (hard threshold {HCDRO_HARD_SEP_PS} ps)"
    );
    let _ = writeln!(
        out,
        "hc-dro violation-free above: {clean:>6.1} ps  (design rule {HCDRO_PULSE_SEP_PS} ps)"
    );

    // 3. Critical delay variation and Monte Carlo yield per design.
    let _ = writeln!(
        out,
        "\n-- delay variation tolerance (Degrade policy soak) --"
    );
    for design in Design::ALL {
        let c = critical_sigma(design, g, REPORT_SEED);
        assert!(c > 0.0, "{design}: no variation tolerance at all");
        let _ = writeln!(
            out,
            "{:<18} critical sigma {:>5.1}%",
            design.label(),
            c * 100.0
        );
    }
    let _ = writeln!(
        out,
        "\n-- Monte Carlo yield vs sigma ({trials} trials/design) --"
    );
    let mut header = format!("{:<18}", "design");
    for &s in sigmas {
        let _ = write!(header, " {:>7.0}%", s * 100.0);
    }
    let _ = writeln!(out, "{header}");
    for design in Design::ALL {
        let curve = yield_curve(design, g, sigmas, trials, REPORT_SEED);
        for pair in curve.points.windows(2) {
            assert!(
                pair[1].1 <= pair[0].1,
                "{design}: yield not monotone non-increasing: {curve:?}"
            );
        }
        assert!(
            (curve.points[0].1 - 1.0).abs() < f64::EPSILON,
            "{design}: yield(0) != 1"
        );
        let mut row = format!("{:<18}", design.label());
        for &(_, y) in &curve.points {
            let _ = write!(row, " {:>7.0}%", y * 100.0);
        }
        let _ = writeln!(out, "{row}");
    }
    out
}

/// Drives one demux enable fire with `plan` installed and returns the
/// per-leaf pulse counts plus the simulator's bookkeeping.
fn demux_fault_run(
    policy: ViolationPolicy,
    plan: impl FnOnce(sfq_sim::netlist::Pin) -> FaultPlan,
) -> (Vec<usize>, usize, u64, (u64, u64)) {
    let (netlist, d) = elaborate_demux(2);
    let mut sim = Simulator::new(netlist);
    sim.set_violation_policy(policy);
    let probes: Vec<_> = d
        .outputs
        .iter()
        .enumerate()
        .map(|(i, &p)| sim.probe(p, format!("leaf{i}")))
        .collect();
    sim.set_fault_plan(plan(d.enable));
    let t = Time::from_ps(10.0);
    d.select_and_fire(&mut sim, 0, t, t + sel_head_start(2));
    sim.run();
    let leaves = probes.iter().map(|&p| sim.probe_trace(p).len()).collect();
    (
        leaves,
        sim.violations().len(),
        sim.degraded_drops(),
        sim.fault_counts(),
    )
}

/// Fault-injection demonstration report: pulse drops, duplications,
/// spurious pulses, and seeded delay variation, with the violation-policy
/// contrast (`Record` vs `Degrade`) made explicit.
///
/// # Panics
///
/// Panics if a reproducibility or policy-contrast assertion fails.
pub fn faults_report(smoke: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Fault injection (seed {REPORT_SEED:#x}) ==");

    // 1. Dropping the enable pulse: the selected leaf stays silent.
    let (leaves, _, _, counts) = demux_fault_run(ViolationPolicy::Record, |enable| {
        FaultPlan::new(REPORT_SEED).drop_nth(enable, 1)
    });
    assert_eq!(
        leaves,
        vec![0, 0, 0, 0],
        "dropped enable must reach no leaf"
    );
    let _ = writeln!(
        out,
        "\ndrop 1st enable delivery:      leaves {leaves:?}, faults applied {counts:?}"
    );

    // 2. Duplicating the enable 20 ps later: inside the 53 ps NDROC
    // re-arm. Under Record the duplicate routes again (2 pulses at the
    // leaf); under Degrade the violated NDROC destroys it — the demux
    // drops, it never misroutes.
    let dup =
        |enable| FaultPlan::new(REPORT_SEED).duplicate_nth(enable, 1, Duration::from_ps(20.0));
    let (rec_leaves, rec_viol, _, _) = demux_fault_run(ViolationPolicy::Record, dup);
    let (deg_leaves, deg_viol, deg_drops, _) = demux_fault_run(ViolationPolicy::Degrade, dup);
    assert_eq!(
        rec_leaves[0], 2,
        "Record: duplicate still routes: {rec_leaves:?}"
    );
    assert_eq!(
        deg_leaves,
        vec![1, 0, 0, 0],
        "Degrade: duplicate dropped, not misrouted"
    );
    assert!(
        rec_viol > 0 && deg_viol > 0,
        "re-arm violation must be recorded either way"
    );
    assert!(deg_drops > 0, "Degrade must account the destroyed pulse");
    let _ = writeln!(
        out,
        "duplicate enable +20 ps:       Record leaves {rec_leaves:?} ({rec_viol} violations)"
    );
    let _ = writeln!(
        out,
        "                               Degrade leaves {deg_leaves:?} ({deg_drops} degraded drop)"
    );

    // 3. A spurious enable long after the operation routes to the
    // still-selected leaf — the demux state-holding hazard (§III-A).
    let (sp_leaves, _, _, _) = demux_fault_run(ViolationPolicy::Record, |enable| {
        FaultPlan::new(REPORT_SEED).spurious(enable, Time::from_ps(400.0))
    });
    assert_eq!(
        sp_leaves,
        vec![2, 0, 0, 0],
        "spurious enable reuses the stale selection"
    );
    let _ = writeln!(
        out,
        "spurious enable at 400 ps:     leaves {sp_leaves:?} (stale selection reused)"
    );

    // 4. Seeded delay variation on a full HiPerRF soak.
    let g = RfGeometry::paper_4x4();
    let sigmas: &[f64] = if smoke {
        &[0.02, 0.10]
    } else {
        &[0.02, 0.05, 0.10, 0.20]
    };
    let _ = writeln!(
        out,
        "\n-- HiPerRF write-all/read-all soak under delay variation --"
    );
    for &sigma in sigmas {
        let passed = soak_passes(Design::HiPerRf, g, sigma, REPORT_SEED);
        let mut rf = HiPerRf::new(g);
        rf.set_violation_policy(ViolationPolicy::Degrade);
        rf.set_fault_plan(FaultPlan::new(REPORT_SEED).with_delay_sigma(sigma));
        rf.write(1, 0b1111);
        let got = rf.read(1);
        let _ = writeln!(
            out,
            "sigma {:>4.0}%: soak {}  (spot write 0b1111 -> {:#06b}, {} violations, {} drops)",
            sigma * 100.0,
            if passed { "PASS" } else { "FAIL" },
            got,
            rf.violations().len(),
            rf.degraded_drops()
        );
    }

    // 5. Reproducibility: the same seed must regenerate the same spot run.
    let spot = |seed: u64| {
        let mut rf = HiPerRf::new(g);
        rf.set_violation_policy(ViolationPolicy::Degrade);
        rf.set_fault_plan(FaultPlan::new(seed).with_delay_sigma(0.10));
        rf.write(1, 0b1111);
        (rf.read(1), rf.violations().to_vec(), rf.degraded_drops())
    };
    let a = spot(REPORT_SEED);
    let b = spot(REPORT_SEED);
    assert_eq!(
        a, b,
        "same seed must reproduce values, violations and drops exactly"
    );
    let _ = writeln!(
        out,
        "\nreproducibility: two seeded runs agree exactly ({} violations, {} drops)",
        a.1.len(),
        a.2
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn margins_table_smoke_renders_and_asserts() {
        let t = margins_table(true);
        assert!(t.contains("clock-less HiPerRF window"), "{t}");
        assert!(t.contains("critical sigma"), "{t}");
    }

    #[test]
    fn faults_report_is_reproducible() {
        assert_eq!(faults_report(true), faults_report(true));
    }
}
