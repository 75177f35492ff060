//! Extended ablation studies: the related-work shift-register baseline,
//! write-path timing margins, and the RAW-spreading compiler schedule.

use hiperrf::config::RfGeometry;
use hiperrf::delay::RfDesign;
use hiperrf::designs::Design;
use hiperrf::margins::{design_skew_window, monte_carlo_jitter};
use hiperrf::shift_rf::compare_with_hiperrf;
use sfq_cpu::bankalloc::allocate_banks;
use sfq_cpu::reorder::spread_raw_dependencies;
use sfq_cpu::{GateLevelCpu, PipelineConfig};
use sfq_riscv::asm::assemble;
use sfq_workloads::{suite, PASS};

/// Shift-register-vs-HiPerRF comparison report (the Fujiwara \[11\]
/// related-work design the paper contrasts against in §VII).
pub fn shift_register_report() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "-- related work: DRO shift-register RF vs HiPerRF --");
    let _ = writeln!(
        out,
        "{:>10} {:>10} {:>10} {:>12} {:>12}",
        "geometry", "shift JJ", "hiper JJ", "shift ps", "hiper ps"
    );
    for g in RfGeometry::paper_sizes() {
        let cmp = compare_with_hiperrf(g);
        let _ = writeln!(
            out,
            "{:>10} {:>10} {:>10} {:>12.1} {:>12.1}",
            g.to_string(),
            cmp.shift_jj,
            cmp.hiperrf_jj,
            cmp.shift_readout_ps,
            cmp.hiperrf_readout_ps
        );
    }
    let _ = writeln!(
        out,
        "the rotating shift register is denser still, but bit-serial access\n\
         costs w demux-limited cycles — 32x53 ps ≈ 1.7 ns per read at 32 bits,\n\
         which is the architectural infeasibility the paper argues in §VII."
    );
    out
}

/// Write-path margin report: the usable data-vs-enable skew window and a
/// jitter Monte Carlo.
pub fn margins_report() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "-- write-path timing margins (4x4 structural HiPerRF) --"
    );
    let g = RfGeometry::paper_4x4();
    let w = design_skew_window(Design::HiPerRf, g, 16.0, 1.0);
    let _ = writeln!(
        out,
        "data-vs-enable skew window: [{:+.0}, {:+.0}] ps (width {:.0} ps; DAND spec ±8 ps)",
        w.min_ok_ps,
        w.max_ok_ps,
        w.width_ps()
    );
    for jitter in [2.0, 6.0, 12.0, 24.0] {
        let r = monte_carlo_jitter(g, jitter, 40, 0x5f0a);
        let _ = writeln!(
            out,
            "uniform ±{jitter:>4.1} ps injection jitter: {:>5.1}% of writes land correctly",
            r.yield_fraction() * 100.0
        );
    }
    out
}

/// One row of the compiler-scheduling ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleAblationRow {
    /// Benchmark name.
    pub name: &'static str,
    /// CPI before/after for the design under test.
    pub cpi_before: f64,
    /// CPI with the RAW-spreading schedule applied.
    pub cpi_after: f64,
    /// Instructions the pass moved.
    pub moved: u32,
}

/// Runs the RAW-spreading scheduler ablation for one design across the
/// benchmark suite.
///
/// # Panics
///
/// Panics if a workload breaks under reordering — that would be a bug in
/// the pass, not a result.
pub fn schedule_ablation(design: RfDesign) -> Vec<ScheduleAblationRow> {
    suite()
        .iter()
        .map(|w| {
            let prog = assemble(&w.source, 0).expect("workload assembles");
            let (reordered, stats) = spread_raw_dependencies(&prog);
            let run = |p| {
                let mut cpu = GateLevelCpu::new(design, PipelineConfig::sodor());
                let out = cpu.run(p, w.mem_size, w.budget).expect("workload runs");
                assert_eq!(out.exit_code, PASS, "{} broke under reordering", w.name);
                out.stats.cpi()
            };
            ScheduleAblationRow {
                name: w.name,
                cpi_before: run(&prog),
                cpi_after: run(&reordered),
                moved: stats.moved,
            }
        })
        .collect()
}

/// Renders the scheduling ablation for HiPerRF (the design the paper says
/// benefits most from spreading RAW dependencies).
pub fn schedule_report() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "-- compiler ablation: RAW-spreading schedule on HiPerRF (§VI-B) --"
    );
    let _ = writeln!(
        out,
        "{:<16} {:>10} {:>10} {:>8} {:>7}",
        "benchmark", "CPI", "CPI sched", "delta", "moved"
    );
    let rows = schedule_ablation(RfDesign::HiPerRf);
    let mut before = 0.0;
    let mut after = 0.0;
    for r in &rows {
        let _ = writeln!(
            out,
            "{:<16} {:>10.2} {:>10.2} {:>7.2}% {:>7}",
            r.name,
            r.cpi_before,
            r.cpi_after,
            (r.cpi_after / r.cpi_before - 1.0) * 100.0,
            r.moved
        );
        before += r.cpi_before;
        after += r.cpi_after;
    }
    let _ = writeln!(
        out,
        "{:<16} {:>10.2} {:>10.2} {:>7.2}%",
        "AVERAGE",
        before / rows.len() as f64,
        after / rows.len() as f64,
        (after / before - 1.0) * 100.0
    );
    out
}

/// Bank-allocation ablation: the "ideal compiler" of Figure 14 made real.
/// Runs each workload on the dual-banked design three ways: as assembled,
/// with bank-aware register allocation, and under the ideal assumption.
pub fn bank_allocation_report() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "-- bank-aware register allocation vs the ideal assumption (§VI-B) --"
    );
    let _ = writeln!(
        out,
        "{:<16} {:>10} {:>10} {:>10} {:>9}",
        "benchmark", "dual CPI", "allocated", "ideal", "conflicts"
    );
    let mut sums = [0.0f64; 3];
    let rows = suite();
    for w in &rows {
        let prog = assemble(&w.source, 0).expect("workload assembles");
        let (allocated, stats) = allocate_banks(&prog);
        let run = |p, d| {
            let mut cpu = GateLevelCpu::new(d, PipelineConfig::sodor());
            let out = cpu.run(p, w.mem_size, w.budget).expect("workload runs");
            assert_eq!(out.exit_code, PASS, "{} broke under allocation", w.name);
            out.stats.cpi()
        };
        let naive = run(&prog, RfDesign::DualBanked);
        let alloc = run(&allocated, RfDesign::DualBanked);
        let ideal = run(&prog, RfDesign::DualBankedIdeal);
        let _ = writeln!(
            out,
            "{:<16} {:>10.2} {:>10.2} {:>10.2} {:>4} -> {:>2}",
            w.name, naive, alloc, ideal, stats.conflicts_before, stats.conflicts_after
        );
        sums[0] += naive;
        sums[1] += alloc;
        sums[2] += ideal;
    }
    let n = rows.len() as f64;
    let _ = writeln!(
        out,
        "{:<16} {:>10.2} {:>10.2} {:>10.2}",
        "AVERAGE",
        sums[0] / n,
        sums[1] / n,
        sums[2] / n
    );
    out
}

/// Memory-latency sensitivity: how the CPI overheads shift as the 77 K
/// external memory gets slower (the paper fixes one latency; we sweep it).
pub fn memory_latency_report() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "-- 77 K memory latency sensitivity (towers + 429.mcf) --"
    );
    let _ = writeln!(
        out,
        "{:>12} {:>10} {:>10} {:>10}",
        "mem gates", "base CPI", "HiPerRF%", "dual%"
    );
    let picks: Vec<_> = suite()
        .into_iter()
        .filter(|w| ["towers", "429.mcf"].contains(&w.name))
        .collect();
    for mem_latency in [4u64, 12, 24, 48] {
        let mut cfg = PipelineConfig::sodor();
        cfg.mem_latency = mem_latency;
        let mut cpis = [0.0f64; 3];
        for w in &picks {
            let prog = assemble(&w.source, 0).expect("assembles");
            for (slot, design) in [
                RfDesign::NdroBaseline,
                RfDesign::HiPerRf,
                RfDesign::DualBanked,
            ]
            .iter()
            .enumerate()
            {
                let mut cpu = GateLevelCpu::new(*design, cfg);
                let out = cpu.run(&prog, w.mem_size, w.budget).expect("runs");
                cpis[slot] += out.stats.cpi() / picks.len() as f64;
            }
        }
        let _ = writeln!(
            out,
            "{:>12} {:>10.2} {:>9.2}% {:>9.2}%",
            mem_latency,
            cpis[0],
            (cpis[1] / cpis[0] - 1.0) * 100.0,
            (cpis[2] / cpis[0] - 1.0) * 100.0
        );
    }
    let _ = writeln!(
        out,
        "slower memory dilutes the register-file overheads — consistent with
         the paper evaluating against an idealized fixed-latency 77 K memory."
    );
    out
}

/// Energy report: static energy per workload per design (chip static
/// power × modelled run time). HiPerRF runs ~11% longer but burns far
/// less register-file bias power; this quantifies the net effect the
/// paper's abstract implies ("reduces the static power by 46.2%") at the
/// application level.
pub fn energy_report() -> String {
    use sfq_chip::energy::{chip_static_power_uw, static_energy_fj};
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "-- application-level static energy (chip power x run time) --"
    );
    let _ = writeln!(
        out,
        "chip static power: baseline {:.2} mW, HiPerRF {:.2} mW, dual {:.2} mW",
        chip_static_power_uw(RfDesign::NdroBaseline) / 1000.0,
        chip_static_power_uw(RfDesign::HiPerRf) / 1000.0,
        chip_static_power_uw(RfDesign::DualBanked) / 1000.0,
    );
    let _ = writeln!(
        out,
        "{:<16} {:>12} {:>12} {:>12}  (pJ; lower is better)",
        "benchmark", "baseline", "HiPerRF", "dual"
    );
    let mut sums = [0.0f64; 3];
    let rows = suite();
    for w in &rows {
        let prog = assemble(&w.source, 0).expect("assembles");
        let mut pj = [0.0f64; 3];
        for (slot, design) in [
            RfDesign::NdroBaseline,
            RfDesign::HiPerRf,
            RfDesign::DualBanked,
        ]
        .iter()
        .enumerate()
        {
            let mut cpu = GateLevelCpu::new(*design, PipelineConfig::sodor());
            let out = cpu.run(&prog, w.mem_size, w.budget).expect("runs");
            pj[slot] = static_energy_fj(*design, out.stats.wall_ns()) / 1000.0;
            sums[slot] += pj[slot];
        }
        let _ = writeln!(
            out,
            "{:<16} {:>12.2} {:>12.2} {:>12.2}",
            w.name, pj[0], pj[1], pj[2]
        );
    }
    let _ = writeln!(
        out,
        "{:<16} {:>12.2} {:>12.2} {:>12.2}   net: HiPerRF {:+.1}%, dual {:+.1}%",
        "TOTAL",
        sums[0],
        sums[1],
        sums[2],
        (sums[1] / sums[0] - 1.0) * 100.0,
        (sums[2] / sums[0] - 1.0) * 100.0
    );
    let _ = writeln!(
        out,
        "despite the CPI overhead, HiPerRF's bias-power saving wins on energy\n\
         (and the paper notes cooling multiplies every static watt by ~100x)."
    );
    out
}

/// Branch-prediction ablation: how much of the baseline CPI is control
/// stalls? The paper's core has no prediction; switching on a not-taken
/// predictor bounds the opportunity and contextualizes the register-file
/// overheads against the pipeline's other bottlenecks.
pub fn prediction_report() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "-- branch-prediction ablation (baseline NDRO RF) --");
    let _ = writeln!(
        out,
        "{:<16} {:>10} {:>12} {:>14}",
        "benchmark", "CPI", "CPI w/pred", "control share"
    );
    let mut sums = [0.0f64; 2];
    let rows = suite();
    for w in &rows {
        let prog = assemble(&w.source, 0).expect("assembles");
        let run = |cfg| {
            let mut cpu = GateLevelCpu::new(RfDesign::NdroBaseline, cfg);
            cpu.run(&prog, w.mem_size, w.budget).expect("runs").stats
        };
        let base = run(PipelineConfig::sodor());
        let pred = run(PipelineConfig::sodor_with_prediction());
        let control_share = base.control_stall_cycles as f64 / base.gate_cycles as f64;
        let _ = writeln!(
            out,
            "{:<16} {:>10.2} {:>12.2} {:>13.1}%",
            w.name,
            base.cpi(),
            pred.cpi(),
            control_share * 100.0
        );
        sums[0] += base.cpi();
        sums[1] += pred.cpi();
    }
    let n = rows.len() as f64;
    let _ = writeln!(
        out,
        "{:<16} {:>10.2} {:>12.2}   ({:.1}% CPI from not-taken speculation alone)",
        "AVERAGE",
        sums[0] / n,
        sums[1] / n,
        (1.0 - sums[1] / sums[0]) * 100.0
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shift_register_report_has_all_sizes() {
        let r = shift_register_report();
        assert!(r.contains("4x4"));
        assert!(r.contains("32x32"));
    }

    #[test]
    fn energy_win_holds_at_suite_level() {
        let report = energy_report();
        assert!(report.contains("TOTAL"));
        // The net HiPerRF energy delta must be negative (a saving).
        let net_line = report
            .lines()
            .find(|l| l.contains("net:"))
            .expect("net line");
        assert!(net_line.contains("HiPerRF -"), "{net_line}");
    }

    #[test]
    fn schedule_ablation_never_regresses_much() {
        // Scheduling may be neutral on chain-bound kernels but must never
        // hurt badly, and must help somewhere.
        let rows = schedule_ablation(RfDesign::HiPerRf);
        let mut helped = 0;
        for r in &rows {
            assert!(r.cpi_after <= r.cpi_before * 1.03, "{r:?}");
            if r.cpi_after < r.cpi_before * 0.999 {
                helped += 1;
            }
        }
        assert!(
            helped >= 3,
            "scheduling should help several benchmarks, helped {helped}"
        );
    }
}
