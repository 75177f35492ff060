//! `repro` — regenerates every table and figure of the HiPerRF paper.
//!
//! ```text
//! repro table1       Table I   (JJ counts)
//! repro table2       Table II  (static power)
//! repro table3       Table III (readout delay)
//! repro table4       Table IV  (delays with PTL wires)
//! repro figure14     Figure 14 (CPI overhead per benchmark)
//! repro chip         Full-chip JJ result (§VI-A, 16.3% reduction)
//! repro figure15     Loopback-path placement report (Fig. 15 stand-in)
//! repro timing       Control timing diagrams (Figs. 8, 11, 12)
//! repro ablations    Design-space ablations beyond the paper
//! repro margins      Variation-aware margin tables + yield curves
//! repro faults       Fault-injection demonstrations
//! repro designs      Registry smoke matrix: every design, built + driven
//! repro lint         Static lint matrix: netlist DRC + min/max-path timing
//! repro cosim        CPU co-simulation on the pulse-level netlists + fault demo
//! repro serve        Sim-as-a-service smoke: submit, cache hit, drain
//! repro all          Everything above, in order, with a per-section time table
//! ```
//!
//! `repro` takes at most one section (default `all`). `margins`,
//! `faults`, `designs`, `lint`, `cosim`, and `serve` accept `--smoke` for
//! the fast CI path. `--threads N` pins the Monte Carlo worker count for
//! the process (it sets `HIPERRF_THREADS`); the default is the machine's
//! available parallelism. An unknown section or flag, or a second
//! section, prints the usage text and exits 2. Every section prints its
//! wall-clock time, and `repro all` ends with the per-section timing
//! table. Performance is measured by `perfbench/`, not here.
//!
//! Sections self-assert; a failed assertion is *contained* per section,
//! `repro all` keeps going, and the process exits nonzero if anything
//! failed. `--json` appends one machine-readable line —
//! `{"ok":…,"sections":[{"name":…,"ok":…,"ms":…,"error":…}]}` — for CI
//! to parse instead of scraping tables.

use std::time::Duration;

use hiperrf::budget::{hiperrf_budget, ndro_rf_budget, structural_budget};
use hiperrf::config::RfGeometry;
use hiperrf::delay::{readout_delay_ps, RfDesign};
use hiperrf::designs::registry;
use hiperrf_bench::ablations::{
    bank_allocation_report, energy_report, margins_report, memory_latency_report,
    prediction_report, schedule_report, shift_register_report,
};
use hiperrf_bench::cosim::{cosim_rows, fault_demo, render as render_cosim};
use hiperrf_bench::figure14::{average_overheads, figure14, render as render_fig14};
use hiperrf_bench::lint::{lint_detail, lint_matrix};
use hiperrf_bench::reports::{
    budget_breakdown_report, render_sim_stats, render_table1, render_table2, render_table3,
    table4_report,
};
use hiperrf_bench::robustness::{faults_report, margins_table};
use hiperrf_bench::serve_smoke::serve_report;
use hiperrf_bench::timing_diagrams::all_diagrams;
use sfq_cells::spec::{CellKind, CellSpec};
use sfq_chip::pnr;
use sfq_chip::sodor::{chip_budget, PAPER_BASELINE_CHIP_JJ, PAPER_HIPERRF_CHIP_JJ};

fn chip_report() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "== Full-chip JJ budget (Sodor core, §VI-A) ==");
    let base = chip_budget(RfDesign::NdroBaseline);
    let hi = chip_budget(RfDesign::HiPerRf);
    let dual = chip_budget(RfDesign::DualBanked);
    let _ = writeln!(
        out,
        "{:<16} {:>12} {:>12} {:>12}",
        "component", "baseline", "HiPerRF", "dual"
    );
    for i in 0..base.components.len() {
        let _ = writeln!(
            out,
            "{:<16} {:>12} {:>12} {:>12}",
            base.components[i].name,
            base.components[i].jj,
            hi.components[i].jj,
            dual.components[i].jj
        );
    }
    let _ = writeln!(
        out,
        "{:<16} {:>12} {:>12} {:>12}",
        "TOTAL",
        base.total_jj(),
        hi.total_jj(),
        dual.total_jj()
    );
    let _ = writeln!(
        out,
        "reduction vs baseline: HiPerRF {:.1}%  dual {:.1}%   (paper: {:.1}% with {} -> {})",
        100.0 * hi.reduction_vs(&base),
        100.0 * dual.reduction_vs(&base),
        100.0 * (1.0 - PAPER_HIPERRF_CHIP_JJ as f64 / PAPER_BASELINE_CHIP_JJ as f64),
        PAPER_BASELINE_CHIP_JJ,
        PAPER_HIPERRF_CHIP_JJ
    );
    out
}

fn figure15_report() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let g = RfGeometry::paper_32x32();
    let _ = writeln!(
        out,
        "== Fig. 15 stand-in: placed loopback path (32x32 HiPerRF) =="
    );
    let stats = pnr::wire_stats();
    let _ = writeln!(
        out,
        "mean gate-to-gate wire {:.0} µm -> {:.2} ps/hop (PTL at 1 ps / 100 µm)",
        stats.mean_hop_um, stats.mean_hop_ps
    );
    let _ = writeln!(out, "{:<42} {:>10} {:>10}", "segment", "µm", "ps");
    for seg in pnr::loopback_path(g) {
        let _ = writeln!(
            out,
            "{:<42} {:>10.0} {:>10.2}",
            seg.name, seg.length_um, seg.delay_ps
        );
    }
    let _ = writeln!(
        out,
        "longest single wire: {:.1} ps (paper: 4.6 ps, far below the 53 ps decoder cycle)",
        pnr::longest_loopback_wire_ps(g)
    );
    out
}

fn ablations_report() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "== Ablations beyond the paper ==");

    // 1. Register-file size sweep: the paper's claim that HiPerRF's
    // advantage grows with size.
    let _ = writeln!(
        out,
        "\n-- size sweep (width 32): JJ saving and delay overhead --"
    );
    let _ = writeln!(
        out,
        "{:>10} {:>12} {:>14}",
        "registers", "JJ saving", "delay overhead"
    );
    for regs in [4usize, 8, 16, 32, 64, 128, 256] {
        let g = RfGeometry::new(regs, 32).expect("valid");
        let saving =
            1.0 - hiperrf_budget(g).jj_total() as f64 / ndro_rf_budget(g).jj_total() as f64;
        let overhead = readout_delay_ps(RfDesign::HiPerRf, g)
            / readout_delay_ps(RfDesign::NdroBaseline, g)
            - 1.0;
        let _ = writeln!(
            out,
            "{regs:>10} {:>11.1}% {:>13.1}%",
            saving * 100.0,
            overhead * 100.0
        );
    }

    let jj = |kind| CellSpec::of(kind).expect("a library cell").jj_count;

    // 2. HC-DRO capacity: generalize the cell to 1/2/4 bits and rebuild
    // the whole register file around it.
    let _ = writeln!(out, "\n-- HC-DRO capacity sweep: whole-RF cost at 32x32 --");
    let _ = writeln!(
        out,
        "{:>6} {:>8} {:>10} {:>12} {:>14}",
        "bits", "fluxons", "RF JJs", "readout ps", "storage JJ/bit"
    );
    for p in hiperrf::capacity::capacity_sweep(RfGeometry::paper_32x32()) {
        let _ = writeln!(
            out,
            "{:>6} {:>8} {:>10} {:>12.1} {:>14.2}",
            p.bits,
            p.pulses,
            p.jj_total,
            p.readout_ps,
            jj(CellKind::HcDro) as f64 / f64::from(p.bits)
        );
    }
    let _ = writeln!(
        out,
        "two bits per cell is the sweet spot: beyond it the pulse machinery\n\
         and the serial readout tail cost more than the storage saves.\n\
         (NDRO reference: {:.2} JJ per bit)",
        jj(CellKind::Ndro) as f64
    );

    // 3. Demux style: NDROC tree vs combinational AND/NOT demux.
    let _ = writeln!(out, "\n-- demux style: JJ cost of a 1-to-32 demux --");
    let ndroc_demux = 31 * jj(CellKind::Ndroc) + (26 + 30) * jj(CellKind::Splitter);
    // A combinational 1-to-2 demux costs ~50 JJs (paper §III-A): one AND
    // pair + NOT + splitters.
    let comb_stage = 2 * jj(CellKind::AndGate) + jj(CellKind::NotGate) + 4 * jj(CellKind::Splitter);
    let comb_demux = 31 * comb_stage;
    let _ = writeln!(out, "NDROC tree:          {ndroc_demux:>6} JJs");
    let _ = writeln!(
        out,
        "combinational tree:  {comb_demux:>6} JJs ({comb_stage} JJs per 1-to-2 stage, ~50 in the paper)"
    );

    // 4. Banking factor: interface + demux scaling at 32x32.
    let _ = writeln!(out, "\n-- banking factor at 32x32 --");
    let g = RfGeometry::paper_32x32();
    let single = hiperrf_budget(g).jj_total();
    let dual = hiperrf::budget::dual_banked_budget(g).jj_total();
    let _ = writeln!(out, "1 bank:  {single:>6} JJs");
    let _ = writeln!(
        out,
        "2 banks: {dual:>6} JJs (+{:.1}%)",
        100.0 * (dual as f64 / single as f64 - 1.0)
    );
    let quad = 4 * hiperrf_budget(RfGeometry::new(8, 32).expect("valid")).jj_total() + 3 * 32;
    let _ = writeln!(
        out,
        "4 banks: {quad:>6} JJs (+{:.1}%) — interface growth erodes the demux savings",
        100.0 * (quad as f64 / single as f64 - 1.0)
    );
    let two_port = hiperrf::budget::multi_port_hiperrf_budget(g, 2).jj_total();
    let _ = writeln!(
        out,
        "true 2R2W (no banking): {two_port} JJs ({:.2}x the single-port design —\n\
         the superlinear growth that motivates banking, paper §V)",
        two_port as f64 / single as f64
    );
    let _ = writeln!(out, "\n{}", shift_register_report());
    let _ = writeln!(out, "{}", margins_report());
    let _ = writeln!(out, "{}", schedule_report());
    let _ = writeln!(out, "{}", bank_allocation_report());
    let _ = writeln!(out, "{}", memory_latency_report());
    let _ = writeln!(out, "{}", energy_report());
    let _ = writeln!(out, "{}", prediction_report());
    out
}

/// The registry smoke matrix: builds every registered design at each
/// geometry, drives it through a write/read round trip behind the
/// `RegisterFile` trait, and checks its elaborated census against the
/// structural budget.
fn designs_report(smoke: bool) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "== Design registry smoke matrix ==");
    let sizes: &[RfGeometry] = if smoke {
        &[RfGeometry::paper_4x4()]
    } else {
        &[RfGeometry::paper_4x4(), RfGeometry::paper_16x16()]
    };
    let _ = writeln!(
        out,
        "{:<16} {:>12} {:>8} {:>10} {:>12}   scheduler load",
        "design", "size", "JJs", "power/µW", "round trip"
    );
    for design in registry() {
        for &g in sizes {
            let mut rf = design.build(g);
            rf.write(1, 0b101);
            let ok = rf.peek(1) == 0b101 && rf.read(1) == 0b101 && rf.violations().is_empty();
            assert!(ok, "{design} at {g}: round trip failed");
            let census = rf.census();
            let budget = structural_budget(design, g);
            assert_eq!(census, budget.census(), "{design} at {g}: census drift");
            let stats = rf.sim_stats();
            assert!(
                stats.events_processed > 0 && stats.peak_queue_depth > 0,
                "{design} at {g}: the round trip must exercise the scheduler"
            );
            let _ = writeln!(
                out,
                "{:<16} {:>12} {:>8} {:>10.1} {:>12}   {}",
                design.label(),
                format!("{g}"),
                census.jj_total(),
                census.static_power_uw(),
                "ok",
                render_sim_stats(stats)
            );
        }
    }
    out
}

/// Every concrete section, in `repro all` order.
const SECTIONS: [&str; 16] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "budget",
    "figure14",
    "chip",
    "figure15",
    "timing",
    "ablations",
    "margins",
    "faults",
    "designs",
    "lint",
    "cosim",
    "serve",
];

/// Runs one concrete section's report; any self-assertion failure panics
/// (the caller contains it).
fn run_section(section: &str, smoke: bool) {
    match section {
        "table1" => print!("{}", render_table1()),
        "table2" => print!("{}", render_table2()),
        "table3" => print!("{}", render_table3()),
        "table4" => print!("{}", table4_report()),
        "budget" => print!("{}", budget_breakdown_report()),
        "figure14" => {
            let rows = figure14();
            print!("{}", render_fig14(&rows));
            let avg = average_overheads(&rows);
            println!(
                "shape check: HiPerRF {:.1}% > dual {:.1}% > ideal {:.1}% (paper 9.8/3.6/2.3)",
                avg[0] * 100.0,
                avg[1] * 100.0,
                avg[2] * 100.0
            );
        }
        "chip" => print!("{}", chip_report()),
        "figure15" => print!("{}", figure15_report()),
        "timing" => print!("{}", all_diagrams()),
        "ablations" => print!("{}", ablations_report()),
        "margins" => print!("{}", margins_table(smoke)),
        "faults" => print!("{}", faults_report(smoke)),
        "designs" => print!("{}", designs_report(smoke)),
        "lint" => {
            print!("{}", lint_matrix(smoke));
            if !smoke {
                print!("{}", lint_detail());
            }
        }
        "cosim" => {
            print!("{}", render_cosim(&cosim_rows(smoke)));
            if !smoke {
                print!("{}", fault_demo());
            }
        }
        "serve" => print!("{}", serve_report(smoke)),
        // Undocumented: lets tests exercise the containment + exit-code
        // path without breaking a real section.
        "selfcheck-fail" => panic!("injected self-check failure"),
        other => unreachable!("unknown section `{other}` reached run_section"),
    }
}

/// One section's outcome for the exit code and the `--json` summary.
struct SectionOutcome {
    name: &'static str,
    ok: bool,
    wall: Duration,
    error: Option<String>,
}

/// Best-effort text of a section's panic payload.
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one section with panic containment: a failed self-assertion marks
/// the section failed instead of aborting the run.
fn run_contained(name: &'static str, smoke: bool) -> SectionOutcome {
    let start = std::time::Instant::now();
    let outcome =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_section(name, smoke)));
    let wall = start.elapsed();
    match outcome {
        Ok(()) => SectionOutcome {
            name,
            ok: true,
            wall,
            error: None,
        },
        Err(payload) => {
            let error = panic_text(payload);
            println!("[{name}: FAILED — {error}]");
            SectionOutcome {
                name,
                ok: false,
                wall,
                error: Some(error),
            }
        }
    }
}

/// Renders the machine-readable summary line for `--json`.
fn json_summary(outcomes: &[SectionOutcome]) -> String {
    use sfq_serve::json::Json;
    let sections = outcomes
        .iter()
        .map(|o| {
            let mut fields = vec![
                ("name", Json::str(o.name)),
                ("ok", Json::Bool(o.ok)),
                ("ms", Json::u64(o.wall.as_millis() as u64)),
            ];
            if let Some(e) = &o.error {
                fields.push(("error", Json::str(e.clone())));
            }
            Json::obj(fields)
        })
        .collect();
    Json::obj(vec![
        ("ok", Json::Bool(outcomes.iter().all(|o| o.ok))),
        ("sections", Json::Arr(sections)),
    ])
    .to_string()
}

/// Renders a wall-clock duration with a unit that keeps 3-4 significant
/// digits.
fn format_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

/// Renders the per-section wall-clock table that `repro all` ends with,
/// from the time [`run_contained`] measured for each section.
fn render_timings(outcomes: &[SectionOutcome]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "-- wall-clock per phase --");
    let _ = writeln!(out, "{:<24} {:>12}", "phase", "wall clock");
    for o in outcomes {
        let _ = writeln!(out, "{:<24} {:>12}", o.name, format_duration(o.wall));
    }
    let total: Duration = outcomes.iter().map(|o| o.wall).sum();
    let _ = writeln!(out, "{:<24} {:>12}", "TOTAL", format_duration(total));
    out
}

/// The command line `repro` understood.
struct Args {
    section: &'static str,
    smoke: bool,
    json: bool,
    threads: Option<usize>,
}

/// Parses the command line: at most one section (default `all`),
/// `--smoke`, `--json`, and `--threads N` / `--threads=N`. Anything else
/// is an error, reported above the usage text.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        section: "all",
        smoke: false,
        json: false,
        threads: None,
    };
    let mut section = None;
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        match arg {
            "--smoke" => parsed.smoke = true,
            "--json" => parsed.json = true,
            "--threads" => parsed.threads = Some(parse_threads(it.next())?),
            flag if flag.starts_with("--") => {
                let value = flag
                    .strip_prefix("--threads=")
                    .ok_or_else(|| format!("unknown flag `{flag}`"))?;
                parsed.threads = Some(parse_threads(Some(value))?);
            }
            positional => {
                if let Some(first) = section.replace(positional) {
                    return Err(format!(
                        "expected one section, got `{first}` and `{positional}`"
                    ));
                }
            }
        }
    }
    if let Some(section) = section {
        // `selfcheck-fail` is undocumented: see `run_section`.
        parsed.section = SECTIONS
            .into_iter()
            .chain(["all", "selfcheck-fail"])
            .find(|&s| s == section)
            .ok_or_else(|| format!("unknown section `{section}`"))?;
    }
    Ok(parsed)
}

/// A `--threads` value: a positive integer.
fn parse_threads(value: Option<&str>) -> Result<usize, String> {
    match value.map(str::parse) {
        Some(Ok(n)) if n > 0 => Ok(n),
        _ => Err("--threads expects a positive integer".to_string()),
    }
}

/// The usage text printed below a command-line error.
fn usage() -> String {
    format!(
        "usage: repro [SECTION] [--smoke] [--json] [--threads N]\n\
         sections: {} all (default: all)\n\
         margins/faults/designs/lint/cosim/serve accept --smoke; \
         --threads N pins MC workers; --json emits a summary line",
        SECTIONS.join(" ")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&args).unwrap_or_else(|error| {
        eprintln!("repro: {error}\n{}", usage());
        std::process::exit(2);
    });
    if let Some(threads) = args.threads {
        // `repro --threads N` pins the Monte Carlo worker count for this
        // process; `par::available_threads` reads the variable back.
        std::env::set_var(hiperrf::par::THREADS_ENV, threads.to_string());
    }
    let section = args.section;

    let start = std::time::Instant::now();
    let outcomes: Vec<SectionOutcome> = if section == "all" {
        let mut outcomes = Vec::new();
        for name in SECTIONS {
            // Failures are contained per section: the rest of the run
            // still happens, and the summary names every casualty.
            outcomes.push(run_contained(name, args.smoke));
            println!();
        }
        print!("{}", render_timings(&outcomes));
        outcomes
    } else {
        vec![run_contained(section, args.smoke)]
    };

    println!("[{section}: {}]", format_duration(start.elapsed()));
    if args.json {
        println!("{}", json_summary(&outcomes));
    }
    let failed = outcomes.iter().filter(|o| !o.ok).count();
    if failed > 0 {
        eprintln!(
            "repro: {failed} of {} section(s) failed self-assertions",
            outcomes.len()
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_table_lists_every_section_and_a_total() {
        let outcomes: Vec<SectionOutcome> = SECTIONS
            .iter()
            .zip(1..)
            .map(|(&name, ms)| SectionOutcome {
                name,
                ok: true,
                wall: Duration::from_millis(ms),
                error: None,
            })
            .collect();
        let table = render_timings(&outcomes);
        let rows: Vec<&str> = table.lines().skip(2).collect();
        assert_eq!(rows.len(), SECTIONS.len() + 1, "{table}");
        for (row, name) in rows.iter().zip(SECTIONS) {
            assert!(row.starts_with(name), "{row} for {name}");
        }
        // 1 + 2 + … + 16 ms.
        assert!(rows[SECTIONS.len()].starts_with("TOTAL"), "{table}");
        assert!(rows[SECTIONS.len()].ends_with("136.00 ms"), "{table}");
    }

    #[test]
    fn threads_equals_form_parses_and_malformed_counts_are_refused() {
        let parse =
            |args: &[&str]| parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>());
        let args = parse(&["--smoke", "--threads=3"]).expect("valid");
        assert_eq!(
            (args.section, args.smoke, args.threads),
            ("all", true, Some(3))
        );
        for bad in [&["--threads"][..], &["--threads", "0"], &["--threads=x"]] {
            let error = parse(bad).err().expect("refused");
            assert!(error.contains("positive integer"), "{bad:?}: {error}");
        }
    }
}
