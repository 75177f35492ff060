//! JJ / power budgets for the register-file designs, derived two ways.
//!
//! [`structural_budget`] is the source of truth: it elaborates a design's
//! netlist and walks its hierarchical instance scopes, grouping every cell
//! into a named section. The closed-form budgets below enumerate the same
//! cells analytically, section by section, and tests assert the two
//! derivations are *identical* — the formulas cross-check the structure
//! and vice versa. Both regenerate the paper's Table I (JJ count) and
//! Table II (static power).
//!
//! Terminology: `n` = registers, `w` = bits per register, `c = w/2` HC-DRO
//! columns, `L = log2(n)` demux levels.

use sfq_cells::{CellKind, Census};
use sfq_sim::netlist::Netlist;

use crate::config::RfGeometry;
use crate::designs::Design;

/// One named section of a design budget (e.g. `"read port"`).
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetSection {
    /// Section name.
    pub name: &'static str,
    /// Cells in the section.
    pub census: Census,
}

/// A per-section cell budget for a register-file design.
#[derive(Debug, Clone, PartialEq)]
pub struct RfBudget {
    /// Design name (for reports).
    pub design: &'static str,
    /// Geometry the budget was computed for.
    pub geometry: RfGeometry,
    /// Sections in display order.
    pub sections: Vec<BudgetSection>,
}

impl RfBudget {
    /// Merged census over all sections.
    pub fn census(&self) -> Census {
        let mut total = Census::default();
        for s in &self.sections {
            total.merge(&s.census);
        }
        total
    }

    /// Total JJ count.
    pub fn jj_total(&self) -> u64 {
        self.census().jj_total()
    }

    /// Total static power (µW).
    pub fn static_power_uw(&self) -> f64 {
        self.census().static_power_uw()
    }
}

/// Splitters in the SEL-distribution trees of one NDROC demux: level `i`
/// has `2^i` NDROCs sharing one select bit, needing `2^i - 1` splitters;
/// summed over levels 1..L this is `n - L - 1`.
fn demux_sel_splitters(n: usize, levels: usize) -> u64 {
    (n - levels - 1) as u64
}

/// Splitters broadcasting the demux RESET to all `n - 1` NDROCs.
fn demux_reset_splitters(n: usize) -> u64 {
    (n - 2) as u64
}

fn demux_census(n: usize, levels: usize) -> Census {
    let mut c = Census::default();
    c.add(CellKind::Ndroc, (n - 1) as u64);
    c.add(
        CellKind::Splitter,
        demux_sel_splitters(n, levels) + demux_reset_splitters(n),
    );
    c
}

/// Cells of one HC-CLK pulse tripler (see `sfq_cells::composite`).
fn hc_clk_census(count: u64) -> Census {
    let mut c = Census::default();
    c.add(CellKind::Splitter, 2 * count);
    c.add(CellKind::Merger, 2 * count);
    c.add(CellKind::Jtl, 2 * count);
    c
}

/// Cells of one HC-WRITE serializer.
fn hc_write_census(count: u64) -> Census {
    let mut c = Census::default();
    c.add(CellKind::Splitter, count);
    c.add(CellKind::Merger, 2 * count);
    c.add(CellKind::Jtl, 3 * count);
    c
}

/// Cells of one HC-READ decoder.
fn hc_read_census(count: u64) -> Census {
    let mut c = Census::default();
    c.add(CellKind::CounterBit, 2 * count);
    c.add(CellKind::Splitter, 2 * count);
    c
}

/// Budget for the baseline clock-less NDRO register file (paper §III).
pub fn ndro_rf_budget(geometry: RfGeometry) -> RfBudget {
    let n = geometry.registers();
    let w = geometry.width();
    let levels = geometry.demux_levels();

    let mut storage = Census::default();
    storage.add(CellKind::Ndro, (n * w) as u64);

    // Read port: demux tree + per-register read-enable splitter trees
    // fanning each demux output across the register's w cells.
    let mut read_port = demux_census(n, levels);
    read_port.add(CellKind::Splitter, (n * (w - 1)) as u64);

    // Reset port: identical structure, driven by W_ADDR (paper §III-B).
    let reset_port = read_port.clone();

    // Write port: demux + WEN fan-out trees + W_DATA fan-out trees + one
    // dynamic AND per bit cell (paper §III-C, Fig. 7).
    let mut write_port = demux_census(n, levels);
    write_port.add(CellKind::Splitter, (n * (w - 1)) as u64); // WEN trees
    write_port.add(CellKind::Splitter, (w * (n - 1)) as u64); // W_DATA trees
    write_port.add(CellKind::Dand, (n * w) as u64);

    // Output port: per-bit-column merger trees.
    let mut output_port = Census::default();
    output_port.add(CellKind::Merger, ((n - 1) * w) as u64);

    RfBudget {
        design: "NDRO RF (baseline)",
        geometry,
        sections: vec![
            BudgetSection {
                name: "storage",
                census: storage,
            },
            BudgetSection {
                name: "read port",
                census: read_port,
            },
            BudgetSection {
                name: "reset port",
                census: reset_port,
            },
            BudgetSection {
                name: "write port",
                census: write_port,
            },
            BudgetSection {
                name: "output port",
                census: output_port,
            },
        ],
    }
}

/// Budget for HiPerRF (paper §IV).
pub fn hiperrf_budget(geometry: RfGeometry) -> RfBudget {
    let n = geometry.registers();
    let c = geometry.hc_columns();
    let levels = geometry.demux_levels();

    let mut storage = Census::default();
    storage.add(CellKind::HcDro, (n * c) as u64);

    // Read port: demux + one HC-CLK per register + per-register splitter
    // trees fanning the tripled enable across c columns. No reset port —
    // the read port doubles as the erase port via the LoopBuffer
    // (paper §IV-C).
    let mut read_port = demux_census(n, levels);
    read_port.merge(&hc_clk_census(n as u64));
    read_port.add(CellKind::Splitter, (n * (c - 1)) as u64);

    // Write port: demux + HC-CLK per register + WEN gate trees + DANDs +
    // HC-WRITE per column + loopback-join merger per column + W_DATA
    // fan-out trees.
    let mut write_port = demux_census(n, levels);
    write_port.merge(&hc_clk_census(n as u64));
    write_port.add(CellKind::Splitter, (n * (c - 1)) as u64); // gate trees
    write_port.add(CellKind::Dand, (n * c) as u64);
    write_port.merge(&hc_write_census(c as u64));
    write_port.add(CellKind::Merger, c as u64); // loopback join
    write_port.add(CellKind::Splitter, (c * (n - 1)) as u64); // data trees

    // Output port: column merger trees + LoopBuffer NDROs with SET/RESET
    // broadcast trees + per-column output splitter (loopback vs HC-READ) +
    // HC-READ decoders with READ/RESET broadcast trees.
    let mut output_port = Census::default();
    output_port.add(CellKind::Merger, ((n - 1) * c) as u64);
    output_port.add(CellKind::Ndro, c as u64); // LoopBuffer
    output_port.add(CellKind::Splitter, c as u64); // LoopBuffer out
    output_port.add(CellKind::Splitter, 2 * (c - 1) as u64); // LB set/reset trees
    output_port.merge(&hc_read_census(c as u64));
    output_port.add(CellKind::Splitter, 2 * (c - 1) as u64); // HC-READ read/reset trees

    RfBudget {
        design: "HiPerRF",
        geometry,
        sections: vec![
            BudgetSection {
                name: "storage",
                census: storage,
            },
            BudgetSection {
                name: "read port",
                census: read_port,
            },
            BudgetSection {
                name: "write port",
                census: write_port,
            },
            BudgetSection {
                name: "output port",
                census: output_port,
            },
        ],
    }
}

/// Budget for the dual-banked HiPerRF (paper §V): two half-size banks plus
/// the port-interface fan-out (data-bit splitters to both banks, read-SEL
/// conditioning taps, enable taps).
pub fn dual_banked_budget(geometry: RfGeometry) -> RfBudget {
    let bank = geometry
        .bank_geometry()
        .expect("dual-banked needs >= 4 registers");
    let w = geometry.width();
    let levels = geometry.demux_levels();

    let bank_budget = hiperrf_budget(bank);
    let mut sections = Vec::new();
    for which in ["bank 0", "bank 1"] {
        for s in &bank_budget.sections {
            sections.push(BudgetSection {
                name: match (which, s.name) {
                    ("bank 0", "storage") => "bank0 storage",
                    ("bank 0", "read port") => "bank0 read port",
                    ("bank 0", "write port") => "bank0 write port",
                    ("bank 0", "output port") => "bank0 output port",
                    ("bank 1", "storage") => "bank1 storage",
                    ("bank 1", "read port") => "bank1 read port",
                    ("bank 1", "write port") => "bank1 write port",
                    _ => "bank1 output port",
                },
                census: s.census.clone(),
            });
        }
    }

    // Interface: one splitter per data bit feeding both banks' HC-WRITE
    // inputs, one conditioning tap per bank read-SEL bit, one tap per bank
    // enable.
    let mut interface = Census::default();
    interface.add(CellKind::Splitter, w as u64 + 2 * (levels - 1) as u64 + 2);
    sections.push(BudgetSection {
        name: "bank interface",
        census: interface,
    });

    RfBudget {
        design: "Dual-banked HiPerRF",
        geometry,
        sections,
    }
}

/// Budget for a hypothetical monolithic multi-ported HiPerRF with
/// `read_ports` read ports (each of which, per paper §V, drags in its own
/// loopback write port). This is the design point the paper *rejects* in
/// favour of banking: "a 32x32 bits HiPerRF with two read ports and two
/// write ports costs nearly triple the JJ counts due to superlinear
/// increase in the merger, splitter, and other peripheral circuitry".
///
/// Extra costs per additional port beyond the duplicated port machinery:
/// every cell's output must split toward each output network, and every
/// cell's CLK/D pins need mergers to accept enables/data from each port.
///
/// # Panics
///
/// Panics if `read_ports` is zero.
pub fn multi_port_hiperrf_budget(geometry: RfGeometry, read_ports: usize) -> RfBudget {
    assert!(
        read_ports >= 1,
        "a register file needs at least one read port"
    );
    let n = geometry.registers();
    let c = geometry.hc_columns();
    let base = hiperrf_budget(geometry);
    if read_ports == 1 {
        return base;
    }
    let extra = (read_ports - 1) as u64;

    let mut sections = base.sections;
    // Each extra read port duplicates the read port, the write port (for
    // its loopback), and the whole output port (merger trees, LoopBuffer,
    // HC-READ).
    let per_port: Vec<Census> = sections[1..4].iter().map(|s| s.census.clone()).collect();
    for (i, name) in [
        "extra read ports",
        "extra write ports",
        "extra output ports",
    ]
    .iter()
    .enumerate()
    {
        let mut census = Census::default();
        for _ in 0..extra {
            census.merge(&per_port[i]);
        }
        sections.push(BudgetSection { name, census });
    }
    // Cross-port plumbing at every cell: output splitters toward each
    // output network, CLK mergers for the enables, D mergers for the data.
    let mut plumbing = Census::default();
    plumbing.add(CellKind::Splitter, (n * c) as u64 * extra);
    plumbing.add(CellKind::Merger, 2 * (n * c) as u64 * extra);
    sections.push(BudgetSection {
        name: "cross-port cell plumbing",
        census: plumbing,
    });

    RfBudget {
        design: "Multi-ported HiPerRF",
        geometry,
        sections,
    }
}

/// The closed-form budget of a registered design — the analytic
/// cross-check for [`structural_budget`].
pub fn closed_form_budget(design: Design, geometry: RfGeometry) -> RfBudget {
    match design {
        Design::NdroBaseline => ndro_rf_budget(geometry),
        Design::HiPerRf => hiperrf_budget(geometry),
        Design::DualBanked => dual_banked_budget(geometry),
        Design::ShiftRegister => crate::shift_rf::shift_rf_budget(geometry),
    }
}

/// Maps a HiPerRF-bank scope's leading segment to its budget section.
fn hc_section(segment: &str) -> Option<&'static str> {
    if segment.starts_with("reg") {
        return Some("storage");
    }
    match segment {
        "read" => Some("read port"),
        // The datapath (HC-WRITE serializers, loopback join, W_DATA fan)
        // is part of the write port in the paper's accounting.
        "write" | "datapath" => Some("write port"),
        "output" => Some("output port"),
        _ => None,
    }
}

/// Maps an elaborated-netlist scope path to the budget section its cells
/// belong to.
///
/// # Panics
///
/// Panics on a scope no section claims — a new builder region must be
/// assigned a section here before structural budgets cover it.
fn section_of(design: Design, scope: &str) -> &'static str {
    let mut segments = scope.split('/');
    let head = segments.next().unwrap_or("");
    let section = match design {
        Design::NdroBaseline => {
            if head.starts_with("reg") {
                Some("storage")
            } else {
                match head {
                    "read" => Some("read port"),
                    "reset" => Some("reset port"),
                    "write" => Some("write port"),
                    "output" => Some("output port"),
                    _ => None,
                }
            }
        }
        Design::HiPerRf => hc_section(head),
        Design::DualBanked => match head {
            "interface" => Some("bank interface"),
            "bank0" => segments.next().and_then(hc_section).and_then(|s| match s {
                "storage" => Some("bank0 storage"),
                "read port" => Some("bank0 read port"),
                "write port" => Some("bank0 write port"),
                "output port" => Some("bank0 output port"),
                _ => None,
            }),
            "bank1" => segments.next().and_then(hc_section).and_then(|s| match s {
                "storage" => Some("bank1 storage"),
                "read port" => Some("bank1 read port"),
                "write port" => Some("bank1 write port"),
                "output port" => Some("bank1 output port"),
                _ => None,
            }),
            _ => None,
        },
        Design::ShiftRegister => {
            if head.starts_with("ring") {
                match segments.next() {
                    Some("bits") => Some("storage"),
                    _ => Some("ring plumbing"),
                }
            } else {
                match head {
                    // Recirculation-gate SET/RESET distribution belongs to
                    // the rings it controls.
                    "gating" => Some("ring plumbing"),
                    "clock" | "wdata" => Some("ports"),
                    _ => None,
                }
            }
        }
    };
    section.unwrap_or_else(|| panic!("unmapped scope {scope:?} for design {design}"))
}

/// Derives a design's budget from its *elaborated netlist*: builds the
/// structural model, walks every component's hierarchical scope, and
/// groups cells into sections (in first-appearance order, which the
/// builders lay out to match the closed-form section order).
///
/// This is the structure-derived source of truth behind the Table I / II
/// reports; [`closed_form_budget`] is its analytic cross-check.
pub fn structural_budget(design: Design, geometry: RfGeometry) -> RfBudget {
    structural_budget_of(design, geometry, design.build(geometry).netlist())
}

/// [`structural_budget`] over a netlist the caller already elaborated
/// (`design` at `geometry`), so analyses that build the design anyway —
/// the linter — do not build it a second time.
pub fn structural_budget_of(design: Design, geometry: RfGeometry, netlist: &Netlist) -> RfBudget {
    let mut sections: Vec<BudgetSection> = Vec::new();
    for (id, _, cell) in netlist.iter() {
        let name = section_of(design, netlist.scope_of(id));
        let census = Census::of_cells([cell]);
        match sections.iter_mut().find(|s| s.name == name) {
            Some(s) => s.census.merge(&census),
            None => sections.push(BudgetSection { name, census }),
        }
    }
    RfBudget {
        design: closed_form_budget(design, geometry).design,
        geometry,
        sections,
    }
}

/// Paper-reported reference values for Tables I and II.
pub mod paper {
    /// Table I: total JJ count for (4×4, 16×16, 32×32).
    pub const JJ_NDRO: [u64; 3] = [784, 9_850, 36_722];
    /// Table I: HiPerRF JJ counts.
    pub const JJ_HIPERRF: [u64; 3] = [695, 5_195, 16_133];
    /// Table I: dual-banked HiPerRF JJ counts.
    pub const JJ_DUAL: [u64; 3] = [736, 5_626, 17_094];
    /// Table II: static power (µW) for the baseline.
    pub const POWER_NDRO: [f64; 3] = [170.73, 1_997.49, 7_262.17];
    /// Table II: HiPerRF static power (µW).
    pub const POWER_HIPERRF: [f64; 3] = [149.16, 1_220.05, 3_911.00];
    /// Table II: dual-banked static power (µW).
    pub const POWER_DUAL: [f64; 3] = [148.47, 1_289.89, 4_077.88];
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel_err(ours: f64, paper: f64) -> f64 {
        (ours - paper).abs() / paper
    }

    #[test]
    fn ndro_4x4_matches_paper_exactly() {
        let b = ndro_rf_budget(RfGeometry::paper_4x4());
        assert_eq!(b.jj_total(), 784, "paper Table I reports exactly 784 JJs");
    }

    #[test]
    fn ndro_jj_tracks_table1() {
        for (g, paper) in RfGeometry::paper_sizes().iter().zip(paper::JJ_NDRO) {
            let ours = ndro_rf_budget(*g).jj_total();
            assert!(
                rel_err(ours as f64, paper as f64) < 0.01,
                "{g}: ours {ours} vs paper {paper}"
            );
        }
    }

    #[test]
    fn hiperrf_jj_tracks_table1() {
        for (g, paper) in RfGeometry::paper_sizes().iter().zip(paper::JJ_HIPERRF) {
            let ours = hiperrf_budget(*g).jj_total();
            assert!(
                rel_err(ours as f64, paper as f64) < 0.05,
                "{g}: ours {ours} vs paper {paper}"
            );
        }
    }

    #[test]
    fn dual_banked_jj_tracks_table1() {
        for (g, paper) in RfGeometry::paper_sizes().iter().zip(paper::JJ_DUAL) {
            let ours = dual_banked_budget(*g).jj_total();
            assert!(
                rel_err(ours as f64, paper as f64) < 0.02,
                "{g}: ours {ours} vs paper {paper}"
            );
        }
    }

    #[test]
    fn hiperrf_beats_baseline_at_scale() {
        // The paper's headline: ~56% JJ reduction at 32×32, shrinking
        // advantage at 4×4 where the overhead circuits dominate.
        let g = RfGeometry::paper_32x32();
        let base = ndro_rf_budget(g).jj_total() as f64;
        let hi = hiperrf_budget(g).jj_total() as f64;
        let saving = 1.0 - hi / base;
        assert!(saving > 0.5 && saving < 0.6, "32x32 saving was {saving:.3}");

        let g4 = RfGeometry::paper_4x4();
        let saving4 =
            1.0 - hiperrf_budget(g4).jj_total() as f64 / ndro_rf_budget(g4).jj_total() as f64;
        assert!(
            saving4 < 0.2,
            "4x4 saving should be small, got {saving4:.3}"
        );
    }

    #[test]
    fn dual_banked_costs_more_than_single() {
        for g in RfGeometry::paper_sizes() {
            assert!(dual_banked_budget(g).jj_total() > hiperrf_budget(g).jj_total());
        }
    }

    #[test]
    fn power_tracks_table2() {
        for (i, g) in RfGeometry::paper_sizes().iter().enumerate() {
            assert!(
                rel_err(ndro_rf_budget(*g).static_power_uw(), paper::POWER_NDRO[i]) < 0.04,
                "baseline power {g}"
            );
            assert!(
                rel_err(
                    hiperrf_budget(*g).static_power_uw(),
                    paper::POWER_HIPERRF[i]
                ) < 0.02,
                "hiperrf power {g}"
            );
            assert!(
                rel_err(
                    dual_banked_budget(*g).static_power_uw(),
                    paper::POWER_DUAL[i]
                ) < 0.10,
                "dual power {g}"
            );
        }
    }

    #[test]
    fn advantage_grows_with_size() {
        // Paper §VI-A: the relative advantage of HiPerRF grows with size.
        let mut prev = 0.0;
        for regs in [4usize, 8, 16, 32, 64, 128] {
            let g = RfGeometry::new(regs, regs.min(64)).unwrap();
            let saving =
                1.0 - hiperrf_budget(g).jj_total() as f64 / ndro_rf_budget(g).jj_total() as f64;
            assert!(saving > prev, "saving should grow: {saving} at {regs} regs");
            prev = saving;
        }
    }

    #[test]
    fn two_port_hiperrf_nearly_triples() {
        // Paper §V: a 2R2W 32x32 HiPerRF "costs nearly triple the JJ
        // counts"; banking achieves two ports for ~8% extra.
        let g = RfGeometry::paper_32x32();
        let single = hiperrf_budget(g).jj_total() as f64;
        let two_port = multi_port_hiperrf_budget(g, 2).jj_total() as f64;
        let ratio = two_port / single;
        // Our plumbing model lands at ~2.3x; the paper's qualitative
        // "nearly triple" presumably includes routing growth our flat
        // per-cell terms do not capture. Either way the conclusion stands:
        assert!((2.2..3.2).contains(&ratio), "2R2W ratio {ratio:.2}");
        let banked = dual_banked_budget(g).jj_total() as f64;
        assert!(
            banked < 0.5 * two_port,
            "banking must be far cheaper than true 2R2W"
        );
    }

    #[test]
    fn one_port_multi_budget_is_the_plain_budget() {
        let g = RfGeometry::paper_16x16();
        assert_eq!(
            multi_port_hiperrf_budget(g, 1).jj_total(),
            hiperrf_budget(g).jj_total()
        );
    }

    #[test]
    fn sections_cover_whole_budget() {
        let b = hiperrf_budget(RfGeometry::paper_32x32());
        let section_sum: u64 = b.sections.iter().map(|s| s.census.jj_total()).sum();
        assert_eq!(section_sum, b.jj_total());
    }

    #[test]
    fn demux_splitter_formulas() {
        assert_eq!(demux_sel_splitters(32, 5), 26);
        assert_eq!(demux_sel_splitters(4, 2), 1);
        assert_eq!(demux_reset_splitters(32), 30);
    }

    #[test]
    fn structural_budget_equals_closed_form_section_by_section() {
        // The tie between the two derivations: walking the elaborated
        // netlist's scopes must reproduce the analytic budget exactly —
        // same sections, same order, same per-section censuses.
        for design in crate::designs::registry() {
            for g in [RfGeometry::paper_4x4(), RfGeometry::paper_16x16()] {
                let structural = structural_budget(design, g);
                let closed = closed_form_budget(design, g);
                assert_eq!(structural, closed, "{design} at {g}");
            }
        }
    }

    #[test]
    fn both_structural_entry_points_agree() {
        for design in Design::ALL {
            for g in RfGeometry::paper_sizes() {
                let rf = design.build(g);
                assert_eq!(
                    structural_budget_of(design, g, rf.netlist()),
                    structural_budget(design, g),
                    "{design} at {g}"
                );
            }
        }
    }

    #[test]
    fn structural_jj_tracks_table1() {
        // Table I from the elaborated netlists, not the formulas.
        for (i, g) in RfGeometry::paper_sizes().iter().enumerate() {
            let pairs = [
                (Design::NdroBaseline, paper::JJ_NDRO[i], 0.01),
                (Design::HiPerRf, paper::JJ_HIPERRF[i], 0.05),
                (Design::DualBanked, paper::JJ_DUAL[i], 0.02),
            ];
            for (design, paper, tol) in pairs {
                let ours = structural_budget(design, *g).jj_total();
                assert!(
                    rel_err(ours as f64, paper as f64) < tol,
                    "{design} {g}: structural {ours} vs paper {paper}"
                );
            }
        }
    }

    #[test]
    fn structural_power_tracks_table2() {
        // Table II from the elaborated netlists, not the formulas.
        for (i, g) in RfGeometry::paper_sizes().iter().enumerate() {
            let pairs = [
                (Design::NdroBaseline, paper::POWER_NDRO[i], 0.04),
                (Design::HiPerRf, paper::POWER_HIPERRF[i], 0.02),
                (Design::DualBanked, paper::POWER_DUAL[i], 0.10),
            ];
            for (design, paper, tol) in pairs {
                let ours = structural_budget(design, *g).static_power_uw();
                assert!(
                    rel_err(ours, paper) < tol,
                    "{design} {g}: structural {ours:.2} µW vs paper {paper} µW"
                );
            }
        }
    }
}
