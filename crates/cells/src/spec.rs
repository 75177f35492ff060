//! Cell specifications: JJ counts, static power, and census over netlists.
//!
//! In SFQ technology the Josephson-junction (JJ) count is the primary
//! manufacturing and density metric (paper §II-E, §VI-A), and static power
//! is dominated by the bias network, so both are per-cell constants.
//!
//! JJ counts stated in the paper: NDRO **11**, 2-bit HC-DRO **3** (7.3×
//! density advantage), NDROC **33** \[19\], clocked AND **12**, clocked NOT
//! **10**. The remaining counts (splitter 3, merger 5, JTL 2, DRO 6,
//! DAND 5, counter bit 14) follow the RSFQ cell library the paper builds on.
//!
//! Static power values are calibrated so the whole-register-file totals
//! track the paper's Table II (see `EXPERIMENTS.md` for measured-vs-paper).

use std::collections::BTreeMap;
use std::fmt;

use sfq_sim::cell::Cell;
pub use sfq_sim::cell::CellKind;
use sfq_sim::netlist::Netlist;

/// Per-cell manufacturing/power specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSpec {
    /// The cell kind.
    pub kind: CellKind,
    /// Josephson junction count.
    pub jj_count: u64,
    /// Static (bias) power in microwatts.
    pub static_power_uw: f64,
}

impl CellSpec {
    /// The library specification of `kind`; `None` for the sync sampler (a
    /// margin-study reference, never part of a register file), which a
    /// [`Census`] counts as unknown.
    pub fn of(kind: CellKind) -> Option<CellSpec> {
        let (jj_count, static_power_uw) = match kind {
            CellKind::Jtl => (2, 0.40),
            CellKind::Splitter => (3, 0.55),
            CellKind::Merger => (5, 1.00),
            CellKind::Dro => (6, 1.20),
            // Higher critical currents (J1≈115µA, J2≈111µA) give the 3-JJ
            // HC-DRO a higher per-JJ bias power than ordinary cells.
            CellKind::HcDro => (3, 2.00),
            CellKind::Ndro => (11, 2.20),
            CellKind::Ndroc => (33, 7.90),
            CellKind::Dand => (5, 1.00),
            CellKind::AndGate => (12, 2.40),
            CellKind::NotGate => (10, 2.00),
            CellKind::XorGate => (11, 2.20),
            CellKind::CounterBit => (14, 2.80),
            CellKind::Sync => return None,
        };
        Some(CellSpec {
            kind,
            jj_count,
            static_power_uw,
        })
    }
}

/// The specification of a kind a census counted, which [`Census::add`]
/// admits only with one.
fn counted(kind: CellKind) -> CellSpec {
    CellSpec::of(kind).expect("a census counts only library cells")
}

/// Aggregate census of a netlist: instance counts, JJ total, power total.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Census {
    counts: BTreeMap<CellKind, u64>,
    unknown: u64,
}

impl Census {
    /// Builds a census by walking a netlist and classifying each cell by
    /// its [`kind`](Cell::kind).
    pub fn of(netlist: &Netlist) -> Census {
        Census::of_cells(netlist.iter().map(|(_, _, c)| c))
    }

    /// Builds a census of one instance-scope subtree (see
    /// [`Netlist::iter_scope`]) — the structural basis for per-section
    /// JJ/power budgets derived from the elaborated netlist.
    pub fn of_scope(netlist: &Netlist, scope: &str) -> Census {
        Census::of_cells(netlist.iter_scope(scope).map(|(_, _, c)| c))
    }

    /// Builds a census over any stream of cells (e.g. a scope-filtered
    /// iteration).
    pub fn of_cells<'a>(cells: impl IntoIterator<Item = &'a Cell>) -> Census {
        let mut census = Census::default();
        for cell in cells {
            census.add(cell.kind(), 1);
        }
        census
    }

    /// Adds `n` instances of `kind` (for closed-form budgets that do not
    /// build a physical netlist); a kind without a [`CellSpec`] counts as
    /// unknown.
    pub fn add(&mut self, kind: CellKind, n: u64) {
        match CellSpec::of(kind) {
            Some(_) => *self.counts.entry(kind).or_insert(0) += n,
            None => self.unknown += n,
        }
    }

    /// Merges another census into this one.
    pub fn merge(&mut self, other: &Census) {
        for (&k, &n) in &other.counts {
            self.add(k, n);
        }
        self.unknown += other.unknown;
    }

    /// Instance count of a kind.
    pub fn count(&self, kind: CellKind) -> u64 {
        self.counts.get(&kind).copied().unwrap_or(0)
    }

    /// Number of components whose kind was not in the library.
    pub fn unknown(&self) -> u64 {
        self.unknown
    }

    /// Total cell instances (excluding unknown).
    pub fn total_cells(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Total Josephson junction count.
    pub fn jj_total(&self) -> u64 {
        self.counts
            .iter()
            .map(|(&k, n)| counted(k).jj_count * n)
            .sum()
    }

    /// Total static power in µW.
    pub fn static_power_uw(&self) -> f64 {
        self.counts
            .iter()
            .map(|(&k, &n)| counted(k).static_power_uw * n as f64)
            .sum()
    }

    /// Iterates `(kind, count)` pairs in display order.
    pub fn iter(&self) -> impl Iterator<Item = (CellKind, u64)> + '_ {
        self.counts.iter().map(|(&k, &n)| (k, n))
    }
}

impl fmt::Display for Census {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<12} {:>8} {:>10} {:>12}",
            "cell", "count", "JJs", "power/µW"
        )?;
        for (kind, n) in self.iter() {
            let spec = counted(kind);
            writeln!(
                f,
                "{:<12} {:>8} {:>10} {:>12.2}",
                kind.name(),
                n,
                spec.jj_count * n,
                spec.static_power_uw * n as f64
            )?;
        }
        writeln!(
            f,
            "{:<12} {:>8} {:>10} {:>12.2}",
            "TOTAL",
            self.total_cells(),
            self.jj_total(),
            self.static_power_uw()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jj(kind: CellKind) -> u64 {
        CellSpec::of(kind).expect("a library cell").jj_count
    }

    #[test]
    fn paper_stated_jj_counts() {
        // Values the paper states explicitly.
        assert_eq!(jj(CellKind::Ndro), 11);
        assert_eq!(jj(CellKind::HcDro), 3);
        assert_eq!(jj(CellKind::Ndroc), 33);
        assert_eq!(jj(CellKind::AndGate), 12);
        assert_eq!(jj(CellKind::NotGate), 10);
    }

    #[test]
    fn hcdro_density_advantage() {
        // 2-bit NDRO storage = 22 JJs vs 3 JJs: the paper's 7.3×.
        let ratio = (2 * jj(CellKind::Ndro)) as f64 / jj(CellKind::HcDro) as f64;
        assert!((ratio - 7.33).abs() < 0.01);
    }

    #[test]
    fn census_add_and_totals() {
        let mut c = Census::default();
        c.add(CellKind::Ndro, 4);
        c.add(CellKind::Splitter, 2);
        assert_eq!(c.jj_total(), 4 * 11 + 2 * 3);
        assert_eq!(c.total_cells(), 6);
        assert!((c.static_power_uw() - (4.0 * 2.2 + 2.0 * 0.55)).abs() < 1e-9);
    }

    #[test]
    fn census_merge() {
        let mut a = Census::default();
        a.add(CellKind::Jtl, 1);
        let mut b = Census::default();
        b.add(CellKind::Jtl, 2);
        b.add(CellKind::Merger, 1);
        a.merge(&b);
        assert_eq!(a.count(CellKind::Jtl), 3);
        assert_eq!(a.count(CellKind::Merger), 1);
    }

    #[test]
    fn display_includes_total() {
        let mut c = Census::default();
        c.add(CellKind::Ndroc, 1);
        let s = c.to_string();
        assert!(s.contains("ndroc"));
        assert!(s.contains("TOTAL"));
        assert!(s.contains("33"));
    }
}
