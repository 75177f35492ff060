//! The dual-banked HiPerRF register file (paper §V, Fig. 13).
//!
//! Two half-size HiPerRF banks split by register-number parity (odd
//! registers in bank 0, even in bank 1, per the paper), each with its own
//! read, write, and output port. The bank interface adds data-bit splitters
//! feeding both banks' HC-WRITE inputs (the per-bank write gates isolate
//! the unselected bank) plus select/enable conditioning taps.
//!
//! Banking halves the demux depth and drops one merger and one splitter
//! from the loopback path, which is where the dual-banked design's readout
//! latency advantage in Table III comes from.

use sfq_cells::typed::TypedBuilder;
use sfq_sim::netlist::Pin;
use sfq_sim::simulator::Simulator;
use sfq_sim::time::Duration;

use crate::config::RfGeometry;
use crate::harness::{RegisterFile, RfHarness, OP_GAP_PS};
use crate::hc_rf::{build_hc_rf, HcBank, TypedHcRfPorts};

/// Which bank a register lives in (paper §V-B: odd register numbers are
/// bank 0).
pub fn bank_of(reg: usize) -> usize {
    if reg % 2 == 1 {
        0
    } else {
        1
    }
}

/// Index of a register within its bank.
pub fn index_in_bank(reg: usize) -> usize {
    reg / 2
}

/// A runnable dual-banked HiPerRF with its simulator.
///
/// # Examples
///
/// ```
/// use hiperrf::banked::DualBankRf;
/// use hiperrf::config::RfGeometry;
/// use hiperrf::RegisterFile;
///
/// let mut rf = DualBankRf::new(RfGeometry::paper_4x4());
/// rf.write(3, 0b0110);
/// assert_eq!(rf.read(3), 0b0110);
/// ```
#[derive(Debug)]
pub struct DualBankRf {
    h: RfHarness,
    banks: [HcBank; 2],
    /// Open monitor branches of the interface conditioning taps (declared
    /// observation points for the `dropped-wire` lint rule).
    monitor_pins: Vec<Pin>,
}

impl DualBankRf {
    /// Builds the banked register file through the typed elaboration layer
    /// (wiring legality by construction).
    ///
    /// # Panics
    ///
    /// Panics if the geometry has fewer than four registers (two per bank).
    pub fn new(geometry: RfGeometry) -> Self {
        let bank_geom = geometry
            .bank_geometry()
            .expect("dual-banked register file needs at least four registers");

        /// Puts a conditioning tap in front of each read-select and the
        /// read enable, exposing the monitor branch (`OUT1`) as a declared
        /// observation point.
        fn tap_bank<'b>(
            b: &mut TypedBuilder<'b>,
            mut pt: TypedHcRfPorts<'b>,
            monitor_pins: &mut Vec<Pin>,
        ) -> TypedHcRfPorts<'b> {
            let sels = std::mem::take(&mut pt.read_sel);
            for sel in sels {
                let tap = b.splitter();
                b.bind(tap.out0, sel);
                pt.read_sel.push(tap.input);
                monitor_pins.push(b.expose(tap.out1));
            }
            let tap = b.splitter();
            b.bind(tap.out0, pt.read_enable);
            pt.read_enable = tap.input;
            monitor_pins.push(b.expose(tap.out1));
            pt
        }

        let (elab, (ports0, ports1, monitor_pins)) = TypedBuilder::elaborate(|b| {
            let mut pt0 = b.scoped("bank0", |b| build_hc_rf(b, bank_geom));
            let mut pt1 = b.scoped("bank1", |b| build_hc_rf(b, bank_geom));

            // Interface: W_DATA bit splitters feeding both banks' HC-WRITE
            // inputs, then select/enable conditioning taps.
            b.push_scope("interface".to_string());
            let mut data_b0 = Vec::new();
            let mut data_b1 = Vec::new();
            let p0_d0 = std::mem::take(&mut pt0.data_b0);
            let p1_d0 = std::mem::take(&mut pt1.data_b0);
            let p0_d1 = std::mem::take(&mut pt0.data_b1);
            let p1_d1 = std::mem::take(&mut pt1.data_b1);
            for (((d00, d10), d01), d11) in p0_d0.into_iter().zip(p1_d0).zip(p0_d1).zip(p1_d1) {
                let s0 = b.splitter();
                b.bind(s0.out0, d00);
                b.bind(s0.out1, d10);
                data_b0.push(b.external(s0.input));
                let s1 = b.splitter();
                b.bind(s1.out0, d01);
                b.bind(s1.out1, d11);
                data_b1.push(b.external(s1.input));
            }
            let mut monitor_pins = Vec::new();
            let pt0 = tap_bank(b, pt0, &mut monitor_pins);
            let pt1 = tap_bank(b, pt1, &mut monitor_pins);
            b.pop_scope();

            // Point both banks' data inputs at the shared interface
            // splitters.
            let mut ports0 = pt0.externalize(b);
            let mut ports1 = pt1.externalize(b);
            ports0.data_b0 = data_b0.clone();
            ports0.data_b1 = data_b1.clone();
            ports1.data_b0 = data_b0;
            ports1.data_b1 = data_b1;
            (ports0, ports1, monitor_pins)
        });
        elab.assert_total();
        let mut sim = Simulator::new(elab.netlist);
        let mut bank0 = HcBank::new(&mut sim, ports0);
        let mut bank1 = HcBank::new(&mut sim, ports1);
        // Interface delays: one splitter stage on the read-enable/select
        // path and one on the data path.
        for bank in [&mut bank0, &mut bank1] {
            bank.extra_enable_ps = sfq_cells::timing::SPLITTER_DELAY_PS;
            bank.extra_data_ps = sfq_cells::timing::SPLITTER_DELAY_PS;
        }
        DualBankRf {
            h: RfHarness::new(geometry, sim),
            banks: [bank0, bank1],
            monitor_pins,
        }
    }

    fn advance(&mut self, bank: usize) {
        self.banks[bank].finish_op(self.h.sim_mut());
        self.h.advance_cursor();
    }

    /// Reads two registers in *different banks* concurrently — the banked
    /// design's two-port behaviour (paper §V-B).
    ///
    /// # Panics
    ///
    /// Panics if the registers are in the same bank or out of range.
    pub fn read_pair(&mut self, reg_a: usize, reg_b: usize) -> (u64, u64) {
        self.h.assert_reg(reg_a);
        self.h.assert_reg(reg_b);
        let (ba, bb) = (bank_of(reg_a), bank_of(reg_b));
        assert_ne!(ba, bb, "read_pair needs registers in different banks");
        let t = self.h.cursor();
        // Fire both banks in the same operation window. Reads must be
        // collected per bank because probes are shared per column set.
        let va = self.banks[ba].read_op(self.h.sim_mut(), index_in_bank(reg_a), t);
        self.banks[ba].finish_op(self.h.sim_mut());
        let t2 = self.h.sim().now() + Duration::from_ps(OP_GAP_PS);
        let vb = self.banks[bb].read_op(self.h.sim_mut(), index_in_bank(reg_b), t2);
        self.advance(bb);
        (va, vb)
    }
}

impl RegisterFile for DualBankRf {
    fn harness(&self) -> &RfHarness {
        &self.h
    }

    fn harness_mut(&mut self) -> &mut RfHarness {
        &mut self.h
    }

    /// Reads a register (restoring).
    fn read(&mut self, reg: usize) -> u64 {
        self.h.assert_reg(reg);
        let bank = bank_of(reg);
        let t = self.h.cursor();
        let v = self.banks[bank].read_op(self.h.sim_mut(), index_in_bank(reg), t);
        self.advance(bank);
        v
    }

    /// Writes a register (erase read, then HC-WRITE) with a deliberate
    /// data-vs-enable skew (ps) on the HC-WRITE phase.
    fn write_skewed(&mut self, reg: usize, value: u64, skew_ps: f64) {
        self.h.assert_write(reg, value);
        let bank = bank_of(reg);
        let t = self.h.cursor();
        self.banks[bank].erase_op(self.h.sim_mut(), index_in_bank(reg), t);
        self.advance(bank);
        let t = self.h.cursor();
        self.banks[bank].write_op_skewed(self.h.sim_mut(), index_in_bank(reg), value, t, skew_ps);
        self.advance(bank);
    }

    /// Peeks stored register contents without disturbing state.
    fn peek(&self, reg: usize) -> u64 {
        self.banks[bank_of(reg)].peek(self.h.sim(), index_in_bank(reg))
    }

    fn lint_ports(&self) -> sfq_lint::LintPorts {
        // The data inputs are shared interface splitters, so the two
        // banks' port lists overlap; the lint engine treats the list as a
        // set.
        let mut inputs = self.banks[0].ports.lint_inputs();
        inputs.extend(self.banks[1].ports.lint_inputs());
        let mut outputs = self.banks[0].ports.lint_outputs();
        outputs.extend(self.banks[1].ports.lint_outputs());
        outputs.extend(self.monitor_pins.iter().copied());
        sfq_lint::LintPorts {
            timing: Some(sfq_lint::TimingSpec {
                starts: inputs.clone(),
                issue_period_ps: OP_GAP_PS,
            }),
            external_inputs: inputs,
            external_outputs: outputs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parity_banking() {
        assert_eq!(bank_of(1), 0);
        assert_eq!(bank_of(3), 0);
        assert_eq!(bank_of(0), 1);
        assert_eq!(bank_of(2), 1);
        assert_eq!(index_in_bank(5), 2);
        assert_eq!(index_in_bank(4), 2);
    }

    #[test]
    fn write_then_read_round_trip() {
        let mut rf = DualBankRf::new(RfGeometry::paper_4x4());
        for reg in 0..4 {
            rf.write(reg, (0b0110 + reg as u64) & 0xf);
            assert_eq!(rf.read(reg), (0b0110 + reg as u64) & 0xf, "reg {reg}");
        }
        assert!(
            rf.violations().is_empty(),
            "violations: {:?}",
            rf.violations()
        );
    }

    #[test]
    fn read_restores_in_both_banks() {
        let mut rf = DualBankRf::new(RfGeometry::paper_4x4());
        rf.write(0, 0b1010); // bank 1
        rf.write(1, 0b0101); // bank 0
        for _ in 0..3 {
            assert_eq!(rf.read(0), 0b1010);
            assert_eq!(rf.read(1), 0b0101);
        }
        assert_eq!(rf.peek(0), 0b1010);
        assert_eq!(rf.peek(1), 0b0101);
    }

    #[test]
    fn read_pair_hits_both_banks() {
        let mut rf = DualBankRf::new(RfGeometry::paper_4x4());
        rf.write(2, 0b0011);
        rf.write(3, 0b1100);
        let (a, b) = rf.read_pair(3, 2);
        assert_eq!((a, b), (0b1100, 0b0011));
    }

    #[test]
    #[should_panic(expected = "different banks")]
    fn read_pair_same_bank_panics() {
        let mut rf = DualBankRf::new(RfGeometry::paper_4x4());
        let _ = rf.read_pair(1, 3);
    }

    #[test]
    fn overwrite_works_across_banks() {
        let mut rf = DualBankRf::new(RfGeometry::paper_16x16());
        for reg in 0..16 {
            rf.write(reg, 0xffff);
            rf.write(reg, reg as u64 * 3);
        }
        for reg in 0..16 {
            assert_eq!(rf.read(reg), reg as u64 * 3, "reg {reg}");
        }
        assert!(rf.violations().is_empty());
    }

    #[test]
    fn census_matches_budget() {
        for g in [RfGeometry::paper_4x4(), RfGeometry::paper_16x16()] {
            let rf = DualBankRf::new(g);
            let structural = rf.census();
            let budget = crate::budget::dual_banked_budget(g).census();
            assert_eq!(structural, budget, "geometry {g}");
        }
    }
}
