//! The single-bank HiPerRF register file with its functional driver
//! (paper §IV).

use sfq_cells::typed::TypedBuilder;
use sfq_sim::simulator::Simulator;

use crate::config::RfGeometry;
use crate::harness::{RegisterFile, RfHarness};
use crate::hc_rf::{build_hc_rf, HcBank};

/// A runnable HiPerRF register file with its simulator.
///
/// Reads are *restoring*: the destructive HC-DRO pop is recycled through
/// the LoopBuffer back into the source register, so successive reads return
/// the same value — the paper's central mechanism.
///
/// # Examples
///
/// ```
/// use hiperrf::config::RfGeometry;
/// use hiperrf::hiperrf_rf::HiPerRf;
/// use hiperrf::RegisterFile;
///
/// let mut rf = HiPerRf::new(RfGeometry::paper_4x4());
/// rf.write(1, 0b1001);
/// assert_eq!(rf.read(1), 0b1001);
/// assert_eq!(rf.read(1), 0b1001); // still there after the read
/// ```
#[derive(Debug)]
pub struct HiPerRf {
    h: RfHarness,
    bank: HcBank,
}

impl HiPerRf {
    /// Builds the register file through the typed elaboration layer
    /// (wiring legality by construction) and wraps it in a simulator.
    pub fn new(geometry: RfGeometry) -> Self {
        let (elab, ports) = TypedBuilder::elaborate(|b| build_hc_rf(b, geometry).externalize(b));
        elab.assert_total();
        let mut sim = Simulator::new(elab.netlist);
        let bank = HcBank::new(&mut sim, ports);
        HiPerRf {
            h: RfHarness::new(geometry, sim),
            bank,
        }
    }

    fn advance(&mut self) {
        self.bank.finish_op(self.h.sim_mut());
        self.h.advance_cursor();
    }
}

impl RegisterFile for HiPerRf {
    fn harness(&self) -> &RfHarness {
        &self.h
    }

    fn harness_mut(&mut self) -> &mut RfHarness {
        &mut self.h
    }

    /// Reads a register. The value is restored via the loopback write.
    fn read(&mut self, reg: usize) -> u64 {
        self.h.assert_reg(reg);
        let t = self.h.cursor();
        let v = self.bank.read_op(self.h.sim_mut(), reg, t);
        self.advance();
        v
    }

    /// Writes a register — an erase read (LoopBuffer reset) followed by an
    /// HC-WRITE of the new value — with a deliberate data-vs-enable skew
    /// (ps) on the HC-WRITE phase.
    fn write_skewed(&mut self, reg: usize, value: u64, skew_ps: f64) {
        self.h.assert_write(reg, value);
        let t = self.h.cursor();
        self.bank.erase_op(self.h.sim_mut(), reg, t);
        self.advance();
        let t = self.h.cursor();
        self.bank
            .write_op_skewed(self.h.sim_mut(), reg, value, t, skew_ps);
        self.advance();
    }

    /// Peeks stored register contents without disturbing state.
    fn peek(&self, reg: usize) -> u64 {
        self.bank.peek(self.h.sim(), reg)
    }

    fn lint_ports(&self) -> sfq_lint::LintPorts {
        let inputs = self.bank.ports.lint_inputs();
        sfq_lint::LintPorts {
            timing: Some(sfq_lint::TimingSpec {
                starts: inputs.clone(),
                issue_period_ps: crate::harness::OP_GAP_PS,
            }),
            external_inputs: inputs,
            external_outputs: self.bank.ports.lint_outputs(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_round_trip() {
        let mut rf = HiPerRf::new(RfGeometry::paper_4x4());
        rf.write(2, 0b0110);
        assert_eq!(rf.peek(2), 0b0110);
        assert_eq!(rf.read(2), 0b0110);
        assert!(
            rf.violations().is_empty(),
            "violations: {:?}",
            rf.violations()
        );
    }

    #[test]
    fn read_restores_via_loopback() {
        // The destructive pop must be recycled: the register still holds
        // its value after the read completes.
        let mut rf = HiPerRf::new(RfGeometry::paper_4x4());
        rf.write(1, 0b1011);
        for i in 0..5 {
            assert_eq!(rf.read(1), 0b1011, "read {i}");
            assert_eq!(rf.peek(1), 0b1011, "restore after read {i}");
        }
        assert!(rf.violations().is_empty());
    }

    #[test]
    fn all_two_bit_patterns_round_trip() {
        let mut rf = HiPerRf::new(RfGeometry::paper_4x4());
        for v in 0..16u64 {
            rf.write(3, v);
            assert_eq!(rf.read(3), v, "value {v:#06b}");
            assert_eq!(rf.peek(3), v, "restore of {v:#06b}");
        }
    }

    #[test]
    fn overwrite_erases_old_value() {
        // Without the erase read, fluxons would accumulate: 0b11 over 0b01
        // would saturate. The erase must make overwrite exact.
        let mut rf = HiPerRf::new(RfGeometry::paper_4x4());
        rf.write(0, 0b1111);
        rf.write(0, 0b0101);
        assert_eq!(rf.read(0), 0b0101);
        rf.write(0, 0b0000);
        assert_eq!(rf.read(0), 0b0000);
    }

    #[test]
    fn registers_are_independent() {
        let mut rf = HiPerRf::new(RfGeometry::paper_16x16());
        for r in 0..16 {
            rf.write(r, (r as u64 * 0x1357) & 0xffff);
        }
        for r in (0..16).rev() {
            assert_eq!(rf.read(r), (r as u64 * 0x1357) & 0xffff, "register {r}");
        }
        assert!(rf.violations().is_empty());
    }

    #[test]
    fn unwritten_registers_read_zero() {
        let mut rf = HiPerRf::new(RfGeometry::paper_4x4());
        assert_eq!(rf.read(0), 0);
        assert_eq!(rf.read(3), 0);
    }

    #[test]
    fn census_matches_budget() {
        for g in [RfGeometry::paper_4x4(), RfGeometry::paper_16x16()] {
            let rf = HiPerRf::new(g);
            let structural = rf.census();
            let budget = crate::budget::hiperrf_budget(g).census();
            assert_eq!(structural, budget, "geometry {g}");
        }
    }
}
