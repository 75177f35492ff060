//! Storage cells: DRO, HC-DRO, NDRO, NDROC.
//!
//! These are the memory elements of SFQ technology (paper §II-C..§II-E):
//!
//! * **DRO** stores at most one fluxon; a clock pulse reads it out and
//!   resets the loop (destructive read).
//! * **HC-DRO** accumulates up to three fluxons in one loop — the paper's
//!   dual-bit dense-storage cell. Each clock pulse pops one fluxon.
//! * **NDRO** keeps its fluxon across reads; a separate RESET input clears
//!   it.
//! * **NDROC** is an NDRO with complementary outputs, used as the 1-to-2
//!   demux element of the clock-less register-file ports (paper §III-A).

use sfq_sim::cell::{Cell, CellOp, CellState};
use sfq_sim::time::Duration;

use crate::timing::{
    DRO_CLK_TO_OUT_PS, HCDRO_CAPACITY, HCDRO_CLK_TO_OUT_PS, HCDRO_HARD_SEP_PS, HCDRO_PULSE_SEP_PS,
    NDROC_PROP_PS, NDROC_REARM_PS, NDRO_CLK_TO_OUT_PS,
};

/// Destructive-readout cell (one fluxon).
///
/// Pins: input `D = 0`, `CLK = 1`; output `Q = 0`.
pub struct Dro;

impl Dro {
    /// Data input pin.
    pub const D: u8 = 0;
    /// Read (clock) input pin.
    pub const CLK: u8 = 1;
    /// Output pin.
    pub const Q: u8 = 0;

    /// An empty DRO cell.
    pub fn cell() -> Cell {
        Cell::new(CellOp::Dro {
            q_delay: Duration::from_ps(DRO_CLK_TO_OUT_PS),
        })
    }
}

/// High-capacity destructive-readout cell: up to [`HCDRO_CAPACITY`] fluxons
/// in one storage loop, i.e. two bits per cell (paper §II-D).
///
/// Pins: input `D = 0`, `CLK = 1`; output `Q = 0`.
///
/// Successive pulses on either input must be separated by at least the
/// HC-DRO setup/hold window (10 ps); closer spacing records a timing
/// violation. Under [`ViolationPolicy::Record`](sfq_sim::violation::ViolationPolicy)
/// the pulse is still counted (marginal operation); under `Degrade` a
/// pulse closer than the 7 ps guard band is lost in the storage loop — a
/// write does not add its fluxon and a read does not pop one.
pub struct HcDro;

impl HcDro {
    /// Data input pin.
    pub const D: u8 = 0;
    /// Read (clock) input pin.
    pub const CLK: u8 = 1;
    /// Output pin.
    pub const Q: u8 = 0;

    /// An empty 2-bit HC-DRO cell (capacity 3 fluxons).
    pub fn cell() -> Cell {
        Cell::new(CellOp::HcDro {
            capacity: HCDRO_CAPACITY,
            q_delay: Duration::from_ps(HCDRO_CLK_TO_OUT_PS),
            sep: Duration::from_ps(HCDRO_PULSE_SEP_PS),
            hard_sep: Duration::from_ps(HCDRO_HARD_SEP_PS),
        })
    }
}

/// Non-destructive readout cell (paper §II-E).
///
/// Pins: input `SET = 0`, `RESET = 1`, `CLK = 2`; output `OUT = 0`.
/// A CLK pulse emits an output pulse iff a fluxon is stored, and the fluxon
/// stays.
pub struct Ndro;

impl Ndro {
    /// Set (data) input pin.
    pub const SET: u8 = 0;
    /// Reset input pin.
    pub const RESET: u8 = 1;
    /// Read (clock) input pin.
    pub const CLK: u8 = 2;
    /// Output pin.
    pub const OUT: u8 = 0;

    /// An empty NDRO cell.
    pub fn cell() -> Cell {
        Cell::new(CellOp::Ndro {
            out_delay: Duration::from_ps(NDRO_CLK_TO_OUT_PS),
        })
    }

    /// An NDRO cell holding a fluxon (for driver initialization).
    pub fn holding() -> Cell {
        Cell::with_state(Ndro::cell().op, CellState::with_bits(1))
    }
}

/// NDRO with complementary outputs — the 1-to-2 demux element (paper §III-A).
///
/// Pins: input `SET = 0`, `RESET = 1`, `CLK = 2`; outputs `OUT0 = 0`
/// (selected when a fluxon is stored) and `OUT1 = 1` (complement).
///
/// Successive CLK (enable) pulses must be at least the re-arm time apart
/// (53 ps, paper §III-E); closer spacing records a `re-arm` violation.
/// Under the `Degrade` policy the not-yet-re-armed cell routes the enable
/// to *neither* output — the pulse vanishes rather than misroutes, which is
/// what the un-recovered junctions of a real NDROC do.
pub struct Ndroc;

impl Ndroc {
    /// Set (select) input pin.
    pub const SET: u8 = 0;
    /// Reset input pin.
    pub const RESET: u8 = 1;
    /// Enable (clock) input pin.
    pub const CLK: u8 = 2;
    /// Output taken when the select fluxon is present.
    pub const OUT0: u8 = 0;
    /// Complementary output (select fluxon absent).
    pub const OUT1: u8 = 1;

    /// An unselected NDROC cell.
    pub fn cell() -> Cell {
        Cell::new(CellOp::Ndroc {
            prop: Duration::from_ps(NDROC_PROP_PS),
            rearm: Duration::from_ps(NDROC_REARM_PS),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfq_sim::netlist::{Netlist, Pin};
    use sfq_sim::simulator::Simulator;
    use sfq_sim::time::Time;

    fn single(cell: Cell) -> (Simulator, sfq_sim::netlist::ComponentId) {
        let mut n = Netlist::new();
        let id = n.add("cell", cell);
        (Simulator::new(n), id)
    }

    #[test]
    fn dro_read_is_destructive() {
        let (mut sim, id) = single(Dro::cell());
        let p = sim.probe(Pin::new(id, Dro::Q), "q");
        sim.inject(Pin::new(id, Dro::D), Time::from_ps(0.0));
        sim.inject(Pin::new(id, Dro::CLK), Time::from_ps(20.0));
        sim.inject(Pin::new(id, Dro::CLK), Time::from_ps(40.0));
        sim.run();
        // Second read finds nothing.
        assert_eq!(sim.probe_trace(p).len(), 1);
    }

    #[test]
    fn dro_extra_write_dissipates() {
        let (mut sim, id) = single(Dro::cell());
        let p = sim.probe(Pin::new(id, Dro::Q), "q");
        sim.inject(Pin::new(id, Dro::D), Time::from_ps(0.0));
        sim.inject(Pin::new(id, Dro::D), Time::from_ps(15.0));
        sim.inject(Pin::new(id, Dro::CLK), Time::from_ps(30.0));
        sim.inject(Pin::new(id, Dro::CLK), Time::from_ps(90.0));
        sim.run();
        assert_eq!(
            sim.probe_trace(p).len(),
            1,
            "a DRO holds at most one fluxon"
        );
    }

    #[test]
    fn hcdro_stores_three_fluxons() {
        let (mut sim, id) = single(HcDro::cell());
        let p = sim.probe(Pin::new(id, HcDro::Q), "q");
        for i in 0..3 {
            sim.inject(Pin::new(id, HcDro::D), Time::from_ps(10.0 * i as f64));
        }
        for i in 0..4 {
            sim.inject(
                Pin::new(id, HcDro::CLK),
                Time::from_ps(100.0 + 10.0 * i as f64),
            );
        }
        sim.run();
        // Three pulses out; the fourth clock finds an empty loop.
        assert_eq!(sim.probe_trace(p).len(), 3);
        assert!(sim.violations().is_empty());
    }

    #[test]
    fn hcdro_overflow_dissipates() {
        let (mut sim, id) = single(HcDro::cell());
        let p = sim.probe(Pin::new(id, HcDro::Q), "q");
        for i in 0..5 {
            sim.inject(Pin::new(id, HcDro::D), Time::from_ps(10.0 * i as f64));
        }
        for i in 0..5 {
            sim.inject(
                Pin::new(id, HcDro::CLK),
                Time::from_ps(200.0 + 10.0 * i as f64),
            );
        }
        sim.run();
        assert_eq!(sim.probe_trace(p).len(), 3, "capacity is three fluxons");
    }

    #[test]
    fn hcdro_close_pulses_violate_hold() {
        let (mut sim, id) = single(HcDro::cell());
        sim.inject(Pin::new(id, HcDro::D), Time::from_ps(0.0));
        sim.inject(Pin::new(id, HcDro::D), Time::from_ps(4.0));
        sim.run();
        assert_eq!(sim.violations().len(), 1);
        assert_eq!(sim.violations()[0].kind, "hold");
    }

    #[test]
    fn ndro_read_is_non_destructive() {
        let (mut sim, id) = single(Ndro::cell());
        let p = sim.probe(Pin::new(id, Ndro::OUT), "out");
        sim.inject(Pin::new(id, Ndro::SET), Time::from_ps(0.0));
        for i in 0..5 {
            sim.inject(
                Pin::new(id, Ndro::CLK),
                Time::from_ps(20.0 + 60.0 * i as f64),
            );
        }
        sim.run();
        assert_eq!(sim.probe_trace(p).len(), 5);
    }

    #[test]
    fn ndro_reset_clears() {
        let (mut sim, id) = single(Ndro::cell());
        let p = sim.probe(Pin::new(id, Ndro::OUT), "out");
        sim.inject(Pin::new(id, Ndro::SET), Time::from_ps(0.0));
        sim.inject(Pin::new(id, Ndro::RESET), Time::from_ps(10.0));
        sim.inject(Pin::new(id, Ndro::CLK), Time::from_ps(20.0));
        sim.run();
        assert!(sim.probe_trace(p).is_empty());
    }

    #[test]
    fn ndro_reset_on_empty_is_harmless() {
        let (mut sim, id) = single(Ndro::cell());
        sim.inject(Pin::new(id, Ndro::RESET), Time::from_ps(0.0));
        sim.run();
        assert!(sim.violations().is_empty());
    }

    #[test]
    fn ndroc_routes_by_select() {
        let (mut sim, id) = single(Ndroc::cell());
        let p0 = sim.probe(Pin::new(id, Ndroc::OUT0), "o0");
        let p1 = sim.probe(Pin::new(id, Ndroc::OUT1), "o1");
        // Unselected: complement output.
        sim.inject(Pin::new(id, Ndroc::CLK), Time::from_ps(0.0));
        // Selected: primary output.
        sim.inject(Pin::new(id, Ndroc::SET), Time::from_ps(30.0));
        sim.inject(Pin::new(id, Ndroc::CLK), Time::from_ps(60.0));
        sim.run();
        assert_eq!(sim.probe_trace(p0).len(), 1);
        assert_eq!(sim.probe_trace(p1).len(), 1);
        assert_eq!(
            sim.probe_trace(p0).pulses()[0],
            Time::from_ps(60.0 + NDROC_PROP_PS)
        );
    }

    #[test]
    fn ndroc_rearm_violation() {
        let (mut sim, id) = single(Ndroc::cell());
        sim.inject(Pin::new(id, Ndroc::CLK), Time::from_ps(0.0));
        sim.inject(Pin::new(id, Ndroc::CLK), Time::from_ps(40.0));
        sim.run();
        assert_eq!(sim.violations().len(), 1);
        assert_eq!(sim.violations()[0].kind, "re-arm");
    }

    #[test]
    fn ndroc_retains_select_until_reset() {
        let (mut sim, id) = single(Ndroc::cell());
        let p0 = sim.probe(Pin::new(id, Ndroc::OUT0), "o0");
        sim.inject(Pin::new(id, Ndroc::SET), Time::from_ps(0.0));
        sim.inject(Pin::new(id, Ndroc::CLK), Time::from_ps(10.0));
        sim.inject(Pin::new(id, Ndroc::CLK), Time::from_ps(70.0));
        sim.inject(Pin::new(id, Ndroc::RESET), Time::from_ps(100.0));
        sim.inject(Pin::new(id, Ndroc::CLK), Time::from_ps(130.0));
        sim.run();
        // Two selected reads, third goes to the complement.
        assert_eq!(sim.probe_trace(p0).len(), 2);
    }

    #[test]
    fn hcdro_degrade_loses_the_close_fluxon() {
        use sfq_sim::violation::ViolationPolicy;
        let (mut sim, id) = single(HcDro::cell());
        sim.set_violation_policy(ViolationPolicy::Degrade);
        sim.inject(Pin::new(id, HcDro::D), Time::from_ps(0.0));
        sim.inject(Pin::new(id, HcDro::D), Time::from_ps(4.0)); // violates, lost
        sim.inject(Pin::new(id, HcDro::D), Time::from_ps(20.0));
        sim.run();
        assert_eq!(sim.violations().len(), 1);
        assert_eq!(sim.stored(id), Some(2), "middle fluxon lost");
        assert_eq!(sim.degraded_drops(), 1);
    }

    #[test]
    fn hcdro_degrade_read_pops_nothing() {
        use sfq_sim::violation::ViolationPolicy;
        let (mut sim, id) = single(HcDro::cell());
        sim.set_violation_policy(ViolationPolicy::Degrade);
        let p = sim.probe(Pin::new(id, HcDro::Q), "q");
        sim.inject(Pin::new(id, HcDro::D), Time::from_ps(0.0));
        sim.inject(Pin::new(id, HcDro::D), Time::from_ps(10.0));
        sim.inject(Pin::new(id, HcDro::CLK), Time::from_ps(100.0));
        sim.inject(Pin::new(id, HcDro::CLK), Time::from_ps(104.0)); // violates, lost
        sim.run();
        assert_eq!(sim.probe_trace(p).len(), 1, "violated pop emits nothing");
        assert_eq!(sim.stored(id), Some(1), "count untouched");
    }

    #[test]
    fn ndroc_degrade_routes_to_neither_output() {
        use sfq_sim::violation::ViolationPolicy;
        let (mut sim, id) = single(Ndroc::cell());
        sim.set_violation_policy(ViolationPolicy::Degrade);
        let p0 = sim.probe(Pin::new(id, Ndroc::OUT0), "o0");
        let p1 = sim.probe(Pin::new(id, Ndroc::OUT1), "o1");
        sim.inject(Pin::new(id, Ndroc::SET), Time::from_ps(0.0));
        sim.inject(Pin::new(id, Ndroc::CLK), Time::from_ps(10.0));
        sim.inject(Pin::new(id, Ndroc::CLK), Time::from_ps(40.0)); // 30 ps < 53 ps
        sim.run();
        assert_eq!(sim.violations().len(), 1);
        assert_eq!(sim.violations()[0].kind, "re-arm");
        // The violated enable is *dropped*, not misrouted: exactly one
        // pulse total, from the first (clean) enable.
        assert_eq!(sim.probe_trace(p0).len(), 1);
        assert_eq!(sim.probe_trace(p1).len(), 0);
    }

    #[test]
    fn stored_peek() {
        let h = HcDro::cell();
        assert_eq!(h.stored(), Some(0));
        assert_eq!(
            Cell::with_state(h.op, CellState::with_bits(2)).stored(),
            Some(2)
        );
        assert_eq!(Ndro::holding().stored(), Some(1));
    }
}
