//! Logic gates: dynamic AND (DAND) and clocked AND / NOT / XOR.
//!
//! SFQ logic gates are clocked at the gate level (paper §II-A): inputs are
//! latched until a clock pulse evaluates them. The dynamic AND \[13\] is the
//! exception the register-file write port exploits — it has no clock and
//! instead fires only when both inputs coincide within a hold window
//! (paper §III-C), which eliminates clock distribution in the port.

use sfq_sim::cell::{Cell, CellOp, GateFunc};
use sfq_sim::time::Duration;

use crate::timing::{DAND_DELAY_PS, DAND_WINDOW_PS, SYNC_HOLD_PS, SYNC_SETUP_PS, SYNC_TRACK_PS};

/// Per-gate propagation delay of clocked gates (CLK → OUT), ps.
pub const CLOCKED_GATE_DELAY_PS: f64 = 6.0;

/// Dynamic AND: fires iff both inputs arrive within the hold window.
///
/// Pins: input `A = 0`, `B = 1`; output `OUT = 0`. Each input pulse can
/// pair with at most one pulse of the other input; a pulse that finds the
/// other input's pending pulse outside the window discards it and waits
/// in its place.
pub struct Dand;

impl Dand {
    /// First input pin.
    pub const A: u8 = 0;
    /// Second input pin.
    pub const B: u8 = 1;
    /// Output pin.
    pub const OUT: u8 = 0;

    /// An idle dynamic AND gate.
    pub fn cell() -> Cell {
        Cell::new(CellOp::Dand {
            window: Duration::from_ps(DAND_WINDOW_PS),
            delay: Duration::from_ps(DAND_DELAY_PS),
        })
    }
}

/// Clocked AND gate: latches input pulses and evaluates on CLK
/// (paper Fig. 5; costs 12 JJs).
///
/// Pins: input `A = 0`, `B = 1`, `CLK = 2`; output `OUT = 0`.
pub struct AndGate;

impl AndGate {
    /// First input pin.
    pub const A: u8 = 0;
    /// Second input pin.
    pub const B: u8 = 1;
    /// Clock pin.
    pub const CLK: u8 = 2;
    /// Output pin.
    pub const OUT: u8 = 0;

    /// A clocked AND gate with nothing latched.
    pub fn cell() -> Cell {
        Cell::new(CellOp::Gate {
            func: GateFunc::And,
            delay: Duration::from_ps(CLOCKED_GATE_DELAY_PS),
        })
    }
}

/// Clocked XOR gate (same pins and latching discipline as [`AndGate`]).
pub struct XorGate;

impl XorGate {
    /// First input pin.
    pub const A: u8 = 0;
    /// Second input pin.
    pub const B: u8 = 1;
    /// Clock pin.
    pub const CLK: u8 = 2;
    /// Output pin.
    pub const OUT: u8 = 0;

    /// A clocked XOR gate with nothing latched.
    pub fn cell() -> Cell {
        Cell::new(CellOp::Gate {
            func: GateFunc::Xor,
            delay: Duration::from_ps(CLOCKED_GATE_DELAY_PS),
        })
    }
}

/// Clocked sampling element — the margin engine's *clocked baseline*
/// reference for the §II-D comparison.
///
/// Pins: input `D = 0`, `CLK = 1`; output `OUT = 0`.
///
/// Models the timing discipline of a globally-clocked capture point: a data
/// pulse is sampled by a clock pulse iff it arrives at least
/// [`SYNC_SETUP_PS`] before the edge and no more than
/// [`SYNC_SETUP_PS`]` + `[`SYNC_TRACK_PS`] before it (dynamic retention —
/// a generic clocked sampler holds its input for only a few ps, unlike the
/// DAND whose engineered 8 ps hold window is what makes the clock-less
/// port possible). Data falling inside the setup aperture before the edge,
/// or within [`SYNC_HOLD_PS`] after it, records a `setup` violation
/// (metastable capture); under the `Degrade` policy the capture produces
/// nothing.
pub struct SyncSampler;

impl SyncSampler {
    /// Data input pin.
    pub const D: u8 = 0;
    /// Clock input pin.
    pub const CLK: u8 = 1;
    /// Output pin.
    pub const OUT: u8 = 0;

    /// An idle sampler.
    pub fn cell() -> Cell {
        Cell::new(CellOp::Sync {
            setup: Duration::from_ps(SYNC_SETUP_PS),
            track: Duration::from_ps(SYNC_TRACK_PS),
            hold: Duration::from_ps(SYNC_HOLD_PS),
            delay: Duration::from_ps(CLOCKED_GATE_DELAY_PS),
        })
    }
}

/// Clocked NOT gate: emits on CLK iff no input pulse was latched
/// (costs 10 JJs, paper §III-A).
///
/// Pins: input `A = 0`, `CLK = 1`; output `OUT = 0`.
pub struct NotGate;

impl NotGate {
    /// Data input pin.
    pub const A: u8 = 0;
    /// Clock pin.
    pub const CLK: u8 = 1;
    /// Output pin.
    pub const OUT: u8 = 0;

    /// A clocked NOT gate with nothing latched.
    pub fn cell() -> Cell {
        Cell::new(CellOp::Not {
            delay: Duration::from_ps(CLOCKED_GATE_DELAY_PS),
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
        let id = n.add("g", cell);
        (Simulator::new(n), id)
    }

    #[test]
    fn dand_fires_on_coincidence() {
        let (mut sim, id) = single(Dand::cell());
        let p = sim.probe(Pin::new(id, Dand::OUT), "out");
        sim.inject(Pin::new(id, Dand::A), Time::from_ps(0.0));
        sim.inject(Pin::new(id, Dand::B), Time::from_ps(3.0));
        sim.run();
        assert_eq!(
            sim.probe_trace(p).pulses(),
            &[Time::from_ps(3.0 + DAND_DELAY_PS)]
        );
    }

    #[test]
    fn dand_misses_outside_window() {
        let (mut sim, id) = single(Dand::cell());
        let p = sim.probe(Pin::new(id, Dand::OUT), "out");
        sim.inject(Pin::new(id, Dand::A), Time::from_ps(0.0));
        sim.inject(Pin::new(id, Dand::B), Time::from_ps(20.0));
        sim.run();
        assert!(sim.probe_trace(p).is_empty());
    }

    #[test]
    fn dand_pairs_each_pulse_once() {
        let (mut sim, id) = single(Dand::cell());
        let p = sim.probe(Pin::new(id, Dand::OUT), "out");
        // One A pulse, two B pulses nearby: only one output.
        sim.inject(Pin::new(id, Dand::A), Time::from_ps(0.0));
        sim.inject(Pin::new(id, Dand::B), Time::from_ps(2.0));
        sim.inject(Pin::new(id, Dand::B), Time::from_ps(5.0));
        sim.run();
        assert_eq!(sim.probe_trace(p).len(), 1);
    }

    #[test]
    fn dand_serial_train_gated() {
        // Three aligned pulse pairs, 10 ps apart: three outputs — this is
        // how the HiPerRF write port gates HC-DRO pulse trains.
        let (mut sim, id) = single(Dand::cell());
        let p = sim.probe(Pin::new(id, Dand::OUT), "out");
        for i in 0..3 {
            let t = 10.0 * i as f64;
            sim.inject(Pin::new(id, Dand::A), Time::from_ps(t));
            sim.inject(Pin::new(id, Dand::B), Time::from_ps(t + 1.0));
        }
        sim.run();
        assert_eq!(sim.probe_trace(p).len(), 3);
    }

    #[test]
    fn and_gate_truth_table() {
        let (mut sim, id) = single(AndGate::cell());
        let p = sim.probe(Pin::new(id, AndGate::OUT), "out");
        // 1&1 -> 1
        sim.inject(Pin::new(id, AndGate::A), Time::from_ps(0.0));
        sim.inject(Pin::new(id, AndGate::B), Time::from_ps(1.0));
        sim.inject(Pin::new(id, AndGate::CLK), Time::from_ps(10.0));
        // 1&0 -> 0
        sim.inject(Pin::new(id, AndGate::A), Time::from_ps(20.0));
        sim.inject(Pin::new(id, AndGate::CLK), Time::from_ps(30.0));
        sim.run();
        assert_eq!(sim.probe_trace(p).len(), 1);
    }

    #[test]
    fn xor_gate_truth_table() {
        let (mut sim, id) = single(XorGate::cell());
        let p = sim.probe(Pin::new(id, XorGate::OUT), "out");
        // 1^0 -> 1
        sim.inject(Pin::new(id, XorGate::A), Time::from_ps(0.0));
        sim.inject(Pin::new(id, XorGate::CLK), Time::from_ps(10.0));
        // 1^1 -> 0
        sim.inject(Pin::new(id, XorGate::A), Time::from_ps(20.0));
        sim.inject(Pin::new(id, XorGate::B), Time::from_ps(21.0));
        sim.inject(Pin::new(id, XorGate::CLK), Time::from_ps(30.0));
        sim.run();
        assert_eq!(sim.probe_trace(p).len(), 1);
    }

    #[test]
    fn not_gate_inverts() {
        let (mut sim, id) = single(NotGate::cell());
        let p = sim.probe(Pin::new(id, NotGate::OUT), "out");
        // no input -> 1
        sim.inject(Pin::new(id, NotGate::CLK), Time::from_ps(10.0));
        // input -> 0
        sim.inject(Pin::new(id, NotGate::A), Time::from_ps(20.0));
        sim.inject(Pin::new(id, NotGate::CLK), Time::from_ps(30.0));
        sim.run();
        assert_eq!(sim.probe_trace(p).len(), 1);
        assert_eq!(
            sim.probe_trace(p).pulses()[0],
            Time::from_ps(10.0 + CLOCKED_GATE_DELAY_PS)
        );
    }

    #[test]
    fn sync_sampler_captures_in_its_window() {
        let (mut sim, id) = single(SyncSampler::cell());
        let p = sim.probe(Pin::new(id, SyncSampler::OUT), "out");
        // Data 5 ps before the edge: inside [setup, setup+track] = [3, 7].
        sim.inject(Pin::new(id, SyncSampler::D), Time::from_ps(10.0));
        sim.inject(Pin::new(id, SyncSampler::CLK), Time::from_ps(15.0));
        sim.run();
        assert_eq!(sim.probe_trace(p).len(), 1);
        assert!(sim.violations().is_empty());
    }

    #[test]
    fn sync_sampler_misses_stale_data() {
        let (mut sim, id) = single(SyncSampler::cell());
        let p = sim.probe(Pin::new(id, SyncSampler::OUT), "out");
        // Data 12 ps before the edge: dynamic retention (7 ps) expired.
        sim.inject(Pin::new(id, SyncSampler::D), Time::from_ps(0.0));
        sim.inject(Pin::new(id, SyncSampler::CLK), Time::from_ps(12.0));
        sim.run();
        assert!(sim.probe_trace(p).is_empty());
        assert!(
            sim.violations().is_empty(),
            "a decayed datum is a miss, not a violation"
        );
    }

    #[test]
    fn sync_sampler_setup_violation_degrades_to_nothing() {
        use sfq_sim::violation::ViolationPolicy;
        for (policy, expect_out) in [(ViolationPolicy::Record, 1), (ViolationPolicy::Degrade, 0)] {
            let (mut sim, id) = single(SyncSampler::cell());
            sim.set_violation_policy(policy);
            let p = sim.probe(Pin::new(id, SyncSampler::OUT), "out");
            // Data only 1 ps before the edge: inside the 3 ps setup aperture.
            sim.inject(Pin::new(id, SyncSampler::D), Time::from_ps(10.0));
            sim.inject(Pin::new(id, SyncSampler::CLK), Time::from_ps(11.0));
            sim.run();
            assert_eq!(sim.violations().len(), 1, "{policy:?}");
            assert_eq!(sim.violations()[0].kind, "setup");
            assert_eq!(sim.probe_trace(p).len(), expect_out, "{policy:?}");
        }
    }

    #[test]
    fn gate_state_clears_after_clock() {
        let (mut sim, id) = single(AndGate::cell());
        let p = sim.probe(Pin::new(id, AndGate::OUT), "out");
        sim.inject(Pin::new(id, AndGate::A), Time::from_ps(0.0));
        sim.inject(Pin::new(id, AndGate::B), Time::from_ps(0.5));
        sim.inject(Pin::new(id, AndGate::CLK), Time::from_ps(5.0));
        // Latches were consumed; a bare clock produces nothing.
        sim.inject(Pin::new(id, AndGate::CLK), Time::from_ps(15.0));
        sim.run();
        assert_eq!(sim.probe_trace(p).len(), 1);
    }
}
