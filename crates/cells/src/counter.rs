//! One-bit counter stage used by the HC-READ circuit.
//!
//! The HC-READ circuit of the paper (§IV-A, Fig. 10c/d) converts the 0–3
//! serial pulses popped out of an HC-DRO cell into a parallel two-bit value
//! using a two-bit counter built from two one-bit counters \[22\]. Each stage
//! is a T-flip-flop that toggles on every input pulse and emits a carry on
//! wrap-around, plus a readable/reset-able state.

use sfq_sim::cell::{Cell, CellOp};
use sfq_sim::time::Duration;

use crate::timing::{COUNTER_CARRY_PS, COUNTER_READ_PS};

/// One counter bit: T-flip-flop with non-destructive readout and reset.
///
/// Pins: input `IN = 0` (toggle), `READ = 1`, `RESET = 2`;
/// outputs `CARRY = 0` (emitted on 1→0 wrap) and `VALUE = 1` (emitted on
/// READ iff the stored bit is 1).
pub struct CounterBit;

impl CounterBit {
    /// Toggle input pin.
    pub const IN: u8 = 0;
    /// Read-enable input pin.
    pub const READ: u8 = 1;
    /// Reset input pin.
    pub const RESET: u8 = 2;
    /// Carry output pin (fires on 1→0 wrap-around).
    pub const CARRY: u8 = 0;
    /// Value output pin (fires on READ iff state is 1).
    pub const VALUE: u8 = 1;

    /// A cleared counter bit.
    pub fn cell() -> Cell {
        Cell::new(CellOp::CounterBit {
            carry: Duration::from_ps(COUNTER_CARRY_PS),
            read: Duration::from_ps(COUNTER_READ_PS),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfq_sim::netlist::{Netlist, Pin};
    use sfq_sim::simulator::Simulator;
    use sfq_sim::time::Time;

    fn single() -> (Simulator, sfq_sim::netlist::ComponentId) {
        let mut n = Netlist::new();
        let id = n.add("cb", CounterBit::cell());
        (Simulator::new(n), id)
    }

    #[test]
    fn toggles_and_carries() {
        let (mut sim, id) = single();
        let carry = sim.probe(Pin::new(id, CounterBit::CARRY), "carry");
        for i in 0..4 {
            sim.inject(Pin::new(id, CounterBit::IN), Time::from_ps(10.0 * i as f64));
        }
        sim.run();
        // Four toggles wrap twice.
        assert_eq!(sim.probe_trace(carry).len(), 2);
        assert_eq!(sim.stored(id), Some(0));
    }

    #[test]
    fn read_reports_state_nondestructively() {
        let (mut sim, id) = single();
        let value = sim.probe(Pin::new(id, CounterBit::VALUE), "value");
        sim.inject(Pin::new(id, CounterBit::IN), Time::from_ps(0.0));
        sim.inject(Pin::new(id, CounterBit::READ), Time::from_ps(10.0));
        sim.inject(Pin::new(id, CounterBit::READ), Time::from_ps(20.0));
        sim.run();
        assert_eq!(sim.probe_trace(value).len(), 2);
        assert_eq!(sim.stored(id), Some(1));
    }

    #[test]
    fn reset_clears_state() {
        let (mut sim, id) = single();
        let value = sim.probe(Pin::new(id, CounterBit::VALUE), "value");
        sim.inject(Pin::new(id, CounterBit::IN), Time::from_ps(0.0));
        sim.inject(Pin::new(id, CounterBit::RESET), Time::from_ps(10.0));
        sim.inject(Pin::new(id, CounterBit::READ), Time::from_ps(20.0));
        sim.run();
        assert!(sim.probe_trace(value).is_empty());
    }
}
