//! One-bit counter stage used by the HC-READ circuit.
//!
//! The HC-READ circuit of the paper (§IV-A, Fig. 10c/d) converts the 0–3
//! serial pulses popped out of an HC-DRO cell into a parallel two-bit value
//! using a two-bit counter built from two one-bit counters \[22\]. Each stage
//! is a T-flip-flop that toggles on every input pulse and emits a carry on
//! wrap-around, plus a readable/reset-able state.

use sfq_sim::compiled::{CellOp, Lowered};
use sfq_sim::component::{Component, PulseContext};
use sfq_sim::time::{Duration, Time};

use crate::timing::{COUNTER_CARRY_PS, COUNTER_READ_PS};

/// One counter bit: T-flip-flop with non-destructive readout and reset.
///
/// Pins: input `IN = 0` (toggle), `READ = 1`, `RESET = 2`;
/// outputs `CARRY = 0` (emitted on 1→0 wrap) and `VALUE = 1` (emitted on
/// READ iff the stored bit is 1).
#[derive(Debug, Clone, Default)]
pub struct CounterBit {
    state: bool,
}

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

    /// Creates a cleared counter bit.
    pub fn new() -> Self {
        CounterBit::default()
    }
}

impl Component for CounterBit {
    fn kind(&self) -> &'static str {
        "counter_bit"
    }

    fn pulse(&mut self, pin: u8, now: Time, ctx: &mut PulseContext<'_>) {
        match pin {
            Self::IN => {
                if self.state {
                    self.state = false;
                    ctx.emit_after(Self::CARRY, now, Duration::from_ps(COUNTER_CARRY_PS));
                } else {
                    self.state = true;
                }
            }
            Self::READ => {
                if self.state {
                    ctx.emit_after(Self::VALUE, now, Duration::from_ps(COUNTER_READ_PS));
                }
            }
            Self::RESET => self.state = false,
            other => ctx.violation(now, "pin", format!("counter_bit has no input pin {other}")),
        }
    }

    fn stored(&self) -> Option<u8> {
        Some(self.state as u8)
    }

    fn propagation_delay(&self) -> Option<Duration> {
        Some(Duration::from_ps(COUNTER_CARRY_PS))
    }

    fn lower(&self) -> Option<Lowered> {
        Some(Lowered {
            op: CellOp::CounterBit {
                carry: Duration::from_ps(COUNTER_CARRY_PS),
                read: Duration::from_ps(COUNTER_READ_PS),
            },
            bits: self.state as u8,
            time_a: None,
            time_b: None,
        })
    }

    fn restore(&mut self, state: &Lowered) {
        self.state = state.bits != 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfq_sim::netlist::{Netlist, Pin};
    use sfq_sim::simulator::Simulator;

    fn single() -> (Simulator, sfq_sim::netlist::ComponentId) {
        let mut n = Netlist::new();
        let id = n.add("cb", Box::new(CounterBit::new()) as _);
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
