//! Pulse-transport cells: JTL, splitter, merger.
//!
//! SFQ pulses cannot fan out implicitly; every fan-out point needs an
//! explicit splitter cell, and every fan-in needs a merger (confluence
//! buffer) (paper §II-F). JTLs are tunable delay elements used wherever a
//! precise pulse separation is required (e.g. the 10 ps spacing inside
//! HC-CLK and HC-WRITE, paper §IV-A).

use sfq_sim::cell::{CellOp, CellState, Primitive};
use sfq_sim::time::Duration;

use crate::timing::{JTL_DELAY_PS, MERGER_DEAD_PS, MERGER_DELAY_PS, SPLITTER_DELAY_PS};

/// Josephson transmission line: input pin 0 → output pin 0 after a fixed,
/// per-instance delay.
///
/// Physical JTLs are biased to a nominal ~[`JTL_DELAY_PS`] delay but are
/// routinely tuned; [`Jtl::with_delay`] models a tuned instance.
#[derive(Debug, Clone)]
pub struct Jtl {
    delay: Duration,
}

impl Jtl {
    /// Input pin.
    pub const IN: u8 = 0;
    /// Output pin.
    pub const OUT: u8 = 0;

    /// A JTL with the nominal library delay.
    pub fn new() -> Self {
        Self::with_delay(Duration::from_ps(JTL_DELAY_PS))
    }

    /// A JTL tuned to a specific delay.
    pub fn with_delay(delay: Duration) -> Self {
        Jtl { delay }
    }

    /// The instance delay.
    pub fn delay(&self) -> Duration {
        self.delay
    }
}

impl Default for Jtl {
    fn default() -> Self {
        Self::new()
    }
}

impl Primitive for Jtl {
    fn op(&self) -> CellOp {
        // Per-instance tuned delay, not the library constant.
        CellOp::Jtl { delay: self.delay }
    }
}

/// Pulse splitter: input pin 0 → output pins 0 and 1.
#[derive(Debug, Clone, Default)]
pub struct Splitter;

impl Splitter {
    /// Input pin.
    pub const IN: u8 = 0;
    /// First output pin.
    pub const OUT0: u8 = 0;
    /// Second output pin.
    pub const OUT1: u8 = 1;

    /// Creates a splitter.
    pub fn new() -> Self {
        Splitter
    }
}

impl Primitive for Splitter {
    fn op(&self) -> CellOp {
        CellOp::Splitter {
            delay: Duration::from_ps(SPLITTER_DELAY_PS),
        }
    }
}

/// Pulse merger (confluence buffer): input pins 0 and 1 → output pin 0.
///
/// If a second pulse arrives within the merger dead time of the previous
/// one, it is dissipated (paper §II-F: "the later one is dissipated").
#[derive(Debug, Clone, Default)]
pub struct Merger {
    state: CellState,
}

impl Merger {
    /// First input pin.
    pub const IN_A: u8 = 0;
    /// Second input pin.
    pub const IN_B: u8 = 1;
    /// Output pin.
    pub const OUT: u8 = 0;

    /// Creates a merger.
    pub fn new() -> Self {
        Merger::default()
    }
}

impl Primitive for Merger {
    fn op(&self) -> CellOp {
        CellOp::Merger {
            dead: Duration::from_ps(MERGER_DEAD_PS),
            delay: Duration::from_ps(MERGER_DELAY_PS),
        }
    }

    fn state(&self) -> Option<&CellState> {
        Some(&self.state)
    }

    fn state_mut(&mut self) -> Option<&mut CellState> {
        Some(&mut self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfq_sim::netlist::{Netlist, Pin};
    use sfq_sim::simulator::Simulator;
    use sfq_sim::time::Time;

    #[test]
    fn jtl_delays_pulse() {
        let mut n = Netlist::new();
        let j = n.add("j", Box::new(Jtl::with_delay(Duration::from_ps(7.0))) as _);
        let mut sim = Simulator::new(n);
        let p = sim.probe(Pin::new(j, Jtl::OUT), "out");
        sim.inject(Pin::new(j, Jtl::IN), Time::from_ps(1.0));
        sim.run();
        assert_eq!(sim.probe_trace(p).pulses(), &[Time::from_ps(8.0)]);
    }

    #[test]
    fn splitter_duplicates_pulse() {
        let mut n = Netlist::new();
        let s = n.add("s", Box::new(Splitter::new()) as _);
        let mut sim = Simulator::new(n);
        let p0 = sim.probe(Pin::new(s, Splitter::OUT0), "o0");
        let p1 = sim.probe(Pin::new(s, Splitter::OUT1), "o1");
        sim.inject(Pin::new(s, Splitter::IN), Time::ZERO);
        sim.run();
        assert_eq!(sim.probe_trace(p0).len(), 1);
        assert_eq!(sim.probe_trace(p1).len(), 1);
        assert_eq!(
            sim.probe_trace(p0).pulses()[0],
            Time::from_ps(SPLITTER_DELAY_PS)
        );
    }

    #[test]
    fn merger_passes_separated_pulses() {
        let mut n = Netlist::new();
        let m = n.add("m", Box::new(Merger::new()) as _);
        let mut sim = Simulator::new(n);
        let p = sim.probe(Pin::new(m, Merger::OUT), "out");
        sim.inject(Pin::new(m, Merger::IN_A), Time::from_ps(0.0));
        sim.inject(Pin::new(m, Merger::IN_B), Time::from_ps(10.0));
        sim.run();
        assert_eq!(sim.probe_trace(p).len(), 2);
    }

    #[test]
    fn merger_dissipates_coincident_pulse() {
        let mut n = Netlist::new();
        let m = n.add("m", Box::new(Merger::new()) as _);
        let mut sim = Simulator::new(n);
        let p = sim.probe(Pin::new(m, Merger::OUT), "out");
        sim.inject(Pin::new(m, Merger::IN_A), Time::from_ps(0.0));
        sim.inject(Pin::new(m, Merger::IN_B), Time::from_ps(1.0));
        sim.run();
        // Second pulse is within the dead window and dissipates.
        assert_eq!(sim.probe_trace(p).len(), 1);
    }
}
