//! Pulse-transport cells: JTL, splitter, merger.
//!
//! SFQ pulses cannot fan out implicitly; every fan-out point needs an
//! explicit splitter cell, and every fan-in needs a merger (confluence
//! buffer) (paper §II-F). JTLs are tunable delay elements used wherever a
//! precise pulse separation is required (e.g. the 10 ps spacing inside
//! HC-CLK and HC-WRITE, paper §IV-A).

use sfq_sim::cell::{Cell, CellOp};
use sfq_sim::time::Duration;

use crate::timing::{JTL_DELAY_PS, MERGER_DEAD_PS, MERGER_DELAY_PS, SPLITTER_DELAY_PS};

/// Josephson transmission line: input pin 0 → output pin 0 after a fixed,
/// per-instance delay.
///
/// Physical JTLs are biased to a nominal ~[`JTL_DELAY_PS`] delay but are
/// routinely tuned; [`Jtl::with_delay`] models a tuned instance.
pub struct Jtl;

impl Jtl {
    /// Input pin.
    pub const IN: u8 = 0;
    /// Output pin.
    pub const OUT: u8 = 0;

    /// A JTL with the nominal library delay.
    pub fn cell() -> Cell {
        Jtl::with_delay(Duration::from_ps(JTL_DELAY_PS))
    }

    /// A JTL tuned to a specific delay: the op carries the instance's own
    /// delay, not the library constant.
    pub fn with_delay(delay: Duration) -> Cell {
        Cell::new(CellOp::Jtl { delay })
    }
}

/// Pulse splitter: input pin 0 → output pins 0 and 1.
pub struct Splitter;

impl Splitter {
    /// Input pin.
    pub const IN: u8 = 0;
    /// First output pin.
    pub const OUT0: u8 = 0;
    /// Second output pin.
    pub const OUT1: u8 = 1;

    /// A splitter.
    pub fn cell() -> Cell {
        Cell::new(CellOp::Splitter {
            delay: Duration::from_ps(SPLITTER_DELAY_PS),
        })
    }
}

/// Pulse merger (confluence buffer): input pins 0 and 1 → output pin 0.
///
/// If a second pulse arrives within the merger dead time of the previous
/// one, it is dissipated (paper §II-F: "the later one is dissipated").
pub struct Merger;

impl Merger {
    /// First input pin.
    pub const IN_A: u8 = 0;
    /// Second input pin.
    pub const IN_B: u8 = 1;
    /// Output pin.
    pub const OUT: u8 = 0;

    /// A merger with no pulse in its dead time.
    pub fn cell() -> Cell {
        Cell::new(CellOp::Merger {
            dead: Duration::from_ps(MERGER_DEAD_PS),
            delay: Duration::from_ps(MERGER_DELAY_PS),
        })
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
        let j = n.add("j", Jtl::with_delay(Duration::from_ps(7.0)));
        let mut sim = Simulator::new(n);
        let p = sim.probe(Pin::new(j, Jtl::OUT), "out");
        sim.inject(Pin::new(j, Jtl::IN), Time::from_ps(1.0));
        sim.run();
        assert_eq!(sim.probe_trace(p).pulses(), &[Time::from_ps(8.0)]);
    }

    #[test]
    fn splitter_duplicates_pulse() {
        let mut n = Netlist::new();
        let s = n.add("s", Splitter::cell());
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
        let m = n.add("m", Merger::cell());
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
        let m = n.add("m", Merger::cell());
        let mut sim = Simulator::new(n);
        let p = sim.probe(Pin::new(m, Merger::OUT), "out");
        sim.inject(Pin::new(m, Merger::IN_A), Time::from_ps(0.0));
        sim.inject(Pin::new(m, Merger::IN_B), Time::from_ps(1.0));
        sim.run();
        // Second pulse is within the dead window and dissipates.
        assert_eq!(sim.probe_trace(p).len(), 1);
    }
}
