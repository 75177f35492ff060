//! Composite HC-DRO access circuits: HC-CLK, HC-WRITE, HC-READ.
//!
//! HC-DRO cells store two bits as 0–3 fluxons, so they are accessed by
//! *serial pulse trains* with a 10 ps minimum separation (paper §IV-A):
//!
//! * **HC-CLK** turns one enable pulse into three pulses 10 ps apart, so a
//!   single read/write enable can pop or gate all stored fluxons.
//! * **HC-WRITE** encodes a parallel two-bit value into a train of
//!   `value` pulses (0–3), 10 ps apart.
//! * **HC-READ** decodes a train of 0–3 pulses back into two parallel bits
//!   using a two-bit counter built from two one-bit counter stages.
//!
//! All three are clock-less: JTL delay elements create the required pulse
//! spacing (Fig. 10 of the paper).

use sfq_sim::time::Duration;

use crate::timing::{HCDRO_PULSE_SEP_PS, MERGER_DELAY_PS, SPLITTER_DELAY_PS};
use crate::typed::{Sink, TypedBuilder, Wire};

/// Endpoints of a typed HC-CLK pulse tripler (see [`build_hc_clk`]).
#[derive(Debug)]
pub struct TypedHcClk<'brand> {
    /// Enable sink: one pulse goes in here.
    pub input: Sink<'brand>,
    /// Train wire: three pulses, [`HCDRO_PULSE_SEP_PS`] apart, come out.
    pub output: Wire<'brand>,
    /// Latency from the input pulse to the *first* output pulse.
    pub first_pulse_delay: Duration,
}

/// Builds an HC-CLK circuit (paper Fig. 10b): 1 pulse in → 3 pulses out,
/// 10 ps apart.
///
/// Uses 2 splitters, 2 mergers and 2 JTLs.
pub fn build_hc_clk<'b>(b: &mut TypedBuilder<'b>) -> TypedHcClk<'b> {
    b.scoped("hcclk", |b| {
        let s1 = b.splitter();
        let s2 = b.splitter();
        let m_mid = b.merger();
        let m_final = b.merger();
        // Branch 1: straight to the final merger -> first pulse.
        b.bind(s1.out0, m_final.in_a);
        // Branch 2: +10 ps via tuned JTLs -> second and third pulses.
        // Second pulse path adds (s2 + m_mid) stages relative to the first,
        // so its JTL makes the net offset exactly one pulse separation.
        let d2 = HCDRO_PULSE_SEP_PS - SPLITTER_DELAY_PS - MERGER_DELAY_PS;
        let j1 = b.jtl_with_delay(Duration::from_ps(d2));
        b.bind(s1.out1, j1.input);
        b.bind(j1.out, s2.input);
        b.bind(s2.out0, m_mid.in_a);
        // Third pulse: one more full separation after the second.
        let j2 = b.jtl_with_delay(Duration::from_ps(HCDRO_PULSE_SEP_PS));
        b.bind(s2.out1, j2.input);
        b.bind(j2.out, m_mid.in_b);
        b.bind(m_mid.out, m_final.in_b);
        TypedHcClk {
            input: s1.input,
            output: m_final.out,
            first_pulse_delay: Duration::from_ps(SPLITTER_DELAY_PS + MERGER_DELAY_PS),
        }
    })
}

/// Endpoints of a typed HC-WRITE serializer (see [`build_hc_write`]).
#[derive(Debug)]
pub struct TypedHcWrite<'brand> {
    /// LSB sink (contributes one pulse).
    pub b0: Sink<'brand>,
    /// MSB sink (contributes two pulses).
    pub b1: Sink<'brand>,
    /// Serial pulse-train wire.
    pub output: Wire<'brand>,
    /// Latency from an input pulse to the first output slot.
    pub first_slot_delay: Duration,
}

/// Builds an HC-WRITE circuit (paper Fig. 10a): parallel bits `b1 b0` in →
/// `2·b1 + b0` pulses out, 10 ps apart.
///
/// The pulse *count* equals the stored value, so writing `0b10` deposits
/// two fluxons. Uses 1 splitter, 2 mergers and 3 JTLs. Inputs must be
/// asserted simultaneously (both pulses at the same time).
pub fn build_hc_write<'b>(b: &mut TypedBuilder<'b>) -> TypedHcWrite<'b> {
    b.scoped("hcwrite", |b| {
        let m1 = b.merger();
        let m2 = b.merger();
        let s = b.splitter();
        // B0 -> slot 0 through both mergers.
        let j0 = b.jtl_with_delay(Duration::from_ps(2.0));
        b.bind(j0.out, m1.in_a);
        b.bind(m1.out, m2.in_a);
        // slot0 latency from input: j0(2) + m1(5) + m2(5) = 12 ps.
        let slot0 = 2.0 + 2.0 * MERGER_DELAY_PS;
        // B1 -> slots 1 and 2.
        // slot1: s(3) + j1 + m1(5) + m2(5) = slot0 + 10.
        let j1 = b.jtl_with_delay(Duration::from_ps(
            slot0 + HCDRO_PULSE_SEP_PS - SPLITTER_DELAY_PS - 2.0 * MERGER_DELAY_PS,
        ));
        b.bind(s.out0, j1.input);
        b.bind(j1.out, m1.in_b);
        // slot2: s(3) + j2 + m2(5) = slot0 + 20.
        let j2 = b.jtl_with_delay(Duration::from_ps(
            slot0 + 2.0 * HCDRO_PULSE_SEP_PS - SPLITTER_DELAY_PS - MERGER_DELAY_PS,
        ));
        b.bind(s.out1, j2.input);
        b.bind(j2.out, m2.in_b);
        TypedHcWrite {
            b0: j0.input,
            b1: s.input,
            output: m2.out,
            first_slot_delay: Duration::from_ps(slot0),
        }
    })
}

/// Endpoints of a typed HC-READ decoder (see [`build_hc_read`]).
#[derive(Debug)]
pub struct TypedHcRead<'brand> {
    /// Serial pulse-train sink.
    pub input: Sink<'brand>,
    /// Read-enable sink (latches the counted value onto `b0`/`b1`).
    pub read: Sink<'brand>,
    /// Reset sink (clears the counter between operations).
    pub reset: Sink<'brand>,
    /// LSB wire.
    pub b0: Wire<'brand>,
    /// MSB wire.
    pub b1: Wire<'brand>,
    /// MSB counter carry wire — silent on legal 0–3 trains, so callers
    /// typically [`TypedBuilder::expose`] it as an observation point.
    pub carry: Wire<'brand>,
}

/// Builds an HC-READ circuit (paper Fig. 10c/d): a two-bit counter from two
/// one-bit counter stages. Counting 0–3 serial pulses and then asserting
/// `read` produces the parallel bits.
///
/// Uses 2 counter bits and 2 splitters.
pub fn build_hc_read<'b>(b: &mut TypedBuilder<'b>) -> TypedHcRead<'b> {
    b.scoped("hcread", |b| {
        let cb0 = b.counter_bit();
        let cb1 = b.counter_bit();
        b.bind(cb0.carry, cb1.input);
        let s_read = b.splitter();
        b.bind(s_read.out0, cb0.read);
        b.bind(s_read.out1, cb1.read);
        let s_reset = b.splitter();
        b.bind(s_reset.out0, cb0.reset);
        b.bind(s_reset.out1, cb1.reset);
        TypedHcRead {
            input: cb0.input,
            read: s_read.input,
            reset: s_reset.input,
            b0: cb0.value,
            b1: cb1.value,
            carry: cb1.carry,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfq_sim::netlist::{Netlist, Pin};
    use sfq_sim::simulator::Simulator;
    use sfq_sim::time::Time;

    #[test]
    fn hc_clk_triples_pulse() {
        let (elab, (input, output, first_pulse_delay)) = TypedBuilder::elaborate(|b| {
            let clk = build_hc_clk(b);
            let input = b.external(clk.input);
            (input, b.expose(clk.output), clk.first_pulse_delay)
        });
        elab.assert_total();
        let mut sim = Simulator::new(elab.netlist);
        let p = sim.probe(output, "out");
        sim.inject(input, Time::from_ps(100.0));
        sim.run();
        let pulses = sim.probe_trace(p).pulses().to_vec();
        assert_eq!(pulses.len(), 3);
        // Exactly 10 ps apart.
        assert_eq!((pulses[1] - pulses[0]).as_ps(), HCDRO_PULSE_SEP_PS);
        assert_eq!((pulses[2] - pulses[1]).as_ps(), HCDRO_PULSE_SEP_PS);
        // First pulse at the documented latency.
        assert_eq!(pulses[0], Time::from_ps(100.0) + first_pulse_delay);
        assert!(sim.violations().is_empty());
    }

    #[test]
    fn hc_write_encodes_every_value() {
        for value in 0u8..4 {
            let (elab, (b0, b1, output)) = TypedBuilder::elaborate(|b| {
                let w = build_hc_write(b);
                let (b0, b1) = (b.external(w.b0), b.external(w.b1));
                (b0, b1, b.expose(w.output))
            });
            elab.assert_total();
            let mut sim = Simulator::new(elab.netlist);
            let p = sim.probe(output, "out");
            let t = Time::from_ps(50.0);
            if value & 1 != 0 {
                sim.inject(b0, t);
            }
            if value & 2 != 0 {
                sim.inject(b1, t);
            }
            sim.run();
            let pulses = sim.probe_trace(p).pulses().to_vec();
            assert_eq!(
                pulses.len() as u8,
                value,
                "value {value} must map to {value} pulses"
            );
            // All pulses land on 10 ps-separated slots.
            for w in pulses.windows(2) {
                assert_eq!((w[1] - w[0]).as_ps(), HCDRO_PULSE_SEP_PS);
            }
        }
    }

    /// A standalone HC-READ with every endpoint declared: the netlist and
    /// its `input`, `read`, `reset`, `b0` and `b1` pins.
    fn hc_read_circuit() -> (Netlist, [Pin; 5]) {
        let (elab, pins) = TypedBuilder::elaborate(|b| {
            let r = build_hc_read(b);
            b.expose(r.carry);
            [
                b.external(r.input),
                b.external(r.read),
                b.external(r.reset),
                b.expose(r.b0),
                b.expose(r.b1),
            ]
        });
        elab.assert_total();
        (elab.netlist, pins)
    }

    #[test]
    fn hc_read_decodes_every_count() {
        for count in 0u8..4 {
            let (netlist, [input, read, _, b0, b1]) = hc_read_circuit();
            let mut sim = Simulator::new(netlist);
            let p0 = sim.probe(b0, "b0");
            let p1 = sim.probe(b1, "b1");
            for i in 0..count {
                sim.inject(input, Time::from_ps(10.0 * i as f64));
            }
            sim.inject(read, Time::from_ps(100.0));
            sim.run();
            let b0 = sim.probe_trace(p0).len() as u8;
            let b1 = sim.probe_trace(p1).len() as u8;
            assert_eq!(
                b0 + 2 * b1,
                count,
                "decoded value mismatch for count {count}"
            );
        }
    }

    #[test]
    fn hc_read_reset_clears_counter() {
        let (netlist, [input, read, reset, b0, b1]) = hc_read_circuit();
        let mut sim = Simulator::new(netlist);
        let p0 = sim.probe(b0, "b0");
        let p1 = sim.probe(b1, "b1");
        sim.inject(input, Time::from_ps(0.0));
        sim.inject(input, Time::from_ps(10.0));
        sim.inject(reset, Time::from_ps(50.0));
        sim.inject(read, Time::from_ps(100.0));
        sim.run();
        assert_eq!(sim.probe_trace(p0).len() + sim.probe_trace(p1).len(), 0);
    }

    #[test]
    fn write_then_clk_then_read_round_trip() {
        // End-to-end: HC-WRITE -> HC-DRO -> (3×CLK via HC-CLK) -> HC-READ.
        for value in 0u8..4 {
            let (elab, [w_b0, w_b1, clk_in, read, r_b0, r_b1]) = TypedBuilder::elaborate(|b| {
                let w = build_hc_write(b);
                let cell = b.hcdro();
                let clk = build_hc_clk(b);
                let r = build_hc_read(b);
                b.bind(w.output, cell.d);
                b.bind(clk.output, cell.clk);
                b.bind(cell.q, r.input);
                b.external(r.reset);
                b.expose(r.carry);
                [
                    b.external(w.b0),
                    b.external(w.b1),
                    b.external(clk.input),
                    b.external(r.read),
                    b.expose(r.b0),
                    b.expose(r.b1),
                ]
            });
            elab.assert_total();
            let mut sim = Simulator::new(elab.netlist);
            let p0 = sim.probe(r_b0, "b0");
            let p1 = sim.probe(r_b1, "b1");
            let t0 = Time::from_ps(0.0);
            if value & 1 != 0 {
                sim.inject(w_b0, t0);
            }
            if value & 2 != 0 {
                sim.inject(w_b1, t0);
            }
            // Read the cell well after the write train has settled.
            sim.inject(clk_in, Time::from_ps(100.0));
            sim.inject(read, Time::from_ps(200.0));
            sim.run();
            let decoded = sim.probe_trace(p0).len() as u8 + 2 * sim.probe_trace(p1).len() as u8;
            assert_eq!(decoded, value, "round trip failed for {value}");
            assert!(
                sim.violations().is_empty(),
                "round trip for {value} violated timing"
            );
        }
    }
}
