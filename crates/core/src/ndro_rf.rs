//! Structural model of the baseline clock-less NDRO register file
//! (paper §III, Fig. 4).
//!
//! Three NDROC demux ports (read, reset, write), one NDRO cell per bit,
//! dynamic-AND write gating, and per-bit-column output merger trees. No
//! clock is distributed anywhere: the read/write/reset enable pulses act as
//! triggers ("clock-follow-data", paper §II-B).

use sfq_cells::timing::{NDROC_PROP_PS, SPLITTER_DELAY_PS};
use sfq_cells::typed::{Sink, TypedBuilder, Wire};
use sfq_sim::netlist::{ComponentId, Pin};
use sfq_sim::simulator::{ProbeId, Simulator};
use sfq_sim::time::{Duration, Time};

use crate::config::RfGeometry;
use crate::demux::{build_demux, sel_head_start, Demux};
use crate::fabric::{broadcast_depth, broadcast_to};
use crate::harness::{data_train_time, RegisterFile, RfHarness};

/// A runnable baseline NDRO register file with its simulator.
#[derive(Debug)]
pub struct NdroRf {
    h: RfHarness,
    read_demux: Demux,
    reset_demux: Demux,
    write_demux: Demux,
    /// Per-bit W_DATA inputs.
    data_in: Vec<Pin>,
    /// Per-bit R_DATA output pins (probe pads).
    out_pins: Vec<Pin>,
    /// Per-bit R_DATA probes.
    out_probes: Vec<ProbeId>,
    /// NDRO cells, `[register][bit]`.
    cells: Vec<Vec<ComponentId>>,
}

impl NdroRf {
    /// Builds the register file through the typed elaboration layer
    /// (wiring legality by construction) and wraps it in a simulator.
    pub fn new(geometry: RfGeometry) -> Self {
        let n = geometry.registers();
        let w = geometry.width();
        let levels = geometry.demux_levels();

        // Per-cell endpoint slots, consumed exactly once by each port.
        struct CellSlot<'b> {
            set: Option<Sink<'b>>,
            reset: Option<Sink<'b>>,
            clk: Option<Sink<'b>>,
            out: Option<Wire<'b>>,
        }
        struct DandSlot<'b> {
            a: Option<Sink<'b>>,
            b: Option<Sink<'b>>,
            out: Option<Wire<'b>>,
        }

        let (elab, built) = TypedBuilder::elaborate(|b| {
            // Storage cells.
            let mut cells: Vec<Vec<ComponentId>> = Vec::with_capacity(n);
            let mut slots: Vec<Vec<CellSlot<'_>>> = Vec::with_capacity(n);
            for r in 0..n {
                let mut row_ids = Vec::with_capacity(w);
                let mut row_slots = Vec::with_capacity(w);
                b.scoped(format!("reg{r}"), |b| {
                    for _ in 0..w {
                        let cell = b.ndro();
                        row_ids.push(cell.id);
                        row_slots.push(CellSlot {
                            set: Some(cell.set),
                            reset: Some(cell.reset),
                            clk: Some(cell.clk),
                            out: Some(cell.out),
                        });
                    }
                });
                cells.push(row_ids);
                slots.push(row_slots);
            }

            // Read port.
            let read_demux = b.scoped("read", |b| {
                let mut d = build_demux(b, levels);
                for (row, out) in slots.iter_mut().zip(d.take_outputs()) {
                    let targets: Vec<Sink<'_>> = row
                        .iter_mut()
                        .map(|s| s.clk.take().expect("cell CLK unconsumed"))
                        .collect();
                    let input = broadcast_to(b, targets);
                    b.bind(out, input);
                }
                d.into_ports(b)
            });

            // Reset port (precedes every write, paper §III-B).
            let reset_demux = b.scoped("reset", |b| {
                let mut d = build_demux(b, levels);
                for (row, out) in slots.iter_mut().zip(d.take_outputs()) {
                    let targets: Vec<Sink<'_>> = row
                        .iter_mut()
                        .map(|s| s.reset.take().expect("cell RESET unconsumed"))
                        .collect();
                    let input = broadcast_to(b, targets);
                    b.bind(out, input);
                }
                d.into_ports(b)
            });

            // Write port: demux-gated dynamic ANDs between W_DATA and SET
            // pins.
            let (write_demux, data_in) = b.scoped("write", |b| {
                let mut d = build_demux(b, levels);
                // One DAND per (register, bit).
                let mut dands: Vec<Vec<DandSlot<'_>>> = (0..n)
                    .map(|_| {
                        (0..w)
                            .map(|_| {
                                let g = b.dand();
                                DandSlot {
                                    a: Some(g.a),
                                    b: Some(g.b),
                                    out: Some(g.out),
                                }
                            })
                            .collect()
                    })
                    .collect();
                for (r, out) in d.take_outputs().into_iter().enumerate() {
                    let gates: Vec<Sink<'_>> = dands[r]
                        .iter_mut()
                        .map(|g| g.a.take().expect("gate A unconsumed"))
                        .collect();
                    let input = broadcast_to(b, gates);
                    b.bind(out, input);
                    for (gate, cell) in dands[r].iter_mut().zip(slots[r].iter_mut()) {
                        let g_out = gate.out.take().expect("gate OUT unconsumed");
                        let set = cell.set.take().expect("cell SET unconsumed");
                        b.bind(g_out, set);
                    }
                }
                // W_DATA fan-out: bit -> all registers' DAND B pins.
                let data_in: Vec<Pin> = (0..w)
                    .map(|bit| {
                        let targets: Vec<Sink<'_>> = dands
                            .iter_mut()
                            .map(|row| row[bit].b.take().expect("gate B unconsumed"))
                            .collect();
                        let input = broadcast_to(b, targets);
                        b.external(input)
                    })
                    .collect();
                (d.into_ports(b), data_in)
            });

            // Output port: per-bit merger tree.
            let out_pins: Vec<Pin> = b.scoped("output", |b| {
                (0..w)
                    .map(|bit| {
                        let inputs: Vec<Wire<'_>> = slots
                            .iter_mut()
                            .map(|row| row[bit].out.take().expect("cell OUT unconsumed"))
                            .collect();
                        let root = b.join(inputs);
                        b.expose(root)
                    })
                    .collect()
            });

            (
                read_demux,
                reset_demux,
                write_demux,
                data_in,
                out_pins,
                cells,
            )
        });
        elab.assert_total();
        let (read_demux, reset_demux, write_demux, data_in, out_pins, cells) = built;
        let mut sim = Simulator::new(elab.netlist);
        let out_probes = out_pins
            .iter()
            .enumerate()
            .map(|(bit, &p)| sim.probe(p, format!("R_DATA[{bit}]")))
            .collect();

        NdroRf {
            h: RfHarness::new(geometry, sim),
            read_demux,
            reset_demux,
            write_demux,
            data_in,
            out_pins,
            out_probes,
            cells,
        }
    }

    fn end_op(&mut self) {
        let t = self.h.sim().now() + Duration::from_ps(20.0);
        self.read_demux.clear(self.h.sim_mut(), t);
        self.reset_demux.clear(self.h.sim_mut(), t);
        self.write_demux.clear(self.h.sim_mut(), t);
        self.h.sim_mut().run();
        self.h.advance_cursor();
    }

    /// Enable-path latency from demux enable injection to the DAND gate
    /// inputs (ps).
    fn enable_to_gate_ps(&self) -> f64 {
        self.h.geometry().demux_levels() as f64 * NDROC_PROP_PS
            + broadcast_depth(self.h.geometry().width()) as f64 * SPLITTER_DELAY_PS
    }

    /// Data-path latency from a W_DATA pin to the DAND gate inputs (ps).
    fn data_to_gate_ps(&self) -> f64 {
        broadcast_depth(self.h.geometry().registers()) as f64 * SPLITTER_DELAY_PS
    }
}

impl RegisterFile for NdroRf {
    fn harness(&self) -> &RfHarness {
        &self.h
    }

    fn harness_mut(&mut self) -> &mut RfHarness {
        &mut self.h
    }

    /// Reads a register (non-destructive).
    fn read(&mut self, reg: usize) -> u64 {
        self.h.assert_reg(reg);
        self.h.sim_mut().clear_all_probes();
        let t = self.h.cursor();
        let hs = sel_head_start(self.h.geometry().demux_levels());
        self.read_demux
            .select_and_fire(self.h.sim_mut(), reg, t, t + hs);
        self.h.sim_mut().run();
        let mut value = 0u64;
        for (bit, &p) in self.out_probes.iter().enumerate() {
            if !self.h.sim().probe_trace(p).is_empty() {
                value |= 1 << bit;
            }
        }
        self.end_op();
        value
    }

    /// Writes a register — a reset operation through the reset port
    /// followed by a gated write through the write port (paper §III-D) —
    /// with a deliberate skew (ps) added to the data train's arrival at
    /// the DAND gates.
    fn write_skewed(&mut self, reg: usize, value: u64, skew_ps: f64) {
        self.h.assert_write(reg, value);

        // Phase 1: reset the destination register.
        let t = self.h.cursor();
        let hs = sel_head_start(self.h.geometry().demux_levels());
        self.reset_demux
            .select_and_fire(self.h.sim_mut(), reg, t, t + hs);
        self.h.sim_mut().run();
        self.end_op();

        // Phase 2: write-enable + data, aligned at the DANDs.
        let t = self.h.cursor();
        self.write_demux
            .select_and_fire(self.h.sim_mut(), reg, t, t + hs);
        let t_wen_at_dand = t + hs + Duration::from_ps(self.enable_to_gate_ps());
        let aligned_ps = t_wen_at_dand.as_ps() - self.data_to_gate_ps() + skew_ps;
        let t_data = data_train_time(self.h.sim(), Time::from_ps(aligned_ps.max(0.0)));
        for (bit, &pin) in self.data_in.iter().enumerate() {
            if value >> bit & 1 == 1 {
                self.h.sim_mut().inject(pin, t_data);
            }
        }
        self.h.sim_mut().run();
        self.end_op();
    }

    /// Peeks stored register contents without a (state-disturbing) read.
    fn peek(&self, reg: usize) -> u64 {
        let mut v = 0u64;
        for (bit, &cell) in self.cells[reg].iter().enumerate() {
            if self.h.sim().stored(cell) == Some(1) {
                v |= 1 << bit;
            }
        }
        v
    }

    fn lint_ports(&self) -> sfq_lint::LintPorts {
        let mut inputs = self.read_demux.lint_inputs();
        inputs.extend(self.reset_demux.lint_inputs());
        inputs.extend(self.write_demux.lint_inputs());
        inputs.extend(self.data_in.iter().copied());
        sfq_lint::LintPorts {
            timing: Some(sfq_lint::TimingSpec {
                starts: inputs.clone(),
                issue_period_ps: crate::harness::OP_GAP_PS,
            }),
            external_inputs: inputs,
            external_outputs: self.out_pins.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_round_trip() {
        let mut rf = NdroRf::new(RfGeometry::paper_4x4());
        rf.write(2, 0b1010);
        assert_eq!(rf.peek(2), 0b1010);
        assert_eq!(rf.read(2), 0b1010);
        assert!(rf.violations().is_empty());
    }

    #[test]
    fn read_is_non_destructive() {
        let mut rf = NdroRf::new(RfGeometry::paper_4x4());
        rf.write(1, 0b0110);
        for _ in 0..4 {
            assert_eq!(rf.read(1), 0b0110);
        }
    }

    #[test]
    fn overwrite_replaces_value() {
        let mut rf = NdroRf::new(RfGeometry::paper_4x4());
        rf.write(3, 0b1111);
        rf.write(3, 0b0001);
        assert_eq!(rf.read(3), 0b0001, "reset port must clear stale bits");
    }

    #[test]
    fn registers_are_independent() {
        let mut rf = NdroRf::new(RfGeometry::paper_16x16());
        for r in 0..16 {
            rf.write(r, ((r as u64) * 0x101) & 0xffff);
        }
        for r in 0..16 {
            assert_eq!(rf.read(r), ((r as u64) * 0x101) & 0xffff, "register {r}");
        }
        assert!(rf.violations().is_empty());
    }

    #[test]
    fn unwritten_registers_read_zero() {
        let mut rf = NdroRf::new(RfGeometry::paper_4x4());
        assert_eq!(rf.read(0), 0);
        assert_eq!(rf.read(3), 0);
    }

    #[test]
    fn census_matches_budget() {
        for g in [RfGeometry::paper_4x4(), RfGeometry::paper_16x16()] {
            let rf = NdroRf::new(g);
            let structural = rf.census();
            let budget = crate::budget::ndro_rf_budget(g).census();
            assert_eq!(structural, budget, "geometry {g}");
        }
    }
}
