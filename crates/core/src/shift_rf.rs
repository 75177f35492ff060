//! DRO shift-register register file — the related-work baseline
//! (Fujiwara et al. \[11\], paper §VII).
//!
//! Each register is a rotating ring of DRO cells: a shift clock pops every
//! cell into its successor, and the head recirculates to the tail through
//! an NDRO pass gate (armed for reads, disarmed to flush before writes) —
//! the same arm/disarm trick HiPerRF's LoopBuffer uses. One full rotation
//! streams the word out bit-serially *and* restores it.
//!
//! The design is denser than the NDRO baseline (DRO cells cost 6 JJs/bit
//! versus 11) and even than HiPerRF at some sizes, but each access costs
//! `w` demux-limited shift cycles (w × 53 ps — 1.7 ns for a 32-bit word)
//! and the interface is bit-serial. This module quantifies the trade-off
//! the paper argues qualitatively: shift registers win JJs and lose the
//! architecture.

use sfq_cells::timing::{
    DRO_CLK_TO_OUT_PS, NDROC_PROP_PS, NDRO_CLK_TO_OUT_PS, RF_CYCLE_PS, SPLITTER_DELAY_PS,
};
use sfq_cells::typed::{Sink, TypedBuilder, Wire};
use sfq_cells::{CellKind, Census};
use sfq_sim::netlist::{ComponentId, Pin};
use sfq_sim::simulator::{ProbeId, Simulator};
use sfq_sim::time::{Duration, Time};

use crate::budget::{BudgetSection, RfBudget};
use crate::config::RfGeometry;
use crate::demux::{build_demux, sel_head_start, Demux};
use crate::fabric::broadcast_to;
use crate::harness::{data_train_time, RegisterFile, RfHarness};

/// Spacing between successive shift-clock pulses in the functional driver
/// (ps). Must exceed both the ring settle time (DRO pop, splitter, NDRO
/// gate, merger: ~24 ps) and the 53 ps NDROC re-arm time of the demux the
/// bursts route through — the same one-pulse-per-cycle rate the delay
/// model charges. (A tighter spacing shifts correctly in simulation but
/// records a re-arm violation on every demux stage.)
const SHIFT_STEP_PS: f64 = 60.0;

/// Gap between driver operations (ps). The shift driver clears only two
/// demuxes per operation, so it settles faster than the default harness
/// gap.
const SHIFT_OP_GAP_PS: f64 = 300.0;

/// Closed-form budget for an `n × w` shift-register file.
///
/// Sections: storage rings, ring plumbing (head splitter + recirculation
/// NDRO gate + tail merger + clock broadcast per register), two clock-route
/// demuxes (read/write), and the gated serial write-data distribution.
pub fn shift_rf_budget(geometry: RfGeometry) -> RfBudget {
    let n = geometry.registers();
    let w = geometry.width();
    let levels = geometry.demux_levels();

    let mut storage = Census::default();
    storage.add(CellKind::Dro, (n * w) as u64);

    let mut ring = Census::default();
    ring.add(CellKind::Splitter, (n * w) as u64); // head splitter + clock tree (w-1)
    ring.add(CellKind::Ndro, n as u64); // recirculation gate
    ring.add(CellKind::Merger, n as u64); // tail merger
    ring.add(CellKind::Splitter, 2 * (n - 1) as u64); // gate SET/RESET broadcast

    let mut ports = Census::default();
    // Two demuxes route the shift-clock bursts (read and write paths).
    ports.add(CellKind::Ndroc, 2 * (n - 1) as u64);
    ports.add(CellKind::Splitter, 2 * ((n - levels - 1) + (n - 2)) as u64);
    // Serial write data: broadcast + per-register gating DAND.
    ports.add(CellKind::Dand, n as u64);
    ports.add(CellKind::Splitter, (n - 1) as u64);

    RfBudget {
        design: "Shift-register RF (Fujiwara-style)",
        geometry,
        sections: vec![
            BudgetSection {
                name: "storage",
                census: storage,
            },
            BudgetSection {
                name: "ring plumbing",
                census: ring,
            },
            BudgetSection {
                name: "ports",
                census: ports,
            },
        ],
    }
}

/// Readout delay model (ps): the demux traverse plus `w` shift cycles at
/// the 53 ps NDROC-limited burst rate, plus the ring exit path.
pub fn shift_rf_readout_ps(geometry: RfGeometry) -> f64 {
    geometry.demux_levels() as f64 * NDROC_PROP_PS
        + geometry.width() as f64 * RF_CYCLE_PS
        + DRO_CLK_TO_OUT_PS
        + SPLITTER_DELAY_PS
        + NDRO_CLK_TO_OUT_PS
}

/// A runnable structural shift-register file.
#[derive(Debug)]
pub struct ShiftRegisterRf {
    h: RfHarness,
    clock_demux: Demux,
    write_demux: Demux,
    /// Per-register recirculation-gate SET/RESET broadcast inputs.
    gate_set: Pin,
    gate_reset: Pin,
    /// Serial write-data input (broadcast to all tail DANDs).
    data_in: Pin,
    /// Serial output pins (probe pads), one per register.
    out_pins: Vec<Pin>,
    /// Serial output probes, one per register.
    out_probes: Vec<ProbeId>,
    /// Ring cells `[register][position]`; position `w-1` is the head.
    cells: Vec<Vec<ComponentId>>,
}

impl ShiftRegisterRf {
    /// Builds the register file through the typed elaboration layer
    /// (wiring legality by construction).
    pub fn new(geometry: RfGeometry) -> Self {
        let n = geometry.registers();
        let w = geometry.width();
        let levels = geometry.demux_levels();

        let (elab, built) = TypedBuilder::elaborate(|b| {
            let mut cells: Vec<Vec<ComponentId>> = Vec::with_capacity(n);
            let mut gate_set_sinks = Vec::with_capacity(n);
            let mut gate_reset_sinks = Vec::with_capacity(n);
            let mut out_pins = Vec::with_capacity(n);
            let mut tail_data_ins: Vec<Sink<'_>> = Vec::with_capacity(n);
            let mut clock_roots: Vec<Sink<'_>> = Vec::with_capacity(n);

            for r in 0..n {
                b.push_scope(format!("ring{r}"));
                // The storage cells live in their own sub-scope so
                // structural budgets can split them from the ring plumbing.
                let mut ring_ids = Vec::with_capacity(w);
                let mut ds: Vec<Option<Sink<'_>>> = Vec::with_capacity(w);
                let mut clks: Vec<Sink<'_>> = Vec::with_capacity(w);
                let mut qs: Vec<Option<Wire<'_>>> = Vec::with_capacity(w);
                b.scoped("bits", |b| {
                    for _ in 0..w {
                        let cell = b.dro();
                        ring_ids.push(cell.id);
                        ds.push(Some(cell.d));
                        clks.push(cell.clk);
                        qs.push(Some(cell.q));
                    }
                });
                // Shift chain: cell i -> cell i+1.
                for i in 0..w - 1 {
                    let q = qs[i].take().expect("ring Q unconsumed");
                    let d = ds[i + 1].take().expect("ring D unconsumed");
                    b.bind(q, d);
                }
                // Head -> splitter -> (external out, recirculation gate).
                let head_split = b.splitter();
                let head_q = qs[w - 1].take().expect("head Q unconsumed");
                b.bind(head_q, head_split.input);
                out_pins.push(b.expose(head_split.out0));
                let gate = b.ndro();
                b.bind(head_split.out1, gate.clk);
                gate_set_sinks.push(gate.set);
                gate_reset_sinks.push(gate.reset);
                // Tail merger: recirculation | gated write data -> cell 0.
                let tail = b.merger();
                b.bind(gate.out, tail.in_a);
                let tail_d = ds[0].take().expect("tail D unconsumed");
                b.bind(tail.out, tail_d);
                tail_data_ins.push(tail.in_b);
                // Clock broadcast across the ring.
                clock_roots.push(broadcast_to(b, clks));
                cells.push(ring_ids);
                b.pop_scope();
            }

            // Read-path clock demux: routes shift bursts to the selected
            // ring.
            let clock_demux = b.scoped("clock", |b| {
                let mut d = build_demux(b, levels);
                for (root, out) in clock_roots.into_iter().zip(d.take_outputs()) {
                    b.bind(out, root);
                }
                d.into_ports(b)
            });
            // Write-path demux: routes a write-enable burst that gates
            // serial data into the selected ring's tail.
            let mut write_gate_b: Vec<Sink<'_>> = Vec::with_capacity(n);
            let write_demux = b.scoped("wdata", |b| {
                let mut d = build_demux(b, levels);
                for (tail_in, out) in tail_data_ins.into_iter().zip(d.take_outputs()) {
                    let g = b.dand();
                    b.bind(out, g.a);
                    b.bind(g.out, tail_in);
                    write_gate_b.push(g.b);
                }
                d.into_ports(b)
            });
            // Serial data broadcast to every write gate's B input.
            let data_in = b.scoped("wdata", |b| {
                let root = broadcast_to(b, write_gate_b);
                b.external(root)
            });

            let (gate_set, gate_reset) = b.scoped("gating", |b| {
                let set = broadcast_to(b, gate_set_sinks);
                let reset = broadcast_to(b, gate_reset_sinks);
                (b.external(set), b.external(reset))
            });

            (
                clock_demux,
                write_demux,
                gate_set,
                gate_reset,
                data_in,
                out_pins,
                cells,
            )
        });
        elab.assert_total();
        let (clock_demux, write_demux, gate_set, gate_reset, data_in, out_pins, cells) = built;
        let mut sim = Simulator::new(elab.netlist);
        let out_probes = out_pins
            .iter()
            .enumerate()
            .map(|(r, &p)| sim.probe(p, format!("serial_out[{r}]")))
            .collect();

        ShiftRegisterRf {
            h: RfHarness::with_op_gap(geometry, sim, SHIFT_OP_GAP_PS),
            clock_demux,
            write_demux,
            gate_set,
            gate_reset,
            data_in,
            out_pins,
            out_probes,
            cells,
        }
    }

    fn finish(&mut self) {
        let t = self.h.sim().now() + Duration::from_ps(20.0);
        self.clock_demux.clear(self.h.sim_mut(), t);
        self.write_demux.clear(self.h.sim_mut(), t);
        self.h.sim_mut().run();
        self.h.advance_cursor();
    }

    /// Injects the demux select pulses for `reg` into `demux` at `t`.
    fn select(&mut self, which: WhichDemux, reg: usize, t: Time) {
        let levels = self.h.geometry().demux_levels();
        let sel = match which {
            WhichDemux::Clock => self.clock_demux.sel_set.clone(),
            WhichDemux::Write => self.write_demux.sel_set.clone(),
        };
        for (level, &pin) in sel.iter().enumerate() {
            if (reg >> (levels - 1 - level)) & 1 == 1 {
                self.h.sim_mut().inject(pin, t);
            }
        }
    }

    fn clock_tree_depth_ps(&self) -> f64 {
        crate::fabric::broadcast_depth(self.h.geometry().width()) as f64 * SPLITTER_DELAY_PS
    }
}

#[derive(Clone, Copy)]
enum WhichDemux {
    Clock,
    Write,
}

impl RegisterFile for ShiftRegisterRf {
    fn harness(&self) -> &RfHarness {
        &self.h
    }

    fn harness_mut(&mut self) -> &mut RfHarness {
        &mut self.h
    }

    /// Reads `reg` bit-serially over one full rotation (restoring).
    fn read(&mut self, reg: usize) -> u64 {
        self.h.assert_reg(reg);
        let w = self.h.geometry().width();
        self.h.sim_mut().clear_all_probes();
        let t = self.h.cursor();
        // Arm recirculation.
        let gate_set = self.gate_set;
        self.h.sim_mut().inject(gate_set, t);
        // Route the clock burst to the selected ring.
        let hs = sel_head_start(self.h.geometry().demux_levels());
        self.select(WhichDemux::Clock, reg, t);
        let first_clk = t + hs;
        for k in 0..w {
            let enable = self.clock_demux.enable;
            self.h.sim_mut().inject(
                enable,
                first_clk + Duration::from_ps(SHIFT_STEP_PS * k as f64),
            );
        }
        self.h.sim_mut().run();
        // Decode: shift k emits the head bit of rotation step k, i.e. bit
        // w-1-k of the stored word. Pulses arrive one demux traverse +
        // exit path after each clock.
        let exit = Duration::from_ps(
            self.h.geometry().demux_levels() as f64 * NDROC_PROP_PS
                + self.clock_tree_depth_ps()
                + DRO_CLK_TO_OUT_PS
                + SPLITTER_DELAY_PS,
        );
        let mut value = 0u64;
        let trace = self.h.sim().probe_trace(self.out_probes[reg]).clone();
        for k in 0..w {
            let slot = first_clk + Duration::from_ps(SHIFT_STEP_PS * k as f64) + exit;
            let lo = slot - Duration::from_ps(SHIFT_STEP_PS / 2.0);
            let hi = slot + Duration::from_ps(SHIFT_STEP_PS / 2.0);
            if trace.count_in(lo, hi) > 0 {
                value |= 1 << (w - 1 - k);
            }
        }
        self.finish();
        value
    }

    /// Writes `value` — a flush rotation with recirculation disarmed, then
    /// the new bits shifted in serially, MSB first — with a deliberate skew
    /// (ps) on the serial data train's arrival at the tail DAND gates.
    fn write_skewed(&mut self, reg: usize, value: u64, skew_ps: f64) {
        self.h.assert_write(reg, value);
        let w = self.h.geometry().width();
        let levels = self.h.geometry().demux_levels();

        // Phase 1: flush — clock one rotation with the gate disarmed.
        let t = self.h.cursor();
        let gate_reset = self.gate_reset;
        self.h.sim_mut().inject(gate_reset, t);
        let hs = sel_head_start(levels);
        self.select(WhichDemux::Clock, reg, t);
        let first = t + hs;
        for k in 0..w {
            let enable = self.clock_demux.enable;
            self.h
                .sim_mut()
                .inject(enable, first + Duration::from_ps(SHIFT_STEP_PS * k as f64));
        }
        self.h.sim_mut().run();
        self.finish();

        // Phase 2: shift in the new word, MSB first, so after w shifts bit
        // i sits in position i. Each injected bit needs a shift clock and
        // a write-enable pulse through the write demux, aligned at the
        // tail DAND.
        let t = self.h.cursor();
        self.select(WhichDemux::Clock, reg, t);
        self.select(WhichDemux::Write, reg, t);
        let first = t + hs;
        // Data must land in the tail *between* shift clocks: inject the
        // write-enable so the gated bit arrives half a step after each
        // shift clock has moved the ring. The margin skew displaces the
        // serial data train against that write enable.
        let wen_to_gate = levels as f64 * NDROC_PROP_PS;
        let data_to_gate = crate::fabric::broadcast_depth(self.h.geometry().registers()) as f64
            * SPLITTER_DELAY_PS;
        for k in 0..w {
            let step = Duration::from_ps(SHIFT_STEP_PS * k as f64);
            let clock_enable = self.clock_demux.enable;
            let write_enable = self.write_demux.enable;
            self.h.sim_mut().inject(clock_enable, first + step);
            let t_gate = first + step + Duration::from_ps(wen_to_gate + SHIFT_STEP_PS / 2.0);
            self.h
                .sim_mut()
                .inject(write_enable, t_gate - Duration::from_ps(wen_to_gate));
            if (value >> (w - 1 - k)) & 1 == 1 {
                let aligned_ps = t_gate.as_ps() - data_to_gate + skew_ps;
                let t_data = data_train_time(self.h.sim(), Time::from_ps(aligned_ps.max(0.0)));
                let data_in = self.data_in;
                self.h.sim_mut().inject(data_in, t_data);
            }
        }
        self.h.sim_mut().run();
        self.finish();
    }

    /// Peeks the stored word (bit `i` in ring position `i`).
    fn peek(&self, reg: usize) -> u64 {
        let mut v = 0u64;
        for (i, &cell) in self.cells[reg].iter().enumerate() {
            if self.h.sim().stored(cell) == Some(1) {
                v |= 1 << i;
            }
        }
        v
    }

    fn lint_ports(&self) -> sfq_lint::LintPorts {
        let mut inputs = self.clock_demux.lint_inputs();
        inputs.extend(self.write_demux.lint_inputs());
        inputs.extend([self.data_in, self.gate_set, self.gate_reset]);
        sfq_lint::LintPorts {
            timing: Some(sfq_lint::TimingSpec {
                starts: inputs.clone(),
                // The shift driver pulses the clock demux once per shift
                // step, so the step — not the operation gap — is the issue
                // period its 53 ps NDROC re-arm windows must clear.
                issue_period_ps: SHIFT_STEP_PS,
            }),
            external_inputs: inputs,
            external_outputs: self.out_pins.clone(),
        }
    }
}

/// Paper-facing comparison row: the shift-register file versus HiPerRF.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShiftVsHiPerRf {
    /// Shift-register JJ total.
    pub shift_jj: u64,
    /// HiPerRF JJ total.
    pub hiperrf_jj: u64,
    /// Shift-register readout (ps).
    pub shift_readout_ps: f64,
    /// HiPerRF readout (ps).
    pub hiperrf_readout_ps: f64,
}

/// Builds the comparison for a geometry.
pub fn compare_with_hiperrf(geometry: RfGeometry) -> ShiftVsHiPerRf {
    ShiftVsHiPerRf {
        shift_jj: shift_rf_budget(geometry).jj_total(),
        hiperrf_jj: crate::budget::hiperrf_budget(geometry).jj_total(),
        shift_readout_ps: shift_rf_readout_ps(geometry),
        hiperrf_readout_ps: crate::delay::readout_delay_ps(
            crate::delay::RfDesign::HiPerRf,
            geometry,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_round_trip() {
        let mut rf = ShiftRegisterRf::new(RfGeometry::paper_4x4());
        rf.write(2, 0b1010);
        assert_eq!(rf.peek(2), 0b1010, "bits must land in ring positions");
        assert_eq!(rf.read(2), 0b1010);
    }

    #[test]
    fn read_is_restoring_via_recirculation() {
        let mut rf = ShiftRegisterRf::new(RfGeometry::paper_4x4());
        rf.write(1, 0b0111);
        for i in 0..4 {
            assert_eq!(rf.read(1), 0b0111, "rotation {i}");
            assert_eq!(rf.peek(1), 0b0111, "ring restored after rotation {i}");
        }
    }

    #[test]
    fn overwrite_flushes_old_bits() {
        let mut rf = ShiftRegisterRf::new(RfGeometry::paper_4x4());
        rf.write(0, 0b1111);
        rf.write(0, 0b0010);
        assert_eq!(rf.read(0), 0b0010);
    }

    #[test]
    fn registers_are_independent() {
        let mut rf = ShiftRegisterRf::new(RfGeometry::paper_4x4());
        for r in 0..4 {
            rf.write(r, r as u64 + 1);
        }
        for r in 0..4 {
            assert_eq!(rf.read(r), r as u64 + 1, "register {r}");
        }
    }

    #[test]
    fn nominal_ops_record_no_violations() {
        let mut rf = ShiftRegisterRf::new(RfGeometry::paper_4x4());
        rf.write(3, 0b1011);
        assert_eq!(rf.read(3), 0b1011);
        assert!(
            rf.violations().is_empty(),
            "violations: {:?}",
            rf.violations()
        );
    }

    #[test]
    fn census_matches_budget() {
        for g in [
            RfGeometry::paper_4x4(),
            RfGeometry::new(8, 8).expect("valid"),
        ] {
            let rf = ShiftRegisterRf::new(g);
            assert_eq!(rf.census(), shift_rf_budget(g).census(), "{g}");
        }
    }

    #[test]
    fn denser_but_much_slower_than_hiperrf() {
        // The related-work trade-off at the paper's 32×32 size.
        let cmp = compare_with_hiperrf(RfGeometry::paper_32x32());
        assert!(cmp.shift_jj < cmp.hiperrf_jj, "{cmp:?}");
        assert!(
            cmp.shift_readout_ps > 5.0 * cmp.hiperrf_readout_ps,
            "serial access must be several times slower: {cmp:?}"
        );
    }
}
