//! NDROC-tree demultiplexer (the clock-less address decoder, paper §III-A).
//!
//! A 1-to-2 demux built from combinational SFQ gates would cost ≈50 JJs
//! and need clock distribution; the paper instead repurposes an NDROC
//! (complementary-output NDRO) as the demux element at 33 JJs. A 1-to-n
//! demux is a binary tree of NDROCs: select bits are loaded into the SET
//! pins level by level, then a single enable pulse rides the tree to the
//! selected output.

use sfq_cells::timing::SPLITTER_DELAY_PS;
use sfq_cells::typed::{Sink, TypedBuilder, Wire};
use sfq_sim::netlist::{Netlist, Pin};
use sfq_sim::simulator::Simulator;
use sfq_sim::time::{Duration, Time};

/// Ports and select protocol of a built NDROC demux tree.
#[derive(Debug, Clone)]
pub struct Demux {
    /// Enable input pin: the pulse that traverses the tree.
    pub enable: Pin,
    /// Per-level SET inputs (index 0 = root/MSB). Pulsing `sel_set[i]`
    /// makes level `i` route toward the `1` branch.
    pub sel_set: Vec<Pin>,
    /// Broadcast RESET input clearing every NDROC in the tree.
    pub reset: Pin,
    /// Output pins, indexed by decoded address.
    pub outputs: Vec<Pin>,
    levels: usize,
}

impl Demux {
    /// Number of tree levels.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Injects the select pattern for `addr` at `t_sel` and the enable at
    /// `t_enable`.
    ///
    /// Address bits are consumed MSB-first (root level first). The caller
    /// must leave enough margin for the SET pulses to reach the deepest
    /// level before the enable does; the NDROC propagation per level
    /// (24 ps) versus the splitter-tree fan (3 ps per stage) makes a
    /// ~15 ps head start ample.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range for the tree.
    pub fn select_and_fire(&self, sim: &mut Simulator, addr: usize, t_sel: Time, t_enable: Time) {
        assert!(addr < self.outputs.len(), "address {addr} out of range");
        for (level, &set_pin) in self.sel_set.iter().enumerate() {
            let bit = (addr >> (self.levels - 1 - level)) & 1;
            if bit == 1 {
                sim.inject(set_pin, t_sel);
            }
        }
        sim.inject(self.enable, t_enable);
    }

    /// Injects the broadcast reset at `t`.
    pub fn clear(&self, sim: &mut Simulator, t: Time) {
        sim.inject(self.reset, t);
    }

    /// Every externally driven input pin of the demux (enable, reset, and
    /// all select inputs) — the demux's contribution to a design's
    /// [`sfq_lint::LintPorts`].
    pub fn lint_inputs(&self) -> Vec<Pin> {
        let mut pins = vec![self.enable, self.reset];
        pins.extend(self.sel_set.iter().copied());
        pins
    }
}

/// A demux tree under elaboration: the [`Demux`] endpoints as affine
/// handles. Produced by [`build_demux`]; the caller consumes
/// [`TypedDemux::take_outputs`] (routing each decoded address somewhere)
/// and then [`TypedDemux::into_ports`] to externalize the control inputs
/// and recover the Pin-level [`Demux`].
#[derive(Debug)]
pub struct TypedDemux<'brand> {
    /// Enable sink: the pulse that traverses the tree (root CLK).
    pub enable: Sink<'brand>,
    /// Per-level SET sinks (index 0 = root/MSB).
    pub sel_set: Vec<Sink<'brand>>,
    /// Broadcast RESET sink clearing every NDROC in the tree.
    pub reset: Sink<'brand>,
    /// Output wires, indexed by decoded address.
    pub outputs: Vec<Wire<'brand>>,
    out_pins: Vec<Pin>,
    levels: usize,
}

impl<'brand> TypedDemux<'brand> {
    /// Number of tree levels.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Takes the output wires (leaving the struct with an empty list) so
    /// the caller can route them while keeping the control sinks in place.
    pub fn take_outputs(&mut self) -> Vec<Wire<'brand>> {
        std::mem::take(&mut self.outputs)
    }

    /// Externalizes the control sinks (enable, selects, reset) and returns
    /// the Pin-level [`Demux`] for the functional drivers. The output
    /// wires must already have been taken and consumed; any still held are
    /// dropped here and will surface in the elaboration ledger.
    pub fn into_ports(self, b: &mut TypedBuilder<'brand>) -> Demux {
        let TypedDemux {
            enable,
            sel_set,
            reset,
            outputs,
            out_pins,
            levels,
        } = self;
        drop(outputs);
        Demux {
            enable: b.external(enable),
            sel_set: sel_set.into_iter().map(|s| b.external(s)).collect(),
            reset: b.external(reset),
            outputs: out_pins,
            levels,
        }
    }
}

/// Builds a `levels`-deep NDROC demux tree with `2^levels` outputs.
///
/// Each level's shared select bit is distributed by a splitter tree, and a
/// broadcast splitter tree carries RESET to every NDROC. The tree's wiring
/// legality (every NDROC output consumed exactly once, every
/// SET/CLK/RESET driven exactly once) is enforced by construction.
///
/// # Panics
///
/// Panics if `levels` is zero.
pub fn build_demux<'b>(b: &mut TypedBuilder<'b>, levels: usize) -> TypedDemux<'b> {
    assert!(levels >= 1, "demux needs at least one level");
    b.scoped("demux", |b| {
        // Per-node endpoint slots, level by level: level i has 2^i nodes.
        struct Node<'b> {
            set: Option<Sink<'b>>,
            reset: Option<Sink<'b>>,
            clk: Option<Sink<'b>>,
            out0: Option<Wire<'b>>,
            out1: Option<Wire<'b>>,
        }
        let mut level_nodes: Vec<Vec<Node<'b>>> = Vec::with_capacity(levels);
        for i in 0..levels {
            level_nodes.push(
                (0..1usize << i)
                    .map(|_| {
                        let n = b.ndroc();
                        Node {
                            set: Some(n.set),
                            reset: Some(n.reset),
                            clk: Some(n.clk),
                            out0: Some(n.out0),
                            out1: Some(n.out1),
                        }
                    })
                    .collect(),
            );
        }

        // Wire enables: node (i, j)'s OUT1 (bit 0) feeds child (i+1, 2j),
        // OUT0 (bit 1) feeds (i+1, 2j+1).
        for i in 0..levels - 1 {
            let (upper, lower) = level_nodes.split_at_mut(i + 1);
            let parents = &mut upper[i];
            let kids = &mut lower[0];
            for (j, parent) in parents.iter_mut().enumerate() {
                let out1 = parent.out1.take().expect("parent OUT1 unconsumed");
                let clk0 = kids[2 * j].clk.take().expect("kid CLK unconsumed");
                b.bind(out1, clk0);
                let out0 = parent.out0.take().expect("parent OUT0 unconsumed");
                let clk1 = kids[2 * j + 1].clk.take().expect("kid CLK unconsumed");
                b.bind(out0, clk1);
            }
        }

        // Leaf outputs, indexed by address (MSB at root, OUT0 = bit 1).
        let last_level = levels - 1;
        let mut outputs = Vec::with_capacity(level_nodes[last_level].len() * 2);
        for node in &mut level_nodes[last_level] {
            outputs.push(node.out1.take().expect("leaf OUT1 unconsumed")); // bit 0
            outputs.push(node.out0.take().expect("leaf OUT0 unconsumed")); // bit 1
        }
        let out_pins: Vec<Pin> = outputs.iter().map(|w| w.pin()).collect();

        // SEL distribution: level 0 is a single NDROC (its SET pin is the
        // level input); deeper levels fan one input out through a
        // splitter tree rooted at a synthetic root splitter.
        let mut sel_set = Vec::with_capacity(levels);
        for nodes in level_nodes.iter_mut() {
            if nodes.len() == 1 {
                sel_set.push(nodes[0].set.take().expect("root SET unconsumed"));
            } else {
                let root_split = b.splitter();
                let half = nodes.len() / 2;
                let left = b.fork(root_split.out0, half);
                let right = b.fork(root_split.out1, nodes.len() - half);
                for (node, leaf) in nodes.iter_mut().zip(left.into_iter().chain(right)) {
                    let set = node.set.take().expect("SET unconsumed");
                    b.bind(leaf, set);
                }
                sel_set.push(root_split.input);
            }
        }

        // Broadcast RESET to all NDROCs.
        let mut resets: Vec<Sink<'b>> = level_nodes
            .iter_mut()
            .flatten()
            .map(|n| n.reset.take().expect("RESET unconsumed"))
            .collect();
        let reset = if resets.len() == 1 {
            resets.pop().expect("single reset")
        } else {
            let root_split = b.splitter();
            let half = resets.len() / 2;
            let left = b.fork(root_split.out0, half);
            let right = b.fork(root_split.out1, resets.len() - half);
            for (sink, leaf) in resets.into_iter().zip(left.into_iter().chain(right)) {
                b.bind(leaf, sink);
            }
            root_split.input
        };

        let enable = level_nodes[0][0].clk.take().expect("root CLK unconsumed");
        TypedDemux {
            enable,
            sel_set,
            reset,
            outputs,
            out_pins,
            levels,
        }
    })
}

/// Elaborates a standalone `levels`-deep demux with every decoded output
/// exposed, for analyses and simulations of the tree on its own.
///
/// # Panics
///
/// Panics if `levels` is zero.
pub fn elaborate_demux(levels: usize) -> (Netlist, Demux) {
    let (elab, demux) = TypedBuilder::elaborate(|b| {
        let mut d = build_demux(b, levels);
        for out in d.take_outputs() {
            b.expose(out);
        }
        d.into_ports(b)
    });
    elab.assert_total();
    (elab.netlist, demux)
}

/// Suggested SET-to-enable head start for drivers (ps): covers the deepest
/// splitter-tree fan so select bits land before the enable arrives.
pub fn sel_head_start_ps(levels: usize) -> f64 {
    SPLITTER_DELAY_PS * (levels as f64 + 2.0) + 3.0
}

/// Suggested head start as a [`Duration`].
pub fn sel_head_start(levels: usize) -> Duration {
    Duration::from_ps(sel_head_start_ps(levels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfq_cells::spec::{CellKind, Census};
    use sfq_cells::timing::NDROC_PROP_PS;

    fn demux_sim(levels: usize) -> (Simulator, Demux, Vec<sfq_sim::simulator::ProbeId>) {
        let (netlist, d) = elaborate_demux(levels);
        let mut sim = Simulator::new(netlist);
        let probes: Vec<_> = d
            .outputs
            .iter()
            .enumerate()
            .map(|(i, &p)| sim.probe(p, format!("out{i}")))
            .collect();
        (sim, d, probes)
    }

    #[test]
    fn routes_every_address() {
        for levels in 1..=5 {
            let (mut sim, d, probes) = demux_sim(levels);
            let n = 1usize << levels;
            let mut t = Time::from_ps(10.0);
            for addr in 0..n {
                sim.clear_all_probes();
                d.select_and_fire(&mut sim, addr, t, t + sel_head_start(levels));
                sim.run();
                for (i, &p) in probes.iter().enumerate() {
                    let hits = sim.probe_trace(p).len();
                    assert_eq!(
                        hits,
                        (i == addr) as usize,
                        "levels {levels} addr {addr} output {i}"
                    );
                }
                let t_clear = sim.now() + Duration::from_ps(10.0);
                d.clear(&mut sim, t_clear);
                sim.run();
                t = sim.now() + Duration::from_ps(300.0);
            }
            assert!(
                sim.violations().is_empty(),
                "levels {levels} had violations"
            );
        }
    }

    #[test]
    fn cell_count_matches_budget_formula() {
        for levels in 1..=5usize {
            let n = 1usize << levels;
            let census = Census::of(&elaborate_demux(levels).0);
            assert_eq!(census.count(CellKind::Ndroc), (n - 1) as u64);
            let expected_splitters = (n - levels - 1) as u64 + (n - 2) as u64;
            assert_eq!(
                census.count(CellKind::Splitter),
                expected_splitters,
                "levels {levels}"
            );
        }
    }

    #[test]
    fn enable_without_reset_reuses_selection() {
        // NDROC state persists: firing twice without reselecting routes to
        // the same output (the paper's reason a RESET port is required).
        let (mut sim, d, probes) = demux_sim(2);
        d.select_and_fire(&mut sim, 3, Time::from_ps(0.0), Time::from_ps(20.0));
        sim.run();
        sim.clear_all_probes();
        // Fire again without new SEL: still address 3.
        sim.inject(d.enable, sim.now() + Duration::from_ps(100.0));
        sim.run();
        assert_eq!(sim.probe_trace(probes[3]).len(), 1);
    }

    #[test]
    fn traverse_delay_is_level_proportional() {
        let (mut sim, d, probes) = demux_sim(3);
        d.select_and_fire(&mut sim, 0, Time::from_ps(0.0), Time::from_ps(20.0));
        sim.run();
        let out_t = sim.probe_trace(probes[0]).pulses()[0];
        assert_eq!((out_t - Time::from_ps(20.0)).as_ps(), 3.0 * NDROC_PROP_PS);
    }
}
