//! Ergonomic netlist construction.
//!
//! [`CircuitBuilder`] wraps a [`Netlist`] with labeled-instance helpers for
//! every library cell plus the fan-out/fan-in tree builders that SFQ
//! designs need everywhere (explicit splitters for fan-out, mergers for
//! fan-in, paper §II-F).

use std::collections::VecDeque;

use sfq_sim::cell::Cell;
use sfq_sim::netlist::{ComponentId, Netlist, Pin};
use sfq_sim::time::Duration;

use crate::counter::CounterBit;
use crate::logic::{AndGate, Dand, NotGate, SyncSampler};
use crate::storage::{Dro, HcDro, Ndro, Ndroc};
use crate::transport::{Jtl, Merger, Splitter};

/// Builder over a netlist with hierarchical instance scopes.
///
/// Scopes live on the [`Netlist`] itself: every cell added between
/// [`CircuitBuilder::push_scope`] and the matching
/// [`CircuitBuilder::pop_scope`] lands in that named region, so structural
/// analyses can later attribute it via
/// [`Netlist::scope_of`]/[`Netlist::iter_scope`].
#[derive(Debug)]
pub struct CircuitBuilder {
    netlist: Netlist,
    counter: u64,
}

impl Default for CircuitBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl CircuitBuilder {
    /// Creates a builder over an empty netlist.
    pub fn new() -> Self {
        CircuitBuilder {
            netlist: Netlist::new(),
            counter: 0,
        }
    }

    /// Finishes building and returns the netlist.
    pub fn finish(self) -> Netlist {
        self.netlist
    }

    /// Returns the netlist built so far.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Exclusive access to the netlist under construction — the typed
    /// layer routes its binds through [`Netlist::try_connect`] here.
    pub(crate) fn netlist_mut(&mut self) -> &mut Netlist {
        &mut self.netlist
    }

    /// Opens an instance scope (e.g. `"readport"`); cells added until the
    /// matching [`CircuitBuilder::pop_scope`] belong to it.
    pub fn push_scope(&mut self, scope: impl Into<String>) {
        self.netlist.push_scope(scope);
    }

    /// Closes the innermost instance scope.
    pub fn pop_scope(&mut self) {
        self.netlist.pop_scope();
    }

    /// Runs `f` inside an instance scope.
    pub fn scoped<R>(&mut self, scope: impl Into<String>, f: impl FnOnce(&mut Self) -> R) -> R {
        self.push_scope(scope);
        let r = f(self);
        self.pop_scope();
        r
    }

    /// Adds a cell in the current scope, named `{kind_label}{n}` with `n`
    /// counting every cell this builder added.
    pub fn add(&mut self, kind_label: &str, cell: Cell) -> ComponentId {
        let n = self.counter;
        self.counter += 1;
        self.netlist.add(format_args!("{kind_label}{n}"), cell)
    }

    /// Adds a nominal-delay JTL.
    pub fn jtl(&mut self) -> ComponentId {
        self.add("jtl", Jtl::cell())
    }

    /// Adds a JTL tuned to `delay`.
    pub fn jtl_with_delay(&mut self, delay: Duration) -> ComponentId {
        self.add("jtl", Jtl::with_delay(delay))
    }

    /// Adds a splitter.
    pub fn splitter(&mut self) -> ComponentId {
        self.add("sp", Splitter::cell())
    }

    /// Adds a merger.
    pub fn merger(&mut self) -> ComponentId {
        self.add("mg", Merger::cell())
    }

    /// Adds a DRO cell.
    pub fn dro(&mut self) -> ComponentId {
        self.add("dro", Dro::cell())
    }

    /// Adds a 2-bit HC-DRO cell.
    pub fn hcdro(&mut self) -> ComponentId {
        self.add("hcdro", HcDro::cell())
    }

    /// Adds an NDRO cell.
    pub fn ndro(&mut self) -> ComponentId {
        self.add("ndro", Ndro::cell())
    }

    /// Adds an NDROC (complementary-output) cell.
    pub fn ndroc(&mut self) -> ComponentId {
        self.add("ndroc", Ndroc::cell())
    }

    /// Adds a dynamic AND gate.
    pub fn dand(&mut self) -> ComponentId {
        self.add("dand", Dand::cell())
    }

    /// Adds a clocked AND gate.
    pub fn and_gate(&mut self) -> ComponentId {
        self.add("and", AndGate::cell())
    }

    /// Adds a clocked NOT gate.
    pub fn not_gate(&mut self) -> ComponentId {
        self.add("not", NotGate::cell())
    }

    /// Adds a clocked sampling element (margin-engine reference cell).
    pub fn sync_sampler(&mut self) -> ComponentId {
        self.add("sync", SyncSampler::cell())
    }

    /// Adds a counter bit.
    pub fn counter_bit(&mut self) -> ComponentId {
        self.add("cb", CounterBit::cell())
    }

    /// Connects an output pin to an input pin with zero wire delay.
    pub fn connect(&mut self, from: Pin, to: Pin) {
        self.netlist.connect(from, to, Duration::ZERO);
    }

    /// Connects with an explicit wire delay (PTL segment).
    pub fn connect_delayed(&mut self, from: Pin, to: Pin, delay: Duration) {
        self.netlist.connect(from, to, delay);
    }

    /// Builds a balanced splitter tree from `root` (an output pin) to
    /// `leaves` output pins. Uses `leaves - 1` splitters; with `leaves == 1`
    /// the root is returned unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is zero.
    pub fn splitter_tree(&mut self, root: Pin, leaves: usize) -> Vec<Pin> {
        assert!(leaves > 0, "splitter tree needs at least one leaf");
        let mut q: VecDeque<Pin> = VecDeque::from([root]);
        while q.len() < leaves {
            let src = q.pop_front().expect("queue never empty");
            let s = self.splitter();
            self.connect(src, Pin::new(s, Splitter::IN));
            q.push_back(Pin::new(s, Splitter::OUT0));
            q.push_back(Pin::new(s, Splitter::OUT1));
        }
        q.into_iter().collect()
    }

    /// Builds a balanced merger tree combining `inputs` (output pins of the
    /// sources) into a single output pin. Uses `inputs.len() - 1` mergers.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty.
    pub fn merger_tree(&mut self, inputs: &[Pin]) -> Pin {
        assert!(!inputs.is_empty(), "merger tree needs at least one input");
        let mut level: Vec<Pin> = inputs.to_vec();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            let mut it = level.chunks(2);
            for pair in &mut it {
                match pair {
                    [a, b] => {
                        let m = self.merger();
                        self.connect(*a, Pin::new(m, Merger::IN_A));
                        self.connect(*b, Pin::new(m, Merger::IN_B));
                        next.push(Pin::new(m, Merger::OUT));
                    }
                    [a] => next.push(*a),
                    _ => unreachable!("chunks(2) yields 1- or 2-element slices"),
                }
            }
            level = next;
        }
        level[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfq_sim::simulator::Simulator;
    use sfq_sim::time::Time;

    #[test]
    fn splitter_tree_fans_out() {
        let mut b = CircuitBuilder::new();
        let src = b.jtl();
        let leaves = b.splitter_tree(Pin::new(src, Jtl::OUT), 5);
        assert_eq!(leaves.len(), 5);
        // 4 splitters for 5 leaves.
        let mut sim = Simulator::new(b.finish());
        let probes: Vec<_> = leaves
            .iter()
            .map(|&p| sim.probe(p, format!("leaf{}", p.index)))
            .collect();
        sim.inject(Pin::new(src, Jtl::IN), Time::ZERO);
        sim.run();
        for p in probes {
            assert_eq!(sim.probe_trace(p).len(), 1);
        }
    }

    #[test]
    fn splitter_tree_single_leaf_is_identity() {
        let mut b = CircuitBuilder::new();
        let src = b.jtl();
        let leaves = b.splitter_tree(Pin::new(src, Jtl::OUT), 1);
        assert_eq!(leaves, vec![Pin::new(src, Jtl::OUT)]);
        assert_eq!(b.netlist().component_count(), 1);
    }

    #[test]
    fn merger_tree_fans_in() {
        let mut b = CircuitBuilder::new();
        let srcs: Vec<_> = (0..7).map(|_| b.jtl()).collect();
        let inputs: Vec<_> = srcs.iter().map(|&s| Pin::new(s, Jtl::OUT)).collect();
        let out = b.merger_tree(&inputs);
        let mut sim = Simulator::new(b.finish());
        let p = sim.probe(out, "out");
        // One pulse into a single source propagates to the root.
        sim.inject(Pin::new(srcs[3], Jtl::IN), Time::ZERO);
        sim.run();
        assert_eq!(sim.probe_trace(p).len(), 1);
    }

    #[test]
    fn tree_cell_counts() {
        let mut b = CircuitBuilder::new();
        let src = b.jtl();
        let leaves = b.splitter_tree(Pin::new(src, Jtl::OUT), 32);
        assert_eq!(leaves.len(), 32);
        let n_before = b.netlist().component_count();
        assert_eq!(n_before, 1 + 31); // jtl + 31 splitters
        let out = b.merger_tree(&leaves);
        assert_eq!(b.netlist().component_count(), n_before + 31); // 31 mergers
        let _ = out;
    }

    #[test]
    fn scoped_labels() {
        let mut b = CircuitBuilder::new();
        let id = b.scoped("rf", |b| b.scoped("readport", |b| b.ndroc()));
        assert!(b.netlist().label(id).starts_with("rf/readport/ndroc"));
    }

    #[test]
    fn scopes_recorded_on_netlist() {
        let mut b = CircuitBuilder::new();
        let id = b.scoped("rf", |b| b.scoped("readport", |b| b.ndroc()));
        let outside = b.jtl();
        let n = b.finish();
        assert_eq!(n.scope_of(id), "rf/readport");
        assert_eq!(n.scope_of(outside), "");
        assert_eq!(n.iter_scope("rf").count(), 1);
        assert_eq!(n.iter_scope("rf/readport").count(), 1);
        assert_eq!(
            n.iter_scope("readport").count(),
            0,
            "scope paths are rooted"
        );
    }
}
