//! Typed elaboration: SFQ wiring legality *by construction*.
//!
//! SFQ's wiring discipline — every cell output consumed exactly once,
//! explicit splitters at fan-out points, explicit mergers at fan-in points
//! (paper §II-F) — is an affine-type rule, and it maps directly onto
//! Rust's move semantics (RustSFQ). This module retrofits
//! [`CircuitBuilder`] with that mapping:
//!
//! * every cell constructor returns its endpoints as move-only handles —
//!   a [`Wire`] per output pin and a [`Sink`] per input pin;
//! * [`TypedBuilder::bind`] consumes one `Wire` and one `Sink`, so
//!   consuming a wire twice (electrical fan-out without a splitter) or
//!   driving a sink twice (fan-in without a merger) is a **compile
//!   error**, not a lint finding;
//! * fan-out is explicit: [`TypedBuilder::fork`] consumes one wire and
//!   returns `n`, inserting the balanced splitter tree automatically;
//!   fan-in is [`TypedBuilder::join`], which inserts the merger tree;
//! * endpoints that leave the netlist are declared: [`TypedBuilder::external`]
//!   marks a sink as externally driven (the simulator injects there) and
//!   [`TypedBuilder::expose`] marks a wire as externally observed (a probe
//!   or chip pad). Anything else left unconsumed is *tracked*: it comes
//!   back from [`TypedBuilder::elaborate`] in [`Elaboration::dropped_wires`] /
//!   [`Elaboration::dangling_sinks`] so nothing silently disappears, and
//!   `sfq-lint`'s `dropped-wire` / `dangling-input` rules are the
//!   post-elaboration backstop over the same invariant.
//!
//! Handles are *branded*: the `'brand` lifetime parameter on
//! [`TypedBuilder`], [`Wire`], and [`Sink`] is invariant and unique to one
//! [`TypedBuilder::elaborate`] call, so a wire can only ever be bound into
//! the builder that issued it — cross-builder use does not compile either.
//!
//! The raw [`CircuitBuilder`] API stays available as the escape hatch for
//! code that must construct *illegal* netlists on purpose (the
//! mutation-based lint tests); production elaborations go through this
//! layer.
//!
//! # Examples
//!
//! A one-to-two fan-out with the splitter inserted by `fork`:
//!
//! ```
//! use sfq_cells::typed::TypedBuilder;
//!
//! let (elab, out_pins) = TypedBuilder::elaborate(|b| {
//!     let j = b.jtl();
//!     let src = b.external(j.input);
//!     let leaves = b.fork(j.out, 2);
//!     let _ = src;
//!     leaves.into_iter().map(|w| b.expose(w)).collect::<Vec<_>>()
//! });
//! assert_eq!(out_pins.len(), 2);
//! assert_eq!(elab.netlist.component_count(), 2); // jtl + 1 splitter
//! assert!(elab.dropped_wires.is_empty());
//! assert!(elab.dangling_sinks.is_empty());
//! ```
//!
//! Consuming a wire twice is a compile error (`Wire` is move-only):
//!
//! ```compile_fail,E0382
//! use sfq_cells::typed::TypedBuilder;
//!
//! TypedBuilder::elaborate(|b| {
//!     let j = b.jtl();
//!     let s = b.splitter();
//!     let m = b.merger();
//!     b.bind(j.out, s.input);
//!     b.bind(j.out, m.in_a); // error: `j.out` was already consumed
//!     let _ = (j.input, s.out0, s.out1, m.in_b, m.out);
//! });
//! ```
//!
//! So is driving a sink twice:
//!
//! ```compile_fail,E0382
//! use sfq_cells::typed::TypedBuilder;
//!
//! TypedBuilder::elaborate(|b| {
//!     let a = b.jtl();
//!     let x = b.jtl();
//!     let y = b.jtl();
//!     b.bind(x.out, a.input);
//!     b.bind(y.out, a.input); // error: `a.input` was already driven
//!     let _ = (a.out, x.input, y.input);
//! });
//! ```
//!
//! And so is smuggling a wire from one builder into another — the brand
//! lifetimes don't unify:
//!
//! ```compile_fail
//! use sfq_cells::typed::TypedBuilder;
//!
//! TypedBuilder::elaborate(|outer| {
//!     let j = outer.jtl();
//!     TypedBuilder::elaborate(move |inner| {
//!         let s = inner.splitter();
//!         inner.bind(j.out, s.input); // error: wire from a different builder
//!         let _ = (j.input, s.out0, s.out1);
//!     });
//! });
//! ```

use std::collections::VecDeque;
use std::marker::PhantomData;

use sfq_sim::netlist::{ComponentId, Netlist, Pin};
use sfq_sim::time::Duration;

use crate::builder::CircuitBuilder;
use crate::counter::CounterBit;
use crate::logic::Dand;
use crate::storage::{Dro, HcDro, Ndro, Ndroc};
use crate::transport::{Jtl, Merger, Splitter};

/// Invariant lifetime marker: makes `'brand` neither covariant nor
/// contravariant, so two distinct `elaborate` calls can never exchange
/// handles.
type Brand<'brand> = PhantomData<fn(&'brand ()) -> &'brand ()>;

/// A cell output pin that must be consumed exactly once.
///
/// Move-only: binding, forking, joining, or exposing a wire consumes it,
/// and a second use is a compile error. A wire that is simply dropped is
/// reported in [`Elaboration::dropped_wires`].
#[derive(Debug)]
#[must_use = "an SFQ output must be consumed exactly once; bind, fork, join, or expose it"]
pub struct Wire<'brand> {
    pin: Pin,
    token: usize,
    _brand: Brand<'brand>,
}

impl Wire<'_> {
    /// The underlying output pin, without consuming the wire — for
    /// bookkeeping (probe labels, port tables). Only
    /// [`TypedBuilder::bind`]-style consumption wires it up.
    pub fn pin(&self) -> Pin {
        self.pin
    }
}

/// A cell input pin that must be driven exactly once.
///
/// Move-only like [`Wire`]: a sink is either bound to a wire or declared
/// [`TypedBuilder::external`]; driving it twice is a compile error, and a
/// sink dropped undriven is reported in [`Elaboration::dangling_sinks`].
#[derive(Debug)]
#[must_use = "an SFQ input must be driven exactly once; bind it or declare it external"]
pub struct Sink<'brand> {
    pin: Pin,
    token: usize,
    _brand: Brand<'brand>,
}

impl Sink<'_> {
    /// The underlying input pin, without consuming the sink.
    pub fn pin(&self) -> Pin {
        self.pin
    }
}

/// The result of a typed elaboration: the finished netlist plus the
/// endpoint ledger the builder tracked.
#[derive(Debug)]
pub struct Elaboration {
    /// The elaborated netlist.
    pub netlist: Netlist,
    /// Input pins declared externally driven ([`TypedBuilder::external`]),
    /// in declaration order — feeds `sfq-lint`'s `LintPorts`.
    pub external_inputs: Vec<Pin>,
    /// Output pins declared externally observed ([`TypedBuilder::expose`]),
    /// in declaration order.
    pub external_outputs: Vec<Pin>,
    /// Output pins whose wires were dropped without being consumed —
    /// pulses that would silently disappear.
    pub dropped_wires: Vec<Pin>,
    /// Input pins whose sinks were dropped without being driven or
    /// declared external.
    pub dangling_sinks: Vec<Pin>,
}

impl Elaboration {
    /// `true` when every issued endpoint was accounted for: no dropped
    /// wires, no dangling sinks.
    pub fn is_total(&self) -> bool {
        self.dropped_wires.is_empty() && self.dangling_sinks.is_empty()
    }

    /// Asserts totality, listing the leaked endpoints.
    ///
    /// # Panics
    ///
    /// Panics if any wire was dropped or any sink left dangling.
    pub fn assert_total(&self) {
        assert!(
            self.is_total(),
            "typed elaboration leaked endpoints: dropped wires {:?}, dangling sinks {:?}",
            self.dropped_wires,
            self.dangling_sinks
        );
    }
}

/// Ports of a typed JTL: one sink in, one wire out.
#[derive(Debug)]
pub struct TypedJtl<'brand> {
    /// The cell.
    pub id: ComponentId,
    /// `Jtl::IN`.
    pub input: Sink<'brand>,
    /// `Jtl::OUT`.
    pub out: Wire<'brand>,
}

/// Ports of a typed splitter: one sink in, two wires out.
#[derive(Debug)]
pub struct TypedSplitter<'brand> {
    /// The cell.
    pub id: ComponentId,
    /// `Splitter::IN`.
    pub input: Sink<'brand>,
    /// `Splitter::OUT0`.
    pub out0: Wire<'brand>,
    /// `Splitter::OUT1`.
    pub out1: Wire<'brand>,
}

/// Ports of a typed merger: two sinks in, one wire out.
#[derive(Debug)]
pub struct TypedMerger<'brand> {
    /// The cell.
    pub id: ComponentId,
    /// `Merger::IN_A`.
    pub in_a: Sink<'brand>,
    /// `Merger::IN_B`.
    pub in_b: Sink<'brand>,
    /// `Merger::OUT`.
    pub out: Wire<'brand>,
}

/// Ports of a typed DRO cell.
#[derive(Debug)]
pub struct TypedDro<'brand> {
    /// The cell.
    pub id: ComponentId,
    /// `Dro::D`.
    pub d: Sink<'brand>,
    /// `Dro::CLK`.
    pub clk: Sink<'brand>,
    /// `Dro::Q`.
    pub q: Wire<'brand>,
}

/// Ports of a typed HC-DRO cell.
#[derive(Debug)]
pub struct TypedHcDro<'brand> {
    /// The cell.
    pub id: ComponentId,
    /// `HcDro::D`.
    pub d: Sink<'brand>,
    /// `HcDro::CLK`.
    pub clk: Sink<'brand>,
    /// `HcDro::Q`.
    pub q: Wire<'brand>,
}

/// Ports of a typed NDRO cell.
#[derive(Debug)]
pub struct TypedNdro<'brand> {
    /// The cell.
    pub id: ComponentId,
    /// `Ndro::SET`.
    pub set: Sink<'brand>,
    /// `Ndro::RESET`.
    pub reset: Sink<'brand>,
    /// `Ndro::CLK`.
    pub clk: Sink<'brand>,
    /// `Ndro::OUT`.
    pub out: Wire<'brand>,
}

/// Ports of a typed NDROC (complementary-output) cell.
#[derive(Debug)]
pub struct TypedNdroc<'brand> {
    /// The cell.
    pub id: ComponentId,
    /// `Ndroc::SET`.
    pub set: Sink<'brand>,
    /// `Ndroc::RESET`.
    pub reset: Sink<'brand>,
    /// `Ndroc::CLK`.
    pub clk: Sink<'brand>,
    /// `Ndroc::OUT0` (true output).
    pub out0: Wire<'brand>,
    /// `Ndroc::OUT1` (complement output).
    pub out1: Wire<'brand>,
}

/// Ports of a typed dynamic AND gate.
#[derive(Debug)]
pub struct TypedDand<'brand> {
    /// The cell.
    pub id: ComponentId,
    /// `Dand::A`.
    pub a: Sink<'brand>,
    /// `Dand::B`.
    pub b: Sink<'brand>,
    /// `Dand::OUT`.
    pub out: Wire<'brand>,
}

/// Ports of a typed counter bit.
#[derive(Debug)]
pub struct TypedCounterBit<'brand> {
    /// The cell.
    pub id: ComponentId,
    /// `CounterBit::IN`.
    pub input: Sink<'brand>,
    /// `CounterBit::READ`.
    pub read: Sink<'brand>,
    /// `CounterBit::RESET`.
    pub reset: Sink<'brand>,
    /// `CounterBit::CARRY`.
    pub carry: Wire<'brand>,
    /// `CounterBit::VALUE`.
    pub value: Wire<'brand>,
}

/// Endpoint ledger entry: what happened to an issued handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EndpointState {
    Open,
    Consumed,
}

/// Affine-typed facade over [`CircuitBuilder`].
///
/// Created only through [`TypedBuilder::elaborate`], which brands the
/// builder and every handle it issues with a unique invariant lifetime.
/// Cells are created through the raw builder's labeled-instance helpers,
/// so labels, scopes, and creation order — and hence netlist digests —
/// are exactly what the same calls on a [`CircuitBuilder`] would give.
#[derive(Debug)]
pub struct TypedBuilder<'brand> {
    b: CircuitBuilder,
    wires: Vec<(Pin, EndpointState)>,
    sinks: Vec<(Pin, EndpointState)>,
    external_inputs: Vec<Pin>,
    external_outputs: Vec<Pin>,
    _brand: Brand<'brand>,
}

impl<'brand> TypedBuilder<'brand> {
    /// Runs a typed construction closure over a fresh branded builder and
    /// finishes the netlist.
    ///
    /// The closure must be generic over the brand (`for<'b> FnOnce`), which
    /// is what prevents handles from escaping or crossing builders. The
    /// closure's own result `R` (typically a struct of plain [`Pin`]s
    /// collected via [`TypedBuilder::external`] / [`TypedBuilder::expose`])
    /// is returned alongside the [`Elaboration`].
    pub fn elaborate<R>(f: impl for<'b> FnOnce(&mut TypedBuilder<'b>) -> R) -> (Elaboration, R) {
        let mut tb = TypedBuilder {
            b: CircuitBuilder::new(),
            wires: Vec::new(),
            sinks: Vec::new(),
            external_inputs: Vec::new(),
            external_outputs: Vec::new(),
            _brand: PhantomData,
        };
        let r = f(&mut tb);
        let dropped_wires = tb
            .wires
            .iter()
            .filter(|(_, s)| *s == EndpointState::Open)
            .map(|&(p, _)| p)
            .collect();
        let dangling_sinks = tb
            .sinks
            .iter()
            .filter(|(_, s)| *s == EndpointState::Open)
            .map(|&(p, _)| p)
            .collect();
        (
            Elaboration {
                netlist: tb.b.finish(),
                external_inputs: tb.external_inputs,
                external_outputs: tb.external_outputs,
                dropped_wires,
                dangling_sinks,
            },
            r,
        )
    }

    /// The netlist built so far (for census-style assertions mid-build).
    pub fn netlist(&self) -> &Netlist {
        self.b.netlist()
    }

    /// Opens an instance scope (see [`CircuitBuilder::push_scope`]).
    pub fn push_scope(&mut self, scope: impl Into<String>) {
        self.b.push_scope(scope);
    }

    /// Closes the innermost instance scope.
    pub fn pop_scope(&mut self) {
        self.b.pop_scope();
    }

    /// Runs `f` inside an instance scope.
    pub fn scoped<R>(&mut self, scope: impl Into<String>, f: impl FnOnce(&mut Self) -> R) -> R {
        self.push_scope(scope);
        let r = f(self);
        self.pop_scope();
        r
    }

    fn issue_wire(&mut self, pin: Pin) -> Wire<'brand> {
        let token = self.wires.len();
        self.wires.push((pin, EndpointState::Open));
        Wire {
            pin,
            token,
            _brand: PhantomData,
        }
    }

    fn issue_sink(&mut self, pin: Pin) -> Sink<'brand> {
        let token = self.sinks.len();
        self.sinks.push((pin, EndpointState::Open));
        Sink {
            pin,
            token,
            _brand: PhantomData,
        }
    }

    fn take_wire(&mut self, w: Wire<'brand>) -> Pin {
        debug_assert_eq!(self.wires[w.token].0, w.pin);
        self.wires[w.token].1 = EndpointState::Consumed;
        w.pin
    }

    fn take_sink(&mut self, s: Sink<'brand>) -> Pin {
        debug_assert_eq!(self.sinks[s.token].0, s.pin);
        self.sinks[s.token].1 = EndpointState::Consumed;
        s.pin
    }

    /// Connects a wire to a sink (zero wire delay), consuming both.
    ///
    /// # Panics
    ///
    /// Panics on a zero-delay self-loop (output of a cell bound straight
    /// back into the same cell) — the one degenerate wire the type system
    /// cannot rule out.
    pub fn bind(&mut self, from: Wire<'brand>, to: Sink<'brand>) {
        let from = self.take_wire(from);
        let to = self.take_sink(to);
        // The affine handles make duplicates unrepresentable, so the only
        // rejection `try_connect` can hit here is the self-loop.
        if let Err(e) = self.b.netlist_mut().try_connect(from, to, Duration::ZERO) {
            panic!("typed bind: {e}");
        }
    }

    /// Declares a sink externally driven (the simulator or a chip pad
    /// injects there), consuming it and returning the raw pin.
    pub fn external(&mut self, s: Sink<'brand>) -> Pin {
        let pin = self.take_sink(s);
        self.external_inputs.push(pin);
        pin
    }

    /// Declares a wire externally observed (a probe or chip pad reads it),
    /// consuming it and returning the raw pin.
    pub fn expose(&mut self, w: Wire<'brand>) -> Pin {
        let pin = self.take_wire(w);
        self.external_outputs.push(pin);
        pin
    }

    /// Fans a wire out to `leaves` wires through a balanced splitter tree
    /// (`leaves - 1` splitters, same shape and cell order as
    /// [`CircuitBuilder::splitter_tree`]). `fork(w, 1)` returns the wire
    /// unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is zero.
    pub fn fork(&mut self, root: Wire<'brand>, leaves: usize) -> Vec<Wire<'brand>> {
        assert!(leaves > 0, "fork needs at least one leaf");
        let mut q: VecDeque<Wire<'brand>> = VecDeque::from([root]);
        while q.len() < leaves {
            let src = q.pop_front().expect("queue never empty");
            let s = self.splitter();
            self.bind(src, s.input);
            q.push_back(s.out0);
            q.push_back(s.out1);
        }
        q.into_iter().collect()
    }

    /// Fans `inputs` in to a single wire through a balanced merger tree
    /// (`inputs.len() - 1` mergers, same shape and cell order as
    /// [`CircuitBuilder::merger_tree`]). Joining one wire returns it
    /// unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty.
    pub fn join(&mut self, inputs: Vec<Wire<'brand>>) -> Wire<'brand> {
        assert!(!inputs.is_empty(), "join needs at least one input");
        let mut level = inputs;
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            let mut it = level.into_iter();
            loop {
                match (it.next(), it.next()) {
                    (Some(a), Some(b)) => {
                        let m = self.merger();
                        self.bind(a, m.in_a);
                        self.bind(b, m.in_b);
                        next.push(m.out);
                    }
                    (Some(a), None) => {
                        next.push(a);
                        break;
                    }
                    (None, _) => break,
                }
            }
            level = next;
        }
        level.pop().expect("level holds exactly the root")
    }

    /// Adds a nominal-delay JTL.
    pub fn jtl(&mut self) -> TypedJtl<'brand> {
        let id = self.b.jtl();
        self.typed_jtl(id)
    }

    /// Adds a JTL tuned to `delay`.
    pub fn jtl_with_delay(&mut self, delay: Duration) -> TypedJtl<'brand> {
        let id = self.b.jtl_with_delay(delay);
        self.typed_jtl(id)
    }

    fn typed_jtl(&mut self, id: ComponentId) -> TypedJtl<'brand> {
        TypedJtl {
            id,
            input: self.issue_sink(Pin::new(id, Jtl::IN)),
            out: self.issue_wire(Pin::new(id, Jtl::OUT)),
        }
    }

    /// Adds a splitter.
    pub fn splitter(&mut self) -> TypedSplitter<'brand> {
        let id = self.b.splitter();
        TypedSplitter {
            id,
            input: self.issue_sink(Pin::new(id, Splitter::IN)),
            out0: self.issue_wire(Pin::new(id, Splitter::OUT0)),
            out1: self.issue_wire(Pin::new(id, Splitter::OUT1)),
        }
    }

    /// Adds a merger.
    pub fn merger(&mut self) -> TypedMerger<'brand> {
        let id = self.b.merger();
        TypedMerger {
            id,
            in_a: self.issue_sink(Pin::new(id, Merger::IN_A)),
            in_b: self.issue_sink(Pin::new(id, Merger::IN_B)),
            out: self.issue_wire(Pin::new(id, Merger::OUT)),
        }
    }

    /// Adds a DRO cell.
    pub fn dro(&mut self) -> TypedDro<'brand> {
        let id = self.b.dro();
        TypedDro {
            id,
            d: self.issue_sink(Pin::new(id, Dro::D)),
            clk: self.issue_sink(Pin::new(id, Dro::CLK)),
            q: self.issue_wire(Pin::new(id, Dro::Q)),
        }
    }

    /// Adds a 2-bit HC-DRO cell.
    pub fn hcdro(&mut self) -> TypedHcDro<'brand> {
        let id = self.b.hcdro();
        TypedHcDro {
            id,
            d: self.issue_sink(Pin::new(id, HcDro::D)),
            clk: self.issue_sink(Pin::new(id, HcDro::CLK)),
            q: self.issue_wire(Pin::new(id, HcDro::Q)),
        }
    }

    /// Adds an NDRO cell.
    pub fn ndro(&mut self) -> TypedNdro<'brand> {
        let id = self.b.ndro();
        TypedNdro {
            id,
            set: self.issue_sink(Pin::new(id, Ndro::SET)),
            reset: self.issue_sink(Pin::new(id, Ndro::RESET)),
            clk: self.issue_sink(Pin::new(id, Ndro::CLK)),
            out: self.issue_wire(Pin::new(id, Ndro::OUT)),
        }
    }

    /// Adds an NDROC (complementary-output) cell.
    pub fn ndroc(&mut self) -> TypedNdroc<'brand> {
        let id = self.b.ndroc();
        TypedNdroc {
            id,
            set: self.issue_sink(Pin::new(id, Ndroc::SET)),
            reset: self.issue_sink(Pin::new(id, Ndroc::RESET)),
            clk: self.issue_sink(Pin::new(id, Ndroc::CLK)),
            out0: self.issue_wire(Pin::new(id, Ndroc::OUT0)),
            out1: self.issue_wire(Pin::new(id, Ndroc::OUT1)),
        }
    }

    /// Adds a dynamic AND gate.
    pub fn dand(&mut self) -> TypedDand<'brand> {
        let id = self.b.dand();
        TypedDand {
            id,
            a: self.issue_sink(Pin::new(id, Dand::A)),
            b: self.issue_sink(Pin::new(id, Dand::B)),
            out: self.issue_wire(Pin::new(id, Dand::OUT)),
        }
    }

    /// Adds a counter bit.
    pub fn counter_bit(&mut self) -> TypedCounterBit<'brand> {
        let id = self.b.counter_bit();
        TypedCounterBit {
            id,
            input: self.issue_sink(Pin::new(id, CounterBit::IN)),
            read: self.issue_sink(Pin::new(id, CounterBit::READ)),
            reset: self.issue_sink(Pin::new(id, CounterBit::RESET)),
            carry: self.issue_wire(Pin::new(id, CounterBit::CARRY)),
            value: self.issue_wire(Pin::new(id, CounterBit::VALUE)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfq_sim::simulator::Simulator;
    use sfq_sim::time::Time;

    #[test]
    fn fork_matches_splitter_tree_shape() {
        let (elab, _) = TypedBuilder::elaborate(|b| {
            let j = b.jtl();
            let _src = b.external(j.input);
            let leaves = b.fork(j.out, 5);
            assert_eq!(leaves.len(), 5);
            for w in leaves {
                let _ = b.expose(w);
            }
        });
        elab.assert_total();
        // jtl + 4 splitters, exactly like CircuitBuilder::splitter_tree.
        assert_eq!(elab.netlist.component_count(), 5);
        assert_eq!(elab.external_outputs.len(), 5);
    }

    #[test]
    fn fork_single_leaf_is_identity() {
        let (elab, _) = TypedBuilder::elaborate(|b| {
            let j = b.jtl();
            let _ = b.external(j.input);
            let mut leaves = b.fork(j.out, 1);
            assert_eq!(leaves.len(), 1);
            let w = leaves.pop().expect("one leaf");
            assert_eq!(w.pin(), Pin::new(j.id, Jtl::OUT));
            let _ = b.expose(w);
        });
        assert_eq!(elab.netlist.component_count(), 1);
    }

    #[test]
    fn join_matches_merger_tree_shape() {
        let (elab, out) = TypedBuilder::elaborate(|b| {
            let srcs: Vec<_> = (0..7).map(|_| b.jtl()).collect();
            let mut wires = Vec::new();
            for j in srcs {
                let _ = b.external(j.input);
                wires.push(j.out);
            }
            let root = b.join(wires);
            b.expose(root)
        });
        elab.assert_total();
        // 7 jtls + 6 mergers.
        assert_eq!(elab.netlist.component_count(), 13);
        // A pulse into any source reaches the root.
        let mut sim = Simulator::new(elab.netlist);
        let p = sim.probe(out, "out");
        sim.inject(elab.external_inputs[3], Time::ZERO);
        sim.run();
        assert_eq!(sim.probe_trace(p).len(), 1);
    }

    #[test]
    fn dropped_wire_and_dangling_sink_are_tracked() {
        let (elab, ids) = TypedBuilder::elaborate(|b| {
            let j = b.jtl();
            let s = b.splitter();
            b.bind(j.out, s.input);
            let _ = b.expose(s.out0);
            // s.out1 dropped, j.input dropped.
            (j.id, s.id)
        });
        assert!(!elab.is_total());
        assert_eq!(elab.dropped_wires, vec![Pin::new(ids.1, Splitter::OUT1)]);
        assert_eq!(elab.dangling_sinks, vec![Pin::new(ids.0, Jtl::IN)]);
    }

    #[test]
    #[should_panic(expected = "typed bind: zero-delay self-loop")]
    fn self_loop_bind_panics() {
        TypedBuilder::elaborate(|b| {
            let m = b.merger();
            b.bind(m.out, m.in_a);
            let _ = b.external(m.in_b);
        });
    }

    #[test]
    fn typed_labels_and_scopes_match_raw_builder() {
        let (elab, id) = TypedBuilder::elaborate(|b| {
            let nd = b.scoped("rf", |b| b.scoped("readport", |b| b.ndroc()));
            let _ = b.external(nd.set);
            let _ = b.external(nd.reset);
            let _ = b.external(nd.clk);
            let _ = b.expose(nd.out0);
            let _ = b.expose(nd.out1);
            nd.id
        });
        assert!(elab.netlist.label(id).starts_with("rf/readport/ndroc"));
        assert_eq!(elab.netlist.scope_of(id), "rf/readport");
    }
}
