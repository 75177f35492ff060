//! # sfq-cells — behavioral SFQ cell library
//!
//! The cell library underneath the HiPerRF reproduction. Every cell of the
//! paper's designs is modelled behaviorally on top of the `sfq-sim`
//! event-driven pulse simulator, together with its Josephson-junction count
//! and static-power specification. Each of the 13 primitives is data: its
//! pin constants and a constructor (`Dro::cell()`, `Jtl::with_delay(d)`,
//! …) that returns a [`Cell`](sfq_sim::cell::Cell) — the
//! [`CellOp`](sfq_sim::cell::CellOp) its `timing` parameters select, in
//! its built [`CellState`](sfq_sim::cell::CellState). The netlist stores
//! that value as the cell's only copy. Its behaviour is the shared
//! transition function [`CellOp::step`](sfq_sim::cell::CellOp::step),
//! which both simulator engines run on it in place:
//!
//! * transport: [`transport::Jtl`], [`transport::Splitter`],
//!   [`transport::Merger`]
//! * storage: [`storage::Dro`], [`storage::HcDro`] (the dual-bit
//!   dense-storage cell), [`storage::Ndro`], [`storage::Ndroc`] (the demux
//!   element)
//! * logic: [`logic::Dand`] (dynamic AND), [`logic::AndGate`],
//!   [`logic::NotGate`], [`logic::XorGate`], [`logic::SyncSampler`] (the
//!   clocked-capture reference of the margin studies)
//! * counting: [`counter::CounterBit`]
//! * composites: [`composite::build_hc_clk`], [`composite::build_hc_write`],
//!   [`composite::build_hc_read`]
//! * typed elaboration: [`typed::TypedBuilder`] — affine [`typed::Wire`] /
//!   [`typed::Sink`] handles that make SFQ fan-out/fan-in legality a
//!   compile-time property. Every production circuit is elaborated this
//!   way; [`builder::CircuitBuilder`] underneath stays public for code
//!   that needs illegal or free-form wiring on purpose (lint mutation
//!   fixtures, random equivalence netlists)
//!
//! The [`spec`] module carries the JJ/power database and a census over
//! netlists; [`timing`] is the single source of truth for every delay.
//!
//! ## Example: storing a dual-bit value
//!
//! ```
//! use sfq_cells::composite::build_hc_write;
//! use sfq_cells::typed::TypedBuilder;
//! use sfq_sim::prelude::*;
//!
//! let (elab, (b0, b1, cell)) = TypedBuilder::elaborate(|b| {
//!     let write = build_hc_write(b);
//!     let cell = b.hcdro();
//!     b.bind(write.output, cell.d);
//!     // Only the write side is wired: the cell's clock and output stay
//!     // external.
//!     b.external(cell.clk);
//!     b.expose(cell.q);
//!     (b.external(write.b0), b.external(write.b1), cell.id)
//! });
//! elab.assert_total();
//! let mut sim = Simulator::new(elab.netlist);
//! // Write the value 0b11: both bit pulses at t = 0.
//! sim.inject(b0, Time::ZERO);
//! sim.inject(b1, Time::ZERO);
//! sim.run();
//! assert_eq!(sim.stored(cell), Some(3));
//! ```

pub mod builder;
pub mod composite;
pub mod counter;
pub mod logic;
pub mod spec;
pub mod sta;
pub mod storage;
pub mod timing;
pub mod transport;
pub mod typed;

pub use builder::CircuitBuilder;
pub use spec::{CellKind, CellSpec, Census};
