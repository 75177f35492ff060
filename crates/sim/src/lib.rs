//! # sfq-sim — event-driven pulse-level SFQ circuit simulator
//!
//! Single-flux-quantum (SFQ) logic computes with picosecond-scale fluxon
//! pulses rather than voltage levels. This crate provides the simulation
//! substrate used by the HiPerRF reproduction: a deterministic event-driven
//! simulator in which components exchange timestamped pulses over delayed
//! wires.
//!
//! The abstraction level matches the one the paper's own evaluation uses:
//! devices are behavioral cells with calibrated propagation delays and
//! setup/hold/critical-time windows (extracted in the paper from JoSim and
//! the RSFQ cell library), not SPICE-level Josephson-junction dynamics.
//!
//! ## Layers
//!
//! - [`time`]: femtosecond-resolution [`Time`](time::Time) and
//!   [`Duration`](time::Duration).
//! - [`netlist`]: the circuit graph: one array of cells, delayed wires,
//!   labels and scopes.
//! - [`cell`]: every SFQ primitive's behaviour, once —
//!   [`CellOp`](cell::CellOp) and [`CellState`](cell::CellState), packed
//!   into one 64-byte [`Cell`](cell::Cell), the netlist's only copy of a
//!   cell; the transition function [`CellOp::step`](cell::CellOp::step)
//!   both engines run on it in place; and the per-kind table of names and
//!   pins ([`CellKind`](cell::CellKind)).
//! - [`component`]: the [`PulseContext`](component::PulseContext) a step
//!   emits pulses and records violations through.
//! - [`simulator`]: the event loop, stimulus injection, probes, the
//!   [`SimStats`](simulator::SimStats) run counters, and
//!   [`Snapshot`](simulator::Snapshot) rewinds of a quiescent simulator.
//! - [`queue`]: the pending-event schedulers — the bucketed calendar
//!   queue, and the seed `BinaryHeap` kept as the event-order oracle
//!   ([`SchedulerKind`](queue::SchedulerKind)).
//! - [`compiled`]: the compiled execution engine — a lowering pass that
//!   flattens the netlist's wiring and probes into CSR tables over its
//!   cell array and flags deliveries to unprobed JTLs and splitters,
//!   which then skip their cells — and the dyn interpreter kept as its
//!   oracle ([`EngineKind`](compiled::EngineKind)).
//! - [`trace`]: pulse traces and ASCII waveform rendering.
//! - [`violation`]: timing-violation records and the
//!   [`ViolationPolicy`](violation::ViolationPolicy) that gives them
//!   consequences (`Record` / `FailFast` / `Degrade`).
//! - [`fault`]: seeded deterministic fault injection
//!   ([`FaultPlan`](fault::FaultPlan): pin drops/duplicates, spurious
//!   pulses, per-instance Gaussian delay variation).
//! - [`rng`]: the self-contained SplitMix64 generator behind all
//!   randomness (explicit seeds only).
//!
//! The calendar queue and the compiled engine are the production path
//! and what `Simulator::new` builds. Tests select an oracle explicitly,
//! per simulator
//! ([`Simulator::with_engine`](simulator::Simulator::with_engine),
//! [`set_scheduler`](simulator::Simulator::set_scheduler),
//! [`set_engine`](simulator::Simulator::set_engine)).
//!
//! ## Example
//!
//! ```
//! use sfq_sim::prelude::*;
//!
//! // A netlist with no cells still runs (vacuously).
//! let mut sim = Simulator::new(Netlist::new());
//! assert_eq!(sim.run().delivered, 0);
//! ```
//!
//! Concrete SFQ cells (DRO, HC-DRO, NDRO, NDROC, splitters, mergers, …)
//! live in the `sfq-cells` crate, which builds on this one.

pub mod cell;
pub mod compiled;
pub mod component;
pub mod fault;
pub mod netlist;
pub mod queue;
pub mod rng;
pub mod simulator;
pub mod time;
pub mod trace;
pub mod vcd;
pub mod violation;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::cell::{Cell, CellKind, CellOp, CellState, GateFunc};
    pub use crate::compiled::EngineKind;
    pub use crate::component::PulseContext;
    pub use crate::fault::FaultPlan;
    pub use crate::netlist::{ComponentId, Netlist, Pin, Wire};
    pub use crate::queue::SchedulerKind;
    pub use crate::rng::Rng64;
    pub use crate::simulator::{ProbeId, RunStats, SimStats, Simulator, Snapshot, SnapshotError};
    pub use crate::time::{Duration, Time};
    pub use crate::trace::PulseTrace;
    pub use crate::violation::{SimError, Violation, ViolationPolicy};
}
