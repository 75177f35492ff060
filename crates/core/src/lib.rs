//! # hiperrf — a dual-bit dense-storage SFQ register file
//!
//! From-scratch reproduction of *HiPerRF: A Dual-Bit Dense Storage SFQ
//! Register File* (HPCA 2022). Single-flux-quantum memory cells are
//! flip-flop-like and expensive in Josephson junctions; the paper's
//! HC-DRO cell stores two bits as up to three fluxons in one 3-JJ loop —
//! a 7.3× density win over the 11-JJ NDRO cell — but reads destructively.
//! HiPerRF recovers the multi-read property a CPU register file needs by
//! recycling each readout through a small NDRO **LoopBuffer** back into
//! the source register (a "loopback write"), off the critical path.
//!
//! ## What this crate provides
//!
//! * **Structural models** — full pulse-level netlists built from the
//!   `sfq-cells` library, runnable on the `sfq-sim` event simulator:
//!   [`ndro_rf::NdroRf`] (the clock-less baseline of paper §III),
//!   [`hiperrf_rf::HiPerRf`] (§IV), [`banked::DualBankRf`] (§V), and
//!   [`shift_rf::ShiftRegisterRf`] (the related-work baseline of §VII).
//!   Reads on the HC designs physically pop fluxons and restore them via
//!   the loopback path.
//! * **One design layer** — every variant implements the
//!   [`RegisterFile`] trait on top of a shared [`harness::RfHarness`]
//!   (simulator ownership, operation cursor, violation policy, fault
//!   plans), and [`designs::registry`] enumerates them so analyses and
//!   reports are generic over designs instead of naming concrete types.
//! * **Closed-form budgets** — [`budget`] enumerates every cell of each
//!   design and regenerates the paper's Table I (JJ count) and Table II
//!   (static power); integration tests assert the structural netlists
//!   instantiate *exactly* the budgeted cells.
//! * **Delay models** — [`delay`] reproduces Table III (readout delay)
//!   exactly and Table IV (post-place-and-route delays) within 2%.
//! * **Scheduling** — [`schedule::RfSchedule`] encodes the paper's static
//!   port schedules (2/3/2-or-4 RF cycles per instruction) and the
//!   loopback window a just-read register stays unreadable for, which the
//!   gate-level CPU reads from its backend's
//!   [`RfBackend::loopback_gate_cycles`].
//!
//! ## Quick start
//!
//! ```
//! use hiperrf::config::RfGeometry;
//! use hiperrf::hiperrf_rf::HiPerRf;
//! use hiperrf::RegisterFile;
//!
//! // A 4-register × 4-bit HiPerRF, simulated pulse by pulse.
//! let mut rf = HiPerRf::new(RfGeometry::paper_4x4());
//! rf.write(1, 0b1001);
//! assert_eq!(rf.read(1), 0b1001);
//! // The read was destructive in the cells, but the loopback restored it:
//! assert_eq!(rf.read(1), 0b1001);
//! ```
//!
//! The same program, generic over every registered design:
//!
//! ```
//! use hiperrf::config::RfGeometry;
//! use hiperrf::designs::registry;
//!
//! for design in registry() {
//!     let mut rf = design.build(RfGeometry::paper_4x4());
//!     rf.write(1, 0b1001);
//!     assert_eq!(rf.read(1), 0b1001, "{design}");
//! }
//! ```

pub mod backend;
pub mod banked;
pub mod budget;
pub mod capacity;
pub mod config;
pub mod delay;
pub mod demux;
pub mod designs;
pub mod fabric;
pub mod harness;
pub mod hashing;
pub mod hc_rf;
pub mod hiperrf_rf;
pub mod lint;
pub mod margins;
pub mod ndro_rf;
pub mod par;
pub mod schedule;
pub mod shift_rf;

pub use backend::{AnalyticRf, PulseRf, RfAccess, RfBackend, RfHealth, RfOpStats};
pub use banked::DualBankRf;
pub use config::RfGeometry;
pub use delay::RfDesign;
pub use designs::Design;
pub use harness::{BatchStats, RegisterFile, RfHarness};
pub use hiperrf_rf::HiPerRf;
pub use ndro_rf::NdroRf;
pub use schedule::RfSchedule;
