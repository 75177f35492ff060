//! The compiled execution engine: a lowered, dense-array netlist.
//!
//! [`Simulator`](crate::simulator::Simulator) interprets a
//! [`Netlist`] of boxed [`Component`](crate::component::Component)s by
//! virtual dispatch — flexible, but every delivery pays a vtable call and
//! a fan-out row lookup. This module adds a *lowering pass* that compiles
//! the elaborated netlist into a flat `CompiledNetlist`:
//!
//! * every cell is lowered to its [`CellOp`] — a `Copy` enum carrying the
//!   cell's calibrated delays and windows — and delivered by calling
//!   [`CellOp::step`], one `match`, instead of a virtual call;
//! * each cell's op and [`CellState`] (stored bits, fluxon counts,
//!   last-arrival times) are packed together into one cache-line-sized
//!   `CellSlot` in a dense array indexed by the cell id, so a delivery
//!   touches a single line of cell data where the boxed netlist touched
//!   several (box pointer, vtable, heap cell, label);
//! * fan-out is a CSR table: one fused offset array (the fan-out and
//!   probe ranges of a pin share an entry, halving the offset loads)
//!   plus pre-packed `FanOut` / probe-id arrays, indexed by
//!   `cell * stride + output_pin`;
//! * slots and CSR rows are in component-id order (slot index = cell
//!   id), so an event's target indexes the slot array directly, and the
//!   CSR is built by one walk over the netlist's fan-out rows; each
//!   `FanOut` row is pre-packed into the two words of the future `Event`,
//!   so pushing a delivery is two adds — no `Pin` re-encoding on the hot
//!   path;
//! * the cell label, needed only by the cold violation path, is resolved
//!   lazily, so the hot path never touches the label table.
//!
//! Cells the pass cannot lower (test doubles, third-party components)
//! get [`CellOp::Dyn`] and run through their boxed implementation inside
//! the compiled loop, so compilation never fails and mixed netlists stay
//! exact. Every other cell's slot holds its only current state; the
//! simulator writes the slots back into the boxed components once, when
//! it drops the compiled form.
//!
//! A lowered cell runs the same transition function here as its boxed
//! form runs under the dyn interpreter (see [`crate::cell`]), so the
//! lowering is exact by construction: a slot is the box's op and state,
//! moved. The `engine_equivalence` differential suite compares
//! everything around that step — slot versus box state, CSR versus
//! netlist fan-out, flat versus mapped probes, hoisted versus per-event
//! counters, the write-back on engine switches — and asserts
//! byte-identical traces, violations, VCD, and statistics against the
//! dyn interpreter (the same oracle strategy the reference heap serves
//! for event order).

use std::collections::BTreeMap;

use crate::cell::{CellOp, CellState, Lowered};
use crate::component::{CellLabel, PulseContext};
use crate::netlist::{ComponentId, Netlist, Pin};
use crate::queue::{
    Event, EVENT_COMPONENT_LIMIT, EVENT_PIN_BITS, EVENT_SEQ_BITS, EVENT_TIME_LIMIT_FS,
};
use crate::simulator::ProbeId;
use crate::time::{Duration, Time};

/// Which execution engine a [`Simulator`](crate::simulator::Simulator)
/// delivers pulses with. Both produce byte-identical observables (the
/// differential suite asserts it); they differ only in speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The lowered dense-array engine (the fast path).
    Compiled,
    /// The seed `Box<dyn Component>` interpreter (the differential
    /// reference).
    DynInterpreter,
}

impl EngineKind {
    /// Both engines, reference first — the order differential tests
    /// iterate.
    pub const ALL: [EngineKind; 2] = [EngineKind::DynInterpreter, EngineKind::Compiled];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Compiled => "compiled",
            EngineKind::DynInterpreter => "dyn-interpreter",
        }
    }

    /// Parses a [`label`](EngineKind::label) back into a kind.
    pub fn parse(s: &str) -> Option<EngineKind> {
        EngineKind::ALL.into_iter().find(|k| k.label() == s)
    }

    /// Runs `f` with `kind` as this thread's default engine — what
    /// [`EngineKind::default`] (and hence every plain `Simulator`
    /// constructor) returns inside `f`. The previous default is restored
    /// afterwards, including on unwind. This is how a job request pins an
    /// engine for code that builds simulators internally (e.g. Monte
    /// Carlo trials) without threading a parameter through every layer.
    pub fn with_thread_default<R>(kind: EngineKind, f: impl FnOnce() -> R) -> R {
        crate::pinning::with_override(&THREAD_DEFAULT, kind, f)
    }
}

std::thread_local! {
    static THREAD_DEFAULT: std::cell::Cell<Option<EngineKind>> =
        const { std::cell::Cell::new(None) };
}

impl Default for EngineKind {
    /// The thread's pinned default if inside
    /// [`EngineKind::with_thread_default`]; otherwise the compiled
    /// engine.
    fn default() -> Self {
        THREAD_DEFAULT
            .with(std::cell::Cell::get)
            .unwrap_or(EngineKind::Compiled)
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(self.label())
    }
}

/// One cell's compiled form: its [`CellOp`] and mutable state packed into
/// a single 64-byte slot, so delivering a pulse loads exactly one cache
/// line of cell data. For a lowered cell the slot is the only current
/// copy of its state.
///
/// The event loop visits cells in pulse order (effectively random), never
/// in index order, so spreading op and state over parallel arrays would
/// buy no vectorization back; packing by cell keeps one line per event.
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
struct CellSlot {
    /// The cell's behaviour.
    op: CellOp,
    /// The cell's state.
    state: CellState,
}

/// One pre-packed fan-out destination: the two words of the future
/// [`Event`] that do not depend on the emission, so the hot loop builds a
/// delivery with two adds instead of re-encoding a `Pin` per push.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FanOut {
    /// `destination component << 40` — the event's `cs` word minus the
    /// sequence number.
    cs_base: u64,
    /// `wire delay (fs) << 8 | destination pin` — adds directly onto the
    /// emission's `time_fs << 8`.
    pin_delay: u64,
}

impl FanOut {
    /// Packs a wire destination, checking both fields against the event
    /// bit widths once at lowering time.
    fn pack(to: Pin, delay: Duration) -> FanOut {
        let c = to.component.index() as u64;
        let d = delay.as_fs();
        assert!(
            c < EVENT_COMPONENT_LIMIT,
            "component id {c} exceeds the 24-bit packed window — widen Event.cs"
        );
        assert!(
            d < EVENT_TIME_LIMIT_FS,
            "wire delay {d} fs exceeds the 56-bit packed window — widen Event.tp"
        );
        FanOut {
            cs_base: c << EVENT_SEQ_BITS,
            pin_delay: d << EVENT_PIN_BITS | u64::from(to.index),
        }
    }

    /// The delivery event for an emission at `at_fs` femtoseconds with
    /// sequence number `seq`. The time addition is overflow-checked: a
    /// simulation running past the 56-bit window panics with a widening
    /// note instead of wrapping.
    #[inline]
    pub(crate) fn event_at(self, at_fs: u64, seq: u64) -> Event {
        // Both checks are branch-predicted never-taken compares; together
        // with `checked_add` they make the widening path explicit instead
        // of wrapping silently.
        assert!(
            at_fs < EVENT_TIME_LIMIT_FS,
            "emission time {at_fs} fs exceeds the 56-bit packed window — widen Event.tp"
        );
        debug_assert!(seq < crate::queue::EVENT_SEQ_LIMIT);
        let tp = (at_fs << EVENT_PIN_BITS)
            .checked_add(self.pin_delay)
            .expect("event time exceeds the 56-bit packed window — widen Event.tp");
        Event::from_words(tp, self.cs_base | seq)
    }

    /// The destination pin, decoded (tests and cold paths only).
    #[cfg(test)]
    pub(crate) fn target(self) -> Pin {
        Pin::new(
            ComponentId((self.cs_base >> EVENT_SEQ_BITS) as u32),
            self.pin_delay as u8,
        )
    }

    /// The wire delay, decoded (tests and cold paths only).
    #[cfg(test)]
    pub(crate) fn delay(self) -> Duration {
        Duration::from_fs(self.pin_delay >> EVENT_PIN_BITS)
    }
}

/// The compiled form of a netlist: lowered ops and state in dense
/// cache-line slots, CSR fan-out, and a flat probe table.
///
/// Owned by the simulator under the compiled engine. The `Netlist` keeps
/// the structure; for every lowered cell the slot holds the only current
/// state, read through [`CompiledNetlist::state`]. Only a
/// [`CellOp::Dyn`] cell's boxed component stays authoritative. The
/// simulator writes the slots back into the boxes once, when it drops
/// this cache.
#[derive(Debug)]
pub(crate) struct CompiledNetlist {
    /// Per-cell op + state, one cache line each, indexed by cell id.
    slots: Vec<CellSlot>,
    /// Output pins per cell covered by the flat tables (max wired or
    /// probed output pin index + 1). Emissions on pins at or beyond the
    /// stride have no fan-out and no probes, exactly like the netlist's
    /// fan-out lookup missing.
    stride: usize,
    /// Fused CSR offsets, length `cells * stride + 1`, indexed by
    /// `cell * stride + pin`: entry `[0]` indexes `fan_dests`, entry `[1]`
    /// indexes `probe_ids`, so one offset-array load yields both ranges
    /// of a flat pin.
    offsets: Vec<[u32; 2]>,
    /// Pre-packed fan-out destinations, wire insertion order per source
    /// pin, rows in cell order.
    fan_dests: Vec<FanOut>,
    /// Packed probe ids, registration order per source pin.
    probe_ids: Vec<ProbeId>,
}

impl CompiledNetlist {
    /// Lowers `netlist` (capturing the current state of every component)
    /// into one slot per cell, in id order, and precomputes the flat
    /// fan-out and probe tables in the same order.
    pub(crate) fn compile(netlist: &Netlist, probes: &BTreeMap<Pin, Vec<ProbeId>>) -> Self {
        let slots = netlist
            .iter()
            .map(|(_, _, component)| match component.lower() {
                Some(Lowered { op, state }) => CellSlot { op, state },
                None => CellSlot {
                    op: CellOp::Dyn,
                    state: CellState::EMPTY,
                },
            })
            .collect();
        let mut compiled = CompiledNetlist {
            slots,
            stride: 0,
            offsets: Vec::new(),
            fan_dests: Vec::new(),
            probe_ids: Vec::new(),
        };
        compiled.rebuild_tables(netlist, probes);
        compiled
    }

    /// Computes the fan-out and probe tables from the current netlist
    /// wiring and probe registrations: one walk over the netlist's
    /// fan-out rows in (cell, pin) order, merged with the probe map's
    /// sorted keys. Cell slots are untouched.
    fn rebuild_tables(&mut self, netlist: &Netlist, probes: &BTreeMap<Pin, Vec<ProbeId>>) {
        let cells = netlist.component_count();
        let stride = probes
            .keys()
            .map(|p| p.index as usize + 1)
            .fold(netlist.fanout_stride(), usize::max);
        let mut offsets = Vec::with_capacity(cells * stride + 1);
        let mut fan_dests = Vec::with_capacity(netlist.wire_count());
        let mut probe_ids = Vec::new();
        let mut probes = probes.iter().peekable();
        offsets.push([0u32, 0u32]);
        for cell in 0..cells {
            for pin in 0..stride {
                let source = Pin::new(ComponentId(cell as u32), pin as u8);
                fan_dests.extend(
                    netlist
                        .fanout(source)
                        .iter()
                        .map(|&(to, delay)| FanOut::pack(to, delay)),
                );
                if let Some((_, ids)) = probes.next_if(|(p, _)| **p == source) {
                    probe_ids.extend_from_slice(ids);
                }
                offsets.push([
                    u32::try_from(fan_dests.len()).expect("fan-out too large"),
                    u32::try_from(probe_ids.len()).expect("probe table too large"),
                ]);
            }
        }
        self.stride = stride;
        self.offsets = offsets;
        self.fan_dests = fan_dests;
        self.probe_ids = probe_ids;
    }

    /// The current state of cell `id`, or `None` for a [`CellOp::Dyn`]
    /// cell, whose boxed component holds its state.
    pub(crate) fn state(&self, id: ComponentId) -> Option<Lowered> {
        let s = &self.slots[id.index()];
        (!matches!(s.op, CellOp::Dyn)).then_some(Lowered {
            op: s.op,
            state: s.state,
        })
    }

    /// Rewinds every slot to `cells[cell id]` in place (what
    /// [`Simulator::restore`](crate::simulator::Simulator::restore)
    /// writes while the compiled form exists). Ops and the CSR tables
    /// stay as lowered.
    pub(crate) fn restore_cells(&mut self, cells: &[Lowered]) {
        for (s, state) in self.slots.iter_mut().zip(cells) {
            debug_assert_eq!(s.op, state.op, "restored state of another cell kind");
            s.state = state.state;
        }
    }

    /// Flat table index of an output pin of `cell`, or `None` if the pin
    /// lies beyond the stride (never wired, never probed).
    #[inline]
    pub(crate) fn flat_at(&self, cell: usize, pin: u8) -> Option<usize> {
        let pin = pin as usize;
        if pin >= self.stride {
            return None;
        }
        Some(cell * self.stride + pin)
    }

    /// Fan-out destinations of a flat source index.
    #[inline]
    pub(crate) fn fanout(&self, flat: usize) -> &[FanOut] {
        &self.fan_dests[self.offsets[flat][0] as usize..self.offsets[flat + 1][0] as usize]
    }

    /// Probes attached to a flat source index.
    #[inline]
    pub(crate) fn probes(&self, flat: usize) -> &[ProbeId] {
        &self.probe_ids[self.offsets[flat][1] as usize..self.offsets[flat + 1][1] as usize]
    }

    /// Delivers one pulse at `now` to input `pin` of `cell`: a lowered
    /// cell steps its slot through [`CellOp::step`], a [`CellOp::Dyn`]
    /// cell runs its boxed component.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn deliver(
        &mut self,
        netlist: &mut Netlist,
        cell: u32,
        pin: u8,
        now: Time,
        emitted: &mut Vec<(u8, Time)>,
        violations: &mut Vec<crate::violation::Violation>,
        policy: crate::violation::ViolationPolicy,
        degraded_drops: &mut u64,
    ) {
        let CellSlot { op, state } = &mut self.slots[cell as usize];
        if matches!(op, CellOp::Dyn) {
            // Unlowerable cell: its box stays authoritative.
            let (component, label) = netlist.component_and_label_mut(ComponentId(cell));
            let mut ctx = PulseContext {
                emitted,
                violations,
                component_label: CellLabel::Resolved(label),
                policy,
                degraded_drops,
            };
            component.pulse(pin, now, &mut ctx);
            return;
        }
        // The label is only read when a violation fires, so hand the
        // context a lazy reference instead of loading the label table on
        // every event.
        let mut ctx = PulseContext {
            emitted,
            violations,
            component_label: CellLabel::Lazy(netlist, ComponentId(cell)),
            policy,
            degraded_drops,
        };
        op.step(state, pin, now, &mut ctx);
    }
}

#[cfg(test)]
mod layout_tests {
    use super::*;

    #[test]
    fn cell_slot_is_one_cache_line() {
        // The whole point of the packed layout: op + state in 64 bytes.
        assert_eq!(std::mem::size_of::<CellSlot>(), 64);
        assert_eq!(std::mem::align_of::<CellSlot>(), 64);
    }

    #[test]
    fn fanout_rows_pack_and_decode() {
        let to = Pin::new(ComponentId(42), 3);
        let fo = FanOut::pack(to, Duration::from_ps(2.5));
        assert_eq!(fo.target(), to);
        assert_eq!(fo.delay(), Duration::from_ps(2.5));
        let ev = fo.event_at(1_000, 7);
        assert_eq!(ev.time_fs(), 1_000 + 2_500);
        assert_eq!(ev.seq(), 7);
        assert_eq!(ev.target(), to);
    }

    #[test]
    #[should_panic(expected = "widen Event.tp")]
    fn emission_past_the_packed_window_panics() {
        let fo = FanOut::pack(Pin::new(ComponentId(0), 0), Duration::from_fs(0));
        // The last representable instant still packs…
        assert_eq!(
            fo.event_at(EVENT_TIME_LIMIT_FS - 1, 0).time_fs(),
            EVENT_TIME_LIMIT_FS - 1
        );
        // …one femtosecond past it panics instead of wrapping.
        let _ = fo.event_at(EVENT_TIME_LIMIT_FS, 0);
    }

    #[test]
    #[should_panic(expected = "widen Event.tp")]
    fn wire_delay_overflow_is_checked_at_the_sum() {
        // Both addends fit their windows individually; the sum does not.
        let fo = FanOut::pack(
            Pin::new(ComponentId(0), 0),
            Duration::from_fs(EVENT_TIME_LIMIT_FS - 1),
        );
        let _ = fo.event_at(EVENT_TIME_LIMIT_FS - 1, 0);
    }
}
