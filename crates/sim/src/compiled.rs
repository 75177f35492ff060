//! The compiled execution engine: a lowered, dense-array netlist.
//!
//! [`Simulator`](crate::simulator::Simulator) interprets a
//! [`Netlist`] of boxed [`Component`](crate::component::Component)s by
//! virtual dispatch — flexible, but every delivery pays a vtable call and
//! a fan-out row lookup. This module adds a *lowering pass* that compiles
//! the elaborated netlist into a flat `CompiledNetlist`:
//!
//! * every cell is lowered to a [`CellOp`] — a `Copy` enum carrying the
//!   cell's calibrated delays and windows — dispatched by a single
//!   `match` instead of a virtual call;
//! * each cell's op and mutable state (stored bits, fluxon counts,
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
//! The lowering is *behavior-preserving by construction*: each `CellOp`
//! arm is a transliteration of the corresponding `sfq-cells` model, and
//! the `engine_equivalence` differential suite asserts byte-identical
//! traces, violations, VCD, and statistics against the dyn interpreter
//! (the same oracle strategy the reference heap serves for event order).

use std::collections::BTreeMap;

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

/// Truth function of a lowered clocked two-input gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateFunc {
    /// Fires iff both latches are set.
    And,
    /// Fires iff exactly one latch is set.
    Xor,
}

/// The lowered form of one cell: its behavior as data.
///
/// Each variant carries the calibrated per-instance parameters the cell
/// model was built with (delays, windows, capacities), so a tuned
/// instance (e.g. a JTL with a non-library delay) lowers faithfully.
/// Variants mirror the `sfq-cells` primitives; pin numbering is identical
/// to the boxed models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CellOp {
    /// Destructive readout: `D = 0`, `CLK = 1` → `Q = 0`.
    Dro {
        /// CLK → Q propagation delay.
        q_delay: Duration,
    },
    /// High-capacity DRO: up to `capacity` fluxons in one loop.
    HcDro {
        /// Fluxon capacity of the storage loop.
        capacity: u8,
        /// CLK → Q propagation delay.
        q_delay: Duration,
        /// Design-rule inter-pulse separation (violation below this).
        sep: Duration,
        /// Physical guard band (degradation below this).
        hard_sep: Duration,
    },
    /// Non-destructive readout: `SET = 0`, `RESET = 1`, `CLK = 2` → `OUT = 0`.
    Ndro {
        /// CLK → OUT propagation delay.
        out_delay: Duration,
    },
    /// NDRO with complementary outputs (the demux element).
    Ndroc {
        /// CLK → OUT0/OUT1 propagation delay.
        prop: Duration,
        /// Minimum separation of successive enables.
        rearm: Duration,
    },
    /// Dynamic AND: fires iff both inputs coincide within the window.
    Dand {
        /// Coincidence window.
        window: Duration,
        /// Coincidence → OUT delay.
        delay: Duration,
    },
    /// Clocked two-input gate: latches `A = 0` / `B = 1`, evaluates on `CLK = 2`.
    Gate {
        /// Truth function.
        func: GateFunc,
        /// CLK → OUT delay.
        delay: Duration,
    },
    /// Clocked NOT: emits on `CLK = 1` iff `A = 0` was not latched.
    Not {
        /// CLK → OUT delay.
        delay: Duration,
    },
    /// Clocked sampler with a setup/track aperture.
    Sync {
        /// Minimum data lead before the clock edge.
        setup: Duration,
        /// Dynamic retention past the setup point.
        track: Duration,
        /// Hold aperture after the edge.
        hold: Duration,
        /// CLK → OUT delay.
        delay: Duration,
    },
    /// Josephson transmission line: any input pin → `OUT = 0`.
    Jtl {
        /// Instance delay.
        delay: Duration,
    },
    /// Pulse splitter: any input pin → `OUT0 = 0` and `OUT1 = 1`.
    Splitter {
        /// IN → OUT delay.
        delay: Duration,
    },
    /// Confluence buffer with a dead time.
    Merger {
        /// Dead time after an accepted pulse.
        dead: Duration,
        /// IN → OUT delay.
        delay: Duration,
    },
    /// One-bit counter stage (T-flip-flop with readout).
    CounterBit {
        /// Wrap → CARRY delay.
        carry: Duration,
        /// READ → VALUE delay.
        read: Duration,
    },
    /// Not lowerable: delivered through the boxed `Component`.
    Dyn,
}

/// The result of lowering one cell: its [`CellOp`] plus a snapshot of its
/// current mutable state, mapped onto the generic state slots.
///
/// The state mapping per op is:
///
/// | op | `bits` | `time_a` | `time_b` |
/// |----|--------|----------|----------|
/// | `Dro` / `Ndro` | stored flag | – | – |
/// | `HcDro` | fluxon count | last D | last CLK |
/// | `Ndroc` | select flag | last CLK | – |
/// | `Dand` | – | pending A | pending B |
/// | `Gate` | A ∨ B≪1 | – | – |
/// | `Not` | A latch | – | – |
/// | `Sync` | – | pending D | last CLK |
/// | `Merger` | – | last accepted | – |
/// | `CounterBit` | state | – | – |
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lowered {
    /// The cell's behavior as data.
    pub op: CellOp,
    /// Small integer state (stored flags, fluxon counts, gate latches).
    pub bits: u8,
    /// First time slot (see the table above).
    pub time_a: Option<Time>,
    /// Second time slot (see the table above).
    pub time_b: Option<Time>,
}

impl Lowered {
    /// A stateless lowering (transport cells).
    pub fn stateless(op: CellOp) -> Self {
        Lowered {
            op,
            bits: 0,
            time_a: None,
            time_b: None,
        }
    }

    /// The value [`Component::stored`](crate::component::Component::stored)
    /// reports for a cell in this state: the stored bits of the storage
    /// ops, `None` for every other op.
    pub(crate) fn stored(&self) -> Option<u8> {
        match self.op {
            CellOp::Dro { .. }
            | CellOp::HcDro { .. }
            | CellOp::Ndro { .. }
            | CellOp::Ndroc { .. }
            | CellOp::CounterBit { .. } => Some(self.bits),
            _ => None,
        }
    }
}

/// Sentinel femtosecond value for "no timestamp recorded".
const NONE_FS: u64 = u64::MAX;

fn pack(t: Option<Time>) -> u64 {
    t.map_or(NONE_FS, Time::as_fs)
}

fn unpack(fs: u64) -> Option<Time> {
    (fs != NONE_FS).then(|| Time::from_fs(fs))
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
    /// The cell's behavior as data.
    op: CellOp,
    /// First time slot (fs; `NONE_FS` = none).
    ta: u64,
    /// Second time slot (fs; `NONE_FS` = none).
    tb: u64,
    /// Small integer state (stored flags, fluxon counts, gate latches).
    bits: u8,
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
            .map(|(_, _, component)| {
                let lowered = component
                    .lower()
                    .unwrap_or_else(|| Lowered::stateless(CellOp::Dyn));
                CellSlot {
                    op: lowered.op,
                    ta: pack(lowered.time_a),
                    tb: pack(lowered.time_b),
                    bits: lowered.bits,
                }
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
        (!matches!(s.op, CellOp::Dyn)).then(|| Lowered {
            op: s.op,
            bits: s.bits,
            time_a: unpack(s.ta),
            time_b: unpack(s.tb),
        })
    }

    /// Rewinds every slot to `cells[cell id]` in place (what
    /// [`Simulator::restore`](crate::simulator::Simulator::restore)
    /// writes while the compiled form exists). Ops and the CSR tables
    /// stay as lowered.
    pub(crate) fn restore_cells(&mut self, cells: &[Lowered]) {
        for (s, state) in self.slots.iter_mut().zip(cells) {
            debug_assert_eq!(s.op, state.op, "restored state of another cell kind");
            s.ta = pack(state.time_a);
            s.tb = pack(state.time_b);
            s.bits = state.bits;
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

    /// Delivers one pulse at `now` to input `pin` of `cell`, mirroring
    /// the boxed cell models arm for arm (including violation strings,
    /// degrade decisions, and emission order).
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
        let s = &mut self.slots[cell as usize];
        if matches!(s.op, CellOp::Dyn) {
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
        match s.op {
            CellOp::Dro { q_delay } => match pin {
                0 => s.bits = 1,
                1 => {
                    if s.bits != 0 {
                        s.bits = 0;
                        ctx.emit_after(0, now, q_delay);
                    }
                }
                other => ctx.violation(now, "pin", format!("dro has no input pin {other}")),
            },
            CellOp::HcDro {
                capacity,
                q_delay,
                sep,
                hard_sep,
            } => match pin {
                0 => {
                    if hcdro_sep(&mut s.ta, now, "write", sep, hard_sep, &mut ctx) {
                        return; // degraded: the fluxon is lost in the junction
                    }
                    if s.bits < capacity {
                        s.bits += 1;
                    } // else: dissipated, the loop is full.
                }
                1 => {
                    if hcdro_sep(&mut s.tb, now, "read", sep, hard_sep, &mut ctx) {
                        return; // degraded: nothing pops
                    }
                    if s.bits > 0 {
                        s.bits -= 1;
                        ctx.emit_after(0, now, q_delay);
                    }
                }
                other => ctx.violation(now, "pin", format!("hcdro has no input pin {other}")),
            },
            CellOp::Ndro { out_delay } => match pin {
                0 => s.bits = 1,
                1 => s.bits = 0,
                2 => {
                    if s.bits != 0 {
                        ctx.emit_after(0, now, out_delay);
                    }
                }
                other => ctx.violation(now, "pin", format!("ndro has no input pin {other}")),
            },
            CellOp::Ndroc { prop, rearm } => match pin {
                0 => s.bits = 1,
                1 => s.bits = 0,
                2 => {
                    if s.ta != NONE_FS {
                        let sep = now.abs_diff(Time::from_fs(s.ta));
                        if sep < rearm
                            && ctx.violation_degrades(
                                now,
                                "re-arm",
                                format!("ndroc enables {sep} apart, need {}ps", rearm.as_ps()),
                            )
                        {
                            s.ta = now.as_fs();
                            return;
                        }
                    }
                    s.ta = now.as_fs();
                    let out = if s.bits != 0 { 0 } else { 1 };
                    ctx.emit_after(out, now, prop);
                }
                other => ctx.violation(now, "pin", format!("ndroc has no input pin {other}")),
            },
            CellOp::Dand { window, delay } => {
                // Pin 0 latches into `ta`, pin 1 into `tb`; a pulse pairs
                // with (and clears) the other slot's pending pulse.
                let pending_other = match pin {
                    0 => s.tb,
                    1 => s.ta,
                    other => {
                        ctx.violation(now, "pin", format!("dand has no input pin {other}"));
                        return;
                    }
                };
                let mut fired = false;
                if pending_other != NONE_FS {
                    // The earlier pulse pairs if in-window; lost either way.
                    if pin == 0 {
                        s.tb = NONE_FS;
                    } else {
                        s.ta = NONE_FS;
                    }
                    if now.abs_diff(Time::from_fs(pending_other)) <= window {
                        ctx.emit_after(0, now, delay);
                        fired = true;
                    }
                }
                if !fired {
                    if pin == 0 {
                        s.ta = now.as_fs();
                    } else {
                        s.tb = now.as_fs();
                    }
                }
            }
            CellOp::Gate { func, delay } => match pin {
                0 => s.bits |= 1,
                1 => s.bits |= 2,
                2 => {
                    let a = s.bits & 1 != 0;
                    let b = s.bits & 2 != 0;
                    s.bits = 0;
                    let fire = match func {
                        GateFunc::And => a && b,
                        GateFunc::Xor => a ^ b,
                    };
                    if fire {
                        ctx.emit_after(0, now, delay);
                    }
                }
                other => ctx.violation(now, "pin", format!("gate has no input pin {other}")),
            },
            CellOp::Not { delay } => match pin {
                0 => s.bits = 1,
                1 => {
                    if s.bits == 0 {
                        ctx.emit_after(0, now, delay);
                    }
                    s.bits = 0;
                }
                other => ctx.violation(now, "pin", format!("not has no input pin {other}")),
            },
            CellOp::Sync {
                setup,
                track,
                hold,
                delay,
            } => match pin {
                0 => {
                    if s.tb != NONE_FS {
                        let tc = Time::from_fs(s.tb);
                        if now.abs_diff(tc) <= hold
                            && ctx.violation_degrades(
                                now,
                                "setup",
                                format!(
                                    "data {} after the clock edge, hold is {}ps",
                                    now.abs_diff(tc),
                                    hold.as_ps()
                                ),
                            )
                        {
                            return; // degraded: the racing pulse is destroyed
                        }
                    }
                    s.ta = now.as_fs();
                }
                1 => {
                    s.tb = now.as_fs();
                    if s.ta != NONE_FS {
                        let td = Time::from_fs(s.ta);
                        s.ta = NONE_FS;
                        let lead = now.abs_diff(td);
                        if lead < setup {
                            if ctx.violation_degrades(
                                now,
                                "setup",
                                format!(
                                    "data leads the clock by {lead}, setup is {}ps",
                                    setup.as_ps()
                                ),
                            ) {
                                return; // degraded: no clean output forms
                            }
                        } else if lead > setup + track {
                            // Dynamic retention expired; the datum decayed.
                            return;
                        }
                        ctx.emit_after(0, now, delay);
                    }
                }
                other => ctx.violation(now, "pin", format!("sync has no input pin {other}")),
            },
            CellOp::Jtl { delay } => ctx.emit_after(0, now, delay),
            CellOp::Splitter { delay } => {
                ctx.emit_after(0, now, delay);
                ctx.emit_after(1, now, delay);
            }
            CellOp::Merger { dead, delay } => {
                if s.ta != NONE_FS && now.abs_diff(Time::from_fs(s.ta)) < dead {
                    // Too close to the previous pulse: dissipated.
                    return;
                }
                s.ta = now.as_fs();
                ctx.emit_after(0, now, delay);
            }
            CellOp::CounterBit { carry, read } => match pin {
                0 => {
                    if s.bits != 0 {
                        s.bits = 0;
                        ctx.emit_after(0, now, carry);
                    } else {
                        s.bits = 1;
                    }
                }
                1 => {
                    if s.bits != 0 {
                        ctx.emit_after(1, now, read);
                    }
                }
                2 => s.bits = 0,
                other => ctx.violation(now, "pin", format!("counter_bit has no input pin {other}")),
            },
            CellOp::Dyn => unreachable!("handled above"),
        }
    }
}

/// The HC-DRO inter-pulse spacing check, transliterated from
/// `sfq_cells::storage::HcDro::check_sep`.
fn hcdro_sep(
    last: &mut u64,
    now: Time,
    what: &str,
    sep_limit: Duration,
    hard_limit: Duration,
    ctx: &mut PulseContext<'_>,
) -> bool {
    let mut degrade = false;
    if *last != NONE_FS {
        let sep = now.abs_diff(Time::from_fs(*last));
        if sep < sep_limit {
            if sep < hard_limit {
                degrade = ctx.violation_degrades(
                    now,
                    "hold",
                    format!(
                        "hc-dro {what} pulses {sep} apart, need {}ps",
                        sep_limit.as_ps()
                    ),
                );
            } else {
                ctx.violation(
                    now,
                    "hold",
                    format!(
                        "hc-dro {what} pulses {sep} apart inside the design-rule {}ps \
                         (guard band holds)",
                        sep_limit.as_ps()
                    ),
                );
            }
        }
    }
    *last = now.as_fs();
    degrade
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
