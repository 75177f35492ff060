//! The one description of every SFQ primitive's behaviour.
//!
//! A primitive is a [`CellOp`] — what the cell is, with the calibrated
//! delays, windows and capacities it was built with — over a
//! [`CellState`] — what it remembers between pulses. [`CellOp::step`] is
//! its transition function: what one input pulse does to the state, which
//! outputs it emits, and which timing violations it records. Its
//! [`CellKind`] is its row in the per-kind table: the name, input-pin
//! names, output count and trigger pins that census, lint, static timing
//! and the step's own diagnostics read.
//!
//! A [`Cell`] is the two together, one cache line: the netlist holds one
//! per component, and it is the only place a cell lives. Both engines
//! step that one array in place through [`Cell::step`]. What stays
//! separate between the engines is the execution machinery around the
//! step (fan-out, probes, counters, label resolution), which is what the
//! engine differentials compare. The semantics of the step itself are
//! anchored by pinned observables and by per-primitive golden tests of
//! every timing edge, not by a second copy. The one shortcut is the
//! compiled engine's relay path: a JTL or splitter step is stateless, so
//! a delivery to an unprobed one replays `CellOp::relay_delay` from a
//! table instead of loading the cell, and the dyn interpreter, which
//! always steps the cell, is its oracle.

use crate::component::PulseContext;
use crate::time::{Duration, Time};

/// Truth function of a clocked two-input gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateFunc {
    /// Fires iff both latches are set.
    And,
    /// Fires iff exactly one latch is set.
    Xor,
}

/// Every cell kind, in census display order.
///
/// Each kind has one row in the per-kind table, the only copy of its name,
/// its input-pin names (their count is its input count), its output count
/// and its trigger pins. The input-pin indices are the ones the kind's
/// [`CellOp::step`] arms take; a pulse on any other pin records a `pin`
/// violation, except on a JTL, splitter or merger, which pass a pulse on
/// any pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CellKind {
    /// Josephson transmission line segment (delay element).
    Jtl,
    /// 1→2 pulse splitter.
    Splitter,
    /// 2→1 merger (confluence buffer).
    Merger,
    /// Destructive-readout cell (1 bit).
    Dro,
    /// High-capacity destructive-readout cell (2 bits in ≤3 fluxons).
    HcDro,
    /// Non-destructive readout cell.
    Ndro,
    /// NDRO with complementary outputs (demux element).
    Ndroc,
    /// Dynamic AND (clock-less coincidence gate).
    Dand,
    /// Clocked AND gate.
    AndGate,
    /// Clocked NOT (inverter) gate.
    NotGate,
    /// Clocked XOR gate.
    XorGate,
    /// One-bit counter stage (T-flip-flop with readout), used by HC-READ.
    CounterBit,
    /// Clocked sampler of the margin studies.
    Sync,
}

/// One row of the per-kind table.
struct Row {
    name: &'static str,
    inputs: &'static [&'static str],
    outputs: u8,
    triggers: &'static [u8],
}

const fn row(
    name: &'static str,
    inputs: &'static [&'static str],
    outputs: u8,
    triggers: &'static [u8],
) -> Row {
    Row {
        name,
        inputs,
        outputs,
        triggers,
    }
}

impl CellKind {
    /// The per-kind table. Trigger pins are the inputs whose pulse can
    /// produce an output: clocked cells store on data/set/reset pins and
    /// launch on CLK, so pin-aware timing segments paths at them.
    const fn row(self) -> Row {
        match self {
            CellKind::Jtl => row("jtl", &["IN"], 1, &[0]),
            CellKind::Splitter => row("splitter", &["IN"], 2, &[0]),
            CellKind::Merger => row("merger", &["IN_A", "IN_B"], 1, &[0, 1]),
            CellKind::Dro => row("dro", &["D", "CLK"], 1, &[1]),
            CellKind::HcDro => row("hcdro", &["D", "CLK"], 1, &[1]),
            CellKind::Ndro => row("ndro", &["SET", "RESET", "CLK"], 1, &[2]),
            CellKind::Ndroc => row("ndroc", &["SET", "RESET", "CLK"], 2, &[2]),
            CellKind::Dand => row("dand", &["A", "B"], 1, &[0, 1]),
            CellKind::AndGate => row("and", &["A", "B", "CLK"], 1, &[2]),
            CellKind::NotGate => row("not", &["A", "CLK"], 1, &[1]),
            CellKind::XorGate => row("xor", &["A", "B", "CLK"], 1, &[2]),
            CellKind::CounterBit => row("counter_bit", &["IN", "READ", "RESET"], 2, &[0, 1]),
            CellKind::Sync => row("sync", &["D", "CLK"], 1, &[1]),
        }
    }

    /// The kind's lowercase name, which census tables, lint messages and
    /// netlist digests print.
    pub const fn name(self) -> &'static str {
        self.row().name
    }

    /// The number of input pins (indices `0..inputs`).
    pub const fn inputs(self) -> u8 {
        self.row().inputs.len() as u8
    }

    /// The name of input `pin`, or `None` if the kind has no such pin.
    pub fn input_name(self, pin: u8) -> Option<&'static str> {
        self.row().inputs.get(usize::from(pin)).copied()
    }

    /// The number of output pins (indices `0..outputs`).
    pub const fn outputs(self) -> u8 {
        self.row().outputs
    }

    /// The input pins through which a pulse can propagate to an output.
    pub const fn trigger_pins(self) -> &'static [u8] {
        self.row().triggers
    }
}

impl std::fmt::Display for CellKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One primitive's behaviour as data.
///
/// Each variant carries the calibrated per-instance parameters the cell
/// was built with (delays, windows, capacities), so a tuned instance
/// (e.g. a JTL with a non-library delay) keeps its own values. Pin
/// numbering is the one each `sfq-cells` primitive documents.
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
}

/// Sentinel femtosecond value of an empty time slot.
const NONE_FS: u64 = u64::MAX;

/// A primitive's mutable state: a small integer and two time slots, what
/// each op reads and writes in [`CellOp::step`]:
///
/// | op | `bits` | `ta` | `tb` |
/// |----|--------|------|------|
/// | `Dro` / `Ndro` | stored flag | – | – |
/// | `HcDro` | fluxon count | last D | last CLK |
/// | `Ndroc` | select flag | last CLK | – |
/// | `Dand` | – | pending A | pending B |
/// | `Gate` | A ∨ B≪1 | – | – |
/// | `Not` | A latch | – | – |
/// | `Sync` | – | pending D | last CLK |
/// | `Merger` | – | last accepted | – |
/// | `CounterBit` | state | – | – |
///
/// Time slots hold femtoseconds, `u64::MAX` when empty. A [`Cell`] packs
/// this next to its op in one cache line; a
/// [`Snapshot`](crate::simulator::Snapshot) holds one per cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellState {
    pub(crate) ta: u64,
    pub(crate) tb: u64,
    pub(crate) bits: u8,
}

impl CellState {
    /// The built state of every primitive: no bits set, no times recorded.
    pub const EMPTY: CellState = CellState::with_bits(0);

    /// An otherwise empty state holding `bits` (e.g. an NDRO built
    /// holding a fluxon).
    pub const fn with_bits(bits: u8) -> CellState {
        CellState {
            ta: NONE_FS,
            tb: NONE_FS,
            bits,
        }
    }
}

impl Default for CellState {
    fn default() -> Self {
        CellState::EMPTY
    }
}

/// One cell as data: its [`CellOp`] and its [`CellState`] packed into a
/// single 64-byte line, so a delivery that steps the cell loads exactly
/// one cache line of cell data. (A delivery the compiled engine serves
/// through its relay table, to an unprobed JTL or splitter, loads none.)
///
/// The netlist holds one per component, in id order, and it is the only
/// copy of the cell: both engines step it in place, and snapshots read
/// and write its state. The event loop visits cells in pulse order
/// (effectively random), never in index order, so spreading op and state
/// over parallel arrays would buy no vectorization back; packing by cell
/// keeps one line per stepped event.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(align(64))]
pub struct Cell {
    /// The cell's behaviour, with the parameters it was built with.
    pub op: CellOp,
    /// The cell's state.
    pub state: CellState,
}

impl Cell {
    /// A cell of `op` in its built state: no bits set, no times recorded.
    pub const fn new(op: CellOp) -> Cell {
        Cell::with_state(op, CellState::EMPTY)
    }

    /// A cell of `op` built in `state` (e.g. an NDRO holding a fluxon).
    pub const fn with_state(op: CellOp, state: CellState) -> Cell {
        Cell { op, state }
    }

    /// The cell's kind, its row in the per-kind table.
    pub fn kind(&self) -> CellKind {
        self.op.kind()
    }

    /// The value the cell holds (see [`CellOp::stored`]).
    pub fn stored(&self) -> Option<u8> {
        self.op.stored(&self.state)
    }

    /// Delivers one pulse at `now` to input `pin` (see [`CellOp::step`]).
    #[inline]
    pub fn step(&mut self, pin: u8, now: Time, ctx: &mut PulseContext<'_>) {
        let op = self.op;
        op.step(&mut self.state, pin, now, ctx);
    }
}

impl CellOp {
    /// The cell's kind, its row in the per-kind table.
    pub fn kind(&self) -> CellKind {
        match self {
            CellOp::Dro { .. } => CellKind::Dro,
            CellOp::HcDro { .. } => CellKind::HcDro,
            CellOp::Ndro { .. } => CellKind::Ndro,
            CellOp::Ndroc { .. } => CellKind::Ndroc,
            CellOp::Dand { .. } => CellKind::Dand,
            CellOp::Gate {
                func: GateFunc::And,
                ..
            } => CellKind::AndGate,
            CellOp::Gate {
                func: GateFunc::Xor,
                ..
            } => CellKind::XorGate,
            CellOp::Not { .. } => CellKind::NotGate,
            CellOp::Sync { .. } => CellKind::Sync,
            CellOp::Jtl { .. } => CellKind::Jtl,
            CellOp::Splitter { .. } => CellKind::Splitter,
            CellOp::Merger { .. } => CellKind::Merger,
            CellOp::CounterBit { .. } => CellKind::CounterBit,
        }
    }

    /// The value a storage cell in `state` holds: the stored flag of a
    /// DRO, NDRO, NDROC or counter bit, the fluxon count of an HC-DRO;
    /// `None` for every other op.
    pub fn stored(&self, state: &CellState) -> Option<u8> {
        match self {
            CellOp::Dro { .. }
            | CellOp::HcDro { .. }
            | CellOp::Ndro { .. }
            | CellOp::Ndroc { .. }
            | CellOp::CounterBit { .. } => Some(state.bits),
            _ => None,
        }
    }

    /// Nominal input-to-output delay, for static timing analysis: the
    /// clock-to-output delay of clocked cells, the carry delay of a
    /// counter bit.
    pub fn propagation_delay(&self) -> Duration {
        match *self {
            CellOp::Dro { q_delay } | CellOp::HcDro { q_delay, .. } => q_delay,
            CellOp::Ndro { out_delay } => out_delay,
            CellOp::Ndroc { prop, .. } => prop,
            CellOp::Dand { delay, .. }
            | CellOp::Gate { delay, .. }
            | CellOp::Not { delay }
            | CellOp::Sync { delay, .. }
            | CellOp::Jtl { delay }
            | CellOp::Splitter { delay }
            | CellOp::Merger { delay, .. } => delay,
            CellOp::CounterBit { carry, .. } => carry,
        }
    }

    /// The delay of a *relay*: a JTL or splitter, whose step reads and
    /// writes no state, records no violation, and on a pulse at any pin
    /// emits on each of its kind's outputs, in pin order, `delay` later.
    /// `None` for every other op. The compiled engine serves deliveries to
    /// unprobed relays from this and the output count alone, without
    /// loading the cell.
    pub(crate) fn relay_delay(&self) -> Option<Duration> {
        match *self {
            CellOp::Jtl { delay } | CellOp::Splitter { delay } => Some(delay),
            _ => None,
        }
    }

    /// The op with every emission delay — the lag from a delivery to an
    /// output it emits — scaled by `factor` (see [`scale_delay`]), and
    /// every window (separations, re-arm, coincidence window,
    /// setup/track/hold, dead time) and capacity as built. This is a
    /// fault plan's per-instance delay variation: a gate's delays and its
    /// timing windows are separate parameters, and variation moves only
    /// the delays.
    pub(crate) fn scale_delays(self, factor: f64) -> CellOp {
        let s = |delay| scale_delay(delay, factor);
        match self {
            CellOp::Dro { q_delay } => CellOp::Dro {
                q_delay: s(q_delay),
            },
            CellOp::HcDro {
                capacity,
                q_delay,
                sep,
                hard_sep,
            } => CellOp::HcDro {
                capacity,
                q_delay: s(q_delay),
                sep,
                hard_sep,
            },
            CellOp::Ndro { out_delay } => CellOp::Ndro {
                out_delay: s(out_delay),
            },
            CellOp::Ndroc { prop, rearm } => CellOp::Ndroc {
                prop: s(prop),
                rearm,
            },
            CellOp::Dand { window, delay } => CellOp::Dand {
                window,
                delay: s(delay),
            },
            CellOp::Gate { func, delay } => CellOp::Gate {
                func,
                delay: s(delay),
            },
            CellOp::Not { delay } => CellOp::Not { delay: s(delay) },
            CellOp::Sync {
                setup,
                track,
                hold,
                delay,
            } => CellOp::Sync {
                setup,
                track,
                hold,
                delay: s(delay),
            },
            CellOp::Jtl { delay } => CellOp::Jtl { delay: s(delay) },
            CellOp::Splitter { delay } => CellOp::Splitter { delay: s(delay) },
            CellOp::Merger { dead, delay } => CellOp::Merger {
                dead,
                delay: s(delay),
            },
            CellOp::CounterBit { carry, read } => CellOp::CounterBit {
                carry: s(carry),
                read: s(read),
            },
        }
    }

    /// The longest emission delay: the propagation delay, or the longer
    /// of a counter bit's carry and read delays.
    pub(crate) fn longest_emission_delay(&self) -> Duration {
        match *self {
            CellOp::CounterBit { carry, read } => carry.max(read),
            op => op.propagation_delay(),
        }
    }

    /// Delivers one pulse at `now` to input `pin` of a cell in `state`:
    /// updates the state, emits through `ctx` (in emission order), and
    /// records violations, dropping the offending pulse where `ctx` says
    /// the policy degrades.
    #[inline]
    pub fn step(self, state: &mut CellState, pin: u8, now: Time, ctx: &mut PulseContext<'_>) {
        let s = state;
        match self {
            CellOp::Dro { q_delay } => match pin {
                // A second incoming fluxon dissipates through the buffer
                // junction J0 (paper §II-C).
                0 => s.bits = 1,
                1 => {
                    if s.bits != 0 {
                        s.bits = 0;
                        ctx.emit_after(0, now, q_delay);
                    }
                }
                other => no_pin(ctx, now, self.kind(), other),
            },
            CellOp::HcDro {
                capacity,
                q_delay,
                sep,
                hard_sep,
            } => match pin {
                0 => {
                    if hcdro_sep(&mut s.ta, now, "write", sep, hard_sep, ctx) {
                        return; // degraded: the fluxon is lost in the junction
                    }
                    if s.bits < capacity {
                        s.bits += 1;
                    } // else: dissipated, the loop is full.
                }
                1 => {
                    if hcdro_sep(&mut s.tb, now, "read", sep, hard_sep, ctx) {
                        return; // degraded: nothing pops
                    }
                    if s.bits > 0 {
                        s.bits -= 1;
                        ctx.emit_after(0, now, q_delay);
                    }
                }
                other => no_pin(ctx, now, self.kind(), other),
            },
            CellOp::Ndro { out_delay } => match pin {
                // A duplicate SET dissipates via J2, an empty RESET via J5.
                0 => s.bits = 1,
                1 => s.bits = 0,
                2 => {
                    if s.bits != 0 {
                        ctx.emit_after(0, now, out_delay);
                    }
                }
                other => no_pin(ctx, now, self.kind(), other),
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
                            // Degraded: the enable is lost in the
                            // un-recovered junctions and routes to neither
                            // output; the cell still saw it for re-arm
                            // bookkeeping.
                            s.ta = now.as_fs();
                            return;
                        }
                    }
                    s.ta = now.as_fs();
                    let out = if s.bits != 0 { 0 } else { 1 };
                    ctx.emit_after(out, now, prop);
                }
                other => no_pin(ctx, now, self.kind(), other),
            },
            CellOp::Dand { window, delay } => {
                // Pin 0 latches into `ta`, pin 1 into `tb`; a pulse pairs
                // with (and clears) the other slot's pending pulse.
                let pending_other = match pin {
                    0 => s.tb,
                    1 => s.ta,
                    other => return no_pin(ctx, now, self.kind(), other),
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
                other => no_pin(ctx, now, self.kind(), other),
            },
            CellOp::Not { delay } => match pin {
                0 => s.bits = 1,
                1 => {
                    if s.bits == 0 {
                        ctx.emit_after(0, now, delay);
                    }
                    s.bits = 0;
                }
                other => no_pin(ctx, now, self.kind(), other),
            },
            CellOp::Sync {
                setup,
                track,
                hold,
                delay,
            } => match pin {
                0 => {
                    if s.tb != NONE_FS {
                        // Data racing in just after an edge is a hold upset.
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
                            // Inside the aperture: metastable capture.
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
                other => no_pin(ctx, now, self.kind(), other),
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
                other => no_pin(ctx, now, self.kind(), other),
            },
        }
    }
}

/// One delay under a per-instance delay factor: `round(delay × factor)`
/// femtoseconds, floored at zero (and saturating at `u64::MAX`). A factor
/// of exactly 1 keeps the delay. Both engines scale through this one
/// formula: the compiled engine on the ops at plan install
/// ([`CellOp::scale_delays`]), the dyn interpreter on each emission's
/// lag.
#[inline]
pub(crate) fn scale_delay(delay: Duration, factor: f64) -> Duration {
    if factor == 1.0 {
        return delay;
    }
    Duration::from_fs((delay.as_fs() as f64 * factor).round().max(0.0) as u64)
}

/// Records a pulse on an input pin the cell does not have.
#[cold]
fn no_pin(ctx: &mut PulseContext<'_>, now: Time, kind: CellKind, pin: u8) {
    ctx.violation(now, "pin", format!("{kind} has no input pin {pin}"));
}

/// The HC-DRO inter-pulse spacing check on one input: records `now` in
/// `last` and returns `true` if the pulse must be dropped. Below the
/// design-rule separation the pulse is a violation; it is only physically
/// lost (under `Degrade`) once the hard guard band is exhausted too.
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
mod tests {
    use super::*;

    #[test]
    fn cell_is_one_cache_line() {
        // The packed layout: op + state in 64 bytes, so a delivery that
        // steps the cell loads one line of cell data.
        assert_eq!(std::mem::size_of::<Cell>(), 64);
        assert_eq!(std::mem::align_of::<Cell>(), 64);
    }

    #[test]
    fn a_relay_step_is_its_delay_on_every_output() {
        // What the compiled engine replays for a flagged delivery: no state
        // change, no violation, one emission per output in pin order.
        let ps = Duration::from_ps;
        let ops = [
            CellOp::Jtl { delay: ps(2.5) },
            CellOp::Splitter { delay: ps(4.0) },
            CellOp::Merger {
                dead: ps(3.0),
                delay: ps(1.0),
            },
            CellOp::Dro { q_delay: ps(7.0) },
        ];
        for op in ops {
            let Some(delay) = op.relay_delay() else {
                assert!(!matches!(op.kind(), CellKind::Jtl | CellKind::Splitter));
                continue;
            };
            for pin in 0..6u8 {
                let now = Time::from_ps(10.0 + f64::from(pin));
                let mut state = CellState::EMPTY;
                let (mut emitted, mut violations, mut drops) = (Vec::new(), Vec::new(), 0);
                let mut ctx = PulseContext {
                    emitted: &mut emitted,
                    violations: &mut violations,
                    component_label: crate::component::CellLabel::Resolved("r"),
                    policy: crate::violation::ViolationPolicy::Degrade,
                    degraded_drops: &mut drops,
                };
                op.step(&mut state, pin, now, &mut ctx);
                let want: Vec<(u8, Time)> =
                    (0..op.kind().outputs()).map(|o| (o, now + delay)).collect();
                assert_eq!(emitted, want, "{op:?} pin {pin}");
                assert!(violations.is_empty() && drops == 0, "{op:?} pin {pin}");
                assert_eq!(state, CellState::EMPTY, "{op:?} pin {pin}");
            }
        }
    }

    #[test]
    fn scaling_moves_every_emission_delay_and_no_window() {
        let ps = Duration::from_ps;
        // One row per kind: the op, and the op under a factor of 1.5.
        // Delays are 2, 4, 6, ... ps; windows are odd picoseconds, which
        // a scaled window would turn into half picoseconds.
        let table = [
            (
                CellOp::Dro { q_delay: ps(2.0) },
                CellOp::Dro { q_delay: ps(3.0) },
            ),
            (
                CellOp::HcDro {
                    capacity: 3,
                    q_delay: ps(4.0),
                    sep: ps(11.0),
                    hard_sep: ps(7.0),
                },
                CellOp::HcDro {
                    capacity: 3,
                    q_delay: ps(6.0),
                    sep: ps(11.0),
                    hard_sep: ps(7.0),
                },
            ),
            (
                CellOp::Ndro { out_delay: ps(6.0) },
                CellOp::Ndro { out_delay: ps(9.0) },
            ),
            (
                CellOp::Ndroc {
                    prop: ps(8.0),
                    rearm: ps(53.0),
                },
                CellOp::Ndroc {
                    prop: ps(12.0),
                    rearm: ps(53.0),
                },
            ),
            (
                CellOp::Dand {
                    window: ps(9.0),
                    delay: ps(10.0),
                },
                CellOp::Dand {
                    window: ps(9.0),
                    delay: ps(15.0),
                },
            ),
            (
                CellOp::Gate {
                    func: GateFunc::And,
                    delay: ps(12.0),
                },
                CellOp::Gate {
                    func: GateFunc::And,
                    delay: ps(18.0),
                },
            ),
            (
                CellOp::Gate {
                    func: GateFunc::Xor,
                    delay: ps(14.0),
                },
                CellOp::Gate {
                    func: GateFunc::Xor,
                    delay: ps(21.0),
                },
            ),
            (
                CellOp::Not { delay: ps(16.0) },
                CellOp::Not { delay: ps(24.0) },
            ),
            (
                CellOp::Sync {
                    setup: ps(3.0),
                    track: ps(5.0),
                    hold: ps(1.0),
                    delay: ps(18.0),
                },
                CellOp::Sync {
                    setup: ps(3.0),
                    track: ps(5.0),
                    hold: ps(1.0),
                    delay: ps(27.0),
                },
            ),
            (
                CellOp::Jtl { delay: ps(20.0) },
                CellOp::Jtl { delay: ps(30.0) },
            ),
            (
                CellOp::Splitter { delay: ps(22.0) },
                CellOp::Splitter { delay: ps(33.0) },
            ),
            (
                CellOp::Merger {
                    dead: ps(13.0),
                    delay: ps(24.0),
                },
                CellOp::Merger {
                    dead: ps(13.0),
                    delay: ps(36.0),
                },
            ),
            (
                CellOp::CounterBit {
                    carry: ps(26.0),
                    read: ps(28.0),
                },
                CellOp::CounterBit {
                    carry: ps(39.0),
                    read: ps(42.0),
                },
            ),
        ];
        let kinds: std::collections::BTreeSet<CellKind> =
            table.iter().map(|(op, _)| op.kind()).collect();
        assert_eq!(kinds.len(), 13, "one row per kind");
        for (nominal, scaled) in table {
            assert_eq!(nominal.scale_delays(1.5), scaled, "{nominal:?}");
            assert_eq!(nominal.scale_delays(1.0), nominal, "{nominal:?}");
            let longest = nominal.longest_emission_delay();
            assert_eq!(scaled.longest_emission_delay(), scale_delay(longest, 1.5));
        }
        // The rounding the dyn interpreter applies to each emission's lag.
        assert_eq!(scale_delay(Duration::from_fs(3), 0.5), Duration::from_fs(2));
        assert_eq!(
            scale_delay(Duration::from_fs(1_000), 0.05),
            Duration::from_fs(50)
        );
        assert_eq!(
            scale_delay(Duration::from_fs(1), 1e300),
            Duration::from_fs(u64::MAX),
            "saturates instead of wrapping"
        );
    }

    #[test]
    fn cell_state_is_three_words() {
        // What a snapshot stores per cell.
        assert_eq!(std::mem::size_of::<CellState>(), 24);
    }
}
