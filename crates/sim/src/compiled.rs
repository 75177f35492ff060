//! The compiled execution engine: flat fan-out and probe tables over the
//! netlist's cell array.
//!
//! A [`Netlist`] holds every cell as data, one 64-byte
//! [`Cell`](crate::cell::Cell) per component (its op and state in one
//! cache line), and both engines step that array in place through
//! [`Cell::step`](crate::cell::Cell::step). What this engine adds is a
//! lowering of the *wiring* into a flat `CompiledNetlist`:
//!
//! * fan-out is a CSR table: one fused offset array (the fan-out and
//!   probe ranges of a pin share an entry, halving the offset loads)
//!   plus pre-packed `FanOut` / probe-id arrays, indexed by
//!   `cell * stride + output_pin`;
//! * CSR rows are in component-id order, so an event's target indexes
//!   the cell array and the tables directly, and the CSR is built by one
//!   walk over the netlist's fan-out rows; each `FanOut` row is
//!   pre-packed into the two words of the future `Event`, so pushing a
//!   delivery is two adds — no `Pin` re-encoding on the hot path;
//! * a row into an unprobed *relay* — a JTL or splitter, which holds no
//!   state and records no violation — carries the relay flag in its pin
//!   byte, with the real pin and an index into a table of at most 32
//!   `(delay, output count)` entries, so the hot loop serves that
//!   delivery by pushing the relay's own rows without loading its cell.
//!   Every other delivery loads one line of cell data and runs the step;
//! * the cell label, needed only by the cold violation path, is resolved
//!   lazily, so the hot path never touches the label table.
//!
//! The tables hold no cell state, so the simulator simply drops them
//! whenever the wiring or the probe set could change (netlist access
//! through `netlist_mut`, a new probe, an engine switch) and rebuilds
//! them at the next run. Relay flags already queued then refer to the
//! dropped tables, so until the queue next drains the simulator serves
//! every flagged delivery through the full step, as it does while a delay
//! plan has scaled the ops (the table holds nominal relay delays). The
//! tables are always built from nominal ops: dropping them writes the
//! nominal ops back.
//!
//! Both engines run the same step on the same cells. The
//! `engine_equivalence` differential suite compares everything around
//! that step — CSR versus netlist fan-out, flat versus mapped probes,
//! relay rows versus the relay's step, hoisted versus per-event
//! counters, lazy versus resolved labels — and asserts byte-identical
//! traces, violations, VCD, and statistics against the dyn interpreter
//! (the same oracle strategy the reference heap serves for event order).
//! Tests select the interpreter explicitly, per simulator
//! ([`Simulator::with_engine`](crate::simulator::Simulator::with_engine),
//! [`Simulator::set_engine`](crate::simulator::Simulator::set_engine));
//! a plain `Simulator::new` always runs the compiled engine.

use std::collections::BTreeMap;

use crate::netlist::{ComponentId, Netlist, Pin};
use crate::queue::{
    Event, EVENT_COMPONENT_LIMIT, EVENT_PIN_BITS, EVENT_SEQ_BITS, EVENT_TIME_LIMIT_FS, RELAY_FLAG,
    RELAY_PIN_LIMIT, RELAY_PIN_SHIFT, RELAY_TABLE_LEN,
};
use crate::simulator::ProbeId;
use crate::time::Duration;

/// Which execution engine a [`Simulator`](crate::simulator::Simulator)
/// delivers pulses with. Both produce byte-identical observables (the
/// differential suite asserts it); they differ only in speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// The engine over flat fan-out and probe tables (the fast path).
    #[default]
    Compiled,
    /// The interpreter kept as the differential reference: it steps the
    /// same cells through the netlist's fan-out rows, the probe map and
    /// per-event counters.
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
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(self.label())
    }
}

/// One pre-packed fan-out destination: the two words of the future
/// [`Event`] that do not depend on the emission, so the hot loop builds a
/// delivery with two adds instead of re-encoding a `Pin` per push.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FanOut {
    /// `destination component << 40` — the event's `cs` word minus the
    /// sequence number.
    cs_base: u64,
    /// `wire delay (fs) << 8 | pin byte` — adds directly onto the
    /// emission's `time_fs << 8`. The pin byte is the destination pin, or
    /// the relay flag, pin and table index of a relay destination.
    pin_delay: u64,
}

impl FanOut {
    /// Packs a wire destination, checking both fields against the event
    /// bit widths once at lowering time.
    fn pack(to: ComponentId, pin_byte: u8, delay: Duration) -> FanOut {
        let c = to.index() as u64;
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
            pin_delay: d << EVENT_PIN_BITS | u64::from(pin_byte),
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
        self.event_at(0, 0).target()
    }

    /// The raw pin byte, relay flag included (tests only).
    #[cfg(test)]
    pub(crate) fn pin_byte(self) -> u8 {
        self.pin_delay as u8
    }

    /// The wire delay, decoded (tests and cold paths only).
    #[cfg(test)]
    pub(crate) fn delay(self) -> Duration {
        Duration::from_fs(self.pin_delay >> EVENT_PIN_BITS)
    }
}

/// One relay table entry: all a flagged delivery needs to replay the
/// relay's step (see `CellOp::relay_delay`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Relay {
    /// The op delay, in fs, from the delivery to every emission.
    pub(crate) delay_fs: u64,
    /// Output pins the step emits on, OUT0 first (1 for a JTL, 2 for a
    /// splitter).
    pub(crate) outputs: u8,
}

/// The compiled form of a netlist's wiring: CSR fan-out, a flat probe
/// table, and the relay table flagged fan-out rows index.
///
/// Owned by the simulator under the compiled engine; the `Netlist` keeps
/// the cells, which the engine steps in place.
#[derive(Debug)]
pub(crate) struct CompiledNetlist {
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
    /// Distinct relay ops, indexed by a flagged pin byte's low five bits;
    /// entries past the interned ones stay unused.
    relays: [Relay; RELAY_TABLE_LEN],
}

impl CompiledNetlist {
    /// Computes the fan-out and probe tables from the current netlist
    /// wiring and probe registrations: one pass over the cell array that
    /// classifies the unprobed relays, then one walk over the netlist's
    /// fan-out rows in (cell, pin) order, merged with the probe map's
    /// sorted keys, tagging each row into a relay as it packs it.
    pub(crate) fn compile(netlist: &Netlist, probes: &BTreeMap<Pin, Vec<ProbeId>>) -> Self {
        let cells = netlist.component_count();
        let stride = probes
            .keys()
            .map(|p| p.index as usize + 1)
            .fold(netlist.fanout_stride(), usize::max);
        let tagger = RelayTagger::new(netlist, probes);
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
                        .map(|&(to, delay)| FanOut::pack(to.component, tagger.pin_byte(to), delay)),
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
        CompiledNetlist {
            stride,
            offsets,
            fan_dests,
            probe_ids,
            relays: tagger.relays,
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

    /// The relay entry a flagged pin byte indexes.
    #[inline]
    pub(crate) fn relay(&self, pin_byte: u8) -> Relay {
        self.relays[usize::from(pin_byte) % RELAY_TABLE_LEN]
    }

    /// Every fan-out row of `relay`'s outputs on `cell`, OUT0's first:
    /// the rows are adjacent in the CSR, and outputs at or beyond the
    /// stride have none.
    #[inline]
    pub(crate) fn relay_fanout(&self, cell: usize, relay: Relay) -> &[FanOut] {
        let first = cell * self.stride;
        let end = first + usize::from(relay.outputs).min(self.stride);
        &self.fan_dests[self.offsets[first][0] as usize..self.offsets[end][0] as usize]
    }
}

/// Chooses each fan-out row's pin byte during the CSR walk: the relay
/// flag, real pin and table index for a row into an unprobed relay, the
/// plain destination pin otherwise.
struct RelayTagger {
    /// `codes[cell]`: the cell's relay-table index, or [`PLAIN`] if its
    /// deliveries take the full step.
    codes: Vec<u8>,
    relays: [Relay; RELAY_TABLE_LEN],
}

/// The code of a cell whose deliveries take the full step: not a relay,
/// probed, or a relay whose op does not fit the table.
const PLAIN: u8 = u8::MAX;

impl RelayTagger {
    /// Classifies every cell in one pass over the cell array, interning
    /// each unprobed relay's op. A relay whose delay lies past the event
    /// time window, or whose op would be a 33rd table entry, stays plain:
    /// the checked fallback is the full step, never a wrapped field.
    fn new(netlist: &Netlist, probes: &BTreeMap<Pin, Vec<ProbeId>>) -> Self {
        let mut probed = probes.keys().map(|p| p.component.index()).peekable();
        let mut relays = [Relay::default(); RELAY_TABLE_LEN];
        let mut interned = 0;
        // Neighbouring relays mostly share an op (a splitter tree), so
        // the last entry hit is tried before the table scan.
        let mut last = 0;
        let codes = netlist
            .cells()
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                while probed.next_if(|&c| c < i).is_some() {}
                let delay = match cell.op.relay_delay() {
                    Some(d) if d.as_fs() < EVENT_TIME_LIMIT_FS && probed.peek() != Some(&i) => d,
                    _ => return PLAIN,
                };
                let relay = Relay {
                    delay_fs: delay.as_fs(),
                    outputs: cell.kind().outputs(),
                };
                if interned == 0 || relays[last] != relay {
                    match relays[..interned].iter().position(|&r| r == relay) {
                        Some(slot) => last = slot,
                        None if interned < RELAY_TABLE_LEN => {
                            relays[interned] = relay;
                            last = interned;
                            interned += 1;
                        }
                        None => return PLAIN,
                    }
                }
                last as u8
            })
            .collect();
        RelayTagger { codes, relays }
    }

    /// The pin byte of a row into `to`: flagged if `to` is a tabled relay
    /// and its pin fits the flag's two bits (pins 0–3).
    fn pin_byte(&self, to: Pin) -> u8 {
        let code = self.codes[to.component.index()];
        if code == PLAIN || to.index >= RELAY_PIN_LIMIT {
            return to.index;
        }
        RELAY_FLAG | to.index << RELAY_PIN_SHIFT | code
    }
}

#[cfg(test)]
mod layout_tests {
    use super::*;
    use crate::cell::{Cell, CellOp};

    #[test]
    fn fanout_rows_pack_and_decode() {
        let to = Pin::new(ComponentId(42), 3);
        let fo = FanOut::pack(to.component, to.index, Duration::from_ps(2.5));
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
        let fo = FanOut::pack(ComponentId(0), 0, Duration::from_fs(0));
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
            ComponentId(0),
            0,
            Duration::from_fs(EVENT_TIME_LIMIT_FS - 1),
        );
        let _ = fo.event_at(EVENT_TIME_LIMIT_FS - 1, 0);
    }

    /// The pin byte and relay entry of every row out of `from`.
    fn rows(c: &CompiledNetlist, from: Pin) -> Vec<(Pin, Option<Relay>)> {
        let flat = c
            .flat_at(from.component.index(), from.index)
            .expect("wired");
        c.fanout(flat)
            .iter()
            .map(|fo| {
                let byte = fo.pin_byte();
                (fo.target(), (byte & RELAY_FLAG != 0).then(|| c.relay(byte)))
            })
            .collect()
    }

    #[test]
    fn rows_into_unprobed_splitters_and_jtls_are_flagged() {
        let ps = Duration::from_ps;
        let mut n = Netlist::new();
        let src = n.add("src", Cell::new(CellOp::Dro { q_delay: ps(1.0) }));
        let split = n.add("split", Cell::new(CellOp::Splitter { delay: ps(4.0) }));
        let jtl = n.add("jtl", Cell::new(CellOp::Jtl { delay: ps(2.0) }));
        let probed = n.add("probed", Cell::new(CellOp::Splitter { delay: ps(4.0) }));
        let merger = n.add(
            "merger",
            Cell::new(CellOp::Merger {
                dead: ps(3.0),
                delay: ps(1.0),
            }),
        );
        let wire = ps(1.0);
        n.connect(Pin::new(src, 0), Pin::new(split, 1), wire);
        n.connect(Pin::new(split, 0), Pin::new(jtl, 0), wire);
        n.connect(Pin::new(split, 1), Pin::new(probed, 0), wire);
        n.connect(Pin::new(split, 1), Pin::new(jtl, 4), wire);
        n.connect(Pin::new(jtl, 0), Pin::new(merger, 0), wire);
        n.connect(Pin::new(probed, 0), Pin::new(split, 3), wire);
        let mut probes = BTreeMap::new();
        probes.insert(Pin::new(probed, 1), vec![ProbeId(0)]);
        let c = CompiledNetlist::compile(&n, &probes);

        let splitter = Relay {
            delay_fs: 4_000,
            outputs: 2,
        };
        let repeater = Relay {
            delay_fs: 2_000,
            outputs: 1,
        };
        // Flagged, with the real pin kept: pin 1 and pin 3 of a splitter.
        assert_eq!(
            rows(&c, Pin::new(src, 0)),
            [(Pin::new(split, 1), Some(splitter))]
        );
        assert_eq!(
            rows(&c, Pin::new(probed, 0)),
            [(Pin::new(split, 3), Some(splitter))]
        );
        assert_eq!(
            rows(&c, Pin::new(split, 0)),
            [(Pin::new(jtl, 0), Some(repeater))]
        );
        // Plain: a probed splitter, a pin past the flag's two bits, and a
        // merger (it keeps a dead-time state).
        assert_eq!(
            rows(&c, Pin::new(split, 1)),
            [(Pin::new(probed, 0), None), (Pin::new(jtl, 4), None)]
        );
        assert_eq!(rows(&c, Pin::new(jtl, 0)), [(Pin::new(merger, 0), None)]);
        // One table entry per distinct op, and a relay's rows are its
        // outputs' rows, OUT0's first.
        assert_eq!(c.relays[..3], [splitter, repeater, Relay::default()]);
        let split_rows: Vec<Pin> = c
            .relay_fanout(split.index(), splitter)
            .iter()
            .map(|fo| fo.target())
            .collect();
        assert_eq!(
            split_rows,
            [Pin::new(jtl, 0), Pin::new(probed, 0), Pin::new(jtl, 4)]
        );
    }

    #[test]
    fn relay_ops_past_the_table_keep_plain_rows() {
        let ps = Duration::from_ps;
        let mut n = Netlist::new();
        let src = n.add("src", Cell::new(CellOp::Dro { q_delay: ps(1.0) }));
        let jtls: Vec<ComponentId> = (0..RELAY_TABLE_LEN + 2)
            .map(|i| {
                let delay = ps(1.0 + i as f64);
                n.add(format_args!("j{i}"), Cell::new(CellOp::Jtl { delay }))
            })
            .collect();
        for &j in &jtls {
            n.connect(Pin::new(src, 0), Pin::new(j, 0), ps(1.0));
        }
        // A second wire into the first relay reuses its entry.
        n.connect(Pin::new(jtls[1], 0), Pin::new(jtls[0], 2), ps(1.0));
        let c = CompiledNetlist::compile(&n, &BTreeMap::new());
        let out = rows(&c, Pin::new(src, 0));
        for (i, (to, relay)) in out.iter().enumerate() {
            assert_eq!(*to, Pin::new(jtls[i], 0));
            let want = (i < RELAY_TABLE_LEN).then_some(Relay {
                delay_fs: 1_000 * (1 + i as u64),
                outputs: 1,
            });
            assert_eq!(*relay, want, "relay {i}");
        }
        assert_eq!(
            rows(&c, Pin::new(jtls[1], 0)),
            [(Pin::new(jtls[0], 2), Some(c.relays[0]))]
        );
    }
}
