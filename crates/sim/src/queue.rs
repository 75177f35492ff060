//! Pending-event schedulers: the calendar queue and the reference heap.
//!
//! The simulator's hot loop is "pop the earliest pending event"; this
//! module provides two interchangeable implementations of that priority
//! queue:
//!
//! * `CalendarQueue` — a bucketed timing wheel (the production
//!   scheduler). Simulation time is divided into 1 ps buckets; pushing an
//!   event indexes straight into its bucket, and popping jumps to the
//!   first occupied bucket and serves it as one sorted batch. Events
//!   beyond the wheel's horizon wait in an overflow heap and migrate into
//!   the wheel as the cursor approaches them. For the pulse workloads here
//!   (many events clustered within a few picoseconds, operations hundreds
//!   of picoseconds apart) this replaces the `O(log n)` binary-heap sift
//!   with `O(1)` pushes and short bitmap scans. The wheel is a
//!   `WheelStore`: bucket lists threaded through a single slab of events
//!   with a free list, an occupancy bitmap, the cursor, and the overflow
//!   heap. Its storage is bounded by the peak number of events pending at
//!   once, wherever on the ring they land.
//! * `HeapQueue` — the seed `BinaryHeap` implementation, kept as the
//!   event-order oracle. Differential tests select it explicitly, per
//!   simulator
//!   ([`Simulator::with_scheduler`](crate::simulator::Simulator::with_scheduler),
//!   [`Simulator::set_scheduler`](crate::simulator::Simulator::set_scheduler));
//!   a plain `Simulator::new` always runs the calendar queue. Both
//!   implementations are always compiled, so equivalence tests can drive
//!   the same netlist through either scheduler in one process.
//!
//! # Determinism
//!
//! Both schedulers order events by the same fully-deterministic key
//! `(time, component id, sequence number)`:
//!
//! 1. earlier simulation time first;
//! 2. at equal times, the lower `ComponentId` first — simultaneous
//!    pulses deliver in netlist construction order, not in an accident of
//!    heap layout;
//! 3. at equal times on the same component, insertion order (the
//!    monotonically increasing per-simulator sequence number).
//!
//! The sequence number makes the key a *total* order, so "pop the
//! minimum" has exactly one answer regardless of how a queue stores its
//! pending events — which is what lets the calendar queue keep its
//! buckets unsorted and still replay the heap's schedule pulse for pulse.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::netlist::{ComponentId, Pin, INPUT_PIN_LIMIT};
use crate::time::Time;

/// A pending pulse delivery, packed into two machine words (16 bytes —
/// down from the seed's 24) so every wheel node, sorted batch, and heap
/// node carries 1.5× more events per cache line.
///
/// Packing:
///
/// * `tp` = `time_fs << 8 | pin` — 56 bits of femtosecond delivery time
///   (≈ 72 s of simulated time, ~5 000 000× the longest soak) over the
///   8-bit pin byte. Below [`RELAY_FLAG`] the byte is the input-pin
///   index. With the flag set it is a relay delivery the compiled engine
///   tagged at lowering: bits 5–6 hold the real input pin (0–3) and bits
///   0–4 index the compiled netlist's relay table. The netlist and the
///   simulator refuse input pins from [`INPUT_PIN_LIMIT`] up, so no
///   plain pin can read as a flag.
/// * `cs` = `component << 40 | seq` — the 24-bit *external* component id
///   (16.7 M cells) over a 40-bit insertion sequence number (the
///   simulator re-bases `seq` whenever its queue drains, so 2^40 bounds
///   events *in flight with overlapping lifetimes*, not events ever
///   simulated).
///
/// The packing is chosen so the total order `(time, component, seq)`
/// falls out of comparing `(tp >> 8, cs)` — `cs` already orders by
/// component then sequence natively. [`Event::new`] checks every field
/// against its width and panics with a widening note on overflow; the
/// compiled engine's pre-packed fan-out path uses `checked_add` for the
/// same guarantee (see `CompiledNetlist`).
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct Event {
    /// `time_fs << 8 | pin`.
    tp: u64,
    /// `component << 40 | seq`.
    cs: u64,
}

const _: () = assert!(
    std::mem::size_of::<Event>() == 16 && std::mem::align_of::<Event>() == 8,
    "Event must stay two machine words; widen the packing consciously"
);

/// Bits of `Event.tp` holding the input-pin index (the low byte).
pub(crate) const EVENT_PIN_BITS: u32 = 8;
/// Bits of `Event.cs` holding the sequence number (the low 40).
pub(crate) const EVENT_SEQ_BITS: u32 = 40;
/// Exclusive upper bound on a packable femtosecond timestamp.
pub(crate) const EVENT_TIME_LIMIT_FS: u64 = 1 << (64 - EVENT_PIN_BITS);
/// Exclusive upper bound on a packable component index.
pub(crate) const EVENT_COMPONENT_LIMIT: u64 = 1 << (64 - EVENT_SEQ_BITS);
/// Exclusive upper bound on a packable sequence number.
pub(crate) const EVENT_SEQ_LIMIT: u64 = 1 << EVENT_SEQ_BITS;
/// The pin byte's relay flag (bit 7): the reserved input-pin range.
pub(crate) const RELAY_FLAG: u8 = INPUT_PIN_LIMIT;
/// Shift of the real input pin inside a flagged pin byte (bits 5–6).
pub(crate) const RELAY_PIN_SHIFT: u32 = 5;
/// Exclusive upper bound on the real input pin a flagged byte carries.
pub(crate) const RELAY_PIN_LIMIT: u8 = 1 << (7 - RELAY_PIN_SHIFT);
/// Entries of the relay table a flagged byte's bits 0–4 index.
pub(crate) const RELAY_TABLE_LEN: usize = 1 << RELAY_PIN_SHIFT;

const _: () = assert!(
    RELAY_FLAG == 0x80 && RELAY_PIN_LIMIT == 4 && RELAY_TABLE_LEN == 32,
    "the pin byte is flag | pin << 5 | relay index"
);

/// The total-order key of an event — see [`Event::key`].
type EventKey = (u64, u64);

impl Event {
    /// Packs a delivery, checking every field against its bit width. The
    /// pin must lie below [`INPUT_PIN_LIMIT`], which the netlist and
    /// `Simulator::inject` enforce at the API edge.
    #[inline]
    pub(crate) fn new(time: Time, seq: u64, target: Pin) -> Event {
        let t = time.as_fs();
        let c = target.component.index() as u64;
        debug_assert!(
            target.index < INPUT_PIN_LIMIT,
            "input pin {} lies in the reserved range",
            target.index
        );
        assert!(
            t < EVENT_TIME_LIMIT_FS,
            "event time {t} fs exceeds the 56-bit packed window — widen Event.tp"
        );
        assert!(
            c < EVENT_COMPONENT_LIMIT,
            "component id {c} exceeds the 24-bit packed window — widen Event.cs"
        );
        assert!(
            seq < EVENT_SEQ_LIMIT,
            "sequence {seq} exceeds the 40-bit packed window — widen Event.cs"
        );
        Event {
            tp: t << EVENT_PIN_BITS | u64::from(target.index),
            cs: c << EVENT_SEQ_BITS | seq,
        }
    }

    /// Reassembles an event from pre-packed words (the compiled engine's
    /// fan-out fast path). Width checks are the caller's job — the fan-out
    /// tables are validated at lowering time and the time addition is
    /// `checked_add`-guarded.
    #[inline]
    pub(crate) const fn from_words(tp: u64, cs: u64) -> Event {
        Event { tp, cs }
    }

    /// Delivery time.
    #[inline]
    pub(crate) fn time(&self) -> Time {
        Time::from_fs(self.tp >> EVENT_PIN_BITS)
    }

    /// Delivery time in femtoseconds.
    #[inline]
    pub(crate) fn time_fs(&self) -> u64 {
        self.tp >> EVENT_PIN_BITS
    }

    /// Per-simulator insertion sequence number.
    #[inline]
    pub(crate) fn seq(&self) -> u64 {
        self.cs & (EVENT_SEQ_LIMIT - 1)
    }

    /// Index of the target component (also its index in the netlist's
    /// cell array).
    #[inline]
    pub(crate) fn component_index(&self) -> usize {
        (self.cs >> EVENT_SEQ_BITS) as usize
    }

    /// The raw pin byte: the input-pin index, or a relay delivery's flag,
    /// pin and table index (see [`Event`]).
    #[inline]
    pub(crate) fn pin_byte(&self) -> u8 {
        self.tp as u8
    }

    /// Target input-pin index on the component, with a relay delivery's
    /// real pin decoded from its flagged byte.
    #[inline]
    pub(crate) fn pin(&self) -> u8 {
        let byte = self.pin_byte();
        if byte & RELAY_FLAG == 0 {
            byte
        } else {
            (byte >> RELAY_PIN_SHIFT) & (RELAY_PIN_LIMIT - 1)
        }
    }

    /// The target pin, reassembled.
    #[inline]
    pub(crate) fn target(&self) -> Pin {
        Pin::new(ComponentId(self.component_index() as u32), self.pin())
    }

    /// The total ordering key: `(time, component id, sequence)` — packed
    /// as `(tp >> 8, cs)`, which compares identically.
    fn key(&self) -> EventKey {
        (self.tp >> EVENT_PIN_BITS, self.cs)
    }
}

impl std::fmt::Debug for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Event")
            .field("time", &self.time())
            .field("seq", &self.seq())
            .field("target", &self.target())
            .finish()
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Which pending-event scheduler a [`Simulator`](crate::simulator::Simulator)
/// runs on. Both produce byte-identical schedules (see the module docs);
/// they differ only in speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerKind {
    /// Bucketed calendar queue / timing wheel (the production scheduler).
    #[default]
    CalendarQueue,
    /// The seed `BinaryHeap` scheduler (the differential reference).
    ReferenceHeap,
}

impl SchedulerKind {
    /// Every scheduler, reference first — the order differential tests
    /// iterate.
    pub const ALL: [SchedulerKind; 2] =
        [SchedulerKind::ReferenceHeap, SchedulerKind::CalendarQueue];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::CalendarQueue => "calendar-queue",
            SchedulerKind::ReferenceHeap => "reference-heap",
        }
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(self.label())
    }
}

/// Width of one calendar-queue bucket. One picosecond: SFQ gate and wire
/// delays are a few picoseconds, so the events of one delivery burst
/// spread over a handful of buckets instead of piling into one.
const BUCKET_WIDTH_FS: u64 = 1_000;

/// Number of calendar-queue buckets (a power-of-two multiple of 64).
/// 4096 × 1 ps ≈ 4.1 ns of horizon — an order of magnitude more than the
/// 400 ps gap between register-file operations, so overflow migration is
/// rare. The ring's fixed footprint is its 16 KiB of `u32` list heads.
const NUM_BUCKETS: usize = 4096;

/// Words of the occupancy bitmap (64 slots each).
const WORDS: usize = {
    assert!(
        NUM_BUCKETS.is_power_of_two() && NUM_BUCKETS >= 64,
        "ring must be a power of two of at least 64 slots"
    );
    NUM_BUCKETS / 64
};

/// Ends a wheel-store list (a slot's bucket or the free list).
const NIL: u32 = u32::MAX;

/// One wheel-store slab node: a seated event and the next node of its
/// list.
#[derive(Debug, Clone, Copy)]
struct Node {
    ev: Event,
    next: u32,
}

/// The calendar queue's timing wheel: [`NUM_BUCKETS`] slots of
/// [`BUCKET_WIDTH_FS`] femtoseconds, a cursor, and an overflow heap.
///
/// Slots cover the ticks `cur_tick .. cur_tick + NUM_BUCKETS`; later
/// events wait in `overflow` and migrate into the wheel as the cursor
/// approaches them. A slot's bucket is an unsorted singly linked list
/// threaded through one shared slab: `heads` holds each slot's first node
/// (`NIL` when empty), and the nodes of a drained bucket go onto a free
/// list that later seats reuse, whichever slot they land in. Storage is
/// therefore bounded by the peak number of events seated *at once* (a
/// `Vec` per slot would keep every slot's high-water capacity, growing
/// toward `NUM_BUCKETS` × the largest burst as bursts rotate around the
/// ring). An occupancy bitmap (word `w` shadows the 64 heads of
/// `heads[w]`) lets the cursor skip empty slots a word at a time.
///
/// The store never orders events: a drained bucket comes out in list
/// order and the queue sorts it by the total event order before serving
/// it, so storage order never shows through.
#[derive(Debug)]
struct WheelStore {
    /// First node of each slot's list: slot `s` is `heads[s >> 6][s & 63]`.
    heads: Box<[[u32; 64]; WORDS]>,
    /// One bit per slot: set iff the slot's list is non-empty.
    occupied: [u64; WORDS],
    /// Every node ever allocated, seated or free — so its length is the
    /// peak number of events ever seated at once.
    nodes: Vec<Node>,
    /// Head of the free-node list (`NIL` when every node is seated).
    free: u32,
    /// Events seated in slot lists (excluding `overflow`).
    seated: usize,
    /// Absolute tick (bucket-width multiple) of the cursor slot. It moves
    /// back only through [`rebuild_at`](Self::rebuild_at).
    cur_tick: u64,
    /// Far-future events (tick ≥ `cur_tick + NUM_BUCKETS` when seated).
    overflow: BinaryHeap<Reverse<Event>>,
}

impl WheelStore {
    fn new() -> Self {
        WheelStore {
            heads: Box::new([[NIL; 64]; WORDS]),
            occupied: [0; WORDS],
            nodes: Vec::new(),
            free: NIL,
            seated: 0,
            cur_tick: 0,
            overflow: BinaryHeap::new(),
        }
    }

    /// The bucket tick an event belongs to.
    #[inline]
    fn tick_of(ev: &Event) -> u64 {
        ev.time_fs() / BUCKET_WIDTH_FS
    }

    /// Events held, seated or in overflow.
    #[inline]
    fn len(&self) -> usize {
        self.seated + self.overflow.len()
    }

    /// Places an event relative to the current window: at the head of its
    /// slot's list (reusing a free node if there is one), or in overflow
    /// past the horizon.
    #[inline]
    fn seat(&mut self, ev: Event) {
        let tick = Self::tick_of(&ev);
        debug_assert!(tick >= self.cur_tick, "event scheduled behind the cursor");
        if tick >= self.cur_tick + NUM_BUCKETS as u64 {
            self.overflow.push(Reverse(ev));
            return;
        }
        let slot = (tick as usize) & (NUM_BUCKETS - 1);
        let (word, bit) = (slot >> 6, slot & 63);
        let node = Node {
            ev,
            next: self.heads[word][bit],
        };
        let idx = if self.free == NIL {
            let idx = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("wheel store full: 2^32 - 1 events seated at once");
            self.nodes.push(node);
            idx
        } else {
            let idx = self.free;
            self.free = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
            idx
        };
        self.heads[word][bit] = idx;
        self.occupied[word] |= 1 << bit;
        self.seated += 1;
    }

    /// Appends the events of an occupied slot to `out` in list order,
    /// empties the slot, and splices its nodes onto the free list.
    #[inline]
    fn drain_slot(&mut self, slot: usize, out: &mut Vec<Event>) {
        let (word, bit) = (slot >> 6, slot & 63);
        let head = std::mem::replace(&mut self.heads[word][bit], NIL);
        debug_assert!(head != NIL, "draining an empty slot");
        self.occupied[word] &= !(1 << bit);
        let mut last = head;
        loop {
            let node = self.nodes[last as usize];
            out.push(node.ev);
            self.seated -= 1;
            if node.next == NIL {
                break;
            }
            last = node.next;
        }
        self.nodes[last as usize].next = self.free;
        self.free = head;
    }

    /// Distance (in slots, `0..NUM_BUCKETS`) from the cursor slot to the first
    /// occupied slot, scanning the bitmap circularly a word at a time.
    /// Caller guarantees `seated > 0`, so a set bit exists.
    #[inline]
    fn next_occupied_distance(&self) -> usize {
        let cur_slot = (self.cur_tick as usize) & (NUM_BUCKETS - 1);
        let word0 = cur_slot >> 6;
        // Mask off the bits below the cursor in its own word.
        let masked = self.occupied[word0] & (u64::MAX << (cur_slot & 63));
        if masked != 0 {
            return (word0 << 6 | masked.trailing_zeros() as usize) - cur_slot;
        }
        for i in 1..=WORDS {
            let w = (word0 + i) & (WORDS - 1);
            let bits = self.occupied[w];
            if bits != 0 {
                let slot = w << 6 | bits.trailing_zeros() as usize;
                return (slot + NUM_BUCKETS - cur_slot) & (NUM_BUCKETS - 1);
            }
        }
        unreachable!("events seated but the occupancy bitmap is empty");
    }

    /// Moves the cursor to the earliest held bucket and appends its events
    /// to `out`, unsorted. Caller guarantees `len() > 0`.
    ///
    /// With no event seated the cursor first jumps straight to the
    /// earliest overflow event. Then every overflow event that now fits
    /// inside the horizon is seated — each migrates at most once, so this
    /// is amortised `O(log n)` per event — after which every remaining
    /// overflow event is strictly later than every seated one, and the
    /// bitmap scan alone finds the earliest bucket.
    #[inline]
    fn advance_into(&mut self, out: &mut Vec<Event>) {
        if self.seated == 0 {
            let Reverse(next) = self.overflow.peek().expect("len > 0");
            self.cur_tick = Self::tick_of(next);
        }
        while let Some(Reverse(ev)) = self.overflow.peek() {
            if Self::tick_of(ev) >= self.cur_tick + NUM_BUCKETS as u64 {
                break;
            }
            let Reverse(ev) = self.overflow.pop().expect("peeked");
            self.seat(ev);
        }
        self.cur_tick += self.next_occupied_distance() as u64;
        self.drain_slot((self.cur_tick as usize) & (NUM_BUCKETS - 1), out);
    }

    /// Re-seats `pending` and every event held here against a window
    /// starting at `new_tick`.
    ///
    /// Only needed after a deadline-bounded run reseated a popped event
    /// (advancing the cursor to it) and the caller then injected an
    /// earlier stimulus: rewinding the cursor alone could alias slots.
    /// Rare, bounded by queue size, and deterministic (ordering is carried
    /// by the event keys, not by storage); the drained nodes are reused,
    /// so the slab does not grow.
    fn rebuild_at(&mut self, new_tick: u64, mut pending: Vec<Event>) {
        for word in 0..WORDS {
            while self.occupied[word] != 0 {
                let bit = self.occupied[word].trailing_zeros() as usize;
                self.drain_slot(word << 6 | bit, &mut pending);
            }
        }
        pending.extend(self.overflow.drain().map(|Reverse(ev)| ev));
        self.cur_tick = new_tick;
        for ev in pending {
            self.seat(ev);
        }
    }
}

/// The bucketed calendar queue.
///
/// Future events sit unsorted in a [`WheelStore`] of 1 ps buckets.
/// Popping *drains in batch*: the wheel moves the first occupied bucket
/// into the scratch buffer `drain`, which is sorted once by the total
/// event order (descending, so serving pops from the tail) and then served
/// event by event — `O(k log k)` per k-event bucket instead of the
/// `O(k²)` of a per-pop minimum scan. Same-tick events pushed while the
/// batch is being served merge into the sorted buffer at their ordered
/// position, so storage order never shows through.
#[derive(Debug)]
pub(crate) struct CalendarQueue {
    wheel: WheelStore,
    /// The bucket currently being served, sorted descending by key (the
    /// minimum at the tail). Every event in it has the wheel cursor's
    /// tick; every event still in the wheel is at a strictly later tick,
    /// so the tail is always the global minimum.
    drain: Vec<Event>,
}

impl CalendarQueue {
    fn new() -> Self {
        CalendarQueue {
            wheel: WheelStore::new(),
            drain: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.wheel.len() + self.drain.len()
    }

    #[inline]
    fn push(&mut self, ev: Event) {
        let tick = WheelStore::tick_of(&ev);
        if tick < self.wheel.cur_tick {
            // Behind the cursor: re-seat everything, the half-served
            // batch included, against the rewound window.
            self.wheel.rebuild_at(tick, std::mem::take(&mut self.drain));
        } else if tick == self.wheel.cur_tick && !self.drain.is_empty() {
            // The cursor bucket is mid-drain: merge the newcomer into the
            // sorted buffer at its ordered position (it can rank below
            // events not yet served — e.g. a zero-ish-delay wire to a
            // lower component id at the same instant).
            let at = self.drain.partition_point(|e| e.key() > ev.key());
            self.drain.insert(at, ev);
            return;
        }
        self.wheel.seat(ev);
    }

    #[inline]
    fn pop(&mut self) -> Option<Event> {
        // Serve the sorted batch first: its tail is the global minimum.
        if let Some(ev) = self.drain.pop() {
            return Some(ev);
        }
        if self.wheel.len() == 0 {
            return None;
        }
        // Drain the next bucket in one batch, sorted descending so serving
        // pops cheaply from the tail.
        self.wheel.advance_into(&mut self.drain);
        self.drain.sort_unstable_by_key(|e| Reverse(e.key()));
        self.drain.pop()
    }
}

/// The seed scheduler: a plain binary min-heap.
#[derive(Debug, Default)]
pub(crate) struct HeapQueue {
    heap: BinaryHeap<Reverse<Event>>,
}

impl HeapQueue {
    fn len(&self) -> usize {
        self.heap.len()
    }

    fn push(&mut self, ev: Event) {
        self.heap.push(Reverse(ev));
    }

    fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|Reverse(ev)| ev)
    }
}

/// The scheduler actually owned by a simulator.
#[derive(Debug)]
pub(crate) enum Queue {
    Wheel(Box<CalendarQueue>),
    Heap(HeapQueue),
}

impl Queue {
    pub fn new(kind: SchedulerKind) -> Self {
        match kind {
            SchedulerKind::CalendarQueue => Queue::Wheel(Box::new(CalendarQueue::new())),
            SchedulerKind::ReferenceHeap => Queue::Heap(HeapQueue::default()),
        }
    }

    pub fn kind(&self) -> SchedulerKind {
        match self {
            Queue::Wheel(_) => SchedulerKind::CalendarQueue,
            Queue::Heap(_) => SchedulerKind::ReferenceHeap,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Queue::Wheel(q) => q.len(),
            Queue::Heap(q) => q.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    pub fn push(&mut self, ev: Event) {
        match self {
            Queue::Wheel(q) => q.push(ev),
            Queue::Heap(q) => q.push(ev),
        }
    }

    #[inline]
    pub fn pop(&mut self) -> Option<Event> {
        match self {
            Queue::Wheel(q) => q.pop(),
            Queue::Heap(q) => q.pop(),
        }
    }
}

/// Test-only scripting surface for the scheduler torture suite.
///
/// `Event` and `Queue` are crate-private on purpose — simulation code
/// must go through [`Simulator`](crate::simulator::Simulator) — but the
/// workspace-level `tests/scheduler_torture.rs` property suite needs to
/// drive *raw* push/pop interleavings (behind-cursor pushes, wheel
/// wrap-around, overflow migration) that no well-formed netlist can
/// produce. This module is that escape hatch: a
/// replay function over an opaque op script and an op-at-a-time `Stepper`,
/// exposing only the popped `(time_fs, component, seq)` triples, the
/// pending count, and the wheel store's retained node count (for the
/// storage-bound test). Hidden from docs; not a stable API.
#[doc(hidden)]
pub mod torture {
    use super::{Event, Queue, SchedulerKind};
    use crate::netlist::{ComponentId, Pin};
    use crate::time::Time;

    /// One scripted queue operation.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Op {
        /// Push an event at `time_fs` targeting input pin 0 of
        /// `component`. Sequence numbers are assigned in script order.
        Push { time_fs: u64, component: u32 },
        /// Pop the current minimum; a pop on an empty queue is a no-op.
        Pop,
    }

    /// Builds an event at `time_fs` targeting input pin 0 of
    /// `component` — the single construction site shared by the replay
    /// driver, the queue unit tests, and the queue microbench, so a
    /// change to the `Event` packing is a one-site change for the whole
    /// test corpus.
    pub(crate) fn event(time_fs: u64, component: u32, seq: u64) -> Event {
        Event::new(
            Time::from_fs(time_fs),
            seq,
            Pin::new(ComponentId(component), 0),
        )
    }

    /// The `(bucket width in fs, buckets)` of a wheel scheduler's ring,
    /// or `None` for the heap — so the torture and storage tests can aim
    /// events at bucket boundaries, wrap the ring, and force overflow
    /// migration.
    pub const fn wheel_geometry(kind: SchedulerKind) -> Option<(u64, u64)> {
        match kind {
            SchedulerKind::CalendarQueue => {
                Some((super::BUCKET_WIDTH_FS, super::NUM_BUCKETS as u64))
            }
            SchedulerKind::ReferenceHeap => None,
        }
    }

    /// A fresh queue of one kind, driven an operation at a time and
    /// reporting popped events as `(time_fs, component, seq)` triples.
    #[derive(Debug)]
    pub struct Stepper {
        q: Queue,
        seq: u64,
    }

    impl Stepper {
        /// A fresh, empty queue of `kind`.
        pub fn new(kind: SchedulerKind) -> Self {
            Stepper {
                q: Queue::new(kind),
                seq: 0,
            }
        }

        /// Pushes an event at `time_fs` targeting input pin 0 of
        /// `component`. Sequence numbers are assigned in push order.
        pub fn push(&mut self, time_fs: u64, component: u32) {
            self.q.push(event(time_fs, component, self.seq));
            self.seq += 1;
        }

        /// Pops the current minimum.
        pub fn pop(&mut self) -> Option<(u64, u32, u64)> {
            let ev = self.q.pop()?;
            Some((ev.time_fs(), ev.component_index() as u32, ev.seq()))
        }

        /// Pending events.
        pub fn len(&self) -> usize {
            self.q.len()
        }

        /// True when nothing is pending.
        pub fn is_empty(&self) -> bool {
            self.q.is_empty()
        }

        /// Event nodes the wheel store retains — seated or on its free
        /// list — or `None` for the heap. The slab never shrinks, so this
        /// is the wheel's storage high-water mark, in events.
        pub fn wheel_nodes(&self) -> Option<usize> {
            match &self.q {
                Queue::Wheel(q) => Some(q.wheel.nodes.len()),
                Queue::Heap(_) => None,
            }
        }
    }

    /// Replays `script` against a fresh queue of `kind` and returns every
    /// popped `(time_fs, component, seq)` triple — the scripted pops
    /// first, then a full drain. Two kinds replaying the same script must
    /// return identical vectors; that is the torture suite's oracle.
    pub fn replay(kind: SchedulerKind, script: &[Op]) -> Vec<(u64, u32, u64)> {
        let mut q = Stepper::new(kind);
        let mut out = Vec::new();
        for &op in script {
            match op {
                Op::Push { time_fs, component } => q.push(time_fs, component),
                Op::Pop => out.extend(q.pop()),
            }
        }
        out.extend(std::iter::from_fn(|| q.pop()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time_ps: f64, seq: u64, comp: u32) -> Event {
        torture::event(Time::from_ps(time_ps).as_fs(), comp, seq)
    }

    /// Drains a queue and returns the popped `(time, seq)` pairs.
    fn drain(q: &mut Queue) -> Vec<(Time, u64)> {
        std::iter::from_fn(|| q.pop())
            .map(|e| (e.time(), e.seq()))
            .collect()
    }

    #[test]
    fn event_packing_round_trips_every_field() {
        let pin = Pin::new(
            ComponentId((EVENT_COMPONENT_LIMIT - 1) as u32),
            INPUT_PIN_LIMIT - 1,
        );
        let e = Event::new(
            Time::from_fs(EVENT_TIME_LIMIT_FS - 1),
            EVENT_SEQ_LIMIT - 1,
            pin,
        );
        assert_eq!(e.time_fs(), EVENT_TIME_LIMIT_FS - 1);
        assert_eq!(e.seq(), EVENT_SEQ_LIMIT - 1);
        assert_eq!(e.target(), pin);
        assert_eq!(e.pin(), 0x7F);
        assert_eq!(e.pin_byte(), 0x7F);
        assert_eq!(e.component_index() as u64, EVENT_COMPONENT_LIMIT - 1);
    }

    #[test]
    fn a_flagged_pin_byte_decodes_to_its_real_pin_and_keeps_the_order() {
        let plain = Event::new(Time::from_fs(9_000), 3, Pin::new(ComponentId(6), 0));
        for pin in 0..RELAY_PIN_LIMIT {
            for index in [0u8, 1, (RELAY_TABLE_LEN - 1) as u8] {
                let byte = RELAY_FLAG | pin << RELAY_PIN_SHIFT | index;
                let e = Event::from_words(
                    9_000 << EVENT_PIN_BITS | u64::from(byte),
                    6 << EVENT_SEQ_BITS | 3,
                );
                assert_eq!(e.pin_byte(), byte);
                assert_eq!(e.pin(), pin);
                assert_eq!(e.target(), Pin::new(ComponentId(6), pin));
                assert_eq!((e.time_fs(), e.component_index(), e.seq()), (9_000, 6, 3));
                // The pin byte is not part of the order key.
                assert_eq!(e.cmp(&plain), std::cmp::Ordering::Equal);
            }
        }
    }

    #[test]
    #[should_panic(expected = "56-bit packed window")]
    fn event_time_overflow_panics_with_widening_note() {
        let _ = Event::new(
            Time::from_fs(EVENT_TIME_LIMIT_FS),
            0,
            Pin::new(ComponentId(0), 0),
        );
    }

    #[test]
    #[should_panic(expected = "40-bit packed window")]
    fn event_seq_overflow_panics_with_widening_note() {
        let _ = Event::new(
            Time::from_fs(0),
            EVENT_SEQ_LIMIT,
            Pin::new(ComponentId(0), 0),
        );
    }

    #[test]
    #[should_panic(expected = "24-bit packed window")]
    fn event_component_overflow_panics_with_widening_note() {
        let pin = Pin::new(ComponentId(EVENT_COMPONENT_LIMIT as u32), 0);
        let _ = Event::new(Time::from_fs(0), 0, pin);
    }

    #[test]
    fn default_kind_is_the_calendar_queue() {
        assert_eq!(SchedulerKind::default(), SchedulerKind::CalendarQueue);
        assert_eq!(
            Queue::new(SchedulerKind::default()).kind(),
            SchedulerKind::CalendarQueue
        );
    }

    #[test]
    fn all_queues_pop_in_identical_order() {
        // A mix of same-bucket, cross-bucket, and far-overflow events.
        let script = [
            ev(5.0, 0, 3),
            ev(5.0, 1, 1),
            ev(0.25, 2, 9),
            ev(0.75, 3, 9),
            ev(9_999.0, 4, 2), // beyond the wheel horizon
            ev(5.0, 5, 1),
            ev(4_100.0, 6, 0), // just past the horizon at push time
        ];
        let mut queues: Vec<Queue> = SchedulerKind::ALL.map(Queue::new).into();
        for e in script {
            for q in &mut queues {
                q.push(e);
            }
        }
        let reference = drain(&mut queues[0]);
        for q in &mut queues[1..] {
            assert_eq!(drain(q), reference, "{}", q.kind());
        }
    }

    #[test]
    fn same_time_same_component_pops_in_insertion_order() {
        for kind in SchedulerKind::ALL {
            let mut q = Queue::new(kind);
            q.push(ev(7.0, 10, 4));
            q.push(ev(7.0, 11, 4));
            q.push(ev(7.0, 12, 4));
            let seqs: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq()).collect();
            assert_eq!(seqs, vec![10, 11, 12], "{kind}");
        }
    }

    #[test]
    fn same_time_ties_break_on_component_id_first() {
        for kind in SchedulerKind::ALL {
            let mut q = Queue::new(kind);
            // Inserted high-component first: component id outranks
            // insertion order at equal times.
            q.push(ev(7.0, 0, 9));
            q.push(ev(7.0, 1, 2));
            let comps: Vec<u32> = std::iter::from_fn(|| q.pop())
                .map(|e| e.component_index() as u32)
                .collect();
            assert_eq!(comps, vec![2, 9], "{kind}");
        }
    }

    #[test]
    fn push_behind_cursor_rebuilds_correctly() {
        // The deadline-bounded-run pattern: pop advances the cursor, the
        // event is reseated, then an earlier stimulus arrives.
        for kind in SchedulerKind::ALL {
            let mut q = Queue::new(kind);
            q.push(ev(10.0, 0, 1));
            let reseat = q.pop().expect("pending");
            q.push(reseat);
            q.push(ev(4.0, 1, 1));
            q.push(ev(9_999.0, 2, 1)); // far event to exercise overflow re-seating
            let seqs: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq()).collect();
            assert_eq!(seqs, vec![1, 0, 2], "{kind}");
        }
    }

    #[test]
    fn interleaved_push_pop_matches_heap() {
        // Push/pop interleaving with a seeded pseudo-random script, the
        // way a running simulator uses the queue (pops advance time, new
        // pushes land at or after the popped time). The heap is the
        // oracle; the calendar queue must mirror it pop for pop.
        let mut rng = crate::rng::Rng64::new(0xD1FF);
        let mut heap = Queue::new(SchedulerKind::ReferenceHeap);
        let mut wheel = Queue::new(SchedulerKind::CalendarQueue);
        let mut seq = 0u64;
        let mut now_fs = 0u64;
        let mut popped = Vec::new();
        for _ in 0..2_000 {
            if heap.is_empty() || rng.next_f64() < 0.6 {
                // Delays from sub-bucket to beyond-horizon scale.
                let delay_fs = [120, 500, 2_500, 40_000, 5_000_000][rng.next_below(5)]
                    + rng.next_below(997) as u64;
                let e = torture::event(now_fs + delay_fs, rng.next_below(7) as u32, seq);
                seq += 1;
                heap.push(e);
                wheel.push(e);
            } else {
                let a = heap.pop().expect("non-empty");
                let b = wheel.pop().expect("mirrors heap");
                assert_eq!(a, b);
                now_fs = a.time_fs();
                popped.push(a);
            }
            assert_eq!(heap.len(), wheel.len());
        }
        let reference = drain(&mut heap);
        assert_eq!(drain(&mut wheel), reference);
        assert!(popped.windows(2).all(|w| w[0].time() <= w[1].time()));
    }
}

#[cfg(test)]
mod bench {
    use super::*;
    use std::time::Instant;

    #[test]
    #[ignore]
    fn queue_only_throughput() {
        for kind in [SchedulerKind::CalendarQueue, SchedulerKind::ReferenceHeap] {
            let mut q = Queue::new(kind);
            let n: u64 = 2_000_000;
            let t0 = Instant::now();
            let mut now_fs = 0u64;
            let mut seq = 0u64;
            // steady state: 1 in flight, 3ps hops
            q.push(torture::event(0, 0, 0));
            for _ in 0..n {
                let ev = q.pop().unwrap();
                now_fs = ev.time_fs();
                seq += 1;
                q.push(torture::event(
                    now_fs + 3_000,
                    ev.component_index() as u32,
                    seq,
                ));
            }
            let el = t0.elapsed();
            eprintln!(
                "{kind}: {:.1} ns/pop+push (1 in flight)",
                el.as_nanos() as f64 / n as f64
            );
            // deeper queue: 64 in flight
            let mut q = Queue::new(kind);
            for i in 0..64u64 {
                q.push(torture::event(i * 500, i as u32, i));
            }
            let t0 = Instant::now();
            for _ in 0..n {
                let ev = q.pop().unwrap();
                seq += 1;
                q.push(torture::event(
                    ev.time_fs() + 32_000,
                    ev.component_index() as u32,
                    seq,
                ));
            }
            let el = t0.elapsed();
            eprintln!(
                "{kind}: {:.1} ns/pop+push (64 in flight) now={now_fs}",
                el.as_nanos() as f64 / n as f64
            );
        }
    }
}
