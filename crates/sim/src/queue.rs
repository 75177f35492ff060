//! Pending-event schedulers: the calendar queue and the reference heap.
//!
//! The simulator's hot loop is "pop the earliest pending event"; this
//! module provides two interchangeable implementations of that priority
//! queue:
//!
//! * `CalendarQueue` — a bucketed timing wheel (the production
//!   scheduler). Simulation time is divided into 1 ps buckets; pushing an
//!   event appends it to its bucket, and popping jumps to the first
//!   occupied bucket and serves it as one ordered batch, sorting only
//!   what arrived out of order. Events beyond the wheel's horizon wait in
//!   an overflow heap and migrate into the wheel as the cursor approaches
//!   them. For the pulse workloads here (many events clustered within a
//!   few picoseconds, operations hundreds of picoseconds apart) this
//!   replaces the `O(log n)` binary-heap sift with `O(1)` pushes and short
//!   bitmap scans. The wheel is a `WheelStore`: per-slot chains of
//!   16-event blocks from one pool with a free list, filled in push order
//!   through a per-slot write cursor, an occupancy bitmap, the cursor, and
//!   the overflow heap. Its storage is bounded by the peak number of
//!   events pending at once, in whole blocks, plus one partly filled
//!   block per occupied slot, wherever on the ring they land.
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
//! buckets in push order and still replay the heap's schedule pulse for
//! pulse.

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
/// falls out of comparing `(tp >> 8) << 64 | cs` — `cs` already orders by
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
type EventKey = u128;

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
        self.component() as usize
    }

    /// The target component's index, as its packed field.
    #[inline]
    fn component(&self) -> u64 {
        self.cs >> EVENT_SEQ_BITS
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
    /// as `(tp >> 8) << 64 | cs`, which compares identically and in one
    /// wide comparison.
    #[inline]
    fn key(&self) -> EventKey {
        u128::from(self.tp >> EVENT_PIN_BITS) << 64 | u128::from(self.cs)
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
/// rare. The ring's fixed footprint is its 32 KiB of `u32` block heads
/// and write cursors.
const NUM_BUCKETS: usize = 4096;

/// Words of the occupancy bitmap (64 slots each).
const WORDS: usize = {
    assert!(
        NUM_BUCKETS.is_power_of_two() && NUM_BUCKETS >= 64,
        "ring must be a power of two of at least 64 slots"
    );
    NUM_BUCKETS / 64
};

/// Bits of a slot cursor holding the position inside its block.
const BLOCK_BITS: u32 = 4;

/// Events per wheel-store block.
const BLOCK: usize = 1 << BLOCK_BITS;

/// Exclusive upper bound on a block index: a slot cursor packs
/// `block << BLOCK_BITS | position` into a `u32`, and the all-ones
/// cursor is [`EMPTY`], so the last block index is never handed out.
const BLOCK_LIMIT: usize = (u32::MAX >> BLOCK_BITS) as usize;

/// The cursor of an empty slot, and the end of the free-block list.
const EMPTY: u32 = u32::MAX;

/// Buckets smaller than this go straight to the comparison sort; larger
/// ones are classified first (see [`BucketOrder`]).
const RADIX_MIN: usize = 128;

/// The cursor of a block's first event.
///
/// # Panics
///
/// Panics if `block` does not fit the cursor's 28 block bits.
#[inline]
fn block_cursor(block: usize) -> u32 {
    assert!(
        block < BLOCK_LIMIT,
        "wheel block {block} exceeds the 28-bit slot cursor — widen the cursor"
    );
    (block as u32) << BLOCK_BITS
}

/// The calendar queue's timing wheel: [`NUM_BUCKETS`] slots of
/// [`BUCKET_WIDTH_FS`] femtoseconds, a cursor, and an overflow heap.
///
/// Slots cover the ticks `cur_tick .. cur_tick + NUM_BUCKETS`; later
/// events wait in `overflow` and migrate into the wheel as the cursor
/// approaches them. A slot's bucket is a chain of [`BLOCK`]-event blocks
/// from one pool, filled in push order: `heads` holds each slot's first
/// block, and `tails` its write cursor — the position of its last event,
/// `block << BLOCK_BITS | position`, or [`EMPTY`]. A push writes one past
/// the cursor, linking a block from the free list when the tail block is
/// full, so it reads no block. Draining a slot copies its blocks out in
/// push order and splices the chain onto the free list, which later seats
/// reuse, whichever slot they land in. Storage is therefore bounded by
/// the peak number of events seated *at once*, in whole blocks, plus one
/// partly filled block per slot occupied at once (a `Vec` per slot would
/// keep every slot's high-water capacity, growing toward `NUM_BUCKETS` ×
/// the largest burst as bursts rotate around the ring). An occupancy
/// bitmap (bit `s & 63` of word `s >> 6` for slot `s`) lets the cursor
/// skip empty slots a word at a time.
///
/// The store never orders events: a drained bucket comes out in push
/// order, and the queue puts it in the total event order before serving
/// it, so storage order never shows through.
#[derive(Debug)]
struct WheelStore {
    /// First block of each slot's chain (stale while the slot is empty).
    heads: Box<[u32; NUM_BUCKETS]>,
    /// Each slot's write cursor: the position of its last event, or
    /// [`EMPTY`].
    tails: Box<[u32; NUM_BUCKETS]>,
    /// One bit per slot: set iff the slot holds events.
    occupied: [u64; WORDS],
    /// Every block ever allocated, seated or free, [`BLOCK`] events each
    /// — so its length is the store's high-water mark in event slots.
    pool: Vec<Event>,
    /// The block after each block in its chain: a slot's, or the free
    /// list. A chain's last entry is stale until it is linked on.
    links: Vec<u32>,
    /// First block of the free list ([`EMPTY`] when every block is in use).
    free: u32,
    /// Events seated in slots (excluding `overflow`).
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
            heads: Box::new([EMPTY; NUM_BUCKETS]),
            tails: Box::new([EMPTY; NUM_BUCKETS]),
            occupied: [0; WORDS],
            pool: Vec::new(),
            links: Vec::new(),
            free: EMPTY,
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

    /// The cursor of a block's first event, taken from the free list or,
    /// with the free list empty, grown onto the pool.
    #[inline]
    fn take_block(&mut self) -> u32 {
        if self.free == EMPTY {
            return self.grow();
        }
        let block = self.free;
        self.free = self.links[block as usize];
        block << BLOCK_BITS
    }

    #[cold]
    #[inline(never)]
    fn grow(&mut self) -> u32 {
        let cursor = block_cursor(self.links.len());
        self.links.push(EMPTY);
        self.pool
            .extend_from_slice(&[Event::from_words(0, 0); BLOCK]);
        cursor
    }

    /// Writes an event one past its slot's write cursor. `tick` is the
    /// event's, inside the window (`cur_tick .. cur_tick + NUM_BUCKETS`).
    /// Forced inline: it is most of every push.
    #[inline(always)]
    fn seat(&mut self, ev: Event, tick: u64) {
        debug_assert!(
            tick.wrapping_sub(self.cur_tick) < NUM_BUCKETS as u64,
            "seating outside the window"
        );
        let slot = (tick as usize) & (NUM_BUCKETS - 1);
        let tail = self.tails[slot];
        let at = if tail == EMPTY {
            let at = self.take_block();
            self.heads[slot] = at >> BLOCK_BITS;
            self.occupied[slot >> 6] |= 1 << (slot & 63);
            at
        } else if tail as usize & (BLOCK - 1) == BLOCK - 1 {
            let at = self.take_block();
            self.links[(tail >> BLOCK_BITS) as usize] = at >> BLOCK_BITS;
            at
        } else {
            tail + 1
        };
        self.pool[at as usize] = ev;
        self.tails[slot] = at;
        self.seated += 1;
    }

    /// Appends the events of an occupied slot to `out` in push order,
    /// empties the slot, and splices its blocks onto the free list.
    #[inline]
    fn drain_slot(&mut self, slot: usize, out: &mut Vec<Event>) {
        let tail = std::mem::replace(&mut self.tails[slot], EMPTY);
        debug_assert!(tail != EMPTY, "draining an empty slot");
        self.occupied[slot >> 6] &= !(1 << (slot & 63));
        let head = self.heads[slot];
        let last = tail >> BLOCK_BITS;
        let before = out.len();
        let mut block = head;
        while block != last {
            let at = (block as usize) << BLOCK_BITS;
            out.extend_from_slice(&self.pool[at..at + BLOCK]);
            block = self.links[block as usize];
        }
        let at = (last as usize) << BLOCK_BITS;
        out.extend_from_slice(&self.pool[at..=tail as usize]);
        self.links[last as usize] = self.free;
        self.free = head;
        self.seated -= out.len() - before;
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
    /// to `out`, in push order. Caller guarantees an event is held.
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
            let Reverse(next) = self.overflow.peek().expect("an event is held");
            self.cur_tick = Self::tick_of(next);
        }
        while let Some(Reverse(ev)) = self.overflow.peek() {
            let tick = Self::tick_of(ev);
            if tick >= self.cur_tick + NUM_BUCKETS as u64 {
                break;
            }
            let Reverse(ev) = self.overflow.pop().expect("peeked");
            self.seat(ev, tick);
        }
        self.cur_tick += self.next_occupied_distance() as u64;
        self.drain_slot((self.cur_tick as usize) & (NUM_BUCKETS - 1), out);
    }

    /// Re-seats the events of `pending` and every event held here against
    /// a window starting at `new_tick`, leaving `pending` empty.
    ///
    /// Only needed after a deadline-bounded run reseated a popped event
    /// (advancing the cursor to it) and the caller then injected an
    /// earlier stimulus: rewinding the cursor alone could alias slots.
    /// Rare, bounded by queue size, and deterministic (ordering is carried
    /// by the event keys, not by storage); the drained blocks are reused,
    /// so the pool does not grow.
    fn rebuild_at(&mut self, new_tick: u64, pending: &mut Vec<Event>) {
        for word in 0..WORDS {
            while self.occupied[word] != 0 {
                let bit = self.occupied[word].trailing_zeros() as usize;
                self.drain_slot(word << 6 | bit, pending);
            }
        }
        pending.extend(self.overflow.drain().map(|Reverse(ev)| ev));
        self.cur_tick = new_tick;
        for ev in pending.drain(..) {
            let tick = Self::tick_of(&ev);
            debug_assert!(tick >= new_tick, "event scheduled behind the cursor");
            if tick - new_tick < NUM_BUCKETS as u64 {
                self.seat(ev, tick);
            } else {
                self.overflow.push(Reverse(ev));
            }
        }
    }

    /// Empties the store as a fresh one is, keeping its pool: every
    /// slot's chain goes onto the free list.
    fn clear(&mut self) {
        for word in 0..WORDS {
            while self.occupied[word] != 0 {
                let bit = self.occupied[word].trailing_zeros() as usize;
                let slot = word << 6 | bit;
                let tail = std::mem::replace(&mut self.tails[slot], EMPTY);
                self.links[(tail >> BLOCK_BITS) as usize] = self.free;
                self.free = self.heads[slot];
                self.occupied[word] &= !(1 << bit);
            }
        }
        self.overflow.clear();
        self.seated = 0;
        self.cur_tick = 0;
    }
}

/// How a drained bucket's push order relates to the total event order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BucketOrder {
    /// Already ascending by key.
    Sorted,
    /// One instant, with sequence numbers ascending in push order, so the
    /// key order is the stable order by component: `min` is the least
    /// component and `bits` the width of the span above it.
    OneInstant { min: u64, bits: u32 },
    /// Anything else: several instants, or a lower sequence number pushed
    /// after a higher one (overflow migration and `rebuild_at` can seat
    /// one so). The comparison sort's first pass finishes one of several
    /// instants already in order.
    Mixed,
}

impl BucketOrder {
    /// Classifies `bucket`. A first pass checks for one instant in key
    /// order, which is all an in-order bucket costs; only a bucket of one
    /// instant out of order takes a second pass, for its sequence order
    /// and component span.
    fn of(bucket: &[Event]) -> BucketOrder {
        let Some((first, rest)) = bucket.split_first() else {
            return BucketOrder::Sorted;
        };
        // Within one instant the key order is the order of `cs`.
        let (mut times, mut descents) = (0, false);
        let mut prev = first.cs;
        for ev in rest {
            times |= ev.tp ^ first.tp;
            descents |= ev.cs < prev;
            prev = ev.cs;
        }
        if times >> EVENT_PIN_BITS != 0 {
            return BucketOrder::Mixed;
        }
        if !descents {
            return BucketOrder::Sorted;
        }
        let mut seq_descents = false;
        let (mut min, mut max) = (first.component(), first.component());
        let mut prev = first.seq();
        for ev in rest {
            seq_descents |= ev.seq() < prev;
            prev = ev.seq();
            min = min.min(ev.component());
            max = max.max(ev.component());
        }
        if seq_descents {
            return BucketOrder::Mixed;
        }
        BucketOrder::OneInstant {
            min,
            bits: u64::BITS - (max - min).leading_zeros(),
        }
    }
}

/// Stable LSD radix sort of `bucket` by component: one pass per byte of
/// the offset above `min` (`bits` wide), ping-ponging through `scratch`,
/// skipping a byte that is the same for every event. Neighbouring events
/// are counted in different tables, so a run of equal bytes does not
/// chain each increment on the one before.
fn radix_by_component(bucket: &mut [Event], scratch: &mut Vec<Event>, min: u64, bits: u32) {
    const WAYS: usize = 4;
    const BYTES: usize = (u64::BITS - EVENT_SEQ_BITS) as usize / 8;
    let n = bucket.len();
    // Pool positions fit a `u32` cursor, so every count fits a `u32`.
    let mut counts = [[[0u32; 256]; WAYS]; BYTES];
    let mut count = |way: usize, ev: &Event| {
        let offset = ev.component() - min;
        for (byte, ways) in counts.iter_mut().enumerate() {
            ways[way][(offset >> (8 * byte)) as u8 as usize] += 1;
        }
    };
    let mut chunks = bucket.chunks_exact(WAYS);
    for chunk in &mut chunks {
        for (way, ev) in chunk.iter().enumerate() {
            count(way, ev);
        }
    }
    for ev in chunks.remainder() {
        count(0, ev);
    }
    if scratch.len() < n {
        scratch.resize(n, Event::from_words(0, 0));
    }
    let (mut src, mut dst) = (bucket, &mut scratch[..n]);
    let mut in_scratch = false;
    for (byte, ways) in counts.iter().enumerate().take(bits.div_ceil(8) as usize) {
        let mut total = [0u32; 256];
        for way in ways {
            for (total, &count) in total.iter_mut().zip(way) {
                *total += count;
            }
        }
        if total.contains(&(n as u32)) {
            continue;
        }
        let mut at = [0u32; 256];
        let mut sum = 0;
        for (at, &total) in at.iter_mut().zip(&total) {
            *at = sum;
            sum += total;
        }
        for &ev in src.iter() {
            let digit = ((ev.component() - min) >> (8 * byte)) as u8 as usize;
            dst[at[digit] as usize] = ev;
            at[digit] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
        in_scratch = !in_scratch;
    }
    if in_scratch {
        dst.copy_from_slice(src);
    }
}

/// The operations an event loop asks of its scheduler.
///
/// The compiled engine's loop is generic over this trait: a run matches
/// the simulator's [`Queue`] once and runs the loop compiled for the
/// scheduler inside, so no event pays an enum match, and the calendar
/// queue's push and pop inline into the loop. The loop is compiled for
/// both implementations, so the reference heap still runs it.
pub(crate) trait Scheduler {
    /// Schedules an event.
    fn push(&mut self, ev: Event);

    /// Removes and returns the least pending event by
    /// `(time, component, seq)`, or `None` when nothing is pending.
    fn pop(&mut self) -> Option<Event>;

    /// Events pending.
    fn len(&self) -> usize;
}

/// The bucketed calendar queue.
///
/// Future events sit in push order in a [`WheelStore`] of 1 ps buckets.
/// Popping *drains in batch*: the wheel copies the first occupied bucket
/// into the buffer `drain`, which is put in ascending key order once and
/// then served from the cursor `next`. Ordering a bucket sorts only what
/// is out of order: a bucket of fewer than [`RADIX_MIN`] events goes
/// straight to the comparison sort (whose first pass finishes one already
/// in order), and a larger one is classified ([`BucketOrder`]) and served
/// as it is, radix-sorted by component, or comparison-sorted.
/// Same-tick events pushed while the batch is being served merge into the
/// buffer at their ordered position, so storage order never shows
/// through.
///
/// Push and pop are split into a hot path, forced inline into the event
/// loop, and out-of-line calls. A pop serves `drain[next]` inline and
/// calls [`refill`](CalendarQueue::refill) once per bucket; a push inside
/// the window writes one past its slot's cursor inline, and the rest (a
/// push behind the cursor, into the bucket being served, or past the
/// horizon, and growing the pool) is cold.
#[derive(Debug)]
pub(crate) struct CalendarQueue {
    wheel: WheelStore,
    /// The bucket being served, ascending by key from `next`. Every event
    /// in it has the wheel cursor's tick; every event still in the wheel
    /// is at a strictly later tick, so `drain[next]` is always the global
    /// minimum.
    drain: Vec<Event>,
    /// Position of the next event of `drain` to serve.
    next: usize,
    /// The radix sort's second buffer.
    scratch: Vec<Event>,
    /// Events pending: unserved in `drain`, seated, or in overflow.
    len: usize,
}

impl CalendarQueue {
    fn new() -> Self {
        CalendarQueue {
            wheel: WheelStore::new(),
            drain: Vec::new(),
            next: 0,
            scratch: Vec::new(),
            len: 0,
        }
    }

    /// The pushes that do not seat inside the window: behind the cursor,
    /// into the bucket being served, or past the horizon. None of them
    /// happens in a steady run, so they stay out of the inlined push.
    #[cold]
    #[inline(never)]
    fn push_cold(&mut self, ev: Event, tick: u64) {
        if tick < self.wheel.cur_tick {
            // Behind the cursor: re-seat everything, the unserved rest of
            // the batch included, against the rewound window, which then
            // starts at the newcomer's tick.
            self.drain.drain(..self.next);
            self.next = 0;
            self.wheel.rebuild_at(tick, &mut self.drain);
            self.wheel.seat(ev, tick);
        } else if tick == self.wheel.cur_tick {
            // The cursor bucket is mid-drain: merge the newcomer into the
            // buffer at its ordered position (it can rank below events not
            // yet served — e.g. a zero-ish-delay wire to a lower component
            // id at the same instant).
            let key = ev.key();
            let at = self.next + self.drain[self.next..].partition_point(|e| e.key() < key);
            self.drain.insert(at, ev);
        } else {
            self.wheel.overflow.push(Reverse(ev));
        }
    }

    /// Moves the wheel to its earliest held bucket and serves that bucket
    /// from the drain buffer, in key order: once per bucket, so out of
    /// line. Caller guarantees an event is held.
    #[inline(never)]
    fn refill(&mut self) {
        self.drain.clear();
        self.wheel.advance_into(&mut self.drain);
        self.order_drain();
        self.next = 0;
    }

    /// Puts a freshly drained bucket in ascending key order.
    #[inline]
    fn order_drain(&mut self) {
        if self.drain.len() < RADIX_MIN {
            self.drain.sort_unstable_by_key(Event::key);
            return;
        }
        match BucketOrder::of(&self.drain) {
            BucketOrder::Sorted => {}
            BucketOrder::OneInstant { min, bits } => {
                radix_by_component(&mut self.drain, &mut self.scratch, min, bits);
            }
            BucketOrder::Mixed => self.drain.sort_unstable_by_key(Event::key),
        }
    }

    /// Empties the queue as a fresh one is, keeping its allocations.
    fn clear(&mut self) {
        self.wheel.clear();
        self.drain.clear();
        self.next = 0;
        self.len = 0;
    }
}

impl Scheduler for CalendarQueue {
    /// Seats the event one past its slot's write cursor, unless it lands
    /// behind the cursor, in the bucket being served, or past the horizon
    /// ([`CalendarQueue::push_cold`]). One wrapping subtraction tells:
    /// a tick behind the cursor wraps past the horizon. Forced inline, as
    /// is `pop`: the event loop pushes from four sites, and a call per
    /// event would cost more than the fast path itself.
    #[inline(always)]
    fn push(&mut self, ev: Event) {
        self.len += 1;
        let tick = WheelStore::tick_of(&ev);
        let ahead = tick.wrapping_sub(self.wheel.cur_tick);
        if ahead < NUM_BUCKETS as u64 && (ahead != 0 || self.next == self.drain.len()) {
            self.wheel.seat(ev, tick);
        } else {
            self.push_cold(ev, tick);
        }
    }

    /// Serves `drain[next]`; an exhausted buffer first takes the next
    /// bucket ([`CalendarQueue::refill`]).
    #[inline(always)]
    fn pop(&mut self) -> Option<Event> {
        if self.next == self.drain.len() {
            if self.len == 0 {
                return None;
            }
            self.refill();
        }
        let ev = self.drain[self.next];
        self.next += 1;
        self.len -= 1;
        Some(ev)
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }
}

/// The seed scheduler: a plain binary min-heap.
#[derive(Debug, Default)]
pub(crate) struct HeapQueue {
    heap: BinaryHeap<Reverse<Event>>,
}

impl HeapQueue {
    fn clear(&mut self) {
        self.heap.clear();
    }
}

impl Scheduler for HeapQueue {
    #[inline]
    fn push(&mut self, ev: Event) {
        self.heap.push(Reverse(ev));
    }

    #[inline]
    fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|Reverse(ev)| ev)
    }

    #[inline]
    fn len(&self) -> usize {
        self.heap.len()
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

    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Queue::Wheel(q) => q.len(),
            Queue::Heap(q) => q.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discards every pending event, keeping the queue's allocations: the
    /// queue then behaves as a fresh one of its kind.
    pub fn clear(&mut self) {
        match self {
            Queue::Wheel(q) => q.clear(),
            Queue::Heap(q) => q.clear(),
        }
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
/// pending count, and the wheel store's retained event slots (for the
/// storage-bound test). Hidden from docs; not a stable API.
#[doc(hidden)]
pub mod torture {
    use super::{Event, Queue, SchedulerKind};
    use crate::netlist::{ComponentId, Pin};
    use crate::time::Time;

    /// Events per block of the wheel store's pool.
    pub const WHEEL_BLOCK_EVENTS: usize = super::BLOCK;

    /// The smallest bucket the calendar queue classifies before ordering
    /// it; smaller ones go straight to the comparison sort.
    pub const RADIX_MIN: usize = super::RADIX_MIN;

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

    /// A queue of one kind, driven an operation at a time and reporting
    /// popped events as `(time_fs, component, seq)` triples.
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

        /// Discards every pending event in place, as `Simulator::restore`
        /// does, and restarts the sequence numbers: the queue then replays
        /// any script exactly as a fresh one does.
        pub fn clear(&mut self) {
            self.q.clear();
            self.seq = 0;
        }

        /// Runs `script`, then drains the queue, and returns every popped
        /// `(time_fs, component, seq)` triple — the scripted pops first.
        pub fn replay(&mut self, script: &[Op]) -> Vec<(u64, u32, u64)> {
            let mut out = Vec::new();
            for &op in script {
                match op {
                    Op::Push { time_fs, component } => self.push(time_fs, component),
                    Op::Pop => out.extend(self.pop()),
                }
            }
            out.extend(std::iter::from_fn(|| self.pop()));
            out
        }

        /// Event slots the wheel store's block pool retains — seated or
        /// free, [`WHEEL_BLOCK_EVENTS`] per block — or `None` for the
        /// heap. The pool never shrinks, so this is the wheel's storage
        /// high-water mark, in events.
        pub fn wheel_event_slots(&self) -> Option<usize> {
            match &self.q {
                Queue::Wheel(q) => Some(q.wheel.pool.len()),
                Queue::Heap(_) => None,
            }
        }
    }

    /// Replays `script` against a fresh queue of `kind` and returns every
    /// popped `(time_fs, component, seq)` triple — the scripted pops
    /// first, then a full drain. Two kinds replaying the same script must
    /// return identical vectors; that is the torture suite's oracle.
    pub fn replay(kind: SchedulerKind, script: &[Op]) -> Vec<(u64, u32, u64)> {
        Stepper::new(kind).replay(script)
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

    /// A single-instant bucket of `n` events with sequence numbers in
    /// push order, components drawn from `base .. base + span` and pins
    /// at random, so a sort that dropped a word would show.
    fn one_instant_bucket(rng: &mut crate::rng::Rng64, n: u64, base: u64, span: u64) -> Vec<Event> {
        (0..n)
            .map(|seq| {
                let component = ComponentId((base + rng.next_u64() % span) as u32);
                let pin = rng.next_below(usize::from(INPUT_PIN_LIMIT)) as u8;
                Event::new(Time::from_fs(42_000), seq, Pin::new(component, pin))
            })
            .collect()
    }

    #[test]
    fn the_radix_sort_matches_the_comparison_sort_on_every_span() {
        let mut rng = crate::rng::Rng64::new(0x2AD1);
        let mut scratch = Vec::new();
        for bits in 0..=24u32 {
            let span = 1u64 << bits;
            for n in [1, 2, 127, 128, 129, 1_000, 4_096] {
                let base = rng.next_u64() % (EVENT_COMPONENT_LIMIT - span + 1);
                let bucket = one_instant_bucket(&mut rng, n, base, span);
                let mut want = bucket.clone();
                want.sort_unstable_by_key(Event::key);
                let mut got = bucket.clone();
                radix_by_component(&mut got, &mut scratch, base, bits);
                assert_eq!(got, want, "span 2^{bits}, {n} events");
                // The classified span sorts the same.
                let mut got = bucket.clone();
                match BucketOrder::of(&got) {
                    BucketOrder::Sorted => {}
                    BucketOrder::OneInstant { min, bits } => {
                        radix_by_component(&mut got, &mut scratch, min, bits);
                    }
                    BucketOrder::Mixed => panic!("a single instant in sequence order"),
                }
                assert_eq!(got, want, "classified span, 2^{bits}, {n} events");
            }
        }
    }

    #[test]
    fn buckets_are_classified_by_what_is_out_of_order() {
        let at = |time_fs, component, seq| torture::event(time_fs, component, seq);
        assert_eq!(BucketOrder::of(&[]), BucketOrder::Sorted);
        assert_eq!(
            BucketOrder::of(&[at(5, 1, 0), at(5, 1, 1), at(5, 2, 2), at(7, 0, 3)]),
            BucketOrder::Mixed,
            "several instants, even in order, go to the comparison sort"
        );
        assert_eq!(
            BucketOrder::of(&[at(5, 1, 0), at(5, 1, 1), at(5, 2, 2)]),
            BucketOrder::Sorted
        );
        assert_eq!(
            BucketOrder::of(&[at(5, 9, 0), at(5, 4, 1), at(5, 6, 2)]),
            BucketOrder::OneInstant { min: 4, bits: 3 }
        );
        assert_eq!(
            BucketOrder::of(&[at(5, 9, 1), at(5, 4, 0)]),
            BucketOrder::Mixed,
            "a lower sequence number pushed after a higher one"
        );
        // The pin byte is not part of the key.
        let pinned = Event::new(Time::from_fs(5), 1, Pin::new(ComponentId(3), 2));
        assert_eq!(BucketOrder::of(&[at(5, 3, 0), pinned]), BucketOrder::Sorted);
    }

    #[test]
    #[should_panic(expected = "28-bit slot cursor")]
    fn a_block_past_the_cursor_width_panics_with_widening_note() {
        // The last block ends where the one block never handed out, the
        // one holding the empty cursor, begins.
        assert_eq!(
            block_cursor(BLOCK_LIMIT - 1) + BLOCK as u32,
            EMPTY - (BLOCK as u32 - 1)
        );
        block_cursor(BLOCK_LIMIT);
    }

    #[test]
    fn a_cleared_queue_keeps_its_pool_and_replays_as_a_fresh_one() {
        let script = |q: &mut Queue| {
            for seq in 0..300u64 {
                // Slots near and far, a few past the horizon.
                let time_fs = (seq * 7_919) % 5_000_000;
                q.push(torture::event(time_fs, (seq % 13) as u32, seq));
            }
            drain(q)
        };
        let mut fresh = Queue::new(SchedulerKind::CalendarQueue);
        let want = script(&mut fresh);
        let mut used = Queue::new(SchedulerKind::CalendarQueue);
        script(&mut used);
        for seq in 0..500u64 {
            used.push(ev(3.0 + seq as f64, seq, 1));
        }
        used.pop();
        let Queue::Wheel(wheel) = &used else {
            unreachable!("a calendar queue")
        };
        let pool = wheel.wheel.pool.len();
        used.clear();
        assert!(used.is_empty());
        assert_eq!(used.pop(), None);
        assert_eq!(script(&mut used), want);
        let Queue::Wheel(wheel) = &used else {
            unreachable!("a calendar queue")
        };
        assert_eq!(
            wheel.wheel.pool.len(),
            pool,
            "the pool is kept, not regrown"
        );
    }

    #[test]
    fn same_instant_pushes_merge_into_a_half_served_bucket() {
        // A bucket larger than the radix threshold, served half-way, then
        // newcomers at the same instant that rank before, between and
        // after the unserved rest.
        for kind in SchedulerKind::ALL {
            let mut q = Queue::new(kind);
            let n = RADIX_MIN as u64 + 40;
            for seq in 0..n {
                q.push(torture::event(8_000, (2 * ((seq * 37) % n)) as u32, seq));
            }
            let mut popped: Vec<u64> = (0..n / 2)
                .map(|_| q.pop().expect("pending").component_index() as u64)
                .collect();
            for (i, component) in [0, 1, n + 1, 2 * n + 5, popped[0] + 1]
                .into_iter()
                .enumerate()
            {
                q.push(torture::event(8_000, component as u32, n + i as u64));
            }
            popped.extend(std::iter::from_fn(|| q.pop()).map(|e| e.component_index() as u64));
            assert_eq!(popped.len() as u64, n + 5, "{kind}");
            assert!(
                popped[..n as usize / 2].windows(2).all(|w| w[0] < w[1]),
                "{kind}: the served half ascends"
            );
            // Each newcomer ranks below the half still unserved or after.
            let rest = &popped[n as usize / 2..];
            assert!(rest.windows(2).all(|w| w[0] <= w[1]), "{kind}: {rest:?}");
        }
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
