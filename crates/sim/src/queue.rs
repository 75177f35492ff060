//! Pending-event schedulers: the calendar queue, the lane-batched
//! horizon queue, and the reference heap.
//!
//! The simulator's hot loop is "pop the earliest pending event"; this
//! module provides three interchangeable implementations of that priority
//! queue:
//!
//! * `CalendarQueue` — a bucketed timing wheel (the default). Simulation
//!   time is divided into 1 ps buckets; pushing an event indexes straight
//!   into its bucket, and popping jumps to the first occupied bucket and
//!   serves it as one sorted batch. Events beyond the wheel's horizon wait
//!   in an overflow heap and migrate into the wheel as the cursor
//!   approaches them. For the pulse workloads here (many events clustered
//!   within a few picoseconds, operations hundreds of picoseconds apart)
//!   this replaces the `O(log n)` binary-heap sift with `O(1)` pushes and
//!   short bitmap scans.
//! * `LaneBatchedQueue` — the scheduler-overhaul part-2 design. A much
//!   smaller wheel (256 × 16 ps) drains a whole same-horizon bucket as one
//!   ascending-sorted batch served by a cursor, so popping is a cursor
//!   increment instead of a heap/bucket transaction. Pushes landing
//!   *inside* the horizon being served bypass the wheel entirely: they go
//!   to the target cell's small fixed-capacity self-echo lane (spilling
//!   to a shared insertion buffer) and are lazily sorted and merged into
//!   the batch at the next pop. See the type docs for the invariants.
//!
//!   Both wheels are one `WheelStore` at two shapes: bucket lists threaded
//!   through a single slab of events with a free list, an occupancy
//!   bitmap, the cursor, and the overflow heap. Its storage is bounded by
//!   the peak number of events pending at once, wherever on the ring they
//!   land.
//! * `HeapQueue` — the seed `BinaryHeap` implementation, kept as the
//!   differential reference. The `reference-queue` cargo feature makes it
//!   the default scheduler of [`Simulator::new`](crate::simulator::Simulator::new)
//!   (and `lane-scheduler` selects the lane-batched queue); all three
//!   implementations are always compiled, so equivalence tests can drive
//!   the same netlist through every scheduler in one process.
//!
//! # Determinism
//!
//! All schedulers order events by the same fully-deterministic key
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
//! buckets unsorted, and the lane-batched queue park same-horizon pushes
//! in per-cell lanes, and still replay the heap's schedule pulse for
//! pulse.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::netlist::{ComponentId, Pin};
use crate::time::Time;

/// A pending pulse delivery, packed into two machine words (16 bytes —
/// down from the seed's 24) so every wheel node, self-echo lane, sorted
/// batch, and heap node carries 1.5× more events per cache line.
///
/// Packing:
///
/// * `tp` = `time_fs << 8 | pin` — 56 bits of femtosecond delivery time
///   (≈ 72 s of simulated time, ~5 000 000× the longest soak) over the
///   8-bit input-pin index.
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

/// The total-order key of an event — see [`Event::key`].
type EventKey = (u64, u64);

impl Event {
    /// Packs a delivery, checking every field against its bit width.
    #[inline]
    pub(crate) fn new(time: Time, seq: u64, target: Pin) -> Event {
        let t = time.as_fs();
        let c = target.component.index() as u64;
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

    /// Index of the target component (also its compiled slot).
    #[inline]
    pub(crate) fn component_index(&self) -> usize {
        (self.cs >> EVENT_SEQ_BITS) as usize
    }

    /// Target input-pin index on the component.
    #[inline]
    pub(crate) fn pin(&self) -> u8 {
        self.tp as u8
    }

    /// The target pin, reassembled.
    #[inline]
    pub(crate) fn target(&self) -> Pin {
        Pin::new(ComponentId(self.component_index() as u32), self.pin())
    }

    /// The `component << 40 | seq` word — the low half of the packed
    /// total-order key, shared with the lane-batched queue's `u128` keys.
    #[inline]
    pub(crate) fn cs_word(&self) -> u64 {
        self.cs
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
/// runs on. All three produce byte-identical schedules (see the module
/// docs); they differ only in speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Bucketed calendar queue / timing wheel (the default fast path).
    CalendarQueue,
    /// The seed `BinaryHeap` scheduler (the differential reference).
    ReferenceHeap,
    /// Lane-batched horizon scheduler: cursor-served sorted batches with
    /// per-cell self-echo lanes (the part-2 fast path).
    LaneBatched,
}

impl SchedulerKind {
    /// Every scheduler, reference first — the order differential tests
    /// iterate.
    pub const ALL: [SchedulerKind; 3] = [
        SchedulerKind::ReferenceHeap,
        SchedulerKind::CalendarQueue,
        SchedulerKind::LaneBatched,
    ];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::CalendarQueue => "calendar-queue",
            SchedulerKind::ReferenceHeap => "reference-heap",
            SchedulerKind::LaneBatched => "lane-batched",
        }
    }

    /// Parses a [`label`](SchedulerKind::label) back into a kind.
    pub fn parse(s: &str) -> Option<SchedulerKind> {
        SchedulerKind::ALL.into_iter().find(|k| k.label() == s)
    }

    /// Runs `f` with `kind` as this thread's default scheduler — what
    /// [`SchedulerKind::default`] (and hence every plain `Simulator`
    /// constructor) returns inside `f`. The previous default is restored
    /// afterwards, including on unwind. This is how a job request pins a
    /// scheduler for code that builds simulators internally (e.g. Monte
    /// Carlo trials) without threading a parameter through every layer.
    pub fn with_thread_default<R>(kind: SchedulerKind, f: impl FnOnce() -> R) -> R {
        crate::pinning::with_override(&THREAD_DEFAULT, kind, f)
    }
}

std::thread_local! {
    static THREAD_DEFAULT: std::cell::Cell<Option<SchedulerKind>> =
        const { std::cell::Cell::new(None) };
}

impl Default for SchedulerKind {
    /// The thread's pinned default if inside
    /// [`SchedulerKind::with_thread_default`]; otherwise the compiled-in
    /// default — the calendar queue, unless the `reference-queue` feature
    /// selects the seed heap or `lane-scheduler` selects the lane-batched
    /// queue (`reference-queue` wins if both are enabled, so differential
    /// builds stay anchored to the seed).
    fn default() -> Self {
        THREAD_DEFAULT.with(std::cell::Cell::get).unwrap_or({
            if cfg!(feature = "reference-queue") {
                SchedulerKind::ReferenceHeap
            } else if cfg!(feature = "lane-scheduler") {
                SchedulerKind::LaneBatched
            } else {
                SchedulerKind::CalendarQueue
            }
        })
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(self.label())
    }
}

/// Ends a wheel-store list (a slot's bucket or the free list).
const NIL: u32 = u32::MAX;

/// One wheel-store slab node: a seated event and the next node of its
/// list.
#[derive(Debug, Clone, Copy)]
struct Node {
    ev: Event,
    next: u32,
}

/// The timing wheel both wheel schedulers keep their future events in:
/// `64 × WORDS` slots of `WIDTH_FS` femtoseconds, a cursor, and an
/// overflow heap.
///
/// Slots cover the ticks `cur_tick .. cur_tick + SLOTS`; later events wait
/// in `overflow` and migrate into the wheel as the cursor approaches them.
/// A slot's bucket is an unsorted singly linked list threaded through one
/// shared slab: `heads` holds each slot's first node (`NIL` when empty),
/// and the nodes of a drained bucket go onto a free list that later seats
/// reuse, whichever slot they land in. Storage is therefore bounded by
/// the peak number of events seated *at once* (a `Vec` per slot would
/// keep every slot's high-water capacity, growing toward `SLOTS` × the
/// largest burst as bursts rotate around the ring). An occupancy bitmap
/// (word `w` shadows the 64 heads of `heads[w]`) lets the cursor skip
/// empty slots a word at a time.
///
/// The store never orders events: a drained bucket comes out in list
/// order and the scheduler sorts it by the total event order before
/// serving it, so storage order never shows through.
#[derive(Debug)]
struct WheelStore<const WORDS: usize, const WIDTH_FS: u64> {
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
    /// Far-future events (tick ≥ `cur_tick + SLOTS` when seated).
    overflow: BinaryHeap<Reverse<Event>>,
}

impl<const WORDS: usize, const WIDTH_FS: u64> WheelStore<WORDS, WIDTH_FS> {
    /// Slots on the ring — a power of two, so a tick maps to its slot by
    /// masking.
    const SLOTS: usize = {
        assert!(WORDS.is_power_of_two(), "ring must be a power of two");
        64 * WORDS
    };

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
        ev.time_fs() / WIDTH_FS
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
        if tick >= self.cur_tick + Self::SLOTS as u64 {
            self.overflow.push(Reverse(ev));
            return;
        }
        let slot = (tick as usize) & (Self::SLOTS - 1);
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

    /// Distance (in slots, `0..SLOTS`) from the cursor slot to the first
    /// occupied slot, scanning the bitmap circularly a word at a time.
    /// Caller guarantees `seated > 0`, so a set bit exists.
    #[inline]
    fn next_occupied_distance(&self) -> usize {
        let cur_slot = (self.cur_tick as usize) & (Self::SLOTS - 1);
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
                return (slot + Self::SLOTS - cur_slot) & (Self::SLOTS - 1);
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
            if Self::tick_of(ev) >= self.cur_tick + Self::SLOTS as u64 {
                break;
            }
            let Reverse(ev) = self.overflow.pop().expect("peeked");
            self.seat(ev);
        }
        self.cur_tick += self.next_occupied_distance() as u64;
        self.drain_slot((self.cur_tick as usize) & (Self::SLOTS - 1), out);
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

/// Width of one calendar-queue bucket. One picosecond: SFQ gate and wire
/// delays are a few picoseconds, so the events of one delivery burst
/// spread over a handful of buckets instead of piling into one.
const BUCKET_WIDTH_FS: u64 = 1_000;

/// Number of calendar-queue buckets (a power-of-two multiple of 64).
/// 4096 × 1 ps ≈ 4.1 ns of horizon — an order of magnitude more than the
/// 400 ps gap between register-file operations, so overflow migration is
/// rare. The ring's fixed footprint is its 16 KiB of `u32` list heads.
const NUM_BUCKETS: usize = 4096;

/// The calendar queue's wheel.
type CalendarWheel = WheelStore<{ NUM_BUCKETS / 64 }, BUCKET_WIDTH_FS>;

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
    wheel: CalendarWheel,
    /// The bucket currently being served, sorted descending by key (the
    /// minimum at the tail). Every event in it has the wheel cursor's
    /// tick; every event still in the wheel is at a strictly later tick,
    /// so the tail is always the global minimum.
    drain: Vec<Event>,
}

impl CalendarQueue {
    fn new() -> Self {
        CalendarQueue {
            wheel: CalendarWheel::new(),
            drain: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.wheel.len() + self.drain.len()
    }

    #[inline]
    fn push(&mut self, ev: Event) {
        let tick = CalendarWheel::tick_of(&ev);
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

/// Width of one lane-batched wheel bucket: 16 ps. Wide enough that an
/// entire delivery burst (SFQ gate and wire delays are a few ps) lands in
/// one bucket and is served as a single sorted batch, instead of paying a
/// bucket transition per picosecond the way the 1 ps calendar wheel does.
const LB_BUCKET_WIDTH_FS: u64 = 16_000;

/// Number of lane-batched wheel buckets (a power-of-two multiple of 64).
/// 256 × 16 ps ≈ 4.1 ns of horizon — the same span as the calendar
/// queue's 4096 × 1 ps, with 1 KiB of list heads and a 4-word bitmap.
const LB_NUM_BUCKETS: usize = 256;

/// The lane-batched queue's wheel.
type LaneWheel = WheelStore<{ LB_NUM_BUCKETS / 64 }, LB_BUCKET_WIDTH_FS>;

/// Capacity of one per-cell self-echo lane. Deliveries that land inside
/// the horizon currently being served are parked on their target cell's
/// lane (bypassing the wheel); a burst deeper than this spills to the
/// shared insertion buffer. Public so the torture suite can aim
/// same-timestamp bursts exactly at the capacity boundary.
pub const LANE_CAPACITY: usize = 4;

/// One cell's self-echo lane: a fixed-capacity inline buffer.
#[derive(Debug, Clone, Copy)]
struct Lane {
    len: u8,
    slots: [Event; LANE_CAPACITY],
}

impl Lane {
    fn empty() -> Self {
        Lane {
            len: 0,
            slots: [Event::from_words(0, 0); LANE_CAPACITY],
        }
    }
}

/// The lane-batched horizon scheduler ("scheduler overhaul, part 2").
///
/// Three ideas on top of the calendar queue's [`WheelStore`], all carried
/// by the same total event order `(time, component, seq)`:
///
/// 1. **Horizon batches.** The first occupied bucket of a small 16 ps
///    wheel is drained wholesale into `batch`, sorted *ascending* once,
///    and served through the `pos` cursor — a pop in steady state is one
///    bounds check and a cursor increment, no heap sift, no bucket probe.
/// 2. **Self-echo lanes.** A push whose bucket tick equals the horizon
///    being served (the common case: a delivering cell emitting its
///    few-ps fan-out) never touches the wheel. It parks on the target
///    cell's fixed-capacity [`Lane`]; `active` remembers which lanes are
///    occupied.
/// 3. **Insertion buffer + lazy sort.** Lane spill (and lane-ineligible
///    in-horizon pushes) append to `fresh`. Nothing is ordered at push
///    time; only the *minimum* newcomer key is tracked (`horizon_min`,
///    one compare per push). Pops keep serving the batch directly while
///    its head ranks below every newcomer; only when the cursor crosses
///    `horizon_min` are the lanes flushed, sorted once, and linearly
///    merged with the unserved batch tail — so a dense burst pays one
///    sort+merge per time-crossing, not per pop.
///
/// # Invariants
///
/// * `batch[pos..]` is sorted ascending by [`Event::key`]; `batch[..pos]`
///   has already been served. `pos == batch.len()` only transiently —
///   the batch is cleared the moment the cursor reaches its end.
/// * Every event in `batch`, any lane, or `fresh` has the wheel cursor's
///   bucket tick; every event still in the wheel is at a strictly later
///   tick. Hence the head of the merged batch is always the global
///   minimum, and lane residency can never reorder anything: ordering is
///   re-established by the lazy sort before any pop.
/// * `len` counts *every* pending event wherever it is parked, so
///   [`SimStats`](crate::simulator::SimStats) peak-depth accounting is
///   byte-identical to the other schedulers.
/// * A push behind the cursor (deadline-bounded-run re-injection) rebuilds
///   the whole structure against the rewound window, exactly like the
///   calendar queue.
#[derive(Debug)]
pub(crate) struct LaneBatchedQueue {
    wheel: LaneWheel,
    /// The horizon batch, sorted ascending; served through `pos`.
    batch: Vec<Event>,
    /// Cursor into `batch`: next event to serve.
    pos: usize,
    /// Insertion buffer for in-horizon pushes that bypassed the wheel.
    fresh: Vec<Event>,
    /// Per-cell self-echo lanes, indexed by component id (grown on use).
    lanes: Vec<Lane>,
    /// Component ids whose lane is non-empty.
    active: Vec<u32>,
    /// The minimum packed key (see [`lb_key`]) across every event parked
    /// in a lane or `fresh`; `None` iff both are empty. Lets a pop decide
    /// "serve the batch head" vs "flush first" with one compare.
    horizon_min: Option<u128>,
    /// Merge scratch for [`flush_horizon`](Self::flush_horizon)
    /// (allocation recycled across flushes).
    scratch: Vec<Event>,
    /// Total pending events across batch, lanes, fresh, and the wheel.
    len: usize,
}

/// The total-order key of `ev`, packed into one `u128` for branchless
/// compares, valid only among events of the bucket starting at `base`
/// femtoseconds: time offset within the bucket (< 2^14) above the
/// event's `cs` word — which already packs component id over sequence
/// number in order (the 16-byte Event packing pays for itself here: the
/// key is one subtract, one shift, one or). Identical order to
/// [`Event::key`] within a bucket — which is the only scope the
/// lane-batched queue ever sorts or merges in; cross-bucket order is the
/// wheel's job.
#[inline]
fn lb_key(ev: &Event, base: u64) -> u128 {
    let dt = ev.time_fs() - base;
    debug_assert!(dt < LB_BUCKET_WIDTH_FS, "event outside its bucket");
    (u128::from(dt) << 64) | u128::from(ev.cs_word())
}

impl LaneBatchedQueue {
    fn new() -> Self {
        LaneBatchedQueue {
            wheel: LaneWheel::new(),
            batch: Vec::new(),
            pos: 0,
            fresh: Vec::new(),
            lanes: Vec::new(),
            active: Vec::new(),
            horizon_min: None,
            scratch: Vec::new(),
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Start of the horizon being served, in femtoseconds — the base of
    /// every [`lb_key`] the queue compares.
    #[inline]
    fn base_fs(&self) -> u64 {
        self.wheel.cur_tick * LB_BUCKET_WIDTH_FS
    }

    /// True while the current horizon still has unserved events parked in
    /// the batch, a lane, or the insertion buffer.
    #[inline]
    fn serving(&self) -> bool {
        self.pos < self.batch.len() || self.horizon_min.is_some()
    }

    #[inline]
    fn push(&mut self, ev: Event) {
        self.len += 1;
        let tick = LaneWheel::tick_of(&ev);
        if tick == self.wheel.cur_tick && self.serving() {
            // In-horizon push: bypass the wheel. Park on the target
            // cell's self-echo lane, spilling to the shared insertion
            // buffer when the lane is full. Only the running minimum is
            // maintained — ordering happens lazily at flush time.
            let key = lb_key(&ev, self.base_fs());
            if self.horizon_min.is_none_or(|m| key < m) {
                self.horizon_min = Some(key);
            }
            let c = ev.component_index();
            if c >= self.lanes.len() {
                self.lanes.resize_with(c + 1, Lane::empty);
            }
            let lane = &mut self.lanes[c];
            if (lane.len as usize) < LANE_CAPACITY {
                if lane.len == 0 {
                    self.active.push(c as u32);
                }
                lane.slots[lane.len as usize] = ev;
                lane.len += 1;
            } else {
                self.fresh.push(ev);
            }
            return;
        }
        if tick < self.wheel.cur_tick {
            // Same rare deadline-bounded-run pattern as the calendar
            // queue: re-seat everything against the rewound window.
            self.rebuild_at(tick);
        }
        self.wheel.seat(ev);
    }

    /// Hands every pending event outside the wheel — the unserved batch
    /// tail, lanes, and insertion buffer — to the wheel's rebuild against
    /// a window starting at `new_tick`.
    fn rebuild_at(&mut self, new_tick: u64) {
        let mut pending: Vec<Event> = Vec::with_capacity(self.len);
        pending.extend_from_slice(&self.batch[self.pos..]);
        self.batch.clear();
        self.pos = 0;
        pending.append(&mut self.fresh);
        for &c in &self.active {
            let lane = &mut self.lanes[c as usize];
            pending.extend_from_slice(&lane.slots[..lane.len as usize]);
            lane.len = 0;
        }
        self.active.clear();
        self.horizon_min = None;
        self.wheel.rebuild_at(new_tick, pending);
    }

    /// Flushes lanes and the insertion buffer into the unserved tail of
    /// the batch: one sort of the newcomers, then a linear merge with the
    /// tail (a pure `extend` when every newcomer ranks past it). Called
    /// only when the batch head has crossed `horizon_min`, so a dense
    /// burst pays one sort+merge per crossing, not per pop.
    fn flush_horizon(&mut self) {
        self.horizon_min = None;
        for &c in &self.active {
            let lane = &mut self.lanes[c as usize];
            self.fresh
                .extend_from_slice(&lane.slots[..lane.len as usize]);
            lane.len = 0;
        }
        self.active.clear();
        let base = self.base_fs();
        self.fresh.sort_unstable_by_key(|e| lb_key(e, base));
        if self.pos == self.batch.len() {
            // Horizon batch already fully served: the newcomers *are* the
            // new batch (allocation recycled by the swap).
            debug_assert!(self.batch.is_empty() && self.pos == 0);
            std::mem::swap(&mut self.batch, &mut self.fresh);
            return;
        }
        if lb_key(&self.fresh[0], base) >= lb_key(&self.batch[self.batch.len() - 1], base) {
            self.batch.extend_from_slice(&self.fresh);
            self.fresh.clear();
            return;
        }
        // Newcomers rank inside the unserved tail (the flush trigger
        // guarantees at least one outranks the head). Merge the two
        // sorted runs into scratch and make it the new batch; the served
        // prefix `batch[..pos]` is dropped in the same move.
        self.scratch.clear();
        let tail = &self.batch[self.pos..];
        let new = &self.fresh[..];
        self.scratch.reserve(tail.len() + new.len());
        let (mut i, mut j) = (0, 0);
        while i < tail.len() && j < new.len() {
            if lb_key(&tail[i], base) <= lb_key(&new[j], base) {
                self.scratch.push(tail[i]);
                i += 1;
            } else {
                self.scratch.push(new[j]);
                j += 1;
            }
        }
        self.scratch.extend_from_slice(&tail[i..]);
        self.scratch.extend_from_slice(&new[j..]);
        self.fresh.clear();
        std::mem::swap(&mut self.batch, &mut self.scratch);
        self.scratch.clear();
        self.pos = 0;
    }

    /// Serves the next batch event — a bounds check and a cursor bump.
    /// Caller guarantees `pos < batch.len()`.
    #[inline]
    fn serve_batch(&mut self) -> Event {
        let ev = self.batch[self.pos];
        self.pos += 1;
        if self.pos == self.batch.len() {
            self.batch.clear();
            self.pos = 0;
        }
        self.len -= 1;
        ev
    }

    #[inline]
    fn pop(&mut self) -> Option<Event> {
        if let Some(min) = self.horizon_min {
            if self.pos < self.batch.len() && lb_key(&self.batch[self.pos], self.base_fs()) < min {
                // Steady state in a burst: the batch head still outranks
                // every parked newcomer — serve it without touching them.
                return Some(self.serve_batch());
            }
            // The cursor crossed the earliest newcomer (or the batch ran
            // out): order the newcomers now, in one sort + merge.
            self.flush_horizon();
            return Some(self.serve_batch());
        }
        if self.pos < self.batch.len() {
            return Some(self.serve_batch());
        }
        if self.len == 0 {
            return None;
        }
        // Horizon exhausted: drain the wheel's next bucket as the new
        // batch, sorted ascending.
        debug_assert!(self.batch.is_empty() && self.pos == 0);
        self.wheel.advance_into(&mut self.batch);
        let base = self.base_fs();
        self.batch.sort_unstable_by_key(|e| lb_key(e, base));
        Some(self.serve_batch())
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
    Lane(Box<LaneBatchedQueue>),
}

impl Queue {
    pub fn new(kind: SchedulerKind) -> Self {
        match kind {
            SchedulerKind::CalendarQueue => Queue::Wheel(Box::new(CalendarQueue::new())),
            SchedulerKind::ReferenceHeap => Queue::Heap(HeapQueue::default()),
            SchedulerKind::LaneBatched => Queue::Lane(Box::new(LaneBatchedQueue::new())),
        }
    }

    pub fn kind(&self) -> SchedulerKind {
        match self {
            Queue::Wheel(_) => SchedulerKind::CalendarQueue,
            Queue::Heap(_) => SchedulerKind::ReferenceHeap,
            Queue::Lane(_) => SchedulerKind::LaneBatched,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Queue::Wheel(q) => q.len(),
            Queue::Heap(q) => q.len(),
            Queue::Lane(q) => q.len(),
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
            Queue::Lane(q) => q.push(ev),
        }
    }

    #[inline]
    pub fn pop(&mut self) -> Option<Event> {
        match self {
            Queue::Wheel(q) => q.pop(),
            Queue::Heap(q) => q.pop(),
            Queue::Lane(q) => q.pop(),
        }
    }
}

/// Test-only scripting surface for the scheduler torture suite.
///
/// `Event` and `Queue` are crate-private on purpose — simulation code
/// must go through [`Simulator`](crate::simulator::Simulator) — but the
/// workspace-level `tests/scheduler_torture.rs` property suite needs to
/// drive *raw* push/pop interleavings (behind-cursor pushes, wheel
/// wrap-around, overflow migration, lane-capacity spills) that no
/// well-formed netlist can produce. This module is that escape hatch: a
/// replay function over an opaque op script and an op-at-a-time `Stepper`,
/// exposing only the popped `(time_fs, component, seq)` triples, the
/// pending count, and the wheel store's retained node count (for the
/// storage-bound test). Hidden from docs; not a stable API.
#[doc(hidden)]
pub mod torture {
    use super::{Event, Queue, SchedulerKind};
    use crate::netlist::{ComponentId, Pin};
    use crate::time::Time;

    /// The lane-batched scheduler's bucket width, re-exported so the
    /// torture suite can aim events at bucket boundaries.
    pub const BUCKET_WIDTH_FS: u64 = super::LB_BUCKET_WIDTH_FS;
    /// The lane-batched scheduler's wheel span in buckets, re-exported so
    /// the torture suite can force wrap-around and overflow migration.
    pub const NUM_BUCKETS: u64 = super::LB_NUM_BUCKETS as u64;

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
    /// or `None` for the heap — so storage tests can rotate bursts
    /// around each wheel.
    pub fn wheel_geometry(kind: SchedulerKind) -> Option<(u64, u64)> {
        match kind {
            SchedulerKind::CalendarQueue => {
                Some((super::BUCKET_WIDTH_FS, super::NUM_BUCKETS as u64))
            }
            SchedulerKind::LaneBatched => Some((BUCKET_WIDTH_FS, NUM_BUCKETS)),
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
                Queue::Lane(q) => Some(q.wheel.nodes.len()),
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
        let pin = Pin::new(ComponentId((EVENT_COMPONENT_LIMIT - 1) as u32), 0xA5);
        let e = Event::new(
            Time::from_fs(EVENT_TIME_LIMIT_FS - 1),
            EVENT_SEQ_LIMIT - 1,
            pin,
        );
        assert_eq!(e.time_fs(), EVENT_TIME_LIMIT_FS - 1);
        assert_eq!(e.seq(), EVENT_SEQ_LIMIT - 1);
        assert_eq!(e.target(), pin);
        assert_eq!(e.pin(), 0xA5);
        assert_eq!(e.component_index() as u64, EVENT_COMPONENT_LIMIT - 1);
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
    fn default_kind_tracks_the_feature() {
        let expect = if cfg!(feature = "reference-queue") {
            SchedulerKind::ReferenceHeap
        } else if cfg!(feature = "lane-scheduler") {
            SchedulerKind::LaneBatched
        } else {
            SchedulerKind::CalendarQueue
        };
        assert_eq!(SchedulerKind::default(), expect);
        assert_eq!(Queue::new(SchedulerKind::default()).kind(), expect);
    }

    #[test]
    fn labels_round_trip_through_parse() {
        for kind in SchedulerKind::ALL {
            assert_eq!(SchedulerKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(SchedulerKind::parse("no-such-queue"), None);
    }

    #[test]
    fn thread_default_pins_and_restores() {
        let before = SchedulerKind::default();
        for kind in SchedulerKind::ALL {
            SchedulerKind::with_thread_default(kind, || {
                assert_eq!(SchedulerKind::default(), kind);
                assert_eq!(Queue::new(SchedulerKind::default()).kind(), kind);
            });
        }
        assert_eq!(SchedulerKind::default(), before);
    }

    #[test]
    fn all_queues_pop_in_identical_order() {
        // A mix of same-bucket, cross-bucket, and far-overflow events.
        let script = [
            ev(5.0, 0, 3),
            ev(5.0, 1, 1),
            ev(0.25, 2, 9),
            ev(0.75, 3, 9),
            ev(9_999.0, 4, 2), // beyond both wheel horizons
            ev(5.0, 5, 1),
            ev(4_100.0, 6, 0), // just past the horizons at push time
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
    fn lane_capacity_spill_keeps_total_order() {
        // Same-timestamp burst at one component, deeper than a lane:
        // the overflow spills to the insertion buffer, and the lazy
        // sort must still serve everything in seq order. The burst is
        // pushed mid-serve so the lane path (not the wheel) takes it.
        let mut q = Queue::new(SchedulerKind::LaneBatched);
        q.push(ev(1.0, 0, 5));
        q.push(ev(1.0, 1, 5));
        let first = q.pop().expect("pending");
        assert_eq!(first.seq(), 0);
        // Mid-serve: seq 1 is still unserved, so these park on lanes.
        for seq in 2..(2 + 2 * LANE_CAPACITY as u64) {
            q.push(ev(1.0, seq, 5));
        }
        // Lower component id at the same instant must jump the queue.
        q.push(ev(1.0, 99, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq()).collect();
        let mut expect = vec![99, 1];
        expect.extend(2..(2 + 2 * LANE_CAPACITY as u64));
        assert_eq!(order, expect);
    }

    #[test]
    fn interleaved_push_pop_matches_heap() {
        // Push/pop interleaving with a seeded pseudo-random script, the
        // way a running simulator uses the queue (pops advance time, new
        // pushes land at or after the popped time). The heap is the
        // oracle; every other scheduler must mirror it pop for pop.
        let mut rng = crate::rng::Rng64::new(0xD1FF);
        let mut heap = Queue::new(SchedulerKind::ReferenceHeap);
        let mut wheel = Queue::new(SchedulerKind::CalendarQueue);
        let mut lane = Queue::new(SchedulerKind::LaneBatched);
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
                lane.push(e);
            } else {
                let a = heap.pop().expect("non-empty");
                let b = wheel.pop().expect("mirrors heap");
                let c = lane.pop().expect("mirrors heap");
                assert_eq!(a, b);
                assert_eq!(a, c);
                now_fs = a.time_fs();
                popped.push(a);
            }
            assert_eq!(heap.len(), wheel.len());
            assert_eq!(heap.len(), lane.len());
        }
        let reference = drain(&mut heap);
        assert_eq!(drain(&mut wheel), reference);
        assert_eq!(drain(&mut lane), reference);
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
        for kind in [
            SchedulerKind::CalendarQueue,
            SchedulerKind::LaneBatched,
            SchedulerKind::ReferenceHeap,
        ] {
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
