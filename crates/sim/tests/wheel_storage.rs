//! Storage bound of the calendar queue's wheel.
//!
//! The wheel keeps its buckets as chains of fixed-size blocks from one
//! pool with a free list, so the storage it retains is bounded by the
//! peak number of pending events, in whole blocks, plus one partly
//! filled block per slot occupied at once — not by the ring size times
//! the largest burst, which is where a `Vec` per bucket drifts when
//! bursts land on a different slot each revolution and every slot keeps
//! its high-water capacity. The pool's event slots are read through the
//! hidden `queue::torture` module.

use std::collections::BTreeSet;

use sfq_sim::queue::torture::{wheel_geometry, Stepper, WHEEL_BLOCK_EVENTS};
use sfq_sim::queue::SchedulerKind;

/// Revolutions of the ring the wheel is driven through.
const REVOLUTIONS: u64 = 2_400;

#[test]
fn wheel_storage_never_exceeds_peak_pending() {
    let kind = SchedulerKind::CalendarQueue;
    let (width_fs, slots) = wheel_geometry(kind).expect("a wheel scheduler");
    let mut wheel = Stepper::new(kind);
    let mut heap = Stepper::new(SchedulerKind::ReferenceHeap);
    let mut peak_pending = 0;
    let mut peak_slots = 0;
    let mut t = 0;
    for rev in 0..REVOLUTIONS {
        // Three slots short of a full turn past the last burst: inside
        // the horizon, on a different slot every revolution.
        t += (slots - 3) * width_fs;
        // One tick's worth of events, 1 to 2048 of them.
        let burst = 1u64 << (rev % 12);
        let mut ticks = BTreeSet::new();
        for i in 0..burst {
            let (at, component) = (t + i % width_fs, (i % 61) as u32);
            wheel.push(at, component);
            heap.push(at, component);
            ticks.insert(at / width_fs);
            peak_pending = peak_pending.max(wheel.len());
            peak_slots = peak_slots.max(ticks.len());
        }
        while let Some(popped) = wheel.pop() {
            assert_eq!(Some(popped), heap.pop(), "{kind}: revolution {rev}");
        }
        assert!(heap.is_empty(), "{kind}: revolution {rev} left events");
        let retained = wheel.wheel_event_slots().expect("a wheel scheduler");
        let bound =
            peak_pending.next_multiple_of(WHEEL_BLOCK_EVENTS) + peak_slots * WHEEL_BLOCK_EVENTS;
        assert!(
            retained <= bound,
            "{kind}: revolution {rev}: the wheel retains {retained} event slots, \
             but at most {peak_pending} events were ever pending in at most \
             {peak_slots} slots at once (bound {bound})"
        );
    }
    assert_eq!(
        (peak_pending, peak_slots),
        (2048, 1),
        "{kind}: the largest burst sets the peak, one slot at a time"
    );
}
