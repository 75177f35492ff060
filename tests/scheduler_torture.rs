//! Scheduler torture suite — the lock on the calendar queue.
//!
//! Two layers, both seeded and dependency-free:
//!
//! * **raw queue scripts** — property tests replaying randomized and
//!   targeted push/pop interleavings through the hidden
//!   [`sfq_sim::queue::torture`] driver. The `ReferenceHeap` is
//!   correct by construction (a binary heap over the total order), so
//!   every script's popped `(time, component, seq)` stream from the
//!   calendar queue must equal the heap's byte for byte. Scripts aim at
//!   the edges of the calendar queue's 1 ps × 4096 ring that the unit
//!   tests can't sweep densely: behind-cursor pushes that force wheel
//!   rebuilds, bucket wrap-around over multiple wheel spans,
//!   overflow-heap migration, dense same-timestamp plateaus merged
//!   into a half-served bucket, and every path that orders a drained
//!   bucket (served as pushed, radix-sorted by component, or
//!   comparison-sorted), on both sides of the size that selects them.
//!   Every script is also replayed on a queue cleared in place with
//!   events pending, which must pop exactly what a fresh queue pops.
//! * **simulator stress circuits** — seeded circuits whose delays are
//!   drawn to be maximally awkward for a bucketed scheduler (exact
//!   bucket-width multiples, sub-quantum ties, hops past the wheel
//!   horizon), run on every scheduler × engine pairing. Traces,
//!   violations, the exported VCD, and the scheduler counters
//!   (including peak queue depth) must match exactly. One scripted
//!   circuit takes a run through each of the calendar queue's cold
//!   paths in turn: the merge into a half-served bucket, the rebuild
//!   behind the cursor, and several overflow events migrating at once;
//!   and a run stopped by its event budget leaves the queue in place.

use hiperrf::config::RfGeometry;
use hiperrf::designs::registry;
use sfq_cells::builder::CircuitBuilder;
use sfq_cells::storage::{Dro, HcDro};
use sfq_cells::transport::{Jtl, Merger, Splitter};
use sfq_sim::prelude::*;
use sfq_sim::queue::torture::{replay, wheel_geometry, Op, Stepper, RADIX_MIN};
use sfq_sim::vcd::to_vcd;

/// The calendar queue's ring: `(bucket width in fs, buckets)`.
const GEOMETRY: (u64, u64) = match wheel_geometry(SchedulerKind::CalendarQueue) {
    Some(geometry) => geometry,
    None => panic!("the calendar queue is a wheel"),
};
/// Width of one calendar-queue bucket, in fs.
const BUCKET_WIDTH_FS: u64 = GEOMETRY.0;
/// Buckets on the calendar queue's ring.
const NUM_BUCKETS: u64 = GEOMETRY.1;
/// One full wheel revolution of the calendar queue, in fs.
const WHEEL_SPAN_FS: u64 = BUCKET_WIDTH_FS * NUM_BUCKETS;

/// Replays `script` on every scheduler and asserts the popped streams
/// are identical to the reference heap's, on a fresh queue and on one
/// cleared in place after running the first half of the script.
fn assert_script_agrees(script: &[Op], what: &str) {
    let reference = replay(SchedulerKind::ReferenceHeap, script);
    assert_eq!(
        reference.len(),
        script
            .iter()
            .filter(|op| matches!(op, Op::Push { .. }))
            .count(),
        "{what}: replay must drain every pushed event"
    );
    for kind in SchedulerKind::ALL {
        let got = replay(kind, script);
        assert_eq!(reference, got, "{what}: {kind:?} diverged from the heap");
        let mut used = Stepper::new(kind);
        for &op in &script[..script.len() / 2] {
            match op {
                Op::Push { time_fs, component } => used.push(time_fs, component),
                Op::Pop => {
                    used.pop();
                }
            }
        }
        used.clear();
        assert!(used.is_empty(), "{what}: {kind:?} kept events past a clear");
        assert_eq!(
            reference,
            used.replay(script),
            "{what}: {kind:?} cleared in place diverged from the heap"
        );
    }
}

#[test]
fn random_interleavings_match_reference() {
    for seed in 0..24u64 {
        let mut rng = Rng64::fork(0x70C7, seed);
        let mut script = Vec::new();
        // The watermark drifts upward so pops keep advancing the cursor;
        // throwback pushes below it land behind the cursor and force
        // wheel rebuilds.
        let mut watermark = 0u64;
        for _ in 0..600 {
            match rng.next_below(10) {
                // Pops outnumber nothing — about 40% of ops.
                0..=3 => script.push(Op::Pop),
                // Near-future push, anywhere in the current wheel span.
                4..=6 => script.push(Op::Push {
                    time_fs: watermark + rng.next_u64() % WHEEL_SPAN_FS,
                    component: (rng.next_u64() % 12) as u32,
                }),
                // Far-future push: lands in the overflow heap and has to
                // migrate back into the wheel when the cursor jumps.
                7..=8 => script.push(Op::Push {
                    time_fs: watermark + WHEEL_SPAN_FS + rng.next_u64() % (3 * WHEEL_SPAN_FS),
                    component: (rng.next_u64() % 12) as u32,
                }),
                // Throwback: at or below the watermark, possibly behind
                // whatever the cursor has advanced to.
                _ => script.push(Op::Push {
                    time_fs: rng.next_u64() % (watermark + 1),
                    component: (rng.next_u64() % 12) as u32,
                }),
            }
            watermark += rng.next_u64() % (BUCKET_WIDTH_FS / 2);
        }
        assert_script_agrees(&script, &format!("random seed {seed}"));
    }
}

#[test]
fn behind_cursor_storms_rebuild_identically() {
    for seed in 0..8u64 {
        let mut rng = Rng64::fork(0xBEC5, seed);
        let mut script = Vec::new();
        for storm in 0..12u64 {
            let high = (storm + 1) * 7 * WHEEL_SPAN_FS;
            // Seed a far cluster, pop into it so the cursor lands high…
            for i in 0..6 {
                script.push(Op::Push {
                    time_fs: high + i * BUCKET_WIDTH_FS,
                    component: (rng.next_u64() % 5) as u32,
                });
            }
            for _ in 0..3 {
                script.push(Op::Pop);
            }
            // …then storm the region far below the cursor, including
            // exact ties with each other on one component.
            let low = high.saturating_sub(3 * WHEEL_SPAN_FS);
            for _ in 0..10 {
                let t = low + rng.next_u64() % WHEEL_SPAN_FS;
                script.push(Op::Push {
                    time_fs: t,
                    component: 2,
                });
                script.push(Op::Push {
                    time_fs: t,
                    component: (rng.next_u64() % 5) as u32,
                });
                script.push(Op::Pop);
            }
        }
        assert_script_agrees(&script, &format!("behind-cursor storm seed {seed}"));
    }
}

#[test]
fn wheel_wraparound_over_many_revolutions() {
    for seed in 0..8u64 {
        let mut rng = Rng64::fork(0x88A9, seed);
        let mut script = Vec::new();
        // March just under one bucket per step for several revolutions,
        // so cur_slot wraps the ring repeatedly while events straddle
        // bucket boundaries on both sides.
        let mut t = 0u64;
        for _ in 0..(4 * NUM_BUCKETS) {
            let jitter = rng.next_u64() % (2 * BUCKET_WIDTH_FS);
            script.push(Op::Push {
                time_fs: t + jitter,
                component: (rng.next_u64() % 8) as u32,
            });
            if rng.next_below(3) != 0 {
                script.push(Op::Pop);
            }
            t += BUCKET_WIDTH_FS - 1;
        }
        assert_script_agrees(&script, &format!("wrap-around seed {seed}"));
    }
}

#[test]
fn overflow_migration_preserves_order() {
    for seed in 0..8u64 {
        let mut rng = Rng64::fork(0x0F10, seed);
        let mut script = Vec::new();
        // Alternate dense in-horizon clusters with clusters 1–4 spans
        // out (overflow), popping through the migrations. Exact
        // same-time ties across the horizon boundary included.
        for wave in 0..10u64 {
            let base = wave * 2 * WHEEL_SPAN_FS;
            for _ in 0..8 {
                script.push(Op::Push {
                    time_fs: base + rng.next_u64() % WHEEL_SPAN_FS,
                    component: (rng.next_u64() % 6) as u32,
                });
                let k = 1 + rng.next_u64() % 4;
                script.push(Op::Push {
                    time_fs: base + k * WHEEL_SPAN_FS,
                    component: (rng.next_u64() % 6) as u32,
                });
            }
            // A tie exactly on the span boundary, on two components.
            script.push(Op::Push {
                time_fs: base + WHEEL_SPAN_FS,
                component: 1,
            });
            script.push(Op::Push {
                time_fs: base + WHEEL_SPAN_FS,
                component: 0,
            });
            for _ in 0..12 {
                script.push(Op::Pop);
            }
        }
        assert_script_agrees(&script, &format!("overflow seed {seed}"));
    }
}

/// A script under construction, mirrored on a heap queue so a generator
/// knows where the wheel's cursor is: at the time of the last pop.
struct MirroredScript {
    ops: Vec<Op>,
    heap: Stepper,
    now: u64,
}

impl MirroredScript {
    fn new() -> Self {
        MirroredScript {
            ops: Vec::new(),
            heap: Stepper::new(SchedulerKind::ReferenceHeap),
            now: 0,
        }
    }

    fn push(&mut self, time_fs: u64, component: u32) {
        self.heap.push(time_fs, component);
        self.ops.push(Op::Push { time_fs, component });
    }

    fn pop(&mut self) {
        if let Some((time_fs, _, _)) = self.heap.pop() {
            self.now = time_fs;
        }
        self.ops.push(Op::Pop);
    }
}

#[test]
fn freed_nodes_reseat_across_slots_between_rebuilds() {
    // The wheel keeps its buckets as chains of blocks from one pool: a
    // pop that drains a bucket frees its blocks, and the very next pushes
    // take them back into other slots — near ones, the horizon's last
    // slot (just behind the cursor on the ring), and past the horizon
    // (overflow, which migrates back later). Every few cycles a storm
    // lands behind the cursor, so a rebuild drains every chain onto the
    // free list while blocks are in flux.
    for seed in 0..8u64 {
        let mut rng = Rng64::fork(0xF4EE, seed);
        let mut s = MirroredScript::new();
        let component = |rng: &mut Rng64| (rng.next_u64() % 8) as u32;
        for cycle in 0..40u64 {
            // A same-tick burst (one bucket) a little ahead of the
            // cursor, then one pop to drain a bucket.
            let t = (s.now / BUCKET_WIDTH_FS + 1 + rng.next_u64() % 32) * BUCKET_WIDTH_FS;
            let burst = 1 + rng.next_u64() % 24;
            for _ in 0..burst {
                s.push(t + rng.next_u64() % BUCKET_WIDTH_FS, component(&mut rng));
            }
            s.pop();
            // Same pop cycle: as many pushes into other slots.
            for _ in 0..burst {
                let offset = match rng.next_below(3) {
                    0 => (1 + rng.next_u64() % 8) * BUCKET_WIDTH_FS,
                    1 => WHEEL_SPAN_FS - BUCKET_WIDTH_FS + rng.next_u64() % BUCKET_WIDTH_FS,
                    _ => WHEEL_SPAN_FS + rng.next_u64() % (2 * WHEEL_SPAN_FS),
                };
                s.push(s.now + offset, component(&mut rng));
            }
            if cycle % 4 == 3 {
                // Behind-cursor storm: below the cursor's bucket, each
                // push followed by a pop.
                for _ in 0..3 {
                    let floor = s.now - s.now % BUCKET_WIDTH_FS;
                    if floor == 0 {
                        break;
                    }
                    let back = 1 + rng.next_u64() % floor.min(WHEEL_SPAN_FS);
                    s.push(floor - back, component(&mut rng));
                    s.pop();
                }
            }
            for _ in 0..rng.next_u64() % (burst + 1) {
                s.pop();
            }
        }
        assert_script_agrees(&s.ops, &format!("free-list reseat seed {seed}"));
    }
}

#[test]
fn dense_single_timestamp_plateau() {
    // Every event at one timestamp across many components, pushed and
    // popped in interleaved waves: the worst case for merging newcomers
    // into the calendar queue's half-served, sorted bucket.
    let mut rng = Rng64::new(0x9_1A7E);
    let mut script = Vec::new();
    let t = 13 * BUCKET_WIDTH_FS + 7;
    script.push(Op::Push {
        time_fs: t,
        component: 0,
    });
    script.push(Op::Pop);
    for _ in 0..400 {
        if rng.next_below(3) == 0 {
            script.push(Op::Pop);
        } else {
            script.push(Op::Push {
                time_fs: t,
                component: (rng.next_u64() % 16) as u32,
            });
        }
    }
    assert_script_agrees(&script, "single-timestamp plateau");
}

/// Pushes of `runs` ascending runs of `per_run` events at one instant,
/// in the transposed numbering a broadcast write makes: run `r` steps by
/// 64 from `base + r`, one run per bit line.
fn transposed_runs(time_fs: u64, runs: u64, per_run: u64, base: u64) -> Vec<Op> {
    (0..runs)
        .flat_map(|r| {
            (0..per_run).map(move |j| Op::Push {
                time_fs,
                component: (base + r + 64 * j) as u32,
            })
        })
        .collect()
}

#[test]
fn interleaved_ascending_runs_at_one_instant() {
    // The broadcast's buckets: up to 64 runs, up to 16k events, each
    // run ascending and the runs interleaved in component order.
    let t = 37 * BUCKET_WIDTH_FS + 250;
    for runs in [1, 2, 5, 36, 64] {
        for per_run in [1, 3, 64, 256] {
            for base in [0, 50_908, (1 << 24) - 64 * per_run - runs] {
                let mut script = vec![Op::Push {
                    time_fs: 0,
                    component: 7,
                }];
                script.extend(transposed_runs(t, runs, per_run, base));
                // A run pushed twice: equal components, sequence order.
                script.extend(transposed_runs(t, 1, per_run, base + runs / 2));
                assert_script_agrees(
                    &script,
                    &format!("{runs} runs of {per_run} from component {base}"),
                );
            }
        }
    }
}

#[test]
fn a_slot_whose_push_order_breaks_sequence_order() {
    // Overflow migration: events past the horizon wait in the overflow
    // heap; once the cursor has moved, later pushes for the same instant
    // seat straight into its slot, and the migration appends the
    // earlier-sequence events behind them — the same components, so a
    // sort by component alone would serve them in the wrong order.
    for n in [RADIX_MIN as u64 / 2, RADIX_MIN as u64 - 1, 150, 1_000] {
        let far = (NUM_BUCKETS + 10) * BUCKET_WIDTH_FS + 300;
        let mut script = vec![
            Op::Push {
                time_fs: 0,
                component: 0,
            },
            Op::Push {
                time_fs: 20 * BUCKET_WIDTH_FS,
                component: 0,
            },
            Op::Push {
                time_fs: 20 * BUCKET_WIDTH_FS,
                component: 1,
            },
        ];
        let far_pushes = |script: &mut Vec<Op>| {
            script.extend((0..n).map(|i| Op::Push {
                time_fs: far,
                component: (i % 5) as u32,
            }))
        };
        far_pushes(&mut script);
        // The first pop serves tick 0, the second moves the cursor to tick
        // 20, which brings `far` inside the horizon without migrating it.
        script.extend([Op::Pop, Op::Pop]);
        far_pushes(&mut script);
        assert_script_agrees(&script, &format!("migration behind {n} direct pushes"));
    }
    // `rebuild_at`: a push behind the cursor re-seats the overflow heap in
    // its array order, and then direct pushes land behind those.
    for n in [RADIX_MIN as u64 - 1, RADIX_MIN as u64, 300] {
        let far = (NUM_BUCKETS + 50) * BUCKET_WIDTH_FS + 7;
        let mut script = vec![
            Op::Push {
                time_fs: 0,
                component: 0,
            },
            Op::Push {
                time_fs: 100 * BUCKET_WIDTH_FS,
                component: 0,
            },
        ];
        script.extend((0..n).map(|i| Op::Push {
            time_fs: far,
            component: ((i * 7) % 5) as u32,
        }));
        script.extend([
            Op::Pop,
            Op::Pop,
            Op::Push {
                time_fs: 60 * BUCKET_WIDTH_FS,
                component: 3,
            },
        ]);
        script.extend((0..n / 3).map(|i| Op::Push {
            time_fs: far,
            component: (i % 5) as u32,
        }));
        assert_script_agrees(&script, &format!("rebuild re-seating {n} overflow events"));
    }
}

#[test]
fn two_instants_inside_one_slot_pushed_interleaved() {
    let t = 91 * BUCKET_WIDTH_FS + 100;
    for n in [8, RADIX_MIN as u64, 700] {
        for spread in [1, BUCKET_WIDTH_FS / 2, BUCKET_WIDTH_FS - 101] {
            let script: Vec<Op> = (0..n)
                .map(|i| Op::Push {
                    time_fs: t + (i % 2) * spread,
                    component: ((i * 13) % 97) as u32,
                })
                .collect();
            assert_script_agrees(&script, &format!("{n} events {spread} fs apart"));
        }
    }
}

#[test]
fn buckets_either_side_of_the_radix_threshold() {
    let t = 5 * BUCKET_WIDTH_FS;
    for n in [RADIX_MIN - 1, RADIX_MIN, RADIX_MIN + 1] {
        let n = n as u64;
        let patterns: [(&str, Vec<Op>); 5] = [
            (
                "ascending",
                (0..n)
                    .map(|i| Op::Push {
                        time_fs: t,
                        component: i as u32,
                    })
                    .collect(),
            ),
            (
                "descending",
                (0..n)
                    .map(|i| Op::Push {
                        time_fs: t,
                        component: (n - i) as u32,
                    })
                    .collect(),
            ),
            (
                "one component",
                (0..n)
                    .map(|_| Op::Push {
                        time_fs: t,
                        component: 4,
                    })
                    .collect(),
            ),
            (
                "interleaved runs",
                transposed_runs(t, 4, n.div_ceil(4), 1_000),
            ),
            (
                "two instants",
                (0..n)
                    .map(|i| Op::Push {
                        time_fs: t + (i % 3 == 0) as u64 * 400,
                        component: (i % 11) as u32,
                    })
                    .collect(),
            ),
        ];
        for (name, pushes) in patterns {
            assert_script_agrees(&pushes, &format!("{name}, {n} events"));
        }
    }
}

#[test]
fn same_instant_pushes_into_a_half_served_bucket() {
    // A radix-sized bucket served from its ascending cursor, with pushes
    // at its instant arriving after every pop: below the served part,
    // among the unserved rest, past its end, and just after it in time.
    for seed in 0..6u64 {
        let mut rng = Rng64::fork(0x4A1F, seed);
        let t = 300 * BUCKET_WIDTH_FS + 1;
        let n = RADIX_MIN as u64 * (1 + seed);
        let mut script = transposed_runs(t, 8, n / 8, 10_000);
        for _ in 0..n {
            script.push(Op::Pop);
            if rng.next_below(2) == 0 {
                let component = match rng.next_below(3) {
                    0 => rng.next_u64() % 10_000,
                    1 => 10_000 + rng.next_u64() % (64 * n / 8),
                    _ => 20_000 + rng.next_u64() % 1_000,
                } as u32;
                let time_fs = t + (rng.next_below(4) == 0) as u64 * rng.next_u64() % 999;
                script.push(Op::Push { time_fs, component });
            }
        }
        assert_script_agrees(&script, &format!("half-served bucket seed {seed}"));
    }
}

// ---------------------------------------------------------------------
// Simulator layer: scheduler-hostile circuits on every pairing.
// ---------------------------------------------------------------------

/// Everything a run exposes to the outside world.
#[derive(Debug, PartialEq)]
struct Observables {
    traces: Vec<PulseTrace>,
    vcd: String,
    violations: Vec<Violation>,
    events_processed: u64,
    peak_queue_depth: usize,
}

/// A seeded circuit whose wire delays are chosen to be hostile to a
/// bucketed scheduler: exact bucket-width multiples (events landing on
/// bucket boundaries), sub-quantum offsets (dense same-bucket ties),
/// and hops longer than a full wheel revolution (overflow traffic).
fn hostile_circuit(seed: u64) -> (Netlist, Vec<Pin>, Vec<Pin>) {
    let mut rng = Rng64::new(seed);
    let mut b = CircuitBuilder::new();
    let inputs: Vec<Pin> = (0..2)
        .map(|_| {
            let id = b.jtl();
            Pin::new(id, Jtl::IN)
        })
        .collect();
    let mut frontier: Vec<Pin> = inputs
        .iter()
        .map(|p| Pin::new(p.component, Jtl::OUT))
        .collect();

    let bucket_ps = BUCKET_WIDTH_FS as f64 / 1000.0;
    let span_ps = WHEEL_SPAN_FS as f64 / 1000.0;
    let delay = |rng: &mut Rng64| match rng.next_below(4) {
        // Exactly on a bucket boundary, 1–8 buckets out.
        0 => Duration::from_ps(bucket_ps * (1 + rng.next_below(8)) as f64),
        // Sub-quantum: everything piles into the same bucket.
        1 => Duration::from_ps(0.001 + rng.next_f64() * 0.1),
        // Past the wheel horizon: forced through the overflow heap.
        2 => Duration::from_ps(span_ps * (1.0 + rng.next_f64() * 2.0)),
        _ => Duration::from_ps(rng.next_f64() * 50.0),
    };
    let take = |frontier: &mut Vec<Pin>, rng: &mut Rng64| {
        let i = rng.next_below(frontier.len());
        frontier.swap_remove(i)
    };

    for _ in 0..30 {
        match rng.next_below(5) {
            0 => {
                let id = b.splitter();
                let from = take(&mut frontier, &mut rng);
                b.connect_delayed(from, Pin::new(id, Splitter::IN), delay(&mut rng));
                frontier.push(Pin::new(id, Splitter::OUT0));
                frontier.push(Pin::new(id, Splitter::OUT1));
            }
            1 if frontier.len() >= 2 => {
                let id = b.merger();
                let a = take(&mut frontier, &mut rng);
                let c = take(&mut frontier, &mut rng);
                b.connect_delayed(a, Pin::new(id, Merger::IN_A), delay(&mut rng));
                b.connect_delayed(c, Pin::new(id, Merger::IN_B), delay(&mut rng));
                frontier.push(Pin::new(id, Merger::OUT));
            }
            2 if frontier.len() >= 2 => {
                let id = b.dro();
                let d = take(&mut frontier, &mut rng);
                let clk = take(&mut frontier, &mut rng);
                b.connect_delayed(d, Pin::new(id, Dro::D), delay(&mut rng));
                b.connect_delayed(clk, Pin::new(id, Dro::CLK), delay(&mut rng));
                frontier.push(Pin::new(id, Dro::Q));
            }
            // Tight HC-DRO so the violation path runs under torture too.
            3 if frontier.len() >= 2 => {
                let id = b.hcdro();
                let d = take(&mut frontier, &mut rng);
                let clk = take(&mut frontier, &mut rng);
                b.connect_delayed(d, Pin::new(id, HcDro::D), Duration::from_ps(1.0));
                b.connect_delayed(clk, Pin::new(id, HcDro::CLK), delay(&mut rng));
                frontier.push(Pin::new(id, HcDro::Q));
            }
            _ => {
                let id = b.jtl();
                let from = take(&mut frontier, &mut rng);
                b.connect_delayed(from, Pin::new(id, Jtl::IN), delay(&mut rng));
                frontier.push(Pin::new(id, Jtl::OUT));
            }
        }
    }
    (b.finish(), inputs, frontier)
}

/// Runs one hostile circuit on one pairing and captures the observables.
fn run_hostile(seed: u64, scheduler: SchedulerKind, engine: EngineKind) -> Observables {
    let (netlist, inputs, probes) = hostile_circuit(seed);
    let mut sim = Simulator::with_engine(netlist, scheduler, engine);
    let probe_ids: Vec<ProbeId> = probes
        .iter()
        .enumerate()
        .map(|(i, &p)| sim.probe(p, format!("t{i}")))
        .collect();
    let mut rng = Rng64::fork(seed, 0x57EB);
    for burst in 0..24u32 {
        let pin = inputs[rng.next_below(inputs.len())];
        // Injection offsets use the same hostile distribution: exact
        // bucket boundaries, sub-quantum ties, and past-horizon hops.
        let off = match rng.next_below(3) {
            0 => Duration::from_fs(BUCKET_WIDTH_FS * (1 + rng.next_u64() % 8)),
            1 => Duration::from_fs(rng.next_u64() % 32),
            _ => Duration::from_fs(WHEEL_SPAN_FS + rng.next_u64() % WHEEL_SPAN_FS),
        };
        sim.inject(pin, sim.now() + off);
        if burst % 5 == 4 {
            // Bounded runs leave events in flight across run boundaries.
            sim.run_for(sim.now() + Duration::from_fs(WHEEL_SPAN_FS / 2));
        }
    }
    sim.run();
    let traces: Vec<PulseTrace> = probe_ids
        .iter()
        .map(|&id| sim.probe_trace(id).clone())
        .collect();
    let vcd = to_vcd(&traces, "torture");
    let stats = sim.stats();
    Observables {
        traces,
        vcd,
        violations: sim.violations().to_vec(),
        events_processed: stats.events_processed,
        peak_queue_depth: stats.peak_queue_depth,
    }
}

#[test]
fn hostile_circuits_agree_across_all_pairings() {
    for seed in [0x71AD, 0x71AE, 0x71AF] {
        let reference = run_hostile(
            seed,
            SchedulerKind::ReferenceHeap,
            EngineKind::DynInterpreter,
        );
        assert!(
            reference.events_processed > 0,
            "seed {seed:#x} produced no activity"
        );
        for scheduler in SchedulerKind::ALL {
            for engine in EngineKind::ALL {
                let run = run_hostile(seed, scheduler, engine);
                assert_eq!(
                    reference, run,
                    "seed {seed:#x}: {engine} on {scheduler:?} diverged"
                );
            }
        }
    }
}

/// The first bucket boundary at least `gap_ps` after `t`.
fn bucket_after(t: Time, gap_ps: f64) -> Time {
    let fs = (t + Duration::from_ps(gap_ps)).as_fs();
    Time::from_fs(fs.div_ceil(BUCKET_WIDTH_FS) * BUCKET_WIDTH_FS)
}

/// What [`run_cold_paths`] shows: the tap's trace, in delivery order,
/// every run's stats and end time, and the lifetime counters.
type ColdPathRun = (PulseTrace, Vec<(RunStats, Time)>, SimStats);

/// Drives a three-JTL circuit through each of the calendar queue's paths
/// that a steady run never takes, on one pairing. Every scenario feeds the
/// one probed tap, whose trace lists its deliveries in the order they
/// were served, so serving any of them out of order shows.
fn run_cold_paths(scheduler: SchedulerKind, engine: EngineKind) -> ColdPathRun {
    let mut b = CircuitBuilder::new();
    let tap = b.jtl_with_delay(Duration::from_ps(1.0));
    // Emits the instant it is delivered, into the bucket being served.
    let instant = b.jtl_with_delay(Duration::ZERO);
    b.connect_delayed(
        Pin::new(instant, Jtl::OUT),
        Pin::new(tap, Jtl::IN),
        Duration::from_ps(0.1),
    );
    // Emits onto a wire ending 4 ps short of the horizon of its delivery.
    let far = b.jtl_with_delay(Duration::from_ps(1.0));
    b.connect_delayed(
        Pin::new(far, Jtl::OUT),
        Pin::new(tap, Jtl::IN),
        Duration::from_ps(4089.6),
    );
    let mut sim = Simulator::with_engine(b.finish(), scheduler, engine);
    let probe = sim.probe(Pin::new(tap, Jtl::OUT), "tap");
    let tap = Pin::new(tap, Jtl::IN);
    let ps = Duration::from_ps;
    let mut runs = Vec::new();

    // Mid-drain merge, from a deadline between events of one bucket: the
    // event popped past it goes back ahead of the bucket's unserved rest.
    let t = bucket_after(sim.now(), 10.0);
    for at in [0.2, 0.4, 0.6] {
        sim.inject(tap, t + ps(at));
    }
    runs.push((sim.run_for(t + ps(0.3)), sim.now()));
    runs.push((sim.run(), sim.now()));

    // Mid-drain merge, from a zero-delay emission that ranks before the
    // unserved rest of the bucket being served.
    let t = bucket_after(sim.now(), 10.0);
    sim.inject(Pin::new(instant, Jtl::IN), t);
    sim.inject(tap, t + ps(0.5));
    runs.push((sim.run(), sim.now()));

    // Rebuild behind the cursor: with nothing seated the cursor jumps to
    // the first of two overflow events and seats both, a deadline pushes
    // the first back, and an earlier injection rewinds the window so far
    // that the second's slot would alias an earlier tick.
    let t = sim.now();
    sim.inject(tap, t + ps(5_000.0));
    sim.inject(tap, t + ps(9_000.0));
    runs.push((sim.run_for(t + ps(100.0)), sim.now()));
    sim.inject(tap, t + ps(50.0));
    runs.push((sim.run(), sim.now()));

    // Overflow migration: two overflow events enter the window together,
    // into a bucket already holding an event that ranks after both.
    let t = bucket_after(sim.now(), 10.0);
    sim.inject(tap, t + ps(4_100.2));
    sim.inject(tap, t + ps(4_100.4));
    sim.inject(Pin::new(far, Jtl::IN), t + ps(10.0));
    runs.push((sim.run(), sim.now()));

    (sim.probe_trace(probe).clone(), runs, sim.stats())
}

#[test]
fn queue_cold_paths_from_a_run_agree_across_all_pairings() {
    let reference = run_cold_paths(SchedulerKind::ReferenceHeap, EngineKind::DynInterpreter);
    assert_eq!(reference.0.len(), 11, "every stimulus reaches the tap");
    assert!(
        reference.0.pulses().windows(2).all(|w| w[0] <= w[1]),
        "the tap's deliveries ascend"
    );
    for scheduler in SchedulerKind::ALL {
        for engine in EngineKind::ALL {
            let run = run_cold_paths(scheduler, engine);
            assert_eq!(reference, run, "{engine} on {scheduler:?} diverged");
        }
    }
}

#[test]
fn an_exhausted_event_budget_leaves_the_queue_in_place() {
    // A JTL feeding itself never drains, so the budget stops the run with
    // a panic; the simulator must still own its queue, with the second of
    // the two circulating pulses pending (the first was popped).
    for scheduler in SchedulerKind::ALL {
        for engine in EngineKind::ALL {
            let mut b = CircuitBuilder::new();
            let jtl = b.jtl();
            b.connect_delayed(
                Pin::new(jtl, Jtl::OUT),
                Pin::new(jtl, Jtl::IN),
                Duration::from_ps(1.0),
            );
            let mut sim = Simulator::with_engine(b.finish(), scheduler, engine);
            sim.set_event_budget(100);
            sim.inject(Pin::new(jtl, Jtl::IN), Time::ZERO);
            sim.inject(Pin::new(jtl, Jtl::IN), Time::from_ps(0.5));
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()));
            assert!(run.is_err(), "{engine} on {scheduler:?}: the budget holds");
            assert_eq!(sim.scheduler_kind(), scheduler);
            assert_eq!(
                sim.snapshot().unwrap_err(),
                SnapshotError::EventsInFlight(1),
                "{engine} on {scheduler:?}"
            );
        }
    }
}

#[test]
fn register_file_soak_agrees_on_every_scheduler() {
    // Every registered design, 4×4, write/read sweep: reads and the
    // scheduler counters must match the reference stack exactly on every
    // scheduler under either engine.
    for design in registry() {
        let g = RfGeometry::paper_4x4();
        let run = |scheduler: SchedulerKind, engine: EngineKind| {
            let mut rf = design.build(g);
            rf.set_scheduler(scheduler);
            rf.set_engine(engine);
            let mut reads = Vec::new();
            for round in 0..2u64 {
                for reg in 0..g.registers() {
                    rf.write(reg, (round * 7 + reg as u64) & 0xF);
                }
                for reg in 0..g.registers() {
                    reads.push(rf.read(reg));
                }
            }
            let stats = rf.sim_stats();
            (
                reads,
                rf.violations().len(),
                stats.events_processed,
                stats.peak_queue_depth,
            )
        };
        let reference = run(SchedulerKind::ReferenceHeap, EngineKind::DynInterpreter);
        for scheduler in SchedulerKind::ALL {
            for engine in EngineKind::ALL {
                let got = run(scheduler, engine);
                assert_eq!(reference, got, "{design}: {scheduler} under {engine}");
            }
        }
    }
}
