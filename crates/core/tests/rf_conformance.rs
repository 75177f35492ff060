//! Trait-level conformance suite for the design registry.
//!
//! Every design enumerated by [`hiperrf::designs::registry`] is driven
//! purely through the [`RegisterFile`] trait — no concrete types — so a
//! new variant only has to implement the trait and register itself to be
//! held to the same contract:
//!
//! * write/read round trips for every register,
//! * destructive reads restore the stored value (peek after read),
//! * peeking never perturbs stored state or port behaviour,
//! * fault-plan replay is deterministic under a fixed seed,
//! * violation-policy behaviour: clean runs stay clean under `Degrade`,
//!   `Record` never destroys pulses, and every `Degrade` drop is
//!   explained by a recorded violation,
//! * scheduler independence: round trips behave identically on the
//!   calendar queue and the reference heap, and the scheduler counters
//!   stay sane (events flow, simulated time never
//!   runs backwards, peak queue depth is exact on every scheduler),
//! * rewinding is exact: after a snapshot (at build or mid-life), a
//!   faulted run, and a restore, a register file behaves exactly like a
//!   fresh build that reached the snapshot, on every scheduler and
//!   engine.

use hiperrf::config::RfGeometry;
use hiperrf::designs::{registry, Design};
use hiperrf::harness::RegisterFile;
use sfq_sim::prelude::*;

fn small() -> RfGeometry {
    RfGeometry::paper_4x4()
}

/// A width-fitting value that differs per register.
fn pattern(reg: usize, width: usize) -> u64 {
    (reg as u64).wrapping_mul(0b1011).wrapping_add(0b0101) & ((1u64 << width) - 1)
}

#[test]
fn write_read_round_trips_every_register() {
    for design in registry() {
        let mut rf = design.build(small());
        let g = rf.geometry();
        for reg in 0..g.registers() {
            rf.write(reg, pattern(reg, g.width()));
        }
        for reg in 0..g.registers() {
            assert_eq!(rf.read(reg), pattern(reg, g.width()), "{design} r{reg}");
        }
        assert!(
            rf.violations().is_empty(),
            "{design}: {:?}",
            rf.violations()
        );
    }
}

#[test]
fn destructive_reads_are_restored() {
    // HC-DRO pops destroy the stored fluxons; the LoopBuffer must put
    // them back. Non-destructive designs must trivially hold the value.
    for design in registry() {
        let mut rf = design.build(small());
        rf.write(2, 0b1101);
        for i in 0..5 {
            assert_eq!(rf.read(2), 0b1101, "{design} read {i}");
            assert_eq!(rf.peek(2), 0b1101, "{design} state after read {i}");
        }
        assert!(rf.violations().is_empty(), "{design}");
    }
}

#[test]
fn peek_does_not_perturb_state() {
    for design in registry() {
        let mut rf = design.build(small());
        rf.write(1, 0b0111);
        rf.write(3, 0b1000);
        for _ in 0..50 {
            assert_eq!(rf.peek(1), 0b0111, "{design}");
            assert_eq!(rf.peek(3), 0b1000, "{design}");
        }
        // Ports still behave after heavy peeking.
        assert_eq!(rf.read(1), 0b0111, "{design}");
        assert_eq!(rf.read(3), 0b1000, "{design}");
        assert!(rf.violations().is_empty(), "{design}");
    }
}

#[test]
fn skewless_skewed_write_equals_plain_write() {
    for design in registry() {
        let mut a = design.build(small());
        let mut b = design.build(small());
        a.write(1, 0b1001);
        b.write_skewed(1, 0b1001, 0.0);
        assert_eq!(a.peek(1), b.peek(1), "{design}");
        assert_eq!(a.read(1), b.read(1), "{design}");
    }
}

#[test]
fn a_write_skewed_before_the_present_fails_without_panicking() {
    // −2000 ps puts a fresh file's data train well before the simulator's
    // present, which every design floors it at: the train then reaches
    // the gates long before the write enable, and the write fails.
    for (registers, width) in [(2, 2), (4, 4), (32, 32)] {
        let g = RfGeometry::new(registers, width).expect("a valid geometry");
        for design in registry() {
            if design.check_geometry(g).is_err() {
                continue;
            }
            let ones = (1u64 << width) - 1;
            let mut rf = design.build(g);
            rf.write_skewed(1, ones, -2000.0);
            assert_ne!(rf.peek(1), ones, "{design} at {g}");
        }
    }
}

/// One seeded soak under a violation policy; returns everything an
/// identical replay must reproduce.
fn faulted_soak(
    design: Design,
    policy: ViolationPolicy,
    seed: u64,
    sigma: f64,
) -> (Vec<u64>, usize, u64) {
    let mut rf = design.build(small());
    rf.set_violation_policy(policy);
    rf.set_fault_plan(FaultPlan::new(seed).with_delay_sigma(sigma));
    let g = rf.geometry();
    let mut reads = Vec::new();
    for reg in 0..g.registers() {
        rf.write(reg, pattern(reg, g.width()));
    }
    for reg in 0..g.registers() {
        reads.push(rf.read(reg));
    }
    (reads, rf.violations().len(), rf.degraded_drops())
}

#[test]
fn fault_plan_replay_is_deterministic() {
    for design in registry() {
        for sigma in [0.02, 0.08] {
            let a = faulted_soak(design, ViolationPolicy::Degrade, 0x5EED_CAFE, sigma);
            let b = faulted_soak(design, ViolationPolicy::Degrade, 0x5EED_CAFE, sigma);
            assert_eq!(a, b, "{design} at sigma {sigma}: replay diverged");
        }
    }
}

#[test]
fn violation_policies_behave_as_documented() {
    // Record never destroys pulses; Degrade only drops a pulse when it
    // also records the violation that caused the drop.
    for design in registry() {
        for seed in [1u64, 2, 3] {
            let (_, _, record_drops) = faulted_soak(design, ViolationPolicy::Record, seed, 0.12);
            assert_eq!(
                record_drops, 0,
                "{design} seed {seed}: Record dropped pulses"
            );
            let (_, violations, drops) = faulted_soak(design, ViolationPolicy::Degrade, seed, 0.12);
            if drops > 0 {
                assert!(violations > 0, "{design} seed {seed}: unexplained drops");
            }
        }
    }
}

#[test]
fn zero_sigma_degrade_runs_stay_clean() {
    for design in registry() {
        let (reads, violations, drops) = faulted_soak(design, ViolationPolicy::Degrade, 7, 0.0);
        let g = small();
        for (reg, &read) in reads.iter().enumerate() {
            assert_eq!(read, pattern(reg, g.width()), "{design} r{reg}");
        }
        assert_eq!(violations, 0, "{design}");
        assert_eq!(drops, 0, "{design}");
    }
}

#[test]
fn round_trips_hold_on_every_scheduler() {
    // The same conformance sweep, parametrized over both event-queue
    // implementations: a design must not care which scheduler it runs on.
    for design in registry() {
        let per_kind: Vec<(Vec<u64>, usize, u64)> = SchedulerKind::ALL
            .iter()
            .map(|&kind| {
                let mut rf = design.build(small());
                rf.set_scheduler(kind);
                assert_eq!(rf.scheduler_kind(), kind, "{design}");
                let g = rf.geometry();
                for reg in 0..g.registers() {
                    rf.write(reg, pattern(reg, g.width()));
                }
                let reads = (0..g.registers()).map(|reg| rf.read(reg)).collect();
                (
                    reads,
                    rf.violations().len(),
                    rf.sim_stats().events_processed,
                )
            })
            .collect();
        for pair in per_kind.windows(2) {
            assert_eq!(pair[0], pair[1], "{design}: schedulers disagree");
        }
    }
}

#[test]
fn sim_stats_are_sane_and_monotone() {
    for design in registry() {
        let mut rf = design.build(small());
        let before = rf.sim_stats();
        rf.write(1, 0b1010);
        let after_write = rf.sim_stats();
        assert!(
            after_write.events_processed > before.events_processed,
            "{design}: a write must process events"
        );
        assert!(
            after_write.peak_queue_depth > 0,
            "{design}: a write must enqueue events"
        );
        let _ = rf.read(1);
        let after_read = rf.sim_stats();
        assert!(
            after_read.events_processed > after_write.events_processed,
            "{design}: a read must process events"
        );
        assert!(
            after_read.sim_time_advanced >= after_write.sim_time_advanced,
            "{design}: sim time went backwards"
        );
        assert!(
            after_read.peak_queue_depth >= after_write.peak_queue_depth,
            "{design}: peak queue depth shrank"
        );
    }
}

#[test]
fn peak_queue_depth_is_exact_on_every_scheduler() {
    // The calendar queue spreads pending events over a half-served
    // bucket, the wheel's slot lists, and an overflow heap.
    // `peak_queue_depth` must still count every pending event exactly —
    // the same number the reference heap (whose `len()` is trivially
    // exact) reports — and stay monotone within a run.
    for design in registry() {
        let depth_trace = |kind: SchedulerKind| {
            let mut rf = design.build(small());
            rf.set_scheduler(kind);
            let g = rf.geometry();
            let mut peaks = Vec::new();
            for reg in 0..g.registers() {
                rf.write(reg, pattern(reg, g.width()));
                peaks.push(rf.sim_stats().peak_queue_depth);
            }
            for reg in 0..g.registers() {
                let _ = rf.read(reg);
                peaks.push(rf.sim_stats().peak_queue_depth);
            }
            peaks
        };
        let reference = depth_trace(SchedulerKind::ReferenceHeap);
        for kind in SchedulerKind::ALL {
            let peaks = depth_trace(kind);
            assert_eq!(
                reference, peaks,
                "{design}: {kind} peak depth diverged from the heap"
            );
            assert!(
                peaks.windows(2).all(|w| w[0] <= w[1]),
                "{design}: peak depth must be monotone within a run on {kind}"
            );
            assert!(*peaks.last().unwrap() > 0, "{design}: no events enqueued");
        }
    }
}

#[test]
fn census_matches_structural_budget() {
    for design in registry() {
        let rf = design.build(small());
        let budget = hiperrf::budget::structural_budget(design, small());
        assert_eq!(rf.census(), budget.census(), "{design}");
    }
}

#[test]
fn arch_mapping_round_trips() {
    for design in registry() {
        if let Some(arch) = design.arch_design() {
            assert_eq!(Design::from_arch(arch), design, "{design}");
        }
    }
}

/// A seeded mix of writes and reads; returns the values read.
fn op_script(rf: &mut dyn RegisterFile, seed: u64, ops: usize) -> Vec<u64> {
    let g = rf.geometry();
    let mut rng = Rng64::new(seed);
    let mut reads = Vec::new();
    for _ in 0..ops {
        let reg = rng.next_below(g.registers());
        if rng.next_u64() & 1 == 0 {
            rf.write(reg, rng.next_u64() & ((1u64 << g.width()) - 1));
        } else {
            reads.push(rf.read(reg));
        }
    }
    reads
}

/// Everything a rewound register file must reproduce.
#[derive(Debug, PartialEq)]
struct Observed {
    reads: Vec<u64>,
    violations: Vec<Violation>,
    stats: SimStats,
    degraded_drops: u64,
    fault_counts: (u64, u64),
    vcd: String,
}

/// The second script: `Degrade`, delay variation plus one dropped and one
/// duplicated delivery on seeded wire destinations, then a seeded op mix.
fn second_script(rf: &mut dyn RegisterFile) -> Observed {
    // `wires()` iterates in unspecified order; sort so both register
    // files pick the same pins.
    let mut sinks: Vec<Pin> = rf.netlist().wires().map(|w| w.to).collect();
    sinks.sort_unstable();
    let mut rng = Rng64::new(0x005E_C04D);
    let plan = FaultPlan::new(0xD1FF)
        .with_delay_sigma(0.05)
        .drop_nth(sinks[rng.next_below(sinks.len())], 2)
        .duplicate_nth(
            sinks[rng.next_below(sinks.len())],
            1,
            Duration::from_ps(7.0),
        );
    rf.set_violation_policy(ViolationPolicy::Degrade);
    rf.set_fault_plan(plan);
    let reads = op_script(rf, 0x2B, 10);
    let sim = rf.harness().sim();
    Observed {
        reads,
        violations: rf.violations().to_vec(),
        stats: rf.sim_stats(),
        degraded_drops: rf.degraded_drops(),
        fault_counts: sim.fault_counts(),
        vcd: sim.to_vcd("rf"),
    }
}

#[test]
fn restore_equals_a_fresh_build() {
    for design in registry() {
        for scheduler in SchedulerKind::ALL {
            for engine in EngineKind::ALL {
                let build = || {
                    let mut rf = design.build(small());
                    rf.set_scheduler(scheduler);
                    rf.set_engine(engine);
                    rf
                };
                let case = format!("{design} on {scheduler} / {engine}");

                let mut rewound = build();
                let built = rewound.snapshot().expect("registry designs rewind");
                rewound.set_violation_policy(ViolationPolicy::Degrade);
                rewound.set_fault_plan(FaultPlan::new(0xF00D).with_delay_sigma(0.2));
                op_script(rewound.as_mut(), 0x1F, 10);
                assert!(
                    rewound.sim_stats().events_processed > 0,
                    "{case}: the first script ran nothing"
                );
                rewound.restore(&built);

                let got = second_script(rewound.as_mut());
                let want = second_script(build().as_mut());
                assert_eq!(got, want, "{case}");
                assert!(
                    want.fault_counts.0 + want.fault_counts.1 > 0,
                    "{case}: the pin faults never fired"
                );

                // Mid-life: the snapshot is taken after a first script,
                // so it holds state the build did not.
                let mut rewound = build();
                op_script(rewound.as_mut(), 0x3C, 10);
                rewound.harness_mut().sim_mut().clear_all_probes();
                let mid = rewound.snapshot().expect("registry designs rewind");
                rewound.set_violation_policy(ViolationPolicy::Degrade);
                rewound.set_fault_plan(FaultPlan::new(0xBEE5).with_delay_sigma(0.2));
                op_script(rewound.as_mut(), 0x1F, 10);
                rewound.restore(&mid);

                let mut fresh = build();
                op_script(fresh.as_mut(), 0x3C, 10);
                fresh.harness_mut().sim_mut().clear_all_probes();
                let got = second_script(rewound.as_mut());
                let want = second_script(fresh.as_mut());
                assert_eq!(got, want, "{case}: mid-life snapshot");

                // Across engines: the mid-life snapshot is restored after
                // a switch to the other engine, and the rest runs there.
                let other = EngineKind::ALL.into_iter().find(|&e| e != engine);
                let other = other.expect("two engines");
                let mut rewound = build();
                op_script(rewound.as_mut(), 0x3C, 10);
                rewound.harness_mut().sim_mut().clear_all_probes();
                let mid = rewound.snapshot().expect("registry designs rewind");
                op_script(rewound.as_mut(), 0x1F, 10);
                rewound.set_engine(other);
                rewound.restore(&mid);

                let mut fresh = build();
                op_script(fresh.as_mut(), 0x3C, 10);
                fresh.harness_mut().sim_mut().clear_all_probes();
                fresh.set_engine(other);
                let got = second_script(rewound.as_mut());
                let want = second_script(fresh.as_mut());
                assert_eq!(got, want, "{case}: snapshot restored on {other}");
            }
        }
    }
}
