//! Differential scheduler harness: the calendar queue must be observably
//! indistinguishable from the reference `BinaryHeap` scheduler.
//!
//! Two families of workloads drive every queue implementation:
//!
//! * **seeded random netlists** — layered transport/storage circuits with
//!   randomized wire delays (including delays past the calendar wheel's
//!   horizon, forcing the overflow path) and randomized stimulus;
//! * **every registered register-file design** at 4×4 and 16×16, driven
//!   through a write/read sweep behind the `RegisterFile` trait.
//!
//! In each case every observable must match exactly: pulse traces,
//! violations, the exported VCD byte for byte, and the scheduler
//! counters.

use hiperrf::config::RfGeometry;
use hiperrf::designs::registry;
use sfq_cells::builder::CircuitBuilder;
use sfq_cells::storage::Dro;
use sfq_cells::transport::{Jtl, Merger, Splitter};
use sfq_sim::prelude::*;
use sfq_sim::vcd::to_vcd;

/// Everything a run exposes to the outside world.
#[derive(Debug, PartialEq)]
struct Observables {
    traces: Vec<PulseTrace>,
    violations: Vec<Violation>,
    vcd: String,
    events_processed: u64,
    peak_queue_depth: usize,
    sim_time_advanced: Duration,
}

/// Builds the seeded random circuit and returns it with its injection
/// pins and probe pins. Deterministic: the same seed always elaborates
/// the same netlist.
fn random_circuit(seed: u64) -> (Netlist, Vec<Pin>, Vec<Pin>) {
    let mut rng = Rng64::new(seed);
    let mut b = CircuitBuilder::new();

    let inputs: Vec<Pin> = (0..3)
        .map(|_| {
            let id = b.jtl();
            Pin::new(id, Jtl::IN)
        })
        .collect();
    let mut frontier: Vec<Pin> = inputs
        .iter()
        .map(|p| Pin::new(p.component, Jtl::OUT))
        .collect();

    // Random delays from sub-picosecond up to 9 ns: the calendar wheel's
    // horizon is ~4 ns, so the long tail exercises the overflow heap.
    let delay = |rng: &mut Rng64| Duration::from_ps(0.1 + rng.next_f64() * 9000.0);
    let take = |frontier: &mut Vec<Pin>, rng: &mut Rng64| {
        let i = rng.next_below(frontier.len());
        frontier.swap_remove(i)
    };

    for step in 0..40 {
        match rng.next_below(4) {
            // 1 → 2
            0 => {
                let id = b.splitter();
                let from = take(&mut frontier, &mut rng);
                b.connect_delayed(from, Pin::new(id, Splitter::IN), delay(&mut rng));
                frontier.push(Pin::new(id, Splitter::OUT0));
                frontier.push(Pin::new(id, Splitter::OUT1));
            }
            // 2 → 1 (falls back to a JTL when only one pin is open)
            1 if frontier.len() >= 2 => {
                let id = b.merger();
                let a = take(&mut frontier, &mut rng);
                let c = take(&mut frontier, &mut rng);
                b.connect_delayed(a, Pin::new(id, Merger::IN_A), delay(&mut rng));
                b.connect_delayed(c, Pin::new(id, Merger::IN_B), delay(&mut rng));
                frontier.push(Pin::new(id, Merger::OUT));
            }
            // data + clock → 1: a stateful cell in the mix
            2 if frontier.len() >= 2 => {
                let id = b.dro();
                let d = take(&mut frontier, &mut rng);
                let clk = take(&mut frontier, &mut rng);
                b.connect_delayed(d, Pin::new(id, Dro::D), delay(&mut rng));
                b.connect_delayed(clk, Pin::new(id, Dro::CLK), delay(&mut rng));
                frontier.push(Pin::new(id, Dro::Q));
            }
            // 1 → 1
            _ => {
                let id = b.jtl();
                let from = take(&mut frontier, &mut rng);
                b.connect_delayed(from, Pin::new(id, Jtl::IN), delay(&mut rng));
                frontier.push(Pin::new(id, Jtl::OUT));
            }
        }
        // Keep the frontier from collapsing to a single chain.
        assert!(!frontier.is_empty(), "step {step} emptied the frontier");
    }
    (b.finish(), inputs, frontier)
}

/// Runs the seeded random workload on one scheduler and captures every
/// observable.
fn run_random(seed: u64, kind: SchedulerKind) -> Observables {
    let (netlist, inputs, probes) = random_circuit(seed);
    let mut sim = Simulator::with_scheduler(netlist, kind);
    assert_eq!(sim.scheduler_kind(), kind);
    let probe_ids: Vec<ProbeId> = probes
        .iter()
        .enumerate()
        .map(|(i, &p)| sim.probe(p, format!("tap{i}")))
        .collect();

    // Randomized stimulus, forked from the netlist seed so the schedule
    // is deterministic but uncorrelated with the topology draw.
    let mut rng = Rng64::fork(seed, 0xD1CE);
    for burst in 0..20u32 {
        let pin = inputs[rng.next_below(inputs.len())];
        let at = sim.now() + Duration::from_ps(rng.next_f64() * 2000.0);
        sim.inject(pin, at);
        // Occasionally interleave a bounded run: the deadline push-back
        // reseats an already-popped event, and the next injection then
        // lands near the calendar cursor.
        if burst % 7 == 6 {
            sim.run_for(sim.now() + Duration::from_ps(350.0));
        }
    }
    sim.run();

    let traces: Vec<PulseTrace> = probe_ids
        .iter()
        .map(|&id| sim.probe_trace(id).clone())
        .collect();
    let vcd = to_vcd(&traces, "equivalence");
    let stats = sim.stats();
    Observables {
        traces,
        violations: sim.violations().to_vec(),
        vcd,
        events_processed: stats.events_processed,
        peak_queue_depth: stats.peak_queue_depth,
        sim_time_advanced: stats.sim_time_advanced,
    }
}

#[test]
fn random_netlists_match_across_schedulers() {
    for seed in [1u64, 0xBEEF, 0x5EED_5EED, 0xFFFF_FFFF_0000_0001] {
        let heap = run_random(seed, SchedulerKind::ReferenceHeap);
        assert!(
            heap.events_processed > 0,
            "seed {seed:#x}: workload never touched the queue"
        );
        for kind in SchedulerKind::ALL {
            let got = run_random(seed, kind);
            assert_eq!(heap, got, "seed {seed:#x} on {kind:?}");
        }
    }
}

#[test]
fn random_netlist_vcd_is_byte_identical() {
    let heap = run_random(0xA5A5, SchedulerKind::ReferenceHeap);
    assert!(!heap.vcd.is_empty() && heap.vcd.contains("$var"));
    for kind in SchedulerKind::ALL {
        let got = run_random(0xA5A5, kind);
        assert_eq!(heap.vcd.as_bytes(), got.vcd.as_bytes(), "{kind:?}");
    }
}

/// Drives one design on one scheduler through a write/read sweep and
/// captures the observables (designs own their probes internally, so the
/// trace/VCD comparison is covered by the random-netlist workload).
fn run_design(
    design: hiperrf::Design,
    g: RfGeometry,
    kind: SchedulerKind,
) -> (Vec<u64>, Vec<Violation>, u64, usize) {
    let mut rf = design.build(g);
    rf.set_scheduler(kind);
    assert_eq!(rf.scheduler_kind(), kind);
    let mask = (1u64 << g.width()) - 1;
    let mut reads = Vec::new();
    for reg in 0..g.registers() {
        rf.write(reg, (0xDA7A + 3 * reg as u64) & mask);
    }
    for reg in 0..g.registers() {
        reads.push(rf.read(reg));
        reads.push(rf.peek(reg));
    }
    let stats = rf.sim_stats();
    (
        reads,
        rf.violations().to_vec(),
        stats.events_processed,
        stats.peak_queue_depth,
    )
}

#[test]
fn every_registered_design_matches_across_schedulers() {
    for design in registry() {
        for g in [RfGeometry::paper_4x4(), RfGeometry::paper_16x16()] {
            let heap = run_design(design, g, SchedulerKind::ReferenceHeap);
            assert!(heap.2 > 0, "{design} at {g}: no events processed");
            for kind in SchedulerKind::ALL {
                let got = run_design(design, g, kind);
                assert_eq!(heap, got, "{design} at {g} on {kind:?}");
            }
        }
    }
}
