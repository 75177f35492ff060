//! Differential engine harness: the compiled engine must be observably
//! indistinguishable from the dyn interpreter, under either scheduler.
//!
//! Both engines step the netlist's one cell array through the one
//! transition function in `sfq_sim::cell`, so this suite compares the two
//! independent executions around it: the CSR fan-out against the
//! netlist's rows, the flat probe table against the probe map, hoisted
//! against per-event counters, lazily against eagerly resolved labels,
//! and table rebuilds on engine switches and netlist edits. What anchors
//! the transition function itself is the pinned
//! fingerprints below, measured while each cell still had two independent
//! implementations, and the per-primitive golden table in
//! `crates/cells/tests/golden_windows.rs`.
//!
//! Four families of workloads drive every engine × scheduler pairing:
//!
//! * **a cell zoo** — one cell of every `CellOp` wired off shared
//!   splitter trees with deliberately tight delays, so each arm of the
//!   step (including its violation and degrade paths) executes on every
//!   run;
//! * **a relay circuit** — the edges of the compiled engine's relay
//!   path (a delivery to an unprobed splitter or JTL that skips the cell):
//!   a probed splitter, more distinct JTL delays than the relay table
//!   holds, wires into a splitter's pin 1 and pin 5, clean and under a
//!   fault plan that drops and duplicates relay inputs;
//! * **seeded random netlists** — layered transport/storage circuits
//!   with randomized delays (sub-ps up to past the calendar wheel's
//!   horizon) and randomized stimulus, with and without a seeded fault
//!   plan;
//! * **every registered register-file design** at 4×4 and 16×16, driven
//!   through write/read/peek sweeps behind the `RegisterFile` trait,
//!   clean and under fault injection with the `Degrade` policy, and at
//!   4×4 through writes skewed from −12 to +12 ps, past the edges of the
//!   designs' write windows.
//!
//! Every observable must match exactly: pulse traces, violations (kind,
//! time, label, and message), the exported VCD byte for byte, the
//! scheduler counters including peak queue depth and the delivery-path
//! work counters, degraded-drop counts, and the stored value of every
//! cell as [`Simulator::stored`] reports it. Two more cases check that
//! cell state survives what drops the compiled tables: a register file
//! switched between engines mid-life must match an all-dyn run, and a
//! netlist edited through `netlist_mut` after a run must take its new
//! wire with the earlier state intact. Two check relay flags queued when
//! a probe drops the tables mid-run: the rebuilt tables must not serve
//! them.

use hiperrf::config::RfGeometry;
use hiperrf::designs::{registry, Design};
use hiperrf::hashing::{digest_hex, Fnv64};
use sfq_cells::builder::CircuitBuilder;
use sfq_cells::counter::CounterBit;
use sfq_cells::logic::{AndGate, Dand, NotGate, SyncSampler};
use sfq_cells::storage::{Dro, HcDro, Ndro, Ndroc};
use sfq_cells::transport::{Jtl, Merger, Splitter};
use sfq_sim::fault::FaultPlan;
use sfq_sim::prelude::*;
use sfq_sim::vcd::to_vcd;
use sfq_sim::violation::ViolationPolicy;

/// Everything a run exposes to the outside world.
#[derive(Debug, PartialEq)]
struct Observables {
    traces: Vec<PulseTrace>,
    violations: Vec<Violation>,
    vcd: String,
    events_processed: u64,
    peak_queue_depth: usize,
    sim_time_advanced: Duration,
    fanout_rows_visited: u64,
    degraded_drops: u64,
    /// `Simulator::stored` of every cell, in id order.
    stored: Vec<Option<u8>>,
    /// `Simulator::fault_counts`: pulses a plan dropped and duplicated.
    fault_counts: (u64, u64),
}

impl Observables {
    /// FNV-64 fingerprint of every field but `fault_counts`, which the
    /// pins below predate, for the pins below.
    fn fingerprint(&self) -> String {
        let mut h = Fnv64::new();
        h.write_u64(self.traces.len() as u64);
        for t in &self.traces {
            h.write_str(t.label());
            h.write_u64(t.len() as u64);
            for p in t.pulses() {
                h.write_u64(p.as_fs());
            }
        }
        hash_violations(&mut h, &self.violations);
        h.write_str(&self.vcd);
        h.write_u64(self.events_processed);
        h.write_u64(self.peak_queue_depth as u64);
        h.write_u64(self.sim_time_advanced.as_fs());
        h.write_u64(self.fanout_rows_visited);
        h.write_u64(self.degraded_drops);
        hash_stored(&mut h, &self.stored);
        digest_hex(h.finish())
    }
}

/// Absorbs every field of every violation.
fn hash_violations(h: &mut Fnv64, violations: &[Violation]) {
    h.write_u64(violations.len() as u64);
    for v in violations {
        h.write_u64(v.at.as_fs());
        h.write_str(&v.cell);
        h.write_str(v.kind);
        h.write_str(&v.detail);
    }
}

/// Absorbs every cell's stored value (`None` as `u64::MAX`).
fn hash_stored(h: &mut Fnv64, stored: &[Option<u8>]) {
    h.write_u64(stored.len() as u64);
    for s in stored {
        h.write_u64(s.map_or(u64::MAX, u64::from));
    }
}

/// Pinned [`Observables::fingerprint`] of the zoo under `Record` (seed
/// `0x0200`) and under `Degrade` (seed `0x0201`). These and the pins
/// below were measured while the boxed cells and the compiled ops were
/// separate implementations that agreed; every engine × scheduler
/// pairing must still reproduce them.
const PINNED_ZOO: [&str; 2] = ["8cbbc7434c8ac29e", "d4db37e45c5f541f"];

/// Pinned fingerprints of the random netlists, per seed.
const PINNED_RANDOM: [(u64, &str); 4] = [
    (1, "3eeab7cfa68ff41a"),
    (0xBEEF, "8cb9647822b98b50"),
    (0x5EED_5EED, "b2c362346b0af5fc"),
    (0xFFFF_FFFF_0000_0001, "599e9e2ffae6f91c"),
];

/// Pinned fingerprints of the relay circuit, clean under `Record` (seed
/// `0x0300`) and faulted under `Degrade` (seed `0x0301`), measured before
/// the compiled engine had a relay path, and under its pin faults alone
/// with `Degrade` (seed `0x0302`), measured while every delivery under a
/// fault plan still took the full step.
const PINNED_RELAY: [&str; 3] = ["0ccfb86a3839adf3", "fa65be743ae61353", "8e2bdc20939a4c87"];

/// Pinned fingerprints of the faulted random netlists, per seed.
const PINNED_RANDOM_FAULTED: [(u64, &str); 2] =
    [(7, "3e0d90d0e28aa323"), (0xFA07, "29fc58351cf5e2b7")];

/// Pinned [`design_fingerprint`] of every registered design's faulted
/// 4×4 sweep.
const PINNED_REGISTRY_FAULTED: [(Design, &str); 4] = [
    (Design::NdroBaseline, "b34303bce67cdcbe"),
    (Design::HiPerRf, "495ed7f0429de33e"),
    (Design::DualBanked, "9ad42b6cfee369ac"),
    (Design::ShiftRegister, "d839a170efaa82cb"),
];

/// `Simulator::stored` of every cell of `sim`, in id order.
fn stored_cells(sim: &Simulator) -> Vec<Option<u8>> {
    sim.netlist()
        .iter()
        .map(|(id, _, _)| sim.stored(id))
        .collect()
}

/// One of every lowerable primitive, fed from three stimulus inputs
/// through splitter trees with a mix of clean and deliberately tight
/// delays. Tight pairs hit the HC-DRO hold window, the NDROC re-arm
/// time, and the sync sampler's setup aperture, so violation recording
/// and (under `Degrade`) pulse destruction run on every burst.
fn zoo_circuit() -> (Netlist, Vec<Pin>, Vec<Pin>) {
    let mut b = CircuitBuilder::new();
    let inputs: Vec<Pin> = (0..3)
        .map(|_| {
            let id = b.jtl();
            Pin::new(id, Jtl::IN)
        })
        .collect();
    let roots: Vec<Pin> = inputs
        .iter()
        .map(|p| Pin::new(p.component, Jtl::OUT))
        .collect();
    let a = b.splitter_tree(roots[0], 8);
    let c = b.splitter_tree(roots[1], 8);
    let k = b.splitter_tree(roots[2], 4);
    let ps = Duration::from_ps;

    let mut taps = Vec::new();
    let dro = b.dro();
    b.connect_delayed(a[0], Pin::new(dro, Dro::D), ps(5.0));
    b.connect_delayed(c[0], Pin::new(dro, Dro::CLK), ps(30.0));
    taps.push(Pin::new(dro, Dro::Q));

    // D pulses 4 ps apart: inside the 10 ps design rule *and* the hard
    // guard band, so this is a violation (and a drop under `Degrade`).
    let hc = b.hcdro();
    b.connect_delayed(a[1], Pin::new(hc, HcDro::D), ps(5.0));
    b.connect_delayed(a[2], Pin::new(hc, HcDro::D), ps(9.0));
    b.connect_delayed(c[1], Pin::new(hc, HcDro::CLK), ps(60.0));
    taps.push(Pin::new(hc, HcDro::Q));

    let ndro = b.ndro();
    b.connect_delayed(a[3], Pin::new(ndro, Ndro::SET), ps(5.0));
    b.connect_delayed(c[2], Pin::new(ndro, Ndro::CLK), ps(25.0));
    b.connect_delayed(k[0], Pin::new(ndro, Ndro::RESET), ps(120.0));
    taps.push(Pin::new(ndro, Ndro::OUT));

    // Enables 30 ps apart: inside the 53 ps re-arm time.
    let ndroc = b.ndroc();
    b.connect_delayed(a[4], Pin::new(ndroc, Ndroc::SET), ps(2.0));
    b.connect_delayed(c[3], Pin::new(ndroc, Ndroc::CLK), ps(20.0));
    b.connect_delayed(c[4], Pin::new(ndroc, Ndroc::CLK), ps(50.0));
    taps.push(Pin::new(ndroc, Ndroc::OUT0));
    taps.push(Pin::new(ndroc, Ndroc::OUT1));

    let dand = b.dand();
    b.connect_delayed(a[5], Pin::new(dand, Dand::A), ps(5.0));
    b.connect_delayed(c[5], Pin::new(dand, Dand::B), ps(8.0));
    taps.push(Pin::new(dand, Dand::OUT));

    let and = b.and_gate();
    b.connect_delayed(a[6], Pin::new(and, AndGate::A), ps(2.0));
    b.connect_delayed(c[6], Pin::new(and, AndGate::B), ps(3.0));
    b.connect_delayed(k[1], Pin::new(and, AndGate::CLK), ps(40.0));
    taps.push(Pin::new(and, AndGate::OUT));

    let not = b.not_gate();
    b.connect_delayed(a[7], Pin::new(not, NotGate::A), ps(2.0));
    b.connect_delayed(k[2], Pin::new(not, NotGate::CLK), ps(35.0));
    taps.push(Pin::new(not, NotGate::OUT));

    // Data 1 ps before the edge: inside the 3 ps setup aperture.
    let sync = b.sync_sampler();
    b.connect_delayed(c[7], Pin::new(sync, SyncSampler::D), ps(9.0));
    b.connect_delayed(k[3], Pin::new(sync, SyncSampler::CLK), ps(10.0));
    taps.push(Pin::new(sync, SyncSampler::OUT));

    let cnt = b.counter_bit();
    b.connect_delayed(taps[0], Pin::new(cnt, CounterBit::IN), ps(6.0));
    b.connect_delayed(taps[1], Pin::new(cnt, CounterBit::READ), ps(50.0));
    taps.push(Pin::new(cnt, CounterBit::CARRY));
    taps.push(Pin::new(cnt, CounterBit::VALUE));

    let m = b.merger();
    b.connect_delayed(taps[5], Pin::new(m, Merger::IN_A), ps(4.0));
    b.connect_delayed(taps[6], Pin::new(m, Merger::IN_B), ps(4.5));
    taps.push(Pin::new(m, Merger::OUT));

    (b.finish(), inputs, taps)
}

/// The edges of the compiled engine's relay path, beside the zoo: a
/// probed splitter (its deliveries take the full step), a chain of 40
/// JTLs with distinct delays (past the 32-entry relay table, so the last
/// ones stay unflagged), a splitter driven on pin 1 and pin 5 (pin 5 does
/// not fit the flag), JTLs driven on pins 2 and 3, and a merger, an
/// HC-DRO and a DRO behind them, so relay timing decides what the
/// stateful steps see. Returns the netlist, the stimulus inputs, the
/// probed outputs, and the relay inputs the fault plan targets.
fn relay_circuit() -> (Netlist, Vec<Pin>, Vec<Pin>, Vec<Pin>) {
    let mut b = CircuitBuilder::new();
    let ps = Duration::from_ps;
    let inputs: Vec<Pin> = (0..3).map(|_| Pin::new(b.jtl(), Jtl::IN)).collect();
    let a = b.splitter_tree(Pin::new(inputs[0].component, Jtl::OUT), 6);
    let c = b.splitter_tree(Pin::new(inputs[1].component, Jtl::OUT), 4);
    let k = b.splitter_tree(Pin::new(inputs[2].component, Jtl::OUT), 3);
    let mut taps = Vec::new();

    let probed = b.splitter();
    b.connect_delayed(a[0], Pin::new(probed, Splitter::IN), ps(1.5));
    taps.push(Pin::new(probed, Splitter::OUT0));

    let mut chain = Pin::new(probed, Splitter::OUT1);
    for i in 0..40 {
        let j = b.jtl_with_delay(ps(1.0 + 0.25 * i as f64));
        b.connect_delayed(chain, Pin::new(j, Jtl::IN), ps(0.5));
        chain = Pin::new(j, Jtl::OUT);
    }
    taps.push(chain);

    let odd = b.splitter();
    let pin1 = Pin::new(odd, 1);
    let pin5 = Pin::new(odd, 5);
    b.connect_delayed(a[1], pin1, ps(2.0));
    b.connect_delayed(c[0], pin5, ps(2.5));
    let j2 = b.jtl_with_delay(ps(4.0));
    let j3 = b.jtl_with_delay(ps(4.0));
    b.connect_delayed(Pin::new(odd, Splitter::OUT0), Pin::new(j2, 2), ps(1.0));
    b.connect_delayed(Pin::new(odd, Splitter::OUT1), Pin::new(j3, 3), ps(1.0));

    let m = b.merger();
    b.connect_delayed(Pin::new(j2, Jtl::OUT), Pin::new(m, Merger::IN_A), ps(1.0));
    b.connect_delayed(a[2], Pin::new(m, Merger::IN_B), ps(9.0));
    taps.push(Pin::new(m, Merger::OUT));

    let hc = b.hcdro();
    b.connect_delayed(Pin::new(j3, Jtl::OUT), Pin::new(hc, HcDro::D), ps(1.0));
    b.connect_delayed(a[3], Pin::new(hc, HcDro::D), ps(12.0));
    b.connect_delayed(k[0], Pin::new(hc, HcDro::CLK), ps(40.0));
    taps.push(Pin::new(hc, HcDro::Q));

    let dro = b.dro();
    b.connect_delayed(Pin::new(m, Merger::OUT), Pin::new(dro, Dro::D), ps(2.0));
    b.connect_delayed(k[1], Pin::new(dro, Dro::CLK), ps(30.0));
    taps.push(Pin::new(dro, Dro::Q));
    taps.extend([a[4], a[5], c[1], c[2], c[3], k[2]]);

    let targets = vec![pin1, pin5, Pin::new(j2, 2), Pin::new(probed, Splitter::IN)];
    (b.finish(), inputs, taps, targets)
}

/// The relay circuit's pin faults: drops and duplicates on relay inputs
/// (flagged, unflagged, probed) and a spurious pulse, with no delay
/// variation, so the compiled engine keeps its relay path.
fn relay_pin_fault_plan() -> FaultPlan {
    let (_, inputs, _, targets) = relay_circuit();
    FaultPlan::new(0x0301)
        .drop_nth(targets[0], 2)
        .duplicate_nth(targets[1], 1, Duration::from_ps(2.0))
        .duplicate_nth(targets[2], 3, Duration::from_ps(0.5))
        .drop_nth(targets[3], 1)
        .spurious(inputs[2], Time::from_ps(700.0))
}

/// The relay circuit's fault plan: its pin faults plus per-instance delay
/// variation, under which every delivery takes the full step.
fn relay_fault_plan() -> FaultPlan {
    relay_pin_fault_plan().with_delay_sigma(0.2)
}

/// Builds a seeded random layered circuit; deterministic per seed. Same
/// topology family as the scheduler-equivalence suite, with HC-DRO and
/// NDROC cells in the draw so stateful timing checks are exercised.
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

    let delay = |rng: &mut Rng64| Duration::from_ps(0.1 + rng.next_f64() * 9000.0);
    let take = |frontier: &mut Vec<Pin>, rng: &mut Rng64| {
        let i = rng.next_below(frontier.len());
        frontier.swap_remove(i)
    };

    for step in 0..40 {
        match rng.next_below(6) {
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
            // Tightly-clocked HC-DRO: short delays provoke hold checks.
            3 if frontier.len() >= 2 => {
                let id = b.hcdro();
                let d = take(&mut frontier, &mut rng);
                let clk = take(&mut frontier, &mut rng);
                let tight = |rng: &mut Rng64| Duration::from_ps(0.5 + rng.next_f64() * 20.0);
                b.connect_delayed(d, Pin::new(id, HcDro::D), tight(&mut rng));
                b.connect_delayed(clk, Pin::new(id, HcDro::CLK), tight(&mut rng));
                frontier.push(Pin::new(id, HcDro::Q));
            }
            // NDROC demux: short enable spacing provokes re-arm checks.
            4 if frontier.len() >= 2 => {
                let id = b.ndroc();
                let set = take(&mut frontier, &mut rng);
                let clk = take(&mut frontier, &mut rng);
                let tight = |rng: &mut Rng64| Duration::from_ps(0.5 + rng.next_f64() * 40.0);
                b.connect_delayed(set, Pin::new(id, Ndroc::SET), tight(&mut rng));
                b.connect_delayed(clk, Pin::new(id, Ndroc::CLK), tight(&mut rng));
                frontier.push(Pin::new(id, Ndroc::OUT0));
                frontier.push(Pin::new(id, Ndroc::OUT1));
            }
            _ => {
                let id = b.jtl();
                let from = take(&mut frontier, &mut rng);
                b.connect_delayed(from, Pin::new(id, Jtl::IN), delay(&mut rng));
                frontier.push(Pin::new(id, Jtl::OUT));
            }
        }
        assert!(!frontier.is_empty(), "step {step} emptied the frontier");
    }
    (b.finish(), inputs, frontier)
}

/// Drives one circuit on one engine × scheduler pairing and captures
/// every observable. Stimulus is forked from `seed`; interleaved bounded
/// runs exercise the deadline push-back and (for the compiled engine)
/// slot state carried between runs.
fn run_circuit(
    circuit: &dyn Fn() -> (Netlist, Vec<Pin>, Vec<Pin>),
    seed: u64,
    scheduler: SchedulerKind,
    engine: EngineKind,
    policy: ViolationPolicy,
    fault: Option<FaultPlan>,
) -> Observables {
    let (netlist, inputs, probes) = circuit();
    let mut sim = Simulator::with_engine(netlist, scheduler, engine);
    assert_eq!(sim.engine_kind(), engine);
    sim.set_violation_policy(policy);
    if let Some(plan) = fault {
        sim.set_fault_plan(plan);
    }
    let probe_ids: Vec<ProbeId> = probes
        .iter()
        .enumerate()
        .map(|(i, &p)| sim.probe(p, format!("tap{i}")))
        .collect();

    let mut rng = Rng64::fork(seed, 0xD1CE);
    for burst in 0..20u32 {
        let pin = inputs[rng.next_below(inputs.len())];
        let at = sim.now() + Duration::from_ps(rng.next_f64() * 2000.0);
        sim.inject(pin, at);
        if burst % 7 == 6 {
            sim.run_for(sim.now() + Duration::from_ps(350.0));
        }
    }
    sim.run();
    observe(&sim, &probe_ids)
}

/// Every observable of `sim`, with `probe_ids`' traces in order.
fn observe(sim: &Simulator, probe_ids: &[ProbeId]) -> Observables {
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
        fanout_rows_visited: stats.fanout_rows_visited,
        degraded_drops: sim.degraded_drops(),
        stored: stored_cells(sim),
        fault_counts: sim.fault_counts(),
    }
}

/// Asserts all four engine × scheduler pairings agree with the reference
/// run and with its pinned fingerprint, returning the reference run.
fn assert_all_pairings_match(
    circuit: &dyn Fn() -> (Netlist, Vec<Pin>, Vec<Pin>),
    seed: u64,
    policy: ViolationPolicy,
    fault: &dyn Fn() -> Option<FaultPlan>,
    what: &str,
    pin: &str,
) -> Observables {
    let reference = run_circuit(
        circuit,
        seed,
        SchedulerKind::ReferenceHeap,
        EngineKind::DynInterpreter,
        policy,
        fault(),
    );
    for scheduler in SchedulerKind::ALL {
        for engine in EngineKind::ALL {
            let run = run_circuit(circuit, seed, scheduler, engine, policy, fault());
            assert_eq!(reference, run, "{what}: {engine} on {scheduler:?}");
            assert_eq!(
                run.fingerprint(),
                pin,
                "{what}: pinned fingerprint, {engine} on {scheduler:?}"
            );
        }
    }
    reference
}

#[test]
fn zoo_matches_across_engines_and_schedulers() {
    let reference = assert_all_pairings_match(
        &zoo_circuit,
        0x0200,
        ViolationPolicy::Record,
        &|| None,
        "zoo/record",
        PINNED_ZOO[0],
    );
    assert!(reference.events_processed > 0);
    assert!(
        !reference.violations.is_empty(),
        "the zoo's tight delays must exercise violation recording"
    );
    assert!(
        reference.traces.iter().any(|t| !t.is_empty()),
        "the zoo must emit observable pulses"
    );
}

#[test]
fn zoo_degrade_drops_identically() {
    let reference = assert_all_pairings_match(
        &zoo_circuit,
        0x0201,
        ViolationPolicy::Degrade,
        &|| None,
        "zoo/degrade",
        PINNED_ZOO[1],
    );
    assert!(
        reference.degraded_drops > 0,
        "the zoo's guard-band violations must destroy pulses under Degrade"
    );
}

#[test]
fn relay_edge_cases_match_across_engines_and_schedulers() {
    let circuit = || {
        let (netlist, inputs, taps, _) = relay_circuit();
        (netlist, inputs, taps)
    };
    let reference = assert_all_pairings_match(
        &circuit,
        0x0300,
        ViolationPolicy::Record,
        &|| None,
        "relay/record",
        PINNED_RELAY[0],
    );
    let chain_end = &reference.traces[1];
    assert!(!chain_end.is_empty(), "the 40-JTL chain must deliver");
    assert!(
        !reference.traces[2].is_empty() && !reference.traces[3].is_empty(),
        "pin 1 and pin 5 of the splitter must reach the merger and HC-DRO"
    );
}

#[test]
fn relay_fault_replay_is_engine_invariant() {
    let circuit = || {
        let (netlist, inputs, taps, _) = relay_circuit();
        (netlist, inputs, taps)
    };
    let reference = assert_all_pairings_match(
        &circuit,
        0x0301,
        ViolationPolicy::Degrade,
        &|| Some(relay_fault_plan()),
        "relay/fault",
        PINNED_RELAY[1],
    );
    assert!(reference.events_processed > 0);
}

#[test]
fn relay_pin_fault_replay_is_engine_invariant() {
    // Pin faults alone leave the ops nominal, so flagged deliveries keep
    // the relay table while every delivery is counted against the plan.
    let circuit = || {
        let (netlist, inputs, taps, _) = relay_circuit();
        (netlist, inputs, taps)
    };
    let reference = assert_all_pairings_match(
        &circuit,
        0x0302,
        ViolationPolicy::Degrade,
        &|| Some(relay_pin_fault_plan()),
        "relay/pin faults",
        PINNED_RELAY[2],
    );
    let (dropped, duplicated) = reference.fault_counts;
    assert!(
        dropped > 0 && duplicated > 0,
        "the plan must hit: {:?}",
        reference.fault_counts
    );
}

/// Drives a circuit until `pause`, then probes `late` while deliveries
/// are still queued (which drops the compiled tables mid-run), runs to
/// the end, and returns every observable, the late probe's trace last.
fn run_with_a_probe_mid_flight(
    circuit: fn() -> (Netlist, Pin, Vec<Pin>, Pin),
    pause: Time,
    scheduler: SchedulerKind,
    engine: EngineKind,
) -> Observables {
    let (netlist, input, taps, late) = circuit();
    let mut sim = Simulator::with_engine(netlist, scheduler, engine);
    let mut probe_ids: Vec<ProbeId> = taps
        .iter()
        .enumerate()
        .map(|(i, &p)| sim.probe(p, format!("tap{i}")))
        .collect();
    sim.inject(input, Time::ZERO);
    sim.run_for(pause);
    assert!(sim.snapshot().is_err(), "a delivery must still be queued");
    probe_ids.push(sim.probe(late, "late"));
    sim.run();
    observe(&sim, &probe_ids)
}

/// Asserts every engine × scheduler pairing of
/// [`run_with_a_probe_mid_flight`] matches heap + dyn, and returns that
/// reference run's traces in picoseconds.
fn probe_mid_flight_matches(
    circuit: fn() -> (Netlist, Pin, Vec<Pin>, Pin),
    pause: Time,
) -> Vec<Vec<f64>> {
    let reference = run_with_a_probe_mid_flight(
        circuit,
        pause,
        SchedulerKind::ReferenceHeap,
        EngineKind::DynInterpreter,
    );
    for scheduler in SchedulerKind::ALL {
        for engine in EngineKind::ALL {
            let run = run_with_a_probe_mid_flight(circuit, pause, scheduler, engine);
            assert_eq!(reference, run, "{engine} on {scheduler:?}");
        }
    }
    let ps = |t: &PulseTrace| t.pulses().iter().map(|p| p.as_ps()).collect();
    reference.traces.iter().map(ps).collect()
}

#[test]
fn a_probe_on_a_splitter_with_its_delivery_queued_records_it() {
    // src -> splitter -> {a, b}; the delivery into the splitter (at 10 ps)
    // is queued, flagged, when its OUT0 gets a probe.
    fn circuit() -> (Netlist, Pin, Vec<Pin>, Pin) {
        let mut b = CircuitBuilder::new();
        let ps = Duration::from_ps;
        let src = b.jtl();
        let split = b.splitter();
        let (a, c) = (b.jtl(), b.jtl());
        b.connect_delayed(
            Pin::new(src, Jtl::OUT),
            Pin::new(split, Splitter::IN),
            ps(8.0),
        );
        b.connect_delayed(
            Pin::new(split, Splitter::OUT0),
            Pin::new(a, Jtl::IN),
            ps(2.0),
        );
        b.connect_delayed(
            Pin::new(split, Splitter::OUT1),
            Pin::new(c, Jtl::IN),
            ps(3.0),
        );
        let taps = vec![Pin::new(a, Jtl::OUT), Pin::new(c, Jtl::OUT)];
        let late = Pin::new(split, Splitter::OUT0);
        (b.finish(), Pin::new(src, Jtl::IN), taps, late)
    }
    let traces = probe_mid_flight_matches(circuit, Time::from_ps(5.0));
    assert_eq!(traces, [vec![17.0], vec![18.0], vec![13.0]]);
}

#[test]
fn a_queued_jtl_delivery_keeps_its_delay_when_an_earlier_relay_is_probed() {
    // in -> x (10 ps) -> z (5 ps) -> t (10 ps) -> out, with only `out`
    // probed. The delivery into t (at 20 ps) is queued, flagged with the
    // 10 ps op's relay-table index, when x gets a probe: the rebuilt table
    // interns the 5 ps op first, at that index.
    fn circuit() -> (Netlist, Pin, Vec<Pin>, Pin) {
        let mut b = CircuitBuilder::new();
        let ps = Duration::from_ps;
        let input = b.jtl();
        let x = b.jtl_with_delay(ps(10.0));
        let z = b.jtl_with_delay(ps(5.0));
        let t = b.jtl_with_delay(ps(10.0));
        let out = b.jtl();
        for (from, to) in [(input, x), (x, z), (z, t), (t, out)] {
            b.connect_delayed(Pin::new(from, Jtl::OUT), Pin::new(to, Jtl::IN), ps(1.0));
        }
        let late = Pin::new(x, Jtl::OUT);
        let taps = vec![Pin::new(out, Jtl::OUT)];
        (b.finish(), Pin::new(input, Jtl::IN), taps, late)
    }
    let traces = probe_mid_flight_matches(circuit, Time::from_ps(19.5));
    assert_eq!(traces, [vec![33.0], vec![]]);
}

#[test]
fn random_netlists_match_across_engines() {
    for (seed, pin) in PINNED_RANDOM {
        let circuit = move || random_circuit(seed);
        let reference = assert_all_pairings_match(
            &circuit,
            seed,
            ViolationPolicy::Record,
            &|| None,
            "random/record",
            pin,
        );
        assert!(
            reference.events_processed > 0,
            "seed {seed:#x}: workload never touched the queue"
        );
    }
}

#[test]
fn random_netlist_fault_replay_is_engine_invariant() {
    for (seed, pin) in PINNED_RANDOM_FAULTED {
        let circuit = move || random_circuit(seed);
        let (_, inputs, _) = random_circuit(seed);
        let plan = move || {
            Some(
                FaultPlan::new(seed ^ 0xF001)
                    .with_delay_sigma(0.25)
                    .drop_nth(inputs[0], 2)
                    .duplicate_nth(inputs[1], 1, Duration::from_ps(3.0))
                    .spurious(inputs[2], Time::from_ps(500.0)),
            )
        };
        let reference = assert_all_pairings_match(
            &circuit,
            seed,
            ViolationPolicy::Degrade,
            &plan,
            "random/fault",
            pin,
        );
        assert!(reference.events_processed > 0, "seed {seed:#x}");
    }
}

#[test]
fn vcd_is_byte_identical_across_engines() {
    let dyn_run = run_circuit(
        &zoo_circuit,
        0xA5A5,
        SchedulerKind::CalendarQueue,
        EngineKind::DynInterpreter,
        ViolationPolicy::Record,
        None,
    );
    let compiled = run_circuit(
        &zoo_circuit,
        0xA5A5,
        SchedulerKind::CalendarQueue,
        EngineKind::Compiled,
        ViolationPolicy::Record,
        None,
    );
    assert!(!dyn_run.vcd.is_empty() && dyn_run.vcd.contains("$var"));
    assert_eq!(dyn_run.vcd.as_bytes(), compiled.vcd.as_bytes());
}

/// What [`run_design`] compares: reads and peeks, violations, counters,
/// degraded drops, and every cell's stored value.
type DesignRun = (Vec<u64>, Vec<Violation>, SimStats, u64, Vec<Option<u8>>);

/// FNV-64 fingerprint of every field of a [`DesignRun`].
fn design_fingerprint((reads, violations, stats, drops, stored): &DesignRun) -> String {
    let mut h = Fnv64::new();
    h.write_u64(reads.len() as u64);
    for &r in reads {
        h.write_u64(r);
    }
    hash_violations(&mut h, violations);
    h.write_u64(stats.events_processed);
    h.write_u64(stats.peak_queue_depth as u64);
    h.write_u64(stats.sim_time_advanced.as_fs());
    h.write_u64(stats.fanout_rows_visited);
    h.write_u64(*drops);
    hash_stored(&mut h, stored);
    digest_hex(h.finish())
}

/// Drives one design on one engine × scheduler pairing through a
/// write/read/peek sweep — peeks interleave with port traffic, so they
/// must read the cells the last run stepped.
fn run_design(
    design: Design,
    g: RfGeometry,
    scheduler: SchedulerKind,
    engine: EngineKind,
    fault: Option<FaultPlan>,
) -> DesignRun {
    let mut rf = design.build(g);
    rf.set_scheduler(scheduler);
    rf.set_engine(engine);
    assert_eq!(rf.engine_kind(), engine);
    if let Some(plan) = fault {
        rf.set_violation_policy(ViolationPolicy::Degrade);
        rf.set_fault_plan(plan);
    }
    let mask = (1u64 << g.width()) - 1;
    let mut reads = Vec::new();
    for reg in 0..g.registers() {
        rf.write(reg, (0xDA7A + 3 * reg as u64) & mask);
        reads.push(rf.peek(reg));
    }
    for reg in 0..g.registers() {
        reads.push(rf.read(reg));
        reads.push(rf.peek(reg));
    }
    let stats = rf.sim_stats();
    (
        reads,
        rf.violations().to_vec(),
        stats,
        rf.degraded_drops(),
        stored_cells(rf.harness().sim()),
    )
}

/// What [`run_skewed_writes`] compares: reads and peeks, violations and
/// counters.
type SkewRun = (Vec<u64>, Vec<Violation>, SimStats);

/// Writes every register of a fresh `design` with the data train skewed
/// `skew_ps` against the write enable, on one engine × scheduler pairing,
/// then reads each register back — peeking after every access.
fn run_skewed_writes(
    design: Design,
    g: RfGeometry,
    skew_ps: f64,
    scheduler: SchedulerKind,
    engine: EngineKind,
) -> SkewRun {
    let mut rf = design.build(g);
    rf.set_scheduler(scheduler);
    rf.set_engine(engine);
    let mask = (1u64 << g.width()) - 1;
    let mut reads = Vec::new();
    for reg in 0..g.registers() {
        rf.write_skewed(reg, (0x5EED + 5 * reg as u64) & mask, skew_ps);
        reads.push(rf.peek(reg));
    }
    for reg in 0..g.registers() {
        reads.push(rf.read(reg));
        reads.push(rf.peek(reg));
    }
    (reads, rf.violations().to_vec(), rf.sim_stats())
}

#[test]
fn skewed_writes_match_across_engines_and_schedulers() {
    // ±12 ps lies outside HiPerRF's [−8, +8] ps and the dual-banked
    // file's [−11, +5] ps write windows. A write outside its window
    // records no violation — the mistimed data train just stores the
    // wrong fluxons — so the sweep must show a read that differs from the
    // nominal write's.
    let g = RfGeometry::paper_4x4();
    let oracle = |design, skew_ps| {
        run_skewed_writes(
            design,
            g,
            skew_ps,
            SchedulerKind::ReferenceHeap,
            EngineKind::DynInterpreter,
        )
    };
    let mut misread = false;
    for design in registry() {
        let nominal = oracle(design, 0.0);
        for skew_ps in (-3..=3).map(|k| 4.0 * f64::from(k)) {
            let reference = oracle(design, skew_ps);
            misread |= reference.0 != nominal.0;
            for scheduler in SchedulerKind::ALL {
                for engine in EngineKind::ALL {
                    let run = run_skewed_writes(design, g, skew_ps, scheduler, engine);
                    assert_eq!(
                        reference, run,
                        "{design} at {skew_ps:+} ps: {engine} on {scheduler:?}"
                    );
                }
            }
        }
    }
    assert!(misread, "no skew in the sweep left a design's write window");
}

#[test]
fn every_registered_design_matches_across_engines() {
    for design in registry() {
        for g in [RfGeometry::paper_4x4(), RfGeometry::paper_16x16()] {
            let reference = run_design(
                design,
                g,
                SchedulerKind::ReferenceHeap,
                EngineKind::DynInterpreter,
                None,
            );
            assert!(
                reference.2.events_processed > 0,
                "{design} at {g}: no events processed"
            );
            for scheduler in SchedulerKind::ALL {
                for engine in EngineKind::ALL {
                    let run = run_design(design, g, scheduler, engine, None);
                    assert_eq!(reference, run, "{design} at {g}: {engine} on {scheduler:?}");
                }
            }
        }
    }
}

#[test]
fn registry_fault_replay_is_engine_invariant() {
    assert!(
        registry().eq(PINNED_REGISTRY_FAULTED.iter().map(|&(design, _)| design)),
        "every registered design has a pinned fingerprint"
    );
    for (design, pin) in PINNED_REGISTRY_FAULTED {
        let g = RfGeometry::paper_4x4();
        let plan = || Some(FaultPlan::new(0xD1F7).with_delay_sigma(0.3));
        let reference = run_design(
            design,
            g,
            SchedulerKind::ReferenceHeap,
            EngineKind::DynInterpreter,
            plan(),
        );
        for scheduler in SchedulerKind::ALL {
            for engine in EngineKind::ALL {
                let run = run_design(design, g, scheduler, engine, plan());
                assert_eq!(
                    reference, run,
                    "{design} faulted: {engine} on {scheduler:?}"
                );
                assert_eq!(
                    design_fingerprint(&run),
                    pin,
                    "{design} faulted: pinned fingerprint, {engine} on {scheduler:?}"
                );
            }
        }
    }
}

#[test]
fn delivery_counters_are_engine_invariant() {
    // The CSR work counter is defined engine-independently: one fan-out
    // row per emission. Both engines on every scheduler must report the
    // same figure, and it must be live (a delivering workload cannot
    // report zero).
    let circuit = || random_circuit(11);
    let oracle = run_circuit(
        &circuit,
        11,
        SchedulerKind::ReferenceHeap,
        EngineKind::DynInterpreter,
        ViolationPolicy::Record,
        None,
    );
    assert!(oracle.fanout_rows_visited > 0);
    for scheduler in SchedulerKind::ALL {
        let run = run_circuit(
            &circuit,
            11,
            scheduler,
            EngineKind::Compiled,
            ViolationPolicy::Record,
            None,
        );
        assert_eq!(oracle.fanout_rows_visited, run.fanout_rows_visited);
    }
}

/// One register file driven through writes, reads and peeks, with the
/// engine set to `engines[phase]` before each of three phases. Returns
/// the reads and peeks, violations, counters, and the probes' VCD.
fn run_engine_phases(
    design: Design,
    engines: [EngineKind; 3],
) -> (Vec<u64>, Vec<Violation>, SimStats, String) {
    let g = RfGeometry::paper_4x4();
    let mask = (1u64 << g.width()) - 1;
    let mut rf = design.build(g);
    let mut reads = Vec::new();
    for (phase, engine) in engines.into_iter().enumerate() {
        rf.set_engine(engine);
        for reg in 0..g.registers() {
            if (reg + phase) % 2 == 0 {
                rf.write(reg, (0x5A + 7 * (reg + phase) as u64) & mask);
            }
            reads.push(rf.peek(reg));
            reads.push(rf.read(reg));
        }
    }
    let sim = rf.harness().sim();
    (
        reads,
        rf.violations().to_vec(),
        sim.stats(),
        sim.to_vcd("rf"),
    )
}

#[test]
fn engine_switches_mid_life_match_an_all_dyn_run() {
    // Switching engines drops the compiled tables; the cell array they
    // stepped carries every write into the next phase.
    use EngineKind::{Compiled, DynInterpreter};
    for design in registry() {
        let reference = run_engine_phases(design, [DynInterpreter; 3]);
        assert!(
            reference.3.contains("\n#"),
            "{design}: the probes recorded no pulses"
        );
        let switched = run_engine_phases(design, [Compiled, DynInterpreter, Compiled]);
        assert_eq!(reference, switched, "{design}");
    }
}

#[test]
fn a_netlist_edited_after_a_run_takes_the_new_wire_with_its_state_intact() {
    use sfq_cells::timing::HCDRO_CLK_TO_OUT_PS;
    for engine in EngineKind::ALL {
        for scheduler in SchedulerKind::ALL {
            let mut b = CircuitBuilder::new();
            let hc = b.hcdro();
            let mut sim = Simulator::with_engine(b.finish(), scheduler, engine);
            // Two fluxons in, one popped: the run leaves one behind.
            for (pin, ps) in [(HcDro::D, 0.0), (HcDro::D, 20.0), (HcDro::CLK, 40.0)] {
                sim.inject(Pin::new(hc, pin), Time::from_ps(ps));
            }
            sim.run();
            assert_eq!(sim.stored(hc), Some(1), "{engine} + {scheduler}");

            // A new cell behind the HC-DRO's output, on a new wire.
            let netlist = sim.netlist_mut();
            let jtl = netlist.add("late", Jtl::with_delay(Duration::from_ps(3.0)));
            let wire = Duration::from_ps(1.0);
            netlist.connect(Pin::new(hc, HcDro::Q), Pin::new(jtl, Jtl::IN), wire);
            let probe = sim.probe(Pin::new(jtl, Jtl::OUT), "late");

            // The fluxon the first run left pops through the new wire.
            sim.inject(Pin::new(hc, HcDro::CLK), Time::from_ps(100.0));
            sim.run();
            let at = Time::from_ps(100.0 + HCDRO_CLK_TO_OUT_PS + 1.0 + 3.0);
            let what = format!("{engine} + {scheduler}");
            assert_eq!(sim.probe_trace(probe).pulses(), [at], "{what}");
            assert_eq!(sim.stored(hc), Some(0), "{what}");
            assert!(sim.violations().is_empty(), "{what}");
        }
    }
}
