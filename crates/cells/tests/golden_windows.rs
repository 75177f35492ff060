//! Golden table of every primitive's behaviour, on both engines.
//!
//! Both engines run one transition function per cell (`sfq_sim::cell`),
//! so their differential cannot catch a semantic error in it. This table
//! anchors the semantics to the `timing` constants instead: every output
//! delay, every capacity, and every timing boundary at the edge and 1 fs
//! to either side — the HC-DRO 10 ps design rule and 7 ps guard band, the
//! NDROC 53 ps re-arm, the DAND 8 ps window (inclusive), the merger 3 ps
//! dead time (exclusive), and the sync sampler's 3 ps setup, 4 ps track
//! and 2 ps hold — under `Record` and under `Degrade`.
//!
//! A second table ties each primitive's step to its row in the per-kind
//! table (`sfq_sim::cell::CellKind`) and to its `sfq-cells` pin constants:
//! the pins the row names are the pins the step takes, and the outputs it
//! counts are the outputs the step emits on.

use std::collections::BTreeSet;

use sfq_cells::counter::CounterBit;
use sfq_cells::logic::{AndGate, Dand, NotGate, SyncSampler, XorGate, CLOCKED_GATE_DELAY_PS};
use sfq_cells::storage::{Dro, HcDro, Ndro, Ndroc};
use sfq_cells::timing::{
    COUNTER_CARRY_PS, COUNTER_READ_PS, DAND_DELAY_PS, DAND_WINDOW_PS, DRO_CLK_TO_OUT_PS,
    HCDRO_CAPACITY, HCDRO_CLK_TO_OUT_PS, HCDRO_HARD_SEP_PS, HCDRO_PULSE_SEP_PS, JTL_DELAY_PS,
    MERGER_DEAD_PS, MERGER_DELAY_PS, NDROC_PROP_PS, NDROC_REARM_PS, NDRO_CLK_TO_OUT_PS,
    SPLITTER_DELAY_PS, SYNC_HOLD_PS, SYNC_SETUP_PS, SYNC_TRACK_PS,
};
use sfq_cells::transport::{Jtl, Merger, Splitter};
use sfq_sim::prelude::*;

/// What one run of a single cell shows: its output pulses as
/// `(time, output pin)` in time order, the kinds of the violations it
/// recorded, and its stored value.
#[derive(Debug, Clone, PartialEq)]
struct Seen {
    out: Vec<(Time, u8)>,
    violations: Vec<&'static str>,
    stored: Option<u8>,
}

fn seen(out: &[(Time, u8)], violations: &[&'static str], stored: Option<u8>) -> Seen {
    Seen {
        out: out.to_vec(),
        violations: violations.to_vec(),
        stored,
    }
}

/// One row: a fresh cell, the pulses injected into it as `(input pin,
/// time)`, and what it must show under `Record` and under `Degrade`.
struct Case {
    what: String,
    cell: fn() -> Cell,
    inputs: Vec<(u8, Time)>,
    record: Seen,
    degrade: Seen,
}

/// A row whose outcome does not depend on the violation policy.
fn case(what: impl Into<String>, cell: fn() -> Cell, inputs: &[(u8, Time)], both: Seen) -> Case {
    Case {
        what: what.into(),
        cell,
        inputs: inputs.to_vec(),
        record: both.clone(),
        degrade: both,
    }
}

/// `ps` picoseconds plus `fs` femtoseconds.
fn at(ps: f64, fs: i64) -> Time {
    Time::from_fs(Time::from_ps(ps).as_fs().checked_add_signed(fs).unwrap())
}

/// `ps` picoseconds.
fn t(ps: f64) -> Time {
    at(ps, 0)
}

/// A `timing` constant as a duration.
fn d(ps: f64) -> Duration {
    Duration::from_ps(ps)
}

/// Each boundary is probed at the edge and 1 fs to either side.
const EDGE: [i64; 3] = [-1, 0, 1];

fn output_delays_and_capacities() -> Vec<Case> {
    let q = |x: f64, delay: f64| t(x) + d(delay);
    vec![
        case(
            "dro: CLK -> Q",
            Dro::cell,
            &[(Dro::D, t(0.0)), (Dro::CLK, t(20.0))],
            seen(&[(q(20.0, DRO_CLK_TO_OUT_PS), Dro::Q)], &[], Some(0)),
        ),
        case(
            "dro: capacity 1, a second write dissipates",
            Dro::cell,
            &[
                (Dro::D, t(0.0)),
                (Dro::D, t(20.0)),
                (Dro::CLK, t(40.0)),
                (Dro::CLK, t(60.0)),
            ],
            seen(&[(q(40.0, DRO_CLK_TO_OUT_PS), Dro::Q)], &[], Some(0)),
        ),
        case(
            "hcdro: capacity 3, a fourth write dissipates",
            HcDro::cell,
            &[
                (HcDro::D, t(0.0)),
                (HcDro::D, t(10.0)),
                (HcDro::D, t(20.0)),
                (HcDro::D, t(30.0)),
            ],
            seen(&[], &[], Some(HCDRO_CAPACITY)),
        ),
        case(
            "hcdro: CLK -> Q pops one fluxon per clock",
            HcDro::cell,
            &[
                (HcDro::D, t(0.0)),
                (HcDro::D, t(10.0)),
                (HcDro::D, t(20.0)),
                (HcDro::D, t(30.0)),
                (HcDro::CLK, t(100.0)),
                (HcDro::CLK, t(110.0)),
                (HcDro::CLK, t(120.0)),
                (HcDro::CLK, t(130.0)),
            ],
            seen(
                &[
                    (q(100.0, HCDRO_CLK_TO_OUT_PS), HcDro::Q),
                    (q(110.0, HCDRO_CLK_TO_OUT_PS), HcDro::Q),
                    (q(120.0, HCDRO_CLK_TO_OUT_PS), HcDro::Q),
                ],
                &[],
                Some(0),
            ),
        ),
        case(
            "ndro: CLK -> OUT keeps the fluxon, RESET clears it",
            Ndro::cell,
            &[
                (Ndro::SET, t(0.0)),
                (Ndro::CLK, t(20.0)),
                (Ndro::CLK, t(40.0)),
                (Ndro::RESET, t(60.0)),
                (Ndro::CLK, t(80.0)),
            ],
            seen(
                &[
                    (q(20.0, NDRO_CLK_TO_OUT_PS), Ndro::OUT),
                    (q(40.0, NDRO_CLK_TO_OUT_PS), Ndro::OUT),
                ],
                &[],
                Some(0),
            ),
        ),
        case(
            "ndroc: CLK -> OUT1 unselected, OUT0 selected",
            Ndroc::cell,
            &[
                (Ndroc::CLK, t(0.0)),
                (Ndroc::SET, t(30.0)),
                (Ndroc::CLK, t(60.0)),
            ],
            seen(
                &[
                    (q(0.0, NDROC_PROP_PS), Ndroc::OUT1),
                    (q(60.0, NDROC_PROP_PS), Ndroc::OUT0),
                ],
                &[],
                Some(1),
            ),
        ),
        case(
            "dand: coincidence -> OUT",
            Dand::cell,
            &[(Dand::A, t(0.0)), (Dand::B, t(3.0))],
            seen(&[(q(3.0, DAND_DELAY_PS), Dand::OUT)], &[], None),
        ),
        case(
            "and: CLK -> OUT iff both latched",
            AndGate::cell,
            &[
                (AndGate::A, t(0.0)),
                (AndGate::B, t(1.0)),
                (AndGate::CLK, t(10.0)),
                (AndGate::A, t(20.0)),
                (AndGate::CLK, t(30.0)),
            ],
            seen(&[(q(10.0, CLOCKED_GATE_DELAY_PS), AndGate::OUT)], &[], None),
        ),
        case(
            "xor: CLK -> OUT iff exactly one latched",
            XorGate::cell,
            &[
                (XorGate::A, t(0.0)),
                (XorGate::CLK, t(10.0)),
                (XorGate::A, t(20.0)),
                (XorGate::B, t(21.0)),
                (XorGate::CLK, t(30.0)),
            ],
            seen(&[(q(10.0, CLOCKED_GATE_DELAY_PS), XorGate::OUT)], &[], None),
        ),
        case(
            "not: CLK -> OUT iff nothing latched",
            NotGate::cell,
            &[
                (NotGate::CLK, t(10.0)),
                (NotGate::A, t(20.0)),
                (NotGate::CLK, t(30.0)),
            ],
            seen(&[(q(10.0, CLOCKED_GATE_DELAY_PS), NotGate::OUT)], &[], None),
        ),
        case(
            "sync: CLK -> OUT",
            SyncSampler::cell,
            &[(SyncSampler::D, t(10.0)), (SyncSampler::CLK, t(15.0))],
            seen(
                &[(q(15.0, CLOCKED_GATE_DELAY_PS), SyncSampler::OUT)],
                &[],
                None,
            ),
        ),
        case(
            "jtl: IN -> OUT",
            Jtl::cell,
            &[(Jtl::IN, t(1.0))],
            seen(&[(q(1.0, JTL_DELAY_PS), Jtl::OUT)], &[], None),
        ),
        case(
            "splitter: IN -> OUT0 and OUT1",
            Splitter::cell,
            &[(Splitter::IN, t(0.0))],
            seen(
                &[
                    (q(0.0, SPLITTER_DELAY_PS), Splitter::OUT0),
                    (q(0.0, SPLITTER_DELAY_PS), Splitter::OUT1),
                ],
                &[],
                None,
            ),
        ),
        case(
            "merger: IN -> OUT",
            Merger::cell,
            &[(Merger::IN_B, t(0.0))],
            seen(&[(q(0.0, MERGER_DELAY_PS), Merger::OUT)], &[], None),
        ),
        case(
            "counter_bit: wrap -> CARRY, READ -> VALUE",
            CounterBit::cell,
            &[
                (CounterBit::IN, t(0.0)),
                (CounterBit::IN, t(10.0)),
                (CounterBit::IN, t(20.0)),
                (CounterBit::READ, t(30.0)),
            ],
            seen(
                &[
                    (q(10.0, COUNTER_CARRY_PS), CounterBit::CARRY),
                    (q(30.0, COUNTER_READ_PS), CounterBit::VALUE),
                ],
                &[],
                Some(1),
            ),
        ),
    ]
}

fn window_edges() -> Vec<Case> {
    let mut cases = Vec::new();
    for fs in EDGE {
        let early = fs < 0;

        // HC-DRO design rule: below 10 ps a violation, but the guard band
        // holds, so the pulse counts under either policy.
        let second = at(HCDRO_PULSE_SEP_PS, fs);
        let rule: &[&str] = if early { &["hold"] } else { &[] };
        cases.push(case(
            format!("hcdro write, 10 ps rule {fs:+} fs"),
            HcDro::cell,
            &[(HcDro::D, t(0.0)), (HcDro::D, second)],
            seen(&[], rule, Some(2)),
        ));
        let second = at(100.0 + HCDRO_PULSE_SEP_PS, fs);
        cases.push(case(
            format!("hcdro read, 10 ps rule {fs:+} fs"),
            HcDro::cell,
            &[
                (HcDro::D, t(0.0)),
                (HcDro::D, t(20.0)),
                (HcDro::CLK, t(100.0)),
                (HcDro::CLK, second),
            ],
            seen(
                &[
                    (t(100.0) + d(HCDRO_CLK_TO_OUT_PS), HcDro::Q),
                    (second + d(HCDRO_CLK_TO_OUT_PS), HcDro::Q),
                ],
                rule,
                Some(0),
            ),
        ));

        // HC-DRO guard band: inside 10 ps always a violation; below 7 ps
        // `Degrade` loses the pulse.
        let second = at(HCDRO_HARD_SEP_PS, fs);
        cases.push(Case {
            what: format!("hcdro write, 7 ps guard band {fs:+} fs"),
            cell: HcDro::cell,
            inputs: vec![(HcDro::D, t(0.0)), (HcDro::D, second)],
            record: seen(&[], &["hold"], Some(2)),
            degrade: seen(&[], &["hold"], Some(if early { 1 } else { 2 })),
        });
        let second = at(100.0 + HCDRO_HARD_SEP_PS, fs);
        let both_q = [
            (t(100.0) + d(HCDRO_CLK_TO_OUT_PS), HcDro::Q),
            (second + d(HCDRO_CLK_TO_OUT_PS), HcDro::Q),
        ];
        cases.push(Case {
            what: format!("hcdro read, 7 ps guard band {fs:+} fs"),
            cell: HcDro::cell,
            inputs: vec![
                (HcDro::D, t(0.0)),
                (HcDro::D, t(20.0)),
                (HcDro::CLK, t(100.0)),
                (HcDro::CLK, second),
            ],
            record: seen(&both_q, &["hold"], Some(0)),
            degrade: if early {
                seen(&both_q[..1], &["hold"], Some(1))
            } else {
                seen(&both_q, &["hold"], Some(0))
            },
        });

        // NDROC re-arm: enables closer than 53 ps violate; `Degrade`
        // routes the early enable to neither output.
        let second = at(NDROC_REARM_PS, fs);
        let both_out = [
            (t(0.0) + d(NDROC_PROP_PS), Ndroc::OUT1),
            (second + d(NDROC_PROP_PS), Ndroc::OUT1),
        ];
        let rearm: &[&str] = if early { &["re-arm"] } else { &[] };
        cases.push(Case {
            what: format!("ndroc, 53 ps re-arm {fs:+} fs"),
            cell: Ndroc::cell,
            inputs: vec![(Ndroc::CLK, t(0.0)), (Ndroc::CLK, second)],
            record: seen(&both_out, rearm, Some(0)),
            degrade: seen(
                if early { &both_out[..1] } else { &both_out },
                rearm,
                Some(0),
            ),
        });

        // DAND window: inclusive at 8 ps, from either side.
        let second = at(DAND_WINDOW_PS, fs);
        let fired = [(second + d(DAND_DELAY_PS), Dand::OUT)];
        let out: &[(Time, u8)] = if fs <= 0 { &fired } else { &[] };
        for (first, other) in [(Dand::A, Dand::B), (Dand::B, Dand::A)] {
            cases.push(case(
                format!("dand pin {first} first, 8 ps window {fs:+} fs"),
                Dand::cell,
                &[(first, t(0.0)), (other, second)],
                seen(out, &[], None),
            ));
        }

        // Merger dead time: exclusive at 3 ps.
        let second = at(MERGER_DEAD_PS, fs);
        let both_out = [
            (t(0.0) + d(MERGER_DELAY_PS), Merger::OUT),
            (second + d(MERGER_DELAY_PS), Merger::OUT),
        ];
        cases.push(case(
            format!("merger, 3 ps dead time {fs:+} fs"),
            Merger::cell,
            &[(Merger::IN_A, t(0.0)), (Merger::IN_B, second)],
            seen(if early { &both_out[..1] } else { &both_out }, &[], None),
        ));

        // Sync setup: data leading the edge by less than 3 ps violates;
        // `Degrade` captures nothing.
        let clk = at(10.0 + SYNC_SETUP_PS, fs);
        let captured = [(clk + d(CLOCKED_GATE_DELAY_PS), SyncSampler::OUT)];
        let setup: &[&str] = if early { &["setup"] } else { &[] };
        cases.push(Case {
            what: format!("sync, 3 ps setup {fs:+} fs"),
            cell: SyncSampler::cell,
            inputs: vec![(SyncSampler::D, t(10.0)), (SyncSampler::CLK, clk)],
            record: seen(&captured, setup, None),
            degrade: seen(if early { &[] } else { &captured }, setup, None),
        });

        // Sync track: data leading by more than setup + track (7 ps) has
        // decayed — no capture and no violation.
        let clk = at(10.0 + SYNC_SETUP_PS + SYNC_TRACK_PS, fs);
        let captured = [(clk + d(CLOCKED_GATE_DELAY_PS), SyncSampler::OUT)];
        cases.push(case(
            format!("sync, 4 ps track {fs:+} fs"),
            SyncSampler::cell,
            &[(SyncSampler::D, t(10.0)), (SyncSampler::CLK, clk)],
            seen(if fs <= 0 { &captured } else { &[] }, &[], None),
        ));

        // Sync hold: data up to 2 ps after an edge (inclusive) violates;
        // `Degrade` destroys it, so the next clock captures nothing.
        let data = at(10.0 + SYNC_HOLD_PS, fs);
        let clk = at(15.0 + SYNC_HOLD_PS, fs);
        let captured = [(clk + d(CLOCKED_GATE_DELAY_PS), SyncSampler::OUT)];
        let hold: &[&str] = if fs <= 0 { &["setup"] } else { &[] };
        cases.push(Case {
            what: format!("sync, 2 ps hold {fs:+} fs"),
            cell: SyncSampler::cell,
            inputs: vec![
                (SyncSampler::CLK, t(10.0)),
                (SyncSampler::D, data),
                (SyncSampler::CLK, clk),
            ],
            record: seen(&captured, hold, None),
            degrade: seen(if fs <= 0 { &[] } else { &captured }, hold, None),
        });
    }
    cases
}

/// Runs one row on one engine under one policy.
fn run(case: &Case, engine: EngineKind, policy: ViolationPolicy) -> Seen {
    let mut netlist = Netlist::new();
    let id = netlist.add("cell", (case.cell)());
    let mut sim = Simulator::with_engine(netlist, SchedulerKind::default(), engine);
    sim.set_violation_policy(policy);
    let probes = [0u8, 1].map(|pin| (pin, sim.probe(Pin::new(id, pin), format!("out{pin}"))));
    for &(pin, time) in &case.inputs {
        sim.inject(Pin::new(id, pin), time);
    }
    sim.run();
    let mut out: Vec<(Time, u8)> = probes
        .iter()
        .flat_map(|&(pin, probe)| {
            sim.probe_trace(probe)
                .pulses()
                .iter()
                .map(move |&t| (t, pin))
        })
        .collect();
    out.sort();
    Seen {
        out,
        violations: sim.violations().iter().map(|v| v.kind).collect(),
        stored: sim.stored(id),
    }
}

#[test]
fn every_primitive_matches_its_golden_table_on_both_engines() {
    let cases: Vec<Case> = output_delays_and_capacities()
        .into_iter()
        .chain(window_edges())
        .collect();
    for case in &cases {
        for engine in EngineKind::ALL {
            for (policy, want) in [
                (ViolationPolicy::Record, &case.record),
                (ViolationPolicy::Degrade, &case.degrade),
            ] {
                assert_eq!(
                    &run(case, engine, policy),
                    want,
                    "{} on {engine} under {policy:?}",
                    case.what
                );
            }
        }
    }
}

/// One primitive and its `sfq-cells` pin constants: the inputs with the
/// names their constants carry, then the outputs.
struct Pins {
    cell: fn() -> Cell,
    inputs: &'static [(&'static str, u8)],
    outputs: &'static [u8],
}

fn pins() -> [Pins; 13] {
    [
        Pins {
            cell: Jtl::cell,
            inputs: &[("IN", Jtl::IN)],
            outputs: &[Jtl::OUT],
        },
        Pins {
            cell: Splitter::cell,
            inputs: &[("IN", Splitter::IN)],
            outputs: &[Splitter::OUT0, Splitter::OUT1],
        },
        Pins {
            cell: Merger::cell,
            inputs: &[("IN_A", Merger::IN_A), ("IN_B", Merger::IN_B)],
            outputs: &[Merger::OUT],
        },
        Pins {
            cell: Dro::cell,
            inputs: &[("D", Dro::D), ("CLK", Dro::CLK)],
            outputs: &[Dro::Q],
        },
        Pins {
            cell: HcDro::cell,
            inputs: &[("D", HcDro::D), ("CLK", HcDro::CLK)],
            outputs: &[HcDro::Q],
        },
        Pins {
            cell: Ndro::cell,
            inputs: &[
                ("SET", Ndro::SET),
                ("RESET", Ndro::RESET),
                ("CLK", Ndro::CLK),
            ],
            outputs: &[Ndro::OUT],
        },
        Pins {
            cell: Ndroc::cell,
            inputs: &[
                ("SET", Ndroc::SET),
                ("RESET", Ndroc::RESET),
                ("CLK", Ndroc::CLK),
            ],
            outputs: &[Ndroc::OUT0, Ndroc::OUT1],
        },
        Pins {
            cell: Dand::cell,
            inputs: &[("A", Dand::A), ("B", Dand::B)],
            outputs: &[Dand::OUT],
        },
        Pins {
            cell: AndGate::cell,
            inputs: &[("A", AndGate::A), ("B", AndGate::B), ("CLK", AndGate::CLK)],
            outputs: &[AndGate::OUT],
        },
        Pins {
            cell: NotGate::cell,
            inputs: &[("A", NotGate::A), ("CLK", NotGate::CLK)],
            outputs: &[NotGate::OUT],
        },
        Pins {
            cell: XorGate::cell,
            inputs: &[("A", XorGate::A), ("B", XorGate::B), ("CLK", XorGate::CLK)],
            outputs: &[XorGate::OUT],
        },
        Pins {
            cell: CounterBit::cell,
            inputs: &[
                ("IN", CounterBit::IN),
                ("READ", CounterBit::READ),
                ("RESET", CounterBit::RESET),
            ],
            outputs: &[CounterBit::CARRY, CounterBit::VALUE],
        },
        Pins {
            cell: SyncSampler::cell,
            inputs: &[("D", SyncSampler::D), ("CLK", SyncSampler::CLK)],
            outputs: &[SyncSampler::OUT],
        },
    ]
}

/// Output pins probed when driving a cell: past every primitive's outputs,
/// so an emission on a pin the table does not count is seen.
const PROBED: u8 = 8;

/// Drives a fresh cell under `Record` with one pulse on each of `inputs`
/// in turn, 5 ps apart (inside the DAND window and the sync sampler's
/// capture aperture), and returns the output pins it emitted on and the
/// violations it recorded.
fn drive(cell: fn() -> Cell, engine: EngineKind, inputs: &[u8]) -> (BTreeSet<u8>, Vec<Violation>) {
    let mut netlist = Netlist::new();
    let id = netlist.add("cell", cell());
    let mut sim = Simulator::with_engine(netlist, SchedulerKind::default(), engine);
    let probes: Vec<(u8, ProbeId)> = (0..PROBED)
        .map(|pin| (pin, sim.probe(Pin::new(id, pin), format!("out{pin}"))))
        .collect();
    for (k, &pin) in inputs.iter().enumerate() {
        sim.inject(Pin::new(id, pin), t(10.0 + 5.0 * k as f64));
    }
    sim.run();
    let fired = probes
        .iter()
        .filter(|&&(_, probe)| !sim.probe_trace(probe).is_empty())
        .map(|&(pin, _)| pin)
        .collect();
    (fired, sim.violations().to_vec())
}

/// Every sequence of three pulses over input pins `0..inputs`: long enough
/// to reach every output of every primitive (a counter bit's carry takes
/// two pulses, a clocked AND's output three).
fn sequences(inputs: u8) -> Vec<[u8; 3]> {
    let mut all = Vec::new();
    for a in 0..inputs {
        for b in 0..inputs {
            for c in 0..inputs {
                all.push([a, b, c]);
            }
        }
    }
    all
}

#[test]
fn every_primitive_matches_its_kind_table_row_on_both_engines() {
    for cell in pins() {
        let kind = (cell.cell)().kind();
        // The pin constants are the row's pins, by name.
        assert_eq!(
            cell.inputs.len(),
            usize::from(kind.inputs()),
            "{kind} inputs"
        );
        for &(name, pin) in cell.inputs {
            assert_eq!(kind.input_name(pin), Some(name), "{kind} input pin {pin}");
        }
        assert_eq!(
            cell.outputs.len(),
            usize::from(kind.outputs()),
            "{kind} outputs"
        );
        for &pin in cell.outputs {
            assert!(pin < kind.outputs(), "{kind} output pin {pin} out of range");
        }
        for engine in EngineKind::ALL {
            // Every input pin is taken, and every emission lands on a
            // counted output; each counted output fires at least once.
            let mut fired = BTreeSet::new();
            for seq in sequences(kind.inputs()) {
                let (out, violations) = drive(cell.cell, engine, &seq);
                assert!(
                    violations.iter().all(|v| v.kind != "pin"),
                    "{kind} on {engine}: {seq:?} recorded {violations:?}"
                );
                assert!(
                    out.iter().all(|&pin| pin < kind.outputs()),
                    "{kind} on {engine}: {seq:?} emitted on {out:?}"
                );
                fired.extend(out);
            }
            assert_eq!(
                fired,
                (0..kind.outputs()).collect(),
                "{kind} on {engine}: outputs that fired"
            );

            // The first pin past the row is no pin at all, except on the
            // transport cells, which pass a pulse on any pin by design.
            let (_, violations) = drive(cell.cell, engine, &[kind.inputs()]);
            let details: Vec<&str> = violations
                .iter()
                .filter(|v| v.kind == "pin")
                .map(|v| v.detail.as_str())
                .collect();
            let want = match kind {
                CellKind::Jtl | CellKind::Splitter | CellKind::Merger => vec![],
                _ => vec![format!("{kind} has no input pin {}", kind.inputs())],
            };
            assert_eq!(details, want, "{kind} on {engine}: pin {}", kind.inputs());
        }
    }
}
