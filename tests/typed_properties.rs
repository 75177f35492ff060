//! Property suite for the typed elaboration layer: *every* program the
//! typed API accepts is structurally legal by construction.
//!
//! A seeded generator assembles random typed programs — random cells,
//! forks, joins, binds, external declarations — and asserts that the
//! resulting elaboration is total (no leaked endpoints) and that
//! `sfq-lint`, the independent backstop, finds zero structural issues:
//! no fan-out/fan-in overloads, no dangling inputs, no dropped wires,
//! no duplicate wires. The typed API and the linter were written against
//! the same legality rules from opposite directions; this suite is where
//! they check each other.

use sfq_cells::typed::{Elaboration, Sink, TypedBuilder, Wire};
use sfq_lint::{lint, LintPorts, RuleId};
use sfq_sim::rng::Rng64;

/// Structural rules the typed API is supposed to make unviolatable.
const STRUCTURAL_RULES: [RuleId; 9] = [
    RuleId::PinRange,
    RuleId::DupWire,
    RuleId::Fanout,
    RuleId::Fanin,
    RuleId::MergerInputs,
    RuleId::DanglingInput,
    RuleId::UndrivenStorage,
    RuleId::Unreachable,
    RuleId::DroppedWire,
];

/// Pulls a uniformly random wire out of the frontier.
fn pick<'b>(rng: &mut Rng64, frontier: &mut Vec<Wire<'b>>) -> Wire<'b> {
    let i = rng.next_below(frontier.len());
    frontier.swap_remove(i)
}

/// Grows one random typed program inside `b`: a frontier of live wires is
/// repeatedly extended with random cells, forks, and joins, and every
/// remaining wire is exposed at the end. All sinks a step creates are
/// driven within the step, so the program is total by construction — the
/// point of the suite is that the *API* forces this shape.
fn grow_random_program(b: &mut TypedBuilder<'_>, rng: &mut Rng64) {
    let mut frontier = Vec::new();
    for _ in 0..2 + rng.next_below(4) {
        let j = b.jtl();
        b.external(j.input);
        frontier.push(j.out);
    }
    for step in 0..12 + rng.next_below(36) {
        b.scoped(format!("step{step}"), |b| match rng.next_below(7) {
            0 => {
                // Fan out through a balanced splitter tree.
                let w = pick(rng, &mut frontier);
                let leaves = b.fork(w, 2 + rng.next_below(3));
                frontier.extend(leaves);
            }
            1 if frontier.len() >= 2 => {
                // Merge a random handful back into one wire.
                let k = 2 + rng.next_below(frontier.len().min(4) - 1);
                let mut ins = Vec::with_capacity(k);
                for _ in 0..k {
                    ins.push(pick(rng, &mut frontier));
                }
                frontier.push(b.join(ins));
            }
            2 if frontier.len() >= 2 => {
                let cell = b.dro();
                let w = pick(rng, &mut frontier);
                b.bind(w, cell.d);
                let w = pick(rng, &mut frontier);
                b.bind(w, cell.clk);
                frontier.push(cell.q);
            }
            3 if frontier.len() >= 2 => {
                let cell = b.dand();
                let w = pick(rng, &mut frontier);
                b.bind(w, cell.a);
                let w = pick(rng, &mut frontier);
                b.bind(w, cell.b);
                frontier.push(cell.out);
            }
            4 if frontier.len() >= 3 => {
                let cell = b.ndro();
                let w = pick(rng, &mut frontier);
                b.bind(w, cell.set);
                let w = pick(rng, &mut frontier);
                b.bind(w, cell.reset);
                let w = pick(rng, &mut frontier);
                b.bind(w, cell.clk);
                frontier.push(cell.out);
            }
            5 if frontier.len() >= 3 => {
                let cell = b.counter_bit();
                let w = pick(rng, &mut frontier);
                b.bind(w, cell.input);
                let w = pick(rng, &mut frontier);
                b.bind(w, cell.read);
                let w = pick(rng, &mut frontier);
                b.bind(w, cell.reset);
                frontier.push(cell.carry);
                frontier.push(cell.value);
            }
            _ => {
                // Fallback (also the under-populated-frontier arm): a JTL
                // repeater, always applicable.
                let cell = b.jtl();
                let w = pick(rng, &mut frontier);
                b.bind(w, cell.input);
                frontier.push(cell.out);
            }
        });
    }
    for w in frontier {
        b.expose(w);
    }
}

/// Lint ports derived from what the elaboration declared external.
fn ports_of(elab: &Elaboration) -> LintPorts {
    LintPorts {
        external_inputs: elab.external_inputs.clone(),
        external_outputs: elab.external_outputs.clone(),
        timing: None,
    }
}

#[test]
fn random_typed_programs_are_total_and_lint_clean() {
    for seed in 0..32u64 {
        let (elab, ()) = TypedBuilder::elaborate(|b| {
            let mut rng = Rng64::new(0x7E57_FEED ^ seed);
            grow_random_program(b, &mut rng);
        });
        elab.assert_total();
        let report = lint(&elab.netlist, &ports_of(&elab));
        for rule in STRUCTURAL_RULES {
            assert_eq!(
                report.count(rule),
                0,
                "seed {seed}: typed program violated {rule:?}: {:?}",
                report.errors()
            );
        }
    }
}

#[test]
fn a_deliberately_leaked_wire_is_caught_twice() {
    // The one structural escape the affine handles cannot prevent is an
    // early drop — a wire bound to nothing. The elaboration ledger must
    // record it, and sfq-lint's `dropped-wire` rule must flag it even if
    // the caller ignores the ledger.
    let (elab, ()) = TypedBuilder::elaborate(|b| {
        let j = b.jtl();
        b.external(j.input);
        let s = b.splitter();
        b.bind(j.out, s.input);
        b.expose(s.out0);
        drop(s.out1);
    });
    assert!(!elab.is_total());
    assert_eq!(elab.dropped_wires.len(), 1);
    assert_eq!(elab.dangling_sinks.len(), 0);
    let report = lint(&elab.netlist, &ports_of(&elab));
    assert_eq!(report.count(RuleId::DroppedWire), 1);
}

#[test]
fn forked_and_rejoined_programs_preserve_external_ledger_order() {
    // Declaration order of externals is part of the elaboration contract:
    // ports built from them index by position.
    let (elab, pins) = TypedBuilder::elaborate(|b| {
        let mut ins = Vec::new();
        let mut wires = Vec::new();
        for _ in 0..4 {
            let j = b.jtl();
            ins.push(b.external(j.input));
            wires.push(j.out);
        }
        let joined = b.join(wires);
        let leaves = b.fork(joined, 4);
        let outs: Vec<_> = leaves.into_iter().map(|w| b.expose(w)).collect();
        (ins, outs)
    });
    elab.assert_total();
    assert_eq!(elab.external_inputs, pins.0);
    assert_eq!(elab.external_outputs, pins.1);
    let report = lint(&elab.netlist, &ports_of(&elab));
    assert!(
        STRUCTURAL_RULES.iter().all(|&r| report.count(r) == 0),
        "{:?}",
        report.errors()
    );
}

/// Type-level checks: consuming a handle twice is not representable.
/// (Compile-fail doctests for the same live on `Wire`/`Sink` in
/// `sfq-cells`; this is the run-time face of the same property.)
#[test]
fn sinks_and_wires_are_single_use_by_construction() {
    fn takes_sink(_: Sink<'_>) {}
    let (elab, ()) = TypedBuilder::elaborate(|b| {
        let j = b.jtl();
        takes_sink(j.input);
        // `j.input` is gone — re-using it would not compile. The dangling
        // ledger still records that the sink was consumed *outside* the
        // builder, which is a leak.
        drop(j.out);
    });
    assert!(!elab.is_total());
    assert_eq!(elab.dangling_sinks.len(), 1);
    assert_eq!(elab.dropped_wires.len(), 1);
}
