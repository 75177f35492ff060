//! The rule engine. One run builds flat tables once: the wires sorted by
//! (from, to), a fan-in table holding each component's incoming wires
//! sorted by (input pin, source), and one driven-input mask per
//! component. The per-pin rules read runs of these tables; reachability
//! walks the netlist's own fan-out rows; one timing graph serves the cycle
//! search and both senses of the trigger-aware STA.

use std::collections::HashSet;

use sfq_cells::sta::{self, Sense, TimingGraph};
use sfq_cells::storage::{HcDro, Ndroc};
use sfq_cells::Census;
use sfq_sim::cell::{CellKind, CellOp};
use sfq_sim::netlist::{Netlist, Pin, Wire};
use sfq_sim::time::Duration;

use crate::report::{Finding, LintReport, RuleId, Severity, TimingSummary};
use crate::LintPorts;

/// The wire set as the structural rules read it.
struct WireTables {
    /// Every wire, sorted by (from, to); parallel wires keep their
    /// insertion order.
    by_from: Vec<Wire>,
    /// `by_from` indices, grouped by destination component:
    /// `fanin[fanin_start[c]..fanin_start[c + 1]]` are the wires into
    /// component `c`, sorted by (input pin, source).
    fanin: Vec<u32>,
    fanin_start: Vec<u32>,
}

impl WireTables {
    fn new(netlist: &Netlist) -> WireTables {
        // `Netlist::wires` yields one run per source pin; order each run
        // by sink (stable, so parallel wires keep their insertion order).
        let mut by_from = Vec::with_capacity(netlist.wire_count());
        by_from.extend(netlist.wires());
        for run in by_from.chunk_by_mut(|a, b| a.from == b.from) {
            run.sort_by_key(|w| w.to);
        }
        // Counting sort by destination component keeps each component's
        // wires in source order; a stable sort by input pin then yields
        // (input pin, source) order.
        let n = netlist.component_count();
        let mut fanin_start = vec![0u32; n + 1];
        for w in &by_from {
            fanin_start[w.to.component.index() + 1] += 1;
        }
        for c in 0..n {
            fanin_start[c + 1] += fanin_start[c];
        }
        let mut cursor = fanin_start.clone();
        let mut fanin = vec![0u32; by_from.len()];
        for (k, w) in by_from.iter().enumerate() {
            let slot = &mut cursor[w.to.component.index()];
            fanin[*slot as usize] = k as u32;
            *slot += 1;
        }
        for c in 0..n {
            fanin[fanin_start[c] as usize..fanin_start[c + 1] as usize]
                .sort_by_key(|&k| by_from[k as usize].to.index);
        }
        WireTables {
            by_from,
            fanin,
            fanin_start,
        }
    }

    /// The `by_from` indices of the wires into component `c`, sorted by
    /// (input pin, source).
    fn fanin_of(&self, c: usize) -> &[u32] {
        &self.fanin[self.fanin_start[c] as usize..self.fanin_start[c + 1] as usize]
    }

    fn wire(&self, k: u32) -> &Wire {
        &self.by_from[k as usize]
    }

    /// The wires into `pin`, in source order.
    fn fanin_of_pin(&self, pin: Pin) -> impl Iterator<Item = &Wire> {
        self.fanin_of(pin.component.index())
            .iter()
            .map(|&k| self.wire(k))
            .filter(move |w| w.to == pin)
    }
}

/// Bit `pin` of a per-component pin mask. No tabled cell has a pin from
/// 128 up, so those set no bit.
fn bit(pin: u8) -> u128 {
    1u128.checked_shl(pin.into()).unwrap_or(0)
}

/// The mask of pins `0..count`.
fn pins_below(count: u8) -> u128 {
    bit(count).wrapping_sub(1)
}

pub(crate) fn run(netlist: &Netlist, ports: &LintPorts) -> LintReport {
    let n = netlist.component_count();
    for (what, pins) in [
        ("external input", &ports.external_inputs),
        ("external output", &ports.external_outputs),
    ] {
        for pin in pins {
            assert!(
                pin.component.index() < n,
                "cannot lint {what} {pin}: this netlist does not hold component {}",
                pin.component
            );
        }
    }
    // Each cell's row in the per-kind table.
    let kinds: Vec<CellKind> = netlist.iter().map(|(_, _, cell)| cell.kind()).collect();
    let wires = WireTables::new(netlist);
    let mut findings = Vec::new();

    // pin-range: both endpoints must exist on their cells.
    for w in &wires.by_from {
        let (from, to) = (w.from, w.to);
        let kind = kinds[from.component.index()];
        if from.index >= kind.outputs() {
            findings.push(Finding {
                rule: RuleId::PinRange,
                severity: Severity::Error,
                path: netlist.label(from.component).to_string(),
                message: format!(
                    "wire driven from output pin {} but a {kind} has only {} output pin(s)",
                    from.index,
                    kind.outputs()
                ),
                fix_hint: "rewire to an existing output pin".into(),
            });
        }
        let kind = kinds[to.component.index()];
        if to.index >= kind.inputs() {
            findings.push(Finding {
                rule: RuleId::PinRange,
                severity: Severity::Error,
                path: netlist.label(to.component).to_string(),
                message: format!(
                    "wire lands on input pin {} but a {kind} has only {} input pin(s)",
                    to.index,
                    kind.inputs()
                ),
                fix_hint: "rewire to an existing input pin".into(),
            });
        }
    }

    // dup-wire and fanin read each component's fan-in run, grouped by
    // input pin and, within a pin, by source. dup-wire: parallel wires
    // between the same pin pair double every pulse regardless of their
    // delays. fanin: reconvergent wires must meet in a merger, never on one
    // pin; its findings follow the fanout rule's.
    let mut fanin_findings = Vec::new();
    for (c, kind) in kinds.iter().enumerate() {
        let into = wires.fanin_of(c);
        for pin_run in into.chunk_by(|&a, &b| wires.wire(a).to == wires.wire(b).to) {
            let to = wires.wire(pin_run[0]).to;
            let mut sources = 0;
            for pair in pin_run.chunk_by(|&a, &b| wires.wire(a).from == wires.wire(b).from) {
                sources += 1;
                if pair.len() > 1 {
                    let from = wires.wire(pair[0]).from;
                    findings.push(Finding {
                        rule: RuleId::DupWire,
                        severity: Severity::Error,
                        path: netlist.label(to.component).to_string(),
                        message: format!(
                            "{} parallel wires from {} pin {} land on input pin {}",
                            pair.len(),
                            netlist.label(from.component),
                            from.index,
                            to.index
                        ),
                        fix_hint: "delete the redundant wire".into(),
                    });
                }
            }
            if sources > 1 {
                fanin_findings.push(Finding {
                    rule: RuleId::Fanin,
                    severity: Severity::Error,
                    path: netlist.label(to.component).to_string(),
                    message: format!(
                        "input pin {} ({}) is driven by {sources} sources",
                        to.index,
                        kind.input_name(to.index).unwrap_or("?"),
                    ),
                    fix_hint: "insert a merger".into(),
                });
            }
        }
    }

    // fanout: an SFQ pulse cannot drive two loads; fan-out needs explicit
    // splitter cells (which provide one sink per output pin).
    for run in wires.by_from.chunk_by(|a, b| a.from == b.from) {
        let from = run[0].from;
        let distinct = run.chunk_by(|a, b| a.to == b.to).count();
        if distinct > 1 {
            let kind = kinds[from.component.index()];
            findings.push(Finding {
                rule: RuleId::Fanout,
                severity: Severity::Error,
                path: netlist.label(from.component).to_string(),
                message: format!(
                    "output pin {} drives {distinct} sinks (max 1 per output pin)",
                    from.index
                ),
                fix_hint: if kind == CellKind::Splitter {
                    "cascade another splitter".into()
                } else {
                    "insert a splitter (tree)".into()
                },
            });
        }
    }
    findings.append(&mut fanin_findings);

    // Driven-input view per component: wired or declared external.
    let mut driven = vec![0u128; n];
    for w in &wires.by_from {
        driven[w.to.component.index()] |= bit(w.to.index);
    }
    for pin in &ports.external_inputs {
        driven[pin.component.index()] |= bit(pin.index);
    }
    for (mask, kind) in driven.iter_mut().zip(&kinds) {
        *mask &= pins_below(kind.inputs());
    }

    // undriven-storage: a storage cell nothing ever pulses. Flagged cells
    // are excluded from dangling-input/unreachable so each defect maps to
    // exactly one rule.
    let mut undriven_storage = vec![false; n];
    for (id, label, cell) in netlist.iter() {
        let i = id.index();
        if cell.stored().is_some() && driven[i] == 0 {
            undriven_storage[i] = true;
            findings.push(Finding {
                rule: RuleId::UndrivenStorage,
                severity: Severity::Error,
                path: label.to_string(),
                message: format!(
                    "storage cell ({}) has no driven or external input",
                    kinds[i]
                ),
                fix_hint: "wire its data/clock pins or remove the cell".into(),
            });
        }
    }

    // merger-inputs / dangling-input: mergers get the dedicated rule
    // (their whole contract is "exactly two driven inputs"); every other
    // tabled cell must have each input pin wired or declared external.
    for (id, label, _) in netlist.iter() {
        let i = id.index();
        let kind = kinds[i];
        if undriven_storage[i] {
            continue;
        }
        if kind == CellKind::Merger {
            let count = driven[i].count_ones();
            if count != 2 {
                findings.push(Finding {
                    rule: RuleId::MergerInputs,
                    severity: Severity::Error,
                    path: label.to_string(),
                    message: format!("merger has {count} driven input(s), needs exactly 2"),
                    fix_hint: "drive both IN_A and IN_B, or replace the merger with a wire".into(),
                });
            }
            continue;
        }
        for pin in 0..kind.inputs() {
            if driven[i] & bit(pin) == 0 {
                findings.push(Finding {
                    rule: RuleId::DanglingInput,
                    severity: Severity::Error,
                    path: label.to_string(),
                    message: format!(
                        "input pin {} ({}) is neither wired nor a declared external port",
                        pin,
                        kind.input_name(pin).unwrap_or("?")
                    ),
                    fix_hint: "wire the pin or declare it in LintPorts::external_inputs".into(),
                });
            }
        }
    }

    // unreachable: a walk from every component owning an external input,
    // along the fan-out rows of all its output pins, out-of-range ones
    // included (any input reaches all outputs).
    // One past the highest output pin any wire leaves from.
    let out_pins = wires
        .by_from
        .iter()
        .map(|w| usize::from(w.from.index) + 1)
        .max()
        .unwrap_or(0);
    let mut reachable = vec![false; n];
    let mut stack = Vec::new();
    for pin in &ports.external_inputs {
        if !std::mem::replace(&mut reachable[pin.component.index()], true) {
            stack.push(pin.component);
        }
    }
    while let Some(id) = stack.pop() {
        for out_pin in 0..out_pins {
            for &(to, _) in netlist.fanout(Pin::new(id, out_pin as u8)) {
                if !std::mem::replace(&mut reachable[to.component.index()], true) {
                    stack.push(to.component);
                }
            }
        }
    }
    for (id, label, _) in netlist.iter() {
        let i = id.index();
        if !reachable[i] && !undriven_storage[i] {
            findings.push(Finding {
                rule: RuleId::Unreachable,
                severity: Severity::Error,
                path: label.to_string(),
                message: "no external input can ever pulse this component".into(),
                fix_hint: "connect it to a driven region or declare its inputs external".into(),
            });
        }
    }

    // dropped-wire: an output pin driving nothing that was not declared an
    // external output — its pulses silently disappear. This is the static
    // backstop of the typed builder's endpoint ledger. Components already
    // carrying a structural error are skipped so each defect keeps mapping
    // to exactly one rule (an isolated cell is "unreachable", not also
    // "dropping" every output). The skip goes by label, as the findings'
    // paths do: labels can repeat, and a component sharing a flagged
    // component's label is skipped with it.
    let mut observed: Vec<Pin> = ports.external_outputs.clone();
    observed.sort_unstable();
    let flagged: HashSet<&str> = findings
        .iter()
        .filter(|f| f.severity == Severity::Error && !f.path.is_empty())
        .map(|f| f.path.as_str())
        .collect();
    let mut dropped = Vec::new();
    for (id, label, _) in netlist.iter() {
        let kind = kinds[id.index()];
        let mut silent = (0..kind.outputs())
            .filter(|&pin| {
                let out = Pin::new(id, pin);
                netlist.fanout(out).is_empty() && observed.binary_search(&out).is_err()
            })
            .peekable();
        if silent.peek().is_none() || flagged.contains(label) {
            continue;
        }
        for pin in silent {
            dropped.push(Finding {
                rule: RuleId::DroppedWire,
                severity: Severity::Error,
                path: label.to_string(),
                message: format!(
                    "output pin {pin} drives nothing and is not a declared external \
                     output — its pulses would silently disappear"
                ),
                fix_hint: "consume the output or declare it in LintPorts::external_outputs".into(),
            });
        }
    }
    findings.append(&mut dropped);

    // cycle: every feedback loop gets a witness path. Loops in which each
    // hop enters a *trigger* pin circulate pulses unconditionally (an
    // oscillator — error); loops interrupted by a clocked element are the
    // designed feedback of this paper (loopback, shift rings — info).
    let graph = TimingGraph::new(netlist, &HashSet::new());
    for cycle in &graph.cycles() {
        let free_running = cycle.iter().enumerate().all(|(k, &a)| {
            let b = cycle[(k + 1) % cycle.len()];
            (0..kinds[a.index()].outputs()).any(|out_pin| {
                netlist.fanout(Pin::new(a, out_pin)).iter().any(|&(to, _)| {
                    to.component == b && kinds[b.index()].trigger_pins().contains(&to.index)
                })
            })
        });
        let witness = cycle
            .iter()
            .map(|&id| netlist.label(id))
            .collect::<Vec<_>>()
            .join(" -> ");
        let cuts = sta::suggest_cuts(netlist, cycle)
            .iter()
            .map(|&id| netlist.label(id))
            .collect::<Vec<_>>()
            .join(", ");
        findings.push(Finding {
            rule: RuleId::Cycle,
            severity: if free_running {
                Severity::Error
            } else {
                Severity::Info
            },
            path: netlist.label(cycle[0]).to_string(),
            message: if free_running {
                format!("free-running pulse loop [{witness}]")
            } else {
                format!("clocked feedback loop [{witness}]")
            },
            fix_hint: if free_running {
                "break the loop or insert a clocked cell".into()
            } else {
                format!("for all-pin STA, cut at: {cuts}")
            },
        });
    }

    // timing-slack: min/max trigger-aware STA against the separation
    // windows (see the crate docs for the slack model).
    let timing = ports
        .timing
        .as_ref()
        .and_then(|spec| timing_pass(netlist, &graph, &wires, spec, &mut findings));

    LintReport {
        findings,
        census: Census::of(netlist),
        components: n,
        wires: netlist.wire_count(),
        timing,
    }
}

fn timing_pass(
    netlist: &Netlist,
    graph: &TimingGraph,
    wires: &WireTables,
    spec: &crate::TimingSpec,
    findings: &mut Vec<Finding>,
) -> Option<TimingSummary> {
    // A trigger-graph cycle already produced a `cycle` error above; the
    // slack pass is undefined then.
    let earliest = graph
        .trigger_arrival_times(&spec.starts, Sense::Earliest)
        .ok()?;
    let latest = graph
        .trigger_arrival_times(&spec.starts, Sense::Latest)
        .ok()?;
    let mut starts = spec.starts.clone();
    starts.sort_unstable();

    let mut checked_pins = 0;
    let mut worst: Option<(f64, String)> = None;
    for (id, label, cell) in netlist.iter() {
        let Some((window, violation_kind, pins)) = separation_window(cell.op) else {
            continue;
        };
        let window_ps = window.as_ps();
        for &guarded in pins {
            let pin = Pin::new(id, guarded);
            // Earliest/latest possible pulse arrival at this exact pin:
            // the start injection plus every incoming wire, each shifted
            // by its source cell's arrival + propagation + wire delay.
            let mut lo: Option<f64> = None;
            let mut hi: Option<f64> = None;
            let mut merge = |a: f64, b: f64| {
                lo = Some(lo.map_or(a, |v| v.min(a)));
                hi = Some(hi.map_or(b, |v| v.max(b)));
            };
            if starts.binary_search(&pin).is_ok() {
                merge(0.0, 0.0);
            }
            for w in wires.fanin_of_pin(pin) {
                let from = w.from;
                let wire_ps = w.delay.as_ps();
                let prop = netlist.cell(from.component).op.propagation_delay();
                if let (Some(e), Some(l)) = (earliest.at(from.component), latest.at(from.component))
                {
                    merge(e + prop.as_ps() + wire_ps, l + prop.as_ps() + wire_ps);
                }
            }
            let (Some(lo), Some(hi)) = (lo, hi) else {
                continue; // pin never pulsed under this schedule
            };
            checked_pins += 1;
            let spread = hi - lo;
            let slack = spec.issue_period_ps - spread - window_ps;
            let pin_name = cell.kind().input_name(guarded).unwrap_or("?");
            let pin_path = format!("{label}.{pin_name}");
            if worst.as_ref().is_none_or(|(w, _)| slack < *w) {
                worst = Some((slack, pin_path.clone()));
            }
            if slack < -1e-9 {
                findings.push(Finding {
                    rule: RuleId::TimingSlack,
                    severity: Severity::Error,
                    path: label.to_string(),
                    message: format!(
                        "{pin_name} arrivals span [{lo:.1}, {hi:.1}] ps; issue period {:.1} ps \
                         leaves {slack:+.1} ps slack against the {:.0} ps window \
                         (dynamic kind \"{}\")",
                        spec.issue_period_ps, window_ps, violation_kind
                    ),
                    fix_hint: "slow the issue schedule or rebalance the reconvergent paths".into(),
                });
            } else if spread > 1e-9 {
                findings.push(Finding {
                    rule: RuleId::TimingSlack,
                    severity: Severity::Info,
                    path: label.to_string(),
                    message: format!(
                        "{pin_name} is a pulse-train pin (arrival spread {spread:.1} ps); \
                         within-operation separation is enforced dynamically, not statically"
                    ),
                    fix_hint: "none needed — covered by the runtime violation checkers".into(),
                });
            }
        }
    }
    Some(TimingSummary {
        issue_period_ps: spec.issue_period_ps,
        checked_pins,
        worst_slack_ps: worst.as_ref().map(|(s, _)| *s),
        worst_pin: worst.map(|(_, p)| p).unwrap_or_default(),
    })
}

/// The minimum pulse separation a cell needs at some of its input pins —
/// the static shadow of a dynamic violation check — as the instance's own
/// window, the kind of violation it records, and the pins it guards: the
/// NDROC re-arm on CLK and the HC-DRO design-rule separation on D and CLK.
fn separation_window(op: CellOp) -> Option<(Duration, &'static str, &'static [u8])> {
    match op {
        CellOp::Ndroc { rearm, .. } => Some((rearm, "re-arm", &[Ndroc::CLK])),
        CellOp::HcDro { sep, .. } => Some((sep, "hold", &[HcDro::D, HcDro::CLK])),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use sfq_cells::logic::SyncSampler;
    use sfq_cells::storage::Ndroc;
    use sfq_cells::transport::{Jtl, Merger, Splitter};
    use sfq_cells::CircuitBuilder;
    use sfq_sim::netlist::Pin;

    use crate::{lint, LintPorts, RuleId, Severity, TimingSpec};

    /// A legal chain: jtl -> splitter -> two jtls -> merger -> NDROC CLK.
    fn clean_fixture() -> (sfq_sim::netlist::Netlist, LintPorts) {
        let mut b = CircuitBuilder::new();
        let root = b.jtl();
        let s = b.splitter();
        let j0 = b.jtl();
        let j1 = b.jtl();
        let m = b.merger();
        let nd = b.ndroc();
        b.connect(Pin::new(root, Jtl::OUT), Pin::new(s, Splitter::IN));
        b.connect(Pin::new(s, Splitter::OUT0), Pin::new(j0, Jtl::IN));
        b.connect(Pin::new(s, Splitter::OUT1), Pin::new(j1, Jtl::IN));
        b.connect(Pin::new(j0, Jtl::OUT), Pin::new(m, Merger::IN_A));
        b.connect(Pin::new(j1, Jtl::OUT), Pin::new(m, Merger::IN_B));
        b.connect(Pin::new(m, Merger::OUT), Pin::new(nd, Ndroc::CLK));
        let start = Pin::new(root, Jtl::IN);
        let ports = LintPorts {
            external_inputs: vec![start, Pin::new(nd, Ndroc::SET), Pin::new(nd, Ndroc::RESET)],
            external_outputs: vec![Pin::new(nd, Ndroc::OUT0), Pin::new(nd, Ndroc::OUT1)],
            timing: Some(TimingSpec {
                starts: vec![start],
                issue_period_ps: 120.0,
            }),
        };
        (b.finish(), ports)
    }

    #[test]
    fn clean_fixture_lints_clean() {
        let (netlist, ports) = clean_fixture();
        let report = lint(&netlist, &ports);
        assert!(report.is_clean(), "unexpected findings:\n{report}");
        // Symmetric reconvergence: zero spread, slack = 120 - 53 = 67.
        let t = report.timing.expect("timing spec provided");
        assert_eq!(t.checked_pins, 1);
        assert_eq!(t.worst_slack_ps, Some(67.0));
    }

    #[test]
    fn undeclared_ports_are_dangling() {
        let (netlist, mut ports) = clean_fixture();
        ports.external_inputs.truncate(1); // drop SET/RESET declarations
        let report = lint(&netlist, &ports);
        assert_eq!(report.fired_rules(), vec![RuleId::DanglingInput]);
        assert_eq!(report.count(RuleId::DanglingInput), 2);
    }

    #[test]
    fn shrunk_issue_period_breaks_slack() {
        let (netlist, mut ports) = clean_fixture();
        ports.timing.as_mut().unwrap().issue_period_ps = 40.0;
        let report = lint(&netlist, &ports);
        assert_eq!(report.fired_rules(), vec![RuleId::TimingSlack]);
        assert_eq!(report.errors(), 1);
        assert_eq!(report.timing.unwrap().worst_slack_ps, Some(-13.0));
    }

    #[test]
    fn budget_check_appends_on_mismatch() {
        let (netlist, ports) = clean_fixture();
        let mut report = lint(&netlist, &ports);
        let jj = report.census.jj_total();
        let uw = report.census.static_power_uw();
        crate::budget_check(&mut report, jj, uw);
        assert!(report.is_clean());
        crate::budget_check(&mut report, jj + 2, uw);
        assert_eq!(report.fired_rules(), vec![RuleId::Budget]);
    }

    #[test]
    fn train_pins_get_info_not_error() {
        // Asymmetric reconvergence (2 vs 7 ps JTLs): spread 5 ps at the
        // NDROC CLK -> info finding, still clean at a slow schedule.
        let mut b = CircuitBuilder::new();
        let root = b.jtl();
        let s = b.splitter();
        let j0 = b.jtl();
        let j1 = b.jtl_with_delay(sfq_sim::time::Duration::from_ps(7.0));
        let m = b.merger();
        let nd = b.ndroc();
        b.connect(Pin::new(root, Jtl::OUT), Pin::new(s, Splitter::IN));
        b.connect(Pin::new(s, Splitter::OUT0), Pin::new(j0, Jtl::IN));
        b.connect(Pin::new(s, Splitter::OUT1), Pin::new(j1, Jtl::IN));
        b.connect(Pin::new(j0, Jtl::OUT), Pin::new(m, Merger::IN_A));
        b.connect(Pin::new(j1, Jtl::OUT), Pin::new(m, Merger::IN_B));
        b.connect(Pin::new(m, Merger::OUT), Pin::new(nd, Ndroc::CLK));
        let start = Pin::new(root, Jtl::IN);
        let ports = LintPorts {
            external_inputs: vec![start, Pin::new(nd, Ndroc::SET), Pin::new(nd, Ndroc::RESET)],
            external_outputs: vec![Pin::new(nd, Ndroc::OUT0), Pin::new(nd, Ndroc::OUT1)],
            timing: Some(TimingSpec {
                starts: vec![start],
                issue_period_ps: 120.0,
            }),
        };
        let report = lint(&b.finish(), &ports);
        assert!(report.is_clean(), "unexpected errors:\n{report}");
        assert_eq!(report.count(RuleId::TimingSlack), 1);
        assert_eq!(report.count_severity(Severity::Info), 1);
        assert_eq!(report.timing.unwrap().worst_slack_ps, Some(62.0));
    }

    #[test]
    fn census_counts_the_sync_sampler_unknown() {
        // The sync sampler has a row in the per-kind table, so every pin
        // rule applies and a wired-up sampler lints clean; it has no
        // JJ/power spec, so the census counts it as unknown.
        let mut b = CircuitBuilder::new();
        let sync = b.sync_sampler();
        let ports = LintPorts {
            external_inputs: vec![
                Pin::new(sync, SyncSampler::D),
                Pin::new(sync, SyncSampler::CLK),
            ],
            external_outputs: vec![Pin::new(sync, SyncSampler::OUT)],
            timing: None,
        };
        let report = lint(&b.finish(), &ports);
        assert!(report.fired_rules().is_empty(), "{report}");
        assert_eq!(report.census.unknown(), 1);
        assert_eq!(report.census.total_cells(), 0);
    }
}
