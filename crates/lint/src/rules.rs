//! The rule engine: one pass over the wire set, one reachability walk,
//! one cycle enumeration, and one min/max trigger-aware STA pass.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use sfq_cells::sta::{trigger_arrival_times, Sense};
use sfq_cells::storage::{HcDro, Ndroc};
use sfq_cells::{sta, Census};
use sfq_sim::cell::{CellKind, CellOp};
use sfq_sim::netlist::{ComponentId, Netlist, Pin};
use sfq_sim::time::Duration;

use crate::report::{Finding, LintReport, RuleId, Severity, TimingSummary};
use crate::LintPorts;

pub(crate) fn run(netlist: &Netlist, ports: &LintPorts) -> LintReport {
    let ids: Vec<ComponentId> = netlist.iter().map(|(id, _, _)| id).collect();
    // Each cell's row in the per-kind table.
    let kinds: Vec<CellKind> = netlist.iter().map(|(_, _, cell)| cell.kind()).collect();
    let external: BTreeSet<Pin> = ports.external_inputs.iter().copied().collect();
    let mut findings = Vec::new();

    // One deterministic pass over the wire set builds every adjacency the
    // structural rules need.
    let mut wires: Vec<(Pin, Pin, f64)> = netlist
        .wires()
        .map(|w| (w.from, w.to, w.delay.as_ps()))
        .collect();
    wires.sort_by_key(|&(from, to, _)| (from, to));
    // Sinks per output pin / sources (with wire delay) per input pin.
    let mut sinks: BTreeMap<Pin, Vec<Pin>> = BTreeMap::new();
    let mut sources: BTreeMap<Pin, Vec<(Pin, f64)>> = BTreeMap::new();
    for &(from, to, delay) in &wires {
        sinks.entry(from).or_default().push(to);
        sources.entry(to).or_default().push((from, delay));
    }

    // pin-range: both endpoints must exist on their cells.
    for &(from, to, _) in &wires {
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

    // dup-wire: parallel wires between the same pin pair double every
    // pulse regardless of their delays.
    for (to, srcs) in &sources {
        let mut seen: BTreeMap<Pin, usize> = BTreeMap::new();
        for &(from, _) in srcs {
            *seen.entry(from).or_default() += 1;
        }
        for (from, count) in seen {
            if count > 1 {
                findings.push(Finding {
                    rule: RuleId::DupWire,
                    severity: Severity::Error,
                    path: netlist.label(to.component).to_string(),
                    message: format!(
                        "{count} parallel wires from {} pin {} land on input pin {}",
                        netlist.label(from.component),
                        from.index,
                        to.index
                    ),
                    fix_hint: "delete the redundant wire".into(),
                });
            }
        }
    }

    // fanout: an SFQ pulse cannot drive two loads; fan-out needs explicit
    // splitter cells (which provide one sink per output pin).
    for (from, tos) in &sinks {
        let distinct: BTreeSet<Pin> = tos.iter().copied().collect();
        if distinct.len() > 1 {
            let kind = kinds[from.component.index()];
            findings.push(Finding {
                rule: RuleId::Fanout,
                severity: Severity::Error,
                path: netlist.label(from.component).to_string(),
                message: format!(
                    "output pin {} drives {} sinks (max 1 per output pin)",
                    from.index,
                    distinct.len()
                ),
                fix_hint: if kind == CellKind::Splitter {
                    "cascade another splitter".into()
                } else {
                    "insert a splitter (tree)".into()
                },
            });
        }
    }

    // fanin: reconvergent wires must meet in a merger, never on one pin.
    for (to, srcs) in &sources {
        let distinct: BTreeSet<Pin> = srcs.iter().map(|&(from, _)| from).collect();
        if distinct.len() > 1 {
            findings.push(Finding {
                rule: RuleId::Fanin,
                severity: Severity::Error,
                path: netlist.label(to.component).to_string(),
                message: format!(
                    "input pin {} ({}) is driven by {} sources",
                    to.index,
                    kinds[to.component.index()]
                        .input_name(to.index)
                        .unwrap_or("?"),
                    distinct.len()
                ),
                fix_hint: "insert a merger".into(),
            });
        }
    }

    // Driven-input view per component: wired or declared external.
    let driven_inputs = |i: usize| -> BTreeSet<u8> {
        let id = ids[i];
        (0..kinds[i].inputs())
            .filter(|&pin| {
                let p = Pin::new(id, pin);
                sources.contains_key(&p) || external.contains(&p)
            })
            .collect()
    };

    // undriven-storage: a storage cell nothing ever pulses. Flagged cells
    // are excluded from dangling-input/unreachable so each defect maps to
    // exactly one rule.
    let mut undriven_storage: HashSet<usize> = HashSet::new();
    for (i, &id) in ids.iter().enumerate() {
        if netlist.cell(id).stored().is_none() {
            continue;
        }
        if driven_inputs(i).is_empty() {
            undriven_storage.insert(i);
            findings.push(Finding {
                rule: RuleId::UndrivenStorage,
                severity: Severity::Error,
                path: netlist.label(id).to_string(),
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
    for (i, &id) in ids.iter().enumerate() {
        let kind = kinds[i];
        if undriven_storage.contains(&i) {
            continue;
        }
        let driven = driven_inputs(i);
        if kind == CellKind::Merger {
            if driven.len() != 2 {
                findings.push(Finding {
                    rule: RuleId::MergerInputs,
                    severity: Severity::Error,
                    path: netlist.label(id).to_string(),
                    message: format!(
                        "merger has {} driven input(s), needs exactly 2",
                        driven.len()
                    ),
                    fix_hint: "drive both IN_A and IN_B, or replace the merger with a wire".into(),
                });
            }
            continue;
        }
        for pin in 0..kind.inputs() {
            if !driven.contains(&pin) {
                findings.push(Finding {
                    rule: RuleId::DanglingInput,
                    severity: Severity::Error,
                    path: netlist.label(id).to_string(),
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

    // unreachable: breadth-first from every component owning an external
    // input, across all wires (any input reaches all outputs).
    let mut reachable = vec![false; ids.len()];
    let mut queue: Vec<usize> = external
        .iter()
        .map(|p| p.component.index())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    for &i in &queue {
        reachable[i] = true;
    }
    while let Some(i) = queue.pop() {
        for out_pin in sinks.range(Pin::new(ids[i], 0)..=Pin::new(ids[i], u8::MAX)) {
            for to in out_pin.1 {
                let j = to.component.index();
                if !reachable[j] {
                    reachable[j] = true;
                    queue.push(j);
                }
            }
        }
    }
    for (i, &id) in ids.iter().enumerate() {
        if !reachable[i] && !undriven_storage.contains(&i) {
            findings.push(Finding {
                rule: RuleId::Unreachable,
                severity: Severity::Error,
                path: netlist.label(id).to_string(),
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
    // "dropping" every output).
    let external_outputs: BTreeSet<Pin> = ports.external_outputs.iter().copied().collect();
    let flagged: HashSet<String> = findings
        .iter()
        .filter(|f| f.severity == Severity::Error && !f.path.is_empty())
        .map(|f| f.path.clone())
        .collect();
    for (i, &id) in ids.iter().enumerate() {
        let kind = kinds[i];
        if flagged.contains(netlist.label(id)) {
            continue;
        }
        for pin in 0..kind.outputs() {
            let out = Pin::new(id, pin);
            if sinks.contains_key(&out) || external_outputs.contains(&out) {
                continue;
            }
            findings.push(Finding {
                rule: RuleId::DroppedWire,
                severity: Severity::Error,
                path: netlist.label(id).to_string(),
                message: format!(
                    "output pin {pin} drives nothing and is not a declared external \
                     output — its pulses would silently disappear"
                ),
                fix_hint: "consume the output or declare it in LintPorts::external_outputs".into(),
            });
        }
    }

    // cycle: every feedback loop gets a witness path. Loops in which each
    // hop enters a *trigger* pin circulate pulses unconditionally (an
    // oscillator — error); loops interrupted by a clocked element are the
    // designed feedback of this paper (loopback, shift rings — info).
    let cycles = sta::find_cycles(netlist, &HashSet::new());
    for cycle in &cycles {
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
    let mut timing = None;
    if let Some(spec) = &ports.timing {
        timing = timing_pass(netlist, &ids, spec, &sources, &mut findings);
    }

    LintReport {
        findings,
        census: Census::of(netlist),
        components: netlist.component_count(),
        wires: netlist.wire_count(),
        timing,
    }
}

fn timing_pass(
    netlist: &Netlist,
    ids: &[ComponentId],
    spec: &crate::TimingSpec,
    sources: &BTreeMap<Pin, Vec<(Pin, f64)>>,
    findings: &mut Vec<Finding>,
) -> Option<TimingSummary> {
    let no_cuts = HashSet::new();
    // A trigger-graph cycle already produced a `cycle` error above; the
    // slack pass is undefined then.
    let earliest = trigger_arrival_times(netlist, &spec.starts, &no_cuts, Sense::Earliest).ok()?;
    let latest = trigger_arrival_times(netlist, &spec.starts, &no_cuts, Sense::Latest).ok()?;
    let starts: BTreeSet<Pin> = spec.starts.iter().copied().collect();

    let mut checked_pins = 0;
    let mut worst: Option<(f64, String)> = None;
    for &id in ids {
        let cell = netlist.cell(id);
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
            if starts.contains(&pin) {
                merge(0.0, 0.0);
            }
            for &(from, wire_ps) in sources.get(&pin).map_or(&[][..], Vec::as_slice) {
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
            let pin_path = format!("{}.{}", netlist.label(id), pin_name);
            if worst.as_ref().is_none_or(|(w, _)| slack < *w) {
                worst = Some((slack, pin_path.clone()));
            }
            if slack < -1e-9 {
                findings.push(Finding {
                    rule: RuleId::TimingSlack,
                    severity: Severity::Error,
                    path: netlist.label(id).to_string(),
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
                    path: netlist.label(id).to_string(),
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
