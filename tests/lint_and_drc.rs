//! Mutation coverage for the `sfq-lint` rule engine — every structural
//! mutation of a known-clean fixture must be caught by exactly the rule
//! built to catch it — plus a differential test proving the static
//! separation-slack pass and the dynamic re-arm checker agree on random
//! tree netlists, and the VCD `$scope` nesting check against
//! `Netlist::top_scopes`.

use hiperrf::budget::structural_budget;
use hiperrf::config::RfGeometry;
use hiperrf::designs::Design;
use hiperrf::hc_rf::build_hc_rf;
use hiperrf::{NdroRf, RegisterFile};
use sfq_cells::builder::CircuitBuilder;
use sfq_cells::storage::{Dro, Ndroc};
use sfq_cells::timing::NDROC_REARM_PS;
use sfq_cells::transport::{Jtl, Merger, Splitter};
use sfq_cells::typed::TypedBuilder;
use sfq_lint::{lint, LintPorts, RuleId, Severity, TimingSpec};
use sfq_sim::netlist::{ComponentId, Netlist, Pin};
use sfq_sim::prelude::*;
use sfq_sim::rng::Rng64;

/// The known-clean fixture every mutation starts from: an external JTL
/// fanning through a splitter into two JTL arms, reconverging in a merger
/// that clocks an NDROC.
struct Fixture {
    b: CircuitBuilder,
    root: ComponentId,
    j0: ComponentId,
    m: ComponentId,
    nd: ComponentId,
}

impl Fixture {
    /// Builds the fixture; `arm_delay` tunes the second JTL arm so tests
    /// can skew the min/max reconvergence spread.
    fn with_arm_delay(arm_delay: Duration) -> Fixture {
        let mut b = CircuitBuilder::new();
        let root = b.jtl();
        let sp = b.splitter();
        let j0 = b.jtl();
        let j1 = b.jtl_with_delay(arm_delay);
        let m = b.merger();
        let nd = b.ndroc();
        b.connect(Pin::new(root, Jtl::OUT), Pin::new(sp, Splitter::IN));
        b.connect(Pin::new(sp, Splitter::OUT0), Pin::new(j0, Jtl::IN));
        b.connect(Pin::new(sp, Splitter::OUT1), Pin::new(j1, Jtl::IN));
        b.connect(Pin::new(j0, Jtl::OUT), Pin::new(m, Merger::IN_A));
        b.connect(Pin::new(j1, Jtl::OUT), Pin::new(m, Merger::IN_B));
        b.connect(Pin::new(m, Merger::OUT), Pin::new(nd, Ndroc::CLK));
        Fixture { b, root, j0, m, nd }
    }

    fn new() -> Fixture {
        // 2 ps matches the default JTL, so the arms are symmetric.
        Fixture::with_arm_delay(Duration::from_ps(2.0))
    }

    /// The fixture's port context. Structural mutation tests pass
    /// `timing: false` so skewed arrivals never add incidental findings.
    fn ports(&self, timing: bool) -> LintPorts {
        LintPorts {
            external_inputs: vec![
                Pin::new(self.root, Jtl::IN),
                Pin::new(self.nd, Ndroc::SET),
                Pin::new(self.nd, Ndroc::RESET),
            ],
            external_outputs: vec![
                Pin::new(self.nd, Ndroc::OUT0),
                Pin::new(self.nd, Ndroc::OUT1),
            ],
            timing: timing.then(|| TimingSpec {
                starts: vec![Pin::new(self.root, Jtl::IN)],
                issue_period_ps: 120.0,
            }),
        }
    }

    fn lint(self, timing: bool) -> sfq_lint::LintReport {
        let ports = self.ports(timing);
        lint(&self.b.finish(), &ports)
    }
}

#[test]
fn the_fixture_is_clean_before_any_mutation() {
    let report = Fixture::new().lint(true);
    assert!(report.fired_rules().is_empty(), "{report}");
    let timing = report.timing.expect("timing spec supplied");
    // Symmetric arms: zero spread, slack = period − re-arm window.
    let worst = timing.worst_slack_ps.expect("NDROC CLK checked");
    assert!((worst - (120.0 - NDROC_REARM_PS)).abs() < 1e-9, "{worst}");
}

#[test]
fn unsplit_fanout_fires_the_fanout_rule() {
    let mut f = Fixture::new();
    // The root output now drives the splitter *and* taps the NDROC SET.
    f.b.connect(Pin::new(f.root, Jtl::OUT), Pin::new(f.nd, Ndroc::SET));
    let report = f.lint(false);
    assert_eq!(report.fired_rules(), vec![RuleId::Fanout], "{report}");
}

#[test]
fn mergerless_fanin_fires_the_fanin_rule() {
    let mut f = Fixture::new();
    // A second external JTL drives the merger's IN_A alongside arm j0.
    let x = f.b.jtl();
    f.b.connect(Pin::new(x, Jtl::OUT), Pin::new(f.m, Merger::IN_A));
    let mut ports = f.ports(false);
    ports.external_inputs.push(Pin::new(x, Jtl::IN));
    let report = lint(&f.b.finish(), &ports);
    assert_eq!(report.fired_rules(), vec![RuleId::Fanin], "{report}");
}

#[test]
fn a_half_driven_merger_fires_the_merger_inputs_rule() {
    let mut f = Fixture::new();
    // A merger with only IN_A driven — not dangling-input, the dedicated
    // merger rule owns this shape.
    let m2 = f.b.merger();
    f.b.connect(Pin::new(f.nd, Ndroc::OUT0), Pin::new(m2, Merger::IN_A));
    let report = f.lint(false);
    assert_eq!(report.fired_rules(), vec![RuleId::MergerInputs], "{report}");
}

#[test]
fn out_of_range_pins_fire_the_pin_range_rule() {
    let mut f = Fixture::new();
    // A JTL has exactly one output pin; pin 3 does not exist.
    f.b.connect(Pin::new(f.root, 3), Pin::new(f.nd, Ndroc::SET));
    let report = f.lint(false);
    assert_eq!(report.fired_rules(), vec![RuleId::PinRange], "{report}");
}

#[test]
fn parallel_wires_fire_the_dup_wire_rule() {
    let mut f = Fixture::new();
    // Same pin pair, different delay: Netlist::connect accepts it (only
    // *identical* wires are rejected at construction), the lint does not.
    f.b.connect_delayed(
        Pin::new(f.j0, Jtl::OUT),
        Pin::new(f.m, Merger::IN_A),
        Duration::from_ps(1.0),
    );
    let report = f.lint(false);
    assert_eq!(report.fired_rules(), vec![RuleId::DupWire], "{report}");
}

#[test]
fn an_unwired_clock_fires_the_dangling_input_rule() {
    let mut f = Fixture::new();
    // A DRO with D driven but CLK neither wired nor declared external.
    let d = f.b.dro();
    f.b.connect(Pin::new(f.nd, Ndroc::OUT0), Pin::new(d, Dro::D));
    let report = f.lint(false);
    assert_eq!(
        report.fired_rules(),
        vec![RuleId::DanglingInput],
        "{report}"
    );
}

#[test]
fn an_undeclared_observation_point_fires_the_dropped_wire_rule() {
    let f = Fixture::new();
    // Forget to declare the NDROC's complement output as observed: its
    // pulses would silently disappear, and only dropped-wire may fire.
    let mut ports = f.ports(false);
    ports
        .external_outputs
        .retain(|&p| p != Pin::new(f.nd, Ndroc::OUT1));
    let report = lint(&f.b.finish(), &ports);
    assert_eq!(report.fired_rules(), vec![RuleId::DroppedWire], "{report}");
    assert_eq!(report.count(RuleId::DroppedWire), 1, "{report}");
    let finding = &report.findings[0];
    assert!(
        finding.message.contains("OUT1") || finding.message.contains("pin 1"),
        "finding must name the dropped pin: {finding}"
    );
}

#[test]
fn an_isolated_storage_cell_fires_only_undriven_storage() {
    let mut f = Fixture::new();
    // Storage with no driven input: the dedicated rule fires and
    // suppresses the dangling/unreachable noise it would imply.
    f.b.hcdro();
    let report = f.lint(false);
    assert_eq!(
        report.fired_rules(),
        vec![RuleId::UndrivenStorage],
        "{report}"
    );
}

#[test]
fn an_isolated_transport_cell_is_dangling_and_unreachable() {
    let mut f = Fixture::new();
    f.b.jtl();
    let report = f.lint(false);
    assert_eq!(
        report.fired_rules(),
        vec![RuleId::DanglingInput, RuleId::Unreachable],
        "{report}"
    );
}

#[test]
fn a_transport_loop_is_a_free_running_cycle_error() {
    let mut f = Fixture::new();
    // merger <-> JTL ring fed from the NDROC: every hop lands on a
    // trigger pin, so a single pulse circulates forever.
    let m2 = f.b.merger();
    let x = f.b.jtl();
    f.b.connect(Pin::new(f.nd, Ndroc::OUT0), Pin::new(m2, Merger::IN_A));
    f.b.connect(Pin::new(m2, Merger::OUT), Pin::new(x, Jtl::IN));
    f.b.connect(Pin::new(x, Jtl::OUT), Pin::new(m2, Merger::IN_B));
    let report = f.lint(false);
    assert_eq!(report.fired_rules(), vec![RuleId::Cycle], "{report}");
    for finding in &report.findings {
        assert_eq!(finding.severity, Severity::Error, "{finding}");
        assert!(
            finding.message.contains("free-running"),
            "cycle finding must say why it is fatal: {finding}"
        );
    }
}

#[test]
fn clocked_feedback_is_an_informational_cycle() {
    let mut f = Fixture::new();
    // NDROC output looping back to its own SET: the hop enters a
    // non-trigger (state) pin, so a pulse cannot free-run.
    let y = f.b.jtl();
    f.b.connect(Pin::new(f.nd, Ndroc::OUT0), Pin::new(y, Jtl::IN));
    f.b.connect(Pin::new(y, Jtl::OUT), Pin::new(f.nd, Ndroc::SET));
    let report = f.lint(false);
    assert_eq!(report.fired_rules(), vec![RuleId::Cycle], "{report}");
    assert!(report
        .findings
        .iter()
        .all(|fd| fd.severity == Severity::Info));
}

#[test]
fn reconvergence_spread_fires_the_timing_slack_rule() {
    // One arm at 100 ps versus 2 ps: spread 98 ps against a 120 ps issue
    // period leaves 120 − 98 − 53 = −31 ps of re-arm slack at the NDROC.
    let f = Fixture::with_arm_delay(Duration::from_ps(100.0));
    let report = f.lint(true);
    assert_eq!(report.fired_rules(), vec![RuleId::TimingSlack], "{report}");
    assert!(!report.is_clean());
    let timing = report.timing.as_ref().expect("timing ran");
    let worst = timing.worst_slack_ps.expect("NDROC CLK checked");
    assert!((worst - -31.0).abs() < 1e-9, "worst slack {worst}");
}

#[test]
fn a_budget_mismatch_fires_the_budget_rule() {
    // Lint the real 4x4 baseline but cross-check against the 16x16
    // structural budget: the census divergence must be caught.
    let rf = NdroRf::new(RfGeometry::paper_4x4());
    let mut report = rf.lint();
    assert!(report.is_clean(), "{report}");
    let wrong = structural_budget(Design::NdroBaseline, RfGeometry::paper_16x16());
    sfq_lint::budget_check(&mut report, wrong.jj_total(), wrong.static_power_uw());
    assert_eq!(report.count(RuleId::Budget), 1, "{report}");
    assert!(!report.is_clean());
}

/// Grows a random fan-out *tree* of JTLs, splitters, and NDROCs from a
/// single external root. Trees keep the static/dynamic correspondence
/// exact: every NDROC CLK pin sees at most one pulse per operation, all
/// exactly the issue period apart, so static slack is clean if and only
/// if the dynamic re-arm checker stays silent.
fn random_tree(rng: &mut Rng64) -> (Netlist, LintPorts, Pin) {
    let mut b = CircuitBuilder::new();
    let root = b.jtl();
    let root_in = Pin::new(root, Jtl::IN);
    let mut externals = vec![root_in];
    // Observation points: every NDROC complement output plus whatever the
    // frontier leaves open when growth stops.
    let mut observed: Vec<Pin> = Vec::new();
    let mut frontier = vec![Pin::new(root, Jtl::OUT)];
    let mut ndrocs = 0usize;
    let grow_ndroc =
        |b: &mut CircuitBuilder, src: Pin, externals: &mut Vec<Pin>, observed: &mut Vec<Pin>| {
            let n = b.ndroc();
            b.connect(src, Pin::new(n, Ndroc::CLK));
            externals.push(Pin::new(n, Ndroc::SET));
            externals.push(Pin::new(n, Ndroc::RESET));
            observed.push(Pin::new(n, Ndroc::OUT1));
            Pin::new(n, Ndroc::OUT0)
        };
    for _ in 0..3 + rng.next_below(6) {
        let src = frontier.swap_remove(rng.next_below(frontier.len()));
        match rng.next_below(3) {
            0 => {
                let j = b.jtl();
                b.connect(src, Pin::new(j, Jtl::IN));
                frontier.push(Pin::new(j, Jtl::OUT));
            }
            1 => {
                let s = b.splitter();
                b.connect(src, Pin::new(s, Splitter::IN));
                frontier.push(Pin::new(s, Splitter::OUT0));
                frontier.push(Pin::new(s, Splitter::OUT1));
            }
            _ => {
                let out = grow_ndroc(&mut b, src, &mut externals, &mut observed);
                frontier.push(out);
                ndrocs += 1;
            }
        }
    }
    if ndrocs == 0 {
        let src = frontier.swap_remove(rng.next_below(frontier.len()));
        let out = grow_ndroc(&mut b, src, &mut externals, &mut observed);
        observed.push(out);
    }
    observed.extend(frontier.iter().copied());
    // Straddle the 53 ps re-arm window, staying clear of the boundary.
    let period = if rng.next_below(2) == 0 {
        30.0 + 15.0 * rng.next_f64()
    } else {
        60.0 + 30.0 * rng.next_f64()
    };
    let ports = LintPorts {
        external_inputs: externals,
        external_outputs: observed,
        timing: Some(TimingSpec {
            starts: vec![root_in],
            issue_period_ps: period,
        }),
    };
    (b.finish(), ports, root_in)
}

#[test]
fn static_slack_agrees_with_the_dynamic_rearm_checker_on_random_trees() {
    let (mut clean_seen, mut dirty_seen) = (0usize, 0usize);
    for seed in 0..24u64 {
        let mut rng = Rng64::new(0xD1FF_0000 + seed);
        let (netlist, ports, root_in) = random_tree(&mut rng);
        let report = lint(&netlist, &ports);
        // The generator only produces structurally legal trees; the one
        // rule in play is timing-slack.
        let structural: Vec<_> = report
            .fired_rules()
            .into_iter()
            .filter(|&r| r != RuleId::TimingSlack)
            .collect();
        assert!(structural.is_empty(), "seed {seed}: {report}");

        let period = ports.timing.as_ref().unwrap().issue_period_ps;
        let mut sim = Simulator::new(netlist);
        for k in 0..8 {
            sim.inject(root_in, Time::from_ps(10.0 + k as f64 * period));
        }
        sim.run();
        let rearms = sim
            .violations()
            .iter()
            .filter(|v| v.kind == "re-arm")
            .count();
        assert_eq!(
            report.is_clean(),
            rearms == 0,
            "seed {seed}, period {period}: static and dynamic verdicts \
             diverge ({rearms} re-arm violations)\n{report}"
        );
        if report.is_clean() {
            clean_seen += 1;
        } else {
            dirty_seen += 1;
        }
    }
    assert!(
        clean_seen >= 3 && dirty_seen >= 3,
        "both outcomes must be exercised: {clean_seen} clean / {dirty_seen} dirty"
    );
}

#[test]
fn vcd_scope_nesting_mirrors_the_netlist_top_scopes() {
    // Probe one component from every top-level scope of the HiPerRF
    // netlist; the exported VCD must nest exactly those scopes one level
    // below the top module, matching Netlist::top_scopes.
    let (elab, _ports) =
        TypedBuilder::elaborate(|b| build_hc_rf(b, RfGeometry::paper_4x4()).externalize(b));
    elab.assert_total();
    let netlist = elab.netlist;
    let tops: Vec<String> = netlist.top_scopes().iter().map(|s| s.to_string()).collect();
    assert!(tops.len() >= 2, "hierarchical design expected: {tops:?}");
    let mut picks: Vec<(ComponentId, String)> = Vec::new();
    for scope in &tops {
        let id = netlist
            .iter()
            .find(|(id, _, _)| netlist.scope_of(*id).split('/').next() == Some(scope.as_str()))
            .map(|(id, _, _)| id)
            .expect("top scope has a component");
        picks.push((id, scope.clone()));
    }
    let mut sim = Simulator::new(netlist);
    for (id, scope) in &picks {
        sim.probe(Pin::new(*id, 0), format!("{scope}_probe"));
    }
    let vcd = sim.to_vcd("rf");

    let mut depth = 0usize;
    let mut depth1: Vec<String> = Vec::new();
    for line in vcd.lines() {
        let t = line.trim();
        if let Some(rest) = t.strip_prefix("$scope module ") {
            let name = rest.trim_end_matches("$end").trim();
            if depth == 1 && !depth1.iter().any(|s| s == name) {
                depth1.push(name.to_string());
            }
            depth += 1;
        } else if t == "$upscope $end" {
            assert!(depth > 0, "unbalanced $upscope in VCD");
            depth -= 1;
        } else if t.starts_with("$var ") {
            assert!(depth >= 1, "vars must live inside the top scope");
        }
    }
    assert_eq!(depth, 0, "every $scope must be closed");

    let mut expected = tops.clone();
    expected.sort();
    depth1.sort();
    assert_eq!(
        depth1, expected,
        "depth-1 VCD scopes must be exactly the netlist's top scopes"
    );
}
