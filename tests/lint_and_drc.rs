//! Mutation coverage for the `sfq-lint` rule engine — every structural
//! mutation of a known-clean fixture must be caught by exactly the rule
//! built to catch it — plus a differential test proving the static
//! separation-slack pass and the dynamic re-arm checker agree on random
//! tree netlists, and the VCD `$scope` nesting check against
//! `Netlist::top_scopes`.
//!
//! Every report here is also pinned: its `Debug` text, hashed with FNV-64,
//! must equal the digest the rule engine produced before it moved to flat
//! tables, for the fixtures, the random trees, the registry designs, and
//! 64 seeded hostile netlists.

use hiperrf::budget::structural_budget;
use hiperrf::config::RfGeometry;
use hiperrf::designs::{registry, Design};
use hiperrf::hashing::{digest_hex, fnv64};
use hiperrf::hc_rf::build_hc_rf;
use hiperrf::lint::lint_design;
use hiperrf::{NdroRf, RegisterFile};
use sfq_cells::builder::CircuitBuilder;
use sfq_cells::counter::CounterBit;
use sfq_cells::logic::{AndGate, Dand, NotGate, SyncSampler, XorGate};
use sfq_cells::storage::{Dro, HcDro, Ndro, Ndroc};
use sfq_cells::timing::NDROC_REARM_PS;
use sfq_cells::transport::{Jtl, Merger, Splitter};
use sfq_cells::typed::TypedBuilder;
use sfq_lint::{lint, LintPorts, LintReport, RuleId, Severity, TimingSpec};
use sfq_sim::cell::Cell;
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

    fn lint(self, timing: bool) -> LintReport {
        let ports = self.ports(timing);
        lint(&self.b.finish(), &ports)
    }
}

/// A report's pin: the FNV-64 of its `Debug` text, which spells out every
/// finding (rule, severity, path, message and hint) in order, the census,
/// the component and wire counts, and the timing summary with
/// `worst_slack_ps` to the last bit.
fn pin_of(report: &LintReport) -> String {
    digest_hex(fnv64(format!("{report:?}").as_bytes()))
}

/// A component id the fixture does not hold: the last of a larger
/// netlist's.
fn foreign_component() -> ComponentId {
    let mut b = CircuitBuilder::new();
    (0..8).map(|_| b.jtl()).last().expect("eight components")
}

#[test]
fn the_fixture_is_clean_before_any_mutation() {
    let report = Fixture::new().lint(true);
    assert!(report.fired_rules().is_empty(), "{report}");
    let timing = report.timing.as_ref().expect("timing spec supplied");
    // Symmetric arms: zero spread, slack = period − re-arm window.
    let worst = timing.worst_slack_ps.expect("NDROC CLK checked");
    assert!((worst - (120.0 - NDROC_REARM_PS)).abs() < 1e-9, "{worst}");
    assert_eq!(pin_of(&report), "5d5e765445ed5d35", "{report}");
}

#[test]
fn unsplit_fanout_fires_the_fanout_rule() {
    let mut f = Fixture::new();
    // The root output now drives the splitter *and* taps the NDROC SET.
    f.b.connect(Pin::new(f.root, Jtl::OUT), Pin::new(f.nd, Ndroc::SET));
    let report = f.lint(false);
    assert_eq!(report.fired_rules(), vec![RuleId::Fanout], "{report}");
    assert_eq!(pin_of(&report), "a3e5c043e0abf984", "{report}");
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
    assert_eq!(pin_of(&report), "e24e8d0b9890d1e7", "{report}");
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
    assert_eq!(pin_of(&report), "39b8e68579ca4145", "{report}");
}

#[test]
fn out_of_range_pins_fire_the_pin_range_rule() {
    let mut f = Fixture::new();
    // A JTL has exactly one output pin; pin 3 does not exist.
    f.b.connect(Pin::new(f.root, 3), Pin::new(f.nd, Ndroc::SET));
    let report = f.lint(false);
    assert_eq!(report.fired_rules(), vec![RuleId::PinRange], "{report}");
    assert_eq!(pin_of(&report), "72f9c0f099ce2acf", "{report}");
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
    assert_eq!(pin_of(&report), "19c30cf6efcaa42e", "{report}");
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
    assert_eq!(pin_of(&report), "bc778e97617edb12", "{report}");
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
    assert_eq!(pin_of(&report), "8529c750653f32e8", "{report}");
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
    assert_eq!(pin_of(&report), "0147bb9cc436b80f", "{report}");
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
    assert_eq!(pin_of(&report), "ab622ed009378a28", "{report}");
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
    assert_eq!(pin_of(&report), "fff11547561460a0", "{report}");
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
    assert_eq!(pin_of(&report), "bf6610b67518612d", "{report}");
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
    assert_eq!(pin_of(&report), "5d98c5af7172b85c", "{report}");
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
    assert_eq!(pin_of(&report), "3948bdc39530fe88", "{report}");
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
    let mut pins = Vec::new();
    for seed in 0..24u64 {
        let mut rng = Rng64::new(0xD1FF_0000 + seed);
        let (netlist, ports, root_in) = random_tree(&mut rng);
        let report = lint(&netlist, &ports);
        pins.push(pin_of(&report));
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
    assert_eq!(pins, PINNED_TREES, "random tree report pins");
}

/// Report pins of the 24 random trees, seed by seed.
const PINNED_TREES: [&str; 24] = [
    "847508a91cd69f5e",
    "036842144fa5da69",
    "622deb5e422538a8",
    "a333df9866c7c161",
    "e604868082defb22",
    "d565023624f24fbd",
    "7bb7ee596eed1d5f",
    "d45840d7bc443537",
    "95d460ec7cbba681",
    "964093c2d1683361",
    "46e17c7daa6943bf",
    "6ec9418b22a3b5e4",
    "73448f038c22abc6",
    "f272de506d16c904",
    "5207a748ed7c65ea",
    "975591e0e2ff5a99",
    "783366e829ae0b4d",
    "5aadef56922c8f5a",
    "cc2e0c9718b2f038",
    "1438d9ebb5cfc4c4",
    "4ec189c64364e89f",
    "77e7393b5d7d1838",
    "f4c6f81535b24da1",
    "da1ae82536016f64",
];

/// Report pins of `lint_design` for every registry design at 4x4, 16x16
/// and 32x32, in registry order.
const PINNED_REGISTRY: [(Design, &str, &str, &str); 4] = [
    (
        Design::NdroBaseline,
        "2189a8dcb9e4eede",
        "cf35f9d6aeb65481",
        "e09de09c33596f27",
    ),
    (
        Design::HiPerRf,
        "c0489df9f21b3ecc",
        "c74dc060103e9792",
        "9d9cada9c064d7b6",
    ),
    (
        Design::DualBanked,
        "c93882a56defc2a1",
        "e319ee34e824af3f",
        "ce89e5c0254f0219",
    ),
    (
        Design::ShiftRegister,
        "9e4e28d61d081295",
        "e10e7f9bdb473bf1",
        "b9a9188be6f80ff0",
    ),
];

#[test]
fn registry_reports_are_pinned() {
    assert!(registry().eq(PINNED_REGISTRY.iter().map(|&(design, ..)| design)));
    let geometries = [
        RfGeometry::paper_4x4(),
        RfGeometry::paper_16x16(),
        RfGeometry::paper_32x32(),
    ];
    let mut pins = Vec::new();
    for design in registry() {
        for g in geometries {
            design
                .check_geometry(g)
                .expect("every paper size is admissible");
            pins.push(pin_of(&lint_design(design, g)));
        }
    }
    let expected: Vec<&str> = PINNED_REGISTRY
        .iter()
        .flat_map(|&(_, a, b, c)| [a, b, c])
        .collect();
    assert_eq!(pins, expected, "registry report pins");
}

#[test]
#[should_panic(
    expected = "cannot lint external input c7.0: this netlist does not hold component c7"
)]
fn an_external_input_on_a_foreign_component_is_refused_by_name() {
    let f = Fixture::new();
    let mut ports = f.ports(false);
    ports.external_inputs.push(Pin::new(foreign_component(), 0));
    lint(&f.b.finish(), &ports);
}

#[test]
#[should_panic(
    expected = "cannot lint external output c7.1: this netlist does not hold component c7"
)]
fn an_external_output_on_a_foreign_component_is_refused_by_name() {
    let f = Fixture::new();
    let mut ports = f.ports(false);
    ports
        .external_outputs
        .push(Pin::new(foreign_component(), 1));
    lint(&f.b.finish(), &ports);
}

#[test]
#[should_panic(expected = "cannot start timing at c7.0: this netlist does not hold component c7")]
fn a_timing_start_on_a_foreign_component_is_refused_by_name() {
    let f = Fixture::new();
    let mut ports = f.ports(true);
    let spec = ports.timing.as_mut().expect("timing spec supplied");
    spec.starts.push(Pin::new(foreign_component(), 0));
    lint(&f.b.finish(), &ports);
}

/// Grows a hostile netlist over the raw [`Netlist`] builder: cells of
/// every tabled kind, a few under a small pool of labels (so labels
/// repeat, one of them empty), wired at random. Some wires leave or land
/// on pins their cells do not have (up to 127); some output pins drive
/// several sinks and some input pins hear several sources; some pairs get
/// a parallel wire with a distinct delay. Some seeds add a free-running
/// transport loop, a clocked loop through a DRO's data pin, or an isolated
/// storage and transport cell. Random pins are declared external, a few
/// out of range; about half the seeds carry a timing spec.
fn hostile_netlist(rng: &mut Rng64) -> (Netlist, LintPorts) {
    const LABELS: [&str; 4] = ["x", "y", "pool/z", ""];
    let kinds: [Cell; 15] = [
        Jtl::cell(),
        Jtl::with_delay(Duration::from_ps(7.0)),
        Splitter::cell(),
        Merger::cell(),
        Dro::cell(),
        HcDro::cell(),
        Ndro::cell(),
        Ndroc::cell(),
        Dand::cell(),
        AndGate::cell(),
        NotGate::cell(),
        XorGate::cell(),
        CounterBit::cell(),
        SyncSampler::cell(),
        // Twice: an NDROC's CLK is the pin the timing-slack rule guards.
        Ndroc::cell(),
    ];
    let mut netlist = Netlist::new();
    let cells = 4 + rng.next_below(20);
    for k in 0..cells {
        let cell = kinds[rng.next_below(kinds.len())];
        if rng.next_below(4) == 0 {
            netlist.add(LABELS[rng.next_below(LABELS.len())], cell);
        } else {
            netlist.add(format_args!("u{k}"), cell);
        }
    }
    let ids: Vec<ComponentId> = netlist.iter().map(|(id, _, _)| id).collect();
    // A pin of a random cell: mostly one it has, sometimes any below 128.
    let pick = |rng: &mut Rng64, netlist: &Netlist, output: bool| {
        let id = ids[rng.next_below(ids.len())];
        let kind = netlist.cell(id).kind();
        let count = if output {
            kind.outputs()
        } else {
            kind.inputs()
        };
        let index = if rng.next_below(10) == 0 {
            rng.next_below(128)
        } else {
            rng.next_below(usize::from(count))
        };
        Pin::new(id, index as u8)
    };
    for _ in 0..rng.next_below(3 * cells) {
        let from = pick(rng, &netlist, true);
        let to = pick(rng, &netlist, false);
        let delay = Duration::from_ps(rng.next_below(6) as f64);
        // The netlist refuses identical wires and zero-delay self-loops;
        // the lint sees only what it holds.
        let _ = netlist.try_connect(from, to, delay);
        if rng.next_below(6) == 0 {
            let _ = netlist.try_connect(from, to, delay + Duration::from_ps(0.5));
        }
    }
    let wire = |netlist: &mut Netlist, from: Pin, to: Pin| {
        netlist.connect(from, to, Duration::from_ps(1.0));
    };
    match rng.next_below(4) {
        0 => {
            // A merger <-> JTL ring, fed from a random output.
            let m = netlist.add("ring", Merger::cell());
            let j = netlist.add("ring", Jtl::cell());
            let feed = pick(rng, &netlist, true);
            wire(&mut netlist, feed, Pin::new(m, Merger::IN_A));
            wire(&mut netlist, Pin::new(m, Merger::OUT), Pin::new(j, Jtl::IN));
            wire(
                &mut netlist,
                Pin::new(j, Jtl::OUT),
                Pin::new(m, Merger::IN_B),
            );
        }
        1 => {
            // DRO Q -> JTL -> DRO D: feedback a clocked cell interrupts.
            let d = netlist.add("loop", Dro::cell());
            let j = netlist.add("loop", Jtl::cell());
            let clk = pick(rng, &netlist, true);
            wire(&mut netlist, clk, Pin::new(d, Dro::CLK));
            wire(&mut netlist, Pin::new(d, Dro::Q), Pin::new(j, Jtl::IN));
            wire(&mut netlist, Pin::new(j, Jtl::OUT), Pin::new(d, Dro::D));
        }
        2 => {
            netlist.add("lone", HcDro::cell());
            netlist.add("lone", Jtl::cell());
        }
        _ => {}
    }
    let mut external_inputs = Vec::new();
    let mut external_outputs = Vec::new();
    for (id, _, cell) in netlist.iter() {
        let kind = cell.kind();
        for pin in 0..kind.inputs() {
            if rng.next_below(3) == 0 {
                external_inputs.push(Pin::new(id, pin));
            }
        }
        for pin in 0..kind.outputs() {
            if rng.next_below(3) == 0 {
                external_outputs.push(Pin::new(id, pin));
            }
        }
    }
    if rng.next_below(4) == 0 {
        external_inputs.push(pick(rng, &netlist, false));
        external_outputs.push(Pin::new(ids[rng.next_below(ids.len())], 100));
    }
    let timing = (rng.next_below(2) == 0 && !external_inputs.is_empty()).then(|| TimingSpec {
        starts: (0..1 + rng.next_below(3))
            .map(|_| external_inputs[rng.next_below(external_inputs.len())])
            .collect(),
        issue_period_ps: 20.0 + 100.0 * rng.next_f64(),
    });
    let ports = LintPorts {
        external_inputs,
        external_outputs,
        timing,
    };
    (netlist, ports)
}

/// Report pins of the 64 hostile netlists, seed by seed.
const PINNED_HOSTILE: [&str; 64] = [
    "56528d5d0113cd21",
    "1b39a9ee96bf4346",
    "7c553fadf03c38fe",
    "a53ae47443cbd828",
    "364a9d4d08b457b8",
    "d2780306845bd188",
    "747a7d245fb80ac1",
    "d91d259971ec98a4",
    "5c1e79c05ec8c8b0",
    "416ca6cc388d099e",
    "a504ee61853205d6",
    "68f8e1b57fead3aa",
    "c1935ae8a16f9c99",
    "bd4d63a4f94024c1",
    "36ce5ff6e11269cb",
    "fce7dca9c0573f85",
    "1944a4b22ddaaad4",
    "84924e6ba32d2a29",
    "66cfdc6dd494b219",
    "647b943fc88ffc2d",
    "a88d43c7c37a8a93",
    "e3f43e6c72484007",
    "fcfa8331c2000071",
    "f6c98667e2305ff5",
    "7e2847856f5b1c97",
    "51eba269cecf879d",
    "1797934f57f1f2d2",
    "a273864c7f62054d",
    "dbb45d77e21945f1",
    "56d66caba3211cf2",
    "766b7290352cd8cc",
    "4cce66cb9a6b89df",
    "7e304679b19a25cc",
    "a7be9a59b3a37e5d",
    "dd6d095a73799269",
    "b386e4da0bc1b3ee",
    "53dc98f5b2daeed8",
    "81ef45cfb09a3a07",
    "878a56732669d270",
    "2eb4bf723fe457d6",
    "659d6ecfbe706248",
    "f36f8f3b7b60174f",
    "fe19154613b62cb9",
    "bb2037ae286fab62",
    "cd6ce40afdbec648",
    "36b8ce0926295680",
    "9e5494748e6dd0bf",
    "d2073e403b2f47a4",
    "9ce1a3bbabbb3c12",
    "45aad0230f9db064",
    "d1cb316e3b19e998",
    "28cbb0b12484a06d",
    "74b03e19847c95ff",
    "1918deba35c59097",
    "f53d84813f9cf977",
    "a78eb9f8d873cf99",
    "75c576cdfbb24cb6",
    "5e50a5c12cb70bb6",
    "0d1733a30961e2cc",
    "43b965e885b2cad0",
    "6c09880d31935c43",
    "7d9dcd19c396367c",
    "710b4e24e7459d20",
    "fea82ad44c4b3a12",
];

#[test]
fn hostile_netlists_fire_every_rule_and_keep_their_pins() {
    let mut fired = Vec::new();
    let mut pins = Vec::new();
    for seed in 0..64u64 {
        let (netlist, ports) = hostile_netlist(&mut Rng64::new(0x4057_11E0 + seed));
        let report = lint(&netlist, &ports);
        fired.extend(report.fired_rules());
        pins.push(pin_of(&report));
    }
    // `budget` is appended by `budget_check`, never by `lint`.
    for rule in RuleId::ALL.into_iter().filter(|&r| r != RuleId::Budget) {
        assert!(fired.contains(&rule), "no hostile seed fires {rule}");
    }
    assert_eq!(pins, PINNED_HOSTILE, "hostile netlist report pins");
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
