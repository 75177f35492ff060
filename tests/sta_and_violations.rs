//! Static timing analysis over the real register-file netlists, and
//! failure-injection tests proving the violation checkers catch bad
//! timing (silence must mean correct, not unchecked).

use std::collections::HashSet;

use hiperrf::config::RfGeometry;
use hiperrf::demux::{elaborate_demux, sel_head_start};
use hiperrf::hc_rf::{build_hc_rf, HcRfPorts};
use hiperrf::shift_rf::ShiftRegisterRf;
use hiperrf::{DualBankRf, RegisterFile};
use sfq_cells::builder::CircuitBuilder;
use sfq_cells::sta::{arrival_times, trigger_arrival_times, Sense, StaError};
use sfq_cells::storage::HcDro;
use sfq_cells::timing::{NDROC_PROP_PS, NDROC_REARM_PS};
use sfq_cells::typed::TypedBuilder;
use sfq_sim::netlist::{Netlist, Pin};
use sfq_sim::prelude::*;

#[test]
fn sta_confirms_demux_traverse_latency() {
    // The enable path through an L-level NDROC tree is L x 24 ps; the STA
    // over the built netlist must agree with the closed-form model.
    for levels in 1..=5usize {
        let (netlist, demux) = elaborate_demux(levels);
        let times =
            arrival_times(&netlist, &[demux.enable], &HashSet::new()).expect("demux is acyclic");
        // The leaf NDROCs see the enable after (levels-1) stages; their
        // outputs land one more stage later, so the critical arrival at a
        // component input is (levels-1) * prop.
        let expected = (levels as f64 - 1.0) * NDROC_PROP_PS;
        let cp = times.critical_path_ps().expect("reachable");
        assert!(
            (cp - expected).abs() < 1e-9,
            "levels {levels}: cp {cp} vs {expected}"
        );
    }
}

#[test]
fn demux_min_and_max_paths_both_match_the_closed_form_model() {
    // The enable tree is a pure fan-out structure: at every component the
    // earliest and latest trigger arrivals coincide, and both equal the
    // (levels-1) x 24 ps closed-form traverse model. This is the zero
    // spread that makes the lint's static separation slack on the demux
    // exactly `issue_period - NDROC_REARM_PS`.
    for levels in 1..=5usize {
        let (netlist, demux) = elaborate_demux(levels);
        let no_cuts = HashSet::new();
        let starts = [demux.enable];
        let earliest = trigger_arrival_times(&netlist, &starts, &no_cuts, Sense::Earliest)
            .expect("trigger graph of a tree is acyclic");
        let latest = trigger_arrival_times(&netlist, &starts, &no_cuts, Sense::Latest)
            .expect("trigger graph of a tree is acyclic");
        for (id, label, _) in netlist.iter() {
            match (earliest.at(id), latest.at(id)) {
                (Some(e), Some(l)) => {
                    assert!((e - l).abs() < 1e-9, "levels {levels} {label}: {e} vs {l}");
                }
                (None, None) => {}
                (e, l) => panic!("levels {levels} {label}: reachability differs {e:?}/{l:?}"),
            }
        }
        let expected = (levels as f64 - 1.0) * NDROC_PROP_PS;
        for times in [&earliest, &latest] {
            let cp = times.critical_path_ps().expect("reachable");
            assert!(
                (cp - expected).abs() < 1e-9,
                "levels {levels}: cp {cp} vs {expected}"
            );
        }
    }
}

#[test]
fn demux_static_rearm_slack_is_period_minus_window_at_every_depth() {
    // With zero min/max spread (previous test), the lint's separation
    // slack on a demux must be exactly `period - 53 ps`, independent of
    // tree depth.
    for levels in 1..=4usize {
        let (netlist, demux) = elaborate_demux(levels);
        let ports = sfq_lint::LintPorts {
            external_inputs: demux.lint_inputs(),
            external_outputs: demux.outputs.clone(),
            timing: Some(sfq_lint::TimingSpec {
                starts: vec![demux.enable],
                issue_period_ps: 100.0,
            }),
        };
        let report = sfq_lint::lint(&netlist, &ports);
        assert!(report.is_clean(), "levels {levels}:\n{report}");
        let timing = report.timing.expect("timing ran");
        let worst = timing.worst_slack_ps.expect("NDROC pins checked");
        assert!(
            (worst - (100.0 - NDROC_REARM_PS)).abs() < 1e-9,
            "levels {levels}: worst slack {worst}"
        );
        // Every NDROC in the tree carries a guarded CLK pin.
        assert_eq!(timing.checked_pins, (1 << levels) - 1, "levels {levels}");
    }
}

/// Repeatedly runs STA from `start`, feeding each `UncutCycle`'s
/// suggested cuts back in until the analysis converges; returns the cut
/// set and the bounded critical path.
fn cut_until_analyzable(
    netlist: &Netlist,
    start: Pin,
) -> (HashSet<sfq_sim::netlist::ComponentId>, f64) {
    let mut cuts = HashSet::new();
    for _ in 0..netlist.component_count() {
        match arrival_times(netlist, &[start], &cuts) {
            Ok(times) => {
                let cp = times.critical_path_ps().expect("start reaches something");
                return (cuts, cp);
            }
            Err(StaError::UncutCycle {
                witness,
                suggested_cuts,
            }) => {
                assert!(!witness.is_empty(), "a cycle error must carry a witness");
                assert!(
                    !suggested_cuts.is_empty(),
                    "a cycle error must suggest where to cut"
                );
                for id in suggested_cuts {
                    assert!(cuts.insert(id), "suggested cuts must make progress");
                }
            }
        }
    }
    panic!("cut suggestions never converged");
}

#[test]
fn suggested_cuts_make_banked_and_shift_designs_analyzable() {
    // Satellite coverage beyond HiPerRF: the dual-bank and shift-register
    // netlists also contain feedback (loopback per bank, shift rings).
    // Uncut STA must refuse with a witness, and iterating on the error's
    // own suggested cuts must converge to a bounded critical path with
    // every cut placed at a state-holding (or clocked-AND) cell.
    let banked = DualBankRf::new(RfGeometry::paper_4x4());
    let shift = ShiftRegisterRf::new(RfGeometry::paper_4x4());
    let cases: [(&str, &Netlist, Pin); 2] = [
        (
            "dual-bank",
            banked.netlist(),
            banked.lint_ports().external_inputs[0],
        ),
        (
            "shift",
            shift.netlist(),
            shift.lint_ports().external_inputs[0],
        ),
    ];
    for (name, netlist, start) in cases {
        let uncut = arrival_times(netlist, &[start], &HashSet::new());
        assert!(
            matches!(uncut, Err(StaError::UncutCycle { .. })),
            "{name}: feedback must make uncut STA refuse"
        );
        let (cuts, cp) = cut_until_analyzable(netlist, start);
        assert!(!cuts.is_empty(), "{name}");
        assert!(cp > 0.0, "{name}: critical path {cp}");
        for &id in &cuts {
            let c = netlist.cell(id);
            assert!(
                c.stored().is_some() || c.kind() == CellKind::Dand,
                "{name}: cut at a non-state-holding cell {} ({})",
                netlist.label(id),
                c.kind()
            );
        }
    }
}

/// Elaborates one standalone HiPerRF bank with every endpoint declared.
fn bank(g: RfGeometry) -> (Netlist, HcRfPorts) {
    let (elab, ports) = TypedBuilder::elaborate(|b| build_hc_rf(b, g).externalize(b));
    elab.assert_total();
    (elab.netlist, ports)
}

#[test]
fn sta_detects_hiperrf_loopback_cycle() {
    // The HiPerRF netlist contains the loopback feedback; STA without a
    // cut must refuse rather than loop or lie.
    let (netlist, ports) = bank(RfGeometry::paper_4x4());
    let err = arrival_times(&netlist, &[ports.read_enable], &HashSet::new()).unwrap_err();
    assert!(matches!(err, StaError::UncutCycle { .. }));
}

#[test]
fn sta_with_loopbuffer_cut_bounds_read_path() {
    // Cutting at the LoopBuffer NDROs (the architectural loop-breaking
    // point) makes the read path analyzable; its critical path must sit in
    // the same band as the Table III model (which also counts the serial
    // HC pulse tail that STA's single-pulse view does not see).
    let g = RfGeometry::paper_4x4();
    let (netlist, ports) = bank(g);
    // Cut at every LoopBuffer NDRO: find them by census walk (kind ndro).
    let cuts: HashSet<_> = netlist
        .iter()
        .filter(|(_, _, c)| c.kind() == CellKind::Ndro)
        .map(|(id, _, _)| id)
        .collect();
    let times = arrival_times(&netlist, &[ports.read_enable], &cuts).expect("cut breaks the loop");
    let cp = times.critical_path_ps().expect("read path reachable");
    let model = hiperrf::delay::readout_delay_ps(hiperrf::delay::RfDesign::HiPerRf, g);
    assert!(
        cp > 0.3 * model && cp < 1.2 * model,
        "sta {cp} vs model {model}"
    );
}

#[test]
fn injected_fast_enables_trip_the_rearm_checker() {
    // Drive a demux with enables closer than the 53 ps re-arm interval:
    // the NDROC checker must flag every early enable.
    let (netlist, demux) = elaborate_demux(2);
    let mut sim = Simulator::new(netlist);
    demux.select_and_fire(&mut sim, 1, Time::from_ps(0.0), Time::from_ps(20.0));
    sim.run();
    // Second enable only 30 ps later — below NDROC_REARM_PS.
    sim.inject(demux.enable, sim.now() + Duration::from_ps(5.0));
    sim.run();
    assert!(
        sim.violations().iter().any(|v| v.kind == "re-arm"),
        "expected a re-arm violation, got {:?}",
        sim.violations()
    );
}

#[test]
fn injected_fast_writes_trip_the_hold_checker() {
    let mut b = CircuitBuilder::new();
    let cell = b.hcdro();
    let mut sim = Simulator::new(b.finish());
    // Three pulses 4 ps apart: two hold violations.
    for k in 0..3 {
        sim.inject(Pin::new(cell, HcDro::D), Time::from_ps(4.0 * k as f64));
    }
    sim.run();
    let holds = sim.violations().iter().filter(|v| v.kind == "hold").count();
    assert_eq!(holds, 2);
    // The fluxons still landed (marginal but counted).
    assert_eq!(sim.stored(cell), Some(3));
}

#[test]
fn clean_operations_record_no_violations() {
    // The inverse of the injection tests: a full legal op sequence on the
    // structural HiPerRF must end with an empty violation log.
    let mut rf = hiperrf::HiPerRf::new(RfGeometry::paper_16x16());
    for r in 0..16 {
        rf.write(r, (r as u64).wrapping_mul(0x2f) & 0xffff);
    }
    for r in 0..16 {
        let _ = rf.read(r);
    }
    assert!(rf.violations().is_empty(), "{:?}", rf.violations());
}

#[test]
fn fail_fast_returns_the_first_violation() {
    // Under FailFast the run must stop at the first violation and hand it
    // back in the error — not panic, not keep simulating.
    let mut b = CircuitBuilder::new();
    let cell = b.hcdro();
    let mut sim = Simulator::new(b.finish());
    sim.set_violation_policy(ViolationPolicy::FailFast);
    sim.inject(Pin::new(cell, HcDro::D), Time::from_ps(0.0));
    sim.inject(Pin::new(cell, HcDro::D), Time::from_ps(4.0)); // hold violation
    sim.inject(Pin::new(cell, HcDro::D), Time::from_ps(8.0)); // never reached cleanly
    let err = sim.try_run().expect_err("fail-fast must error");
    let SimError::FailFast(v) = err;
    assert_eq!(v.kind, "hold");
    assert_eq!(
        &v,
        sim.violations().first().expect("violation recorded"),
        "the error must carry the first recorded violation"
    );
}

#[test]
fn degrade_on_ndroc_rearm_loses_the_pulse_without_misrouting() {
    // The paper's NDROC demux element: a too-early re-fire inside the
    // 53 ps re-arm window must produce a *missing* pulse at the selected
    // leaf, never a pulse at a wrong leaf.
    let (netlist, demux) = elaborate_demux(2);
    let mut sim = Simulator::new(netlist);
    sim.set_violation_policy(ViolationPolicy::Degrade);
    let probes: Vec<_> = demux
        .outputs
        .iter()
        .enumerate()
        .map(|(i, &p)| sim.probe(p, format!("leaf{i}")))
        .collect();
    demux.select_and_fire(&mut sim, 2, Time::from_ps(0.0), Time::from_ps(20.0));
    sim.inject(demux.enable, Time::from_ps(40.0)); // 20 ps later: violates re-arm
    sim.run();
    let counts: Vec<_> = probes.iter().map(|&p| sim.probe_trace(p).len()).collect();
    assert_eq!(
        counts,
        vec![0, 0, 1, 0],
        "second enable must vanish, not misroute"
    );
    assert!(sim.violations().iter().any(|v| v.kind == "re-arm"));
    assert!(sim.degraded_drops() >= 1);
}

#[test]
fn record_policy_is_byte_identical_to_the_default() {
    // `Record` is the historical behavior; setting it explicitly must not
    // perturb a single pulse time relative to an untouched simulator.
    let run = |set_policy: bool| {
        let (netlist, demux) = elaborate_demux(2);
        let mut sim = Simulator::new(netlist);
        if set_policy {
            sim.set_violation_policy(ViolationPolicy::Record);
        }
        let probes: Vec<_> = demux
            .outputs
            .iter()
            .enumerate()
            .map(|(i, &p)| sim.probe(p, format!("leaf{i}")))
            .collect();
        demux.select_and_fire(&mut sim, 3, Time::from_ps(0.0), Time::from_ps(20.0));
        sim.inject(demux.enable, Time::from_ps(40.0)); // marginal re-fire
        sim.run();
        let traces: Vec<Vec<Time>> = probes
            .iter()
            .map(|&p| sim.probe_trace(p).pulses().to_vec())
            .collect();
        (traces, sim.violations().to_vec())
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn demux_head_start_is_sufficient_at_every_depth() {
    // The driver's select head start must beat the enable to the deepest
    // level; otherwise selection bits arrive late and reads mis-route.
    for levels in 1..=5usize {
        let hs = sel_head_start(levels);
        // Deepest SEL fan: ~(levels + 2) splitter stages at 3 ps.
        // Enable reaches the deepest level after (levels-1) x 24 ps + hs.
        let sel_arrival = hs.as_ps() - 1.0; // injected at op start
        let _ = sel_arrival;
        assert!(hs.as_ps() > 3.0 * levels as f64, "levels {levels}");
    }
}
