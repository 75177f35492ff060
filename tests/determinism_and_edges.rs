//! Determinism and edge-case coverage: identical runs must produce
//! identical pulse traces (the simulator is a model, not a Monte Carlo),
//! restoring a snapshot must return every stateful cell to its state at
//! the snapshot, and the full-size 32×32 structural HiPerRF must
//! round-trip values.

use hiperrf::config::RfGeometry;
use hiperrf::hiperrf_rf::HiPerRf;
use hiperrf::RegisterFile;
use sfq_cells::builder::CircuitBuilder;
use sfq_cells::composite::{build_hc_clk, build_hc_write};
use sfq_cells::storage::HcDro;
use sfq_cells::typed::TypedBuilder;
use sfq_sim::netlist::Pin;
use sfq_sim::prelude::*;

fn run_once() -> Vec<Time> {
    let (elab, [b0, b1, clk_in, q]) = TypedBuilder::elaborate(|b| {
        let w = build_hc_write(b);
        let cell = b.hcdro();
        let clk = build_hc_clk(b);
        b.bind(w.output, cell.d);
        b.bind(clk.output, cell.clk);
        [
            b.external(w.b0),
            b.external(w.b1),
            b.external(clk.input),
            b.expose(cell.q),
        ]
    });
    elab.assert_total();
    let mut sim = Simulator::new(elab.netlist);
    let probe = sim.probe(q, "q");
    sim.inject(b0, Time::ZERO);
    sim.inject(b1, Time::ZERO);
    sim.inject(clk_in, Time::from_ps(100.0));
    sim.run();
    sim.probe_trace(probe).pulses().to_vec()
}

#[test]
fn identical_runs_produce_identical_traces() {
    let a = run_once();
    let b = run_once();
    assert_eq!(a, b);
    assert_eq!(a.len(), 3, "value 3 pops three fluxons");
}

#[test]
fn restore_returns_every_stateful_cell_to_its_built_state() {
    use sfq_cells::counter::CounterBit;
    use sfq_cells::logic::{AndGate, Dand, NotGate};
    use sfq_cells::storage::{Dro, Ndro, Ndroc};

    for engine in EngineKind::ALL {
        let cells = [
            Dro::cell(),
            HcDro::cell(),
            Ndro::holding(),
            Ndroc::cell(),
            CounterBit::cell(),
            Dand::cell(),
            AndGate::cell(),
            NotGate::cell(),
        ];
        let mut netlist = Netlist::new();
        let ids: Vec<_> = cells
            .into_iter()
            .enumerate()
            .map(|(i, c)| netlist.add(format!("c{i}"), c))
            .collect();
        let mut sim = Simulator::with_engine(netlist, SchedulerKind::default(), engine);
        let stored = |sim: &Simulator| ids.iter().map(|&id| sim.stored(id)).collect::<Vec<_>>();
        let built = stored(&sim);
        let at_build = sim.snapshot().expect("quiescent");
        // Poke state into everything via pin 0.
        for &id in &ids {
            sim.inject(Pin::new(id, 0), Time::from_ps(1.0));
        }
        sim.run();
        assert_ne!(stored(&sim), built, "{engine}: pin 0 stored nothing");
        sim.restore(&at_build);
        assert_eq!(stored(&sim), built, "{engine}");
    }
}

#[test]
fn restore_and_the_next_plan_leave_every_op_as_a_fresh_build_has_it() {
    // Under the compiled engine a delay plan scales the cell array's ops
    // in place. `restore` must write the nominal ops back, and the next
    // plan must scale those, not the last plan's: every op then equals a
    // fresh build's under that plan alone, whether the plan's seed is a
    // new one or the last plan's.
    fn ops(rf: &dyn RegisterFile) -> Vec<CellOp> {
        rf.netlist().iter().map(|(_, _, cell)| cell.op).collect()
    }
    let g = RfGeometry::paper_4x4();
    let first = || FaultPlan::new(0xA11).with_delay_sigma(0.4);
    for design in hiperrf::designs::registry() {
        let nominal = ops(design.build(g).as_ref());
        let mut rf = design.build(g);
        let built = rf.snapshot().expect("a fresh build is quiescent");
        for second in [
            FaultPlan::new(0xB22).with_delay_sigma(0.2),
            FaultPlan::new(0xA11).with_delay_sigma(0.1),
        ] {
            let mut fresh = design.build(g);
            fresh.set_fault_plan(second.clone());
            let want = ops(fresh.as_ref());
            assert_ne!(want, nominal, "{design}: the plan scales the ops");

            rf.set_violation_policy(ViolationPolicy::Degrade);
            rf.set_fault_plan(first());
            assert_ne!(ops(rf.as_ref()), nominal, "{design}");
            rf.write(1, 0b1011);
            rf.read(1);
            rf.restore(&built);
            assert_eq!(ops(rf.as_ref()), nominal, "{design}: after restore");
            rf.set_fault_plan(second);
            assert_eq!(ops(rf.as_ref()), want, "{design}: under the next plan");
            rf.restore(&built);
        }
    }
}

#[test]
fn full_size_structural_hiperrf_round_trips() {
    // The paper-size 32×32 file: ~17k cells, full pulse-level operation.
    let mut rf = HiPerRf::new(RfGeometry::paper_32x32());
    let values = [
        0xdead_beefu64,
        0x0000_0001,
        0x8000_0000,
        0xffff_ffff,
        0x1234_5678,
    ];
    for (i, &v) in values.iter().enumerate() {
        rf.write(i * 7 % 32, v);
    }
    for (i, &v) in values.iter().enumerate() {
        assert_eq!(rf.read(i * 7 % 32), v, "register {}", i * 7 % 32);
    }
    assert!(rf.violations().is_empty());
}

#[test]
fn assembler_accepts_bare_memory_operands() {
    use sfq_riscv::asm::assemble;
    // `lw a0, (t0)` — offsetless memory operand.
    let prog = assemble("lw a0, (t0)\nsw a0, (t1)", 0).expect("assembles");
    assert_eq!(prog.words.len(), 2);
}

#[test]
fn simulator_handles_simultaneous_events_deterministically() {
    // Two pulses injected at the identical instant must be processed in
    // injection order (the seq tiebreaker), run after run.
    let observed: Vec<Vec<Time>> = (0..3)
        .map(|_| {
            let mut b = CircuitBuilder::new();
            let m = b.merger();
            let mut sim = Simulator::new(b.finish());
            let p = sim.probe(Pin::new(m, sfq_cells::transport::Merger::OUT), "out");
            sim.inject(
                Pin::new(m, sfq_cells::transport::Merger::IN_A),
                Time::from_ps(5.0),
            );
            sim.inject(
                Pin::new(m, sfq_cells::transport::Merger::IN_B),
                Time::from_ps(5.0),
            );
            sim.run();
            sim.probe_trace(p).pulses().to_vec()
        })
        .collect();
    assert_eq!(observed[0], observed[1]);
    assert_eq!(observed[1], observed[2]);
    // Coincident pulses: the second dissipates in the merger dead zone.
    assert_eq!(observed[0].len(), 1);
}
