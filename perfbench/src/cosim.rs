//! `cosim-fig14`: Figure 14 kernels on the gate-level RV32I core with the
//! pulse-level register file as its backend, for the three designs that
//! have an analytic port model.
//!
//! Each run must exit `PASS` with clean `RfHealth`, and its pulse CPI must
//! equal the analytic backend's CPI for the same kernel. The netlists fit
//! in L2 and every register access is a separate short simulator run, so
//! this is the control on which placement's mechanism is bypassed and
//! per-run overhead shows. A request is one kernel run on one design,
//! including the backend's elaboration and lowering. The window runs a
//! fixed number of passes over every kernel × design. Set-up and runs are
//! timed on the thread's CPU clock ([`thread_cpu_s`]).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use hiperrf::backend::{PulseRf, RfAccess, RfBackend, RfHealth, RfOpStats};
use hiperrf::delay::RfDesign;
use hiperrf::designs::{registry, Design};
use sfq_cpu::{GateLevelCpu, PipelineConfig};
use sfq_riscv::asm::assemble;
use sfq_serve::job::design_slug;
use sfq_sim::fault::FaultPlan;
use sfq_sim::rng::Rng64;
use sfq_sim::violation::{Violation, ViolationPolicy};
use sfq_workloads::kernels::{filter, towers, vector};
use sfq_workloads::{Workload, PASS};

use crate::host::thread_cpu_s;
use crate::{check_work, fixed_work, set_latency, set_overhead, trace, Ctx, Outcome, CAP_FACTOR};

/// Passes over every kernel × design per second of a full run on the
/// sizing host (2-vCPU Xeon, 2.1 GHz, 2 MiB L2), which sets the fixed work
/// of a window.
const PASSES_PER_S: f64 = 0.3;

/// Backend work tallied by [`TimedRf`].
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    reads: u64,
    writes: u64,
    read_ns: u64,
    write_ns: u64,
    read_events: u64,
    write_events: u64,
    fanout_rows: u64,
    peak_queue_depth: u64,
}

impl Tally {
    fn access_ns(&self) -> u64 {
        self.read_ns + self.write_ns
    }

    fn events(&self) -> u64 {
        self.read_events + self.write_events
    }
}

/// A timing `RfBackend` wrapper around [`PulseRf`] (traced runs only):
/// times each access and attributes its simulated events.
struct TimedRf {
    inner: PulseRf,
    tally: Rc<RefCell<Tally>>,
    req: u64,
}

impl TimedRf {
    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut PulseRf) -> T) -> T {
        let s0 = self.inner.rf().sim_stats();
        let t = Instant::now();
        let out = trace::span(name, self.req, || f(&mut self.inner));
        let ns = t.elapsed().as_nanos() as u64;
        let s1 = self.inner.rf().sim_stats();
        let events = s1.events_processed - s0.events_processed;
        let mut tally = self.tally.borrow_mut();
        if name == "backend.read" {
            tally.reads += 1;
            tally.read_ns += ns;
            tally.read_events += events;
        } else {
            tally.writes += 1;
            tally.write_ns += ns;
            tally.write_events += events;
        }
        tally.fanout_rows += s1.fanout_rows_visited - s0.fanout_rows_visited;
        tally.peak_queue_depth = tally.peak_queue_depth.max(s1.peak_queue_depth as u64);
        out
    }
}

impl RfBackend for TimedRf {
    fn arch_design(&self) -> Option<RfDesign> {
        self.inner.arch_design()
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn read(&mut self, reg: usize, expected: u32) -> RfAccess {
        self.timed("backend.read", |rf| rf.read(reg, expected))
    }

    fn write(&mut self, reg: usize, value: u32) {
        self.timed("backend.write", |rf| rf.write(reg, value));
    }

    fn issue_interval_gate_cycles(&self, sources: &[usize]) -> u64 {
        self.inner.issue_interval_gate_cycles(sources)
    }

    fn readout_gate_cycles(&self) -> u64 {
        self.inner.readout_gate_cycles()
    }

    fn loopback_gate_cycles(&self) -> Option<u64> {
        self.inner.loopback_gate_cycles()
    }

    fn operand_gather_gate_cycles(&self, sources: &[usize]) -> u64 {
        self.inner.operand_gather_gate_cycles(sources)
    }

    fn supports_internal_forwarding(&self) -> bool {
        self.inner.supports_internal_forwarding()
    }

    fn op_stats(&self) -> RfOpStats {
        self.inner.op_stats()
    }

    fn health(&self) -> RfHealth {
        self.inner.health()
    }

    fn violations(&self) -> &[Violation] {
        self.inner.violations()
    }

    fn set_violation_policy(&mut self, policy: ViolationPolicy) {
        self.inner.set_violation_policy(policy);
    }

    fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.inner.set_fault_plan(plan);
    }
}

/// Checks that top-level spans cover at least 90% of the traced window
/// `[from, to)` and reports the share as `trace.coverage`.
fn set_coverage(out: &mut Outcome, from_ns: u64, to_ns: u64) {
    let covered = trace::top_level_ns(&out.spans, from_ns, to_ns) as f64;
    let share = covered / (to_ns - from_ns).max(1) as f64;
    out.set("trace.coverage", share);
    out.check(share >= 0.9, || {
        format!(
            "layer spans cover {:.1}% of the traced window",
            share * 100.0
        )
    });
}

/// What one kernel run on one design produced — every field but the wall
/// time is exact and must repeat.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RunFacts {
    retired: u64,
    gate_cycles: u64,
    health: RfHealth,
    occupancy_ps: f64,
}

struct Case {
    kernel: Workload,
    prog: sfq_riscv::asm::Program,
    design: Design,
    /// `(retired, gate_cycles)` of the analytic backend.
    analytic: (u64, u64),
    /// Facts of the first pulse run, which every later run must repeat.
    first: Option<RunFacts>,
}

/// Runs one case on a fresh pulse backend; `None` if the kernel faulted.
fn run_case(case: &Case, req: u64, tally: Option<&Rc<RefCell<Tally>>>) -> Option<RunFacts> {
    let mut pulse = trace::span("elab", req, || PulseRf::new(case.design));
    trace::span("lower", req, || pulse.rf_mut().prepare());
    let backend: Box<dyn RfBackend> = match tally {
        Some(tally) => Box::new(TimedRf {
            inner: pulse,
            tally: Rc::clone(tally),
            req,
        }),
        None => Box::new(pulse),
    };
    let mut cpu = GateLevelCpu::with_backend(backend, PipelineConfig::sodor());
    let w = &case.kernel;
    let out = trace::span("cpu.run", req, || cpu.run(&case.prog, w.mem_size, w.budget)).ok()?;
    (out.exit_code == PASS).then(|| RunFacts {
        retired: out.stats.retired,
        gate_cycles: out.stats.gate_cycles,
        health: out.rf,
        occupancy_ps: cpu.backend().op_stats().occupancy_ps,
    })
}

/// Checks one run against the analytic CPI, clean health, and the case's
/// first run.
fn check_run(case: &mut Case, facts: Option<RunFacts>) -> bool {
    let Some(f) = facts else { return false };
    let (retired, gate_cycles) = case.analytic;
    let analytic_cpi = gate_cycles as f64 / retired as f64;
    let pulse_cpi = f.gate_cycles as f64 / f.retired as f64;
    let ok = f.health.is_clean() && pulse_cpi == analytic_cpi && f.retired == retired;
    match case.first {
        None => {
            case.first = Some(f);
            ok
        }
        Some(first) => ok && first == f,
    }
}

struct Window {
    retired: u64,
    /// CPU time of the runs.
    cpu_s: f64,
    /// CPU-clock latencies of each case's runs, by case index.
    latencies_ms: Vec<Vec<f64>>,
    /// Tally after the first complete pass (traced only).
    first_pass: Option<Tally>,
}

/// Runs `passes` passes, stopping early only at the [`CAP_FACTOR`] ×
/// `seconds` cap, which fails the run.
fn window(
    cases: &mut [Case],
    rng: &mut Rng64,
    seconds: f64,
    passes: u64,
    tally: Option<&Rc<RefCell<Tally>>>,
    out: &mut Outcome,
) -> Window {
    let start = Instant::now();
    let mut w = Window {
        retired: 0,
        cpu_s: 0.0,
        latencies_ms: vec![Vec::new(); cases.len()],
        first_pass: None,
    };
    let mut done = 0;
    while done < passes && start.elapsed().as_secs_f64() < CAP_FACTOR * seconds {
        // The seed picks the issue order of each pass.
        let mut order: Vec<usize> = (0..cases.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.next_below(i + 1));
        }
        for i in order {
            let t = thread_cpu_s();
            let facts = run_case(&cases[i], i as u64, tally);
            let cpu_s = thread_cpu_s() - t;
            w.cpu_s += cpu_s;
            w.latencies_ms[i].push(cpu_s * 1e3);
            w.retired += facts.map_or(0, |f| f.retired);
            let ok = check_run(&mut cases[i], facts);
            out.op(ok);
            if !ok {
                let c = &cases[i];
                out.problems
                    .push(format!("{} on {} failed a check", c.kernel.name, c.design));
            }
        }
        done += 1;
        if done == 1 {
            w.first_pass = tally.map(|t| *t.borrow());
        }
    }
    check_work(out, "passes", done, passes, start.elapsed().as_secs_f64());
    w
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let kernels = if ctx.smoke {
        vec![vector::vvadd(), filter::median()]
    } else {
        vec![
            towers::towers(),
            vector::vvadd(),
            filter::median(),
            vector::multiply(),
        ]
    };
    let designs: Vec<Design> = registry().filter(|d| d.arch_design().is_some()).collect();
    let (setup_reps, passes) = if ctx.smoke {
        (2, 1)
    } else {
        (15, fixed_work(ctx.seconds, PASSES_PER_S))
    };
    if ctx.traced {
        trace::start(Instant::now());
    }

    // Setup: assemble every kernel and elaborate + lower one backend per
    // design, several times.
    let mut setup_s = Vec::new();
    let mut progs = Vec::new();
    for _ in 0..setup_reps {
        let t = thread_cpu_s();
        progs = kernels
            .iter()
            .map(|w| trace::span("asm", 0, || assemble(&w.source, 0)))
            .collect();
        for (i, &d) in designs.iter().enumerate() {
            let mut pulse = trace::span("elab", i as u64, || PulseRf::new(d));
            trace::span("lower", i as u64, || pulse.rf_mut().prepare());
            let cells = pulse.rf().netlist().component_count() as u64;
            out.counts
                .insert(format!("cells.{}", design_slug(d)), cells);
        }
        setup_s.push(thread_cpu_s() - t);
    }
    out.set("setup_s", crate::quantile(&mut setup_s, 0.5));

    // Oracle: the analytic backend's run of every kernel × design.
    let mut cases = Vec::new();
    for (w, prog) in kernels.iter().zip(progs) {
        let Ok(prog) = prog else {
            out.problems.push(format!("{} does not assemble", w.name));
            continue;
        };
        for &d in &designs {
            let arch = d.arch_design().expect("filtered to analytic designs");
            let analytic = GateLevelCpu::new(arch, PipelineConfig::sodor())
                .run(&prog, w.mem_size, w.budget)
                .ok()
                .filter(|o| o.exit_code == PASS);
            let Some(a) = analytic else {
                out.problems
                    .push(format!("{} fails on the analytic {d} backend", w.name));
                continue;
            };
            cases.push(Case {
                kernel: w.clone(),
                prog: prog.clone(),
                design: d,
                analytic: (a.stats.retired, a.stats.gate_cycles),
                first: None,
            });
        }
    }
    if cases.is_empty() {
        return out;
    }

    let mut rng = Rng64::new(ctx.seed);
    if ctx.traced {
        // Half the passes untraced, half traced.
        let half = passes.div_ceil(2);
        trace::pause(true);
        let plain = window(
            &mut cases,
            &mut rng,
            ctx.seconds / 2.0,
            half,
            None,
            &mut out,
        );
        trace::pause(false);
        let tally = Rc::new(RefCell::new(Tally::default()));
        let from = trace::now_ns();
        let traced = window(
            &mut cases,
            &mut rng,
            ctx.seconds / 2.0,
            half,
            Some(&tally),
            &mut out,
        );
        let to = trace::now_ns();
        out.spans = trace::stop();
        set_overhead(
            &mut out,
            plain.retired as f64 / plain.cpu_s,
            traced.retired as f64 / traced.cpu_s,
        );
        set_coverage(&mut out, from, to);
        let total = *tally.borrow();
        per_layer(&mut out, &cases, total, traced.first_pass.unwrap_or(total));
    } else {
        let w = window(&mut cases, &mut rng, ctx.seconds, passes, None, &mut out);
        let rate = w.retired as f64 / w.cpu_s;
        out.set("work_per_s", rate);
        out.notes.push(("instr_per_s", rate, "1/s"));
        // Each case counts once, at its median over the passes, so every
        // case weighs the same in the percentiles.
        let mut lat: Vec<f64> = w
            .latencies_ms
            .into_iter()
            .map(|mut runs| crate::quantile(&mut runs, 0.5))
            .collect();
        set_latency(&mut out, &mut lat);
        out.set(
            "peak_rss_mb",
            crate::host::peak_rss_mb(None).unwrap_or(f64::NAN),
        );
    }

    for c in &cases {
        let Some(f) = c.first else { continue };
        let key = format!("{}.{}", c.kernel.name, design_slug(c.design));
        out.counts.insert(format!("retired.{key}"), f.retired);
        out.counts
            .insert(format!("gate_cycles.{key}"), f.gate_cycles);
        out.counts.insert(format!("rf_reads.{key}"), f.health.reads);
        out.counts
            .insert(format!("rf_writes.{key}"), f.health.writes);
    }
    out
}

fn per_layer(out: &mut Outcome, cases: &[Case], total: Tally, pass: Tally) {
    let t = trace::totals(&out.spans);
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    out.set("elab.ms", get("elab").mean(1e6));
    out.set("lower.ms", get("lower").mean(1e6));
    // One netlist per design, as elaborated at setup.
    let cells: u64 = out
        .counts
        .iter()
        .filter(|(k, _)| k.starts_with("cells."))
        .map(|(_, &v)| v)
        .sum();
    out.set("elab.cells", cells as f64);

    out.set(
        "sim.ns_per_event",
        total.access_ns() as f64 / total.events().max(1) as f64,
    );
    out.set(
        "sim.us_per_write",
        total.write_ns as f64 / total.writes.max(1) as f64 / 1e3,
    );
    out.set(
        "sim.us_per_read",
        total.read_ns as f64 / total.reads.max(1) as f64 / 1e3,
    );
    out.set(
        "sim.events_per_write",
        pass.write_events as f64 / pass.writes.max(1) as f64,
    );
    out.set(
        "sim.events_per_read",
        pass.read_events as f64 / pass.reads.max(1) as f64,
    );
    out.set("sim.peak_queue_depth", pass.peak_queue_depth as f64);
    out.set("sim.fanout_rows", pass.fanout_rows as f64);
    out.set(
        "backend.us_per_access",
        total.access_ns() as f64 / (total.reads + total.writes).max(1) as f64 / 1e3,
    );
    out.set("backend.accesses", (pass.reads + pass.writes) as f64);

    let run = get("cpu.run");
    out.set(
        "cpu.self_share",
        run.self_ns as f64 / run.total_ns.max(1) as f64,
    );
    let retired: u64 = cases
        .iter()
        .filter_map(|c| c.first)
        .map(|f| f.retired)
        .sum();
    let cycles: u64 = cases
        .iter()
        .filter_map(|c| c.first)
        .map(|f| f.gate_cycles)
        .sum();
    out.set("cpu.retired", retired as f64);
    out.set("cpu.gate_cycles", cycles as f64);
}
