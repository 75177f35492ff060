//! `soak-256x64`: every registry design at a larger-than-L2 geometry,
//! each driven single-threaded through the same seeded read/write stream,
//! every read checked against a shadow register file.
//!
//! After setup the event loop is essentially all of the wall time and its
//! working set (2.3–7.4 MB of compiled slots per design) is not
//! cache-resident, so scheduler, placement and delivery changes show
//! here. A request is one round: `round_ops` ops of the stream applied to
//! every design in turn. The window runs a fixed number of rounds: the
//! register files slow down and grow as they age, so a time-boxed window
//! would age a faster build's register files further. Set-up and rounds
//! are timed on the thread's CPU clock ([`thread_cpu_s`]).

use std::time::Instant;

use hiperrf::config::RfGeometry;
use hiperrf::designs::{registry, Design};
use hiperrf::harness::RegisterFile;
use sfq_serve::job::design_slug;
use sfq_sim::rng::Rng64;

use crate::host::thread_cpu_s;
use crate::{check_work, fixed_work, set_latency, set_overhead, trace, Ctx, Outcome, CAP_FACTOR};

/// Seed of the fixed probe script whose counts are golden.
const PROBE_SEED: u64 = 0x5eed_9a1d;
/// Rounds per second of a full run on the sizing host (2-vCPU Xeon,
/// 2.1 GHz, 2 MiB L2), which sets the fixed work of a window.
const ROUNDS_PER_S: f64 = 18.0;

struct Size {
    geometry: RfGeometry,
    /// Ops per design per round (one request).
    round_ops: usize,
    /// Ops in the fixed probe script.
    probe_ops: usize,
    /// Setup repetitions; `setup_s` is their median.
    setup_reps: usize,
    /// Rounds of the window; `peak_rss_mb` is read after the last.
    rounds: u64,
}

impl Size {
    fn of(ctx: &Ctx) -> Size {
        if ctx.smoke {
            Size {
                geometry: RfGeometry::paper_4x4(),
                round_ops: 16,
                probe_ops: 16,
                setup_reps: 2,
                rounds: 4,
            }
        } else {
            Size {
                geometry: RfGeometry::new(256, 64).expect("256x64 is a valid geometry"),
                round_ops: 8,
                probe_ops: 32,
                setup_reps: 5,
                rounds: fixed_work(ctx.seconds, ROUNDS_PER_S),
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Read(usize),
    Write(usize, u64),
}

/// Random registers, about two reads per write, random values.
struct OpStream {
    rng: Rng64,
    registers: usize,
    mask: u64,
}

impl OpStream {
    fn new(seed: u64, geometry: RfGeometry) -> Self {
        let width = geometry.width();
        OpStream {
            rng: Rng64::new(seed),
            registers: geometry.registers(),
            mask: if width >= 64 {
                u64::MAX
            } else {
                (1 << width) - 1
            },
        }
    }

    fn take(&mut self, n: usize) -> Vec<Op> {
        (0..n)
            .map(|_| {
                let reg = self.rng.next_below(self.registers);
                if self.rng.next_below(3) == 0 {
                    Op::Write(reg, self.rng.next_u64() & self.mask)
                } else {
                    Op::Read(reg)
                }
            })
            .collect()
    }
}

/// One design under test with its shadow register file.
struct Lane {
    design: Design,
    rf: Box<dyn RegisterFile>,
    shadow: Vec<u64>,
}

/// Simulated work of a batch of ops, split by op kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Work {
    writes: u64,
    reads: u64,
    write_events: u64,
    read_events: u64,
    fanout_rows: u64,
    peak_queue_depth: u64,
}

impl Lane {
    fn build(design: Design, geometry: RfGeometry) -> Lane {
        let mut rf = trace::span("elab", design as u64, || design.build(geometry));
        trace::span("lower", design as u64, || rf.prepare());
        Lane {
            design,
            rf,
            shadow: vec![0; geometry.registers()],
        }
    }

    /// Applies one op; `false` on a mismatched read or a new violation.
    fn apply(&mut self, op: Op, req: u64) -> bool {
        let before = self.rf.violations().len();
        let ok = match op {
            Op::Write(reg, value) => {
                trace::span("sim.write", req, || self.rf.write(reg, value));
                self.shadow[reg] = value;
                true
            }
            Op::Read(reg) => trace::span("sim.read", req, || self.rf.read(reg)) == self.shadow[reg],
        };
        ok && self.rf.violations().len() == before
    }

    /// Applies `ops`, tallying their simulated work.
    fn apply_counted(&mut self, ops: &[Op], out: &mut Outcome) -> Work {
        let mut work = Work::default();
        for (i, &op) in ops.iter().enumerate() {
            let s0 = self.rf.sim_stats();
            out.op(self.apply(op, i as u64));
            let s1 = self.rf.sim_stats();
            let events = s1.events_processed - s0.events_processed;
            match op {
                Op::Write(..) => {
                    work.writes += 1;
                    work.write_events += events;
                }
                Op::Read(_) => {
                    work.reads += 1;
                    work.read_events += events;
                }
            }
            work.fanout_rows += s1.fanout_rows_visited - s0.fanout_rows_visited;
            work.peak_queue_depth = s1.peak_queue_depth as u64;
        }
        work
    }
}

fn build_all(geometry: RfGeometry) -> Vec<Lane> {
    registry().map(|d| Lane::build(d, geometry)).collect()
}

/// One round of the measured window.
struct Round {
    /// CPU time of the round.
    ms: f64,
    /// Wall time of the round, against which span coverage is taken.
    wall_ms: f64,
    ops: u64,
    events: u64,
    traced: bool,
}

/// Result of one measured window.
struct Window {
    rounds: Vec<Round>,
    /// `VmHWM` after the last round.
    peak_rss_mb: Option<f64>,
}

impl Window {
    /// Ops per CPU second over the rounds with the given tracing.
    fn rate(&self, traced: bool) -> f64 {
        let (ops, ms) = self
            .rounds
            .iter()
            .filter(|r| r.traced == traced)
            .fold((0, 0.0), |(o, m), r| (o + r.ops, m + r.ms));
        ops as f64 / (ms / 1e3)
    }
}

/// Runs the size's rounds, stopping early only at the [`CAP_FACTOR`] ×
/// `seconds` cap, which fails the run. With `alternate`, every other round
/// is traced: the ops slow down as the register files age, so traced and
/// untraced rounds are interleaved rather than run as two halves.
fn window(
    lanes: &mut [Lane],
    stream: &mut OpStream,
    size: &Size,
    seconds: f64,
    alternate: bool,
    out: &mut Outcome,
) -> Window {
    let events = |lanes: &[Lane]| -> u64 {
        lanes
            .iter()
            .map(|l| l.rf.sim_stats().events_processed)
            .sum()
    };
    let start = Instant::now();
    let mut w = Window {
        rounds: Vec::new(),
        peak_rss_mb: None,
    };
    let mut ops = 0u64;
    while (w.rounds.len() as u64) < size.rounds
        && start.elapsed().as_secs_f64() < CAP_FACTOR * seconds
    {
        let traced = alternate && w.rounds.len() % 2 == 1;
        trace::pause(!traced);
        let chunk = stream.take(size.round_ops);
        let e0 = events(lanes);
        let (t, cpu) = (Instant::now(), thread_cpu_s());
        for lane in lanes.iter_mut() {
            for &op in &chunk {
                out.op(lane.apply(op, ops));
                ops += 1;
            }
        }
        w.rounds.push(Round {
            ms: (thread_cpu_s() - cpu) * 1e3,
            wall_ms: t.elapsed().as_secs_f64() * 1e3,
            ops: (chunk.len() * lanes.len()) as u64,
            events: events(lanes) - e0,
            traced,
        });
    }
    trace::pause(false);
    w.peak_rss_mb = crate::host::peak_rss_mb(None);
    let done = w.rounds.len() as u64;
    check_work(
        out,
        "rounds",
        done,
        size.rounds,
        start.elapsed().as_secs_f64(),
    );
    w
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let size = Size::of(ctx);
    let mut out = Outcome::default();
    let epoch = Instant::now();
    if ctx.traced {
        trace::start(epoch);
    }

    let probe = OpStream::new(PROBE_SEED, size.geometry).take(size.probe_ops);
    let mut stream = OpStream::new(ctx.seed, size.geometry);

    // Setup: elaborate and lower every design, several times.
    let mut setup_s = Vec::new();
    let mut lanes = Vec::new();
    for _ in 0..size.setup_reps {
        drop(std::mem::take(&mut lanes));
        let t = thread_cpu_s();
        lanes = build_all(size.geometry);
        setup_s.push(thread_cpu_s() - t);
    }
    out.set("setup_s", crate::quantile(&mut setup_s, 0.5));

    // The fixed probe, whose counts are golden.
    let probe_work: Vec<Work> = trace::span("probe", 0, || {
        lanes
            .iter_mut()
            .map(|l| l.apply_counted(&probe, &mut out))
            .collect()
    });
    for (lane, w) in lanes.iter().zip(&probe_work) {
        let slug = design_slug(lane.design);
        let cells = lane.rf.netlist().component_count() as u64;
        out.counts.insert(format!("cells.{slug}"), cells);
        out.counts
            .insert(format!("probe.{slug}.write_events"), w.write_events);
        out.counts
            .insert(format!("probe.{slug}.read_events"), w.read_events);
        out.counts
            .insert(format!("probe.{slug}.fanout_rows"), w.fanout_rows);
        out.counts
            .insert(format!("probe.{slug}.peak_queue_depth"), w.peak_queue_depth);
    }

    let w = window(
        &mut lanes,
        &mut stream,
        &size,
        ctx.seconds,
        ctx.traced,
        &mut out,
    );
    if ctx.traced {
        out.spans = trace::stop();
        set_overhead(&mut out, w.rate(false), w.rate(true));
        per_layer(&mut out, &lanes, &probe_work, &w);
    } else {
        let rate = w.rate(false);
        out.set("work_per_s", rate);
        out.notes.push(("rf_ops_per_s", rate, "1/s"));
        let events: u64 = w.rounds.iter().map(|r| r.events).sum();
        let cpu_s: f64 = w.rounds.iter().map(|r| r.ms / 1e3).sum();
        out.notes
            .push(("events_per_s", events as f64 / cpu_s, "1/s"));
        let mut lat: Vec<f64> = w.rounds.iter().map(|r| r.ms).collect();
        set_latency(&mut out, &mut lat);
        out.set("peak_rss_mb", w.peak_rss_mb.unwrap_or(f64::NAN));
    }
    for lane in &lanes {
        out.check(lane.rf.violations().is_empty(), || {
            format!("{} recorded timing violations", lane.design)
        });
    }
    out
}

fn per_layer(out: &mut Outcome, lanes: &[Lane], probe: &[Work], w: &Window) {
    let t = trace::totals(&out.spans);
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    out.set("elab.ms", get("elab").mean(1e6));
    out.set("lower.ms", get("lower").mean(1e6));
    let cells: usize = lanes.iter().map(|l| l.rf.netlist().component_count()).sum();
    out.set("elab.cells", cells as f64);

    // The window's traced rounds: op spans, their events, and how much of
    // the rounds' wall time the spans cover.
    let traced: Vec<&Round> = w.rounds.iter().filter(|r| r.traced).collect();
    let traced_ns: f64 = traced.iter().map(|r| r.wall_ms * 1e6).sum();
    let events: u64 = traced.iter().map(|r| r.events).sum();
    // Top-level op spans are the window's; the probe's are nested.
    let ops: Vec<trace::Span> = out
        .spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name.starts_with("sim."))
        .cloned()
        .collect();
    let per_op = trace::totals(&ops);
    let op = |name: &str| per_op.get(name).copied().unwrap_or_default();
    let (writes, reads) = (op("sim.write"), op("sim.read"));
    out.set("sim.us_per_write", writes.mean(1e3));
    out.set("sim.us_per_read", reads.mean(1e3));
    let window_ops_ns = writes.total_ns + reads.total_ns;
    out.set(
        "sim.ns_per_event",
        window_ops_ns as f64 / events.max(1) as f64,
    );
    let share = window_ops_ns as f64 / traced_ns.max(1.0);
    out.set("trace.coverage", share);
    out.check(share >= 0.9, || {
        format!(
            "layer spans cover {:.1}% of the traced rounds",
            share * 100.0
        )
    });

    let sum = probe.iter().fold(Work::default(), |a, w| Work {
        writes: a.writes + w.writes,
        reads: a.reads + w.reads,
        write_events: a.write_events + w.write_events,
        read_events: a.read_events + w.read_events,
        fanout_rows: a.fanout_rows + w.fanout_rows,
        peak_queue_depth: a.peak_queue_depth.max(w.peak_queue_depth),
    });
    out.set(
        "sim.events_per_write",
        sum.write_events as f64 / sum.writes.max(1) as f64,
    );
    out.set(
        "sim.events_per_read",
        sum.read_events as f64 / sum.reads.max(1) as f64,
    );
    out.set("sim.peak_queue_depth", sum.peak_queue_depth as f64);
    out.set("sim.fanout_rows", sum.fanout_rows as f64);
}
