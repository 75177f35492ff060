//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! perfbench --workload <soak-256x64|cosim-fig14|serve-yield> --seed N
//!           --seconds S --trace <0|1> [--smoke] [--golden PATH]
//! ```
//!
//! Run from the repository root, through `cargo run --release
//! --manifest-path perfbench/Cargo.toml -- ...` (the command in
//! `BENCHMARK.json`), which builds it first. The seed generates every input: the soak op stream, the
//! cosim issue order, and the serve job mix. An untraced run (`--trace 0`)
//! measures the end-to-end metrics; a traced run (`--trace 1`) records a
//! span around each layer call and reports the per-layer metrics. Every
//! output is checked against an oracle the repository already has, and
//! the seed-independent counts against `perfbench/golden.json`. Each
//! window measures a fixed amount of work, sized from `--seconds` (see
//! [`fixed_work`]). The last stdout line is one JSON object: `correct`,
//! `attempted`, `failed`, `metrics`. Any failed check exits 1; bad
//! arguments exit 2.

mod cosim;
mod golden;
mod host;
mod serve;
mod soak;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use sfq_serve::Json;

/// End-to-end metrics `(name, unit)`, reported by untraced runs of every
/// workload. A request is one round of the op stream through all designs
/// (soak), one kernel run on one design (cosim), or one job (serve).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by traced runs. A layer a
/// workload does not call reads 0 on that workload.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("elab.ms", "ms"),
    ("elab.cells", "count"),
    ("lower.ms", "ms"),
    ("sim.ns_per_event", "ns"),
    ("sim.us_per_write", "us"),
    ("sim.us_per_read", "us"),
    ("sim.events_per_write", "count"),
    ("sim.events_per_read", "count"),
    ("sim.peak_queue_depth", "count"),
    ("sim.fanout_rows", "count"),
    ("backend.us_per_access", "us"),
    ("backend.accesses", "count"),
    ("cpu.self_share", "frac"),
    ("cpu.retired", "count"),
    ("cpu.gate_cycles", "count"),
    ("mc.ms_per_shard", "ms"),
    ("mc.sims_per_trial", "count"),
    ("mc.events", "count"),
    ("lint.ms", "ms"),
    ("digest.ms", "ms"),
    ("json.us_per_parse", "us"),
    ("spec.us_per_parse", "us"),
    ("finalize.us", "us"),
    ("wal.us_per_append", "us"),
    ("http.hit_ms", "ms"),
    ("http.healthz_ms", "ms"),
    ("serve.polls_per_job", "count"),
    ("serve.retries_429", "count"),
    ("cache.hit_frac", "frac"),
    ("serve.overhead_ms", "ms"),
    ("trace.overhead_frac", "frac"),
    ("trace.coverage", "frac"),
];

/// How one invocation runs.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Repository root (the working directory).
    pub root: PathBuf,
    /// Scratch directory for WALs and traces (gitignored).
    pub out_dir: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Measured window, seconds.
    pub seconds: f64,
    /// Traced run.
    pub traced: bool,
    /// Small sizes for the benchmark's own tests.
    pub smoke: bool,
}

/// What a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (RF ops, kernel runs, jobs).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Failed checks that are not single operations.
    pub problems: Vec<String>,
    /// Metric values by name (end-to-end or per-layer).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Workload-specific names of the same figures, printed only.
    pub notes: Vec<(&'static str, f64, &'static str)>,
    /// Seed-independent exact-repeat counts, checked against the golden
    /// file.
    pub counts: golden::Counts,
    /// Spans of a traced run.
    pub spans: Vec<trace::Span>,
}

impl Outcome {
    /// Records one operation and whether it passed its check.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(message());
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// A full run's window stops, and fails, once it has run this many times
/// `--seconds` without finishing its work.
pub const CAP_FACTOR: f64 = 3.0;

/// Work units a full run measures: `seconds` × the rate measured on the
/// host the benchmark was sized on, so the window lasts about `seconds`
/// there and a faster or slower build is measured on the same work.
pub fn fixed_work(seconds: f64, units_per_s: f64) -> u64 {
    (seconds * units_per_s).ceil().max(1.0) as u64
}

/// Fails the run unless all `wanted` work units ran: the window hit the
/// [`CAP_FACTOR`] cap after `done`.
pub fn check_work(out: &mut Outcome, unit: &str, done: u64, wanted: u64, wall_s: f64) {
    out.check(done == wanted, || {
        format!("fixed work not reached: {done} of {wanted} {unit} in {wall_s:.1} s")
    });
}

/// Linear-interpolated quantile `q` of `values` (sorted in place).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// Sets the shared end-to-end metrics from a window's request latencies.
pub fn set_latency(out: &mut Outcome, latencies_ms: &mut [f64]) {
    out.set("p50_ms", quantile(latencies_ms, 0.5));
    out.set("p90_ms", quantile(latencies_ms, 0.9));
}

/// Sets `trace.overhead_frac` from the untraced and traced work rates of
/// the two halves of a traced run.
pub fn set_overhead(out: &mut Outcome, untraced_rate: f64, traced_rate: f64) {
    let frac = if traced_rate > 0.0 {
        untraced_rate / traced_rate - 1.0
    } else {
        0.0
    };
    out.set("trace.overhead_frac", frac);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    golden: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut smoke = false;
    let mut golden = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed must be a u64")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds must be a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                });
            }
            "--smoke" => smoke = true,
            "--golden" => golden = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        smoke,
        golden,
    })
}

/// Formats a metric value for the result line: every digit, and never a
/// non-JSON token.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <soak-256x64|cosim-fig14|serve-yield> --seed N \
                 --seconds S --trace <0|1> [--smoke] [--golden PATH]"
            );
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().expect("working directory is readable");
    let out_dir = root.join("perfbench").join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        root: root.clone(),
        out_dir,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        smoke: args.smoke,
    };
    let size = if args.smoke { "smoke" } else { "full" };
    let tag = Json::obj(vec![
        ("workload", Json::str(args.workload.clone())),
        ("size", Json::str(size)),
        ("seed", Json::u64(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.traced)),
        ("git_rev", Json::str(host::git_rev(&root))),
        ("tree", Json::str(host::tree_digest(&root))),
        ("host", host::fingerprint()),
    ]);
    println!("# tag {tag}");

    let started = Instant::now();
    let mut out = match args.workload.as_str() {
        "soak-256x64" => soak::run(&ctx),
        "cosim-fig14" => cosim::run(&ctx),
        "serve-yield" => serve::run(&ctx),
        other => {
            eprintln!("error: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };

    // The smoke size has its own golden entry where it changes the counts:
    // soak runs at 4x4, cosim runs two kernels. Serve's probe shard is the
    // same at both sizes.
    let entry = match (args.smoke, args.workload.as_str()) {
        (true, "soak-256x64" | "cosim-fig14") => format!("{}/smoke", args.workload),
        _ => args.workload.clone(),
    };
    let golden_path = args
        .golden
        .unwrap_or_else(|| root.join("perfbench").join("golden.json"));
    let problems = golden::check(&golden_path, &entry, &out.counts);
    out.problems.extend(problems);

    let table: &[(&str, &str)] = if args.traced { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        let value = match out.metrics.get(name) {
            Some(&v) => v,
            None if args.traced => 0.0,
            None => {
                out.problems.push(format!("metric {name} was not measured"));
                continue;
            }
        };
        if !value.is_finite() {
            out.problems.push(format!("metric {name} is {value}"));
        }
        metrics.push((name, value, unit));
    }
    for (name, value, unit) in &metrics {
        println!("metric {name} {value} {unit}");
    }
    for (name, value, unit) in &out.notes {
        println!("note {name} {value} {unit}");
    }
    for (name, value) in &out.counts {
        println!("count {name} {value}");
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "note failed_frac {failed_frac} frac ({} of {} operations)",
        out.failed, out.attempted
    );
    if args.traced {
        let path = ctx.out_dir.join(format!("trace-{}.jsonl", args.workload));
        let body = format!("{{\"tag\":{tag}}}\n{}", trace::to_jsonl(&out.spans));
        match std::fs::write(&path, body) {
            Ok(()) => println!("# spans {} -> {}", out.spans.len(), path.display()),
            Err(e) => out
                .problems
                .push(format!("cannot write {}: {e}", path.display())),
        }
    }
    out.check(out.attempted > 0, || {
        "no operation was attempted".to_string()
    });
    for p in &out.problems {
        println!("check FAILED: {p}");
    }
    println!("# wall {:.3} s", started.elapsed().as_secs_f64());

    let correct = out.failed == 0 && out.problems.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
