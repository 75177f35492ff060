//! `serve-yield`: the shipped `sfq-serve run` binary in its own process,
//! driven by a closed-loop client.
//!
//! The server runs with its default configuration and a fresh WAL. The
//! client keeps [`CLIENTS`] connections, each with one job outstanding,
//! polling `GET /jobs/{id}` every [`POLL_MS`] ms from a seeded phase. The seeded mix is mostly
//! fresh sharded `yield` jobs at 4×4, with a minority of `lint` jobs at
//! 32×32 and of exact repeats of earlier jobs (cache hits); hits and lint
//! jobs stay below the median. Every job's result is checked, outside the
//! timed window, against an in-process `run_shard` + `finalize` of the
//! same spec. This is the only workload on the HTTP, JSON, admission,
//! WAL, cache and lint paths, and elaboration is a large share of each
//! yield trial. A request is one job, from submit to the first poll that
//! sees it finished. The window runs a fixed number of jobs: the server
//! keeps every job and cached result in memory, so its size depends on
//! the jobs it has served. The server runs in another process, so the
//! window's times leave out the time the hypervisor stole from the vCPUs
//! ([`Phase::busy_s`]), and set-up is the server's own CPU time.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use hiperrf::designs::{registry, Design};
use hiperrf::hashing::{design_digest, digest_hex, parse_digest_hex};
use sfq_serve::http::roundtrip_with_headers;
use sfq_serve::job::{design_slug, finalize, run_shard, Finished, JobKind};
use sfq_serve::{client, JobSpec, Json, ResultCache, Wal};
use sfq_sim::rng::Rng64;

use crate::{
    check_work, fixed_work, quantile, set_latency, set_overhead, trace, Ctx, Outcome, CAP_FACTOR,
};

/// Client connections, each with one job outstanding.
pub const CLIENTS: usize = 2;
/// Interval between status polls of an outstanding job.
pub const POLL_MS: u64 = 5;
/// Monte Carlo trials of each yield job (two shards of four).
const YIELD_TRIALS: u64 = 8;
/// Yield jobs of the mix whose simulated work is reported as counts.
const COUNTED_YIELD_JOBS: usize = 8;
/// A job not finished this long after its submit fails, so a stuck
/// server cannot hang the run.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);
/// Jobs per second of a full run on the sizing host (2-vCPU Xeon,
/// 2.1 GHz, 2 MiB L2), which sets the fixed work of a window.
const JOBS_PER_S: f64 = 70.0;
/// Seed of the fixed yield shard whose counts are golden.
const PROBE_SEED: u64 = 0x5eed_5e7e;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Yield,
    Lint,
    /// An exact repeat of the mix entry at this index.
    Repeat(usize),
}

#[derive(Debug, Clone)]
struct MixJob {
    kind: Kind,
    body: String,
    /// Delay of the first poll, in (0, POLL_MS] ms. A seeded phase per job
    /// keeps latencies from snapping to the poll grid, where a small
    /// slowdown would move the median by a whole interval.
    poll_phase_us: u64,
}

fn yield_body(design: Design, seed: u64) -> String {
    format!(
        "{{\"kind\":\"yield\",\"design\":\"{}\",\"registers\":4,\"width\":4,\
         \"trials\":{YIELD_TRIALS},\"shard_len\":4,\"seed\":{seed}}}",
        design_slug(design)
    )
}

fn lint_body(design: Design, seed: u64) -> String {
    format!(
        "{{\"kind\":\"lint\",\"design\":\"{}\",\"registers\":32,\"width\":32,\"seed\":{seed}}}",
        design_slug(design)
    )
}

/// What a block of the mix holds: per design, seven fresh yield jobs and
/// one fresh lint job, plus eight repeats — 70% yield, 10% lint, 20%
/// hits, so hits and lint jobs stay below the median. Fixing the
/// composition per block keeps the mix's cost the same for every seed.
const BLOCK_YIELD_PER_DESIGN: usize = 7;
const BLOCK_REPEATS: usize = 8;

/// Draft of one mix entry before its repeat target is chosen.
#[derive(Clone, Copy)]
enum Draft {
    Fresh(Kind, Design),
    Repeat,
}

/// The seeded job mix: blocks of fixed composition in seeded order, each
/// fresh job with its own seed, each repeat of a uniformly chosen earlier
/// fresh job. Smoke runs use one fixed block of eight with every kind in
/// both halves.
fn mix(seed: u64, n: usize, smoke: bool) -> Vec<MixJob> {
    let mut rng = Rng64::new(seed);
    let designs: Vec<Design> = registry().collect();
    let mut drafts: Vec<Draft> = Vec::with_capacity(n);
    if smoke {
        let d = |i: usize| designs[i % designs.len()];
        drafts.extend([
            Draft::Fresh(Kind::Yield, d(0)),
            Draft::Fresh(Kind::Lint, d(1)),
            Draft::Fresh(Kind::Yield, d(2)),
            Draft::Fresh(Kind::Yield, d(3)),
            Draft::Repeat,
            Draft::Fresh(Kind::Yield, d(1)),
            Draft::Fresh(Kind::Lint, d(0)),
            Draft::Repeat,
        ]);
    }
    while drafts.len() < n {
        let mut block = Vec::new();
        for &d in &designs {
            block.extend([Draft::Fresh(Kind::Yield, d); BLOCK_YIELD_PER_DESIGN]);
            block.push(Draft::Fresh(Kind::Lint, d));
        }
        block.extend([Draft::Repeat; BLOCK_REPEATS]);
        for i in (1..block.len()).rev() {
            block.swap(i, rng.next_below(i + 1));
        }
        // A repeat needs a fresh job at least three places earlier, so
        // the mix opens with three fresh jobs.
        if drafts.is_empty() {
            for i in 0..3 {
                if matches!(block[i], Draft::Repeat) {
                    let j = (3..block.len())
                        .find(|&j| matches!(block[j], Draft::Fresh(..)))
                        .expect("a block holds fresh jobs");
                    block.swap(i, j);
                }
            }
        }
        drafts.extend(block);
    }
    drafts.truncate(n);

    let mut jobs: Vec<MixJob> = Vec::with_capacity(n);
    let mut fresh: Vec<usize> = Vec::new();
    for (i, draft) in drafts.into_iter().enumerate() {
        let poll_phase_us = 1 + rng.next_below(POLL_MS as usize * 1000) as u64;
        let job = match draft {
            Draft::Fresh(kind, design) => {
                fresh.push(i);
                let job_seed = rng.next_u64() >> 32;
                let body = if kind == Kind::Lint {
                    lint_body(design, job_seed)
                } else {
                    yield_body(design, job_seed)
                };
                MixJob {
                    kind,
                    body,
                    poll_phase_us,
                }
            }
            Draft::Repeat => {
                let candidates = fresh.iter().filter(|&&j| j + 2 < i).count();
                let j = fresh[rng.next_below(candidates)];
                MixJob {
                    kind: Kind::Repeat(j),
                    body: jobs[j].body.clone(),
                    poll_phase_us,
                }
            }
        };
        jobs.push(job);
    }
    jobs
}

/// Builds the server binary from the workspace and returns its path.
fn build_server(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let output = Command::new(cargo)
        .current_dir(root)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "sfq-serve",
            "--bin",
            "sfq-serve",
            "--message-format=json",
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !output.status.success() {
        return Err(format!("building sfq-serve failed ({})", output.status));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter_map(|l| Json::parse(l).ok())
        .filter_map(|m| {
            m.get("executable")
                .and_then(Json::as_str)
                .map(PathBuf::from)
        })
        .find(|p| p.file_stem().is_some_and(|s| s == "sfq-serve"))
        .ok_or_else(|| "cargo reported no sfq-serve executable".to_string())
}

/// A running `sfq-serve run` process.
struct ServerProc {
    child: Child,
    addr: String,
    dir: PathBuf,
}

impl ServerProc {
    /// Starts the server on a fresh WAL in `dir`; returns it with the CPU
    /// time it ran from spawn to its first `/healthz` 200.
    fn spawn(bin: &Path, dir: &Path) -> Result<(ServerProc, f64), String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let addr_file = dir.join("addr");
        let start = Instant::now();
        let child = Command::new(bin)
            .arg("run")
            .arg("--wal")
            .arg(dir.join("server.wal"))
            .arg("--addr-file")
            .arg(&addr_file)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut server = ServerProc {
            child,
            addr: String::new(),
            dir: dir.to_path_buf(),
        };
        loop {
            if server.addr.is_empty() {
                let text = std::fs::read_to_string(&addr_file).unwrap_or_default();
                if text.parse::<std::net::SocketAddr>().is_ok() {
                    server.addr = text;
                }
            }
            if !server.addr.is_empty() && client::health(&server.addr).is_ok() {
                let cpu_s = crate::host::process_cpu_s(server.child.id())
                    .ok_or("server CPU time unavailable")?;
                return Ok((server, cpu_s));
            }
            if start.elapsed() > Duration::from_secs(30) {
                server.stop();
                return Err("server not healthy within 30 s".to_string());
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("server exited during startup ({status})"));
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// Drains the server and waits for it to exit; [`Drop`] kills it if
    /// the drain does not end it within 20 s.
    fn stop(mut self) {
        if self.addr.is_empty() || client::drain(&self.addr).is_err() {
            return;
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        while matches!(self.child.try_wait(), Ok(None)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// Kills and reaps a server still running — after a failed drain, or when
/// the run unwinds from a panic — and removes its directory.
impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// What the client saw of one job.
#[derive(Debug, Clone)]
struct Seen {
    idx: usize,
    latency_ms: f64,
    polls: u64,
    retries_429: u64,
    cached: bool,
    /// The result document, when the job finished `done` or `cached`.
    result: Option<Json>,
    error: Option<String>,
}

/// One client job: submit (honouring 429), then poll until terminal.
fn drive(addr: &str, idx: usize, job: &MixJob) -> Seen {
    let body = job.body.as_str();
    let mut seen = Seen {
        idx,
        latency_ms: 0.0,
        polls: 0,
        retries_429: 0,
        cached: false,
        result: None,
        error: None,
    };
    let start = Instant::now();
    let outcome: Result<(), String> = (|| loop {
        if start.elapsed() > JOB_TIMEOUT {
            return Err(format!("not finished within {JOB_TIMEOUT:?}"));
        }
        let (status, headers, text) = trace::span("http.submit", idx as u64, || {
            roundtrip_with_headers(addr, "POST", "/jobs", Some(body))
        })
        .map_err(|e| format!("submit: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("submit response: {e}"))?;
        match status {
            429 => {
                seen.retries_429 += 1;
                let secs = headers
                    .iter()
                    .find(|(n, _)| n == "retry-after")
                    .and_then(|(_, v)| v.parse::<u64>().ok())
                    .unwrap_or(1);
                std::thread::sleep(Duration::from_secs(secs.min(2)));
            }
            200 => {
                seen.cached = doc.get("status").and_then(Json::as_str) == Some("cached");
                seen.result = doc.get("result").cloned();
                return Ok(());
            }
            202 => {
                let id = doc.get("id").and_then(Json::as_u64).ok_or("no job id")?;
                let mut due = Instant::now() + Duration::from_micros(job.poll_phase_us);
                loop {
                    if start.elapsed() > JOB_TIMEOUT {
                        return Err(format!("job {id} not finished within {JOB_TIMEOUT:?}"));
                    }
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    due += Duration::from_millis(POLL_MS);
                    seen.polls += 1;
                    let doc = trace::span("http.poll", idx as u64, || client::job_status(addr, id))
                        .map_err(|e| format!("poll: {e}"))?;
                    match doc.get("status").and_then(Json::as_str) {
                        Some("done") => {
                            seen.result = doc.get("result").cloned();
                            return Ok(());
                        }
                        Some("failed") => return Err(format!("job failed: {doc}")),
                        _ => {}
                    }
                }
            }
            other => return Err(format!("submit answered {other}: {text}")),
        }
    })();
    seen.latency_ms = start.elapsed().as_secs_f64() * 1e3;
    seen.error = outcome.err();
    seen
}

struct Phase {
    seen: Vec<Seen>,
    wall_s: f64,
    /// Time stolen from each vCPU during the phase, on average.
    stolen_s: f64,
    spans: Vec<trace::Span>,
}

impl Phase {
    /// The phase's wall time less the time stolen from the vCPUs. On a
    /// shared host steal swings by a fifth or more over a minute, and
    /// both the server and the client run throughout the phase.
    fn busy_s(&self) -> f64 {
        self.wall_s - self.stolen_s
    }

    /// Jobs per second of [`Phase::busy_s`].
    fn rate(&self) -> f64 {
        self.seen.len() as f64 / self.busy_s()
    }
}

/// Runs the closed loop over the mix from `next` until `until` jobs have
/// been dispensed, or dispenses no more once [`CAP_FACTOR`] × `seconds`
/// have passed; every dispensed job completes.
fn live_phase(
    addr: &str,
    jobs: &[MixJob],
    next: &AtomicUsize,
    until: usize,
    seconds: f64,
    traced: Option<Instant>,
) -> Phase {
    let finished: Mutex<Vec<bool>> = Mutex::new(vec![false; jobs.len()]);
    // Jobs dispensed before this phase are finished.
    {
        let mut f = finished.lock().expect("no client panicked");
        for slot in f.iter_mut().take(next.load(Ordering::SeqCst)) {
            *slot = true;
        }
    }
    let cv = Condvar::new();
    let stolen = crate::host::stolen_s();
    let start = Instant::now();
    let per_thread: Vec<(Vec<Seen>, Vec<trace::Span>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    if let Some(epoch) = traced {
                        trace::start(epoch);
                    }
                    let mut seen = Vec::new();
                    while start.elapsed().as_secs_f64() < CAP_FACTOR * seconds {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= until {
                            break;
                        }
                        // A repeat is a cache hit only once the job it
                        // repeats has finished.
                        if let Kind::Repeat(j) = jobs[i].kind {
                            let mut f = finished.lock().expect("no client panicked");
                            while !f[j] {
                                f = cv.wait(f).expect("no client panicked");
                            }
                        }
                        let s = trace::span("job", i as u64, || drive(addr, i, &jobs[i]));
                        seen.push(s);
                        finished.lock().expect("no client panicked")[i] = true;
                        cv.notify_all();
                    }
                    (seen, trace::stop())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut phase = Phase {
        seen: Vec::new(),
        wall_s,
        stolen_s: crate::host::stolen_s() - stolen,
        spans: Vec::new(),
    };
    for (seen, spans) in per_thread {
        phase.seen.extend(seen);
        trace::merge(&mut phase.spans, spans);
    }
    // Indices fetched at or past `until` were never dispensed.
    next.fetch_min(until, Ordering::SeqCst);
    phase.seen.sort_by_key(|s| s.idx);
    phase
}

/// In-process result of one spec: every shard through `run_shard`, then
/// `finalize`; with `wal`, the server's journal records are appended too,
/// and each call is a span (the traced replay).
struct Replayer {
    wal: Option<Wal>,
    digests: HashMap<(Design, usize, usize), u64>,
    cache: ResultCache,
    next_id: u64,
}

impl Replayer {
    fn new(wal: Option<Wal>) -> Self {
        Replayer {
            wal,
            digests: HashMap::new(),
            cache: ResultCache::new(),
            next_id: 1,
        }
    }

    /// Memoised netlist digest of a spec's design and geometry, as the
    /// server's admission computes it.
    fn netlist_digest(&mut self, spec: &JobSpec, req: u64) -> Result<u64, String> {
        let geometry = spec.geometry().map_err(|e| e.to_string())?;
        let dkey = (spec.design, spec.registers, spec.width);
        if let Some(&d) = self.digests.get(&dkey) {
            return Ok(d);
        }
        let d = trace::span("digest", req, || design_digest(spec.design, geometry));
        self.digests.insert(dkey, d);
        Ok(d)
    }

    /// Enters an already-known result into the cache.
    fn prime(&mut self, body: &str, result: Json) {
        let Some(spec) = Json::parse(body)
            .ok()
            .and_then(|v| JobSpec::from_json(&v).ok())
        else {
            return;
        };
        let Ok(nd) = self.netlist_digest(&spec, 0) else {
            return;
        };
        let digest = result
            .get("digest")
            .and_then(Json::as_str)
            .and_then(parse_digest_hex)
            .unwrap_or(0);
        self.cache
            .insert(spec.cache_key(nd), Finished { result, digest });
    }

    fn result(&mut self, idx: usize, body: &str) -> Result<(Json, Vec<Json>), String> {
        let req = idx as u64;
        let append = |wal: &mut Option<Wal>, record: Json| -> Result<(), String> {
            match wal {
                Some(w) => trace::span("wal.append", req, || w.append(&record))
                    .map_err(|e| format!("wal append: {e}")),
                None => Ok(()),
            }
        };
        let v = trace::span("json.parse", req, || Json::parse(body)).map_err(|e| e.to_string())?;
        let spec = trace::span("spec.parse", req, || JobSpec::from_json(&v))?;
        let nd = self.netlist_digest(&spec, req)?;
        let key = trace::span("cache.key", req, || spec.cache_key(nd));
        if let Some(hit) = trace::span("cache.lookup", req, || self.cache.lookup(key)) {
            return Ok((hit.result, Vec::new()));
        }
        let id = self.next_id;
        self.next_id += 1;
        append(
            &mut self.wal,
            Json::obj(vec![
                ("t", Json::str("job")),
                ("id", Json::u64(id)),
                ("key", Json::str(digest_hex(key))),
                ("spec", spec.canonical()),
            ]),
        )?;
        let mut shards = Vec::new();
        let name = if spec.kind == JobKind::Lint {
            "lint.run"
        } else {
            "mc.shard"
        };
        for shard in 0..spec.shard_count() {
            let r = trace::span(name, req, || run_shard(&spec, shard, 0));
            append(
                &mut self.wal,
                Json::obj(vec![
                    ("t", Json::str("shard")),
                    ("id", Json::u64(id)),
                    ("shard", Json::u64(u64::from(shard))),
                    ("result", r.clone()),
                ]),
            )?;
            shards.push(r);
        }
        let fin = trace::span("finalize", req, || finalize(&spec, &shards))?;
        append(
            &mut self.wal,
            Json::obj(vec![
                ("t", Json::str("done")),
                ("id", Json::u64(id)),
                ("digest", Json::str(digest_hex(fin.digest))),
            ]),
        )?;
        self.cache.insert(key, fin.clone());
        Ok((fin.result, shards))
    }
}

/// The oracle's view of every fresh job: result document and shard
/// records, by mix index.
type Expected = BTreeMap<usize, Result<(Json, Vec<Json>), String>>;

/// Computes the oracle for `idxs` on [`CLIENTS`] threads.
fn oracle(jobs: &[MixJob], idxs: &[usize]) -> Expected {
    let chunks: Vec<Vec<usize>> = (0..CLIENTS)
        .map(|t| idxs.iter().copied().skip(t).step_by(CLIENTS).collect())
        .collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|chunk| {
                s.spawn(move || {
                    let mut r = Replayer::new(None);
                    chunk
                        .iter()
                        .map(|&i| (i, r.result(i, &jobs[i].body)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    })
}

/// Checks every seen job against the oracle, one operation per job.
fn check_jobs(jobs: &[MixJob], seen: &[Seen], expected: &Expected, out: &mut Outcome) {
    for s in seen {
        let original = match jobs[s.idx].kind {
            Kind::Repeat(j) => j,
            _ => s.idx,
        };
        let verdict: Result<(), String> = (|| {
            if let Some(e) = &s.error {
                return Err(e.clone());
            }
            let got = s.result.as_ref().ok_or("no result document")?;
            let want = match expected.get(&original) {
                Some(Ok((doc, _))) => doc,
                Some(Err(e)) => return Err(format!("oracle failed: {e}")),
                None => return Err("no oracle result".to_string()),
            };
            if got != want {
                return Err(format!(
                    "result digest {:?} differs from the oracle's {:?}",
                    got.get("digest").and_then(Json::as_str),
                    want.get("digest").and_then(Json::as_str)
                ));
            }
            if matches!(jobs[s.idx].kind, Kind::Repeat(_)) != s.cached {
                return Err(format!(
                    "cached = {} for a {:?} job",
                    s.cached, jobs[s.idx].kind
                ));
            }
            Ok(())
        })();
        out.op(verdict.is_ok());
        if let Err(e) = verdict {
            out.problems.push(format!("job {}: {e}", s.idx));
        }
    }
}

fn server_hits(addr: &str) -> Option<u64> {
    client::health(addr)
        .ok()?
        .get("cache")?
        .get("hits")
        .and_then(Json::as_u64)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let bin = match build_server(&ctx.root) {
        Ok(b) => b,
        Err(e) => {
            out.problems.push(e);
            return out;
        }
    };
    let (n_jobs, setup_reps) = if ctx.smoke {
        (8, 2)
    } else {
        (fixed_work(ctx.seconds, JOBS_PER_S) as usize, 15)
    };
    let jobs = mix(ctx.seed, n_jobs, ctx.smoke);
    let base = ctx.out_dir.join(format!("serve-{}", std::process::id()));

    // Setup: spawn to first healthy answer, several times; the last
    // server stays up for the run. Measured on the server's CPU clock: a
    // start-up takes a few ms of wall time, too short to take the stolen
    // time out of.
    let mut setup_s = Vec::new();
    let mut server = None;
    for rep in 0..setup_reps {
        if let Some(s) = server.take() {
            ServerProc::stop(s);
        }
        match ServerProc::spawn(&bin, &base.join(format!("rep{rep}"))) {
            Ok((s, secs)) => {
                setup_s.push(secs);
                server = Some(s);
            }
            Err(e) => {
                out.problems.push(e);
                return out;
            }
        }
    }
    let server = server.expect("setup_reps > 0");
    out.set("setup_s", quantile(&mut setup_s, 0.5));

    let next = AtomicUsize::new(0);
    let epoch = Instant::now();
    let (plain, traced) = if ctx.traced {
        // Half the jobs untraced, half traced.
        let (half, secs) = (n_jobs / 2, ctx.seconds / 2.0);
        let a = live_phase(&server.addr, &jobs, &next, half, secs, None);
        check_work(&mut out, "jobs", a.seen.len() as u64, half as u64, a.wall_s);
        let b = live_phase(&server.addr, &jobs, &next, n_jobs, secs, Some(epoch));
        let wanted = (n_jobs - half) as u64;
        check_work(&mut out, "jobs", b.seen.len() as u64, wanted, b.wall_s);
        (a, Some(b))
    } else {
        let a = live_phase(&server.addr, &jobs, &next, n_jobs, ctx.seconds, None);
        check_work(
            &mut out,
            "jobs",
            a.seen.len() as u64,
            n_jobs as u64,
            a.wall_s,
        );
        (a, None)
    };
    // The server's high-water mark after the fixed work.
    let rss = crate::host::peak_rss_mb(Some(server.child.id()));
    let dispensed = next.load(Ordering::SeqCst);
    let repeats = jobs[..dispensed]
        .iter()
        .filter(|j| matches!(j.kind, Kind::Repeat(_)))
        .count() as u64;
    let hits = server_hits(&server.addr);
    out.check(hits == Some(repeats), || {
        format!("server reports {hits:?} cache hits for {repeats} repeated jobs")
    });
    let mut healthz_ms = Vec::new();
    if ctx.traced {
        for i in 0..20 {
            let t = Instant::now();
            let ok = trace::span("http.healthz", i, || client::health(&server.addr)).is_ok();
            out.check(ok, || "healthz failed".to_string());
            healthz_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    let replay_wal = server.dir.join("replay.wal");
    let traced_idxs: Vec<usize> = traced
        .as_ref()
        .map(|b| b.seen.iter().map(|s| s.idx).collect())
        .unwrap_or_default();

    // Oracle, outside the timed window: every fresh job not replayed.
    let fresh = |seen: &[Seen]| -> Vec<usize> {
        seen.iter()
            .filter(|s| !matches!(jobs[s.idx].kind, Kind::Repeat(_)))
            .map(|s| s.idx)
            .collect()
    };
    let mut oracle_idxs = fresh(&plain.seen);
    for (i, j) in jobs.iter().enumerate().take(dispensed) {
        if let Kind::Repeat(orig) = j.kind {
            if traced_idxs.contains(&i) && !traced_idxs.contains(&orig) {
                oracle_idxs.push(orig);
            }
        }
    }
    // Counted yield jobs not run live (short runs) are computed too.
    let counted: Vec<usize> = jobs
        .iter()
        .enumerate()
        .filter(|(_, j)| j.kind == Kind::Yield)
        .map(|(i, _)| i)
        .take(COUNTED_YIELD_JOBS)
        .filter(|&i| ctx.smoke || i < dispensed)
        .collect();
    for &i in &counted {
        if !traced_idxs.contains(&i) && !oracle_idxs.contains(&i) {
            oracle_idxs.push(i);
        }
    }
    oracle_idxs.sort_unstable();
    oracle_idxs.dedup();
    let mut expected = oracle(&jobs, &oracle_idxs);

    let mut replay_ms: BTreeMap<usize, f64> = BTreeMap::new();
    if let Some(b) = &traced {
        // The traced replay: the phase's jobs in order through the serve
        // layers' public functions, journalling next to the live WAL.
        let mut r = Replayer::new(match Wal::open(&replay_wal) {
            Ok((w, _)) => Some(w),
            Err(e) => {
                out.problems.push(format!("replay WAL: {e}"));
                None
            }
        });
        // Prime the replay cache with the earlier jobs this phase repeats,
        // as the live server's cache held them.
        for s in &b.seen {
            if let Kind::Repeat(orig) = jobs[s.idx].kind {
                if let (false, Some(Ok((doc, _)))) =
                    (traced_idxs.contains(&orig), expected.get(&orig))
                {
                    r.prime(&jobs[orig].body, doc.clone());
                }
            }
        }
        trace::start(epoch);
        for s in &b.seen {
            let t = Instant::now();
            let res = trace::span("replay.job", s.idx as u64, || {
                r.result(s.idx, &jobs[s.idx].body)
            });
            replay_ms.insert(s.idx, t.elapsed().as_secs_f64() * 1e3);
            if !matches!(jobs[s.idx].kind, Kind::Repeat(_)) {
                expected.insert(s.idx, res);
            }
        }
        out.spans = trace::stop();
        trace::merge(&mut out.spans, b.spans.clone());
    }
    match rss {
        Some(mb) => out.set("peak_rss_mb", mb),
        None => out.problems.push("server VmHWM unavailable".to_string()),
    }
    server.stop();
    let _ = std::fs::remove_dir_all(&base);

    check_jobs(&jobs, &plain.seen, &expected, &mut out);
    if let Some(b) = &traced {
        check_jobs(&jobs, &b.seen, &expected, &mut out);
    }
    counts(&mut out, &counted, &expected);
    out.notes.push(("poll_ms", POLL_MS as f64, "ms"));
    out.notes.push(("clients", CLIENTS as f64, "count"));

    if let Some(b) = &traced {
        set_overhead(&mut out, plain.rate(), b.rate());
        per_layer(&mut out, &jobs, b, &replay_ms, &mut healthz_ms);
    } else {
        let rate = plain.rate();
        out.set("work_per_s", rate);
        out.notes.push(("jobs_per_s", rate, "1/s"));
        // Each latency loses the phase's share of stolen time.
        let scale = plain.busy_s() / plain.wall_s;
        let mut lat: Vec<f64> = plain.seen.iter().map(|s| s.latency_ms * scale).collect();
        set_latency(&mut out, &mut lat);
        out.notes.push(("job_p50_ms", out.metrics["p50_ms"], "ms"));
        out.notes.push(("job_p90_ms", out.metrics["p90_ms"], "ms"));
        out.notes.push(("jobs", plain.seen.len() as f64, "count"));
        out.notes.push(("cache_hits", repeats as f64, "count"));
        out.notes
            .push(("stolen_frac", plain.stolen_s / plain.wall_s, "frac"));
    }
    out
}

/// Seed-independent golden counts (a fixed yield shard per design) and
/// the seeded mix's simulated work (`mc.*`, traced runs only).
fn counts(out: &mut Outcome, counted: &[usize], expected: &Expected) {
    for design in registry() {
        let body = format!(
            "{{\"kind\":\"yield\",\"design\":\"{}\",\"registers\":4,\"width\":4,\
             \"trials\":4,\"shard_len\":4,\"seed\":{PROBE_SEED}}}",
            design_slug(design)
        );
        let spec = Json::parse(&body)
            .ok()
            .and_then(|v| JobSpec::from_json(&v).ok())
            .expect("probe spec is valid");
        let stats = run_shard(&spec, 0, 0);
        let stats = stats.get("stats");
        let get = |k: &str| {
            stats
                .and_then(|s| s.get(k))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        let slug = design_slug(design);
        out.counts.insert(format!("probe.{slug}.sims"), get("runs"));
        out.counts
            .insert(format!("probe.{slug}.events"), get("events"));
    }
    let (mut jobs, mut runs, mut events) = (0u64, 0u64, 0u64);
    for i in counted {
        let Some(Ok((_, shards))) = expected.get(i) else {
            continue;
        };
        jobs += 1;
        for s in shards {
            let stats = s.get("stats");
            let get = |k: &str| {
                stats
                    .and_then(|s| s.get(k))
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
            };
            runs += get("runs");
            events += get("events");
        }
    }
    out.set(
        "mc.sims_per_trial",
        runs as f64 / (jobs * YIELD_TRIALS).max(1) as f64,
    );
    out.set("mc.events", events as f64 / jobs.max(1) as f64);
}

fn per_layer(
    out: &mut Outcome,
    jobs: &[MixJob],
    b: &Phase,
    replay_ms: &BTreeMap<usize, f64>,
    healthz_ms: &mut [f64],
) {
    let t = trace::totals(&out.spans);
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    out.set("mc.ms_per_shard", get("mc.shard").mean(1e6));
    out.set("lint.ms", get("lint.run").mean(1e6));
    out.set("digest.ms", get("digest").mean(1e6));
    out.set("json.us_per_parse", get("json.parse").mean(1e3));
    out.set("spec.us_per_parse", get("spec.parse").mean(1e3));
    out.set("finalize.us", get("finalize").mean(1e3));
    out.set("wal.us_per_append", get("wal.append").mean(1e3));

    let mut hit_ms: Vec<f64> = b
        .seen
        .iter()
        .filter(|s| s.cached)
        .map(|s| s.latency_ms)
        .collect();
    out.set("http.hit_ms", quantile(&mut hit_ms, 0.5));
    out.set("http.healthz_ms", quantile(healthz_ms, 0.5));
    let fresh: Vec<&Seen> = b.seen.iter().filter(|s| !s.cached).collect();
    let polls: u64 = fresh.iter().map(|s| s.polls).sum();
    out.set(
        "serve.polls_per_job",
        polls as f64 / fresh.len().max(1) as f64,
    );
    out.set(
        "serve.retries_429",
        b.seen.iter().map(|s| s.retries_429).sum::<u64>() as f64,
    );
    out.set(
        "cache.hit_frac",
        b.seen.iter().filter(|s| s.cached).count() as f64 / b.seen.len().max(1) as f64,
    );
    let mut overhead: Vec<f64> = fresh
        .iter()
        .filter(|s| !matches!(jobs[s.idx].kind, Kind::Repeat(_)))
        .filter_map(|s| replay_ms.get(&s.idx).map(|r| s.latency_ms - r))
        .collect();
    out.set("serve.overhead_ms", quantile(&mut overhead, 0.5));
    // Share of the phase the connections spent with a job outstanding.
    let busy: u64 = b
        .spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == "job")
        .map(trace::Span::ns)
        .sum();
    out.set(
        "trace.coverage",
        busy as f64 / (b.wall_s * 1e9 * CLIENTS as f64),
    );
}
