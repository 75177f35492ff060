//! The job server: admission control, WAL-backed execution, recovery.
//!
//! ## Lifecycle of a job
//!
//! 1. **Admission** (`POST /jobs`, under one mutex): parse + validate the
//!    spec, compute its content key, and check the cache — a hit returns
//!    `200` with the stored result and *zero* new simulation work. A miss
//!    checks queue capacity: a full queue returns `429` with a
//!    `Retry-After` hint (backpressure, not an error); otherwise the job
//!    record is appended to the WAL **before** the client sees `202` —
//!    *accepted means durable*. A stranded journal (an append failed and
//!    could not be rolled back) turns every miss into `503` and
//!    `/healthz` into `503` until the server is restarted.
//! 2. **Execution**: a worker thread claims the job and runs its shards
//!    in order through the supervisor (panic containment, deadlines,
//!    bounded retry). Each completed shard is WAL-appended and fsynced
//!    before the next starts, so a crash loses at most the shard in
//!    flight.
//! 3. **Completion**: all shard results reduce through
//!    [`crate::job::finalize`]; a `done` record with the content digest is
//!    journalled and the result enters the cache.
//!
//! ## Recovery
//!
//! On startup the WAL is replayed: finished jobs are re-finalised from
//! their journalled shards (and the stored digest cross-checked — a
//! mismatch marks the job failed rather than serving wrong bytes),
//! unfinished jobs are re-queued with their completed shards intact, and
//! execution resumes *from the next shard*. Because every shard is a pure
//! function of `(spec, shard index)`, the resumed job's final digest is
//! bit-identical to an uninterrupted run's.

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use hiperrf::hashing::{design_digest, digest_hex};

use crate::http::{read_request, write_response, Request};
use crate::job::{design_slug, finalize, Chaos, JobSpec};
use crate::json::Json;
use crate::supervisor::{run_supervised, SupervisorPolicy};
use crate::wal::Wal;
use crate::ResultCache;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Journal path; created if missing, replayed if present.
    pub wal_path: PathBuf,
    /// Worker threads (each owns one job at a time).
    pub workers: usize,
    /// Max queued (not yet running) jobs before `429`.
    pub queue_cap: usize,
    /// Shard retry/timeout policy.
    pub policy: SupervisorPolicy,
    /// If set, the actual bound address is written here (for port 0).
    pub addr_file: Option<PathBuf>,
}

impl ServerConfig {
    /// Defaults: loopback on an ephemeral port, two workers, queue of 16.
    pub fn new(wal_path: impl Into<PathBuf>) -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            wal_path: wal_path.into(),
            workers: 2,
            queue_cap: 16,
            policy: SupervisorPolicy::default(),
            addr_file: None,
        }
    }
}

/// Where a job is in its life.
#[derive(Debug, Clone, PartialEq)]
enum JobStatus {
    Queued,
    Running,
    Done(crate::job::Finished),
    Failed(String),
}

impl JobStatus {
    fn name(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done(_) => "done",
            JobStatus::Failed(_) => "failed",
        }
    }
}

/// One admitted job.
#[derive(Debug)]
struct JobRecord {
    spec: JobSpec,
    key: u64,
    shards: BTreeMap<u32, Json>,
    status: JobStatus,
}

/// Mutable server state, guarded by one mutex (admission, WAL appends,
/// and status transitions all serialise through it — correctness over
/// throughput; the expensive work happens outside the lock).
struct Core {
    wal: Wal,
    jobs: BTreeMap<u64, JobRecord>,
    queue: VecDeque<u64>,
    cache: ResultCache,
    next_id: u64,
    draining: bool,
    active: usize,
    digests: std::collections::HashMap<(&'static str, usize, usize), u64>,
    shards_executed: u64,
    shards_replayed: u64,
    jobs_resumed: u64,
    torn_bytes: u64,
}

struct Shared {
    state: Mutex<Core>,
    work_cv: Condvar,
    idle_cv: Condvar,
    exit: AtomicBool,
    addr: SocketAddr,
}

/// A running server.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

fn wal_job_record(id: u64, spec: &JobSpec, key: u64) -> Json {
    let mut fields = vec![
        ("t", Json::str("job")),
        ("id", Json::u64(id)),
        ("key", Json::str(digest_hex(key))),
        ("spec", spec.canonical()),
    ];
    if let Some(chaos) = spec.chaos {
        fields.push((
            "chaos",
            Json::obj(vec![
                ("shard", Json::u64(u64::from(chaos.shard))),
                ("fail_attempts", Json::u64(u64::from(chaos.fail_attempts))),
            ]),
        ));
    }
    Json::obj(fields)
}

impl Core {
    /// Memoised elaborated-netlist digest for a spec's (design, geometry).
    fn netlist_digest(&mut self, spec: &JobSpec) -> u64 {
        let k = (design_slug(spec.design), spec.registers, spec.width);
        if let Some(&d) = self.digests.get(&k) {
            return d;
        }
        let d = design_digest(spec.design, spec.geometry().expect("validated"));
        self.digests.insert(k, d);
        d
    }

    /// Rebuilds jobs/cache/queue from replayed WAL records.
    fn replay(&mut self, records: &[Json]) -> Result<(), String> {
        let mut done_digests: BTreeMap<u64, u64> = BTreeMap::new();
        let mut failures: BTreeMap<u64, String> = BTreeMap::new();
        for r in records {
            let t = r
                .get("t")
                .and_then(Json::as_str)
                .ok_or("record missing `t`")?;
            let id = r
                .get("id")
                .and_then(Json::as_u64)
                .ok_or("record missing `id`")?;
            match t {
                "job" => {
                    let spec_json = r.get("spec").ok_or("job record missing `spec`")?;
                    let mut spec =
                        JobSpec::from_canonical(spec_json).map_err(|e| format!("job {id}: {e}"))?;
                    if let Some(c) = r.get("chaos") {
                        spec.chaos =
                            Some(Chaos::from_json(c).map_err(|e| format!("job {id}: {e}"))?);
                    }
                    let key = r
                        .get("key")
                        .and_then(Json::as_str)
                        .and_then(hiperrf::hashing::parse_digest_hex)
                        .ok_or_else(|| format!("job {id}: bad key"))?;
                    // A job journalled before an admission bound was
                    // tightened is kept, as failed: the journal stays
                    // replayable and the job never runs.
                    if let Err(e) = spec.check_admissible() {
                        failures.insert(id, format!("no longer admissible: {e}"));
                    }
                    self.jobs.insert(
                        id,
                        JobRecord {
                            spec,
                            key,
                            shards: BTreeMap::new(),
                            status: JobStatus::Queued,
                        },
                    );
                    self.next_id = self.next_id.max(id + 1);
                }
                "shard" => {
                    let shard =
                        r.get("shard")
                            .and_then(Json::as_u64)
                            .ok_or("shard record missing index")? as u32;
                    let result = r
                        .get("result")
                        .ok_or("shard record missing result")?
                        .clone();
                    let job = self
                        .jobs
                        .get_mut(&id)
                        .ok_or_else(|| format!("shard for unknown job {id}"))?;
                    // Idempotent: a shard journalled twice (crash between
                    // append and ack) still counts once.
                    if job.shards.insert(shard, result).is_none() {
                        self.shards_replayed += 1;
                    }
                }
                "done" => {
                    let digest = r
                        .get("digest")
                        .and_then(Json::as_str)
                        .and_then(hiperrf::hashing::parse_digest_hex)
                        .ok_or_else(|| format!("done record for job {id}: bad digest"))?;
                    done_digests.insert(id, digest);
                }
                "failed" => {
                    let error = r
                        .get("error")
                        .and_then(Json::as_str)
                        .unwrap_or("unknown failure")
                        .to_string();
                    failures.insert(id, error);
                }
                other => return Err(format!("unknown WAL record type `{other}`")),
            }
        }
        // Settle final states in id order.
        let ids: Vec<u64> = self.jobs.keys().copied().collect();
        for id in ids {
            if let Some(error) = failures.get(&id) {
                self.jobs.get_mut(&id).expect("present").status = JobStatus::Failed(error.clone());
                continue;
            }
            if let Some(&digest) = done_digests.get(&id) {
                let job = self.jobs.get_mut(&id).expect("present");
                let shards: Vec<Json> = job.shards.values().cloned().collect();
                match finalize(&job.spec, &shards) {
                    Ok(fin) if fin.digest == digest => {
                        self.cache.insert(job.key, fin.clone());
                        job.status = JobStatus::Done(fin);
                    }
                    Ok(fin) => {
                        job.status = JobStatus::Failed(format!(
                            "replay digest mismatch: journal {} vs recomputed {}",
                            digest_hex(digest),
                            digest_hex(fin.digest)
                        ));
                    }
                    Err(e) => {
                        job.status = JobStatus::Failed(format!("replay finalise failed: {e}"));
                    }
                }
                continue;
            }
            // Unfinished: resume only under the key this build computes.
            // A key journalled by a build with another cell model would
            // mix its shards with this model's and cache the result under
            // the old key, so such a job is kept, as failed.
            let spec = self.jobs[&id].spec.clone();
            let key = spec.cache_key(self.netlist_digest(&spec));
            let job = self.jobs.get_mut(&id).expect("present");
            if job.key != key {
                job.status = JobStatus::Failed(format!(
                    "stale cache key: journal {} vs current {}",
                    digest_hex(job.key),
                    digest_hex(key)
                ));
                continue;
            }
            // Already durable, so capacity does not apply — these were
            // admitted before the crash.
            self.queue.push_back(id);
            self.jobs_resumed += 1;
        }
        Ok(())
    }

    fn job_json(&self, id: u64, job: &JobRecord) -> Json {
        let mut fields = vec![
            ("id", Json::u64(id)),
            ("status", Json::str(job.status.name())),
            ("kind", Json::str(job.spec.kind.name())),
            ("design", Json::str(design_slug(job.spec.design))),
            ("key", Json::str(digest_hex(job.key))),
            ("shards_total", Json::u64(u64::from(job.spec.shard_count()))),
            ("shards_done", Json::u64(job.shards.len() as u64)),
        ];
        match &job.status {
            JobStatus::Done(fin) => fields.push(("result", fin.result.clone())),
            JobStatus::Failed(e) => fields.push(("error", Json::str(e.clone()))),
            _ => {}
        }
        Json::obj(fields)
    }

    /// The `/healthz` document. `ok` is false, and `journal` reads
    /// `"stranded"`, once the journal refuses appends.
    fn health_json(&self) -> Json {
        let stranded = self.wal.is_stranded();
        Json::obj(vec![
            ("ok", Json::Bool(!stranded)),
            (
                "journal",
                Json::str(if stranded { "stranded" } else { "ok" }),
            ),
            ("draining", Json::Bool(self.draining)),
            ("queue_depth", Json::u64(self.queue.len() as u64)),
            ("active", Json::u64(self.active as u64)),
            ("jobs", Json::u64(self.jobs.len() as u64)),
            (
                "cache",
                Json::obj(vec![
                    ("entries", Json::u64(self.cache.len() as u64)),
                    ("hits", Json::u64(self.cache.hits())),
                    ("misses", Json::u64(self.cache.misses())),
                ]),
            ),
            ("shards_executed", Json::u64(self.shards_executed)),
            ("shards_replayed", Json::u64(self.shards_replayed)),
            ("jobs_resumed", Json::u64(self.jobs_resumed)),
            ("wal_torn_bytes", Json::u64(self.torn_bytes)),
        ])
    }
}

fn error_body(message: &str) -> String {
    Json::obj(vec![("error", Json::str(message))]).to_string()
}

impl Server {
    /// Binds, replays the WAL (resuming unfinished jobs), and spawns the
    /// accept loop plus worker threads.
    ///
    /// # Errors
    ///
    /// Bind/WAL I/O errors, and `InvalidData` for an unreplayable journal.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let (wal, recovery) = Wal::open(&config.wal_path)?;
        let mut core = Core {
            wal,
            jobs: BTreeMap::new(),
            queue: VecDeque::new(),
            cache: ResultCache::new(),
            next_id: 1,
            draining: false,
            active: 0,
            digests: std::collections::HashMap::new(),
            shards_executed: 0,
            shards_replayed: 0,
            jobs_resumed: 0,
            torn_bytes: recovery.torn_bytes,
        };
        core.replay(&recovery.records)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        if let Some(path) = &config.addr_file {
            std::fs::write(path, addr.to_string())?;
        }

        let shared = Arc::new(Shared {
            state: Mutex::new(core),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            exit: AtomicBool::new(false),
            addr,
        });

        let workers = (0..config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let policy = config.policy;
                std::thread::spawn(move || worker_loop(&shared, &policy))
            })
            .collect();

        let accept_shared = Arc::clone(&shared);
        let queue_cap = config.queue_cap;
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_shared.exit.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let conn_shared = Arc::clone(&accept_shared);
                std::thread::spawn(move || handle_connection(stream, &conn_shared, queue_cap));
            }
        });

        Ok(Server {
            addr,
            shared,
            accept_thread: Some(accept_thread),
            workers,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the server exits (a drain request completed). Worker
    /// and accept threads are joined.
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    /// Initiates drain from the hosting process (same as `POST /drain`)
    /// and waits for it to finish.
    pub fn drain_and_join(self) {
        drain_wait(&self.shared);
        release_accept_loop(&self.shared);
        self.join();
    }
}

/// Marks the server draining and waits for the queue and workers to
/// empty. Does *not* stop the listener — the caller decides when (the
/// HTTP drain handler must write its response first).
fn drain_wait(shared: &Shared) {
    let mut core = shared.state.lock().expect("state lock");
    core.draining = true;
    shared.work_cv.notify_all();
    while !core.queue.is_empty() || core.active > 0 {
        core = shared.idle_cv.wait(core).expect("idle wait");
    }
}

/// Flags the accept loop to exit and unblocks it with a throwaway
/// connection.
fn release_accept_loop(shared: &Shared) {
    shared.exit.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(shared.addr);
}

/// One worker: claim a queued job, run its missing shards through the
/// supervisor, journal each result, finalise.
fn worker_loop(shared: &Shared, policy: &SupervisorPolicy) {
    loop {
        let (id, spec, todo) = {
            let mut core = shared.state.lock().expect("state lock");
            loop {
                if let Some(id) = core.queue.pop_front() {
                    core.active += 1;
                    let job = core.jobs.get_mut(&id).expect("queued job exists");
                    job.status = JobStatus::Running;
                    let spec = job.spec.clone();
                    let total = spec.shard_count();
                    let todo: Vec<u32> =
                        (0..total).filter(|s| !job.shards.contains_key(s)).collect();
                    break (id, spec, todo);
                }
                if core.draining {
                    return;
                }
                core = shared.work_cv.wait(core).expect("work wait");
            }
        };

        let mut failed = false;
        for shard in todo {
            match run_supervised(&spec, shard, policy) {
                Ok(result) => {
                    let mut core = shared.state.lock().expect("state lock");
                    let record = Json::obj(vec![
                        ("t", Json::str("shard")),
                        ("id", Json::u64(id)),
                        ("shard", Json::u64(u64::from(shard))),
                        ("result", result.clone()),
                    ]);
                    if let Err(e) = core.wal.append(&record) {
                        let job = core.jobs.get_mut(&id).expect("job exists");
                        job.status = JobStatus::Failed(format!("journal write failed: {e}"));
                        failed = true;
                        break;
                    }
                    core.shards_executed += 1;
                    core.jobs
                        .get_mut(&id)
                        .expect("job exists")
                        .shards
                        .insert(shard, result);
                }
                Err(e) => {
                    let mut core = shared.state.lock().expect("state lock");
                    let record = Json::obj(vec![
                        ("t", Json::str("failed")),
                        ("id", Json::u64(id)),
                        ("error", Json::str(e.to_string())),
                    ]);
                    let reason = with_journal_error(e.to_string(), core.wal.append(&record));
                    core.jobs.get_mut(&id).expect("job exists").status = JobStatus::Failed(reason);
                    failed = true;
                    break;
                }
            }
        }

        if !failed {
            let mut core = shared.state.lock().expect("state lock");
            let job = core.jobs.get_mut(&id).expect("job exists");
            let shards: Vec<Json> = job.shards.values().cloned().collect();
            match finalize(&job.spec, &shards) {
                Ok(fin) => {
                    let record = Json::obj(vec![
                        ("t", Json::str("done")),
                        ("id", Json::u64(id)),
                        ("digest", Json::str(digest_hex(fin.digest))),
                    ]);
                    match core.wal.append(&record) {
                        Ok(()) => {
                            let key = core.jobs.get(&id).expect("job exists").key;
                            core.cache.insert(key, fin.clone());
                            core.jobs.get_mut(&id).expect("job exists").status =
                                JobStatus::Done(fin);
                        }
                        Err(e) => {
                            core.jobs.get_mut(&id).expect("job exists").status =
                                JobStatus::Failed(format!("journal write failed: {e}"));
                        }
                    }
                }
                Err(e) => {
                    let record = Json::obj(vec![
                        ("t", Json::str("failed")),
                        ("id", Json::u64(id)),
                        ("error", Json::str(e.clone())),
                    ]);
                    let reason = with_journal_error(e, core.wal.append(&record));
                    core.jobs.get_mut(&id).expect("job exists").status = JobStatus::Failed(reason);
                }
            }
        }

        let mut core = shared.state.lock().expect("state lock");
        core.active -= 1;
        if core.queue.is_empty() && core.active == 0 {
            shared.idle_cv.notify_all();
        }
    }
}

/// A job's failure message, extended with the error of the journal write
/// that should have recorded the failure, if that write failed too.
fn with_journal_error(reason: String, journaled: std::io::Result<()>) -> String {
    match journaled {
        Ok(()) => reason,
        Err(e) => format!("{reason}; journal write failed: {e}"),
    }
}

/// Routes one HTTP connection.
fn handle_connection(mut stream: TcpStream, shared: &Shared, queue_cap: usize) {
    let request = match read_request(&mut stream) {
        Ok(r) => r,
        Err(e) => {
            let _ = write_response(&mut stream, 400, &[], &error_body(&e.to_string()));
            return;
        }
    };
    // Drain is special: finish all admitted work, answer the client, and
    // only then release the accept loop — otherwise the process can exit
    // before the response bytes leave the socket.
    if request.method == "POST" && request.path == "/drain" {
        drain_wait(shared);
        let body = {
            let core = shared.state.lock().expect("state lock");
            Json::obj(vec![
                ("drained", Json::Bool(true)),
                ("jobs", Json::u64(core.jobs.len() as u64)),
            ])
            .to_string()
        };
        let _ = write_response(&mut stream, 200, &[], &body);
        release_accept_loop(shared);
        return;
    }
    let (status, headers, body) = route(&request, shared, queue_cap);
    let _ = write_response(&mut stream, status, &headers, &body);
}

fn route(
    request: &Request,
    shared: &Shared,
    queue_cap: usize,
) -> (u16, Vec<(&'static str, String)>, String) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            let core = shared.state.lock().expect("state lock");
            let status = if core.wal.is_stranded() { 503 } else { 200 };
            (status, vec![], core.health_json().to_string())
        }
        ("GET", "/jobs") => {
            let core = shared.state.lock().expect("state lock");
            let list: Vec<Json> = core
                .jobs
                .iter()
                .map(|(&id, job)| core.job_json(id, job))
                .collect();
            (
                200,
                vec![],
                Json::obj(vec![("jobs", Json::Arr(list))]).to_string(),
            )
        }
        ("GET", path) if path.starts_with("/jobs/") => {
            let Ok(id) = path["/jobs/".len()..].parse::<u64>() else {
                return (400, vec![], error_body("bad job id"));
            };
            let core = shared.state.lock().expect("state lock");
            match core.jobs.get(&id) {
                Some(job) => (200, vec![], core.job_json(id, job).to_string()),
                None => (404, vec![], error_body("no such job")),
            }
        }
        ("POST", "/jobs") => submit(&request.body, shared, queue_cap),
        ("GET", _) | ("POST", _) => (404, vec![], error_body("no such endpoint")),
        _ => (405, vec![], error_body("method not allowed")),
    }
}

/// Admission: cache check, capacity check, durable append — one lock.
fn submit(
    body: &str,
    shared: &Shared,
    queue_cap: usize,
) -> (u16, Vec<(&'static str, String)>, String) {
    let parsed = match Json::parse(body) {
        Ok(v) => v,
        Err(e) => return (400, vec![], error_body(&format!("bad JSON: {e}"))),
    };
    let spec = match JobSpec::from_json(&parsed) {
        Ok(s) => s,
        Err(e) => return (400, vec![], error_body(&e)),
    };

    let mut core = shared.state.lock().expect("state lock");
    if core.draining {
        return (503, vec![], error_body("server is draining"));
    }
    let nd = core.netlist_digest(&spec);
    let key = spec.cache_key(nd);
    if let Some(fin) = core.cache.lookup(key) {
        let body = Json::obj(vec![
            ("status", Json::str("cached")),
            ("key", Json::str(digest_hex(key))),
            ("result", fin.result),
        ])
        .to_string();
        return (200, vec![], body);
    }
    if core.wal.is_stranded() {
        // Admitting means journalling, and this journal refuses appends
        // until a restart heals it.
        return (
            503,
            vec![],
            error_body("journal stranded; restart the server"),
        );
    }
    if core.queue.len() >= queue_cap {
        // Backpressure: hint a retry after roughly one queue turn.
        return (
            429,
            vec![("retry-after", "1".to_string())],
            error_body("queue full, retry later"),
        );
    }
    let id = core.next_id;
    core.next_id += 1;
    if let Err(e) = core.wal.append(&wal_job_record(id, &spec, key)) {
        return (
            500,
            vec![],
            error_body(&format!("journal write failed: {e}")),
        );
    }
    let shards_total = spec.shard_count();
    core.jobs.insert(
        id,
        JobRecord {
            spec,
            key,
            shards: BTreeMap::new(),
            status: JobStatus::Queued,
        },
    );
    core.queue.push_back(id);
    shared.work_cv.notify_one();
    let body = Json::obj(vec![
        ("id", Json::u64(id)),
        ("status", Json::str("queued")),
        ("key", Json::str(digest_hex(key))),
        ("shards_total", Json::u64(u64::from(shards_total))),
    ])
    .to_string();
    (202, vec![], body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_wal(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sfq-serve-srvtest-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn start_submit_complete_and_cache_round_trip() {
        let wal = tmp_wal("roundtrip");
        let _ = std::fs::remove_file(&wal);
        let server = Server::start(ServerConfig::new(&wal)).expect("start");
        let addr = server.addr().to_string();

        let spec = r#"{"kind":"lint","design":"hiperrf"}"#;
        let (status, body) =
            crate::http::roundtrip(&addr, "POST", "/jobs", Some(spec)).expect("submit");
        assert_eq!(status, 202, "body: {body}");
        let id = Json::parse(&body)
            .unwrap()
            .get("id")
            .and_then(Json::as_u64)
            .expect("id");

        let result = crate::client::wait_for_job(&addr, id, 30_000).expect("completes");
        assert_eq!(result.get("status").and_then(Json::as_str), Some("done"));
        let digest = result
            .get("result")
            .and_then(|r| r.get("digest"))
            .and_then(Json::as_str)
            .expect("digest")
            .to_string();

        // Identical resubmission: served from cache, no new job id.
        let (status, body) =
            crate::http::roundtrip(&addr, "POST", "/jobs", Some(spec)).expect("resubmit");
        assert_eq!(status, 200, "body: {body}");
        let cached = Json::parse(&body).unwrap();
        assert_eq!(cached.get("status").and_then(Json::as_str), Some("cached"));
        assert_eq!(
            cached
                .get("result")
                .and_then(|r| r.get("digest"))
                .and_then(Json::as_str),
            Some(digest.as_str())
        );

        let (status, body) = crate::http::roundtrip(&addr, "POST", "/drain", None).expect("drain");
        assert_eq!(status, 200, "body: {body}");
        server.join();
        let _ = std::fs::remove_file(&wal);
    }

    #[test]
    fn invalid_specs_are_rejected_not_queued() {
        let wal = tmp_wal("badspec");
        let _ = std::fs::remove_file(&wal);
        let server = Server::start(ServerConfig::new(&wal)).expect("start");
        let addr = server.addr().to_string();
        for bad in [
            "not json",
            r#"{"kind":"transmute"}"#,
            r#"{"kind":"lint","registers":3}"#,
            r#"{"kind":"lint","frobnicate":1}"#,
        ] {
            let (status, _) =
                crate::http::roundtrip(&addr, "POST", "/jobs", Some(bad)).expect("submit");
            assert_eq!(status, 400, "spec {bad:?} must be rejected");
        }
        let (status, body) =
            crate::http::roundtrip(&addr, "GET", "/healthz", None).expect("health");
        assert_eq!(status, 200);
        let health = Json::parse(&body).unwrap();
        assert_eq!(health.get("jobs").and_then(Json::as_u64), Some(0));
        server.drain_and_join();
        let _ = std::fs::remove_file(&wal);
    }

    #[test]
    fn a_stranded_journal_answers_503_to_health_and_new_work() {
        let wal = tmp_wal("stranded");
        let _ = std::fs::remove_file(&wal);
        let server = Server::start(ServerConfig::new(&wal)).expect("start");
        let addr = server.addr().to_string();
        let spec = r#"{"kind":"lint","design":"hiperrf"}"#;
        let (status, queued) = crate::client::submit(&addr, spec).expect("submit");
        assert_eq!(status, 202, "{queued}");
        let id = queued.get("id").and_then(Json::as_u64).expect("id");
        crate::client::wait_for_job(&addr, id, 30_000).expect("completes");
        let health = crate::client::health(&addr).expect("healthy");
        assert_eq!(health.get("journal").and_then(Json::as_str), Some("ok"));

        let record = Json::obj(vec![("t", Json::str("probe"))]);
        let stranding = server
            .shared
            .state
            .lock()
            .expect("state lock")
            .wal
            .strand_with(&record);
        assert!(stranding.is_err(), "the failing write is not acknowledged");

        let (status, body) =
            crate::http::roundtrip(&addr, "GET", "/healthz", None).expect("health");
        assert_eq!(status, 503, "{body}");
        let health = Json::parse(&body).unwrap();
        assert_eq!(health.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            health.get("journal").and_then(Json::as_str),
            Some("stranded")
        );
        let err = crate::client::health(&addr).expect_err("not healthy");
        assert!(err.to_string().contains("stranded"), "{err}");

        let miss = r#"{"kind":"lint","design":"ndro"}"#;
        let (status, body) =
            crate::http::roundtrip(&addr, "POST", "/jobs", Some(miss)).expect("submit");
        assert_eq!(status, 503, "{body}");
        assert!(
            body.contains("journal stranded; restart the server"),
            "{body}"
        );
        let (status, cached) = crate::client::submit(&addr, spec).expect("resubmit");
        assert_eq!(status, 200, "cache hits need no journal: {cached}");
        let (status, body) = crate::http::roundtrip(&addr, "GET", "/jobs", None).expect("list");
        assert_eq!(status, 200, "{body}");
        let (status, body) =
            crate::http::roundtrip(&addr, "GET", &format!("/jobs/{id}"), None).expect("job");
        assert_eq!(status, 200, "{body}");

        server.drain_and_join();
        let _ = std::fs::remove_file(&wal);
    }

    #[test]
    fn journalled_jobs_past_the_admission_bounds_replay_as_failed() {
        // A journal written before the bounds existed: replay must keep
        // the job (as failed) instead of refusing the WAL or running it.
        let wal = tmp_wal("oversize-replay");
        let _ = std::fs::remove_file(&wal);
        {
            let (mut journal, _) = Wal::open(&wal).expect("open journal");
            let spec = JobSpec {
                kind: crate::job::JobKind::Lint,
                registers: 65_536,
                ..JobSpec::default()
            };
            journal
                .append(&wal_job_record(1, &spec, 0xfeed))
                .expect("append");
        }
        let server = Server::start(ServerConfig::new(&wal)).expect("the journal replays");
        let addr = server.addr().to_string();
        let (status, body) =
            crate::http::roundtrip(&addr, "GET", "/jobs/1", None).expect("job status");
        assert_eq!(status, 200, "body: {body}");
        let doc = Json::parse(&body).unwrap();
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("failed"));
        let error = doc.get("error").and_then(Json::as_str).expect("error");
        assert!(error.contains("registers must be at most 256"), "{error}");
        server.drain_and_join();
        let _ = std::fs::remove_file(&wal);
    }

    #[test]
    fn a_journalled_chaos_field_past_u32_refuses_replay() {
        // Admission never journals such a value, so the journal is not
        // one this server wrote: refuse it rather than wrap to shard 0.
        let wal = tmp_wal("chaos-replay");
        let _ = std::fs::remove_file(&wal);
        {
            let (mut journal, _) = Wal::open(&wal).expect("open journal");
            let chaos = Json::obj(vec![
                ("shard", Json::u64(1 << 32)),
                ("fail_attempts", Json::u64(1)),
            ]);
            let Json::Obj(mut record) = wal_job_record(1, &JobSpec::default(), 0xfeed) else {
                unreachable!("a job record is an object");
            };
            record.push(("chaos".to_string(), chaos));
            journal.append(&Json::Obj(record)).expect("append");
        }
        let Err(err) = Server::start(ServerConfig::new(&wal)) else {
            panic!("the journal must be refused");
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("job 1: chaos.shard out of range"),
            "{err}"
        );
        let _ = std::fs::remove_file(&wal);
    }

    #[test]
    fn unfinished_jobs_under_a_stale_cache_key_replay_as_failed() {
        // A job journalled by a build whose netlists hashed differently
        // and unfinished at shutdown: replay must not resume it under the
        // old key, nor run any of its shards.
        let wal = tmp_wal("stale-key-replay");
        let _ = std::fs::remove_file(&wal);
        {
            let (mut journal, _) = Wal::open(&wal).expect("open journal");
            let spec = JobSpec {
                kind: crate::job::JobKind::Lint,
                ..JobSpec::default()
            };
            spec.check_admissible().expect("admissible");
            journal
                .append(&wal_job_record(1, &spec, 0xfeed))
                .expect("append");
        }
        let server = Server::start(ServerConfig::new(&wal)).expect("the journal replays");
        let addr = server.addr().to_string();
        let (status, body) =
            crate::http::roundtrip(&addr, "GET", "/jobs/1", None).expect("job status");
        assert_eq!(status, 200, "body: {body}");
        let doc = Json::parse(&body).unwrap();
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("failed"));
        let error = doc.get("error").and_then(Json::as_str).expect("error");
        assert!(
            error.contains(&digest_hex(0xfeed)) && error.contains("vs current"),
            "the error names both keys: {error}"
        );
        let health = crate::client::health(&addr).expect("healthy");
        assert_eq!(health.get("jobs_resumed").and_then(Json::as_u64), Some(0));
        assert_eq!(
            health.get("shards_executed").and_then(Json::as_u64),
            Some(0)
        );
        server.drain_and_join();
        let _ = std::fs::remove_file(&wal);
    }
}
