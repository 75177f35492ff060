//! Kill-and-resume differential test against the *real* server binary:
//! `SIGKILL` mid-batch (a sharded `margins` job and a sharded `yield`
//! job), restart on the same journal, and require the resumed job's
//! digest to be byte-identical to an uninterrupted run — plus the cache
//! contract: a repeated identical job is served from cache with zero new
//! shard executions.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use sfq_serve::json::Json;
use sfq_serve::{client, Server, ServerConfig};

fn tmp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sfq-serve-kill-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).expect("mkdir");
    p
}

/// Six one-trial shards, each slowed to 150 ms so the kill window is wide.
const SPEC: &str =
    r#"{"kind":"margins","design":"hiperrf","trials":6,"shard_len":1,"seed":"271828182845"}"#;

/// Starts the real `sfq-serve` binary and waits until it answers.
fn spawn_server(wal: &Path, addr_file: &Path, shard_delay_ms: u64) -> (Child, String) {
    let _ = std::fs::remove_file(addr_file);
    let child = Command::new(env!("CARGO_BIN_EXE_sfq-serve"))
        .args([
            "run",
            "--wal",
            wal.to_str().expect("utf8 path"),
            "--addr",
            "127.0.0.1:0",
            "--addr-file",
            addr_file.to_str().expect("utf8 path"),
            "--shard-delay-ms",
            &shard_delay_ms.to_string(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sfq-serve");
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        if let Ok(text) = std::fs::read_to_string(addr_file) {
            if !text.is_empty() {
                break text;
            }
        }
        assert!(
            Instant::now() < deadline,
            "server never published its address"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    client::wait_healthy(&addr, 10_000).expect("server healthy");
    (child, addr)
}

/// Runs `spec` uninterrupted on an in-process server journalling to
/// `wal` and returns the finished job's digest.
fn uninterrupted_digest(wal: &Path, spec: &str) -> String {
    let server = Server::start(ServerConfig::new(wal)).expect("baseline start");
    let addr = server.addr().to_string();
    let (status, body) = client::submit(&addr, spec).expect("baseline submit");
    assert_eq!(status, 202, "body: {body}");
    let doc = client::wait_for_job(
        &addr,
        body.get("id").and_then(Json::as_u64).expect("id"),
        60_000,
    )
    .expect("baseline completes");
    let digest = doc
        .get("result")
        .and_then(|r| r.get("digest"))
        .and_then(Json::as_str)
        .expect("digest")
        .to_string();
    server.drain_and_join();
    digest
}

/// Runs `spec` uninterrupted in-process for the reference digest, then
/// on the real binary with slowed shards: SIGKILL once at least two of
/// its `shards` are durable but the batch is still running, restart on
/// the same journal, and require the resumed job to finish with the
/// reference digest. Returns the resumed server, its address, and the
/// digest.
fn kill_mid_batch_and_resume(dir: &Path, spec: &str, shards: u64) -> (Child, String, String) {
    let wal = dir.join("jobs.wal");
    let addr_file = dir.join("addr");

    // Uninterrupted baseline, in-process on a separate journal.
    let want_digest = uninterrupted_digest(&dir.join("baseline.wal"), spec);

    // Real binary, slowed shards; SIGKILL once at least two shards are
    // durable but the batch is still running.
    let (mut child, addr) = spawn_server(&wal, &addr_file, 150);
    let (status, body) = client::submit(&addr, spec).expect("submit");
    assert_eq!(status, 202, "body: {body}");
    let id = body.get("id").and_then(Json::as_u64).expect("id");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let doc = client::job_status(&addr, id).expect("status");
        let done = doc.get("shards_done").and_then(Json::as_u64).unwrap_or(0);
        let state = doc.get("status").and_then(Json::as_str).unwrap_or("");
        assert_ne!(state, "done", "test must kill the server mid-batch");
        if done >= 2 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "never reached two durable shards"
        );
        std::thread::sleep(Duration::from_millis(15));
    }
    child.kill().expect("SIGKILL");
    let _ = child.wait();

    // Restart on the same journal: the job must resume from its durable
    // shards and finish with the baseline digest.
    let (child, addr) = spawn_server(&wal, &addr_file, 0);
    let health = client::health(&addr).expect("health");
    assert!(
        health.get("jobs_resumed").and_then(Json::as_u64) >= Some(1),
        "restart must re-queue the interrupted job: {health}"
    );
    assert!(
        health.get("shards_replayed").and_then(Json::as_u64) >= Some(2),
        "durable shards must replay, not re-run: {health}"
    );
    let doc = client::wait_for_job(&addr, id, 60_000).expect("resumed job completes");
    assert_eq!(
        doc.get("status").and_then(Json::as_str),
        Some("done"),
        "{doc}"
    );
    assert_eq!(
        doc.get("result")
            .and_then(|r| r.get("digest"))
            .and_then(Json::as_str),
        Some(want_digest.as_str()),
        "resumed digest must be byte-identical to the uninterrupted run"
    );
    assert_eq!(doc.get("shards_done").and_then(Json::as_u64), Some(shards));
    (child, addr, want_digest)
}

#[test]
fn sigkill_mid_batch_resumes_to_the_uninterrupted_digest() {
    let dir = tmp_dir("diff");
    let (mut child, addr, want_digest) = kill_mid_batch_and_resume(&dir, SPEC, 6);

    // Cache contract: the identical spec is now served from cache — HTTP
    // 200, same digest, and the shard-execution counter does not move.
    let before = client::health(&addr)
        .expect("health")
        .get("shards_executed")
        .and_then(Json::as_u64)
        .expect("counter");
    let (status, body) = client::submit(&addr, SPEC).expect("cached submit");
    assert_eq!(status, 200, "body: {body}");
    assert_eq!(body.get("status").and_then(Json::as_str), Some("cached"));
    assert_eq!(
        body.get("result")
            .and_then(|r| r.get("digest"))
            .and_then(Json::as_str),
        Some(want_digest.as_str())
    );
    let after = client::health(&addr)
        .expect("health")
        .get("shards_executed")
        .and_then(Json::as_u64)
        .expect("counter");
    assert_eq!(before, after, "a cache hit must run zero new shards");

    client::drain(&addr).expect("drain");
    let status = child.wait().expect("server exits after drain");
    assert!(status.success(), "drained server exits cleanly: {status}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkill_mid_yield_batch_resumes_to_the_uninterrupted_digest() {
    // Yield trials rewind one register file between their σ probes; a
    // shard cut short by SIGKILL and re-run after restart must still
    // reproduce the uninterrupted critical σ values bit for bit.
    let dir = tmp_dir("yield");
    let spec = r#"{"kind":"yield","design":"hiperrf","registers":4,"width":4,"trials":8,"shard_len":2,"seed":"161803398"}"#;
    let (mut child, addr, _) = kill_mid_batch_and_resume(&dir, spec, 4);
    client::drain(&addr).expect("drain");
    let status = child.wait().expect("server exits after drain");
    assert!(status.success(), "drained server exits cleanly: {status}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_server_replays_completed_jobs_into_the_cache() {
    let dir = tmp_dir("cache-replay");
    let wal = dir.join("jobs.wal");
    let addr_file = dir.join("addr");
    let spec = r#"{"kind":"lint","design":"dual"}"#;

    let (mut child, addr) = spawn_server(&wal, &addr_file, 0);
    let (status, body) = client::submit(&addr, spec).expect("submit");
    assert_eq!(status, 202, "body: {body}");
    let id = body.get("id").and_then(Json::as_u64).expect("id");
    let doc = client::wait_for_job(&addr, id, 60_000).expect("completes");
    let digest = doc
        .get("result")
        .and_then(|r| r.get("digest"))
        .and_then(Json::as_str)
        .expect("digest")
        .to_string();
    child.kill().expect("SIGKILL");
    let _ = child.wait();

    // After an unclean death, the finished result must come back from the
    // journal as a cache entry — resubmission is a hit, not a re-run.
    let (mut child, addr) = spawn_server(&wal, &addr_file, 0);
    let (status, body) = client::submit(&addr, spec).expect("resubmit");
    assert_eq!(status, 200, "body: {body}");
    assert_eq!(body.get("status").and_then(Json::as_str), Some("cached"));
    assert_eq!(
        body.get("result")
            .and_then(|r| r.get("digest"))
            .and_then(Json::as_str),
        Some(digest.as_str())
    );
    client::drain(&addr).expect("drain");
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
