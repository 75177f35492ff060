//! HTTP contract tests: backpressure (429 + Retry-After), retry
//! supervision via chaos injection, and graceful drain.

use std::path::PathBuf;

use sfq_serve::http::roundtrip_with_headers;
use sfq_serve::json::Json;
use sfq_serve::{client, Server, ServerConfig, SupervisorPolicy};

fn tmp_wal(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sfq-serve-http-{name}-{}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn slow_margins_spec(seed: u64) -> String {
    format!(r#"{{"kind":"margins","design":"hiperrf","trials":2,"shard_len":1,"seed":"{seed}"}}"#)
}

#[test]
fn full_queue_answers_429_with_retry_after_and_recovers() {
    let wal = tmp_wal("backpressure");
    let mut config = ServerConfig::new(&wal);
    config.workers = 1;
    config.queue_cap = 1;
    config.policy = SupervisorPolicy {
        shard_delay_ms: 200, // keep the worker busy so the queue backs up
        ..SupervisorPolicy::default()
    };
    let server = Server::start(config).expect("start");
    let addr = server.addr().to_string();

    // Job 1 is claimed by the single worker; wait until it is running so
    // the queue is empty and its depth deterministic.
    let (status, body) = client::submit(&addr, &slow_margins_spec(1)).expect("submit 1");
    assert_eq!(status, 202, "body: {body}");
    let id1 = body.get("id").and_then(Json::as_u64).expect("id");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let doc = client::job_status(&addr, id1).expect("status");
        if doc.get("status").and_then(Json::as_str) == Some("running") {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "job 1 never started");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    // Job 2 fills the queue (cap 1); job 3 must be pushed back.
    let (status, _) = client::submit(&addr, &slow_margins_spec(2)).expect("submit 2");
    assert_eq!(status, 202);
    let (status, headers, body) =
        roundtrip_with_headers(&addr, "POST", "/jobs", Some(&slow_margins_spec(3)))
            .expect("submit 3");
    assert_eq!(status, 429, "body: {body}");
    let retry_after = headers
        .iter()
        .find(|(n, _)| n == "retry-after")
        .map(|(_, v)| v.clone());
    assert_eq!(
        retry_after.as_deref(),
        Some("1"),
        "429 must carry Retry-After"
    );

    // Backpressure is advisory, not fatal: retrying per the hint lands the
    // job once the queue moves.
    let (status, body) =
        client::submit_with_backoff(&addr, &slow_margins_spec(3), 30).expect("retry loop");
    assert_eq!(status, 202, "body: {body}");
    let id3 = body.get("id").and_then(Json::as_u64).expect("id");
    let doc = client::wait_for_job(&addr, id3, 60_000).expect("job 3 completes");
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("done"));

    server.drain_and_join();
    let _ = std::fs::remove_file(&wal);
}

#[test]
fn chaos_panics_are_retried_then_contained() {
    let wal = tmp_wal("chaos");
    let mut config = ServerConfig::new(&wal);
    config.policy = SupervisorPolicy {
        max_attempts: 3,
        backoff_ms: 1,
        ..SupervisorPolicy::default()
    };
    let server = Server::start(config).expect("start");
    let addr = server.addr().to_string();

    // Two panics, then success: retries absorb the fault.
    let healing = r#"{"kind":"margins","design":"hiperrf","trials":2,"shard_len":1,
                      "seed":"41","chaos":{"shard":1,"fail_attempts":2}}"#;
    let (status, body) = client::submit(&addr, healing).expect("submit");
    assert_eq!(status, 202, "body: {body}");
    let id = body.get("id").and_then(Json::as_u64).expect("id");
    let doc = client::wait_for_job(&addr, id, 60_000).expect("completes");
    assert_eq!(
        doc.get("status").and_then(Json::as_str),
        Some("done"),
        "{doc}"
    );

    // Panics on every attempt: the job fails, the server survives.
    let hopeless = r#"{"kind":"margins","design":"hiperrf","trials":2,"shard_len":1,
                       "seed":"42","chaos":{"shard":0,"fail_attempts":4294967295}}"#;
    let (status, body) = client::submit(&addr, hopeless).expect("submit");
    assert_eq!(status, 202, "body: {body}");
    let id = body.get("id").and_then(Json::as_u64).expect("id");
    let doc = client::wait_for_job(&addr, id, 60_000).expect("terminates");
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("failed"));
    let error = doc.get("error").and_then(Json::as_str).expect("error");
    assert!(
        error.contains("3 attempts") && error.contains("panic"),
        "error must name the retry budget and cause: {error}"
    );

    // The process is still serving: a clean job right after the failure.
    let (status, body) =
        client::submit(&addr, r#"{"kind":"lint","design":"shift"}"#).expect("submit");
    assert_eq!(status, 202, "body: {body}");
    let id = body.get("id").and_then(Json::as_u64).expect("id");
    let doc = client::wait_for_job(&addr, id, 60_000).expect("completes");
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("done"));

    server.drain_and_join();
    let _ = std::fs::remove_file(&wal);
}

#[test]
fn drain_finishes_queued_work_then_refuses_admission() {
    let wal = tmp_wal("drain");
    let mut config = ServerConfig::new(&wal);
    config.workers = 1;
    config.policy = SupervisorPolicy {
        shard_delay_ms: 100,
        ..SupervisorPolicy::default()
    };
    let server = Server::start(config).expect("start");
    let addr = server.addr().to_string();

    let (status, body) = client::submit(&addr, &slow_margins_spec(77)).expect("submit");
    assert_eq!(status, 202, "body: {body}");
    let id = body.get("id").and_then(Json::as_u64).expect("id");

    // Drain blocks until the in-flight job is finished...
    let drained = client::drain(&addr).expect("drain");
    assert_eq!(drained.get("drained").and_then(Json::as_bool), Some(true));
    // ...so by the time it returns, the job must already be done (the
    // WAL has it; check via the journal since the listener is closing).
    let bytes = std::fs::read(&wal).expect("journal");
    let text = String::from_utf8(bytes).expect("utf8");
    assert!(
        text.lines().any(|l| l.contains(r#""t":"done""#)),
        "drain must complete admitted work first"
    );

    // Post-drain the server refuses new work: either the listener is
    // already gone (connection error) or the last connection sees 503.
    match client::submit(&addr, &slow_margins_spec(78)) {
        Err(_) => {}
        Ok((status, _)) => assert_eq!(status, 503, "draining server must refuse admission"),
    }
    server.join();
    let _ = id;
    let _ = std::fs::remove_file(&wal);
}

#[test]
fn unknown_routes_and_jobs_are_404() {
    let wal = tmp_wal("routes");
    let server = Server::start(ServerConfig::new(&wal)).expect("start");
    let addr = server.addr().to_string();
    let (status, _, _) = roundtrip_with_headers(&addr, "GET", "/nope", None).expect("roundtrip");
    assert_eq!(status, 404);
    let (status, _, _) =
        roundtrip_with_headers(&addr, "GET", "/jobs/999", None).expect("roundtrip");
    assert_eq!(status, 404);
    let (status, _, _) =
        roundtrip_with_headers(&addr, "DELETE", "/jobs/1", None).expect("roundtrip");
    assert_eq!(status, 405);
    let (status, _, body) = roundtrip_with_headers(&addr, "GET", "/jobs", None).expect("roundtrip");
    assert_eq!(status, 200);
    assert!(body.contains("jobs"));
    server.drain_and_join();
    let _ = std::fs::remove_file(&wal);
}

#[test]
fn deeply_nested_body_is_a_400_not_a_crash() {
    // A maximal body of nothing but `[` nests a million levels; the
    // parser must refuse it, not recurse through the connection
    // thread's stack — a stack overflow aborts the whole process.
    let wal = tmp_wal("nesting");
    let server = Server::start(ServerConfig::new(&wal)).expect("start");
    let addr = server.addr().to_string();
    let body = "[".repeat(1024 * 1024);
    let (status, _, reply) =
        roundtrip_with_headers(&addr, "POST", "/jobs", Some(&body)).expect("roundtrip");
    assert_eq!(status, 400, "body: {reply}");
    assert!(reply.contains("nest"), "the error names the cause: {reply}");
    let (status, _, _) = roundtrip_with_headers(&addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!(status, 200);
    server.drain_and_join();
    let _ = std::fs::remove_file(&wal);
}

#[test]
fn unjournalable_numbers_are_a_400_and_the_journal_still_replays() {
    // `1e400` overflows to infinity, which the journal can only write as
    // `null`; a negative σ panics every shard. Admission refuses both, so
    // nothing reaches the WAL that a restart could not replay.
    let wal = tmp_wal("overflow");
    let server = Server::start(ServerConfig::new(&wal)).expect("start");
    let addr = server.addr().to_string();
    for body in [
        r#"{"kind":"yield","design":"hiperrf","trials":2,"shard_len":1,"sigmas":[0.1,1e400]}"#,
        r#"{"kind":"simulate","design":"hiperrf","sigma":1e400}"#,
        r#"{"kind":"simulate","design":"hiperrf","sigma":-0.1}"#,
        r#"{"kind":"margins","design":"hiperrf","trials":1,"jitter_ps":-1e400}"#,
    ] {
        let (status, _, reply) =
            roundtrip_with_headers(&addr, "POST", "/jobs", Some(body)).expect("roundtrip");
        assert_eq!(status, 400, "{body}: {reply}");
        let (status, _, _) =
            roundtrip_with_headers(&addr, "GET", "/healthz", None).expect("healthz");
        assert_eq!(status, 200, "after {body}");
    }
    server.drain_and_join();
    let restarted = Server::start(ServerConfig::new(&wal)).expect("the journal replays");
    restarted.drain_and_join();
    let _ = std::fs::remove_file(&wal);
}

#[test]
fn oversize_requests_are_a_400_before_any_elaboration() {
    // Admission digests the design under the server's state lock, so a
    // 65 536-register geometry would stall every request (or exhaust
    // memory) if it got that far; a 66-bit width cannot hold a `u64`
    // value; a `u32`'s worth of trials would never finish; a σ of 1e300
    // scales delays past the simulator's event window; a jitter of 1e9 or
    // 1e308 ps skews writes into the past; and a dual-banked design of
    // two registers has no two-register banks to build, which panicked
    // under the lock and left every later request unanswered.
    let wal = tmp_wal("oversize");
    let server = Server::start(ServerConfig::new(&wal)).expect("start");
    let addr = server.addr().to_string();
    for (body, cause) in [
        (
            r#"{"kind":"lint","design":"ndro","registers":65536,"width":64}"#,
            "registers must be at most 256",
        ),
        (
            r#"{"kind":"simulate","design":"hiperrf","registers":4,"width":66}"#,
            "width must be at most 64",
        ),
        (
            r#"{"kind":"yield","design":"hiperrf","trials":4294967295}"#,
            "trials must be at most 4096",
        ),
        (
            r#"{"kind":"simulate","design":"hiperrf","sigma":1e300}"#,
            "sigma must be at most 1",
        ),
        (
            r#"{"kind":"simulate","design":"ndro","sigma":1.0000001}"#,
            "sigma must be at most 1",
        ),
        (
            r#"{"kind":"margins","design":"hiperrf","jitter_ps":1e9}"#,
            "jitter_ps must be at most 200 in magnitude",
        ),
        (
            r#"{"kind":"margins","design":"shift","jitter_ps":-1e308}"#,
            "jitter_ps must be at most 200 in magnitude",
        ),
        (
            r#"{"kind":"lint","design":"dual","registers":2,"width":2}"#,
            "each bank of the dual-banked design",
        ),
        (
            r#"{"kind":"lint","design":"dual","registers":3,"width":2}"#,
            "register count must be a power of two >= 2, got 3",
        ),
    ] {
        let (status, _, reply) =
            roundtrip_with_headers(&addr, "POST", "/jobs", Some(body)).expect("roundtrip");
        assert_eq!(status, 400, "{body}: {reply}");
        assert!(reply.contains(cause), "{body}: {reply}");
        let (status, _, _) =
            roundtrip_with_headers(&addr, "GET", "/healthz", None).expect("healthz");
        assert_eq!(status, 200, "after {body}");
    }
    server.drain_and_join();
    let _ = std::fs::remove_file(&wal);
}
