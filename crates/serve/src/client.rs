//! Blocking client helpers: submit, poll, drain.
//!
//! Used by the CLI, the `repro serve` smoke section, and the integration
//! tests — one implementation of the polling/backoff etiquette the server
//! expects (honouring `Retry-After` on `429`).

use std::io;
use std::time::{Duration, Instant};

use crate::http::{roundtrip, roundtrip_with_headers};
use crate::json::Json;

fn parse_body(body: &str) -> io::Result<Json> {
    Json::parse(body).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad response JSON: {e}"),
        )
    })
}

/// `GET /healthz`, parsed. A non-200 answer is an error that carries the
/// body, which says why the server is unhealthy.
pub fn health(addr: &str) -> io::Result<Json> {
    let (status, body) = roundtrip(addr, "GET", "/healthz", None)?;
    if status != 200 {
        return Err(io::Error::other(format!(
            "healthz returned {status}: {body}"
        )));
    }
    parse_body(&body)
}

/// Polls `/healthz` until the server answers or the timeout elapses.
pub fn wait_healthy(addr: &str, timeout_ms: u64) -> io::Result<Json> {
    let deadline = Instant::now() + Duration::from_millis(timeout_ms);
    loop {
        match health(addr) {
            Ok(h) => return Ok(h),
            Err(e) if Instant::now() >= deadline => {
                return Err(io::Error::other(format!(
                    "server at {addr} not healthy within {timeout_ms} ms: {e}"
                )))
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Submits a job spec. Returns the HTTP status and parsed body — callers
/// distinguish `200` (cached), `202` (queued), `429` (backpressure).
pub fn submit(addr: &str, spec: &str) -> io::Result<(u16, Json)> {
    let (status, body) = roundtrip(addr, "POST", "/jobs", Some(spec))?;
    Ok((status, parse_body(&body)?))
}

/// Submits with bounded retry on `429`, honouring `Retry-After`.
pub fn submit_with_backoff(addr: &str, spec: &str, max_tries: u32) -> io::Result<(u16, Json)> {
    let mut tries = 0;
    loop {
        let (status, headers, body) = roundtrip_with_headers(addr, "POST", "/jobs", Some(spec))?;
        tries += 1;
        if status != 429 || tries >= max_tries {
            return Ok((status, parse_body(&body)?));
        }
        let retry_after_ms = headers
            .iter()
            .find(|(n, _)| n == "retry-after")
            .and_then(|(_, v)| v.parse::<u64>().ok())
            .map_or(100, |s| s * 1000);
        std::thread::sleep(Duration::from_millis(retry_after_ms.min(1000)));
    }
}

/// Fetches one job's status document.
pub fn job_status(addr: &str, id: u64) -> io::Result<Json> {
    let (status, body) = roundtrip(addr, "GET", &format!("/jobs/{id}"), None)?;
    if status != 200 {
        return Err(io::Error::other(format!(
            "job {id} returned {status}: {body}"
        )));
    }
    parse_body(&body)
}

/// Polls a job until it is `done` or `failed` (either is a valid terminal
/// state — the caller inspects the document). Errors on timeout.
pub fn wait_for_job(addr: &str, id: u64, timeout_ms: u64) -> io::Result<Json> {
    let deadline = Instant::now() + Duration::from_millis(timeout_ms);
    loop {
        let doc = job_status(addr, id)?;
        match doc.get("status").and_then(Json::as_str) {
            Some("done") | Some("failed") => return Ok(doc),
            _ if Instant::now() >= deadline => {
                return Err(io::Error::other(format!(
                    "job {id} not terminal within {timeout_ms} ms"
                )))
            }
            _ => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

/// `POST /drain`: blocks until the server has finished all admitted work
/// and is about to exit.
pub fn drain(addr: &str) -> io::Result<Json> {
    let (status, body) = roundtrip(addr, "POST", "/drain", None)?;
    if status != 200 {
        return Err(io::Error::other(format!("drain returned {status}: {body}")));
    }
    parse_body(&body)
}
