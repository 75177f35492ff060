//! What a result is tagged with — the code it measured and the host it
//! ran on — plus the peak-memory probe and the CPU clock.
//!
//! Numbers are only comparable within one host fingerprint.

use std::fs;
use std::path::Path;

use hiperrf::hashing::{digest_hex, Fnv64};
use sfq_serve::Json;

/// The git revision checked out at `root` (read from `.git` directly, so
/// no process is started), or `"none"` outside a git checkout.
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "none".to_string())
}

/// FNV-1a digest over the sources the benchmark builds (`crates/`, the
/// root manifest and lock file, and the benchmark itself) — identifies
/// the code where no git revision is available.
pub fn tree_digest(root: &Path) -> String {
    let mut files = Vec::new();
    for top in ["crates", "perfbench/src"] {
        collect(&root.join(top), &mut files);
    }
    for f in ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"] {
        files.push(root.join(f));
    }
    files.sort();
    let mut h = Fnv64::new();
    for f in files {
        if let Ok(bytes) = fs::read(&f) {
            h.write_str(&f.strip_prefix(root).unwrap_or(&f).to_string_lossy());
            h.write(&bytes);
        }
    }
    digest_hex(h.finish())
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let path = e.path();
        if path.is_dir() {
            collect(&path, out);
        } else {
            out.push(path);
        }
    }
}

fn first_line_after(text: &str, key: &str) -> Option<String> {
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Size of the first unified level-2 cache, as the kernel reports it.
fn l2_size() -> String {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    for i in 0..8 {
        let idx = base.join(format!("index{i}"));
        let level = fs::read_to_string(idx.join("level")).unwrap_or_default();
        if level.trim() == "2" {
            if let Ok(size) = fs::read_to_string(idx.join("size")) {
                return size.trim().to_string();
            }
        }
    }
    "unknown".to_string()
}

/// Host fingerprint: CPU model, usable cores, L2 size, kernel, compiler.
pub fn fingerprint() -> Json {
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| first_line_after(&t, "model name"))
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    Json::obj(vec![
        ("cpu", Json::str(cpu)),
        ("nproc", Json::u64(nproc as u64)),
        ("l2", Json::str(l2_size())),
        ("kernel", Json::str(kernel)),
        ("rustc", Json::str(env!("PERFBENCH_RUSTC"))),
    ])
}

/// Peak resident set (`VmHWM`) of process `pid` (`None` = this process),
/// in MB (10^6 bytes); `None` when the kernel does not report it.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = pid.map_or_else(
        || "/proc/self/status".to_string(),
        |p| format!("/proc/{p}/status"),
    );
    let status = fs::read_to_string(path).ok()?;
    let kb: f64 = first_line_after(&status, "VmHWM")?
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024.0 / 1e6)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has run, in seconds.
///
/// Unlike wall time, it leaves out time the thread waited for a CPU, and
/// on a paravirtualised guest time the hypervisor stole from the vCPU.
/// On a shared host these swing by a fifth or more over a minute, so
/// workloads that run their measured code on one thread time it with
/// this clock.
pub fn thread_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` through a valid,
    // exclusively borrowed pointer; `Timespec` matches its C layout on
    // 64-bit Linux.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Seconds the hypervisor has stolen from this guest's vCPUs since boot,
/// averaged over the vCPUs (the `steal` column of `/proc/stat`, in
/// `USER_HZ` = 100 ticks per second); 0 where the kernel does not report
/// it.
pub fn stolen_s() -> f64 {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(total) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return 0.0;
    };
    let ticks: f64 = total
        .split_whitespace()
        .nth(8)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    let vcpus = stat.lines().filter(|l| l.starts_with("cpu")).count() - 1;
    ticks / 100.0 / vcpus.max(1) as f64
}

/// CPU time run by the live threads of process `pid`, in seconds (the
/// first field of each `/proc/<pid>/task/*/schedstat`, which leaves out
/// stolen time like [`thread_cpu_s`]). Exact for threads that are
/// blocked when it is read; a thread that exits while it is read is left
/// out.
pub fn process_cpu_s(pid: u32) -> Option<f64> {
    let tasks = fs::read_dir(format!("/proc/{pid}/task")).ok()?;
    let mut ns = 0u64;
    for task in tasks.flatten() {
        let Ok(stat) = fs::read_to_string(task.path().join("schedstat")) else {
            continue;
        };
        ns += stat.split_whitespace().next()?.parse::<u64>().ok()?;
    }
    Some(ns as f64 * 1e-9)
}
