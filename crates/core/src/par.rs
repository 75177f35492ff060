//! Deterministic fork-join parallelism for Monte Carlo trials.
//!
//! The margin engine's trials are embarrassingly parallel *and* already
//! order-independent: every trial derives its own random stream with
//! [`Rng64::fork`](sfq_sim::rng::Rng64::fork)`(seed, trial_index)` — a pure
//! function of `(seed, index)`, one SplitMix64 mix of the XORed index — so
//! trial `i` computes the same result no matter which thread runs it or
//! how many trials ran before it. [`map_trials`] exploits that: it splits
//! the index range into contiguous chunks, runs each chunk on a scoped
//! `std::thread`, and reassembles results *by index*. The output is
//! therefore bit-identical for any thread count, including 1 — the
//! thread-invariance suite asserts it.
//!
//! Thread count selection ([`available_threads`]): the `HIPERRF_THREADS`
//! environment variable if set (the `repro --threads` flag sets it for the
//! process), else [`std::thread::available_parallelism`].

/// Environment variable overriding the default worker-thread count.
pub const THREADS_ENV: &str = "HIPERRF_THREADS";

/// The default number of worker threads: `HIPERRF_THREADS` if set to a
/// positive integer, otherwise the machine's available parallelism.
pub fn available_threads() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A trial closure panicked inside [`try_map_trials`].
///
/// The panic is contained on the worker thread and surfaced to the caller
/// as an error carrying the index of the first offending trial (in index
/// order) and its panic message — a supervisor can retry, skip, or fail
/// the batch without the whole process unwinding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialPanic {
    /// Index of the lowest-numbered trial that panicked.
    pub trial: u32,
    /// The panic payload, when it was a `&str` or `String` (the common
    /// `panic!`/`assert!` case); `"<non-string panic payload>"` otherwise.
    pub message: String,
}

impl std::fmt::Display for TrialPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trial {} panicked: {}", self.trial, self.message)
    }
}

impl std::error::Error for TrialPanic {}

/// Renders a `catch_unwind` payload as a best-effort message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs `f(0) .. f(trials - 1)` across up to `threads` scoped threads and
/// returns the results in index order.
///
/// `f` must be a pure function of its index (give each trial its own
/// forked RNG stream); then the returned vector is bit-identical for every
/// `threads` value. With `threads <= 1` or a single trial the closure runs
/// on the calling thread — no spawn overhead on the sequential path.
///
/// # Panics
///
/// Re-panics on the calling thread if any trial panicked, with the trial
/// index in the message. Callers that must survive a poisoned trial (the
/// job-server supervisor) use [`try_map_trials`] instead.
pub fn map_trials<T, F>(trials: u32, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u32) -> T + Sync,
{
    match try_map_trials(trials, threads, f) {
        Ok(results) => results,
        Err(p) => panic!("{p}"),
    }
}

/// [`map_trials`] with panic containment: every trial runs under
/// `catch_unwind`, and a panicking trial surfaces as `Err(TrialPanic)` on
/// the calling thread — the worker threads always join cleanly and the
/// process keeps running. When several trials panic, the error reports the
/// lowest trial index (deterministically, regardless of thread count or
/// completion order). The happy path is byte-identical to [`map_trials`].
pub fn try_map_trials<T, F>(trials: u32, threads: usize, f: F) -> Result<Vec<T>, TrialPanic>
where
    T: Send,
    F: Fn(u32) -> T + Sync,
{
    use std::panic::{catch_unwind, AssertUnwindSafe};

    // One guarded trial: the closure only borrows `f` and the index, and a
    // poisoned trial's partial state is confined to that trial's own
    // simulator, so unwinding cannot leave shared state torn.
    let guarded = |i: u32| -> Result<T, TrialPanic> {
        catch_unwind(AssertUnwindSafe(|| f(i))).map_err(|payload| TrialPanic {
            trial: i,
            message: panic_message(payload.as_ref()),
        })
    };

    if threads <= 1 || trials <= 1 {
        return (0..trials).map(guarded).collect();
    }
    let workers = threads.min(trials as usize);
    // Contiguous chunks, sized within one of each other so late chunks
    // cannot starve: the first `rem` chunks get one extra trial.
    let base = trials / workers as u32;
    let rem = (trials % workers as u32) as usize;
    let mut chunks: Vec<std::ops::Range<u32>> = Vec::with_capacity(workers);
    let mut start = 0u32;
    for w in 0..workers {
        let len = base + u32::from(w < rem);
        chunks.push(start..start + len);
        start += len;
    }
    let guarded = &guarded;
    let out: Vec<Result<Vec<T>, TrialPanic>> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|range| {
                // Stop the chunk at its first panic: later trials of a
                // poisoned chunk are unreachable anyway, and the first
                // failing index per chunk is all the reduction needs.
                scope.spawn(move || range.map(guarded).collect::<Result<Vec<T>, TrialPanic>>())
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("worker itself cannot panic: trials are guarded")
            })
            .collect()
    });
    // Chunks are in index order, so the first Err holds the lowest
    // panicking index of its chunk; take the minimum across chunks for a
    // thread-count-independent verdict.
    if let Some(worst) = out
        .iter()
        .filter_map(|r| r.as_ref().err())
        .min_by_key(|p| p.trial)
    {
        return Err(worst.clone());
    }
    let mut results = Vec::with_capacity(trials as usize);
    for chunk in out {
        results.extend(chunk.expect("checked above"));
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_index_order() {
        for threads in [1, 2, 3, 8, 64] {
            let got = map_trials(17, threads, |i| i * i);
            let want: Vec<u32> = (0..17).map(|i| i * i).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        // A forked-stream workload, the shape the margin engine uses.
        let work = |threads: usize| {
            map_trials(9, threads, |i| {
                sfq_sim::rng::Rng64::fork(0xFEED, u64::from(i)).next_u64()
            })
        };
        let sequential = work(1);
        for threads in [2, 4, 8] {
            assert_eq!(work(threads), sequential, "threads={threads}");
        }
    }

    #[test]
    fn handles_more_threads_than_trials() {
        assert_eq!(map_trials(2, 16, |i| i), vec![0, 1]);
        assert_eq!(map_trials(0, 4, |i| i), Vec::<u32>::new());
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }

    #[test]
    fn panicking_trial_surfaces_as_err_with_its_index() {
        for threads in [1, 2, 3, 8] {
            let err = try_map_trials(12, threads, |i| {
                assert!(i != 7, "injected failure at trial 7");
                i * 2
            })
            .expect_err("trial 7 panics");
            assert_eq!(err.trial, 7, "threads={threads}");
            assert!(
                err.message.contains("injected failure"),
                "threads={threads}: {err}"
            );
        }
    }

    #[test]
    fn lowest_panicking_index_wins_regardless_of_threads() {
        for threads in [1, 2, 5, 16] {
            let err = try_map_trials(20, threads, |i| {
                assert!(i % 6 != 3, "boom"); // trials 3, 9, 15 panic
                i
            })
            .expect_err("several trials panic");
            assert_eq!(err.trial, 3, "threads={threads}");
        }
    }

    #[test]
    fn process_survives_and_later_batches_run_clean() {
        let _ = try_map_trials(8, 4, |i| assert!(i != 2)).expect_err("poisoned batch");
        // The panic stayed contained: the very same thread can run a clean
        // batch and get the full bit-identical result back.
        let clean = try_map_trials(8, 4, |i| i + 1).expect("clean batch");
        assert_eq!(clean, (1..=8).collect::<Vec<u32>>());
    }

    #[test]
    fn try_map_trials_happy_path_matches_map_trials() {
        let a = try_map_trials(9, 4, |i| {
            sfq_sim::rng::Rng64::fork(0xABCD, u64::from(i)).next_u64()
        })
        .expect("no panics");
        let b = map_trials(9, 4, |i| {
            sfq_sim::rng::Rng64::fork(0xABCD, u64::from(i)).next_u64()
        });
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "trial 5 panicked")]
    fn map_trials_repanics_with_the_trial_index() {
        map_trials(10, 2, |i| assert!(i != 5, "original message"));
    }
}
