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
//! Panics are not contained here: a panicking trial unwinds out of
//! [`map_trials`] on the calling thread, with its own payload. Callers
//! that must outlive a failed batch contain it themselves — sfq-serve's
//! shard supervisor around each shard attempt, and `repro`'s section
//! runner around each report section.
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
/// Re-raises a panicking trial's own payload on the calling thread. Each
/// worker runs one contiguous chunk of indices in order and stops at its
/// first panic, and the chunks are joined in index order, so the payload
/// re-raised is always the lowest panicking trial's, for every `threads`
/// value.
pub fn map_trials<T, F>(trials: u32, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u32) -> T + Sync,
{
    if threads <= 1 || trials <= 1 {
        return (0..trials).map(f).collect();
    }
    let workers = threads.min(trials as usize);
    // Contiguous chunks, sized within one of each other so late chunks
    // cannot starve: the first `rem` chunks get one extra trial.
    let base = trials / workers as u32;
    let rem = (trials % workers as u32) as usize;
    let f = &f;
    std::thread::scope(|scope| {
        let mut start = 0u32;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let range = start..start + base + u32::from(w < rem);
                start = range.end;
                scope.spawn(move || range.map(f).collect::<Vec<T>>())
            })
            .collect();
        let mut results = Vec::with_capacity(trials as usize);
        for handle in handles {
            match handle.join() {
                Ok(chunk) => results.extend(chunk),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        results
    })
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
            // The panic unwinds out of `map_trials`, so the thread that
            // called it joins as `Err` carrying the trial's own message.
            let payload = std::thread::scope(|s| {
                s.spawn(|| {
                    map_trials(12, threads, |i| {
                        assert!(i != 7, "injected failure at trial {i}");
                        i * 2
                    })
                })
                .join()
            })
            .expect_err("trial 7 panics");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("injected failure at trial 7"),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn lowest_panicking_index_wins_regardless_of_threads() {
        use std::sync::{Condvar, Mutex};
        for threads in [1, 2, 3, 8] {
            // Trials 5, 11 and 17 panic. On more than one thread, trial 5
            // waits until trial 11, in a later chunk, has reached its
            // panic, so the lowest trial is not the first to panic.
            let reached = (Mutex::new(false), Condvar::new());
            let payload = std::thread::scope(|s| {
                s.spawn(|| {
                    map_trials(20, threads, |i| {
                        let (flag, cv) = &reached;
                        if i == 11 {
                            *flag.lock().unwrap() = true;
                            cv.notify_all();
                        }
                        if i == 5 && threads > 1 {
                            drop(cv.wait_while(flag.lock().unwrap(), |r| !*r).unwrap());
                        }
                        assert!(i % 6 != 5, "injected failure at trial {i}");
                        i
                    })
                })
                .join()
            })
            .expect_err("three trials panic");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("injected failure at trial 5"),
                "threads={threads}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "injected failure at trial 5")]
    fn map_trials_repanics_with_the_trial_index() {
        map_trials(10, 2, |i| assert!(i != 5, "injected failure at trial {i}"));
    }
}
