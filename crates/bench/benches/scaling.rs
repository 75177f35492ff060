//! Micro-bench: deterministic parallel Monte Carlo scaling.
//!
//! Times the margin engine's trial sweeps at 1, 2, and N worker threads.
//! The per-trial streams are forked from the sweep seed, so every thread
//! count computes the same report — this bench measures only the
//! fork-join overhead and whatever speedup the host's cores provide (a
//! single-core host shows ~1×).

use hiperrf::config::RfGeometry;
use hiperrf::designs::Design;
use hiperrf::margins::{monte_carlo_jitter_with_threads, yield_curve_with_threads};
use hiperrf::par;
use hiperrf_bench::microbench::{bench, group};
use std::hint::black_box;

const SEED: u64 = 0xC0FF_EE00;

fn main() {
    let mut threads = vec![1usize, 2];
    let avail = par::available_threads();
    if !threads.contains(&avail) {
        threads.push(avail);
    }

    group("monte_carlo_jitter (4x4, 16 trials)");
    let g = RfGeometry::paper_4x4();
    for &t in &threads {
        bench(&format!("jitter_mc/{t}_threads"), || {
            black_box(monte_carlo_jitter_with_threads(g, 6.0, 16, SEED, t))
        });
    }

    group("yield_curve (4x4 HiPerRF, 4 trials x 3 sigmas)");
    let sigmas = [0.0, 0.05, 0.10];
    for &t in &threads {
        bench(&format!("yield_curve/{t}_threads"), || {
            black_box(yield_curve_with_threads(
                Design::HiPerRf,
                g,
                &sigmas,
                4,
                SEED,
                t,
            ))
        });
    }
}
